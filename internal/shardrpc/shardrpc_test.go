package shardrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"loki/internal/aggregate"
	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/placement"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// testBackend adapts a journaling shardset.Local into a Backend with a
// trivial partial provider: partials are folded on demand from the
// shard's scan (the real node keeps them warm; the transport does not
// care).
type testBackend struct {
	local *shardset.Local
	total int
}

func (b *testBackend) Meta() Meta {
	owned := make([]int, b.local.Shards())
	for i := range owned {
		owned[i] = b.local.GlobalID(i)
	}
	return Meta{TotalShards: b.total, OwnedShards: owned}
}

func (b *testBackend) shard(global int) (int, error) {
	for i := 0; i < b.local.Shards(); i++ {
		if b.local.GlobalID(i) == global {
			return i, nil
		}
	}
	return 0, &ErrNotOwned{Shard: global}
}

func (b *testBackend) Submit(_ context.Context, secs []SubmitRequest) []SubmitOutcome {
	outs := make([]SubmitOutcome, len(secs))
	for s, req := range secs {
		if outs[s].Err = req.Validate(); outs[s].Err != nil {
			continue
		}
		i, err := b.shard(req.Shard)
		if err != nil {
			outs[s].Err = err
			continue
		}
		counts, err := b.local.AppendShardBatch(i, req.Responses)
		outs[s] = SubmitOutcome{Result: &SubmitResult{Appended: len(counts), Stored: counts}, Err: err}
	}
	return outs
}

func (b *testBackend) ScanShard(global int, surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	i, err := b.shard(global)
	if err != nil {
		return err
	}
	return b.local.ScanShard(i, surveyID, fromSeq, fn)
}

func (b *testBackend) CountShard(global int, surveyID string) int {
	i, err := b.shard(global)
	if err != nil {
		return 0
	}
	return b.local.CountShard(i, surveyID)
}

func (b *testBackend) PartialState(global int, surveyID string, have uint64) (*Partial, error) {
	i, err := b.shard(global)
	if err != nil {
		return nil, err
	}
	sv, err := b.local.Survey(surveyID)
	if err != nil {
		return nil, err
	}
	cursor := uint64(b.local.CountShard(i, surveyID))
	out := &Partial{SurveyID: surveyID, Shard: global, Fingerprint: sv.Fingerprint(), Cursor: cursor}
	if have == cursor && have > 0 {
		out.NotModified = true
		return out, nil
	}
	from := uint64(0)
	if have > 0 && have < cursor {
		from = have
		out.Delta = true
		out.From = have
	}
	acc, err := aggregate.NewAccumulator(core.DefaultSchedule(), sv)
	if err != nil {
		return nil, err
	}
	err = b.local.ScanShard(i, surveyID, from, func(_ uint64, r *survey.Response) error {
		return acc.Add(r)
	})
	if err != nil {
		return nil, err
	}
	out.State = acc.Snapshot()
	return out, nil
}

func (b *testBackend) Tail(global int, epoch, offset uint64, max int, follower string) (*shardset.TailBatch, error) {
	i, err := b.shard(global)
	if err != nil {
		return nil, err
	}
	return b.local.Tail(i, epoch, offset, max, follower)
}

func (b *testBackend) Publish(sv *survey.Survey) (store.Outcome, error) { return b.local.Publish(sv) }
func (b *testBackend) Survey(id string) (*survey.Survey, error) {
	return b.local.Survey(id)
}
func (b *testBackend) Surveys() ([]*survey.Survey, error) { return b.local.Surveys() }

func rpcSurvey(id string) *survey.Survey {
	return &survey.Survey{
		ID:    id,
		Title: "Shardrpc test survey",
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		},
		RewardCents: 1,
	}
}

func rpcResponse(surveyID string, i int) survey.Response {
	return survey.Response{
		SurveyID:     surveyID,
		WorkerID:     fmt.Sprintf("w%05d", i),
		PrivacyLevel: "none",
		Answers:      []survey.Answer{survey.RatingAnswer("q0", float64(1+i%5))},
	}
}

// newTestNode spins one in-process node over HTTP: shards [0..shards)
// of a same-sized cluster.
func newTestNode(t *testing.T, shards int) (*Client, *shardset.Local) {
	t.Helper()
	stores := make([]store.Store, shards)
	for i := range stores {
		stores[i] = store.NewMem()
	}
	return newTestNodeOver(t, stores)
}

// newTestNodeOver is newTestNode over the given shard stores.
func newTestNodeOver(t *testing.T, stores []store.Store) (*Client, *shardset.Local) {
	t.Helper()
	shards := len(stores)
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	h, err := NewHandler(&testBackend{local: local, total: shards}, "cluster-token")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, "cluster-token", nil), local
}

// TestRoundTrip drives every verb over the wire.
func TestRoundTrip(t *testing.T) {
	c, local := newTestNode(t, 2)

	meta, err := c.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.TotalShards != 2 || len(meta.OwnedShards) != 2 {
		t.Fatalf("meta = %+v", meta)
	}

	sv := rpcSurvey("sv")
	// The node's outcome crosses the wire as the local router decided it.
	if o, err := c.Publish(sv); err != nil || o != store.Created {
		t.Fatalf("first publish: %v, %v", o, err)
	}
	if o, err := c.Publish(sv); err != nil || o != store.Unchanged {
		t.Fatalf("identical republish: %v, %v", o, err)
	}

	batch := []survey.Response{rpcResponse("sv", 0), rpcResponse("sv", 1), rpcResponse("sv", 2)}
	res, err := c.Submit(&SubmitRequest{Shard: 1, Responses: batch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 3 || len(res.Stored) != 3 || res.Stored[2] != 3 {
		t.Fatalf("submit result = %+v", res)
	}

	n, err := c.Count(1, "sv")
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}

	// Paged scan: page size 2 over 3 records.
	sb, err := c.Scan(1, "sv", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Records) != 2 || !sb.More || sb.NextSeq != 2 {
		t.Fatalf("page 1 = %+v", sb)
	}
	sb, err = c.Scan(1, "sv", sb.NextSeq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Records) != 1 || sb.More {
		t.Fatalf("page 2 = %+v", sb)
	}

	ps, err := c.Partials(&PartialsRequest{SurveyID: "sv", Shards: []ShardCursor{{Shard: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if p := ps[0]; p.Cursor != 3 || p.State == nil || p.State.N != 3 || p.Fingerprint != sv.Fingerprint() {
		t.Fatalf("partial = %+v", p)
	}

	// Tail: bootstrap then drain.
	tb, err := c.Tail(1, 0, 0, 10, "t")
	if err != nil {
		t.Fatal(err)
	}
	tb, err = c.Tail(1, tb.Epoch, 0, 10, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Entries) != 3 || tb.Entries[0].Response.WorkerID != "w00000" {
		t.Fatalf("tail = %+v", tb)
	}

	got, err := c.Survey("sv")
	if err != nil || got.ID != "sv" {
		t.Fatalf("survey fetch: %v %v", got, err)
	}
	if _, err := c.Survey("ghost"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("unknown survey error = %v, want ErrNotFound", err)
	}
	svs, err := c.Surveys()
	if err != nil || len(svs) != 1 {
		t.Fatalf("surveys = %v, %v", svs, err)
	}
	_ = local
}

// TestIngestPagesKeepTheirRecords: an ingest store lends each scanned
// record in one reused struct, so everything that pages records out of
// a scan — the scan page, the journal tail, CollectResponses and
// ScanMerged — must deep-copy them. Records with different answers come
// back each with its own.
func TestIngestPagesKeepTheirRecords(t *testing.T) {
	st, err := ingest.Open(t.TempDir(), ingest.Config{Shards: 1, IdleCompact: -1})
	if err != nil {
		t.Fatal(err)
	}
	c, local := newTestNodeOver(t, []store.Store{st})
	if _, err := c.Publish(rpcSurvey("sv")); err != nil {
		t.Fatal(err)
	}
	want := make([]survey.Response, 5)
	for i := range want {
		want[i] = rpcResponse("sv", i)
	}
	if _, err := c.Submit(&SubmitRequest{Shard: 0, Responses: want}); err != nil {
		t.Fatal(err)
	}
	check := func(what string, i int, r *survey.Response) {
		t.Helper()
		if i >= len(want) || !slices.Equal(r.Answers, want[i].Answers) || r.WorkerID != want[i].WorkerID {
			t.Errorf("%s record %d = %+v, want %+v", what, i, *r, want[min(i, len(want)-1)])
		}
	}
	page, err := c.Scan(0, "sv", 0, 10)
	if err != nil || len(page.Records) != len(want) {
		t.Fatalf("scan page: %+v, %v", page, err)
	}
	for i := range page.Records {
		check("scan page", i, &page.Records[i].Response)
	}
	tb, err := c.Tail(0, 0, 0, 10, "")
	if err == nil {
		tb, err = c.Tail(0, tb.Epoch, 0, 10, "")
	}
	if err != nil || len(tb.Entries) != len(want) {
		t.Fatalf("tail: %+v, %v", tb, err)
	}
	for i := range tb.Entries {
		check("tail", i, &tb.Entries[i].Response)
	}
	all, err := store.CollectResponses(st, "sv")
	if err != nil || len(all) != len(want) {
		t.Fatalf("collect: %d, %v", len(all), err)
	}
	for i := range all {
		check("collected", i, &all[i])
	}
	i := 0
	if _, err := shardset.ScanMerged(local, "sv", nil, func(_ int, _ uint64, r *survey.Response) error {
		check("merged", i, r)
		i++
		return nil
	}); err != nil || i != len(want) {
		t.Fatalf("merged scan: %d records, %v", i, err)
	}
}

// TestAuthRequired: every route refuses a missing or wrong token.
func TestAuthRequired(t *testing.T) {
	c, _ := newTestNode(t, 1)
	bad := NewClient(c.BaseURL(), "wrong-token", nil)
	if _, err := bad.Meta(); err == nil {
		t.Fatal("wrong token accepted")
	}
	var re *remoteError
	if _, err := bad.Count(0, "sv"); !errors.As(err, &re) || re.Status != http.StatusUnauthorized {
		t.Fatalf("count with wrong token: %v", re)
	}
}

// TestGuardRefusals: no header, a token of the wrong length and one
// wrong only in its last byte each draw the same 401 body, byte for
// byte, and the right token passes.
func TestGuardRefusals(t *testing.T) {
	_, base := newFrameTestNode(t)
	const want = `{"error":"missing or invalid cluster token"}` + "\n"
	for _, auth := range []string{"", "Bearer cluster-token-x", "Bearer cluster-tokeN", "Bearer cluster-token"} {
		req, err := http.NewRequest(http.MethodGet, base+"/shardrpc/v1/meta", nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if auth == "Bearer cluster-token" {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("the right token drew %d %s", resp.StatusCode, body)
			}
			continue
		}
		if resp.StatusCode != http.StatusUnauthorized || string(body) != want || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("Authorization %q: %d %q (%s), want 401 %q", auth, resp.StatusCode, body, resp.Header.Get("Content-Type"), want)
		}
	}
}

// TestNotOwnedShard maps to 421, which a Remote treats as a placement
// bug (no retry).
func TestNotOwnedShard(t *testing.T) {
	c, _ := newTestNode(t, 1)
	sv := rpcSurvey("sv")
	if _, err := c.Publish(sv); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(&SubmitRequest{Shard: 5, Responses: []survey.Response{rpcResponse("sv", 0)}})
	var re *remoteError
	if !errors.As(err, &re) || re.Status != http.StatusMisdirectedRequest {
		t.Fatalf("unowned shard error = %v", err)
	}
}

// TestSubmitPartialFailure: a batch that fails mid-way reports the
// durable prefix so the sender does not resubmit it.
func TestSubmitPartialFailure(t *testing.T) {
	c, _ := newTestNode(t, 1)
	sv := rpcSurvey("sv")
	if _, err := c.Publish(sv); err != nil {
		t.Fatal(err)
	}
	batch := []survey.Response{
		rpcResponse("sv", 0),
		rpcResponse("sv", 1),
		{SurveyID: "ghost", WorkerID: "w", PrivacyLevel: "none"},
	}
	// Mem's batch appender validates up front (all-or-nothing), so this
	// exercises the zero-prefix path; the per-record fallback would
	// report prefix 2. Either way the store and the reply must agree.
	res, err := c.Submit(&SubmitRequest{Shard: 0, Responses: batch})
	var re *remoteError
	if !errors.As(err, &re) {
		t.Fatalf("batch with bad record: %v", err)
	}
	durable := 0
	if res != nil {
		durable = res.Appended
	}
	n, err := c.Count(0, "sv")
	if err != nil {
		t.Fatal(err)
	}
	if n != durable {
		t.Fatalf("node stored %d records, the reply reported %d", n, durable)
	}
}

// TestRemoteRouterEquivalence: the Remote router over the wire behaves
// like a Local router over the same data — same placement, counts and
// scans — and the node queue keeps per-record acks straight under
// concurrency.
func TestRemoteRouterEquivalence(t *testing.T) {
	const shards, n = 2, 60
	c, local := newTestNode(t, shards)
	remote, err := NewRemoteRoundRobin([]*Client{c}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	sv := rpcSurvey("sv")
	if _, err := remote.Publish(sv); err != nil {
		t.Fatal(err)
	}
	// Concurrent appends through the node queue.
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			r := survey.Response{
				SurveyID:     "sv",
				WorkerID:     fmt.Sprintf("w%05d", i),
				PrivacyLevel: "none",
				Answers:      []survey.Answer{survey.RatingAnswer("q0", float64(1+i%5))},
			}
			errCh <- remote.Submit([]int{remote.Route(r.SurveyID, r.WorkerID)}, []survey.Response{r}, nil)()[0].Err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if got := shardset.Count(remote, "sv"); got != n {
		t.Fatalf("remote count = %d, want %d", got, n)
	}
	for s := 0; s < shards; s++ {
		if remote.CountShard(s, "sv") != local.CountShard(s, "sv") {
			t.Fatalf("shard %d: remote %d vs local %d", s, remote.CountShard(s, "sv"), local.CountShard(s, "sv"))
		}
		var viaRemote, viaLocal []string
		if err := remote.ScanShard(s, "sv", 0, func(_ uint64, r *survey.Response) error {
			viaRemote = append(viaRemote, r.WorkerID)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := local.ScanShard(s, "sv", 0, func(_ uint64, r *survey.Response) error {
			viaLocal = append(viaLocal, r.WorkerID)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(viaRemote) != len(viaLocal) {
			t.Fatalf("shard %d scan lengths differ", s)
		}
		for i := range viaRemote {
			if viaRemote[i] != viaLocal[i] {
				t.Fatalf("shard %d scan order differs at %d", s, i)
			}
		}
	}
	// The survey cache serves reads and a republish invalidates it.
	sv2 := rpcSurvey("sv")
	sv2.Title = "Republished"
	if _, err := remote.Publish(sv2); err != nil {
		t.Fatal(err)
	}
	got, err := remote.Survey("sv")
	if err != nil || got.Title != "Republished" {
		t.Fatalf("after republish: %v %v", got, err)
	}
}

// TestConditionalPartial drives the conditional fetch over the wire:
// cold full fetch, not-modified revalidation, delta past a held
// cursor, and the full-resync answer for a cursor ahead of the shard.
func TestConditionalPartial(t *testing.T) {
	c, _ := newTestNode(t, 1)
	sv := rpcSurvey("sv")
	if _, err := c.Publish(sv); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(&SubmitRequest{Shard: 0, Responses: []survey.Response{rpcResponse("sv", 0), rpcResponse("sv", 1), rpcResponse("sv", 2)}}); err != nil {
		t.Fatal(err)
	}

	partialSince := func(have uint64) (*Partial, error) {
		ps, err := c.Partials(&PartialsRequest{SurveyID: "sv", Shards: []ShardCursor{{Shard: 0, Have: have}}})
		if err != nil {
			return nil, err
		}
		return ps[0], nil
	}

	// Cold fetch: full snapshot.
	full, err := partialSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta || full.NotModified || full.Cursor != 3 || full.State == nil || full.State.N != 3 {
		t.Fatalf("cold fetch = %+v", full)
	}

	// Revalidation at the current cursor: not-modified, no state.
	nm, err := partialSince(3)
	if err != nil {
		t.Fatal(err)
	}
	if !nm.NotModified || nm.State != nil || nm.Cursor != 3 {
		t.Fatalf("revalidation = %+v", nm)
	}

	// Two more responses: a delta covering exactly (3, 5].
	if _, err := c.Submit(&SubmitRequest{Shard: 0, Responses: []survey.Response{rpcResponse("sv", 3), rpcResponse("sv", 4)}}); err != nil {
		t.Fatal(err)
	}
	d, err := partialSince(3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Delta || d.From != 3 || d.Cursor != 5 || d.State == nil || d.State.N != 2 {
		t.Fatalf("delta = %+v", d)
	}

	// A cursor ahead of the shard (the caller cached a stream this
	// store never produced): full resync, not a delta.
	re, err := partialSince(99)
	if err != nil {
		t.Fatal(err)
	}
	if re.Delta || re.NotModified || re.Cursor != 5 || re.State == nil || re.State.N != 5 {
		t.Fatalf("ahead-of-shard fetch = %+v", re)
	}
}

// TestPiggybackColocationFollowsBudgetHosting is the placement agreement
// table: for 1 000 workers × 8 shards, every consumer of placement must
// read the manifest's rows — the router's primary, the primary's hosted
// shards, the charger's target, the target's hosted budget shards and
// the colocation verdict — on a positional router, a manifest router
// with a replica placed, the same router after a promotion, and a
// frontend rebuilt from the file the promotion wrote. A false
// "colocated" sends the charge to a node that answers 421 for the
// batch; a wrong charge target draws a 421 or a 404 for the charge.
func TestPiggybackColocationFollowsBudgetHosting(t *testing.T) {
	const shards, workers = 8, 1000
	urls := []string{"http://node-0", "http://node-1"}
	cfg := budget.Config{CapEpsilon: 10, Delta: 1e-6}
	m, err := placement.RoundRobin(shards, urls)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, m *placement.Manifest, r *Remote, c *RemoteCharger) {
		t.Helper()
		if err := r.EnablePiggybackCharges(len(m.Budget)); err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for s := 0; s < shards; s++ {
			rt, _, err := r.route(s)
			if err != nil {
				t.Fatal(err)
			}
			if primary := m.Placement(s).Primary; rt.primary.BaseURL() != primary {
				t.Errorf("%s: shard %d routes to %s, the manifest names %s", name, s, rt.primary.BaseURL(), primary)
			}
		}
		for w := 0; w < workers; w++ {
			worker := fmt.Sprintf("w%04d", w)
			b := budget.Route(worker, len(m.Budget))
			host := m.Budget[b].Host
			if got := c.hosts[b].BaseURL(); got != host || !slices.Contains(m.BudgetShards(host), b) {
				wrong++
			}
			for s := 0; s < shards; s++ {
				if r.CanPiggybackCharge(s, worker) != (host == m.Placement(s).Primary) {
					wrong++
				}
			}
		}
		if wrong != 0 {
			t.Errorf("%s: %d of %d charge targets and colocation verdicts disagree with the manifest's rows", name, wrong, workers*(shards+1))
		}
	}

	clients := []*Client{NewClient(urls[0], "tok", nil), NewClient(urls[1], "tok", nil)}
	positional, err := NewRemoteRoundRobin(clients, shards)
	if err != nil {
		t.Fatal(err)
	}
	charger, err := NewRemoteCharger(clients, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("positional", m, positional, charger)

	// A replica of node-0 placed: one more client than budget hosts.
	for i := range m.Shards {
		if m.Shards[i].Primary == urls[0] {
			m.Shards[i].Replicas = []string{"http://replica-0"}
		}
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	manifest, err := NewRemoteFromManifest(m, "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if charger, err = manifest.Charger(cfg); err != nil {
		t.Fatal(err)
	}
	check("manifest + replica", m, manifest, charger)

	// The replica's promotion on shard 0, as Replica.Promote writes it:
	// Nodes() is now [replica-0, node-1, node-0], and nothing about
	// where ledgers live has moved.
	promoted, err := placement.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.Promote(0, "http://replica-0"); err != nil {
		t.Fatal(err)
	}
	if err := promoted.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := manifest.ApplyManifest(promoted); err != nil {
		t.Fatal(err)
	}
	check("after promotion", promoted, manifest, charger)

	reloaded, err := placement.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewRemoteFromManifest(reloaded, "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if charger, err = rebuilt.Charger(cfg); err != nil {
		t.Fatal(err)
	}
	check("rebuilt from the promoted file", reloaded, rebuilt, charger)

	// A manifest that moves a ledger is refused: budget rows cannot move.
	moved := promoted.Clone()
	moved.Version++
	moved.Budget[0].Host = "http://replica-0"
	if err := manifest.ApplyManifest(moved); err == nil {
		t.Fatal("a manifest moving budget shard 0 was applied")
	}

	// A promoted replica hosts no budget shard: nothing rides to it.
	all := promoted.Clone()
	all.Version++
	for i := range all.Shards {
		all.Shards[i].Primary, all.Shards[i].Replicas = "http://replica-0", nil
		all.Shards[i].Epoch++
	}
	if err := manifest.ApplyManifest(all); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if worker := fmt.Sprintf("w%04d", w); manifest.CanPiggybackCharge(w%shards, worker) {
			t.Fatalf("shard %d: %s's charge rides to a promoted replica", w%shards, worker)
		}
	}
}

// TestPublishWireMixedVersions: a client always asks to replace, which
// an older node needs to upsert a taken ID, and reads an older node's
// reply, which has no outcome, as a replace.
func TestPublishWireMixedVersions(t *testing.T) {
	var got PublishRequest
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":"sv"}`)
	}))
	defer old.Close()
	o, err := NewClient(old.URL, "tok", nil).Publish(rpcSurvey("sv"))
	if err != nil || o != store.Replaced {
		t.Fatalf("an outcome-less reply reads as %v, %v", o, err)
	}
	if !got.Replace || got.Survey == nil || got.Survey.ID != "sv" {
		t.Fatalf("the request carried %+v", got)
	}
}
