package shardrpc

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"testing"

	"loki/internal/placement"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// TestPartialsHandler drives the batched partial route: one call mixing
// a full snapshot, a not-modified and a delta comes back aligned with
// the request, and a malformed, misdirected or unauthenticated call is
// refused whole.
func TestPartialsHandler(t *testing.T) {
	c, _ := newTestNode(t, 3)
	sv := rpcSurvey("sv")
	if _, err := c.Publish(sv); err != nil {
		t.Fatal(err)
	}
	for shard, n := range []int{3, 2, 1} {
		batch := make([]survey.Response, n)
		for i := range batch {
			batch[i] = rpcResponse("sv", 10*shard+i)
		}
		if _, err := c.Submit(&SubmitRequest{Shard: shard, Responses: batch}); err != nil {
			t.Fatal(err)
		}
	}

	req := &PartialsRequest{SurveyID: "sv", Shards: []ShardCursor{{Shard: 2}, {Shard: 0, Have: 3}, {Shard: 1, Have: 1}}}
	ps, err := c.Partials(req)
	if err != nil {
		t.Fatal(err)
	}
	if full := ps[0]; full.Shard != 2 || full.Delta || full.NotModified || full.Cursor != 1 || full.State == nil || full.State.N != 1 {
		t.Errorf("entry 0 = %+v, want shard 2's full snapshot", full)
	}
	if nm := ps[1]; nm.Shard != 0 || !nm.NotModified || nm.State != nil || nm.Cursor != 3 {
		t.Errorf("entry 1 = %+v, want shard 0 not modified", nm)
	}
	if d := ps[2]; d.Shard != 1 || !d.Delta || d.From != 1 || d.Cursor != 2 || d.State == nil || d.State.N != 1 {
		t.Errorf("entry 2 = %+v, want shard 1's delta (1, 2]", d)
	}

	refused := []struct {
		name   string
		client *Client
		req    *PartialsRequest
		status int
	}{
		{"no shard", c, &PartialsRequest{SurveyID: "sv"}, http.StatusBadRequest},
		{"duplicate shard", c, &PartialsRequest{SurveyID: "sv", Shards: []ShardCursor{{Shard: 1}, {Shard: 0}, {Shard: 1, Have: 2}}}, http.StatusBadRequest},
		{"more shards than the cluster", c, &PartialsRequest{SurveyID: "sv", Shards: []ShardCursor{{Shard: 0}, {Shard: 1}, {Shard: 2}, {Shard: 3}}}, http.StatusBadRequest},
		{"an unowned shard", c, &PartialsRequest{SurveyID: "sv", Shards: []ShardCursor{{Shard: 0}, {Shard: 5}}}, http.StatusMisdirectedRequest},
		{"unknown survey", c, &PartialsRequest{SurveyID: "ghost", Shards: []ShardCursor{{Shard: 0}}}, http.StatusNotFound},
		{"wrong token", NewClient(c.BaseURL(), "wrong-token", nil), req, http.StatusUnauthorized},
	}
	for _, tc := range refused {
		_, err := tc.client.Partials(tc.req)
		var re *remoteError
		if !errors.As(err, &re) || re.Status != tc.status {
			t.Errorf("%s: %v, want status %d", tc.name, err, tc.status)
		}
	}
}

// TestPartialsReplyMustAnswerTheRequest: a reply that answers other
// shards than the ones asked for, or fewer, is a protocol error — the
// node answered, so it is not evidence the node is down.
func TestPartialsReplyMustAnswerTheRequest(t *testing.T) {
	for name, body := range map[string]string{
		"short":      `{"partials":[]}`,
		"misaligned": `{"partials":[{"shard":1},{"shard":0}]}`,
		"null entry": `{"partials":[{"shard":0},null]}`,
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte(body))
		}))
		_, err := NewClient(ts.URL, "tok", nil).Partials(&PartialsRequest{SurveyID: "sv", Shards: []ShardCursor{{Shard: 0}, {Shard: 1}}})
		ts.Close()
		if !errors.Is(err, errProtocol) || IsTransportError(err) {
			t.Errorf("%s reply: %v, want a protocol error", name, err)
		}
	}
}

// partialCounter is a RoundTripper that counts the batched partial calls
// it carries per node, and fails every request to a host in dead the
// way a dead process does: no status, a transport error.
type partialCounter struct {
	mu    sync.Mutex
	calls map[string]int
	dead  map[string]bool
}

func (pc *partialCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	pc.mu.Lock()
	if r.URL.Path == "/shardrpc/v1/partial" {
		pc.calls[r.URL.Host]++
	}
	dead := pc.dead[r.URL.Host]
	pc.mu.Unlock()
	if dead {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, errors.New("connection refused")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the calls counted per node URL since the last take.
func (pc *partialCounter) take(urls ...string) []int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]int, len(urls))
	for i, u := range urls {
		host := mustHost(u)
		out[i] = pc.calls[host]
		delete(pc.calls, host)
	}
	return out
}

func (pc *partialCounter) kill(u string) {
	pc.mu.Lock()
	pc.dead[mustHost(u)] = true
	pc.mu.Unlock()
}

func mustHost(u string) string {
	parsed, err := url.Parse(u)
	if err != nil {
		panic(err)
	}
	return parsed.Host
}

// partialsCluster is two nodes over the 8 shards of a round-robin
// manifest, node 0's shards replicated to a third server over the same
// data (a caught-up replica), and a manifest-routed Remote whose every
// call goes through one partialCounter. Shard s holds s+1 records.
type partialsCluster struct {
	remote                *Remote
	counter               *partialCounter
	node0, node1, replica string
}

func newPartialsCluster(t *testing.T) *partialsCluster {
	t.Helper()
	const shards = 8
	serve := func(local *shardset.Local) string {
		h, err := NewHandler(&testBackend{local: local, total: shards}, "cluster-token")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	var urls []string
	locals := make([]*shardset.Local, 2)
	for n, owned := range placement.RoundRobinShards(shards, 2) {
		stores := make([]store.Store, len(owned))
		for i := range stores {
			stores[i] = store.NewMem()
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: owned})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { local.Close() })
		if _, err := local.Publish(rpcSurvey("sv")); err != nil {
			t.Fatal(err)
		}
		for i, s := range owned {
			for k := 0; k <= s; k++ {
				if _, err := local.AppendShard(i, &survey.Response{
					SurveyID: "sv", WorkerID: "w", PrivacyLevel: "none",
					Answers: []survey.Answer{survey.RatingAnswer("q0", 3)},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		locals[n] = local
		urls = append(urls, serve(local))
	}
	pc := &partialsCluster{counter: &partialCounter{calls: map[string]int{}, dead: map[string]bool{}},
		node0: urls[0], node1: urls[1], replica: serve(locals[0])}
	m, err := placement.RoundRobin(shards, urls)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		if m.Shards[i].Primary == pc.node0 {
			m.Shards[i].Replicas = []string{pc.replica}
		}
	}
	if pc.remote, err = NewRemoteFromManifest(m, "cluster-token", &http.Client{Transport: pc.counter}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.remote.Close() })
	return pc
}

// read revalidates every shard at have and requires an answer for each;
// it returns the shards answered stale.
func (pc *partialsCluster) read(t *testing.T, have []uint64) (parts []*Partial, stale []int) {
	t.Helper()
	parts, errs := pc.remote.Partials("sv", have)
	for s, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if parts[s].Shard != s || parts[s].Cursor != uint64(s+1) {
			t.Fatalf("shard %d answered %+v", s, parts[s])
		}
		if parts[s].Stale {
			stale = append(stale, s)
		}
	}
	return parts, stale
}

// TestRemotePartialsOneCallPerNode: a revalidation of 8 shards on 2
// nodes is 2 calls, cold or warm, whatever each shard answers.
func TestRemotePartialsOneCallPerNode(t *testing.T) {
	pc := newPartialsCluster(t)
	have := make([]uint64, 8)
	parts, stale := pc.read(t, have)
	for s, p := range parts {
		if p.NotModified || p.Delta || p.State == nil || p.State.N != s+1 {
			t.Fatalf("cold shard %d = %+v, want a full snapshot", s, p)
		}
		have[s] = p.Cursor
	}
	if got := pc.counter.take(pc.node0, pc.node1, pc.replica); !slices.Equal(got, []int{1, 1, 0}) {
		t.Fatalf("cold revalidation calls per node = %v, want [1 1 0]", got)
	}
	have[3] = 2 // one shard behind: a delta among not-modifieds
	parts, _ = pc.read(t, have)
	for s, p := range parts {
		if want := s != 3; p.NotModified != want || p.Delta == want {
			t.Fatalf("warm shard %d = %+v", s, p)
		}
	}
	if got := pc.counter.take(pc.node0, pc.node1, pc.replica); !slices.Equal(got, []int{1, 1, 0}) {
		t.Fatalf("warm revalidation calls per node = %v, want [1 1 0]", got)
	}
	if len(stale) != 0 || pc.remote.StaleReads() != 0 {
		t.Fatalf("primaries' answers marked stale: %v, counter %d", stale, pc.remote.StaleReads())
	}
}

// TestRemotePartialsPrimaryBelievedDown: the shards of a primary the
// detector believes down go to their replica in one call, each marked
// stale and counted once.
func TestRemotePartialsPrimaryBelievedDown(t *testing.T) {
	pc := newPartialsCluster(t)
	pc.remote.markDown(pc.node0, errors.New("probe failed"))
	_, stale := pc.read(t, make([]uint64, 8))
	if !slices.Equal(stale, []int{0, 2, 4, 6}) {
		t.Fatalf("stale shards = %v, want node 0's [0 2 4 6]", stale)
	}
	if got := pc.counter.take(pc.node0, pc.node1, pc.replica); !slices.Equal(got, []int{0, 1, 1}) {
		t.Fatalf("calls per node = %v, want [0 1 1]", got)
	}
	if got := pc.remote.StaleReads(); got != 4 {
		t.Fatalf("stale reads = %d, want 4", got)
	}
}

// TestRemotePartialsFailoverWithinRead: a primary that dies while the
// detector still believes it up fails its round-0 call; its shards are
// answered by the replica in round 1 of the same read, labelled stale,
// not degraded. With the replica dead too they have no candidate left
// and keep the transport error.
func TestRemotePartialsFailoverWithinRead(t *testing.T) {
	pc := newPartialsCluster(t)
	pc.counter.kill(pc.node0)
	_, stale := pc.read(t, make([]uint64, 8))
	if !slices.Equal(stale, []int{0, 2, 4, 6}) {
		t.Fatalf("stale shards = %v, want node 0's [0 2 4 6]", stale)
	}
	if got := pc.counter.take(pc.node0, pc.node1, pc.replica); !slices.Equal(got, []int{1, 1, 1}) {
		t.Fatalf("calls per node = %v, want [1 1 1]", got)
	}
	if !pc.remote.nodeDown(pc.node0) || pc.remote.StaleReads() != 4 {
		t.Fatalf("after the failed call: node 0 down %v, stale reads %d", pc.remote.nodeDown(pc.node0), pc.remote.StaleReads())
	}

	pc.counter.kill(pc.replica)
	parts, errs := pc.remote.Partials("sv", make([]uint64, 8))
	for s := range errs {
		if dark := s%2 == 0; dark != IsTransportError(errs[s]) || dark == (parts[s] != nil) {
			t.Errorf("shard %d with node 0 and its replica dead: %+v, %v", s, parts[s], errs[s])
		}
	}
}
