package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// clusterTestSurvey exercises every accumulator cell kind: Welford
// bins, choice counts, and the consistency screen.
func clusterTestSurvey() *survey.Survey {
	return &survey.Survey{
		ID:    "cluster",
		Title: "Cluster test survey",
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q1", Text: "rate again", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q2", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
		},
		Consistency: []survey.ConsistencyPair{{QuestionA: "q0", QuestionB: "q1", Tolerance: 1}},
		RewardCents: 1,
	}
}

// randomResponse builds a response with a mixed privacy level, an
// occasional inconsistent pair and a choice answer — randomized but
// deterministic per rng.
func randomResponse(sv *survey.Survey, rng *rand.Rand, i int) *survey.Response {
	levels := []string{"none", "low", "medium", "high"}
	lvl := levels[rng.Intn(len(levels))]
	rating := float64(1 + rng.Intn(5))
	q1 := rating
	if rng.Intn(10) == 0 {
		if rating >= 3 {
			q1 = rating - 2
		} else {
			q1 = rating + 2
		}
	}
	return &survey.Response{
		SurveyID:     sv.ID,
		WorkerID:     fmt.Sprintf("w%06d", i),
		PrivacyLevel: lvl,
		Obfuscated:   lvl != "none",
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", rating),
			survey.RatingAnswer("q1", q1),
			survey.ChoiceAnswer("q2", rng.Intn(3)),
		},
	}
}

// appendRouted appends one response to the shard placement gives it.
func appendRouted(l *shardset.Local, r *survey.Response) (int, error) {
	return l.AppendShard(l.Route(r.SurveyID, r.WorkerID), r)
}

// collectMerged materializes the seq-merged response stream of a
// sharded router — the reference data the merged read path is checked
// against.
func collectMerged(t *testing.T, r shardset.ShardRouter, surveyID string) []survey.Response {
	t.Helper()
	var out []survey.Response
	if _, err := shardset.ScanMerged(r, surveyID, nil, func(_ int, _ uint64, resp *survey.Response) error {
		out = append(out, resp.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceAggregate folds the seq-merged stream through one
// accumulator — the single-accumulator path the tentpole's acceptance
// criterion names.
func referenceAggregate(t *testing.T, r shardset.ShardRouter, sv *survey.Survey) *AggregateResult {
	t.Helper()
	est, err := BatchEstimator(core.DefaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	out, err := BatchAggregate(est, sv, collectMerged(t, r, sv.ID))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterMergeEquivalence is the cross-shard merge equivalence
// property test: for several seeds and shard counts, the per-shard
// partial accumulators Merged at query time must equal a single
// accumulator folded over the seq-merged stream — on a live server,
// and again after a restart that restores every shard partial from its
// per-shard checkpoint and catches up only the shard tails.
//
// Integer state (counts, bins, observed choices, quality tallies) must
// match exactly; float fields to within accumulation-order noise, since
// Welford merges reorder IEEE-754 operations (compareAggregate's 1e-9
// relative tolerance, orders of magnitude below any statistical meaning
// the estimates carry).
func TestClusterMergeEquivalence(t *testing.T) {
	for _, shards := range []int{2, 5} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				stores := make([]store.Store, shards)
				for i := range stores {
					stores[i] = store.NewMem()
				}
				router, err := shardset.NewLocal(stores, shardset.LocalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { router.Close() })
				sv := clusterTestSurvey()
				if _, err := router.Publish(sv); err != nil {
					t.Fatal(err)
				}
				ckpt, err := checkpoint.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ckpt.Close() })
				srv, err := New(Config{
					Router: router, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken,
					Checkpoints: ckpt, CheckpointInterval: time.Hour,
				})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)

				n := 100 + rng.Intn(100)
				for i := 0; i < n; i++ {
					submitOK(t, ts, randomResponse(sv, rng, i))
				}

				want := referenceAggregate(t, router, sv)
				compareAggregate(t, getAggregate(t, ts, sv.ID), want)

				// Checkpoint every shard partial, then restart: the new
				// server restores per shard and must answer identically.
				if err := srv.FlushCheckpoints(); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < shards; s++ {
					rec, ok := ckpt.GetShard(sv.ID, s)
					if !ok {
						t.Fatalf("no checkpoint for shard %d", s)
					}
					if rec.Cursor != uint64(router.CountShard(s, sv.ID)) {
						t.Fatalf("shard %d checkpoint cursor %d, store holds %d", s, rec.Cursor, router.CountShard(s, sv.ID))
					}
					if rec.NumShards() != shards {
						t.Fatalf("shard %d checkpoint layout %d, want %d", s, rec.NumShards(), shards)
					}
				}
				srv.Close()

				// A few post-checkpoint submits so restart catch-up has
				// real per-shard tails to scan.
				srv2, err := New(Config{
					Router: router, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken,
					Checkpoints: ckpt, CheckpointInterval: time.Hour,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv2.Close() })
				ts2 := httptest.NewServer(srv2)
				t.Cleanup(ts2.Close)
				for i := 0; i < 20; i++ {
					submitOK(t, ts2, randomResponse(sv, rng, n+i))
				}
				compareAggregate(t, getAggregate(t, ts2, sv.ID), referenceAggregate(t, router, sv))
			})
		}
	}
}

// newTestNodes spins nodes (shardrpc over real HTTP) and returns one
// client per node.
func newTestNodes(t testing.TB, nodes, totalShards, journalRetain int) []*shardrpc.Client {
	t.Helper()
	owned := shardrpc.RoundRobinPlacement(totalShards, nodes)
	clients := make([]*shardrpc.Client, nodes)
	for nd := 0; nd < nodes; nd++ {
		stores := make([]store.Store, len(owned[nd]))
		for i := range stores {
			stores[i] = store.NewMem()
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{
			GlobalIDs: owned[nd], Journal: true, JournalRetain: journalRetain,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { local.Close() })
		nsrv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken, Role: "node"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nsrv.Close() })
		node, err := NewNode(nsrv, totalShards)
		if err != nil {
			t.Fatal(err)
		}
		h, err := shardrpc.NewHandler(node, testClusterToken)
		if err != nil {
			t.Fatal(err)
		}
		nts := httptest.NewServer(h)
		t.Cleanup(nts.Close)
		clients[nd] = shardrpc.NewClient(nts.URL, testClusterToken, nil)
	}
	return clients
}

// newTestFrontend builds one frontend server over the given node
// clients with explicit cache settings (ttl < 0 disables the cache,
// matching Config semantics).
func newTestFrontend(t testing.TB, clients []*shardrpc.Client, totalShards int, cacheTTL, refresh time.Duration) (*httptest.Server, *shardrpc.Remote, *Server) {
	t.Helper()
	remote, err := shardrpc.NewRemoteRoundRobin(clients, totalShards)
	if err != nil {
		t.Fatal(err)
	}
	frontend, err := New(Config{
		Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken, Role: "frontend",
		FrontendCacheTTL: cacheTTL, FrontendRefresh: refresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frontend.Close() })
	fts := httptest.NewServer(frontend)
	t.Cleanup(fts.Close)
	return fts, remote, frontend
}

// newTestCluster spins nodes (shardrpc over real HTTP) and a frontend
// server with default caching; returns the frontend's test server and
// the remote router.
func newTestCluster(t *testing.T, nodes, totalShards int) (*httptest.Server, *shardrpc.Remote) {
	t.Helper()
	clients := newTestNodes(t, nodes, totalShards, 0)
	fts, remote, _ := newTestFrontend(t, clients, totalShards, 0, 0)
	return fts, remote
}

// TestClusterEndToEnd: publish and submit through the frontend, read
// merged aggregates, and check the admin surface reports the role.
func TestClusterEndToEnd(t *testing.T) {
	const totalShards = 4
	fts, remote := newTestCluster(t, 2, totalShards)
	sv := clusterTestSurvey()

	resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 150
	for i := 0; i < n; i++ {
		submitOK(t, fts, randomResponse(sv, rng, i))
	}
	if got := shardset.Count(remote, sv.ID); got != n {
		t.Fatalf("cluster holds %d responses, want %d", got, n)
	}
	// Responses actually spread across shards.
	spread := 0
	for s := 0; s < totalShards; s++ {
		if remote.CountShard(s, sv.ID) > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("placement used %d shards", spread)
	}

	// Merged reads equal the single-accumulator fold of the seq-merged
	// stream, live and after more submits.
	compareAggregate(t, getAggregate(t, fts, sv.ID), referenceAggregate(t, remote, sv))
	for i := 0; i < 30; i++ {
		submitOK(t, fts, randomResponse(sv, rng, n+i))
	}
	compareAggregate(t, getAggregate(t, fts, sv.ID), referenceAggregate(t, remote, sv))

	// Admin surface: frontend role, remote backend, global shard count.
	resp, body = doReq(t, http.MethodGet, fts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Role != "frontend" || info.Backend != "remote" || info.RouterShards != totalShards {
		t.Fatalf("admin info = role %q backend %q shards %d", info.Role, info.Backend, info.RouterShards)
	}

	// Republish through the frontend: nodes invalidate and reads fold
	// under the new definition.
	sv2 := clusterTestSurvey()
	sv2.Questions = sv2.Questions[:2]
	sv2.Consistency = nil
	resp, body = doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv2, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("republish = %d: %s", resp.StatusCode, body)
	}
	got := getAggregate(t, fts, sv.ID)
	if len(got.Choices) != 0 {
		t.Fatalf("republished aggregate still has %d choice questions", len(got.Choices))
	}
}

// switchableHandler lets a test "restart" a node behind a stable URL.
type switchableHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *switchableHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *switchableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// newFollower builds a node that mirrors src's shard layout — the
// shards it will follow — behind its own URL, serving the public API and
// shardrpc on one mux like a production node. Its follow loop is armed
// with o (PollInterval an hour unless set: tests drive SyncOnce), and it
// follows nothing until a manifest lists it as a replica.
func newFollower(t testing.TB, src *shardrpc.Client, o FollowOptions) (*Node, *httptest.Server) {
	t.Helper()
	meta, err := src.Meta()
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]store.Store, len(meta.OwnedShards))
	for i := range stores {
		stores[i] = store.NewMem()
	}
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: meta.OwnedShards, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	srv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken, Role: "node"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	node, err := NewNode(srv, meta.TotalShards)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardrpc.NewHandler(node, testClusterToken)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/shardrpc/", h)
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	if o.PollInterval == 0 {
		o.PollInterval = time.Hour
	}
	node.Follow(o)
	t.Cleanup(func() { node.Close() })
	return node, ts
}

// followManifest places every shard of a total-shard cluster on primary
// at epoch, with follower as its replica.
func followManifest(t testing.TB, total int, primary, follower string, epoch uint64) *placement.Manifest {
	t.Helper()
	m, err := placement.RoundRobin(total, []string{primary})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Epoch = epoch
		m.Shards[i].Replicas = []string{follower}
	}
	return m
}

// TestReplicaFollowsNode: WAL-tail shipping end to end — catch-up,
// read-only serving, staleness reporting, and the epoch reset after a
// node restart. The follower is a node the manifest lists as every
// shard's replica.
func TestReplicaFollowsNode(t *testing.T) {
	const shards = 2
	stores := make([]store.Store, shards)
	for i := range stores {
		stores[i] = store.NewMem()
	}
	newNode := func() (*shardset.Local, http.Handler) {
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		nsrv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken, Role: "node"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nsrv.Close() })
		node, err := NewNode(nsrv, shards)
		if err != nil {
			t.Fatal(err)
		}
		h, err := shardrpc.NewHandler(node, testClusterToken)
		if err != nil {
			t.Fatal(err)
		}
		return local, h
	}
	local, h := newNode()
	sw := &switchableHandler{h: h}
	nts := httptest.NewServer(sw)
	t.Cleanup(nts.Close)

	sv := clusterTestSurvey()
	if _, err := local.Publish(sv); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 80
	for i := 0; i < n; i++ {
		if _, err := appendRouted(local, randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}

	rep, rts := newFollower(t, shardrpc.NewClient(nts.URL, testClusterToken, nil), FollowOptions{})
	rep.ApplyManifest(followManifest(t, shards, nts.URL, rts.URL, 1), rts.URL)
	rep.SyncOnce()

	// The replica serves the same merged aggregates the node data
	// implies.
	compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local, sv))

	// Read-only: submits and publishes are refused.
	resp, body := doReq(t, http.MethodPost, rts.URL+"/api/v1/surveys/"+sv.ID+"/responses", randomResponse(sv, rng, 999), "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica submit = %d: %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPost, rts.URL+"/api/v1/surveys", sv, testToken)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica publish = %d: %s", resp.StatusCode, body)
	}

	// Staleness cursors: fully caught up after the sync.
	resp, body = doReq(t, http.MethodGet, rts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica admin = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Role != "node" || info.Replication == nil || len(info.Replication.Shards) != shards {
		t.Fatalf("replica admin info = %+v", info)
	}
	for _, sh := range info.Replication.Shards {
		if sh.LagRecords != 0 || sh.Epoch == 0 || sh.LastError != "" || sh.Source != nts.URL {
			t.Fatalf("shard %d staleness = %+v", sh.Shard, sh)
		}
	}

	// New appends show up after the next cycle; lag is visible before
	// it.
	for i := 0; i < 20; i++ {
		if _, err := appendRouted(local, randomResponse(sv, rng, n+i)); err != nil {
			t.Fatal(err)
		}
	}
	rep.SyncOnce()
	compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local, sv))

	// "Restart" the node: same stores, new journal epoch behind the
	// same URL. The replica must detect the epoch change, resync from
	// scratch, and converge again.
	local2, h2 := newNode()
	sw.swap(h2)
	for i := 0; i < 10; i++ {
		if _, err := appendRouted(local2, randomResponse(sv, rng, n+100+i)); err != nil {
			t.Fatal(err)
		}
	}
	rep.SyncOnce()
	compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local2, sv))
	ri := rep.replicationInfo()
	resets := 0
	for _, sh := range ri.Shards {
		resets += sh.Resets
	}
	if resets == 0 {
		t.Fatal("node restart did not trigger an epoch reset")
	}
}

// TestAdminAccumulatorClear: an operator can drop a poisoned
// accumulator without republishing; the next read rebuilds from the
// store.
func TestAdminAccumulatorClear(t *testing.T) {
	ps := &poisonStore{Mem: store.NewMem()}
	sv := ckptSurvey()
	if _, err := ps.Publish(sv); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: ps, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for i := 0; i < 6; i++ {
		submitOK(t, ts, ckptResponse(sv, i))
	}

	// Poison, then force a rebuild that traverses the bad record.
	ps.poisonSeq = 3
	srv2, err := New(Config{Store: ps, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	if resp, _ := doReq(t, http.MethodGet, aggregateURL(ts2, sv.ID), nil, testToken); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned read = %d, want 500", resp.StatusCode)
	}

	// Clearing an unknown survey is a 404; clearing without the token a
	// 401.
	if resp, _ := doReq(t, http.MethodPost, ts2.URL+"/api/v1/admin/accumulator/ghost/clear", nil, testClusterToken); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("clear unknown = %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPost, ts2.URL+"/api/v1/admin/accumulator/"+sv.ID+"/clear", nil, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated clear = %d", resp.StatusCode)
	}

	// The store is "repaired" (poison off) but the wedged accumulator
	// still serves the sticky error — exactly the situation the clear
	// endpoint exists for.
	ps.poisonSeq = 0
	if resp, _ := doReq(t, http.MethodGet, aggregateURL(ts2, sv.ID), nil, testToken); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sticky poisoned read = %d, want 500", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodPost, ts2.URL+"/api/v1/admin/accumulator/"+sv.ID+"/clear", nil, testClusterToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clear = %d: %s", resp.StatusCode, body)
	}
	var res AccumulatorClearResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Cleared {
		t.Fatalf("clear result = %+v", res)
	}
	compareAggregate(t, getAggregate(t, ts2, sv.ID), recomputeAggregate(t, ps, sv))
}

// TestAdminRepublishHistory: the admin surface lists every definition
// fingerprint with publish timestamps, surviving a durable-store
// reopen.
func TestAdminRepublishHistory(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFile(dir + "/loki.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sv := ckptSurvey()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	sv2 := ckptSurvey()
	sv2.Title = "Republished title"
	if _, err := st.Publish(sv2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.OpenFile(dir + "/loki.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv, err := New(Config{Store: st2, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Surveys) != 1 {
		t.Fatalf("history for %d surveys, want 1", len(info.Surveys))
	}
	h := info.Surveys[0]
	if h.SurveyID != sv.ID || len(h.Versions) != 2 {
		t.Fatalf("history = %+v", h)
	}
	if h.Versions[0].Fingerprint != sv.Fingerprint() || h.Versions[1].Fingerprint != sv2.Fingerprint() {
		t.Fatalf("fingerprints = %+v", h.Versions)
	}
	for i, v := range h.Versions {
		if v.PublishedAt.IsZero() {
			t.Fatalf("version %d lost its publish timestamp across reopen", i)
		}
	}
}

// TestCheckpointGlobalShardIdentity: checkpoints are keyed by GLOBAL
// shard and validated against the global layout, so a node redeployed
// onto a different shard subset (or into a resized cluster) never
// restores another shard's fold state.
func TestCheckpointGlobalShardIdentity(t *testing.T) {
	sv := clusterTestSurvey()
	rng := rand.New(rand.NewSource(3))
	ckpt, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ckpt.Close() })

	// A "node" owning global shard 1 of a 2-shard cluster.
	stA := store.NewMem()
	routerA, err := shardset.NewLocal([]store.Store{stA}, shardset.LocalOptions{GlobalIDs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { routerA.Close() })
	if _, err := routerA.Publish(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := routerA.AppendShard(0, randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	srvA, err := New(Config{
		Router: routerA, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken,
		Checkpoints: ckpt, CheckpointInterval: time.Hour, ClusterShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	t.Cleanup(tsA.Close)
	getAggregate(t, tsA, sv.ID) // fold
	if err := srvA.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	srvA.Close()
	// The record is keyed by global shard 1, not local index 0.
	if _, ok := ckpt.GetShard(sv.ID, 0); ok {
		t.Fatal("checkpoint keyed by local shard index")
	}
	rec, ok := ckpt.GetShard(sv.ID, 1)
	if !ok || rec.NumShards() != 2 {
		t.Fatalf("global-shard record = %+v", rec)
	}

	// Same checkpoint dir, but the node now owns global shard 0 with a
	// different (smaller) store: the shard-1 state must not restore
	// onto shard 0.
	stB := store.NewMem()
	routerB, err := shardset.NewLocal([]store.Store{stB}, shardset.LocalOptions{GlobalIDs: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { routerB.Close() })
	if _, err := routerB.Publish(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // more records than shard 1 held
		if _, err := routerB.AppendShard(0, randomResponse(sv, rng, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	srvB, err := New(Config{
		Router: routerB, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken,
		Checkpoints: ckpt, CheckpointInterval: time.Hour, ClusterShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })
	tsB := httptest.NewServer(srvB)
	t.Cleanup(tsB.Close)
	got := getAggregate(t, tsB, sv.ID)
	if got.Choices[0].N != 40 {
		t.Fatalf("redeployed node folded %d responses, want a clean 40 (foreign checkpoint restored?)", got.Choices[0].N)
	}

	// And a cluster resize (same global shard, different total) also
	// refuses the restore.
	srvC, err := New(Config{
		Router: routerA, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken,
		Checkpoints: ckpt, CheckpointInterval: time.Hour, ClusterShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvC.Close() })
	tsC := httptest.NewServer(srvC)
	t.Cleanup(tsC.Close)
	if got := getAggregate(t, tsC, sv.ID); got.Choices[0].N != 30 {
		t.Fatalf("resized cluster folded %d, want 30 from a clean rescan", got.Choices[0].N)
	}
}

// TestReplicaTruncationBootstrap: a replica that needs journal entries
// the node has truncated (retain bound) rebuilds the shard from paged
// store scans and converges — and keeps converging when the bound
// truncates past it again.
func TestReplicaTruncationBootstrap(t *testing.T) {
	const shards = 2
	stores := make([]store.Store, shards)
	for i := range stores {
		stores[i] = store.NewMem()
	}
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{Journal: true, JournalRetain: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	nsrv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken, Role: "node"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nsrv.Close() })
	node, err := NewNode(nsrv, shards)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardrpc.NewHandler(node, testClusterToken)
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(h)
	t.Cleanup(nts.Close)

	sv := clusterTestSurvey()
	if _, err := local.Publish(sv); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	const n = 2*tailPage + 60 // far beyond the journal's 5 retained entries, and over a scan page per shard
	for i := 0; i < n; i++ {
		if _, err := appendRouted(local, randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := local.JournalStats()[0]; st.Base == 0 {
		t.Fatalf("retain bound never truncated: %+v", st)
	}

	rep, rts := newFollower(t, shardrpc.NewClient(nts.URL, testClusterToken, nil), FollowOptions{})
	rep.ApplyManifest(followManifest(t, shards, nts.URL, rts.URL, 1), rts.URL)
	rep.SyncOnce()

	compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local, sv))
	ri := rep.replicationInfo()
	boots := 0
	for _, sh := range ri.Shards {
		boots += sh.Bootstraps
		if sh.LagRecords != 0 || sh.LastError != "" {
			t.Fatalf("shard %d staleness after bootstrap = %+v", sh.Shard, sh)
		}
	}
	if boots == 0 {
		t.Fatal("truncated journal never forced a bootstrap")
	}

	// Another burst past the retain bound: the replica (now registered,
	// but outrun by the bound) must bootstrap again and still converge.
	for i := 0; i < 30; i++ {
		if _, err := appendRouted(local, randomResponse(sv, rng, n+i)); err != nil {
			t.Fatal(err)
		}
	}
	rep.SyncOnce()
	compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local, sv))

	// A steady trickle within the bound flows through plain tailing (no
	// further bootstraps).
	rep.SyncOnce() // ack the current end first
	before := 0
	for _, sh := range rep.replicationInfo().Shards {
		before += sh.Bootstraps
	}
	for i := 0; i < 3; i++ {
		if _, err := appendRouted(local, randomResponse(sv, rng, 500+i)); err != nil {
			t.Fatal(err)
		}
		rep.SyncOnce()
	}
	compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local, sv))
	after := 0
	for _, sh := range rep.replicationInfo().Shards {
		after += sh.Bootstraps
	}
	if after != before {
		t.Fatalf("in-bound tailing still bootstrapped (%d -> %d)", before, after)
	}
}
