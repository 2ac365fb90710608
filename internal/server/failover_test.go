package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// deadHandler simulates a crashed node: every connection is torn down
// before a byte of response is written, so clients observe transport
// errors (exactly what a dead process looks like), not HTTP statuses.
type deadHandler struct{}

func (deadHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err == nil {
		conn.Close()
	}
}

// haNode is one killable cluster node for failover tests: journaled
// local stores behind a stable URL whose handler can be swapped for a
// connection-killing one and back.
type haNode struct {
	url    string
	client *shardrpc.Client
	local  *shardset.Local
	node   *Node
	sw     *switchableHandler
	live   http.Handler
}

func (n *haNode) kill()   { n.sw.swap(deadHandler{}) }
func (n *haNode) revive() { n.sw.swap(n.live) }

// newHANodes spins killable nodes over the round-robin placement.
func newHANodes(t *testing.T, nodes, totalShards int) []*haNode {
	t.Helper()
	owned := shardrpc.RoundRobinPlacement(totalShards, nodes)
	out := make([]*haNode, nodes)
	for nd := 0; nd < nodes; nd++ {
		stores := make([]store.Store, len(owned[nd]))
		for i := range stores {
			stores[i] = store.NewMem()
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{
			GlobalIDs: owned[nd], Journal: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { local.Close() })
		nsrv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "node"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nsrv.Close() })
		node, err := NewNode(nsrv, totalShards)
		if err != nil {
			t.Fatal(err)
		}
		h, err := shardrpc.NewHandler(node, testToken)
		if err != nil {
			t.Fatal(err)
		}
		// The production node mount: shardrpc and the public API (health
		// included) share one listener.
		mux := http.NewServeMux()
		mux.Handle("/shardrpc/", h)
		mux.Handle("/", nsrv)
		sw := &switchableHandler{h: mux}
		nts := httptest.NewServer(sw)
		t.Cleanup(nts.Close)
		out[nd] = &haNode{
			url: nts.URL, client: shardrpc.NewClient(nts.URL, testToken, nil),
			local: local, node: node, sw: sw, live: mux,
		}
	}
	return out
}

// getHealth fetches the unauthenticated admin health surface.
func getHealth(t *testing.T, baseURL string) *HealthInfo {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/v1/admin/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
	var info HealthInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return &info
}

// getQuality fetches a survey's /quality answer.
func getQuality(t *testing.T, ts *httptest.Server, id string) *QualityResult {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/"+id+"/quality", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quality = %d: %s", resp.StatusCode, body)
	}
	var out QualityResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestFrontendDegradedReads: a frontend whose first read of a survey
// fans out over a cluster with a dead node degrades — it merges the
// shards that answered and labels the rest in degraded_shards, on
// /aggregate and /quality alike — instead of failing the whole read with
// a 500. Submits routed to the dead node's shards refuse with 503 +
// Retry-After, and everything heals when the node returns.
func TestFrontendDegradedReads(t *testing.T) {
	const totalShards = 4
	nodes := newHANodes(t, 2, totalShards)
	clients := []*shardrpc.Client{nodes[0].client, nodes[1].client}
	fts, remote, _ := newTestFrontend(t, clients, totalShards, -1, 0) // every read revalidates

	sv := clusterTestSurvey()
	resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(23))
	const n = 120
	for i := 0; i < n; i++ {
		submitOK(t, fts, randomResponse(sv, rng, i))
	}

	// Round-robin: node 1 owns shards 1 and 3.
	liveN := remote.CountShard(0, sv.ID) + remote.CountShard(2, sv.ID)
	deadN := remote.CountShard(1, sv.ID) + remote.CountShard(3, sv.ID)
	if liveN == 0 || deadN == 0 {
		t.Fatalf("placement too lopsided: live %d dead %d", liveN, deadN)
	}

	// No read has warmed the dead node's shards: they are merged around.
	nodes[1].kill()
	got := getAggregate(t, fts, sv.ID)
	sort.Ints(got.DegradedShards)
	if fmt.Sprint(got.DegradedShards) != "[1 3]" {
		t.Fatalf("degraded shards = %v, want [1 3]", got.DegradedShards)
	}
	if got.Choices[0].N != liveN {
		t.Fatalf("degraded aggregate folded %d responses, want %d from live shards", got.Choices[0].N, liveN)
	}
	q := getQuality(t, fts, sv.ID)
	sort.Ints(q.DegradedShards)
	if fmt.Sprint(q.DegradedShards) != "[1 3]" || q.Total != liveN {
		t.Fatalf("degraded quality = %+v, want degraded_shards [1 3] over %d live responses", q, liveN)
	}

	// A submit that routes to a dead shard is a retryable 503, not a 400.
	var refused bool
	for i := 0; i < 200 && !refused; i++ {
		r := randomResponse(sv, rng, 1000+i)
		if s := shardset.Route(sv.ID, r.WorkerID, totalShards); s != 1 && s != 3 {
			continue
		}
		resp, body := doReq(t, http.MethodPost, submitURL(fts, sv.ID), r, "")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit to dead shard = %d: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
		var oe OverloadError
		if err := json.Unmarshal(body, &oe); err != nil {
			t.Fatal(err)
		}
		if oe.Error != NodeUnreachableCode {
			t.Fatalf("refusal code = %q, want %q", oe.Error, NodeUnreachableCode)
		}
		refused = true
	}
	if !refused {
		t.Fatal("no worker routed to the dead node's shards")
	}

	// The node returns: reads are whole again.
	nodes[1].revive()
	healed := getAggregate(t, fts, sv.ID)
	if len(healed.DegradedShards) != 0 {
		t.Fatalf("healed read still degraded: %v", healed.DegradedShards)
	}
	compareAggregate(t, healed, referenceAggregate(t, remote, sv))
	if q := getQuality(t, fts, sv.ID); len(q.DegradedShards) != 0 || q.Total != n {
		t.Fatalf("healed quality = %+v, want all %d responses, no label", q, n)
	}
}

// TestFrontendDegradedReadsCached: the same read path keeps a warm
// part serving for a shard that went dark — the revalidated aggregate
// degrades around it instead of failing.
func TestFrontendDegradedReadsCached(t *testing.T) {
	const totalShards = 4
	nodes := newHANodes(t, 2, totalShards)
	clients := []*shardrpc.Client{nodes[0].client, nodes[1].client}
	fts, _, _ := newTestFrontend(t, clients, totalShards, time.Nanosecond, 0) // instant staleness

	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(29))
	const n = 80
	for i := 0; i < n; i++ {
		submitOK(t, fts, randomResponse(sv, rng, i))
	}
	warm := getAggregate(t, fts, sv.ID) // populates every shard part
	if len(warm.DegradedShards) != 0 {
		t.Fatalf("warm read degraded: %v", warm.DegradedShards)
	}

	nodes[1].kill()
	got := getAggregate(t, fts, sv.ID)
	sort.Ints(got.DegradedShards)
	if fmt.Sprint(got.DegradedShards) != "[1 3]" {
		t.Fatalf("degraded shards = %v, want [1 3]", got.DegradedShards)
	}
	// Warm parts stand in for the dark shards: the merged result still
	// covers all n responses.
	if got.Choices[0].N != n {
		t.Fatalf("cached degraded aggregate folded %d, want the warm %d", got.Choices[0].N, n)
	}
}

// newHAReplica builds a replica of node serving BOTH the public API and
// shardrpc on one mux (the production replica mount), with promotion
// wired to the shared manifest at manifestPath.
func newHAReplica(t *testing.T, node *haNode, manifestPath string, promoteAfter time.Duration) (*Replica, string) {
	t.Helper()
	sw := &switchableHandler{h: http.NotFoundHandler()}
	rts := httptest.NewServer(sw)
	t.Cleanup(rts.Close)
	rep, err := NewReplica(ReplicaConfig{
		Client:         shardrpc.NewClient(node.url, testToken, nil),
		Schedule:       core.DefaultSchedule(),
		RequesterToken: testToken,
		PollInterval:   time.Hour, // tests drive SyncOnce directly
		FollowerID:     "ha-test",
		ManifestPath:   manifestPath,
		SelfURL:        rts.URL,
		PromoteAfter:   promoteAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	rpc, err := shardrpc.NewHandler(rep, testToken)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/shardrpc/", rpc)
	mux.Handle("/", rep)
	sw.swap(mux)
	return rep, rts.URL
}

// haManifest writes the initial manifest: every shard primary on the
// node, the replica attached, epoch 1.
func haManifest(t *testing.T, path string, totalShards int, nodeURL, repURL string) *placement.Manifest {
	t.Helper()
	m, err := placement.RoundRobin(totalShards, []string{nodeURL})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Replicas = []string{repURL}
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplicaReadFailoverAndPromotion is the tentpole end to end from
// the frontend's seat: reads fail over to the replica (labeled
// degraded-stale) when the primary dies, writes to the failed-over
// shard refuse with the retryable 503 vocabulary, the operator promote
// signal rewrites the manifest, and after the frontend applies it
// submits and clean reads resume against the promoted replica.
func TestReplicaReadFailoverAndPromotion(t *testing.T) {
	const totalShards = 2
	nodes := newHANodes(t, 1, totalShards)
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	rep, repURL := newHAReplica(t, nodes[0], manifestPath, 0)
	m := haManifest(t, manifestPath, totalShards, nodes[0].url, repURL)
	nodes[0].node.ApplyManifest(m, nodes[0].url)

	remote, err := shardrpc.NewRemoteFromManifest(m, testToken, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	frontend, err := New(Config{
		Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "frontend",
		FrontendCacheTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frontend.Close() })
	fts := httptest.NewServer(frontend)
	t.Cleanup(fts.Close)

	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(31))
	const n = 90
	for i := 0; i < n; i++ {
		submitOK(t, fts, randomResponse(sv, rng, i))
	}
	rep.SyncOnce() // replica caught up before the failure
	before := getAggregate(t, fts, sv.ID)
	if len(before.StaleShards) != 0 {
		t.Fatalf("primary-served read labelled stale: %v", before.StaleShards)
	}

	// Primary dies. Reads keep answering — served by the replica, with
	// every replica-served shard labelled on the answer, the stale-read
	// counter ticking and the health surface reporting the failed-over
	// route.
	nodes[0].kill()
	during := getAggregate(t, fts, sv.ID)
	compareAggregate(t, during, before)
	if fmt.Sprint(during.StaleShards) != "[0 1]" || len(during.DegradedShards) != 0 {
		t.Fatalf("replica-served read labels stale %v degraded %v, want stale [0 1]", during.StaleShards, during.DegradedShards)
	}
	if q := getQuality(t, fts, sv.ID); fmt.Sprint(q.StaleShards) != "[0 1]" {
		t.Fatalf("replica-served quality labels stale %v, want [0 1]", q.StaleShards)
	}
	if remote.StaleReads() == 0 {
		t.Fatal("failover read did not tick the stale-read counter")
	}
	fh := getHealth(t, fts.URL)
	if fh.Role != "frontend" || fh.ManifestVersion != 1 || fh.StaleReads == 0 {
		t.Fatalf("frontend health = %+v", fh)
	}
	downSeen := false
	for _, sh := range fh.Shards {
		downSeen = downSeen || sh.PrimaryDown
	}
	if !downSeen {
		t.Fatal("frontend health reports no primary down")
	}

	// Writes to a failed-over shard bounce with the retryable 503.
	r := randomResponse(sv, rng, 5000)
	resp, body := doReq(t, http.MethodPost, submitURL(fts, sv.ID), r, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed-over submit = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var oe OverloadError
	if err := json.Unmarshal(body, &oe); err != nil {
		t.Fatal(err)
	}
	if oe.Error != FailedOverCode && oe.Error != NodeUnreachableCode {
		t.Fatalf("refusal code = %q", oe.Error)
	}

	// Operator promotion: one POST per shard on the replica's admin
	// surface. The shared manifest gains the new primary and epochs.
	for s := 0; s < totalShards; s++ {
		resp, body := doReq(t, http.MethodPost, fmt.Sprintf("%s/api/v1/admin/promote/%d", repURL, s), nil, testToken)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote shard %d = %d: %s", s, resp.StatusCode, body)
		}
		var pr PromoteResult
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Shard != s || pr.Epoch != 2 {
			t.Fatalf("promote result = %+v", pr)
		}
	}
	m2, err := placement.Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version <= m.Version {
		t.Fatalf("manifest version did not grow: %d", m2.Version)
	}
	for s := 0; s < totalShards; s++ {
		sp := m2.Placement(s)
		if sp.Primary != repURL || sp.Epoch != 2 {
			t.Fatalf("post-promotion placement %d = %+v", s, sp)
		}
	}
	rh := getHealth(t, repURL)
	for _, sh := range rh.Shards {
		if sh.Role != "primary" || sh.Epoch != 2 {
			t.Fatalf("replica health after promotion = %+v", sh)
		}
	}

	// The frontend applies the new manifest (what the watcher does) and
	// submits resume, routed to the promoted replica.
	if err := remote.ApplyManifest(m2); err != nil {
		t.Fatal(err)
	}
	const extra = 25
	for i := 0; i < extra; i++ {
		submitOK(t, fts, randomResponse(sv, rng, n+i))
	}
	if got := shardset.Count(remote, sv.ID); got != n+extra {
		t.Fatalf("post-promotion count = %d, want %d", got, n+extra)
	}
	// Clean primary reads again — and equivalent to one accumulator over
	// the cluster's merged stream.
	stale := remote.StaleReads()
	after := getAggregate(t, fts, sv.ID)
	compareAggregate(t, after, referenceAggregate(t, remote, sv))
	if remote.StaleReads() != stale || len(after.StaleShards) != 0 {
		t.Fatalf("post-promotion read still served stale: counter %d -> %d, labels %v", stale, remote.StaleReads(), after.StaleShards)
	}
}

// TestPromotionRaceOldPrimaryFenced is the promotion race: the primary
// dies, the replica's failover lease expires and it self-promotes while
// writers hammer it concurrently, and then the old primary RETURNS —
// loads the rewritten manifest, demotes, and every write against it
// (stale stamp, no stamp, even the new epoch) is refused by the fence
// while its data stays readable. Run with -race: the writers overlap
// the promotion flip on purpose.
func TestPromotionRaceOldPrimaryFenced(t *testing.T) {
	const totalShards = 2
	nodes := newHANodes(t, 1, totalShards)
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	rep, repURL := newHAReplica(t, nodes[0], manifestPath, 30*time.Millisecond)
	m := haManifest(t, manifestPath, totalShards, nodes[0].url, repURL)
	nodes[0].node.ApplyManifest(m, nodes[0].url)

	sv := clusterTestSurvey()
	if err := nodes[0].local.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := appendRouted(nodes[0].local, randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep.SyncOnce()

	// The primary dies; the first failing cycle starts the lease clock.
	nodes[0].kill()
	rep.SyncOnce()
	if got := getHealth(t, repURL); got.Shards[0].Role != "replica" {
		t.Fatalf("promoted before the lease expired: %+v", got.Shards)
	}

	// Writers race the promotion: fenced until the flip, accepted after.
	repClient := shardrpc.NewClient(repURL, testToken, nil)
	var fenced, accepted atomic.Int64
	stopWriters := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopWriters:
					return
				default:
				}
				r := randomResponse(sv, rand.New(rand.NewSource(int64(100+w))), w*100000+i)
				_, err := repClient.Submit(&shardrpc.SubmitRequest{Shard: shardset.Route(sv.ID, r.WorkerID, totalShards), Responses: []survey.Response{*r}})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, shardrpc.ErrFenced):
					fenced.Add(1)
				default:
					// transport noise under -race scheduling; ignore
				}
			}
		}(w)
	}

	// Lease expiry: the next failing cycle promotes both shards.
	time.Sleep(50 * time.Millisecond)
	rep.SyncOnce()
	for s := 0; s < totalShards; s++ {
		if _, err := repClient.Submit(&shardrpc.SubmitRequest{Shard: s, Epoch: 2, Responses: []survey.Response{*randomResponse(sv, rng, 9000+s)}}); err != nil {
			t.Fatalf("post-promotion write to shard %d: %v", s, err)
		}
	}
	close(stopWriters)
	wg.Wait()
	if fenced.Load() == 0 {
		t.Fatal("no writer was fenced before promotion")
	}

	m2, err := placement.Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < totalShards; s++ {
		if sp := m2.Placement(s); sp.Primary != repURL || sp.Epoch != 2 {
			t.Fatalf("lease promotion left placement %d = %+v", s, sp)
		}
	}

	// The old primary returns, loads the current manifest (what its
	// watcher does before it serves), and demotes cleanly: every write
	// bounces off the fence — the stale epoch-1 stamp a pre-failover
	// frontend would send, the unstamped legacy form, and even a fresh
	// epoch-2 stamp, because a demoted shard holds no writes at all.
	nodes[0].revive()
	nodes[0].node.ApplyManifest(m2, nodes[0].url)
	for s := 0; s < totalShards; s++ {
		if !nodes[0].node.Demoted(s) {
			t.Fatalf("shard %d not demoted by the new manifest", s)
		}
	}
	for _, epoch := range []uint64{1, 0, 2} {
		_, err := nodes[0].client.Submit(&shardrpc.SubmitRequest{Shard: 0, Epoch: epoch, Responses: []survey.Response{*randomResponse(sv, rng, 9500)}})
		if !errors.Is(err, shardrpc.ErrFenced) {
			t.Fatalf("old primary accepted a write (epoch %d): %v", epoch, err)
		}
	}
	// Its own public API is no side door: a single or a batch posted to
	// the demoted node answers the frontend's retryable vocabulary and
	// stores nothing.
	before := shardset.Count(nodes[0].local, sv.ID)
	direct := randomResponse(sv, rng, 9600)
	resp, body := doReq(t, http.MethodPost, nodes[0].url+"/api/v1/surveys/"+sv.ID+"/responses", direct, "")
	var refusal OverloadError
	if err := json.Unmarshal(body, &refusal); err != nil || resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") != "1" || refusal != (OverloadError{Error: FencedCode, RetryAfterSeconds: 1}) {
		t.Fatalf("public single to the demoted node = %d (Retry-After %q): %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	resp, body = doReq(t, http.MethodPost, nodes[0].url+"/api/v1/responses", BatchSubmitRequest{Responses: []survey.Response{*direct}}, "")
	var batch BatchSubmitResult
	if err := json.Unmarshal(body, &batch); err != nil || resp.StatusCode != http.StatusOK || len(batch.Results) != 1 ||
		batch.Results[0] != (BatchSubmitItem{SurveyID: sv.ID, Status: http.StatusServiceUnavailable, Error: FencedCode, RetryAfterSeconds: 1}) {
		t.Fatalf("public batch to the demoted node = %d: %s", resp.StatusCode, body)
	}
	if after := shardset.Count(nodes[0].local, sv.ID); after != before {
		t.Fatalf("the demoted node stored %d records through its public API", after-before)
	}
	// Demoted ≠ dead: its shards stay readable for rejoin and audit, and
	// its health surface reports the fenced role.
	if got, err := nodes[0].client.Count(0, sv.ID); err != nil || got == 0 {
		t.Fatalf("demoted node count = %d, %v", got, err)
	}
	nh := getHealth(t, nodes[0].url)
	for _, sh := range nh.Shards {
		if sh.Role != "fenced" {
			t.Fatalf("demoted node health row = %+v", sh)
		}
	}
}

// TestBootstrapRetry: a replica whose bootstrap scan hits transient
// transport failures retries with backoff instead of giving up with a
// sticky per-shard error.
func TestBootstrapRetry(t *testing.T) {
	const shards = 2
	stores := make([]store.Store, shards)
	for i := range stores {
		stores[i] = store.NewMem()
	}
	// JournalRetain 5 guarantees the replica must bootstrap from scans.
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{Journal: true, JournalRetain: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	nsrv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "node"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nsrv.Close() })
	node, err := NewNode(nsrv, shards)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardrpc.NewHandler(node, testToken)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first two scan requests at the transport level; pass
	// everything else through.
	var scanFails atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/scan") && scanFails.Add(1) <= 2 {
			deadHandler{}.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
	nts := httptest.NewServer(flaky)
	t.Cleanup(nts.Close)

	sv := clusterTestSurvey()
	if err := local.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	const n = 50 // far past the retain bound
	for i := 0; i < n; i++ {
		if _, err := appendRouted(local, randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := NewReplica(ReplicaConfig{
		Client:         shardrpc.NewClient(nts.URL, testToken, nil),
		Schedule:       core.DefaultSchedule(),
		RequesterToken: testToken,
		PollInterval:   time.Hour,
		FollowerID:     "retry-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	rep.SyncOnce()

	if scanFails.Load() < 2 {
		t.Fatalf("flaky proxy saw %d scans — bootstrap never hit it", scanFails.Load())
	}
	rts := httptest.NewServer(rep)
	t.Cleanup(rts.Close)
	compareAggregate(t, getAggregate(t, rts, sv.ID), referenceAggregate(t, local, sv))
	for _, sh := range rep.replicationInfo().Shards {
		if sh.LagRecords != 0 || sh.LastError != "" {
			t.Fatalf("shard %d after flaky bootstrap = %+v", sh.Shard, sh)
		}
	}
}

// TestAdminHealthRoles: the health endpoint answers without auth on
// every role with per-shard rows.
func TestAdminHealthRoles(t *testing.T) {
	// Standalone: one store, every shard an unfenced primary.
	st := store.NewMem()
	srv, err := New(Config{Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	info := getHealth(t, ts.URL)
	if info.Status != "ok" || len(info.Shards) == 0 {
		t.Fatalf("standalone health = %+v", info)
	}
	for _, sh := range info.Shards {
		if sh.Role != "primary" {
			t.Fatalf("standalone shard row = %+v", sh)
		}
	}

	// Node with a manifest applied: fenced shards are reported as such.
	nodes := newHANodes(t, 1, 2)
	m, err := placement.RoundRobin(2, []string{"http://elsewhere"})
	if err != nil {
		t.Fatal(err)
	}
	m.Shards[0].Primary = nodes[0].url // shard 0 ours, shard 1 fenced away
	nodes[0].node.ApplyManifest(m, nodes[0].url)
	ninfo := getHealth(t, nodes[0].url)
	roles := map[int]string{}
	for _, sh := range ninfo.Shards {
		roles[sh.Shard] = sh.Role
	}
	if roles[0] != "primary" || roles[1] != "fenced" {
		t.Fatalf("node roles = %v", roles)
	}
}
