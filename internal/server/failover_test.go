package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
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

// newHANodes spins killable nodes over the round-robin placement, each
// with its follow loop armed (tests drive SyncOnce) so a manifest can
// make it a replica.
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
		node.Follow(FollowOptions{PollInterval: time.Hour, ClusterToken: testToken})
		t.Cleanup(func() { node.Close() })
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

// newHAReplica builds a follower of node's shards, with promotion wired
// to the shared manifest at manifestPath. It follows once a manifest
// lists it as a replica.
func newHAReplica(t *testing.T, node *haNode, manifestPath string, promoteAfter time.Duration) (*Node, string) {
	t.Helper()
	rep, ts := newFollower(t, node.client, FollowOptions{ManifestPath: manifestPath, PromoteAfter: promoteAfter})
	return rep, ts.URL
}

// haManifest writes the initial manifest — every shard primary on the
// node at epoch 1, the replica attached — and applies it to the replica,
// as its watcher would.
func haManifest(t *testing.T, path string, totalShards int, nodeURL string, rep *Node, repURL string) *placement.Manifest {
	t.Helper()
	m := followManifest(t, totalShards, nodeURL, repURL, 1)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	rep.ApplyManifest(m, repURL)
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
	m := haManifest(t, manifestPath, totalShards, nodes[0].url, rep, repURL)
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
// while its data stays readable. Then it rejoins without a restart: a
// manifest listing it as a replica turns its shards following, it
// resyncs from the promoted host to the same counts and aggregate, and
// its writes stay fenced throughout. Run with -race: the writers overlap
// the promotion flip on purpose.
func TestPromotionRaceOldPrimaryFenced(t *testing.T) {
	const totalShards = 2
	nodes := newHANodes(t, 1, totalShards)
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	rep, repURL := newHAReplica(t, nodes[0], manifestPath, 30*time.Millisecond)
	m := haManifest(t, manifestPath, totalShards, nodes[0].url, rep, repURL)
	nodes[0].node.ApplyManifest(m, nodes[0].url)

	sv := clusterTestSurvey()
	if _, err := nodes[0].local.Publish(sv); err != nil {
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
	for i := 0; i < totalShards; i++ {
		if st := nodes[0].node.state(i); st.role != roleFenced {
			t.Fatalf("shard %d not demoted by the new manifest: %+v", i, st)
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

	// Restart-free rejoin: the operator lists the demoted node as every
	// shard's replica. Its shards follow the promoted host and resync.
	writeFenced := func(when string) {
		t.Helper()
		for _, epoch := range []uint64{0, 2, 3} {
			_, err := nodes[0].client.Submit(&shardrpc.SubmitRequest{Shard: 0, Epoch: epoch, Responses: []survey.Response{*randomResponse(sv, rng, 9700)}})
			if !errors.Is(err, shardrpc.ErrFenced) {
				t.Fatalf("rejoining node accepted a write %s (epoch %d): %v", when, epoch, err)
			}
		}
	}
	m3, err := placement.Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m3.Shards {
		m3.Shards[i].Replicas = []string{nodes[0].url}
	}
	m3.Version++
	if err := m3.Save(manifestPath); err != nil {
		t.Fatal(err)
	}
	nodes[0].node.ApplyManifest(m3, nodes[0].url)
	rep.ApplyManifest(m3, repURL)
	for _, sh := range getHealth(t, nodes[0].url).Shards {
		if sh.Role != "replica" {
			t.Fatalf("rejoined node health row = %+v", sh)
		}
	}
	writeFenced("before its resync")
	nodes[0].node.SyncOnce()
	writeFenced("after its resync")
	for s := 0; s < totalShards; s++ {
		want, err := repClient.Count(s, sv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := nodes[0].client.Count(s, sv.ID); err != nil || got != want {
			t.Fatalf("rejoined shard %d holds %d (%v), the promoted host %d", s, got, err, want)
		}
	}
	resp, body = doReq(t, http.MethodGet, nodes[0].url+"/api/v1/surveys/"+sv.ID+"/aggregate", nil, testToken)
	var rejoined AggregateResult
	if err := json.Unmarshal(body, &rejoined); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("rejoined node's aggregate = %d: %s", resp.StatusCode, body)
	}
	compareAggregate(t, &rejoined, referenceAggregate(t, rep.local, sv))
	for _, sh := range nodes[0].node.replicationInfo().Shards {
		if sh.Source != repURL || sh.LagRecords != 0 || sh.LastError != "" {
			t.Fatalf("rejoined shard cursor = %+v", sh)
		}
	}
}

// TestSupersededPromotedHostFenced: a promoted follower that a newer
// manifest moves the shard away from (another host, higher epoch) is
// fenced like any demoted primary — unstamped writes, writes stamped
// with its old epoch and with the new one all bounce, and its health
// row reads fenced. A manifest older than its promotion is ignored.
func TestSupersededPromotedHostFenced(t *testing.T) {
	const totalShards = 2
	nodes := newHANodes(t, 1, totalShards)
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	rep, repURL := newHAReplica(t, nodes[0], manifestPath, 0)
	m := haManifest(t, manifestPath, totalShards, nodes[0].url, rep, repURL)
	nodes[0].node.ApplyManifest(m, nodes[0].url)
	sv := clusterTestSurvey()
	if _, err := nodes[0].local.Publish(sv); err != nil {
		t.Fatal(err)
	}
	rep.SyncOnce()
	if _, err := rep.Promote(0); err != nil {
		t.Fatal(err)
	}
	m2, err := placement.Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if sp := m2.Placement(0); sp.Primary != repURL || sp.Epoch != 2 {
		t.Fatalf("promotion left placement %+v", sp)
	}
	// A watcher that loaded the file before the promotion rewrote it
	// delivers the older manifest late: it changes nothing.
	rep.ApplyManifest(m, repURL)
	if got := getHealth(t, repURL).Shards[0]; got.Role != "primary" || got.Epoch != 2 {
		t.Fatalf("a stale manifest moved the promoted shard: %+v", got)
	}
	sp := m2.Placement(0)
	sp.Primary, sp.Replicas, sp.Epoch = "http://the-next-primary", nil, 3
	m2.Version++
	if err := m2.Save(manifestPath); err != nil {
		t.Fatal(err)
	}
	rep.ApplyManifest(m2, repURL)

	client := shardrpc.NewClient(repURL, testToken, nil)
	rng := rand.New(rand.NewSource(43))
	for _, epoch := range []uint64{0, 2, 3} {
		_, err := client.Submit(&shardrpc.SubmitRequest{Shard: 0, Epoch: epoch, Responses: []survey.Response{*randomResponse(sv, rng, int(epoch))}})
		if !errors.Is(err, shardrpc.ErrFenced) {
			t.Fatalf("superseded host accepted a write (epoch %d): %v", epoch, err)
		}
	}
	if got := getHealth(t, repURL).Shards[0]; got.Role != "fenced" || got.Epoch != 3 {
		t.Fatalf("superseded host's shard 0 health = %+v", got)
	}
}

// TestFollowersResourceAfterPromotion: two followers of one primary.
// The primary dies and both leases run out; one follower promotes, and
// the other — reading the manifest the promotion rewrote — re-sources to
// it instead of promoting over it: its next cycle is an epoch reset, a
// resync and lag 0 against the new primary. And a follower restarted
// under the same URL registers as the same follower on its source.
func TestFollowersResourceAfterPromotion(t *testing.T) {
	const totalShards = 2
	nodes := newHANodes(t, 1, totalShards)
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	const lease = 30 * time.Millisecond
	b, bURL := newHAReplica(t, nodes[0], manifestPath, lease)
	c, cURL := newHAReplica(t, nodes[0], manifestPath, lease)
	m := followManifest(t, totalShards, nodes[0].url, bURL, 1)
	for i := range m.Shards {
		m.Shards[i].Replicas = []string{bURL, cURL}
	}
	if err := m.Save(manifestPath); err != nil {
		t.Fatal(err)
	}
	nodes[0].node.ApplyManifest(m, nodes[0].url)
	b.ApplyManifest(m, bURL)
	c.ApplyManifest(m, cURL)

	sv := clusterTestSurvey()
	if _, err := nodes[0].local.Publish(sv); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 30; i++ {
		if _, err := appendRouted(nodes[0].local, randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	b.SyncOnce()
	c.SyncOnce()
	if st := nodes[0].local.JournalStats(); st[0].Followers != 2 {
		t.Fatalf("source journal registers %d followers, want 2", st[0].Followers)
	}

	nodes[0].kill()
	b.SyncOnce() // both lease clocks start
	c.SyncOnce()
	time.Sleep(2 * lease)
	b.SyncOnce() // b's lease runs out first: b promotes
	m2, err := placement.Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	c.SyncOnce() // c's lease runs out too, on a file that names b
	m3, err := placement.Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Version != m2.Version {
		t.Fatalf("the second follower rewrote the manifest: v%d -> v%d", m2.Version, m3.Version)
	}
	for s := 0; s < totalShards; s++ {
		if sp := m3.Placement(s); sp.Primary != bURL || sp.Epoch != 2 {
			t.Fatalf("placement %d after the race = %+v", s, sp)
		}
	}

	// New writes land on b; c's next cycle tails b from scratch.
	bClient := shardrpc.NewClient(bURL, testToken, nil)
	for i := 0; i < 12; i++ {
		r := randomResponse(sv, rng, 100+i)
		s := shardset.Route(sv.ID, r.WorkerID, totalShards)
		if _, err := bClient.Submit(&shardrpc.SubmitRequest{Shard: s, Epoch: 2, Responses: []survey.Response{*r}}); err != nil {
			t.Fatal(err)
		}
	}
	c.SyncOnce()
	for _, sh := range c.replicationInfo().Shards {
		if sh.Source != bURL || sh.Resets == 0 || sh.LagRecords != 0 || sh.LastError != "" {
			t.Fatalf("re-sourced shard cursor = %+v", sh)
		}
	}
	for _, sh := range getHealth(t, cURL).Shards {
		if sh.Role != "replica" {
			t.Fatalf("re-sourced follower health row = %+v", sh)
		}
	}
	for s := 0; s < totalShards; s++ {
		want, _ := bClient.Count(s, sv.ID)
		if got := c.local.CountShard(s, sv.ID); got != want {
			t.Fatalf("re-sourced shard %d holds %d, the new primary %d", s, got, want)
		}
	}

	// c restarts under its stable URL: b still accounts one follower c.
	before := b.local.JournalStats()[0].Followers
	c2, _ := newFollower(t, bClient, FollowOptions{})
	c2.ApplyManifest(m3, cURL)
	c2.SyncOnce()
	if after := b.local.JournalStats()[0].Followers; after != before || after != 1 {
		t.Fatalf("a follower restart left %d registered followers (was %d), want 1", after, before)
	}
}

// closeChecked is a store whose scans fail once it is closed (the stores
// here keep serving reads after Close, which would hide a read that
// outlived its store).
type closeChecked struct {
	store.Store
	closed atomic.Bool
}

func (c *closeChecked) ScanResponses(id string, fromSeq uint64, fn func(uint64, *survey.Response) error) error {
	if c.closed.Load() {
		return errors.New("scan of a closed store")
	}
	return c.Store.ScanResponses(id, fromSeq, func(seq uint64, r *survey.Response) error {
		if c.closed.Load() {
			return errors.New("scan of a store closed under it")
		}
		return fn(seq, r)
	})
}

func (c *closeChecked) Close() error {
	c.closed.Store(true)
	return c.Store.Close()
}

// TestFollowerResetUnderReads: scans and partial reads run against a
// following shard while epoch resets replace its durable store under
// them. Every read finishes on one store's contents — never a closed
// store, never a gap in the seqs it delivers. Run with -race.
func TestFollowerResetUnderReads(t *testing.T) {
	const shards = 1
	stores := []store.Store{store.NewMem()}
	sv := clusterTestSurvey()
	if _, err := stores[0].Publish(sv); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 300; i++ {
		if err := stores[0].AppendResponse(randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Each "restart" of the source is a new router over the same store:
	// a new journal epoch, so the follower resets and resyncs.
	restart := func() http.Handler {
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "node"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		node, err := NewNode(srv, shards)
		if err != nil {
			t.Fatal(err)
		}
		h, err := shardrpc.NewHandler(node, testToken)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	sw := &switchableHandler{h: restart()}
	nts := httptest.NewServer(sw)
	t.Cleanup(nts.Close)

	dir := t.TempDir()
	rep, rts := newFollower(t, shardrpc.NewClient(nts.URL, testToken, nil), FollowOptions{
		OpenStore: func(g int) (store.Store, error) {
			path := filepath.Join(dir, fmt.Sprintf("gshard-%03d.log", g))
			if err := os.RemoveAll(path); err != nil {
				return nil, err
			}
			st, err := store.OpenFile(path)
			if err != nil {
				return nil, err
			}
			return &closeChecked{Store: st}, nil
		},
	})
	rep.ApplyManifest(followManifest(t, shards, nts.URL, rts.URL, 1), rts.URL)
	rep.SyncOnce()

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	read := func(fn func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if err := fn(); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go read(func() error {
		var next uint64 = 1
		return rep.ScanShard(0, sv.ID, 0, func(seq uint64, r *survey.Response) error {
			if seq != next || r.SurveyID != sv.ID {
				return fmt.Errorf("scan delivered seq %d (%q), want %d", seq, r.SurveyID, next)
			}
			next++
			return nil
		})
	})
	go read(func() error {
		p, err := rep.PartialState(0, sv.ID, 0)
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			return err
		}
		if err == nil && !p.Stale {
			return fmt.Errorf("following shard's partial not marked stale")
		}
		return nil
	})
	for k := 0; k < 5; k++ {
		sw.swap(restart())
		rep.SyncOnce()
	}
	close(stop)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	resets := 0
	for _, sh := range rep.replicationInfo().Shards {
		resets += sh.Resets
	}
	if resets < 5 || rep.local.CountShard(0, sv.ID) != 300 {
		t.Fatalf("after the resets: %d resets, %d records", resets, rep.local.CountShard(0, sv.ID))
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
	if _, err := local.Publish(sv); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	const n = 50 // far past the retain bound
	for i := 0; i < n; i++ {
		if _, err := appendRouted(local, randomResponse(sv, rng, i)); err != nil {
			t.Fatal(err)
		}
	}

	rep, rts := newFollower(t, shardrpc.NewClient(nts.URL, testToken, nil), FollowOptions{})
	rep.ApplyManifest(followManifest(t, shards, nts.URL, rts.URL, 1), rts.URL)
	rep.SyncOnce()

	if scanFails.Load() < 2 {
		t.Fatalf("flaky proxy saw %d scans — bootstrap never hit it", scanFails.Load())
	}
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
