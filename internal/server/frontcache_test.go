package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loki/internal/shardrpc"
	"loki/internal/survey"
)

// cacheInfo fetches the frontend cache's admin report.
func cacheInfo(t *testing.T, ts *httptest.Server) *FrontendCacheInfo {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.FrontendCache == nil {
		t.Fatal("caching frontend reports no frontend_cache")
	}
	return info.FrontendCache
}

func surveyCacheStats(t *testing.T, ts *httptest.Server, id string) FrontendCacheSurveyInfo {
	t.Helper()
	for _, si := range cacheInfo(t, ts).Surveys {
		if si.SurveyID == id {
			return si
		}
	}
	t.Fatalf("no cache entry for %q", id)
	return FrontendCacheSurveyInfo{}
}

// TestFrontendCacheReadYourWrites: with an effectively infinite TTL, a
// submit routed through the caching frontend must still be visible to
// the very next read — the expected-cursor floor forces revalidation —
// while reads with no intervening submit are pure cache hits.
func TestFrontendCacheReadYourWrites(t *testing.T) {
	const totalShards = 4
	clients := newTestNodes(t, 2, totalShards, 0)
	fts, remote, _ := newTestFrontend(t, clients, totalShards, time.Hour, 0)
	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		submitOK(t, fts, randomResponse(sv, rng, i))
	}
	// Every read interleaved with submits must already include them —
	// the TTL alone would serve day-old state.
	for i := 0; i < 10; i++ {
		compareAggregate(t, getAggregate(t, fts, sv.ID), referenceAggregate(t, remote, sv))
		submitOK(t, fts, randomResponse(sv, rng, 100+i))
	}
	compareAggregate(t, getAggregate(t, fts, sv.ID), referenceAggregate(t, remote, sv))

	// Quiescent rereads are hits: no submits between them, infinite
	// TTL, so the cursor floors are satisfied.
	before := surveyCacheStats(t, fts, sv.ID)
	for i := 0; i < 5; i++ {
		getAggregate(t, fts, sv.ID)
	}
	after := surveyCacheStats(t, fts, sv.ID)
	if after.Hits < before.Hits+5 {
		t.Fatalf("quiescent rereads were not cache hits: %d -> %d", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses {
		t.Fatalf("quiescent rereads revalidated: misses %d -> %d", before.Misses, after.Misses)
	}
	// The interleaved reads revalidated with conditional fetches, so
	// the nodes answered with deltas and not-modifieds — full snapshots
	// only for the cold fill.
	if after.Delta == 0 || after.NotModified == 0 {
		t.Fatalf("conditional revalidation never produced deltas/not-modifieds: %+v", after)
	}
	if after.Full > int64(totalShards) {
		t.Fatalf("%d full snapshot fetches, want at most one cold fill per shard (%d)", after.Full, totalShards)
	}
}

// TestFrontendCacheBoundedStaleness: submits through frontend A are
// invisible to frontend B's cache at most for the TTL; within it B may
// serve stale state, beyond it B must have revalidated. Concurrent
// cross-frontend submits must not break the bound or the equivalence.
func TestFrontendCacheBoundedStaleness(t *testing.T) {
	const totalShards = 4
	const ttl = 50 * time.Millisecond
	clients := newTestNodes(t, 2, totalShards, 0)
	ftsA, remote, _ := newTestFrontend(t, clients, totalShards, ttl, 0)
	ftsB, _, _ := newTestFrontend(t, clients, totalShards, ttl, 0)
	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, ftsA.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 30; i++ {
		submitOK(t, ftsA, randomResponse(sv, rng, i))
	}
	// Prime both caches.
	getAggregate(t, ftsA, sv.ID)
	getAggregate(t, ftsB, sv.ID)

	// Concurrent cross-frontend submits with readers on both sides: no
	// read may error, and every read must be a valid aggregate (the
	// race detector guards the cache's internals).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts := ftsA
			if w%2 == 1 {
				ts = ftsB
			}
			for i := 0; i < 15; i++ {
				submitOK(t, ts, randomResponse(sv, rand.New(rand.NewSource(int64(100+w*100+i))), 1000+w*100+i))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts := ftsA
			if r == 1 {
				ts = ftsB
			}
			for i := 0; i < 20; i++ {
				getAggregate(t, ts, sv.ID)
			}
		}(r)
	}
	wg.Wait()

	// After the TTL both frontends must converge on the reference: the
	// staleness bound, not eventual luck.
	time.Sleep(ttl + 20*time.Millisecond)
	want := referenceAggregate(t, remote, sv)
	compareAggregate(t, getAggregate(t, ftsA, sv.ID), want)
	compareAggregate(t, getAggregate(t, ftsB, sv.ID), want)
}

// TestFrontendCacheDeltaEquivalence extends the PR 4 merge-equivalence
// property to the cached path: across rounds of randomized submits,
// every cached read must equal the single-accumulator fold of the
// seq-merged stream, and the revalidations must actually exercise the
// delta protocol (not fall back to full snapshots).
func TestFrontendCacheDeltaEquivalence(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("nodes=%d/seed=%d", nodes, seed), func(t *testing.T) {
				const totalShards = 5
				clients := newTestNodes(t, nodes, totalShards, 0)
				// TTL 0 means the default (250ms); use 1h so only
				// read-your-writes floors trigger revalidation and the
				// test is deterministic.
				fts, remote, _ := newTestFrontend(t, clients, totalShards, time.Hour, 0)
				sv := clusterTestSurvey()
				if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
					t.Fatalf("publish = %d: %s", resp.StatusCode, body)
				}
				rng := rand.New(rand.NewSource(seed))
				n := 0
				for round := 0; round < 6; round++ {
					batch := 10 + rng.Intn(30)
					for i := 0; i < batch; i++ {
						submitOK(t, fts, randomResponse(sv, rng, n))
						n++
					}
					compareAggregate(t, getAggregate(t, fts, sv.ID), referenceAggregate(t, remote, sv))
				}
				stats := surveyCacheStats(t, fts, sv.ID)
				if stats.Delta == 0 {
					t.Fatalf("cached reads never used the delta protocol: %+v", stats)
				}
				if got := stats.Cursors; len(got) != totalShards {
					t.Fatalf("cursor vector has %d shards, want %d", len(got), totalShards)
				}
				var total uint64
				for _, c := range stats.Cursors {
					total += c
				}
				if total != uint64(n) {
					t.Fatalf("cached cursor vector covers %d responses, want %d", total, n)
				}
			})
		}
	}
}

// cacheEntry is the frontend's cache entry for a survey, nil when it has
// none.
func cacheEntry(srv *Server, id string) *cachedSurvey {
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	return srv.cache.surveys[id]
}

// freshBodies renders every read shape from the entry's current state,
// and returns what the entry has memoized beside them.
func freshBodies(cs *cachedSurvey) (fresh, memo [numReadShapes][]byte) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for sh := range numReadShapes {
		fresh[sh] = sh.render(cs.def, cs.est, cs.labelsLocked())
	}
	return fresh, cs.bodies
}

// memoCheck holds a frontend's memoized read bodies to a fresh rendering
// of the entry they belong to: whatever is memoized before a read must
// equal it, and a read of each shape must answer it byte for byte. It
// returns the aggregate read's reply.
func memoCheck(t *testing.T, srv *Server, ts *httptest.Server, id, step string) *AggregateResult {
	t.Helper()
	if cs := cacheEntry(srv, id); cs != nil {
		fresh, memo := freshBodies(cs)
		for sh := range numReadShapes {
			if memo[sh] != nil && !bytes.Equal(memo[sh], fresh[sh]) {
				t.Fatalf("%s: memoized %s body outlived its estimate\n--- memo ---\n%s--- fresh ---\n%s",
					step, readWireShapes[sh], memo[sh], fresh[sh])
			}
		}
	}
	var out AggregateResult
	for sh := range numReadShapes {
		r := readGet(t, ts.URL, id, readWireShapes[sh], testToken)
		fresh, _ := freshBodies(cacheEntry(srv, id))
		if r.status != http.StatusOK || !bytes.Equal(r.body, fresh[sh]) {
			t.Fatalf("%s: %s read answered %d, not the fresh rendering\n%s--- fresh ---\n%s",
				step, readWireShapes[sh], r.status, r.body, fresh[sh])
		}
		if sh == aggregateShape {
			if err := json.Unmarshal(r.body, &out); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &out
}

// TestFrontendReadMemo walks a frontend cache entry through every way
// it changes and holds the memoized bodies to a fresh rendering at each
// step: read-your-writes after a submit, a delta, TTL expiry, a refresher
// pass, a degraded read and the healed one, and a republish.
func TestFrontendReadMemo(t *testing.T) {
	const totalShards = 4
	const ttl = 40 * time.Millisecond
	nodes := newHANodes(t, 2, totalShards)
	fts, remote, srv := newTestFrontend(t, []*shardrpc.Client{nodes[0].client, nodes[1].client}, totalShards, ttl, 0)
	sv := clusterTestSurvey()
	publishOK(t, fts, sv)
	rng := rand.New(rand.NewSource(61))
	n := 0
	submit := func(k int) {
		for i := 0; i < k; i++ {
			submitOK(t, fts, randomResponse(sv, rng, n))
			n++
		}
	}
	// behind submits straight to the nodes: only the TTL or the
	// refresher can make the frontend see them.
	behind := func(k int) {
		for i := 0; i < k; i++ {
			r := randomResponse(sv, rng, n)
			n++
			if e := remote.Submit([]int{remote.Route(r.SurveyID, r.WorkerID)}, []survey.Response{*r}, nil)()[0]; e.Err != nil {
				t.Fatal(e.Err)
			}
		}
	}
	submit(30)
	compareAggregate(t, memoCheck(t, srv, fts, sv.ID, "cold fill"), referenceAggregate(t, remote, sv))

	submit(1)
	compareAggregate(t, memoCheck(t, srv, fts, sv.ID, "read-your-writes"), referenceAggregate(t, remote, sv))

	deltas := surveyCacheStats(t, fts, sv.ID).Delta
	submit(6)
	compareAggregate(t, memoCheck(t, srv, fts, sv.ID, "delta"), referenceAggregate(t, remote, sv))
	if got := surveyCacheStats(t, fts, sv.ID).Delta; got <= deltas {
		t.Fatalf("the delta step drew no delta answers (%d -> %d)", deltas, got)
	}

	behind(5)
	time.Sleep(ttl + 10*time.Millisecond)
	compareAggregate(t, memoCheck(t, srv, fts, sv.ID, "TTL expiry"), referenceAggregate(t, remote, sv))

	// The refresher revalidates an entry at least half a TTL old without
	// any read; the memo it leaves must already be the new one.
	behind(5)
	time.Sleep(ttl/2 + 5*time.Millisecond)
	deltas = surveyCacheStats(t, fts, sv.ID).Delta
	srv.refreshHot(time.Hour)
	if got := surveyCacheStats(t, fts, sv.ID).Delta; got == deltas {
		t.Fatal("the refresh pass did not revalidate the entry")
	}
	compareAggregate(t, memoCheck(t, srv, fts, sv.ID, "refresh pass"), referenceAggregate(t, remote, sv))

	nodes[1].kill()
	time.Sleep(ttl + 10*time.Millisecond)
	if got := memoCheck(t, srv, fts, sv.ID, "degraded"); fmt.Sprint(got.DegradedShards) != "[1 3]" {
		t.Fatalf("degraded read labels %v, want [1 3]", got.DegradedShards)
	}
	nodes[1].revive()
	time.Sleep(ttl + 10*time.Millisecond)
	healed := memoCheck(t, srv, fts, sv.ID, "healed")
	if len(healed.DegradedShards) != 0 {
		t.Fatalf("healed read still labels %v", healed.DegradedShards)
	}
	compareAggregate(t, healed, referenceAggregate(t, remote, sv))

	sv2 := clusterTestSurvey()
	sv2.Questions = sv2.Questions[:2]
	sv2.Consistency = nil
	if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv2, testToken); resp.StatusCode != http.StatusOK {
		t.Fatalf("republish = %d: %s", resp.StatusCode, body)
	}
	if got := memoCheck(t, srv, fts, sv.ID, "republish"); len(got.Choices) != 0 {
		t.Fatalf("republished aggregate still has %d choice questions", len(got.Choices))
	}
}

// TestFrontendReadMemoConcurrent: readers of one survey racing each
// other, the first rendering and revalidations (a TTL short enough that
// some reads revalidate and some hit) all get identical bytes, and no
// reader's body is written to under it (-race).
func TestFrontendReadMemoConcurrent(t *testing.T) {
	const totalShards = 4
	clients := newTestNodes(t, 2, totalShards, 0)
	fts, _, _ := newTestFrontend(t, clients, totalShards, 5*time.Millisecond, 0)
	sv := clusterTestSurvey()
	publishOK(t, fts, sv)
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 40; i++ {
		submitOK(t, fts, randomResponse(sv, rng, i))
	}
	const readers, reads = 8, 30
	got := make([][numReadShapes][]byte, readers*reads)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				for sh := range numReadShapes {
					rep := readGet(t, fts.URL, sv.ID, readWireShapes[sh], testToken)
					if rep.status != http.StatusOK {
						t.Errorf("%s read = %d: %s", readWireShapes[sh], rep.status, rep.body)
						return
					}
					got[r*reads+i][sh] = rep.body
				}
			}
		}(r)
	}
	wg.Wait()
	for i := range got {
		for sh := range numReadShapes {
			if !bytes.Equal(got[i][sh], got[0][sh]) {
				t.Fatalf("concurrent %s reads differ\n%s\n%s", readWireShapes[sh], got[i][sh], got[0][sh])
			}
		}
	}
	if st := surveyCacheStats(t, fts, sv.ID); st.Hits == 0 || st.Misses < 2 {
		t.Fatalf("concurrent reads did not mix hits and revalidations: %+v", st)
	}
}

// discardReply is a ResponseWriter that keeps nothing, so a benchmark
// times the handler and not a recorder.
type discardReply struct{ h http.Header }

func (d discardReply) Header() http.Header       { return d.h }
func (discardReply) WriteHeader(int)             {}
func (discardReply) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFrontendCachedRead is a frontend's hot /aggregate read: a
// fresh cache entry over two nodes and eight shards, served in process
// with no listener in front of the handler.
func BenchmarkFrontendCachedRead(b *testing.B) {
	const totalShards = 8
	fts, _, srv := newTestFrontend(b, newTestNodes(b, 2, totalShards, 0), totalShards, time.Hour, 0)
	sv := clusterTestSurvey()
	if resp, body := doReq(b, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		b.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 200; i++ {
		submitOK(b, fts, randomResponse(sv, rng, i))
	}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/surveys/"+sv.ID+"/aggregate", nil)
	req.Header.Set("Authorization", "Bearer "+testToken)
	w := discardReply{h: http.Header{}}
	srv.ServeHTTP(w, req) // the cold fill
	b.ReportAllocs()
	for b.Loop() {
		srv.ServeHTTP(w, req)
	}
}

// partialCalls is a RoundTripper counting the partial calls it carries:
// every path ending in /partial.
type partialCalls struct{ n atomic.Int64 }

func (pc *partialCalls) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/partial") {
		pc.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the calls counted since the last take.
func (pc *partialCalls) take() int64 { return pc.n.Swap(0) }

// TestFrontendCacheColdAndDisabled: a cold cache's first read is a full
// fetch (one full snapshot per shard) and matches a negative-TTL
// frontend over the same nodes, whose every read revalidates —
// conditionally, not with full snapshots again. Either way a read that
// goes to the nodes is one call per node, not one per shard.
func TestFrontendCacheColdAndDisabled(t *testing.T) {
	const nodes, totalShards = 2, 4
	calls := &partialCalls{}
	clients := newTestNodes(t, nodes, totalShards, 0)
	for i, c := range clients {
		clients[i] = shardrpc.NewClient(c.BaseURL(), testToken, &http.Client{Transport: calls})
	}
	uncached, remote, _ := newTestFrontend(t, clients, totalShards, -1, 0)
	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, uncached.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		submitOK(t, uncached, randomResponse(sv, rng, i))
	}
	// A brand-new caching frontend: its first read is the cold path.
	cached, _, _ := newTestFrontend(t, clients, totalShards, time.Hour, 0)
	want := referenceAggregate(t, remote, sv)
	calls.take()
	for _, fts := range []*httptest.Server{cached, uncached, uncached} {
		compareAggregate(t, getAggregate(t, fts, sv.ID), want)
		if got := calls.take(); got != nodes {
			t.Fatalf("a read that revalidated made %d partial calls, want one per node (%d)", got, nodes)
		}
	}
	stats := surveyCacheStats(t, cached, sv.ID)
	if stats.Full != int64(totalShards) {
		t.Fatalf("cold fill fetched %d full snapshots, want %d", stats.Full, totalShards)
	}
	stats = surveyCacheStats(t, uncached, sv.ID)
	if stats.Hits != 0 || stats.Misses != 2 || stats.Full != int64(totalShards) || stats.NotModified != int64(totalShards) {
		t.Fatalf("negative-TTL frontend after two reads: %+v, want two misses, one cold fill, one not-modified round", stats)
	}
}

// TestFrontendCacheBackgroundRefresh: with the refresher on, data
// submitted behind the frontend's back (straight to the nodes) shows
// up in cached reads without any read ever paying the revalidation —
// the steady-state hot-survey path.
func TestFrontendCacheBackgroundRefresh(t *testing.T) {
	const totalShards = 4
	const ttl = 40 * time.Millisecond
	clients := newTestNodes(t, 2, totalShards, 0)
	fts, remote, _ := newTestFrontend(t, clients, totalShards, ttl, 10*time.Millisecond)
	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		submitOK(t, fts, randomResponse(sv, rng, i))
	}
	getAggregate(t, fts, sv.ID) // mark hot + prime

	// Submit around the frontend: directly through the remote router.
	for i := 0; i < 10; i++ {
		r := randomResponse(sv, rng, 500+i)
		if e := remote.Submit([]int{remote.Route(r.SurveyID, r.WorkerID)}, []survey.Response{*r}, nil)()[0]; e.Err != nil {
			t.Fatal(e.Err)
		}
	}
	// The refresher must pick the new data up within a few ticks even
	// though no read forces it.
	deadline := time.Now().Add(2 * time.Second)
	want := referenceAggregate(t, remote, sv)
	for {
		got := getAggregate(t, fts, sv.ID)
		if got.Choices[0].N == want.Choices[0].N {
			compareAggregate(t, got, want)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background refresh never surfaced node-side submits (have n=%d, want %d)", got.Choices[0].N, want.Choices[0].N)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
