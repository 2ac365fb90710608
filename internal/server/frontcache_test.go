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

// TestFrontendCacheColdAndDisabled: a cold cache's first read degrades
// to the full fan-out (one full snapshot per shard) and matches a
// negative-TTL frontend over the same nodes, whose every read
// revalidates — conditionally, not with full snapshots again.
func TestFrontendCacheColdAndDisabled(t *testing.T) {
	const totalShards = 4
	clients := newTestNodes(t, 2, totalShards, 0)
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
	compareAggregate(t, getAggregate(t, cached, sv.ID), want)
	compareAggregate(t, getAggregate(t, uncached, sv.ID), want)
	stats := surveyCacheStats(t, cached, sv.ID)
	if stats.Full != int64(totalShards) {
		t.Fatalf("cold fill fetched %d full snapshots, want %d", stats.Full, totalShards)
	}
	compareAggregate(t, getAggregate(t, uncached, sv.ID), want)
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
		if e := remote.Submit(remote.Route(r.SurveyID, r.WorkerID), []survey.Response{*r}, nil)()[0]; e.Err != nil {
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
