// The frontend partial cache: what closes the cluster read gap.
//
// Without it, every merged read would fan one full PartialState
// snapshot RPC out per shard (~0.8ms against ~0.06ms for a standalone
// read when PR 4 measured it). With it, a frontend
// keeps each survey's per-shard accumulators and the cursor vector they
// cover; a read within the TTL whose cursor vector satisfies every
// read-your-writes floor is a hit: zero RPCs and zero encoding. The
// entry keeps each read endpoint's rendered body beside the merge it
// renders — the first read after a revalidation renders it, the next
// revalidation drops it — so a hit sets a header and writes bytes. A
// revalidation is one conditional call per node
// (shardrpc.Remote.Partials), carrying the cursor held for each of its
// shards — the node answers each shard not-modified (no state), a delta
// fold of the responses past the frontend's cursor, which the frontend
// Merges into its cached copy instead of replacing it, or a full
// snapshot.
//
// Staleness contract: submits routed through THIS frontend are always
// visible to its reads (the submit ack carries the per-shard seq, which
// becomes the shard's expected-cursor floor and forces revalidation).
// Submits routed through other frontends become visible within the TTL.
// A cold entry's first fill is a full fetch of every shard; a negative
// FrontendCacheTTL makes no entry ever fresh, so every read revalidates.
//
// This is the frontend's only read path, so its labelling rule is the
// only one: a shard whose fetch failed in transport (node down, every
// replica with it) is labeled in degraded_shards and merged around (or
// served from its last fetched state), never silently dropped; a shard
// whose state a replica last validated is labeled in stale_shards;
// errors the owner itself answered (fingerprint skew, unknown survey)
// fail the read whole — the node is alive and disagreeing, which no
// marker can paper over; a read that reached no shard fails.
package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/aggregate"
	"loki/internal/shardrpc"
	"loki/internal/survey"
)

// DefaultFrontendCacheTTL is the revalidation bound a frontend uses
// when Config.FrontendCacheTTL is zero: long enough to collapse read
// storms on a hot survey into ~4 revalidations per second, short
// enough that cross-frontend staleness stays well under what a human
// requester can perceive.
const DefaultFrontendCacheTTL = 250 * time.Millisecond

// frontCache is a per-frontend cache of node partials, keyed by survey.
type frontCache struct {
	ttl time.Duration

	mu      sync.Mutex
	surveys map[string]*cachedSurvey
}

func newFrontCache(ttl time.Duration) *frontCache {
	return &frontCache{ttl: ttl, surveys: make(map[string]*cachedSurvey)}
}

// cachedSurvey is one survey's cached read state: the per-shard
// accumulators, the cursor vector they cover, and the finalized merge
// of exactly that state.
type cachedSurvey struct {
	surveyID string

	// mu is the entry's singleflight: the holder may revalidate (one
	// conditional call per node) and rebuild the merge. Concurrent
	// readers of a stale entry queue here and find it fresh when their
	// turn comes — one revalidation serves them all.
	mu sync.Mutex
	// def is the definition every cached accumulator is folded under,
	// fp its fingerprint.
	def *survey.Survey
	fp  string
	// parts[i] is shard i's cached accumulator, covering exactly seqs
	// [1, cursors[i]]. nil until the first successful fill.
	parts   []*aggregate.Accumulator
	cursors []uint64
	// est is the finalized merge of parts at cursors. Rebuilt (never
	// mutated) on every revalidation.
	est *aggregate.SurveyEstimate
	// bodies[shape] is that read endpoint's reply body for est and the
	// entry's labels — what a cache hit writes. Rendered lazily by the
	// first read that needs it, dropped by every revalidation, and never
	// written to once set: a revalidation starts new slices, because a
	// reader may still be sending the old one.
	bodies [numReadShapes][]byte
	// fetched is when the cursor vector was last validated against the
	// nodes; the TTL ages against it.
	fetched time.Time

	// expected[i] is shard i's read-your-writes floor: the highest
	// per-shard seq a submit through this frontend has been acked at.
	// A read whose cached cursors[i] is below it must revalidate, TTL
	// or not. Written by the submit path without the entry lock.
	expected []atomic.Uint64

	// degraded lists shards the last revalidation could not reach (nor
	// any of their replicas): cold ones contribute nothing to est, warm
	// ones contribute their last fetched state. Nil when the last
	// revalidation covered every shard.
	degraded []int
	// stale[i] is whether shard i's cached state was last validated by a
	// replica rather than the shard's primary. Every answer sets it (a
	// replica's not-modified too); a degraded shard keeps its bit.
	stale []bool

	// lastRead (unix nanos) marks the entry hot for the background
	// refresher.
	lastRead atomic.Int64

	// Counters for the admin surface.
	hits, misses, deltas, notModified, fulls atomic.Int64
}

// entry returns the survey's cache entry, creating it (or replacing a
// stale-fingerprint one) as needed. shards is the router's shard count.
func (c *frontCache) entry(sv *survey.Survey, shards int) *cachedSurvey {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A field compare, not a fingerprint: every frontend read passes
	// here, and only a new entry needs the hash.
	if cs, ok := c.surveys[sv.ID]; ok && cs.def.Equal(sv) {
		return cs
	}
	cs := &cachedSurvey{
		surveyID: sv.ID,
		def:      sv.Clone(),
		fp:       sv.Fingerprint(),
		cursors:  make([]uint64, shards),
		expected: make([]atomic.Uint64, shards),
		stale:    make([]bool, shards),
	}
	c.surveys[sv.ID] = cs
	return cs
}

// drop discards a survey's entry (republish, admin accumulator clear).
func (c *frontCache) drop(surveyID string) {
	c.mu.Lock()
	delete(c.surveys, surveyID)
	c.mu.Unlock()
}

// noteSubmit raises a shard's read-your-writes floor after a submit
// through this frontend was acked at per-shard seq. A survey with no
// cache entry needs nothing — its next read starts cold and fetches
// fresh state that necessarily includes the submit.
func (c *frontCache) noteSubmit(surveyID string, shard int, seq uint64) {
	c.mu.Lock()
	cs := c.surveys[surveyID]
	c.mu.Unlock()
	if cs == nil || shard < 0 || shard >= len(cs.expected) {
		return
	}
	for {
		cur := cs.expected[shard].Load()
		if seq <= cur || cs.expected[shard].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// freshLocked reports whether the entry can answer a read without
// talking to any node: filled, within the TTL, and not behind any
// shard's read-your-writes floor. Caller holds cs.mu.
func (cs *cachedSurvey) freshLocked(ttl time.Duration) bool {
	if cs.est == nil || time.Since(cs.fetched) >= ttl {
		return false
	}
	for i := range cs.expected {
		if cs.cursors[i] < cs.expected[i].Load() {
			return false
		}
	}
	return true
}

// cachedRemoteBody is the cached frontend read path. A fresh entry
// answers with its memoized body; a stale one revalidates under the
// entry's singleflight lock — concurrent readers of the same survey
// wait for one revalidation instead of issuing their own.
func (s *Server) cachedRemoteBody(sv *survey.Survey, shape readShape) ([]byte, error) {
	cs := s.cache.entry(sv, s.router.Shards())
	cs.lastRead.Store(time.Now().UnixNano())
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.freshLocked(s.cache.ttl) {
		cs.hits.Add(1)
	} else {
		cs.misses.Add(1)
		if err := s.revalidateLocked(sv, cs); err != nil {
			return nil, err
		}
	}
	return cs.bodyLocked(shape), nil
}

// bodyLocked returns the shape's body for the entry's current estimate
// and labels, rendering it if no read has since the last revalidation.
// Caller holds cs.mu.
func (cs *cachedSurvey) bodyLocked(shape readShape) []byte {
	if b := cs.bodies[shape]; b != nil {
		return b
	}
	b := shape.render(cs.def, cs.est, cs.labelsLocked())
	cs.bodies[shape] = b
	return b
}

// labelsLocked copies out the entry's degraded and stale shards for one
// rendering. Caller holds cs.mu.
func (cs *cachedSurvey) labelsLocked() readLabels {
	l := readLabels{degraded: cs.degraded}
	for i, st := range cs.stale {
		if st {
			l.stale = append(l.stale, i)
		}
	}
	return l
}

// revalidateLocked brings the entry current: the cursors the cache holds
// go to the router in one conditional fetch, which asks every node for
// its shards in one call (and a down node's shards of their replicas);
// the per-shard answers are applied — nothing for not-modified, a Merge
// for a delta, a replacement for a full snapshot, and the replica bit
// from each — and the finalized merge rebuilt. It is the one place the
// memoized bodies are dropped: the refresher, read-your-writes floors,
// TTL expiry and label changes all pass through here, and a republish
// drops the whole entry. Caller holds cs.mu.
func (s *Server) revalidateLocked(sv *survey.Survey, cs *cachedSurvey) error {
	// The memoized bodies go first: even a revalidation that fails below
	// may have moved a stale bit they label.
	cs.bodies = [numReadShapes][]byte{}
	n := len(cs.cursors)
	// A cold entry's cursors are all zero: a full fetch of every shard.
	fetched, errs := s.remote.Partials(sv.ID, cs.cursors)
	// A shard whose fetch failed in transport (node down, replicas too)
	// degrades instead of failing the read: a warm cached part keeps
	// serving its last state, a cold one is merged around and marked.
	// Errors the owner answered still fail whole.
	var degraded []int
	reached := 0
	for i, err := range errs {
		switch {
		case err == nil:
			reached++
		case shardrpc.IsTransportError(err):
			degraded = append(degraded, i)
		default:
			return fmt.Errorf("shard %d partial: %w", i, err)
		}
	}
	if reached == 0 {
		return fmt.Errorf("every shard unreachable (first: shard %d: %w)", degraded[0], errs[degraded[0]])
	}
	if len(degraded) > 0 {
		s.logf("cached read of %q degraded: shards %v unreachable", sv.ID, degraded)
	}
	if cs.parts == nil {
		cs.parts = make([]*aggregate.Accumulator, n)
	}
	for i, p := range fetched {
		if p == nil {
			continue // degraded; cs.parts[i] (possibly nil) stands in
		}
		if p.Fingerprint != cs.fp {
			// A republish is still propagating: the node folded under a
			// different definition than the frontend resolved. Drop the
			// entry — its state mixes epochs — and refuse: that beats
			// merging bins from two question sets.
			s.cache.drop(sv.ID)
			return fmt.Errorf("shard %d partial folded under definition %s, frontend has %s (republish in flight?)",
				i, p.Fingerprint, cs.fp)
		}
		cs.stale[i] = p.Stale
		switch {
		case p.NotModified:
			cs.notModified.Add(1)
		case p.Delta:
			if p.From != cs.cursors[i] || cs.parts[i] == nil {
				// A delta over a base we do not hold cannot merge; the
				// node should never produce one, so treat it as a
				// protocol bug rather than guessing.
				return fmt.Errorf("shard %d: delta from %d against cached cursor %d", i, p.From, cs.cursors[i])
			}
			delta, err := aggregate.RestoreAccumulator(s.cfg.Schedule, sv, p.State)
			if err != nil {
				return fmt.Errorf("shard %d delta: %w", i, err)
			}
			if err := cs.parts[i].Merge(delta); err != nil {
				return fmt.Errorf("shard %d delta: %w", i, err)
			}
			cs.cursors[i] = p.Cursor
			cs.deltas.Add(1)
		default:
			full, err := aggregate.RestoreAccumulator(s.cfg.Schedule, sv, p.State)
			if err != nil {
				return fmt.Errorf("shard %d partial: %w", i, err)
			}
			cs.parts[i] = full
			cs.cursors[i] = p.Cursor
			cs.fulls.Add(1)
		}
	}
	merged, err := aggregate.NewAccumulator(s.cfg.Schedule, sv)
	if err != nil {
		return err
	}
	for i, part := range cs.parts {
		if part == nil {
			continue // cold degraded shard: nothing to contribute yet
		}
		if err := merged.Merge(part); err != nil {
			return fmt.Errorf("shard %d partial: %w", i, err)
		}
	}
	est, err := merged.Finalize()
	if err != nil {
		return err
	}
	cs.est = est
	cs.degraded = degraded
	cs.fetched = time.Now()
	return nil
}

// refreshLoop is the background refresher: every interval it
// revalidates the cache entries of surveys read recently, so a hot
// survey's steady-state reads are always cache hits and never block on
// node round-trips. Errors are logged and retried next tick — a node
// blip must not kill the refresher.
func (s *Server) refreshLoop(interval time.Duration) {
	defer close(s.refDone)
	// "Recently read" means within a few TTLs (at least a few ticks):
	// long enough that a survey polled at TTL pace stays hot, short
	// enough that idle surveys stop costing fan-outs.
	hotFor := 10 * s.cache.ttl
	if hotFor < 10*interval {
		hotFor = 10 * interval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.refreshHot(hotFor)
		case <-s.refStop:
			return
		}
	}
}

// refreshHot revalidates every hot cache entry that is at least half a
// TTL old (younger ones would revalidate again before expiry anyway).
func (s *Server) refreshHot(hotFor time.Duration) {
	s.cache.mu.Lock()
	entries := make([]*cachedSurvey, 0, len(s.cache.surveys))
	for _, cs := range s.cache.surveys {
		entries = append(entries, cs)
	}
	s.cache.mu.Unlock()
	now := time.Now()
	for _, cs := range entries {
		if now.Sub(time.Unix(0, cs.lastRead.Load())) > hotFor {
			continue
		}
		sv, err := s.router.Survey(cs.surveyID)
		if err != nil {
			s.logf("cache refresh %q: %v", cs.surveyID, err)
			continue
		}
		cs.mu.Lock()
		if now.Sub(cs.fetched) >= s.cache.ttl/2 {
			if err := s.revalidateLocked(sv, cs); err != nil {
				s.logf("cache refresh %q: %v", cs.surveyID, err)
			}
		}
		cs.mu.Unlock()
	}
}

// FrontendCacheSurveyInfo is one survey's cache state on the admin
// surface.
type FrontendCacheSurveyInfo struct {
	SurveyID string `json:"survey_id"`
	// Cursors is the per-shard cursor vector the cached state covers.
	Cursors []uint64 `json:"cursors"`
	// AgeMillis is how long ago the entry was last validated against
	// the nodes; -1 when never filled.
	AgeMillis float64 `json:"age_millis"`
	// Hits counts reads served from cache with zero RPCs; Misses counts
	// reads that had to revalidate (cold, TTL-expired, or behind a
	// read-your-writes floor).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Delta / NotModified / Full count per-shard conditional-fetch
	// answers by kind.
	Delta       int64 `json:"delta"`
	NotModified int64 `json:"not_modified"`
	Full        int64 `json:"full"`
}

// FrontendCacheInfo is the frontend partial cache's admin report.
type FrontendCacheInfo struct {
	TTLMillis float64 `json:"ttl_millis"`
	// Refresh reports whether the background refresher is running.
	Refresh bool                      `json:"refresh"`
	Surveys []FrontendCacheSurveyInfo `json:"surveys,omitempty"`
}

// frontendCacheInfo snapshots the cache for the admin surface; nil when
// this server is not a frontend.
func (s *Server) frontendCacheInfo() *FrontendCacheInfo {
	if s.cache == nil {
		return nil
	}
	info := &FrontendCacheInfo{
		TTLMillis: float64(s.cache.ttl) / 1e6,
		Refresh:   s.refStop != nil,
	}
	s.cache.mu.Lock()
	entries := make([]*cachedSurvey, 0, len(s.cache.surveys))
	for _, cs := range s.cache.surveys {
		entries = append(entries, cs)
	}
	s.cache.mu.Unlock()
	for _, cs := range entries {
		cs.mu.Lock()
		si := FrontendCacheSurveyInfo{
			SurveyID:    cs.surveyID,
			Cursors:     append([]uint64(nil), cs.cursors...),
			AgeMillis:   -1,
			Hits:        cs.hits.Load(),
			Misses:      cs.misses.Load(),
			Delta:       cs.deltas.Load(),
			NotModified: cs.notModified.Load(),
			Full:        cs.fulls.Load(),
		}
		if cs.est != nil {
			si.AgeMillis = float64(time.Since(cs.fetched)) / 1e6
		}
		cs.mu.Unlock()
		info.Surveys = append(info.Surveys, si)
	}
	sort.Slice(info.Surveys, func(i, j int) bool { return info.Surveys[i].SurveyID < info.Surveys[j].SurveyID })
	return info
}
