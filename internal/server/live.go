package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/aggregate"
	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/shardset"
	"loki/internal/survey"
)

// PoisonError reports a stored record the live accumulator rejects. One
// such record wedges its shard's incremental read path: the aggregate
// cannot be served while skipping seq (it would silently undercount),
// and it cannot be folded. The error is sticky — recorded once on the
// shard's partial, returned to every subsequent read without rescanning
// from the cursor, and skipped by the submit path — until the
// accumulator is rebuilt (the survey is republished with a definition
// the record validates under, or an operator clears it through the
// admin surface).
type PoisonError struct {
	SurveyID string
	// Shard is the shard whose partial rejected the record.
	Shard int
	// Seq is the per-shard sequence number of the rejected record.
	Seq uint64
	// Err is the accumulator's rejection.
	Err error
}

// Error implements error with the coordinates an operator needs to find
// the record.
func (e *PoisonError) Error() string {
	return fmt.Sprintf("poisoned record: survey %q shard %d seq %d: %v", e.SurveyID, e.Shard, e.Seq, e.Err)
}

// Unwrap exposes the underlying rejection.
func (e *PoisonError) Unwrap() error { return e.Err }

// livePart is one shard's partial aggregate for one survey: a resumable
// accumulator plus the per-shard sequence number it has consumed up to.
// The invariant — the accumulator holds exactly the shard's responses
// with seq <= cursor — is maintained by folding only from the shard's
// ordered scan, never from in-flight request payloads, so concurrent
// submissions cannot double-count or skip: whatever a scan misses, the
// next scan delivers.
//
// Partials are folded independently — each has its own lock, so catch-up
// on one shard never blocks folds or reads on another — and Merged at
// query time, which is the whole point of the per-shard layout: no
// cross-shard lock exists anywhere on the write or fold path.
type livePart struct {
	surveyID string
	shard    int

	// mu serializes folds and snapshots (acc is not concurrency-safe).
	mu  sync.Mutex
	acc *aggregate.Accumulator
	// cursor is the last per-shard seq folded, readable without mu (the
	// admin surface reports it even mid-catch-up). Per-shard seqs are
	// gap-free from 1, so it also equals acc.N().
	cursor atomic.Uint64
	// ckptCursor is the cursor covered by this shard's last durable
	// checkpoint (0 when never checkpointed); the checkpointer uses it
	// as its dirty marker.
	ckptCursor atomic.Uint64

	// poison, once set, wedges the partial (guarded by mu); the atomics
	// mirror it for lock-free admin reads. poisonCount points at the
	// server's cumulative counter and is bumped once per poisoning.
	poison      *PoisonError
	poisonSeq   atomic.Uint64
	poisonMsg   atomic.Value // string
	poisonCount *atomic.Int64
}

// liveSet is one survey's full live aggregate state: one partial per
// shard, all folded under the same definition fingerprint.
type liveSet struct {
	surveyID string
	// def is the survey definition the partials fold under and fp its
	// fingerprint. A caller that resolved the survey to a different
	// definition must not use this set: its bins were laid out for a
	// different question set (the republish staleness bug).
	def   *survey.Survey
	fp    string
	parts []*livePart
}

// liveFor returns the survey's live set, creating it on first use — or
// re-creating it when sv is not the definition the existing set was
// folded under (the survey was republished). The republish handler
// invalidates the set itself; the comparison here catches a caller that
// resolved the old definition just before that and arrives just after.
// It is a field compare, not a fingerprint: this runs on every submit a
// node takes, and only a rebuild needs the hash.
func (s *Server) liveFor(sv *survey.Survey) (*liveSet, error) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if ls, ok := s.live[sv.ID]; ok {
		if ls.def.Equal(sv) {
			return ls, nil
		}
		delete(s.live, sv.ID)
	}
	fp := sv.Fingerprint()
	shards := s.router.Shards()
	ls := &liveSet{surveyID: sv.ID, def: sv.Clone(), fp: fp, parts: make([]*livePart, shards)}
	for i := range ls.parts {
		part := &livePart{surveyID: sv.ID, shard: i, poisonCount: &s.poisoned}
		// Seed from the shard's durable checkpoint when one matches the
		// definition and the current shard layout: catch-up then scans
		// only the tail beyond the checkpoint cursor. Any mismatch just
		// means a full rebuild — checkpoints are an optimization, the
		// store is the source of truth. Checkpoints are keyed by GLOBAL
		// shard and validated against the global layout: a node
		// redeployed onto a different shard subset (new -node-index)
		// must never restore another shard's fold state.
		if s.cfg.Checkpoints != nil {
			gid := s.router.GlobalID(i)
			if rec, ok := s.cfg.Checkpoints.GetShard(sv.ID, gid); ok {
				stored := uint64(s.router.CountShard(i, sv.ID))
				switch {
				case rec.Fingerprint != fp:
					s.logf("checkpoint for %q shard %d predates a republish; rebuilding from the store", sv.ID, gid)
				case rec.NumShards() != s.cfg.ClusterShards:
					// A checkpoint taken under a different global shard
					// count covers a differently sliced stream; its
					// cursor and state mean nothing in this layout.
					s.logf("checkpoint for %q shard %d was taken under %d shards, cluster has %d; rebuilding",
						sv.ID, gid, rec.NumShards(), s.cfg.ClusterShards)
				case rec.Cursor > stored:
					// A cursor beyond the shard's history means the log
					// belongs to a different (or rebuilt) store. Trusting
					// it would serve phantom responses forever: the
					// catch-up scan past a too-high cursor finds nothing
					// and never corrects the state.
					s.logf("checkpoint for %q shard %d is ahead of the store (cursor %d > %d responses); rebuilding",
						sv.ID, gid, rec.Cursor, stored)
				default:
					if acc, err := aggregate.RestoreAccumulator(s.cfg.Schedule, sv, rec.State); err != nil {
						s.logf("checkpoint for %q shard %d unusable (%v); rebuilding from the store", sv.ID, gid, err)
					} else {
						part.acc = acc
						part.cursor.Store(rec.Cursor)
						part.ckptCursor.Store(rec.Cursor)
					}
				}
			}
		}
		if part.acc == nil {
			acc, err := aggregate.NewAccumulator(s.cfg.Schedule, sv)
			if err != nil {
				return nil, err
			}
			part.acc = acc
		}
		ls.parts[i] = part
	}
	s.live[sv.ID] = ls
	return ls, nil
}

// invalidateLive drops a survey's live set and durable checkpoints:
// fold state laid out under the old definition must never answer a read
// under the new one. It returns whether a live set existed.
func (s *Server) invalidateLive(id string) bool {
	s.liveMu.Lock()
	_, had := s.live[id]
	delete(s.live, id)
	s.liveMu.Unlock()
	if s.cache != nil {
		// A frontend's partial cache is fold state under the old
		// definition too: drop it with the live set.
		s.cache.drop(id)
	}
	if s.cfg.Checkpoints != nil {
		if err := s.cfg.Checkpoints.Drop(id); err != nil {
			s.logf("dropping checkpoint for %q: %v", id, err)
		}
	}
	return had
}

// ResetLive drops every survey's live aggregate state. A replica calls
// it after an epoch reset wiped its local stores: cursors into the old
// stream must not survive into the new one.
func (s *Server) ResetLive() {
	s.liveMu.Lock()
	s.live = make(map[string]*liveSet)
	s.liveMu.Unlock()
}

// catchUp folds everything the shard holds beyond the cursor. A record
// the accumulator rejects poisons the partial: the error (with survey,
// shard and seq) is recorded once and returned to every subsequent call
// without rescanning. The caller must hold the part's lock.
func (p *livePart) catchUp(r shardset.ShardRouter) error {
	if p.poison != nil {
		return p.poison
	}
	err := r.ScanShard(p.shard, p.surveyID, p.cursor.Load(), func(seq uint64, resp *survey.Response) error {
		if err := p.acc.Add(resp); err != nil {
			return &PoisonError{SurveyID: p.surveyID, Shard: p.shard, Seq: seq, Err: err}
		}
		p.cursor.Store(seq)
		return nil
	})
	var pe *PoisonError
	if errors.As(err, &pe) {
		p.poison = pe
		p.poisonSeq.Store(pe.Seq)
		p.poisonMsg.Store(pe.Err.Error())
		if p.poisonCount != nil {
			p.poisonCount.Add(1)
		}
	}
	return err
}

// refresh catches every partial up with its shard and merges them into
// one finalized estimate: the full incremental read path. Each shard's
// scan is O(responses appended to that shard since the last refresh) —
// usually zero or one — and the merge + finalize step is O(questions ×
// levels × shards), independent of stored-response count.
//
// The single-shard case skips the merge entirely and finalizes the one
// partial in place, which keeps the standalone deployment's read path
// byte-identical to the pre-cluster implementation.
func (s *Server) refresh(ls *liveSet) (*aggregate.SurveyEstimate, error) {
	if len(ls.parts) == 1 {
		p := ls.parts[0]
		p.mu.Lock()
		defer p.mu.Unlock()
		if err := p.catchUp(s.router); err != nil {
			return nil, err
		}
		return p.acc.Finalize()
	}
	// Catch every shard up in parallel: partials are independent by
	// construction, and on a remote router each catch-up is network
	// round-trips the others should not wait behind.
	errs := make([]error, len(ls.parts))
	var wg sync.WaitGroup
	for i, p := range ls.parts {
		wg.Add(1)
		go func(i int, p *livePart) {
			defer wg.Done()
			p.mu.Lock()
			defer p.mu.Unlock()
			errs[i] = p.catchUp(s.router)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Merge under each part's lock in shard order. Merging into a fresh
	// accumulator leaves every partial untouched and needs no global
	// lock: the worst a concurrent fold can do is land in the next
	// read's merge instead of this one.
	sv, err := s.router.Survey(ls.surveyID)
	if err != nil {
		return nil, err
	}
	merged, err := aggregate.NewAccumulator(s.cfg.Schedule, sv)
	if err != nil {
		return nil, err
	}
	for _, p := range ls.parts {
		p.mu.Lock()
		err := merged.Merge(p.acc)
		p.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return merged.Finalize()
}

// coldBacklog is the backlog size above which a submit declines to warm
// up a cold partial: folding a handful of responses inline keeps the
// read path hot for cheap, but rebuilding a large backlog belongs to
// the first read, not to a write request's latency.
const coldBacklog = 1024

// advance is the submit-path half of refresh: fold the routed shard's
// newly stored responses without finalizing, so the next read starts
// hot. It is strictly best-effort — the response is already durably
// stored and reads catch up from the cursor themselves — so it must
// never add latency to a write request: TryLock skips when another fold
// (e.g. a reader's whole-backlog catch-up after a restart) holds the
// shard's lock, a poisoned partial is left alone (retrying would
// re-fail on the same record forever), and a large unfolded backlog —
// whether the partial is cold from seq 0 or checkpoint-restored to a
// stale cursor — is left for the read path rather than rebuilt inline.
// Only the shard that stored the response is touched: a submit never
// contends with folds on other shards.
func (p *livePart) advance(r shardset.ShardRouter) error {
	if !p.mu.TryLock() {
		return nil
	}
	defer p.mu.Unlock()
	if p.poison != nil {
		return nil
	}
	// Additive comparison, not subtraction: a cursor ahead of the store
	// (possible only with a foreign checkpoint log) must read as "no
	// backlog", not underflow to a huge one.
	if uint64(r.CountShard(p.shard, p.surveyID)) > p.cursor.Load()+coldBacklog {
		return nil
	}
	return p.catchUp(r)
}

// BatchEstimator returns a batch (full-recompute) estimator for the
// schedule: the pre-incremental read path, kept as the reference
// implementation that the live-accumulator path is verified and
// benchmarked against.
func BatchEstimator(schedule core.Schedule) (*aggregate.Estimator, error) {
	return aggregate.NewEstimator(schedule)
}

// BatchAggregate recomputes the /aggregate payload from scratch over a
// full response slice — O(n) per call, unlike the live read path.
func BatchAggregate(est *aggregate.Estimator, sv *survey.Survey, responses []survey.Response) (*AggregateResult, error) {
	ests, err := est.EstimateSurvey(sv, responses)
	if err != nil {
		return nil, err
	}
	choices, err := est.EstimateSurveyChoices(sv, responses)
	if err != nil {
		return nil, err
	}
	out := &AggregateResult{SurveyID: sv.ID}
	for i := range sv.Questions {
		if qe, ok := ests[sv.Questions[i].ID]; ok {
			out.Questions = append(out.Questions, *qe)
		}
		if ce, ok := choices[sv.Questions[i].ID]; ok {
			out.Choices = append(out.Choices, *ce)
		}
	}
	return out, nil
}

// LiveAccumulator describes one shard partial's live aggregate state on
// the admin surface. A single-shard deployment reports exactly one
// entry per survey, the pre-cluster shape.
type LiveAccumulator struct {
	SurveyID string `json:"survey_id"`
	// Shard is the shard this partial folds.
	Shard int `json:"shard"`
	// Cursor is the highest per-shard sequence number folded in.
	Cursor uint64 `json:"cursor"`
	// Responses is the number of responses the partial holds.
	Responses int `json:"responses"`
	// Fingerprint identifies the survey definition the state is folded
	// under.
	Fingerprint string `json:"fingerprint"`
	// CheckpointCursor is the per-shard cursor covered by this shard's
	// last durable checkpoint (0 when never checkpointed).
	CheckpointCursor uint64 `json:"checkpoint_cursor,omitempty"`
	// PoisonedSeq and PoisonedError report the stored record wedging
	// this partial (seq 0 = healthy).
	PoisonedSeq   uint64 `json:"poisoned_seq,omitempty"`
	PoisonedError string `json:"poisoned_error,omitempty"`
}

// liveAccumulators reports every live partial's cursor, sorted by
// survey ID then shard. It reads the atomic cursors rather than taking
// each part's mu, so the admin surface stays responsive even while a
// whole-backlog catch-up is folding (Responses == Cursor by the
// gap-free seq invariant).
func (s *Server) liveAccumulators() []LiveAccumulator {
	s.liveMu.Lock()
	out := make([]LiveAccumulator, 0, len(s.live))
	for id, ls := range s.live {
		for _, p := range ls.parts {
			cursor := p.cursor.Load()
			acc := LiveAccumulator{
				SurveyID:         id,
				Shard:            p.shard,
				Cursor:           cursor,
				Responses:        int(cursor),
				Fingerprint:      ls.fp,
				CheckpointCursor: p.ckptCursor.Load(),
				PoisonedSeq:      p.poisonSeq.Load(),
			}
			if msg, ok := p.poisonMsg.Load().(string); ok {
				acc.PoisonedError = msg
			}
			out = append(out, acc)
		}
	}
	s.liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].SurveyID != out[j].SurveyID {
			return out[i].SurveyID < out[j].SurveyID
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// CheckpointRecordInfo is one (survey, shard) checkpoint on the admin
// surface.
type CheckpointRecordInfo struct {
	SurveyID string `json:"survey_id"`
	// Shard is the shard the checkpoint covers.
	Shard int `json:"shard"`
	// Cursor is the per-shard sequence number the checkpoint covers: a
	// restart's first read scans only beyond it.
	Cursor      uint64 `json:"cursor"`
	Fingerprint string `json:"fingerprint"`
	// AgeSeconds is how long ago the checkpoint was taken; it bounds the
	// tail a restart would rescan.
	AgeSeconds float64 `json:"age_seconds"`
}

// CheckpointInfo describes the durable checkpoint log on the admin
// surface.
type CheckpointInfo struct {
	// Surveys is the number of checkpointed surveys.
	Surveys int `json:"surveys"`
	// Records lists every checkpoint, sorted by survey ID then shard.
	Records []CheckpointRecordInfo `json:"records,omitempty"`
}

// checkpointInfo snapshots the checkpoint log for the admin surface;
// nil when checkpointing is disabled.
func (s *Server) checkpointInfo() *CheckpointInfo {
	if s.cfg.Checkpoints == nil {
		return nil
	}
	recs := s.cfg.Checkpoints.Records()
	info := &CheckpointInfo{Surveys: s.cfg.Checkpoints.Len()}
	now := time.Now()
	for _, rec := range recs {
		info.Records = append(info.Records, CheckpointRecordInfo{
			SurveyID:    rec.SurveyID,
			Shard:       rec.Shard,
			Cursor:      rec.Cursor,
			Fingerprint: rec.Fingerprint,
			AgeSeconds:  now.Sub(rec.SavedAt()).Seconds(),
		})
	}
	sort.Slice(info.Records, func(i, j int) bool {
		if info.Records[i].SurveyID != info.Records[j].SurveyID {
			return info.Records[i].SurveyID < info.Records[j].SurveyID
		}
		return info.Records[i].Shard < info.Records[j].Shard
	})
	return info
}

// FlushCheckpoints durably checkpoints every shard partial that has
// folded at least CheckpointDirty responses since its last checkpoint.
// It is what the background checkpointer runs on its interval; tests
// and benchmarks call it directly for a deterministic flush. Poisoned
// partials checkpoint too — their state is exactly the responses before
// the poisoned record, which is the right resume point. Because
// checkpoints are per shard, restart catch-up is per-shard-tail: each
// partial scans only its own shard beyond its own cursor.
func (s *Server) FlushCheckpoints() error {
	if s.cfg.Checkpoints == nil {
		return nil
	}
	s.liveMu.Lock()
	sets := make([]*liveSet, 0, len(s.live))
	for _, ls := range s.live {
		sets = append(sets, ls)
	}
	s.liveMu.Unlock()
	var first error
	for _, ls := range sets {
		for _, p := range ls.parts {
			p.mu.Lock()
			cursor := p.cursor.Load()
			if cursor < p.ckptCursor.Load()+uint64(s.cfg.CheckpointDirty) {
				p.mu.Unlock()
				continue
			}
			// Records carry GLOBAL shard coordinates: the layout
			// identity of the stream slice, stable across node
			// redeployments onto different shard subsets.
			rec := &checkpoint.Record{
				SurveyID:      ls.surveyID,
				Shard:         s.router.GlobalID(p.shard),
				ShardCount:    s.cfg.ClusterShards,
				Fingerprint:   ls.fp,
				Cursor:        cursor,
				State:         p.acc.Snapshot(),
				SavedUnixNano: time.Now().UnixNano(),
			}
			p.mu.Unlock()
			// The durable write happens outside the part's mu: a slow
			// fsync must not stall the read path. Snapshot is a deep
			// copy, so concurrent folds cannot tear the record.
			if err := s.cfg.Checkpoints.Put(rec); err != nil {
				if first == nil {
					first = err
				}
				continue
			}
			p.ckptCursor.Store(rec.Cursor)
		}
	}
	return first
}

// checkpointLoop is the background checkpointer: a FlushCheckpoints
// every interval until Close.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.FlushCheckpoints(); err != nil {
				s.logf("checkpoint flush: %v", err)
			}
		case <-s.ckptStop:
			return
		}
	}
}

// Close stops the background loops — the frontend cache refresher, and
// the checkpointer after one final flush so a clean shutdown leaves
// checkpoints covering everything folded. It does not close the store
// or the checkpoint log — the caller owns both. A server without
// background loops has nothing to stop; Close is a no-op.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.refStop != nil {
			close(s.refStop)
		}
		if s.ckptStop != nil {
			close(s.ckptStop)
		}
	})
	if s.refDone != nil {
		<-s.refDone
	}
	if s.ckptDone == nil {
		return nil
	}
	<-s.ckptDone
	return s.FlushCheckpoints()
}
