package shardset

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/store"
	"loki/internal/survey"
)

// epochCounter disambiguates journals created within one clock tick:
// an epoch must never repeat across router rebuilds, or a follower
// would keep applying offsets into a reordered journal.
var epochCounter atomic.Uint64

func nextEpoch() uint64 {
	return uint64(time.Now().UnixNano()) + epochCounter.Add(1)
}

// Local is the in-process ShardRouter: N store.Store instances, one per
// shard. Each shard keeps its own durability (a store.Mem for tests, an
// ingest store per shard directory for durable nodes), its own
// per-shard sequence numbers, and — when journaling is enabled — an
// in-memory append journal that WAL-tail shipping to followers is served
// from.
//
// Wrapping a single store in a one-shard Local is exactly the
// pre-cluster deployment: Route always answers 0 and every call passes
// straight through, which is how the standalone server adopts the
// router interface without changing behavior.
type Local struct {
	shards []localShard
	// ids are the global shard indices the local shards correspond to
	// (identity for a standalone deployment; a node owning a subset of
	// the cluster's shard space maps global->local through them).
	ids []int

	// journal, when non-nil, records every append in arrival order per
	// shard for tail shipping; see journal.go.
	journals []*journal

	closed bool
	mu     sync.Mutex // guards closed and Close vs mutations
}

// localShard is one shard's store. On a journaling router every call
// on it holds mu for reading, so ResetShard (the writer) swaps the store
// only once the calls in flight on the old one have finished. A router
// without a journal is never reset, and its calls take no lock.
type localShard struct {
	mu sync.RWMutex
	st store.Store
	// gone marks a store ResetShard closed but could not replace, so a
	// retried reset does not close it twice.
	gone bool
}

// acquire returns shard i's store, held against ResetShard until
// release(i).
func (l *Local) acquire(i int) store.Store {
	if l.journals != nil {
		l.shards[i].mu.RLock()
	}
	return l.shards[i].st
}

func (l *Local) release(i int) {
	if l.journals != nil {
		l.shards[i].mu.RUnlock()
	}
}

// LocalOptions tune NewLocal.
type LocalOptions struct {
	// GlobalIDs maps each local shard to its global shard index. Nil
	// means identity (shard i is global shard i).
	GlobalIDs []int
	// Journal enables the per-shard append journal that serves WAL-tail
	// shipping (Tail) and makes shards resettable (ResetShard). Cluster
	// nodes need it; standalone servers do not. On open the journal is
	// rebuilt from the stores (survey by survey, in ID order) under a
	// fresh epoch, so a restarted node's replicas detect the epoch
	// change and resync.
	Journal bool
	// JournalRetain, when positive, bounds each shard journal's
	// retained entry count: entries beyond it are truncated even past
	// follower acks (a follower that falls behind the bound rebuilds
	// through the Truncated resync path). Zero keeps entries until
	// every registered follower acks past them — and forever when no
	// follower ever registers.
	JournalRetain int
	// FollowerAckTTL, when positive, expires a follower's ack after it
	// has been silent that long, so a departed replica stops pinning
	// journal retention. Zero keeps acks forever (the pre-TTL behavior).
	FollowerAckTTL time.Duration
}

// NewLocal builds a router over the given per-shard stores. The stores
// are owned by the router from here on: Close closes them.
func NewLocal(stores []store.Store, opts LocalOptions) (*Local, error) {
	if len(stores) == 0 {
		return nil, errors.New("shardset: local router needs at least one shard store")
	}
	ids := opts.GlobalIDs
	if ids == nil {
		ids = make([]int, len(stores))
		for i := range ids {
			ids[i] = i
		}
	}
	if len(ids) != len(stores) {
		return nil, fmt.Errorf("shardset: %d global ids for %d shards", len(ids), len(stores))
	}
	l := &Local{shards: make([]localShard, len(stores)), ids: ids}
	for i, st := range stores {
		l.shards[i].st = st
	}
	if opts.Journal {
		epoch := nextEpoch()
		l.journals = make([]*journal, len(stores))
		for i, st := range stores {
			j, err := rebuildJournal(st, epoch, opts.JournalRetain, opts.FollowerAckTTL)
			if err != nil {
				return nil, fmt.Errorf("shardset: rebuild journal for shard %d: %w", ids[i], err)
			}
			l.journals[i] = j
		}
	}
	return l, nil
}

// NewLocalSingle wraps one store as a one-shard router — the standalone
// server's adapter.
func NewLocalSingle(st store.Store) *Local {
	l, err := NewLocal([]store.Store{st}, LocalOptions{})
	if err != nil {
		// Unreachable: one store, no options to validate.
		panic(err)
	}
	return l
}

// Shards implements ShardRouter.
func (l *Local) Shards() int { return len(l.shards) }

// GlobalID implements ShardRouter.
func (l *Local) GlobalID(i int) int { return l.ids[i] }

// Store exposes the underlying store of local shard i (the server's
// admin surface reports per-backend stats through it). A ResetShard may
// close it after the call returns.
func (l *Local) Store(i int) store.Store {
	defer l.release(i)
	return l.acquire(i)
}

// Route implements ShardRouter with the canonical placement hash.
func (l *Local) Route(surveyID, workerID string) int {
	if len(l.shards) == 1 {
		return 0
	}
	return Route(surveyID, workerID, len(l.shards))
}

// Publish implements ShardRouter: broadcast to every shard.
func (l *Local) Publish(sv *survey.Survey) (store.Outcome, error) {
	return Broadcast(len(l.shards), func(i int) (store.Outcome, error) {
		defer l.release(i)
		return l.acquire(i).Publish(sv)
	})
}

// Survey implements ShardRouter. Definitions are replicated, so any
// shard can answer; shard 0 is the convention.
func (l *Local) Survey(id string) (*survey.Survey, error) {
	defer l.release(0)
	return l.acquire(0).Survey(id)
}

// Surveys implements ShardRouter.
func (l *Local) Surveys() ([]*survey.Survey, error) {
	defer l.release(0)
	return l.acquire(0).Surveys()
}

// AppendShard appends one response to an explicit shard and returns the
// shard's response count for the survey after the append — how a replica
// applies a followed shard's records, one at a time, checking each seq.
// With journaling on, the store append and the journal entry are made
// atomic with respect to other appends to the same shard by the
// journal's lock — the journal offset order must match per-shard seq
// order or replicas would apply records out of order.
func (l *Local) AppendShard(shard int, r *survey.Response) (int, error) {
	if err := l.check(shard); err != nil {
		return 0, err
	}
	st := l.acquire(shard)
	defer l.release(shard)
	if l.journals == nil {
		if err := st.AppendResponse(r); err != nil {
			return 0, err
		}
		return st.ResponseCount(r.SurveyID), nil
	}
	return l.journals[shard].append(st, r)
}

// AppendShardBatch appends several routed responses to one shard in a
// single durability round: with a BatchAppender store the whole batch
// costs one fsync, and the journal entries are recorded under one lock
// acquisition. It returns per-response stored counts (the responses'
// per-shard seqs); on error the returned prefix covers what was durably
// appended.
func (l *Local) AppendShardBatch(shard int, rs []survey.Response) ([]int, error) {
	if err := l.check(shard); err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, nil
	}
	st := l.acquire(shard)
	defer l.release(shard)
	if l.journals == nil {
		return st.AppendResponses(rs)
	}
	return l.journals[shard].appendBatch(st, rs)
}

// ScanShard implements ShardRouter. The scan holds the shard's store
// against ResetShard until it returns, so fn must not call back into
// this router.
func (l *Local) ScanShard(shard int, surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	if err := l.check(shard); err != nil {
		return err
	}
	defer l.release(shard)
	return l.acquire(shard).ScanResponses(surveyID, fromSeq, fn)
}

// CountShard implements ShardRouter.
func (l *Local) CountShard(shard int, surveyID string) int {
	if shard < 0 || shard >= len(l.shards) {
		return 0
	}
	defer l.release(shard)
	return l.acquire(shard).ResponseCount(surveyID)
}

// Tail serves WAL-tail shipping for one local shard: journal entries
// from offset under the given epoch. See journal.tail for the epoch,
// truncation, and follower-ack contracts. It errors when journaling is
// disabled.
func (l *Local) Tail(shard int, epoch uint64, offset uint64, max int, follower string) (*TailBatch, error) {
	if l.journals == nil {
		return nil, errors.New("shardset: tail shipping needs a journaling router")
	}
	if err := l.check(shard); err != nil {
		return nil, err
	}
	defer l.release(shard)
	return l.journals[shard].tail(l.acquire(shard), epoch, offset, max, follower)
}

// BumpEpoch installs a fresh epoch on one local shard's journal and
// returns it — the promotion primitive. The entries stay: the promoted
// shard's history is intact and a new follower tails it from offset
// zero, but any follower still holding the pre-promotion epoch resyncs,
// which is exactly the fencing semantic promotion needs in the
// WAL-shipping protocol. Errors when journaling is disabled.
func (l *Local) BumpEpoch(shard int) (uint64, error) {
	if l.journals == nil {
		return 0, errors.New("shardset: epoch bump needs a journaling router")
	}
	if err := l.check(shard); err != nil {
		return 0, err
	}
	e := nextEpoch()
	l.journals[shard].setEpoch(e)
	return e, nil
}

// ResetShard replaces local shard i's store with an empty one and
// empties its journal under a fresh epoch: how a follower discards its
// copy of a shard to resync it from the source. It waits out the calls
// in flight on the old store, so they finish on the old contents, then
// closes it and only then calls open, which may reuse the old store's
// files. The survey definitions carry over (every shard holds every
// definition), so the shard keeps taking appends for known surveys.
// Errors without journaling: a follower journals what it applies.
func (l *Local) ResetShard(shard int, open func() (store.Store, error)) error {
	if l.journals == nil {
		return errors.New("shardset: a shard reset needs a journaling router")
	}
	if err := l.check(shard); err != nil {
		return err
	}
	sh := &l.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var svs []*survey.Survey
	if !sh.gone {
		var err error
		if svs, err = sh.st.Surveys(); err != nil {
			return err
		}
		sh.gone = true
		if err := sh.st.Close(); err != nil {
			return err
		}
	}
	st, err := open()
	if err != nil {
		return err
	}
	for _, sv := range svs {
		if _, err := st.Publish(sv); err != nil {
			st.Close()
			return err
		}
	}
	sh.st, sh.gone = st, false
	l.journals[shard].reset(nextEpoch())
	return nil
}

// JournalStats reports every shard journal's retention state for the
// admin surface (shards keyed by global index); nil when journaling is
// disabled.
func (l *Local) JournalStats() []JournalStats {
	if l.journals == nil {
		return nil
	}
	out := make([]JournalStats, len(l.journals))
	for i, j := range l.journals {
		out[i] = j.stats()
		out[i].Shard = l.ids[i]
	}
	return out
}

// Close implements ShardRouter, closing every shard store.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		if !sh.gone {
			if err := sh.st.Close(); err != nil && first == nil {
				first = err
			}
		}
		sh.gone = true
		sh.mu.Unlock()
	}
	return first
}

// check refuses a local shard index outside the router.
func (l *Local) check(shard int) error {
	if shard < 0 || shard >= len(l.shards) {
		return fmt.Errorf("shardset: shard %d outside [0, %d)", shard, len(l.shards))
	}
	return nil
}

var _ ShardRouter = (*Local)(nil)
