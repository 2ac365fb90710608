package budget

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"loki/internal/blockio"
)

// ledgerFile is the Set's journal file name inside -budget-dir.
const ledgerFile = "budget-ledger.jsonl"

// WAL record kinds. A record with an empty kind is a charge — the hot
// path writes the common case with no discriminator bytes.
const (
	walRefund   = "refund"
	walSnapshot = "snapshot"
)

// walRecord is one line of the budget ledger. Charges and refunds are
// deltas routed to their shard by worker hash; a snapshot record
// (written by compaction) resets every hosted shard to the embedded
// accounts, so a compacted file replays to exactly the same state as
// the original.
type walRecord struct {
	T        string    `json:"t,omitempty"`
	Worker   string    `json:"worker,omitempty"`
	Survey   string    `json:"survey,omitempty"`
	Rho      float64   `json:"rho,omitempty"`
	Unprot   int       `json:"unprot,omitempty"`
	Snapshot []Account `json:"snapshot,omitempty"`
}

// shardState is one hosted budget shard's accounts and counters. It has
// no lock and no file of its own: every shard in a Set is guarded by
// the shared ledger's commit lock and journaled in the shared WAL. The
// shard remains the unit of routing (worker hash), placement (which
// node answers for a worker), and admin stats — but durability is
// per-Set, because on a journaled filesystem every distinct file
// fsynced is a full serialized journal commit, and a submit batch's
// charges scatter across most of the hosted shards. One shared WAL
// turns that scatter back into a single group-committed fsync, which
// is what keeps enforcement inside the bench's overhead gate.
type shardState struct {
	global   int
	accounts map[string]*Account
	rejected uint64
	// records counts WAL lines applied to this shard since the last
	// compaction (observability only).
	records int
}

// ledger is the Set's durable journal: a JSON-lines blockio.Log
// (torn-tail truncation on open, snapshot compaction by Rewrite), with
// group-committed fsyncs. With no directory the ledger is memory-only —
// the bench baseline and the zero-config default — and still provides
// the commit lock.
//
// Restart equivalence is the core invariant: the in-memory commit path
// and the replay path are the same function (Set.applyLocked) fed the
// same records in the same order, so balances after a kill-9 replay
// are float-identical to the balances the live process held.
//
// Durability is group-committed: a batch decides, writes-and-flushes
// its records and applies them under the commit lock, but its outcomes
// are not released until an fsync covers its flushed bytes — and one
// fsync covers every batch flushed before it, so concurrent batches
// share a single disk round instead of queueing one fsync each. Memory
// may therefore run ahead of disk between flush and fsync, but nothing
// observable does: a crash in that window forgets only charges whose
// outcomes were never released (their submits were never admitted, so
// no privacy was spent), or persists charges that were never
// acknowledged — an over-count. A crash can cost a worker headroom,
// never privacy.
type ledger struct {
	// mu is the Set-wide commit lock: it guards the log's appends and
	// every shard's accounts.
	mu  sync.Mutex
	log *blockio.Log // nil = memory-only
	// flushed counts write batches handed to the OS (mutated under mu,
	// read atomically by the sync cohort).
	flushed atomic.Uint64
	// appended counts WAL lines since the last compaction; compactions
	// is a process-lifetime observability counter.
	appended    int
	compactions uint64
	// err is sticky: after a write or flush failure the file position
	// is unknown, so every later mutation refuses rather than risk
	// diverging memory from the log.
	err    error
	closed bool

	// The sync cohort. Lock order is mu → syncMu (compaction swaps the
	// file while holding both); syncMu holders must never take mu.
	// synced is the highest flushed batch an fsync (or a compaction's
	// snapshot fsync) has covered. An fsync failure is sticky in the log.
	syncMu sync.Mutex
	synced uint64
}

// open replays the journal through the Set's apply function and leaves
// the file positioned for appending. dir == "" stays memory-only.
func (l *ledger) open(dir string, apply func(*walRecord) error) error {
	if dir == "" {
		return nil
	}
	var err error
	l.log, err = blockio.OpenLog(filepath.Join(dir, ledgerFile), blockio.CodecJSON, func(line []byte) error {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Interior corruption in a budget ledger is not skippable the
			// way an advisory checkpoint is: dropping a charge would
			// under-count a worker's spend.
			return fmt.Errorf("budget: bad ledger record: %w", err)
		}
		if err := apply(&rec); err != nil {
			return err
		}
		l.appended++
		return nil
	})
	if err != nil {
		return fmt.Errorf("budget: open ledger: %w", err)
	}
	return nil
}

// flushLocked appends records to the WAL and flushes them to the OS as
// one write batch — durability comes later, from the sync cohort.
// Memory-only ledgers skip it. Any failure is sticky.
func (l *ledger) flushLocked(recs []walRecord) error {
	if l.log == nil {
		return nil
	}
	fail := func(err error) error {
		l.err = err
		return err
	}
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			return fail(fmt.Errorf("budget: encode ledger record: %w", err))
		}
		if err := l.log.Append(b); err != nil {
			return fail(fmt.Errorf("budget: %w", err))
		}
	}
	if err := l.log.Flush(); err != nil {
		return fail(fmt.Errorf("budget: %w", err))
	}
	l.flushed.Add(1)
	return nil
}

// syncCohort blocks until an fsync covers the caller's write batch seq.
// Callers arriving while another batch's fsync is in flight queue on
// syncMu; whoever acquires it next fsyncs once for every batch flushed
// so far, and the rest find themselves already covered and return
// without touching the disk. Compaction counts as covering everything:
// its snapshot is fsynced before it is published.
func (l *ledger) syncCohort(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err := l.log.Err(); err != nil {
		return err
	}
	if l.synced >= seq {
		return nil
	}
	// Batches flushed after this load ride the fsync too, but only
	// provably-covered ones are claimed.
	covered := l.flushed.Load()
	if err := l.log.Sync(); err != nil {
		return fmt.Errorf("budget: %w", err)
	}
	if covered > l.synced {
		l.synced = covered
	}
	return nil
}

// checkLocked is the common entry gate for mutations.
func (l *ledger) checkLocked() error {
	if l.closed {
		return errors.New("budget: set used after close")
	}
	return l.err
}

// commitLocked finishes a mutation that already flushed and applied its
// records: it bumps the line count, maybe compacts, releases the commit
// lock, and joins the sync cohort. It must be called with mu held and
// always unlocks it.
func (l *ledger) commitLocked(lines int, compact func()) error {
	l.appended += lines
	compact()
	durable := l.log != nil
	seq := l.flushed.Load()
	l.mu.Unlock()
	if durable {
		return l.syncCohort(seq)
	}
	return nil
}

// rewriteLocked replaces the journal with one snapshot record. Called
// with mu held. The sync cohort fsyncs the log without mu, and Rewrite
// swaps the file under it, so syncMu is held too (lock order mu →
// syncMu); a failure is sticky in the log, which wedges the cohort as
// well.
func (l *ledger) rewriteLocked(snapshot []byte) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	err := l.log.Rewrite(blockio.CodecJSON, func(nl *blockio.Log) error { return nl.Append(snapshot) })
	if err != nil {
		l.err = fmt.Errorf("budget: compact ledger: %w", err)
		return l.err
	}
	l.appended = 1 // the snapshot line itself
	l.compactions++
	// The snapshot covers every record applied so far, including write
	// batches still waiting on the cohort — release them.
	l.synced = l.flushed.Load()
	return nil
}

// close flushes and closes the journal.
func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.log == nil {
		return l.err
	}
	// Let any in-flight cohort fsync finish before closing its file.
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	first := l.err
	if err := l.log.Close(); first == nil {
		first = err
	}
	return first
}

// sortedAccounts flattens account maps into a deterministic snapshot
// slice, sorted by worker so compaction output is reproducible.
func sortedAccounts(shards map[int]*shardState) []Account {
	var n int
	for _, sh := range shards {
		n += len(sh.accounts)
	}
	snap := make([]Account, 0, n)
	for _, sh := range shards {
		for _, a := range sh.accounts {
			snap = append(snap, *a)
		}
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].WorkerID < snap[j].WorkerID })
	return snap
}
