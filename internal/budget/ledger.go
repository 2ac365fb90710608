package budget

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"loki/internal/blockio"
)

// ledgerFile is the Set's journal file name inside -budget-dir. It
// predates the binary record and stays: a Log is sniffed, not named by
// its codec.
const ledgerFile = "budget-ledger.jsonl"

// Entry kinds. An entry with an empty kind is a charge, as in the JSON
// lines older ledgers hold.
const (
	walRefund   = "refund"
	walSnapshot = "snapshot"
)

// ledgerTag leads every binary ledger record and names its layout
// version. Like the store's 0xB1 response tag it is a UTF-8 continuation
// byte, so no JSON line starts with it and replay dispatches per record
// on the first byte.
const ledgerTag = 0xB2

// Binary layout, version 0xB2 (field primitives: blockio.FieldReader):
//
//	tag | uvarint len(entries) | entry ...
//
//	entry   = kind | str Worker | str Survey | f64 Rho | varint Unprot
//	        | kindSnapshot | uvarint len(accounts) | account ...
//	account = str WorkerID | f64 Rho | varint Unprotected |
//	          uvarint Charges | uvarint Refunds
//
// One record is what one flushLocked call writes: a charged batch, a
// refund, or a compaction snapshot. ρ is its raw IEEE-754 bits, so
// replay folds the very float the live path folded.
const (
	kindCharge byte = iota
	kindRefund
	kindSnapshot

	minEntryBytes   = 2  // a snapshot of no accounts
	minAccountBytes = 12 // empty worker, ρ, three one-byte varints
)

// errBadRecord refuses a ledger record that does not decode. Interior
// corruption in a budget ledger is not skippable the way an advisory
// checkpoint is: dropping a charge would under-count a worker's spend.
var errBadRecord = errors.New("budget: bad ledger record")

// walRecord is one ledger entry. Charges and refunds are deltas routed
// to their shard by worker hash; a snapshot entry (written by
// compaction) resets every hosted shard to the embedded accounts, so a
// compacted file replays to exactly the same state as the original.
// The JSON tags read ledgers written before the binary record, one
// entry per line.
type walRecord struct {
	T        string    `json:"t,omitempty"`
	Worker   string    `json:"worker,omitempty"`
	Survey   string    `json:"survey,omitempty"`
	Rho      float64   `json:"rho,omitempty"`
	Unprot   int       `json:"unprot,omitempty"`
	Snapshot []Account `json:"snapshot,omitempty"`
}

// appendLedgerRecord appends the binary record holding recs to b.
func appendLedgerRecord(b []byte, recs []walRecord) []byte {
	b = append(b, ledgerTag)
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		switch rec.T {
		case walSnapshot:
			b = append(b, kindSnapshot)
			b = binary.AppendUvarint(b, uint64(len(rec.Snapshot)))
			for j := range rec.Snapshot {
				a := &rec.Snapshot[j]
				b = blockio.AppendString(b, a.WorkerID)
				b = blockio.AppendFloat64(b, a.Rho)
				b = binary.AppendVarint(b, int64(a.Unprotected))
				b = binary.AppendUvarint(b, a.Charges)
				b = binary.AppendUvarint(b, a.Refunds)
			}
			continue
		case walRefund:
			b = append(b, kindRefund)
		default:
			b = append(b, kindCharge)
		}
		b = blockio.AppendString(b, rec.Worker)
		b = blockio.AppendString(b, rec.Survey)
		b = blockio.AppendFloat64(b, rec.Rho)
		b = binary.AppendVarint(b, int64(rec.Unprot))
	}
	return b
}

// decodeLedgerRecord decodes one ledger record into dst[:0]: a binary
// record, or one JSON line of an older ledger. A binary record must be
// exactly appendLedgerRecord's bytes for what it decodes to — varints
// also decode from overlong spellings, and a record has one encoding.
func decodeLedgerRecord(dst []walRecord, b []byte) ([]walRecord, error) {
	recs := dst[:0]
	if len(b) == 0 || b[0] != ledgerTag {
		var rec walRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRecord, err)
		}
		return append(recs, rec), nil
	}
	d := blockio.NewFieldReader(b[1:])
	for n := d.Count(minEntryBytes); n > 0 && d.Err() == nil; n-- {
		var rec walRecord
		switch kind := d.Byte(); kind {
		case kindSnapshot:
			rec.T = walSnapshot
			rec.Snapshot = make([]Account, d.Count(minAccountBytes))
			for i := range rec.Snapshot {
				rec.Snapshot[i] = Account{WorkerID: d.Str(), Rho: d.Float64(), Unprotected: d.Int(), Charges: d.Uvarint(), Refunds: d.Uvarint()}
			}
		case kindRefund:
			rec.T = walRefund
			fallthrough
		case kindCharge:
			rec.Worker, rec.Survey, rec.Rho, rec.Unprot = d.Str(), d.Str(), d.Float64(), d.Int()
		default:
			if d.Err() == nil {
				return nil, fmt.Errorf("%w: entry kind %#x", errBadRecord, kind)
			}
		}
		recs = append(recs, rec)
	}
	switch {
	case d.Err() != nil:
		return nil, fmt.Errorf("%w: %v", errBadRecord, d.Err())
	case d.Len() != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadRecord, d.Len())
	case !bytes.Equal(appendLedgerRecord(make([]byte, 0, len(b)), recs), b):
		return nil, fmt.Errorf("%w: not in canonical form", errBadRecord)
	}
	return recs, nil
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
	// records counts charge and refund entries applied to this shard
	// since the last compaction (observability only).
	records int
}

// ledger is the Set's durable journal: a binary blockio.Log holding one
// record per write batch (torn-tail truncation on open, snapshot
// compaction by Rewrite), with group-committed fsyncs. A ledger that
// opens as JSON lines, written before the binary record, is replayed
// and compacted into a binary snapshot at once (NewSet), so there is
// one encoding to write. With no directory the ledger is memory-only —
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
	// buf is the record encoding scratch, reused under mu.
	buf []byte
	// appended counts entries (not records) since the last compaction;
	// compactions is a process-lifetime observability counter.
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
	var recs []walRecord
	var err error
	l.log, err = blockio.OpenLog(filepath.Join(dir, ledgerFile), blockio.CodecBinary, func(payload []byte) error {
		var err error
		if recs, err = decodeLedgerRecord(recs, payload); err != nil {
			return err
		}
		for i := range recs {
			if err := apply(&recs[i]); err != nil {
				return err
			}
		}
		l.appended += len(recs)
		return nil
	})
	if err != nil {
		return fmt.Errorf("budget: open ledger: %w", err)
	}
	return nil
}

// flushLocked appends records to the WAL as one binary record and
// flushes it to the OS as one write batch — durability comes later,
// from the sync cohort. Memory-only ledgers skip it. Any failure is
// sticky.
func (l *ledger) flushLocked(recs []walRecord) error {
	if l.log == nil {
		return nil
	}
	l.buf = appendLedgerRecord(l.buf[:0], recs)
	err := l.log.Append(l.buf)
	if err == nil {
		err = l.log.Flush()
	}
	if err != nil {
		l.err = fmt.Errorf("budget: %w", err)
		return l.err
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
// records: it bumps the entry count, maybe compacts, releases the commit
// lock, and joins the sync cohort. It must be called with mu held and
// always unlocks it.
func (l *ledger) commitLocked(entries int, compact func()) error {
	l.appended += entries
	compact()
	durable := l.log != nil
	seq := l.flushed.Load()
	l.mu.Unlock()
	if durable {
		return l.syncCohort(seq)
	}
	return nil
}

// rewriteLocked replaces the journal with one binary snapshot record of
// accounts. Called with mu held. The sync cohort fsyncs the log without
// mu, and Rewrite swaps the file under it, so syncMu is held too (lock
// order mu → syncMu); a failure is sticky in the log, which wedges the
// cohort as well.
func (l *ledger) rewriteLocked(accounts []Account) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.buf = appendLedgerRecord(l.buf[:0], []walRecord{{T: walSnapshot, Snapshot: accounts}})
	err := l.log.Rewrite(blockio.CodecBinary, func(nl *blockio.Log) error { return nl.Append(l.buf) })
	if err != nil {
		l.err = fmt.Errorf("budget: compact ledger: %w", err)
		return l.err
	}
	l.appended = 1 // the snapshot entry itself
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
