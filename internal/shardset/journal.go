package shardset

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"loki/internal/store"
	"loki/internal/survey"
)

// TailEntry is one shipped append: the coordinates a replica needs to
// apply it ((survey, per-shard seq)) plus the record itself.
type TailEntry struct {
	SurveyID string          `json:"survey_id"`
	Seq      uint64          `json:"seq"`
	Response survey.Response `json:"response"`
}

// TailBatch is one page of WAL-tail shipping. The epoch identifies a
// particular journal ordering: it changes whenever the node rebuilds
// its journal (every restart), because the rebuild interleaves surveys
// in a different order than the original arrivals. A replica holding a
// different epoch than the batch reports must discard its copy of the
// shard and resync from offset zero — offsets from one epoch mean
// nothing in another.
type TailBatch struct {
	Epoch uint64 `json:"epoch"`
	// NextOffset is where the follower resumes: offset + len(Entries),
	// 0 after an epoch mismatch, or the truncation base after a
	// Truncated reply.
	NextOffset uint64 `json:"next_offset"`
	// End is the journal length when the batch was cut; End−NextOffset
	// is the follower's remaining lag in records.
	End     uint64      `json:"end"`
	Entries []TailEntry `json:"entries,omitempty"`
	// Truncated reports the requested offset fell below the journal's
	// truncation base: the entries are gone from the journal (though
	// their records are still in the store). The follower must rebuild
	// its copy of the shard from paged store scans, then resume tailing
	// from NextOffset — journal entries covering records the scans
	// already delivered carry per-survey seqs at or below the scanned
	// counts and are skipped on apply.
	Truncated bool `json:"truncated,omitempty"`
}

// journalEntry records one append's coordinates. The response payload
// stays in the shard store's index; tail serving fetches it by (survey,
// seq) — a constant-time slice index under the store's read lock — so
// the journal itself stays two words per record.
type journalEntry struct {
	surveyID string
	seq      uint64
}

// journalEntrySize approximates one entry's retained heap bytes: the
// two struct words plus string header and payload. Exact accounting is
// not the point — the admin counter exists so an operator can see the
// journal's footprint shrink when truncation runs.
func journalEntrySize(e *journalEntry) int64 { return int64(len(e.surveyID)) + 32 }

// journal is one shard's append journal: arrival order across surveys,
// which per-survey sequence numbers alone cannot reconstruct.
//
// The journal is truncatable: entries below base have been dropped
// (their records live on in the shard store; only the arrival-order
// index is gone). Truncation advances base to the lowest offset any
// registered follower still needs — a follower's tail request offset is
// its ack of everything before it — and, when a retain bound is set,
// past acks too so the journal's memory stays bounded even with a
// wedged follower (which then recovers through the Truncated resync
// path). With no registered followers and no retain bound the journal
// keeps everything, the pre-truncation behavior.
type journal struct {
	epoch uint64
	// retain, when positive, bounds the retained entry count.
	retain int
	// ackTTL, when positive, expires followers that have not tailed for
	// that long: a dead replica's last ack must not pin retention
	// forever. An expired follower that returns re-registers on its next
	// tail and, if the journal truncated past it meanwhile, rebuilds
	// through the ordinary Truncated resync path.
	ackTTL time.Duration
	// now is the clock, injectable by tests.
	now func() time.Time

	mu      sync.Mutex
	base    uint64 // offset of entries[0]
	entries []journalEntry
	// followers maps follower id → its last ack (the offset of its last
	// tail request: everything before it is applied on the follower) and
	// when it was heard from.
	followers map[string]followerAck
	// retainedBytes approximates the entries' heap footprint;
	// truncatedEntries counts entries dropped over the journal's life;
	// expiredFollowers counts acks dropped by the TTL.
	retainedBytes    int64
	truncatedEntries uint64
	expiredFollowers uint64
}

// followerAck is one follower's registration: the offset it has applied
// through, and when it last tailed.
type followerAck struct {
	offset uint64
	seen   time.Time
}

// rebuildJournal reconstructs a journal from a shard store after a
// restart: every survey's stream in survey-ID order, seqs 1 through its
// response count (no record is read). The order differs from the
// original arrival interleaving, which is exactly why the journal gets a
// fresh epoch — followers resync rather than trust stale offsets.
func rebuildJournal(st store.Store, epoch uint64, retain int, ackTTL time.Duration) (*journal, error) {
	j := &journal{epoch: epoch, retain: retain, ackTTL: ackTTL, now: time.Now, followers: make(map[string]followerAck)}
	surveys, err := st.Surveys()
	if err != nil {
		return nil, err
	}
	for _, sv := range surveys {
		n := st.ResponseCount(sv.ID)
		for seq := 1; seq <= n; seq++ {
			e := journalEntry{surveyID: sv.ID, seq: uint64(seq)}
			j.entries = append(j.entries, e)
			j.retainedBytes += journalEntrySize(&e)
		}
	}
	j.mu.Lock()
	j.maybeTruncateLocked()
	j.mu.Unlock()
	return j, nil
}

// maybeTruncateLocked drops the journal prefix nobody needs: entries
// below every registered follower's ack, and — under a retain bound —
// entries beyond the bound regardless of acks. Caller holds j.mu.
func (j *journal) maybeTruncateLocked() {
	// Expire followers not heard from within the TTL before taking the
	// ack floor: a departed replica's last ack must not pin retention.
	if j.ackTTL > 0 && len(j.followers) > 0 {
		cutoff := j.now().Add(-j.ackTTL)
		for id, ack := range j.followers {
			if ack.seen.Before(cutoff) {
				delete(j.followers, id)
				j.expiredFollowers++
			}
		}
	}
	end := j.base + uint64(len(j.entries))
	floor := j.base
	if len(j.followers) > 0 {
		minAck := end
		for _, ack := range j.followers {
			if ack.offset < minAck {
				minAck = ack.offset
			}
		}
		if minAck > floor {
			floor = minAck
		}
	}
	if j.retain > 0 && end > uint64(j.retain) && end-uint64(j.retain) > floor {
		floor = end - uint64(j.retain)
	}
	if floor <= j.base {
		return
	}
	drop := int(floor - j.base)
	for i := 0; i < drop; i++ {
		j.retainedBytes -= journalEntrySize(&j.entries[i])
	}
	// Copy the survivors into a fresh slice so the dropped prefix's
	// backing array (and its survey-ID strings) actually becomes
	// collectable — re-slicing would pin it forever.
	j.entries = append([]journalEntry(nil), j.entries[drop:]...)
	j.base = floor
	j.truncatedEntries += uint64(drop)
}

// JournalStats describes one shard journal on the admin surface.
type JournalStats struct {
	// Shard is the global shard index.
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
	// Base is the truncation base: the lowest offset still served.
	Base uint64 `json:"base"`
	// Entries is the retained entry count (End − Base).
	Entries int `json:"entries"`
	// RetainedBytes approximates the retained entries' heap footprint.
	RetainedBytes int64 `json:"retained_bytes"`
	// TruncatedEntries counts entries dropped since the journal was
	// built.
	TruncatedEntries uint64 `json:"truncated_entries,omitempty"`
	// Followers is the number of registered followers (tail callers
	// that sent a follower id).
	Followers int `json:"followers,omitempty"`
	// ExpiredFollowers counts follower acks dropped by the ack TTL since
	// the journal was built.
	ExpiredFollowers uint64 `json:"expired_followers,omitempty"`
}

// setEpoch installs a fresh epoch without touching the entries: a
// promoted follower's history is intact, but followers that tailed the
// shard under the old ownership must resync from zero before trusting
// offsets again.
func (j *journal) setEpoch(epoch uint64) {
	j.mu.Lock()
	j.epoch = epoch
	j.mu.Unlock()
}

// reset empties the journal under a fresh epoch — the pairing operation
// for a store reset. A follower that wipes a shard store (epoch change or
// truncation resync from its source) must also wipe the journal it
// serves to downstream followers, or tail would hand out entries whose
// records no longer exist.
func (j *journal) reset(epoch uint64) {
	j.mu.Lock()
	j.epoch = epoch
	j.base = 0
	j.entries = nil
	j.retainedBytes = 0
	j.followers = make(map[string]followerAck)
	j.mu.Unlock()
}

// stats snapshots the journal for the admin surface.
func (j *journal) stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Epoch:            j.epoch,
		Base:             j.base,
		Entries:          len(j.entries),
		RetainedBytes:    j.retainedBytes,
		TruncatedEntries: j.truncatedEntries,
		Followers:        len(j.followers),
		ExpiredFollowers: j.expiredFollowers,
	}
}

// append durably appends to the shard store and journals the entry.
// Holding the journal lock across the store append serializes appends
// to this shard: the journal's offset order must equal per-shard seq
// order per survey, or a replica would apply records out of order. The
// cost is bounded — cross-shard appends still run in parallel, which is
// where cluster scaling comes from.
func (j *journal) append(st store.Store, r *survey.Response) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := st.AppendResponse(r); err != nil {
		return 0, err
	}
	// The append is serialized by j.mu, so the store's count is exactly
	// the seq it just assigned.
	n := st.ResponseCount(r.SurveyID)
	e := journalEntry{surveyID: r.SurveyID, seq: uint64(n)}
	j.entries = append(j.entries, e)
	j.retainedBytes += journalEntrySize(&e)
	j.maybeTruncateLocked()
	return n, nil
}

// appendBatch is append's batch twin: one journal lock acquisition and
// one store batch append — one fsync — for the whole batch. The store
// computes each record's per-shard seq under its own lock; the journal
// lock keeps other appenders out, so those seqs are exact.
func (j *journal) appendBatch(st store.Store, rs []survey.Response) ([]int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	counts, err := st.AppendResponses(rs)
	// Journal exactly the durable prefix, error or not.
	for i, c := range counts {
		e := journalEntry{surveyID: rs[i].SurveyID, seq: uint64(c)}
		j.entries = append(j.entries, e)
		j.retainedBytes += journalEntrySize(&e)
	}
	j.maybeTruncateLocked()
	return counts, err
}

// errStopScan aborts a scan after the one record tail fetching wants.
var errStopScan = errors.New("shardset: stop scan")

// tail cuts one shipping batch: entries [offset, offset+max) under the
// caller's epoch. An epoch mismatch returns the current epoch with
// NextOffset 0 and no entries — the follower's signal to resync. An
// offset below the truncation base returns Truncated with NextOffset
// at the base — the follower's signal to rebuild from store scans and
// resume there. An offset beyond the journal under a matching epoch is
// a protocol error (offsets only grow within an epoch).
//
// A non-empty follower id registers the caller for truncation
// accounting: its request offset is its ack (everything before it is
// applied), so the journal can drop what every registered follower has
// passed. A mismatched epoch resets the ack to zero — the follower is
// about to resync from scratch.
func (j *journal) tail(st store.Store, epoch, offset uint64, max int, follower string) (*TailBatch, error) {
	j.mu.Lock()
	cur := j.epoch
	if follower != "" {
		ack := followerAck{seen: j.now()}
		if epoch == cur {
			ack.offset = offset
		}
		j.followers[follower] = ack
		j.maybeTruncateLocked()
	}
	// Entry slices are immutable once cut (truncation swaps in a fresh
	// slice rather than mutating), so base+entries is a consistent
	// snapshot to serve from outside the lock.
	base := j.base
	entries := j.entries
	j.mu.Unlock()

	end64 := base + uint64(len(entries))
	if epoch != cur {
		return &TailBatch{Epoch: cur, NextOffset: 0, End: end64}, nil
	}
	if offset < base {
		return &TailBatch{Epoch: cur, NextOffset: base, End: end64, Truncated: true}, nil
	}
	if offset > end64 {
		return nil, fmt.Errorf("shardset: tail offset %d beyond journal end %d in epoch %d", offset, end64, cur)
	}
	if max <= 0 {
		max = 1024
	}
	end := offset + uint64(max)
	if end > end64 {
		end = end64
	}
	batch := &TailBatch{Epoch: cur, NextOffset: end, End: end64}
	for _, e := range entries[offset-base : end-base] {
		te := TailEntry{SurveyID: e.surveyID, Seq: e.seq}
		found := false
		err := st.ScanResponses(e.surveyID, e.seq-1, func(seq uint64, r *survey.Response) error {
			if seq != e.seq {
				return fmt.Errorf("shardset: journal entry (%s, %d) resolved to seq %d", e.surveyID, e.seq, seq)
			}
			te.Response = r.Clone()
			found = true
			return errStopScan
		})
		if err != nil && !errors.Is(err, errStopScan) {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("shardset: journal entry (%s, %d) missing from store", e.surveyID, e.seq)
		}
		batch.Entries = append(batch.Entries, te)
	}
	return batch, nil
}
