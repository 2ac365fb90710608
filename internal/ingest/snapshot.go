package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// snapHeader is the first record of a snapshot file. The remaining Count
// records are one response record each (encodeResponse's, or JSON ones
// in a snapshot written before records went binary), in index (append)
// order per survey. Under the binary codec they ride in sealed blockio
// blocks, the header in a block of its own; replay sniffs the format per
// file.
type snapHeader struct {
	Format int    `json:"format"`
	Covers uint64 `json:"covers"` // every segment with seq <= Covers is folded in
	Count  int    `json:"count"`
}

const snapFormat = 1

// compactJob is one fold handed to the compactor: the index as it stood
// when segment covers was sealed and its successor still empty, which
// is exactly the contents of the current snapshot plus every sealed
// segment. The view's slices are append-only histories, so the
// compactor reads them while the committer keeps appending past their
// captured lengths.
type compactJob struct {
	covers uint64
	view   map[string][]survey.Response
	sealed []sealedSeg // the segments being folded: the sealed list at the cut
	prev   uint64      // the snapshot being superseded, 0 if none
	// prevCounts is the superseded snapshot's snapCounts: the first
	// prevCounts[id] records of view[id] are copied out of it, not
	// encoded.
	prevCounts map[string]int
	// sizeHint is the current snapshot plus the sealed tail in bytes: an
	// upper estimate of the new snapshot's size (see writeSnapshot).
	sizeHint int64
	idle     bool
}

// errCompactAborted ends a fold that Close interrupted; it leaves only
// a tmp file behind and is not an I/O failure.
var errCompactAborted = errors.New("ingest: compaction abandoned on close")

// shouldCompact is the rotation-time trigger. The floor keeps small
// stores from snapshotting every segment; the one-half rule makes each
// snapshot at least 1.5× its predecessor, so all the snapshots a store
// ever writes sum to at most 3× its data — a constant where a fixed
// trigger's rewrite volume grows with the square of the history. Sizes
// are on-disk bytes, like the thresholds they are compared with.
func shouldCompact(sealedBytes, snapBytes, floor int64) bool {
	return sealedBytes >= floor && sealedBytes*2 >= snapBytes
}

// shouldIdleCompact bounds idle compaction's write amplification: a
// snapshot rewrites the whole history (copied, not re-encoded, but every
// byte written again), so folding a tiny tail into a huge snapshot over
// and over would turn trickle writes into full-history rewrites.
// Requiring the unfolded tail to be at least 1/8
// of the current snapshot caps the amplification while still folding
// promptly when there is no snapshot yet (or a small one). The bar is
// lower than shouldCompact's because idle folds are at least
// IdleCompact apart and spend time nobody is waiting on.
func shouldIdleCompact(tailBytes, snapBytes int64) bool {
	if tailBytes == 0 {
		return false
	}
	return tailBytes*8 >= snapBytes
}

// idleCompact folds a quiet store's WAL tail into a snapshot: seal the
// active segment if it holds data, then hand every sealed segment to
// the compactor. Runs on the committer goroutine, which owns the active
// segment.
func (s *Sharded) idleCompact() {
	s.logMu.Lock()
	skip := s.failed != nil || s.compacting || !shouldIdleCompact(s.sealedBytes+s.segBytes, s.snapBytes)
	s.logMu.Unlock()
	if skip {
		return
	}
	if s.segBytes > 0 {
		if err := s.rotate(); err != nil {
			s.fail(err)
			return
		}
	}
	s.startCompaction(true)
}

// startCompaction hands the sealed tail to the compactor if a fold is
// due and none is running. The committer calls it right after a
// rotation (or with an empty active segment), the one moment the index
// equals snapshot + sealed segments exactly; capturing the per-survey
// slice headers there is the whole cost compaction puts on the commit
// path.
func (s *Sharded) startCompaction(idle bool) {
	s.logMu.Lock()
	floor := int64(s.cfg.CompactSegments) * s.cfg.SegmentBytes
	due := len(s.sealed) > 0 && !s.compacting &&
		(idle || shouldCompact(s.sealedBytes, s.snapBytes, floor))
	var job compactJob
	if due {
		s.compacting = true
		job = compactJob{
			covers:     s.segSeq - 1,
			sealed:     append([]sealedSeg(nil), s.sealed...),
			prev:       s.snapSeq,
			prevCounts: s.snapCounts,
			sizeHint:   s.snapBytes + s.sealedBytes,
			idle:       idle,
		}
	}
	s.logMu.Unlock()
	if !due {
		return
	}
	// The committer is the index's only writer, so it reads it unlocked.
	job.view = make(map[string][]survey.Response, len(s.index))
	for id, rs := range s.index {
		job.view[id] = rs
	}
	s.compactCh <- job
}

// compactor runs folds off the commit path, one at a time, until Close
// closes compactCh. A failed fold fails the store sticky, like any
// other I/O error on the log.
func (s *Sharded) compactor() {
	defer close(s.compactDone)
	for job := range s.compactCh {
		written, err := s.fold(job)
		counts := make(map[string]int, len(job.view))
		for id, rs := range job.view {
			counts[id] = len(rs)
		}
		s.logMu.Lock()
		s.compacting = false
		switch {
		case err == nil:
			// The folded segments are a prefix: rotation only appends.
			for _, sg := range job.sealed {
				s.sealedBytes -= sg.bytes
			}
			s.sealed = append(s.sealed[:0], s.sealed[len(job.sealed):]...)
			s.snapSeq, s.snapBytes, s.snapCounts, s.lastCompact = job.covers, written, counts, time.Now()
		case !errors.Is(err, errCompactAborted) && s.failed == nil:
			s.failed = err
		}
		s.logMu.Unlock()
		if err == nil {
			if job.idle {
				s.idleCompactions.Add(1)
			}
			s.snapshots.Add(1)
		}
	}
}

// fold writes the job's view as the snapshot covering job.covers, then
// deletes what it supersedes. The order is the crash-safety argument:
// the snapshot is written to a temp file, fsynced, renamed into place
// and the directory synced before any covered segment or the previous
// snapshot is removed, so every crash point reopens to snapshot + tail
// with nothing missing (replayDir discards whichever leftovers it
// finds). It returns the snapshot's size.
func (s *Sharded) fold(job compactJob) (int64, error) {
	written, err := s.writeSnapshot(s.dir, job)
	if err != nil {
		return 0, err
	}
	for _, sg := range job.sealed {
		if err := os.Remove(filepath.Join(s.dir, segName(sg.seq))); err != nil {
			return 0, fmt.Errorf("ingest: drop compacted segment: %w", err)
		}
	}
	if job.prev > 0 {
		if err := os.Remove(filepath.Join(s.dir, snapName(job.prev))); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("ingest: drop superseded snapshot: %w", err)
		}
	}
	return written, blockio.SyncDir(s.dir)
}

// writeSnapshot publishes job.view as dir's snapshot covering segment
// job.covers, crash-atomically, in the configured codec, and returns
// the file's size. Binary snapshots are sealed: they are immutable once
// published, so they always carry a block index and replay with strict
// (non-repairing) semantics.
//
// Only the tail is encoded. The records the superseded snapshot
// (job.prev) already holds are copied out of it, behind the new header,
// with blockio.Log.CopyFrom — whole blocks byte for byte, neither
// inflated nor re-encoded — and only each survey's records past
// job.prevCounts go through encodeResponse, in survey ID order. Under
// the one-half trigger the copied prefix is up to two thirds of the new
// file, and none of it costs an encode or a deflate again.
//
// The temp file is extended (sparsely) to sizeHint before the first
// write and cut back to what was written after the last. A fold of a
// large store writes for seconds in the background; sized up front, the
// directory's listing — names and sizes — changes when a fold
// publishes, not continuously while it writes, so a hot backup that
// copies the live directory and rechecks the listing converges instead
// of chasing a growing file.
func (s *Sharded) writeSnapshot(dir string, job compactJob) (int64, error) {
	hdr := snapHeader{Format: snapFormat, Covers: job.covers}
	ids := make([]string, 0, len(job.view))
	copied := 0
	for id, rs := range job.view {
		if job.prevCounts[id] > len(rs) {
			return 0, fmt.Errorf("ingest: snapshot %d holds %d records of survey %q, the index %d", job.prev, job.prevCounts[id], id, len(rs))
		}
		hdr.Count += len(rs)
		copied += job.prevCounts[id]
		ids = append(ids, id)
	}
	sort.Strings(ids)
	head, err := json.Marshal(&hdr)
	if err != nil {
		return 0, fmt.Errorf("ingest: marshal snapshot header: %w", err)
	}
	size, err := blockio.WriteLogAtomic(filepath.Join(dir, snapName(job.covers)), s.cfg.Codec, job.sizeHint, func(nl *blockio.Log) error {
		// The header gets a block of its own, so the next fold skips it
		// without inflating a block of records along with it.
		if err := nl.Append(head); err != nil {
			return err
		}
		if err := nl.Flush(); err != nil {
			return err
		}
		if job.prev > 0 {
			n, err := nl.CopyFrom(filepath.Join(dir, snapName(job.prev)), 1, s.recode)
			if err != nil {
				return err
			}
			if n != copied {
				return fmt.Errorf("snapshot %d holds %d records, want %d", job.prev, n, copied)
			}
		}
		var rec []byte
		encoded := 0
		for _, id := range ids {
			rs := job.view[id]
			for i := job.prevCounts[id]; i < len(rs); i++ {
				if encoded&0xfff == 0 && s.closed.Load() {
					return errCompactAborted
				}
				encoded++
				if rec, err = s.encodeResponse(rec[:0], &rs[i]); err != nil {
					return err
				}
				if err := nl.Append(rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("ingest: write snapshot: %w", err)
	}
	return size, nil
}

// recode maps a record the fold copies one at a time rather than in a
// whole block. A JSON-lines snapshot holds a line of text per record, so
// a binary record read from an older binary snapshot is re-encoded for
// it; every other record is copied as it is.
func (s *Sharded) recode(rec []byte) ([]byte, error) {
	if s.cfg.Codec != blockio.CodecJSON || len(rec) == 0 || rec[0] != survey.ResponseBinaryTag {
		return rec, nil
	}
	r, err := decodeResponse(rec)
	if err != nil {
		return nil, err
	}
	return s.encodeResponse(nil, &r)
}

// loadSnapshot restores the index from dir's newest snapshot, if any,
// removes superseded older ones, and returns the segment seq the
// snapshot covers, its size and its per-survey record counts.
func (s *Sharded) loadSnapshot(dir string) (covers uint64, size int64, counts map[string]int, err error) {
	seqs, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(seqs) == 0 {
		return 0, 0, nil, err
	}
	latest := seqs[len(seqs)-1]
	for _, seq := range seqs[:len(seqs)-1] {
		if err := os.Remove(filepath.Join(dir, snapName(seq))); err != nil {
			return 0, 0, nil, fmt.Errorf("ingest: drop superseded snapshot: %w", err)
		}
	}
	path := filepath.Join(dir, snapName(latest))
	var hdr *snapHeader
	loaded := 0
	counts = make(map[string]int)
	err = blockio.ReplayFile(path, false, func(line []byte) error {
		loaded++
		if hdr != nil {
			id, err := s.applyRecord(line)
			counts[id]++
			return err
		}
		hdr = new(snapHeader)
		if err := json.Unmarshal(line, hdr); err != nil {
			return fmt.Errorf("corrupt snapshot header: %w", err)
		}
		if hdr.Format != snapFormat {
			return fmt.Errorf("snapshot format %d not supported", hdr.Format)
		}
		if hdr.Covers != latest {
			return fmt.Errorf("snapshot header covers segment %d but file name says %d", hdr.Covers, latest)
		}
		return nil
	})
	if err != nil {
		return 0, 0, nil, err
	}
	if hdr == nil || loaded-1 != hdr.Count {
		return 0, 0, nil, fmt.Errorf("ingest: snapshot %s holds %d records, header disagrees (%+v)", path, loaded-1, hdr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("ingest: stat snapshot: %w", err)
	}
	return latest, fi.Size(), counts, nil
}
