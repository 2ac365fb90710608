package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// snapHeader is the first record of a snapshot file. The remaining Count
// records are one JSON response each, in index (append) order per survey.
// Under the binary codec the same records ride in sealed blockio blocks;
// replay sniffs the format per file.
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
// snapshot rewrites the whole history, so folding a tiny tail into a
// huge snapshot over and over would turn trickle writes into
// full-history rewrites. Requiring the unfolded tail to be at least 1/8
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
			covers:   s.segSeq - 1,
			sealed:   append([]sealedSeg(nil), s.sealed...),
			prev:     s.snapSeq,
			sizeHint: s.snapBytes + s.sealedBytes,
			idle:     idle,
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
		s.logMu.Lock()
		s.compacting = false
		switch {
		case err == nil:
			// The folded segments are a prefix: rotation only appends.
			for _, sg := range job.sealed {
				s.sealedBytes -= sg.bytes
			}
			s.sealed = append(s.sealed[:0], s.sealed[len(job.sealed):]...)
			s.snapSeq, s.snapBytes, s.lastCompact = job.covers, written, time.Now()
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
	written, err := s.writeSnapshot(s.dir, job.covers, job.view, job.sizeHint)
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

// writeSnapshot publishes view as dir's snapshot covering segment
// covers, crash-atomically, in the configured codec, and returns the
// file's size. Binary snapshots are sealed: they are immutable once
// published, so they always carry a block index and replay with strict
// (non-repairing) semantics.
//
// The temp file is extended (sparsely) to sizeHint before the first
// write and cut back to what was written after the last. A fold of a
// large store writes for seconds in the background; sized up front, the
// directory's listing — names and sizes — changes when a fold
// publishes, not continuously while it writes, so a hot backup that
// copies the live directory and rechecks the listing converges instead
// of chasing a growing file.
func (s *Sharded) writeSnapshot(dir string, covers uint64, view map[string][]survey.Response, sizeHint int64) (int64, error) {
	hdr := snapHeader{Format: snapFormat, Covers: covers}
	for _, rs := range view {
		hdr.Count += len(rs)
	}
	size, err := blockio.WriteLogAtomic(filepath.Join(dir, snapName(covers)), s.cfg.Codec, sizeHint, func(nl *blockio.Log) error {
		emit := func(v any) error {
			rec, err := json.Marshal(v)
			if err != nil {
				return err
			}
			return nl.Append(rec)
		}
		if err := emit(&hdr); err != nil {
			return err
		}
		for _, rs := range view {
			for i := range rs {
				if i&0xfff == 0 && s.closed.Load() {
					return errCompactAborted
				}
				if err := emit(&rs[i]); err != nil {
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

// loadSnapshot restores the index from dir's newest snapshot, if any,
// removes superseded older ones, and returns the segment seq the
// snapshot covers and its size.
func (s *Sharded) loadSnapshot(dir string) (covers uint64, size int64, err error) {
	seqs, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(seqs) == 0 {
		return 0, 0, err
	}
	latest := seqs[len(seqs)-1]
	for _, seq := range seqs[:len(seqs)-1] {
		if err := os.Remove(filepath.Join(dir, snapName(seq))); err != nil {
			return 0, 0, fmt.Errorf("ingest: drop superseded snapshot: %w", err)
		}
	}
	path := filepath.Join(dir, snapName(latest))
	var hdr *snapHeader
	loaded := 0
	err = blockio.ReplayFile(path, false, func(line []byte) error {
		loaded++
		if hdr != nil {
			return s.applyRecord(line)
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
		return 0, 0, err
	}
	if hdr == nil || loaded-1 != hdr.Count {
		return 0, 0, fmt.Errorf("ingest: snapshot %s holds %d records, header disagrees (%+v)", path, loaded-1, hdr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, fmt.Errorf("ingest: stat snapshot: %w", err)
	}
	return latest, fi.Size(), nil
}
