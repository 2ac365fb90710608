package ingest

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// appendReq is one AppendResponses call waiting to be committed. The
// committer replies on errc exactly once: nil after every record is
// durable (written and fsynced) and visible to reads, with counts
// filled in, or the commit error.
type appendReq struct {
	resps  []survey.Response // validated; the caller is blocked, so not copied
	recs   []byte            // the encoded response records, end to end
	ends   []int             // per record, where it ends in recs
	counts []int             // per record, its survey's response count right after it
	errc   chan error
}

// sealedSeg is a closed segment that no snapshot covers yet.
type sealedSeg struct {
	seq   uint64
	bytes int64
}

// openSegment creates the active segment file for s.segSeq (OpenLog
// makes the new directory entry durable).
func (s *Sharded) openSegment() error {
	path := filepath.Join(s.dir, segName(s.segSeq))
	seg, err := blockio.OpenLog(path, func([]byte) error {
		return errors.New("segment already holds records")
	})
	if err != nil {
		return fmt.Errorf("ingest: create segment: %w", err)
	}
	s.seg = seg
	s.segBytes = 0
	return nil
}

// run is the committer loop: take the first waiting request, gather
// everything else already queued (plus, optionally, a commit window of
// latecomers), and commit the batch with a single write + fsync. A
// store that stays quiet for IdleCompact gets its WAL tail folded into
// a snapshot — without this, compaction (otherwise considered only on
// segment rotation) would never reclaim the tail of an idle store.
func (s *Sharded) run() {
	defer close(s.done)
	var idleC <-chan time.Time
	var idleT *time.Timer
	if s.cfg.IdleCompact > 0 {
		idleT = time.NewTimer(s.cfg.IdleCompact)
		defer idleT.Stop()
		idleC = idleT.C
	}
	for {
		select {
		case req := <-s.reqCh:
			s.commit(s.collect(req))
			if idleT != nil {
				// Go 1.23+ timer semantics: Reset discards a pending
				// fire, no drain needed.
				idleT.Reset(s.cfg.IdleCompact)
			}
		case <-idleC:
			s.idleCompact()
			idleT.Reset(s.cfg.IdleCompact)
		case <-s.quit:
			// Serve whatever was enqueued before shutdown, then exit.
			for {
				select {
				case req := <-s.reqCh:
					s.commit(s.collect(req))
				default:
					return
				}
			}
		}
	}
}

// collect builds a group-commit batch. It first drains every request
// already queued (batching arises naturally while the previous commit's
// fsync runs), then — if a commit window is configured — waits up to
// CommitInterval for more, trading latency for fewer fsyncs.
func (s *Sharded) collect(first *appendReq) []*appendReq {
	batch := append(make([]*appendReq, 0, 16), first)
	n := len(first.resps)
drain:
	for n < s.cfg.MaxBatch {
		select {
		case r := <-s.reqCh:
			batch = append(batch, r)
			n += len(r.resps)
		default:
			break drain
		}
	}
	if s.cfg.CommitInterval <= 0 || n >= s.cfg.MaxBatch {
		return batch
	}
	t := time.NewTimer(s.cfg.CommitInterval)
	defer t.Stop()
	for n < s.cfg.MaxBatch {
		select {
		case r := <-s.reqCh:
			batch = append(batch, r)
			n += len(r.resps)
		case <-t.C:
			return batch
		}
	}
	return batch
}

// commit makes a batch durable and visible: one buffered write of every
// record, one flush, one fsync, then one index update and replies to
// every waiter. On an I/O error the store fails sticky — durability
// code must not guess at the on-disk state after a failed write.
func (s *Sharded) commit(batch []*appendReq) {
	reply := func(err error) {
		for _, r := range batch {
			r.errc <- err
		}
	}
	if err := s.failure(); err != nil {
		reply(err)
		return
	}
	before := s.seg.Size()
	var werr error
	records := 0
write:
	for _, r := range batch {
		start := 0
		for _, end := range r.ends {
			if werr = s.seg.Append(r.recs[start:end]); werr != nil {
				break write
			}
			start = end
		}
		records += len(r.ends)
	}
	if werr == nil {
		werr = s.seg.Flush()
	}
	if werr == nil {
		werr = s.seg.Sync()
	}
	if werr != nil {
		reply(s.fail(fmt.Errorf("ingest: segment %d: %w", s.segSeq, werr)))
		return
	}
	// Framed (binary: compressed) bytes, measured after the flush so the
	// rotation threshold tracks the on-disk size, not the logical one.
	s.segBytes += s.seg.Size() - before
	// The index takes the very bytes the segment just did.
	s.idxMu.Lock()
	for _, r := range batch {
		start := 0
		for i, end := range r.ends {
			id := r.resps[i].SurveyID
			a := s.index[id]
			a.add(r.recs[start:end])
			s.index[id] = a
			r.counts[i] = len(a.ends)
			start = end
		}
	}
	s.idxMu.Unlock()
	s.appends.Add(int64(records))
	s.commits.Add(1)
	reply(nil)
	if s.segBytes >= s.cfg.SegmentBytes {
		if err := s.rotate(); err != nil {
			s.fail(err)
			return
		}
		s.startCompaction(false)
	}
}

// rotate seals the active segment (record data already fsynced by the
// last commit; sealing appends and fsyncs its block index here)
// and opens its successor. Only rotation seals: the active segment stays
// unsealed so a crash mid-append truncates cleanly on replay. In-flight
// data is already durable when rotation fails; only future appends are
// refused.
func (s *Sharded) rotate() error {
	if err := s.seg.Seal(); err != nil {
		return fmt.Errorf("ingest: seal segment %d: %w", s.segSeq, err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("ingest: seal segment %d: %w", s.segSeq, err)
	}
	s.logMu.Lock()
	s.sealed = append(s.sealed, sealedSeg{seq: s.segSeq, bytes: s.segBytes})
	s.sealedBytes += s.segBytes
	s.logMu.Unlock()
	s.segSeq++
	s.rotations.Add(1)
	return s.openSegment()
}

// failure returns the sticky I/O error, if any.
func (s *Sharded) failure() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.failed
}

// fail records err as the sticky failure unless an earlier one holds
// the slot, and returns whichever does.
func (s *Sharded) fail(err error) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.failed == nil {
		s.failed = err
	}
	return s.failed
}
