package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// logState is what replaying one log directory learns about its shape.
type logState struct {
	snapSeq     uint64
	snapBytes   int64
	snapWeight  int64
	snapCounts  map[string]int
	sealed      []sealedSeg
	sealedBytes int64
	nextSeq     uint64 // first segment seq not yet used
}

// decodeResponse reads one response record of either encoding into r,
// told apart by the first byte exactly as store.File does: a binary
// record, decoded over what r holds (survey.Response.UnmarshalBinaryReuse),
// or a JSON object (all that files written before ingest's records went
// binary hold), which replaces it.
func decodeResponse(rec []byte, r *survey.Response) error {
	var err error
	if len(rec) > 0 && rec[0] == survey.ResponseBinaryTag {
		err = r.UnmarshalBinaryReuse(rec)
	} else {
		*r = survey.Response{}
		err = json.Unmarshal(rec, r)
	}
	if err != nil {
		return fmt.Errorf("corrupt response record: %w", err)
	}
	return nil
}

// applyRecord checks one replayed record by decoding it into scratch,
// appends its bytes to its survey's arena and returns the survey.
func (s *Sharded) applyRecord(rec []byte, scratch *survey.Response) (string, error) {
	if err := decodeResponse(rec, scratch); err != nil {
		return "", err
	}
	a := s.index[scratch.SurveyID]
	a.add(rec)
	s.index[scratch.SurveyID] = a
	return scratch.SurveyID, nil
}

// replayDir loads one log directory into the index — the newest
// snapshot, then every segment it does not cover, oldest first — and
// clears what a crash or a clean restart left behind: temp files,
// superseded snapshots, segments a snapshot already covers (a crash
// raced the compactor's removal) and segments holding no record (the
// active segment of a store that closed, or died, before its first
// commit; keeping those would grow the directory by a file per restart
// and count them toward compaction).
func (s *Sharded) replayDir(dir string) (logState, error) {
	var st logState
	if err := removeTmp(dir); err != nil {
		return st, err
	}
	if err := s.loadSnapshot(dir, &st); err != nil {
		return st, err
	}
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		return st, err
	}
	st.nextSeq = st.snapSeq + 1
	var scratch survey.Response
	for i, seq := range segs {
		st.nextSeq = max(st.nextSeq, seq+1)
		path := filepath.Join(dir, segName(seq))
		records := 0
		if seq > st.snapSeq {
			// Only the newest segment may have a torn tail; older ones
			// were closed with an fsync before their successor existed.
			err := blockio.ReplayFile(path, i == len(segs)-1, func(rec []byte) error {
				records++
				_, err := s.applyRecord(rec, &scratch)
				return err
			})
			if err != nil {
				return st, fmt.Errorf("ingest: %w", err)
			}
		}
		if records == 0 {
			if err := os.Remove(path); err != nil {
				return st, fmt.Errorf("ingest: drop covered or empty segment: %w", err)
			}
			continue
		}
		fi, err := os.Stat(path)
		if err != nil {
			return st, fmt.Errorf("ingest: stat segment: %w", err)
		}
		st.sealed = append(st.sealed, sealedSeg{seq: seq, bytes: fi.Size()})
		st.sealedBytes += fi.Size()
	}
	return st, nil
}

// shardDirName names one hash partition's log directory in a format-1
// store.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// legacyDirs returns the format-1 shard directories present under dir.
// A crashed first open of a format-1 store may have created only some.
func legacyDirs(dir string, shards int) ([]string, error) {
	var out []string
	for i := 0; i < shards; i++ {
		d := filepath.Join(dir, shardDirName(i))
		if _, err := os.Stat(d); err == nil {
			out = append(out, d)
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("ingest: stat %s: %w", d, err)
		}
	}
	return out, nil
}

// migrateLegacy folds a format-1 store's per-shard logs into one
// store-level snapshot. A survey's whole stream lived on one shard, so
// replaying the shards one after another keeps every per-survey
// sequence. Crash safety: nothing under the shard directories is
// consumed before the caller republishes layout.json as format 2, which
// it does only after the snapshot written here is durable; a crash
// before that reopens as format 1 and starts over (discarding the
// half-made store-level files first), a crash after it reopens as
// format 2 and only has the shard directories left to remove.
func (s *Sharded) migrateLegacy(legacy []string) error {
	for _, pat := range []string{segPrefix + "*" + segSuffix, snapPrefix + "*" + snapSuffix} {
		stale, err := filepath.Glob(filepath.Join(s.dir, pat))
		if err != nil {
			return fmt.Errorf("ingest: list %s: %w", s.dir, err)
		}
		for _, p := range stale {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("ingest: discard unfinished migration: %w", err)
			}
		}
	}
	for _, d := range legacy {
		if _, err := s.replayDir(d); err != nil {
			return err
		}
	}
	// Segment seqs start at 1 and none exists yet, so "covers 1" is an
	// empty claim that still gives the snapshot a nonzero seq.
	_, err := s.writeSnapshot(s.dir, compactJob{covers: 1, view: s.index})
	// Open replays the store directory next, this snapshot included.
	clear(s.index)
	return err
}
