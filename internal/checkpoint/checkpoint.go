// Package checkpoint persists live aggregate state so a restarted server
// resumes folding from where it left off instead of rescanning every
// survey's whole response backlog.
//
// The log is a directory of JSON-lines files, one per survey
// (surveys/<hex(survey-id)>.jsonl), each holding Records: one line
// carries one shard's partial aggregate.AccumulatorState, the per-shard
// cursor (highest sequence number folded in), the shard layout it was
// taken under, and a fingerprint of the survey definition the state was
// folded under. Later lines supersede earlier ones for the same (survey,
// shard); a Record with a nil State is a whole-survey tombstone (older
// versions wrote one where this one removes the file). Files are
// opened lazily on first write and replayed in parallel on Open — the
// per-survey split is what lets restore parallelize across surveys
// instead of grinding through one interleaved log.
//
// A single-file log from before the per-survey split (checkpoints.jsonl)
// is no longer read: a directory holding only that opens empty, and the
// first reads rescan — the cost of any missing checkpoint.
//
// Every file is a blockio.Log, so a crash mid-append costs at most the
// last record (the torn tail is truncated on open) — the reader falls
// back to that shard's previous checkpoint and scans a slightly longer
// tail.
//
// Checkpoints are an optimization, never the source of truth: the store
// is. A missing, stale, or invalidated checkpoint only means more
// catch-up scanning; it can never change an aggregate's value, because
// restore validates the definition fingerprint, the shard layout and
// the accumulator shape before trusting any state.
//
// Each per-survey file rewrites itself (blockio.Log.Rewrite) once
// enough superseded lines accumulate, so its size tracks the survey's
// live shard count, not the number of checkpoints ever taken.
package checkpoint

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"loki/internal/aggregate"
	"loki/internal/blockio"
)

const (
	surveysDir = "surveys"
	logSuffix  = ".jsonl"
	tmpSuffix  = ".tmp"
)

// Record is one shard's durable checkpoint for one survey: resumable
// partial fold state plus the coordinates needed to trust it.
type Record struct {
	SurveyID string `json:"survey_id"`
	// Shard is the GLOBAL shard index the partial covers, and
	// ShardCount the global (cluster-wide) shard count of the placement
	// when the checkpoint was taken — together the identity of the
	// stream slice the state folds, stable across a node being
	// redeployed onto a different shard subset. State from a different
	// layout slices the stream differently and must not be restored.
	// Records persisted before sharding carry neither field and read as
	// shard 0 of 1 (see NumShards).
	Shard      int `json:"shard,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// Fingerprint is survey.Fingerprint() of the definition the state
	// was folded under. Restore must reject state whose fingerprint does
	// not match the current definition: its bins were laid out for a
	// different question set.
	Fingerprint string `json:"fingerprint"`
	// Cursor is the highest per-shard sequence number folded into
	// State; catch-up resumes the shard's scan strictly after it.
	Cursor uint64 `json:"cursor"`
	// State is the accumulator snapshot. Nil marks a whole-survey
	// tombstone.
	State *aggregate.AccumulatorState `json:"state,omitempty"`
	// SavedUnixNano is when the checkpoint was taken (for the admin
	// surface's checkpoint-age report).
	SavedUnixNano int64 `json:"saved_unix_nano"`
}

// SavedAt returns the checkpoint's capture time.
func (r *Record) SavedAt() time.Time { return time.Unix(0, r.SavedUnixNano) }

// NumShards returns the shard layout the record was taken under;
// records from pre-sharding logs read as a one-shard layout.
func (r *Record) NumShards() int {
	if r.ShardCount <= 0 {
		return 1
	}
	return r.ShardCount
}

// surveyLog is one survey's lazily opened file.
type surveyLog struct {
	log *blockio.Log
	// appended counts records written since the last rewrite; once it
	// sufficiently exceeds the survey's live shard-record count the
	// file compacts.
	appended int
}

// Options tune a checkpoint log.
type Options struct {
	// Codec is the encoding for files created (or rewritten by
	// compaction) under this log: blockio.CodecJSON (default — readable
	// lines) or blockio.CodecBinary (compressed blockio blocks; what the
	// server configures). Existing files keep their own sniffed format
	// for appends until a compaction rewrites them, which is how a
	// directory migrates codecs in place.
	Codec string
}

// Log is a durable checkpoint log rooted in one directory. It is safe
// for concurrent use.
type Log struct {
	dir   string
	codec string

	mu sync.Mutex
	// recs maps survey -> shard -> record.
	recs  map[string]map[int]*Record
	files map[string]*surveyLog
	// err is the first I/O failure, sticky: after a failed write or
	// fsync the on-disk tail is unknowable, so further appends could
	// interleave with the buffered wreckage. Reads keep serving the
	// in-memory state; a restart re-replays whatever made it to disk.
	err error
	// corrupt counts unreadable records Open skipped.
	corrupt int
	closed  bool
}

// surveyFileName encodes a survey ID into a filesystem-safe name. Hex
// is clunky but collision-free for arbitrary IDs, and the records
// inside carry the real ID.
func surveyFileName(surveyID string) string {
	return hex.EncodeToString([]byte(surveyID)) + logSuffix
}

// Open replays (or creates) the checkpoint log in dir: every
// per-survey file, in parallel across surveys. A torn trailing line from
// a crashed append is truncated away; unreadable interior records are
// skipped and counted (CorruptRecords), and a binary file with interior
// damage is counted once and rewritten to the records before the
// damage — never a refused open: the log is advisory and the store
// rebuilds anything it cannot provide.
func Open(dir string) (*Log, error) {
	return OpenWith(dir, Options{})
}

// OpenWith opens the checkpoint log with explicit options.
func OpenWith(dir string, opts Options) (*Log, error) {
	if opts.Codec == "" {
		opts.Codec = blockio.CodecJSON
	}
	if !blockio.ValidCodec(opts.Codec) {
		return nil, fmt.Errorf("checkpoint: unknown codec %q", opts.Codec)
	}
	if err := os.MkdirAll(filepath.Join(dir, surveysDir), 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: mkdir %s: %w", dir, err)
	}
	l := &Log{
		dir:   dir,
		codec: opts.Codec,
		recs:  make(map[string]map[int]*Record),
		files: make(map[string]*surveyLog),
	}
	if err := l.replaySurveyFiles(); err != nil {
		return nil, err
	}
	return l, nil
}

// applyLocked folds one replayed record into the in-memory state.
func (l *Log) applyLocked(rec *Record) {
	if rec.State == nil {
		delete(l.recs, rec.SurveyID) // whole-survey tombstone
		return
	}
	shards := l.recs[rec.SurveyID]
	if shards == nil {
		shards = make(map[int]*Record)
		l.recs[rec.SurveyID] = shards
	}
	shards[rec.Shard] = rec
}

// replaySurveyFiles loads every per-survey file, fanning the replay out
// across a small worker pool — the restore-parallelism the per-survey
// layout exists for. Each file touches only its own survey's keys, so
// workers only contend on the map mutex for an instant per record.
func (l *Log) replaySurveyFiles() error {
	entries, err := os.ReadDir(filepath.Join(l.dir, surveysDir))
	if err != nil {
		return fmt.Errorf("checkpoint: list %s: %w", filepath.Join(l.dir, surveysDir), err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, logSuffix) {
			if strings.HasSuffix(name, tmpSuffix) {
				// A crash mid-compaction left a temp file; it was never
				// visible, so it is garbage.
				_ = os.Remove(filepath.Join(l.dir, surveysDir, name))
			}
			continue
		}
		names = append(names, name)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(names) {
		workers = len(names)
	}
	if workers < 1 {
		return nil
	}
	type fileState struct {
		recs    []*Record
		corrupt int
		damaged bool
	}
	work := make(chan int)
	states := make([]fileState, len(names))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				st := &states[i]
				path := filepath.Join(l.dir, surveysDir, names[i])
				apply := func(rec []byte) error {
					var r Record
					if jerr := json.Unmarshal(rec, &r); jerr != nil || r.SurveyID == "" {
						// Checkpoints are advisory: an unreadable record
						// costs the affected shard a longer catch-up scan,
						// never a refused startup. Skipped records are
						// counted (CorruptRecords) so the operator hears
						// about the damage, and the next compaction
						// rewrites the file clean.
						st.corrupt++
						return nil
					}
					st.recs = append(st.recs, &r)
					return nil
				}
				err := blockio.ReplayFile(path, true, apply)
				if errors.Is(err, blockio.ErrInteriorDamage) {
					// The same call as for an unreadable record: keep what
					// replayed before the damage, count it, and replace the
					// file below, since a damaged file refuses every open.
					st.corrupt++
					st.damaged = true
					err = nil
				}
				if err != nil && !errors.Is(err, os.ErrNotExist) && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for i := range names {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Apply sequentially: within a file, order matters (tombstones
	// shadow earlier records); across files it does not (distinct
	// surveys).
	for i := range states {
		l.corrupt += states[i].corrupt
		for _, rec := range states[i].recs {
			l.applyLocked(rec)
		}
		if states[i].damaged {
			if err := l.replaceDamaged(filepath.Join(l.dir, surveysDir, names[i]), states[i].recs); err != nil {
				return err
			}
		}
	}
	return nil
}

// replaceDamaged swaps a file holding interior damage for one holding
// the live records of the survey that replayed from it. A crash in
// between loses the survey's checkpoints, which only lengthens the next
// catch-up scan.
func (l *Log) replaceDamaged(path string, replayed []*Record) error {
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("checkpoint: remove damaged %s: %w", path, err)
	}
	if len(replayed) == 0 {
		return blockio.SyncDir(filepath.Dir(path))
	}
	id := replayed[0].SurveyID
	if _, err := l.ensureFileLocked(id); err != nil {
		return err
	}
	return l.compactSurveyLocked(id)
}

// GetShard returns the survey's current checkpoint for one shard, or
// false if none. The caller must not mutate the record or its state
// (RestoreAccumulator copies out of it).
func (l *Log) GetShard(surveyID string, shard int) (*Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.recs[surveyID][shard]
	return rec, ok
}

// Get returns the survey's shard-0 checkpoint — the whole checkpoint in
// a single-shard deployment.
func (l *Log) Get(surveyID string) (*Record, bool) { return l.GetShard(surveyID, 0) }

// Records returns every live checkpoint record (no tombstones), in
// unspecified order. Callers must not mutate the records.
func (l *Log) Records() []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Record
	for _, shards := range l.recs {
		for _, rec := range shards {
			out = append(out, rec)
		}
	}
	return out
}

// Len returns the number of surveys holding at least one live
// checkpoint record.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// CorruptRecords returns how many unreadable records Open skipped —
// nonzero means a file was damaged and some shards may restart with a
// longer (or whole-backlog) catch-up scan.
func (l *Log) CorruptRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.corrupt
}

// ensureFileLocked lazily opens (creating if necessary) the survey's
// file for appending; Open already replayed its records. Caller holds
// mu.
func (l *Log) ensureFileLocked(surveyID string) (*surveyLog, error) {
	if sf, ok := l.files[surveyID]; ok {
		return sf, nil
	}
	path := filepath.Join(l.dir, surveysDir, surveyFileName(surveyID))
	lg, err := blockio.OpenLog(path, l.codec, func([]byte) error { return nil })
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	sf := &surveyLog{log: lg}
	l.files[surveyID] = sf
	return sf, nil
}

// Put durably appends a checkpoint record to its survey's file: by the
// time it returns nil, the record is written and fsynced. Superseded
// lines are rewritten away once they outnumber the live records enough.
func (l *Log) Put(rec *Record) error {
	if rec.SurveyID == "" || rec.State == nil {
		return errors.New("checkpoint: Put needs a survey ID and state")
	}
	if rec.Shard < 0 {
		return fmt.Errorf("checkpoint: Put with negative shard %d", rec.Shard)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(rec.SurveyID, rec); err != nil {
		return err
	}
	l.applyLocked(rec)
	return l.maybeCompactLocked(rec.SurveyID)
}

// Drop durably removes every shard checkpoint of a survey, file and
// all — the invalidation path a republish (or an admin accumulator
// clear) takes. Dropping an absent checkpoint is a no-op.
func (l *Log) Drop(surveyID string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.recs[surveyID]; !ok {
		return nil
	}
	delete(l.recs, surveyID)
	return l.removeFileLocked(surveyID)
}

// removeFileLocked closes and deletes a survey's file. Caller holds mu.
func (l *Log) removeFileLocked(surveyID string) error {
	if sf, ok := l.files[surveyID]; ok {
		delete(l.files, surveyID)
		_ = sf.log.Close() // the file is about to go
	}
	path := filepath.Join(l.dir, surveysDir, surveyFileName(surveyID))
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		l.err = fmt.Errorf("checkpoint: remove %s: %w", path, err)
		return l.err
	}
	return blockio.SyncDir(filepath.Join(l.dir, surveysDir))
}

// appendLocked writes one line to the survey's file, flushes and
// fsyncs. Caller holds mu.
func (l *Log) appendLocked(surveyID string, rec *Record) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("checkpoint: use after close")
	}
	sf, err := l.ensureFileLocked(surveyID)
	if err != nil {
		l.err = err
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal: %w", err)
	}
	err = sf.log.Append(b)
	if err == nil {
		err = sf.log.Flush()
	}
	if err == nil {
		err = sf.log.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("checkpoint: %w", err)
		return l.err
	}
	sf.appended++
	return nil
}

// maybeCompactLocked rewrites a survey's file when superseded lines
// dominate. The threshold (a handful of lines per live shard record,
// floor 8) keeps the rewrite amortized against the appends that earned
// it.
func (l *Log) maybeCompactLocked(surveyID string) error {
	sf, ok := l.files[surveyID]
	if !ok {
		return nil
	}
	threshold := 4 * (len(l.recs[surveyID]) + 1)
	if threshold < 8 {
		threshold = 8
	}
	if sf.appended < threshold {
		return nil
	}
	return l.compactSurveyLocked(surveyID)
}

// Compact rewrites every open survey file to exactly its live records.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id := range l.files {
		if err := l.compactSurveyLocked(id); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) compactSurveyLocked(surveyID string) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("checkpoint: use after close")
	}
	sf, ok := l.files[surveyID]
	if !ok {
		return nil
	}
	// The rewrite targets the log's CONFIGURED codec regardless of the
	// old file's format: compaction is the in-place migration step.
	err := sf.log.Rewrite(l.codec, func(nl *blockio.Log) error {
		for _, rec := range l.recs[surveyID] {
			b, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("marshal: %w", err)
			}
			if err := nl.Append(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		l.err = fmt.Errorf("checkpoint: %w", err)
		return l.err
	}
	sf.appended = 0
	return nil
}

// Close flushes and closes every open survey file. The log must not be
// used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	first := l.err
	for _, sf := range l.files {
		if err := sf.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	l.files = make(map[string]*surveyLog)
	return first
}
