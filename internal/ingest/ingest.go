// Package ingest is the durable ingestion subsystem of the Loki backend:
// a store.Store implementation built for sustained concurrent response
// submission at platform scale.
//
// A store owns one segmented write-ahead log and one committer
// goroutine. Every concurrent AppendResponse caller, whatever its
// survey, coalesces into the same group commit — one buffered write,
// one fsync, one index publish, one round of replies — so the fsync
// cost amortizes across everyone waiting in the commit window. (Format 1
// gave each of N hash partitions its own log; on one filesystem N logs
// are N serialized journal commits, and throughput fell as N grew.)
// The committer's only maintenance duty is rotating a full segment. A
// background compactor folds the sealed segments into a snapshot and
// deletes them, so recovery replays one snapshot plus the WAL tail; it
// runs when the sealed tail reaches both CompactSegments × SegmentBytes
// and half the current snapshot's size, which bounds the lifetime
// rewrite volume at about three times the data however long the history
// grows. A fold encodes nothing: the new snapshot starts with the
// previous one's blocks, copied byte for byte, and the records past them
// are copied out of the in-memory index.
//
// That index holds each survey's history as the records it was logged
// as, laid end to end in one append-only byte arena per survey (see
// arena), not as decoded structs: about 80 bytes of heap per stored
// three-answer response where a survey.Response cost 280, and nothing
// in it the GC has to scan. A commit appends the bytes it just wrote to the WAL,
// replay appends the bytes it read once they decode, and a scan decodes
// each record into one reused survey.Response.
//
// Every response is logged as one record, survey.Response's binary
// encoding (tag 0xB1, as store.File logs it). Replay also reads a JSON
// object, told apart by the first byte, so files written before records
// went binary (JSON payloads in blocks, or JSON lines) still open; the
// JSON payloads of a block file are copied into later snapshots as they
// are. The change is forward-only: a binary from before it refuses, on
// the first 0xB1 record, to open a directory holding one.
//
// Durability guarantee: when AppendResponse, AppendResponses or
// PutSurvey returns nil, the record has been written and fsynced (and,
// for files just created, the directory entry synced). A crash at any
// point loses no acknowledged record; a torn trailing commit from an
// unacknowledged append is detected and truncated on reopen.
//
// Surveys are low-volume metadata and live in their own log (meta.jsonl:
// the name predates blocks, and a log's framing is sniffed, not named)
// synced on every publish. Each record is survey.SurveyRecord's binary
// encoding (tag 0xB4, as store.File logs it); replay also reads the
// JSON records of meta logs written before, and a binary from before
// refuses a meta log holding a 0xB4 record.
//
// Layout of an ingest directory (format 2):
//
//	dir/
//	  layout.json         format marker and the shard label
//	  meta.jsonl          survey definitions
//	  wal-<seq>.seg       response segments
//	  snap-<seq>.snap     snapshot covering segments <= seq
//
// Every file is written in blockio blocks (blockio.Log) but replayed by
// sniffing its magic, so a directory written in JSON lines — or a mix —
// reopens in place: the meta log converts on open, and the next fold
// copies JSON-lines segments and snapshots into a block snapshot. A
// format-1 directory (a shard-NNN/ subdirectory of segments and a
// snapshot per hash partition) is read by the same replay code and
// folded into this layout on first open; see migrateLegacy.
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/blockio"
	"loki/internal/store"
	"loki/internal/survey"
)

// Config tunes the ingest store. The zero value selects sane defaults
// via Open.
type Config struct {
	// Shards is a label kept for callers and directories that predate
	// the single log (default 8): it is validated, recorded in
	// layout.json at first open and must match on reopen, but every
	// value shares the one log and the one fsync stream.
	Shards int
	// CommitInterval is how long the committer waits for latecomers
	// after the first request of a batch (default 0). Zero commits as
	// soon as the committer is free: batching then arises naturally from
	// requests queueing while the previous fsync runs. A positive window
	// trades latency for fewer, larger commits.
	CommitInterval time.Duration
	// MaxBatch bounds how many appends one group commit gathers
	// (default 512); a commit may exceed it by one AppendResponses call.
	MaxBatch int
	// SegmentBytes is the rotation threshold for WAL segments (default
	// 16 MiB). A segment may exceed it by at most one commit batch.
	SegmentBytes int64
	// CompactSegments is how many segments' worth of sealed WAL
	// (CompactSegments × SegmentBytes) accumulate before the compactor
	// folds the sealed tail into a snapshot (default 4); the tail must
	// also have reached half the current snapshot's size.
	CompactSegments int
	// IdleCompact is how long the store may sit idle (no commits) before
	// the WAL tail — active segment included — is folded into a
	// snapshot. Without it, a store that goes quiet never compacts,
	// since ordinary compaction is only considered on segment rotation.
	// Default 1 minute; negative disables idle compaction.
	IdleCompact time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 512
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 16 << 20
	}
	if c.CompactSegments == 0 {
		c.CompactSegments = 4
	}
	if c.IdleCompact == 0 {
		c.IdleCompact = time.Minute
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Shards < 1 || c.Shards > 1024 {
		return fmt.Errorf("ingest: shard count %d outside [1, 1024]", c.Shards)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("ingest: max batch %d < 1", c.MaxBatch)
	}
	if c.SegmentBytes < 4096 {
		return fmt.Errorf("ingest: segment size %d < 4096", c.SegmentBytes)
	}
	if c.CompactSegments < 1 {
		return fmt.Errorf("ingest: compact threshold %d < 1", c.CompactSegments)
	}
	if c.CommitInterval < 0 {
		return fmt.Errorf("ingest: negative commit interval %v", c.CommitInterval)
	}
	return nil
}

// Sharded is the ingest store. (The name predates the single log; see
// Config.Shards.) It implements store.Store and store.BatchAppender, so
// the server, platform and public API can adopt it wherever a store.Mem
// or store.File is used today.
type Sharded struct {
	cfg Config
	dir string

	// mu guards the survey index and the meta log writer.
	mu      sync.RWMutex
	surveys map[string]*survey.Survey
	// history is each survey's publish-event log (definitions with
	// timestamps), rebuilt from the meta log on open.
	history store.History
	// meta is meta.jsonl. Its first I/O failure is sticky, like the
	// commit path's: after a failed write/fsync the buffered tail may
	// surface in a later flush, so retrying a publish could duplicate
	// the record on disk and poison the next replay.
	meta *blockio.Log

	reqCh chan *appendReq
	quit  chan struct{} // closed by Close: the committer drains reqCh and exits
	done  chan struct{} // closed when the committer has exited
	// compactCh hands the compactor its one outstanding job; the
	// compacting flag keeps the committer from offering a second.
	compactCh   chan compactJob
	compactDone chan struct{} // closed when the compactor has exited

	// idxMu guards index for readers; the committer is the only writer
	// once the store is open. Each survey's arena is append-only, so a
	// copy of it read under the lock is a consistent snapshot.
	idxMu sync.RWMutex
	index map[string]arena

	// Committer-owned state (no locking: single goroutine).
	seg      *blockio.Log
	segSeq   uint64 // active segment sequence number
	segBytes int64  // bytes appended to the active segment

	// logMu guards the WAL's shape, which the committer (rotation), the
	// compactor (folding) and the admin surface all touch.
	logMu       sync.Mutex
	sealed      []sealedSeg // closed segments no snapshot covers yet, oldest first
	sealedBytes int64
	snapSeq     uint64 // highest segment seq the current snapshot covers, 0 if none
	snapBytes   int64  // size of the current snapshot file
	// snapWeight is what the fold triggers weigh the WAL tail against:
	// snapBytes, or 0 for a snapshot imported in JSON lines, which the
	// next fold rewrites at a fraction of its size (see loadSnapshot).
	snapWeight int64
	// snapCounts is, per survey, how many records (the first of its
	// history) the current snapshot holds: where the next fold's tail
	// starts. Replaced on each fold, never modified.
	snapCounts  map[string]int
	compacting  bool
	lastCompact time.Time
	failed      error // sticky fatal I/O error: durability code must not guess at the disk after one

	// Counters for observability and benchmarks.
	appends         atomic.Int64 // responses durably committed
	commits         atomic.Int64 // group commits (== fsyncs on the append path)
	rotations       atomic.Int64
	snapshots       atomic.Int64
	idleCompactions atomic.Int64

	closed atomic.Bool
	// closeGate is read-held for the duration of every append; Close
	// write-acquires it after setting closed, which both waits out
	// in-flight appends and is safe against appends racing the close
	// (unlike a WaitGroup, whose Add may not race Wait at zero).
	closeGate sync.RWMutex
}

const (
	metaName   = "meta.jsonl"
	layoutName = "layout.json"
	// layoutFormat is the store-level layout this version writes: one
	// log in the store directory. Format 1 kept one log per shard-NNN/.
	layoutFormat = 2
)

// layout is the store's on-disk identity, published atomically (tmp +
// rename) before any log file exists. Rewriting it from format 1 to 2
// is the commit point of the legacy migration.
type layout struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

// Open recovers (or initialises) an ingest store rooted at dir,
// migrating a format-1 directory to the store-level layout first.
func Open(dir string, cfg Config) (*Sharded, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: mkdir %s: %w", dir, err)
	}
	s := &Sharded{
		cfg:         cfg,
		dir:         dir,
		surveys:     make(map[string]*survey.Survey),
		history:     make(store.History),
		index:       make(map[string]arena),
		reqCh:       make(chan *appendReq, cfg.MaxBatch), // a full commit's worth may queue behind the running fsync
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		compactCh:   make(chan compactJob, 1),
		compactDone: make(chan struct{}),
	}
	if err := s.prepareLayout(); err != nil {
		return nil, err
	}
	st, err := s.replayDir(dir)
	if err != nil {
		return nil, err
	}
	s.sealed, s.sealedBytes = st.sealed, st.sealedBytes
	s.snapSeq, s.snapBytes, s.snapWeight, s.snapCounts = st.snapSeq, st.snapBytes, st.snapWeight, st.snapCounts
	// Always start appends in a fresh segment: reopening a replayed tail
	// for append would complicate torn-tail truncation for no benefit.
	s.segSeq = st.nextSeq
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	if err := s.openMeta(); err != nil {
		s.seg.Close()
		return nil, err
	}
	go s.run()
	go s.compactor()
	return s, nil
}

// prepareLayout brings dir to the store-level layout: it publishes the
// marker on a fresh store, checks the shard label on an existing one,
// and runs (or finishes) the format-1 migration.
func (s *Sharded) prepareLayout() error {
	path := filepath.Join(s.dir, layoutName)
	var l layout
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if jerr := json.Unmarshal(b, &l); jerr != nil {
			return fmt.Errorf("ingest: corrupt %s: %w", path, jerr)
		}
		if l.Format != 1 && l.Format != layoutFormat {
			return fmt.Errorf("ingest: %s format %d not supported by this version", path, l.Format)
		}
		if l.Shards != s.cfg.Shards {
			return fmt.Errorf("ingest: %s holds %d shards, config wants %d (shard count is fixed at first open)",
				s.dir, l.Shards, s.cfg.Shards)
		}
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("ingest: read %s: %w", path, err)
	}
	legacy, err := legacyDirs(s.dir, s.cfg.Shards)
	if err != nil {
		return err
	}
	if l.Format != layoutFormat {
		if len(legacy) > 0 {
			if err := s.migrateLegacy(legacy); err != nil {
				return err
			}
		}
		b, err := json.Marshal(layout{Format: layoutFormat, Shards: s.cfg.Shards})
		if err != nil {
			return fmt.Errorf("ingest: marshal layout: %w", err)
		}
		if err := blockio.WriteFileAtomic(path, func(f *os.File) error {
			_, err := f.Write(append(b, '\n'))
			return err
		}); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	}
	// The marker says format 2, so any shard directory still here is a
	// finished migration's garbage. Idempotent: a crash part-way leaves
	// the rest for the next open.
	for _, d := range legacy {
		if err := os.RemoveAll(d); err != nil {
			return fmt.Errorf("ingest: remove migrated %s: %w", d, err)
		}
	}
	if len(legacy) == 0 {
		return nil
	}
	return blockio.SyncDir(s.dir)
}

// metaRecord is one meta-log record as meta logs written before survey
// records went binary hold it, in JSON: the survey definition with the
// publish timestamp alongside. Logs written before the timestamp
// existed are plain survey JSON; they decode with a zero timestamp.
type metaRecord struct {
	survey.Survey
	PublishedUnixNano int64 `json:"published_unix_nano,omitempty"`
}

// decodeMeta reads one meta-log record of either encoding, told apart by
// the first byte.
func decodeMeta(line []byte) (*survey.SurveyRecord, error) {
	rec := new(survey.SurveyRecord)
	if len(line) > 0 && line[0] == survey.SurveyBinaryTag {
		if err := rec.UnmarshalBinary(line); err != nil {
			return nil, fmt.Errorf("corrupt survey record: %w", err)
		}
		return rec, nil
	}
	var old metaRecord
	if err := json.Unmarshal(line, &old); err != nil {
		return nil, fmt.Errorf("corrupt survey record: %w", err)
	}
	rec.Survey, rec.UnixNano = old.Survey, old.PublishedUnixNano
	return rec, nil
}

// openMeta replays the survey log (truncating a torn tail, converting a
// JSON-lines log to blocks) and positions it for appends.
func (s *Sharded) openMeta() error {
	var err error
	s.meta, err = blockio.OpenLog(filepath.Join(s.dir, metaName), func(line []byte) error {
		rec, err := decodeMeta(line)
		if err != nil {
			return err
		}
		if rec.Survey.ID == "" {
			return errors.New("survey record without ID")
		}
		// Later records supersede earlier ones: a republish appends the
		// new definition and replay applies the log in order.
		s.publishLocked(&rec.Survey, rec.UnixNano)
		return nil
	})
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// PutSurvey implements store.Store. Surveys are immutable once
// published; the definition is fsynced before the call returns.
func (s *Sharded) PutSurvey(sv *survey.Survey) error {
	if err := sv.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errors.New("ingest: use after close")
	}
	if err := s.meta.Err(); err != nil {
		return err
	}
	if _, dup := s.surveys[sv.ID]; dup {
		return fmt.Errorf("ingest: survey %q: %w", sv.ID, store.ErrExists)
	}
	return s.appendMeta(sv, false)
}

// ReplaceSurvey implements store.Store: the republish path. The new
// definition is appended to the meta log (replay is last-wins per
// survey ID) and fsynced before it becomes visible.
func (s *Sharded) ReplaceSurvey(sv *survey.Survey) error {
	if err := sv.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errors.New("ingest: use after close")
	}
	if err := s.meta.Err(); err != nil {
		return err
	}
	return s.appendMeta(sv, true)
}

// publishLocked makes sv, which nothing may modify afterwards, the
// survey's definition and records the publish at ts in its history. The
// caller holds mu (or is single-threaded replay).
func (s *Sharded) publishLocked(sv *survey.Survey, ts int64) {
	s.surveys[sv.ID] = sv
	s.history.Record(sv, ts)
}

// SurveyHistory implements store.Historian: publish events replayed
// from the meta log, with their logged timestamps.
func (s *Sharded) SurveyHistory(surveyID string) []store.SurveyVersion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.history.Versions(surveyID)
}

// appendMeta durably appends one survey record to meta.jsonl and
// publishes the definition to the index. The caller holds mu and has
// cleared the closed/metaErr gates.
func (s *Sharded) appendMeta(sv *survey.Survey, republish bool) error {
	cp := sv.Clone()
	ts := time.Now().UnixNano()
	b, err := survey.AppendSurveyRecord(nil, &survey.SurveyRecord{Survey: *cp, Republish: republish, UnixNano: ts})
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	err = s.meta.Append(b)
	if err == nil {
		err = s.meta.Flush()
	}
	if err == nil {
		err = s.meta.Sync()
	}
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	s.publishLocked(cp, ts)
	return nil
}

// Survey implements store.Store. It returns a deep copy so callers
// cannot mutate the published definition through interior pointers.
func (s *Sharded) Survey(id string) (*survey.Survey, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sv, ok := s.surveys[id]
	if !ok {
		return nil, fmt.Errorf("ingest: survey %q: %w", id, store.ErrNotFound)
	}
	return sv.Clone(), nil
}

// Surveys implements store.Store (deep copies; see Survey).
func (s *Sharded) Surveys() ([]*survey.Survey, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*survey.Survey, 0, len(s.surveys))
	for _, sv := range s.surveys {
		out = append(out, sv.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// AppendResponse implements store.Store: a one-record AppendResponses.
func (s *Sharded) AppendResponse(r *survey.Response) error {
	_, err := s.AppendResponses([]survey.Response{*r})
	return err
}

// AppendResponses implements store.BatchAppender. Every response
// validates before any is queued, so a rejected batch leaves the log
// untouched; the batch then joins one group commit whole and the call
// blocks until that commit is durable. A commit is all or nothing, so
// on error no response of the batch was acknowledged and the returned
// prefix is empty.
func (s *Sharded) AppendResponses(rs []survey.Response) ([]int, error) {
	s.closeGate.RLock()
	defer s.closeGate.RUnlock()
	if s.closed.Load() {
		return nil, errors.New("ingest: use after close")
	}
	if len(rs) == 0 {
		return nil, nil
	}
	s.mu.RLock()
	for i := range rs {
		sv, ok := s.surveys[rs[i].SurveyID]
		if !ok {
			s.mu.RUnlock()
			return nil, fmt.Errorf("ingest: response for unknown survey %q: %w", rs[i].SurveyID, store.ErrNotFound)
		}
		if err := rs[i].Validate(sv); err != nil {
			s.mu.RUnlock()
			return nil, err
		}
	}
	s.mu.RUnlock()
	req := &appendReq{resps: rs, ends: make([]int, len(rs)), counts: make([]int, len(rs)), errc: make(chan error, 1)}
	// Sized for typical binary records, which the encoder then appends
	// without regrowing the buffer field by field.
	req.recs = make([]byte, 0, 96*len(rs))
	for i := range rs {
		var err error
		if req.recs, err = encodeResponse(req.recs, &rs[i]); err != nil {
			return nil, fmt.Errorf("ingest: encode response: %w", err)
		}
		req.ends[i] = len(req.recs)
	}
	s.reqCh <- req
	if err := <-req.errc; err != nil {
		return nil, err
	}
	return req.counts, nil
}

// encodeResponse appends r's record to b: survey.Response's binary
// encoding (tag 0xB1). It is the one place this package encodes a
// response; decodeResponse also reads the JSON records of older files.
func encodeResponse(b []byte, r *survey.Response) ([]byte, error) {
	return r.AppendBinary(b)
}

// arena is one survey's history: its response records, each as logged,
// laid end to end in recs, where record i ends at ends[i]. Neither slice
// holds a pointer, so the GC never scans a stored response. Both only
// grow, and a copy of the two headers is a consistent snapshot: later
// appends write past its lengths, into the same arrays or new ones.
type arena struct {
	recs []byte
	ends []int
}

func (a *arena) add(rec []byte) {
	a.recs = append(a.recs, rec...)
	a.ends = append(a.ends, len(a.recs))
}

// rec returns record i, counted from 0.
func (a *arena) rec(i int) []byte {
	start := 0
	if i > 0 {
		start = a.ends[i-1]
	}
	return a.recs[start:a.ends[i]]
}

// ScanResponses implements store.Store. Per-survey sequence numbers are
// positions in the survey's append-ordered history — stable across
// restarts because recovery replays snapshot + WAL tail in the original
// order. The arena copied under the read lock is a consistent snapshot
// the iteration walks lock-free, decoding every record into the one
// survey.Response it passes fn: fn must not keep it (see store.Store).
func (s *Sharded) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	s.mu.RLock()
	_, ok := s.surveys[surveyID]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("ingest: survey %q: %w", surveyID, store.ErrNotFound)
	}
	s.idxMu.RLock()
	a := s.index[surveyID]
	s.idxMu.RUnlock()
	r := scanScratch.Get().(*survey.Response)
	defer scanScratch.Put(r)
	r.SurveyID = surveyID // what every record spells, so decoding keeps it
	for i := fromSeq; i < uint64(len(a.ends)); i++ {
		if err := decodeResponse(a.rec(int(i)), r); err != nil {
			return fmt.Errorf("ingest: survey %q seq %d: %w", surveyID, i+1, err)
		}
		if err := fn(i+1, r); err != nil {
			return err
		}
	}
	return nil
}

// scanScratch holds the structs scans decode into. Most scans are a
// live aggregate catching up by a record or two, so a struct kept from
// an earlier scan saves them its allocation, its Answers array and the
// strings records share (question IDs, privacy levels).
var scanScratch = sync.Pool{New: func() any { return new(survey.Response) }}

// ResponseCount implements store.Store.
func (s *Sharded) ResponseCount(surveyID string) int {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return len(s.index[surveyID].ends)
}

// Close implements store.Store: it refuses new appends, waits for
// in-flight ones to commit, stops the committer and the compactor (a
// fold in flight is abandoned, not awaited) and closes the active
// segment — flushed and fsynced but deliberately NOT sealed, so the next
// open can keep treating it as a repairable tail.
func (s *Sharded) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// In-flight appenders hold closeGate read locks until their commit
	// is acknowledged; acquiring the write lock waits them out while the
	// committer is still running to serve them. Appenders arriving after
	// observe the closed flag and bail.
	s.closeGate.Lock()
	//lint:ignore SA2001 barrier, not a critical section — the empty lock/unlock pair waits out in-flight appenders
	s.closeGate.Unlock()
	close(s.quit)
	<-s.done
	close(s.compactCh) // the committer was the only sender
	<-s.compactDone
	first := s.failure()
	if s.seg != nil {
		err := s.seg.Close()
		s.seg = nil
		if err != nil && first == nil {
			first = fmt.Errorf("ingest: close segment %d: %w", s.segSeq, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.meta.Close(); first == nil {
		first = err
	}
	return first
}

// Stats reports cumulative ingest counters. The commit count equals the
// number of append-path fsyncs, so Appends/Commits is the achieved
// group-commit batch size.
type Stats struct {
	Appends   int64 `json:"appends"`
	Commits   int64 `json:"commits"`
	Rotations int64 `json:"rotations"`
	Snapshots int64 `json:"snapshots"`
}

// Stats returns current counters.
func (s *Sharded) Stats() Stats {
	return Stats{
		Appends:   s.appends.Load(),
		Commits:   s.commits.Load(),
		Rotations: s.rotations.Load(),
		Snapshots: s.snapshots.Load(),
	}
}

// ShardStats is one log's observability snapshot for the admin surface:
// WAL shape (sealed segment count, snapshot coverage), when it last
// compacted, and its cumulative counters.
type ShardStats struct {
	ID int `json:"id"`
	// SealedSegments is the number of rotated-but-uncompacted WAL
	// segments (the active segment is not counted).
	SealedSegments int `json:"sealed_segments"`
	// SnapshotSeq is the highest segment sequence the current snapshot
	// covers (0 when the log has never compacted).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// LastCompaction is when the log last folded segments into a
	// snapshot; zero if never.
	LastCompaction time.Time `json:"last_compaction,omitzero"`
	Appends        int64     `json:"appends"`
	Commits        int64     `json:"commits"`
	Rotations      int64     `json:"rotations"`
	Snapshots      int64     `json:"snapshots"`
	// IdleCompactions counts snapshots triggered by the idle timer
	// rather than by segment rotation.
	IdleCompactions int64 `json:"idle_compactions"`
}

// ShardStats reports one entry per log the store owns: always exactly
// one, ID 0.
func (s *Sharded) ShardStats() []ShardStats {
	st := s.Stats()
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return []ShardStats{{
		SealedSegments:  len(s.sealed),
		SnapshotSeq:     s.snapSeq,
		LastCompaction:  s.lastCompact,
		Appends:         st.Appends,
		Commits:         st.Commits,
		Rotations:       st.Rotations,
		Snapshots:       st.Snapshots,
		IdleCompactions: s.idleCompactions.Load(),
	}}
}

var (
	_ store.Store         = (*Sharded)(nil)
	_ store.BatchAppender = (*Sharded)(nil)
)
