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
// grows. A fold encodes only the tail: the new snapshot starts with the
// previous one's blocks, copied byte for byte, and only the records
// past them are encoded, from the append-only in-memory index.
//
// Every response is logged as one record, survey.Response's binary
// encoding (tag 0xB1, as store.File logs it), or, in a JSON-lines store,
// as a JSON object; replay tells the two apart by the first byte, so
// files written before records went binary (JSON payloads in binary
// blocks) still open, and are copied into later snapshots as they are.
// The change is forward-only: a binary from before it refuses, on the
// first 0xB1 record, to open a directory holding one.
//
// Durability guarantee: when AppendResponse, AppendResponses or
// PutSurvey returns nil, the record has been written and fsynced (and,
// for files just created, the directory entry synced). A crash at any
// point loses no acknowledged record; a torn trailing commit from an
// unacknowledged append is detected and truncated on reopen.
//
// Surveys are low-volume metadata and live in a JSON-lines log
// (meta.jsonl) synced on every publish.
//
// Layout of an ingest directory (format 2):
//
//	dir/
//	  layout.json         format marker and the shard label
//	  meta.jsonl          survey definitions
//	  wal-<seq>.seg       response segments (blockio binary blocks, or JSON lines)
//	  snap-<seq>.snap     snapshot covering segments <= seq (same codecs)
//
// Segments and snapshots are written in the configured codec (binary by
// default) but replayed by sniffing each file's magic, so a directory
// written under the other codec — or a mix — reopens in place and
// converts as new files are written. A format-1 directory (a shard-NNN/
// subdirectory of segments and a snapshot per hash partition) is read
// by the same replay code and folded into this layout on first open;
// see migrateLegacy.
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
	// Codec selects the encoding of new segments and snapshots:
	// blockio.CodecBinary (the default) writes compressed, checksummed,
	// block-indexed files of binary response records;
	// blockio.CodecJSON writes readable JSON lines. Replay autodetects
	// per file and per record, so the codec may change between opens of
	// the same directory.
	Codec string
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
	if c.Codec == "" {
		c.Codec = blockio.CodecBinary
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
	if !blockio.ValidCodec(c.Codec) {
		return fmt.Errorf("ingest: unknown codec %q", c.Codec)
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
	// history is each survey's publish-event log (definition
	// fingerprints with timestamps), rebuilt from the meta log on open.
	history map[string][]store.SurveyVersion
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
	// once the store is open. Each survey's history is append-only, so
	// a slice header read under the lock is a consistent snapshot.
	idxMu sync.RWMutex
	index map[string][]survey.Response

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
		history:     make(map[string][]store.SurveyVersion),
		index:       make(map[string][]survey.Response),
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
	s.snapSeq, s.snapBytes, s.snapCounts = st.snapSeq, st.snapBytes, st.snapCounts
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

// metaRecord is one meta-log line: the survey definition with the
// publish timestamp alongside. Logs written before the timestamp
// existed are plain survey JSON; they decode with a zero timestamp.
type metaRecord struct {
	survey.Survey
	PublishedUnixNano int64 `json:"published_unix_nano,omitempty"`
}

// openMeta replays the survey log (truncating a torn tail) and positions
// it for appends.
func (s *Sharded) openMeta() error {
	var err error
	s.meta, err = blockio.OpenLog(filepath.Join(s.dir, metaName), blockio.CodecJSON, func(line []byte) error {
		var rec metaRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("corrupt survey record: %w", err)
		}
		if rec.ID == "" {
			return errors.New("survey record without ID")
		}
		// Later records supersede earlier ones: a republish appends the
		// new definition and replay applies the log in order.
		sv := rec.Survey
		s.surveys[sv.ID] = &sv
		s.recordVersion(&sv, rec.PublishedUnixNano)
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
	return s.appendMeta(sv)
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
	return s.appendMeta(sv)
}

// recordVersion appends a publish event to the survey's history unless
// the definition is unchanged (an idempotent republish is not a new
// version). The caller holds mu (or is single-threaded replay).
func (s *Sharded) recordVersion(sv *survey.Survey, ts int64) {
	fp := sv.Fingerprint()
	h := s.history[sv.ID]
	if len(h) > 0 && h[len(h)-1].Fingerprint == fp {
		return
	}
	s.history[sv.ID] = append(h, store.SurveyVersion{Fingerprint: fp, PublishedUnixNano: ts})
}

// SurveyHistory implements store.Historian: publish events replayed
// from the meta log, with their logged timestamps.
func (s *Sharded) SurveyHistory(surveyID string) []store.SurveyVersion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]store.SurveyVersion(nil), s.history[surveyID]...)
}

// appendMeta durably appends one survey definition to meta.jsonl and
// publishes it to the index. The caller holds mu and has cleared the
// closed/metaErr gates.
func (s *Sharded) appendMeta(sv *survey.Survey) error {
	cp := *sv
	ts := time.Now().UnixNano()
	b, err := json.Marshal(&metaRecord{Survey: cp, PublishedUnixNano: ts})
	if err != nil {
		return fmt.Errorf("ingest: marshal survey: %w", err)
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
	s.surveys[cp.ID] = &cp
	s.recordVersion(&cp, ts)
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
		if req.recs, err = s.encodeResponse(req.recs, &rs[i]); err != nil {
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
// encoding (tag 0xB1), or, in a JSON-lines store, whose records are
// lines of text, its JSON object. It is the one place this package
// encodes a response; decodeResponse reads both.
func (s *Sharded) encodeResponse(b []byte, r *survey.Response) ([]byte, error) {
	if s.cfg.Codec == blockio.CodecJSON {
		j, err := json.Marshal(r)
		return append(b, j...), err
	}
	return r.AppendBinary(b)
}

// ScanResponses implements store.Store. Per-survey sequence numbers are
// positions in the survey's append-ordered history — stable across
// restarts because recovery replays snapshot + WAL tail in the original
// order. It streams without materializing a copy: the slice header
// captured under the read lock is a consistent snapshot the iteration
// walks lock-free (the committer only ever writes beyond the captured
// length).
func (s *Sharded) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	s.mu.RLock()
	_, ok := s.surveys[surveyID]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("ingest: survey %q: %w", surveyID, store.ErrNotFound)
	}
	s.idxMu.RLock()
	rs := s.index[surveyID]
	s.idxMu.RUnlock()
	return store.ScanSlice(rs, fromSeq, fn)
}

// Responses implements store.Store as a wrapper over ScanResponses.
func (s *Sharded) Responses(surveyID string) ([]survey.Response, error) {
	return store.CollectResponses(s, surveyID)
}

// ResponseCount implements store.Store.
func (s *Sharded) ResponseCount(surveyID string) int {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return len(s.index[surveyID])
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
