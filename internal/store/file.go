package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// SyncPolicy selects when the file store makes appended records durable
// with fsync. SyncAlways is the only policy: the type stays because the
// benchmark module compiles against FileOptions.Sync, and goes with that
// field.
type SyncPolicy int

// SyncAlways fsyncs after every append: an acknowledged mutation
// survives a machine crash.
const SyncAlways SyncPolicy = 0

// FileOptions tune a file-backed store. Both fields are compile shims
// for the benchmark module, which sets them; its next change drops them
// and this type with them.
type FileOptions struct {
	// Sync must be SyncAlways.
	Sync SyncPolicy
	// Codec must be "" or blockio.CodecBinary: a File writes blockio
	// blocks only, and any other value (the retired "json" among them)
	// is refused.
	Codec string
}

// File is a durable Store backed by one blockio.Log of blocks: survey
// and republish records are survey.SurveyRecord's binary encoding (tag
// 0xB4), response records survey.Response's (tag 0xB1), told apart per
// record on replay by the first byte, as are the JSON records of logs
// written before either went binary.
// Every mutation is one record; opening the store replays the log into
// an in-memory index. A JSON-lines log written before blocks (every
// record a JSON object) is converted by the open. Torn-tail repair, the
// conversion and the sticky first I/O failure are the Log's (see
// blockio.Log); the fsync schedule is this type's.
//
// Durability: every acknowledged mutation has been fsynced before
// Publish/AppendResponse returns.
type File struct {
	mu  sync.Mutex
	mem *Mem
	// log holds the records and the first append-path flush/fsync
	// failure; once that is set, every subsequent append and Close
	// reports it.
	log    *blockio.Log
	enc    []byte // record encoding scratch
	closed bool   // refuses mutations after Close
}

// record is one JSON log entry, as logs written before survey records
// went binary hold them: survey and republish records (and, in a log
// written before response records went binary, response records too).
// No File writes one. Exactly one payload field is set. A "republish"
// record carries a survey definition that overwrites the one currently
// in effect; replay applies records in order, so responses logged
// before a republish replay against the definition they were validated
// under.
type record struct {
	Kind     string           `json:"kind"` // "survey" | "republish" | "response"
	Survey   *survey.Survey   `json:"survey,omitempty"`
	Response *survey.Response `json:"response,omitempty"`
	// LoggedUnixNano is when the record was appended; survey records use
	// it to restore publish timestamps in the republish history on
	// replay. Zero in logs written before it existed.
	LoggedUnixNano int64 `json:"logged_unix_nano,omitempty"`
}

// OpenFile opens (creating if necessary) a file-backed store at path and
// replays its log. Appends are fsynced before they are acknowledged.
func OpenFile(path string) (*File, error) {
	return OpenFileWith(path, FileOptions{})
}

// OpenFileWith is OpenFile for callers that still pass FileOptions.
func OpenFileWith(path string, opts FileOptions) (*File, error) {
	if opts.Sync != SyncAlways {
		return nil, fmt.Errorf("store: unknown sync policy %d", int(opts.Sync))
	}
	if opts.Codec != "" && opts.Codec != blockio.CodecBinary {
		return nil, fmt.Errorf("store: codec %q: a file store writes blockio blocks only (the json codec is retired)", opts.Codec)
	}
	fs := &File{mem: NewMem()}
	// Replay complete records into the memory index; a corrupt or
	// malformed one refuses the open rather than silently dropping data.
	var err error
	if fs.log, err = blockio.OpenLog(path, fs.applyRecord); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return fs, nil
}

// applyRecord replays one complete record into the memory index: a
// binary response or survey record, or a JSON record of any kind (which
// is all a JSON-lines log holds, and what a log written before records
// went binary holds too). Corrupt or malformed records refuse the open
// rather than silently dropping data.
func (fs *File) applyRecord(line []byte) error {
	if len(line) > 0 {
		switch line[0] {
		case survey.ResponseBinaryTag:
			var r survey.Response
			if err := r.UnmarshalBinary(line); err != nil {
				return fmt.Errorf("corrupt record: %w", err)
			}
			return fs.mem.AppendResponse(&r)
		case survey.SurveyBinaryTag:
			rec := new(survey.SurveyRecord)
			if err := rec.UnmarshalBinary(line); err != nil {
				return fmt.Errorf("corrupt record: %w", err)
			}
			return fs.replayPublish(&rec.Survey, rec.UnixNano)
		}
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("corrupt record: %w", err)
	}
	switch rec.Kind {
	case "survey", "republish":
		if rec.Survey == nil {
			return fmt.Errorf("%s record without payload", rec.Kind)
		}
		return fs.replayPublish(rec.Survey, rec.LoggedUnixNano)
	case "response":
		if rec.Response == nil {
			return errors.New("response record without payload")
		}
		return fs.mem.AppendResponse(rec.Response)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
}

// replayPublish applies one survey or republish record logged at at
// the way a live publish applies it, so the history a log replays to is
// the one it was written with: a record that repeats the definition in
// effect (which logs from before publishing was one verb can hold) is
// no new version, and the version it repeats keeps its first time.
// Replay is single-threaded: no lock is needed.
func (fs *File) replayPublish(sv *survey.Survey, at int64) error {
	o, err := Decide(fs.mem.surveys[sv.ID], sv)
	if o != Unchanged {
		fs.mem.putLocked(sv, at)
	}
	return err
}

// writeResponse buffers one response record: its binary encoding.
func (fs *File) writeResponse(r *survey.Response) error {
	fs.enc, _ = r.AppendBinary(fs.enc[:0]) // cannot fail
	return fs.log.Append(fs.enc)
}

// commit runs write, which buffers one mutation's records, and makes
// them durable: flushed, then fsynced. Any failure poisons the store:
// the on-disk tail is no longer knowable (replay truncates whatever is
// torn).
func (fs *File) commit(write func() error) error {
	err := write()
	if err == nil {
		err = fs.log.Flush()
	}
	if err == nil {
		err = fs.log.Sync()
	}
	if err != nil {
		// Whatever failed, an encode included, part of the mutation may
		// sit in the log's buffer unacknowledged.
		return fs.log.Fail(fmt.Errorf("store: %w", err))
	}
	return nil
}

// Publish implements Store. A new definition is logged durably as a
// survey record (a republish one when it replaces) and then published
// to the memory index, with the logged time as its publish time.
// Log-before-index means a failed disk append never leaves a phantom
// record visible to reads. Earlier records are untouched, so replay
// still validates old responses against the definition they were
// appended under. An equal definition writes nothing.
func (fs *File) Publish(s *survey.Survey) (Outcome, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return Unchanged, errors.New("store: use after close")
	}
	// fs.mu serializes every mutation of the index, so the held
	// definition cannot change between this read and the put below.
	fs.mem.mu.RLock()
	o, err := Decide(fs.mem.surveys[s.ID], s)
	fs.mem.mu.RUnlock()
	if o == Unchanged {
		return o, err
	}
	sv := s.Clone()
	at := time.Now().UnixNano()
	b, err := survey.AppendSurveyRecord(fs.enc[:0], &survey.SurveyRecord{Survey: *sv, Republish: o == Replaced, UnixNano: at})
	if err != nil {
		return Unchanged, fmt.Errorf("store: %w", err)
	}
	fs.enc = b
	if err := fs.commit(func() error { return fs.log.Append(b) }); err != nil {
		return Unchanged, err
	}
	fs.mem.mu.Lock()
	fs.mem.putLocked(sv, at)
	fs.mem.mu.Unlock()
	return o, nil
}

// PutSurvey is Publish without the outcome: a compile shim for the
// benchmark module, which calls it, and goes with that module's next
// change. Nothing else may call it.
func (fs *File) PutSurvey(s *survey.Survey) error {
	_, err := fs.Publish(s)
	return err
}

// Survey implements Store.
func (fs *File) Survey(id string) (*survey.Survey, error) { return fs.mem.Survey(id) }

// SurveyHistory implements Historian: publish events replayed from the
// log, with their logged timestamps.
func (fs *File) SurveyHistory(surveyID string) []SurveyVersion {
	return fs.mem.SurveyHistory(surveyID)
}

// Surveys implements Store.
func (fs *File) Surveys() ([]*survey.Survey, error) { return fs.mem.Surveys() }

// AppendResponse implements Store: a one-record AppendResponses.
func (fs *File) AppendResponse(r *survey.Response) error {
	_, err := fs.AppendResponses([]survey.Response{*r})
	return err
}

// AppendResponses implements BatchAppender: one buffered write per
// record, one flush, one fsync for the whole batch — the fsync
// amortization that makes batched ingestion worth routing. Every record
// is validated against the definition the memory index holds before any
// byte is written, so a rejected batch leaves the log untouched; fs.mu
// keeps that definition in effect until the records are indexed.
func (fs *File) AppendResponses(rs []survey.Response) ([]int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, errors.New("store: use after close")
	}
	if err := fs.log.Err(); err != nil {
		return nil, err
	}
	fs.mem.mu.RLock()
	err := fs.mem.checkLocked(rs)
	fs.mem.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	err = fs.commit(func() error {
		for i := range rs {
			if err := fs.writeResponse(&rs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err // nothing appended: the store is poisoned
	}
	fs.mem.mu.Lock()
	defer fs.mem.mu.Unlock()
	return fs.mem.appendLocked(rs), nil
}

// ScanResponses implements Store, serving from the replayed memory
// index (sequence numbers are stable across restarts because replay
// preserves append order).
func (fs *File) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	return fs.mem.ScanResponses(surveyID, fromSeq, fn)
}

// ResponseCount implements Store.
func (fs *File) ResponseCount(surveyID string) int { return fs.mem.ResponseCount(surveyID) }

// Close flushes, fsyncs and closes the log file.
func (fs *File) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	err := fs.log.Close()
	if mErr := fs.mem.Close(); err == nil {
		err = mErr
	}
	return err
}

var _ Store = (*File)(nil)
