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
// with fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation
	// survives a machine crash. This is the default.
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes and fsyncs on a timer: a crash can lose at
	// most the last interval's worth of acknowledged mutations. Use for
	// throughput when bounded loss is acceptable.
	SyncInterval
	// SyncNever flushes to the OS on every append but never fsyncs
	// (except on Close): a process crash loses nothing, a machine crash
	// may lose anything the kernel had not written back.
	SyncNever
)

// FileOptions tune a file-backed store.
type FileOptions struct {
	// Sync is the durability policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the flush period for SyncInterval (default 100ms).
	Interval time.Duration
	// Codec is the encoding for a log created by this open:
	// blockio.CodecJSON (the default here — readable lines, every record
	// a JSON object) or blockio.CodecBinary (checksummed blockio blocks
	// whose response records are survey.Response's binary encoding and
	// whose survey records are JSON; what the server configures). An
	// EXISTING log keeps its own format regardless: the codec is sniffed
	// from the file's magic on open, so appends never mix framings within
	// one file. A binary log written before response records went binary
	// holds JSON response payloads; replay reads either, per record.
	Codec string
}

// File is a durable Store backed by one blockio.Log: readable JSON
// lines (this package's default) or checksummed blockio blocks
// (FileOptions.Codec; what the server configures). Every mutation is one
// record; opening the store replays the log into an in-memory index.
// Torn-tail repair, the file's codec and the sticky first I/O failure
// are the Log's (see blockio.Log); the fsync schedule is this type's.
//
// Durability: under the default SyncAlways policy every acknowledged
// mutation has been fsynced before PutSurvey/AppendResponse returns. See
// SyncPolicy for the weaker modes.
type File struct {
	mu  sync.Mutex
	mem *Mem
	// log holds the records and the first append-path or background
	// flush/fsync failure; once that is set, every subsequent append and
	// Close reports it.
	log    *blockio.Log
	enc    []byte // binary response record scratch
	opts   FileOptions
	closed bool          // refuses mutations after Close
	stop   chan struct{} // stops the SyncInterval flusher
	done   chan struct{}
}

// record is one JSON log entry: every record of a JSON-lines log, and
// the survey and republish records of a binary one (whose response
// records are survey.Response.AppendBinary payloads instead, told apart
// at replay by their first byte). Exactly one payload field is set. A
// "republish" record carries a survey definition that overwrites the one
// currently in effect; replay applies records in order, so responses
// logged before a republish replay against the definition they were
// validated under.
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
// replays its log. Appends are fsynced before they are acknowledged
// (SyncAlways); use OpenFileWith to relax that.
func OpenFile(path string) (*File, error) {
	return OpenFileWith(path, FileOptions{Sync: SyncAlways})
}

// OpenFileWith opens a file-backed store with an explicit durability
// policy.
func OpenFileWith(path string, opts FileOptions) (*File, error) {
	switch opts.Sync {
	case SyncAlways, SyncInterval, SyncNever:
	default:
		return nil, fmt.Errorf("store: unknown sync policy %d", int(opts.Sync))
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if opts.Codec == "" {
		opts.Codec = blockio.CodecJSON
	}
	fs := &File{mem: NewMem(), opts: opts}
	// Replay complete records into the memory index; a corrupt or
	// malformed one refuses the open rather than silently dropping data.
	var err error
	if fs.log, err = blockio.OpenLog(path, opts.Codec, fs.applyRecord); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if opts.Sync == SyncInterval {
		fs.stop = make(chan struct{})
		fs.done = make(chan struct{})
		go fs.flushLoop(fs.stop, fs.done)
	}
	return fs, nil
}

// flushLoop periodically flushes and fsyncs under SyncInterval. The
// channels are passed in because Close nils the fields while the loop
// runs.
func (fs *File) flushLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(fs.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Flush under the lock, but fsync outside it: a slow fsync
			// must not stall appenders (it still bounds loss to one
			// interval, since everything flushed so far is in the page
			// cache the fsync covers).
			fs.mu.Lock()
			if fs.closed {
				fs.mu.Unlock()
				continue
			}
			err := fs.log.Flush()
			fs.mu.Unlock()
			if err == nil {
				_ = fs.log.Sync() // a failure is sticky in the log: the next append reports it
			}
		case <-stop:
			return
		}
	}
}

// applyRecord replays one complete record into the memory index: a
// binary response payload, or a JSON record of any kind (which is all a
// JSON-lines log holds, and what a binary log written before response
// records went binary holds too). Corrupt or malformed records refuse
// the open rather than silently dropping data.
func (fs *File) applyRecord(line []byte) error {
	if len(line) > 0 && line[0] == survey.ResponseBinaryTag {
		var r survey.Response
		if err := r.UnmarshalBinary(line); err != nil {
			return fmt.Errorf("corrupt record: %w", err)
		}
		return fs.mem.AppendResponse(&r)
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("corrupt record: %w", err)
	}
	switch rec.Kind {
	case "survey":
		if rec.Survey == nil {
			return errors.New("survey record without payload")
		}
		if err := fs.mem.PutSurvey(rec.Survey); err != nil {
			return err
		}
		fs.mem.setLastVersionTime(rec.Survey.ID, rec.LoggedUnixNano)
		return nil
	case "republish":
		if rec.Survey == nil {
			return errors.New("republish record without payload")
		}
		if err := fs.mem.ReplaceSurvey(rec.Survey); err != nil {
			return err
		}
		fs.mem.setLastVersionTime(rec.Survey.ID, rec.LoggedUnixNano)
		return nil
	case "response":
		if rec.Response == nil {
			return errors.New("response record without payload")
		}
		return fs.mem.AppendResponse(rec.Response)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
}

// writeResponse buffers one response record: its binary encoding under
// the binary codec, a JSON line otherwise.
func (fs *File) writeResponse(r *survey.Response) error {
	if fs.log.Codec() != blockio.CodecBinary {
		b, err := json.Marshal(&record{Kind: "response", Response: r})
		if err != nil {
			return fmt.Errorf("marshal: %w", err)
		}
		return fs.log.Append(b)
	}
	fs.enc, _ = r.AppendBinary(fs.enc[:0]) // cannot fail
	return fs.log.Append(fs.enc)
}

// commit runs write, which buffers one mutation's records, and makes
// them as durable as the sync policy promises: flushed to the OS always,
// fsynced under SyncAlways (SyncInterval leaves the fsync to the flusher
// goroutine). Any failure poisons the store: the on-disk tail is no
// longer knowable (replay truncates whatever is torn).
func (fs *File) commit(write func() error) error {
	err := write()
	if err == nil {
		err = fs.log.Flush()
	}
	if err == nil && fs.opts.Sync == SyncAlways {
		err = fs.log.Sync()
	}
	if err != nil {
		// Whatever failed, an encode included, part of the mutation may
		// sit in the log's buffer unacknowledged.
		return fs.log.Fail(fmt.Errorf("store: %w", err))
	}
	return nil
}

// appendSurvey logs one survey or republish record durably. Those stay
// JSON under both codecs: a definition is rare, and readable.
func (fs *File) appendSurvey(kind string, s *survey.Survey) error {
	b, err := json.Marshal(&record{Kind: kind, Survey: s, LoggedUnixNano: time.Now().UnixNano()})
	if err != nil {
		return fmt.Errorf("store: marshal: %w", err)
	}
	return fs.commit(func() error { return fs.log.Append(b) })
}

// PutSurvey implements Store: validate, make the record durable, then
// publish it to the memory index. Log-before-index means a failed disk
// append never leaves a phantom record visible to reads.
func (fs *File) PutSurvey(s *survey.Survey) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return errors.New("store: use after close")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if _, err := fs.mem.Survey(s.ID); err == nil {
		return fmt.Errorf("store: survey %q: %w", s.ID, ErrExists)
	}
	if err := fs.appendSurvey("survey", s); err != nil {
		return err
	}
	return fs.mem.PutSurvey(s)
}

// ReplaceSurvey implements Store: the new definition is logged as a
// "republish" record (durable before visible, like every mutation) and
// then overwrites the memory index. Earlier records are untouched, so
// replay still validates old responses against the definition they were
// appended under.
func (fs *File) ReplaceSurvey(s *survey.Survey) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return errors.New("store: use after close")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if err := fs.appendSurvey("republish", s); err != nil {
		return err
	}
	return fs.mem.ReplaceSurvey(s)
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

// AppendResponse implements Store: validate, make the record durable,
// then publish it to the memory index (see PutSurvey).
func (fs *File) AppendResponse(r *survey.Response) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return errors.New("store: use after close")
	}
	s, err := fs.mem.Survey(r.SurveyID)
	if err != nil {
		return err
	}
	if err := r.Validate(s); err != nil {
		return err
	}
	if err := fs.commit(func() error { return fs.writeResponse(r) }); err != nil {
		return err
	}
	return fs.mem.AppendResponse(r)
}

// AppendResponses implements BatchAppender: one buffered write per
// record, one flush, one fsync for the whole batch — the fsync
// amortization that makes batched ingestion worth routing. Validation
// runs for every record before any byte is written, so a rejected batch
// leaves the log untouched.
func (fs *File) AppendResponses(rs []survey.Response) ([]int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, errors.New("store: use after close")
	}
	if err := fs.log.Err(); err != nil {
		return nil, err
	}
	for i := range rs {
		s, err := fs.mem.Survey(rs[i].SurveyID)
		if err != nil {
			return nil, err
		}
		if err := rs[i].Validate(s); err != nil {
			return nil, err
		}
	}
	err := fs.commit(func() error {
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
	counts := make([]int, len(rs))
	for i := range rs {
		if err := fs.mem.AppendResponse(&rs[i]); err != nil {
			return counts[:i], err
		}
		counts[i] = fs.mem.ResponseCount(rs[i].SurveyID)
	}
	return counts, nil
}

// ScanResponses implements Store, serving from the replayed memory
// index (sequence numbers are stable across restarts because replay
// preserves append order).
func (fs *File) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	return fs.mem.ScanResponses(surveyID, fromSeq, fn)
}

// Responses implements Store.
func (fs *File) Responses(surveyID string) ([]survey.Response, error) {
	return fs.mem.Responses(surveyID)
}

// ResponseCount implements Store.
func (fs *File) ResponseCount(surveyID string) int { return fs.mem.ResponseCount(surveyID) }

// Close flushes, fsyncs and closes the log file.
func (fs *File) Close() error {
	fs.mu.Lock()
	stop, done := fs.stop, fs.done
	fs.stop, fs.done = nil, nil
	fs.mu.Unlock()
	if stop != nil {
		close(stop) // must not hold mu: the flusher needs it to exit
		<-done
	}
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
