// Package store provides the persistence layer of the Loki backend: a
// Store interface with two implementations, an in-memory store for tests
// and simulations, and File, an append-only record log (one blockio.Log
// of blocks) replayed into memory on open, for durable deployments (the
// Django database of the paper's prototype).
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"loki/internal/survey"
)

// ErrNotFound is returned when a requested survey does not exist.
var ErrNotFound = errors.New("store: not found")

// ErrExists is returned when publishing a survey whose ID is taken.
var ErrExists = errors.New("store: already exists")

// Store persists surveys and their responses. Implementations must be
// safe for concurrent use.
//
// Every stored response carries a per-survey sequence number: the first
// response appended to a survey has seq 1, the next seq 2, and so on,
// with no gaps. Sequence numbers are stable across restarts (durable
// stores replay in append order), which makes them usable as resumption
// cursors for incremental readers.
type Store interface {
	// PutSurvey stores a survey definition. Overwriting an existing ID
	// is an error: accidental redefinition would silently change how
	// stored responses are interpreted. Deliberate redefinition goes
	// through ReplaceSurvey.
	PutSurvey(s *survey.Survey) error
	// ReplaceSurvey stores a survey definition, overwriting any existing
	// definition with the same ID — the republish operation. Responses
	// already stored stay in the log (they were validated against the
	// definition current at append time) and are reinterpreted under the
	// new definition from here on; derived state folded under the old
	// definition (live aggregates, checkpoints) must be invalidated by
	// the caller, which is what definition fingerprints are for.
	ReplaceSurvey(s *survey.Survey) error
	// Survey returns the survey with the given ID or ErrNotFound. The
	// returned survey is the caller's copy: mutating it never affects
	// the stored definition.
	Survey(id string) (*survey.Survey, error)
	// Surveys returns all stored surveys sorted by ID, as caller-owned
	// copies (see Survey).
	Surveys() ([]*survey.Survey, error)
	// AppendResponse validates the response against its survey and
	// appends it, assigning the survey's next sequence number.
	AppendResponse(r *survey.Response) error
	// ScanResponses streams the survey's responses with sequence numbers
	// strictly greater than fromSeq, in ascending seq order, calling fn
	// for each. fromSeq 0 scans from the beginning; passing the last seq
	// a previous scan delivered resumes exactly after it. The scan
	// observes a consistent snapshot: responses appended concurrently
	// with the scan are delivered by a later scan, never this one. The
	// *Response passed to fn is lent, to avoid per-record copies: it may
	// alias store-internal state, or be one struct the store decodes the
	// next record into. fn must not modify it, nor keep it or anything
	// reachable from it (its Answers) after returning; a caller that
	// keeps a record keeps r.Clone(). A non-nil error from fn aborts the
	// scan and is returned verbatim. Unknown surveys return ErrNotFound.
	ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error
	// ResponseCount returns the number of stored responses for the
	// survey (0 for unknown surveys), i.e. its highest assigned seq.
	ResponseCount(surveyID string) int
	// Close releases resources. The store must not be used afterwards.
	Close() error
	BatchAppender
	Historian
}

// SurveyVersion is one entry in a survey's republish history: the
// definition fingerprint and when it was published. PublishedUnixNano
// is zero for records persisted before publish timestamps existed.
type SurveyVersion struct {
	Fingerprint       string `json:"fingerprint"`
	PublishedUnixNano int64  `json:"published_unix_nano,omitempty"`
}

// Historian is the part of a Store behind the admin surface's
// republish history: every definition fingerprint a survey has held,
// oldest first (the current definition last). Stores that replay a
// durable log reconstruct it from the log, so history survives
// restarts.
type Historian interface {
	SurveyHistory(surveyID string) []SurveyVersion
}

// History is the bookkeeping behind Historian that the stores share:
// each survey's publish events, oldest first, as the definitions
// themselves. Recording one compares it with the survey's current
// version (survey.Equal) and hashes nothing, so a replay of many
// publish records computes no fingerprint; Versions fingerprints on
// demand. The caller serialises access.
type History map[string][]published

// published is one version of a survey: its definition, which nothing
// modifies, and when it was published.
type published struct {
	def *survey.Survey
	at  int64
}

// Record appends a publish of def at at (Unix nanoseconds) unless def
// equals the survey's current version: an idempotent republish is not a
// new version. def must not be modified afterwards.
func (h History) Record(def *survey.Survey, at int64) {
	v := h[def.ID]
	if n := len(v); n > 0 && v[n-1].def.Equal(def) {
		return
	}
	h[def.ID] = append(v, published{def: def, at: at})
}

// Versions returns the survey's history as Historian reports it.
func (h History) Versions(surveyID string) []SurveyVersion {
	v := h[surveyID]
	if len(v) == 0 {
		return nil
	}
	out := make([]SurveyVersion, len(v))
	for i, p := range v {
		out[i] = SurveyVersion{Fingerprint: p.def.Fingerprint(), PublishedUnixNano: p.at}
	}
	return out
}

// BatchAppender is the part of a Store that appends several responses
// in one durability round: a file-backed store writes every
// record and fsyncs once, so the fsync cost amortizes across the batch
// — the store-level half of the cluster transport's group batching. On
// success the returned slice holds, per response, the survey's response
// count right after that append (its assigned sequence number). On
// error, the returned prefix covers the responses that were durably
// appended before the failure; the rest were not.
type BatchAppender interface {
	AppendResponses(rs []survey.Response) ([]int, error)
}

// CollectResponses materializes a survey's full response history through
// ScanResponses, in append order, for callers that want a slice; it
// returns ErrNotFound for unknown surveys. Each response is a deep copy.
func CollectResponses(st Store, surveyID string) ([]survey.Response, error) {
	out := make([]survey.Response, 0, st.ResponseCount(surveyID))
	err := st.ScanResponses(surveyID, 0, func(_ uint64, r *survey.Response) error {
		out = append(out, r.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Mem is an in-memory Store. The zero value is not usable; call NewMem.
type Mem struct {
	mu        sync.RWMutex
	surveys   map[string]*survey.Survey
	responses map[string][]survey.Response
	history   History
	closed    bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		surveys:   make(map[string]*survey.Survey),
		responses: make(map[string][]survey.Response),
		history:   make(History),
	}
}

// setLastVersionTime overrides the newest history entry's timestamp —
// the hook a replaying durable store uses to restore logged publish
// times.
func (m *Mem) setLastVersionTime(surveyID string, ts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.history[surveyID]; len(h) > 0 {
		h[len(h)-1].at = ts
	}
}

// SurveyHistory implements Historian.
func (m *Mem) SurveyHistory(surveyID string) []SurveyVersion {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.history.Versions(surveyID)
}

// has reports whether a survey with the given ID is stored.
func (m *Mem) has(id string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.surveys[id]
	return ok
}

// publish validates s and makes it the survey's definition, published
// at at (Unix nanoseconds). s is handed over: the caller must not
// modify it afterwards. Without replace an existing ID is ErrExists.
func (m *Mem) publish(s *survey.Survey, replace bool, at int64) error {
	if err := s.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("store: use after close")
	}
	if _, dup := m.surveys[s.ID]; dup && !replace {
		return fmt.Errorf("store: survey %q: %w", s.ID, ErrExists)
	}
	m.surveys[s.ID] = s
	m.history.Record(s, at)
	return nil
}

// PutSurvey implements Store.
func (m *Mem) PutSurvey(s *survey.Survey) error {
	return m.publish(s.Clone(), false, time.Now().UnixNano())
}

// ReplaceSurvey implements Store: an upsert that overwrites any existing
// definition. Stored responses are untouched.
func (m *Mem) ReplaceSurvey(s *survey.Survey) error {
	return m.publish(s.Clone(), true, time.Now().UnixNano())
}

// Survey implements Store. It returns a deep copy: handing out interior
// pointers would let callers mutate the "immutable" published
// definition through the shared Questions slice (the same
// copy-on-write discipline PutSurvey follows on the way in).
func (m *Mem) Survey(id string) (*survey.Survey, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.surveys[id]
	if !ok {
		return nil, fmt.Errorf("store: survey %q: %w", id, ErrNotFound)
	}
	return s.Clone(), nil
}

// Surveys implements Store (deep copies; see Survey).
func (m *Mem) Surveys() ([]*survey.Survey, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*survey.Survey, 0, len(m.surveys))
	for _, s := range m.surveys {
		out = append(out, s.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// AppendResponse implements Store.
func (m *Mem) AppendResponse(r *survey.Response) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("store: use after close")
	}
	s, ok := m.surveys[r.SurveyID]
	if !ok {
		return fmt.Errorf("store: response for unknown survey %q: %w", r.SurveyID, ErrNotFound)
	}
	if err := r.Validate(s); err != nil {
		return err
	}
	m.responses[r.SurveyID] = append(m.responses[r.SurveyID], *r)
	return nil
}

// AppendResponses implements BatchAppender: every response validates
// before any is applied, so a rejected batch changes nothing.
func (m *Mem) AppendResponses(rs []survey.Response) ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("store: use after close")
	}
	if err := m.checkLocked(rs); err != nil {
		return nil, err
	}
	return m.appendLocked(rs), nil
}

// checkLocked validates every response against the definition held for
// its survey, without copying any. The caller holds mu.
func (m *Mem) checkLocked(rs []survey.Response) error {
	for i := range rs {
		s, ok := m.surveys[rs[i].SurveyID]
		if !ok {
			return fmt.Errorf("store: response for unknown survey %q: %w", rs[i].SurveyID, ErrNotFound)
		}
		if err := rs[i].Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// appendLocked appends responses checkLocked passed and returns each
// one's sequence number. The caller holds mu for writing.
func (m *Mem) appendLocked(rs []survey.Response) []int {
	counts := make([]int, len(rs))
	for i := range rs {
		m.responses[rs[i].SurveyID] = append(m.responses[rs[i].SurveyID], rs[i])
		counts[i] = len(m.responses[rs[i].SurveyID])
	}
	return counts
}

// ScanResponses implements Store. The response history is an
// append-only slice, so the snapshot is just the slice header captured
// under the read lock, and the iteration runs unlocked: growth writes
// beyond the captured length, never inside it.
func (m *Mem) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	m.mu.RLock()
	if _, ok := m.surveys[surveyID]; !ok {
		m.mu.RUnlock()
		return fmt.Errorf("store: survey %q: %w", surveyID, ErrNotFound)
	}
	rs := m.responses[surveyID]
	m.mu.RUnlock()
	for i := fromSeq; i < uint64(len(rs)); i++ {
		if err := fn(i+1, &rs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ResponseCount implements Store.
func (m *Mem) ResponseCount(surveyID string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.responses[surveyID])
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

var _ Store = (*Mem)(nil)
