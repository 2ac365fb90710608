// Package store provides the persistence layer of the Loki backend: a
// Store interface with two implementations, an in-memory store for tests
// and simulations, and File, an append-only record log (one blockio.Log,
// JSON lines or binary blocks) replayed into memory on open, for durable
// deployments (the Django database of the paper's prototype).
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
	// Responses returns all responses for a survey in append order; it
	// returns ErrNotFound for unknown surveys. It is a materializing
	// convenience wrapper over ScanResponses.
	Responses(surveyID string) ([]survey.Response, error)
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
// ScanResponses — the compatibility path for callers that still want a
// slice. Each response is a deep copy.
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
	history   map[string][]SurveyVersion
	closed    bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		surveys:   make(map[string]*survey.Survey),
		responses: make(map[string][]survey.Response),
		history:   make(map[string][]SurveyVersion),
	}
}

// recordVersionLocked appends a publish event to the survey's history
// unless the definition is unchanged (an idempotent republish is not a
// new version). Caller holds mu.
func (m *Mem) recordVersionLocked(s *survey.Survey, ts int64) {
	fp := s.Fingerprint()
	h := m.history[s.ID]
	if len(h) > 0 && h[len(h)-1].Fingerprint == fp {
		return
	}
	m.history[s.ID] = append(h, SurveyVersion{Fingerprint: fp, PublishedUnixNano: ts})
}

// setLastVersionTime overrides the newest history entry's timestamp —
// the hook a replaying durable store uses to restore logged publish
// times instead of replay times.
func (m *Mem) setLastVersionTime(surveyID string, ts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.history[surveyID]; len(h) > 0 {
		h[len(h)-1].PublishedUnixNano = ts
	}
}

// SurveyHistory implements Historian.
func (m *Mem) SurveyHistory(surveyID string) []SurveyVersion {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]SurveyVersion(nil), m.history[surveyID]...)
}

// PutSurvey implements Store.
func (m *Mem) PutSurvey(s *survey.Survey) error {
	if err := s.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("store: use after close")
	}
	if _, dup := m.surveys[s.ID]; dup {
		return fmt.Errorf("store: survey %q: %w", s.ID, ErrExists)
	}
	m.surveys[s.ID] = s.Clone()
	m.recordVersionLocked(s, time.Now().UnixNano())
	return nil
}

// ReplaceSurvey implements Store: an upsert that overwrites any existing
// definition. Stored responses are untouched.
func (m *Mem) ReplaceSurvey(s *survey.Survey) error {
	if err := s.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("store: use after close")
	}
	m.surveys[s.ID] = s.Clone()
	m.recordVersionLocked(s, time.Now().UnixNano())
	return nil
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
	for i := range rs {
		s, ok := m.surveys[rs[i].SurveyID]
		if !ok {
			return nil, fmt.Errorf("store: response for unknown survey %q: %w", rs[i].SurveyID, ErrNotFound)
		}
		if err := rs[i].Validate(s); err != nil {
			return nil, err
		}
	}
	counts := make([]int, len(rs))
	for i := range rs {
		m.responses[rs[i].SurveyID] = append(m.responses[rs[i].SurveyID], rs[i])
		counts[i] = len(m.responses[rs[i].SurveyID])
	}
	return counts, nil
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

// Responses implements Store as a wrapper over ScanResponses.
func (m *Mem) Responses(surveyID string) ([]survey.Response, error) {
	return CollectResponses(m, surveyID)
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
