// The read path: per-shard partials folded locally or fetched from the
// nodes that own them, merged and finalized at query time.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"loki/internal/aggregate"
	"loki/internal/shardrpc"
	"loki/internal/survey"
)

// readLabels are the shards a merged read could not take current from
// their primaries: degraded ones (unreachable, merged around or from
// their last fetched state) and stale ones (last validated by a
// replica). Both are nil on a healthy read and on every read of a
// server that folds its own shards.
type readLabels struct {
	degraded, stale []int
}

// readShape names one read endpoint's body: /aggregate or /quality.
type readShape int

const (
	aggregateShape readShape = iota
	qualityShape
	numReadShapes
)

// render is the one rendering of a read body: the shape's wire value for
// the survey's finalized estimate and the read's labels, as writeJSON
// would send it. An estimate JSON cannot carry (an infinite variance) is
// an error, which the read answers with a 500. The local read path calls
// it on every read; a frontend memoizes its successful output per cache
// entry (cachedSurvey.bodyLocked).
func (sh readShape) render(sv *survey.Survey, fin *aggregate.SurveyEstimate, labels readLabels) ([]byte, error) {
	if sh == qualityShape {
		return encodeJSON(QualityResult{
			SurveyID:             sv.ID,
			Total:                fin.Quality.Total,
			Consistent:           fin.Quality.Consistent,
			Inconsistent:         fin.Quality.Inconsistent,
			PerLevelInconsistent: append([]int(nil), fin.Quality.PerLevelInconsistent[:]...),
			DegradedShards:       labels.degraded,
			StaleShards:          labels.stale,
		})
	}
	return encodeJSON(aggregateResult(sv, fin.Questions, fin.Choices, labels))
}

// aggregateResult is the one place an AggregateResult is built: the
// estimates in the survey's question order, with the read's labels.
func aggregateResult(sv *survey.Survey, qs map[string]*aggregate.QuestionEstimate, cs map[string]*aggregate.ChoiceEstimate, labels readLabels) *AggregateResult {
	out := &AggregateResult{SurveyID: sv.ID, DegradedShards: labels.degraded, StaleShards: labels.stale}
	for i := range sv.Questions {
		if qe, ok := qs[sv.Questions[i].ID]; ok {
			out.Questions = append(out.Questions, *qe)
		}
		if ce, ok := cs[sv.Questions[i].ID]; ok {
			out.Choices = append(out.Choices, *ce)
		}
	}
	return out
}

// serveRead is the shared read path of /aggregate and /quality: resolve
// the survey, then answer with the shape's body. A server that folds its
// own shards refreshes its per-shard partials (scan only the responses
// each shard appended since the last read — usually none — fold, Merge,
// finalize) and renders; a frontend answers from its partial cache,
// which renders once per revalidation. Cost is independent of how many
// responses the store holds.
func (s *Server) serveRead(w http.ResponseWriter, id string, shape readShape) {
	sv, err := s.router.Survey(id)
	if err != nil {
		s.writeRefusal(w, surveyRefusal(err))
		return
	}
	var body []byte
	if s.cache != nil {
		body, err = s.cachedRemoteBody(sv, shape)
	} else {
		body, err = s.localBody(sv, shape)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, http.StatusOK, body)
}

// localBody renders a read from the server's own live partials.
func (s *Server) localBody(sv *survey.Survey, shape readShape) ([]byte, error) {
	ls, err := s.liveFor(sv)
	if err != nil {
		return nil, err
	}
	fin, err := s.refresh(ls)
	if err != nil {
		return nil, err
	}
	return shape.render(sv, fin, readLabels{})
}

// errDeltaDone aborts a delta fold once it reaches the partial's
// cursor (later records belong to the next delta).
var errDeltaDone = errors.New("server: delta complete")

// PartialState serves a shard's partial accumulator to the shardrpc
// surface: catch the shard's partial up with its store, then answer
// conditionally against the cursor the caller already holds —
// not-modified when nothing changed, a delta fold of only the
// responses in (have, cursor] when the caller is merely behind, a full
// snapshot when the caller is cold (have 0) or ahead of the shard (its
// cached state indexes a stream this store never produced). shard is a
// local shard index.
func (s *Server) PartialState(shard int, surveyID string, have uint64) (*shardrpc.Partial, error) {
	if shard < 0 || shard >= s.router.Shards() {
		return nil, fmt.Errorf("server: shard %d outside [0, %d)", shard, s.router.Shards())
	}
	sv, err := s.router.Survey(surveyID)
	if err != nil {
		return nil, err
	}
	ls, err := s.liveFor(sv)
	if err != nil {
		return nil, err
	}
	p := ls.parts[shard]
	p.mu.Lock()
	if err := p.catchUp(s.router); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	cursor := p.cursor.Load()
	out := &shardrpc.Partial{
		SurveyID:    surveyID,
		Shard:       shard,
		Fingerprint: ls.fp,
		Cursor:      cursor,
	}
	if have == cursor && have > 0 {
		p.mu.Unlock()
		out.NotModified = true
		return out, nil
	}
	if have == 0 || have > cursor {
		out.State = p.acc.Snapshot()
		p.mu.Unlock()
		return out, nil
	}
	p.mu.Unlock()
	// Delta: fold only (have, cursor] from the store into a fresh
	// accumulator. The records are already durable and immutable, so no
	// lock is held across the scan; the partial itself folded every one
	// of them without error during catch-up, so Add cannot reject here
	// short of store corruption.
	delta, err := aggregate.NewAccumulator(s.cfg.Schedule, sv)
	if err != nil {
		return nil, err
	}
	err = s.router.ScanShard(shard, surveyID, have, func(seq uint64, r *survey.Response) error {
		if seq > cursor {
			return errDeltaDone
		}
		return delta.Add(r)
	})
	if err != nil && !errors.Is(err, errDeltaDone) {
		return nil, err
	}
	out.Delta = true
	out.From = have
	out.State = delta.Snapshot()
	return out, nil
}
