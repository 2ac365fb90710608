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

// surveyEstimate is the shared read path of /aggregate and /quality:
// resolve the survey, then refresh its per-shard partials (scan only
// the responses each shard appended since the last read — usually none
// — fold, Merge, finalize). On a frontend the partials come from the
// owning nodes, through the partial cache, instead of local folds. Cost
// is independent of how many responses the store holds.
func (s *Server) surveyEstimate(w http.ResponseWriter, id string) (*survey.Survey, *aggregate.SurveyEstimate, []int, bool) {
	sv, err := s.router.Survey(id)
	if err != nil {
		s.writeRefusal(w, surveyRefusal(err))
		return nil, nil, nil, false
	}
	var fin *aggregate.SurveyEstimate
	var degraded []int
	if s.cache != nil {
		fin, degraded, err = s.cachedRemoteEstimate(sv)
	} else {
		var ls *liveSet
		if ls, err = s.liveFor(sv); err == nil {
			fin, err = s.refresh(ls)
		}
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, nil, nil, false
	}
	return sv, fin, degraded, true
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
