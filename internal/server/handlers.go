// The public API's handlers; the submit pipeline behind the two submit
// handlers is in submit.go.
package server

import (
	"fmt"
	"net/http"
	"strconv"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	tally := make([]int64, core.NumLevels)
	for i := range tally {
		tally[i] = s.levelTally[i].Load()
	}
	writeJSON(w, http.StatusOK, Stats{
		Status:            "ok",
		ResponsesAccepted: s.served.Load(),
		LevelTally:        tally,
	})
}

func (s *Server) handleSchedule(w http.ResponseWriter, _ *http.Request) {
	obf, err := core.NewObfuscator(s.cfg.Schedule, core.DefaultOptions())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	eps := obf.EpsilonPerRating()
	info := ScheduleInfo{Delta: obf.Options().Delta}
	for l := 0; l < core.NumLevels; l++ {
		info.Sigma = append(info.Sigma, s.cfg.Schedule.Sigma[l])
		info.RREpsilon = append(info.RREpsilon, jsonSafe(s.cfg.Schedule.RREpsilon[l]))
		info.EpsilonPerRating = append(info.EpsilonPerRating, jsonSafe(eps[l]))
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListSurveys(w http.ResponseWriter, _ *http.Request) {
	surveys, err := s.router.Surveys()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	levels := make([]string, 0, core.NumLevels)
	for _, l := range core.Levels() {
		levels = append(levels, l.String())
	}
	out := make([]SurveySummary, 0, len(surveys))
	for _, sv := range surveys {
		out = append(out, SurveySummary{
			ID:          sv.ID,
			Title:       sv.Title,
			Description: sv.Description,
			Questions:   len(sv.Questions),
			RewardCents: sv.RewardCents,
			Levels:      levels,
			Responses:   shardset.Count(s.router, sv.ID),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSurvey(w http.ResponseWriter, r *http.Request) {
	sv, err := s.router.Survey(r.PathValue("id"))
	if err != nil {
		s.writeRefusal(w, surveyRefusal(err))
		return
	}
	writeJSON(w, http.StatusOK, sv)
}

// publish broadcasts sv through the router. Every shard decides its own
// outcome against the definition it holds, so a retry after a partial
// failure finishes the broadcast. A changed definition must invalidate
// every piece of fold state built under the old one — the live
// partials, the durable checkpoints, a frontend's cache — or /aggregate
// and /quality keep answering from bins laid out for the old question
// set. That holds for the shards that took it when others failed, too.
func (s *Server) publish(sv *survey.Survey) (store.Outcome, error) {
	o, err := s.router.Publish(sv)
	if o == store.Replaced {
		s.invalidateLive(sv.ID)
		s.logf("republished survey %q with a changed definition; live aggregate state reset", sv.ID)
	}
	return o, err
}

func (s *Server) handlePublishSurvey(w http.ResponseWriter, r *http.Request) {
	var sv survey.Survey
	if !s.readJSON(w, r, &sv, nil) {
		return
	}
	o, err := s.publish(&sv)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	status := http.StatusOK
	if o == store.Created {
		status = http.StatusCreated
	}
	portfolio, err := s.router.Surveys()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	audit := survey.AuditPortfolio(portfolio)
	if audit.MaxSeverity() == survey.Critical {
		s.logf("CRITICAL linkage audit after publishing %q: portfolio completes a quasi-identifier", sv.ID)
	}
	writeJSON(w, status, PublishResult{ID: sv.ID, Audit: audit})
}

func (s *Server) handleSubmitResponse(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var resp survey.Response
	scan := func(body []byte) bool {
		resp.SurveyID = id // kept, not copied, when the body names it
		return resp.ScanJSON(body)
	}
	if !s.readJSON(w, r, &resp, scan) {
		return
	}
	if resp.SurveyID == "" {
		resp.SurveyID = id
	}
	if resp.SurveyID != id {
		// The URL names the survey: an unknown one is a 404 before the
		// body can disagree with it.
		if _, err := s.router.Survey(id); err != nil {
			s.writeRefusal(w, surveyRefusal(err))
			return
		}
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("response survey_id %q does not match URL %q", resp.SurveyID, id))
		return
	}
	rec := s.submit(r.Context(), []survey.Response{resp})[0]
	if rec.ref != nil {
		s.writeRefusal(w, rec.ref)
		return
	}
	writeBody(w, http.StatusCreated, submitAck(id, rec.stored))
}

// submitRefusal is a refused submit before it is written to the wire:
// the HTTP status, the wire error (the short code for shed, throttle,
// failover and budget refusals, the human message otherwise), the
// Retry-After hint for retryable refusals, and the budget outcome when
// the refusal is the enriched budget_exhausted shape.
type submitRefusal struct {
	status     int
	msg        string
	retryAfter int
	budget     *budget.Outcome
}

// writeRefusal renders a refusal as the single-submit error response:
// budget refusals get the enriched BudgetExhaustedError body, retryable
// refusals carry Retry-After on header and body, everything else is the
// plain {"error": msg} envelope.
func (s *Server) writeRefusal(w http.ResponseWriter, ref *submitRefusal) {
	switch {
	case ref.budget != nil:
		w.Header().Set("Retry-After", strconv.Itoa(ref.retryAfter))
		writeJSON(w, ref.status, BudgetExhaustedError{
			Error:             ref.msg,
			RetryAfterSeconds: ref.retryAfter,
			RemainingEpsilon:  ref.budget.RemainingEpsilon,
			RemainingDelta:    s.cfg.Budget.Config().Delta,
		})
	case ref.retryAfter > 0:
		writeRetryable(w, ref.status, ref.msg, ref.retryAfter)
	default:
		writeError(w, ref.status, ref.msg)
	}
}

// maxBatchSubmit bounds a batch submit request; the 1 MiB body bound
// keeps realistic batches far below it, this is a defense in depth.
const maxBatchSubmit = 1024

// handleSubmitBatch is the batching submit endpoint
// (POST /api/v1/responses): the records run the same pipeline as a
// single submit, together — each shard's share of them is one durability
// round — and each answers for itself in a request-aligned result.
// Admission control gates the whole request (one queue slot per batch);
// the per-requester rate limit is spent per record.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	scan := func(body []byte) (ok bool) {
		req.Responses, ok = survey.ScanResponsesJSON(body)
		return ok
	}
	if !s.readJSON(w, r, &req, scan) {
		return
	}
	if len(req.Responses) == 0 {
		writeError(w, http.StatusBadRequest, "batch must contain at least one response")
		return
	}
	if len(req.Responses) > maxBatchSubmit {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d responses exceeds the %d-record bound", len(req.Responses), maxBatchSubmit))
		return
	}
	res := BatchSubmitResult{Results: make([]BatchSubmitItem, len(req.Responses))}
	for i, rec := range s.submit(r.Context(), req.Responses) {
		item := BatchSubmitItem{SurveyID: rec.resp.SurveyID}
		if ref := rec.ref; ref != nil {
			item.Status = ref.status
			item.Error = ref.msg
			item.RetryAfterSeconds = ref.retryAfter
		} else {
			item.Accepted = true
			item.Stored = rec.stored
			res.Accepted++
		}
		res.Results[i] = item
	}
	writeJSON(w, http.StatusOK, &res)
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r.PathValue("id"), aggregateShape)
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r.PathValue("id"), qualityShape)
}
