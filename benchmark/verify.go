package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"loki/internal/aggregate"
	"loki/internal/core"
	"loki/internal/server"
	"loki/internal/survey"
)

// memResponse is the ResponseWriter behind in-process calls: the
// handler runs on the caller's goroutine and writes here, so a
// respondent costs the system under test exactly its handler and the
// generator no sockets.
type memResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.header }
func (m *memResponse) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}
func (m *memResponse) Write(b []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(b)
}

// call runs one request through h in-process and returns status and body.
func call(h http.Handler, method, path string, body []byte, auth bool) (int, []byte) {
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, path, bytes.NewReader(body))
	} else {
		req, err = http.NewRequest(method, path, nil)
	}
	if err != nil {
		return 0, []byte(err.Error())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if auth {
		req.Header.Set("Authorization", "Bearer "+benchToken)
	}
	rec := &memResponse{header: make(http.Header, 2)}
	h.ServeHTTP(rec, req)
	return rec.status, rec.body.Bytes()
}

// submitSingle posts one upload the way a lone respondent does.
func submitSingle(h http.Handler, u *upload) (int, []byte) {
	return call(h, http.MethodPost, u.path, u.body, false)
}

func aggregatePath(surveyID string) string {
	return "/api/v1/surveys/" + surveyID + "/aggregate"
}

// degradedMarker is the JSON key an aggregate carries when some shard
// was merged around. A complete read never has it, so a byte search
// checks every read of a run without decoding each one.
var degradedMarker = []byte(`"degraded_shards"`)

// fetchAggregate reads and decodes one aggregate.
func fetchAggregate(h http.Handler, surveyID string) (*server.AggregateResult, error) {
	status, body := call(h, http.MethodGet, aggregatePath(surveyID), nil, true)
	if status != http.StatusOK {
		return nil, fmt.Errorf("aggregate %s: HTTP %d: %s", surveyID, status, body)
	}
	var out server.AggregateResult
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("aggregate %s: %w", surveyID, err)
	}
	if len(out.DegradedShards) > 0 {
		return nil, fmt.Errorf("aggregate %s: degraded shards %v", surveyID, out.DegradedShards)
	}
	return &out, nil
}

// referenceAggregate folds every acknowledged upload of one survey into
// a single accumulator — the definition of the right answer — and lays
// the estimate out the way the aggregate endpoint does.
func referenceAggregate(in *inputs, si int) (*server.AggregateResult, error) {
	sv := in.surveys[si]
	acc, err := aggregate.NewAccumulator(core.DefaultSchedule(), sv)
	if err != nil {
		return nil, err
	}
	for _, u := range in.bySurvey[si] {
		for k := int32(0); k < u.acked.Load(); k++ {
			if err := acc.Add(u.resp); err != nil {
				return nil, err
			}
		}
	}
	fin, err := acc.Finalize()
	if err != nil {
		return nil, err
	}
	out := &server.AggregateResult{SurveyID: sv.ID}
	for i := range sv.Questions {
		if qe, ok := fin.Questions[sv.Questions[i].ID]; ok {
			out.Questions = append(out.Questions, *qe)
		}
		if ce, ok := fin.Choices[sv.Questions[i].ID]; ok {
			out.Choices = append(out.Choices, *ce)
		}
	}
	return out, nil
}

// aggregatesEquivalent compares two aggregates: counts must match
// exactly, floats to 1e-9 relative. Merging per-shard Welford partials
// reorders IEEE-754 operations against a single fold, so bit identity
// across fold orders is not a meaningful target.
func aggregatesEquivalent(got, want *server.AggregateResult) error {
	feq := func(x, y float64, what string) error {
		tol := 1e-9 * math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		if math.Abs(x-y) > tol || math.IsNaN(x) != math.IsNaN(y) {
			return fmt.Errorf("%s: got %v, want %v", what, x, y)
		}
		return nil
	}
	if len(got.Questions) != len(want.Questions) || len(got.Choices) != len(want.Choices) {
		return fmt.Errorf("shape: %d/%d questions, %d/%d choices",
			len(got.Questions), len(want.Questions), len(got.Choices), len(want.Choices))
	}
	for i := range got.Questions {
		g, w := &got.Questions[i], &want.Questions[i]
		if g.QuestionID != w.QuestionID || g.OverallN != w.OverallN {
			return fmt.Errorf("question %s: n got %d, want %d", w.QuestionID, g.OverallN, w.OverallN)
		}
		if err := feq(g.OverallMean, w.OverallMean, w.QuestionID+" overall mean"); err != nil {
			return err
		}
		if err := feq(g.PooledMean, w.PooledMean, w.QuestionID+" pooled mean"); err != nil {
			return err
		}
		for l := range g.Bins {
			gb, wb := &g.Bins[l], &w.Bins[l]
			if gb.N != wb.N {
				return fmt.Errorf("question %s bin %d: n got %d, want %d", w.QuestionID, l, gb.N, wb.N)
			}
			if err := feq(gb.Mean, wb.Mean, fmt.Sprintf("%s bin %d mean", w.QuestionID, l)); err != nil {
				return err
			}
			if err := feq(gb.Variance, wb.Variance, fmt.Sprintf("%s bin %d variance", w.QuestionID, l)); err != nil {
				return err
			}
		}
	}
	for i := range got.Choices {
		g, w := &got.Choices[i], &want.Choices[i]
		if g.QuestionID != w.QuestionID || g.N != w.N || len(g.Observed) != len(w.Observed) {
			return fmt.Errorf("choice %s: n got %d, want %d", w.QuestionID, g.N, w.N)
		}
		for c := range g.Observed {
			if g.Observed[c] != w.Observed[c] {
				return fmt.Errorf("choice %s option %d: observed got %d, want %d", w.QuestionID, c, g.Observed[c], w.Observed[c])
			}
			if err := feq(g.Estimated[c], w.Estimated[c], fmt.Sprintf("%s option %d estimate", w.QuestionID, c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyAggregates checks, for each listed survey, that what the
// topology serves equals the single-accumulator fold of the acked
// uploads. It returns the first divergence.
func verifyAggregates(h http.Handler, in *inputs, surveyIdx []int) error {
	for _, si := range surveyIdx {
		want, err := referenceAggregate(in, si)
		if err != nil {
			return err
		}
		got, err := fetchAggregate(h, in.surveys[si].ID)
		if err != nil {
			return err
		}
		if err := aggregatesEquivalent(got, want); err != nil {
			return fmt.Errorf("survey %s diverges from the single-accumulator fold: %w", in.surveys[si].ID, err)
		}
	}
	return nil
}

// allSurveys lists every survey index of the inputs.
func allSurveys(in *inputs) []int {
	out := make([]int, len(in.surveys))
	for i := range out {
		out[i] = i
	}
	return out
}

// storedTotal is the number of responses the topology's stores hold,
// counted at the stores rather than through the read path.
func (tp *topology) storedTotal(surveys []*survey.Survey) int {
	n := 0
	for _, sv := range surveys {
		if tp.ingest != nil {
			n += tp.ingest.ResponseCount(sv.ID)
			continue
		}
		for _, l := range tp.locals {
			for s := 0; s < l.Shards(); s++ {
				n += l.CountShard(s, sv.ID)
			}
		}
	}
	return n
}
