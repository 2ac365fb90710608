// Shared pieces of the three system measurements (failover, load,
// restart): the survey and the deterministic responses they drive, a
// closed-loop submit driver, the aggregate fetch and equivalence check,
// the latency recorder and the report writer.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"loki/internal/server"
	"loki/internal/store"
	"loki/internal/survey"
)

const (
	clusterToken  = "bench-cluster-token"
	clusterShards = 8
	// clusterWorkers is deliberately deep: transport- and store-level
	// batching only engages when submits actually queue.
	clusterWorkers = 64
)

// clusterSurvey exercises every accumulator cell kind: two rating
// questions joined by a consistency pair (so the quality tally has work)
// and one multiple-choice question (so debiasing has work) — the
// equivalence check then covers Welford bins, choice counts and the
// quality tally.
func clusterSurvey() *survey.Survey {
	return &survey.Survey{
		ID:    "bench-cluster",
		Title: "System bench survey",
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q1", Text: "rate again", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q2", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
		},
		Consistency: []survey.ConsistencyPair{{QuestionA: "q0", QuestionB: "q1", Tolerance: 1}},
		RewardCents: 10,
	}
}

// clusterResponse builds the i-th deterministic response, cycling the
// privacy levels. Some none-level responses answer the redundant
// question 2 apart (beyond the pair's tolerance but inside the scale),
// so the quality screen has both verdicts to count.
func clusterResponse(sv *survey.Survey, i int) *survey.Response {
	levels := []string{"none", "low", "medium", "high"}
	lvl := levels[i%len(levels)]
	rating := float64(1 + i%5)
	q1 := rating
	if i%68 == 0 {
		if rating >= 3 {
			q1 = rating - 2
		} else {
			q1 = rating + 2
		}
	}
	return &survey.Response{
		SurveyID:     sv.ID,
		WorkerID:     fmt.Sprintf("w%07d", i),
		PrivacyLevel: lvl,
		Obfuscated:   lvl != "none",
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", rating),
			survey.RatingAnswer("q1", q1),
			survey.ChoiceAnswer("q2", i%3),
		},
	}
}

// fillReadpathStore loads the first n deterministic responses.
func fillReadpathStore(st store.Store, sv *survey.Survey, n int) error {
	for i := 0; i < n; i++ {
		if err := st.AppendResponse(clusterResponse(sv, i)); err != nil {
			return err
		}
	}
	return nil
}

// driveSubmits pushes n deterministic responses (indices base..base+n-1
// — distinct bases keep worker-id spaces disjoint across phases) through
// the handler from clusterWorkers concurrent workers; any submit that is
// not a 201 is an error.
func driveSubmits(h http.Handler, sv *survey.Survey, base, n int) error {
	var wg sync.WaitGroup
	errCh := make(chan error, clusterWorkers)
	next := make(chan int, clusterWorkers*2)
	// failed gates the feeder: if every worker dies on a systematic
	// error, feeding an unread channel would deadlock the bench instead
	// of reporting the cause.
	failed := make(chan struct{})
	var failOnce sync.Once
	for w := 0; w < clusterWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body, err := json.Marshal(clusterResponse(sv, i))
				if err != nil {
					errCh <- err
					failOnce.Do(func() { close(failed) })
					return
				}
				req := httptest.NewRequest(http.MethodPost, "/api/v1/surveys/"+sv.ID+"/responses", strings.NewReader(string(body)))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					errCh <- fmt.Errorf("submit %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
					failOnce.Do(func() { close(failed) })
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- base + i:
		case <-failed:
			break feed
		}
	}
	close(next)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// fetchAggregate reads the /aggregate payload once.
func fetchAggregate(h http.Handler, surveyID string) (*server.AggregateResult, error) {
	req := httptest.NewRequest(http.MethodGet, "/api/v1/surveys/"+surveyID+"/aggregate", nil)
	req.Header.Set("Authorization", "Bearer "+clusterToken)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("aggregate HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var out server.AggregateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// aggregatesEquivalent compares two /aggregate payloads: integer counts
// must match exactly, float fields to within accumulation-order noise
// (merging per-shard Welford partials reorders IEEE-754 operations, so
// bit-identity across fold orders is not a meaningful target; 1e-9
// relative is far below any statistical meaning the estimates carry).
func aggregatesEquivalent(a, b *server.AggregateResult) error {
	feq := func(x, y float64, what string) error {
		tol := 1e-9 * math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		if math.Abs(x-y) > tol {
			return fmt.Errorf("%s: %v vs %v", what, x, y)
		}
		return nil
	}
	if len(a.Questions) != len(b.Questions) || len(a.Choices) != len(b.Choices) {
		return fmt.Errorf("shape mismatch: %d/%d questions, %d/%d choices",
			len(a.Questions), len(b.Questions), len(a.Choices), len(b.Choices))
	}
	for i := range a.Questions {
		qa, qb := &a.Questions[i], &b.Questions[i]
		if qa.QuestionID != qb.QuestionID || qa.OverallN != qb.OverallN {
			return fmt.Errorf("question %s: n %d vs %d", qa.QuestionID, qa.OverallN, qb.OverallN)
		}
		if err := feq(qa.OverallMean, qb.OverallMean, qa.QuestionID+" overall mean"); err != nil {
			return err
		}
		if err := feq(qa.PooledMean, qb.PooledMean, qa.QuestionID+" pooled mean"); err != nil {
			return err
		}
		for l := range qa.Bins {
			ba, bb := &qa.Bins[l], &qb.Bins[l]
			if ba.N != bb.N {
				return fmt.Errorf("question %s bin %d: n %d vs %d", qa.QuestionID, l, ba.N, bb.N)
			}
			if err := feq(ba.Mean, bb.Mean, fmt.Sprintf("%s bin %d mean", qa.QuestionID, l)); err != nil {
				return err
			}
			if err := feq(ba.Variance, bb.Variance, fmt.Sprintf("%s bin %d variance", qa.QuestionID, l)); err != nil {
				return err
			}
		}
	}
	for i := range a.Choices {
		ca, cb := &a.Choices[i], &b.Choices[i]
		if ca.QuestionID != cb.QuestionID || ca.N != cb.N {
			return fmt.Errorf("choice %s: n %d vs %d", ca.QuestionID, ca.N, cb.N)
		}
		for c := range ca.Observed {
			if ca.Observed[c] != cb.Observed[c] {
				return fmt.Errorf("choice %s option %d: observed %d vs %d", ca.QuestionID, c, ca.Observed[c], cb.Observed[c])
			}
			if err := feq(ca.Estimated[c], cb.Estimated[c], fmt.Sprintf("%s option %d estimate", ca.QuestionID, c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// latencyRecorder collects per-request durations from concurrent
// workers.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []int64 // nanoseconds
}

func (l *latencyRecorder) observe(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, int64(d))
	l.mu.Unlock()
}

// latencySummary is the wire form embedded in the JSON reports.
type latencySummary struct {
	Samples   int     `json:"latency_samples,omitempty"`
	P50Millis float64 `json:"p50_millis,omitempty"`
	P99Millis float64 `json:"p99_millis,omitempty"`
	// P999Millis needs ≥1000 samples to mean anything; smaller runs
	// leave it zero.
	P999Millis float64 `json:"p999_millis,omitempty"`
}

// summarize sorts the collected samples and extracts the percentiles
// (nearest-rank). It may be called once per run; the recorder is not
// reusable afterwards.
func (l *latencyRecorder) summarize() latencySummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.samples)
	if n == 0 {
		return latencySummary{}
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	s := latencySummary{
		Samples:   n,
		P50Millis: l.quantileLocked(0.50),
		P99Millis: l.quantileLocked(0.99),
	}
	if n >= 1000 {
		s.P999Millis = l.quantileLocked(0.999)
	}
	return s
}

func (l *latencyRecorder) quantileLocked(q float64) float64 {
	idx := int(q*float64(len(l.samples)-1) + 0.5)
	return float64(l.samples[idx]) / 1e6
}

// parseReadpathSizes parses a comma-separated list of stored-response
// counts (-restart-sizes).
func parseReadpathSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// writeReport writes a measurement's JSON report to path; an empty path
// (the default for every -…-json flag) writes nothing.
func writeReport(path string, report any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
