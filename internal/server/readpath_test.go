package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/store"
	"loki/internal/survey"
)

func aggregateURL(ts *httptest.Server, id string) string {
	return ts.URL + "/api/v1/surveys/" + id + "/aggregate"
}

// recomputeAggregate is the from-scratch reference the live read path
// is checked against.
func recomputeAggregate(t *testing.T, st store.Store, sv *survey.Survey) *AggregateResult {
	t.Helper()
	est, err := BatchEstimator(core.DefaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	responses, err := store.CollectResponses(st, sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	out, err := BatchAggregate(est, sv, responses)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compareAggregate checks the live result against the batch recompute.
func compareAggregate(t *testing.T, got, want *AggregateResult) {
	t.Helper()
	const tol = 1e-9
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }
	if len(got.Questions) != len(want.Questions) || len(got.Choices) != len(want.Choices) {
		t.Fatalf("shape: %d/%d questions, want %d/%d",
			len(got.Questions), len(got.Choices), len(want.Questions), len(want.Choices))
	}
	for i := range want.Questions {
		g, w := got.Questions[i], want.Questions[i]
		if g.QuestionID != w.QuestionID || g.OverallN != w.OverallN {
			t.Fatalf("question %d: %s n=%d, want %s n=%d", i, g.QuestionID, g.OverallN, w.QuestionID, w.OverallN)
		}
		if !near(g.OverallMean, w.OverallMean) || !near(g.PooledMean, w.PooledMean) {
			t.Errorf("question %s: means %g/%g, want %g/%g", g.QuestionID, g.OverallMean, g.PooledMean, w.OverallMean, w.PooledMean)
		}
		for l := range g.Bins {
			if g.Bins[l].N != w.Bins[l].N || !near(g.Bins[l].Mean, w.Bins[l].Mean) || !near(g.Bins[l].Variance, w.Bins[l].Variance) {
				t.Errorf("question %s bin %d: %+v, want %+v", g.QuestionID, l, g.Bins[l], w.Bins[l])
			}
		}
	}
	for i := range want.Choices {
		g, w := got.Choices[i], want.Choices[i]
		if g.QuestionID != w.QuestionID || g.N != w.N || g.BinN != w.BinN {
			t.Fatalf("choice %s: n=%d bins=%v, want n=%d bins=%v", g.QuestionID, g.N, g.BinN, w.N, w.BinN)
		}
		for c := range w.Estimated {
			if g.Observed[c] != w.Observed[c] || !near(g.Estimated[c], w.Estimated[c]) {
				t.Errorf("choice %s option %d: %d/%g, want %d/%g", g.QuestionID, c, g.Observed[c], g.Estimated[c], w.Observed[c], w.Estimated[c])
			}
		}
	}
}

func getAggregate(t *testing.T, ts *httptest.Server, id string) *AggregateResult {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, aggregateURL(ts, id), nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate = %d: %s", resp.StatusCode, body)
	}
	var out AggregateResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestAggregateLiveMatchesBatch: the incremental read path must agree
// with a from-scratch recompute, on the first read (bulk catch-up), on
// a hot re-read, and after more submissions.
func TestAggregateLiveMatchesBatch(t *testing.T) {
	ts, st := newTestServer(t)
	sv := survey.Awareness()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	submit := func(i int, level string, obf bool) {
		t.Helper()
		r := validResponse(level, obf)
		r.WorkerID = fmt.Sprintf("w%04d", i)
		r.Answers = []survey.Answer{
			survey.ChoiceAnswer("aware", i%2),
			survey.ChoiceAnswer("participate", i%3%2),
		}
		resp, body := doReq(t, http.MethodPost, submitURL(ts, sv.ID), r, "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit = %d: %s", resp.StatusCode, body)
		}
	}
	levels := []string{"none", "low", "medium", "high"}
	for i := 0; i < 40; i++ {
		submit(i, levels[i%4], i%4 != 0)
	}

	compareAggregate(t, getAggregate(t, ts, sv.ID), recomputeAggregate(t, st, sv))
	// Hot path: nothing new to fold.
	compareAggregate(t, getAggregate(t, ts, sv.ID), recomputeAggregate(t, st, sv))
	// Fold more after a read.
	for i := 40; i < 55; i++ {
		submit(i, levels[i%4], i%4 != 0)
	}
	compareAggregate(t, getAggregate(t, ts, sv.ID), recomputeAggregate(t, st, sv))
}

// TestConcurrentSubmitWhileAggregate is the read-path race test: N
// goroutines POST responses while M goroutines poll /aggregate; every
// intermediate read must be internally consistent, and the final
// aggregate must equal a from-scratch recompute.
func TestConcurrentSubmitWhileAggregate(t *testing.T) {
	ts, st := newTestServer(t)
	// A mixed survey so in-flight reads can be checked for coherence
	// across question kinds.
	sv := &survey.Survey{
		ID:    "race",
		Title: "Race test survey",
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q1", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
		},
		RewardCents: 1,
	}
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	const submitters, each, pollers, polls = 8, 25, 4, 30
	errs := make(chan error, submitters+pollers)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			levels := []string{"none", "low", "medium", "high"}
			for i := 0; i < each; i++ {
				r := &survey.Response{
					SurveyID:     sv.ID,
					WorkerID:     fmt.Sprintf("w%d-%d", g, i),
					PrivacyLevel: levels[i%4],
					Obfuscated:   i%4 != 0,
					Answers: []survey.Answer{
						survey.RatingAnswer("q0", float64(1+(g+i)%5)),
						survey.ChoiceAnswer("q1", i%2),
					},
				}
				resp, body := doReq(t, http.MethodPost, submitURL(ts, sv.ID), r, "")
				if resp.StatusCode != http.StatusCreated {
					errs <- fmt.Errorf("submitter %d: HTTP %d: %s", g, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	for g := 0; g < pollers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < polls; i++ {
				resp, body := doReq(t, http.MethodGet, aggregateURL(ts, sv.ID), nil, testToken)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("poller %d: HTTP %d: %s", g, resp.StatusCode, body)
					return
				}
				var out AggregateResult
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- fmt.Errorf("poller %d: %v", g, err)
					return
				}
				// Internal consistency of an in-flight read: every
				// question sees the same number of responses.
				for _, q := range out.Questions {
					if q.OverallN != out.Choices[0].N {
						errs <- fmt.Errorf("poller %d: question %s sees %d responses, choices see %d",
							g, q.QuestionID, q.OverallN, out.Choices[0].N)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := st.ResponseCount(sv.ID); got != submitters*each {
		t.Fatalf("stored %d responses, want %d", got, submitters*each)
	}
	final := getAggregate(t, ts, sv.ID)
	if final.Choices[0].N != submitters*each {
		t.Fatalf("final aggregate folded %d responses, want %d", final.Choices[0].N, submitters*each)
	}
	compareAggregate(t, final, recomputeAggregate(t, st, sv))

	// Quality saw every response too.
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/"+sv.ID+"/quality", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quality = %d: %s", resp.StatusCode, body)
	}
	var q QualityResult
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Total != submitters*each || q.Consistent+q.Inconsistent != q.Total {
		t.Fatalf("quality tally = %+v, want total %d", q, submitters*each)
	}
}

// TestRestartCatchUp: a fresh server over a replayed durable store must
// rebuild its live aggregate lazily on the first read.
func TestRestartCatchUp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := store.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	sv := survey.Awareness()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		r := validResponse("medium", true)
		r.WorkerID = fmt.Sprintf("w%02d", i)
		resp, body := doReq(t, http.MethodPost, submitURL(ts, sv.ID), r, "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit = %d: %s", resp.StatusCode, body)
		}
	}
	want := getAggregate(t, ts, sv.ID)
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the log, build a new server with empty live
	// state, and read immediately.
	st2, err := store.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv2, err := New(Config{Store: st2, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	got := getAggregate(t, ts2, sv.ID)
	if got.Choices[0].N != n {
		t.Fatalf("aggregate after restart folded %d responses, want %d", got.Choices[0].N, n)
	}
	compareAggregate(t, got, want)
}

// TestAdminStore covers the observability endpoint: auth, the mem
// backend's accumulator cursors, and the ingest backend's shard stats.
func TestAdminStore(t *testing.T) {
	ts, st := newTestServer(t)
	sv := survey.Awareness()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated admin = %d", resp.StatusCode)
	}

	const n = 7
	for i := 0; i < n; i++ {
		r := validResponse("medium", true)
		r.WorkerID = fmt.Sprintf("w%02d", i)
		if code, body := doReq(t, http.MethodPost, submitURL(ts, sv.ID), r, ""); code.StatusCode != http.StatusCreated {
			t.Fatalf("submit = %d: %s", code.StatusCode, body)
		}
	}
	getAggregate(t, ts, sv.ID)

	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Backend != "mem" {
		t.Errorf("backend = %q, want mem", info.Backend)
	}
	if len(info.Accumulators) != 1 {
		t.Fatalf("accumulators = %+v, want one", info.Accumulators)
	}
	acc := info.Accumulators[0]
	if acc.SurveyID != sv.ID || acc.Cursor != n || acc.Responses != n {
		t.Errorf("accumulator = %+v, want cursor/responses %d for %s", acc, n, sv.ID)
	}
}

func TestAdminStoreIngestBackend(t *testing.T) {
	ing, err := ingest.Open(t.TempDir(), ingest.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	srv, err := New(Config{Store: ing, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testClusterToken})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	sv := survey.Awareness()
	if _, err := ing.Publish(sv); err != nil {
		t.Fatal(err)
	}
	r := validResponse("medium", true)
	if resp, body := doReq(t, http.MethodPost, submitURL(ts, sv.ID), r, ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Backend != "ingest" {
		t.Errorf("backend = %q, want ingest", info.Backend)
	}
	// One entry per log, whatever the shard label: the store keeps one.
	if len(info.Shards) != 1 || info.Shards[0].Appends != 1 || info.Shards[0].Commits != 1 {
		t.Fatalf("shards = %+v, want one log with 1 append in 1 commit", info.Shards)
	}
	if info.Ingest == nil || info.Ingest.Appends != 1 {
		t.Errorf("ingest stats = %+v, want 1 append", info.Ingest)
	}
	if len(info.Accumulators) != 1 || info.Accumulators[0].Responses != 1 {
		t.Errorf("accumulators = %+v", info.Accumulators)
	}
}
