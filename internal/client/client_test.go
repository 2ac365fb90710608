package client

import (
	"errors"
	"time"

	"context"
	"loki/internal/budget"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loki/internal/core"
	"loki/internal/server"
	"loki/internal/store"
	"loki/internal/survey"
)

const testToken = "sekrit"

func newBackend(t *testing.T, surveys ...*survey.Survey) (*httptest.Server, store.Store) {
	t.Helper()
	st := store.NewMem()
	for _, sv := range surveys {
		if _, err := st.Publish(sv); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Store:          st,
		Schedule:       core.DefaultSchedule(),
		RequesterToken: testToken,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { st.Close() })
	return ts, st
}

func newClient(t *testing.T, baseURL string) *Client {
	t.Helper()
	c, err := New(Config{BaseURL: baseURL, Schedule: core.DefaultSchedule(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty base URL accepted")
	}
	bad := core.DefaultSchedule()
	bad.Sigma[core.None] = 2
	if _, err := New(Config{BaseURL: "http://x", Schedule: bad}); err == nil {
		t.Error("bad schedule accepted")
	}
	opts := core.DefaultOptions()
	opts.Delta = 0
	if _, err := New(Config{BaseURL: "http://x", Schedule: core.DefaultSchedule(), Options: &opts}); err == nil {
		t.Error("bad options accepted")
	}
}

func TestListAndGetSurveys(t *testing.T) {
	ts, _ := newBackend(t, survey.Awareness(), survey.Lecturers([]string{"A"}))
	c := newClient(t, ts.URL)
	ctx := context.Background()

	summaries, err := c.ListSurveys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 2 {
		t.Fatalf("summaries = %d", len(summaries))
	}
	sv, err := c.GetSurvey(ctx, survey.AwarenessID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Validate(); err != nil {
		t.Fatalf("fetched survey invalid: %v", err)
	}
	if _, err := c.GetSurvey(ctx, "ghost"); err == nil {
		t.Error("missing survey fetched")
	}
}

func TestTakeObfuscatesBeforeUpload(t *testing.T) {
	sv := survey.Lecturers([]string{"A", "B"})
	ts, st := newBackend(t, sv)
	c := newClient(t, ts.URL)
	ctx := context.Background()

	raw := []survey.Answer{
		survey.RatingAnswer("lecturer-00", 4),
		survey.RatingAnswer("lecturer-01", 5),
	}
	res, err := c.Take(ctx, sv, "alice", raw, core.High)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != core.High || len(res.Uploaded) != 2 {
		t.Fatalf("result = %+v", res)
	}
	// The stored response is the noisy one, not the raw one.
	stored, err := store.CollectResponses(st, sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 {
		t.Fatalf("stored = %d", len(stored))
	}
	if !stored[0].Obfuscated || stored[0].PrivacyLevel != "high" {
		t.Error("upload metadata wrong")
	}
	same := stored[0].Answers[0].Rating == 4 && stored[0].Answers[1].Rating == 5
	if same {
		t.Error("raw ratings reached the server at level high")
	}
	if res.Spent.Epsilon <= 0 {
		t.Error("ledger did not record the upload")
	}
}

func TestTakeNonePassthrough(t *testing.T) {
	sv := survey.Lecturers([]string{"A"})
	ts, st := newBackend(t, sv)
	c := newClient(t, ts.URL)
	raw := []survey.Answer{survey.RatingAnswer("lecturer-00", 3)}
	res, err := c.Take(context.Background(), sv, "bob", raw, core.None)
	if err != nil {
		t.Fatal(err)
	}
	if res.Uploaded[0].Rating != 3 {
		t.Error("level none altered the answer")
	}
	if res.Unprotected != 1 {
		t.Errorf("unprotected = %d", res.Unprotected)
	}
	stored, _ := store.CollectResponses(st, sv.ID)
	if stored[0].Obfuscated {
		t.Error("level none marked obfuscated")
	}
}

func TestTakeValidatesRawLocally(t *testing.T) {
	sv := survey.Lecturers([]string{"A"})
	ts, st := newBackend(t, sv)
	c := newClient(t, ts.URL)
	bad := []survey.Answer{survey.RatingAnswer("lecturer-00", 42)}
	if _, err := c.Take(context.Background(), sv, "carol", bad, core.Medium); err == nil {
		t.Fatal("invalid raw answers accepted")
	}
	if n := st.ResponseCount(sv.ID); n != 0 {
		t.Fatalf("invalid answers reached the server: %d stored", n)
	}
	if _, err := c.Take(context.Background(), nil, "carol", bad, core.Medium); err == nil {
		t.Error("nil survey accepted")
	}
	good := []survey.Answer{survey.RatingAnswer("lecturer-00", 3)}
	if _, err := c.Take(context.Background(), sv, "carol", good, core.Level(9)); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestTakeCumulativeLedger(t *testing.T) {
	sv := survey.Lecturers([]string{"A"})
	ts, _ := newBackend(t, sv)
	c := newClient(t, ts.URL)
	raw := []survey.Answer{survey.RatingAnswer("lecturer-00", 3)}
	var prev float64
	for i := 0; i < 3; i++ {
		res, err := c.Take(context.Background(), sv, "dave", raw, core.Medium)
		if err != nil {
			t.Fatal(err)
		}
		if res.Spent.Epsilon <= prev {
			t.Fatalf("cumulative ε not growing: %g", res.Spent.Epsilon)
		}
		prev = res.Spent.Epsilon
	}
	if c.Ledger().Responses() != 3 {
		t.Errorf("ledger responses = %d", c.Ledger().Responses())
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	ts, _ := newBackend(t) // no surveys
	c := newClient(t, ts.URL)
	sv := survey.Lecturers([]string{"A"})
	raw := []survey.Answer{survey.RatingAnswer("lecturer-00", 3)}
	_, err := c.Take(context.Background(), sv, "eve", raw, core.Low)
	if err == nil {
		t.Fatal("submission to unpublished survey accepted")
	}
	if !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "not found") {
		t.Errorf("error lacks server detail: %v", err)
	}
}

func TestScheduleFetch(t *testing.T) {
	ts, _ := newBackend(t)
	c := newClient(t, ts.URL)
	info, err := c.Schedule(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Sigma) != core.NumLevels || info.Sigma[3] != 2.0 {
		t.Errorf("schedule = %+v", info)
	}
}

func TestRenderScreens(t *testing.T) {
	sv := survey.Lecturers([]string{"Dr. Mysterious Longnamed Person", "B"})
	ts, _ := newBackend(t, sv)
	c := newClient(t, ts.URL)
	ctx := context.Background()

	summaries, err := c.ListSurveys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	list := RenderSurveyList(summaries)
	if !strings.Contains(list, "none | low | medium | high") {
		t.Errorf("survey list lacks privacy levels:\n%s", list)
	}
	empty := RenderSurveyList(nil)
	if !strings.Contains(empty, "no surveys") {
		t.Error("empty list rendering")
	}

	questions := RenderQuestions(sv)
	if !strings.Contains(questions, "★★★★★") {
		t.Errorf("questions screen lacks star scale:\n%s", questions)
	}

	raw := []survey.Answer{
		survey.RatingAnswer("lecturer-00", 4),
		survey.RatingAnswer("lecturer-01", 5),
	}
	res, err := c.Take(ctx, sv, "frank", raw, core.Medium)
	if err != nil {
		t.Fatal(err)
	}
	cmp := RenderComparison(sv, res)
	if !strings.Contains(cmp, "4.00 →") || !strings.Contains(cmp, "privacy level \"medium\"") {
		t.Errorf("comparison screen:\n%s", cmp)
	}
	if !strings.Contains(cmp, "cumulative privacy loss") {
		t.Error("comparison lacks ledger line")
	}

	picker := RenderLevelPicker(c.Obfuscator())
	for _, want := range []string{"none", "low", "medium", "high", "ε="} {
		if !strings.Contains(picker, want) {
			t.Errorf("level picker lacks %q:\n%s", want, picker)
		}
	}
}

func TestRenderComparisonChoices(t *testing.T) {
	sv := survey.Awareness()
	ts, _ := newBackend(t, sv)
	c := newClient(t, ts.URL)
	raw := []survey.Answer{
		survey.ChoiceAnswer("aware", 0),
		survey.ChoiceAnswer("participate", 1),
	}
	res, err := c.Take(context.Background(), sv, "gina", raw, core.Low)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderComparison(sv, res)
	if !strings.Contains(out, "Yes") && !strings.Contains(out, "No") {
		t.Errorf("choice rendering lacks option labels:\n%s", out)
	}
}

func TestBadServerURL(t *testing.T) {
	c := newClient(t, "http://127.0.0.1:1") // nothing listens there
	if _, err := c.ListSurveys(context.Background()); err == nil {
		t.Error("unreachable server succeeded")
	}
}

func TestTakeCancelledContext(t *testing.T) {
	sv := survey.Lecturers([]string{"A"})
	ts, st := newBackend(t, sv)
	c := newClient(t, ts.URL)
	// Verify the schedule first so cancellation hits the submission.
	if err := c.VerifySchedule(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw := []survey.Answer{survey.RatingAnswer("lecturer-00", 3)}
	if _, err := c.Take(ctx, sv, "w", raw, core.Medium); err == nil {
		t.Fatal("cancelled context accepted")
	}
	if st.ResponseCount(sv.ID) != 0 {
		t.Error("cancelled submission reached the store")
	}
}

func TestScheduleMismatchRefusesUpload(t *testing.T) {
	// Server publishes the linear schedule; the client was built with
	// the default doubling schedule — Take must refuse.
	st := store.NewMem()
	defer st.Close()
	sv := survey.Lecturers([]string{"A"})
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Store:          st,
		Schedule:       core.LinearSchedule(),
		RequesterToken: testToken,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := newClient(t, ts.URL) // default schedule
	raw := []survey.Answer{survey.RatingAnswer("lecturer-00", 3)}
	_, err = c.Take(context.Background(), sv, "w", raw, core.High)
	if err == nil {
		t.Fatal("mismatched schedule accepted")
	}
	if !strings.Contains(err.Error(), "differs from local") {
		t.Errorf("unexpected error: %v", err)
	}
	if st.ResponseCount(sv.ID) != 0 {
		t.Error("upload happened despite schedule mismatch")
	}
	// VerifySchedule is also callable directly.
	if err := c.VerifySchedule(context.Background()); err == nil {
		t.Error("direct verification passed on mismatch")
	}
}

func TestScheduleVerificationCached(t *testing.T) {
	sv := survey.Lecturers([]string{"A"})
	ts, _ := newBackend(t, sv)
	c := newClient(t, ts.URL)
	if err := c.VerifySchedule(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Second call is a no-op even if the server goes away.
	ts.Close()
	if err := c.VerifySchedule(context.Background()); err != nil {
		t.Errorf("cached verification re-fetched: %v", err)
	}
}

func TestDurableLedgerAcrossRestart(t *testing.T) {
	sv := survey.Lecturers([]string{"A"})
	ts, _ := newBackend(t, sv)
	path := filepath.Join(t.TempDir(), "ledger.json")
	mk := func(seed uint64) *Client {
		c, err := New(Config{
			BaseURL:    ts.URL,
			Schedule:   core.DefaultSchedule(),
			Seed:       seed,
			LedgerPath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	raw := []survey.Answer{survey.RatingAnswer("lecturer-00", 3)}

	c1 := mk(1)
	res1, err := c1.Take(context.Background(), sv, "w", raw, core.Medium)
	if err != nil {
		t.Fatal(err)
	}
	// "Reinstall" the app: a new client restores the spent budget.
	c2 := mk(2)
	if got := c2.Ledger().Spent().Epsilon; got != res1.Spent.Epsilon {
		t.Fatalf("restart lost privacy history: %g vs %g", got, res1.Spent.Epsilon)
	}
	res2, err := c2.Take(context.Background(), sv, "w", raw, core.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Spent.Epsilon <= res1.Spent.Epsilon {
		t.Fatal("restored ledger did not keep accumulating")
	}
	// Corrupt ledger files must fail loudly, not silently reset.
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{BaseURL: ts.URL, Schedule: core.DefaultSchedule(), LedgerPath: path}); err == nil {
		t.Fatal("corrupt ledger silently reset")
	}
}

func TestBudgetExhaustedTypedError(t *testing.T) {
	sv := survey.Lecturers([]string{"A", "B"})
	st := store.NewMem()
	t.Cleanup(func() { st.Close() })
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	cap := budget.Config{CapEpsilon: 0.5, Delta: 1e-6}
	set, err := budget.NewSet(budget.SetOptions{Shards: 1, Config: cap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	srv, err := server.New(server.Config{
		Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Budget: set, BudgetEnforce: "enforce",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	c := newClient(t, ts.URL)
	ctx := context.Background()
	raw := []survey.Answer{
		survey.RatingAnswer("lecturer-00", 4),
		survey.RatingAnswer("lecturer-01", 5),
	}
	var be *BudgetError
	for i := 0; i < 100; i++ {
		_, err := c.Take(ctx, sv, "worker-exhaust", raw, core.Medium)
		if err == nil {
			continue
		}
		if !errors.As(err, &be) {
			t.Fatalf("submit failed with untyped error: %v", err)
		}
		break
	}
	if be == nil {
		t.Fatal("cap never rejected a submit")
	}
	if be.RetryAfter != time.Duration(server.BudgetRetryAfterSeconds)*time.Second {
		t.Fatalf("RetryAfter = %s", be.RetryAfter)
	}
	if be.RemainingDelta != cap.Delta {
		t.Fatalf("RemainingDelta = %g, want %g", be.RemainingDelta, cap.Delta)
	}
	if be.RemainingEpsilon < 0 || be.RemainingEpsilon > cap.CapEpsilon {
		t.Fatalf("RemainingEpsilon = %g outside [0, %g]", be.RemainingEpsilon, cap.CapEpsilon)
	}
	if !strings.Contains(be.Error(), "budget exhausted") {
		t.Fatalf("Error() = %q", be.Error())
	}
}
