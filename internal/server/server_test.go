package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"loki/internal/core"
	"loki/internal/store"
	"loki/internal/survey"
)

const testToken = "sekrit"

func newTestServer(t *testing.T) (*httptest.Server, store.Store) {
	t.Helper()
	st := store.NewMem()
	srv, err := New(Config{
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

func doReq(t testing.TB, method, url string, body any, token string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{RequesterToken: "x"}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(Config{Store: store.NewMem()}); err == nil {
		t.Error("empty token accepted")
	}
	bad := core.DefaultSchedule()
	bad.Sigma[core.None] = 1
	if _, err := New(Config{Store: store.NewMem(), RequesterToken: "x", Schedule: bad}); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/healthz", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var s Stats
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}
	if s.Status != "ok" || len(s.LevelTally) != core.NumLevels {
		t.Errorf("stats = %+v", s)
	}
}

func TestScheduleEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/schedule", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule = %d", resp.StatusCode)
	}
	var info ScheduleInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Sigma) != core.NumLevels || info.Sigma[2] != 1.0 {
		t.Errorf("schedule info = %+v", info)
	}
}

func TestPublishRequiresToken(t *testing.T) {
	ts, _ := newTestServer(t)
	sv := survey.Awareness()
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, "wrong")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d", resp.StatusCode)
	}
	// Republishing the identical definition is idempotent: 200, not a
	// second 201.
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dup publish = %d", resp.StatusCode)
	}
}

// TestRequireTokenRefusals: the constant-time token compare refuses a
// missing header, a token of the wrong length and one wrong only in its
// last byte with the very 401 the parent's plain compare answered
// (pinned by the read_wire goldens), and still admits the right token.
func TestRequireTokenRefusals(t *testing.T) {
	ts, _ := newTestServer(t)
	sv := clusterTestSurvey()
	publishOK(t, ts, sv)
	for _, shape := range readWireShapes {
		want, err := os.ReadFile(filepath.Join("testdata", "read_wire", "frontend_no_token."+shape+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, auth := range []string{"", "Bearer " + testToken + "x", "Bearer " + testToken[:len(testToken)-1] + "X", "bearer " + testToken, testToken} {
			req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/surveys/"+sv.ID+"/"+shape, nil)
			if err != nil {
				t.Fatal(err)
			}
			if auth != "" {
				req.Header.Set("Authorization", auth)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := partialReply{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: body}
			if got.String() != string(want) {
				t.Errorf("Authorization %q on %s:\n%s\n--- want ---\n%s", auth, shape, got, want)
			}
		}
		if r := readGet(t, ts.URL, sv.ID, shape, testToken); r.status != http.StatusOK {
			t.Fatalf("right token on %s = %v", shape, r)
		}
	}
}

func TestPublishLinkageAudit(t *testing.T) {
	ts, _ := newTestServer(t)
	// Publish the paper's three profiling surveys one by one; the third
	// must come back with a critical audit.
	var last PublishResult
	for _, sv := range survey.ProfilingSurveys() {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("publish %q = %d", sv.ID, resp.StatusCode)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Audit == nil {
		t.Fatal("publish response missing audit")
	}
	if !last.Audit.CompletesQuasiID {
		t.Errorf("portfolio audit did not flag the quasi-identifier: %+v", last.Audit)
	}
	if last.Audit.MaxSeverity() != survey.Critical {
		t.Errorf("audit severity = %v", last.Audit.MaxSeverity())
	}
}

func TestListAndGet(t *testing.T) {
	ts, st := newTestServer(t)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var list []SurveySummary
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != survey.AwarenessID || list[0].Questions != 2 {
		t.Errorf("list = %+v", list)
	}
	if len(list[0].Levels) != core.NumLevels {
		t.Error("levels missing from summary")
	}

	resp, body = doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/"+survey.AwarenessID, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get = %d", resp.StatusCode)
	}
	var sv survey.Survey
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if err := sv.Validate(); err != nil {
		t.Fatalf("served survey invalid: %v", err)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/ghost", nil, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing survey = %d", resp.StatusCode)
	}
}

func submitURL(ts *httptest.Server, id string) string {
	return fmt.Sprintf("%s/api/v1/surveys/%s/responses", ts.URL, id)
}

func validResponse(level string, obfuscated bool) *survey.Response {
	return &survey.Response{
		SurveyID: survey.AwarenessID,
		WorkerID: "w1",
		Answers: []survey.Answer{
			survey.ChoiceAnswer("aware", 0),
			survey.ChoiceAnswer("participate", 1),
		},
		PrivacyLevel: level,
		Obfuscated:   obfuscated,
	}
}

func TestSubmitResponse(t *testing.T) {
	ts, st := newTestServer(t)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), validResponse("medium", true), "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var ack SubmitResult
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || ack.Stored != 1 {
		t.Errorf("ack = %+v", ack)
	}

	// Unknown survey.
	resp, _ = doReq(t, http.MethodPost, submitURL(ts, "ghost"), validResponse("none", false), "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown survey submit = %d", resp.StatusCode)
	}
	// Bad privacy level.
	resp, _ = doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), validResponse("bogus", true), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus level = %d", resp.StatusCode)
	}
	// Level above none must be obfuscated.
	resp, _ = doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), validResponse("high", false), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unobfuscated high = %d", resp.StatusCode)
	}
	// Mismatched survey id.
	mismatch := validResponse("none", false)
	mismatch.SurveyID = "other"
	resp, _ = doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), mismatch, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched id = %d", resp.StatusCode)
	}
	// Incomplete answers.
	short := validResponse("none", false)
	short.Answers = short.Answers[:1]
	resp, _ = doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), short, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short answers = %d", resp.StatusCode)
	}
	// Malformed JSON.
	req, _ := http.NewRequest(http.MethodPost, submitURL(ts, survey.AwarenessID), strings.NewReader("{nope"))
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON = %d", raw.StatusCode)
	}
	// Unknown fields rejected.
	req, _ = http.NewRequest(http.MethodPost, submitURL(ts, survey.AwarenessID),
		strings.NewReader(`{"survey_id":"awareness","worker_id":"w","answers":[],"hacker":true}`))
	raw, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", raw.StatusCode)
	}

	// The empty-survey-id convenience: the URL fills it in.
	blank := validResponse("none", false)
	blank.SurveyID = ""
	blank.WorkerID = "w2"
	resp, _ = doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), blank, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("blank survey id = %d", resp.StatusCode)
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	st := store.NewMem()
	defer st.Close()
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:          st,
		Schedule:       core.DefaultSchedule(),
		RequesterToken: testToken,
		MaxBodyBytes:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), validResponse("none", false), "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body = %d", resp.StatusCode)
	}
}

// TestSingleJSONValue: on publish and on both submit endpoints, a body
// is one JSON value and whitespace; anything else after the value is
// the single-value 400, whatever byte it starts with.
func TestSingleJSONValue(t *testing.T) {
	ts, st := newTestServer(t)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	post := func(url string, v any, suffix string, token string) (int, string) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(b)+suffix))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	const single = `{"error":"request body must contain a single JSON value"}` + "\n"
	for i, suffix := range []string{"}", "]", "}}}garbage", " x", "{}", "\n0", "\n\t\r "} {
		sv := survey.Awareness()
		sv.ID = fmt.Sprintf("published-%d", i)
		rec := validResponse("none", false)
		rec.WorkerID = fmt.Sprintf("w%d", i)
		ok := strings.TrimSpace(suffix) == ""
		for _, c := range []struct {
			url    string
			v      any
			status int
		}{
			{ts.URL + "/api/v1/surveys", sv, http.StatusCreated},
			{submitURL(ts, survey.AwarenessID), rec, http.StatusCreated},
			{ts.URL + "/api/v1/responses", BatchSubmitRequest{Responses: []survey.Response{*rec}}, http.StatusOK},
		} {
			status, body := post(c.url, c.v, suffix, testToken)
			if ok && status != c.status {
				t.Errorf("POST %s with %q after the value = %d %s, want %d", c.url, suffix, status, body, c.status)
			}
			if !ok && (status != http.StatusBadRequest || body != single) {
				t.Errorf("POST %s with %q after the value = %d %s, want 400 %s", c.url, suffix, status, body, single)
			}
		}
	}
}

// TestSubmitAck: the directly appended 201 reply is encodeJSON's, byte
// for byte, and an ID that needs escaping still gets encodeJSON's.
func TestSubmitAck(t *testing.T) {
	for _, id := range []string{"awareness", "bench-0003", "", "a b~\x7f", `q"uote`, `back\slash`, "<b>&", "tab\t", "é", "\u2028", "\xff"} {
		for _, stored := range []int{0, 1, 12345, -1} {
			want := encodeJSON(SubmitResult{SurveyID: id, Accepted: true, Stored: stored})
			if got := submitAck(id, stored); !bytes.Equal(got, want) {
				t.Errorf("submitAck(%q, %d) = %s, want %s", id, stored, got, want)
			}
		}
	}
}

func TestAggregateEndpoint(t *testing.T) {
	ts, st := newTestServer(t)
	sv := survey.Lecturers([]string{"A"})
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r := &survey.Response{
			SurveyID: sv.ID,
			WorkerID: fmt.Sprintf("w%d", i),
			Answers:  []survey.Answer{survey.RatingAnswer("lecturer-00", 4)},
		}
		if err := st.AppendResponse(r); err != nil {
			t.Fatal(err)
		}
	}
	url := ts.URL + "/api/v1/surveys/" + sv.ID + "/aggregate"
	resp, _ := doReq(t, http.MethodGet, url, nil, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("aggregate without token = %d", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, url, nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate = %d", resp.StatusCode)
	}
	var out AggregateResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Questions) != 1 || out.Questions[0].OverallN != 10 {
		t.Errorf("aggregate = %+v", out)
	}
	if out.Questions[0].OverallMean != 4 {
		t.Errorf("overall mean = %g", out.Questions[0].OverallMean)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/ghost/aggregate", nil, testToken)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost aggregate = %d", resp.StatusCode)
	}
}

func TestLevelTally(t *testing.T) {
	ts, st := newTestServer(t)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	for i, level := range []string{"none", "medium", "medium", "high"} {
		r := validResponse(level, level != "none")
		r.WorkerID = fmt.Sprintf("w%d", i)
		resp, body := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), r, "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	_, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/healthz", nil, "")
	var s Stats
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}
	if s.ResponsesAccepted != 4 {
		t.Errorf("accepted = %d", s.ResponsesAccepted)
	}
	want := []int64{1, 0, 2, 1}
	for i, w := range want {
		if s.LevelTally[i] != w {
			t.Errorf("tally[%d] = %d, want %d", i, s.LevelTally[i], w)
		}
	}
}

func TestAggregateIncludesChoices(t *testing.T) {
	ts, st := newTestServer(t)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r := validResponse("none", false)
		r.WorkerID = fmt.Sprintf("w%d", i)
		if err := st.AppendResponse(r); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/"+survey.AwarenessID+"/aggregate", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate = %d", resp.StatusCode)
	}
	var out AggregateResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Choices) != 2 {
		t.Fatalf("choice estimates = %d", len(out.Choices))
	}
	// Every validResponse answers aware=Yes (0): the exact bin carries
	// the full count.
	for _, ce := range out.Choices {
		if ce.QuestionID == "aware" && ce.Estimated[0] != 6 {
			t.Errorf("aware estimates = %v", ce.Estimated)
		}
	}
}

func TestQualityEndpoint(t *testing.T) {
	ts, st := newTestServer(t)
	sv := survey.Health() // has a cough-days consistency pair
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	good := &survey.Response{
		SurveyID: sv.ID, WorkerID: "w1", PrivacyLevel: "none",
		Answers: []survey.Answer{
			survey.ChoiceAnswer("smoking", 0),
			survey.NumericAnswer("cough-days", 2),
			survey.NumericAnswer("cough-days-2", 2),
		},
	}
	badResp := &survey.Response{
		SurveyID: sv.ID, WorkerID: "w2", PrivacyLevel: "none",
		Answers: []survey.Answer{
			survey.ChoiceAnswer("smoking", 0),
			survey.NumericAnswer("cough-days", 0),
			survey.NumericAnswer("cough-days-2", 7),
		},
	}
	if err := st.AppendResponse(good); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(badResp); err != nil {
		t.Fatal(err)
	}

	url := ts.URL + "/api/v1/surveys/" + sv.ID + "/quality"
	resp, _ := doReq(t, http.MethodGet, url, nil, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("quality without token = %d", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, url, nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quality = %d", resp.StatusCode)
	}
	var out QualityResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 2 || out.Consistent != 1 || out.Inconsistent != 1 {
		t.Errorf("quality = %+v", out)
	}
	if out.PerLevelInconsistent[0] != 1 {
		t.Errorf("per-level = %v", out.PerLevelInconsistent)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/ghost/quality", nil, testToken)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost quality = %d", resp.StatusCode)
	}
}

func TestQualitySlackForObfuscated(t *testing.T) {
	ts, st := newTestServer(t)
	sv := survey.Health()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	// An obfuscated response whose pair differs by 4 — would fail raw
	// (tolerance 1) but passes with 3σ slack at high (σ=2·(7/4)=3.5
	// scaled; slack uses the reference σ 2 → 6).
	noisy := &survey.Response{
		SurveyID: sv.ID, WorkerID: "w1", PrivacyLevel: "high", Obfuscated: true,
		Answers: []survey.Answer{
			survey.ChoiceAnswer("smoking", 1),
			survey.NumericAnswer("cough-days", 1.5),
			survey.NumericAnswer("cough-days-2", 5.5),
		},
	}
	if err := st.AppendResponse(noisy); err != nil {
		t.Fatal(err)
	}
	_, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/"+sv.ID+"/quality", nil, testToken)
	var out QualityResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Consistent != 1 {
		t.Errorf("noisy-but-honest response flagged: %+v", out)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := doReq(t, http.MethodDelete, ts.URL+"/api/v1/surveys", nil, "")
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("DELETE succeeded: %d", resp.StatusCode)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	ts, st := newTestServer(t)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := validResponse("medium", true)
				r.WorkerID = fmt.Sprintf("w%d-%d", g, i)
				resp, _ := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), r, "")
				if resp.StatusCode != http.StatusCreated {
					errs <- fmt.Errorf("worker %d submit %d: HTTP %d", g, i, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := st.ResponseCount(survey.AwarenessID); got != workers*each {
		t.Fatalf("stored %d responses, want %d", got, workers*each)
	}
}
