package ingest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"loki/internal/store"
	"loki/internal/survey"
)

// testdata/parent_surveys_dir was written by 2e60c1f, the commit before
// survey records went binary, by running TestWriteParentSurveyFixture in
// a git archive export of it (LOKI_FIXTURE_OUT set): a meta log of JSON
// survey records — two publishes and three republishes, one of them
// unchanged — beside binary response segments. The file
// testdata/parent_surveys_dir.want.json is what that commit served from
// the directory after a reopen, as fxState renders it.

func fxSurvey(version int) *survey.Survey {
	sv := &survey.Survey{
		ID:    "repub",
		Title: "Republish test",
		Questions: []survey.Question{
			{ID: "q0", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
		},
		RewardCents: 1,
	}
	if version > 1 {
		sv.Title = "Republish test v2"
		sv.Questions = append(sv.Questions, survey.Question{
			ID: "q1", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5,
		})
		sv.Consistency = []survey.ConsistencyPair{{QuestionA: "q0", QuestionB: "q0"}}
	}
	return sv
}

func fxResponse(version, i int) *survey.Response {
	r := &survey.Response{SurveyID: "repub", WorkerID: "w", Answers: []survey.Answer{survey.ChoiceAnswer("q0", i%2)}}
	if version > 1 {
		r.Answers = append(r.Answers, survey.RatingAnswer("q1", float64(1+i%5)))
	}
	return r
}

// fxState renders everything st serves about its surveys: definitions,
// response counts and histories.
func fxState(t *testing.T, st store.Store) []byte {
	t.Helper()
	svs, err := st.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	s := struct {
		Surveys   []*survey.Survey                 `json:"surveys"`
		Responses map[string]int                   `json:"responses"`
		History   map[string][]store.SurveyVersion `json:"history"`
	}{svs, map[string]int{}, map[string][]store.SurveyVersion{}}
	for _, sv := range svs {
		s.Responses[sv.ID] = st.ResponseCount(sv.ID)
		s.History[sv.ID] = st.SurveyHistory(sv.ID)
	}
	b, err := json.MarshalIndent(&s, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// fxScript publishes two surveys, answers both, republishes one to a
// definition its earlier responses do not validate under (and then to
// the same definition again, which is no new version) and the other
// with a new reward, answering each version.
func fxScript(t *testing.T, st store.Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.PutSurvey(fxSurvey(1)))
	must(st.PutSurvey(sampleSurvey()))
	for i := 0; i < 3; i++ {
		must(st.AppendResponse(fxResponse(1, i)))
	}
	_, err := st.AppendResponses([]survey.Response{*sampleResponse("w1"), *sampleResponse("w2")})
	must(err)
	must(st.ReplaceSurvey(fxSurvey(2)))
	must(st.AppendResponse(fxResponse(2, 3)))
	must(st.ReplaceSurvey(fxSurvey(2)))
	must(st.AppendResponse(fxResponse(2, 4)))
	lect := sampleSurvey()
	lect.RewardCents++
	must(st.ReplaceSurvey(lect))
	must(st.AppendResponse(sampleResponse("w3")))
}

func TestWriteParentSurveyFixture(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("set LOKI_FIXTURE_OUT to (re)write the fixture with this commit's code")
	}
	dir := filepath.Join(out, "parent_surveys_dir")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, fixtureConfig())
	fxScript(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, fixtureConfig())
	defer s.Close()
	if err := os.WriteFile(dir+".want.json", fxState(t, s), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentSurveyFixture: the parent-written directory opens to exactly
// what the parent served from it, history timestamps included. A
// republish this tree logs (binary) lands behind the parent's JSON
// records and replays as one more version, and the parent's versions
// keep their timestamps.
func TestParentSurveyFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_surveys_dir.want.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_surveys_dir"), dir)
	s := openTest(t, dir, fixtureConfig())
	if got := fxState(t, s); !bytes.Equal(got, want) {
		t.Fatalf("the parent's directory opens to\n%s\nthe parent served\n%s", got, want)
	}
	v3 := fxSurvey(2)
	v3.Title = "Republish test v3"
	if err := s.ReplaceSurvey(v3); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResponse(fxResponse(2, 5)); err != nil {
		t.Fatal(err)
	}
	before := s.SurveyHistory("repub")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, fixtureConfig())
	defer s.Close()
	h := s.SurveyHistory("repub")
	if len(h) != len(before) || h[len(h)-1].Fingerprint != v3.Fingerprint() {
		t.Fatalf("history after a binary republish: %+v, before the reopen %+v", h, before)
	}
	for i := range h {
		if h[i] != before[i] {
			t.Fatalf("version %d replays as %+v, was %+v", i, h[i], before[i])
		}
	}
	if sv, err := s.Survey("repub"); err != nil || !sv.Equal(v3) {
		t.Fatalf("the binary republish replays as %+v (%v)", sv, err)
	}
	if got := s.ResponseCount("repub"); got != 6 {
		t.Fatalf("%d responses after the reopen, want 6", got)
	}
}
