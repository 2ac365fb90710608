package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// testdata/parent_surveys.log was written by 2e60c1f, the commit before
// survey records went binary, by running TestWriteParentSurveyFixture in
// a git archive export of it (LOKI_FIXTURE_OUT set): surveyScript's
// JSON survey and republish records between binary response records.
// testdata/parent_surveys.want.json is what that commit served from the
// log after a reopen — every definition, response count and survey
// history, publish timestamps included — as surveyState renders it.

// surveyState is everything a store serves about its surveys.
type surveyState struct {
	Surveys   []*survey.Survey           `json:"surveys"`
	Responses map[string]int             `json:"responses"`
	History   map[string][]SurveyVersion `json:"history"`
}

func stateOf(t *testing.T, st Store) []byte {
	t.Helper()
	svs, err := st.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	s := surveyState{Surveys: svs, Responses: map[string]int{}, History: map[string][]SurveyVersion{}}
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

// surveyScript publishes two surveys, answers both, republishes one to a
// definition its earlier responses do not validate under (and then to
// the same definition again, which is no new version) and the other
// with a new reward, answering each version.
func surveyScript(t *testing.T, st Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.PutSurvey(republishSurveyV1()))
	must(st.PutSurvey(sampleSurvey()))
	for i := 0; i < 3; i++ {
		must(st.AppendResponse(v1Response(i)))
	}
	_, err := st.AppendResponses([]survey.Response{*sampleResponse("w1"), *sampleResponse("w2")})
	must(err)
	must(st.ReplaceSurvey(republishSurveyV2()))
	must(st.AppendResponse(v2Response(3)))
	must(st.ReplaceSurvey(republishSurveyV2()))
	must(st.AppendResponse(v2Response(4)))
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
	path := filepath.Join(out, "parent_surveys.log")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	surveyScript(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.WriteFile(filepath.Join(out, "parent_surveys.want.json"), stateOf(t, st), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentSurveyFixture: the parent-written log opens to exactly what
// the parent served from it, history timestamps included, and the
// responses logged before each republish replay against the definition
// they were validated under. A republish this tree logs (binary) lands
// behind the parent's JSON records and replays as one more version.
func TestParentSurveyFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_surveys.want.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := copyFixture(t, "parent_surveys.log")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatalf("parent-written log does not open: %v", err)
	}
	if got := stateOf(t, st); !bytes.Equal(got, want) {
		t.Fatalf("the parent's log opens to\n%s\nthe parent served\n%s", got, want)
	}
	v3 := republishSurveyV2()
	v3.Questions = v3.Questions[1:]
	if err := st.ReplaceSurvey(v3); err != nil {
		t.Fatal(err)
	}
	r := v2Response(5)
	r.Answers = r.Answers[1:]
	if err := st.AppendResponse(r); err != nil {
		t.Fatal(err)
	}
	before := st.SurveyHistory("repub")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenFile(path); err != nil {
		t.Fatalf("reopen after a binary republish: %v", err)
	}
	defer st.Close()
	var parent surveyState
	if err := json.Unmarshal(want, &parent); err != nil {
		t.Fatal(err)
	}
	h := st.SurveyHistory("repub")
	if len(h) != len(parent.History["repub"])+1 || h[len(h)-1].Fingerprint != v3.Fingerprint() {
		t.Fatalf("history after a binary republish: %+v", h)
	}
	for i, v := range parent.History["repub"] {
		if h[i] != v || before[i] != v {
			t.Fatalf("version %d is %+v after the reopen (%+v before it), the parent's %+v", i, h[i], before[i], v)
		}
	}
	if h[len(h)-1] != before[len(h)-1] {
		t.Fatalf("the binary republish replays as %+v, was %+v", h[len(h)-1], before[len(h)-1])
	}
	if got := st.ResponseCount("repub"); got != parent.Responses["repub"]+1 {
		t.Fatalf("%d responses after the reopen, want %d", got, parent.Responses["repub"]+1)
	}
}

// TestSurveyRecordDowngrade: a binary survey record is what a reader
// from before it refuses, with the error README quotes. That reader
// replays every payload not led by the response tag as a JSON record,
// which is all this test runs it through; the full check opens a copy
// of a log this tree wrote with that commit's code.
func TestSurveyRecordDowngrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gshard-000.log")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurvey(republishSurveyV1()); err != nil {
		t.Fatal(err)
	}
	if err := st.ReplaceSurvey(republishSurveyV2()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	records := 0
	err = blockio.ReplayFile(path, false, func(p []byte) error {
		records++
		if p[0] != survey.SurveyBinaryTag {
			return fmt.Errorf("a survey record starts %#x", p[0])
		}
		err := json.Unmarshal(p, new(record))
		if want := "invalid character '´' looking for beginning of value"; err == nil || err.Error() != want {
			return fmt.Errorf("a JSON reader gives %v, README quotes %q", err, want)
		}
		return nil
	})
	if err != nil || records != 2 {
		t.Fatalf("%d records: %v", records, err)
	}
}
