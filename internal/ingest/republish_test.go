package ingest

import (
	"testing"

	"loki/internal/survey"
)

// TestReplaceSurveyReplay: the meta log replays last-wins per survey ID,
// so a republished definition survives a restart while the response
// stream (and its sequence numbers) stays intact.
func TestReplaceSurveyReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1 := &survey.Survey{
		ID:    "repub",
		Title: "Republish test",
		Questions: []survey.Question{
			{ID: "q0", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
		},
		RewardCents: 1,
	}
	if _, err := s.Publish(v1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := &survey.Response{
			SurveyID: "repub", WorkerID: "w",
			Answers: []survey.Answer{survey.ChoiceAnswer("q0", i%2)},
		}
		if err := s.AppendResponse(r); err != nil {
			t.Fatal(err)
		}
	}
	v2 := v1.Clone()
	v2.Title = "Republish test v2"
	v2.Questions[0].Options = []string{"a", "b", "c"}
	if _, err := s.Publish(v2); err != nil {
		t.Fatal(err)
	}
	if sv, _ := s.Survey("repub"); len(sv.Questions[0].Options) != 3 {
		t.Fatalf("definition not replaced: %+v", sv.Questions[0].Options)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{Shards: 2})
	if err != nil {
		t.Fatalf("reopen after republish failed: %v", err)
	}
	defer s2.Close()
	sv, err := s2.Survey("repub")
	if err != nil {
		t.Fatal(err)
	}
	if sv.Title != "Republish test v2" || len(sv.Questions[0].Options) != 3 {
		t.Fatalf("replayed definition = %q / %v, want v2", sv.Title, sv.Questions[0].Options)
	}
	if got := s2.ResponseCount("repub"); got != 3 {
		t.Fatalf("replayed %d responses, want 3", got)
	}
}
