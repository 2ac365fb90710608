package store

import (
	"os"
	"path/filepath"
	"testing"

	"loki/internal/survey"
)

func republishSurveyV1() *survey.Survey {
	return &survey.Survey{
		ID:    "repub",
		Title: "Republish test",
		Questions: []survey.Question{
			{ID: "q0", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
		},
		RewardCents: 1,
	}
}

// republishSurveyV2 adds a question, so v1-era responses do not validate
// under it — which is exactly what makes replay order matter.
func republishSurveyV2() *survey.Survey {
	sv := republishSurveyV1()
	sv.Title = "Republish test v2"
	sv.Questions = append(sv.Questions, survey.Question{
		ID: "q1", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5,
	})
	return sv
}

func v1Response(i int) *survey.Response {
	return &survey.Response{
		SurveyID: "repub",
		WorkerID: "w",
		Answers:  []survey.Answer{survey.ChoiceAnswer("q0", i%2)},
	}
}

func v2Response(i int) *survey.Response {
	r := v1Response(i)
	r.Answers = append(r.Answers, survey.RatingAnswer("q1", float64(1+i%5)))
	return r
}

func TestMemReplaceSurvey(t *testing.T) {
	st := NewMem()
	defer st.Close()
	if _, err := st.Publish(republishSurveyV1()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(v1Response(0)); err != nil {
		t.Fatal(err)
	}
	if o, err := st.Publish(republishSurveyV2()); err != nil || o != Replaced {
		t.Fatalf("changed definition: %v, %v", o, err)
	}
	sv, err := st.Survey("repub")
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Questions) != 2 {
		t.Fatalf("definition not replaced: %d questions", len(sv.Questions))
	}
	// Old responses stay; new ones validate against v2.
	if st.ResponseCount("repub") != 1 {
		t.Fatal("replace dropped responses")
	}
	if err := st.AppendResponse(v1Response(1)); err == nil {
		t.Fatal("v1-shaped response accepted under v2")
	}
	if err := st.AppendResponse(v2Response(1)); err != nil {
		t.Fatal(err)
	}
	// A fresh ID is created whatever came before.
	fresh := republishSurveyV1()
	fresh.ID = "fresh"
	if o, err := st.Publish(fresh); err != nil || o != Created {
		t.Fatalf("fresh ID: %v, %v", o, err)
	}
	if _, err := st.Survey("fresh"); err != nil {
		t.Fatal(err)
	}
}

// TestFileReplaceSurveyReplay: a republish in the middle of the log must
// replay — responses appended before it validate against the definition
// in effect when they were appended, not the final one.
func TestFileReplaceSurveyReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(republishSurveyV1()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.AppendResponse(v1Response(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Publish(republishSurveyV2()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(v2Response(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("replay with republish record failed: %v", err)
	}
	defer st2.Close()
	sv, err := st2.Survey("repub")
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Questions) != 2 || sv.Title != "Republish test v2" {
		t.Fatalf("replayed definition = %q with %d questions, want v2", sv.Title, len(sv.Questions))
	}
	if got := st2.ResponseCount("repub"); got != 4 {
		t.Fatalf("replayed %d responses, want 4", got)
	}
	// Sequence numbers stay stable across the republish.
	var seqs []uint64
	err = st2.ScanResponses("repub", 0, func(seq uint64, _ *survey.Response) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seq %d at position %d", seq, i)
		}
	}
}

// TestPublishUnchangedWritesNothing: an identical republish is decided
// by a field compare against the held definition. It allocates nothing
// and leaves a File's log as it was.
func TestPublishUnchangedWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.log")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for name, st := range map[string]Store{"mem": NewMem(), "file": fs} {
		sv := republishSurveyV1()
		if o, err := st.Publish(sv); err != nil || o != Created {
			t.Fatalf("%s: first publish: %v, %v", name, o, err)
		}
		size := fileSize(t, path)
		allocs := testing.AllocsPerRun(50, func() {
			if o, err := st.Publish(sv); err != nil || o != Unchanged {
				t.Fatalf("%s: identical republish: %v, %v", name, o, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: an identical republish allocates %v times", name, allocs)
		}
		if got := fileSize(t, path); got != size {
			t.Errorf("%s: an identical republish grew the log from %d to %d bytes", name, size, got)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
