package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"loki/internal/survey"
)

func sampleSurvey() *survey.Survey {
	return survey.Lecturers([]string{"A", "B"})
}

func sampleResponse(worker string) *survey.Response {
	return &survey.Response{
		SurveyID: survey.LecturerID,
		WorkerID: worker,
		Answers: []survey.Answer{
			survey.RatingAnswer("lecturer-00", 4),
			survey.RatingAnswer("lecturer-01", 3),
		},
		PrivacyLevel: "medium",
		Obfuscated:   true,
	}
}

// storeTest exercises the Store contract against any implementation.
func storeTest(t *testing.T, st Store) {
	t.Helper()
	sv := sampleSurvey()
	if o, err := st.Publish(sv); err != nil || o != Created {
		t.Fatalf("first publish: %v, %v", o, err)
	}
	if o, err := st.Publish(sv); err != nil || o != Unchanged {
		t.Fatalf("identical republish: %v, %v", o, err)
	}
	bad := &survey.Survey{ID: "bad"}
	if o, err := st.Publish(bad); err == nil || o != Unchanged {
		t.Fatalf("invalid survey: %v, %v", o, err)
	}

	got, err := st.Survey(sv.ID)
	if err != nil || got.ID != sv.ID {
		t.Fatalf("Survey: %v, %v", got, err)
	}
	if _, err := st.Survey("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing survey: %v", err)
	}
	all, err := st.Surveys()
	if err != nil || len(all) != 1 {
		t.Fatalf("Surveys: %d, %v", len(all), err)
	}

	if err := st.AppendResponse(sampleResponse("w1")); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(sampleResponse("w2")); err != nil {
		t.Fatal(err)
	}
	orphan := sampleResponse("w3")
	orphan.SurveyID = "ghost"
	if err := st.AppendResponse(orphan); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan response: %v", err)
	}
	invalid := sampleResponse("w4")
	invalid.Answers = invalid.Answers[:1]
	if err := st.AppendResponse(invalid); err == nil {
		t.Fatal("incomplete response stored")
	}

	rs, err := CollectResponses(st, sv.ID)
	if err != nil || len(rs) != 2 {
		t.Fatalf("CollectResponses: %d, %v", len(rs), err)
	}
	if rs[0].WorkerID != "w1" || rs[1].WorkerID != "w2" {
		t.Fatal("append order lost")
	}
	if _, err := CollectResponses(st, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing responses: %v", err)
	}
	if st.ResponseCount(sv.ID) != 2 || st.ResponseCount("ghost") != 0 {
		t.Fatal("ResponseCount wrong")
	}

	// The returned slice must be a copy.
	rs[0].WorkerID = "tampered"
	rs2, _ := CollectResponses(st, sv.ID)
	if rs2[0].WorkerID == "tampered" {
		t.Fatal("CollectResponses leaked internal state")
	}
}

func TestMemStore(t *testing.T) {
	st := NewMem()
	storeTest(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(sampleSurvey()); err == nil {
		t.Fatal("use after close accepted")
	}
	if err := st.AppendResponse(sampleResponse("w")); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestMemStoreSurveyCopied(t *testing.T) {
	st := NewMem()
	sv := sampleSurvey()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	sv.Title = "mutated"
	got, _ := st.Survey(survey.LecturerID)
	if got.Title == "mutated" {
		t.Fatal("Publish did not copy")
	}
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	storeTest(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if _, err := st.Publish(sampleSurvey()); err == nil {
		t.Fatal("use after close accepted")
	}

	// Reopen: replay restores everything.
	st2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.ResponseCount(survey.LecturerID) != 2 {
		t.Fatalf("replay lost responses: %d", st2.ResponseCount(survey.LecturerID))
	}
	sv, err := st2.Survey(survey.LecturerID)
	if err != nil || len(sv.Questions) != 2 {
		t.Fatalf("replay lost survey: %v", err)
	}
	// And the store still accepts appends.
	if err := st2.AppendResponse(sampleResponse("w9")); err != nil {
		t.Fatal(err)
	}
}

func TestFileStorePartialTrailingRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(sampleResponse("w1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The same history as a JSON-lines log, whose last append crashed
	// midway: a partial record with no newline.
	toJSONLines(t, path)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"response","resp`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("partial trailing record broke open: %v", err)
	}
	defer st2.Close()
	if st2.ResponseCount(survey.LecturerID) != 1 {
		t.Fatalf("responses after recovery = %d", st2.ResponseCount(survey.LecturerID))
	}
	// The partial record was truncated away and the log converted to
	// blocks; appends resume cleanly.
	if err := st2.AppendResponse(sampleResponse("w2")); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.ResponseCount(survey.LecturerID) != 2 {
		t.Fatalf("post-recovery append lost: %d", st3.ResponseCount(survey.LecturerID))
	}
}

func TestFileStoreCorruptInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	if err := os.WriteFile(path, []byte("this is not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("corrupt interior line accepted")
	}
}

func TestFileStoreUnknownKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	if err := os.WriteFile(path, []byte(`{"kind":"mystery"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("unknown record kind accepted")
	}
}

func TestFileStoreMissingPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	if err := os.WriteFile(path, []byte(`{"kind":"survey"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("survey record without payload accepted")
	}
}

func TestFileStoreBadDirectory(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing", "loki.jsonl")); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

func TestConcurrentAppends(t *testing.T) {
	for _, mk := range []func(t *testing.T) Store{
		func(t *testing.T) Store { return NewMem() },
		func(t *testing.T) Store {
			st, err := OpenFile(filepath.Join(t.TempDir(), "c.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	} {
		st := mk(t)
		if _, err := st.Publish(sampleSurvey()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := st.AppendResponse(sampleResponse("w")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := st.ResponseCount(survey.LecturerID); got != 160 {
			t.Fatalf("concurrent appends lost data: %d", got)
		}
		st.Close()
	}
}
