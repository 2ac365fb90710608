package store

import (
	"errors"
	"path/filepath"
	"testing"

	"loki/internal/survey"
)

// scanTest exercises the ScanResponses contract against any
// implementation.
func scanTest(t *testing.T, st Store) {
	t.Helper()
	sv := sampleSurvey()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	for _, w := range workers {
		if err := st.AppendResponse(sampleResponse(w)); err != nil {
			t.Fatal(err)
		}
	}

	// Full scan: seq 1..n in append order.
	var seqs []uint64
	var got []string
	err := st.ScanResponses(sv.ID, 0, func(seq uint64, r *survey.Response) error {
		seqs = append(seqs, seq)
		got = append(got, r.WorkerID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(workers) {
		t.Fatalf("scanned %d responses, want %d", len(seqs), len(workers))
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, seqs[i], i+1)
		}
		if got[i] != workers[i] {
			t.Fatalf("worker[%d] = %q, want %q", i, got[i], workers[i])
		}
	}

	// Resumption: fromSeq k yields exactly the tail after k.
	var tail []string
	if err := st.ScanResponses(sv.ID, 3, func(_ uint64, r *survey.Response) error {
		tail = append(tail, r.WorkerID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0] != "w4" || tail[1] != "w5" {
		t.Fatalf("tail after seq 3 = %v", tail)
	}

	// A cursor at (or past) the end yields nothing.
	for _, from := range []uint64{5, 99} {
		calls := 0
		if err := st.ScanResponses(sv.ID, from, func(uint64, *survey.Response) error {
			calls++
			return nil
		}); err != nil || calls != 0 {
			t.Fatalf("scan from %d: %d calls, err %v", from, calls, err)
		}
	}

	// fn errors abort the scan and surface verbatim.
	boom := errors.New("boom")
	calls := 0
	err = st.ScanResponses(sv.ID, 0, func(uint64, *survey.Response) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("aborting scan: %d calls, err %v", calls, err)
	}

	// Unknown surveys are refused.
	if err := st.ScanResponses("ghost", 0, func(uint64, *survey.Response) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown survey scan: %v", err)
	}

	// CollectResponses agrees with the scan.
	rs, err := CollectResponses(st, sv.ID)
	if err != nil || len(rs) != len(workers) {
		t.Fatalf("Responses: %d, %v", len(rs), err)
	}
	for i := range rs {
		if rs[i].WorkerID != workers[i] {
			t.Fatalf("Responses[%d] = %q, want %q", i, rs[i].WorkerID, workers[i])
		}
	}
}

func TestMemScanResponses(t *testing.T) {
	st := NewMem()
	defer st.Close()
	scanTest(t, st)
}

func TestFileScanResponses(t *testing.T) {
	st, err := OpenFile(filepath.Join(t.TempDir(), "loki.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	scanTest(t, st)
}

// TestFileScanSeqStableAcrossReopen checks that sequence numbers — and
// therefore saved cursors — survive a restart of the durable store.
func TestFileScanSeqStableAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		if err := st.AppendResponse(sampleResponse(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var tail []string
	if err := st2.ScanResponses(survey.LecturerID, 2, func(_ uint64, r *survey.Response) error {
		tail = append(tail, r.WorkerID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0] != "w3" {
		t.Fatalf("resumed tail after reopen = %v", tail)
	}
}

// TestSurveyReturnsCopy is the interior-pointer regression test: a
// caller mutating the survey a store hands out — directly or through
// the shared Questions slice — must not corrupt the stored definition.
func TestSurveyReturnsCopy(t *testing.T) {
	st := NewMem()
	defer st.Close()
	if _, err := st.Publish(sampleSurvey()); err != nil {
		t.Fatal(err)
	}

	got, err := st.Survey(survey.LecturerID)
	if err != nil {
		t.Fatal(err)
	}
	got.Title = "defaced"
	got.Questions[0].Text = "defaced"
	got.Questions[0].ScaleMax = 99

	again, err := st.Survey(survey.LecturerID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Title == "defaced" || again.Questions[0].Text == "defaced" || again.Questions[0].ScaleMax == 99 {
		t.Fatal("Survey leaked interior pointers into the stored definition")
	}

	all, err := st.Surveys()
	if err != nil || len(all) != 1 {
		t.Fatalf("Surveys: %d, %v", len(all), err)
	}
	all[0].Questions[0].Text = "defaced-via-list"
	again, _ = st.Survey(survey.LecturerID)
	if again.Questions[0].Text == "defaced-via-list" {
		t.Fatal("Surveys leaked interior pointers into the stored definition")
	}
}
