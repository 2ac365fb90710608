//go:build linux

package ingest

// store.BatchAppender is one contract with two durable implementations;
// this runs ingest.Sharded and store.File through the same script,
// including the same injected I/O failure, and requires the same
// answers. Linux only: the failure is injected from outside either
// store by swapping the log's file descriptor for a read-only one
// (logtest.BreakWrites, which the per-Log conformance suite shares).

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/logtest"
	"loki/internal/store"
	"loki/internal/survey"
)

func TestBatchAppenderMatchesFileStore(t *testing.T) {
	ingestDir := t.TempDir()
	filePath := filepath.Join(t.TempDir(), "loki.jsonl")
	impls := []struct {
		name    string
		open    func() (store.Store, error)
		logPath func() string // the file appends go to
	}{
		{"file", func() (store.Store, error) { return store.OpenFile(filePath) },
			func() string { return filePath }},
		{"ingest", func() (store.Store, error) { return Open(ingestDir, testConfig(8)) },
			func() string { return newestSegment(t, ingestDir) }},
	}
	a, b := benchSurvey(0), benchSurvey(1)
	batch := []survey.Response{
		*benchResponse(a.ID, "w1"), *benchResponse(b.ID, "w2"),
		*benchResponse(a.ID, "w3"), *benchResponse(a.ID, "w4"), *benchResponse(b.ID, "w5"),
	}
	wantCounts := []int{1, 1, 2, 3, 2}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			st, err := impl.open()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ba := st.(store.BatchAppender)
			for _, sv := range []*survey.Survey{a, b} {
				if err := st.PutSurvey(sv); err != nil {
					t.Fatal(err)
				}
			}
			// A batch with one bad record is rejected whole.
			bad := append(append([]survey.Response(nil), batch...), *benchResponse("ghost", "w6"))
			if counts, err := ba.AppendResponses(bad); !errors.Is(err, store.ErrNotFound) || len(counts) != 0 {
				t.Fatalf("batch with an unknown survey: counts %v, err %v", counts, err)
			}
			if n := st.ResponseCount(a.ID) + st.ResponseCount(b.ID); n != 0 {
				t.Fatalf("rejected batch stored %d records", n)
			}
			// Success: per-record stored counts, in batch order.
			counts, err := ba.AppendResponses(batch)
			if err != nil || !reflect.DeepEqual(counts, wantCounts) {
				t.Fatalf("counts %v (%v), want %v", counts, err, wantCounts)
			}
			// Injected failure: nothing of the batch is acknowledged or
			// visible, and the store refuses appends from then on.
			logtest.BreakWrites(t, impl.logPath())
			if counts, err := ba.AppendResponses(batch); err == nil || len(counts) != 0 {
				t.Fatalf("batch on a broken log: counts %v, err %v", counts, err)
			}
			if got := []int{st.ResponseCount(a.ID), st.ResponseCount(b.ID)}; !reflect.DeepEqual(got, []int{3, 2}) {
				t.Fatalf("failed batch visible to reads: counts %v, want [3 2]", got)
			}
			if counts, err := ba.AppendResponses(batch[:1]); err == nil || len(counts) != 0 {
				t.Fatalf("batch after the failure: counts %v, err %v", counts, err)
			}
			if err := st.AppendResponse(&batch[0]); err == nil {
				t.Fatal("single append after the failure succeeded")
			}
			if err := st.Close(); err == nil {
				t.Fatal("close after the failure reported success")
			}
			// What was acknowledged before the failure survives a reopen.
			st2, err := impl.open()
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if got := []int{st2.ResponseCount(a.ID), st2.ResponseCount(b.ID)}; !reflect.DeepEqual(got, []int{3, 2}) {
				t.Fatalf("after reopen: counts %v, want [3 2]", got)
			}
		})
	}
}
