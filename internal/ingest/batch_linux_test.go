//go:build linux

package ingest

// store.BatchAppender is one contract with two durable implementations;
// this runs ingest.Sharded and store.File through the same script,
// including the same injected I/O failure, and requires the same
// answers. Linux only: the failure is injected from outside either
// store by swapping the log's file descriptor for a read-only one.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"syscall"
	"testing"

	"loki/internal/store"
	"loki/internal/survey"
)

// breakWrites makes every write through this process's descriptors for
// path fail with EBADF, by duplicating a read-only /dev/null over them.
// Unlike closing the descriptor it keeps the number occupied, so no
// later open can be handed it and receive the store's writes.
func breakWrites(t *testing.T, path string) {
	t.Helper()
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	broken := 0
	for _, e := range fds {
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err != nil || target != path {
			continue
		}
		if err := syscall.Dup3(int(null.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		broken++
	}
	if broken == 0 {
		t.Fatalf("no open descriptor for %s", path)
	}
}

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
			breakWrites(t, impl.logPath())
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
