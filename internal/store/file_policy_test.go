package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"loki/internal/survey"
)

// TestFileSyncPolicies: every policy accepts appends, survives a clean
// close, and replays in full.
func TestFileSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts FileOptions
	}{
		{"always", FileOptions{Sync: SyncAlways}},
		{"interval", FileOptions{Sync: SyncInterval, Interval: 5 * time.Millisecond}},
		{"never", FileOptions{Sync: SyncNever}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "loki.jsonl")
			st, err := OpenFileWith(path, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutSurvey(sampleSurvey()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := st.AppendResponse(sampleResponse("w")); err != nil {
					t.Fatal(err)
				}
			}
			if tc.opts.Sync == SyncInterval {
				// Let the flusher run at least once while appends exist.
				time.Sleep(3 * tc.opts.Interval)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if n := st2.ResponseCount(survey.LecturerID); n != 10 {
				t.Fatalf("replay lost responses: %d, want 10", n)
			}
		})
	}
}

// TestFileSyncAlwaysDataOnDisk: under SyncAlways an acknowledged append
// is visible in the file before Close — the crash-durability contract.
// (A test cannot crash the kernel, but it can check nothing lingers in
// user-space buffers.)
func TestFileSyncAlwaysDataOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutSurvey(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(sampleResponse("w1")); err != nil {
		t.Fatal(err)
	}
	// Without closing, a second reader must see both records.
	st2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := st2.ResponseCount(survey.LecturerID); n != 1 {
		t.Fatalf("acknowledged append not on disk: %d responses", n)
	}
}

// TestFileTornBatchTail: a crash can persist any byte prefix of the last
// append; every prefix must recover to exactly the acknowledged records
// before it.
func TestFileTornBatchTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurvey(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.AppendResponse(sampleResponse("w")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the last record.
	lastStart := 0
	for i := 0; i < len(whole)-1; i++ {
		if whole[i] == '\n' {
			lastStart = i + 1
		}
	}
	for cut := lastStart + 1; cut < len(whole); cut++ {
		truncated := filepath.Join(t.TempDir(), "torn.jsonl")
		if err := os.WriteFile(truncated, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenFile(truncated)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if n := st2.ResponseCount(survey.LecturerID); n != 2 {
			t.Fatalf("cut at %d: %d responses, want 2", cut, n)
		}
		st2.Close()
	}
}

// TestOpenFileWithRejectsUnknownPolicy guards the policy enum.
func TestOpenFileWithRejectsUnknownPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	if _, err := OpenFileWith(path, FileOptions{Sync: SyncPolicy(42)}); err == nil {
		t.Fatal("unknown sync policy accepted")
	}
}

// TestFileFailedAppendIsStickyAndInvisible: after an append-path I/O
// failure the record must not be visible to reads (log-before-index) and
// the store must refuse further appends rather than risk acknowledging
// writes a post-error fsync can no longer guarantee.
func TestFileFailedAppendIsStickyAndInvisible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurvey(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(sampleResponse("w1")); err != nil {
		t.Fatal(err)
	}
	// Sabotage the fd so the next flush/fsync fails.
	if err := st.log.File().Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(sampleResponse("w2")); err == nil {
		t.Fatal("append on dead fd succeeded")
	}
	if n := st.ResponseCount(survey.LecturerID); n != 1 {
		t.Fatalf("failed append visible to reads: %d responses", n)
	}
	if err := st.AppendResponse(sampleResponse("w3")); err == nil {
		t.Fatal("append after sticky failure succeeded")
	}
	if err := st.Close(); err == nil {
		t.Fatal("close after sticky failure reported success")
	}
}
