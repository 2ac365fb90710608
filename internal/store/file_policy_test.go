package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"loki/internal/survey"
)

// TestFileSyncPolicies: the one policy accepts appends, survives a clean
// close, and replays in full.
func TestFileSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts FileOptions
	}{
		{"always", FileOptions{Sync: SyncAlways}},
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
// before it — in a block log, and in a JSON-lines log, which the open
// also converts.
func TestFileTornBatchTail(t *testing.T) {
	for _, arm := range []string{"blocks", "json lines"} {
		t.Run(arm, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "loki.log")
			st, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutSurvey(sampleSurvey()); err != nil {
				t.Fatal(err)
			}
			var lastStart int // where the last commit starts
			for i := 0; i < 3; i++ {
				if fi, err := os.Stat(path); err == nil {
					lastStart = int(fi.Size())
				}
				if err := st.AppendResponse(sampleResponse("w")); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if arm == "json lines" {
				toJSONLines(t, path)
			}
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if arm == "json lines" {
				lastStart = bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1
			}
			for cut := lastStart + 1; cut < len(whole); cut++ {
				truncated := filepath.Join(t.TempDir(), "torn.log")
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
		})
	}
}

// TestOpenFileWithRejectsUnknownPolicy guards the policy enum.
func TestOpenFileWithRejectsUnknownPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	for _, p := range []SyncPolicy{1, 2, 42} { // 1 and 2 were the retired interval and never
		if _, err := OpenFileWith(path, FileOptions{Sync: p}); err == nil {
			t.Fatalf("sync policy %d accepted", p)
		}
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
