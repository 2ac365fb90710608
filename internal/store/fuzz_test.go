package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the file store's replay path: it
// must never panic, and whenever it opens successfully the store must be
// usable. Run with `go test -fuzz=FuzzReplay ./internal/store` to
// explore; plain `go test` exercises the seed corpus.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"kind":"survey"}` + "\n"))
	f.Add([]byte(`{"kind":"response"}` + "\n"))
	f.Add([]byte(`{"kind":"mystery","x":1}` + "\n"))
	f.Add([]byte(`{"kind":"survey","survey":{"id":"s","title":"t","questions":[{"id":"q","text":"t","kind":0,"scale_min":1,"scale_max":5}],"reward_cents":0}}` + "\n"))
	f.Add([]byte(`{"kind":"survey","survey":{"id":"s"` /* truncated, no newline */))
	f.Add([]byte("not json at all\n{\"kind\":\"survey\"}\n"))
	// A block log: a binary survey record and a binary response record.
	seed := filepath.Join(f.TempDir(), "seed.log")
	st, err := OpenFileWith(seed, FileOptions{Sync: SyncAlways})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.PutSurvey(sampleSurvey()); err != nil {
		f.Fatal(err)
	}
	if err := st.AppendResponse(sampleResponse("w")); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	binLog, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(binLog)
	// A parent-written block log: JSON survey and republish records.
	parentLog, err := os.ReadFile(filepath.Join("testdata", "parent_surveys.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parentLog)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenFile(path)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// An opened store must serve reads and accept a close.
		if _, err := st.Surveys(); err != nil {
			t.Errorf("opened store cannot list surveys: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("opened store cannot close: %v", err)
		}
	})
}
