package store

import (
	"bytes"
	"path/filepath"
	"strconv"
	"testing"

	"loki/internal/logtest"
	"loki/internal/survey"
)

// fileUser plugs File into the shared Log conformance suite: record i
// is a response from worker "i".
type fileUser struct{ *File }

func (u fileUser) Put(i int) error { return u.AppendResponse(sampleResponse(strconv.Itoa(i))) }

func (u fileUser) Records() []int {
	var out []int
	_ = u.ScanResponses(sampleSurvey().ID, 0, func(_ uint64, r *survey.Response) error {
		i, _ := strconv.Atoi(r.WorkerID)
		out = append(out, i)
		return nil
	})
	return out
}

// TestFileLogConformance runs the suite on a store log written through
// File ("binary") and on one that began as a JSON-lines log ("json").
func TestFileLogConformance(t *testing.T) {
	for _, arm := range []string{"json", "binary"} {
		t.Run(arm, func(t *testing.T) {
			path := func(dir string) string { return filepath.Join(dir, "loki.log") }
			u := logtest.User{
				LogFile: path,
				Open: func(dir string) (logtest.Store, error) {
					fs, err := OpenFile(path(dir))
					if err != nil {
						return nil, err
					}
					if _, err := fs.Publish(sampleSurvey()); err != nil {
						return nil, err
					}
					return fileUser{fs}, nil
				},
			}
			if arm == "json" {
				u.Imported = jsonRecord
			}
			logtest.Run(t, u)
		})
	}
}

// TestFileHistorySurvivesReopen: a reopened File serves the surveys,
// counts and republish history, publish times included, that it served
// before: replay applies each survey record the way the live publish
// that logged it did.
func TestFileHistorySurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.log")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	surveyScript(t, st)
	before := stateOf(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if after := stateOf(t, st); !bytes.Equal(after, before) {
		t.Fatalf("before the reopen\n%s\nafter it\n%s", before, after)
	}
}
