package checkpoint

import (
	"path/filepath"
	"sort"
	"testing"

	"loki/internal/logtest"
)

// fileUser plugs one survey's checkpoint file into the shared Log
// conformance suite: record i is the survey's shard-i checkpoint.
type fileUser struct {
	*Log
	rec Record
}

func (u fileUser) Put(i int) error {
	rec := u.rec
	rec.Shard, rec.ShardCount = i, 64
	return u.Log.Put(&rec)
}

func (u fileUser) Records() []int {
	var out []int
	for _, rec := range u.Log.Records() {
		out = append(out, rec.Shard)
	}
	sort.Ints(out)
	return out
}

// TestSurveyFileLogConformance runs the suite on a survey file written
// through Put ("binary") and on one that began as a JSON-lines file
// ("json"). Files open lazily, at their survey's first Put; the suite's
// store opens its one file eagerly, as that Put would, so the JSON-lines
// file converts when the store opens.
func TestSurveyFileLogConformance(t *testing.T) {
	sv := testSurvey()
	rec := record(t, sv, 3)
	for _, arm := range []string{"json", "binary"} {
		t.Run(arm, func(t *testing.T) {
			u := logtest.User{
				LogFile: func(dir string) string { return filepath.Join(dir, surveysDir, surveyFileName(sv.ID)) },
				Open: func(dir string) (logtest.Store, error) {
					l, err := Open(dir)
					if err != nil {
						return nil, err
					}
					l.mu.Lock()
					_, err = l.ensureFileLocked(sv.ID)
					l.mu.Unlock()
					return fileUser{l, *rec}, err
				},
				Compact: func(st logtest.Store) error { return st.(fileUser).Compact() },
			}
			if arm == "json" {
				u.Imported = func(p []byte) ([]byte, error) { return p, nil }
			}
			logtest.Run(t, u)
		})
	}
}
