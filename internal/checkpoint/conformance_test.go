package checkpoint

import (
	"path/filepath"
	"sort"
	"testing"

	"loki/internal/blockio"
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

func TestSurveyFileLogConformance(t *testing.T) {
	sv := testSurvey()
	rec := record(t, sv, 3)
	for _, codec := range []string{blockio.CodecJSON, blockio.CodecBinary} {
		t.Run(codec, func(t *testing.T) {
			logtest.Run(t, logtest.User{
				LogFile: func(dir string) string { return filepath.Join(dir, surveysDir, surveyFileName(sv.ID)) },
				Open: func(dir string) (logtest.Store, error) {
					l, err := OpenWith(dir, Options{Codec: codec})
					return fileUser{l, *rec}, err
				},
				Compact: func(st logtest.Store) error {
					l := st.(fileUser).Log
					l.mu.Lock() // files open lazily, and Compact rewrites only open ones
					_, err := l.ensureFileLocked(sv.ID)
					l.mu.Unlock()
					if err != nil {
						return err
					}
					return l.Compact()
				},
			})
		})
	}
}
