package store

import (
	"errors"
	"path/filepath"
	"strconv"
	"testing"

	"loki/internal/blockio"
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

func TestFileLogConformance(t *testing.T) {
	for _, codec := range []string{blockio.CodecJSON, blockio.CodecBinary} {
		t.Run(codec, func(t *testing.T) {
			path := func(dir string) string { return filepath.Join(dir, "loki.log") }
			logtest.Run(t, logtest.User{
				LogFile: path,
				Open: func(dir string) (logtest.Store, error) {
					fs, err := OpenFileWith(path(dir), FileOptions{Codec: codec})
					if err != nil {
						return nil, err
					}
					if err := fs.PutSurvey(sampleSurvey()); err != nil && !errors.Is(err, ErrExists) {
						return nil, err
					}
					return fileUser{fs}, nil
				},
			})
		})
	}
}
