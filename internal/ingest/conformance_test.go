package ingest

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"loki/internal/logtest"
	"loki/internal/store"
	"loki/internal/survey"
)

// The store's two appended-to Logs under the shared conformance suite.
// (Snapshots are published whole by blockio.WriteLogAtomic and covered
// by the compaction crash tests.)

// metaUser: record i is the publication of survey i in meta.jsonl.
type metaUser struct{ *Sharded }

func (u metaUser) Put(i int) error { return u.PutSurvey(benchSurvey(i)) }

func (u metaUser) Records() []int {
	svs, _ := u.Surveys()
	out := []int{}
	for _, sv := range svs {
		var i int
		fmt.Sscanf(sv.ID, "ingest-test-%d", &i)
		out = append(out, i)
	}
	return out
}

// segUser: record i is a response from worker "i" in the WAL.
type segUser struct{ *Sharded }

func (u segUser) Put(i int) error {
	return u.AppendResponse(benchResponse(benchSurvey(0).ID, strconv.Itoa(i)))
}

func (u segUser) Records() []int {
	out := []int{}
	_ = u.ScanResponses(benchSurvey(0).ID, 0, func(_ uint64, r *survey.Response) error {
		i, _ := strconv.Atoi(r.WorkerID)
		out = append(out, i)
		return nil
	})
	return out
}

func TestLogConformance(t *testing.T) {
	t.Run("meta", func(t *testing.T) {
		logtest.Run(t, logtest.User{
			LogFile: func(dir string) string { return filepath.Join(dir, metaName) },
			Open: func(dir string) (logtest.Store, error) {
				s, err := Open(dir, testConfig(1))
				return metaUser{s}, err
			},
		})
	})
	// "segment/json" starts from a segment rewritten as JSON lines. A
	// store opens a new segment beside an old one, so the reopen converts
	// only the meta log; the segment is read as JSON lines until a fold,
	// and the suite's Puts land in the new segment.
	for _, arm := range []string{"json", "binary"} {
		t.Run("segment/"+arm, func(t *testing.T) {
			u := logtest.User{
				LogFile: func(dir string) string {
					segs, _ := listSeqs(dir, segPrefix, segSuffix)
					return filepath.Join(dir, segName(segs[len(segs)-1]))
				},
				Open: func(dir string) (logtest.Store, error) {
					s, err := Open(dir, testConfig(1))
					if err != nil {
						return nil, err
					}
					if err := s.PutSurvey(benchSurvey(0)); err != nil && !errors.Is(err, store.ErrExists) {
						return nil, err
					}
					return segUser{s}, nil
				},
			}
			if arm == "json" {
				u.Imported = jsonRecord
			}
			logtest.Run(t, u)
		})
	}
}
