package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkIngestParallelAppend is the ingest layer's own hot path: 32
// appenders (the benchmark's closed-loop respondent count) submitting
// single responses across 16 surveys, each blocked until its group
// commit is fsynced. Run with -benchmem: allocs/op is the append path's
// per-record garbage, records/commit the achieved group-commit batch.
// The shards=1 and shards=8 rows must agree — the shard label no longer
// multiplies logs — when it did, throughput fell from 48k to 11k
// responses/s going from 1 to 8 shards (README "Benchmarks").
func BenchmarkIngestParallelAppend(b *testing.B) {
	const appenders, surveys = 32, 16
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := Open(b.TempDir(), Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ids := make([]string, surveys)
			for i := range ids {
				sv := benchSurvey(i)
				if _, err := s.Publish(sv); err != nil {
					b.Fatal(err)
				}
				ids[i] = sv.ID
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := benchResponse("", fmt.Sprintf("g%02d", g))
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						r.SurveyID = ids[i%surveys]
						if err := s.AppendResponse(r); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.Appends)/float64(st.Commits), "records/commit")
		})
	}
}
