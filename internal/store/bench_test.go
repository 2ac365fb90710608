package store

import (
	"fmt"
	"path/filepath"
	"testing"

	"loki/internal/survey"
)

// BenchmarkFileReopen times the open of one cluster shard's log as the
// cluster benchmark leaves it: every survey definition is published to
// every shard, so 144 survey records, then a few responses per survey.
// A node reopens one such log per hosted shard before its first read.
func BenchmarkFileReopen(b *testing.B) {
	const surveys, perSurvey = 144, 4
	path := filepath.Join(b.TempDir(), "gshard-000.log")
	st, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < surveys; i++ {
		sv := &survey.Survey{
			ID:    fmt.Sprintf("bench-%04d", i),
			Title: fmt.Sprintf("Benchmark survey %d", i),
			Questions: []survey.Question{
				{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
				{ID: "q1", Text: "rate again", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
				{ID: "q2", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
			},
			Consistency: []survey.ConsistencyPair{{QuestionA: "q0", QuestionB: "q1", Tolerance: 1}},
			RewardCents: 10,
		}
		if _, err := st.Publish(sv); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < surveys; i++ {
		rs := make([]survey.Response, perSurvey)
		for j := range rs {
			rs[j] = survey.Response{
				SurveyID: fmt.Sprintf("bench-%04d", i), WorkerID: fmt.Sprintf("w%d", j), PrivacyLevel: "medium", Obfuscated: true,
				Answers: []survey.Answer{
					survey.RatingAnswer("q0", 3.25+float64(j)/7),
					survey.RatingAnswer("q1", 2.5-float64(j)/9),
					survey.ChoiceAnswer("q2", j%3),
				},
			}
		}
		if _, err := st.AppendResponses(rs); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if n := st.ResponseCount("bench-0143"); n != perSurvey {
			b.Fatalf("reopened to %d responses, want %d", n, perSurvey)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
