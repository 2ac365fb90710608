// Benchmarks that regenerate every table and figure of the paper (one
// Benchmark per experiment id in DESIGN.md §4) plus micro-benchmarks of
// the core mechanism and substrates.
//
// Run them all with:
//
//	go test -bench=. -benchmem
package loki_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"loki"
	"loki/internal/attack"
	"loki/internal/core"
	"loki/internal/experiments"
	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/survey"
)

// benchDeanonConfig is the paper-scale §2 configuration with a reduced
// registry so each benchmark iteration stays around tens of
// milliseconds.
func benchDeanonConfig() experiments.DeanonConfig {
	cfg := experiments.DefaultDeanonConfig()
	cfg.Population.RegistrySize = 50_000
	return cfg
}

// BenchmarkE1Deanonymization regenerates the §2 pipeline numbers
// (400 unique → 72 linkable → 18 health-exposed).
func BenchmarkE1Deanonymization(b *testing.B) {
	cfg := benchDeanonConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDeanonymization(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Attack.Linkable == 0 {
			b.Fatal("no linkable workers")
		}
	}
}

// BenchmarkE2Awareness regenerates the awareness follow-up (100 workers,
// 73 unaware-refuse).
func BenchmarkE2Awareness(b *testing.B) {
	cfg := benchDeanonConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAwareness(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.AwarenessRespondents == 0 {
			b.Fatal("no awareness respondents")
		}
	}
}

// BenchmarkE3BinDeviation regenerates Fig. 2's deviation curves.
func BenchmarkE3BinDeviation(b *testing.B) {
	cfg := experiments.DefaultTrialConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLecturerTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxAbsDeviation[core.High] == 0 {
			b.Fatal("no deviation measured")
		}
	}
}

// BenchmarkE4BinHistogram regenerates Fig. 2's per-bin histogram (same
// harness; the assertion touches the histogram side).
func BenchmarkE4BinHistogram(b *testing.B) {
	cfg := experiments.DefaultTrialConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLecturerTrial(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, lr := range res.Lecturers {
			if lr.Raters == 0 {
				b.Fatal("empty histogram column")
			}
		}
	}
}

// BenchmarkE5TrustedComparison regenerates the 4.72-vs-4.61 anecdote.
func BenchmarkE5TrustedComparison(b *testing.B) {
	cfg := experiments.DefaultTrialConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrustedComparison(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6LevelTakeup regenerates the 18/32/51/30 take-up split.
func BenchmarkE6LevelTakeup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLevelTakeup(uint64(i+1), 100, experiments.PaperTrialStudents); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Defense regenerates the extension experiment (attack vs
// at-source obfuscation).
func BenchmarkE7Defense(b *testing.B) {
	cfg := experiments.DefaultDefenseConfig()
	cfg.Deanon = benchDeanonConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDefense(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Loki.Attack.Linkable >= res.Raw.Attack.Linkable {
			b.Fatal("defense failed")
		}
	}
}

// BenchmarkA1AccuracySweep regenerates the accuracy–privacy grid.
func BenchmarkA1AccuracySweep(b *testing.B) {
	cfg := experiments.DefaultSweepConfig()
	cfg.Trials = 100
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAccuracySweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2IDPolicy regenerates the worker-ID policy ablation.
func BenchmarkA2IDPolicy(b *testing.B) {
	cfg := benchDeanonConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RunIDPolicyAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3Filter regenerates the redundancy-filter ablation.
func BenchmarkA3Filter(b *testing.B) {
	cfg := benchDeanonConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RunFilterAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4Estimator regenerates the estimator ablation.
func BenchmarkA4Estimator(b *testing.B) {
	cfg := experiments.DefaultTrialConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEstimatorAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA5LedgerGrowth regenerates the composition comparison.
func BenchmarkA5LedgerGrowth(b *testing.B) {
	cfg := experiments.DefaultLedgerGrowthConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLedgerGrowth(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA6LinkageGrowth regenerates the anonymity-collapse table.
func BenchmarkA6LinkageGrowth(b *testing.B) {
	cfg := population.DefaultConfig()
	cfg.RegistrySize = 50_000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLinkageGrowth(uint64(i+1), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Stages) != 3 {
			b.Fatal("missing stages")
		}
	}
}

// BenchmarkA7NoiseComparison regenerates the mechanism comparison.
func BenchmarkA7NoiseComparison(b *testing.B) {
	cfg := experiments.DefaultNoiseComparisonConfig()
	cfg.Trials = 100
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunNoiseComparison(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA8Balance regenerates the budget-balancing comparison.
func BenchmarkA8Balance(b *testing.B) {
	cfg := experiments.DefaultBalanceConfig()
	cfg.Trials = 50
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBalancedCollection(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the core mechanism and hot substrate paths.

// BenchmarkObfuscateRating measures one at-source Gaussian release.
func BenchmarkObfuscateRating(b *testing.B) {
	obf, err := loki.NewObfuscator(loki.DefaultSchedule(), loki.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q := &survey.Question{ID: "q", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5}
	a := survey.RatingAnswer("q", 4)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obf.ObfuscateAnswer(q, a, core.Medium, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObfuscateResponseWithLedger measures a full survey release
// including privacy accounting.
func BenchmarkObfuscateResponseWithLedger(b *testing.B) {
	obf, err := loki.NewObfuscator(loki.DefaultSchedule(), loki.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ledger, err := loki.NewLedger(1e-6)
	if err != nil {
		b.Fatal(err)
	}
	sv := survey.Lecturers([]string{"A", "B", "C", "D", "E"})
	answers := make([]survey.Answer, 5)
	for i := range answers {
		answers[i] = survey.RatingAnswer(survey.LecturerQuestionID(i), 4)
	}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obf.ObfuscateResponse(sv, answers, core.High, r, ledger); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerSpent measures a cumulative-loss query over a populated
// ledger.
func BenchmarkLedgerSpent(b *testing.B) {
	obf, _ := loki.NewObfuscator(loki.DefaultSchedule(), loki.DefaultOptions())
	ledger, _ := loki.NewLedger(1e-6)
	sv := survey.Lecturers([]string{"A", "B", "C"})
	for i := 0; i < 100; i++ {
		if err := ledger.RecordResponse(obf, sv, core.Medium); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ledger.Spent().Epsilon <= 0 {
			b.Fatal("empty ledger")
		}
	}
}

// BenchmarkRegistryLookup measures one re-identification probe against a
// metro-scale registry.
func BenchmarkRegistryLookup(b *testing.B) {
	pop, err := population.Generate(population.DefaultConfig(), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	reg := population.NewRegistry(pop)
	qis := make([]population.QuasiID, 1024)
	for i := range qis {
		qis[i] = population.QuasiIDOf(&pop.Persons[i*97%len(pop.Persons)])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reg.KAnonymity(qis[i%len(qis)]) == 0 {
			b.Fatal("own quasi-identifier missing")
		}
	}
}

// BenchmarkAttackPipeline measures the linkage+re-identification pass
// over a realistic response set (excluding population generation).
func BenchmarkAttackPipeline(b *testing.B) {
	cfg := population.DefaultConfig()
	cfg.RegistrySize = 50_000
	pop, err := population.Generate(cfg, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	reg := population.NewRegistry(pop)
	surveys := map[string]*survey.Survey{
		survey.AstrologyID: survey.Astrology(),
		survey.MatchmakeID: survey.Matchmaking(),
		survey.CoverageID:  survey.Coverage(),
		survey.HealthID:    survey.Health(),
	}
	r := rng.New(5)
	var responses []survey.Response
	for i := 0; i < 300; i++ {
		p := &pop.Persons[i]
		for _, sv := range surveys {
			answers, err := population.Answers(p, sv, r)
			if err != nil {
				b.Fatal(err)
			}
			responses = append(responses, survey.Response{
				SurveyID: sv.ID,
				WorkerID: fmt.Sprintf("w%04d", i),
				Answers:  answers,
			})
		}
	}
	pipe, err := attack.New(reg, attack.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Run(surveys, responses, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Linkable == 0 {
			b.Fatal("no linkable workers")
		}
	}
}

// BenchmarkPopulationGenerate measures synthetic-region generation.
func BenchmarkPopulationGenerate(b *testing.B) {
	cfg := population.DefaultConfig()
	cfg.RegistrySize = 50_000
	for i := 0; i < b.N; i++ {
		if _, err := population.Generate(cfg, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerSubmit measures the full HTTP submission path: JSON
// decode, validation, level tally and store append.
func BenchmarkServerSubmit(b *testing.B) {
	st := loki.NewMemStore()
	defer st.Close()
	sv := survey.Awareness()
	if err := st.PutSurvey(sv); err != nil {
		b.Fatal(err)
	}
	srv, err := loki.NewServer(loki.ServerConfig{
		Store:          st,
		Schedule:       loki.DefaultSchedule(),
		RequesterToken: "tok",
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	payload, err := json.Marshal(&survey.Response{
		SurveyID: sv.ID,
		WorkerID: "bench",
		Answers: []survey.Answer{
			survey.ChoiceAnswer("aware", 0),
			survey.ChoiceAnswer("participate", 1),
		},
		PrivacyLevel: "medium",
		Obfuscated:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/api/v1/surveys/" + sv.ID + "/responses"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
}

// BenchmarkStoreConcurrentSubmit compares the store backends on the
// ingest hot path: many goroutines appending responses concurrently,
// spread over 16 surveys. Durable backends (file, ingest) fsync before
// acknowledging; ingest amortizes the fsync across one group commit
// shared by every survey (ingest-1 and ingest-8 differ only in the
// shard label, so they should measure the same).
//
// Run with:
//
//	go test -bench=StoreConcurrentSubmit -cpu 8
func BenchmarkStoreConcurrentSubmit(b *testing.B) {
	const surveys = 16
	makeSurvey := func(i int) *survey.Survey {
		return &survey.Survey{
			ID:    fmt.Sprintf("bench-submit-%02d", i),
			Title: fmt.Sprintf("Submit bench %d", i),
			Questions: []survey.Question{
				{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			},
			RewardCents: 10,
		}
	}
	backends := []struct {
		name string
		open func(b *testing.B) loki.Store
	}{
		{"mem", func(b *testing.B) loki.Store { return loki.NewMemStore() }},
		{"file-sync-always", func(b *testing.B) loki.Store {
			st, err := loki.OpenFileStore(b.TempDir() + "/bench.jsonl")
			if err != nil {
				b.Fatal(err)
			}
			return st
		}},
		{"ingest-1", func(b *testing.B) loki.Store {
			st, err := loki.OpenIngestStore(b.TempDir(), loki.IngestConfig{Shards: 1})
			if err != nil {
				b.Fatal(err)
			}
			return st
		}},
		{"ingest-8", func(b *testing.B) loki.Store {
			st, err := loki.OpenIngestStore(b.TempDir(), loki.IngestConfig{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			return st
		}},
	}
	for _, backend := range backends {
		b.Run(backend.name, func(b *testing.B) {
			st := backend.open(b)
			defer st.Close()
			ids := make([]string, surveys)
			for i := 0; i < surveys; i++ {
				sv := makeSurvey(i)
				ids[i] = sv.ID
				if err := st.PutSurvey(sv); err != nil {
					b.Fatal(err)
				}
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					r := &survey.Response{
						SurveyID:     ids[int(i)%surveys],
						WorkerID:     fmt.Sprintf("w%08d", i),
						Answers:      []survey.Answer{survey.RatingAnswer("q0", 3)},
						PrivacyLevel: "medium",
						Obfuscated:   true,
					}
					if err := st.AppendResponse(r); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkEstimateQuestion measures requester-side aggregation over
// 2000 noisy responses.
func BenchmarkEstimateQuestion(b *testing.B) {
	est, err := loki.NewEstimator(loki.DefaultSchedule())
	if err != nil {
		b.Fatal(err)
	}
	obf, _ := loki.NewObfuscator(loki.DefaultSchedule(), loki.DefaultOptions())
	sv := survey.Lecturers([]string{"A"})
	q := sv.Question("lecturer-00")
	r := rng.New(6)
	responses := make([]survey.Response, 2000)
	for i := range responses {
		lvl := core.Level(i % core.NumLevels)
		noisy, err := obf.ObfuscateAnswer(q, survey.RatingAnswer(q.ID, 4), lvl, r)
		if err != nil {
			b.Fatal(err)
		}
		responses[i] = survey.Response{
			SurveyID:     sv.ID,
			WorkerID:     fmt.Sprintf("w%d", i),
			Answers:      []survey.Answer{noisy},
			PrivacyLevel: lvl.String(),
			Obfuscated:   lvl != core.None,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qe, err := est.EstimateQuestion(sv, q, responses)
		if err != nil {
			b.Fatal(err)
		}
		if qe.OverallN != 2000 {
			b.Fatal("lost responses")
		}
	}
}
