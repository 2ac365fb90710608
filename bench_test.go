// Benchmarks that regenerate every table and figure of the paper (one
// Benchmark per experiment id in DESIGN.md §4) plus micro-benchmarks of
// the core mechanism and substrates.
//
// Run them all with:
//
//	go test -bench=. -benchmem
package loki_test

import (
	"fmt"
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
