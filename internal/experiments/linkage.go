package experiments

import (
	"fmt"
	"math"

	"loki/internal/core"
	"loki/internal/dp"
	"loki/internal/population"
	"loki/internal/rng"
)

// ---------------------------------------------------------------------------
// A6 — anonymity collapse, survey by survey

// LinkageGrowthResult shows how the population's anonymity collapses as
// each §2 profiling survey adds attributes to the attacker's
// quasi-identifier.
type LinkageGrowthResult struct {
	RegistrySize int
	Stages       []population.AnonymityStats
}

// RunLinkageGrowth (A6) computes the k-anonymity profile of the default
// registry after each profiling survey. It quantifies the paper's core
// observation: no single survey identifies anyone, but three cheap
// surveys together collapse median anonymity from hundreds to one.
func RunLinkageGrowth(seed uint64, cfg population.Config) (*LinkageGrowthResult, error) {
	pop, err := population.Generate(cfg, rng.New(seed))
	if err != nil {
		return nil, err
	}
	res := &LinkageGrowthResult{RegistrySize: pop.Size()}
	for _, mask := range []population.AttrMask{
		population.MaskAfterAstrology,
		population.MaskAfterMatchmaking,
		population.MaskAfterCoverage,
	} {
		res.Stages = append(res.Stages, pop.AnonymityStats(mask))
	}
	return res, nil
}

// Render reports A6.
func (res *LinkageGrowthResult) Render() string {
	t := NewTable(fmt.Sprintf("A6 — anonymity collapse across the §2 surveys (registry of %d)", res.RegistrySize),
		"after survey", "attacker knows", "median k", "mean k", "unique")
	names := []string{"1 (astrology)", "2 (match-making)", "3 (coverage)"}
	for i, st := range res.Stages {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		t.AddVals(name, st.Mask, st.MedianK, fmtF(st.MeanK, 1), fmtPct(st.FractionUnique))
	}
	return t.String() + "each cheap survey looks harmless alone; their join is what de-anonymizes\n"
}

// ---------------------------------------------------------------------------
// A7 — Gaussian vs Laplace noise

// NoiseComparisonConfig parameterizes the mechanism ablation.
type NoiseComparisonConfig struct {
	Seed     uint64
	Schedule core.Schedule
	// Delta converts Gaussian noise to an (ε, δ) cost.
	Delta float64
	// N is the bin size and Trials the Monte Carlo repetitions for the
	// RMSE columns.
	N, Trials int
	// TrueMean and AnswerStd describe the rating population.
	TrueMean, AnswerStd float64
}

// DefaultNoiseComparisonConfig compares the mechanisms at the paper's
// medium-bin size.
func DefaultNoiseComparisonConfig() NoiseComparisonConfig {
	return NoiseComparisonConfig{
		Seed:      17,
		Schedule:  core.DefaultSchedule(),
		Delta:     1e-6,
		N:         51,
		Trials:    600,
		TrueMean:  4.2,
		AnswerStd: 0.6,
	}
}

// NoiseComparisonRow is one privacy level's comparison.
type NoiseComparisonRow struct {
	Level core.Level
	// Gaussian mechanism: the schedule's σ and its (ε, δ) cost.
	SigmaGaussian   float64
	EpsilonGaussian float64
	// Variance-matched Laplace: same noise variance, pure-ε cost.
	LaplaceScale   float64
	EpsilonLaplace float64
	// EpsilonMatchedSigma is the (equivalent) noise standard deviation a
	// Laplace mechanism needs to offer ε = EpsilonGaussian as pure DP.
	EpsilonMatchedSigma float64
	// Monte Carlo RMSE of the bin mean under each mechanism.
	RMSEGaussian        float64
	RMSELaplaceMatched  float64
	RMSELaplaceEpsMatch float64
}

// NoiseComparisonResult is the A7 dataset.
type NoiseComparisonResult struct {
	Config NoiseComparisonConfig
	Rows   []NoiseComparisonRow
}

// RunNoiseComparison (A7) compares the paper's Gaussian mechanism with
// Laplace noise two ways: variance-matched (identical utility — what
// pure-ε guarantee does that buy?) and ε-matched (identical single-release
// guarantee — how much less noise does Laplace need?). Gaussian's
// per-release cost carries a δ-conversion premium; its advantage is
// composition (see A5), which is why Loki's ledger accounts in zCDP.
func RunNoiseComparison(cfg NoiseComparisonConfig) (*NoiseComparisonResult, error) {
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("noise comparison: delta %g outside (0, 1)", cfg.Delta)
	}
	if cfg.N < 1 || cfg.Trials < 1 {
		return nil, fmt.Errorf("noise comparison: n=%d trials=%d must be positive", cfg.N, cfg.Trials)
	}
	r := rng.New(cfg.Seed)
	res := &NoiseComparisonResult{Config: cfg}
	for _, lvl := range []core.Level{core.Low, core.Medium, core.High} {
		m, err := cfg.Schedule.ReferenceMechanism(lvl) // a 1..5 rating
		if err != nil {
			return nil, err
		}
		sigma, sensitivity := m.Gaussian.Sigma, m.Gaussian.Sensitivity
		epsG, err := dp.EpsilonForSigma(sigma, cfg.Delta, sensitivity)
		if err != nil {
			return nil, err
		}
		b := sigma / math.Sqrt2
		epsL := sensitivity / b
		bEps := sensitivity / epsG
		row := NoiseComparisonRow{
			Level:               lvl,
			SigmaGaussian:       sigma,
			EpsilonGaussian:     epsG,
			LaplaceScale:        b,
			EpsilonLaplace:      epsL,
			EpsilonMatchedSigma: bEps * math.Sqrt2,
		}
		row.RMSEGaussian = mcRMSE(cfg, r, func(raw float64) float64 { return r.Normal(raw, sigma) })
		row.RMSELaplaceMatched = mcRMSE(cfg, r, func(raw float64) float64 { return r.Laplace(raw, b) })
		row.RMSELaplaceEpsMatch = mcRMSE(cfg, r, func(raw float64) float64 { return r.Laplace(raw, bEps) })
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// mcRMSE estimates the RMSE of the mean of cfg.N noisy ratings.
func mcRMSE(cfg NoiseComparisonConfig, r *rng.RNG, noise func(float64) float64) float64 {
	var sse float64
	for t := 0; t < cfg.Trials; t++ {
		var sum float64
		for i := 0; i < cfg.N; i++ {
			raw := drawRating(r, cfg.TrueMean, cfg.AnswerStd)
			sum += noise(raw)
		}
		err := sum/float64(cfg.N) - cfg.TrueMean
		sse += err * err
	}
	return math.Sqrt(sse / float64(cfg.Trials))
}

// Render reports A7.
func (res *NoiseComparisonResult) Render() string {
	t := NewTable(fmt.Sprintf("A7 — Gaussian vs Laplace noise (n=%d per bin, δ=%.0e)", res.Config.N, res.Config.Delta),
		"level", "σ gauss", "ε gauss", "ε laplace (var-matched)", "RMSE gauss", "RMSE laplace", "σ laplace @ ε-match")
	for _, row := range res.Rows {
		t.AddVals(row.Level, fmtF(row.SigmaGaussian, 2), fmtF(row.EpsilonGaussian, 1),
			fmtF(row.EpsilonLaplace, 1), fmtF(row.RMSEGaussian, 3), fmtF(row.RMSELaplaceMatched, 3),
			fmtF(row.EpsilonMatchedSigma, 3))
	}
	return t.String() +
		"variance-matched Laplace gives the same utility at a smaller pure ε per release;\n" +
		"Gaussian pays a per-release δ-conversion premium but composes as √k via zCDP (A5)\n"
}
