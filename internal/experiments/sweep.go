package experiments

import (
	"fmt"
	"math"
	"strings"

	"loki/internal/core"
	"loki/internal/dp"
	"loki/internal/rng"
)

// ---------------------------------------------------------------------------
// A1 — accuracy–privacy sweep

// SweepConfig parameterizes the accuracy sweep: how estimation error
// scales with noise magnitude and bin size, with and without clamping.
type SweepConfig struct {
	Seed   uint64
	Sigmas []float64
	Ns     []int
	// Trials is the number of Monte Carlo repetitions per cell.
	Trials int
	// TrueMean and AnswerStd describe the underlying rating population
	// on the 1..5 scale.
	TrueMean  float64
	AnswerStd float64
}

// DefaultSweepConfig covers the schedule's σ range and the paper's bin
// sizes.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Seed:      11,
		Sigmas:    []float64{0, 0.5, 1.0, 2.0, 3.0},
		Ns:        []int{5, 10, 18, 30, 51, 100, 200},
		Trials:    400,
		TrueMean:  4.2,
		AnswerStd: 0.6,
	}
}

// SweepCell is one (σ, n) grid point.
type SweepCell struct {
	Sigma float64
	N     int
	// RMSE is the root-mean-square error of the unclamped noisy mean
	// against the population mean; RMSEClamped clamps each noisy answer
	// into [1, 5] first.
	RMSE        float64
	RMSEClamped float64
	// BiasClamped is the mean signed error of the clamped estimator —
	// systematically negative for means near the top of the scale.
	BiasClamped float64
}

// SweepResult is the full grid.
type SweepResult struct {
	Config SweepConfig
	Cells  []SweepCell
	// PopulationMean is the true mean of the discretized rating
	// population (differs slightly from Config.TrueMean because ratings
	// are rounded and clamped to the 1..5 scale).
	PopulationMean float64
}

// RunAccuracySweep (A1) measures estimator error across noise levels and
// bin sizes: the quantitative version of the paper's "accuracy of the
// estimated mean is lower when fewer users are assigned to the bin,
// particularly for higher privacy bins".
func RunAccuracySweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("sweep: trials %d < 1", cfg.Trials)
	}
	if len(cfg.Sigmas) == 0 || len(cfg.Ns) == 0 {
		return nil, fmt.Errorf("sweep: empty sigma or n axis")
	}
	r := rng.New(cfg.Seed)

	// Empirical mean of the discrete rating distribution.
	const probe = 200_000
	var acc float64
	for i := 0; i < probe; i++ {
		acc += drawRating(r, cfg.TrueMean, cfg.AnswerStd)
	}
	popMean := acc / probe

	res := &SweepResult{Config: cfg, PopulationMean: popMean}
	for _, sigma := range cfg.Sigmas {
		if sigma < 0 {
			return nil, fmt.Errorf("sweep: negative sigma %g", sigma)
		}
		for _, n := range cfg.Ns {
			if n < 1 {
				return nil, fmt.Errorf("sweep: bin size %d < 1", n)
			}
			var sse, sseCl, biasCl float64
			for t := 0; t < cfg.Trials; t++ {
				var sum, sumCl float64
				for i := 0; i < n; i++ {
					raw := drawRating(r, cfg.TrueMean, cfg.AnswerStd)
					noisy := r.Normal(raw, sigma)
					sum += noisy
					sumCl += math.Min(math.Max(noisy, 1), 5)
				}
				err := sum/float64(n) - popMean
				errCl := sumCl/float64(n) - popMean
				sse += err * err
				sseCl += errCl * errCl
				biasCl += errCl
			}
			res.Cells = append(res.Cells, SweepCell{
				Sigma:       sigma,
				N:           n,
				RMSE:        math.Sqrt(sse / float64(cfg.Trials)),
				RMSEClamped: math.Sqrt(sseCl / float64(cfg.Trials)),
				BiasClamped: biasCl / float64(cfg.Trials),
			})
		}
	}
	return res, nil
}

// drawRating samples a discrete 1..5 rating around mean with the given
// spread.
func drawRating(r *rng.RNG, mean, std float64) float64 {
	v := math.Round(r.Normal(mean, std))
	if v < 1 {
		v = 1
	}
	if v > 5 {
		v = 5
	}
	return v
}

// Cell returns the grid point for (sigma, n), if present.
func (res *SweepResult) Cell(sigma float64, n int) (SweepCell, bool) {
	for _, c := range res.Cells {
		if c.Sigma == sigma && c.N == n {
			return c, true
		}
	}
	return SweepCell{}, false
}

// Render reports A1 as an RMSE grid plus the clamping-bias column.
func (res *SweepResult) Render() string {
	var b strings.Builder
	header := []string{"σ \\ n"}
	for _, n := range res.Config.Ns {
		header = append(header, fmt.Sprint(n))
	}
	t := NewTable("A1 — RMSE of the noisy mean vs bin size (unclamped)", header...)
	for _, sigma := range res.Config.Sigmas {
		cells := []string{fmtF(sigma, 2)}
		for _, n := range res.Config.Ns {
			c, _ := res.Cell(sigma, n)
			cells = append(cells, fmtF(c.RMSE, 3))
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())

	t2 := NewTable("\nclamping ablation at n=51 (the medium bin)", "σ", "RMSE unclamped", "RMSE clamped", "bias clamped")
	for _, sigma := range res.Config.Sigmas {
		c, ok := res.Cell(sigma, 51)
		if !ok {
			continue
		}
		t2.AddVals(fmtF(sigma, 2), fmtF(c.RMSE, 3), fmtF(c.RMSEClamped, 3), fmt.Sprintf("%+.3f", c.BiasClamped))
	}
	b.WriteString(t2.String())
	fmt.Fprintf(&b, "population mean: %.3f (clamped estimator drags high means down)\n", res.PopulationMean)
	return b.String()
}

// ---------------------------------------------------------------------------
// A5 — cumulative privacy-loss growth

// LedgerGrowthConfig parameterizes the composition comparison.
type LedgerGrowthConfig struct {
	// Ks are the survey counts to report.
	Ks []int
	// QuestionsPerSurvey is how many ratings each survey releases.
	QuestionsPerSurvey int
	// Delta is the reporting δ.
	Delta float64
	// Schedule supplies the per-level σ.
	Schedule core.Schedule
}

// DefaultLedgerGrowthConfig reports k ∈ {1..50} for 5-question surveys.
func DefaultLedgerGrowthConfig() LedgerGrowthConfig {
	return LedgerGrowthConfig{
		Ks:                 []int{1, 2, 5, 10, 20, 50},
		QuestionsPerSurvey: 5,
		Delta:              1e-6,
		Schedule:           core.DefaultSchedule(),
	}
}

// LedgerGrowthPoint is one (level, k) entry: the cumulative ε after k
// surveys under each composition rule.
type LedgerGrowthPoint struct {
	Level    core.Level
	K        int
	Basic    float64
	Advanced float64
	ZCDP     float64
}

// LedgerGrowthResult is the A5 dataset.
type LedgerGrowthResult struct {
	Config LedgerGrowthConfig
	Points []LedgerGrowthPoint
}

// RunLedgerGrowth (A5) computes cumulative ε after k surveys at each
// privacy level under basic, advanced and zCDP composition. It shows why
// the ledger accounts in zCDP: basic composition grows linearly in k,
// advanced as ~√k with constants, zCDP tracks the tight √k rate.
func RunLedgerGrowth(cfg LedgerGrowthConfig) (*LedgerGrowthResult, error) {
	if cfg.QuestionsPerSurvey < 1 {
		return nil, fmt.Errorf("ledger growth: questions per survey %d < 1", cfg.QuestionsPerSurvey)
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("ledger growth: delta %g outside (0, 1)", cfg.Delta)
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	res := &LedgerGrowthResult{Config: cfg}
	for _, lvl := range []core.Level{core.Low, core.Medium, core.High} {
		m, err := cfg.Schedule.ReferenceMechanism(lvl) // a 1..5 rating
		if err != nil {
			return nil, err
		}
		g := m.Gaussian
		rhoPerAnswer := g.Rho()
		for _, k := range cfg.Ks {
			if k < 1 {
				return nil, fmt.Errorf("ledger growth: k %d < 1", k)
			}
			releases := k * cfg.QuestionsPerSurvey
			// Basic: each release converted at δ/releases, epsilons add.
			deltaI := cfg.Delta / float64(releases)
			epsI := dp.EpsilonFromRho(rhoPerAnswer, deltaI)
			basic := epsI * float64(releases)
			// Advanced composition over per-release (ε₀, δ₀) with half
			// the δ budget as slack.
			delta0 := cfg.Delta / (2 * float64(releases))
			eps0, err := dp.EpsilonForSigma(g.Sigma, delta0, g.Sensitivity)
			if err != nil {
				return nil, err
			}
			adv, err := dp.ComposeAdvanced(eps0, delta0, releases, cfg.Delta/2)
			if err != nil {
				return nil, err
			}
			// Advanced composition's k·ε·(e^ε−1) term is vacuous for the
			// large per-release ε that Loki's modest noise implies; the
			// valid bound is the minimum of the basic and advanced totals.
			if adv.Epsilon > basic {
				adv.Epsilon = basic
			}
			// zCDP: additive in ρ, converted once.
			zcdp := dp.EpsilonFromRho(rhoPerAnswer*float64(releases), cfg.Delta)
			res.Points = append(res.Points, LedgerGrowthPoint{
				Level:    lvl,
				K:        k,
				Basic:    basic,
				Advanced: adv.Epsilon,
				ZCDP:     zcdp,
			})
		}
	}
	return res, nil
}

// Render reports A5.
func (res *LedgerGrowthResult) Render() string {
	t := NewTable("A5 — cumulative ε after k surveys (5 ratings each), by composition rule",
		"level", "k", "basic", "advanced (min w/ basic)", "zCDP (ledger)")
	for _, p := range res.Points {
		t.AddVals(p.Level, p.K, fmtF(p.Basic, 1), fmtF(p.Advanced, 1), fmtF(p.ZCDP, 1))
	}
	return t.String() + "basic grows linearly in k; the ledger's zCDP total tracks the tight √k rate\n" +
		"(advanced composition is vacuous at these per-release ε, so its valid bound equals basic)\n"
}
