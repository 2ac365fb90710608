package core_test

import (
	"fmt"
	"math"
	"testing"

	"loki/internal/aggregate"
	"loki/internal/core"
	"loki/internal/rng"
	"loki/internal/survey"
)

// mechanismShapes are the question shapes the distinguishing test
// covers: the reference rating, two numeric scales that are not it, and
// multiple choice at three domain sizes.
func mechanismShapes() []survey.Question {
	return []survey.Question{
		{ID: "rating", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		{ID: "percent", Kind: survey.Numeric, ScaleMin: 0, ScaleMax: 100},
		{ID: "year", Kind: survey.Numeric, ScaleMin: 1900, ScaleMax: 2013},
		{ID: "k2", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
		{ID: "k3", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
		{ID: "k12", Kind: survey.MultipleChoice, Options: survey.ZodiacSigns},
	}
}

// charge is the ρ the budget layer charges for one answer to q at l.
func charge(t *testing.T, o *core.Obfuscator, q survey.Question, l core.Level) float64 {
	t.Helper()
	rho, unprotected, err := o.ResponseRho(&survey.Survey{ID: "one", Questions: []survey.Question{q}}, l)
	if err != nil || unprotected != 0 {
		t.Fatalf("%s at %v: ρ %g, %d unprotected, %v", q.ID, l, rho, unprotected, err)
	}
	return rho
}

// TestReleaseLossMatchesCharge is the distinguishing test: the value
// ObfuscateAnswer releases at neighbouring inputs is measured with
// fixed seeds, and its empirical privacy loss must match the ρ the
// budget layer charges for it — never above it (the claim would be
// false), and not below it by more than sampling error (the noise would
// not be what the level names). For a numeric shape the neighbours are
// the scale's extremes and the loss is ½(Δ̂/σ̂)²; for multiple choice
// they are two adjacent choices and ε̂ comes from the kept fraction. A
// level must also cost the same on every numeric scale.
func TestReleaseLossMatchesCharge(t *testing.T) {
	const (
		numericN = 20_000  // releases per neighbour
		choiceN  = 50_000  // releases per neighbour
		rhoTol   = 0.10    // relative, ≥ 8 standard errors at n above
		epsTol   = 0.06    // absolute, ≥ 6 standard errors at n above
		seedBase = 0x10c1d // fixed: the test is deterministic
	)
	o, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reference := mechanismShapes()[0]
	for l := core.Low; l <= core.High; l++ {
		for si, q := range mechanismShapes() {
			t.Run(fmt.Sprintf("%v/%s", l, q.ID), func(t *testing.T) {
				r := rng.New(seedBase + uint64(si)*16 + uint64(l))
				rho := charge(t, o, q, l)
				release := func(a survey.Answer) survey.Answer {
					out, err := o.ObfuscateAnswer(&q, a, l, r)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				if q.Kind != survey.MultipleChoice {
					if ref := charge(t, o, reference, l); rho != ref {
						t.Fatalf("ρ %g differs from the 1..5 rating's %g at the same level", rho, ref)
					}
					var sum, ss [2]float64
					for side, x := range []float64{q.ScaleMin, q.ScaleMax} {
						for i := 0; i < numericN; i++ {
							v := release(survey.RatingAnswer(q.ID, x)).Rating
							sum[side] += v
							ss[side] += v * v
						}
					}
					var mean [2]float64
					m2 := 0.0
					for side := range mean {
						mean[side] = sum[side] / numericN
						m2 += ss[side] - numericN*mean[side]*mean[side]
					}
					dHat := mean[1] - mean[0]
					varHat := m2 / (2*numericN - 2)
					rhoHat := dHat * dHat / varHat / 2
					if math.Abs(rhoHat/rho-1) > rhoTol {
						t.Fatalf("released loss ½(Δ̂/σ̂)² = %.4g (Δ̂ %.4g, σ̂ %.4g), charged ρ %.4g", rhoHat, dHat, math.Sqrt(varHat), rho)
					}
					return
				}
				eps := math.Sqrt(2 * rho)
				kept := 0
				for c := 0; c < 2; c++ {
					for i := 0; i < choiceN; i++ {
						if release(survey.ChoiceAnswer(q.ID, c)).Choice == c {
							kept++
						}
					}
				}
				p := float64(kept) / (2 * choiceN)
				k := float64(len(q.Options))
				epsHat := math.Log(p * (k - 1) / (1 - p))
				if math.Abs(epsHat-eps) > epsTol {
					t.Fatalf("released loss ε̂ = %.4g from kept fraction %.4g, charged ε %.4g (ρ %.4g)", epsHat, p, eps, rho)
				}
			})
		}
	}
}

// TestChoiceDebiasMatchesClosedForm holds aggregate's debiased counts to
// the closed form of Esponda's negative surveys, generalised to a keep
// probability p = e^ε/(e^ε+K−1) with the rest spread over the K−1 other
// answers: from n responses of which y_c report c,
//
//	t̂_c = ((K−1)·y_c − (1−p)·n) / (K·p − 1),
//
// which at p = 0 is Esponda's n − (K−1)·y_c. Releases come from
// ObfuscateAnswer at fixed seeds, and the estimate must also recover
// the true counts within sampling error.
func TestChoiceDebiasMatchesClosedForm(t *testing.T) {
	sched := core.DefaultSchedule()
	o, err := core.NewObfuscator(sched, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	est, err := aggregate.NewEstimator(sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range mechanismShapes()[3:] {
		for l := core.Low; l <= core.High; l++ {
			r := rng.New(uint64(7*len(q.Options)) + uint64(l))
			sv := &survey.Survey{ID: "choice", Questions: []survey.Question{q}}
			k := len(q.Options)
			truth := make([]int, k)
			var responses []survey.Response
			for c := 0; c < k; c++ {
				truth[c] = 400 * (c%3 + 1)
				for i := 0; i < truth[c]; i++ {
					a, err := o.ObfuscateAnswer(&q, survey.ChoiceAnswer(q.ID, c), l, r)
					if err != nil {
						t.Fatal(err)
					}
					responses = append(responses, survey.Response{
						SurveyID: sv.ID, PrivacyLevel: l.String(), Obfuscated: true, Answers: []survey.Answer{a},
					})
				}
			}
			ce, err := est.EstimateChoice(sv, &sv.Questions[0], responses)
			if err != nil {
				t.Fatal(err)
			}
			e := math.Exp(sched.RREpsilon[l])
			p := e / (e + float64(k) - 1)
			n := float64(len(responses))
			for c := 0; c < k; c++ {
				closed := (float64(k-1)*float64(ce.Observed[c]) - (1-p)*n) / (float64(k)*p - 1)
				if math.Abs(ce.Estimated[c]-closed) > 1e-9*n {
					t.Errorf("K=%d %v choice %d: debiased %.6g, closed form %.6g", k, l, c, ce.Estimated[c], closed)
				}
				if math.Abs(ce.Estimated[c]-float64(truth[c])) > 5*ce.SE[c] {
					t.Errorf("K=%d %v choice %d: debiased %.0f ± %.0f, truth %d", k, l, c, ce.Estimated[c], ce.SE[c], truth[c])
				}
			}
		}
	}
}
