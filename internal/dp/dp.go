// Package dp implements the differential-privacy machinery behind Loki's
// privacy accounting: the two release mechanisms Loki uses — the
// Gaussian mechanism for numeric answers and k-ary randomized response
// for countable ones — each with its zCDP cost ρ and the accounting
// event a ledger records, the exact (Balle–Wang) δ of a Gaussian
// release, a zCDP accountant that composes events and converts the
// total to (ε, δ), and advanced composition to compare it with.
//
// The CoNEXT'13 paper applies Gaussian noise at the user's device and
// mentions a differential-privacy framework "not discussed in this paper"
// for quantifying cumulative privacy loss. This package is that framework:
// it maps each noisy release to a privacy cost and lets a ledger (see
// internal/core) accumulate costs across surveys. Which mechanism
// releases a given answer, and with what σ or ε, is decided in one place:
// core.(*Schedule).Mechanism.
//
// Conventions: ε > 0 and 0 < δ < 1 throughout. Sensitivity Δ is the L2
// distance between neighbouring inputs; for a single bounded rating in
// [1, hi] the sensitivity is hi-1.
package dp

import (
	"errors"
	"fmt"
	"math"

	"loki/internal/rng"
)

// Params is an (ε, δ) differential privacy guarantee. δ == 0 denotes pure
// ε-DP.
type Params struct {
	Epsilon float64
	Delta   float64
}

// Validate reports whether the parameters form a meaningful guarantee.
func (p Params) Validate() error {
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("dp: epsilon must be positive and finite, got %g", p.Epsilon)
	}
	if p.Delta < 0 || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("dp: delta must be in [0, 1), got %g", p.Delta)
	}
	return nil
}

func (p Params) String() string {
	if p.Delta == 0 {
		return fmt.Sprintf("(ε=%.4g)-DP", p.Epsilon)
	}
	return fmt.Sprintf("(ε=%.4g, δ=%.3g)-DP", p.Epsilon, p.Delta)
}

// ---------------------------------------------------------------------------
// Gaussian mechanism

// Gaussian is the Gaussian mechanism: it adds N(0, σ²) noise to a value
// whose neighbouring inputs differ by at most Sensitivity (the L2
// sensitivity Δ). One release is ρ-zCDP with ρ = ½(Δ/σ)².
type Gaussian struct {
	Sigma       float64
	Sensitivity float64
}

// NewGaussian returns the Gaussian mechanism with noise σ for a value of
// sensitivity Δ. Both must be positive, finite and normal floats (a
// subnormal has lost the precision ρ is computed from), and ρ must come
// out finite and positive.
func NewGaussian(sigma, sensitivity float64) (Gaussian, error) {
	if !isNormal(sigma) || !isNormal(sensitivity) {
		return Gaussian{}, fmt.Errorf("dp: gaussian needs positive, finite, normal σ and Δ, got σ=%g Δ=%g", sigma, sensitivity)
	}
	g := Gaussian{Sigma: sigma, Sensitivity: sensitivity}
	if rho := g.Rho(); !isNormal(rho) {
		return Gaussian{}, fmt.Errorf("dp: gaussian with σ=%g Δ=%g costs ρ=%g, not a finite positive cost", sigma, sensitivity, rho)
	}
	return g, nil
}

// isNormal reports whether x is a positive, finite, normal float64.
func isNormal(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }

// Release returns value plus N(0, σ²) noise.
func (g Gaussian) Release(value float64, r *rng.RNG) float64 {
	return r.Normal(value, g.Sigma)
}

// Rho returns the zCDP cost ρ = ½(Δ/σ)² of one release. It is computed
// from the ratio, so it stays finite however large Δ and σ are
// themselves.
func (g Gaussian) Rho() float64 {
	ratio := g.Sensitivity / g.Sigma
	return ratio * ratio / 2
}

// Event is one release's accounting record.
func (g Gaussian) Event(tag string) Event {
	return Event{Mechanism: "gaussian", Rho: g.Rho(), Sigma: g.Sigma, Sensitivity: g.Sensitivity, Tag: tag}
}

// GaussianDelta returns the exact δ achieved by the Gaussian mechanism
// with the given σ and L2-sensitivity at privacy level ε (Balle–Wang).
func GaussianDelta(epsilon, sigma, sensitivity float64) float64 {
	if sigma <= 0 {
		return 1
	}
	a := sensitivity / (2 * sigma)
	b := epsilon * sigma / sensitivity
	return normCDF(a-b) - math.Exp(epsilon)*normCDF(-a-b)
}

// EpsilonForSigma returns the smallest ε such that Gaussian noise with
// standard deviation σ and L2-sensitivity Δ is (ε, δ)-DP, by bisection on
// the exact Balle–Wang δ(ε).
func EpsilonForSigma(sigma, delta, sensitivity float64) (float64, error) {
	if sigma <= 0 {
		return 0, fmt.Errorf("dp: sigma must be positive, got %g", sigma)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("dp: delta must be in (0, 1), got %g", delta)
	}
	if sensitivity <= 0 {
		return 0, fmt.Errorf("dp: sensitivity must be positive, got %g", sensitivity)
	}
	// δ(ε) is strictly decreasing in ε.
	lo, hi := 0.0, 1.0
	for GaussianDelta(hi, sigma, sensitivity) > delta {
		hi *= 2
		if hi > 1e9 {
			return 0, errors.New("dp: epsilon bracket failed (sigma too small for delta)")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if GaussianDelta(mid, sigma, sensitivity) > delta {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ---------------------------------------------------------------------------
// zCDP accounting

// EpsilonFromRho converts a ρ-zCDP guarantee to (ε, δ)-DP at a chosen δ:
// ε = ρ + 2·sqrt(ρ·ln(1/δ)) (Bun & Steinke 2016, Prop. 1.3).
func EpsilonFromRho(rho, delta float64) float64 {
	if rho <= 0 {
		return 0
	}
	return rho + 2*math.Sqrt(rho*math.Log(1/delta))
}

// ---------------------------------------------------------------------------
// Randomized response

// RandomizedResponse is k-ary randomized response over a countable answer
// domain of size K: the true answer is kept with probability
// e^ε/(e^ε+K−1) and otherwise replaced by a uniformly random other
// answer. One invocation is ε-DP, so ρ = ε²/2. This is the paper's "the
// method extends to any countable response set" mechanism for
// categorical questions.
type RandomizedResponse struct {
	Epsilon float64
	K       int
}

// NewRandomizedResponse validates and returns a k-ary randomized response
// mechanism: ε and its ρ must be positive and finite.
func NewRandomizedResponse(epsilon float64, k int) (RandomizedResponse, error) {
	rr := RandomizedResponse{Epsilon: epsilon, K: k}
	if !(epsilon > 0) || !isNormal(rr.Rho()) {
		return RandomizedResponse{}, fmt.Errorf("dp: randomized response ε must give a finite positive cost, got ε=%g", epsilon)
	}
	if k < 2 {
		return RandomizedResponse{}, fmt.Errorf("dp: randomized response needs a domain of at least 2, got %d", k)
	}
	return rr, nil
}

// KeepProbability returns the probability of reporting the true answer.
func (rr RandomizedResponse) KeepProbability() float64 {
	e := math.Exp(rr.Epsilon)
	return e / (e + float64(rr.K) - 1)
}

// Release perturbs the true answer index (in [0, K)).
func (rr RandomizedResponse) Release(truth int, r *rng.RNG) (int, error) {
	if truth < 0 || truth >= rr.K {
		return 0, fmt.Errorf("dp: randomized response answer %d outside domain [0, %d)", truth, rr.K)
	}
	if r.Bernoulli(rr.KeepProbability()) {
		return truth, nil
	}
	// Uniform over the K-1 other answers.
	other := r.Intn(rr.K - 1)
	if other >= truth {
		other++
	}
	return other, nil
}

// Rho returns the zCDP cost ε²/2 of one release.
func (rr RandomizedResponse) Rho() float64 { return rr.Epsilon * rr.Epsilon / 2 }

// Event is one release's accounting record. It carries the pure ε, which
// the accountant converts to ρ = ε²/2.
func (rr RandomizedResponse) Event(tag string) Event {
	return Event{Mechanism: "rr", Epsilon: rr.Epsilon, Tag: tag}
}

// DebiasCounts converts observed randomized-response counts into unbiased
// estimates of the true counts. counts must have length K. The estimates
// may be negative for rare answers; callers that need a distribution
// should clamp and renormalize.
func (rr RandomizedResponse) DebiasCounts(counts []int) ([]float64, error) {
	if len(counts) != rr.K {
		return nil, fmt.Errorf("dp: DebiasCounts got %d counts for domain size %d", len(counts), rr.K)
	}
	n := 0
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dp: negative count %d", c)
		}
		n += c
	}
	p := rr.KeepProbability()
	q := (1 - p) / float64(rr.K-1)
	out := make([]float64, rr.K)
	for i, c := range counts {
		// E[observed_i] = p·true_i + q·(n − true_i)
		out[i] = (float64(c) - q*float64(n)) / (p - q)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Composition

// ComposeAdvanced returns the advanced composition bound (Dwork, Rothblum,
// Vadhan) for k releases each (ε, δ)-DP, with slack δ':
//
//	ε_total = ε·sqrt(2k·ln(1/δ')) + k·ε·(e^ε − 1)
//	δ_total = k·δ + δ'
//
// It returns an error if δ' is not in (0, 1).
func ComposeAdvanced(epsilon, delta float64, k int, deltaSlack float64) (Params, error) {
	if k < 0 {
		return Params{}, fmt.Errorf("dp: negative composition count %d", k)
	}
	if deltaSlack <= 0 || deltaSlack >= 1 {
		return Params{}, fmt.Errorf("dp: composition slack must be in (0, 1), got %g", deltaSlack)
	}
	if k == 0 {
		return Params{Delta: deltaSlack}, nil
	}
	kf := float64(k)
	eps := epsilon*math.Sqrt(2*kf*math.Log(1/deltaSlack)) + kf*epsilon*(math.Exp(epsilon)-1)
	return Params{Epsilon: eps, Delta: kf*delta + deltaSlack}, nil
}
