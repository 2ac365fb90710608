package dp

import (
	"math"
	"testing"
	"testing/quick"

	"loki/internal/rng"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p    Params
		ok   bool
		name string
	}{
		{Params{Epsilon: 1, Delta: 1e-6}, true, "typical"},
		{Params{Epsilon: 1}, true, "pure"},
		{Params{Epsilon: 0, Delta: 0.1}, false, "zero epsilon"},
		{Params{Epsilon: -1}, false, "negative epsilon"},
		{Params{Epsilon: math.Inf(1)}, false, "inf epsilon"},
		{Params{Epsilon: math.NaN()}, false, "nan epsilon"},
		{Params{Epsilon: 1, Delta: 1}, false, "delta 1"},
		{Params{Epsilon: 1, Delta: -0.1}, false, "negative delta"},
		{Params{Epsilon: 1, Delta: math.NaN()}, false, "nan delta"},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestParamsString(t *testing.T) {
	if got := (Params{Epsilon: 0.5}).String(); got != "(ε=0.5)-DP" {
		t.Errorf("pure string = %q", got)
	}
	if got := (Params{Epsilon: 1, Delta: 1e-6}).String(); got == "" {
		t.Error("approx string empty")
	}
}

func TestNewGaussianErrors(t *testing.T) {
	for _, c := range []struct{ sigma, sens float64 }{
		{0, 1}, {-1, 1}, {math.NaN(), 1}, {math.Inf(1), 1},
		{1, 0}, {1, -1}, {1, math.Inf(1)},
		{1e-320, 1}, {1, 1e-320}, // subnormal: ρ would be imprecise
	} {
		if _, err := NewGaussian(c.sigma, c.sens); err == nil {
			t.Errorf("NewGaussian(%g, %g) accepted", c.sigma, c.sens)
		}
	}
}

func TestGaussianRho(t *testing.T) {
	g, err := NewGaussian(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// ρ = ½(Δ/σ)² = ½(1/2)² = 0.125.
	if got := g.Rho(); got != 0.125 {
		t.Errorf("rho = %g, want 0.125", got)
	}
	// The ratio keeps ρ finite where Δ² and σ² both overflow: a scale
	// of width 1e160 with σ at an eighth of it costs what a 1..5 rating
	// with σ = 0.5 does.
	wide, err := NewGaussian(1.25e159, 1e160)
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.Rho(); got != 32 {
		t.Errorf("wide rho = %g, want 32", got)
	}
	ev := wide.Event("survey:s/question:q")
	if ev.Mechanism != "gaussian" || ev.Rho != 32 || ev.Sigma != 1.25e159 || ev.Sensitivity != 1e160 || ev.Epsilon != 0 {
		t.Errorf("event = %+v", ev)
	}
}

// TestGaussianCostErrors: a σ and Δ that are each fine but whose ρ is
// not a finite positive number are refused.
func TestGaussianCostErrors(t *testing.T) {
	if _, err := NewGaussian(1e-300, 1e300); err == nil {
		t.Error("ρ = +Inf accepted")
	}
	if _, err := NewGaussian(1e300, 1e-300); err == nil {
		t.Error("ρ = 0 accepted")
	}
}

// TestClassicSigma: the textbook calibration σ = Δ·sqrt(2 ln(1.25/δ))/ε
// is (ε, δ)-DP for ε ≤ 1 by the exact Balle–Wang δ.
func TestClassicSigma(t *testing.T) {
	for _, eps := range []float64{0.1, 0.5, 1} {
		for _, delta := range []float64{1e-3, 1e-6} {
			sigma := math.Sqrt(2*math.Log(1.25/delta)) / eps
			if got := GaussianDelta(eps, sigma, 1); got > delta {
				t.Errorf("ε=%g δ=%g: classic σ %g achieves δ %g", eps, delta, sigma, got)
			}
		}
	}
}

func TestGaussianDeltaMonotone(t *testing.T) {
	// δ decreases in σ and in ε.
	if !(GaussianDelta(1, 0.5, 1) > GaussianDelta(1, 1.0, 1)) {
		t.Error("delta not decreasing in sigma")
	}
	if !(GaussianDelta(0.5, 1, 1) > GaussianDelta(2, 1, 1)) {
		t.Error("delta not decreasing in epsilon")
	}
	if got := GaussianDelta(1, 0, 1); got != 1 {
		t.Errorf("sigma 0 delta = %g, want 1", got)
	}
}

// TestEpsilonForSigmaRoundTrip: the ε EpsilonForSigma finds for σ at δ
// achieves δ by the exact Balle–Wang formula, and is the smallest such
// ε to within its bisection.
func TestEpsilonForSigmaRoundTrip(t *testing.T) {
	err := quick.Check(func(seedS, seedD uint64) bool {
		sigma := 0.2 + float64(seedS%500)/100 // 0.2 .. 5.2
		delta := math.Pow(10, -(3 + float64(seedD%6)))
		eps, err := EpsilonForSigma(sigma, delta, 1)
		if err != nil {
			return false
		}
		return GaussianDelta(eps, sigma, 1) <= delta && GaussianDelta(eps*0.99, sigma, 1) > delta
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonForSigmaErrors(t *testing.T) {
	for _, c := range []struct{ s, d, sens float64 }{{0, 0.1, 1}, {1, 0, 1}, {1, 1, 1}, {1, 0.1, 0}} {
		if _, err := EpsilonForSigma(c.s, c.d, c.sens); err == nil {
			t.Errorf("EpsilonForSigma(%g,%g,%g) accepted", c.s, c.d, c.sens)
		}
	}
}

func TestZCDPConversions(t *testing.T) {
	if got := EpsilonFromRho(0, 1e-6); got != 0 {
		t.Errorf("EpsilonFromRho(0) = %g", got)
	}
	// ε = ρ + 2·sqrt(ρ ln(1/δ))
	rho, delta := 0.5, 1e-6
	want := rho + 2*math.Sqrt(rho*math.Log(1/delta))
	if got := EpsilonFromRho(rho, delta); math.Abs(got-want) > 1e-12 {
		t.Errorf("EpsilonFromRho = %g, want %g", got, want)
	}
	if got := (Gaussian{Sigma: 2, Sensitivity: 4}).Rho(); got != 2 {
		t.Errorf("ρ(σ=2, Δ=4) = %g, want 2", got)
	}
}

func TestRandomizedResponse(t *testing.T) {
	if _, err := NewRandomizedResponse(0, 4); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := NewRandomizedResponse(1, 1); err == nil {
		t.Error("domain 1 accepted")
	}
	for _, eps := range []float64{math.Inf(1), math.NaN(), 1e-200} {
		if _, err := NewRandomizedResponse(eps, 2); err == nil {
			t.Errorf("epsilon %g (no finite positive ρ) accepted", eps)
		}
	}
	rr, err := NewRandomizedResponse(math.Log(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Binary RR with ε=ln3 keeps with probability 3/4.
	if got := rr.KeepProbability(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("keep prob = %g, want 0.75", got)
	}
	if got := rr.Rho(); got != math.Log(3)*math.Log(3)/2 {
		t.Errorf("rho = %g, want ε²/2", got)
	}
	if ev := rr.Event("x"); ev.Mechanism != "rr" || ev.Epsilon != math.Log(3) || ev.Rho != 0 || ev.Tag != "x" {
		t.Errorf("event = %+v", ev)
	}
	if _, err := rr.Release(-1, rng.New(1)); err == nil {
		t.Error("negative answer accepted")
	}
	if _, err := rr.Release(2, rng.New(1)); err == nil {
		t.Error("out-of-domain answer accepted")
	}

	r := rng.New(2)
	const n = 100_000
	kept := 0
	for i := 0; i < n; i++ {
		out, err := rr.Release(1, r)
		if err != nil {
			t.Fatal(err)
		}
		if out == 1 {
			kept++
		}
	}
	if got := float64(kept) / n; math.Abs(got-0.75) > 0.01 {
		t.Errorf("empirical keep rate = %.4f", got)
	}
}

func TestRandomizedResponseKeepMonotone(t *testing.T) {
	prev := 0.0
	for _, eps := range []float64{0.1, 0.5, 1, 2, 4} {
		rr, err := NewRandomizedResponse(eps, 5)
		if err != nil {
			t.Fatal(err)
		}
		if p := rr.KeepProbability(); p <= prev {
			t.Errorf("keep probability not increasing at ε=%g", eps)
		} else {
			prev = p
		}
	}
}

func TestDebiasCounts(t *testing.T) {
	rr, _ := NewRandomizedResponse(1.0, 3)
	if _, err := rr.DebiasCounts([]int{1, 2}); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := rr.DebiasCounts([]int{1, -1, 2}); err == nil {
		t.Error("negative count accepted")
	}

	// Generate counts from known truth and check the estimate recovers it.
	r := rng.New(3)
	truth := []int{7000, 2000, 1000}
	counts := make([]int, 3)
	for ans, m := range truth {
		for i := 0; i < m; i++ {
			out, err := rr.Release(ans, r)
			if err != nil {
				t.Fatal(err)
			}
			counts[out]++
		}
	}
	est, err := rr.DebiasCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range truth {
		if math.Abs(est[i]-float64(want)) > 300 {
			t.Errorf("debias[%d] = %.0f, want ~%d", i, est[i], want)
		}
	}
}

func TestComposeAdvanced(t *testing.T) {
	if _, err := ComposeAdvanced(1, 0, -1, 1e-6); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := ComposeAdvanced(1, 0, 5, 0); err == nil {
		t.Error("slack 0 accepted")
	}
	zero, err := ComposeAdvanced(1, 0, 0, 1e-6)
	if err != nil || zero.Epsilon != 0 {
		t.Errorf("k=0: %v, %v", zero, err)
	}
	// For small ε and large k, advanced beats basic.
	eps, k := 0.1, 100
	adv, err := ComposeAdvanced(eps, 0, k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	basic := eps * float64(k)
	if adv.Epsilon >= basic {
		t.Errorf("advanced %g not below basic %g for small ε", adv.Epsilon, basic)
	}
}
