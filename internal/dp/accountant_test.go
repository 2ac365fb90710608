package dp

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// gaussianEvent is the event of one Gaussian release with σ and Δ.
func gaussianEvent(t *testing.T, sigma, sensitivity float64, tag string) Event {
	t.Helper()
	g, err := NewGaussian(sigma, sensitivity)
	if err != nil {
		t.Fatal(err)
	}
	return g.Event(tag)
}

// rrEvent is the event of one randomized-response release at ε.
func rrEvent(t *testing.T, epsilon float64, tag string) Event {
	t.Helper()
	rr, err := NewRandomizedResponse(epsilon, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Event(tag)
}

func TestAccountantRecordValidation(t *testing.T) {
	a := NewAccountant()
	if err := a.Record(Event{}); err == nil {
		t.Error("zero-cost event accepted")
	}
	if err := a.Record(Event{Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if err := a.Record(Event{Rho: math.NaN()}); err == nil {
		t.Error("NaN rho accepted")
	}
	if err := a.Record(Event{Mechanism: "gaussian", Sigma: 1, Sensitivity: 1, Tag: "t"}); err == nil {
		t.Error("gaussian event without ρ accepted")
	}
	if err := a.Record(Event{Mechanism: "rr", Epsilon: math.Inf(-1), Tag: "t"}); err == nil {
		t.Error("pure epsilon -Inf accepted")
	}
	if a.Len() != 0 {
		t.Fatalf("invalid events were recorded: len=%d", a.Len())
	}
}

func TestAccountantTotals(t *testing.T) {
	a := NewAccountant()
	// Gaussian: ρ = 1/(2·4) = 0.125.
	if err := a.Record(gaussianEvent(t, 2, 1, "survey:s1/question:q1")); err != nil {
		t.Fatal(err)
	}
	// Pure ε=1 → ρ = 0.5.
	if err := a.Record(rrEvent(t, 1, "survey:s1/question:q2")); err != nil {
		t.Fatal(err)
	}
	if got := a.TotalRho(); math.Abs(got-0.625) > 1e-12 {
		t.Errorf("total rho = %g, want 0.625", got)
	}
	z, err := a.TotalZCDP(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if want := EpsilonFromRho(0.625, 1e-6); math.Abs(z.Epsilon-want) > 1e-12 {
		t.Errorf("zCDP total = %g, want %g", z.Epsilon, want)
	}
	if _, err := a.TotalZCDP(0); err == nil {
		t.Error("delta 0 accepted")
	}
	if _, err := a.TotalBasic(1); err == nil {
		t.Error("delta 1 accepted")
	}
	b, err := a.TotalBasic(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Basic: pure ε adds directly, the one Gaussian event gets all of δ.
	want := 1 + EpsilonFromRho(0.125, 1e-6)
	if math.Abs(b.Epsilon-want) > 1e-9 || math.Abs(b.Delta-1e-6) > 1e-15 {
		t.Errorf("basic total = %v, want ε=%g δ=1e-6", b, want)
	}
}

func TestAccountantBasicSplitsDelta(t *testing.T) {
	a := NewAccountant()
	for i := 0; i < 4; i++ {
		if err := a.Record(gaussianEvent(t, 1, 1, "t")); err != nil {
			t.Fatal(err)
		}
	}
	b, err := a.TotalBasic(4e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Delta-4e-6) > 1e-15 {
		t.Errorf("delta total = %g, want 4e-6", b.Delta)
	}
	perEvent := EpsilonFromRho(0.5, 1e-6)
	if math.Abs(b.Epsilon-4*perEvent) > 1e-9 {
		t.Errorf("epsilon total = %g, want %g", b.Epsilon, 4*perEvent)
	}
}

func TestAccountantZCDPTighterThanBasic(t *testing.T) {
	a := NewAccountant()
	for i := 0; i < 25; i++ {
		if err := a.Record(gaussianEvent(t, 1, 1, "t")); err != nil {
			t.Fatal(err)
		}
	}
	z, _ := a.TotalZCDP(1e-6)
	b, _ := a.TotalBasic(1e-6)
	if z.Epsilon >= b.Epsilon {
		t.Errorf("zCDP %g not tighter than basic %g over 25 events", z.Epsilon, b.Epsilon)
	}
}

func TestAccountantByTag(t *testing.T) {
	a := NewAccountant()
	mustRecord := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustRecord(a.Record(gaussianEvent(t, 1, 1, "survey:a/question:q1")))
	mustRecord(a.Record(gaussianEvent(t, 1, 1, "survey:a/question:q2")))
	mustRecord(a.Record(gaussianEvent(t, 1, 1, "survey:b/question:q1")))
	mustRecord(a.Record(rrEvent(t, 1, "survey:b/question:q2")))

	tags := a.ByTag()
	if len(tags) != 2 {
		t.Fatalf("got %d tags, want 2: %v", len(tags), tags)
	}
	if tags[0].Tag != "survey:a" || tags[0].Events != 2 {
		t.Errorf("tag[0] = %+v", tags[0])
	}
	if tags[1].Tag != "survey:b" || tags[1].Events != 2 {
		t.Errorf("tag[1] = %+v", tags[1])
	}
	if math.Abs(tags[1].Rho-(0.5+0.5)) > 1e-12 {
		t.Errorf("survey:b rho = %g", tags[1].Rho)
	}
}

func TestAccountantEventsCopyAndReset(t *testing.T) {
	a := NewAccountant()
	if err := a.Record(rrEvent(t, 1, "x")); err != nil {
		t.Fatal(err)
	}
	evs := a.Events()
	evs[0].Epsilon = 99
	if a.Events()[0].Epsilon == 99 {
		t.Error("Events leaked internal state")
	}
	a.Reset()
	if a.Len() != 0 || a.TotalRho() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestAccountantConcurrency(t *testing.T) {
	a := NewAccountant()
	ev := gaussianEvent(t, 1, 1, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ev := ev
				ev.Tag = fmt.Sprintf("survey:%d", g)
				if err := a.Record(ev); err != nil {
					t.Error(err)
					return
				}
				_ = a.TotalRho()
			}
		}(g)
	}
	wg.Wait()
	if a.Len() != 800 {
		t.Fatalf("recorded %d events, want 800", a.Len())
	}
	if got := a.TotalRho(); math.Abs(got-400) > 1e-9 {
		t.Fatalf("total rho = %g, want 400", got)
	}
}

// TestAccountantBoundsExactGaussianComposition: k Gaussian releases of
// sensitivity Δ at noise σ compose to exactly one Gaussian release of
// sensitivity Δ√k at σ, so the exact (Balle–Wang) ε of that one release
// at δ is the composition's true privacy loss. The accountant's zCDP
// total must never claim less.
func TestAccountantBoundsExactGaussianComposition(t *testing.T) {
	const delta, sens = 1e-6, 4 // a 1..5 rating
	for _, sigma := range []float64{0.5, 1, 2} {
		ev := gaussianEvent(t, sigma, sens, "t")
		for _, k := range []int{1, 2, 5, 20, 100} {
			a := NewAccountant()
			for i := 0; i < k; i++ {
				if err := a.Record(ev); err != nil {
					t.Fatal(err)
				}
			}
			got, err := a.TotalZCDP(delta)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := EpsilonForSigma(sigma, delta, sens*math.Sqrt(float64(k)))
			if err != nil {
				t.Fatal(err)
			}
			if got.Epsilon < exact {
				t.Errorf("σ=%g k=%d: accountant ε %g below the exact composed ε %g", sigma, k, got.Epsilon, exact)
			}
		}
	}
}
