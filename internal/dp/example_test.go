package dp_test

import (
	"fmt"

	"loki/internal/dp"
)

// ExampleEpsilonForSigma shows what guarantee the paper's noise levels
// buy for a single 1..5 rating (sensitivity 4) at δ = 1e-6.
func ExampleEpsilonForSigma() {
	for _, sigma := range []float64{0.5, 1.0, 2.0} {
		eps, _ := dp.EpsilonForSigma(sigma, 1e-6, 4)
		fmt.Printf("σ=%.1f → ε=%.1f\n", sigma, eps)
	}
	// Output:
	// σ=0.5 → ε=69.2
	// σ=1.0 → ε=26.4
	// σ=2.0 → ε=11.0
}

// ExampleAccountant shows cumulative zCDP accounting over both
// mechanisms.
func ExampleAccountant() {
	acct := dp.NewAccountant()
	g, _ := dp.NewGaussian(2, 4) // ρ = ½(4/2)² = 2
	_ = acct.Record(g.Event("survey:lectures/question:q1"))
	rr, _ := dp.NewRandomizedResponse(1, 3) // ρ = 1²/2 = 0.5
	_ = acct.Record(rr.Event("survey:lectures/question:q2"))
	fmt.Printf("events: %d, total ρ: %.1f\n", acct.Len(), acct.TotalRho())
	total, _ := acct.TotalZCDP(1e-6)
	fmt.Printf("cumulative: %v\n", total)
	// Output:
	// events: 2, total ρ: 2.5
	// cumulative: (ε=14.25, δ=1e-06)-DP
}
