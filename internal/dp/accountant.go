package dp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Event is one recorded noisy release: which mechanism produced it and at
// what cost. Exactly one of the cost representations is primary: Gaussian
// releases carry Rho (zCDP) and a Sigma/Sensitivity pair; pure-ε releases
// carry Epsilon. Gaussian.Event and RandomizedResponse.Event build them.
type Event struct {
	// Mechanism is a short label ("gaussian", "rr") for reporting; it
	// does not affect accounting. Ledgers written before the Laplace
	// option was removed may also hold "laplace" events, which carry a
	// pure ε like "rr".
	Mechanism string
	// Epsilon is the pure-DP cost for randomized-response (and legacy
	// Laplace) events; zero for Gaussian events.
	Epsilon float64
	// Rho is the zCDP cost for Gaussian events; zero otherwise.
	Rho float64
	// Sigma and Sensitivity record how a Gaussian event was produced, for
	// reporting.
	Sigma, Sensitivity float64
	// Tag is free-form context, typically "survey:<id>/question:<id>".
	Tag string
}

// Accountant tracks cumulative privacy loss over a sequence of events and
// answers "what is my total (ε, δ) so far?" under several composition
// rules. It is safe for concurrent use.
//
// The accountant is an odometer, not a filter: it never blocks a release.
// Budget enforcement lives in core.Ledger, which consults the accountant.
type Accountant struct {
	mu     sync.Mutex
	events []Event
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant { return &Accountant{} }

// Record appends an event. It returns an error if the event carries no
// cost or a negative cost.
func (a *Accountant) Record(e Event) error {
	if e.Epsilon < 0 || e.Rho < 0 || math.IsNaN(e.Epsilon) || math.IsNaN(e.Rho) {
		return fmt.Errorf("dp: event has negative or NaN cost (ε=%g, ρ=%g)", e.Epsilon, e.Rho)
	}
	if e.Epsilon == 0 && e.Rho == 0 {
		return fmt.Errorf("dp: event %q carries no privacy cost", e.Tag)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, e)
	return nil
}

// Len returns the number of recorded events.
func (a *Accountant) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.events)
}

// Events returns a copy of the recorded events in order.
func (a *Accountant) Events() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Event, len(a.events))
	copy(out, a.events)
	return out
}

// Reset discards all recorded events.
func (a *Accountant) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = nil
}

// TotalRho returns the summed zCDP cost of all events. Pure-ε events are
// converted through ρ = ε²/2 (an ε-DP mechanism is ε²/2-zCDP).
func (a *Accountant) TotalRho() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0.0
	for _, e := range a.events {
		total += e.Rho
		if e.Epsilon > 0 {
			total += e.Epsilon * e.Epsilon / 2
		}
	}
	return total
}

// TotalBasic returns the basic-composition total: pure epsilons add, and
// each Gaussian event is first converted to (ε, δ_i)-DP with
// δ_i = delta / numGaussianEvents so the δs also add up to delta.
func (a *Accountant) TotalBasic(delta float64) (Params, error) {
	if delta <= 0 || delta >= 1 {
		return Params{}, fmt.Errorf("dp: delta must be in (0, 1), got %g", delta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	nGauss := 0
	for _, e := range a.events {
		if e.Rho > 0 {
			nGauss++
		}
	}
	var total Params
	for _, e := range a.events {
		if e.Epsilon > 0 {
			total.Epsilon += e.Epsilon
		}
		if e.Rho > 0 {
			di := delta / float64(nGauss)
			total.Epsilon += EpsilonFromRho(e.Rho, di)
			total.Delta += di
		}
	}
	return total, nil
}

// TotalZCDP returns the zCDP-composition total converted to (ε, δ)-DP.
// This is the accountant's tightest bound and the one core.Ledger uses.
func (a *Accountant) TotalZCDP(delta float64) (Params, error) {
	if delta <= 0 || delta >= 1 {
		return Params{}, fmt.Errorf("dp: delta must be in (0, 1), got %g", delta)
	}
	return Params{Epsilon: EpsilonFromRho(a.TotalRho(), delta), Delta: delta}, nil
}

// ByTag aggregates total ρ per event tag prefix (up to the first '/'),
// which groups per-survey costs when tags follow the
// "survey:<id>/question:<id>" convention. The result is sorted by tag.
func (a *Accountant) ByTag() []TagCost {
	a.mu.Lock()
	defer a.mu.Unlock()
	agg := make(map[string]*TagCost)
	for _, e := range a.events {
		key := e.Tag
		if i := strings.IndexByte(key, '/'); i >= 0 {
			key = key[:i]
		}
		tc, ok := agg[key]
		if !ok {
			tc = &TagCost{Tag: key}
			agg[key] = tc
		}
		tc.Events++
		tc.Rho += e.Rho
		if e.Epsilon > 0 {
			tc.Rho += e.Epsilon * e.Epsilon / 2
		}
	}
	out := make([]TagCost, 0, len(agg))
	for _, tc := range agg {
		out = append(out, *tc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// TagCost is the aggregate cost of all events sharing a tag prefix.
type TagCost struct {
	Tag    string
	Events int
	Rho    float64
}
