package core

import (
	"fmt"
	"sync"

	"loki/internal/dp"
	"loki/internal/survey"
)

// Ledger tracks one user's cumulative privacy loss across every survey
// they have answered through Loki — the "mathematical framework, relying
// on differential privacy, to quantify the privacy loss, so that the
// cumulative privacy loss can be tracked" the paper refers to.
//
// Noisy releases are accounted in zCDP (which composes additively and
// converts tightly to (ε, δ)); answers uploaded at level None are not
// differentially private at all, so the ledger counts them separately as
// unprotected disclosures rather than pretending they have a finite cost.
//
// A Ledger is safe for concurrent use.
type Ledger struct {
	mu          sync.Mutex
	acct        *dp.Accountant
	delta       float64
	unprotected int      // answers uploaded with no noise
	surveys     []string // survey IDs in upload order (duplicates allowed)
}

// NewLedger creates a ledger that reports (ε, δ)-DP totals at the given
// δ.
func NewLedger(delta float64) (*Ledger, error) {
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("core: ledger delta must be in (0, 1), got %g", delta)
	}
	return &Ledger{acct: dp.NewAccountant(), delta: delta}, nil
}

// Delta returns the δ the ledger reports totals at.
func (lg *Ledger) Delta() float64 { return lg.delta }

// RecordResponse records the privacy cost of one full survey response
// released at the given level: one event per answer from the answer's
// mechanism (Schedule.Mechanism), or one unprotected disclosure per
// answer at level None.
func (lg *Ledger) RecordResponse(o *Obfuscator, s *survey.Survey, l Level) error {
	if !l.Valid() {
		return fmt.Errorf("core: invalid privacy level %d", int(l))
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if l == None {
		lg.unprotected += len(s.Questions)
		lg.surveys = append(lg.surveys, s.ID)
		return nil
	}
	for i := range s.Questions {
		q := &s.Questions[i]
		m, err := o.schedule.Mechanism(q, l)
		if err != nil {
			return fmt.Errorf("core: ledger cannot cost question %q: %w", q.ID, err)
		}
		if err := lg.acct.Record(m.Event(fmt.Sprintf("survey:%s/question:%s", s.ID, q.ID))); err != nil {
			return err
		}
	}
	lg.surveys = append(lg.surveys, s.ID)
	return nil
}

// Spent returns the cumulative (ε, δ) privacy loss of all noisy releases
// under zCDP composition.
func (lg *Ledger) Spent() dp.Params {
	p, err := lg.acct.TotalZCDP(lg.delta)
	if err != nil {
		// delta was validated at construction; TotalZCDP cannot fail.
		panic(fmt.Sprintf("core: ledger accounting failed: %v", err))
	}
	return p
}

// SpentBasic returns the cumulative loss under basic composition, for
// comparison with the zCDP total (ablation A5).
func (lg *Ledger) SpentBasic() (dp.Params, error) {
	return lg.acct.TotalBasic(lg.delta)
}

// Rho returns the raw cumulative zCDP cost.
func (lg *Ledger) Rho() float64 { return lg.acct.TotalRho() }

// Unprotected returns the number of answers uploaded with no noise
// (level None) — disclosures with unbounded privacy loss.
func (lg *Ledger) Unprotected() int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.unprotected
}

// Responses returns how many survey responses the ledger has recorded.
func (lg *Ledger) Responses() int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return len(lg.surveys)
}

// Events returns the number of costed (noisy) release events.
func (lg *Ledger) Events() int { return lg.acct.Len() }

// PerSurvey returns the cumulative ρ per survey, sorted by survey tag.
func (lg *Ledger) PerSurvey() []dp.TagCost { return lg.acct.ByTag() }

// CanAfford reports whether answering survey s at level l would keep the
// cumulative ε (at the ledger's δ) within budgetEpsilon. Level None never
// fits a finite budget: its loss is unbounded.
func (lg *Ledger) CanAfford(o *Obfuscator, s *survey.Survey, l Level, budgetEpsilon float64) (bool, error) {
	if budgetEpsilon <= 0 {
		return false, fmt.Errorf("core: budget epsilon must be positive, got %g", budgetEpsilon)
	}
	if l == None {
		return false, nil
	}
	addRho, err := o.noisyRho(s, l)
	if err != nil {
		return false, err
	}
	total := lg.acct.TotalRho() + addRho
	return dp.EpsilonFromRho(total, lg.delta) <= budgetEpsilon, nil
}

// MinAffordableLevel returns the least-protective level whose cost still
// fits the budget, preferring lower levels (better accuracy) as the
// paper's accuracy/privacy balancing suggests. If even High does not fit,
// ok is false.
func (lg *Ledger) MinAffordableLevel(o *Obfuscator, s *survey.Survey, budgetEpsilon float64) (Level, bool, error) {
	for l := Low; l <= High; l++ {
		fits, err := lg.CanAfford(o, s, l, budgetEpsilon)
		if err != nil {
			return None, false, err
		}
		if fits {
			return l, true, nil
		}
	}
	return None, false, nil
}
