package core

import (
	"fmt"
	"math"
	"sort"

	"loki/internal/dp"
	"loki/internal/survey"
)

// This file implements the "balanced across the user base" half of the
// paper's framework: "the cumulative privacy loss can be tracked and
// balanced across the user base, while ensuring sufficient accuracy of
// the aggregated response". Given a cohort of users with individual
// remaining budgets, the Allocator assigns each invited user a privacy
// level so that (a) nobody exceeds their lifetime budget and (b) the
// aggregate meets a target standard error, spending as little total
// privacy as possible.
//
// The trade-off it navigates: lower levels add less noise (better
// accuracy) but cost more privacy; users with little budget left can
// only afford high levels or must sit the survey out.

// UserBudget describes one user from the allocator's point of view.
type UserBudget struct {
	// ID identifies the user in the assignment.
	ID string
	// SpentRho is the user's cumulative zCDP loss so far (Ledger.Rho).
	SpentRho float64
	// BudgetEpsilon is the user's lifetime ε allowance at the
	// allocator's δ.
	BudgetEpsilon float64
}

// Assignment is the allocator's decision for one user.
type Assignment struct {
	UserID string
	// Level the user should answer at. Valid only if Participate.
	Level Level
	// Participate is false when even the highest level would breach the
	// user's budget.
	Participate bool
}

// AllocationResult is the full plan plus its predicted statistics.
type AllocationResult struct {
	Assignments []Assignment
	// Participants is the number of users invited to answer.
	Participants int
	// PredictedSE is the standard error of the aggregate mean the plan
	// achieves (per rating question, on the reference 1..5 scale).
	PredictedSE float64
	// TotalRho is the summed zCDP cost across all participants.
	TotalRho float64
	// MaxUserEpsilon is the largest post-survey cumulative ε any
	// participant reaches.
	MaxUserEpsilon float64
	// PerLevel counts assignments per level.
	PerLevel [NumLevels]int
}

// Allocator plans level assignments for a survey.
type Allocator struct {
	obf *Obfuscator
	// AnswerStd is the assumed population standard deviation of a raw
	// answer on the reference scale (used to predict accuracy).
	AnswerStd float64
}

// NewAllocator returns an allocator that plans with the obfuscator's
// schedule and δ.
func NewAllocator(obf *Obfuscator, answerStd float64) (*Allocator, error) {
	if obf == nil {
		return nil, fmt.Errorf("core: allocator needs an obfuscator")
	}
	if answerStd < 0 || math.IsNaN(answerStd) {
		return nil, fmt.Errorf("core: answer std %g must be non-negative", answerStd)
	}
	return &Allocator{obf: obf, AnswerStd: answerStd}, nil
}

// levelCosts returns, per noisy level, the ρ of one response to s and
// the variance of one answer on the reference scale (the assumed answer
// variance plus the level's noise).
func (al *Allocator) levelCosts(s *survey.Survey) (rho, variance [NumLevels]float64, err error) {
	sched := al.obf.Schedule()
	for l := Low; l <= High; l++ {
		if rho[l], err = al.obf.noisyRho(s, l); err != nil {
			return rho, variance, err
		}
		m, err := sched.ReferenceMechanism(l)
		if err != nil {
			return rho, variance, err
		}
		sigma := m.Gaussian.Sigma
		variance[l] = al.AnswerStd*al.AnswerStd + sigma*sigma
	}
	return rho, variance, nil
}

// Plan assigns a privacy level to every user for the given survey so the
// estimated mean of a rating question reaches the target standard error
// if possible, never exceeding any user's budget. The strategy:
//
//  1. Start everyone at the most private level they can afford (High if
//     it fits, else sit out).
//  2. While the predicted standard error exceeds the target, upgrade the
//     user for whom one-step-lower noise costs the least extra privacy
//     relative to their remaining budget (largest headroom first).
//
// The returned plan is deterministic given the input order after the
// internal stable sort.
func (al *Allocator) Plan(s *survey.Survey, users []UserBudget, targetSE float64) (*AllocationResult, error) {
	if targetSE <= 0 || math.IsNaN(targetSE) {
		return nil, fmt.Errorf("core: target standard error %g must be positive", targetSE)
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("core: no users to allocate")
	}
	costRho, variance, err := al.levelCosts(s)
	if err != nil {
		return nil, err
	}

	delta := al.obf.Options().Delta
	type state struct {
		user  UserBudget
		level Level
		in    bool
	}
	states := make([]state, len(users))
	for i, u := range users {
		if u.BudgetEpsilon <= 0 {
			return nil, fmt.Errorf("core: user %q has non-positive budget", u.ID)
		}
		if u.SpentRho < 0 {
			return nil, fmt.Errorf("core: user %q has negative spent rho", u.ID)
		}
		st := state{user: u, level: High}
		// Most private level first; sit out if even High breaches.
		if dp.EpsilonFromRho(u.SpentRho+costRho[High], delta) > u.BudgetEpsilon {
			st.in = false
		} else {
			st.in = true
		}
		states[i] = st
	}

	se := func() float64 {
		// Variance of the mean over participants: (Σ v_i) / n².
		n, sum := 0, 0.0
		for _, st := range states {
			if !st.in {
				continue
			}
			n++
			sum += variance[st.level]
		}
		if n == 0 {
			return math.Inf(1)
		}
		return math.Sqrt(sum) / float64(n)
	}

	// Upgrade loop: lower one participant's level per step.
	for se() > targetSE {
		best := -1
		bestHeadroom := math.Inf(-1)
		for i := range states {
			st := &states[i]
			if !st.in || st.level == Low {
				continue
			}
			next := st.level - 1
			afterRho := st.user.SpentRho + costRho[next]
			if dp.EpsilonFromRho(afterRho, delta) > st.user.BudgetEpsilon {
				continue
			}
			headroom := st.user.BudgetEpsilon - dp.EpsilonFromRho(afterRho, delta)
			if headroom > bestHeadroom {
				bestHeadroom = headroom
				best = i
			}
		}
		if best < 0 {
			break // nobody can afford to be upgraded further
		}
		states[best].level--
	}

	res := &AllocationResult{PredictedSE: se()}
	for _, st := range states {
		a := Assignment{UserID: st.user.ID, Participate: st.in}
		if st.in {
			a.Level = st.level
			res.Participants++
			res.PerLevel[st.level]++
			res.TotalRho += costRho[st.level]
			if eps := dp.EpsilonFromRho(st.user.SpentRho+costRho[st.level], delta); eps > res.MaxUserEpsilon {
				res.MaxUserEpsilon = eps
			}
		}
		res.Assignments = append(res.Assignments, a)
	}
	sort.SliceStable(res.Assignments, func(i, j int) bool {
		return res.Assignments[i].UserID < res.Assignments[j].UserID
	})
	return res, nil
}

// UniformPlan is the baseline the paper's trial used implicitly: every
// affordable user answers at the same level; users who cannot afford it
// sit out. It is the comparator for the balancing ablation.
func (al *Allocator) UniformPlan(s *survey.Survey, users []UserBudget, level Level) (*AllocationResult, error) {
	if level == None || !level.Valid() {
		return nil, fmt.Errorf("core: uniform plan needs a noisy level, got %v", level)
	}
	costRho, variance, err := al.levelCosts(s)
	if err != nil {
		return nil, err
	}
	rho := costRho[level]
	delta := al.obf.Options().Delta
	res := &AllocationResult{}
	sum := 0.0
	for _, u := range users {
		a := Assignment{UserID: u.ID}
		if dp.EpsilonFromRho(u.SpentRho+rho, delta) <= u.BudgetEpsilon {
			a.Participate = true
			a.Level = level
			res.Participants++
			res.PerLevel[level]++
			res.TotalRho += rho
			sum += variance[level]
			if eps := dp.EpsilonFromRho(u.SpentRho+rho, delta); eps > res.MaxUserEpsilon {
				res.MaxUserEpsilon = eps
			}
		}
		res.Assignments = append(res.Assignments, a)
	}
	if res.Participants > 0 {
		res.PredictedSE = math.Sqrt(sum) / float64(res.Participants)
	} else {
		res.PredictedSE = math.Inf(1)
	}
	sort.SliceStable(res.Assignments, func(i, j int) bool {
		return res.Assignments[i].UserID < res.Assignments[j].UserID
	})
	return res, nil
}
