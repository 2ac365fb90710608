package core

import (
	"fmt"
	"math"

	"loki/internal/dp"
	"loki/internal/rng"
	"loki/internal/survey"
)

// ReferenceScaleWidth is the width of the 1..5 rating scale the paper's
// noise schedule is expressed on. Noise for other numeric scales is
// scaled proportionally so a privacy level means the same relative
// protection everywhere.
const ReferenceScaleWidth = 4.0

// Schedule maps each privacy level to the Gaussian noise standard
// deviation applied to a 1..5 rating, and to the randomized-response
// epsilon applied to multiple-choice answers.
type Schedule struct {
	// Sigma[l] is the noise standard deviation at level l on the
	// reference 1..5 scale. Sigma[None] must be 0.
	Sigma [NumLevels]float64
	// RREpsilon[l] is the randomized-response ε at level l for
	// multiple-choice questions. RREpsilon[None] is ignored (answers
	// pass through).
	RREpsilon [NumLevels]float64
}

// DefaultSchedule returns the doubling schedule used throughout the
// reproduction: σ = {0, 0.5, 1, 2} on the 1..5 scale ("standard
// deviation successively larger for higher privacy level"), and
// randomized-response ε = {∞, 2, 1, 0.5} for choice questions.
func DefaultSchedule() Schedule {
	return Schedule{
		Sigma:     [NumLevels]float64{0, 0.5, 1.0, 2.0},
		RREpsilon: [NumLevels]float64{math.Inf(1), 2.0, 1.0, 0.5},
	}
}

// LinearSchedule returns the alternative linear schedule σ = {0, 0.5, 1,
// 1.5} used by the schedule ablation.
func LinearSchedule() Schedule {
	return Schedule{
		Sigma:     [NumLevels]float64{0, 0.5, 1.0, 1.5},
		RREpsilon: [NumLevels]float64{math.Inf(1), 2.0, 1.0, 0.5},
	}
}

// Validate checks that the schedule is monotone: noise must not decrease
// as the level rises, and level None must add no noise.
func (s *Schedule) Validate() error {
	if s.Sigma[None] != 0 {
		return fmt.Errorf("core: schedule must have zero noise at level none, got %g", s.Sigma[None])
	}
	for l := 1; l < NumLevels; l++ {
		if s.Sigma[l] < s.Sigma[l-1] {
			return fmt.Errorf("core: sigma schedule not monotone at level %v (%g < %g)",
				Level(l), s.Sigma[l], s.Sigma[l-1])
		}
		if s.Sigma[l] <= 0 {
			return fmt.Errorf("core: sigma at level %v must be positive, got %g", Level(l), s.Sigma[l])
		}
	}
	for l := 1; l < NumLevels; l++ {
		if s.RREpsilon[l] <= 0 {
			return fmt.Errorf("core: randomized-response epsilon at level %v must be positive, got %g",
				Level(l), s.RREpsilon[l])
		}
		if s.RREpsilon[l] > s.RREpsilon[l-1] {
			return fmt.Errorf("core: randomized-response epsilons must not increase with level, got %g > %g at %v",
				s.RREpsilon[l], s.RREpsilon[l-1], Level(l))
		}
	}
	return nil
}

// Mechanism is how one answer is released at one privacy level: the
// Gaussian mechanism for ratings and numerics, k-ary randomized response
// for multiple choice. Exactly one of the two is set (RR.K is 0 for a
// Gaussian). The release, its σ or keep probability, and the ρ every
// ledger charges for it all come from this one value.
type Mechanism struct {
	Gaussian dp.Gaussian
	RR       dp.RandomizedResponse
}

// Mechanism returns the mechanism that releases an answer to q at level
// l. It is the one place σ, Δ and the randomized-response ε are read off
// the schedule. A rating or numeric question's σ is the level's reference
// σ scaled by the question's width over ReferenceScaleWidth, and Δ is
// that width, so ρ = ½(Δ/σ)² is the same on every scale. Level None, free
// text, and a scale whose σ or ρ a float64 cannot hold are errors: none
// of them has a finite positive cost.
func (s *Schedule) Mechanism(q *survey.Question, l Level) (Mechanism, error) {
	if l == None || !l.Valid() {
		return Mechanism{}, fmt.Errorf("core: level %v releases answers without noise", l)
	}
	switch q.Kind {
	case survey.Rating, survey.Numeric:
		width := q.Sensitivity()
		g, err := dp.NewGaussian(s.Sigma[l]*(width/ReferenceScaleWidth), width)
		if err != nil {
			return Mechanism{}, fmt.Errorf("core: question %q: %w", q.ID, err)
		}
		return Mechanism{Gaussian: g}, nil
	case survey.MultipleChoice:
		rr, err := dp.NewRandomizedResponse(s.RREpsilon[l], len(q.Options))
		if err != nil {
			return Mechanism{}, fmt.Errorf("core: question %q: %w", q.ID, err)
		}
		return Mechanism{RR: rr}, nil
	default:
		return Mechanism{}, fmt.Errorf("core: question %q is %v; free-text answers cannot be obfuscated and have no finite privacy cost",
			q.ID, q.Kind)
	}
}

// referenceRating is the 1..5 rating the schedule is expressed on.
var referenceRating = survey.Question{ID: "reference", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 1 + ReferenceScaleWidth}

// ReferenceMechanism is the mechanism of a 1..5 rating at level l: the
// σ the schedule names, and the ρ a level costs per numeric answer.
func (s *Schedule) ReferenceMechanism(l Level) (Mechanism, error) {
	return s.Mechanism(&referenceRating, l)
}

// Rho is the zCDP cost of one release.
func (m Mechanism) Rho() float64 {
	if m.RR.K > 0 {
		return m.RR.Rho()
	}
	return m.Gaussian.Rho()
}

// Event is one release's accounting record, tagged.
func (m Mechanism) Event(tag string) dp.Event {
	if m.RR.K > 0 {
		return m.RR.Event(tag)
	}
	return m.Gaussian.Event(tag)
}

// Release returns a with its value perturbed: noise added to the rating,
// or the choice passed through randomized response.
func (m Mechanism) Release(a survey.Answer, r *rng.RNG) (survey.Answer, error) {
	if m.RR.K > 0 {
		choice, err := m.RR.Release(a.Choice, r)
		if err != nil {
			return survey.Answer{}, err
		}
		a.Choice = choice
		return a, nil
	}
	a.Rating = m.Gaussian.Release(a.Rating, r)
	return a, nil
}

// Options configure an Obfuscator beyond its schedule.
type Options struct {
	// Delta is the δ used when converting Gaussian noise into an (ε, δ)
	// privacy cost for the ledger.
	Delta float64
}

// DefaultOptions returns the options used by the reproduction.
func DefaultOptions() Options {
	return Options{Delta: 1e-6}
}

// Obfuscator perturbs answers at source according to a schedule. It is
// stateless apart from its configuration; privacy-loss bookkeeping is
// the ledger's job.
type Obfuscator struct {
	schedule Schedule
	opts     Options
}

// NewObfuscator validates the schedule and options and returns an
// obfuscator.
func NewObfuscator(schedule Schedule, opts Options) (*Obfuscator, error) {
	if err := schedule.Validate(); err != nil {
		return nil, err
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("core: options delta must be in (0, 1), got %g", opts.Delta)
	}
	return &Obfuscator{schedule: schedule, opts: opts}, nil
}

// Schedule returns the obfuscator's schedule.
func (o *Obfuscator) Schedule() Schedule { return o.schedule }

// Options returns the obfuscator's options.
func (o *Obfuscator) Options() Options { return o.opts }

// ObfuscateAnswer perturbs a single answer at the given level. Free-text
// answers are rejected: the paper restricts obfuscation to countable
// response sets. The returned answer is a new value; the input is not
// modified. A noisy rating is neither rounded nor clamped to its scale:
// the paper's Fig. 1(c) shows values such as 3.86 and values off the
// scale, which keep the aggregate unbiased (ablation A1 measures the
// bias clamping would add).
func (o *Obfuscator) ObfuscateAnswer(q *survey.Question, a survey.Answer, l Level, r *rng.RNG) (survey.Answer, error) {
	if !l.Valid() {
		return survey.Answer{}, fmt.Errorf("core: invalid privacy level %d", int(l))
	}
	if q == nil {
		return survey.Answer{}, fmt.Errorf("core: answer %q has no question", a.QuestionID)
	}
	if err := survey.ValidateAnswer(q, &a, false); err != nil {
		return survey.Answer{}, fmt.Errorf("core: refusing to obfuscate invalid answer: %w", err)
	}
	if l == None {
		return a, nil
	}
	m, err := o.schedule.Mechanism(q, l)
	if err != nil {
		return survey.Answer{}, err
	}
	return m.Release(a, r)
}

// ObfuscateResponse perturbs every answer of a raw response at the given
// level and, if ledger is non-nil, records the privacy cost of each
// released answer. Questions whose kind cannot be obfuscated cause an
// error before anything is recorded, so a response is costed all-or-
// nothing.
func (o *Obfuscator) ObfuscateResponse(s *survey.Survey, answers []survey.Answer, l Level, r *rng.RNG, ledger *Ledger) ([]survey.Answer, error) {
	if !l.Valid() {
		return nil, fmt.Errorf("core: invalid privacy level %d", int(l))
	}
	// Pre-flight: every question must be obfuscatable at l > None.
	if l != None {
		for i := range s.Questions {
			if s.Questions[i].Kind == survey.FreeText {
				return nil, fmt.Errorf("core: survey %q contains free-text question %q; "+
					"obfuscation applies only to countable response sets", s.ID, s.Questions[i].ID)
			}
		}
	}
	out := make([]survey.Answer, len(answers))
	for i := range answers {
		q := s.Question(answers[i].QuestionID)
		noisy, err := o.ObfuscateAnswer(q, answers[i], l, r)
		if err != nil {
			return nil, err
		}
		out[i] = noisy
	}
	if ledger != nil {
		if err := ledger.RecordResponse(o, s, l); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ResponseRho is the budget layer's costing entry point: the total zCDP
// cost ρ of releasing one response to s at level l, plus the number of
// answers that release with no noise at all. Level None costs ρ=0 and
// counts every question as unprotected; above None, free-text questions
// (which the obfuscator cannot protect) are excluded from ρ and counted
// as unprotected instead — charging them a fake finite ε would
// understate the disclosure, so the ledger tallies them separately.
func (o *Obfuscator) ResponseRho(s *survey.Survey, l Level) (rho float64, unprotected int, err error) {
	if !l.Valid() {
		return 0, 0, fmt.Errorf("core: invalid privacy level %d", int(l))
	}
	if l == None {
		return 0, len(s.Questions), nil
	}
	for i := range s.Questions {
		q := &s.Questions[i]
		if q.Kind == survey.FreeText {
			unprotected++
			continue
		}
		m, err := o.schedule.Mechanism(q, l)
		if err != nil {
			return 0, 0, fmt.Errorf("core: survey %q: %w", s.ID, err)
		}
		rho += m.Rho()
	}
	return rho, unprotected, nil
}

// CostOfResponse returns the (ε, δ) privacy cost of answering the whole
// survey once at the given level, composed across questions with zCDP
// (the ledger's accounting), without releasing anything. Level None
// returns ok=false: an unprotected disclosure has no finite DP cost.
func (o *Obfuscator) CostOfResponse(s *survey.Survey, l Level) (cost dp.Params, ok bool, err error) {
	if !l.Valid() {
		return dp.Params{}, false, fmt.Errorf("core: invalid privacy level %d", int(l))
	}
	if l == None {
		return dp.Params{}, false, nil
	}
	totalRho, err := o.noisyRho(s, l)
	if err != nil {
		return dp.Params{}, false, err
	}
	return dp.Params{Epsilon: dp.EpsilonFromRho(totalRho, o.opts.Delta), Delta: o.opts.Delta}, true, nil
}

// noisyRho is ResponseRho for callers that need the whole response's
// cost to be finite: a question released without noise makes it an
// error.
func (o *Obfuscator) noisyRho(s *survey.Survey, l Level) (float64, error) {
	rho, unprotected, err := o.ResponseRho(s, l)
	if err == nil && unprotected > 0 {
		err = fmt.Errorf("core: survey %q releases %d answer(s) without noise; it has no finite privacy cost", s.ID, unprotected)
	}
	return rho, err
}

// EpsilonPerRating returns the (ε, δ=opts.Delta) cost of releasing one
// 1..5 rating at each level — the numbers a Loki deployment would print
// next to the level picker. Level None, and a level whose mechanism has
// no finite cost, report +Inf.
func (o *Obfuscator) EpsilonPerRating() [NumLevels]float64 {
	var out [NumLevels]float64
	for l := range out {
		out[l] = math.Inf(1)
		if m, err := o.schedule.ReferenceMechanism(Level(l)); err == nil {
			out[l] = dp.EpsilonFromRho(m.Rho(), o.opts.Delta)
		}
	}
	return out
}
