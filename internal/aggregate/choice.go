package aggregate

import (
	"fmt"
	"math"

	"loki/internal/core"
	"loki/internal/survey"
)

// ChoiceEstimate is the requester-side view of a multiple-choice
// question answered through randomized response — the paper's "the
// underlying method ... can be applied to other question types (e.g.,
// multiple-choice questions) in which the response set is countable".
type ChoiceEstimate struct {
	QuestionID string   `json:"question_id"`
	Options    []string `json:"options"`
	// Observed are the raw uploaded counts per option (noisy for bins
	// above none).
	Observed []int `json:"observed"`
	// Estimated are the debiased counts per option: each privacy bin is
	// inverted with its own randomized-response parameters, then bins
	// are summed. Individual entries may be slightly negative by
	// sampling noise.
	Estimated []float64 `json:"estimated"`
	// SE is the standard error of each Estimated count: the randomized-
	// response inversion amplifies multinomial sampling noise by
	// 1/(p−q), so noisy bins contribute much wider error bars than the
	// exact none bin.
	SE []float64 `json:"se"`
	// N is the total number of responses.
	N int `json:"n"`
	// BinN counts responses per privacy bin.
	BinN [core.NumLevels]int `json:"bin_n"`
}

// Distribution returns the estimated option shares, clamping negative
// estimates to zero and renormalizing. It returns zeros when no
// responses exist.
func (ce *ChoiceEstimate) Distribution() []float64 {
	out := make([]float64, len(ce.Estimated))
	total := 0.0
	for i, v := range ce.Estimated {
		if v > 0 {
			out[i] = v
			total += v
		}
	}
	if total == 0 {
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// choiceAccum is the resumable fold state of one multiple-choice
// question: observed counts per option, split by privacy bin. Debiasing
// happens at query time (finalizeChoice), so folding one response is a
// couple of integer increments and partial folds merge by addition.
type choiceAccum struct {
	K         int                   `json:"k"` // number of options
	N         int                   `json:"n"` // responses folded
	Observed  []int                 `json:"observed"`
	BinN      [core.NumLevels]int   `json:"bin_n"`
	BinCounts [core.NumLevels][]int `json:"bin_counts"`
}

func newChoiceAccum(k int) *choiceAccum {
	ca := &choiceAccum{K: k, Observed: make([]int, k)}
	for l := range ca.BinCounts {
		ca.BinCounts[l] = make([]int, k)
	}
	return ca
}

// add folds one uploaded choice. The caller validates the range.
func (ca *choiceAccum) add(lvl core.Level, choice int) {
	ca.BinCounts[lvl][choice]++
	ca.Observed[choice]++
	ca.BinN[lvl]++
	ca.N++
}

// merge folds another accumulation covering disjoint responses.
func (ca *choiceAccum) merge(o *choiceAccum) error {
	if ca.K != o.K {
		return fmt.Errorf("aggregate: merging choice folds with %d and %d options", ca.K, o.K)
	}
	for c := 0; c < ca.K; c++ {
		ca.Observed[c] += o.Observed[c]
	}
	for l := range ca.BinCounts {
		for c := 0; c < ca.K; c++ {
			ca.BinCounts[l][c] += o.BinCounts[l][c]
		}
		ca.BinN[l] += o.BinN[l]
	}
	ca.N += o.N
	return nil
}

// clone returns an independent deep copy.
func (ca *choiceAccum) clone() *choiceAccum {
	cp := newChoiceAccum(ca.K)
	cp.N = ca.N
	copy(cp.Observed, ca.Observed)
	cp.BinN = ca.BinN
	for l := range ca.BinCounts {
		copy(cp.BinCounts[l], ca.BinCounts[l])
	}
	return cp
}

// EstimateChoice aggregates a multiple-choice question across privacy
// bins, debiasing each noisy bin with its published randomized-response
// ε before combining — a batch fold over the same accumulator cells the
// incremental Accumulator maintains, finalized identically.
func (e *Estimator) EstimateChoice(s *survey.Survey, q *survey.Question, responses []survey.Response) (*ChoiceEstimate, error) {
	if q == nil {
		return nil, fmt.Errorf("aggregate: nil question")
	}
	if q.Kind != survey.MultipleChoice {
		return nil, fmt.Errorf("aggregate: question %q is %v; choice estimation needs multiple-choice", q.ID, q.Kind)
	}
	k := len(q.Options)
	ca := newChoiceAccum(k)
	for i := range responses {
		resp := &responses[i]
		if resp.SurveyID != s.ID {
			return nil, fmt.Errorf("aggregate: response for %q mixed into %q", resp.SurveyID, s.ID)
		}
		a := resp.Answer(q.ID)
		if a == nil {
			continue
		}
		if a.Choice < 0 || a.Choice >= k {
			return nil, fmt.Errorf("aggregate: answer to %q has a choice outside [0, %d)", q.ID, k)
		}
		lvl, err := core.ParseLevel(resp.PrivacyLevel)
		if err != nil {
			return nil, fmt.Errorf("aggregate: answer to %q: response has an unknown privacy level", q.ID)
		}
		ca.add(lvl, a.Choice)
	}
	return finalizeChoice(e.schedule, q, ca)
}

// finalizeChoice is the query-time debiasing step over folded counts:
// each privacy bin is inverted with its own randomized-response
// parameters, then bins are summed. Shared by the batch Estimator and
// the incremental Accumulator.
func finalizeChoice(schedule core.Schedule, q *survey.Question, ca *choiceAccum) (*ChoiceEstimate, error) {
	k := ca.K
	ce := &ChoiceEstimate{
		QuestionID: q.ID,
		Options:    append([]string(nil), q.Options...),
		Observed:   append([]int(nil), ca.Observed...),
		Estimated:  make([]float64, k),
		SE:         make([]float64, k),
		N:          ca.N,
		BinN:       ca.BinN,
	}
	// variances accumulates Var(Estimated[c]) across bins.
	variances := make([]float64, k)
	for l := 0; l < core.NumLevels; l++ {
		if ca.BinN[l] == 0 {
			continue
		}
		if core.Level(l) == core.None {
			// Exact answers contribute directly, with no noise variance
			// (the multinomial sampling of who answered is the
			// requester's population uncertainty, not estimator error).
			for c, n := range ca.BinCounts[l] {
				ce.Estimated[c] += float64(n)
			}
			continue
		}
		m, err := schedule.Mechanism(q, core.Level(l))
		if err != nil {
			return nil, fmt.Errorf("aggregate: bin %v: %w", core.Level(l), err)
		}
		est, err := m.RR.DebiasCounts(ca.BinCounts[l])
		if err != nil {
			return nil, fmt.Errorf("aggregate: question %q bin %v: %w", q.ID, core.Level(l), err)
		}
		p := m.RR.KeepProbability()
		qFlip := (1 - p) / float64(k-1)
		nBin := float64(ca.BinN[l])
		for c, v := range est {
			ce.Estimated[c] += v
			// Var(observed_c) for a multinomial cell with plug-in
			// probability, amplified by the inversion's 1/(p−q).
			pi := float64(ca.BinCounts[l][c]) / nBin
			variances[c] += nBin * pi * (1 - pi) / ((p - qFlip) * (p - qFlip))
		}
	}
	for c, v := range variances {
		if v > 0 {
			ce.SE[c] = math.Sqrt(v)
		}
	}
	return ce, nil
}

// EstimateSurveyChoices aggregates every multiple-choice question of the
// survey, keyed by question ID.
func (e *Estimator) EstimateSurveyChoices(s *survey.Survey, responses []survey.Response) (map[string]*ChoiceEstimate, error) {
	out := make(map[string]*ChoiceEstimate)
	for i := range s.Questions {
		q := &s.Questions[i]
		if q.Kind != survey.MultipleChoice {
			continue
		}
		ce, err := e.EstimateChoice(s, q, responses)
		if err != nil {
			return nil, err
		}
		out[q.ID] = ce
	}
	return out, nil
}
