// The incremental half of the read path: where Estimator recomputes
// estimates from a full response slice, Accumulator folds responses one
// at a time into constant-size state — per-question, per-privacy-bin
// running moments and counts plus a quality tally — and applies the
// noise-debiasing finalize step only at query time. Folding is O(answers)
// per response, finalizing is O(questions × levels) regardless of how
// many responses were folded, the state snapshots to a JSON-serializable
// value and restores from it, and two partial folds over disjoint
// responses merge exactly (the fan-in needed to combine per-shard
// partials from a sharded ingest store).
package aggregate

import (
	"errors"
	"fmt"

	"loki/internal/core"
	"loki/internal/survey"
)

// QualityTally is the running result of the server-side random-responder
// screen: how many folded responses pass the survey's redundancy
// (consistency) checks, with noise-proportional slack (3σ at the
// response's level) for obfuscated responses.
type QualityTally struct {
	Total                int                 `json:"total"`
	Consistent           int                 `json:"consistent"`
	Inconsistent         int                 `json:"inconsistent"`
	PerLevelInconsistent [core.NumLevels]int `json:"per_level_inconsistent"`
}

// add folds the other tally into this one.
func (t *QualityTally) add(o QualityTally) {
	t.Total += o.Total
	t.Consistent += o.Consistent
	t.Inconsistent += o.Inconsistent
	for l := range t.PerLevelInconsistent {
		t.PerLevelInconsistent[l] += o.PerLevelInconsistent[l]
	}
}

// Accumulator folds obfuscated responses of one survey into resumable
// aggregate state. It is not safe for concurrent use; callers
// serialize access (the server wraps one per survey in a mutex).
type Accumulator struct {
	schedule  core.Schedule
	sv        *survey.Survey
	n         int
	questions map[string]*questionBins // rating/numeric questions
	choices   map[string]*choiceAccum  // multiple-choice questions
	quality   QualityTally
}

// NewAccumulator returns an empty accumulator for the survey under the
// published noise schedule.
func NewAccumulator(schedule core.Schedule, sv *survey.Survey) (*Accumulator, error) {
	if err := schedule.Validate(); err != nil {
		return nil, err
	}
	if sv == nil {
		return nil, fmt.Errorf("aggregate: accumulator needs a survey")
	}
	a := &Accumulator{
		schedule:  schedule,
		sv:        sv.Clone(), // immune to caller mutation
		questions: make(map[string]*questionBins),
		choices:   make(map[string]*choiceAccum),
	}
	for i := range a.sv.Questions {
		q := &a.sv.Questions[i]
		switch q.Kind {
		case survey.Rating, survey.Numeric:
			a.questions[q.ID] = new(questionBins)
		case survey.MultipleChoice:
			a.choices[q.ID] = newChoiceAccum(len(q.Options))
		}
	}
	return a, nil
}

// SurveyID returns the survey this accumulator folds.
func (a *Accumulator) SurveyID() string { return a.sv.ID }

// N returns how many responses have been folded.
func (a *Accumulator) N() int { return a.n }

// Add folds one response: every answered rating/numeric question's bin
// cell advances by one Welford step, every answered choice question's
// bin count increments, and the quality tally records the response's
// consistency verdict. Add is all-or-nothing: on error no state has
// changed.
func (a *Accumulator) Add(r *survey.Response) error {
	if r.SurveyID != a.sv.ID {
		return fmt.Errorf("aggregate: response for %q folded into %q", r.SurveyID, a.sv.ID)
	}
	// Rejections name no worker and no submitted value: the text reaches
	// requesters (a poisoned accumulator's error), and the caller adds
	// the record's coordinates.
	lvl, err := core.ParseLevel(r.PrivacyLevel)
	if err != nil {
		return errors.New("aggregate: response has an unknown privacy level")
	}
	// Only the first answer per question counts, matching the batch
	// estimator's Response.Answer lookup — without this, a response
	// carrying duplicate question IDs (rejected by the server, but
	// legal at this API) would fold twice here and once there.
	first := func(i int) bool {
		id := r.Answers[i].QuestionID
		for j := 0; j < i; j++ {
			if r.Answers[j].QuestionID == id {
				return false
			}
		}
		return true
	}
	// Validate before mutating anything so a rejected response leaves
	// the fold state untouched.
	for i := range r.Answers {
		ans := &r.Answers[i]
		if ca, ok := a.choices[ans.QuestionID]; ok && first(i) {
			if ans.Choice < 0 || ans.Choice >= ca.K {
				return fmt.Errorf("aggregate: answer to %q has a choice outside [0, %d)", ans.QuestionID, ca.K)
			}
		}
	}
	for i := range r.Answers {
		ans := &r.Answers[i]
		if !first(i) {
			continue
		}
		if bins, ok := a.questions[ans.QuestionID]; ok {
			bins[lvl].add(ans.Rating)
		} else if ca, ok := a.choices[ans.QuestionID]; ok {
			ca.add(lvl, ans.Choice)
		}
	}
	slack := 0.0
	if r.Obfuscated {
		slack = 3 * a.schedule.Sigma[lvl]
	}
	a.quality.Total++
	if r.Consistent(a.sv, slack) {
		a.quality.Consistent++
	} else {
		a.quality.Inconsistent++
		a.quality.PerLevelInconsistent[lvl]++
	}
	a.n++
	return nil
}

// Merge folds another accumulator covering disjoint responses of the
// same survey into this one. The other accumulator is not modified.
func (a *Accumulator) Merge(o *Accumulator) error {
	if o.sv.ID != a.sv.ID {
		return fmt.Errorf("aggregate: merging accumulators for %q and %q", o.sv.ID, a.sv.ID)
	}
	for id, bins := range a.questions {
		ob, ok := o.questions[id]
		if !ok {
			return fmt.Errorf("aggregate: merge source lacks question %q", id)
		}
		for l := range bins {
			bins[l].merge(ob[l])
		}
	}
	for id, ca := range a.choices {
		oc, ok := o.choices[id]
		if !ok {
			return fmt.Errorf("aggregate: merge source lacks question %q", id)
		}
		if err := ca.merge(oc); err != nil {
			return err
		}
	}
	a.quality.add(o.quality)
	a.n += o.n
	return nil
}

// SurveyEstimate is a full finalized aggregate: per-question mean
// estimates, per-choice-question debiased distributions, and the
// quality tally, all derived from fold state in O(questions × levels).
type SurveyEstimate struct {
	SurveyID string `json:"survey_id"`
	// N is the number of responses folded in.
	N         int                          `json:"n"`
	Questions map[string]*QuestionEstimate `json:"questions"`
	Choices   map[string]*ChoiceEstimate   `json:"choices"`
	Quality   QualityTally                 `json:"quality"`
}

// Finalize applies the noise-debiasing estimation step to the current
// state. The accumulator is unchanged and can keep folding; Finalize
// may be called any number of times.
func (a *Accumulator) Finalize() (*SurveyEstimate, error) {
	out := &SurveyEstimate{
		SurveyID:  a.sv.ID,
		N:         a.n,
		Questions: make(map[string]*QuestionEstimate, len(a.questions)),
		Choices:   make(map[string]*ChoiceEstimate, len(a.choices)),
		Quality:   a.quality,
	}
	for i := range a.sv.Questions {
		q := &a.sv.Questions[i]
		if bins, ok := a.questions[q.ID]; ok {
			qe, err := finalizeQuestion(a.schedule, q, bins)
			if err != nil {
				return nil, err
			}
			out.Questions[q.ID] = qe
		} else if ca, ok := a.choices[q.ID]; ok {
			ce, err := finalizeChoice(a.schedule, q, ca)
			if err != nil {
				return nil, err
			}
			out.Choices[q.ID] = ce
		}
	}
	return out, nil
}

// AccumulatorState is the serializable snapshot of an Accumulator. It
// round-trips through encoding/json, which is how a deployment
// checkpoints live aggregate state or ships per-shard partials for a
// Merge on the other side.
type AccumulatorState struct {
	SurveyID  string                   `json:"survey_id"`
	N         int                      `json:"n"`
	Questions map[string]*questionBins `json:"questions"`
	Choices   map[string]*choiceAccum  `json:"choices"`
	Quality   QualityTally             `json:"quality"`
}

// Snapshot captures the current fold state as an independent deep copy:
// further Adds do not affect it.
func (a *Accumulator) Snapshot() *AccumulatorState {
	st := &AccumulatorState{
		SurveyID:  a.sv.ID,
		N:         a.n,
		Questions: make(map[string]*questionBins, len(a.questions)),
		Choices:   make(map[string]*choiceAccum, len(a.choices)),
		Quality:   a.quality,
	}
	for id, bins := range a.questions {
		cp := *bins
		st.Questions[id] = &cp
	}
	for id, ca := range a.choices {
		st.Choices[id] = ca.clone()
	}
	return st
}

// RestoreAccumulator rebuilds an accumulator from a snapshot, resuming
// the fold exactly where Snapshot captured it. The survey and schedule
// must be the ones the snapshot was taken under.
func RestoreAccumulator(schedule core.Schedule, sv *survey.Survey, st *AccumulatorState) (*Accumulator, error) {
	a, err := NewAccumulator(schedule, sv)
	if err != nil {
		return nil, err
	}
	if st.SurveyID != a.sv.ID {
		return nil, fmt.Errorf("aggregate: state for %q restored against %q", st.SurveyID, a.sv.ID)
	}
	// The state must cover every question with a non-nil entry:
	// restoring a truncated or corrupt snapshot would silently report n
	// responses with empty bins (or panic on a JSON null).
	for id := range a.questions {
		if st.Questions[id] == nil {
			return nil, fmt.Errorf("aggregate: state for %q missing question %q", st.SurveyID, id)
		}
	}
	for id := range a.choices {
		if st.Choices[id] == nil {
			return nil, fmt.Errorf("aggregate: state for %q missing question %q", st.SurveyID, id)
		}
	}
	for id, bins := range st.Questions {
		dst, ok := a.questions[id]
		if !ok {
			return nil, fmt.Errorf("aggregate: state question %q not in survey %q", id, sv.ID)
		}
		*dst = *bins
	}
	for id, ca := range st.Choices {
		dst, ok := a.choices[id]
		if !ok {
			return nil, fmt.Errorf("aggregate: state question %q not in survey %q", id, sv.ID)
		}
		if dst.K != ca.K {
			return nil, fmt.Errorf("aggregate: state question %q has %d options, survey has %d", id, ca.K, dst.K)
		}
		a.choices[id] = ca.clone()
	}
	a.quality = st.Quality
	a.n = st.N
	return a, nil
}
