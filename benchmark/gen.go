package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"loki/internal/core"
	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/survey"
)

// populationSize is how many simulated people the uploads are drawn
// from. It is far below the number of submits in a run, so every
// worker's budget account is charged again and again instead of each
// charge opening a fresh account.
const populationSize = 20000

// upload is one prepared respondent upload: obfuscated at source the
// way the phone client does it, and encoded once so the timed phases
// spend no generator CPU on JSON.
type upload struct {
	resp   *survey.Response
	survey int    // index into inputs.surveys
	path   string // single-submit route
	body   []byte // single-submit JSON body
	// acked counts durable acknowledgements of this upload (uploads are
	// cycled, so one may be acked several times). The reference fold
	// after the run replays exactly these.
	acked atomic.Int32
}

// inputs is everything a workload feeds the system under test, made
// from the seed alone.
type inputs struct {
	surveys []*survey.Survey
	uploads []*upload
	// bySurvey lists each survey's uploads, for the reference fold.
	bySurvey [][]*upload
}

// benchSurvey exercises every accumulator cell kind: two ratings joined
// by a consistency pair (the quality tally has work) and one
// multiple-choice question (debiasing has work).
func benchSurvey(i int) *survey.Survey {
	return &survey.Survey{
		ID:    fmt.Sprintf("bench-%04d", i),
		Title: fmt.Sprintf("Benchmark survey %d", i),
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q1", Text: "rate again", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q2", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
		},
		Consistency: []survey.ConsistencyPair{{QuestionA: "q0", QuestionB: "q1", Tolerance: 1}},
		RewardCents: 10,
	}
}

// generateInputs builds nSurveys surveys and nUploads uploads spread
// round-robin over them. Upload i comes from person i of a seeded
// population: the person's behaviour model answers the survey, their
// preferred privacy level picks the noise, and the obfuscator perturbs
// the answers before anything reaches the system under test.
func generateInputs(seed uint64, nSurveys, nUploads int) (*inputs, error) {
	r := rng.New(seed)
	cfg := population.DefaultConfig()
	cfg.RegistrySize = populationSize
	pop, err := population.Generate(cfg, r.Split())
	if err != nil {
		return nil, err
	}
	obf, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	in := &inputs{
		surveys:  make([]*survey.Survey, nSurveys),
		uploads:  make([]*upload, nUploads),
		bySurvey: make([][]*upload, nSurveys),
	}
	for i := range in.surveys {
		in.surveys[i] = benchSurvey(i)
	}
	for i := range in.uploads {
		p := &pop.Persons[i%pop.Size()]
		si := i % nSurveys
		sv := in.surveys[si]
		raw, err := population.Answers(p, sv, r)
		if err != nil {
			return nil, err
		}
		lvl := core.Level(p.PrivacyPref)
		noisy, err := obf.ObfuscateResponse(sv, raw, lvl, r, nil)
		if err != nil {
			return nil, err
		}
		resp := &survey.Response{
			SurveyID:     sv.ID,
			WorkerID:     fmt.Sprintf("p%05d", p.ID),
			Answers:      noisy,
			PrivacyLevel: lvl.String(),
			Obfuscated:   lvl != core.None,
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		u := &upload{resp: resp, survey: si, path: "/api/v1/surveys/" + sv.ID + "/responses", body: body}
		in.uploads[i] = u
		in.bySurvey[si] = append(in.bySurvey[si], u)
	}
	return in, nil
}

// resetAcks forgets every acknowledgement, so one set of inputs can
// feed several topologies in one process.
func (in *inputs) resetAcks() {
	for _, u := range in.uploads {
		u.acked.Store(0)
	}
}

// ackedTotal is the number of durable acknowledgements recorded.
func (in *inputs) ackedTotal() int {
	n := 0
	for _, u := range in.uploads {
		n += int(u.acked.Load())
	}
	return n
}
