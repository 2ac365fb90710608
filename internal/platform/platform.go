// Package platform simulates a crowdsourcing survey platform in the mould
// of Amazon Mechanical Turk as accessed through an aggregator: requesters
// post surveys (HITs) with a response quota and a per-response reward,
// workers with heterogeneous engagement take them over simulated days,
// and the platform reports completed responses back to the requester
// keyed by a worker ID.
//
// The privacy-critical design point the paper exposes is the worker-ID
// policy: AMT reports a unique ID that is constant across every survey a
// worker takes, which lets a requester join responses across surveys.
// The engine also implements the obvious countermeasure — a fresh
// pseudonym per survey — so the ablation experiments can show linkability
// collapsing when the stable ID goes away.
package platform

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/store"
	"loki/internal/survey"
)

// IDPolicy selects how the platform derives the worker ID it reports to
// requesters.
type IDPolicy int

const (
	// StableIDs reports one constant ID per worker across all surveys —
	// AMT's behaviour, and the linkage enabler of the paper's attack.
	StableIDs IDPolicy = iota
	// PseudonymousIDs reports a fresh ID per (worker, survey) pair,
	// which defeats cross-survey joins by ID.
	PseudonymousIDs
)

// String names the policy.
func (p IDPolicy) String() string {
	switch p {
	case StableIDs:
		return "stable-ids"
	case PseudonymousIDs:
		return "pseudonymous-ids"
	default:
		return fmt.Sprintf("IDPolicy(%d)", int(p))
	}
}

// Transform is an optional hook applied to every response before it is
// uploaded to the platform — the "app layer". Loki's at-source
// obfuscation plugs in here. It receives the answering person (for
// privacy-preference lookup), the survey, and the raw answers; it returns
// the answers to upload, the privacy level name to record, and whether
// the answers were obfuscated.
type Transform func(p *population.Person, s *survey.Survey, answers []survey.Answer) (out []survey.Answer, privacyLevel string, obfuscated bool, err error)

// Config parameterizes the platform simulation.
type Config struct {
	// IDPolicy is the worker-ID reporting policy.
	IDPolicy IDPolicy
	// WorkerPoolSize is how many registry persons have platform accounts.
	WorkerPoolSize int
	// HeavyFraction is the share of workers who are highly engaged
	// ("professional turkers"); the rest are casual. Heavy workers take
	// most posted surveys, creating the cross-survey overlap the attack
	// exploits.
	HeavyFraction float64
	// HeavyActivityLo/Hi and CasualActivityLo/Hi bound the per-day
	// probability that a worker of each class takes an open survey.
	HeavyActivityLo, HeavyActivityHi   float64
	CasualActivityLo, CasualActivityHi float64
	// Transform, when non-nil, is applied to every response before
	// upload (Loki's at-source obfuscation).
	Transform Transform
	// Sink, when non-nil, receives every posted survey and accepted
	// response — the platform's durable ingestion backend. Point it at a
	// store.File or ingest.Sharded to persist a simulation's raw
	// response streams (losing those streams is itself a privacy-audit
	// failure: the obfuscated record is the only accountable trace of
	// what each worker disclosed). A sink failure fails the simulation
	// loudly rather than dropping data.
	Sink store.Store
}

// DefaultConfig returns the platform parameters used by the §2
// reproduction: a 1000-account pool whose engagement mix (a small cohort
// of highly active "professional" workers over a churning casual
// majority) yields roughly the paper's 400 unique respondents with ~72
// taking all three profiling surveys.
func DefaultConfig() Config {
	return Config{
		IDPolicy:         StableIDs,
		WorkerPoolSize:   1000,
		HeavyFraction:    0.09,
		HeavyActivityLo:  0.70,
		HeavyActivityHi:  0.95,
		CasualActivityLo: 0.02,
		CasualActivityHi: 0.12,
	}
}

// Validate reports whether the configuration is usable against the given
// population.
func (c *Config) Validate(pop *population.Population) error {
	if pop == nil || pop.Size() == 0 {
		return errors.New("platform: empty population")
	}
	if c.WorkerPoolSize < 1 || c.WorkerPoolSize > pop.Size() {
		return fmt.Errorf("platform: worker pool size %d outside [1, %d]", c.WorkerPoolSize, pop.Size())
	}
	if c.HeavyFraction < 0 || c.HeavyFraction > 1 {
		return fmt.Errorf("platform: heavy fraction %g outside [0, 1]", c.HeavyFraction)
	}
	for _, b := range [...][2]float64{
		{c.HeavyActivityLo, c.HeavyActivityHi},
		{c.CasualActivityLo, c.CasualActivityHi},
	} {
		if b[0] < 0 || b[1] > 1 || b[0] > b[1] {
			return fmt.Errorf("platform: activity bounds [%g, %g] invalid", b[0], b[1])
		}
	}
	return nil
}

// Worker is a platform account bound to a registry person.
type Worker struct {
	PersonID int
	// Activity is the per-day probability of taking an open survey.
	Activity float64
	stableID string
}

// HIT is a posted survey with its quota and bookkeeping.
type HIT struct {
	Survey    *survey.Survey
	Quota     int
	PostedDay int
	ClosedDay int // -1 while open
	// Appeal is the fraction of workers interested in this survey at
	// all. Interest is decided once per worker on first encounter; the
	// health survey's lower appeal is what bounds the paper's 18-of-72
	// overlap between de-anonymized workers and health respondents.
	Appeal     float64
	Responses  []survey.Response
	taken      map[int]bool // personID -> already responded
	interested map[int]bool // personID -> decided interest
}

// Open reports whether the HIT is still collecting responses.
func (h *HIT) Open() bool { return h.ClosedDay < 0 }

// Platform is the simulation engine. It is not safe for concurrent use;
// experiments drive it from a single goroutine.
type Platform struct {
	cfg     Config
	pop     *population.Population
	workers []Worker
	hits    map[string]*HIT
	order   []string // survey IDs in posting order
	day     int
	r       *rng.RNG
	// personOf maps reported worker IDs back to persons — ground truth
	// for scoring attacks, never exposed to the attack itself.
	personOf map[string]int
}

// New builds a platform over the population. Worker accounts are a
// uniform sample of the registry; engagement classes are assigned by
// HeavyFraction.
func New(pop *population.Population, cfg Config, r *rng.RNG) (*Platform, error) {
	if err := cfg.Validate(pop); err != nil {
		return nil, err
	}
	idx := r.Sample(pop.Size(), cfg.WorkerPoolSize)
	workers := make([]Worker, len(idx))
	for i, pi := range idx {
		w := Worker{PersonID: pop.Persons[pi].ID}
		if r.Bernoulli(cfg.HeavyFraction) {
			w.Activity = cfg.HeavyActivityLo + (cfg.HeavyActivityHi-cfg.HeavyActivityLo)*r.Float64()
		} else {
			w.Activity = cfg.CasualActivityLo + (cfg.CasualActivityHi-cfg.CasualActivityLo)*r.Float64()
		}
		w.stableID = workerTag(w.PersonID, "")
		workers[i] = w
	}
	return &Platform{
		cfg:      cfg,
		pop:      pop,
		workers:  workers,
		hits:     make(map[string]*HIT),
		r:        r,
		personOf: make(map[string]int),
	}, nil
}

// workerTag derives an opaque, deterministic worker ID. salt is empty for
// stable IDs and the survey ID for pseudonyms.
func workerTag(personID int, salt string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", personID, salt)
	return fmt.Sprintf("W%012X", h.Sum64()>>16)
}

// reportedID returns the worker ID the platform reports for a response by
// this person to this survey, per the ID policy.
func (pl *Platform) reportedID(personID int, surveyID string) string {
	if pl.cfg.IDPolicy == PseudonymousIDs {
		return workerTag(personID, surveyID)
	}
	return workerTag(personID, "")
}

// Day returns the current simulated day (0-based).
func (pl *Platform) Day() int { return pl.day }

// Workers returns the number of platform accounts.
func (pl *Platform) Workers() int { return len(pl.workers) }

// PostSurvey opens a HIT for the survey with the given response quota and
// full (1.0) appeal. It validates the survey and rejects duplicate IDs.
func (pl *Platform) PostSurvey(s *survey.Survey, quota int) error {
	return pl.PostSurveyAppeal(s, quota, 1)
}

// PostSurveyAppeal opens a HIT whose topic interests only the given
// fraction of workers.
func (pl *Platform) PostSurveyAppeal(s *survey.Survey, quota int, appeal float64) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if quota < 1 {
		return fmt.Errorf("platform: quota %d < 1 for survey %q", quota, s.ID)
	}
	if appeal <= 0 || appeal > 1 {
		return fmt.Errorf("platform: appeal %g outside (0, 1] for survey %q", appeal, s.ID)
	}
	if _, dup := pl.hits[s.ID]; dup {
		return fmt.Errorf("platform: survey %q already posted", s.ID)
	}
	if pl.cfg.Sink != nil {
		// A replayed durable sink may already hold this survey — but
		// only the identical definition: responses validated against a
		// diverged definition would corrupt the persisted stream, so the
		// sink is never asked to replace one.
		prev, err := pl.cfg.Sink.Survey(s.ID)
		switch {
		case err == nil:
			if !prev.Equal(s) {
				return fmt.Errorf("platform: sink already holds a different survey %q", s.ID)
			}
		case !errors.Is(err, store.ErrNotFound):
			return fmt.Errorf("platform: sink holds survey %q but cannot serve it: %w", s.ID, err)
		default:
			if _, err := pl.cfg.Sink.Publish(s); err != nil {
				return fmt.Errorf("platform: sink rejected survey %q: %w", s.ID, err)
			}
		}
	}
	pl.hits[s.ID] = &HIT{
		Survey:     s,
		Quota:      quota,
		PostedDay:  pl.day,
		ClosedDay:  -1,
		Appeal:     appeal,
		taken:      make(map[int]bool),
		interested: make(map[int]bool),
	}
	pl.order = append(pl.order, s.ID)
	return nil
}

// RunDay simulates one day: every worker considers each open HIT and
// takes it with probability Activity if they have not already. Workers
// arrive in jittered activity order — highly engaged workers snipe fresh
// HITs first, the documented behaviour of professional AMT workers — so
// when a quota binds it preferentially admits the heavy cohort. HITs
// close when their quota fills.
func (pl *Platform) RunDay() error {
	openHITs := pl.openHITs()
	if len(openHITs) > 0 {
		perm := pl.arrivalOrder()
		for _, wi := range perm {
			w := &pl.workers[wi]
			for _, h := range openHITs {
				if !h.Open() || h.taken[w.PersonID] {
					continue
				}
				interested, decided := h.interested[w.PersonID]
				if !decided {
					interested = pl.r.Bernoulli(h.Appeal)
					h.interested[w.PersonID] = interested
				}
				if !interested || !pl.r.Bernoulli(w.Activity) {
					continue
				}
				if err := pl.submit(w, h); err != nil {
					return err
				}
			}
		}
	}
	pl.day++
	return nil
}

// RunDays simulates n consecutive days.
func (pl *Platform) RunDays(n int) error {
	for i := 0; i < n; i++ {
		if err := pl.RunDay(); err != nil {
			return err
		}
	}
	return nil
}

// arrivalOrder returns worker indices sorted by jittered activity,
// highest first.
func (pl *Platform) arrivalOrder() []int {
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, len(pl.workers))
	for i := range pl.workers {
		jitter := 0.7 + 0.6*pl.r.Float64()
		ss[i] = scored{idx: i, score: pl.workers[i].Activity * jitter}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].score > ss[j].score })
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = s.idx
	}
	return out
}

// openHITs returns currently open HITs in posting order.
func (pl *Platform) openHITs() []*HIT {
	var out []*HIT
	for _, id := range pl.order {
		if h := pl.hits[id]; h.Open() {
			out = append(out, h)
		}
	}
	return out
}

// submit generates the worker's answers, applies the app-layer transform
// if any, validates, and records the response.
func (pl *Platform) submit(w *Worker, h *HIT) error {
	person := &pl.pop.Persons[w.PersonID]
	answers, err := population.Answers(person, h.Survey, pl.r)
	if err != nil {
		return fmt.Errorf("platform: answering %q: %w", h.Survey.ID, err)
	}
	level := ""
	obfuscated := false
	if pl.cfg.Transform != nil {
		answers, level, obfuscated, err = pl.cfg.Transform(person, h.Survey, answers)
		if err != nil {
			return fmt.Errorf("platform: transform for %q: %w", h.Survey.ID, err)
		}
	}
	id := pl.reportedID(w.PersonID, h.Survey.ID)
	resp := survey.Response{
		SurveyID:     h.Survey.ID,
		WorkerID:     id,
		Answers:      answers,
		PrivacyLevel: level,
		Obfuscated:   obfuscated,
		Day:          pl.day,
	}
	if err := resp.Validate(h.Survey); err != nil {
		return fmt.Errorf("platform: invalid response to %q: %w", h.Survey.ID, err)
	}
	if pl.cfg.Sink != nil {
		if err := pl.cfg.Sink.AppendResponse(&resp); err != nil {
			return fmt.Errorf("platform: sink rejected response to %q: %w", h.Survey.ID, err)
		}
	}
	h.Responses = append(h.Responses, resp)
	h.taken[w.PersonID] = true
	pl.personOf[id] = w.PersonID
	if len(h.Responses) >= h.Quota {
		h.ClosedDay = pl.day
	}
	return nil
}

// Responses returns the collected responses for a survey (the requester's
// view). The returned slice is shared; callers must not mutate it.
func (pl *Platform) Responses(surveyID string) ([]survey.Response, error) {
	h, ok := pl.hits[surveyID]
	if !ok {
		return nil, fmt.Errorf("platform: unknown survey %q", surveyID)
	}
	return h.Responses, nil
}

// ScanResponses streams a survey's collected responses to fn in
// submission order — the non-materializing counterpart of Responses,
// mirroring store.Store's scan idiom. The *Response passed to fn aliases
// platform-internal state; fn must not modify or retain it. A non-nil
// error from fn aborts the scan and is returned verbatim.
func (pl *Platform) ScanResponses(surveyID string, fn func(r *survey.Response) error) error {
	h, ok := pl.hits[surveyID]
	if !ok {
		return fmt.Errorf("platform: unknown survey %q", surveyID)
	}
	for i := range h.Responses {
		if err := fn(&h.Responses[i]); err != nil {
			return err
		}
	}
	return nil
}

// ResponseCount returns how many responses a survey has collected (0 for
// unknown surveys).
func (pl *Platform) ResponseCount(surveyID string) int {
	h, ok := pl.hits[surveyID]
	if !ok {
		return 0
	}
	return len(h.Responses)
}

// Surveys returns the posted surveys in posting order.
func (pl *Platform) Surveys() []*survey.Survey {
	out := make([]*survey.Survey, 0, len(pl.order))
	for _, id := range pl.order {
		out = append(out, pl.hits[id].Survey)
	}
	return out
}

// UniqueWorkers returns the number of distinct worker IDs observed across
// all responses — the paper's "400 unique users who took our surveys".
// Under pseudonymous IDs the same person counts once per survey, which is
// exactly what the requester would (mis)observe.
func (pl *Platform) UniqueWorkers() int {
	seen := make(map[string]bool)
	for _, h := range pl.hits {
		for i := range h.Responses {
			seen[h.Responses[i].WorkerID] = true
		}
	}
	return len(seen)
}

// UniquePersons returns the true number of distinct persons who responded
// (ground truth, for scoring).
func (pl *Platform) UniquePersons() int {
	seen := make(map[int]bool)
	for _, h := range pl.hits {
		for pid := range h.taken {
			seen[pid] = true
		}
	}
	return len(seen)
}

// TotalResponses returns the number of collected responses across all
// surveys.
func (pl *Platform) TotalResponses() int {
	n := 0
	for _, h := range pl.hits {
		n += len(h.Responses)
	}
	return n
}

// CostCents returns the requester's total payout: responses × reward.
func (pl *Platform) CostCents() int {
	total := 0
	for _, h := range pl.hits {
		total += len(h.Responses) * h.Survey.RewardCents
	}
	return total
}

// TruePersonOf resolves a reported worker ID to the underlying person —
// evaluation-only ground truth for scoring attack accuracy.
func (pl *Platform) TruePersonOf(workerID string) (int, bool) {
	pid, ok := pl.personOf[workerID]
	return pid, ok
}

// HITStats summarises one HIT for reports.
type HITStats struct {
	SurveyID  string
	Responses int
	Quota     int
	PostedDay int
	ClosedDay int
	CostCents int
}

// Stats returns per-HIT summaries in posting order.
func (pl *Platform) Stats() []HITStats {
	out := make([]HITStats, 0, len(pl.order))
	for _, id := range pl.order {
		h := pl.hits[id]
		out = append(out, HITStats{
			SurveyID:  id,
			Responses: len(h.Responses),
			Quota:     h.Quota,
			PostedDay: h.PostedDay,
			ClosedDay: h.ClosedDay,
			CostCents: len(h.Responses) * h.Survey.RewardCents,
		})
	}
	return out
}

// WorkerActivityQuantiles returns the q-quantiles of worker activity for
// reporting (sorted ascending).
func (pl *Platform) WorkerActivityQuantiles(qs []float64) []float64 {
	acts := make([]float64, len(pl.workers))
	for i, w := range pl.workers {
		acts[i] = w.Activity
	}
	sort.Float64s(acts)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(q * float64(len(acts)-1))
		out[i] = acts[idx]
	}
	return out
}
