// Package aggregate implements the requester-side estimation Loki's
// server performs over obfuscated responses: per-privacy-bin means,
// their deviation from the overall mean (the quantity plotted in the
// paper's Fig. 2), noise-aware variances and confidence intervals, and an
// inverse-variance pooled estimator that down-weights noisy bins.
//
// Because at-source noise is zero-mean and independent of the true
// answer, the plain average of noisy answers is an unbiased estimator of
// the true mean answer; its variance is (answer variance + noise
// variance)/n, which is why high-privacy bins with few users wander
// furthest from the overall mean — exactly the trade-off Fig. 2 shows.
package aggregate

import (
	"fmt"
	"math"

	"loki/internal/core"
	"loki/internal/stats"
	"loki/internal/survey"
)

// BinEstimate summarises one privacy bin's responses to one question.
type BinEstimate struct {
	Level core.Level `json:"level"`
	// N is the number of responses in the bin.
	N int `json:"n"`
	// Mean is the plain average of the bin's noisy answers (unbiased).
	Mean float64 `json:"mean"`
	// NoiseSigma is the known per-answer noise standard deviation of the
	// bin (from the published schedule).
	NoiseSigma float64 `json:"noise_sigma"`
	// Variance is the estimated variance of Mean.
	Variance float64 `json:"variance"`
	// Deviation is Mean minus the question's overall mean — the Fig. 2
	// y-axis.
	Deviation float64 `json:"deviation"`
}

// QuestionEstimate aggregates one question across all bins.
type QuestionEstimate struct {
	QuestionID string `json:"question_id"`
	// OverallMean is the average over every noisy answer regardless of
	// bin; OverallN is the total response count.
	OverallMean float64 `json:"overall_mean"`
	OverallN    int     `json:"overall_n"`
	// Bins holds per-level estimates. Bins with N == 0 have zero-valued
	// fields.
	Bins [core.NumLevels]BinEstimate `json:"bins"`
	// PooledMean is the inverse-variance weighted combination of the bin
	// means, with PooledVariance its variance.
	PooledMean     float64 `json:"pooled_mean"`
	PooledVariance float64 `json:"pooled_variance"`
}

// CI returns the normal-approximation confidence interval of the overall
// mean at the given level, accounting for the known noise in each bin.
func (qe *QuestionEstimate) CI(level float64) (stats.Interval, error) {
	if qe.OverallN == 0 {
		return stats.Interval{}, stats.ErrEmpty
	}
	// Variance of the overall mean: the overall mean is the N-weighted
	// combination of bin means, so its variance is Σ (n_b/N)²·Var(mean_b).
	variance := 0.0
	n := float64(qe.OverallN)
	for _, b := range qe.Bins {
		if b.N == 0 {
			continue
		}
		w := float64(b.N) / n
		variance += w * w * b.Variance
	}
	z, err := stats.NormalQuantile(0.5 + level/2)
	if err != nil {
		return stats.Interval{}, err
	}
	se := math.Sqrt(variance)
	return stats.Interval{Lo: qe.OverallMean - z*se, Hi: qe.OverallMean + z*se}, nil
}

// Estimator computes QuestionEstimates from obfuscated responses. It
// needs the schedule the clients used so it can attribute the right
// noise variance to each bin — public information in a Loki deployment.
type Estimator struct {
	schedule core.Schedule
}

// NewEstimator returns an estimator for the given published schedule.
func NewEstimator(schedule core.Schedule) (*Estimator, error) {
	if err := schedule.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{schedule: schedule}, nil
}

// binAccum is the resumable fold state of one (question, privacy-level)
// cell: the response count plus Welford running mean and sum of squared
// deviations (M2). It is everything the query-time finalize step needs
// to reproduce the batch estimator — one response can be folded in O(1)
// and two partial folds merge exactly.
type binAccum struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// add folds one noisy answer (Welford's update).
func (b *binAccum) add(x float64) {
	b.N++
	d := x - b.Mean
	b.Mean += d / float64(b.N)
	b.M2 += d * (x - b.Mean)
}

// merge folds another cell covering disjoint responses into this one
// (the parallel-variance update of Chan et al.).
func (b *binAccum) merge(o binAccum) {
	if o.N == 0 {
		return
	}
	if b.N == 0 {
		*b = o
		return
	}
	n := float64(b.N + o.N)
	d := o.Mean - b.Mean
	b.M2 += o.M2 + d*d*float64(b.N)*float64(o.N)/n
	b.Mean += d * float64(o.N) / n
	b.N += o.N
}

// sampleVariance is the unbiased (n-1 denominator) variance of the
// folded answers; 0 with fewer than two observations.
func (b *binAccum) sampleVariance() float64 {
	if b.N < 2 {
		return 0
	}
	return b.M2 / float64(b.N-1)
}

// questionBins is one rating/numeric question's full fold state.
type questionBins [core.NumLevels]binAccum

// EstimateQuestion aggregates all responses' answers to the given rating
// or numeric question: a batch fold over the same accumulator cells the
// incremental Accumulator maintains, finalized identically.
func (e *Estimator) EstimateQuestion(s *survey.Survey, q *survey.Question, responses []survey.Response) (*QuestionEstimate, error) {
	if q == nil {
		return nil, fmt.Errorf("aggregate: nil question")
	}
	if q.Kind != survey.Rating && q.Kind != survey.Numeric {
		return nil, fmt.Errorf("aggregate: question %q is %v; mean estimation needs a numeric kind", q.ID, q.Kind)
	}
	var bins questionBins
	for i := range responses {
		resp := &responses[i]
		if resp.SurveyID != s.ID {
			return nil, fmt.Errorf("aggregate: response for %q mixed into %q", resp.SurveyID, s.ID)
		}
		a := resp.Answer(q.ID)
		if a == nil {
			continue
		}
		lvl, err := core.ParseLevel(resp.PrivacyLevel)
		if err != nil {
			return nil, fmt.Errorf("aggregate: answer to %q: response has an unknown privacy level", q.ID)
		}
		bins[lvl].add(a.Rating)
	}
	return finalizeQuestion(e.schedule, q, &bins)
}

// finalizeQuestion is the query-time estimation step over folded bin
// state: per-bin means, noise-aware variances, deviations from the
// overall mean, and the inverse-variance pooled combination. It is
// shared by the batch Estimator and the incremental Accumulator, so the
// two read paths agree by construction.
func finalizeQuestion(schedule core.Schedule, q *survey.Question, bins *questionBins) (*QuestionEstimate, error) {
	qe := &QuestionEstimate{QuestionID: q.ID}
	var weighted float64
	for l := range bins {
		qe.OverallN += bins[l].N
		weighted += float64(bins[l].N) * bins[l].Mean
	}
	if qe.OverallN == 0 {
		return qe, nil
	}
	qe.OverallMean = weighted / float64(qe.OverallN)

	var pooled []stats.WeightedEstimate
	for l := 0; l < core.NumLevels; l++ {
		ba := bins[l]
		b := BinEstimate{Level: core.Level(l), N: ba.N}
		if l != int(core.None) {
			m, err := schedule.Mechanism(q, core.Level(l))
			if err != nil {
				return nil, fmt.Errorf("aggregate: %w", err)
			}
			b.NoiseSigma = m.Gaussian.Sigma
		}
		if ba.N > 0 {
			b.Mean = ba.Mean
			b.Variance = binMeanVariance(ba, b.NoiseSigma, q)
			b.Deviation = b.Mean - qe.OverallMean
			pooled = append(pooled, stats.WeightedEstimate{Value: b.Mean, Variance: b.Variance, N: b.N})
		}
		qe.Bins[l] = b
	}
	var err error
	qe.PooledMean, qe.PooledVariance, err = stats.PoolInverseVariance(pooled)
	if err != nil {
		return nil, fmt.Errorf("aggregate: pooling question %q: %w", q.ID, err)
	}
	return qe, nil
}

// binMeanVariance estimates Var(bin mean). With at least two
// observations the empirical variance of the noisy answers already
// includes the noise contribution; a model-based floor
// (noiseσ² + nominal answer variance)/n guards against degenerate small
// samples underestimating their own uncertainty.
func binMeanVariance(ba binAccum, noiseSigma float64, q *survey.Question) float64 {
	n := float64(ba.N)
	// Nominal answer variance: a conservative quarter of the scale's
	// half-width squared (ratings concentrate, they don't span uniformly).
	half := (q.ScaleMax - q.ScaleMin) / 2
	nominal := (half / 2) * (half / 2)
	model := (noiseSigma*noiseSigma + nominal) / n
	if ba.N < 2 {
		return model
	}
	empVar := ba.sampleVariance() / n
	if empVar < model/4 {
		// Small bins occasionally produce near-zero empirical variance
		// by chance; don't let them claim implausible certainty.
		return model / 4
	}
	return empVar
}

// EstimateSurvey aggregates every rating/numeric question in the survey.
// The result maps question ID to its estimate, preserving nothing about
// individual workers.
func (e *Estimator) EstimateSurvey(s *survey.Survey, responses []survey.Response) (map[string]*QuestionEstimate, error) {
	out := make(map[string]*QuestionEstimate)
	for i := range s.Questions {
		q := &s.Questions[i]
		if q.Kind != survey.Rating && q.Kind != survey.Numeric {
			continue
		}
		qe, err := e.EstimateQuestion(s, q, responses)
		if err != nil {
			return nil, err
		}
		out[q.ID] = qe
	}
	return out, nil
}

// NaiveVsPooled reports both estimators against a known truth for the
// estimator ablation (A4): the plain overall mean and the
// inverse-variance pooled mean, with their absolute errors.
type NaiveVsPooled struct {
	QuestionID  string
	Truth       float64
	Naive       float64
	NaiveError  float64
	Pooled      float64
	PooledError float64
}

// CompareEstimators evaluates both estimators for one question against
// ground truth.
func (e *Estimator) CompareEstimators(s *survey.Survey, q *survey.Question, responses []survey.Response, truth float64) (NaiveVsPooled, error) {
	qe, err := e.EstimateQuestion(s, q, responses)
	if err != nil {
		return NaiveVsPooled{}, err
	}
	out := NaiveVsPooled{
		QuestionID: q.ID,
		Truth:      truth,
		Naive:      qe.OverallMean,
		Pooled:     qe.PooledMean,
	}
	out.NaiveError = abs(out.Naive - truth)
	out.PooledError = abs(out.Pooled - truth)
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
