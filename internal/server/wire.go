// The public API's wire types.
package server

import (
	"math"

	"loki/internal/aggregate"
	"loki/internal/survey"
)

// SurveySummary is the worker-facing listing entry, mirroring the app's
// survey list screen (Fig. 1a): title, size, reward and the privacy
// levels on offer.
type SurveySummary struct {
	ID          string   `json:"id"`
	Title       string   `json:"title"`
	Description string   `json:"description,omitempty"`
	Questions   int      `json:"questions"`
	RewardCents int      `json:"reward_cents"`
	Levels      []string `json:"levels"`
	Responses   int      `json:"responses"`
}

// ScheduleInfo is the public noise schedule with the per-rating ε each
// level implies. Unbounded values (level none adds no noise, so its ε is
// infinite) are encoded as -1 because JSON cannot carry +Inf.
type ScheduleInfo struct {
	Sigma            []float64 `json:"sigma"`
	RREpsilon        []float64 `json:"rr_epsilon"`
	EpsilonPerRating []float64 `json:"epsilon_per_rating"`
	Delta            float64   `json:"delta"`
}

// jsonSafe maps +Inf (unbounded privacy loss) to the -1 wire sentinel.
func jsonSafe(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

// SubmitResult acknowledges a stored response.
type SubmitResult struct {
	SurveyID string `json:"survey_id"`
	Accepted bool   `json:"accepted"`
	// Stored is the number of responses the accepting shard now holds
	// for the survey — the survey's total in a single-shard deployment.
	Stored int `json:"stored"`
}

// AggregateResult carries per-question estimates for requesters: mean
// estimates for rating/numeric questions, debiased distributions for
// multiple-choice questions.
type AggregateResult struct {
	SurveyID  string                       `json:"survey_id"`
	Questions []aggregate.QuestionEstimate `json:"questions"`
	Choices   []aggregate.ChoiceEstimate   `json:"choices,omitempty"`
	// DegradedShards lists shards whose owner (and every replica) was
	// unreachable when this aggregate was merged: the estimates hold at
	// most what an earlier read last fetched from them, nothing if none
	// did. Empty on a complete read. The marker
	// is how a frontend keeps answering through a node outage instead
	// of failing the whole merged read.
	DegradedShards []int `json:"degraded_shards,omitempty"`
}

// QualityResult reports how many stored responses pass the survey's
// redundancy (consistency) checks — the server-side view of the paper's
// random-responder filtering. Obfuscated responses are checked with a
// noise-proportional slack (3σ at the response's level), since honest
// noisy answers legitimately perturb both halves of a pair.
type QualityResult struct {
	SurveyID     string `json:"survey_id"`
	Total        int    `json:"total"`
	Consistent   int    `json:"consistent"`
	Inconsistent int    `json:"inconsistent"`
	// PerLevel counts inconsistent responses per privacy level.
	PerLevelInconsistent []int `json:"per_level_inconsistent"`
}

// Stats reports simple liveness counters.
type Stats struct {
	Status            string  `json:"status"`
	ResponsesAccepted int64   `json:"responses_accepted"`
	LevelTally        []int64 `json:"level_tally"`
}

// PublishResult acknowledges a published survey and carries the linkage
// audit of the requester's whole portfolio — the platform-level warning
// the §2 attack shows is missing from AMT. Publication is not blocked
// (the requester may have legitimate reasons), but critical findings are
// logged.
type PublishResult struct {
	ID    string              `json:"id"`
	Audit *survey.AuditReport `json:"audit,omitempty"`
}

// BatchSubmitRequest is the batching client's submit body: a set of
// already-obfuscated responses, each carrying its own survey_id.
type BatchSubmitRequest struct {
	Responses []survey.Response `json:"responses"`
}

// BatchSubmitItem is one record's verdict in a batch submit reply,
// aligned with the request's Responses. Accepted records are durable;
// refused records carry the single-submit error vocabulary (the short
// code for shed/throttle/budget refusals, the message otherwise), the
// HTTP status the record would have received as a single submit, and
// the Retry-After hint when the refusal is retryable.
type BatchSubmitItem struct {
	SurveyID          string `json:"survey_id"`
	Accepted          bool   `json:"accepted"`
	Stored            int    `json:"stored,omitempty"`
	Status            int    `json:"status,omitempty"`
	Error             string `json:"error,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// BatchSubmitResult is a batch submit reply. The HTTP status is 200
// whenever the batch itself was processed — per-record failures travel
// in Results, because a mixed batch has no single status.
type BatchSubmitResult struct {
	Accepted int               `json:"accepted"`
	Results  []BatchSubmitItem `json:"results"`
}

// BudgetExhaustedError is the 429 budget_exhausted body: the error
// code plus the worker's remaining (ε, δ) headroom and the Retry-After
// hint, so a client can tell whether a cheaper level would still fit
// without a follow-up balance query.
type BudgetExhaustedError struct {
	Error             string  `json:"error"`
	RetryAfterSeconds int     `json:"retry_after_seconds"`
	RemainingEpsilon  float64 `json:"remaining_epsilon"`
	// RemainingDelta is the δ the ε headroom is measured at (the
	// ledger's configured conversion δ, constant per deployment).
	RemainingDelta float64 `json:"remaining_delta"`
}
