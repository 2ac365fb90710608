// Package server implements the Loki backend: the HTTP/JSON API the
// paper's Django prototype exposed to its iOS/Android apps. It serves
// survey definitions, accepts already-obfuscated responses (the server
// never sees raw answers — that is the entire point of at-source
// obfuscation), and computes noise-aware aggregates for requesters.
//
// Routes (v1):
//
//	GET  /api/v1/healthz                      liveness probe
//	GET  /api/v1/surveys                      survey list (worker view)
//	GET  /api/v1/surveys/{id}                 full survey definition
//	POST /api/v1/surveys                      publish a survey   [requester]
//	POST /api/v1/surveys/{id}/responses       submit a response
//	GET  /api/v1/surveys/{id}/aggregate       noise-aware stats  [requester]
//	GET  /api/v1/surveys/{id}/quality         consistency screen [requester]
//	GET  /api/v1/schedule                     the public noise schedule
//	GET  /api/v1/admin/store                  store/read-path stats [requester]
//	POST /api/v1/admin/accumulator/{id}/clear drop a poisoned accumulator [requester]
//
// Requester endpoints require "Authorization: Bearer <token>".
//
// The persistence layer behind the handlers is a shardset.ShardRouter:
// responses partition across shards (one shard in the classic
// standalone deployment, many in a cluster), and each shard has its own
// live partial aggregate.Accumulator folded independently and Merged at
// query time — so /aggregate and /quality cost O(1) in the number of
// stored responses with no cross-shard lock anywhere. The same Server
// type serves every cluster role: standalone (local single-shard
// router), node (local multi-shard router + the shardrpc surface),
// frontend (remote router merging node partials), and read replica
// (local router fed by WAL-tail shipping, mutating routes refused).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/aggregate"
	"loki/internal/budget"
	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Config configures a Server.
type Config struct {
	// Store is the persistence backend for the classic single-shard
	// deployment. Exactly one of Store and Router must be set; a Store
	// is wrapped in a one-shard local router.
	Store store.Store
	// Router is the sharded persistence backend: a shardset.Local over
	// per-shard stores (node, replica) or a shardrpc remote router
	// (frontend).
	Router shardset.ShardRouter
	// Schedule is the published noise schedule; workers obfuscate with
	// it and aggregation attributes per-bin noise from it.
	Schedule core.Schedule
	// RequesterToken guards publish/aggregate endpoints. Required.
	RequesterToken string
	// Logger receives request logs; nil disables logging.
	Logger *log.Logger
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Checkpoints, when non-nil, is the durable checkpoint log for live
	// aggregate state: restored from on the first read of each survey
	// (so restart catch-up scans only each shard's tail beyond its own
	// checkpoint cursor) and written to by a background checkpointer.
	// The caller owns the log and closes it after the server.
	Checkpoints *checkpoint.Log
	// CheckpointInterval is the background checkpointer's flush period
	// (default 15s).
	CheckpointInterval time.Duration
	// CheckpointDirty is the minimum number of newly folded responses
	// that makes a shard partial's checkpoint stale enough to rewrite
	// on a flush (default 1).
	CheckpointDirty int
	// ClusterShards is the global shard count of the placement this
	// server participates in (a node's router owns a subset of it).
	// Defaults to the router's own shard count, which is correct for
	// standalone and frontend deployments; cluster nodes must set it so
	// durable per-shard state carries the true layout identity.
	ClusterShards int
	// FrontendCacheTTL bounds how long a frontend serves a cached
	// merged aggregate without revalidating against the nodes: within
	// the TTL a read is a pure cache hit (no RPCs) unless a submit
	// through this frontend bumped the expected cursor for some shard.
	// Zero means the 250ms default; negative disables caching entirely
	// (every read fans out full snapshot RPCs, the pre-cache behavior).
	// Only frontends (routers that serve partials) consult it. In a
	// multi-frontend deployment the TTL is the staleness bound for
	// submits routed through *other* frontends.
	FrontendCacheTTL time.Duration
	// FrontendRefresh, when positive, starts a background refresher
	// that revalidates recently read surveys' cache entries on this
	// interval, so steady-state reads of hot surveys never block on
	// node RPCs. Zero disables (reads refresh inline on expiry).
	FrontendRefresh time.Duration
	// Role names the deployment role on the admin surface ("standalone"
	// when empty; cmd/loki-server sets node/frontend/replica).
	Role string
	// ReadOnly refuses every mutating route (publish, submit, admin
	// clear) with 403 — the read-replica mode.
	ReadOnly bool
	// ReplicationInfo, when non-nil, is polled by the admin surface for
	// the replica's staleness cursors.
	ReplicationInfo func() *ReplicationInfo
	// Promote, when non-nil, handles POST /api/v1/admin/promote/{shard}:
	// the operator's failover signal. A replica wires its promotion here;
	// every other role answers 404.
	Promote func(shard int) (uint64, error)
	// Budget, when non-nil, is the privacy-budget charger the submit
	// path debits per-worker epsilon accounts through before appending:
	// an in-process budget.Set (standalone, node) or a shardrpc remote
	// charger (frontend). The caller owns it and closes it after the
	// server.
	Budget budget.Charger
	// BudgetEnforce selects what a charge decides: "off" never consults
	// the charger, "log" records every debit but admits over-cap
	// submits (reporting them), "enforce" rejects an over-cap submit
	// with 429 budget_exhausted. Empty defaults to "enforce" when
	// Budget is set, "off" otherwise.
	BudgetEnforce string
	// SubmitInflight, when positive, bounds how many submit requests
	// execute the submit path concurrently (admission control). Further
	// requests wait for a slot in a bounded queue of SubmitQueue; any
	// request beyond inflight+queue is shed immediately with 429 +
	// Retry-After — overload sheds instead of piling up goroutines.
	// Zero disables admission control (the pre-admission behavior).
	SubmitInflight int
	// SubmitQueue is the admission queue bound (how many submits may
	// wait for an inflight slot). Zero with SubmitInflight set means
	// shed as soon as every slot is busy. Setting SubmitQueue without
	// SubmitInflight enables admission with a default inflight bound of
	// 4x GOMAXPROCS.
	SubmitQueue int
	// RateLimitRPS, when positive, enforces a per-requester token
	// bucket on the submit path: each worker accrues RateLimitRPS
	// tokens/second up to RateLimitBurst and a submit spends one; an
	// empty bucket answers 429 rate_limited with a Retry-After hint.
	// Zero disables (the default).
	RateLimitRPS float64
	// RateLimitBurst caps a worker's token bucket (default
	// ceil(RateLimitRPS), at least 1).
	RateLimitBurst int
}

// Budget enforcement modes (parsed from Config.BudgetEnforce).
const (
	budgetOff = iota
	budgetLog
	budgetEnforcing
)

// Server is the Loki backend. It implements http.Handler.
type Server struct {
	cfg        Config
	router     shardset.ShardRouter
	est        *aggregate.Estimator
	mux        *http.ServeMux
	served     atomic.Int64 // responses accepted, for metrics
	levelTally [core.NumLevels]atomic.Int64

	// obf costs submits for budget charging (rho per response); only
	// built when a budget charger is configured. budgetMode is the
	// parsed BudgetEnforce; budgetRejected counts 429s served.
	obf            *core.Obfuscator
	budgetMode     int
	budgetRejected atomic.Int64

	// adm is the bounded submit admission gate and limiter the
	// per-requester rate limit; both nil (no gate, no branch on the
	// hot path) unless the corresponding Config knobs are set.
	adm     *admission
	limiter *rateLimiter

	// dispatch is the one role-bound stage of the public submit pipeline
	// (submit.go). A server over a local router owns host, the shard host
	// its records enter in-process (and that NewNode and NewReplica serve
	// over shardrpc); a frontend holds remote, whose shard batchers they
	// are queued on.
	dispatch func(ctx context.Context, recs []*submitRecord)
	host     *shardHost
	remote   *shardrpc.Remote

	// live holds per-survey live aggregate state (one partial per
	// shard) so reads are O(1) in stored responses; see liveSet.
	liveMu sync.Mutex
	live   map[string]*liveSet
	// poisoned counts stored records the live read path has rejected
	// (see PoisonError), for the admin surface.
	poisoned atomic.Int64

	// shardHealth holds the node's per-shard health rows ([]ShardHealth,
	// set by Node.ApplyManifest) for the unauthenticated health probe.
	shardHealth atomic.Value

	// cache, when non-nil, is a frontend's partial cache: its reads merge
	// per-shard partials already folded by the nodes that own them
	// (remote.PartialSince), and the cache serves a merge keyed by
	// (survey, cursor vector), revalidating with conditional delta RPCs
	// instead of re-shipping full snapshots. See frontcache.go.
	cache *frontCache

	// ckptStop/ckptDone bracket the background checkpointer's lifetime;
	// refStop/refDone the frontend cache refresher's. Nil when the
	// respective loop is disabled.
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	refStop   chan struct{}
	refDone   chan struct{}
	closeOnce sync.Once
}

// New validates the configuration and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil && cfg.Router == nil {
		return nil, errors.New("server: config needs a store or a shard router")
	}
	if cfg.Store != nil && cfg.Router != nil {
		return nil, errors.New("server: config needs a store or a shard router, not both")
	}
	if cfg.RequesterToken == "" {
		return nil, errors.New("server: config needs a requester token")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 15 * time.Second
	}
	if cfg.CheckpointDirty <= 0 {
		cfg.CheckpointDirty = 1
	}
	if cfg.Role == "" {
		cfg.Role = "standalone"
	}
	if cfg.BudgetEnforce == "" {
		if cfg.Budget != nil {
			cfg.BudgetEnforce = "enforce"
		} else {
			cfg.BudgetEnforce = "off"
		}
	}
	var budgetMode int
	switch cfg.BudgetEnforce {
	case "off":
		budgetMode = budgetOff
	case "log":
		budgetMode = budgetLog
	case "enforce":
		budgetMode = budgetEnforcing
	default:
		return nil, fmt.Errorf("server: budget enforce mode %q (want off, log, or enforce)", cfg.BudgetEnforce)
	}
	if budgetMode != budgetOff && cfg.Budget == nil {
		return nil, fmt.Errorf("server: budget mode %q needs a budget charger", cfg.BudgetEnforce)
	}
	est, err := aggregate.NewEstimator(cfg.Schedule)
	if err != nil {
		return nil, err
	}
	var obf *core.Obfuscator
	if cfg.Budget != nil {
		// The submit path costs each response with the published
		// schedule; δ lives in the charger's config, so the default
		// options are fine here — rho is δ-free.
		obf, err = core.NewObfuscator(cfg.Schedule, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
	}
	router := cfg.Router
	if router == nil {
		router = shardset.NewLocalSingle(cfg.Store)
	}
	if cfg.ClusterShards <= 0 {
		cfg.ClusterShards = router.Shards()
	}
	if cfg.SubmitQueue > 0 && cfg.SubmitInflight <= 0 {
		cfg.SubmitInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.SubmitQueue < 0 || cfg.SubmitInflight < 0 {
		return nil, errors.New("server: submit queue/inflight bounds must be non-negative")
	}
	if cfg.RateLimitRPS < 0 {
		return nil, errors.New("server: rate limit rps must be non-negative")
	}
	s := &Server{cfg: cfg, router: router, est: est, obf: obf, budgetMode: budgetMode, mux: http.NewServeMux(), live: make(map[string]*liveSet)}
	switch r := router.(type) {
	case *shardset.Local:
		s.host = newShardHost(s, r, cfg.ClusterShards)
		s.dispatch = s.dispatchLocal
		if cfg.Budget != nil {
			// The host charges in one ledger commit per batch, which only
			// the in-process set offers.
			set, ok := cfg.Budget.(*budget.Set)
			if !ok {
				return nil, fmt.Errorf("server: a local router charges through a *budget.Set, not %T", cfg.Budget)
			}
			s.host.budget = set
		}
	case *shardrpc.Remote:
		s.remote = r
		s.dispatch = s.dispatchRemote
		if cfg.FrontendCacheTTL >= 0 {
			ttl := cfg.FrontendCacheTTL
			if ttl == 0 {
				ttl = DefaultFrontendCacheTTL
			}
			s.cache = newFrontCache(ttl)
		}
	default:
		return nil, fmt.Errorf("server: unsupported shard router %T", router)
	}
	if cfg.SubmitInflight > 0 {
		s.adm = newAdmission(cfg.SubmitInflight, cfg.SubmitQueue)
	}
	if cfg.RateLimitRPS > 0 {
		s.limiter = newRateLimiter(cfg.RateLimitRPS, cfg.RateLimitBurst)
	}
	s.routes()
	if cfg.Checkpoints != nil {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	if s.cache != nil && cfg.FrontendRefresh > 0 {
		s.refStop = make(chan struct{})
		s.refDone = make(chan struct{})
		go s.refreshLoop(cfg.FrontendRefresh)
	}
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /api/v1/surveys", s.handleListSurveys)
	s.mux.HandleFunc("GET /api/v1/surveys/{id}", s.handleGetSurvey)
	s.mux.HandleFunc("POST /api/v1/surveys", s.requireToken(s.mutating(s.handlePublishSurvey)))
	s.mux.HandleFunc("POST /api/v1/surveys/{id}/responses", s.mutating(s.admit(s.handleSubmitResponse)))
	s.mux.HandleFunc("POST /api/v1/responses", s.mutating(s.admit(s.handleSubmitBatch)))
	s.mux.HandleFunc("GET /api/v1/surveys/{id}/aggregate", s.requireToken(s.handleAggregate))
	s.mux.HandleFunc("GET /api/v1/surveys/{id}/quality", s.requireToken(s.handleQuality))
	s.mux.HandleFunc("GET /api/v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("GET /api/v1/admin/store", s.requireToken(s.handleAdminStore))
	s.mux.HandleFunc("GET /api/v1/admin/budget/{worker}", s.requireToken(s.handleAdminBudget))
	s.mux.HandleFunc("POST /api/v1/admin/accumulator/{id}/clear", s.requireToken(s.mutating(s.handleAccumulatorClear)))
	// Health is deliberately unauthenticated (like healthz): it is the
	// probe target of failover detectors and load balancers.
	s.mux.HandleFunc("GET /api/v1/admin/health", s.handleAdminHealth)
	// Promote is NOT wrapped in mutating: the whole point is flipping a
	// read-only replica writable.
	s.mux.HandleFunc("POST /api/v1/admin/promote/{shard}", s.requireToken(s.handlePromote))
}

// ServeHTTP implements http.Handler with panic recovery and logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	s.logf("%s %s", r.Method, r.URL.Path)
	s.mux.ServeHTTP(w, r)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// requireToken wraps requester-only handlers with bearer-token auth.
func (s *Server) requireToken(h http.HandlerFunc) http.HandlerFunc {
	want := "Bearer " + s.cfg.RequesterToken
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != want {
			writeError(w, http.StatusUnauthorized, "missing or invalid requester token")
			return
		}
		h(w, r)
	}
}

// mutating refuses writes on a read-only replica.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	if !s.cfg.ReadOnly {
		return h
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, http.StatusForbidden, "read-only replica: submit and publish go to the primary")
	}
}

// ---------------------------------------------------------------------------
// Wire types

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
	// unreachable when this aggregate was merged: their responses are
	// missing from the estimates. Empty on a complete read. The marker
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

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	tally := make([]int64, core.NumLevels)
	for i := range tally {
		tally[i] = s.levelTally[i].Load()
	}
	writeJSON(w, http.StatusOK, Stats{
		Status:            "ok",
		ResponsesAccepted: s.served.Load(),
		LevelTally:        tally,
	})
}

func (s *Server) handleSchedule(w http.ResponseWriter, _ *http.Request) {
	obf, err := core.NewObfuscator(s.cfg.Schedule, core.DefaultOptions())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	eps := obf.EpsilonPerRating()
	info := ScheduleInfo{Delta: obf.Options().Delta}
	for l := 0; l < core.NumLevels; l++ {
		info.Sigma = append(info.Sigma, s.cfg.Schedule.Sigma[l])
		info.RREpsilon = append(info.RREpsilon, jsonSafe(s.cfg.Schedule.RREpsilon[l]))
		info.EpsilonPerRating = append(info.EpsilonPerRating, jsonSafe(eps[l]))
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListSurveys(w http.ResponseWriter, _ *http.Request) {
	surveys, err := s.router.Surveys()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	levels := make([]string, 0, core.NumLevels)
	for _, l := range core.Levels() {
		levels = append(levels, l.String())
	}
	out := make([]SurveySummary, 0, len(surveys))
	for _, sv := range surveys {
		out = append(out, SurveySummary{
			ID:          sv.ID,
			Title:       sv.Title,
			Description: sv.Description,
			Questions:   len(sv.Questions),
			RewardCents: sv.RewardCents,
			Levels:      levels,
			Responses:   shardset.Count(s.router, sv.ID),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSurvey(w http.ResponseWriter, r *http.Request) {
	sv, err := s.router.Survey(r.PathValue("id"))
	if err != nil {
		s.writeRefusal(w, surveyRefusal(err))
		return
	}
	writeJSON(w, http.StatusOK, sv)
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

func (s *Server) handlePublishSurvey(w http.ResponseWriter, r *http.Request) {
	var sv survey.Survey
	if !s.readJSON(w, r, &sv) {
		return
	}
	status := http.StatusCreated
	if err := s.router.PutSurvey(&sv); err != nil {
		if !errors.Is(err, store.ErrExists) {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Republish. An identical definition is idempotent; a changed
		// one replaces the stored definition and must invalidate every
		// piece of fold state built under the old one — the live
		// partials and the durable checkpoints — or /aggregate and
		// /quality keep answering from bins laid out for the old
		// question set.
		prev, gerr := s.router.Survey(sv.ID)
		if gerr != nil {
			writeError(w, http.StatusInternalServerError, gerr.Error())
			return
		}
		status = http.StatusOK
		if prev.Fingerprint() != sv.Fingerprint() {
			if rerr := s.router.ReplaceSurvey(&sv); rerr != nil {
				writeError(w, http.StatusBadRequest, rerr.Error())
				return
			}
			s.invalidateLive(sv.ID)
			s.logf("republished survey %q with a changed definition; live aggregate state reset", sv.ID)
		}
	}
	portfolio, err := s.router.Surveys()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	audit := survey.AuditPortfolio(portfolio)
	if audit.MaxSeverity() == survey.Critical {
		s.logf("CRITICAL linkage audit after publishing %q: portfolio completes a quasi-identifier", sv.ID)
	}
	writeJSON(w, status, PublishResult{ID: sv.ID, Audit: audit})
}

func (s *Server) handleSubmitResponse(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var resp survey.Response
	if !s.readJSON(w, r, &resp) {
		return
	}
	if resp.SurveyID == "" {
		resp.SurveyID = id
	}
	if resp.SurveyID != id {
		// The URL names the survey: an unknown one is a 404 before the
		// body can disagree with it.
		if _, err := s.router.Survey(id); err != nil {
			s.writeRefusal(w, surveyRefusal(err))
			return
		}
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("response survey_id %q does not match URL %q", resp.SurveyID, id))
		return
	}
	rec := s.submit(r.Context(), []survey.Response{resp})[0]
	if rec.ref != nil {
		s.writeRefusal(w, rec.ref)
		return
	}
	writeJSON(w, http.StatusCreated, SubmitResult{
		SurveyID: id,
		Accepted: true,
		Stored:   rec.stored,
	})
}

// submitRefusal is a refused submit before it is written to the wire:
// the HTTP status, the wire error (the short code for shed, throttle,
// failover and budget refusals, the human message otherwise), the
// Retry-After hint for retryable refusals, and the budget outcome when
// the refusal is the enriched budget_exhausted shape.
type submitRefusal struct {
	status     int
	msg        string
	retryAfter int
	budget     *budget.Outcome
}

// writeRefusal renders a refusal as the single-submit error response:
// budget refusals get the enriched BudgetExhaustedError body, retryable
// refusals carry Retry-After on header and body, everything else is the
// plain {"error": msg} envelope.
func (s *Server) writeRefusal(w http.ResponseWriter, ref *submitRefusal) {
	switch {
	case ref.budget != nil:
		w.Header().Set("Retry-After", strconv.Itoa(ref.retryAfter))
		writeJSON(w, ref.status, BudgetExhaustedError{
			Error:             ref.msg,
			RetryAfterSeconds: ref.retryAfter,
			RemainingEpsilon:  ref.budget.RemainingEpsilon,
			RemainingDelta:    s.cfg.Budget.Config().Delta,
		})
	case ref.retryAfter > 0:
		writeRetryable(w, ref.status, ref.msg, ref.retryAfter)
	default:
		writeError(w, ref.status, ref.msg)
	}
}

// maxBatchSubmit bounds a batch submit request; the 1 MiB body bound
// keeps realistic batches far below it, this is a defense in depth.
const maxBatchSubmit = 1024

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

// handleSubmitBatch is the batching submit endpoint
// (POST /api/v1/responses): the records run the same pipeline as a
// single submit, together — each shard's share of them is one durability
// round — and each answers for itself in a request-aligned result.
// Admission control gates the whole request (one queue slot per batch);
// the per-requester rate limit is spent per record.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Responses) == 0 {
		writeError(w, http.StatusBadRequest, "batch must contain at least one response")
		return
	}
	if len(req.Responses) > maxBatchSubmit {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d responses exceeds the %d-record bound", len(req.Responses), maxBatchSubmit))
		return
	}
	res := BatchSubmitResult{Results: make([]BatchSubmitItem, len(req.Responses))}
	for i, rec := range s.submit(r.Context(), req.Responses) {
		item := BatchSubmitItem{SurveyID: rec.resp.SurveyID}
		if ref := rec.ref; ref != nil {
			item.Status = ref.status
			item.Error = ref.msg
			item.RetryAfterSeconds = ref.retryAfter
		} else {
			item.Accepted = true
			item.Stored = rec.stored
			res.Accepted++
		}
		res.Results[i] = item
	}
	writeJSON(w, http.StatusOK, &res)
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

// surveyEstimate is the shared read path of /aggregate and /quality:
// resolve the survey, then refresh its per-shard partials (scan only
// the responses each shard appended since the last read — usually none
// — fold, Merge, finalize). On a frontend the partials come from the
// owning nodes instead of local folds. Cost is independent of how many
// responses the store holds.
func (s *Server) surveyEstimate(w http.ResponseWriter, id string) (*survey.Survey, *aggregate.SurveyEstimate, []int, bool) {
	sv, err := s.router.Survey(id)
	if err != nil {
		s.writeRefusal(w, surveyRefusal(err))
		return nil, nil, nil, false
	}
	var fin *aggregate.SurveyEstimate
	var degraded []int
	switch {
	case s.cache != nil:
		fin, degraded, err = s.cachedRemoteEstimate(sv)
	case s.remote != nil:
		fin, degraded, err = s.mergedRemoteEstimate(sv)
	default:
		var ls *liveSet
		if ls, err = s.liveFor(sv); err == nil {
			fin, err = s.refresh(ls)
		}
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, nil, nil, false
	}
	return sv, fin, degraded, true
}

// mergedRemoteEstimate is the uncached frontend read path: fetch every
// shard's full partial accumulator from the node that owns and folds
// it, Merge the partials, finalize. The state shipped per shard is
// O(questions × levels) — independent of response count — so a merged
// read costs one small RPC per shard regardless of how much data the
// cluster holds. It is what a frontend runs with caching disabled, and
// what a cold cache's first fill is equivalent to.
//
// A shard whose RPC failed in transport (node down, every replica with
// it) degrades instead of failing the whole read: the merge proceeds
// without it and the shard lands in the returned degraded list. Errors
// the owner itself answered (fingerprint skew, unknown survey) still
// fail whole — the node is alive and disagreeing, which no marker can
// paper over. A read where every shard degrades fails: there is
// nothing left to serve.
func (s *Server) mergedRemoteEstimate(sv *survey.Survey) (*aggregate.SurveyEstimate, []int, error) {
	n := s.router.Shards()
	parts := make([]*shardrpc.Partial, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = s.remote.PartialSince(i, sv.ID, 0)
		}(i)
	}
	wg.Wait()
	var degraded []int
	for i, err := range errs {
		if err != nil {
			if shardrpc.IsTransportError(err) {
				degraded = append(degraded, i)
				continue
			}
			return nil, nil, fmt.Errorf("shard %d partial: %w", i, err)
		}
	}
	if len(degraded) == n {
		return nil, nil, fmt.Errorf("every shard unreachable (first: shard %d: %w)", degraded[0], errs[degraded[0]])
	}
	if len(degraded) > 0 {
		s.logf("merged read of %q degraded: shards %v unreachable", sv.ID, degraded)
	}
	fp := sv.Fingerprint()
	merged, err := aggregate.NewAccumulator(s.cfg.Schedule, sv)
	if err != nil {
		return nil, nil, err
	}
	for i, p := range parts {
		if p == nil {
			continue // degraded
		}
		if p.Fingerprint != fp {
			// A republish is still propagating: the node folded under a
			// different definition than the frontend resolved. Refusing
			// beats merging bins from two question sets.
			return nil, nil, fmt.Errorf("shard %d partial folded under definition %s, frontend has %s (republish in flight?)",
				i, p.Fingerprint, fp)
		}
		part, err := aggregate.RestoreAccumulator(s.cfg.Schedule, sv, p.State)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d partial: %w", i, err)
		}
		if err := merged.Merge(part); err != nil {
			return nil, nil, fmt.Errorf("shard %d partial: %w", i, err)
		}
	}
	fin, err := merged.Finalize()
	if err != nil {
		return nil, nil, err
	}
	return fin, degraded, nil
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	sv, fin, degraded, ok := s.surveyEstimate(w, r.PathValue("id"))
	if !ok {
		return
	}
	out := AggregateResult{SurveyID: sv.ID, DegradedShards: degraded}
	for i := range sv.Questions {
		if qe, ok := fin.Questions[sv.Questions[i].ID]; ok {
			out.Questions = append(out.Questions, *qe)
		}
		if ce, ok := fin.Choices[sv.Questions[i].ID]; ok {
			out.Choices = append(out.Choices, *ce)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	sv, fin, _, ok := s.surveyEstimate(w, r.PathValue("id"))
	if !ok {
		return
	}
	out := QualityResult{
		SurveyID:             sv.ID,
		Total:                fin.Quality.Total,
		Consistent:           fin.Quality.Consistent,
		Inconsistent:         fin.Quality.Inconsistent,
		PerLevelInconsistent: append([]int(nil), fin.Quality.PerLevelInconsistent[:]...),
	}
	writeJSON(w, http.StatusOK, out)
}

// errDeltaDone aborts a delta fold once it reaches the partial's
// cursor (later records belong to the next delta).
var errDeltaDone = errors.New("server: delta complete")

// PartialState serves a shard's partial accumulator to the shardrpc
// surface: catch the shard's partial up with its store, then answer
// conditionally against the cursor the caller already holds —
// not-modified when nothing changed, a delta fold of only the
// responses in (have, cursor] when the caller is merely behind, a full
// snapshot when the caller is cold (have 0) or ahead of the shard (its
// cached state indexes a stream this store never produced). shard is a
// local shard index.
func (s *Server) PartialState(shard int, surveyID string, have uint64) (*shardrpc.Partial, error) {
	if shard < 0 || shard >= s.router.Shards() {
		return nil, fmt.Errorf("server: shard %d outside [0, %d)", shard, s.router.Shards())
	}
	sv, err := s.router.Survey(surveyID)
	if err != nil {
		return nil, err
	}
	ls, err := s.liveFor(sv)
	if err != nil {
		return nil, err
	}
	p := ls.parts[shard]
	p.mu.Lock()
	if err := p.catchUp(s.router); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	cursor := p.cursor.Load()
	out := &shardrpc.Partial{
		SurveyID:    surveyID,
		Shard:       shard,
		Fingerprint: ls.fp,
		Cursor:      cursor,
	}
	if have == cursor && have > 0 {
		p.mu.Unlock()
		out.NotModified = true
		return out, nil
	}
	if have == 0 || have > cursor {
		out.State = p.acc.Snapshot()
		p.mu.Unlock()
		return out, nil
	}
	p.mu.Unlock()
	// Delta: fold only (have, cursor] from the store into a fresh
	// accumulator. The records are already durable and immutable, so no
	// lock is held across the scan; the partial itself folded every one
	// of them without error during catch-up, so Add cannot reject here
	// short of store corruption.
	delta, err := aggregate.NewAccumulator(s.cfg.Schedule, sv)
	if err != nil {
		return nil, err
	}
	err = s.router.ScanShard(shard, surveyID, have, func(seq uint64, r *survey.Response) error {
		if seq > cursor {
			return errDeltaDone
		}
		return delta.Add(r)
	})
	if err != nil && !errors.Is(err, errDeltaDone) {
		return nil, err
	}
	out.Delta = true
	out.From = have
	out.State = delta.Snapshot()
	return out, nil
}

// ---------------------------------------------------------------------------
// Admin surface

// SurveyVersionInfo is one definition version in a survey's republish
// history.
type SurveyVersionInfo struct {
	Fingerprint string `json:"fingerprint"`
	// PublishedAt is when the definition was published; zero for
	// records persisted before publish timestamps existed.
	PublishedAt time.Time `json:"published_at,omitzero"`
}

// SurveyHistoryInfo is one survey's republish history on the admin
// surface: every definition fingerprint the store has held, oldest
// first. A single entry means the survey was never republished.
type SurveyHistoryInfo struct {
	SurveyID string              `json:"survey_id"`
	Versions []SurveyVersionInfo `json:"versions"`
}

// ReplicaShardInfo is one followed shard's staleness cursor on a
// replica's admin surface.
type ReplicaShardInfo struct {
	// Shard is the global shard index being followed.
	Shard int `json:"shard"`
	// Role is "replica" while the shard follows its primary, "primary"
	// once this replica has been promoted for it.
	Role string `json:"role,omitempty"`
	// Epoch is the source journal epoch the replica is applying.
	Epoch uint64 `json:"epoch"`
	// AppliedOffset is how far into the source journal the replica has
	// applied; SourceEnd is the journal length at the last poll, so
	// SourceEnd − AppliedOffset is the lag in records.
	AppliedOffset uint64 `json:"applied_offset"`
	SourceEnd     uint64 `json:"source_end"`
	LagRecords    uint64 `json:"lag_records"`
	// Resets counts epoch mismatches that forced a full resync.
	Resets int `json:"resets,omitempty"`
	// Bootstraps counts journal truncations that forced a rebuild from
	// store scans.
	Bootstraps int `json:"bootstraps,omitempty"`
	// LastSyncAt is when the shard last completed a poll; LastError is
	// the most recent poll failure (empty when healthy).
	LastSyncAt time.Time `json:"last_sync_at,omitzero"`
	LastError  string    `json:"last_error,omitempty"`
}

// ReplicationInfo is the replica's staleness report.
type ReplicationInfo struct {
	// Source is the node address the replica follows.
	Source string `json:"source"`
	// Shards holds per-followed-shard cursors.
	Shards []ReplicaShardInfo `json:"shards"`
}

// AdminStoreInfo is the requester-facing observability view of the
// persistence layer and the live read path: per-log WAL shape for the
// ingest store, every live partial's catch-up cursor, republish
// history, and — on a replica — the replication staleness cursors.
type AdminStoreInfo struct {
	// Backend names the store implementation ("mem", "file", "ingest",
	// "remote" for a frontend, or the concrete Go type for custom
	// stores).
	Backend string `json:"backend"`
	// Role is the deployment role (standalone, node, frontend,
	// replica).
	Role string `json:"role"`
	// RouterShards is the shard count responses partition across (1 in
	// the classic standalone deployment).
	RouterShards int `json:"router_shards"`
	// Ingest carries cumulative ingest counters; only for ingest
	// backends.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
	// Shards holds segment/compaction state, one entry per ingest log
	// (an ingest store keeps exactly one); only for ingest backends.
	Shards []ingest.ShardStats `json:"shards,omitempty"`
	// Accumulators lists the live partials' cursors, sorted by survey
	// then shard.
	Accumulators []LiveAccumulator `json:"accumulators"`
	// PoisonedRecords counts stored records the live read path has
	// rejected since startup (each one wedges its shard's reads for
	// that survey until the accumulator is rebuilt; see PoisonError).
	PoisonedRecords int64 `json:"poisoned_records"`
	// Checkpoints reports the durable checkpoint log's per-shard
	// cursors and ages; nil when checkpointing is disabled.
	Checkpoints *CheckpointInfo `json:"checkpoints,omitempty"`
	// Journals reports per-shard append-journal retention (entries,
	// truncation base, retained bytes, registered followers); only on
	// journaling nodes.
	Journals []shardset.JournalStats `json:"journals,omitempty"`
	// FrontendCache reports the frontend partial cache's per-survey
	// hit/miss/delta/not-modified counters and cursor vectors; only on
	// caching frontends.
	FrontendCache *FrontendCacheInfo `json:"frontend_cache,omitempty"`
	// Surveys is the per-survey republish history (definition
	// fingerprints with publish timestamps); only for stores that
	// record it.
	Surveys []SurveyHistoryInfo `json:"surveys,omitempty"`
	// Replication is the replica's staleness report; only on replicas.
	Replication *ReplicationInfo `json:"replication,omitempty"`
	// Budget reports the privacy-budget ledger (mode, cap, per-shard
	// stats); only when a budget charger is configured.
	Budget *BudgetInfo `json:"budget,omitempty"`
	// Admission reports the submit admission gate and the
	// per-requester rate limit (queue depth, inflight, shed and
	// throttle counters); only when either control is configured.
	Admission *AdmissionInfo `json:"admission,omitempty"`
}

// BudgetInfo is the admin surface's view of the budget service.
type BudgetInfo struct {
	// Mode is the enforcement mode (off, log, enforce).
	Mode string `json:"mode"`
	// CapEpsilon and Delta are the configured per-worker (ε, δ) ceiling.
	CapEpsilon float64 `json:"cap_epsilon"`
	Delta      float64 `json:"delta"`
	// Shards is the global budget shard count workers hash into.
	Shards int `json:"shards"`
	// Rejected counts submits this server refused with 429.
	Rejected int64 `json:"rejected,omitempty"`
	// Ledgers holds per-shard ledger stats: the hosted shards for an
	// in-process set, every node's for a frontend. Nil (with Error set)
	// when the stats fetch failed.
	Ledgers []budget.ShardStats `json:"ledgers,omitempty"`
	// Error reports a failed stats fetch (an unreachable node).
	Error string `json:"error,omitempty"`
}

// WorkerBudgetInfo is one worker's remaining budget on the admin
// surface.
type WorkerBudgetInfo struct {
	WorkerID string `json:"worker_id"`
	// SpentEpsilon is the cumulative ε at the configured δ;
	// RemainingEpsilon the headroom under the cap.
	SpentEpsilon     float64 `json:"spent_epsilon"`
	RemainingEpsilon float64 `json:"remaining_epsilon"`
	CapEpsilon       float64 `json:"cap_epsilon"`
	Delta            float64 `json:"delta"`
	// Rho is the raw zCDP total behind SpentEpsilon.
	Rho float64 `json:"rho"`
	// Unprotected counts answers released with no noise (unbounded
	// loss, outside the finite budget).
	Unprotected int `json:"unprotected,omitempty"`
	// Charges and Refunds count accepted debits and credits.
	Charges uint64 `json:"charges,omitempty"`
	Refunds uint64 `json:"refunds,omitempty"`
}

// ingestStatser is the optional interface a store implements to report
// shard-level stats on the admin surface. Asserted structurally so
// custom Store implementations can report themselves without the server
// enumerating concrete types.
type ingestStatser interface {
	Stats() ingest.Stats
	ShardStats() []ingest.ShardStats
}

// adminStores returns the concrete stores behind a local router, in
// shard order. Empty on a frontend (it inspects its nodes' admin
// surfaces instead).
func (s *Server) adminStores() []store.Store {
	if s.host == nil {
		return nil
	}
	out := make([]store.Store, s.host.local.Shards())
	for i := range out {
		out[i] = s.host.local.Store(i)
	}
	return out
}

func (s *Server) handleAdminStore(w http.ResponseWriter, _ *http.Request) {
	info := AdminStoreInfo{
		Role:            s.cfg.Role,
		RouterShards:    s.router.Shards(),
		Accumulators:    s.liveAccumulators(),
		PoisonedRecords: s.poisoned.Load(),
		Checkpoints:     s.checkpointInfo(),
		FrontendCache:   s.frontendCacheInfo(),
		Admission:       s.admissionInfo(),
	}
	if s.host != nil {
		info.Journals = s.host.local.JournalStats()
	}
	stores := s.adminStores()
	if len(stores) == 0 {
		info.Backend = "remote"
	} else {
		switch stores[0].(type) {
		case *store.Mem:
			info.Backend = "mem"
		case *store.File:
			info.Backend = "file"
		case *ingest.Sharded:
			info.Backend = "ingest"
		default:
			info.Backend = fmt.Sprintf("%T", stores[0])
		}
		// Sum ingest counters across the router's stores (a node runs
		// one ingest store per owned shard); each store's one log entry
		// is appended in store order.
		var agg ingest.Stats
		var shardStats []ingest.ShardStats
		haveIngest := false
		for _, st := range stores {
			if ist, ok := st.(ingestStatser); ok {
				haveIngest = true
				is := ist.Stats()
				agg.Appends += is.Appends
				agg.Commits += is.Commits
				agg.Rotations += is.Rotations
				agg.Snapshots += is.Snapshots
				shardStats = append(shardStats, ist.ShardStats()...)
			}
		}
		if haveIngest {
			info.Ingest = &agg
			info.Shards = shardStats
		}
	}
	info.Surveys = s.surveyHistories(stores)
	if s.cfg.ReplicationInfo != nil {
		info.Replication = s.cfg.ReplicationInfo()
	}
	if s.cfg.Budget != nil {
		bcfg := s.cfg.Budget.Config()
		bi := &BudgetInfo{
			Mode:       s.cfg.BudgetEnforce,
			CapEpsilon: bcfg.CapEpsilon,
			Delta:      bcfg.Delta,
			Shards:     s.cfg.Budget.Shards(),
			Rejected:   s.budgetRejected.Load(),
		}
		if ledgers, err := s.cfg.Budget.Stats(); err != nil {
			bi.Error = err.Error()
		} else {
			bi.Ledgers = ledgers
		}
		info.Budget = bi
	}
	writeJSON(w, http.StatusOK, info)
}

// handleAdminBudget answers one worker's remaining budget, routed to
// the shard owning the account (so any frontend or the standalone
// server answers for any worker).
func (s *Server) handleAdminBudget(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Budget == nil {
		writeError(w, http.StatusNotFound, "budget accounting is not configured on this server")
		return
	}
	worker := r.PathValue("worker")
	a, err := s.cfg.Budget.Peek(worker)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, budget.ErrNotHosted) {
			status = http.StatusMisdirectedRequest
		}
		writeError(w, status, err.Error())
		return
	}
	bcfg := s.cfg.Budget.Config()
	writeJSON(w, http.StatusOK, WorkerBudgetInfo{
		WorkerID:         worker,
		SpentEpsilon:     bcfg.Epsilon(a.Rho),
		RemainingEpsilon: bcfg.Remaining(a.Rho),
		CapEpsilon:       bcfg.CapEpsilon,
		Delta:            bcfg.Delta,
		Rho:              a.Rho,
		Unprotected:      a.Unprotected,
		Charges:          a.Charges,
		Refunds:          a.Refunds,
	})
}

// surveyHistories collects republish history from the first store that
// records it (definitions are replicated to every shard, so any one
// store's history covers the deployment).
func (s *Server) surveyHistories(stores []store.Store) []SurveyHistoryInfo {
	for _, st := range stores {
		h, ok := st.(store.Historian)
		if !ok {
			continue
		}
		svs, err := st.Surveys()
		if err != nil {
			continue
		}
		out := make([]SurveyHistoryInfo, 0, len(svs))
		for _, sv := range svs {
			versions := h.SurveyHistory(sv.ID)
			info := SurveyHistoryInfo{SurveyID: sv.ID}
			for _, v := range versions {
				vi := SurveyVersionInfo{Fingerprint: v.Fingerprint}
				if v.PublishedUnixNano != 0 {
					vi.PublishedAt = time.Unix(0, v.PublishedUnixNano)
				}
				info.Versions = append(info.Versions, vi)
			}
			out = append(out, info)
		}
		return out
	}
	return nil
}

// ShardHealth is one shard's row on the health surface: the role this
// server plays for it, the placement epoch it is at, its replication
// lag (replica rows only), and the last error touching it.
type ShardHealth struct {
	Shard int    `json:"shard"`
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch,omitempty"`
	// LagRecords is the replication lag in records (replica rows).
	LagRecords uint64 `json:"lag_records,omitempty"`
	// PrimaryDown marks a frontend row whose routed primary the failure
	// detector currently considers dead.
	PrimaryDown bool   `json:"primary_down,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// HealthInfo is the GET /api/v1/admin/health body — the probe target
// for failover detectors, load balancers, and the bench harness. It is
// served without auth (like healthz) and assembled per role: a node
// reports its owned shards' fence state, a replica its staleness
// cursors and promotions, a frontend its routing table with the
// failure detector's verdicts.
type HealthInfo struct {
	Status string        `json:"status"`
	Role   string        `json:"role"`
	Shards []ShardHealth `json:"shards,omitempty"`
	// ManifestVersion is the placement manifest version a frontend has
	// applied; 0 off-frontend or pre-manifest.
	ManifestVersion int64 `json:"manifest_version,omitempty"`
	// StaleReads / FencedWrites count replica-served partial fetches
	// and epoch-fenced submits on a frontend.
	StaleReads   uint64 `json:"stale_reads,omitempty"`
	FencedWrites uint64 `json:"fenced_writes,omitempty"`
}

// setShardHealth publishes a node's per-shard health rows (called by
// the cluster glue when a placement manifest is applied).
func (s *Server) setShardHealth(hs []ShardHealth) { s.shardHealth.Store(hs) }

func (s *Server) handleAdminHealth(w http.ResponseWriter, _ *http.Request) {
	info := HealthInfo{Status: "ok", Role: s.cfg.Role}
	switch {
	case s.cfg.ReplicationInfo != nil:
		// Replica: staleness cursors, with promoted shards as primaries.
		if ri := s.cfg.ReplicationInfo(); ri != nil {
			for _, sh := range ri.Shards {
				info.Shards = append(info.Shards, ShardHealth{
					Shard:      sh.Shard,
					Role:       sh.Role,
					Epoch:      sh.Epoch,
					LagRecords: sh.LagRecords,
					LastError:  sh.LastError,
				})
			}
		}
	default:
		if s.remote != nil {
			if fi := s.remote.FailoverInfo(); fi != nil {
				// Frontend: the routing table as the failure detector sees
				// it.
				info.ManifestVersion = fi.ManifestVersion
				info.StaleReads = fi.StaleReads
				info.FencedWrites = fi.FencedWrites
				for _, sh := range fi.Shards {
					role := "primary"
					if sh.PrimaryDown {
						role = "failed-over"
					}
					info.Shards = append(info.Shards, ShardHealth{
						Shard:       sh.Shard,
						Role:        role,
						Epoch:       sh.Epoch,
						PrimaryDown: sh.PrimaryDown,
						LastError:   sh.LastError,
					})
				}
				break
			}
		}
		if hs, ok := s.shardHealth.Load().([]ShardHealth); ok {
			// Node with a manifest applied: fence state per owned shard.
			info.Shards = append(info.Shards, hs...)
			break
		}
		if s.host != nil {
			// Manifest-less node or standalone: every owned shard is an
			// unfenced primary.
			for i := 0; i < s.router.Shards(); i++ {
				info.Shards = append(info.Shards, ShardHealth{Shard: s.router.GlobalID(i), Role: "primary"})
			}
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// PromoteResult acknowledges an operator promotion.
type PromoteResult struct {
	Shard int `json:"shard"`
	// Epoch is the shard's placement epoch after promotion (0 when the
	// replica manages no manifest).
	Epoch uint64 `json:"epoch"`
}

// handlePromote is the operator failover signal: flip one followed
// shard writable on this replica (bumping its placement epoch through
// the shared manifest when one is configured). Idempotent.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Promote == nil {
		writeError(w, http.StatusNotFound, "promotion is not available on this server (not a replica)")
		return
	}
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 {
		writeError(w, http.StatusBadRequest, "shard must be a non-negative integer")
		return
	}
	epoch, err := s.cfg.Promote(shard)
	if err != nil {
		status := http.StatusInternalServerError
		var no *shardrpc.ErrNotOwned
		if errors.As(err, &no) {
			status = http.StatusMisdirectedRequest
		}
		writeError(w, status, err.Error())
		return
	}
	s.logf("shard %d promoted via admin surface (placement epoch %d)", shard, epoch)
	writeJSON(w, http.StatusOK, PromoteResult{Shard: shard, Epoch: epoch})
}

// AccumulatorClearResult acknowledges an admin accumulator clear.
type AccumulatorClearResult struct {
	SurveyID string `json:"survey_id"`
	// Cleared reports whether live fold state existed and was dropped.
	Cleared bool `json:"cleared"`
	// CheckpointDropped reports whether a durable checkpoint was
	// tombstoned alongside.
	CheckpointDropped bool `json:"checkpoint_dropped"`
}

// handleAccumulatorClear lets an operator drop a poisoned (or merely
// suspect) survey accumulator — live partials and durable checkpoints —
// without republishing the survey. The next read rebuilds from the
// store; if the poisoned record is still there the poison returns,
// which is the honest outcome (the record, not the accumulator, is the
// problem — but after an offline store repair this endpoint is how the
// server notices).
func (s *Server) handleAccumulatorClear(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.router.Survey(id); err != nil {
		s.writeRefusal(w, surveyRefusal(err))
		return
	}
	hadCkpt := false
	if s.cfg.Checkpoints != nil {
		_, hadCkpt = s.cfg.Checkpoints.GetShard(id, 0)
		if !hadCkpt {
			// Any shard's record counts; shard 0 just covers the common
			// single-shard case cheaply.
			for _, rec := range s.cfg.Checkpoints.Records() {
				if rec.SurveyID == id {
					hadCkpt = true
					break
				}
			}
		}
	}
	cleared := s.invalidateLive(id)
	s.logf("admin cleared accumulator for %q (live=%v checkpoint=%v)", id, cleared, hadCkpt)
	writeJSON(w, http.StatusOK, AccumulatorClearResult{
		SurveyID:          id,
		Cleared:           cleared,
		CheckpointDropped: hadCkpt,
	})
}

// ---------------------------------------------------------------------------
// JSON helpers

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "request body must contain a single JSON value")
		return false
	}
	_, _ = io.Copy(io.Discard, body)
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing more to do than drop the connection.
		return
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
