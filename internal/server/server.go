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
// router), node (local multi-shard router + the shardrpc surface, each
// shard primary, following its primary by WAL-tail shipping, or fenced),
// and frontend (remote router merging node partials).
package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"loki/internal/aggregate"
	"loki/internal/budget"
	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
)

// Config configures a Server.
type Config struct {
	// Store is the persistence backend for the classic single-shard
	// deployment. Exactly one of Store and Router must be set; a Store
	// is wrapped in a one-shard local router.
	Store store.Store
	// Router is the sharded persistence backend: a shardset.Local over
	// per-shard stores (node) or a shardrpc remote router (frontend).
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
	// Zero means the 250ms default; negative revalidates on every read
	// (one conditional not-modified/delta RPC per shard, never a cached
	// answer).
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
	// when empty; cmd/loki-server sets node/frontend).
	Role string
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
	// its records enter in-process (and that NewNode serves over
	// shardrpc); a frontend holds remote, whose node queue they are
	// queued on, and with a budget the charger its charges that cannot
	// ride a submit call go ahead through.
	dispatch func(ctx context.Context, recs []submitRecord)
	host     *shardHost
	remote   *shardrpc.Remote
	charger  *shardrpc.RemoteCharger

	// live holds per-survey live aggregate state (one partial per
	// shard) so reads are O(1) in stored responses; see liveSet.
	liveMu sync.Mutex
	live   map[string]*liveSet
	// poisoned counts stored records the live read path has rejected
	// (see PoisonError), for the admin surface.
	poisoned atomic.Int64

	// cache, when non-nil, is a frontend's partial cache: its reads merge
	// per-shard partials already folded by the nodes that own them
	// (remote.Partials), and the cache serves a merge keyed by
	// (survey, cursor vector), revalidating with one conditional call per
	// node instead of re-shipping full snapshots. See frontcache.go.
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
		if cfg.Budget != nil {
			// Charges that cannot ride a submit call go ahead grouped by
			// node, which only the remote charger's node queue offers.
			c, ok := cfg.Budget.(*shardrpc.RemoteCharger)
			if !ok {
				return nil, fmt.Errorf("server: a remote router charges through a *shardrpc.RemoteCharger, not %T", cfg.Budget)
			}
			s.charger = c
		}
		// Every frontend reads through the cache; a negative TTL only
		// means no entry is ever fresh.
		ttl := max(cfg.FrontendCacheTTL, 0)
		if cfg.FrontendCacheTTL == 0 {
			ttl = DefaultFrontendCacheTTL
		}
		s.cache = newFrontCache(ttl)
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
	// following shard writable.
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

// requireToken wraps requester-only handlers with bearer-token auth. The
// compare is constant-time: how long a refusal takes must not say how
// much of the header matched.
func (s *Server) requireToken(h http.HandlerFunc) http.HandlerFunc {
	want := []byte("Bearer " + s.cfg.RequesterToken)
	return func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			writeError(w, http.StatusUnauthorized, "missing or invalid requester token")
			return
		}
		h(w, r)
	}
}

// mutating refuses writes on a host whose every shard follows its
// primary: such a host is a read replica, and its public API says so.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	if s.host == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if s.host.readOnly.Load() {
			writeError(w, http.StatusForbidden, "read-only replica: submit and publish go to the primary")
			return
		}
		h(w, r)
	}
}

// ---------------------------------------------------------------------------
// JSON helpers

// bodyBufs holds the buffers request bodies are read into whole; one
// grown past maxPooledBody by a large body is dropped, not kept.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// readJSON reads the request body whole, under the body bound, and
// decodes it into dst. scan, when given, is dst's schema scanner: it
// decodes the body itself, or declines and leaves dst zero. A declined
// body, and every body when scan is nil, goes to json.Decoder with
// DisallowUnknownFields over the same bytes (an oversize body as the
// bytes read plus the rest of the stream), which alone writes the 400
// and 413 replies. Nothing but whitespace may follow the value.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any, scan func([]byte) bool) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	var src io.Reader
	if _, err := buf.ReadFrom(body); err != nil {
		src = io.MultiReader(bytes.NewReader(buf.Bytes()), body)
	} else if scan != nil && scan(buf.Bytes()) {
		return true
	} else {
		src = bytes.NewReader(buf.Bytes())
	}
	dec := json.NewDecoder(src)
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
	if !onlySpace(io.MultiReader(dec.Buffered(), src)) {
		writeError(w, http.StatusBadRequest, "request body must contain a single JSON value")
		return false
	}
	return true
}

// onlySpace reports whether r holds nothing but JSON whitespace up to
// its first error: its end, or the body bound.
func onlySpace(r io.Reader) bool {
	var chunk [512]byte
	for {
		n, err := r.Read(chunk[:])
		for _, c := range chunk[:n] {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return false
			}
		}
		if err != nil {
			return true
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

// encodeJSON renders v as json.Encoder.Encode would: json.Marshal (which
// escapes HTML the same way) plus the trailing newline. A value that
// cannot be encoded (a NaN) renders as nil, and the reply carries the
// status with an empty body.
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// submitAck is the 201 single-submit reply, encodeJSON(SubmitResult{id,
// true, stored}) byte for byte: appended directly when id needs no JSON
// escaping, encoded otherwise.
func submitAck(id string, stored int) []byte {
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return encodeJSON(SubmitResult{SurveyID: id, Accepted: true, Stored: stored})
		}
	}
	b := make([]byte, 0, len(id)+48)
	b = append(b, `{"survey_id":"`...)
	b = append(b, id...)
	b = append(b, `","accepted":true,"stored":`...)
	b = strconv.AppendInt(b, int64(stored), 10)
	return append(b, "}\n"...)
}

// writeBody is the one place a JSON reply goes out. body is never
// written to: a frontend hands every concurrent reader of a cache entry
// the same slice.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
