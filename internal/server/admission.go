// Admission control for the submit path: a bounded inflight/queue gate
// that sheds with 429 + Retry-After instead of letting overload pile up
// goroutines, and an optional per-requester token-bucket rate limit.
//
// Both controls default off (Config.SubmitInflight / RateLimitRPS
// unset), in which case the submit path is exactly the pre-admission
// code: the middleware returns the handler unchanged and no gate state
// exists. This keeps the default-off behavior byte-identical.
package server

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// OverloadRetryAfterSeconds is the advisory Retry-After on a shed
// submit. Shedding is a transient queueing condition — unlike a budget
// rejection it clears as soon as inflight work drains — so the hint is
// short.
const OverloadRetryAfterSeconds = 1

// OverloadError is the body of a retryable refusal: the 429 for submits
// refused by admission control (code "overloaded") or the per-requester
// rate limit (code "rate_limited"), and the 503 for writes refused while
// a shard fails over. It mirrors BudgetExhaustedError's shape: the error
// code doubles as the discriminator and Retry-After rides both the
// header and the body.
type OverloadError struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// Overload error codes.
const (
	OverloadedCode  = "overloaded"
	RateLimitedCode = "rate_limited"
)

// admission is the bounded submit gate: at most maxInflight requests
// execute the submit path concurrently, at most maxQueue more wait for
// a slot, and everything beyond that is shed immediately — the caller
// never blocks behind an unbounded line.
type admission struct {
	inflight chan struct{}
	maxQueue int64

	queued     atomic.Int64
	admitted   atomic.Int64
	shed       atomic.Int64
	queueHW    atomic.Int64 // high-watermark of queued
	inflightHW atomic.Int64 // high-watermark of inflight
}

func newAdmission(maxInflight, maxQueue int) *admission {
	return &admission{
		inflight: make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
	}
}

// acquire takes an inflight slot, waiting in the bounded queue if none
// is free. It returns false — immediately, never after blocking — when
// the queue is already full (the shed path), and false on context
// cancellation while queued.
func (a *admission) acquire(ctx context.Context) bool {
	select {
	case a.inflight <- struct{}{}:
		a.admitted.Add(1)
		raiseHW(&a.inflightHW, int64(len(a.inflight)))
		return true
	default:
	}
	q := a.queued.Add(1)
	if q > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		return false
	}
	raiseHW(&a.queueHW, q)
	defer a.queued.Add(-1)
	select {
	case a.inflight <- struct{}{}:
		a.admitted.Add(1)
		raiseHW(&a.inflightHW, int64(len(a.inflight)))
		return true
	case <-ctx.Done():
		a.shed.Add(1)
		return false
	}
}

func (a *admission) release() { <-a.inflight }

func raiseHW(hw *atomic.Int64, v int64) {
	for {
		cur := hw.Load()
		if v <= cur || hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// rateLimiter is a per-requester token bucket: each worker refills at
// rps tokens/second up to burst, and a submit spends one token. The
// bucket map is bounded by sweeping fully refilled buckets once it
// grows past sweepAbove — a full bucket is indistinguishable from a
// fresh one, so dropping it loses nothing.
type rateLimiter struct {
	rps   float64
	burst float64

	mu        sync.Mutex
	buckets   map[string]*tokenBucket
	throttled atomic.Int64
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

const limiterSweepAbove = 1 << 14

func newRateLimiter(rps float64, burst int) *rateLimiter {
	if burst <= 0 {
		burst = int(math.Ceil(rps))
		if burst < 1 {
			burst = 1
		}
	}
	return &rateLimiter{rps: rps, burst: float64(burst), buckets: make(map[string]*tokenBucket)}
}

// allow spends one token from the worker's bucket. When the bucket is
// empty it reports the whole seconds until a token accrues (at least
// 1, the Retry-After hint) and false.
func (l *rateLimiter) allow(workerID string) (retryAfter int, ok bool) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[workerID]
	if b == nil {
		if len(l.buckets) >= limiterSweepAbove {
			l.sweepLocked(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[workerID] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rps)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	l.throttled.Add(1)
	wait := (1 - b.tokens) / l.rps
	retryAfter = int(math.Ceil(wait))
	if retryAfter < 1 {
		retryAfter = 1
	}
	return retryAfter, false
}

// sweepLocked drops buckets that have refilled to burst — they carry no
// state a fresh bucket would not.
func (l *rateLimiter) sweepLocked(now time.Time) {
	for id, b := range l.buckets {
		if math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rps) >= l.burst {
			delete(l.buckets, id)
		}
	}
}

func (l *rateLimiter) workers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// admit wraps a submit handler with the admission gate. With the gate
// off it returns the handler unchanged — the default-off path adds no
// wrapper, no allocation, no branch.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.adm.acquire(r.Context()) {
			writeRetryable(w, http.StatusTooManyRequests, OverloadedCode, OverloadRetryAfterSeconds)
			return
		}
		defer s.adm.release()
		h(w, r)
	}
}

// writeRetryable answers a refusal the client should retry after a
// pause: the hint rides both the Retry-After header and the body.
func writeRetryable(w http.ResponseWriter, status int, code string, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, status, OverloadError{
		Error:             code,
		RetryAfterSeconds: retryAfter,
	})
}

// AdmissionInfo is the admin surface's view of the submit gate and the
// per-requester rate limit.
type AdmissionInfo struct {
	// MaxInflight / MaxQueue are the configured bounds.
	MaxInflight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`
	// Inflight / QueueDepth are instantaneous gauges; the HighWater
	// variants are since-start maxima.
	Inflight          int   `json:"inflight"`
	QueueDepth        int   `json:"queue_depth"`
	InflightHighWater int   `json:"inflight_high_water"`
	QueueHighWater    int   `json:"queue_high_water"`
	Admitted          int64 `json:"admitted"`
	Shed              int64 `json:"shed"`
	// RateLimitRPS / RateLimitBurst describe the per-requester limit
	// (zero when off); Throttled counts records it refused and
	// RateLimitedWorkers the buckets currently tracked.
	RateLimitRPS       float64 `json:"rate_limit_rps,omitempty"`
	RateLimitBurst     int     `json:"rate_limit_burst,omitempty"`
	Throttled          int64   `json:"throttled,omitempty"`
	RateLimitedWorkers int     `json:"rate_limited_workers,omitempty"`
}

// admissionInfo builds the admin view; nil when both controls are off
// (so the admin JSON is unchanged for existing deployments).
func (s *Server) admissionInfo() *AdmissionInfo {
	if s.adm == nil && s.limiter == nil {
		return nil
	}
	info := &AdmissionInfo{}
	if a := s.adm; a != nil {
		info.MaxInflight = cap(a.inflight)
		info.MaxQueue = int(a.maxQueue)
		info.Inflight = len(a.inflight)
		info.QueueDepth = int(a.queued.Load())
		info.InflightHighWater = int(a.inflightHW.Load())
		info.QueueHighWater = int(a.queueHW.Load())
		info.Admitted = a.admitted.Load()
		info.Shed = a.shed.Load()
	}
	if l := s.limiter; l != nil {
		info.RateLimitRPS = l.rps
		info.RateLimitBurst = int(l.burst)
		info.Throttled = l.throttled.Load()
		info.RateLimitedWorkers = l.workers()
	}
	return info
}
