package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/store"
	"loki/internal/survey"
)

// blockingStore wraps a store so every append parks until released —
// the stand-in for a storage layer that has stopped keeping up.
type blockingStore struct {
	store.Store
	release chan struct{}
}

func (b *blockingStore) AppendResponse(r *survey.Response) error {
	<-b.release
	return b.Store.AppendResponse(r)
}

func (b *blockingStore) AppendResponses(rs []survey.Response) ([]int, error) {
	return appendEach(b, rs)
}

func newAdmissionServer(t *testing.T, st store.Store, cfg Config) *httptest.Server {
	t.Helper()
	cfg.Store = st
	cfg.Schedule = core.DefaultSchedule()
	cfg.RequesterToken, cfg.ClusterToken = testToken, testClusterToken
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	return ts
}

// admissionSnapshot polls the admin surface for the admission counters.
func admissionSnapshot(t *testing.T, ts *httptest.Server) *AdmissionInfo {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin store = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.Admission
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOverloadShedsWithoutBlocking is the core admission contract: with
// the inflight slot held and the queue full, the next submit gets an
// immediate 429 with Retry-After — it must never block behind the
// stuck store.
func TestOverloadShedsWithoutBlocking(t *testing.T) {
	bs := &blockingStore{Store: store.NewMem(), release: make(chan struct{})}
	defer bs.Close()
	ts := newAdmissionServer(t, bs, Config{SubmitInflight: 1, SubmitQueue: 1})

	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 2)
	submit := func(worker string) {
		r := validResponse("none", false)
		r.WorkerID = worker
		resp, body := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), r, "")
		results <- result{resp.StatusCode, body}
	}
	// First submit takes the inflight slot and parks in the store;
	// second waits in the queue.
	go submit("held")
	waitFor(t, "inflight slot taken", func() bool { return admissionSnapshot(t, ts).Inflight == 1 })
	go submit("queued")
	waitFor(t, "queue occupied", func() bool { return admissionSnapshot(t, ts).QueueDepth >= 1 })

	// Third submit: shed now, not enqueued behind the stuck store.
	start := time.Now()
	r := validResponse("none", false)
	r.WorkerID = "shed"
	resp, body := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), r, "")
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shed submit took %v; it must not block", took)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit = %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed reply has no Retry-After header")
	}
	var oe OverloadError
	if err := json.Unmarshal(body, &oe); err != nil {
		t.Fatal(err)
	}
	if oe.Error != OverloadedCode || oe.RetryAfterSeconds < 1 {
		t.Fatalf("shed body = %+v", oe)
	}

	// Releasing the store lets the held and queued submits finish.
	close(bs.release)
	for i := 0; i < 2; i++ {
		res := <-results
		if res.code != http.StatusCreated {
			t.Fatalf("blocked submit finished with %d: %s", res.code, res.body)
		}
	}
	info := admissionSnapshot(t, ts)
	if info.Admitted != 2 || info.Shed < 1 {
		t.Fatalf("admission counters = %+v", info)
	}
}

// TestOverloadGoroutinesBounded fires two orders of magnitude more
// arrivals than the admission bounds allow against a wedged store and
// checks goroutine residency: once the shed replies have drained, the
// process is back near baseline with only the admitted handful parked.
// Without shed-on-full every arrival would park in a handler goroutine
// behind the stuck store.
func TestOverloadGoroutinesBounded(t *testing.T) {
	const (
		inflight = 2
		queue    = 4
		arrivals = 600 // 100x the inflight+queue capacity
	)
	bs := &blockingStore{Store: store.NewMem(), release: make(chan struct{})}
	defer bs.Close()
	ts := newAdmissionServer(t, bs, Config{SubmitInflight: inflight, SubmitQueue: queue})

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var served, shed, failed atomic.Int64
	hc := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < arrivals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := validResponse("none", false)
			r.WorkerID = fmt.Sprintf("w%04d", i)
			b, _ := json.Marshal(r)
			req, _ := http.NewRequest(http.MethodPost, submitURL(ts, survey.AwarenessID), bytes.NewReader(b))
			req.Header.Set("Content-Type", "application/json")
			resp, err := hc.Do(req)
			if err != nil {
				failed.Add(1)
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated:
				served.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				failed.Add(1)
			}
		}(i)
	}

	// The store never makes progress, so exactly inflight+queue arrivals
	// park and everything else must come back 429.
	const parked = inflight + queue
	waitFor(t, "shed replies to drain", func() bool { return shed.Load() == arrivals-parked })
	hc.CloseIdleConnections()
	// Residency check: the shed majority left nothing behind. Allow
	// slack for the parked requests' connection goroutines and runtime
	// internals winding down.
	waitFor(t, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine()-baseline < parked*4+32
	})

	// Unwedge the store; the parked requests complete and accounting
	// closes exactly.
	close(bs.release)
	wg.Wait()
	if served.Load() != parked || shed.Load() != arrivals-parked || failed.Load() != 0 {
		t.Fatalf("accounting: served %d shed %d failed %d of %d arrivals (want %d/%d/0)",
			served.Load(), shed.Load(), failed.Load(), arrivals, parked, arrivals-parked)
	}
}

// TestRateLimiterIsolatesWorkers: one worker hammering past its
// per-worker rate gets 429 rate_limited; a quiet worker on the same
// server is untouched.
func TestRateLimiterIsolatesWorkers(t *testing.T) {
	st := store.NewMem()
	defer st.Close()
	ts := newAdmissionServer(t, st, Config{RateLimitRPS: 1, RateLimitBurst: 2})

	var throttled int
	for i := 0; i < 10; i++ {
		r := validResponse("none", false)
		r.WorkerID = "noisy"
		resp, body := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), r, "")
		switch resp.StatusCode {
		case http.StatusCreated:
		case http.StatusTooManyRequests:
			throttled++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("throttle reply has no Retry-After header")
			}
			var oe OverloadError
			if err := json.Unmarshal(body, &oe); err != nil {
				t.Fatal(err)
			}
			if oe.Error != RateLimitedCode {
				t.Fatalf("throttle body = %+v", oe)
			}
		default:
			t.Fatalf("noisy submit %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	if throttled == 0 {
		t.Fatal("noisy worker burst was never rate limited")
	}

	// The quiet worker's bucket is its own: still full.
	r := validResponse("none", false)
	r.WorkerID = "quiet"
	resp, body := doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), r, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("quiet worker = %d: %s (noisy neighbor leaked into its bucket)", resp.StatusCode, body)
	}
	info := admissionSnapshot(t, ts)
	if info == nil || info.Throttled == 0 || info.RateLimitedWorkers == 0 {
		t.Fatalf("admission info = %+v", info)
	}
}

// TestAdmissionDefaultOff: with no admission knobs set, the admin
// surface omits the admission block entirely — the default-off path
// stays byte-identical to a server that has never heard of it.
func TestAdmissionDefaultOff(t *testing.T) {
	ts, st := newTestServer(t)
	if _, err := st.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin store = %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["admission"]; ok {
		t.Fatal("default-off server reports an admission block")
	}
	resp, _ = doReq(t, http.MethodPost, submitURL(ts, survey.AwarenessID), validResponse("none", false), "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("default-off submit = %d", resp.StatusCode)
	}
}
