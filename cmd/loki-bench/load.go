// Open-loop load benchmark ("load" experiment id): population-scale
// arrival pressure against a real cluster topology with admission
// control on.
//
// Unlike a closed-loop bench, where a fixed worker pool waits for each
// response before sending the next — so offered load self-throttles to
// whatever the system sustains — this bench generates arrivals on a Poisson clock that does not care
// how the server is doing. Simulated respondents drawn from the
// population behavior models submit through the batching client
// pipeline; the arrival rate is swept below, at, and above the
// system's calibrated capacity. Below saturation the numbers describe
// latency; above it they describe the overload contract: admitted
// requests keep a bounded p99, the excess is shed with 429 +
// Retry-After, and neither the server's queue depth nor the process
// goroutine count grows monotonically through the overload window —
// the run fails if either does, or (with -load-expect-shed) if the
// shed path never fired. The report goes to -load-json when that is
// set.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"loki/internal/client"
	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Flags (registered in main.go).
var (
	loadJSONPath = ""
	// loadRatesFlag overrides the swept arrival rates (responses/sec);
	// empty auto-calibrates to 0.5x / 1x / 1.5x of closed-loop capacity.
	loadRatesFlag  = ""
	loadDuration   = 3 * time.Second
	loadNodes      = 2
	loadQueue      = 256
	loadInflight   = 64
	loadExpectShed = false
	// loadClients is how many independent batching pipelines the
	// arrival stream spreads over — the "many phones" in front of one
	// service. One pipeline's own inflight bound would backpressure
	// client-side and the overload would never reach the server's
	// admission queue.
	loadClients = 32
)

// loadResult is one arrival rate's measurement.
type loadResult struct {
	// OfferedRPS is the Poisson arrival rate; Arrivals how many the
	// clock actually produced in DurationSecs.
	OfferedRPS   float64 `json:"offered_rps"`
	DurationSecs float64 `json:"duration_secs"`
	Arrivals     int     `json:"arrivals"`
	// Acked were durably stored; Shed were refused with the retryable
	// 429 vocabulary (admission shed or rate limit); Failed is
	// everything else and must stay zero.
	Acked  int `json:"acked"`
	Shed   int `json:"shed,omitempty"`
	Failed int `json:"failed,omitempty"`
	// AchievedRPS is acked arrivals per second; ShedRate the shed
	// fraction of arrivals.
	AchievedRPS float64 `json:"achieved_rps"`
	ShedRate    float64 `json:"shed_rate"`
	// Latency covers admitted (acked) requests only, enqueue to
	// durable ack through the batching pipeline.
	Latency latencySummary `json:"latency"`
	// MaxGoroutines and MaxQueueDepth are the monitor's high-water
	// samples over the window (the boundedness evidence).
	MaxGoroutines int `json:"max_goroutines"`
	MaxQueueDepth int `json:"max_queue_depth"`
	// Sustainable marks a rate the system kept up with: under 1% shed
	// and at least 90% of the offered rate acked.
	Sustainable bool `json:"sustainable"`
}

// loadContext records what the numbers were measured against.
type loadContext struct {
	GOOS           string  `json:"goos"`
	NumCPU         int     `json:"num_cpu"`
	Nodes          int     `json:"nodes"`
	Shards         int     `json:"shards"`
	SubmitQueue    int     `json:"submit_queue"`
	SubmitInflight int     `json:"submit_inflight"`
	DurationSecs   float64 `json:"duration_secs"`
	Population     int     `json:"population"`
	// Clients is how many independent batching pipelines carried the
	// arrival stream.
	Clients int    `json:"clients"`
	Note    string `json:"note"`
}

// loadReport is the -load-json schema.
type loadReport struct {
	Schema  int         `json:"schema"`
	Context loadContext `json:"context"`
	// CalibratedRPS is the closed-loop capacity estimate the swept
	// rates were derived from (0 when -load-rates pinned them).
	CalibratedRPS float64 `json:"calibrated_rps,omitempty"`
	// MaxSustainableRPS is the highest offered rate the system kept up
	// with (see loadResult.Sustainable).
	MaxSustainableRPS float64      `json:"max_sustainable_rps"`
	Results           []loadResult `json:"results"`
}

// loadHarness is one running cluster topology: nodes with per-shard
// file stores behind a frontend with admission control, the frontend
// served over real HTTP for the batching client.
type loadHarness struct {
	ts       *httptest.Server
	frontend http.Handler
	closers  []func() error
}

func (h *loadHarness) close() {
	h.ts.Close()
	for i := len(h.closers) - 1; i >= 0; i-- {
		_ = h.closers[i]()
	}
}

// newLoadHarness builds the topology. Admission control guards the
// frontend's public submit path; queue <= 0 disables it (calibration).
func newLoadHarness(dir string, sv *survey.Survey, nodes, queue, inflight int) (*loadHarness, error) {
	h := &loadHarness{}
	fail := func(err error) (*loadHarness, error) {
		for i := len(h.closers) - 1; i >= 0; i-- {
			_ = h.closers[i]()
		}
		return nil, err
	}
	owned := placement.RoundRobinShards(clusterShards, nodes)
	clients := make([]*shardrpc.Client, nodes)
	for n := 0; n < nodes; n++ {
		stores := make([]store.Store, len(owned[n]))
		for i, g := range owned[n] {
			st, err := store.OpenFile(filepath.Join(dir, fmt.Sprintf("node%d-gshard%03d.log", n, g)))
			if err != nil {
				return fail(err)
			}
			h.closers = append(h.closers, st.Close)
			stores[i] = st
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: owned[n], Journal: true})
		if err != nil {
			return fail(err)
		}
		srv, err := server.New(server.Config{
			Router: local, Schedule: core.DefaultSchedule(),
			RequesterToken: requesterToken, Role: "node",
		})
		if err != nil {
			return fail(err)
		}
		h.closers = append(h.closers, srv.Close)
		node, err := server.NewNode(srv, clusterShards)
		if err != nil {
			return fail(err)
		}
		rpc, err := shardrpc.NewHandler(node, clusterToken)
		if err != nil {
			return fail(err)
		}
		nts := httptest.NewServer(rpc)
		h.closers = append(h.closers, func() error { nts.Close(); return nil })
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * inflight}}
		clients[n] = shardrpc.NewClient(nts.URL, clusterToken, hc)
	}
	remote, err := shardrpc.NewRemoteRoundRobin(clients, clusterShards)
	if err != nil {
		return fail(err)
	}
	fcfg := server.Config{
		Router: remote, Schedule: core.DefaultSchedule(),
		RequesterToken: requesterToken, Role: "frontend",
		FrontendCacheTTL: -1,
	}
	if queue > 0 {
		fcfg.SubmitQueue = queue
		fcfg.SubmitInflight = inflight
	}
	frontend, err := server.New(fcfg)
	if err != nil {
		return fail(err)
	}
	h.closers = append(h.closers, frontend.Close)
	if _, err := remote.Publish(sv); err != nil {
		return fail(err)
	}
	h.frontend = frontend
	h.ts = httptest.NewServer(frontend)
	return h, nil
}

// queueDepth samples the frontend's admission queue via the admin
// surface (0 with admission off).
func (h *loadHarness) queueDepth() int {
	req := httptest.NewRequest(http.MethodGet, "/api/v1/admin/store", nil)
	req.Header.Set("Authorization", "Bearer "+requesterToken)
	rec := httptest.NewRecorder()
	h.frontend.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0
	}
	var info server.AdminStoreInfo
	if json.Unmarshal(rec.Body.Bytes(), &info) != nil || info.Admission == nil {
		return 0
	}
	return info.Admission.QueueDepth
}

// loadResponses pre-builds n uploads from the population behavior
// models: each arrival is a person answering the survey per their
// response behavior (truthful from attributes, random responders
// uniformly), at a cycling privacy level, under a per-arrival worker id
// so placement spreads across shards.
func loadResponses(sv *survey.Survey, pop *population.Population, n int, r *rng.RNG) ([]*survey.Response, error) {
	levels := []string{"none", "low", "medium", "high"}
	out := make([]*survey.Response, n)
	for i := 0; i < n; i++ {
		p := &pop.Persons[i%pop.Size()]
		answers, err := population.Answers(p, sv, r)
		if err != nil {
			return nil, err
		}
		lvl := levels[i%len(levels)]
		out[i] = &survey.Response{
			SurveyID:     sv.ID,
			WorkerID:     fmt.Sprintf("p%05d-%07d", i%pop.Size(), i),
			PrivacyLevel: lvl,
			Obfuscated:   lvl != "none",
			Answers:      answers,
		}
	}
	return out, nil
}

// newLoadSubmitter builds the batching pipeline for one run.
// MaxAttempts=1 turns a shed into a fast per-record failure — exactly
// what an open-loop generator needs, since retrying inside the pipeline
// would re-offer load the server just asked us not to send.
func newLoadSubmitter(baseURL string, seed uint64) (*client.Submitter, error) {
	c, err := client.New(client.Config{
		BaseURL: baseURL, Schedule: core.DefaultSchedule(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	// The 25ms linger is load-bearing: with the arrival stream spread
	// over loadClients pipelines, a shorter wait ships near-empty
	// batches and the request rate (not the record rate) becomes what
	// saturates admission.
	return c.NewSubmitter(client.SubmitterConfig{
		MaxBatch: 64, MaxWait: 25 * time.Millisecond, MaxInflight: 16,
		MaxAttempts: 1, Seed: seed,
	}), nil
}

// calibrateLoad estimates closed-loop capacity through the same
// batching pipeline: a bounded worker pool submits flat-out, so the
// result is what the open-loop sweep should straddle.
func calibrateLoad(baseURL string, responses []*survey.Response) (float64, error) {
	sub, err := newLoadSubmitter(baseURL, 7)
	if err != nil {
		return 0, err
	}
	defer sub.Close()
	// Deep enough that full batches are always in flight: with fewer
	// waiters than MaxBatch x MaxInflight the pipeline ships partial
	// batches and the estimate lands well under true capacity, which
	// would make the "above saturation" sweep point not saturate.
	const workers = 256
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan *survey.Response, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				out, err := sub.SubmitWait(context.Background(), r)
				if err == nil {
					err = out.Err
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	for _, r := range responses {
		next <- r
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, fmt.Errorf("load bench: calibration: %w", firstErr)
	}
	return float64(len(responses)) / elapsed.Seconds(), nil
}

// boundedOrErr rejects a sample series that grew monotonically from
// start to finish — the signature of an unbounded queue or goroutine
// leak that admission control exists to prevent. Noise-tolerant: only
// a series that never once decreased AND ended meaningfully above its
// start trips it.
func boundedOrErr(samples []int, what string, offered float64) error {
	if len(samples) < 4 {
		return nil
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			return nil
		}
	}
	first, last := samples[0], samples[len(samples)-1]
	if last <= first+8 {
		return nil
	}
	return fmt.Errorf("load bench: %s grew monotonically %d -> %d through the %.0f rps window (unbounded growth under overload)",
		what, first, last, offered)
}

// runLoadWindow drives one open-loop window at the given arrival rate:
// a Poisson clock releases pre-built responses into the batching
// pipeline regardless of how the server is keeping up, and a monitor
// samples goroutine count and admission queue depth for the
// boundedness gate.
func runLoadWindow(h *loadHarness, responses []*survey.Response, rate float64, duration time.Duration, seed uint64) (loadResult, error) {
	subs := make([]*client.Submitter, loadClients)
	for i := range subs {
		sub, err := newLoadSubmitter(h.ts.URL, seed+uint64(i))
		if err != nil {
			for _, s := range subs[:i] {
				s.Close()
			}
			return loadResult{}, err
		}
		subs[i] = sub
	}

	var mu sync.Mutex
	var acked, shed, failed int
	var firstFail error
	var lat latencyRecorder
	var wg sync.WaitGroup

	// Monitor: sample until the run (arrivals + drain) finishes.
	monDone := make(chan struct{})
	var goroutines, depths []int
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monDone:
				return
			case <-tick.C:
				goroutines = append(goroutines, runtime.NumGoroutine())
				depths = append(depths, h.queueDepth())
			}
		}
	}()

	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	start := time.Now()
	deadline := start.Add(duration)
	next := start
	arrivals := 0
	for {
		next = next.Add(time.Duration(r.Exponential(rate) * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		resp := responses[arrivals%len(responses)]
		sub := subs[arrivals%loadClients]
		arrivals++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			out, err := sub.SubmitWait(context.Background(), resp)
			if err == nil {
				err = out.Err
			}
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			var te *client.ThrottleError
			switch {
			case err == nil:
				acked++
				lat.observe(d)
			case errors.As(err, &te):
				shed++
			default:
				failed++
				if firstFail == nil {
					firstFail = err
				}
			}
		}()
	}
	wg.Wait()
	for _, sub := range subs {
		sub.Close()
	}
	elapsed := time.Since(start)
	close(monDone)
	monWG.Wait()

	if firstFail != nil {
		return loadResult{}, fmt.Errorf("load bench: %.0f rps window: %d non-shed failures, first: %w", rate, failed, firstFail)
	}
	if err := boundedOrErr(goroutines, "goroutine count", rate); err != nil {
		return loadResult{}, err
	}
	if err := boundedOrErr(depths, "admission queue depth", rate); err != nil {
		return loadResult{}, err
	}
	res := loadResult{
		OfferedRPS:   rate,
		DurationSecs: elapsed.Seconds(),
		Arrivals:     arrivals,
		Acked:        acked,
		Shed:         shed,
		Failed:       failed,
		AchievedRPS:  float64(acked) / elapsed.Seconds(),
		Latency:      lat.summarize(),
	}
	maxOf := func(s []int) int {
		m := 0
		for _, v := range s {
			if v > m {
				m = v
			}
		}
		return m
	}
	res.MaxGoroutines = maxOf(goroutines)
	res.MaxQueueDepth = maxOf(depths)
	if arrivals > 0 {
		res.ShedRate = float64(shed) / float64(arrivals)
		res.Sustainable = res.ShedRate < 0.01 && res.AchievedRPS >= 0.9*rate
	}
	return res, nil
}

// runLoadBench calibrates (unless -load-rates pinned the sweep), runs
// every window against a fresh admission-controlled topology, and
// writes the report.
func runLoadBench() error {
	sv := clusterSurvey()
	sv.ID = "bench-load"
	pr := rng.New(42)
	cfg := populationConfig()
	pop, err := population.Generate(cfg, pr)
	if err != nil {
		return err
	}

	var rates []float64
	var calibrated float64
	if loadRatesFlag != "" {
		if rates, err = parseLoadRates(loadRatesFlag); err != nil {
			return err
		}
	}

	// A fixed response pool is plenty: arrivals cycle through it, and
	// the server treats every arrival as a distinct worker.
	poolSize := 20000
	responses, err := loadResponses(sv, pop, poolSize, pr)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "loki-bench-load-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if rates == nil {
		// Calibrate closed-loop on an identical topology without
		// admission control, then straddle saturation.
		calDir := filepath.Join(dir, "calibrate")
		if err := os.MkdirAll(calDir, 0o755); err != nil {
			return err
		}
		ch, err := newLoadHarness(calDir, sv, loadNodes, 0, loadInflight)
		if err != nil {
			return err
		}
		n := len(responses) / 4
		calibrated, err = calibrateLoad(ch.ts.URL, responses[:n])
		ch.close()
		if err != nil {
			return err
		}
		rates = []float64{0.5 * calibrated, calibrated, 1.5 * calibrated}
	}

	runDir := filepath.Join(dir, "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	h, err := newLoadHarness(runDir, sv, loadNodes, loadQueue, loadInflight)
	if err != nil {
		return err
	}
	defer h.close()

	report := loadReport{
		Schema:        2,
		CalibratedRPS: calibrated,
		Context: loadContext{
			GOOS: runtime.GOOS, NumCPU: runtime.NumCPU(),
			Nodes: loadNodes, Shards: clusterShards,
			SubmitQueue: loadQueue, SubmitInflight: loadInflight,
			DurationSecs: loadDuration.Seconds(), Population: pop.Size(),
			Clients: loadClients,
			Note: "open-loop Poisson arrivals through the batching client against an admission-controlled frontend; " +
				"every shard store fsyncs to one device in this in-process run, so the saturation point is a floor — " +
				"per-node disks raise capacity but not the shape of the overload contract (bounded p99 for admitted, 429 for the rest).",
		},
	}

	for i, rate := range rates {
		res, err := runLoadWindow(h, responses, rate, loadDuration, uint64(100+i))
		if err != nil {
			return err
		}
		report.Results = append(report.Results, res)
		if res.Sustainable && rate > report.MaxSustainableRPS {
			report.MaxSustainableRPS = rate
		}
	}

	totalShed := 0
	for _, r := range report.Results {
		totalShed += r.Shed
	}
	if loadExpectShed && totalShed == 0 {
		return fmt.Errorf("load bench: -load-expect-shed set but no arrival was shed (queue %d, rates %v)", loadQueue, rates)
	}

	fmt.Fprintln(out, "LOAD — open-loop Poisson arrivals vs admission-controlled cluster (batching client, fsync-per-append shard stores)")
	fmt.Fprintf(out, "  context: %d nodes, %d shards, queue %d, inflight %d, one fsync device\n",
		loadNodes, clusterShards, loadQueue, loadInflight)
	if calibrated > 0 {
		fmt.Fprintf(out, "  calibrated closed-loop capacity %.0f r/s\n", calibrated)
	}
	for _, r := range report.Results {
		fmt.Fprintf(out, "  offered %7.0f r/s   acked %7.0f r/s   shed %5.1f%%   p50 %7.2fms  p99 %8.2fms  p999 %8.2fms   sustainable: %v\n",
			r.OfferedRPS, r.AchievedRPS, r.ShedRate*100,
			r.Latency.P50Millis, r.Latency.P99Millis, r.Latency.P999Millis, r.Sustainable)
	}
	fmt.Fprintf(out, "  max sustainable %.0f r/s\n", report.MaxSustainableRPS)
	fmt.Fprintln(out)
	return writeReport(loadJSONPath, &report)
}

// parseLoadRates parses the -load-rates flag.
func parseLoadRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("load bench: bad arrival rate %q", part)
		}
		rates = append(rates, r)
	}
	return rates, nil
}
