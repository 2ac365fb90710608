// Failover measurement ("failover" id): one node primary for every
// shard, a second node the manifest lists as every shard's replica, and
// a manifest-routed frontend with the failure detector and a placement
// watcher — the full HA wiring loki-server assembles. Mid-run the node's listener starts
// tearing connections down (what a dead process looks like on the
// wire), and the bench measures the availability timeline the tentpole
// promises: reads keep answering through the replica, the detector
// marks the primary down, the replica's failover lease promotes it (and
// rewrites the shared manifest), and submits resume once the frontend
// applies the new routing. The run fails — CI-visibly — if reads ever
// black out, if submits never recover, or if the post-failover merged
// aggregate diverges from a single accumulator folded over the
// cluster's actual records. The timeline goes to -failover-json when
// that is set.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Flags (registered in main.go).
var (
	failoverJSONPath = ""
	clusterResponses = 6000
)

// Failover timing knobs. Tight on purpose: the bench measures the
// timeline in units of these, and CI runs it with small counts.
const (
	failoverProbeInterval = 50 * time.Millisecond
	failoverProbeTimeout  = 250 * time.Millisecond
	failoverPollInterval  = 25 * time.Millisecond
	failoverWatchInterval = 25 * time.Millisecond
	failoverPromoteAfter  = 250 * time.Millisecond
)

// failoverResult is the report: the availability timeline
// (milliseconds after the kill) plus the read/submit availability
// counts through the failover window.
type failoverResult struct {
	Shards             int     `json:"shards"`
	ProbeMillis        float64 `json:"probe_millis"`
	PromoteAfterMillis float64 `json:"promote_after_millis"`
	// FirstReadMillis: kill → first merged read answered (served by the
	// replica inside the same request that found the primary dead).
	FirstReadMillis float64 `json:"first_read_millis"`
	// DetectMillis: kill → the frontend's failure detector reporting the
	// primary down on the health surface.
	DetectMillis float64 `json:"detect_millis"`
	// PromoteMillis: kill → the shared manifest naming the replica
	// primary for every shard (lease-driven self-promotion).
	PromoteMillis float64 `json:"promote_millis"`
	// SubmitRecoveryMillis: kill → first accepted submit (the frontend
	// has applied the rewritten manifest and routes to the new primary).
	SubmitRecoveryMillis float64 `json:"submit_recovery_millis"`
	// Availability through the window: every read probe during failover
	// must succeed (ReadFailures stays 0 — that is the CI gate), submits
	// refuse with retryable 503s until promotion lands.
	ReadsDuringFailover int    `json:"reads_during_failover"`
	ReadFailures        int    `json:"read_failures"`
	SubmitsRefused      int    `json:"submits_refused"`
	SubmitsRecovered    int    `json:"submits_recovered"`
	StaleReads          uint64 `json:"stale_reads"`
	// Equivalent: after recovery and a second submit phase, the merged
	// aggregate equals one accumulator folded over the cluster's actual
	// post-failover records.
	Equivalent bool `json:"equivalent"`
}

// swapHandler lets the bench "kill" and revive a node behind a stable
// URL by swapping what its listener serves.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// deadNodeHandler tears every connection down before a byte of response
// is written: clients observe transport errors, exactly like a crashed
// process, never an HTTP status.
type deadNodeHandler struct{}

func (deadNodeHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("bench server does not support hijacking")
	}
	if conn, _, err := hj.Hijack(); err == nil {
		conn.Close()
	}
}

// submitProbe pushes one response through the frontend and classifies
// the answer: accepted, retryable refusal (the failover vocabulary), or
// an unexpected status.
func submitProbe(h http.Handler, sv *survey.Survey, i int) (accepted bool, retryable bool, err error) {
	body, err := json.Marshal(clusterResponse(sv, i))
	if err != nil {
		return false, false, err
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/surveys/"+sv.ID+"/responses", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusCreated:
		return true, false, nil
	case http.StatusServiceUnavailable:
		if rec.Header().Get("Retry-After") == "" {
			return false, false, fmt.Errorf("failover bench: 503 without Retry-After: %s", rec.Body.String())
		}
		return false, true, nil
	default:
		return false, false, fmt.Errorf("failover bench: submit %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
	}
}

// failoverNode builds one cluster node hosting every shard behind a
// stable URL whose handler the bench can swap, its follow loop armed
// with the failover lease; the manifest decides what the node is for
// each shard. done closes it.
func failoverNode(manifestPath string) (node *server.Node, sw *swapHandler, ts *httptest.Server, done func(), err error) {
	stores := make([]store.Store, clusterShards)
	globals := make([]int, clusterShards)
	for i := range stores {
		stores[i] = store.NewMem()
		globals[i] = i
	}
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: globals, Journal: true})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srv, err := server.New(server.Config{
		Router: local, Schedule: core.DefaultSchedule(),
		RequesterToken: requesterToken, ClusterToken: clusterToken, Role: "node",
	})
	if err == nil {
		node, err = server.NewNode(srv, clusterShards)
	}
	var rpc *shardrpc.Handler
	if err == nil {
		rpc, err = shardrpc.NewHandler(node, clusterToken)
	}
	if err != nil {
		local.Close()
		return nil, nil, nil, nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/shardrpc/", rpc)
	mux.Handle("/", srv)
	sw = &swapHandler{h: mux}
	ts = httptest.NewServer(sw)
	node.Follow(server.FollowOptions{
		PollInterval: failoverPollInterval, PromoteAfter: failoverPromoteAfter,
		ManifestPath: manifestPath,
	})
	return node, sw, ts, func() { node.Close(); ts.Close(); srv.Close(); local.Close() }, nil
}

// runFailoverBench executes the kill-node scenario, prints the timeline
// and writes the report; any broken availability guarantee is an error.
func runFailoverBench() error {
	fo, err := measureFailover()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "FAILOVER — primary killed mid-run behind a manifest-routed frontend with a live replica")
	fmt.Fprintf(out, "  detect %.0fms  first read %.1fms  promote %.0fms  submits resume %.0fms\n",
		fo.DetectMillis, fo.FirstReadMillis, fo.PromoteMillis, fo.SubmitRecoveryMillis)
	fmt.Fprintf(out, "  reads through failover %d ok / %d failed (stale-served %d)  submits %d refused (503) then %d accepted  merged==single: %v\n",
		fo.ReadsDuringFailover, fo.ReadFailures, fo.StaleReads, fo.SubmitsRefused, fo.SubmitsRecovered, fo.Equivalent)
	fmt.Fprintln(out)
	return writeReport(failoverJSONPath, fo)
}

// measureFailover runs the scenario and returns its timeline.
func measureFailover() (*failoverResult, error) {
	sv := clusterSurvey()
	phase1 := clusterResponses
	phase2 := clusterResponses / 2
	if phase2 == 0 {
		phase2 = 1
	}
	dir, err := os.MkdirTemp("", "loki-bench-failover-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Two nodes behind stable URLs, each serving the public API and
	// shardrpc on one listener, like production nodes: journaled
	// in-memory shard stores (this scenario measures availability, not
	// fsync throughput), the follow loop armed with the failover lease.
	manifestPath := filepath.Join(dir, "manifest.json")
	node, nodeSW, nts, done, err := failoverNode(manifestPath)
	if err != nil {
		return nil, err
	}
	defer done()
	rep, _, rts, done, err := failoverNode(manifestPath)
	if err != nil {
		return nil, err
	}
	defer done()

	// The shared manifest: every shard primary on the first node, the
	// second its replica. Each node applies it, as its watcher would.
	m, err := placement.RoundRobin(clusterShards, []string{nts.URL})
	if err != nil {
		return nil, err
	}
	for i := range m.Shards {
		m.Shards[i].Replicas = []string{rts.URL}
	}
	if err := m.Save(manifestPath); err != nil {
		return nil, err
	}
	node.ApplyManifest(m, nts.URL)
	rep.ApplyManifest(m, rts.URL)

	// The frontend: manifest routing, active prober, watcher-driven
	// reloads, fenced-write fast re-poll — the loki-server wiring.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clusterWorkers * 2}}
	remote, err := shardrpc.NewRemoteFromManifest(m, clusterToken, hc)
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	watcher, err := placement.Watch(manifestPath, failoverWatchInterval, func(mm *placement.Manifest) {
		_ = remote.ApplyManifest(mm)
	})
	if err != nil {
		return nil, err
	}
	defer watcher.Close()
	remote.OnFenced(watcher.Poll)
	remote.EnableFailover(shardrpc.FailoverOptions{
		ProbeInterval: failoverProbeInterval,
		ProbeTimeout:  failoverProbeTimeout,
	})
	frontend, err := server.New(server.Config{
		Router: remote, Schedule: core.DefaultSchedule(),
		RequesterToken: requesterToken, Role: "frontend",
		FrontendCacheTTL: -1,
	})
	if err != nil {
		return nil, err
	}
	defer frontend.Close()
	if _, err := remote.Publish(sv); err != nil {
		return nil, err
	}

	// Phase 1: load through the healthy cluster, then wait for the
	// replica to catch up (it is about to become the data's only home).
	if err := driveSubmits(frontend, sv, 0, phase1); err != nil {
		return nil, fmt.Errorf("failover bench: phase-1 submits: %w", err)
	}
	repClient := shardrpc.NewClient(rts.URL, clusterToken, nil)
	caughtUp := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		total := 0
		for s := 0; s < clusterShards; s++ {
			n, err := repClient.Count(s, sv.ID)
			if err != nil {
				break
			}
			total += n
		}
		if total == phase1 {
			caughtUp = true
			break
		}
		time.Sleep(failoverPollInterval)
	}
	if !caughtUp {
		return nil, fmt.Errorf("failover bench: replica never caught up to %d records", phase1)
	}

	// The kill. From here every probe is timestamped against killAt.
	killAt := time.Now()
	nodeSW.swap(deadNodeHandler{})

	res := &failoverResult{
		Shards:             clusterShards,
		ProbeMillis:        float64(failoverProbeInterval) / 1e6,
		PromoteAfterMillis: float64(failoverPromoteAfter) / 1e6,
	}
	var firstReadAt, detectAt, promoteAt, recoverAt time.Time
	probeI := phase1 + 1_000_000 // probe submits use their own worker-id space
	consecutiveOK := 0
	for deadline := killAt.Add(20 * time.Second); ; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("failover bench: no full recovery within %s (detect %v promote %v submit %v)",
				20*time.Second, !detectAt.IsZero(), !promoteAt.IsZero(), !recoverAt.IsZero())
		}
		// Read availability: the merged aggregate must answer on every
		// probe — the primary's death is absorbed inside the request by
		// the replica fallback.
		if _, err := fetchAggregate(frontend, sv.ID); err == nil {
			res.ReadsDuringFailover++
			if firstReadAt.IsZero() {
				firstReadAt = time.Now()
			}
		} else {
			res.ReadFailures++
		}
		// Detection: the frontend's failure detector flags the primary.
		if detectAt.IsZero() {
			if fi := remote.FailoverInfo(); fi != nil {
				for _, sh := range fi.Shards {
					if sh.PrimaryDown {
						detectAt = time.Now()
						break
					}
				}
			}
		}
		// Promotion: the manifest names the replica primary everywhere.
		if promoteAt.IsZero() {
			if mm, err := placement.Load(manifestPath); err == nil {
				all := true
				for s := 0; s < clusterShards; s++ {
					if sp := mm.Placement(s); sp == nil || sp.Primary != rts.URL {
						all = false
						break
					}
				}
				if all {
					promoteAt = time.Now()
				}
			}
		}
		// Submit availability: refusals must be the retryable 503 shape;
		// acceptance marks recovery.
		accepted, retryable, err := submitProbe(frontend, sv, probeI)
		probeI++
		switch {
		case err != nil:
			return nil, err
		case accepted:
			res.SubmitsRecovered++
			consecutiveOK++
			if recoverAt.IsZero() {
				recoverAt = time.Now()
			}
		case retryable:
			res.SubmitsRefused++
			consecutiveOK = 0
		}
		// Done once the whole timeline is observed and submits are
		// landing across the shard space (worker IDs hash over shards, so
		// a run of acceptances means every shard's route recovered).
		if !detectAt.IsZero() && !promoteAt.IsZero() && consecutiveOK >= 2*clusterShards {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.FirstReadMillis = float64(firstReadAt.Sub(killAt)) / 1e6
	res.DetectMillis = float64(detectAt.Sub(killAt)) / 1e6
	res.PromoteMillis = float64(promoteAt.Sub(killAt)) / 1e6
	res.SubmitRecoveryMillis = float64(recoverAt.Sub(killAt)) / 1e6
	res.StaleReads = remote.StaleReads()

	// The availability gates.
	if res.ReadsDuringFailover == 0 {
		return nil, fmt.Errorf("failover bench: zero successful reads through the failover window")
	}
	if res.ReadFailures > 0 {
		return nil, fmt.Errorf("failover bench: %d of %d reads failed during failover — replica fallback did not hold",
			res.ReadFailures, res.ReadFailures+res.ReadsDuringFailover)
	}
	if res.StaleReads == 0 {
		return nil, fmt.Errorf("failover bench: no read was served by the replica — the kill never bit")
	}

	// The promotion is observed in the manifest FILE; the frontend's
	// watcher may lag it by one poll. Phase 2 expects every submit to
	// land, so wait until the applied routing caught up.
	final, err := placement.Load(manifestPath)
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(5 * time.Second); remote.ManifestVersion() < final.Version; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("failover bench: frontend never applied manifest v%d (at v%d)",
				final.Version, remote.ManifestVersion())
		}
		time.Sleep(failoverWatchInterval)
	}

	// Phase 2: steady state on the promoted replica, then the
	// equivalence check the tentpole's acceptance names: the merged
	// aggregate must equal a single accumulator folded over the
	// cluster's actual post-failover records (what the promoted replica
	// holds — asynchronous replication's contract, not the submit
	// attempt log).
	if err := driveSubmits(frontend, sv, 2_000_000, phase2); err != nil {
		return nil, fmt.Errorf("failover bench: phase-2 submits: %w", err)
	}
	wantCount := phase1 + res.SubmitsRecovered + phase2
	if got := shardset.Count(remote, sv.ID); got != wantCount {
		return nil, fmt.Errorf("failover bench: cluster holds %d records, want %d (accepted submits lost?)", got, wantCount)
	}
	est, err := server.BatchEstimator(core.DefaultSchedule())
	if err != nil {
		return nil, err
	}
	var rs []survey.Response
	if _, err := shardset.ScanMerged(remote, sv.ID, nil, func(_ int, _ uint64, resp *survey.Response) error {
		rs = append(rs, *resp)
		return nil
	}); err != nil {
		return nil, err
	}
	ref, err := server.BatchAggregate(est, sv, rs)
	if err != nil {
		return nil, err
	}
	agg, err := fetchAggregate(frontend, sv.ID)
	if err != nil {
		return nil, err
	}
	if len(agg.DegradedShards) != 0 {
		return nil, fmt.Errorf("failover bench: post-recovery read still degraded: %v", agg.DegradedShards)
	}
	if err := aggregatesEquivalent(agg, ref); err != nil {
		return nil, fmt.Errorf("failover bench: post-failover merged read diverged from the single-accumulator fold: %w", err)
	}
	res.Equivalent = true
	return res, nil
}
