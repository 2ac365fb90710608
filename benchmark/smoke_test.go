package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// shrunk is a workload at a size a race-detector build gets through in
// a few seconds. Only the correctness checks and the presence of every
// metric are asserted on it; nothing about speed.
func shrunk(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloadByName(name)
	w.preload = 200
	if w.surveys > 32 {
		w.surveys = 32
	}
	w.submitRate /= 5
	w.readRate /= 5
	if w.clients > 16 {
		w.clients = 16
	}
	return &w
}

func smokeInputs(t *testing.T, w *workload) *inputs {
	t.Helper()
	in, err := generateInputs(1, w.surveys, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := shrunk(t, wl.name)
			req := runRequest{w: w, seed: 1, seconds: time.Second, dataRoot: t.TempDir()}
			m, err := w.runPass(smokeInputs(t, w), passOptions{
				seed: req.seed, seconds: req.seconds, dataRoot: req.dataRoot, cycles: once(), restart: true, coda: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range m.d.errors {
				t.Errorf("correctness check failed: %s", e)
			}
			if m.acked <= w.preload {
				t.Errorf("acked %d responses, no more than the preload", m.acked)
			}
			metrics := endToEndOf(m)
			for _, em := range slices.Concat(endToEndMetrics, reportedMetrics) {
				got, ok := metrics[em.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s is missing", em.Name)
				case em.Bound == 0 && *got.Value != 0:
					t.Errorf("%s = %v, want exactly 0", em.Name, *got.Value)
				case em.Bound > 0 && (math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) || *got.Value <= 0):
					t.Errorf("%s = %v, want a finite positive number", em.Name, *got.Value)
				case got.Unit != em.Unit:
					t.Errorf("%s has unit %q, want %q", em.Name, got.Unit, em.Unit)
				case got.Incidental == w.measuresMetric(em.Name):
					t.Errorf("%s: incidental=%v on a workload that lists %v", em.Name, got.Incidental, w.measures)
				}
			}
		})
	}
}

// onPath lists the span kinds each topology's timed phases pass through.
func onPath(w *workload) map[spanKind]bool {
	if w.standalone {
		return map[spanKind]bool{spanFrontendSubmit: true, spanFrontendRead: true, spanIngestAppend: true}
	}
	kinds := map[spanKind]bool{
		spanFrontendSubmit: true, spanRPCSubmit: true, spanNodeSubmit: true, spanStoreAppend: true,
	}
	if w.name == "cluster_submit" { // the only bulk phase, and nothing reads
		kinds[spanClientSubmit], kinds[spanClientHTTP] = true, true
	} else {
		kinds[spanFrontendRead], kinds[spanRPCPartial], kinds[spanNodePartial] = true, true, true
	}
	return kinds
}

func TestTracedRunReportsLayersOnThePathAndNullOffIt(t *testing.T) {
	probes := map[string]bool{}
	for _, pm := range probeMetrics {
		probes[pm.name] = true
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := shrunk(t, wl.name)
			req := runRequest{w: w, trace: true, seed: 1, seconds: 2 * time.Second, dataRoot: t.TempDir()}
			ref, tr, lv, err := req.tracedPasses(smokeInputs(t, w), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*measured{ref, tr} {
				for _, e := range m.d.errors {
					t.Errorf("correctness check failed: %s", e)
				}
			}
			want := onPath(w)
			for k := spanKind(0); k < numSpanKinds; k++ {
				got := lv[spanKindNames[k]+".p50_ms"]
				if want[k] && (got == nil || *got <= 0) {
					t.Errorf("%s is on the path but has no p50", spanKindNames[k])
				}
				if !want[k] && got != nil {
					t.Errorf("%s is off the path but reports p50 %v, want null", spanKindNames[k], *got)
				}
			}
			for name, v := range lv {
				if v != nil && (math.IsNaN(*v) || math.IsInf(*v, 0)) {
					t.Errorf("%s = %v", name, *v)
				}
			}
			known := map[string]bool{}
			for _, lm := range perLayerMetrics() {
				known[lm.name] = true
			}
			for name := range lv {
				if !known[name] {
					t.Errorf("%s is reported but not a named per-layer metric", name)
				}
			}
			for _, name := range []string{"bench.trace_overhead_frac", "runtime.alloc_bytes_per_op", "runtime.goroutines_max"} {
				if lv[name] == nil {
					t.Errorf("%s is missing", name)
				}
			}
			if w.standalone {
				for _, name := range []string{"ingest.appends", "ingest.records_per_commit", "checkpoint.bytes", "ingest.bytes_per_response"} {
					if lv[name] == nil {
						t.Errorf("%s is missing on the standalone topology", name)
					}
				}
				if lv["budget.charges"] != nil || lv["server.frontcache_hits"] != nil {
					t.Error("budget or frontend cache reported on the standalone topology")
				}
				return
			}
			for _, name := range []string{"budget.charges", "server.admission_admitted", "shardset.journal_entries", "store.bytes_per_response"} {
				if lv[name] == nil {
					t.Errorf("%s is missing on the cluster topology", name)
				}
			}
			for _, name := range []string{"server.frontcache_hit_ratio", "shardrpc.partial_calls_per_read"} {
				if reads := want[spanFrontendRead]; reads != (lv[name] != nil) {
					t.Errorf("%s: reported=%v on a workload whose timed phases read=%v", name, lv[name] != nil, reads)
				}
			}
			if lv["ingest.appends"] != nil || lv["checkpoint.bytes"] != nil {
				t.Error("ingest or checkpoint reported on the cluster topology")
			}
			if shed := lv["server.admission_shed"]; shed == nil || *shed != 0 {
				t.Errorf("admission shed %v, want 0", shed)
			}
		})
	}
}

func TestProbesReportEveryProbeMetric(t *testing.T) {
	lv := layerValues{}
	if err := runProbes(filepath.Join(t.TempDir(), "probes"), lv); err != nil {
		t.Fatal(err)
	}
	for _, pm := range probeMetrics {
		if v := lv[pm.name]; v == nil || *v <= 0 || math.IsNaN(*v) || math.IsInf(*v, 0) {
			t.Errorf("%s = %v, want a finite positive number", pm.name, v)
		}
	}
	if len(lv) != len(probeMetrics) {
		t.Errorf("probes set %d metrics, %d are named", len(lv), len(probeMetrics))
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps the committed contract and
// the compiled-in tables from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var got, want any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wb, &want); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	nb, _ := json.Marshal(want)
	if string(gb) != string(nb) {
		t.Errorf("BENCHMARK.json differs from `benchmark -spec`; regenerate it")
	}
}

func TestSpecObeysTheContractLimits(t *testing.T) {
	spec := benchmarkSpec()
	names := map[string]bool{}
	check := func(name string) {
		if len(name) == 0 || len(name) > 64 || strings.Trim(name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	haveSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			haveSetup = true
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}
