package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRunLoadBench smoke-tests the open-loop harness at one modest
// pinned rate and checks the JSON report is well-formed: accounting
// closes, the latency summary covers every ack, and the boundedness
// monitor produced evidence.
func TestRunLoadBench(t *testing.T) {
	silence(t)
	prevJSON, prevRates, prevDur := loadJSONPath, loadRatesFlag, loadDuration
	prevNodes, prevQueue, prevInflight, prevShed := loadNodes, loadQueue, loadInflight, loadExpectShed
	t.Cleanup(func() {
		loadJSONPath, loadRatesFlag, loadDuration = prevJSON, prevRates, prevDur
		loadNodes, loadQueue, loadInflight, loadExpectShed = prevNodes, prevQueue, prevInflight, prevShed
	})
	loadJSONPath = filepath.Join(t.TempDir(), "load.json")
	loadRatesFlag = "200"
	loadDuration = 500 * time.Millisecond
	loadNodes = 1
	loadQueue = 64
	loadInflight = 16
	loadExpectShed = false

	if err := runLoadBench(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(loadJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var report loadReport
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != 2 {
		t.Fatalf("schema = %d, want 2", report.Schema)
	}
	if len(report.Results) != 1 {
		t.Fatalf("%d results, want 1", len(report.Results))
	}
	r := report.Results[0]
	if r.OfferedRPS != 200 || r.Arrivals == 0 {
		t.Fatalf("offered window: %+v", r)
	}
	if r.Acked+r.Shed+r.Failed != r.Arrivals || r.Failed != 0 {
		t.Fatalf("accounting: %+v", r)
	}
	if r.Latency.Samples != r.Acked || (r.Acked > 0 && r.Latency.P99Millis < r.Latency.P50Millis) {
		t.Fatalf("latency summary: %+v", r.Latency)
	}
	if r.MaxGoroutines <= 0 {
		t.Fatalf("no boundedness evidence: %+v", r)
	}
	ctx := report.Context
	if ctx.Nodes != 1 || ctx.SubmitQueue != 64 || ctx.SubmitInflight != 16 ||
		ctx.Clients <= 0 || ctx.Population <= 0 {
		t.Fatalf("context: %+v", ctx)
	}
}
