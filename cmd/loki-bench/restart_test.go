package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunRestartBench runs the restart measurement at one small size:
// the cold first read scans the whole store, the checkpointed one only
// the tail appended after the checkpoint (the bench itself fails
// otherwise), and the report says so.
func TestRunRestartBench(t *testing.T) {
	silence(t)
	prev := restartJSONPath
	t.Cleanup(func() { restartJSONPath = prev })
	restartJSONPath = filepath.Join(t.TempDir(), "restart.json")

	const n = 2000
	if err := runRestartBench([]int{n}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(restartJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var report restartReport
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != 2 || len(report.Results) != 1 {
		t.Fatalf("report: %+v", report)
	}
	r := report.Results[0]
	if stored := int64(n + restartTrials*restartTail); r.Responses != n || r.ColdScanned != stored || r.CheckpointScanned != restartTail {
		t.Fatalf("scans: %+v, want cold %d and checkpointed %d", r, stored, restartTail)
	}
	if r.ColdFirstReadSeconds <= 0 || r.CheckpointFirstReadSeconds <= 0 || r.CheckpointBytes <= 0 {
		t.Fatalf("timings: %+v", r)
	}
}
