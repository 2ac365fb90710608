package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunIngestBench smoke-tests the throughput harness on a tiny
// workload and checks the JSON report is well-formed and complete.
func TestRunIngestBench(t *testing.T) {
	silence(t)
	prevSize, prevPath, prevSeek := ingestBenchSize, ingestJSONPath, ingestSeekRecords
	t.Cleanup(func() { ingestBenchSize, ingestJSONPath, ingestSeekRecords = prevSize, prevPath, prevSeek })
	// Large enough that a run is tens of fsyncs long: the bench gates
	// on the ratio of two rows' throughput.
	ingestBenchSize = ingestBenchConfig{Goroutines: 8, Responses: 1000, Surveys: 4}
	ingestSeekRecords = 50_000
	ingestJSONPath = filepath.Join(t.TempDir(), "BENCH_ingest.json")

	if err := runIngestBench(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ingestJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var report ingestBenchReport
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != 4 {
		t.Fatalf("schema = %d, want 4", report.Schema)
	}
	if len(report.Codecs) != 2 {
		t.Fatalf("%d codec results, want 2", len(report.Codecs))
	}
	for _, c := range report.Codecs {
		if c.BytesPerResponse <= 0 || c.ColdRecoverySecs <= 0 {
			t.Fatalf("codec %s: %+v", c.Codec, c)
		}
	}
	if report.Gates.BinaryBytesRatio <= 0 || report.Gates.BinaryBytesRatio > report.Gates.BinaryBytesRatioMax {
		t.Fatalf("binary bytes ratio gate: %+v", report.Gates)
	}
	if g := report.Gates; g.ShardScalingMin != 0.8 || g.ShardScaling < g.ShardScalingMin {
		t.Fatalf("shard-scaling gate: %+v", g)
	}
	if report.Seek.Speedup <= 1 || !indexedSeekWon(report.Seek) {
		t.Fatalf("tail-seek gate: %+v", report.Seek)
	}
	if len(report.Results) != 6 { // mem, file, ingest x {1,2,4,8}
		t.Fatalf("%d results, want 6", len(report.Results))
	}
	for _, r := range report.Results {
		if r.ResponsesPerSec <= 0 {
			t.Fatalf("backend %s (%d shards): nonpositive rate %g", r.Backend, r.Shards, r.ResponsesPerSec)
		}
		if r.Backend == "ingest" && (r.GroupCommits <= 0 || r.FsyncsPerSec <= 0) {
			t.Fatalf("ingest backend with %d shards reports no group commits: %+v", r.Shards, r)
		}
		if r.AppendLatency.Samples != ingestBenchSize.Responses || r.AppendLatency.P99Millis < r.AppendLatency.P50Millis {
			t.Fatalf("backend %s (%d shards): malformed latency summary %+v", r.Backend, r.Shards, r.AppendLatency)
		}
	}
}

// indexedSeekWon is the committed-report gate restated: the indexed
// resume must strictly beat the full replay.
func indexedSeekWon(s ingestSeekResult) bool {
	return s.TailSeekSecs < s.FullReplaySecs
}
