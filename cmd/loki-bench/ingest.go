// Ingest throughput benchmark ("ingest" experiment id): concurrent
// response submission against every store backend, reported as a text
// table and teed to a machine-readable JSON file so later PRs can track
// the performance trajectory.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/blockio"
	"loki/internal/ingest"
	"loki/internal/store"
	"loki/internal/survey"
)

// ingestJSONPath is where the machine-readable report goes; set by the
// -ingest-json flag.
var ingestJSONPath = "BENCH_ingest.json"

// ingestBenchConfig sizes the throughput run. Small enough to finish in
// seconds on a laptop, large enough to amortize setup and trigger group
// commits.
type ingestBenchConfig struct {
	Goroutines int `json:"goroutines"`
	Responses  int `json:"responses_per_backend"`
	Surveys    int `json:"surveys"`
}

// ingestBenchResult is one backend's measurement.
type ingestBenchResult struct {
	Backend         string  `json:"backend"`
	Shards          int     `json:"shards,omitempty"`
	Seconds         float64 `json:"seconds"`
	ResponsesPerSec float64 `json:"responses_per_sec"`
	// AppendLatency holds per-append percentiles across the workers.
	AppendLatency latencySummary `json:"append_latency"`
	// GroupCommits, MeanBatch and FsyncsPerSec are ingest-only: fsyncs
	// on the append path, the achieved appends-per-fsync, and the fsync
	// rate the device saw. An ingest row is the best of ingestTrials
	// runs, so that one slow stretch of a shared box does not trip the
	// shard-scaling gate.
	GroupCommits int64   `json:"group_commits,omitempty"`
	MeanBatch    float64 `json:"mean_batch,omitempty"`
	FsyncsPerSec float64 `json:"fsyncs_per_sec,omitempty"`
}

// ingestCodecResult compares the on-disk codecs on one identical
// single-shard workload: bytes per response on disk and the time a cold
// restart spends replaying the directory back into the index.
type ingestCodecResult struct {
	Codec            string  `json:"codec"`
	BytesOnDisk      int64   `json:"bytes_on_disk"`
	BytesPerResponse float64 `json:"bytes_per_response"`
	ColdRecoverySecs float64 `json:"cold_recovery_seconds"`
}

// ingestSeekResult measures a cursor resume near the tail of one sealed
// binary segment: the block index seeks straight to the last block,
// against a full sequential replay of every block.
type ingestSeekResult struct {
	Records        int     `json:"records"`
	FullReplaySecs float64 `json:"full_replay_seconds"`
	TailSeekSecs   float64 `json:"tail_seek_seconds"`
	Speedup        float64 `json:"speedup"`
	// BlocksRead counts the compressed frames the tail-seek actually
	// decompressed (the full replay reads all of them).
	BlocksRead int `json:"blocks_read"`
}

// ingestGates are the regression gates the committed report asserts:
// the binary codec must store a response in at most BinaryBytesRatioMax
// of the JSON bytes, the indexed tail-seek must beat a full replay, and
// the 8-shard ingest row must reach ShardScalingMin of the 1-shard
// row's throughput — every shard count shares one log, so a lower
// ratio means per-shard fsync streams (the 48k→11k r/s inversion of
// schema 3) have come back.
type ingestGates struct {
	BinaryBytesRatio    float64 `json:"binary_bytes_ratio"`
	BinaryBytesRatioMax float64 `json:"binary_bytes_ratio_max"`
	TailSeekSpeedup     float64 `json:"tail_seek_speedup"`
	TailSeekSpeedupMin  float64 `json:"tail_seek_speedup_min"`
	ShardScaling        float64 `json:"shard_scaling"`
	ShardScalingMin     float64 `json:"shard_scaling_min"`
}

// ingestBenchReport is the BENCH_ingest.json schema.
type ingestBenchReport struct {
	Schema  int                 `json:"schema"`
	Config  ingestBenchConfig   `json:"config"`
	Results []ingestBenchResult `json:"results"`
	Codecs  []ingestCodecResult `json:"codecs"`
	Seek    ingestSeekResult    `json:"seek"`
	Gates   ingestGates         `json:"gates"`
}

// benchIngestSurvey builds one tiny distinct survey per stream, so the
// group commits interleave surveys as a platform's would.
func benchIngestSurvey(i int) *survey.Survey {
	return &survey.Survey{
		ID:    fmt.Sprintf("bench-ingest-%02d", i),
		Title: fmt.Sprintf("Ingest bench survey %d", i),
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		},
		RewardCents: 10,
	}
}

// driveStore hammers st with cfg.Responses submissions from
// cfg.Goroutines goroutines and returns the wall time plus per-append
// latency percentiles.
func driveStore(st store.Store, cfg ingestBenchConfig) (time.Duration, latencySummary, error) {
	surveys := make([]*survey.Survey, cfg.Surveys)
	for i := range surveys {
		surveys[i] = benchIngestSurvey(i)
		if err := st.PutSurvey(surveys[i]); err != nil {
			return 0, latencySummary{}, err
		}
	}
	var lat latencyRecorder
	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Responses {
					return
				}
				r := &survey.Response{
					SurveyID:     surveys[i%len(surveys)].ID,
					WorkerID:     fmt.Sprintf("g%02d-%06d", g, i),
					Answers:      []survey.Answer{survey.RatingAnswer("q0", 3)},
					PrivacyLevel: "medium",
					Obfuscated:   true,
				}
				appendStart := time.Now()
				err := st.AppendResponse(r)
				lat.observe(time.Since(appendStart))
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, latencySummary{}, firstErr
	}
	return elapsed, lat.summarize(), nil
}

// ingestBenchSize is the default workload; tests shrink it.
var ingestBenchSize = ingestBenchConfig{Goroutines: 32, Responses: 4000, Surveys: 16}

// ingestSeekRecords sizes the tail-seek measurement; tests shrink it.
var ingestSeekRecords = 1_000_000

// ingestTrials is how many times each ingest row runs; the fastest is
// reported.
const ingestTrials = 5

// dirSize sums the file sizes under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// runCodecComparison drives the same single-shard workload through each
// codec and measures bytes-per-response on disk plus the cold-recovery
// replay time of a fresh open.
func runCodecComparison(tmp string, cfg ingestBenchConfig) ([]ingestCodecResult, error) {
	var results []ingestCodecResult
	for _, codec := range []string{blockio.CodecJSON, blockio.CodecBinary} {
		dir := filepath.Join(tmp, "codec-"+codec)
		ing, err := ingest.Open(dir, ingest.Config{Shards: 1, Codec: codec})
		if err != nil {
			return nil, err
		}
		_, _, err = driveStore(ing, cfg)
		if cerr := ing.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("codec bench (%s): %w", codec, err)
		}
		bytes, err := dirSize(dir)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ing, err = ingest.Open(dir, ingest.Config{Shards: 1, Codec: codec})
		if err != nil {
			return nil, fmt.Errorf("codec bench (%s) cold reopen: %w", codec, err)
		}
		recovery := time.Since(start)
		ing.Close()
		results = append(results, ingestCodecResult{
			Codec:            codec,
			BytesOnDisk:      bytes,
			BytesPerResponse: float64(bytes) / float64(cfg.Responses),
			ColdRecoverySecs: recovery.Seconds(),
		})
	}
	return results, nil
}

// runSeekBench writes one sealed binary segment of ingestSeekRecords
// response-shaped records, then times a cursor resume 100 records from
// the end two ways: the block-index seek and a full sequential replay.
func runSeekBench(tmp string) (ingestSeekResult, error) {
	n := ingestSeekRecords
	path := filepath.Join(tmp, "seek.seg")
	f, err := os.Create(path)
	if err != nil {
		return ingestSeekResult{}, err
	}
	w, err := blockio.NewWriter(f, 1)
	if err != nil {
		return ingestSeekResult{}, err
	}
	r := &survey.Response{
		SurveyID:     "bench-seek",
		Answers:      []survey.Answer{survey.RatingAnswer("q0", 3)},
		PrivacyLevel: "medium",
		Obfuscated:   true,
	}
	for i := 0; i < n; i++ {
		r.WorkerID = fmt.Sprintf("worker-%07d", i)
		b, err := json.Marshal(r)
		if err != nil {
			return ingestSeekResult{}, err
		}
		if _, err := w.Append(b); err != nil {
			return ingestSeekResult{}, err
		}
	}
	if err := w.Seal(); err != nil {
		return ingestSeekResult{}, err
	}
	if err := w.Close(); err != nil {
		return ingestSeekResult{}, err
	}

	start := time.Now()
	replayed := 0
	if _, err := blockio.Replay(path, false, func(uint64, []byte) error {
		replayed++
		return nil
	}); err != nil {
		return ingestSeekResult{}, err
	}
	fullReplay := time.Since(start)
	if replayed != n {
		return ingestSeekResult{}, fmt.Errorf("seek bench: replay saw %d of %d records", replayed, n)
	}

	cursor := uint64(n - 100)
	start = time.Now()
	sought := 0
	stats, err := blockio.ScanFrom(path, cursor, func(uint64, []byte) error {
		sought++
		return nil
	})
	if err != nil {
		return ingestSeekResult{}, err
	}
	tailSeek := time.Since(start)
	if !stats.Indexed {
		return ingestSeekResult{}, fmt.Errorf("seek bench: sealed segment scan was not index-driven")
	}
	if sought != 100 {
		return ingestSeekResult{}, fmt.Errorf("seek bench: tail scan saw %d records, want 100", sought)
	}
	return ingestSeekResult{
		Records:        n,
		FullReplaySecs: fullReplay.Seconds(),
		TailSeekSecs:   tailSeek.Seconds(),
		Speedup:        fullReplay.Seconds() / tailSeek.Seconds(),
		BlocksRead:     stats.BlocksRead,
	}, nil
}

// runIngestBench measures every backend and writes the report.
func runIngestBench() error {
	cfg := ingestBenchSize
	tmp, err := os.MkdirTemp("", "loki-ingest-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	report := ingestBenchReport{Schema: 4, Config: cfg}
	record := func(name string, shards int, el time.Duration, lat latencySummary, st *ingest.Stats) {
		res := ingestBenchResult{
			Backend:         name,
			Shards:          shards,
			Seconds:         el.Seconds(),
			ResponsesPerSec: float64(cfg.Responses) / el.Seconds(),
			AppendLatency:   lat,
		}
		if st != nil && st.Commits > 0 {
			res.GroupCommits = st.Commits
			res.MeanBatch = float64(st.Appends) / float64(st.Commits)
			res.FsyncsPerSec = float64(st.Commits) / el.Seconds()
		}
		report.Results = append(report.Results, res)
	}

	mem := store.NewMem()
	el, lat, err := driveStore(mem, cfg)
	mem.Close()
	if err != nil {
		return fmt.Errorf("ingest bench (mem): %w", err)
	}
	record("mem", 0, el, lat, nil)

	fileStore, err := store.OpenFile(filepath.Join(tmp, "file.jsonl"))
	if err != nil {
		return err
	}
	el, lat, err = driveStore(fileStore, cfg)
	fileStore.Close()
	if err != nil {
		return fmt.Errorf("ingest bench (file): %w", err)
	}
	record("file-sync-always", 0, el, lat, nil)

	// Trials interleave the shard counts, each starting one further
	// along, so a slow stretch of the box — or whatever a run inherits
	// from the one before it — lands on every row alike.
	type ingestRun struct {
		el    time.Duration
		lat   latencySummary
		stats ingest.Stats
	}
	shardCounts := []int{1, 2, 4, 8}
	best := map[int]ingestRun{}
	for trial := 0; trial < ingestTrials; trial++ {
		for i := range shardCounts {
			shards := shardCounts[(trial+i)%len(shardCounts)]
			ing, err := ingest.Open(filepath.Join(tmp, fmt.Sprintf("ingest-%d-%d", shards, trial)), ingest.Config{Shards: shards})
			if err != nil {
				return err
			}
			el, lat, err := driveStore(ing, cfg)
			stats := ing.Stats()
			ing.Close()
			if err != nil {
				return fmt.Errorf("ingest bench (%d shards): %w", shards, err)
			}
			if b, ok := best[shards]; !ok || el < b.el {
				best[shards] = ingestRun{el, lat, stats}
			}
		}
	}
	for _, shards := range shardCounts {
		b := best[shards]
		record("ingest", shards, b.el, b.lat, &b.stats)
	}

	if report.Codecs, err = runCodecComparison(tmp, cfg); err != nil {
		return err
	}
	if report.Seek, err = runSeekBench(tmp); err != nil {
		return err
	}
	var jsonBytes, binBytes float64
	for _, c := range report.Codecs {
		switch c.Codec {
		case blockio.CodecJSON:
			jsonBytes = float64(c.BytesOnDisk)
		case blockio.CodecBinary:
			binBytes = float64(c.BytesOnDisk)
		}
	}
	report.Gates = ingestGates{
		BinaryBytesRatio:    binBytes / jsonBytes,
		BinaryBytesRatioMax: 0.7,
		TailSeekSpeedup:     report.Seek.Speedup,
		TailSeekSpeedupMin:  1,
		ShardScaling:        best[1].el.Seconds() / best[8].el.Seconds(),
		ShardScalingMin:     0.8,
	}

	fmt.Fprintln(out, "INGEST THROUGHPUT — concurrent response submission")
	fmt.Fprintf(out, "  %d responses, %d goroutines, %d surveys, durable backends fsync\n",
		cfg.Responses, cfg.Goroutines, cfg.Surveys)
	var fileRate float64
	for _, r := range report.Results {
		if r.Backend == "file-sync-always" {
			fileRate = r.ResponsesPerSec
		}
	}
	for _, r := range report.Results {
		name := r.Backend
		if r.Shards > 0 {
			name = fmt.Sprintf("%s-%d", r.Backend, r.Shards)
		}
		line := fmt.Sprintf("  %-18s %10.0f resp/s  p50 %7.3fms p99 %7.3fms",
			name, r.ResponsesPerSec, r.AppendLatency.P50Millis, r.AppendLatency.P99Millis)
		if r.GroupCommits > 0 {
			line += fmt.Sprintf("  (%5.1f appends/fsync, %6.0f fsyncs/s", r.MeanBatch, r.FsyncsPerSec)
			if fileRate > 0 {
				line += fmt.Sprintf(", %.1fx file", r.ResponsesPerSec/fileRate)
			}
			line += ")"
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "  ingest-8 / ingest-1 throughput %.2f (gate: >= %.2f)\n",
		report.Gates.ShardScaling, report.Gates.ShardScalingMin)
	fmt.Fprintln(out)

	fmt.Fprintln(out, "ON-DISK CODECS — identical single-shard workload")
	for _, c := range report.Codecs {
		fmt.Fprintf(out, "  %-8s %8.1f bytes/response  cold recovery %8.2f ms\n",
			c.Codec, c.BytesPerResponse, c.ColdRecoverySecs*1e3)
	}
	fmt.Fprintf(out, "  binary/json bytes ratio %.2f (gate: <= %.2f)\n",
		report.Gates.BinaryBytesRatio, report.Gates.BinaryBytesRatioMax)
	fmt.Fprintln(out)

	fmt.Fprintf(out, "CURSOR RESUME — sealed binary segment, %d records, cursor 100 from the end\n", report.Seek.Records)
	fmt.Fprintf(out, "  full replay   %10.2f ms\n", report.Seek.FullReplaySecs*1e3)
	fmt.Fprintf(out, "  indexed seek  %10.2f ms  (%d block(s) read, %.0fx faster; gate: > %.0fx)\n",
		report.Seek.TailSeekSecs*1e3, report.Seek.BlocksRead, report.Seek.Speedup, report.Gates.TailSeekSpeedupMin)
	fmt.Fprintln(out)

	if ingestJSONPath != "" {
		b, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(ingestJSONPath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("ingest bench: write report: %w", err)
		}
	}
	if report.Gates.BinaryBytesRatio > report.Gates.BinaryBytesRatioMax {
		return fmt.Errorf("ingest bench gate: binary codec stores %.2fx the JSON bytes (gate %.2f)",
			report.Gates.BinaryBytesRatio, report.Gates.BinaryBytesRatioMax)
	}
	if report.Gates.TailSeekSpeedup <= report.Gates.TailSeekSpeedupMin {
		return fmt.Errorf("ingest bench gate: indexed tail-seek %.2fx vs full replay (gate > %.2f)",
			report.Gates.TailSeekSpeedup, report.Gates.TailSeekSpeedupMin)
	}
	if report.Gates.ShardScaling < report.Gates.ShardScalingMin {
		return fmt.Errorf("ingest bench gate: 8 shards reach %.2fx the 1-shard throughput (gate >= %.2f)",
			report.Gates.ShardScaling, report.Gates.ShardScalingMin)
	}
	return nil
}
