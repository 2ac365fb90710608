package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// defaultRunSeconds is BENCHMARK.json's run_seconds. The acceptance
// check makes 92 runs and two builds in 3 420 s; a run takes its seconds
// plus five to eight more (inputs, three or more set-ups with restarts,
// the checks and the durability copy), so 24 s leaves about a fifth of
// the hour in hand for the box's slow stretches.
const defaultRunSeconds = 24

// e2eMetric is one end-to-end metric of the contract.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndMetrics are BENCHMARK.json's end_to_end: what a user of the
// system sees, each with the share of the parent's median by which it
// may worsen before a change counts as a regression. The acceptance
// check refuses a benchmark on which any of these spreads wider over ten
// seeds than its bound, and every one of them is on every run's last
// line whatever the workload, so a metric is listed here only if it is
// steady on all four; the rest of the issue's twelve follow in
// reportedMetrics. The time-based bounds are the contract's cap, 0.25,
// not the issue's 0.20: on the shared 2-core box ten seeds of one commit
// spread by 1-17 % on these rows in a quiet half hour (AA.md), which a
// third of 0.20 does not cover and the host's slow minutes stretch
// further. The space metric does not depend on the box's speed except
// through how much a compacting store has written when it is sampled:
// 0.15, against a widest spread of 5 %.
var endToEndMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"submit_ack_p50_ms", "ms", "lower", 0.25},
	{"submit_goodput_rps", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_qps", "1/s", "higher", 0.25},
	{"restart_first_read_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_response", "bytes", "lower", 0.15},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// reportedMetrics are in every run's report and judged by -compare, but
// not in BENCHMARK.json. The 99th percentiles are a few dozen GC,
// scheduler and fsync stalls per run and spread by 11-216 % over ten seeds
// on this box: -compare holds them to 0.25 and says unresolved where the
// runs cannot show that much. The failure fractions must be exactly 0 on
// every workload, which no share of a median expresses (and the contract
// takes no metric that reads 0): a run with a failed operation is
// incorrect, and -compare fails any rise.
var reportedMetrics = []e2eMetric{
	{"submit_ack_p99_ms", "ms", "lower", 0.25},
	{"read_p99_ms", "ms", "lower", 0.25},
	{"submit_fail_frac", "ratio", "lower", 0},
	{"read_fail_frac", "ratio", "lower", 0},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// higherIsBetter lists the per-layer metrics where more is better;
// everything else is a cost, a wait or a size.
var higherIsBetter = map[string]bool{
	"server.frontcache_hits":         true,
	"server.frontcache_hit_ratio":    true,
	"server.frontcache_not_modified": true,
	"server.admission_admitted":      true,
	"ingest.records_per_commit":      true,
	"ingest.appends":                 true,
	"budget.charges":                 true,
}

// benchmarkSpec builds BENCHMARK.json from the same tables the run
// reports from, so the names cannot drift apart.
func benchmarkSpec() *benchmarkFile {
	bf := &benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
		EndToEnd:   endToEndMetrics,
	}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, specWorkload{w.name, w.why})
	}
	for _, lm := range perLayerMetrics() {
		better := "lower"
		if higherIsBetter[lm.name] || strings.HasSuffix(lm.name, ".records_per_call") || strings.HasSuffix(lm.name, ".count") {
			better = "higher"
		}
		bf.PerLayer = append(bf.PerLayer, specLayer{lm.name, lm.unit, better})
	}
	return bf
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// contextBlock says what a run was measured on, so two report files can
// be told comparable before they are compared.
type contextBlock struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	FsyncDevice string `json:"fsync_device"`
	GitCommit   string `json:"git_commit"`
	// Spinners is how many idle-priority spinner processes kept the CPUs
	// from idling during the run (startSpinners); 0 when they could not
	// be started.
	Spinners int `json:"spinners"`
}

func newContext(dataRoot string) contextBlock {
	// Only a checkout that is itself a repository is asked: git would
	// otherwise go looking through the directories above it.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return contextBlock{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		FsyncDevice: deviceID(dataRoot), GitCommit: commit,
	}
}

// reportMetric is one reported number. Lo and Hi are the in-run spread
// where the metric has one (window percentiles, repeated set-ups and
// reopens); Samples the count it rests on. Value is nil for a per-layer
// metric whose layer the workload does not pass through. Incidental
// marks an end-to-end metric that is not one of the workload's own
// (workload.measures).
type reportMetric struct {
	Value      *float64 `json:"value"`
	Unit       string   `json:"unit"`
	Lo         *float64 `json:"lo,omitempty"`
	Hi         *float64 `json:"hi,omitempty"`
	Windows    int      `json:"windows,omitempty"`
	Samples    int      `json:"samples,omitempty"`
	Incidental bool     `json:"incidental,omitempty"`
}

func scalar(v float64, unit string) reportMetric { return reportMetric{Value: &v, Unit: unit} }

func windowed(ws windowStat, unit string) reportMetric {
	return reportMetric{Value: &ws.Value, Unit: unit, Lo: &ws.Lo, Hi: &ws.Hi, Windows: ws.Windows, Samples: ws.Samples}
}

// repeated reports the median of repeated measurements with their range.
func repeated(vals []float64, unit string) reportMetric {
	if len(vals) == 0 {
		return scalar(0, unit)
	}
	med, lo, hi := median(vals), slices.Min(vals), slices.Max(vals)
	return reportMetric{Value: &med, Unit: unit, Lo: &lo, Hi: &hi, Samples: len(vals)}
}

// phaseReport describes one stretch of a run.
type phaseReport struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
}

// runReport is everything one run measured.
type runReport struct {
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Correct   bool                    `json:"correct"`
	Invalid   string                  `json:"invalid,omitempty"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Errors    []string                `json:"errors,omitempty"`
	Phases    []phaseReport           `json:"phases"`
	Metrics   map[string]reportMetric `json:"metrics"`
	SpansFile string                  `json:"spans_file,omitempty"`
	Context   contextBlock            `json:"context"`
}

// runRequest is one run to make.
type runRequest struct {
	w        *workload
	trace    bool
	seed     uint64
	seconds  time.Duration
	dataRoot string
	spansDir string
}

func (req runRequest) run() (*runReport, error) {
	in, err := generateInputs(req.seed, req.w.surveys, uploadPool)
	if err != nil {
		return nil, err
	}
	if req.trace {
		return req.runTraced(in)
	}
	m, err := req.w.runPass(in, passOptions{
		seed: req.seed, seconds: req.seconds, dataRoot: req.dataRoot,
		cycles: cycleRepeats, restart: true, coda: true,
	})
	if err != nil {
		return nil, err
	}
	m.checkGenerator()
	rep := req.newReport(m)
	rep.Metrics = endToEndOf(m)
	return rep, nil
}

// runTraced splits the run's seconds between an untraced reference pass
// and a traced pass over the same inputs, reports the traced pass's
// per-layer metrics, and takes the tracing overhead as the change in
// CPU per operation between the two: the one cost figure that does not
// move with whatever else the box is doing.
func (req runRequest) runTraced(in *inputs) (*runReport, error) {
	t := newTracer()
	ref, tr, lv, err := req.tracedPasses(in, t)
	if err != nil {
		return nil, err
	}
	if err := runProbes(filepath.Join(req.dataRoot, "probes"), lv); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	ref.checkGenerator()
	tr.checkGenerator()
	rep := req.newReport(tr)
	// The reference pass's operations and failures count too.
	refRep := req.newReport(ref)
	rep.Attempted += refRep.Attempted
	rep.Failed += refRep.Failed
	rep.Correct = rep.Correct && refRep.Correct
	rep.Errors = append(rep.Errors, refRep.Errors...)
	if rep.Invalid == "" {
		rep.Invalid = refRep.Invalid
	}
	rep.Metrics = make(map[string]reportMetric)
	for _, lm := range perLayerMetrics() {
		rep.Metrics[lm.name] = reportMetric{Value: lv[lm.name], Unit: lm.unit}
	}
	if err := os.MkdirAll(req.spansDir, 0o755); err != nil {
		return nil, err
	}
	rep.SpansFile = filepath.Join(req.spansDir, req.w.name+".spans.jsonl")
	if err := t.writeSpans(rep.SpansFile); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

// tracedPasses runs the untraced reference pass and the traced pass,
// each for half the run's seconds, and computes the traced pass's
// per-layer metrics with the tracing overhead.
func (req runRequest) tracedPasses(in *inputs, t *tracer) (ref, tr *measured, lv layerValues, err error) {
	o := passOptions{seed: req.seed, seconds: req.seconds / 2, dataRoot: req.dataRoot, cycles: once()}
	if ref, err = req.w.runPass(in, o); err != nil {
		return nil, nil, nil, fmt.Errorf("reference pass: %w", err)
	}
	o.tracer = t
	if tr, err = req.w.runPass(in, o); err != nil {
		return nil, nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	lv = layerMetricsOf(tr)
	if base, _, _, _ := ref.cpuPerOp(); base > 0 {
		traced, _, _, _ := tr.cpuPerOp()
		lv.set("bench.trace_overhead_frac", (traced-base)/base)
	}
	return ref, tr, lv, nil
}

// newReport fills the parts of a report every kind of run has.
func (req runRequest) newReport(m *measured) *runReport {
	d := m.d
	rep := &runReport{
		Workload: req.w.name, Seed: req.seed, Seconds: d.seconds.Seconds(), Trace: req.trace,
		Errors: d.errors, Invalid: m.invalid,
	}
	add := func(name string, s *stream) {
		if s.attempted.Load() == 0 {
			return
		}
		rep.Phases = append(rep.Phases, phaseReport{
			Name: name, Seconds: s.dur.Seconds(),
			Attempted: s.attempted.Load(), Failed: s.failed.Load(),
		})
		rep.Attempted += s.attempted.Load()
		rep.Failed += s.failed.Load()
	}
	add("single_submits", d.singles)
	add("bulk_submits", d.bulk)
	add("reads", d.reads)
	rep.Correct = len(d.errors) == 0 && rep.Failed == 0 && rep.Attempted > 0
	return rep
}

func fracOf(s ...*stream) float64 {
	var attempted, failed int64
	for _, st := range s {
		attempted += st.attempted.Load()
		failed += st.failed.Load()
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// endToEndOf computes the end-to-end metrics of an untraced pass, and
// the generators' lateness beside them.
func endToEndOf(m *measured) map[string]reportMetric {
	d := m.d
	out := make(map[string]reportMetric)
	out["setup_s"] = repeated(m.setupS, "s")
	singles := d.singles.rec.samples()
	out["submit_ack_p50_ms"] = windowed(cutWindows(singles, d.singles.dur, medianWindows).percentile(0.50), "ms")
	out["submit_ack_p99_ms"] = windowed(cutWindows(singles, d.singles.dur, tailWindows).percentile(0.99), "ms")
	// Goodput is what the closed-loop bulk phase sustains where there is
	// one, else the rate at which single submits were acknowledged.
	goodput := windowedRate(singles, d.singles.dur)
	if d.bulk.attempted.Load() > 0 {
		goodput = windowedRate(d.bulk.rec.samples(), d.bulk.dur)
	}
	out["submit_goodput_rps"] = windowed(goodput, "1/s")
	reads := d.reads.rec.samples()
	out["read_p50_ms"] = windowed(cutWindows(reads, d.reads.dur, medianWindows).percentile(0.50), "ms")
	out["read_p99_ms"] = windowed(cutWindows(reads, d.reads.dur, tailWindows).percentile(0.99), "ms")
	out["read_qps"] = windowed(windowedRate(reads, d.reads.dur), "1/s")
	out["restart_first_read_ms"] = repeated(m.restartMS, "ms")
	out["disk_bytes_per_response"] = repeated(m.diskPerResponse[len(m.diskPerResponse)/2:], "bytes")
	cpu, cpuLo, cpuHi, cpuWindows := m.cpuPerOp()
	out["cpu_us_per_op"] = reportMetric{Value: &cpu, Unit: "us", Lo: &cpuLo, Hi: &cpuHi, Windows: cpuWindows}
	out["submit_fail_frac"] = scalar(fracOf(d.singles, d.bulk), "ratio")
	out["read_fail_frac"] = scalar(fracOf(d.reads), "ratio")
	for name, rm := range out {
		rm.Incidental = !m.w.measuresMetric(name)
		out[name] = rm
	}
	out["gen_lag_p99_ms"] = scalar(float64(quantileOf(d.genLag, 0.99))/1e6, "ms")
	return out
}

// finalMetric is a metric on the run's last output line.
type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalResult is the run's last output line.
type finalResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

// finalLine is the contract's result: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one. The line
// carries numbers only, so a per-layer metric of a layer the workload
// does not pass through reads 0 here; the report file has it as null.
// A value that is not finite would not be JSON; it marks the run
// incorrect instead.
func (rep *runReport) finalLine() finalResult {
	res := finalResult{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]finalMetric)}
	put := func(name, unit string) {
		m := rep.Metrics[name]
		v := 0.0
		if m.Value != nil {
			v = *m.Value
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		res.Metrics[name] = finalMetric{Value: v, Unit: unit}
	}
	if rep.Trace {
		for _, lm := range perLayerMetrics() {
			put(lm.name, lm.unit)
		}
		return res
	}
	for _, em := range endToEndMetrics {
		put(em.Name, em.Unit)
		if rep.Metrics[em.Name].Value == nil || *rep.Metrics[em.Name].Value <= 0 {
			// An end-to-end metric is never 0 on these workloads; a 0
			// means a phase produced nothing to measure.
			res.Correct = false
		}
	}
	return res
}

// print writes a human-readable summary.
func (rep *runReport) print(w io.Writer) {
	mode := "untraced"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d, %.0f s %s: correct=%v attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, mode, rep.Correct, rep.Attempted, rep.Failed)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	if rep.Invalid != "" {
		fmt.Fprintf(w, "  INVALID: %s\n", rep.Invalid)
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  phase %-15s %6.2f s  attempted %d  failed %d\n", p.Name, p.Seconds, p.Attempted, p.Failed)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		if m.Value == nil {
			fmt.Fprintf(w, "  %-42s %14s %s\n", name, "null", m.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-42s %14.4f %-6s", name, *m.Value, m.Unit)
		if m.Lo != nil && m.Hi != nil {
			fmt.Fprintf(w, " [%.4f .. %.4f]", *m.Lo, *m.Hi)
		}
		if m.Windows > 0 {
			fmt.Fprintf(w, " windows=%d", m.Windows)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if m.Incidental {
			fmt.Fprint(w, " (incidental)")
		}
		fmt.Fprintln(w)
	}
}

// reportFile is what -report accumulates and -compare reads.
type reportFile struct {
	Runs []*runReport `json:"runs"`
}

func readReportFile(path string) (*reportFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendReport adds rep to the report file at path, creating it.
func appendReport(path string, rep *runReport) error {
	rf, err := readReportFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		rf = &reportFile{}
	}
	rf.Runs = append(rf.Runs, rep)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
