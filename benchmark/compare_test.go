package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	cases := []struct {
		name         string
		a, b         side
		higherBetter bool
		bound        float64
		want         verdict
	}{
		{"within bound", side{median: 100, spread: 0.02}, side{median: 105, spread: 0.02}, false, 0.10, verdictUnchanged},
		{"worse beyond bound", side{median: 100, spread: 0.02}, side{median: 115, spread: 0.02}, false, 0.10, verdictWorse},
		{"lower throughput is worse", side{median: 1000, spread: 0.01}, side{median: 850, spread: 0.01}, true, 0.10, verdictWorse},
		{"higher throughput is better", side{median: 1000, spread: 0.01}, side{median: 1100, spread: 0.01}, true, 0.10, verdictBetter},
		{"better than own spread", side{median: 100, spread: 0.03}, side{median: 90, spread: 0.03}, false, 0.10, verdictBetter},
		{"improvement inside the spread", side{median: 100, spread: 0.06}, side{median: 96, spread: 0.02}, false, 0.10, verdictUnchanged},
		// A spread wider than the bound cannot show a bound-sized change:
		// unresolved, never unchanged.
		{"spread wider than bound", side{median: 100, spread: 0.30}, side{median: 104, spread: 0.05}, false, 0.10, verdictUnresolved},
		{"wide spread on b", side{median: 100, spread: 0.01}, side{median: 108, spread: 0.25}, false, 0.10, verdictUnresolved},
		// ... unless the change clears bound and spread together.
		{"worse beyond bound and spread", side{median: 100, spread: 0.30}, side{median: 150, spread: 0.05}, false, 0.10, verdictWorse},
		{"no baseline", side{}, side{median: 5}, false, 0.10, verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSummarizeSpread(t *testing.T) {
	// Ten runs: spread is IQR over median, the acceptance check's figure.
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, nil)
	if s.median != 5.5 || s.spread != (8.25-2.75)/5.5 {
		t.Errorf("ten runs: %+v", s)
	}
	// One run: the in-run range stands in.
	s = summarize([]float64{10}, []float64{3})
	if s.median != 10 || s.spread != 0.3 {
		t.Errorf("one run: %+v", s)
	}
	if s := summarize([]float64{10}, nil); s.spread != 0 {
		t.Errorf("one run without a range: %+v", s)
	}
}

// testRun is one untraced cluster_read_hot run reporting read_qps.
func testRun(qps float64) *runReport {
	zero := 0.0
	return &runReport{
		Workload: "cluster_read_hot", Correct: true, Attempted: 1000,
		Metrics: map[string]reportMetric{
			"read_qps":       {Value: &qps, Unit: "1/s"},
			"read_fail_frac": {Value: &zero, Unit: "ratio"},
		},
	}
}

func testRuns(qps ...float64) []*runReport {
	runs := make([]*runReport, len(qps))
	for i, v := range qps {
		runs[i] = testRun(v)
	}
	return runs
}

func writeReport(t *testing.T, name string, runs []*runReport) string {
	t.Helper()
	b, err := json.Marshal(reportFile{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExitCodes(t *testing.T) {
	steady := []float64{1000, 1010, 990, 1005, 995}

	// A metric that is not the workload's own is left out, however it moved.
	baseRuns, withIncidental := testRuns(steady...), testRuns(steady...)
	for i := range baseRuns {
		was, is := 200.0, 1.0
		baseRuns[i].Metrics["submit_goodput_rps"] = reportMetric{Value: &was, Unit: "1/s", Incidental: true}
		withIncidental[i].Metrics["submit_goodput_rps"] = reportMetric{Value: &is, Unit: "1/s", Incidental: true}
	}
	base := writeReport(t, "a.json", baseRuns)
	// A run whose generator ran late is left out, whatever it measured.
	withInvalid := append(testRuns(steady...), testRun(10))
	withInvalid[len(withInvalid)-1].Invalid = "late generator"
	failing := testRuns(steady...)
	frac := 0.003
	failing[0].Metrics["read_fail_frac"] = reportMetric{Value: &frac, Unit: "ratio"}
	incorrect := testRuns(steady...)
	incorrect[2].Correct = false

	for _, c := range []struct {
		name string
		b    []*runReport
		want int
		has  string
	}{
		{"A/A", testRuns(steady...), 0, "2 unchanged; 0 incidental"},
		{"30% slower", testRuns(700, 710, 690, 705, 695), 1, string(verdictWorse)},
		{"incidental row", withIncidental, 0, "1 incidental rows not compared"},
		{"invalid run", withInvalid, 0, "left out as invalid (late generator): 0 runs of a, 1 of b"},
		{"failure fraction rose", failing, 1, string(verdictWorse)},
		{"incorrect run", incorrect, 1, "incorrect runs in b: 1"},
	} {
		var out bytes.Buffer
		if code := runCompare(base, writeReport(t, "b.json", c.b), &out); code != c.want {
			t.Errorf("%s: exit code %d, want %d:\n%s", c.name, code, c.want, out.String())
		}
		if !strings.Contains(out.String(), c.has) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.has, out.String())
		}
	}
}

// Each workload is its own row: one slowing down does not mark another.
func TestCompareJudgesEachWorkloadAlone(t *testing.T) {
	steady := []float64{1000, 1010, 990, 1005, 995}
	cold := func(qps ...float64) []*runReport {
		runs := testRuns(qps...)
		for _, r := range runs {
			r.Workload = "standalone_mixed"
		}
		return runs
	}
	a := writeReport(t, "a.json", append(testRuns(steady...), cold(steady...)...))
	b := writeReport(t, "b.json", append(testRuns(steady...), cold(700, 710, 690, 705, 695)...))
	var out bytes.Buffer
	if code := runCompare(a, b, &out); code != 1 {
		t.Errorf("exit code %d, want 1:\n%s", code, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		worse := strings.Contains(line, string(verdictWorse))
		if strings.HasPrefix(line, "cluster_read_hot") && worse {
			t.Errorf("unchanged workload reported worse: %s", line)
		}
		if strings.HasPrefix(line, "standalone_mixed") && strings.Contains(line, "read_qps") && !worse {
			t.Errorf("slower workload not reported worse: %s", line)
		}
	}
}
