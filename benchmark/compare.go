package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// verdict is what -compare says about one (metric, workload) row.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWorse      verdict = "worse"
	verdictUnchanged  verdict = "unchanged"
	verdictUnresolved verdict = "unresolved"
)

// side summarizes one report file's values of one metric on one
// workload: their median and their spread as a share of it. With four
// or more runs the spread is the distance between the quartiles, the
// way the acceptance check takes it; with fewer it is the widest in-run
// range (window to window, reopen to reopen) any of the runs reported,
// and 0 for a metric that has none.
type side struct {
	n      int
	median float64
	spread float64
}

func summarize(vals, inRun []float64) side {
	s := side{n: len(vals), median: median(vals)}
	if s.median == 0 {
		return s
	}
	if len(vals) >= 4 {
		q1, q3 := quartiles(vals)
		s.spread = (q3 - q1) / s.median
		return s
	}
	for _, r := range inRun {
		s.spread = max(s.spread, r/s.median)
	}
	return s
}

// judge compares b against a for one metric. worse is how much worse
// b's median is than a's as a share of a's (negative when better). A
// row whose spread on either side is wider than the bound cannot
// resolve a change the size of the bound, so it is unresolved rather
// than unchanged — unless it is worse by more than bound and spread
// together. Better means better by more than a's own spread.
func judge(a, b side, higherBetter bool, bound float64) (verdict, float64) {
	if a.median == 0 {
		return verdictUnresolved, 0
	}
	worse := (b.median - a.median) / a.median
	if higherBetter {
		worse = -worse
	}
	spread := max(a.spread, b.spread)
	switch {
	case worse > bound+spread:
		return verdictWorse, worse
	case spread > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictWorse, worse
	case -worse > a.spread && -worse > 0.01:
		return verdictBetter, worse
	}
	return verdictUnchanged, worse
}

// comparable lists a file's untraced, valid runs of one workload: a run
// whose generators ran late did not measure the stated load.
func comparable(rf *reportFile, workload string) (runs []*runReport, invalid int) {
	for _, r := range rf.Runs {
		switch {
		case r.Trace || r.Workload != workload:
		case r.Invalid != "":
			invalid++
		default:
			runs = append(runs, r)
		}
	}
	return runs, invalid
}

// collect gathers the values and in-run ranges of one metric from runs.
// incidental is set when any run marks the metric as not the workload's
// own.
func collect(runs []*runReport, metric string) (vals, inRun []float64, incidental bool) {
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok || m.Value == nil {
			continue
		}
		incidental = incidental || m.Incidental
		vals = append(vals, *m.Value)
		if m.Lo != nil && m.Hi != nil {
			inRun = append(inRun, *m.Hi-*m.Lo)
		}
	}
	return vals, inRun, incidental
}

// incorrectRuns counts a file's runs of one workload, traced or not,
// that failed a correctness check.
func incorrectRuns(rf *reportFile, workload string) int {
	n := 0
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Correct {
			n++
		}
	}
	return n
}

// runCompare prints one row per (workload, end-to-end metric) that both
// files measured and that is one of the workload's own, and returns the
// exit code: 1 when any row is worse, when a failure fraction rose, or
// when b holds an incorrect run. The bounds are the compiled-in tables
// BENCHMARK.json is generated from.
func runCompare(pathA, pathB string, w io.Writer) int {
	a, err := readReportFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readReportFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad, incidental := 0, 0
	tally := map[verdict]int{}
	fmt.Fprintf(w, "%-18s %-24s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, invalidA := comparable(a, wl.name)
		rb, invalidB := comparable(b, wl.name)
		for _, em := range slices.Concat(endToEndMetrics, reportedMetrics) {
			av, ar, incA := collect(ra, em.Name)
			bv, br, incB := collect(rb, em.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			if incA || incB {
				incidental++
				continue
			}
			var v verdict
			var worse, spread float64
			sa, sb := summarize(av, ar), summarize(bv, br)
			if em.Bound == 0 {
				// A failure fraction: exactly 0 is the requirement, so the
				// worst run of each side is compared and any rise is worse.
				sa.median, sb.median = slices.Max(av), slices.Max(bv)
				v, worse = verdictUnchanged, sb.median-sa.median
				if worse > 0 {
					v = verdictWorse
				}
			} else {
				v, worse = judge(sa, sb, em.Better == "higher", em.Bound)
				spread = max(sa.spread, sb.spread)
			}
			tally[v]++
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-24s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.name, em.Name, sa.median, sb.median, worse*100, spread*100, em.Bound*100, v, sa.n, sb.n)
		}
		if invalidA+invalidB > 0 {
			fmt.Fprintf(w, "%-18s left out as invalid (late generator): %d runs of a, %d of b\n", wl.name, invalidA, invalidB)
		}
		if n := incorrectRuns(b, wl.name); n > 0 {
			fmt.Fprintf(w, "%-18s incorrect runs in b: %d  FAILED\n", wl.name, n)
			bad++
		}
	}
	var parts []string
	for v, n := range tally {
		parts = append(parts, fmt.Sprintf("%d %s", n, v))
	}
	sort.Strings(parts)
	fmt.Fprintf(w, "%s; %d incidental rows not compared\n", strings.Join(parts, ", "), incidental)
	if bad > 0 {
		return 1
	}
	return 0
}
