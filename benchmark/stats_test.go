package main

import (
	"math"
	"testing"
	"time"
)

func TestWindowedPercentileIsMedianOverWindows(t *testing.T) {
	// Five 5 s windows of 1000 samples each; window 3 stalls.
	phase := 25 * time.Second
	var samples []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			lat := time.Duration(i+1) * time.Microsecond // 1..1000 µs
			if w == 3 {
				lat *= 50
			}
			at := time.Duration(w)*5*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{at: at, lat: lat})
		}
	}
	p50 := cutWindows(samples, phase, tailWindows).percentile(0.50)
	if p50.Windows != 5 || p50.Samples != 5000 {
		t.Fatalf("windows=%d samples=%d, want 5 and 5000", p50.Windows, p50.Samples)
	}
	// The stalled window moves Hi, not Value.
	if got, want := p50.Value, 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v ms, want %v", got, want)
	}
	if got, want := p50.Hi, 25.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 hi = %v ms, want %v", got, want)
	}
	p99 := cutWindows(samples, phase, tailWindows).percentile(0.99)
	if got, want := p99.Value, 0.99; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v ms, want %v", got, want)
	}
	if p99.Lo != 0.99 {
		t.Errorf("p99 lo = %v ms, want 0.99", p99.Lo)
	}
}

func TestWindowCountKeepsEnoughSamplesPerWindow(t *testing.T) {
	cases := []struct {
		phase time.Duration
		n     int
		want  int
	}{
		{25 * time.Second, 100000, 5},
		{25 * time.Second, 3500, 3}, // a slow stream gets fewer, longer windows
		{25 * time.Second, 300, 1},
		{15 * time.Second, 18000, 3},
		{time.Second, 10, 1},
	}
	for _, c := range cases {
		if got := tailWindows.count(c.phase, c.n); got != c.want {
			t.Errorf("tailWindows.count(%v, %d) = %d, want %d", c.phase, c.n, got, c.want)
		}
	}
}

func TestWindowedPercentileEmpty(t *testing.T) {
	if got := cutWindows(nil, time.Second, medianWindows).percentile(0.5); got != (windowStat{}) {
		t.Errorf("empty input gave %+v", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestQuantileSortedNearestRank(t *testing.T) {
	s := make([]time.Duration, 100)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.99: 99, 1.0: 100, 0.001: 1} {
		if got := quantileSorted(s, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

// TestCPUPerOpIsMedianOverWindowsMeanOverPhases: one stalled window in a
// phase does not move the phase's value, a coda after the timed phases
// is left out, and every phase weighs the same however many operations
// it completed.
func TestCPUPerOpIsMedianOverWindowsMeanOverPhases(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m := &measured{d: &driver{
		phases: []phaseSpan{
			{"open", at(0), at(1000)},
			{"bulk", at(1000), at(2000)},
			{"coda", at(2000), at(3000)},
		},
		timedEnd: at(2000),
	}}
	// Cumulative CPU and operations every 250 ms. Open phase: 100 ops per
	// window at 1000 us each, one window stalled to 5000 us. Bulk phase:
	// 1000 ops per window at 100 us each. Coda: 10 us each.
	var cpu time.Duration
	var ops int64
	add := func(ms int, usPerOp float64, n int64) {
		cpu += time.Duration(usPerOp * float64(n) * 1e3)
		ops += n
		m.usage = append(m.usage, usageSample{at(ms), cpu, ops})
	}
	add(0, 0, 0)
	for i, us := range []float64{1000, 5000, 1000, 1000} {
		add(250*(i+1), us, 100)
	}
	for i := 0; i < 4; i++ {
		add(1250+250*i, 100, 1000)
	}
	for i := 0; i < 4; i++ {
		add(2250+250*i, 10, 50000)
	}
	got, lo, hi, windows := m.cpuPerOp()
	if want := (1000.0 + 100.0) / 2; math.Abs(got-want) > 1e-6 {
		t.Errorf("cpuPerOp = %v, want %v (mean of the phases' medians)", got, want)
	}
	if lo != 100 || hi != 5000 || windows != 8 {
		t.Errorf("lo %v hi %v windows %d, want 100, 5000, 8", lo, hi, windows)
	}
}
