package main

import (
	"math"
	"slices"
	"sync"
	"time"

	"loki/internal/stats"
)

// sample is one completed operation: when it was due (open loop) or
// issued (closed loop), as an offset from the phase start, and how long
// the caller waited for it.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// recorder collects samples from concurrent callers. It is sharded so
// the generator's own bookkeeping does not serialize the callers it is
// timing; key picks the shard (a worker index or an arrival number).
type recorder struct {
	shards [16]recorderShard
}

type recorderShard struct {
	mu sync.Mutex
	s  []sample
	_  [40]byte // keep neighbouring shards off one cache line
}

func (r *recorder) observe(key int, at, lat time.Duration) {
	sh := &r.shards[key&15]
	sh.mu.Lock()
	sh.s = append(sh.s, sample{at: at, lat: lat})
	sh.mu.Unlock()
}

// samples returns everything recorded so far, in no particular order.
func (r *recorder) samples() []sample {
	var out []sample
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.s...)
		sh.mu.Unlock()
	}
	return out
}

// windowStat is a windowed statistic: the phase is cut into equal
// windows, the statistic is taken inside each, and Value is the median
// over windows. Lo and Hi are the smallest and largest window values —
// the spread inside one run. One stalled window (a neighbour's burst on
// a shared box) then moves Hi, not Value.
type windowStat struct {
	Value   float64 `json:"value"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Windows int     `json:"windows"`
	Samples int     `json:"samples"`
}

// windowing says how a phase is cut: into windows of about length, fewer
// and longer where that would leave a window with under minSamples.
type windowing struct {
	length     time.Duration
	minSamples int
}

var (
	// medianWindows serve the medians and the rates. The box is a shared
	// VM whose vCPUs run at half speed for a few hundred milliseconds at a
	// time, several times a minute, and for whole minutes some hours: a
	// statistic taken per quarter second and then across eighty of them
	// sees such a stretch as a few slow windows among many, where one
	// taken over the whole phase, or over four windows of five seconds,
	// carries it in its value.
	medianWindows = windowing{length: 250 * time.Millisecond, minSamples: 20}
	// tailWindows serve the 99th percentiles, which need a thousand
	// samples to have ten beyond them.
	tailWindows = windowing{length: 5 * time.Second, minSamples: 1000}
)

// count picks how many windows a phase of the given length and sample
// count is cut into.
func (wg windowing) count(phase time.Duration, n int) int {
	w := int(math.Round(float64(phase) / float64(wg.length)))
	return max(1, min(w, n/wg.minSamples))
}

// windows are a stream's latencies cut into time windows by due time,
// each window ascending. Cutting and sorting once serves every statistic
// taken of the stream.
type windows struct {
	lat     [][]time.Duration // non-empty windows only
	samples int
}

// cutWindows cuts samples of a phase of the given length into windows.
func cutWindows(samples []sample, phase time.Duration, wg windowing) windows {
	if len(samples) == 0 || phase <= 0 {
		return windows{}
	}
	w := wg.count(phase, len(samples))
	buckets := make([][]time.Duration, w)
	for _, s := range samples {
		i := int(int64(s.at) * int64(w) / int64(phase))
		i = min(max(i, 0), w-1)
		buckets[i] = append(buckets[i], s.lat)
	}
	ws := windows{samples: len(samples)}
	for _, b := range buckets {
		if len(b) > 0 {
			slices.Sort(b)
			ws.lat = append(ws.lat, b)
		}
	}
	return ws
}

// stat applies f to every window and summarizes the window values:
// their median, smallest and largest. No windows give the zero stat.
func (ws windows) stat(f func(sorted []time.Duration) float64) windowStat {
	if len(ws.lat) == 0 {
		return windowStat{}
	}
	vals := make([]float64, len(ws.lat))
	for i, b := range ws.lat {
		vals[i] = f(b)
	}
	return windowStat{
		Value: median(vals), Lo: slices.Min(vals), Hi: slices.Max(vals),
		Windows: len(vals), Samples: ws.samples,
	}
}

// percentile is the q-quantile (0 < q < 1) inside each window, in
// milliseconds.
func (ws windows) percentile(q float64) windowStat {
	return ws.stat(func(sorted []time.Duration) float64 {
		return float64(quantileSorted(sorted, q)) / 1e6
	})
}

// windowedRate is the completion rate of the samples, per second, as
// the median over windows of each window's count: a window the box
// spent elsewhere lowers Lo, not Value. The samples' completion times
// (at + lat) decide their window; completions after the phase's end,
// from requests still in flight at the deadline, are dropped with it.
func windowedRate(samples []sample, phase time.Duration) windowStat {
	if len(samples) == 0 || phase <= 0 {
		return windowStat{}
	}
	w := max(1, int(math.Round(float64(phase)/float64(medianWindows.length))))
	counts := make([]float64, w)
	n := 0
	for _, s := range samples {
		done := s.at + s.lat
		if done < 0 || done >= phase {
			continue
		}
		counts[int(int64(done)*int64(w)/int64(phase))]++
		n++
	}
	perSecond := float64(w) / phase.Seconds()
	for i := range counts {
		counts[i] *= perSecond
	}
	return windowStat{Value: median(counts), Lo: slices.Min(counts), Hi: slices.Max(counts), Windows: w, Samples: n}
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(s []time.Duration, q float64) time.Duration {
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// quantileOf is the nearest-rank quantile of d, 0 for an empty input.
func quantileOf(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return quantileSorted(s, q)
}

// median is the sample median, 0 for an empty input.
func median(v []float64) float64 {
	m, _ := stats.Median(v) // the only error is the empty input
	return m
}

// quartiles returns the first and third quartile of v by the exclusive
// method Python's statistics.quantiles(v, n=4) uses, so a spread
// computed here is the spread the acceptance check computes. It needs
// at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(k int) float64 {
		j, delta := k*(n+1)/4, float64(k*(n+1)%4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
