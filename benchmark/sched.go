package main

import (
	"sync"
	"time"

	"loki/internal/rng"
)

// poissonSchedule returns the due times, as offsets from the phase
// start, of a Poisson arrival process of the given rate over dur. The
// schedule depends only on the generator's state, so one seed gives one
// arrival sequence whatever the system under test does.
func poissonSchedule(r *rng.RNG, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	var t time.Duration
	for {
		t += time.Duration(r.Exponential(rate) * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, t)
	}
}

// openLoopCallers bounds how many arrivals of one open loop are in the
// system at once. It is below the frontend's SubmitInflight, so however
// long the box stalls, the backlog that follows waits here, in the
// generator, timed from its due times — never in the admission queue,
// where a long enough stall would have it shed and a shed request is a
// failed operation. At the workloads' rates and latencies a handful of
// callers are busy at a time; the bound only matters after a stall.
const openLoopCallers = 48

// runOpenLoop releases one arrival per due time, never early and
// regardless of how earlier arrivals are faring, to a fixed pool of
// callers: a slow system faces a growing number of concurrent requests,
// up to the pool's size, instead of a slower generator. fire(i, due)
// runs on a caller's goroutine. It returns, once every fire has
// returned, how late each arrival was released. Callers time an arrival
// from its due time, which charges a stalled system for the wait it
// imposed on the arrivals behind the stall.
func runOpenLoop(start time.Time, due []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	lag := make([]time.Duration, len(due))
	type arrival struct {
		i   int
		due time.Time
	}
	release := make(chan arrival)
	var wg sync.WaitGroup
	for c := 0; c < openLoopCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range release {
				fire(a.i, a.due)
			}
		}()
	}
	for i, d := range due {
		t := start.Add(d)
		for {
			wait := time.Until(t)
			if wait <= 0 {
				break
			}
			sleepFor(wait)
		}
		release <- arrival{i, t} // blocks only while every caller is busy
		lag[i] = time.Since(t)
	}
	close(release)
	wg.Wait()
	return lag
}

// runClosedLoop runs n callers that each issue their next operation
// only after the previous one completed, until the deadline: a slower
// system receives less load. op gets the caller index and the caller's
// own iteration count.
func runClosedLoop(n int, deadline time.Time, op func(worker, iter int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; time.Now().Before(deadline); iter++ {
				op(w, iter)
			}
		}()
	}
	wg.Wait()
}
