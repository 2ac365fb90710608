package main

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loki/internal/rng"
)

func TestPoissonScheduleIsSeededAndAtRate(t *testing.T) {
	const rate, dur = 2000.0, 5 * time.Second
	a := poissonSchedule(rng.New(7), rate, dur)
	b := poissonSchedule(rng.New(7), rate, dur)
	c := poissonSchedule(rng.New(8), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("another seed gave the same schedule")
	}
	want := rate * dur.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals, want about %v", got, want)
	}
	var prev time.Duration
	for i, d := range a {
		if d < prev || d >= dur {
			t.Fatalf("arrival %d due at %v (previous %v, phase %v)", i, d, prev, dur)
		}
		prev = d
	}
}

func TestOpenLoopNeverFiresEarlyAndDoesNotWaitForSlowArrivals(t *testing.T) {
	due := make([]time.Duration, 50)
	for i := range due {
		due[i] = time.Duration(i+1) * time.Millisecond
	}
	start := time.Now()
	release := make(chan struct{})
	var early atomic.Int32
	var mu sync.Mutex
	fired := map[int]bool{}
	var others sync.WaitGroup
	others.Add(len(due) - 1)
	done := make(chan []time.Duration)
	go func() {
		done <- runOpenLoop(start, due, func(i int, dueAt time.Time) {
			if time.Now().Before(dueAt) || !dueAt.Equal(start.Add(due[i])) {
				early.Add(1)
			}
			mu.Lock()
			fired[i] = true
			mu.Unlock()
			if i == 0 {
				<-release // a stalled request must not hold back the arrivals behind it
				return
			}
			others.Done()
		})
	}()
	others.Wait() // every later arrival fired while arrival 0 was still stuck
	close(release)
	lag := <-done
	if early.Load() != 0 {
		t.Errorf("%d arrivals fired before they were due", early.Load())
	}
	if len(fired) != len(due) || len(lag) != len(due) {
		t.Errorf("fired %d, lag entries %d, want %d", len(fired), len(lag), len(due))
	}
	for i, l := range lag {
		if l < 0 {
			t.Errorf("arrival %d has negative lag %v", i, l)
		}
	}
}

func TestClosedLoopIssuesOneAtATimePerCaller(t *testing.T) {
	const callers = 4
	var inFlight [callers]atomic.Int32
	var total atomic.Int64
	runClosedLoop(callers, time.Now().Add(50*time.Millisecond), func(w, iter int) {
		if inFlight[w].Add(1) != 1 {
			t.Errorf("caller %d has two operations in flight", w)
		}
		time.Sleep(time.Millisecond)
		total.Add(1)
		inFlight[w].Add(-1)
	})
	if total.Load() < callers {
		t.Errorf("only %d operations ran", total.Load())
	}
}

// TestOpenLoopKeepsItsBacklogOutOfTheSystem: when every arrival stalls,
// no more than openLoopCallers are inside the system at once; the rest
// wait in the generator and their lateness says so.
func TestOpenLoopKeepsItsBacklogOutOfTheSystem(t *testing.T) {
	due := make([]time.Duration, 3*openLoopCallers) // all due at once
	var inside, high atomic.Int32
	release := make(chan struct{})
	done := make(chan []time.Duration)
	go func() {
		done <- runOpenLoop(time.Now(), due, func(int, time.Time) {
			n := inside.Add(1)
			for {
				h := high.Load()
				if n <= h || high.CompareAndSwap(h, n) {
					break
				}
			}
			<-release
			inside.Add(-1)
		})
	}()
	for inside.Load() < openLoopCallers {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // anything beyond the bound would have got in by now
	close(release)
	lag := <-done
	if h := high.Load(); h != openLoopCallers {
		t.Errorf("%d arrivals were inside the system at once, want %d", h, openLoopCallers)
	}
	if last := lag[len(lag)-1]; last < 20*time.Millisecond {
		t.Errorf("the last arrival's lateness is %v; it waited at least 20 ms for a caller", last)
	}
}
