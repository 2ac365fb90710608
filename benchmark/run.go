package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/rng"
)

// repeats says how often a measurement that is taken several times in a
// run is taken: at least min times, then for as long as the repeats so
// far took less than budget, at most max times. A cheap measurement is
// thereby repeated often, where the box's jitter is a large share of it,
// and a dear one does not eat the run. The zero value skips it.
type repeats struct {
	min, max int
	budget   time.Duration
}

func once() repeats { return repeats{min: 1, max: 1} }

func (r repeats) more(done int, spent time.Duration) bool {
	return done < r.min || (done < r.max && spent < r.budget)
}

// cycleRepeats is how often an untraced run sets the topology up from
// nothing and restarts it before the timed phases; setup_s and
// restart_first_read_ms are the medians, which one slow fsync burst cannot
// move.
var cycleRepeats = repeats{min: 3, max: 7, budget: 3500 * time.Millisecond}

const (
	// verifySample bounds how many surveys a verification pass compares
	// against the reference fold; stored-response totals cover the rest.
	verifySample = 64
	// maxGenLagP99 is the open-loop generators' lateness budget: a run
	// whose generators released one arrival in a hundred later than this
	// did not offer the stated load, and is marked invalid. Generator and
	// system share one process and two cores, so the generator waits its
	// turn behind garbage collection and whatever holds the CPUs: a quiet
	// box measures 1-3 ms, not the tenths of a millisecond the kernel's
	// timer alone would give.
	maxGenLagP99 = 5 * time.Millisecond
)

// measured is one pass of a workload against one topology: the driver
// with its streams, the counters read at the timed boundaries, and what
// the checks found.
type measured struct {
	w      *workload
	d      *driver
	setupS []float64
	// before/after are the layer counters at the timed boundaries (only
	// collected on traced passes).
	before, after *counters
	// goroutinesMax is the monitor's high-water mark over the timed
	// phases.
	goroutinesMax int
	acked         int
	// diskPerResponse are the monitor's samples of bytes on disk per
	// acknowledged response; dirs the per-structure sizes at the end.
	diskPerResponse []float64
	dirs            dirSizes
	// usage are the monitor's samples of process CPU and completed
	// operations, a quarter second apart.
	usage     []usageSample
	restartMS []float64
	tracer    *tracer
	// invalid says why the run's numbers should not be compared, when
	// the harness rather than the program fell short; empty otherwise.
	invalid string
}

// passOptions say how one pass is run.
type passOptions struct {
	seed     uint64
	seconds  time.Duration
	dataRoot string
	// cycles is how often the topology is set up from nothing; restart
	// says whether each set-up is followed by a timed restart, and the
	// timed phases by the durability check.
	cycles  repeats
	restart bool
	coda    bool // run the workload's coda, where it has one
	tracer  *tracer
}

// build opens the workload's topology under dir.
func (w *workload) build(dir string, t *tracer) (*topology, error) {
	if w.standalone {
		return buildStandalone(dir, t)
	}
	return buildCluster(dir, t)
}

// newDriver makes the driver of a topology that holds what the inputs
// say was acknowledged: nothing when it was just built, the preload
// after a restart.
func newDriver(w *workload, tp *topology, in *inputs, seconds time.Duration, seed uint64) *driver {
	d := &driver{
		w: w, tp: tp, in: in, seconds: seconds, r: rng.New(seed ^ 0x9e3779b97f4a7c15),
		sent: make([]atomic.Int64, len(in.surveys)), acked: make([]atomic.Int64, len(in.surveys)),
		singles: &stream{}, bulk: &stream{}, reads: &stream{},
	}
	for si, uploads := range in.bySurvey {
		var n int64
		for _, u := range uploads {
			n += int64(u.acked.Load())
		}
		d.sent[si].Store(n)
		d.acked[si].Store(n)
		d.ackedAll.Add(n)
	}
	d.cursor.Store(d.ackedAll.Load())
	return d
}

// preload stores the first n uploads: through the batching pipelines on
// a cluster (the bulk-import path), as in-process singles on the
// standalone server. It leaves the driver's streams empty.
func (d *driver) preload(n int) error {
	var next atomic.Int64
	submit := d.submitBulk
	if d.subs == nil {
		submit = func(w int) { d.submitSingle(w, time.Now()) }
	}
	var wg sync.WaitGroup
	for w := 0; w < preloadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				submit(w)
			}
		}()
	}
	wg.Wait()
	if failed := d.singles.failed.Load() + d.bulk.failed.Load(); failed > 0 {
		return fmt.Errorf("preload: %d of %d uploads failed: %v", failed, n, d.errors)
	}
	d.singles, d.bulk = &stream{}, &stream{}
	return nil
}

// open builds (or reopens) the workload's topology under dir and makes
// its driver, with the batching pipelines on a cluster.
func (w *workload) open(dir string, in *inputs, o passOptions) (*driver, error) {
	tp, err := w.build(dir, o.tracer)
	if err != nil {
		return nil, err
	}
	d := newDriver(w, tp, in, o.seconds, o.seed)
	if !w.standalone {
		if d.subs, err = tp.newSubmitters(o.seed); err != nil {
			tp.close()
			return nil, err
		}
	}
	return d, nil
}

// setUp builds the topology from nothing under dir, publishes the
// surveys, preloads and reads every survey once (checking it against
// the reference): everything between process start and the first timed
// operation that is the system's work rather than the generator's.
func (w *workload) setUp(dir string, in *inputs, o passOptions) (*driver, float64, error) {
	t0 := time.Now()
	d, err := w.open(dir, in, o)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*driver, float64, error) {
		d.closeAll()
		return nil, 0, err
	}
	if err := d.tp.publish(in.surveys); err != nil {
		return fail(err)
	}
	if err := d.preload(w.preload); err != nil {
		return fail(err)
	}
	// One read of every survey fills the caches and builds the live
	// partials: lazy set-up that a run would otherwise pay inside its
	// first timed second.
	if err := verifyAggregates(d.tp.public, in, allSurveys(in)); err != nil {
		return fail(err)
	}
	return d, time.Since(t0).Seconds(), nil
}

// restart closes the freshly set-up topology, reopens its directory and
// times the reopening up to the first correct aggregate: a restart over
// a data set of one size, the preload, whatever the box's speed. It
// returns the reopened topology's driver, warm like the one it
// replaces.
func (w *workload) restart(d *driver, dir string, k int, o passOptions) (*driver, float64, error) {
	in := d.in
	if err := d.closeAll(); err != nil {
		return nil, 0, fmt.Errorf("close: %w", err)
	}
	si := k % len(in.surveys)
	want, err := referenceAggregate(in, si)
	if err != nil {
		return nil, 0, err
	}
	// The garbage of the set-up just finished is collected before the
	// clock starts rather than somewhere inside a 50 ms measurement.
	runtime.GC()
	t0 := time.Now()
	d, err = w.open(dir, in, o)
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	got, err := fetchAggregate(d.tp.public, in.surveys[si].ID)
	ms := float64(time.Since(t0)) / 1e6
	if err == nil {
		err = aggregatesEquivalent(got, want)
	}
	if err == nil {
		err = verifyAggregates(d.tp.public, in, allSurveys(in))
	}
	if err != nil {
		d.closeAll()
		return nil, 0, fmt.Errorf("first read after reopening: %w", err)
	}
	return d, ms, nil
}

// closeAll stops the driver's pipelines and takes its topology down.
func (d *driver) closeAll() error {
	for _, s := range d.subs {
		s.Close()
	}
	d.subs = nil
	return d.tp.close()
}

// runPass sets the workload up and restarts it (several times, keeping
// the last), drives the timed phases, checks the outputs and, on a pass
// with restarts, that a copy of the live directory taken without closing
// anything holds every acknowledged response. The topology is down and
// its directories removed when it returns.
func (w *workload) runPass(in *inputs, o passOptions) (*measured, error) {
	m := &measured{w: w, tracer: o.tracer}
	liveDir := filepath.Join(o.dataRoot, "live")
	defer os.RemoveAll(liveDir)
	var d *driver
	cyclesStart := time.Now()
	for k := 0; ; k++ {
		in.resetAcks()
		var secs float64
		var err error
		if d, secs, err = w.setUp(liveDir, in, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, secs)
		if o.restart {
			var ms float64
			if d, ms, err = w.restart(d, liveDir, k, o); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			m.restartMS = append(m.restartMS, ms)
		}
		if !o.cycles.more(k+1, time.Since(cyclesStart)) {
			break
		}
		err = d.closeAll()
		os.RemoveAll(liveDir)
		if err != nil {
			return nil, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	m.d = d
	defer d.closeAll()

	stopMonitor := m.monitor(d)
	if o.tracer != nil {
		m.before = snapshotCounters(d)
	}
	w.drive(d, o.coda)
	if o.tracer != nil {
		m.after = snapshotCounters(d)
	}
	stopMonitor()

	m.acked = in.ackedTotal()
	m.checkOutputs()
	m.dirs = measureDirs(d.tp)
	if o.restart {
		copyDir := filepath.Join(o.dataRoot, "copy")
		defer os.RemoveAll(copyDir)
		if err := m.checkDurability(copyDir); err != nil {
			d.fail("durability: %v", err)
		}
	}
	return m, nil
}

// usageSample is the process CPU used and the operations completed up
// to one moment.
type usageSample struct {
	at  time.Time
	cpu time.Duration
	ops int64
}

// monitor samples, until stopped, the goroutine count, the process CPU
// with the operations completed, and the bytes on disk per acknowledged
// response. The footprint of a compacting store is a sawtooth, so where
// its last tooth happens to stand when the run ends says little;
// disk_bytes_per_response is the median of the samples from the run's
// second half.
func (m *measured) monitor(d *driver) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			if n%5 == 0 {
				m.usage = append(m.usage, usageSample{time.Now(), processCPU(), d.completed()})
			}
			select {
			case <-done:
				return
			case <-tick.C:
				if g := runtime.NumGoroutine(); g > m.goroutinesMax {
					m.goroutinesMax = g
				}
				if n%5 == 0 {
					if acked := d.ackedAll.Load(); acked > 0 {
						m.diskPerResponse = append(m.diskPerResponse, float64(measureDirs(d.tp).total())/float64(acked))
					}
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// cpuPerOp is the process CPU used per completed operation, in
// microseconds, with the smallest and largest window beside it: inside
// each timed phase the median over the quarter-second windows that lie
// wholly in it, and over the phases their mean, so that a phase counts
// the same however many operations the box's speed let it complete. A
// total over the run divided by its operations would carry every stretch
// the host ran the vCPUs at half speed; the median over windows does not.
func (m *measured) cpuPerOp() (value, lo, hi float64, windows int) {
	var phaseMedians, all []float64
	for _, ph := range m.d.phases {
		if !ph.start.Before(m.d.timedEnd) {
			continue // a coda: not one of the workload's own phases
		}
		var vals []float64
		for i := 1; i < len(m.usage); i++ {
			a, b := m.usage[i-1], m.usage[i]
			if a.at.Before(ph.start) || b.at.After(ph.end) || b.ops == a.ops {
				continue
			}
			vals = append(vals, float64(b.cpu-a.cpu)/1e3/float64(b.ops-a.ops))
		}
		if len(vals) > 0 {
			phaseMedians = append(phaseMedians, median(vals))
			all = append(all, vals...)
		}
	}
	if len(all) == 0 {
		// A run too short for one whole window: the total it is.
		if n := len(m.usage); n > 1 && m.usage[n-1].ops > m.usage[0].ops {
			v := float64(m.usage[n-1].cpu-m.usage[0].cpu) / 1e3 / float64(m.usage[n-1].ops-m.usage[0].ops)
			return v, v, v, 1
		}
		return 0, 0, 0, 0
	}
	var sum float64
	for _, v := range phaseMedians {
		sum += v
	}
	return sum / float64(len(phaseMedians)), slices.Min(all), slices.Max(all), len(all)
}

// sampleSurveys picks which surveys a verification pass compares: all
// of them when they are few, else a fixed stride through them.
func sampleSurveys(in *inputs) []int {
	all := allSurveys(in)
	if len(all) <= verifySample {
		return all
	}
	out := make([]int, 0, verifySample)
	for i := 0; i < verifySample; i++ {
		out = append(out, all[i*len(all)/verifySample])
	}
	return out
}

// checkOutputs runs the correctness checks on the live topology after
// the timed phases; every failure goes to the driver's error list.
func (m *measured) checkOutputs() {
	d, tp := m.d, m.d.tp
	if got := tp.storedTotal(d.in.surveys); got != m.acked {
		d.fail("stores hold %d responses, %d were acknowledged", got, m.acked)
	}
	if err := verifyAggregates(tp.public, d.in, sampleSurveys(d.in)); err != nil {
		d.fail("%v", err)
	}
	if tp.remote != nil {
		if n := tp.remote.StaleReads(); n > 0 {
			d.fail("%d reads were served stale by a replica", n)
		}
		var charges, refunds uint64
		for _, set := range tp.budgets {
			stats, err := set.Stats()
			if err != nil {
				d.fail("budget stats: %v", err)
				continue
			}
			for _, s := range stats {
				charges += s.Charges
				refunds += s.Refunds
			}
		}
		if int(charges-refunds) != m.acked {
			d.fail("budget ledger holds %d charges net of %d refunds, %d responses were acknowledged", charges, refunds, m.acked)
		}
	}
	if info, err := adminStore(tp); err != nil {
		d.fail("admin store: %v", err)
	} else if info.Admission != nil && info.Admission.Shed > 0 {
		d.fail("admission shed %d requests", info.Admission.Shed)
	}
}

// checkGenerator marks the run invalid when the open-loop generators ran
// late: the latencies are timed from the due times either way, but a
// late generator means the offered load was not the stated load. An
// invalid run is not an incorrect one: this judges the harness and the
// box, not the program's outputs, and -compare leaves such runs out.
func (m *measured) checkGenerator() {
	if lag := quantileOf(m.d.genLag, 0.99); lag > maxGenLagP99 && !m.w.lagExempt {
		m.invalid = fmt.Sprintf("open-loop generator ran %.3f ms late at p99 (budget %.3f ms): the offered load was not the stated load",
			float64(lag)/1e6, float64(maxGenLagP99)/1e6)
	}
}

// checkDurability copies the live data directory while the topology is
// still open (what a crash leaves behind, short of the kernel's own
// cache), opens the copy and checks that every acknowledged response is
// there and folds to the right aggregates.
func (m *measured) checkDurability(copyDir string) error {
	d := m.d
	if err := copyTreeStable(d.tp.dataDir, copyDir); err != nil {
		return fmt.Errorf("copy live directory: %w", err)
	}
	if err := d.closeAll(); err != nil {
		return fmt.Errorf("close live topology: %w", err)
	}
	tp, err := m.w.build(copyDir, nil)
	if err != nil {
		return fmt.Errorf("open the unclean copy: %w", err)
	}
	if got := tp.storedTotal(d.in.surveys); got != m.acked {
		tp.close()
		return fmt.Errorf("unclean copy holds %d responses, %d were acknowledged", got, m.acked)
	}
	if err := verifyAggregates(tp.public, d.in, sampleSurveys(d.in)); err != nil {
		tp.close()
		return fmt.Errorf("unclean copy: %w", err)
	}
	return tp.close()
}

// treeListing is a directory's files with their sizes, for telling
// whether it changed.
func treeListing(root string) (map[string]int64, error) {
	out := make(map[string]int64)
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // removed while walking: the comparison below notices
			}
			return err
		}
		if de.IsDir() {
			return nil
		}
		fi, err := de.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out[rel] = fi.Size()
		return nil
	})
	return out, err
}

// copyTreeStable copies src to dst file by file. A copy is not atomic,
// so one taken while a compaction renames a snapshot into place and
// deletes the segments it covers could hold neither; the copy is
// retried until the source listing is the same before and after it.
func copyTreeStable(src, dst string) error {
	for attempt := 0; attempt < 10; attempt++ {
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		before, err := treeListing(src)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(before))
		for name := range before {
			names = append(names, name)
		}
		sort.Strings(names)
		vanished := false
		for _, name := range names {
			if err := copyFile(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					vanished = true
					break
				}
				return err
			}
		}
		after, err := treeListing(src)
		if err != nil {
			return err
		}
		if !vanished && maps.Equal(before, after) {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return errors.New("source kept changing")
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
