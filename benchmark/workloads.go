package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/client"
	"loki/internal/rng"
	"loki/internal/server"
)

// workload is one traffic mix against one topology. Sizes are for the
// 2-core sandbox; they are fixed in the table below so that two runs of
// one workload are the same experiment.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// standalone selects the single-server topology over ingest;
	// otherwise the cluster topology.
	standalone bool
	surveys    int
	// preload is how many responses set-up stores before the first
	// timed operation.
	preload int
	// submitRate and readRate are the open-loop arrival rates per
	// second of the workload's single submits and aggregate reads;
	// clients is its closed-loop caller count. Which of them a workload
	// uses, and for what, is in its drive function.
	submitRate, readRate, clients int
	// drive runs the timed phases, which together last the run's seconds.
	// coda says whether to include the workload's coda, where it has one:
	// a last phase that produces numbers the run's last line must carry
	// and the workload's own phases have no traffic for. A traced pass
	// leaves it out, so that layers the workload bypasses stay absent.
	drive func(d *driver, coda bool)
	// lagExempt says that the workload's open-loop stream runs beside
	// closed-loop callers that never block and so saturate the CPUs: its
	// generator queues for a CPU behind them like every request does, and
	// its lateness is reported but not held to the budget.
	lagExempt bool
	// measures lists the end-to-end metrics the workload exists to
	// measure, beside setup_s and the failure fractions, which every
	// workload answers for. The run's last line carries every metric on
	// every workload, because the contract says so; a metric not listed
	// here is a by-product there (the achieved rate of a fixed-rate
	// stream, the latency of a stream that is only load for the one under
	// test), marked incidental in the report and left out by -compare.
	measures []string
}

// measuresMetric says whether an end-to-end metric is one of the
// workload's own.
func (w *workload) measuresMetric(name string) bool {
	switch name {
	case "setup_s", "submit_fail_frac", "read_fail_frac":
		return true
	}
	return slices.Contains(w.measures, name)
}

// uploadPool is how many distinct uploads a run cycles through: one per
// simulated person.
const uploadPool = populationSize

var workloads = []workload{
	{
		name:    "cluster_submit",
		why:     "write path end to end with the privacy ledger on: 500/s open-loop single submits, then 256 closed-loop respondents through the batching client; nothing reads until the timed phases are over",
		surveys: 8, preload: 4000,
		submitRate: 500, clients: 256,
		drive:    driveClusterSubmit,
		measures: []string{"submit_ack_p50_ms", "submit_ack_p99_ms", "submit_goodput_rps", "disk_bytes_per_response", "cpu_us_per_op"},
	},
	{
		name:    "cluster_read_hot",
		why:     "8 surveys fit the frontend cache: closed-loop readers on all CPUs but one, served from cached merges, beside a 200/s submit trickle; shardrpc and the stores do almost nothing",
		surveys: 8, preload: 4000,
		submitRate: 200, clients: hotReaders(),
		drive: driveClusterReadHot, lagExempt: true,
		measures: []string{"read_p50_ms", "read_p99_ms", "read_qps", "cpu_us_per_op"},
	},
	{
		name:    "cluster_read_cold",
		why:     "144 surveys re-read every 0.6 s, beyond the 250 ms cache TTL: every 240/s open-loop read is an 8-shard conditional fan-out, beside 300/s submits",
		surveys: 144, preload: 2880,
		submitRate: 300, readRate: 240,
		drive:    driveClusterReadCold,
		measures: []string{"read_p50_ms", "read_p99_ms", "cpu_us_per_op"},
	},
	{
		name:       "standalone_mixed",
		why:        "the only path through ingest and checkpoint, budget off: 32 closed-loop respondents, 9 submits to 1 read, WAL rotation and compaction as background work",
		standalone: true,
		surveys:    16, preload: 6000,
		clients: 32,
		drive:   driveStandaloneMixed,
		measures: []string{
			"submit_ack_p50_ms", "submit_ack_p99_ms", "submit_goodput_rps", "read_p50_ms", "read_p99_ms",
			"restart_first_read_ms", "disk_bytes_per_response", "cpu_us_per_op",
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// hotReaders is cluster_read_hot's reader count: every CPU but one.
func hotReaders() int {
	if n := runtime.NumCPU() - 1; n > 1 {
		return n
	}
	return 1
}

const (
	// mixedReadEvery makes every 10th operation of a standalone_mixed
	// caller a read.
	mixedReadEvery = 10
	// openShare is the share of cluster_submit's run spent in the open
	// phase and codaShare the share spent in the coda, when there is one;
	// the rest is the bulk phase.
	openShare = 0.5
	codaShare = 0.15
	// readDecodeEvery is how often a timed read is fully decoded and
	// its response count bounded (every read is checked for status and
	// the degraded marker).
	readDecodeEvery = 32
	// preloadClients is how many closed-loop callers preload through.
	preloadClients = 128
)

// stream is the outcome of one class of operation over one stretch of
// the run: latency samples of the successes, and the attempt and
// failure counts.
type stream struct {
	rec       recorder
	start     time.Time
	dur       time.Duration
	attempted atomic.Int64
	failed    atomic.Int64
}

func (s *stream) ok() int64 { return s.attempted.Load() - s.failed.Load() }

// driver runs one workload's timed phases against a topology and
// collects what the metrics are computed from.
type driver struct {
	w       *workload
	tp      *topology
	in      *inputs
	seconds time.Duration
	r       *rng.RNG

	// cursor walks the upload pool; every submit takes the next upload.
	cursor atomic.Int64
	// sent and acked count, per survey, submits issued and submits
	// acknowledged. A sampled read must report a response count between
	// what was acked before it started (read-your-writes) and what had
	// been sent when it returned.
	sent  []atomic.Int64
	acked []atomic.Int64
	// ackedAll counts every acknowledgement since the topology was set
	// up, preload included.
	ackedAll atomic.Int64

	// singles are in-process single submits, bulk submits through the
	// batching pipelines, reads aggregate reads. A workload fills the
	// ones it has.
	singles *stream
	bulk    *stream
	reads   *stream
	// genLag is how late the open-loop generators released arrivals.
	lagMu  sync.Mutex
	genLag []time.Duration

	subs []*client.Submitter

	errMu  sync.Mutex
	errors []string

	// timedStart and timedEnd bound the timed phases, timedOps is how many
	// operations they completed, and phases says when each ran: CPU per
	// operation is taken phase by phase.
	timedStart, timedEnd time.Time
	timedOps             int64
	phases               []phaseSpan
}

// phaseSpan is when one phase of a run's timed part ran.
type phaseSpan struct {
	name       string
	start, end time.Time
}

// completed is how many operations have succeeded so far.
func (d *driver) completed() int64 { return d.singles.ok() + d.bulk.ok() + d.reads.ok() }

// phase runs f as the named phase.
func (d *driver) phase(name string, f func()) {
	start := time.Now()
	f()
	d.phases = append(d.phases, phaseSpan{name, start, time.Now()})
}

// fail records a correctness or operation failure; the first few are
// kept for the report.
func (d *driver) fail(format string, args ...any) {
	d.errMu.Lock()
	if len(d.errors) < 8 {
		d.errors = append(d.errors, fmt.Sprintf(format, args...))
	}
	d.errMu.Unlock()
}

func (d *driver) nextUpload() *upload {
	i := d.cursor.Add(1) - 1
	return d.in.uploads[int(i%int64(len(d.in.uploads)))]
}

func (d *driver) noteAck(u *upload) {
	u.acked.Add(1)
	d.acked[u.survey].Add(1)
	d.ackedAll.Add(1)
}

// submitSingle posts the next upload in-process and times it from
// since: the due time in an open loop, the issue time in a closed one.
func (d *driver) submitSingle(key int, since time.Time) {
	u := d.nextUpload()
	d.singles.attempted.Add(1)
	d.sent[u.survey].Add(1)
	status, body := submitSingle(d.tp.public, u)
	lat := time.Since(since)
	if status != http.StatusCreated {
		d.singles.failed.Add(1)
		d.fail("submit %s: HTTP %d: %s", u.resp.SurveyID, status, bytes.TrimSpace(body))
		return
	}
	d.noteAck(u)
	d.singles.rec.observe(key, since.Sub(d.singles.start), lat)
}

// submitBulk hands the next upload to a batching pipeline and waits for
// its durable ack, like a respondent watching the upload spinner.
func (d *driver) submitBulk(key int) {
	u := d.nextUpload()
	d.bulk.attempted.Add(1)
	d.sent[u.survey].Add(1)
	start := time.Now()
	out, err := d.subs[key%len(d.subs)].SubmitWait(context.Background(), u.resp)
	if err == nil {
		err = out.Err
	}
	end := time.Now()
	if d.tp.tracer != nil {
		d.tp.tracer.record(spanClientSubmit, start, end, -1, 1, err != nil)
	}
	if err != nil {
		d.bulk.failed.Add(1)
		d.fail("bulk submit %s: %v", u.resp.SurveyID, err)
		return
	}
	d.noteAck(u)
	d.bulk.rec.observe(key, start.Sub(d.bulk.start), end.Sub(start))
}

// read fetches one survey's aggregate in-process, timed from since. A
// read fails when it is not a 200, carries the degraded marker, or — on
// the decoded sample — reports a response count outside what the
// submits before and during it allow.
func (d *driver) read(key, si int, since time.Time) {
	d.reads.attempted.Add(1)
	decode := key%readDecodeEvery == 0
	var floor int64
	if decode {
		floor = d.acked[si].Load()
	}
	status, body := call(d.tp.public, http.MethodGet, aggregatePath(d.in.surveys[si].ID), nil, true)
	lat := time.Since(since)
	switch {
	case status != http.StatusOK:
		d.reads.failed.Add(1)
		d.fail("read %s: HTTP %d: %s", d.in.surveys[si].ID, status, bytes.TrimSpace(body))
		return
	case bytes.Contains(body, degradedMarker):
		d.reads.failed.Add(1)
		d.fail("read %s: degraded", d.in.surveys[si].ID)
		return
	}
	if decode {
		ceil := d.sent[si].Load()
		var agg server.AggregateResult
		if err := json.Unmarshal(body, &agg); err != nil || len(agg.Questions) == 0 {
			d.reads.failed.Add(1)
			d.fail("read %s: undecodable aggregate: %v", d.in.surveys[si].ID, err)
			return
		}
		if n := int64(agg.Questions[0].OverallN); n < floor || n > ceil {
			d.reads.failed.Add(1)
			d.fail("read %s: %d responses, outside [%d acked before, %d sent after]", d.in.surveys[si].ID, n, floor, ceil)
			return
		}
	}
	d.reads.rec.observe(key, since.Sub(d.reads.start), lat)
}

// openLoop runs a Poisson open loop of the given rate for dur from
// start and keeps the generator's lateness.
func (d *driver) openLoop(r *rng.RNG, rate float64, start time.Time, dur time.Duration, fire func(i int, due time.Time)) {
	lag := runOpenLoop(start, poissonSchedule(r, rate, dur), fire)
	d.lagMu.Lock()
	d.genLag = append(d.genLag, lag...)
	d.lagMu.Unlock()
}

// begin marks the start of the timed phases.
func (d *driver) begin() time.Time {
	d.timedStart = time.Now()
	return d.timedStart
}

// finish marks the end of the timed phases.
func (d *driver) finish() {
	d.timedEnd = time.Now()
	d.timedOps = d.completed()
}

// driveClusterSubmit: an open phase of single POSTs at a fixed rate well
// under capacity, so the ack latency is service time and not queueing;
// then a bulk phase where closed-loop respondents saturate the batching
// pipelines, so the goodput is capacity. The two phases use one submit
// path differently — many small requests against few large ones — so a
// batcher or group-commit change that helps one and hurts the other
// shows in one row. Nothing reads while they run. The coda is one
// requester reading the surveys round-robin, one read after the other:
// what the read metrics on the run's last line are taken from.
func driveClusterSubmit(d *driver, coda bool) {
	openDur := time.Duration(float64(d.seconds) * openShare)
	var codaDur time.Duration
	if coda {
		codaDur = time.Duration(float64(d.seconds) * codaShare)
	}
	bulkDur := d.seconds - openDur - codaDur
	rSubmit := d.r.Split()
	start := d.begin()
	d.phase("open", func() {
		d.singles.start, d.singles.dur = start, openDur
		d.openLoop(rSubmit, float64(d.w.submitRate), start, openDur, func(i int, due time.Time) {
			d.submitSingle(i, due)
		})
	})
	d.phase("bulk", func() {
		d.bulk.start = time.Now()
		runClosedLoop(d.w.clients, d.bulk.start.Add(bulkDur), func(w, _ int) { d.submitBulk(w) })
		d.bulk.dur = time.Since(d.bulk.start)
	})
	d.finish()
	if coda {
		d.phase("requester", func() {
			d.reads.start = time.Now()
			runClosedLoop(1, d.reads.start.Add(codaDur), func(_, iter int) {
				d.read(iter, iter%len(d.in.surveys), time.Now())
			})
			d.reads.dur = time.Since(d.reads.start)
		})
	}
}

// driveClusterReadHot: closed-loop readers on all CPUs but one, uniform
// over a set of surveys small enough that the frontend cache answers
// nearly every read, beside a submit trickle that moves cursors so that
// revalidation and delta merges run at a low, fixed rate. A cached read
// never blocks, so in-process readers on every CPU would leave the
// trickle waiting out whole scheduler time slices for a CPU, and its
// ack latency would measure the Go scheduler; one CPU is left to it.
func driveClusterReadHot(d *driver, _ bool) {
	rSubmit := d.r.Split()
	readers := d.w.clients
	pick := make([]*rng.RNG, readers)
	for i := range pick {
		pick[i] = d.r.Split()
	}
	start := d.begin()
	d.reads.start, d.reads.dur = start, d.seconds
	d.singles.start, d.singles.dur = start, d.seconds
	d.phase("reads_and_trickle", func() {
		var trickle sync.WaitGroup
		trickle.Add(1)
		go func() {
			defer trickle.Done()
			d.openLoop(rSubmit, float64(d.w.submitRate), start, d.seconds, func(i int, due time.Time) {
				d.submitSingle(i, due)
			})
		}()
		runClosedLoop(readers, start.Add(d.seconds), func(w, iter int) {
			// The key spreads the callers over recorder shards and makes
			// every readDecodeEvery-th read of each caller a decoded one.
			d.read(iter*readers+w, pick[w].Intn(len(d.in.surveys)), time.Now())
		})
		trickle.Wait()
	})
	d.finish()
}

// driveClusterReadCold: reads walk the surveys round-robin at a fixed
// rate, so each survey is re-read at an interval set by the rate alone
// — longer than the cache TTL at any server speed. Every read is then a
// conditional fan-out to all shards, and the submits beside it make
// part of those fan-outs ship deltas.
func driveClusterReadCold(d *driver, _ bool) {
	rSubmit, rRead := d.r.Split(), d.r.Split()
	start := d.begin()
	d.reads.start, d.reads.dur = start, d.seconds
	d.singles.start, d.singles.dur = start, d.seconds
	d.phase("reads_and_submits", func() {
		var submits sync.WaitGroup
		submits.Add(1)
		go func() {
			defer submits.Done()
			d.openLoop(rSubmit, float64(d.w.submitRate), start, d.seconds, func(i int, due time.Time) {
				d.submitSingle(i, due)
			})
		}()
		d.openLoop(rRead, float64(d.w.readRate), start, d.seconds, func(i int, due time.Time) {
			d.read(i, i%len(d.in.surveys), due)
		})
		submits.Wait()
	})
	d.finish()
}

// driveStandaloneMixed: closed-loop respondents each loop nine single
// submits and one aggregate read, in-process, against the standalone
// server. The store underneath rotates WAL segments and compacts them
// into snapshots while this runs, and the checkpointer flushes beside
// it; both are part of what the respondents wait on.
func driveStandaloneMixed(d *driver, _ bool) {
	start := d.begin()
	d.reads.start, d.reads.dur = start, d.seconds
	d.singles.start, d.singles.dur = start, d.seconds
	d.phase("mixed", func() {
		runClosedLoop(d.w.clients, start.Add(d.seconds), func(w, iter int) {
			if iter%mixedReadEvery == mixedReadEvery-1 {
				// iter/mixedReadEvery numbers this caller's reads.
				n := iter / mixedReadEvery
				d.read(n*d.w.clients+w, (w+n)%len(d.in.surveys), time.Now())
				return
			}
			d.submitSingle(w, time.Now())
		})
	})
	d.finish()
}
