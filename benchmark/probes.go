package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loki/internal/aggregate"
	"loki/internal/blockio"
	"loki/internal/budget"
	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/rng"
	"loki/internal/store"
	"loki/internal/survey"
)

// Layer probes time one layer's public functions alone: one goroutine,
// a fixed input made from a fixed seed, no server around it. They give
// the floor a layer contributes on this box — most usefully the cost of
// one fsync'd batch, which bounds what any batching change can buy —
// and they run once per traced run, whatever the workload.

var probeMetrics = []layerMetric{
	{"blockio.append_ns_per_record", "ns"},
	{"blockio.scan_ns_per_record", "ns"},
	{"blockio.bytes_per_user_byte", "ratio"},
	{"blockio.frame_roundtrip_ns_per_kib", "ns"},
	{"aggregate.add_ns_per_response", "ns"},
	{"aggregate.merge_us", "us"},
	{"aggregate.finalize_us", "us"},
	{"aggregate.restore_us", "us"},
	{"budget.charge_us_per_record", "us"},
	{"budget.charge_mem_ns_per_record", "ns"},
	{"store.append_batch64_us", "us"},
	{"ingest.replay_ms_per_100k", "ms"},
	{"checkpoint.put_us", "us"},
	{"checkpoint.open_ms", "ms"},
	{"core.obfuscate_ns_per_response", "ns"},
}

// probeSeed is fixed: probes compare one commit with another, not one
// input with another.
const probeSeed = 20130923

const (
	probeRecords       = 20000
	probeBatch         = 64
	probeBatches       = 50
	probeIngestRecords = 20000
)

// runProbes measures every probe under dir and adds the results to lv.
func runProbes(dir string, lv layerValues) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in, err := generateInputs(probeSeed, 1, probeRecords)
	if err != nil {
		return err
	}
	sv := in.surveys[0]
	steps := []func() error{
		func() error { return probeBlockio(dir, in, lv) },
		func() error { return probeAggregate(in, lv) },
		func() error { return probeBudget(dir, in, lv) },
		func() error { return probeStore(dir, sv, in, lv) },
		func() error { return probeIngest(dir, sv, in, lv) },
		func() error { return probeCheckpoint(dir, in, lv) },
		func() error { return probeCore(sv, lv) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func per(elapsed time.Duration, n int, unit time.Duration) float64 {
	return float64(elapsed) / float64(unit) / float64(n)
}

func probeBlockio(dir string, in *inputs, lv layerValues) error {
	path := filepath.Join(dir, "probe.blk")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := blockio.NewWriter(f, 1)
	if err != nil {
		f.Close()
		return err
	}
	var userBytes int64
	t0 := time.Now()
	for _, u := range in.uploads {
		if _, err := w.Append(u.body); err != nil {
			f.Close()
			return err
		}
		userBytes += int64(len(u.body))
	}
	if err := w.Close(); err != nil { // flushes and closes f
		return err
	}
	lv.set("blockio.append_ns_per_record", per(time.Since(t0), len(in.uploads), time.Nanosecond))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	lv.set("blockio.bytes_per_user_byte", float64(fi.Size())/float64(userBytes))

	n := 0
	t0 = time.Now()
	if _, err := blockio.Replay(path, false, func(uint64, []byte) error { n++; return nil }); err != nil {
		return err
	}
	if n != len(in.uploads) {
		return fmt.Errorf("blockio probe: scanned %d of %d records", n, len(in.uploads))
	}
	lv.set("blockio.scan_ns_per_record", per(time.Since(t0), n, time.Nanosecond))

	var payload []byte
	for _, u := range in.uploads {
		if len(payload) >= 64<<10 {
			break
		}
		payload = append(payload, u.body...)
	}
	const reps = 50
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		frame, err := blockio.EncodeFrame(payload)
		if err != nil {
			return err
		}
		if _, err := blockio.DecodeFrame(frame); err != nil {
			return err
		}
	}
	lv.set("blockio.frame_roundtrip_ns_per_kib", float64(time.Since(t0))/reps/(float64(len(payload))/1024))
	return nil
}

func probeAggregate(in *inputs, lv layerValues) error {
	sv := in.surveys[0]
	sched := core.DefaultSchedule()
	// Eight partials, as a frontend merges for one read.
	parts := make([]*aggregate.Accumulator, clusterShards)
	for i := range parts {
		a, err := aggregate.NewAccumulator(sched, sv)
		if err != nil {
			return err
		}
		parts[i] = a
	}
	t0 := time.Now()
	for i, u := range in.uploads {
		if err := parts[i%len(parts)].Add(u.resp); err != nil {
			return err
		}
	}
	lv.set("aggregate.add_ns_per_response", per(time.Since(t0), len(in.uploads), time.Nanosecond))

	const reps = 500
	var merged *aggregate.Accumulator
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		m, err := aggregate.NewAccumulator(sched, sv)
		if err != nil {
			return err
		}
		for _, p := range parts {
			if err := m.Merge(p); err != nil {
				return err
			}
		}
		merged = m
	}
	lv.set("aggregate.merge_us", per(time.Since(t0), reps*len(parts), time.Microsecond))

	t0 = time.Now()
	for r := 0; r < reps; r++ {
		if _, err := merged.Finalize(); err != nil {
			return err
		}
	}
	lv.set("aggregate.finalize_us", per(time.Since(t0), reps, time.Microsecond))

	state := merged.Snapshot()
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		if _, err := aggregate.RestoreAccumulator(sched, sv, state); err != nil {
			return err
		}
	}
	lv.set("aggregate.restore_us", per(time.Since(t0), reps, time.Microsecond))
	return nil
}

func probeCharges(in *inputs, batch int) []budget.Charge {
	out := make([]budget.Charge, probeBatch)
	for i := range out {
		u := in.uploads[(batch*probeBatch+i)%len(in.uploads)]
		out[i] = budget.Charge{WorkerID: u.resp.WorkerID, SurveyID: u.resp.SurveyID, Rho: 0.01, Enforce: true}
	}
	return out
}

func probeBudget(dir string, in *inputs, lv layerValues) error {
	cfg := budget.Config{CapEpsilon: budgetCapEpsilon, Delta: budgetDelta}
	run := func(setDir string, batches int) (time.Duration, error) {
		set, err := budget.NewSet(budget.SetOptions{Shards: clusterShards, Dir: setDir, Config: cfg})
		if err != nil {
			return 0, err
		}
		charges := make([]map[int][]budget.Charge, batches)
		for b := range charges {
			groups := make(map[int][]budget.Charge)
			for _, c := range probeCharges(in, b) {
				g := budget.Route(c.WorkerID, clusterShards)
				groups[g] = append(groups[g], c)
			}
			charges[b] = groups
		}
		t0 := time.Now()
		for _, groups := range charges {
			if _, err := set.ChargeShards(groups); err != nil {
				set.Close()
				return 0, err
			}
		}
		elapsed := time.Since(t0)
		return elapsed, set.Close()
	}
	durable, err := run(filepath.Join(dir, "probe-budget"), probeBatches)
	if err != nil {
		return err
	}
	lv.set("budget.charge_us_per_record", per(durable, probeBatches*probeBatch, time.Microsecond))
	mem, err := run("", 10*probeBatches)
	if err != nil {
		return err
	}
	lv.set("budget.charge_mem_ns_per_record", per(mem, 10*probeBatches*probeBatch, time.Nanosecond))
	return nil
}

func probeStore(dir string, sv *survey.Survey, in *inputs, lv layerValues) error {
	st, err := store.OpenFileWith(filepath.Join(dir, "probe-store.log"),
		store.FileOptions{Sync: store.SyncAlways, Codec: blockio.CodecBinary})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.PutSurvey(sv); err != nil {
		return err
	}
	batches := make([][]survey.Response, probeBatches)
	for b := range batches {
		batches[b] = make([]survey.Response, probeBatch)
		for i := range batches[b] {
			batches[b][i] = *in.uploads[(b*probeBatch+i)%len(in.uploads)].resp
		}
	}
	t0 := time.Now()
	for _, batch := range batches {
		if _, err := st.AppendResponses(batch); err != nil {
			return err
		}
	}
	lv.set("store.append_batch64_us", per(time.Since(t0), probeBatches, time.Microsecond))
	return nil
}

func probeIngest(dir string, sv *survey.Survey, in *inputs, lv layerValues) error {
	idir := filepath.Join(dir, "probe-ingest")
	cfg := ingest.Config{Shards: clusterShards, SegmentBytes: standaloneSegmentBytes}
	ing, err := ingest.Open(idir, cfg)
	if err != nil {
		return err
	}
	if err := ing.PutSurvey(sv); err != nil {
		ing.Close()
		return err
	}
	// Filling is set-up, not the probe: concurrent appends group-commit,
	// one at a time would pay a full fsync each.
	var wg sync.WaitGroup
	errs := make(chan error, preloadClients)
	for w := 0; w < preloadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < probeIngestRecords; i += preloadClients {
				if err := ing.AppendResponse(in.uploads[i%len(in.uploads)].resp); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		ing.Close()
		return err
	}
	if err := ing.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	ing, err = ingest.Open(idir, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	n := ing.ResponseCount(sv.ID)
	if err := ing.Close(); err != nil {
		return err
	}
	if n != probeIngestRecords {
		return fmt.Errorf("ingest probe: replayed %d of %d records", n, probeIngestRecords)
	}
	lv.set("ingest.replay_ms_per_100k", float64(elapsed)/1e6*100000/float64(n))
	return nil
}

func probeCheckpoint(dir string, in *inputs, lv layerValues) error {
	cdir := filepath.Join(dir, "probe-checkpoints")
	opts := checkpoint.Options{Codec: blockio.CodecBinary}
	log, err := checkpoint.OpenWith(cdir, opts)
	if err != nil {
		return err
	}
	sv := in.surveys[0]
	acc, err := aggregate.NewAccumulator(core.DefaultSchedule(), sv)
	if err != nil {
		log.Close()
		return err
	}
	for _, u := range in.uploads[:1000] {
		if err := acc.Add(u.resp); err != nil {
			log.Close()
			return err
		}
	}
	state, fp := acc.Snapshot(), sv.Fingerprint()
	// 16 surveys of 8 shard partials: the standalone workload's log.
	const surveys, rounds = 16, 2
	puts := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for s := 0; s < surveys; s++ {
			for shard := 0; shard < clusterShards; shard++ {
				rec := &checkpoint.Record{
					SurveyID: fmt.Sprintf("probe-%02d", s), Shard: shard, ShardCount: clusterShards,
					Fingerprint: fp, Cursor: uint64(1000 * (r + 1)), State: state,
					SavedUnixNano: time.Now().UnixNano(),
				}
				if err := log.Put(rec); err != nil {
					log.Close()
					return err
				}
				puts++
			}
		}
	}
	lv.set("checkpoint.put_us", per(time.Since(t0), puts, time.Microsecond))
	if err := log.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	log, err = checkpoint.OpenWith(cdir, opts)
	if err != nil {
		return err
	}
	lv.set("checkpoint.open_ms", float64(time.Since(t0))/1e6)
	if got := len(log.Records()); got != surveys*clusterShards {
		log.Close()
		return fmt.Errorf("checkpoint probe: reopened %d of %d records", got, surveys*clusterShards)
	}
	return log.Close()
}

func probeCore(sv *survey.Survey, lv layerValues) error {
	obf, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		return err
	}
	r := rng.New(probeSeed)
	raw := []survey.Answer{
		survey.RatingAnswer("q0", 4), survey.RatingAnswer("q1", 4), survey.ChoiceAnswer("q2", 1),
	}
	const reps = 50000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := obf.ObfuscateResponse(sv, raw, core.Level(1+i%3), r, nil); err != nil {
			return err
		}
	}
	lv.set("core.obfuscate_ns_per_response", per(time.Since(t0), reps, time.Nanosecond))
	return nil
}
