package main

import (
	"path/filepath"
	"testing"
	"time"

	"loki/internal/ingest"
	"loki/internal/server"
	"loki/internal/store"
)

const conformanceSingles = 100

// conformanceSetUp opens a cluster topology and preloads it through the
// batching client.
func conformanceSetUp(t *testing.T, w *workload, tr *tracer, in *inputs) *driver {
	t.Helper()
	in.resetAcks()
	d, _, err := w.setUp(filepath.Join(t.TempDir(), "live"), in, passOptions{seed: 1, seconds: time.Second, tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.closeAll() })
	return d
}

// submitSingles posts the next uploads one at a time and returns how
// many of them placement does not let ride the submit RPC with their
// charge.
func submitSingles(t *testing.T, d *driver) (separateCharges int) {
	t.Helper()
	d.singles.start = time.Now()
	first := int(d.cursor.Load())
	for i := 0; i < conformanceSingles; i++ {
		u := d.in.uploads[(first+i)%len(d.in.uploads)]
		shard := d.tp.remote.Route(u.resp.SurveyID, u.resp.WorkerID)
		if !d.tp.remote.CanPiggybackCharge(shard, u.resp.WorkerID) {
			separateCharges++
		}
		d.submitSingle(i, time.Now())
	}
	for _, e := range d.errors {
		t.Errorf("submit failed: %s", e)
	}
	return separateCharges
}

func budgetCharges(t *testing.T, tp *topology) uint64 {
	t.Helper()
	var n uint64
	for _, set := range tp.budgets {
		stats, err := set.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			n += s.Charges
		}
	}
	return n
}

func aggregatesOf(t *testing.T, d *driver) []*server.AggregateResult {
	t.Helper()
	out := make([]*server.AggregateResult, len(d.in.surveys))
	for si, sv := range d.in.surveys {
		agg, err := fetchAggregate(d.tp.public, sv.ID)
		if err != nil {
			t.Fatal(err)
		}
		out[si] = agg
	}
	return out
}

// TestDecoratorsDoNotDivertTheCodePath runs one seeded input with
// tracing off and on and requires the same acknowledgements, the same
// ledger and the same aggregates, and — from the spans — the paths the
// undecorated system takes: a batch still reaches the store as one
// append call, a charge still rides the submit RPC wherever placement
// allows, and a separate charge RPC appears only where it does not.
func TestDecoratorsDoNotDivertTheCodePath(t *testing.T) {
	w := shrunk(t, "cluster_submit")
	in := smokeInputs(t, w)
	want := w.preload + conformanceSingles

	plain := conformanceSetUp(t, w, nil, in)
	submitSingles(t, plain)
	plainAcked, plainCharges, plainAggs := in.ackedTotal(), budgetCharges(t, plain.tp), aggregatesOf(t, plain)

	tr := newTracer()
	traced := conformanceSetUp(t, w, tr, in)
	afterPreload := time.Now()
	chargeCallsBefore := tr.chargeCalls.Load()
	separate := submitSingles(t, traced)
	afterSingles := time.Now()

	if got := in.ackedTotal(); got != plainAcked || got != want {
		t.Errorf("traced run acked %d, untraced %d, want %d", got, plainAcked, want)
	}
	if got := budgetCharges(t, traced.tp); got != plainCharges || int(got) != want {
		t.Errorf("traced ledger holds %d charges, untraced %d, want %d", got, plainCharges, want)
	}
	if err := verifyAggregates(traced.tp.public, in, allSurveys(in)); err != nil {
		t.Errorf("traced topology: %v", err)
	}
	for si, got := range aggregatesOf(t, traced) {
		if err := aggregatesEquivalent(got, plainAggs[si]); err != nil {
			t.Errorf("survey %d differs between traced and untraced: %v", si, err)
		}
	}

	// One at a time, every single is its own submit RPC, and exactly the
	// ones placement cannot colocate pay a separate charge RPC first.
	if got := len(tr.between(spanRPCSubmit, afterPreload, afterSingles)); got != conformanceSingles {
		t.Errorf("%d submit RPCs for %d sequential singles", got, conformanceSingles)
	}
	if separate == 0 || separate == conformanceSingles {
		t.Fatalf("input does not exercise both charge paths: %d of %d separate", separate, conformanceSingles)
	}
	if got := tr.chargeCalls.Load() - chargeCallsBefore; got != int64(separate) {
		t.Errorf("%d separate charge RPCs, placement predicts %d", got, separate)
	}
	// Every acknowledged record went through a decorated store append,
	// and the preload's batches arrived as batches: the decorator kept
	// the one-fsync batch path (store.BatchAppender) open.
	records, batches := 0, 0
	for _, sp := range tr.between(spanStoreAppend, tr.epoch, afterSingles) {
		records += int(sp.records)
		if sp.records > 1 {
			batches++
		}
	}
	if records != want {
		t.Errorf("store.append spans carried %d records, %d were acknowledged", records, want)
	}
	if batches == 0 {
		t.Error("no store.append call carried more than one record: the batch path was lost")
	}
}

func TestTraceStoreForwardsExactlyTheInnerStoresInterfaces(t *testing.T) {
	tr := newTracer()
	dir := t.TempDir()
	file, err := store.OpenFile(filepath.Join(dir, "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	ing, err := ingest.Open(filepath.Join(dir, "ingest"), ingest.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	for _, c := range []struct {
		name  string
		inner store.Store
	}{{"file", file}, {"ingest", ing}, {"mem", store.NewMem()}} {
		wrapped := traceStore(tr, c.inner, spanStoreAppend, 0)
		_, innerBatch := c.inner.(store.BatchAppender)
		_, gotBatch := wrapped.(store.BatchAppender)
		if innerBatch != gotBatch {
			t.Errorf("%s: BatchAppender inner=%v decorated=%v", c.name, innerBatch, gotBatch)
		}
		_, innerHist := c.inner.(store.Historian)
		_, gotHist := wrapped.(store.Historian)
		if innerHist != gotHist {
			t.Errorf("%s: Historian inner=%v decorated=%v", c.name, innerHist, gotHist)
		}
	}
}
