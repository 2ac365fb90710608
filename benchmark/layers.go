package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"loki/internal/ingest"
	"loki/internal/server"
)

// counters are the layers' own counts, read at the boundaries of the
// timed phases from the admin surface, the layers' Stats() and the
// runtime. Layers a topology does not have stay nil/zero and are
// reported absent, not as zero.
type counters struct {
	admission *server.AdmissionInfo
	cache     *cacheCounts
	ingest    *ingest.Stats
	budget    *budgetCounts
	journal   *journalCounts
	client    *clientCounts
	mem       runtime.MemStats
}

type cacheCounts struct{ hits, misses, notModified, delta, full int64 }
type budgetCounts struct {
	charges, rejected, compactions uint64
	walRecords                     int
}
type journalCounts struct {
	entries       int
	retainedBytes int64
}
type clientCounts struct{ batches, retries, throttled int64 }

// adminStore reads GET /api/v1/admin/store off the undecorated server.
func adminStore(tp *topology) (*server.AdminStoreInfo, error) {
	status, body := call(tp.admin, http.MethodGet, "/api/v1/admin/store", nil, true)
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, body)
	}
	var info server.AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// snapshotCounters reads every layer counter the topology has.
func snapshotCounters(d *driver) *counters {
	tp := d.tp
	c := &counters{}
	if info, err := adminStore(tp); err != nil {
		d.fail("admin store: %v", err)
	} else {
		c.admission = info.Admission
		if fc := info.FrontendCache; fc != nil {
			c.cache = &cacheCounts{}
			for _, s := range fc.Surveys {
				c.cache.hits += s.Hits
				c.cache.misses += s.Misses
				c.cache.notModified += s.NotModified
				c.cache.delta += s.Delta
				c.cache.full += s.Full
			}
		}
	}
	if tp.ingest != nil {
		st := tp.ingest.Stats()
		c.ingest = &st
	}
	if len(tp.budgets) > 0 {
		c.budget = &budgetCounts{}
		for _, set := range tp.budgets {
			stats, err := set.Stats()
			if err != nil {
				d.fail("budget stats: %v", err)
				continue
			}
			for _, s := range stats {
				c.budget.charges += s.Charges
				c.budget.rejected += s.Rejected
				c.budget.compactions += s.Compactions
				c.budget.walRecords += s.WALRecords
			}
		}
	}
	if len(tp.locals) > 0 {
		c.journal = &journalCounts{}
		for _, l := range tp.locals {
			for _, js := range l.JournalStats() {
				c.journal.entries += js.Entries
				c.journal.retainedBytes += js.RetainedBytes
			}
		}
	}
	if len(d.subs) > 0 {
		c.client = &clientCounts{}
		for _, s := range d.subs {
			st := s.Stats()
			c.client.batches += st.Batches
			c.client.retries += st.Retries
			c.client.throttled += st.Throttled
		}
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// dirSizes are the bytes under each durable structure's directory.
type dirSizes struct {
	stores, ingest, budget, checkpoints int64
}

func (s dirSizes) total() int64 { return s.stores + s.ingest + s.budget + s.checkpoints }

// measureDirs sizes the topology's data directory by what each file
// belongs to.
func measureDirs(tp *topology) dirSizes {
	var s dirSizes
	_ = filepath.WalkDir(tp.dataDir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil // a file compacted away mid-walk is not an error here
		}
		fi, err := de.Info()
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(tp.dataDir, path)
		parts := strings.Split(filepath.ToSlash(rel), "/")
		switch {
		case parts[0] == "ingest":
			s.ingest += fi.Size()
		case parts[0] == "checkpoints":
			s.checkpoints += fi.Size()
		case len(parts) > 1 && parts[1] == "budget":
			s.budget += fi.Size()
		default:
			s.stores += fi.Size()
		}
		return nil
	})
	return s
}

// layerMetric is one per-layer metric's name and unit.
type layerMetric struct {
	name, unit string
}

// spanStatSuffixes are the numbers every span kind reports.
var spanStatSuffixes = []layerMetric{
	{"count", "count"}, {"p50_ms", "ms"}, {"p99_ms", "ms"}, {"busy_s", "s"},
}

var derivedMetrics = []layerMetric{
	{"client.linger_p50_ms", "ms"},
	{"server.frontend_submit_overhead_p50_ms", "ms"},
	{"shardrpc.wire_p50_ms", "ms"},
	{"server.node_submit_overhead_p50_ms", "ms"},
	{"shardrpc.partial_calls_per_read", "count"},
}

var counterMetrics = []layerMetric{
	{"server.admission_admitted", "count"},
	{"server.admission_shed", "count"},
	{"server.admission_queue_high_water", "count"},
	{"server.frontcache_hits", "count"},
	{"server.frontcache_misses", "count"},
	{"server.frontcache_not_modified", "count"},
	{"server.frontcache_delta", "count"},
	{"server.frontcache_full", "count"},
	{"server.frontcache_hit_ratio", "ratio"},
	{"ingest.appends", "count"},
	{"ingest.commits", "count"},
	{"ingest.records_per_commit", "count"},
	{"ingest.rotations", "count"},
	{"ingest.snapshots", "count"},
	{"budget.charges", "count"},
	{"budget.rejected", "count"},
	{"budget.wal_records", "count"},
	{"budget.compactions", "count"},
	{"shardset.journal_entries", "count"},
	{"shardset.journal_retained_bytes", "bytes"},
	{"client.batches", "count"},
	{"client.retries", "count"},
	{"client.throttled", "count"},
	{"checkpoint.bytes", "bytes"},
	{"store.bytes_per_response", "bytes"},
	{"ingest.bytes_per_response", "bytes"},
	{"budget.ledger_bytes_per_charge", "bytes"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_max", "count"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// perLayerMetrics lists every per-layer metric in report order: span
// statistics, derived splits, counters, probes.
func perLayerMetrics() []layerMetric {
	var out []layerMetric
	for k := spanKind(0); k < numSpanKinds; k++ {
		for _, s := range spanStatSuffixes {
			out = append(out, layerMetric{spanKindNames[k] + "." + s.name, s.unit})
		}
		if batchKinds[k] {
			out = append(out, layerMetric{spanKindNames[k] + ".records_per_call", "count"})
		}
	}
	out = append(out, derivedMetrics...)
	out = append(out, counterMetrics...)
	out = append(out, probeMetrics...)
	return out
}

// layerValues holds per-layer results; a name that is missing or maps
// to nil is a layer the workload does not pass through.
type layerValues map[string]*float64

func (lv layerValues) set(name string, v float64) { lv[name] = &v }

// spanStats folds one kind's spans into its statistics.
func (lv layerValues) spanStats(kind spanKind, spans []span) (p50 float64, ok bool) {
	if len(spans) == 0 {
		return 0, false
	}
	prefix := spanKindNames[kind] + "."
	durs := make([]time.Duration, len(spans))
	var busy time.Duration
	var records, counted int64
	for i, sp := range spans {
		durs[i] = time.Duration(sp.end - sp.start)
		busy += durs[i]
		if sp.records >= 0 && !sp.failed {
			records += int64(sp.records)
			counted++
		}
	}
	slices.Sort(durs)
	p50 = float64(quantileSorted(durs, 0.50)) / 1e6
	lv.set(prefix+"count", float64(len(spans)))
	lv.set(prefix+"p50_ms", p50)
	lv.set(prefix+"p99_ms", float64(quantileSorted(durs, 0.99))/1e6)
	lv.set(prefix+"busy_s", busy.Seconds())
	if batchKinds[kind] && counted > 0 {
		lv.set(prefix+"records_per_call", float64(records)/float64(counted))
	}
	return p50, true
}

// layerMetricsOf computes the span, derived and counter metrics of one
// traced pass. Probes and the tracing overhead are added by the caller.
func layerMetricsOf(m *measured) layerValues {
	lv := layerValues{}
	d := m.d
	var p50 [numSpanKinds]float64
	var have [numSpanKinds]bool
	var count [numSpanKinds]int
	for k := spanKind(0); k < numSpanKinds; k++ {
		spans := m.tracer.between(k, d.timedStart, d.timedEnd)
		count[k] = len(spans)
		p50[k], have[k] = lv.spanStats(k, spans)
	}
	diff := func(name string, outer, inner spanKind) {
		if have[outer] && have[inner] {
			lv.set(name, p50[outer]-p50[inner])
		}
	}
	diff("client.linger_p50_ms", spanClientSubmit, spanClientHTTP)
	diff("server.frontend_submit_overhead_p50_ms", spanFrontendSubmit, spanRPCSubmit)
	diff("shardrpc.wire_p50_ms", spanRPCSubmit, spanNodeSubmit)
	diff("server.node_submit_overhead_p50_ms", spanNodeSubmit, spanStoreAppend)
	if have[spanFrontendRead] && d.tp.remote != nil {
		lv.set("shardrpc.partial_calls_per_read", float64(count[spanRPCPartial])/float64(count[spanFrontendRead]))
	}

	b, a := m.before, m.after
	if a.admission != nil && b.admission != nil {
		lv.set("server.admission_admitted", float64(a.admission.Admitted-b.admission.Admitted))
		lv.set("server.admission_shed", float64(a.admission.Shed-b.admission.Shed))
		lv.set("server.admission_queue_high_water", float64(a.admission.QueueHighWater))
	}
	if a.cache != nil && b.cache != nil {
		hits, misses := a.cache.hits-b.cache.hits, a.cache.misses-b.cache.misses
		lv.set("server.frontcache_hits", float64(hits))
		lv.set("server.frontcache_misses", float64(misses))
		lv.set("server.frontcache_not_modified", float64(a.cache.notModified-b.cache.notModified))
		lv.set("server.frontcache_delta", float64(a.cache.delta-b.cache.delta))
		lv.set("server.frontcache_full", float64(a.cache.full-b.cache.full))
		if hits+misses > 0 {
			lv.set("server.frontcache_hit_ratio", float64(hits)/float64(hits+misses))
		}
	}
	if a.ingest != nil && b.ingest != nil {
		appends, commits := a.ingest.Appends-b.ingest.Appends, a.ingest.Commits-b.ingest.Commits
		lv.set("ingest.appends", float64(appends))
		lv.set("ingest.commits", float64(commits))
		if commits > 0 {
			lv.set("ingest.records_per_commit", float64(appends)/float64(commits))
		}
		lv.set("ingest.rotations", float64(a.ingest.Rotations-b.ingest.Rotations))
		lv.set("ingest.snapshots", float64(a.ingest.Snapshots-b.ingest.Snapshots))
		if m.acked > 0 {
			lv.set("ingest.bytes_per_response", float64(m.dirs.ingest)/float64(m.acked))
		}
	}
	if a.budget != nil && b.budget != nil {
		lv.set("budget.charges", float64(a.budget.charges-b.budget.charges))
		lv.set("budget.rejected", float64(a.budget.rejected-b.budget.rejected))
		lv.set("budget.wal_records", float64(a.budget.walRecords))
		lv.set("budget.compactions", float64(a.budget.compactions-b.budget.compactions))
		if a.budget.charges > 0 {
			lv.set("budget.ledger_bytes_per_charge", float64(m.dirs.budget)/float64(a.budget.charges))
		}
	}
	if a.journal != nil {
		lv.set("shardset.journal_entries", float64(a.journal.entries))
		lv.set("shardset.journal_retained_bytes", float64(a.journal.retainedBytes))
		if m.acked > 0 {
			lv.set("store.bytes_per_response", float64(m.dirs.stores)/float64(m.acked))
		}
	}
	if a.client != nil && b.client != nil {
		lv.set("client.batches", float64(a.client.batches-b.client.batches))
		lv.set("client.retries", float64(a.client.retries-b.client.retries))
		lv.set("client.throttled", float64(a.client.throttled-b.client.throttled))
	}
	if d.tp.checkpoints != nil {
		lv.set("checkpoint.bytes", float64(m.dirs.checkpoints))
	}
	if ops := d.timedOps; ops > 0 {
		lv.set("runtime.alloc_bytes_per_op", float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/float64(ops))
		lv.set("runtime.mallocs_per_op", float64(a.mem.Mallocs-b.mem.Mallocs)/float64(ops))
	}
	lv.set("runtime.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6)
	lv.set("runtime.goroutines_max", float64(m.goroutinesMax))
	if len(d.genLag) > 0 {
		lv.set("bench.gen_lag_p99_ms", float64(quantileOf(d.genLag, 0.99))/1e6)
	}
	return lv
}
