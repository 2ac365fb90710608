package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/store"
	"loki/internal/survey"
)

// The traced run times the calls into each layer from outside it, with
// decorators at the interface seams: http.RoundTripper on the batching
// client and on every shardrpc client, http.Handler around the frontend
// and around each node's shardrpc handler, store.Store around each
// shard's file store and around the ingest store. A decorator may not
// change the path the wrapped value's callers take, so the store
// decorator forwards the optional interfaces (store.BatchAppender,
// store.Historian) exactly when the wrapped store has them, and the
// frontend's router is left bare because the server type-asserts it.
//
// Spans are not linked per request: the shardrpc batcher coalesces many
// frontend submits into one RPC inside the program, so causality is not
// visible from out here. Attribution is by nesting of kinds instead
// (frontend ⊃ rpc ⊃ node ⊃ store), compared at the median.

// spanKind names a seam. The string is the metric prefix: layer first.
type spanKind uint8

const (
	spanClientSubmit spanKind = iota
	spanClientHTTP
	spanFrontendSubmit
	spanFrontendRead
	spanRPCSubmit
	spanRPCPartial
	spanNodeSubmit
	spanNodePartial
	spanStoreAppend
	spanIngestAppend
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"client.submit",
	"client.http",
	"server.frontend_submit",
	"server.frontend_read",
	"shardrpc.submit_call",
	"shardrpc.partial_call",
	"server.node_submit",
	"server.node_partial",
	"store.append",
	"ingest.append",
}

// batchKinds carry several records per call, so they also report
// records_per_call.
var batchKinds = [numSpanKinds]bool{
	spanClientHTTP:  true,
	spanRPCSubmit:   true,
	spanNodeSubmit:  true,
	spanStoreAppend: true,
}

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; shard is -1 where the seam has none.
type span struct {
	kind    spanKind
	failed  bool
	shard   int16
	records int32
	start   int64
	end     int64
}

// tracer keeps spans in memory, one bucket per kind so concurrent seams
// do not contend on one lock, and writes them out when the run ends.
type tracer struct {
	epoch   time.Time
	buckets [numSpanKinds]struct {
		mu sync.Mutex
		s  []span
	}
	// chargeCalls counts separate budget-charge RPCs (submits whose
	// charge could not ride the submit RPC). Not a latency kind; the
	// conformance test compares it with what placement predicts.
	chargeCalls atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(kind spanKind, start, end time.Time, shard, records int, failed bool) {
	b := &t.buckets[kind]
	sp := span{
		kind: kind, failed: failed, shard: int16(shard), records: int32(records),
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
	}
	b.mu.Lock()
	b.s = append(b.s, sp)
	b.mu.Unlock()
}

// between returns the kind's spans that started inside [from, to).
func (t *tracer) between(kind spanKind, from, to time.Time) []span {
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	b := &t.buckets[kind]
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []span
	for _, sp := range b.s {
		if sp.start >= lo && sp.start < hi {
			out = append(out, sp)
		}
	}
	return out
}

// spanLine is the JSON-lines form of one span.
type spanLine struct {
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Shard   int    `json:"shard"`
	Records int    `json:"records"`
	Error   bool   `json:"error,omitempty"`
}

// writeSpans dumps every span as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for k := range t.buckets {
		b := &t.buckets[k]
		b.mu.Lock()
		for _, sp := range b.s {
			if err := enc.Encode(spanLine{
				Kind: spanKindNames[sp.kind], StartNS: sp.start, EndNS: sp.end,
				Shard: int(sp.shard), Records: int(sp.records), Error: sp.failed,
			}); err != nil {
				b.mu.Unlock()
				f.Close()
				return err
			}
		}
		b.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// HTTP seams

// classifyPublic maps a public-API request to the frontend span kind it
// belongs to; ok is false for routes that are not timed.
func classifyPublic(r *http.Request) (spanKind, bool) {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/responses"):
		return spanFrontendSubmit, true
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/aggregate"):
		return spanFrontendRead, true
	}
	return 0, false
}

// rpcRoute is what a shardrpc request is, by its path.
type rpcRoute uint8

const (
	rpcOther rpcRoute = iota
	rpcSubmit
	rpcPartial
	rpcCharge
)

func classifyRPC(r *http.Request) rpcRoute {
	p := r.URL.Path
	switch {
	case p == "/shardrpc/v1/submit":
		return rpcSubmit
	case strings.HasSuffix(p, "/partial"):
		return rpcPartial
	case p == "/shardrpc/v1/budget/charge":
		return rpcCharge
	}
	return rpcOther
}

// rpcShard reads the shard out of a /shardrpc/v1/shards/{shard}/... path.
func rpcShard(path string) int {
	const prefix = "/shardrpc/v1/shards/"
	if !strings.HasPrefix(path, prefix) {
		return -1
	}
	rest := path[len(prefix):]
	if i := strings.IndexByte(rest, '/'); i > 0 {
		if n, err := strconv.Atoi(rest[:i]); err == nil {
			return n
		}
	}
	return -1
}

// jsonIntField finds `"name":<int>` in a JSON body without decoding it;
// -1 when absent. The submit replies lead with their record count, so
// this reads the count a call carried for the price of one scan.
func jsonIntField(body []byte, name string) int {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return -1
	}
	n, seen := 0, false
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n, seen = n*10+int(c-'0'), true
	}
	if !seen {
		return -1
	}
	return n
}

// captureWriter passes a response through and keeps a copy of its body.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.body.Write(b)
	return c.ResponseWriter.Write(b)
}

// traceFrontend times public submits and aggregate reads on the way
// into the frontend's handler.
func traceFrontend(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, ok := classifyPublic(r)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		records := 1
		if kind == spanFrontendSubmit && r.URL.Path == "/api/v1/responses" {
			records = jsonIntField(cw.body.Bytes(), "accepted")
		}
		t.record(kind, start, end, -1, records, cw.status >= 400)
	})
}

// traceNode times submit and partial RPCs on the way into a node's
// shardrpc handler.
func traceNode(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := classifyRPC(r)
		if route != rpcSubmit && route != rpcPartial {
			next.ServeHTTP(w, r)
			return
		}
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		if route == rpcSubmit {
			t.record(spanNodeSubmit, start, end, -1, jsonIntField(cw.body.Bytes(), "appended"), cw.status != http.StatusOK)
			return
		}
		t.record(spanNodePartial, start, end, rpcShard(r.URL.Path), 0, cw.status != http.StatusOK)
	})
}

// tracedTransport times round trips. It reads the whole reply before
// returning, so a span ends when the last byte arrived, and hands the
// caller the buffered body.
type tracedTransport struct {
	t    *tracer
	next http.RoundTripper
	// classify maps a request to its span kind, the shard it addresses
	// and the reply field holding the records it carried ("" for none).
	classify func(r *http.Request) (kind spanKind, shard int, countField string, ok bool)
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	kind, shard, field, ok := tt.classify(r)
	if !ok {
		return tt.next.RoundTrip(r)
	}
	start := time.Now()
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		tt.t.record(kind, start, time.Now(), shard, 0, true)
		return nil, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if rerr != nil {
		tt.t.record(kind, start, end, shard, 0, true)
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	records := 0
	if field != "" {
		records = jsonIntField(body, field)
	}
	tt.t.record(kind, start, end, shard, records, resp.StatusCode != http.StatusOK)
	return resp, nil
}

// traceRPCTransport decorates a shardrpc client's transport.
func traceRPCTransport(t *tracer, next http.RoundTripper) http.RoundTripper {
	return &tracedTransport{t: t, next: next, classify: func(r *http.Request) (spanKind, int, string, bool) {
		switch classifyRPC(r) {
		case rpcSubmit:
			return spanRPCSubmit, -1, "appended", true
		case rpcPartial:
			return spanRPCPartial, rpcShard(r.URL.Path), "", true
		case rpcCharge:
			t.chargeCalls.Add(1)
		}
		return 0, 0, "", false
	}}
}

// traceClientTransport decorates the batching client's transport.
func traceClientTransport(t *tracer, next http.RoundTripper) http.RoundTripper {
	return &tracedTransport{t: t, next: next, classify: func(r *http.Request) (spanKind, int, string, bool) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/responses" {
			return spanClientHTTP, -1, "accepted", true
		}
		return 0, 0, "", false
	}}
}

// ---------------------------------------------------------------------------
// Store seam

// tracedStore times appends into a store.Store. Everything else is the
// embedded store's own method.
type tracedStore struct {
	store.Store
	t     *tracer
	kind  spanKind
	shard int
}

func (s *tracedStore) AppendResponse(r *survey.Response) error {
	start := time.Now()
	err := s.Store.AppendResponse(r)
	s.t.record(s.kind, start, time.Now(), s.shard, 1, err != nil)
	return err
}

// tracedBatch adds the batch append to a tracedStore whose inner store
// has one.
type tracedBatch struct {
	ts *tracedStore
	ba store.BatchAppender
}

func (b tracedBatch) AppendResponses(rs []survey.Response) ([]int, error) {
	start := time.Now()
	counts, err := b.ba.AppendResponses(rs)
	b.ts.t.record(b.ts.kind, start, time.Now(), b.ts.shard, len(counts), err != nil)
	return counts, err
}

// traceStore decorates st. The result implements store.BatchAppender
// and store.Historian exactly when st does: shardset picks the one-fsync
// batch path by asserting the former, the admin surface reads republish
// history through the latter, and neither may change under tracing.
func traceStore(t *tracer, st store.Store, kind spanKind, shard int) store.Store {
	ts := &tracedStore{Store: st, t: t, kind: kind, shard: shard}
	ba, isBatch := st.(store.BatchAppender)
	h, isHist := st.(store.Historian)
	switch {
	case isBatch && isHist:
		return struct {
			*tracedStore
			tracedBatch
			store.Historian
		}{ts, tracedBatch{ts, ba}, h}
	case isBatch:
		return struct {
			*tracedStore
			tracedBatch
		}{ts, tracedBatch{ts, ba}}
	case isHist:
		return struct {
			*tracedStore
			store.Historian
		}{ts, h}
	}
	return ts
}
