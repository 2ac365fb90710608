package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// updateGolden regenerates testdata/submit_wire/sections_*.golden from
// whatever the code under test answers. The other goldens there were
// generated by the commit BEFORE the submit pipeline was unified, from
// the per-shard request that calls of one section replaced; they stay as
// they are, as the oracle for those calls (TestSubmitWireGolden).
var updateGolden = flag.Bool("update-golden", false, "rewrite the sections wire goldens from the current code")

// failingStore fails every append from the failAt-th on (1-based) with
// a fixed error. Embedding the interface hides the Mem's batch appender,
// so a batch lands record by record and a mid-batch failure leaves a
// durable prefix — the shape a real disk error has.
type failingStore struct {
	store.Store
	failAt  int
	appends int
}

var errDiskOnFire = errors.New("disk on fire")

func (f *failingStore) AppendResponse(r *survey.Response) error {
	f.appends++
	if f.appends >= f.failAt {
		return errDiskOnFire
	}
	return f.Store.AppendResponse(r)
}

func (f *failingStore) AppendResponses(rs []survey.Response) ([]int, error) { return appendEach(f, rs) }

// wireNode is one real Node behind shardrpc.NewHandler, the unit the
// wire goldens (and the pipeline tests) drive.
type wireNode struct {
	url   string
	node  *Node
	srv   *Server
	local *shardset.Local
	set   *budget.Set
}

// wireNodeOpts shapes a wireNode. Zero value: shards {0,1} of a 2-shard
// cluster over Mem stores, both overload gates off, no budget shards.
type wireNodeOpts struct {
	owned  []int
	total  int
	store  func(local int) store.Store
	cfg    Config
	budget *budget.SetOptions
	// wrap, when set, fronts the node's shardrpc handler.
	wrap func(http.Handler) http.Handler
}

func newWireNode(t *testing.T, o wireNodeOpts) *wireNode {
	t.Helper()
	if o.owned == nil {
		o.owned = []int{0, 1}
	}
	if o.total == 0 {
		o.total = len(o.owned)
	}
	stores := make([]store.Store, len(o.owned))
	for i := range stores {
		stores[i] = store.NewMem()
		if o.store != nil {
			stores[i] = o.store(i)
		}
	}
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: o.owned, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	cfg := o.cfg
	cfg.Router, cfg.Schedule, cfg.RequesterToken, cfg.ClusterToken, cfg.Role = local, core.DefaultSchedule(), testToken, testClusterToken, "node"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	node, err := NewNode(srv, o.total)
	if err != nil {
		t.Fatal(err)
	}
	wn := &wireNode{node: node, srv: srv, local: local}
	if o.budget != nil {
		bo := *o.budget
		bo.Dir = t.TempDir()
		set, err := budget.NewSet(bo)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close() })
		node.HostBudget(set)
		wn.set = set
	}
	h, err := shardrpc.NewHandler(node, testClusterToken)
	if err != nil {
		t.Fatal(err)
	}
	var rpc http.Handler = h
	if o.wrap != nil {
		rpc = o.wrap(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/shardrpc/", rpc)
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	wn.url = ts.URL
	if _, err := node.Publish(clusterTestSurvey()); err != nil {
		t.Fatal(err)
	}
	return wn
}

// wireBudget hosts every budget shard of a two-shard space with the
// three-medium-responses cap the budget tests use.
func wireBudget(t *testing.T) *budget.SetOptions {
	return &budget.SetOptions{Shards: 2, GlobalIDs: []int{0, 1}, Config: budgetTestConfig(t)}
}

// wireCharge prices one response the way a frontend would.
func wireCharge(t *testing.T, r *survey.Response, enforce bool) budget.Charge {
	return budget.Charge{
		WorkerID: r.WorkerID, SurveyID: r.SurveyID,
		Rho: responseRho(t, clusterTestSurvey(), r.PrivacyLevel), Enforce: enforce,
	}
}

// wireBatch builds a shard-0 submit for the named workers (medium
// level), charged in the given mode when mode is "enforce" or "log".
func wireBatch(t *testing.T, mode string, workers ...string) *shardrpc.SubmitRequest {
	req := &shardrpc.SubmitRequest{Shard: 0}
	for _, w := range workers {
		r := budgetResponse(clusterTestSurvey(), w, "medium")
		req.Responses = append(req.Responses, *r)
		if mode != "" {
			req.Charges = append(req.Charges, wireCharge(t, r, mode == "enforce"))
		}
	}
	return req
}

// appendedHeader carried a failed per-shard request's durable prefix
// before every submit became a node call. The per-shard goldens record
// it, and the sections goldens pin that no reply carries it now.
const appendedHeader = "X-Shardrpc-Appended"

// wireReply is the part of a submit answer the contract pins.
type wireReply struct {
	status     int
	appended   string
	retryAfter string
	body       []byte
}

func (r wireReply) String() string {
	return fmt.Sprintf("status: %d\n%s: %s\nRetry-After: %s\nbody:\n%s",
		r.status, appendedHeader, r.appended, r.retryAfter, r.body)
}

// postRawSubmit posts body bytes as they are; ctype "" sends no
// Content-Type. It is ctx-less and t-less so goroutines other than the
// test's own can use it.
func postRawSubmit(url, ctype string, body []byte) (wireReply, error) {
	hreq, err := http.NewRequest(http.MethodPost, url+"/shardrpc/v1/submit", bytes.NewReader(body))
	if err != nil {
		return wireReply{}, err
	}
	hreq.Header.Set("Authorization", "Bearer "+testClusterToken)
	if ctype != "" {
		hreq.Header.Set("Content-Type", ctype)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return wireReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return wireReply{}, err
	}
	return wireReply{
		status:     resp.StatusCode,
		appended:   resp.Header.Get(appendedHeader),
		retryAfter: resp.Header.Get("Retry-After"),
		body:       raw,
	}, nil
}

// doSubmit posts req as a call of one section and answers with that
// section read as the per-shard reply the goldens record (asPerShard).
func doSubmit(url string, req *shardrpc.SubmitRequest) (wireReply, error) {
	body, err := shardrpc.SubmitSections{*req}.AppendBinary(nil)
	if err != nil {
		return wireReply{}, err
	}
	r, err := postRawSubmit(url, shardrpc.SubmitContentType, body)
	if err != nil {
		return wireReply{}, err
	}
	return asPerShard(r)
}

func postSubmit(t *testing.T, url string, req *shardrpc.SubmitRequest) wireReply {
	t.Helper()
	r, err := doSubmit(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// asPerShard reads the reply to a call of one section in the shape of a
// per-shard reply: the section's status and Retry-After are the reply's;
// a refused section's error is the body, written as the node writes an
// error body, and its durable prefix, if any, the appendedHeader value;
// a 200 section's body is its result, byte for byte. A call refused
// whole is returned as it is.
func asPerShard(r wireReply) (wireReply, error) {
	if r.status != http.StatusOK {
		return r, nil
	}
	var res struct{ Sections []json.RawMessage }
	if err := json.Unmarshal(r.body, &res); err != nil || len(res.Sections) != 1 {
		return r, fmt.Errorf("not the reply to a call of one section (%v): %s", err, r.body)
	}
	raw := res.Sections[0]
	var sec shardrpc.SectionResult
	if err := json.Unmarshal(raw, &sec); err != nil {
		return r, err
	}
	out := wireReply{status: sec.Status}
	if sec.RetryAfter != 0 {
		out.retryAfter = strconv.Itoa(sec.RetryAfter)
	}
	if sec.Status == http.StatusOK {
		head := []byte(`{"status":200,`)
		if !bytes.HasPrefix(raw, head) {
			return r, fmt.Errorf("a 200 section does not lead with its status: %s", raw)
		}
		out.body = append(append([]byte("{"), raw[len(head):]...), '\n')
		return out, nil
	}
	if sec.SubmitResult != nil {
		out.appended = strconv.Itoa(sec.Appended)
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(map[string]string{"error": sec.Error}); err != nil {
		return r, err
	}
	out.body = body.Bytes()
	return out, nil
}

// postJSONRefused posts req's JSON with no Content-Type, the per-shard
// request frontends sent before the binary body, and holds the node to
// refusing it before the pipeline runs: a 400 that leaves every shard
// count and ledger account the request names as it was.
func postJSONRefused(t *testing.T, url string, req *shardrpc.SubmitRequest) wireReply {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	before := touched(t, url, req)
	r, err := postRawSubmit(url, "", body)
	if err != nil {
		t.Fatal(err)
	}
	if r.status != http.StatusBadRequest || r.appended != "" {
		t.Errorf("JSON submit body: %v", r)
	}
	if after := touched(t, url, req); after != before {
		t.Errorf("a refused JSON body changed the node\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	return r
}

// touched reads, through the node's shardrpc surface, the shard count of
// every survey req's responses name and the account of every worker they
// and its charges name, on a two-shard budget space.
func touched(t *testing.T, url string, req *shardrpc.SubmitRequest) string {
	t.Helper()
	var paths []string
	for _, r := range req.Responses {
		paths = append(paths, fmt.Sprintf("/shardrpc/v1/shards/%d/count?survey=%s", req.Shard, r.SurveyID),
			fmt.Sprintf("/shardrpc/v1/budget/%d/peek?worker=%s", budget.Route(r.WorkerID, 2), r.WorkerID))
	}
	for _, c := range req.Charges {
		if c.WorkerID != "" {
			paths = append(paths, fmt.Sprintf("/shardrpc/v1/budget/%d/peek?worker=%s", budget.Route(c.WorkerID, 2), c.WorkerID))
		}
	}
	var out strings.Builder
	for _, p := range paths {
		hreq, err := http.NewRequest(http.MethodGet, url+p, nil)
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Authorization", "Bearer "+testClusterToken)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %d %s", p, resp.StatusCode, raw)
	}
	return out.String()
}

// fencedManifest places both shards of the wire node at the given epoch
// with the given primary URL.
func fencedManifest(t *testing.T, primary string, epoch uint64) *placement.Manifest {
	t.Helper()
	m, err := placement.RoundRobin(2, []string{primary})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Epoch = epoch
	}
	return m
}

// wireReplica follows a fresh wire node, by a manifest at epoch 0 (no
// fence epoch, like a manifest-less cluster); promoted flips shard 0
// writable first. The stores its resync opens land a batch record by
// record (seqStore), like the node entry's of the pipeline test.
func wireReplica(t *testing.T, promoted bool) (*Node, string) {
	t.Helper()
	wn := newWireNode(t, wireNodeOpts{})
	rep, ts := newFollower(t, shardrpc.NewClient(wn.url, testClusterToken, nil), FollowOptions{
		OpenStore: func(int) (store.Store, error) { return seqStore{store.NewMem()}, nil },
	})
	rep.ApplyManifest(followManifest(t, 2, wn.url, ts.URL, 0), ts.URL)
	rep.SyncOnce()
	if promoted {
		if _, err := rep.Promote(0); err != nil {
			t.Fatal(err)
		}
	}
	return rep, ts.URL
}

// slowLimit is a per-worker bucket of one token that effectively never
// refills: a worker's second record is always throttled, with the same
// Retry-After whenever the test runs.
var slowLimit = Config{RateLimitRPS: 1e-6, RateLimitBurst: 1}

// TestSubmitWireGolden holds POST /shardrpc/v1/submit, for every verdict
// the node's submit pipeline can reach, to the goldens the per-shard
// request recorded: the case sent as a call of one section (binary/)
// answers, read by asPerShard, with the golden's status, appendedHeader,
// Retry-After and body, byte for byte. The same request as JSON (json/),
// the body frontends sent before the binary one, is refused with no
// side effect.
func TestSubmitWireGolden(t *testing.T) {
	t.Run("json", func(t *testing.T) { submitWireGolden(t, postJSONRefused, false) })
	t.Run("binary", func(t *testing.T) { submitWireGolden(t, postSubmit, true) })
}

// submitWireGolden runs every case, sending its pinned request through
// post, and holds the reply to the case's golden when pinned is set.
// Requests that only set a case up go as calls of one section.
func submitWireGolden(t *testing.T, post func(*testing.T, string, *shardrpc.SubmitRequest) wireReply, pinned bool) {
	cases := []struct {
		name string
		run  func(t *testing.T) wireReply
		// permit lists {golden text, accepted replacement} pairs: the
		// documented wire differences from the commit the goldens came
		// from.
		permit [][2]string
	}{
		{name: "plain_ok", run: func(t *testing.T) wireReply {
			return post(t, newWireNode(t, wireNodeOpts{}).url, wireBatch(t, "", "a", "b", "c"))
		}},
		{name: "plain_fail_midbatch", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{store: func(int) store.Store {
				return &failingStore{Store: store.NewMem(), failAt: 3}
			}})
			return post(t, wn.url, wireBatch(t, "", "a", "b", "c", "d"))
		}},
		{name: "plain_unknown_survey", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "", "a", "b")
			req.Responses[1].SurveyID = "ghost"
			return post(t, newWireNode(t, wireNodeOpts{}).url, req)
		}},
		{name: "charged_ok", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "enforce", "a", "b", "c")
			req.Charges[1] = budget.Charge{} // an uncharged entry rides along
			return post(t, newWireNode(t, wireNodeOpts{budget: wireBudget(t)}).url, req)
		}},
		{name: "charged_rejected", run: func(t *testing.T) wireReply {
			// The cap admits three medium responses; the fourth charge of
			// one worker in one batch is refused mid-batch.
			req := wireBatch(t, "enforce", "a", "a", "a", "a", "b")
			return post(t, newWireNode(t, wireNodeOpts{budget: wireBudget(t)}).url, req)
		}},
		{name: "charged_enforce_undecided", run: func(t *testing.T) wireReply {
			// A malformed charge fails the whole ledger call: every charged
			// entry is undecided and, enforcing, fails closed.
			req := wireBatch(t, "enforce", "a", "b", "c")
			req.Charges[1].Rho = -1
			req.Charges[2] = budget.Charge{}
			return post(t, newWireNode(t, wireNodeOpts{budget: wireBudget(t)}).url, req)
		}},
		{name: "charged_log_fail_open", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "log", "a", "b")
			req.Charges[1].Rho = -1
			return post(t, newWireNode(t, wireNodeOpts{budget: wireBudget(t)}).url, req)
		}},
		{name: "charged_mixed_undecided", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "enforce", "a", "b")
			req.Charges[0].Rho = -1
			req.Charges[1].Enforce = false
			return post(t, newWireNode(t, wireNodeOpts{budget: wireBudget(t)}).url, req)
		}},
		{name: "charged_log_over_cap", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "log", "a", "a", "a", "a")
			return post(t, newWireNode(t, wireNodeOpts{budget: wireBudget(t)}).url, req)
		}},
		{name: "charged_append_failure_refund", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{budget: wireBudget(t), store: func(int) store.Store {
				return &failingStore{Store: store.NewMem(), failAt: 2}
			}})
			req := wireBatch(t, "enforce", "a", "b", "c")
			req.Charges[2] = budget.Charge{}
			return post(t, wn.url, req)
		}},
		{name: "throttled_plain", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{cfg: slowLimit})
			return post(t, wn.url, wireBatch(t, "", "a", "a", "b"))
		}},
		{name: "throttled_plain_append_failure", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{cfg: slowLimit, store: func(int) store.Store {
				return &failingStore{Store: store.NewMem(), failAt: 2}
			}})
			return post(t, wn.url, wireBatch(t, "", "a", "a", "b", "c"))
		}},
		{name: "throttled_charged", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{cfg: slowLimit, budget: wireBudget(t)})
			return post(t, wn.url, wireBatch(t, "enforce", "a", "b", "a", "c"))
		}},
		{name: "throttled_charged_append_failure", run: func(t *testing.T) wireReply {
			// Three per-record verdicts in one reply: stored, throttled,
			// and append failures whose charges are refunded.
			wn := newWireNode(t, wireNodeOpts{cfg: slowLimit, budget: wireBudget(t), store: func(int) store.Store {
				return &failingStore{Store: store.NewMem(), failAt: 2}
			}})
			return post(t, wn.url, wireBatch(t, "enforce", "a", "a", "b", "c"))
		}},
		{name: "throttled_all_charged", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{cfg: slowLimit, budget: wireBudget(t)})
			if r := postSubmit(t, wn.url, wireBatch(t, "enforce", "a", "b")); r.status != http.StatusOK {
				t.Fatalf("bucket-draining batch: %v", r)
			}
			return post(t, wn.url, wireBatch(t, "enforce", "a", "b"))
		}},
		{name: "limiter_on_nothing_throttled", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{cfg: slowLimit})
			return post(t, wn.url, wireBatch(t, "", "a", "b"))
		}},
		{name: "shed", run: func(t *testing.T) wireReply {
			release := make(chan struct{})
			wn := newWireNode(t, wireNodeOpts{
				cfg: Config{SubmitInflight: 1},
				store: func(int) store.Store {
					return &blockingStore{Store: store.NewMem(), release: release}
				},
			})
			unblock := sync.OnceFunc(func() { close(release) })
			t.Cleanup(unblock) // before the node's cleanups, whatever fails
			held := wireBatch(t, "", "a")
			first := make(chan wireReply, 1)
			go func() {
				r, err := doSubmit(wn.url, held)
				if err != nil {
					t.Error(err)
				}
				first <- r
			}()
			waitFor(t, "the first batch to hold the only slot", func() bool {
				return wn.srv.admissionInfo().Inflight == 1
			})
			shed := post(t, wn.url, wireBatch(t, "", "b"))
			unblock()
			if r := <-first; r.status != http.StatusOK {
				t.Fatalf("admitted batch: %v", r)
			}
			return shed
		}},
		{name: "fenced_stale_stamp", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{})
			wn.node.ApplyManifest(fencedManifest(t, wn.url, 3), wn.url)
			req := wireBatch(t, "", "a")
			req.Epoch = 2
			return post(t, wn.url, req)
		}},
		{name: "fenced_demoted", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{})
			wn.node.ApplyManifest(fencedManifest(t, "http://the-new-primary", 4), wn.url)
			return post(t, wn.url, wireBatch(t, "", "a"))
		}},
		{name: "fenced_replica_unpromoted", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "", "a")
			req.Epoch = 1
			_, url := wireReplica(t, false)
			return post(t, url, req)
		}},
		{name: "epoch_current_ok", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{})
			wn.node.ApplyManifest(fencedManifest(t, wn.url, 3), wn.url)
			req := wireBatch(t, "", "a")
			req.Epoch = 3
			return post(t, wn.url, req)
		}},
		{name: "not_owned", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "", "a")
			req.Shard = 7
			return post(t, newWireNode(t, wireNodeOpts{}).url, req)
		}},
		{name: "unhosted_budget_shard", run: func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{budget: &budget.SetOptions{
				Shards: 2, GlobalIDs: []int{0}, Config: budgetTestConfig(t),
			}})
			// One worker per budget shard: the batch spans a hosted and an
			// unhosted one and must fail whole.
			var hosted, unhosted string
			for i := 0; hosted == "" || unhosted == ""; i++ {
				w := fmt.Sprintf("w%d", i)
				if budget.Route(w, 2) == 0 {
					hosted = w
				} else {
					unhosted = w
				}
			}
			return post(t, wn.url, wireBatch(t, "enforce", hosted, unhosted))
		}},
		{name: "charged_no_budget", run: func(t *testing.T) wireReply {
			return post(t, newWireNode(t, wireNodeOpts{}).url, wireBatch(t, "enforce", "a"))
		}},
		{name: "misaligned_charges", run: func(t *testing.T) wireReply {
			req := wireBatch(t, "enforce", "a", "b")
			req.Charges = req.Charges[:1]
			return post(t, newWireNode(t, wireNodeOpts{budget: wireBudget(t)}).url, req)
		}},
		{name: "empty_batch", run: func(t *testing.T) wireReply {
			return post(t, newWireNode(t, wireNodeOpts{}).url, &shardrpc.SubmitRequest{Shard: 0})
		}},
		{name: "replica_promoted_plain_ok", run: func(t *testing.T) wireReply {
			_, url := wireReplica(t, true)
			return post(t, url, wireBatch(t, "", "a", "b"))
		}},
		{name: "replica_promoted_charged", run: func(t *testing.T) wireReply {
			_, url := wireReplica(t, true)
			return post(t, url, wireBatch(t, "enforce", "a"))
		}, permit: [][2]string{{
			"this node does not accept piggybacked budget charges",
			"server: node hosts no budget shards",
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t).String()
			if !pinned {
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", "submit_wire", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.permit {
				got = strings.Replace(got, p[1], p[0], 1)
			}
			if got != string(want) {
				t.Fatalf("wire reply changed\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSubmitBinaryBodyMalformed: a body that is not a sections body
// under SubmitContentType — cut anywhere, followed by junk, of no
// section, a per-shard 0xB2 body, JSON, or sent without that content
// type — is a 400 decided before the pipeline runs: no charge reaches
// the ledger and nothing is appended.
func TestSubmitBinaryBodyMalformed(t *testing.T) {
	wn := newWireNode(t, wireNodeOpts{budget: wireBudget(t)})
	req := wireBatch(t, "enforce", "a", "b")
	whole, err := shardrpc.SubmitSections{*req}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type body struct {
		ctype string
		bytes []byte
	}
	binary := func(b []byte) body { return body{shardrpc.SubmitContentType, b} }
	bad := map[string]body{
		"empty":            binary(nil),
		"trailing junk":    binary(append(bytes.Clone(whole), 0)),
		"no section":       binary([]byte{0xB3, 0}),
		"a per-shard body": binary(append([]byte{0xB2}, whole[2:]...)),
		"a JSON body under the binary content type": binary(js),
		"a JSON body":     {"application/json", js},
		"no content type": {"", whole},
	}
	for cut := 1; cut < len(whole); cut += 7 {
		bad[fmt.Sprintf("cut at %d", cut)] = binary(whole[:cut])
	}
	for name, b := range bad {
		r, err := postRawSubmit(wn.url, b.ctype, b.bytes)
		if err != nil {
			t.Fatal(err)
		}
		want := `{"error":"malformed binary body: `
		if b.ctype != shardrpc.SubmitContentType {
			want = `{"error":"submit body must be application/x-loki-submit`
		}
		if r.status != http.StatusBadRequest || r.appended != "" || !bytes.HasPrefix(r.body, []byte(want)) {
			t.Errorf("%s: %v", name, r)
		}
	}
	if n := wn.local.CountShard(0, clusterTestSurvey().ID); n != 0 {
		t.Errorf("%d responses appended from malformed bodies", n)
	}
	for _, w := range []string{"a", "b"} {
		if acct, err := wn.set.Peek(w); err != nil || acct.Charges != 0 {
			t.Errorf("worker %q charged by a malformed body: %+v, %v", w, acct, err)
		}
	}
	// The same bytes, whole, go through.
	if r, err := postRawSubmit(wn.url, shardrpc.SubmitContentType, whole); err != nil || r.status != http.StatusOK {
		t.Fatalf("whole body: %v, %v", r, err)
	}
}
