package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"loki/internal/budget"
	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/store"
	"loki/internal/survey"
)

// Node calls: one submit call and one charge call per node, each shard a
// section (or group) of it, refused or answered on its own.

// postSections posts a sections body as it is.
func postSections(t *testing.T, url string, secs shardrpc.SubmitSections) wireReply {
	t.Helper()
	body, err := secs.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := postRawSubmit(url, shardrpc.SubmitContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sectionsReply decodes a sections reply, failing unless it is one.
func sectionsReply(t *testing.T, r wireReply) shardrpc.SectionsResult {
	t.Helper()
	var res shardrpc.SectionsResult
	if r.status != http.StatusOK {
		t.Fatalf("sections call: %v", r)
	}
	if err := json.Unmarshal(r.body, &res); err != nil {
		t.Fatalf("sections reply %s: %v", r.body, err)
	}
	return res
}

// firstAppended reads the first `"appended":<int>` of a reply body the
// way a byte scan does — what benchmark/trace.go counts a call's records
// by — or -1.
func firstAppended(body []byte) int {
	key := []byte(`"appended":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return -1
	}
	rest := body[i+len(key):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return n
}

// splitManifest makes the wire node primary for shard 0 and places shard
// 1 elsewhere, both at epoch 3: the node fences shard 1.
func splitManifest(t *testing.T, self string) *placement.Manifest {
	t.Helper()
	m, err := placement.RoundRobin(2, []string{self, "http://elsewhere"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Epoch = 3
	}
	return m
}

// onShard returns wireBatch's request for the given workers, addressed
// to shard.
func onShard(t *testing.T, shard int, mode string, workers ...string) shardrpc.SubmitRequest {
	req := wireBatch(t, mode, workers...)
	req.Shard = shard
	return *req
}

// TestSectionsWireGolden pins the sections body's reply byte for byte,
// like TestSubmitWireGolden pins the per-shard one, and holds every
// reply's first "appended" key to the call's total.
func TestSectionsWireGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) wireReply
	}{
		{"sections_ok", func(t *testing.T) wireReply {
			return postSections(t, newWireNode(t, wireNodeOpts{}).url, shardrpc.SubmitSections{
				onShard(t, 0, "", "a", "b"), onShard(t, 1, "", "c")})
		}},
		{"sections_fenced_and_live", func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{budget: wireBudget(t)})
			wn.node.ApplyManifest(splitManifest(t, wn.url), wn.url)
			live, fenced := onShard(t, 0, "enforce", "a"), onShard(t, 1, "enforce", "b")
			live.Epoch, fenced.Epoch = 3, 3
			return postSections(t, wn.url, shardrpc.SubmitSections{live, fenced})
		}},
		{"sections_charged_rejected", func(t *testing.T) wireReply {
			// The cap admits three medium responses: the fourth charge of
			// "a", in the second section, is refused in the call's one
			// ledger commit.
			wn := newWireNode(t, wireNodeOpts{budget: wireBudget(t)})
			return postSections(t, wn.url, shardrpc.SubmitSections{
				onShard(t, 0, "enforce", "a", "a", "b"), onShard(t, 1, "enforce", "a", "a", "c")})
		}},
		{"sections_append_failure_refund", func(t *testing.T) wireReply {
			wn := newWireNode(t, wireNodeOpts{budget: wireBudget(t), store: func(local int) store.Store {
				if local == 1 {
					return &failingStore{Store: store.NewMem(), failAt: 2}
				}
				return store.NewMem()
			}})
			return postSections(t, wn.url, shardrpc.SubmitSections{
				onShard(t, 0, "enforce", "a", "b"), onShard(t, 1, "enforce", "c", "d", "e")})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.run(t)
			total := 0
			for _, sr := range sectionsReply(t, r).Sections {
				if sr.SubmitResult != nil {
					total += sr.Appended
				}
			}
			if got := firstAppended(r.body); got != total {
				t.Errorf("first \"appended\" reads %d, the sections appended %d", got, total)
			}
			got := r.String()
			path := filepath.Join("testdata", "submit_wire", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("wire reply changed\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSectionsFencedSectionAlone: a call mixing a fenced section with a
// live one lands the live section and answers 412 for the fenced one
// only — the status a per-shard request for it draws — charging nothing
// for it.
func TestSectionsFencedSectionAlone(t *testing.T) {
	wn := newWireNode(t, wireNodeOpts{budget: wireBudget(t)})
	wn.node.ApplyManifest(splitManifest(t, wn.url), wn.url)
	live, fenced := onShard(t, 0, "enforce", "a"), onShard(t, 1, "enforce", "b")
	live.Epoch, fenced.Epoch = 3, 3
	res := sectionsReply(t, postSections(t, wn.url, shardrpc.SubmitSections{live, fenced}))
	alone := postSubmit(t, wn.url, &fenced)
	if len(res.Sections) != 2 || res.Appended != 1 {
		t.Fatalf("reply %+v", res)
	}
	if s := res.Sections[0]; s.Status != http.StatusOK || s.SubmitResult == nil || s.Appended != 1 {
		t.Errorf("live section: %+v", s)
	}
	if s := res.Sections[1]; s.Status != alone.status || s.Status != http.StatusPreconditionFailed ||
		!bytes.Contains(alone.body, []byte(strconv.Quote(s.Error))) || s.SubmitResult != nil {
		t.Errorf("fenced section %+v, alone %v", s, alone)
	}
	id := clusterTestSurvey().ID
	if n0, n1 := wn.local.CountShard(0, id), wn.local.CountShard(1, id); n0 != 1 || n1 != 0 {
		t.Errorf("stored %d on the live shard and %d on the fenced one", n0, n1)
	}
	for w, want := range map[string]uint64{"a": 1, "b": 0} {
		if acct, err := wn.set.Peek(w); err != nil || acct.Charges != want {
			t.Errorf("worker %q: %+v, %v; want %d charges", w, acct, err, want)
		}
	}
}

// postCharge posts a charge request to a node's budget endpoint.
func postCharge(t *testing.T, url string, req *shardrpc.BudgetChargeRequest) wireReply {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/shardrpc/v1/budget/charge", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Authorization", "Bearer "+testToken)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return wireReply{status: resp.StatusCode, body: buf.Bytes()}
}

// TestChargeCallUnhostedGroupWritesNothing: a charge call one of whose
// groups names a budget shard the node does not host is refused whole
// with the per-shard call's 421, and writes no ledger record for any
// group; the hosted group alone then goes through.
func TestChargeCallUnhostedGroupWritesNothing(t *testing.T) {
	wn := newWireNode(t, wireNodeOpts{budget: &budget.SetOptions{Shards: 2, GlobalIDs: []int{0}, Config: budgetTestConfig(t)}})
	var hosted, unhosted string
	for i := 0; hosted == "" || unhosted == ""; i++ {
		if w := fmt.Sprintf("w%d", i); budget.Route(w, 2) == 0 {
			hosted = w
		} else {
			unhosted = w
		}
	}
	r := clusterTestSurvey()
	charge := func(w string) budget.Charge {
		return budget.Charge{WorkerID: w, SurveyID: r.ID, Rho: responseRho(t, r, "medium"), Enforce: true}
	}
	hostedGroup := shardrpc.BudgetChargeRequest{Shard: 0, Charges: []budget.Charge{charge(hosted)}}
	got := postCharge(t, wn.url, &shardrpc.BudgetChargeRequest{Groups: []shardrpc.BudgetChargeRequest{
		hostedGroup, {Shard: 1, Charges: []budget.Charge{charge(unhosted)}}}})
	if got.status != http.StatusMisdirectedRequest || !bytes.Contains(got.body, []byte("shard 1 not owned")) {
		t.Fatalf("call naming an unhosted group: %v", got)
	}
	stats, err := wn.set.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.WALRecords != 0 || s.Charges != 0 {
			t.Errorf("budget shard %d after a refused call: %+v", s.Shard, s)
		}
	}
	got = postCharge(t, wn.url, &shardrpc.BudgetChargeRequest{Groups: []shardrpc.BudgetChargeRequest{hostedGroup}})
	var res shardrpc.BudgetChargeResult
	if err := json.Unmarshal(got.body, &res); err != nil || got.status != http.StatusOK || len(res.Groups) != 1 || len(res.Groups[0].Outcomes) != 1 {
		t.Fatalf("hosted group alone: %v (%v)", got, err)
	}
	if acct, err := wn.set.Peek(hosted); err != nil || acct.Charges != 1 {
		t.Errorf("worker %q: %+v, %v", hosted, acct, err)
	}
}

// wedgedStore parks every append until release is closed, saying so on
// entered first.
type wedgedStore struct {
	store.Store
	entered chan struct{}
	release chan struct{}
}

func (w *wedgedStore) AppendResponses(rs []survey.Response) ([]int, error) {
	w.entered <- struct{}{}
	<-w.release
	return appendEach(w.Store, rs)
}

// TestNodeQueueWedgedShardHoldsNoOther: while one shard's call is parked
// on a wedged store, a submit to another shard of the same node goes out
// in a call of its own and completes; the wedged shard's next record
// waits for its lane and lands after.
func TestNodeQueueWedgedShardHoldsNoOther(t *testing.T) {
	wedged := &wedgedStore{Store: store.NewMem(), entered: make(chan struct{}, 2), release: make(chan struct{})}
	wn := newWireNode(t, wireNodeOpts{store: func(local int) store.Store {
		if local == 0 {
			return wedged
		}
		return store.NewMem()
	}})
	unblock := sync.OnceFunc(func() { close(wedged.release) })
	t.Cleanup(unblock)
	client := shardrpc.NewClient(wn.url, testToken, nil)
	if _, err := client.Meta(); err != nil { // the node advertises node calls
		t.Fatal(err)
	}
	remote, err := shardrpc.NewRemoteRoundRobin([]*shardrpc.Client{client}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	rec := func(w string) []survey.Response {
		return []survey.Response{*budgetResponse(clusterTestSurvey(), w, "medium")}
	}
	parked := remote.Submit([]int{0}, rec("a"), nil)
	<-wedged.entered
	behind := remote.Submit([]int{0}, rec("b"), nil)
	if e := remote.Submit([]int{1}, rec("c"), nil)(); e[0].Err != nil || e[0].Stored != 1 {
		t.Fatalf("submit to the free shard: %+v", e[0])
	}
	unblock()
	for name, wait := range map[string]func() []shardrpc.SubmitEntry{"parked": parked, "queued behind it": behind} {
		if e := wait(); e[0].Err != nil || e[0].Stored == 0 {
			t.Errorf("%s record: %+v", name, e[0])
		}
	}
	if n := wn.local.CountShard(0, clusterTestSurvey().ID); n != 2 {
		t.Errorf("wedged shard stored %d, want 2", n)
	}
}

// callSpy fronts a node's shardrpc handler: it records how each submit
// and charge call came in and, while legacy is set, drops the second
// X-Shardrpc-Accept value from every reply — which is all that tells a
// node that reads node calls from one that does not.
type callSpy struct {
	next   http.Handler
	mu     sync.Mutex
	legacy bool
	// sections and groups count node calls; perShard counts submit and
	// charge calls of one shard.
	sections, groups, perShard int
}

type legacyWriter struct{ http.ResponseWriter }

func (w legacyWriter) WriteHeader(code int) {
	if v := w.Header().Values(shardrpc.AcceptHeader); len(v) > 1 {
		w.Header()[shardrpc.AcceptHeader] = v[:1]
	}
	w.ResponseWriter.WriteHeader(code)
}

func (s *callSpy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var body bytes.Buffer
	if r.Body != nil {
		if _, err := body.ReadFrom(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body.Bytes()))
	}
	s.mu.Lock()
	switch {
	case strings.HasSuffix(r.URL.Path, "/submit") && body.Len() > 0 && body.Bytes()[0] == 0xB3:
		s.sections++
	case strings.HasSuffix(r.URL.Path, "/budget/charge") && bytes.Contains(body.Bytes(), []byte(`"groups"`)):
		s.groups++
	case strings.HasSuffix(r.URL.Path, "/submit"), strings.HasSuffix(r.URL.Path, "/budget/charge"):
		s.perShard++
	}
	legacy := s.legacy
	s.mu.Unlock()
	if legacy {
		w = legacyWriter{w}
	}
	s.next.ServeHTTP(w, r)
}

func (s *callSpy) counts() (sections, groups, perShard int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sections, s.groups, s.perShard
}

// TestNodeCallsEitherUpgradeOrder: a new frontend in front of nodes that
// read only per-shard calls (no second accept value) sends them only
// per-shard calls, and every submit and charge lands; once the nodes
// advertise node calls, the same frontend sends node calls, and every
// submit and charge lands.
func TestNodeCallsEitherUpgradeOrder(t *testing.T) {
	var spies []*callSpy
	var mu sync.Mutex
	pc := newPubCluster(t, pubClusterOpts{mode: "enforce", wrap: func(h http.Handler) http.Handler {
		s := &callSpy{next: h, legacy: true}
		mu.Lock()
		spies = append(spies, s)
		mu.Unlock()
		return s
	}})
	// "cluster" colocates every charge with its response, "cluster3"
	// none: both charge paths, over every shard.
	batch := func(round int) []survey.Response {
		var rs []survey.Response
		for i := 0; i < 8; i++ {
			w := fmt.Sprintf("r%dw%d", round, i)
			rs = append(rs, pubRec(w, "medium"), pubRec2(w, "medium"))
		}
		return rs
	}
	total := func() (sections, groups, perShard int) {
		for _, s := range spies {
			a, b, c := s.counts()
			sections, groups, perShard = sections+a, groups+b, perShard+c
		}
		return
	}
	pubBatch.accepted(t, pc.front, batch(0)...)
	if sections, groups, perShard := total(); sections != 0 || groups != 0 || perShard == 0 {
		t.Fatalf("to nodes without node calls: %d sections bodies, %d grouped charges, %d per-shard calls", sections, groups, perShard)
	}
	for _, s := range spies {
		s.mu.Lock()
		s.legacy, s.perShard = false, 0
		s.mu.Unlock()
	}
	pubBatch.accepted(t, pc.front, batch(1)...) // its replies advertise node calls
	pubBatch.accepted(t, pc.front, batch(2)...)
	if sections, groups, _ := total(); sections == 0 || groups == 0 {
		t.Fatalf("to upgraded nodes: %d sections bodies, %d grouped charges", sections, groups)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			w := fmt.Sprintf("r%dw%d", round, i)
			set := pc.nodes[budget.Route(w, pubShards)%2].set
			if acct, err := set.Peek(w); err != nil || acct.Charges != 2 {
				t.Errorf("worker %q: %+v, %v; want 2 charges", w, acct, err)
			}
		}
	}
	id, id2 := clusterTestSurvey().ID, pubSurvey2().ID
	stored := 0
	for _, wn := range pc.nodes {
		for i := 0; i < wn.local.Shards(); i++ {
			stored += wn.local.CountShard(i, id) + wn.local.CountShard(i, id2)
		}
	}
	if stored != 48 {
		t.Errorf("stored %d records, want 48", stored)
	}
}
