package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// The public submit wire — POST /api/v1/surveys/{id}/responses and
// POST /api/v1/responses — pinned byte for byte: status, Retry-After and
// body for every verdict a role can reach, and for some the counters or
// the ledger account the traffic leaves behind.
//
// testdata/public_wire/*.golden were written by the commit BEFORE the
// public path moved onto the shard host's pipeline (07864b6), from a
// clone of it with this file copied in:
//
//	LOKI_FIXTURE_OUT=<repo>/internal/server/testdata/public_wire \
//	    go test -run TestWritePublicWireGoldens ./internal/server
//
// and must keep passing unchanged. The cases marked fixed are holes that
// commit had (a fenced shard and an unmetered enforce-mode admit on a
// node's own public API, and a valid body followed by closing brackets
// accepted and stored); their files come from the commit that fixed
// each (add LOKI_FIXTURE_FIXED=1).

// pubReply is the part of a public submit answer the contract pins.
type pubReply struct {
	status     int
	retryAfter string
	body       []byte
}

func (r pubReply) String() string {
	return fmt.Sprintf("status: %d\nRetry-After: %s\nbody:\n%s", r.status, r.retryAfter, r.body)
}

func pubPost(url string, body []byte) (pubReply, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return pubReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return pubReply{}, err
	}
	return pubReply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: raw}, nil
}

// pubEndpoint is one of the two public submit endpoints. do is t-less so
// goroutines other than the test's own can post.
type pubEndpoint struct {
	name string
	// do submits the records: the single endpoint takes exactly one, under
	// its survey's URL.
	do func(base string, rs ...survey.Response) (pubReply, error)
	// raw posts body bytes as they are (the single endpoint under
	// surveyID's URL).
	raw func(base, surveyID, body string) (pubReply, error)
}

var (
	pubSingle = pubEndpoint{
		name: "single",
		do: func(base string, rs ...survey.Response) (pubReply, error) {
			if len(rs) != 1 {
				return pubReply{}, fmt.Errorf("single endpoint takes one record, got %d", len(rs))
			}
			body, err := json.Marshal(&rs[0])
			if err != nil {
				return pubReply{}, err
			}
			return pubPost(base+"/api/v1/surveys/"+rs[0].SurveyID+"/responses", body)
		},
		raw: func(base, surveyID, body string) (pubReply, error) {
			return pubPost(base+"/api/v1/surveys/"+surveyID+"/responses", []byte(body))
		},
	}
	pubBatch = pubEndpoint{
		name: "batch",
		do: func(base string, rs ...survey.Response) (pubReply, error) {
			body, err := json.Marshal(BatchSubmitRequest{Responses: rs})
			if err != nil {
				return pubReply{}, err
			}
			return pubPost(base+"/api/v1/responses", body)
		},
		raw: func(base, _, body string) (pubReply, error) {
			return pubPost(base+"/api/v1/responses", []byte(body))
		},
	}
)

func (e pubEndpoint) post(t *testing.T, base string, rs ...survey.Response) pubReply {
	t.Helper()
	r, err := e.do(base, rs...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (e pubEndpoint) postRaw(t *testing.T, base, surveyID, body string) pubReply {
	t.Helper()
	r, err := e.raw(base, surveyID, body)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// accepted posts records that must all be stored (a case's prelude).
func (e pubEndpoint) accepted(t *testing.T, base string, rs ...survey.Response) {
	t.Helper()
	r := e.post(t, base, rs...)
	if r.status != http.StatusCreated && !(r.status == http.StatusOK && bytes.Contains(r.body, []byte(fmt.Sprintf(`{"accepted":%d,`, len(rs))))) {
		t.Fatalf("prelude submit refused: %v", r)
	}
}

// pubRec is budgetResponse by value.
func pubRec(worker, level string) survey.Response {
	return *budgetResponse(clusterTestSurvey(), worker, level)
}

// pubSurvey2 is the test survey under a second ID. The ID is chosen for
// what it does to placement on a pubCluster: both routing hashes are
// FNV-1a, whose lowest bit is the XOR of its input bytes' lowest bits, so
// whether a response's shard and its worker's budget shard share a node
// (of two, round-robin) depends on the survey ID alone — "cluster"
// colocates every worker, "cluster3" none.
func pubSurvey2() *survey.Survey {
	sv := clusterTestSurvey()
	sv.ID = "cluster3"
	return sv
}

// pubRec2 is pubRec for pubSurvey2.
func pubRec2(worker, level string) survey.Response {
	r := pubRec(worker, level)
	r.SurveyID = "cluster3"
	return r
}

// pubCounters renders the admin counters a submit moves.
func pubCounters(t *testing.T, base string) string {
	t.Helper()
	info := adminInfo(t, &httptest.Server{URL: base})
	out := "\ncounters:"
	if a := info.Admission; a != nil {
		out += fmt.Sprintf(" admitted=%d shed=%d throttled=%d", a.Admitted, a.Shed, a.Throttled)
	}
	if b := info.Budget; b != nil {
		out += fmt.Sprintf(" budget_rejected=%d", b.Rejected)
	}
	return out
}

// pubAccount renders a worker's ledger account as the admin surface
// reports it.
func pubAccount(t *testing.T, base, worker string) string {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, base+"/api/v1/admin/budget/"+worker, nil, testClusterToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin budget = %d: %s", resp.StatusCode, body)
	}
	return "\naccount:\n" + string(body)
}

// pubLedger opens a durable ledger over the given slice of a budget shard
// space, with the three-medium-responses cap.
func pubLedger(t *testing.T, shards int, hosted []int) *budget.Set {
	t.Helper()
	set, err := budget.NewSet(budget.SetOptions{Shards: shards, GlobalIDs: hosted, Dir: t.TempDir(), Config: budgetTestConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set
}

// pubStandalone is one server over st holding both test surveys; mode
// "" runs it without a ledger.
func pubStandalone(t *testing.T, st store.Store, mode string, cfg Config) (string, *budget.Set) {
	t.Helper()
	cfg.Store, cfg.Schedule, cfg.RequesterToken, cfg.ClusterToken = st, core.DefaultSchedule(), testToken, testClusterToken
	var set *budget.Set
	if mode != "" {
		set = pubLedger(t, 1, nil)
		cfg.Budget, cfg.BudgetEnforce = set, mode
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, sv := range []*survey.Survey{clusterTestSurvey(), pubSurvey2()} {
		if _, err := st.Publish(sv); err != nil {
			t.Fatal(err)
		}
	}
	return ts.URL, set
}

const pubShards = 4

// pubCluster is a frontend over two wire nodes: four response shards
// and, when charging, four budget shards, both placed round-robin.
type pubCluster struct {
	front string
	nodes []*wireNode
}

// pubClusterOpts shapes a pubCluster: the frontend's budget mode (""
// = no ledger anywhere) and gates, and the nodes' gates and stores.
type pubClusterOpts struct {
	mode     string
	frontCfg Config
	nodeCfg  Config
	store    func(local int) store.Store
	wrap     func(http.Handler) http.Handler
}

func newPubCluster(t *testing.T, o pubClusterOpts) *pubCluster {
	t.Helper()
	pc := &pubCluster{}
	clients := make([]*shardrpc.Client, 2)
	for nd, owned := range shardrpc.RoundRobinPlacement(pubShards, 2) {
		no := wireNodeOpts{owned: owned, total: pubShards, cfg: o.nodeCfg, store: o.store, wrap: o.wrap}
		if o.mode != "" {
			no.budget = &budget.SetOptions{Shards: pubShards, GlobalIDs: owned, Config: budgetTestConfig(t)}
		}
		wn := newWireNode(t, no)
		if _, err := wn.node.Publish(pubSurvey2()); err != nil {
			t.Fatal(err)
		}
		pc.nodes = append(pc.nodes, wn)
		clients[nd] = shardrpc.NewClient(wn.url, testClusterToken, nil)
	}
	remote, err := shardrpc.NewRemoteRoundRobin(clients, pubShards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	pc.front = pubFrontend(t, remote, clients, o.mode, o.frontCfg)
	return pc
}

// pubFrontend serves a frontend over remote, charging (when mode is set)
// the way production wires it: colocated charges ride the submit RPC,
// the charger covers the rest.
func pubFrontend(t *testing.T, remote *shardrpc.Remote, clients []*shardrpc.Client, mode string, cfg Config) string {
	t.Helper()
	cfg.Router, cfg.Schedule, cfg.RequesterToken, cfg.ClusterToken, cfg.Role = remote, core.DefaultSchedule(), testToken, testClusterToken, "frontend"
	if mode != "" {
		charger, err := shardrpc.NewRemoteCharger(clients, pubShards, budgetTestConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := remote.EnablePiggybackCharges(pubShards); err != nil {
			t.Fatal(err)
		}
		cfg.Budget, cfg.BudgetEnforce = charger, mode
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

// pubWorker returns the first worker ("p0", "p1", ...) whose response
// to the test survey lands on a shard pred accepts.
func pubWorker(pred func(shard int) bool) string {
	for i := 0; ; i++ {
		if w := fmt.Sprintf("p%d", i); pred(shardset.Route(clusterTestSurvey().ID, w, pubShards)) {
			return w
		}
	}
}

// colocated reports whether a record's charge can ride its submit RPC
// on a pubCluster: the worker's budget shard lives on the node that owns
// the response shard.
func colocated(r survey.Response) bool {
	return shardset.Route(r.SurveyID, r.WorkerID, pubShards)%2 == budget.Route(r.WorkerID, pubShards)%2
}

// pubNode is a node serving its own public API: both response shards of
// a two-shard space, and — when mode is set — budget shard 0 of two.
func pubNode(t *testing.T, mode string) (wn *wireNode, hosted, unhosted string) {
	t.Helper()
	o := wireNodeOpts{}
	var set *budget.Set
	if mode != "" {
		set = pubLedger(t, 2, []int{0})
		o.cfg = Config{Budget: set, BudgetEnforce: mode}
	}
	wn = newWireNode(t, o)
	if set != nil {
		wn.node.HostBudget(set)
	}
	for i := 0; hosted == "" || unhosted == ""; i++ {
		w := fmt.Sprintf("p%d", i)
		if budget.Route(w, 2) == 0 && hosted == "" {
			hosted = w
		} else if budget.Route(w, 2) == 1 && unhosted == "" {
			unhosted = w
		}
	}
	return wn, hosted, unhosted
}

// pubCase is one pinned verdict. run builds a fresh topology, drives it
// through the endpoint it is given and returns the transcript.
type pubCase struct {
	name string
	run  func(t *testing.T, e pubEndpoint) string
	// only restricts the case to one endpoint ("" = both).
	only string
	// fixed marks a verdict the parent commit got wrong; see the top of
	// the file.
	fixed bool
}

// pubInflight reads a server's occupied admission slots off its admin
// surface.
func pubInflight(t *testing.T, base string) func() int {
	return func() int { return adminInfo(t, &httptest.Server{URL: base}).Admission.Inflight }
}

// held parks one submit in a blocking store behind the only admission
// slot of a server (inflight reads its gate), runs shed, and lets the
// parked submit finish.
func held(t *testing.T, e pubEndpoint, base string, inflight func() int, holder survey.Response, release chan struct{}, shed func() string) string {
	t.Helper()
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)
	first := make(chan pubReply, 1)
	go func() {
		r, err := e.do(base, holder)
		if err != nil {
			t.Error(err)
		}
		first <- r
	}()
	waitFor(t, "the first submit to hold the only slot", func() bool { return inflight() == 1 })
	out := shed()
	unblock()
	if r := <-first; r.status != http.StatusCreated && r.status != http.StatusOK {
		t.Fatalf("admitted submit: %v", r)
	}
	return out
}

func publicWireCases() []pubCase {
	// contract is a refusal decided before anything is charged or stored,
	// on a standalone server with the ledger enforcing.
	contract := func(name string, mutate func(*survey.Response)) pubCase {
		return pubCase{name: name, run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "enforce", Config{})
			r := pubRec("a", "medium")
			mutate(&r)
			return e.post(t, base, r).String() + pubAccount(t, base, "a")
		}}
	}
	// exhausted posts a worker's three admitted responses and records the
	// fourth.
	exhausted := func(t *testing.T, e pubEndpoint, base string, rec survey.Response) string {
		for i := 0; i < 3; i++ {
			e.accepted(t, base, rec)
		}
		return e.post(t, base, rec).String()
	}
	cases := []pubCase{
		// --- standalone, no ledger
		{name: "standalone_accepted", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			e.accepted(t, base, pubRec("a", "medium"))
			return e.post(t, base, pubRec("b", "none")).String()
		}},
		{name: "standalone_malformed_body", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			return e.postRaw(t, base, "cluster", "{nope").String()
		}},
		{name: "standalone_unknown_field", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			return e.postRaw(t, base, "cluster", `{"survey_id":"cluster","hacker":true}`).String()
		}},
		{name: "standalone_trailing_bytes", fixed: true, run: func(t *testing.T, e pubEndpoint) string {
			// A valid body with bytes after it is refused and stores
			// nothing: the clean retry is the survey's first response.
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			rec := pubRec("a", "medium")
			var v any = &rec
			if e.name == pubBatch.name {
				v = BatchSubmitRequest{Responses: []survey.Response{rec}}
			}
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return e.postRaw(t, base, rec.SurveyID, string(body)+"}}}garbage").String() + "\nretry:\n" + e.post(t, base, rec).String()
		}},
		{name: "standalone_survey_id_mismatch", only: "single", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			body, err := json.Marshal(pubRec("a", "medium"))
			if err != nil {
				t.Fatal(err)
			}
			return e.postRaw(t, base, "cluster3", string(body)).String()
		}},
		{name: "standalone_survey_id_from_url", only: "single", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			r := pubRec("a", "medium")
			r.SurveyID = ""
			body, err := json.Marshal(&r)
			if err != nil {
				t.Fatal(err)
			}
			return e.postRaw(t, base, "cluster", string(body)).String()
		}},
		{name: "standalone_missing_survey_id", only: "batch", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			r := pubRec("a", "medium")
			r.SurveyID = ""
			return e.post(t, base, r).String()
		}},
		{name: "standalone_empty_batch", only: "batch", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			return e.post(t, base).String()
		}},
		{name: "standalone_oversize_batch", only: "batch", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			rs := make([]survey.Response, maxBatchSubmit+1)
			for i := range rs {
				rs[i] = pubRec(fmt.Sprintf("w%d", i), "medium")
			}
			return e.post(t, base, rs...).String()
		}},
		{name: "standalone_unknown_survey", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			r := pubRec("a", "medium")
			r.SurveyID = "ghost"
			return e.post(t, base, r).String()
		}},
		{name: "standalone_overloaded", run: func(t *testing.T, e pubEndpoint) string {
			release := make(chan struct{})
			base, _ := pubStandalone(t, &blockingStore{Store: store.NewMem(), release: release}, "", Config{SubmitInflight: 1})
			return held(t, e, base, pubInflight(t, base), pubRec("a", "medium"), release, func() string {
				return e.post(t, base, pubRec("b", "medium")).String()
			}) + pubCounters(t, base)
		}},
		{name: "standalone_rate_limited", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "", slowLimit)
			e.accepted(t, base, pubRec("a", "medium"))
			return e.post(t, base, pubRec("a", "medium")).String() + pubCounters(t, base)
		}},
		{name: "standalone_append_failure", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, &failingStore{Store: store.NewMem(), failAt: 2}, "", Config{})
			e.accepted(t, base, pubRec("a", "medium"))
			return e.post(t, base, pubRec("b", "medium")).String()
		}},
		{name: "standalone_mixed_batch", only: "batch", run: func(t *testing.T, e pubEndpoint) string {
			// One record per verdict; the two stored ones go to different
			// surveys so their counts do not depend on arrival order.
			base, _ := pubStandalone(t, store.NewMem(), "", slowLimit)
			e.accepted(t, base, pubRec("drained", "medium"))
			bare, ghost, noID, short := pubRec("c", "high"), pubRec("d", "medium"), pubRec("e", "medium"), pubRec("f", "medium")
			bare.Obfuscated = false
			ghost.SurveyID = "ghost"
			noID.SurveyID = ""
			short.Answers = short.Answers[:1]
			return e.post(t, base, pubRec("a", "medium"), pubRec("b", "bogus"), bare, ghost, pubRec("drained", "medium"),
				noID, short, pubRec2("g", "none")).String() + pubCounters(t, base)
		}},

		// --- standalone, ledger enforcing
		{name: "enforce_accepted", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "enforce", Config{})
			return e.post(t, base, pubRec("a", "medium")).String() + pubAccount(t, base, "a")
		}},
		contract("enforce_bad_level", func(r *survey.Response) { r.PrivacyLevel = "bogus" }),
		contract("enforce_unobfuscated", func(r *survey.Response) { r.Obfuscated = false }),
		contract("enforce_invalid_answers", func(r *survey.Response) { r.Answers = r.Answers[:1] }),
		{name: "enforce_exhausted", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "enforce", Config{})
			return exhausted(t, e, base, pubRec("a", "medium")) + pubCounters(t, base) + pubAccount(t, base, "a")
		}},
		{name: "enforce_exhausted_level_none_admitted", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "enforce", Config{})
			exhausted(t, e, base, pubRec("a", "medium"))
			return e.post(t, base, pubRec("a", "none")).String() + pubAccount(t, base, "a")
		}},
		{name: "enforce_undecided", run: func(t *testing.T, e pubEndpoint) string {
			base, set := pubStandalone(t, store.NewMem(), "enforce", Config{})
			set.Close()
			return e.post(t, base, pubRec("a", "medium")).String()
		}},
		{name: "enforce_append_failure_refunded", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, &failingStore{Store: store.NewMem(), failAt: 1}, "enforce", Config{})
			return e.post(t, base, pubRec("a", "medium")).String() + pubAccount(t, base, "a")
		}},
		{name: "enforce_mixed_batch", only: "batch", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "enforce", Config{})
			exhausted(t, e, base, pubRec("spent", "medium"))
			return e.post(t, base, pubRec("a", "medium"), pubRec("spent", "medium"), pubRec("c", "bogus"), pubRec2("b", "high")).String() +
				pubCounters(t, base) + pubAccount(t, base, "spent")
		}},

		// --- standalone, ledger advisory
		{name: "log_over_cap_admitted", run: func(t *testing.T, e pubEndpoint) string {
			base, _ := pubStandalone(t, store.NewMem(), "log", Config{})
			return exhausted(t, e, base, pubRec("a", "medium")) + pubCounters(t, base) + pubAccount(t, base, "a")
		}},
		{name: "log_fail_open", run: func(t *testing.T, e pubEndpoint) string {
			base, set := pubStandalone(t, store.NewMem(), "log", Config{})
			set.Close()
			return e.post(t, base, pubRec("a", "medium")).String()
		}},
	}

	// --- frontend over two nodes, once per way a charge can travel
	for _, place := range []struct {
		name string
		rec  survey.Response
	}{{"colocated", pubRec("a", "medium")}, {"separate", pubRec2("a", "medium")}} {
		if colocated(place.rec) != (place.name == "colocated") {
			panic("survey IDs no longer select the charge path; see pubSurvey2")
		}
		rec := place.rec
		cases = append(cases,
			pubCase{name: "frontend_" + place.name + "_accepted", run: func(t *testing.T, e pubEndpoint) string {
				pc := newPubCluster(t, pubClusterOpts{mode: "enforce"})
				return e.post(t, pc.front, rec).String() + pubAccount(t, pc.front, "a")
			}},
			pubCase{name: "frontend_" + place.name + "_exhausted", run: func(t *testing.T, e pubEndpoint) string {
				pc := newPubCluster(t, pubClusterOpts{mode: "enforce"})
				return exhausted(t, e, pc.front, rec) + pubCounters(t, pc.front) + pubAccount(t, pc.front, "a")
			}},
			pubCase{name: "frontend_" + place.name + "_undecided", run: func(t *testing.T, e pubEndpoint) string {
				pc := newPubCluster(t, pubClusterOpts{mode: "enforce"})
				for _, wn := range pc.nodes {
					wn.set.Close()
				}
				return e.post(t, pc.front, rec).String()
			}},
			pubCase{name: "frontend_" + place.name + "_log_over_cap_admitted", run: func(t *testing.T, e pubEndpoint) string {
				pc := newPubCluster(t, pubClusterOpts{mode: "log"})
				return exhausted(t, e, pc.front, rec) + pubCounters(t, pc.front) + pubAccount(t, pc.front, "a")
			}},
			pubCase{name: "frontend_" + place.name + "_log_fail_open", run: func(t *testing.T, e pubEndpoint) string {
				pc := newPubCluster(t, pubClusterOpts{mode: "log"})
				for _, wn := range pc.nodes {
					wn.set.Close()
				}
				return e.post(t, pc.front, rec).String()
			}},
			pubCase{name: "frontend_" + place.name + "_append_failure_refunded", run: func(t *testing.T, e pubEndpoint) string {
				pc := newPubCluster(t, pubClusterOpts{mode: "enforce", store: func(int) store.Store {
					return &failingStore{Store: store.NewMem(), failAt: 1}
				}})
				return e.post(t, pc.front, rec).String() + pubAccount(t, pc.front, "a")
			}},
			pubCase{name: "frontend_" + place.name + "_node_rate_limited", run: func(t *testing.T, e pubEndpoint) string {
				pc := newPubCluster(t, pubClusterOpts{mode: "enforce", nodeCfg: slowLimit})
				e.accepted(t, pc.front, rec)
				return e.post(t, pc.front, rec).String() + pubAccount(t, pc.front, "a")
			}},
		)
	}
	cases = append(cases,
		pubCase{name: "frontend_plain_accepted", run: func(t *testing.T, e pubEndpoint) string {
			pc := newPubCluster(t, pubClusterOpts{})
			e.accepted(t, pc.front, pubRec("a", "medium"))
			return e.post(t, pc.front, pubRec("a", "low")).String()
		}},
		pubCase{name: "frontend_unknown_survey", run: func(t *testing.T, e pubEndpoint) string {
			pc := newPubCluster(t, pubClusterOpts{mode: "enforce"})
			r := pubRec("a", "medium")
			r.SurveyID = "ghost"
			return e.post(t, pc.front, r).String()
		}},
		pubCase{name: "frontend_plain_append_failure", run: func(t *testing.T, e pubEndpoint) string {
			pc := newPubCluster(t, pubClusterOpts{store: func(int) store.Store {
				return &failingStore{Store: store.NewMem(), failAt: 1}
			}})
			return e.post(t, pc.front, pubRec("a", "medium")).String()
		}},
		pubCase{name: "frontend_node_overloaded", run: func(t *testing.T, e pubEndpoint) string {
			release := make(chan struct{})
			pc := newPubCluster(t, pubClusterOpts{nodeCfg: Config{SubmitInflight: 1}, store: func(int) store.Store {
				return &blockingStore{Store: store.NewMem(), release: release}
			}})
			// Both records route to node 0: the second finds its only slot
			// taken.
			holder := pubWorker(func(shard int) bool { return shard == 0 })
			shed := pubWorker(func(shard int) bool { return shard == 2 })
			// (A node's admin surface reads its journals, which a parked
			// append holds: ask the gate itself.)
			inflight := func() int { return pc.nodes[0].srv.admissionInfo().Inflight }
			return held(t, e, pc.front, inflight, pubRec(holder, "medium"), release, func() string {
				return e.post(t, pc.front, pubRec(shed, "medium")).String()
			}) + pubCounters(t, pc.nodes[0].url)
		}},
		pubCase{name: "frontend_rate_limited", run: func(t *testing.T, e pubEndpoint) string {
			pc := newPubCluster(t, pubClusterOpts{mode: "enforce", frontCfg: slowLimit})
			e.accepted(t, pc.front, pubRec2("a", "medium"))
			return e.post(t, pc.front, pubRec2("a", "medium")).String() + pubCounters(t, pc.front) + pubAccount(t, pc.front, "a")
		}},
		pubCase{name: "frontend_overloaded", run: func(t *testing.T, e pubEndpoint) string {
			release := make(chan struct{})
			pc := newPubCluster(t, pubClusterOpts{frontCfg: Config{SubmitInflight: 1}, store: func(int) store.Store {
				return &blockingStore{Store: store.NewMem(), release: release}
			}})
			return held(t, e, pc.front, pubInflight(t, pc.front), pubRec("a", "medium"), release, func() string {
				return e.post(t, pc.front, pubRec("b", "medium")).String()
			}) + pubCounters(t, pc.front)
		}},
		pubCase{name: "frontend_write_fenced", run: func(t *testing.T, e pubEndpoint) string {
			// The nodes have applied a manifest that moved their shards away;
			// the frontend still routes by the old positions.
			pc := newPubCluster(t, pubClusterOpts{mode: "enforce"})
			m, err := placement.RoundRobin(pubShards, []string{"http://the-new-primary"})
			if err != nil {
				t.Fatal(err)
			}
			for _, wn := range pc.nodes {
				wn.node.ApplyManifest(m, wn.url)
			}
			return e.post(t, pc.front, pubRec("a", "medium")).String() + pubAccount(t, pc.front, "a")
		}},
		pubCase{name: "frontend_node_unreachable", run: func(t *testing.T, e pubEndpoint) string {
			// Positional routing: a dead node's shards answer unreachable
			// for as long as it is dead.
			nodes := newHANodes(t, 2, pubShards)
			for _, n := range nodes {
				if _, err := n.local.Publish(clusterTestSurvey()); err != nil {
					t.Fatal(err)
				}
			}
			clients := []*shardrpc.Client{nodes[0].client, nodes[1].client}
			remote, err := shardrpc.NewRemoteRoundRobin(clients, pubShards)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { remote.Close() })
			front := pubFrontend(t, remote, clients, "", Config{})
			nodes[1].kill()
			dead := pubWorker(func(shard int) bool { return shard%2 == 1 })
			return e.post(t, front, pubRec(dead, "medium")).String()
		}},
		pubCase{name: "frontend_shard_failed_over", run: func(t *testing.T, e pubEndpoint) string {
			// Manifest routing: the first write to the dead primary finds it
			// unreachable, and from then on its shards are failed over.
			nodes := newHANodes(t, 2, pubShards)
			for _, n := range nodes {
				if _, err := n.local.Publish(clusterTestSurvey()); err != nil {
					t.Fatal(err)
				}
			}
			m, err := placement.RoundRobin(pubShards, []string{nodes[0].url, nodes[1].url})
			if err != nil {
				t.Fatal(err)
			}
			remote, err := shardrpc.NewRemoteFromManifest(m, testClusterToken, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { remote.Close() })
			front := pubFrontend(t, remote, nil, "", Config{})
			nodes[1].kill()
			dead := pubWorker(func(shard int) bool { return shard%2 == 1 })
			first := e.post(t, front, pubRec(dead, "medium"))
			return first.String() + "\nthen:\n" + e.post(t, front, pubRec(dead, "medium")).String()
		}},
		pubCase{name: "frontend_mixed_batch", only: "batch", run: func(t *testing.T, e pubEndpoint) string {
			// The two stored records go to different surveys, so their
			// counts do not depend on arrival order.
			pc := newPubCluster(t, pubClusterOpts{mode: "enforce"})
			exhausted(t, e, pc.front, pubRec("spent", "medium"))
			exhausted(t, e, pc.front, pubRec2("spent2", "medium"))
			ghost := pubRec("x", "medium")
			ghost.SurveyID = "ghost"
			return e.post(t, pc.front, pubRec("a", "medium"), pubRec("spent", "medium"), pubRec("y", "bogus"),
				pubRec2("b", "medium"), ghost, pubRec2("spent2", "medium")).String() + pubCounters(t, pc.front)
		}},

		// --- a node's own public API
		pubCase{name: "node_plain_accepted", run: func(t *testing.T, e pubEndpoint) string {
			wn, hosted, _ := pubNode(t, "")
			return e.post(t, wn.url, pubRec(hosted, "medium")).String()
		}},
		pubCase{name: "node_plain_batch_across_shards", only: "batch", run: func(t *testing.T, e pubEndpoint) string {
			wn, _, _ := pubNode(t, "")
			var rs []survey.Response
			for shard := 0; shard < 2; shard++ {
				for i := 0; ; i++ {
					if w := fmt.Sprintf("p%d", i); shardset.Route("cluster", w, 2) == shard {
						rs = append(rs, pubRec(w, "medium"))
						break
					}
				}
			}
			return e.post(t, wn.url, rs...).String()
		}},
		pubCase{name: "node_enforce_accepted", run: func(t *testing.T, e pubEndpoint) string {
			wn, hosted, _ := pubNode(t, "enforce")
			return e.post(t, wn.url, pubRec(hosted, "medium")).String() + pubAccount(t, wn.url, hosted)
		}},
		pubCase{name: "node_enforce_exhausted", run: func(t *testing.T, e pubEndpoint) string {
			wn, hosted, _ := pubNode(t, "enforce")
			return exhausted(t, e, wn.url, pubRec(hosted, "medium")) + pubCounters(t, wn.url) + pubAccount(t, wn.url, hosted)
		}},
		pubCase{name: "node_log_unhosted_budget_shard_admitted", run: func(t *testing.T, e pubEndpoint) string {
			wn, _, unhosted := pubNode(t, "log")
			return e.post(t, wn.url, pubRec(unhosted, "medium")).String()
		}},
		pubCase{name: "node_enforce_unhosted_budget_shard", fixed: true, run: func(t *testing.T, e pubEndpoint) string {
			wn, _, unhosted := pubNode(t, "enforce")
			out := e.post(t, wn.url, pubRec(unhosted, "medium")).String()
			return out + fmt.Sprintf("\nstored: %d", shardset.Count(wn.local, "cluster"))
		}},
		pubCase{name: "node_write_fenced", fixed: true, run: func(t *testing.T, e pubEndpoint) string {
			wn, hosted, _ := pubNode(t, "enforce")
			wn.node.ApplyManifest(fencedManifest(t, "http://the-new-primary", 4), wn.url)
			out := e.post(t, wn.url, pubRec(hosted, "medium")).String()
			return out + fmt.Sprintf("\nstored: %d", shardset.Count(wn.local, "cluster")) + pubAccount(t, wn.url, hosted)
		}},
	)
	return cases
}

// eachPublicWire runs every case on every endpoint it applies to.
func eachPublicWire(t *testing.T, fn func(t *testing.T, c pubCase, path, got string)) {
	for _, c := range publicWireCases() {
		for _, e := range []pubEndpoint{pubSingle, pubBatch} {
			if c.only != "" && c.only != e.name {
				continue
			}
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				fn(t, c, filepath.Join("public_wire", c.name+"."+e.name+".golden"), c.run(t, e))
			})
		}
	}
}

// TestWritePublicWireGoldens is the script that records the goldens; it
// does nothing unless LOKI_FIXTURE_OUT names the directory to write.
func TestWritePublicWireGoldens(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("LOKI_FIXTURE_OUT not set")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	eachPublicWire(t, func(t *testing.T, c pubCase, path, got string) {
		if c.fixed != (os.Getenv("LOKI_FIXTURE_FIXED") != "") {
			return
		}
		if err := os.WriteFile(filepath.Join(out, filepath.Base(path)), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPublicWireGolden holds every public submit verdict to its golden.
func TestPublicWireGolden(t *testing.T) {
	eachPublicWire(t, func(t *testing.T, _ pubCase, path, got string) {
		want, err := os.ReadFile(filepath.Join("testdata", path))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("public wire reply changed\n--- got ---\n%s\n--- want ---\n%s", got, strings.TrimSpace(string(want)))
		}
	})
}
