package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// seqStore hides a Mem's batch appender: a batch lands record by record,
// so a record the store refuses mid-batch leaves a durable prefix
// instead of failing the batch whole.
type seqStore struct{ store.Store }

func (s seqStore) AppendResponses(rs []survey.Response) ([]int, error) { return appendEach(s, rs) }

// appendEach is a batch append made of st's single appends, in order,
// stopping at the first refusal: the batch path of a test store whose
// AppendResponse injects a fault.
func appendEach(st store.Store, rs []survey.Response) ([]int, error) {
	counts := make([]int, 0, len(rs))
	for i := range rs {
		if err := st.AppendResponse(&rs[i]); err != nil {
			return counts, err
		}
		counts = append(counts, st.ResponseCount(rs[i].SurveyID))
	}
	return counts, nil
}

// refRecord is the reference's verdict on one request record.
type refRecord struct {
	throttled, rejected, failed bool
	stored                      int
	outcome                     budget.Outcome
}

// referenceSubmit states the submit contract the naive way — one record
// at a time against plain maps and a scratch ledger, no masks, no index
// slices, no batching. First every record meets its worker's token
// bucket (burst tokens, never refilled; 0 = no limit) and, if it still
// stands and carries a charge, the ledger. Then the records left append
// in order until the store refuses one (an unknown survey); that one
// and everything after it fails, and what was charged for them is
// refunded.
func referenceSubmit(burst int, ledger *budget.Set, known map[string]bool, rs []survey.Response, charges []budget.Charge) ([]refRecord, error) {
	out := make([]refRecord, len(rs))
	tokens := make(map[string]int)
	charged := func(k int) bool { return charges != nil && charges[k].WorkerID != "" }
	for k := range rs {
		if burst > 0 {
			w := rs[k].WorkerID
			if _, seen := tokens[w]; !seen {
				tokens[w] = burst
			}
			if tokens[w] == 0 {
				out[k].throttled = true
				continue
			}
			tokens[w]--
		}
		if charged(k) {
			o, err := ledger.Charge(charges[k])
			if err != nil {
				return nil, err
			}
			out[k].outcome, out[k].rejected = o, o.Rejected
		}
	}
	counts := make(map[string]int)
	broken := false
	for k := range rs {
		if out[k].throttled || out[k].rejected {
			continue
		}
		if broken || !known[rs[k].SurveyID] {
			broken = true
			out[k].failed = true
			if charged(k) {
				if err := ledger.Refund(charges[k]); err != nil {
					return nil, err
				}
				out[k].outcome = budget.Outcome{}
			}
			continue
		}
		counts[rs[k].SurveyID]++
		out[k].stored = counts[rs[k].SurveyID]
	}
	return out, nil
}

func sameOutcome(a, b budget.Outcome) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(y)) }
	return a.WorkerID == b.WorkerID && a.Rejected == b.Rejected && a.OverCap == b.OverCap &&
		near(a.SpentEpsilon, b.SpentEpsilon) && near(a.RemainingEpsilon, b.RemainingEpsilon)
}

// refWorkers names the five workers of the reference batches so that the
// batches mean the same thing on every entry: all of their responses (to
// either test survey) route to shard 0 of two, and on a two-node cluster
// with three budget shards the worker who submits repeatedly is charged
// on the node that owns shard 0 — its charges ride one submit RPC and are
// decided in request order, as the reference decides them — while at
// least one other worker's charge has to go ahead over the charge RPC.
func refWorkers(t *testing.T) map[string]string {
	t.Helper()
	var onShard0 []string
	for i := 0; len(onShard0) < 16; i++ {
		if w := fmt.Sprintf("r%d", i); shardset.Route("cluster", w, 2) == 0 && shardset.Route("cluster2", w, 2) == 0 {
			onShard0 = append(onShard0, w)
		}
	}
	riding := func(w string) bool { return budget.Route(w, 3) != 1 }
	names := map[string]string{}
	for _, role := range []string{"a", "b", "c", "d", "e"} {
		for i, w := range onShard0 {
			// a rides; b goes ahead; the rest take what comes.
			if w != "" && (role != "a" || riding(w)) && (role != "b" || !riding(w)) {
				names[role], onShard0[i] = w, ""
				break
			}
		}
		if names[role] == "" {
			t.Fatalf("no worker name for role %q", role)
		}
	}
	return names
}

// refEntry is one way into the submit pipeline for the reference test:
// the batch goes in, request-aligned verdicts come out, and the state it
// left behind can be read back.
type refEntry struct {
	// submit answers with one verdict per request record, or err when the
	// plain shape failed (stored then holds the durable prefix).
	submit func(t *testing.T, rs []survey.Response, charges []budget.Charge) (got []refRecord, outcomes []budget.Outcome, err error)
	// count is shard 0's stored records of a survey, srv the server whose
	// partials the appends advance, peek a worker's ledger account.
	count func(surveyID string) int
	srv   *Server
	peek  func(worker string) budget.Account
}

// shardrpcEntry submits through shardHost.Submit, as a frontend's batch
// arrives.
func shardrpcEntry(h *shardHost, set *budget.Set) refEntry {
	return refEntry{
		submit: func(t *testing.T, rs []survey.Response, charges []budget.Charge) ([]refRecord, []budget.Outcome, error) {
			o := h.Submit(context.Background(), []shardrpc.SubmitRequest{{Shard: 0, Responses: rs, Charges: charges}})[0]
			res, err := o.Result, o.Err
			if res == nil {
				return nil, nil, err
			}
			got := make([]refRecord, len(rs))
			for k, e := range shardrpc.SubmitEntries(len(rs), res, err) {
				got[k] = refRecord{throttled: e.Throttled, failed: e.AppendErr != "" || e.Err != nil, stored: e.Stored, rejected: e.Outcome.Rejected}
			}
			// The two wire shapes: a plain batch is the durable prefix beside
			// the error, a charged or throttled one is request-aligned and
			// never fails whole.
			appended := 0
			for _, g := range got {
				if g.stored > 0 {
					appended++
				}
			}
			plain := charges == nil && res.Throttled == nil
			if res.Appended != appended || (plain && len(res.Stored) != appended) || (!plain && (err != nil || len(res.Stored) != len(rs))) {
				t.Errorf("result shape: %+v, err %v", res, err)
			}
			return got, res.Outcomes, err
		},
		count: func(id string) int { return h.local.CountShard(0, id) },
		srv:   h.srv,
		peek: func(w string) budget.Account {
			a, _ := set.Peek(w)
			return a
		},
	}
}

// publicEntry submits through POST /api/v1/responses at base.
func publicEntry(base string, count func(string) int, srv *Server, peek func(string) budget.Account) refEntry {
	return refEntry{
		submit: func(t *testing.T, rs []survey.Response, _ []budget.Charge) ([]refRecord, []budget.Outcome, error) {
			resp, body := doReq(t, http.MethodPost, base+"/api/v1/responses", BatchSubmitRequest{Responses: rs}, "")
			var res BatchSubmitResult
			if err := json.Unmarshal(body, &res); err != nil || resp.StatusCode != http.StatusOK || len(res.Results) != len(rs) {
				t.Fatalf("batch submit = %d: %s", resp.StatusCode, body)
			}
			got := make([]refRecord, len(rs))
			for k, it := range res.Results {
				got[k] = refRecord{
					stored:    it.Stored,
					throttled: it.Status == http.StatusTooManyRequests && it.Error == RateLimitedCode,
					rejected:  it.Status == http.StatusTooManyRequests && it.Error == budget.ErrExhausted.Error(),
					failed:    it.Status == http.StatusBadRequest,
				}
				if it.Accepted != (it.Status == 0) || (it.Status != 0 && !got[k].throttled && !got[k].rejected && !got[k].failed) {
					t.Errorf("record %d: unexpected verdict %+v", k, it)
				}
			}
			return got, nil, nil
		},
		count: count, srv: srv, peek: peek,
	}
}

// TestSubmitPipelineAgainstReference drives one generated batch — limiter
// off/on × charges none/all/mixed × append succeeds / fails mid-batch —
// through every entry that ends in the shard host's pipeline: a node's and
// a promoted replica's shardrpc surface, a standalone server's public
// batch endpoint, and a frontend's over two nodes. Each time it checks the
// per-record verdicts, the store, the ledger and the live partials against
// referenceSubmit.
func TestSubmitPipelineAgainstReference(t *testing.T) {
	sv := clusterTestSurvey()
	sv2 := clusterTestSurvey()
	sv2.ID = "cluster2"
	known := map[string]bool{sv.ID: true, sv2.ID: true}
	// Worker a submits five times: past a burst of four, and past the
	// three medium responses the budget cap admits.
	name := refWorkers(t)
	roles := []string{"a", "b", "a", "c", "a", "a", "d", "a", "b", "e"}
	const burst, poisonAt = 4, 6
	limit := Config{RateLimitRPS: 1e-6, RateLimitBurst: burst}

	for _, entry := range []string{"node", "replica", "standalone", "frontend"} {
		for _, limited := range []bool{false, true} {
			for _, charging := range []string{"none", "all", "mixed"} {
				for _, poisoned := range []bool{false, true} {
					public := entry == "standalone" || entry == "frontend"
					if entry == "replica" && limited {
						continue // a replica has no overload gates to turn on
					}
					if public && charging == "mixed" {
						continue // a public server charges every record or none
					}
					t.Run(fmt.Sprintf("%s/limited=%v/charges=%s/poisoned=%v", entry, limited, charging, poisoned), func(t *testing.T) {
						// The batch, and what the reference makes of it. The
						// poisoned record is one the store will refuse: an
						// unknown survey where the entry lets one through to the
						// store, a store that fails at that append where the
						// public path would have answered 404 first.
						var rs, refRS []survey.Response
						for k, role := range roles {
							r := budgetResponse(sv, name[role], "medium")
							if k%4 == 3 {
								r.SurveyID = sv2.ID
							}
							ref := *r
							if poisoned && k == poisonAt {
								ref.SurveyID = "ghost"
								if !public {
									r.SurveyID = "ghost"
								}
							}
							rs, refRS = append(rs, *r), append(refRS, ref)
						}
						var charges []budget.Charge
						if charging != "none" {
							charges = make([]budget.Charge, len(rs))
							for k := range rs {
								if charging == "all" || k%2 == 0 {
									charges[k] = wireCharge(t, &rs[k], true)
								}
							}
						}
						refLedger, lerr := budget.NewSet(*wireBudget(t))
						if lerr != nil {
							t.Fatal(lerr)
						}
						defer refLedger.Close()
						refBurst := 0
						if limited {
							refBurst = burst
						}
						want, rerr := referenceSubmit(refBurst, refLedger, known, refRS, charges)
						if rerr != nil {
							t.Fatal(rerr)
						}
						storedBefore := func(k int) (n int) {
							for _, w := range want[:k] {
								if w.stored > 0 {
									n++
								}
							}
							return n
						}
						shard0 := func(int) store.Store { return seqStore{store.NewMem()} }
						if public && poisoned {
							shard0 = func(int) store.Store {
								return &failingStore{Store: store.NewMem(), failAt: storedBefore(poisonAt) + 1}
							}
						}
						cfg := Config{}
						if limited {
							cfg = limit
						}

						var e refEntry
						var hosts []*wireNode // the nodes behind the entry
						switch entry {
						case "node":
							wn := newWireNode(t, wireNodeOpts{budget: wireBudget(t), store: shard0, cfg: cfg})
							e = shardrpcEntry(wn.node.shardHost, wn.set)
							hosts = []*wireNode{wn}
						case "replica":
							rep, _ := wireReplica(t, true)
							e = shardrpcEntry(rep.shardHost, nil)
							if _, err := rep.local.Publish(sv2); err != nil {
								t.Fatal(err)
							}
						case "standalone":
							st := shard0(0)
							cfg.Store, cfg.Schedule, cfg.RequesterToken = st, core.DefaultSchedule(), testToken
							var set *budget.Set
							if charges != nil {
								set = pubLedger(t, 1, nil)
								cfg.Budget, cfg.BudgetEnforce = set, "enforce"
							}
							srv, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { srv.Close() })
							ts := httptest.NewServer(srv)
							t.Cleanup(ts.Close)
							for _, def := range []*survey.Survey{sv, sv2} {
								if _, err := st.Publish(def); err != nil {
									t.Fatal(err)
								}
							}
							e = publicEntry(ts.URL, st.ResponseCount, srv, func(w string) budget.Account {
								a, _ := set.Peek(w)
								return a
							})
						case "frontend":
							// Node 0 owns response shard 0 and budget shards {0, 2},
							// node 1 the rest; the limiter is the frontend's.
							nodes := make([]*wireNode, 2)
							hosts = nodes
							clients := make([]*shardrpc.Client, 2)
							for nd := range clients {
								o := wireNodeOpts{owned: []int{nd}, total: 2, store: shard0}
								if charges != nil {
									o.budget = &budget.SetOptions{Shards: 3, GlobalIDs: shardrpc.RoundRobinPlacement(3, 2)[nd], Config: budgetTestConfig(t)}
								}
								nodes[nd] = newWireNode(t, o)
								clients[nd] = shardrpc.NewClient(nodes[nd].url, testToken, nil)
							}
							// The manifest places three budget shards beside the two
							// response shards, round-robin like the nodes host them.
							urls := []string{nodes[0].url, nodes[1].url}
							m, err := placement.RoundRobin(2, urls)
							if err != nil {
								t.Fatal(err)
							}
							budgetRows, err := placement.RoundRobin(3, urls)
							if err != nil {
								t.Fatal(err)
							}
							m.Budget = budgetRows.Budget
							remote, err := shardrpc.NewRemoteFromManifest(m, testToken, nil)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { remote.Close() })
							cfg.Router, cfg.Schedule, cfg.RequesterToken, cfg.Role = remote, core.DefaultSchedule(), testToken, "frontend"
							if charges != nil {
								charger, err := remote.Charger(budgetTestConfig(t))
								if err != nil {
									t.Fatal(err)
								}
								if err := remote.EnablePiggybackCharges(3); err != nil {
									t.Fatal(err)
								}
								cfg.Budget, cfg.BudgetEnforce = charger, "enforce"
							}
							front, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { front.Close() })
							fts := httptest.NewServer(front)
							t.Cleanup(fts.Close)
							e = publicEntry(fts.URL, func(id string) int { return nodes[0].local.CountShard(0, id) }, nodes[0].srv,
								func(w string) budget.Account {
									a, _ := nodes[budget.Route(w, 3)%2].set.Peek(w)
									return a
								})
						}
						for _, wn := range hosts {
							if _, err := wn.node.Publish(sv2); err != nil {
								t.Fatal(err)
							}
						}

						got, outcomes, err := e.submit(t, rs, charges)
						if entry == "replica" && charging != "none" {
							// No budget shards: the batch is refused whole.
							if err == nil || got != nil || e.count(sv.ID) != 0 {
								t.Fatalf("charged batch on a replica: %+v, err %v", got, err)
							}
							return
						}
						anyFailed := false
						for _, w := range want {
							anyFailed = anyFailed || w.failed
						}
						stored := map[string]int{}
						acked := map[string]float64{}
						for k, w := range want {
							if w.stored > 0 {
								stored[rs[k].SurveyID]++
								if charges != nil {
									acked[charges[k].WorkerID] += charges[k].Rho
								}
							}
							if got[k].stored != w.stored || got[k].throttled != w.throttled || got[k].failed != w.failed || got[k].rejected != w.rejected {
								t.Errorf("record %d: got %+v, reference %+v", k, got[k], w)
							}
							if outcomes != nil && !sameOutcome(outcomes[k], w.outcome) {
								t.Errorf("record %d: outcome %+v, reference %+v", k, outcomes[k], w.outcome)
							}
						}
						// Only the plain shape — nothing charged, nothing throttled (and
						// a limited run always throttles worker a) — fails whole.
						if (err != nil) != (anyFailed && !public && charges == nil && !limited) {
							t.Errorf("err = %v, reference failed = %v", err, anyFailed)
						}

						// The store holds exactly what the reference stored, and each
						// touched survey's partial — and no other — was advanced to it.
						for _, id := range []string{sv.ID, sv2.ID, "ghost"} {
							if got := e.count(id); got != stored[id] {
								t.Errorf("survey %q: %d stored, reference %d", id, got, stored[id])
							}
							if e.srv == nil {
								continue
							}
							e.srv.liveMu.Lock()
							ls := e.srv.live[id]
							e.srv.liveMu.Unlock()
							switch {
							case stored[id] == 0 && ls != nil:
								t.Errorf("survey %q was advanced without a stored record", id)
							case stored[id] > 0 && (ls == nil || ls.parts[0].cursor.Load() != uint64(stored[id])):
								t.Errorf("survey %q: partial not advanced to %d", id, stored[id])
							}
						}
						// Ledger spend == acked spend: every worker's account matches
						// the reference's charge for charge and refund for refund, and
						// its balance is the cost of exactly the stored charged records.
						if charges != nil {
							for _, role := range []string{"a", "b", "c", "d", "e"} {
								w := name[role]
								got := e.peek(w)
								ref, err := refLedger.Peek(w)
								if err != nil {
									t.Fatal(err)
								}
								if got.Charges != ref.Charges || got.Refunds != ref.Refunds || math.Abs(got.Rho-acked[w]) > 1e-9 {
									t.Errorf("worker %q: account %+v, reference %+v, acked rho %g", w, got, ref, acked[w])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestWholeBatchRefusalCostsNothing: a batch the node refuses whole — a
// shard it does not own, a charge routed to a budget shard it does not
// host, a shard it has been demoted for — must leave the workers'
// rate-limit buckets untouched, whichever door it came in by. The sender
// re-routes and resends the same records; a refusal that had already
// spent their tokens would throttle the resend.
func TestWholeBatchRefusalCostsNothing(t *testing.T) {
	set := pubLedger(t, 2, []int{0})
	cfg := slowLimit
	cfg.Budget, cfg.BudgetEnforce = set, "enforce"
	wn := newWireNode(t, wireNodeOpts{cfg: cfg})
	wn.node.HostBudget(set)
	var hosted, unhosted string
	for i := 0; hosted == "" || unhosted == ""; i++ {
		w := fmt.Sprintf("w%d", i)
		if budget.Route(w, 2) == 0 {
			hosted = w
		} else {
			unhosted = w
		}
	}
	untouched := func(after string) {
		t.Helper()
		if info := wn.srv.admissionInfo(); info.Throttled != 0 || info.RateLimitedWorkers != 0 {
			t.Fatalf("%s touched the limiter: %+v", after, info)
		}
		for _, w := range []string{hosted, unhosted} {
			if a, err := set.Peek(w); budget.Route(w, 2) == 0 && (err != nil || a.Charges != 0) {
				t.Fatalf("%s charged worker %q: %+v, %v", after, w, a, err)
			}
		}
		if n := shardset.Count(wn.local, clusterTestSurvey().ID); n != 0 {
			t.Fatalf("%s stored %d records", after, n)
		}
	}
	misrouted := wireBatch(t, "", hosted, unhosted)
	misrouted.Shard = 7
	if r := postSubmit(t, wn.url, misrouted); r.status != http.StatusMisdirectedRequest {
		t.Fatalf("unowned shard: %v", r)
	}
	if r := postSubmit(t, wn.url, wireBatch(t, "enforce", hosted, unhosted)); r.status != http.StatusMisdirectedRequest {
		t.Fatalf("unhosted budget shard: %v", r)
	}
	// The node's own public API, enforcing: a worker it cannot meter is
	// refused, not admitted unmetered.
	for _, e := range []pubEndpoint{pubSingle, pubBatch} {
		if r := e.post(t, wn.url, pubRec(unhosted, "medium")); !bytes.Contains(r.body, []byte("shardrpc: shard 1 not owned by this node")) ||
			(r.status != http.StatusMisdirectedRequest && !bytes.Contains(r.body, []byte(`"status":421`))) {
			t.Fatalf("public %s for an unhosted budget shard: %v", e.name, r)
		}
	}
	untouched("refused batches")
	wn.node.ApplyManifest(fencedManifest(t, "http://the-new-primary", 4), wn.url)
	for _, e := range []pubEndpoint{pubSingle, pubBatch} {
		if r := e.post(t, wn.url, pubRec(hosted, "medium")); !bytes.Contains(r.body, []byte(FencedCode)) {
			t.Fatalf("public %s to a demoted shard: %v", e.name, r)
		}
	}
	untouched("fenced writes")
	wn.node.ApplyManifest(fencedManifest(t, wn.url, 5), wn.url)
	// The resend, routed right, finds full buckets.
	r := postSubmit(t, wn.url, wireBatch(t, "", hosted, unhosted))
	if r.status != http.StatusOK || strings.Contains(string(r.body), "throttled") {
		t.Fatalf("resend after the refusals: %v", r)
	}
}

// TestNodeAdmissionHonoursCaller: a batch parked in the node's admission
// queue belongs to its sender. When the sender gives up (the batching
// client has already retried elsewhere), the batch must leave the queue
// — shed, counted once — and never be charged or appended for nobody.
func TestNodeAdmissionHonoursCaller(t *testing.T) {
	release := make(chan struct{})
	wn := newWireNode(t, wireNodeOpts{
		cfg:    Config{SubmitInflight: 1, SubmitQueue: 1},
		budget: wireBudget(t),
		store: func(int) store.Store {
			return &blockingStore{Store: store.NewMem(), release: release}
		},
	})
	// Registered after the node's own cleanups, so it runs before them:
	// a failing assertion must not leave the server closing around a
	// request still parked in the store.
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)
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

	body, err := shardrpc.SubmitSections{*wireBatch(t, "enforce", "b")}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, wn.url+"/shardrpc/v1/submit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Authorization", "Bearer "+testToken)
	hreq.Header.Set("Content-Type", shardrpc.SubmitContentType)
	gaveUp := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		gaveUp <- err
	}()
	waitFor(t, "the second batch to park in the queue", func() bool {
		return wn.srv.admissionInfo().QueueDepth == 1
	})
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v", err)
	}
	waitFor(t, "the abandoned batch to leave the queue", func() bool {
		info := wn.srv.admissionInfo()
		return info.QueueDepth == 0 && info.Shed == 1
	})

	unblock()
	if r := <-first; r.status != http.StatusOK {
		t.Fatalf("admitted batch: %v", r)
	}
	if info := wn.srv.admissionInfo(); info.Admitted != 1 || info.Shed != 1 {
		t.Fatalf("admission counters: %+v", info)
	}
	if n := wn.local.CountShard(0, clusterTestSurvey().ID); n != 1 {
		t.Fatalf("%d records stored, want only the admitted one", n)
	}
	if acct, err := wn.set.Peek("b"); err != nil || acct.Charges != 0 {
		t.Fatalf("abandoned batch's worker account: %+v, %v", acct, err)
	}
}

// TestPublicSubmitOneSlotOneToken: a public submit passes each gate once,
// whichever role serves it. With a single admission slot, concurrent
// singles on a node's own API must all get through — the handler holds
// the slot, so the shard host's pipeline must not ask for it again — and
// with a bucket of two tokens a worker's first two records are stored and
// the third is throttled: an accepted record costs exactly one token.
// Run with -race.
func TestPublicSubmitOneSlotOneToken(t *testing.T) {
	gates := Config{SubmitInflight: 1, SubmitQueue: 64, RateLimitRPS: 1e-6, RateLimitBurst: 2}
	roles := map[string]func(t *testing.T) string{
		"standalone": func(t *testing.T) string {
			base, _ := pubStandalone(t, store.NewMem(), "", gates)
			return base
		},
		"node":     func(t *testing.T) string { return newWireNode(t, wireNodeOpts{cfg: gates}).url },
		"frontend": func(t *testing.T) string { return newPubCluster(t, pubClusterOpts{frontCfg: gates}).front },
	}
	for role, build := range roles {
		t.Run(role, func(t *testing.T) {
			base := build(t)
			const workers = 8
			round := func(want int) {
				t.Helper()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						r, err := pubSingle.do(base, pubRec(fmt.Sprintf("w%d", w), "medium"))
						if err != nil || r.status != want {
							t.Errorf("worker %d: %v, %v (want %d)", w, r, err, want)
						}
					}()
				}
				wg.Wait()
			}
			round(http.StatusCreated)
			round(http.StatusCreated)
			round(http.StatusTooManyRequests)
			if a := adminInfo(t, &httptest.Server{URL: base}).Admission; a.Admitted != 3*workers || a.Shed != 0 || a.Throttled != workers {
				t.Fatalf("admission counters: %+v", a)
			}
		})
	}
}

// TestFrontendFailedPlainBatchKeepsCounts: a plain four-record batch
// whose store fails at its third record answers its first two records
// stored 1 and 2 and refuses the rest, through a frontend exactly as
// standalone, and the frontend's next read — its cache warm, with an
// hour to live — counts the two.
func TestFrontendFailedPlainBatchKeepsCounts(t *testing.T) {
	failing := func(int) store.Store { return &failingStore{Store: store.NewMem(), failAt: 3} }
	var rs []survey.Response
	for i := 0; len(rs) < 4; i++ {
		if w := fmt.Sprintf("p%d", i); shardset.Route(clusterTestSurvey().ID, w, pubShards) == 0 {
			rs = append(rs, pubRec(w, "medium"))
		}
	}
	standalone, _ := pubStandalone(t, failing(0), "", Config{})
	pc := newPubCluster(t, pubClusterOpts{store: failing, frontCfg: Config{FrontendCacheTTL: time.Hour}})
	read := func() int {
		r := readGet(t, pc.front, clusterTestSurvey().ID, "quality", testToken)
		var res QualityResult
		if err := json.Unmarshal(r.body, &res); err != nil || r.status != http.StatusOK {
			t.Fatalf("frontend read: %d %s (%v)", r.status, r.body, err)
		}
		return res.Total
	}
	if n := read(); n != 0 {
		t.Fatalf("frontend reads %d responses before the batch", n)
	}
	for name, base := range map[string]string{"standalone": standalone, "frontend": pc.front} {
		r := pubBatch.post(t, base, rs...)
		var res BatchSubmitResult
		if err := json.Unmarshal(r.body, &res); err != nil || r.status != http.StatusOK || len(res.Results) != len(rs) {
			t.Fatalf("%s: %v (%v)", name, r, err)
		}
		for k, item := range res.Results {
			if stored := k + 1; k < 2 && (!item.Accepted || item.Stored != stored) || k >= 2 && (item.Accepted || item.Status != http.StatusBadRequest) {
				t.Errorf("%s: record %d answered %+v", name, k, item)
			}
		}
	}
	if n := read(); n != 2 {
		t.Errorf("frontend reads %d responses after the batch stored 2", n)
	}
}
