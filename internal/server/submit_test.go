package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"loki/internal/budget"
	"loki/internal/shardrpc"
	"loki/internal/store"
	"loki/internal/survey"
)

// seqStore hides a Mem's batch appender: a batch lands record by record
// (like a replica's stores), so a record the store refuses mid-batch
// leaves a durable prefix instead of failing the batch whole.
type seqStore struct{ store.Store }

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

// TestSubmitPipelineAgainstReference drives shardHost.Submit over every
// combination of limiter off/on × charges none/all/mixed × append
// succeeds / fails mid-batch × node / promoted replica, and checks the
// result, the store, the ledger and the live partials against
// referenceSubmit.
func TestSubmitPipelineAgainstReference(t *testing.T) {
	sv := clusterTestSurvey()
	sv2 := clusterTestSurvey()
	sv2.ID = "cluster2"
	known := map[string]bool{sv.ID: true, sv2.ID: true}
	// Worker a submits five times: past a burst of four, and past the
	// three medium responses the budget cap admits.
	workers := []string{"a", "b", "a", "c", "a", "a", "d", "a", "b", "e"}
	const burst, poisonAt = 4, 6

	for _, host := range []string{"node", "replica"} {
		for _, limited := range []bool{false, true} {
			for _, charging := range []string{"none", "all", "mixed"} {
				for _, poisoned := range []bool{false, true} {
					if host == "replica" && limited {
						continue // a replica has no overload gates to turn on
					}
					name := fmt.Sprintf("%s/limited=%v/charges=%s/poisoned=%v", host, limited, charging, poisoned)
					t.Run(name, func(t *testing.T) {
						var h *shardHost
						var set *budget.Set
						if host == "node" {
							o := wireNodeOpts{
								budget: wireBudget(t),
								store:  func(int) store.Store { return seqStore{store.NewMem()} },
							}
							if limited {
								o.cfg = Config{RateLimitRPS: 1e-6, RateLimitBurst: burst}
							}
							wn := newWireNode(t, o)
							h, set = &wn.node.shardHost, wn.set
						} else {
							rep, _ := wireReplica(t, true)
							h = &rep.shardHost
						}
						if err := h.local.PutSurvey(sv2); err != nil {
							t.Fatal(err)
						}

						req := &shardrpc.SubmitRequest{Shard: 0}
						for k, w := range workers {
							r := budgetResponse(sv, w, "medium")
							if k%4 == 3 {
								r.SurveyID = sv2.ID
							}
							if poisoned && k == poisonAt {
								r.SurveyID = "ghost"
							}
							req.Responses = append(req.Responses, *r)
						}
						if charging != "none" {
							req.Charges = make([]budget.Charge, len(workers))
							for k := range req.Responses {
								if charging == "all" || k%2 == 0 {
									req.Charges[k] = wireCharge(t, &req.Responses[k], true)
								}
							}
						}

						res, err := h.Submit(context.Background(), req)
						if host == "replica" && charging != "none" {
							// No budget shards: the batch is refused whole.
							if err == nil || res != nil || h.local.CountShard(0, sv.ID) != 0 {
								t.Fatalf("charged batch on a replica: res %+v, err %v", res, err)
							}
							return
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
						want, rerr := referenceSubmit(refBurst, refLedger, known, req.Responses, req.Charges)
						if rerr != nil {
							t.Fatal(rerr)
						}

						anyThrottled, anyFailed := false, false
						stored := map[string]int{}
						acked := map[string]float64{}
						for k, w := range want {
							anyThrottled = anyThrottled || w.throttled
							anyFailed = anyFailed || w.failed
							if w.stored > 0 {
								stored[req.Responses[k].SurveyID]++
								if req.Charges != nil {
									acked[req.Charges[k].WorkerID] += req.Charges[k].Rho
								}
							}
						}
						if req.Charges == nil && !anyThrottled {
							// Plain shape: the durable prefix, beside the error
							// when the append failed.
							if (err != nil) != anyFailed {
								t.Fatalf("err = %v, reference failed = %v", err, anyFailed)
							}
							var prefix []int
							for _, w := range want {
								if w.failed {
									break
								}
								prefix = append(prefix, w.stored)
							}
							if res.Appended != len(prefix) || fmt.Sprint(res.Stored) != fmt.Sprint(prefix) {
								t.Fatalf("plain result %+v, want prefix %v", res, prefix)
							}
						} else {
							if err != nil {
								t.Fatalf("request-aligned batch failed whole: %v", err)
							}
							appended := 0
							for k, w := range want {
								if w.stored > 0 {
									appended++
								}
								if res.Stored[k] != w.stored || throttledAt(res, k) != w.throttled ||
									(res.AppendErrs != nil && res.AppendErrs[k] != "") != w.failed {
									t.Errorf("record %d: result %+v, reference %+v", k, res, w)
								}
								if req.Charges != nil && !sameOutcome(res.Outcomes[k], w.outcome) {
									t.Errorf("record %d: outcome %+v, reference %+v", k, res.Outcomes[k], w.outcome)
								}
							}
							if res.Appended != appended {
								t.Errorf("appended = %d, reference stored %d", res.Appended, appended)
							}
						}

						// The store holds exactly what the reference stored, and each
						// touched survey's partial — and no other — was advanced to it.
						for _, id := range []string{sv.ID, sv2.ID, "ghost"} {
							if got := h.local.CountShard(0, id); got != stored[id] {
								t.Errorf("survey %q: %d stored, reference %d", id, got, stored[id])
							}
							h.srv.liveMu.Lock()
							ls := h.srv.live[id]
							h.srv.liveMu.Unlock()
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
						if req.Charges != nil {
							for _, w := range []string{"a", "b", "c", "d", "e"} {
								got, err := set.Peek(w)
								if err != nil {
									t.Fatal(err)
								}
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
// host — must leave the workers' rate-limit buckets untouched. The
// sender re-routes and resends the same records; a refusal that had
// already spent their tokens would throttle the resend.
func TestWholeBatchRefusalCostsNothing(t *testing.T) {
	wn := newWireNode(t, wireNodeOpts{
		cfg:    slowLimit,
		budget: &budget.SetOptions{Shards: 2, GlobalIDs: []int{0}, Config: budgetTestConfig(t)},
	})
	var hosted, unhosted string
	for i := 0; hosted == "" || unhosted == ""; i++ {
		w := fmt.Sprintf("w%d", i)
		if budget.Route(w, 2) == 0 {
			hosted = w
		} else {
			unhosted = w
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
	if info := wn.srv.admissionInfo(); info.Throttled != 0 || info.RateLimitedWorkers != 0 {
		t.Fatalf("refused batches touched the limiter: %+v", info)
	}
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

	body, err := json.Marshal(wireBatch(t, "enforce", "b"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, wn.url+"/shardrpc/v1/submit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Authorization", "Bearer "+testToken)
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
