package shardrpc

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"

	"loki/internal/budget"
)

// The budget surface rides the shardrpc transport: token-guarded JSON
// endpoints a frontend debits worker accounts through before forwarding
// submits. Routes (token-guarded like everything else):
//
//	POST /shardrpc/v1/budget/charge  body BudgetChargeRequest  → BudgetChargeResult
//	                                 (a group per budget shard, all in
//	                                 one ledger commit)
//	POST /shardrpc/v1/budget/refund  body BudgetRefundRequest  → {}
//	GET  /shardrpc/v1/budget/{shard}/peek?worker=W             → budget.Account
//	GET  /shardrpc/v1/budget/stats                             → BudgetStatsResult
//
// A rejected charge is NOT a transport error: it travels inside the
// outcome with HTTP 200. Transport errors mean the debit was not
// decided, and the submit path fails closed (enforce) or open (log)
// accordingly.

// BudgetBackend is the optional budget surface a node exposes next to
// Backend. NewHandler registers the budget routes only when its backend
// implements it.
type BudgetBackend interface {
	// BudgetCharge debits charge groups, each against one hosted budget
	// shard, in one transaction: the outcomes are aligned with groups and
	// each group's charges. A group naming a shard the node does not host
	// must fail the call with ErrNotOwned, before anything is written.
	BudgetCharge(groups []ChargeGroup) ([][]budget.Outcome, error)
	// BudgetRefund credits one charge back on a hosted shard.
	BudgetRefund(shard int, c budget.Charge) error
	// BudgetPeek reads one worker's account off a hosted shard.
	BudgetPeek(shard int, workerID string) (budget.Account, error)
	// BudgetStats reports the node's hosted budget shards.
	BudgetStats() ([]budget.ShardStats, error)
}

// BudgetChargeRequest is one charge call to a node: a group per budget
// shard, decided in one ledger commit.
type BudgetChargeRequest struct {
	Groups []ChargeGroup `json:"groups"`
}

// ChargeGroup is a routed charge batch: every charge's worker hashes to
// Shard under budget.Route.
type ChargeGroup struct {
	Shard   int             `json:"shard"`
	Charges []budget.Charge `json:"charges,omitempty"`
}

// BudgetChargeResult answers a BudgetChargeRequest: one entry per group,
// in order.
type BudgetChargeResult struct {
	Groups []GroupOutcomes `json:"groups"`
}

// GroupOutcomes carries one outcome per group charge, in order.
type GroupOutcomes struct {
	Outcomes []budget.Outcome `json:"outcomes,omitempty"`
}

// BudgetRefundRequest credits one charge back.
type BudgetRefundRequest struct {
	Shard  int           `json:"shard"`
	Charge budget.Charge `json:"charge"`
}

// BudgetStatsResult lists one node's hosted budget shards.
type BudgetStatsResult struct {
	Shards []budget.ShardStats `json:"shards"`
}

func (h *Handler) registerBudget(bb BudgetBackend) {
	h.mux.HandleFunc("POST /shardrpc/v1/budget/charge", func(w http.ResponseWriter, r *http.Request) {
		var req BudgetChargeRequest
		if !readJSON(w, r, &req) {
			return
		}
		groups := req.Groups
		if len(groups) == 0 {
			writeErr(w, http.StatusBadRequest, "charge call has no group")
			return
		}
		for i, g := range groups {
			if len(g.Charges) == 0 {
				writeErr(w, http.StatusBadRequest, "charge batch is empty")
				return
			}
			for _, prev := range groups[:i] {
				if prev.Shard == g.Shard {
					writeErr(w, http.StatusBadRequest, fmt.Sprintf("charge call names budget shard %d twice", g.Shard))
					return
				}
			}
		}
		outs, err := bb.BudgetCharge(groups)
		if err != nil {
			writeBackendErr(w, err)
			return
		}
		res := BudgetChargeResult{Groups: make([]GroupOutcomes, len(outs))}
		for i := range outs {
			res.Groups[i].Outcomes = outs[i]
		}
		writeOK(w, &res)
	})
	h.mux.HandleFunc("POST /shardrpc/v1/budget/refund", func(w http.ResponseWriter, r *http.Request) {
		var req BudgetRefundRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := bb.BudgetRefund(req.Shard, req.Charge); err != nil {
			writeBackendErr(w, err)
			return
		}
		writeOK(w, struct{}{})
	})
	h.mux.HandleFunc("GET /shardrpc/v1/budget/{shard}/peek", func(w http.ResponseWriter, r *http.Request) {
		shard, ok := pathShard(w, r)
		if !ok {
			return
		}
		worker := r.URL.Query().Get("worker")
		if worker == "" {
			writeErr(w, http.StatusBadRequest, "peek needs a worker")
			return
		}
		a, err := bb.BudgetPeek(shard, worker)
		if err != nil {
			writeBackendErr(w, err)
			return
		}
		writeOK(w, a)
	})
	h.mux.HandleFunc("GET /shardrpc/v1/budget/stats", func(w http.ResponseWriter, _ *http.Request) {
		stats, err := bb.BudgetStats()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeOK(w, BudgetStatsResult{Shards: stats})
	})
}

// chargeGroups debits several budget shards' batches in one call (one
// ledger commit on the node) and returns each group's outcomes or the
// error that left it undecided.
func (c *Client) chargeGroups(groups []ChargeGroup) []chargeOutcome {
	outs := make([]chargeOutcome, len(groups))
	var res BudgetChargeResult
	err := c.do(http.MethodPost, "/shardrpc/v1/budget/charge", nil, &BudgetChargeRequest{Groups: groups}, &res)
	if err == nil && len(res.Groups) != len(groups) {
		err = fmt.Errorf("%w: %d results for %d charge groups", errProtocol, len(res.Groups), len(groups))
	}
	for i := range outs {
		switch {
		case err != nil:
			outs[i].err = err
		case len(res.Groups[i].Outcomes) != len(groups[i].Charges):
			outs[i].err = fmt.Errorf("%w: %d outcomes for %d charges", errProtocol, len(res.Groups[i].Outcomes), len(groups[i].Charges))
		default:
			outs[i].outs = res.Groups[i].Outcomes
		}
	}
	return outs
}

// chargeOutcome is one charge group's answer.
type chargeOutcome struct {
	outs []budget.Outcome
	err  error
}

// BudgetRefund credits one charge back on its budget shard.
func (c *Client) BudgetRefund(shard int, ch budget.Charge) error {
	return c.do(http.MethodPost, "/shardrpc/v1/budget/refund", nil,
		&BudgetRefundRequest{Shard: shard, Charge: ch}, nil)
}

// BudgetPeek reads one worker's account.
func (c *Client) BudgetPeek(shard int, workerID string) (budget.Account, error) {
	var a budget.Account
	q := url.Values{"worker": {workerID}}
	err := c.do(http.MethodGet, "/shardrpc/v1/budget/"+strconv.Itoa(shard)+"/peek", q, nil, &a)
	return a, err
}

// BudgetStats fetches one node's hosted budget shard stats.
func (c *Client) BudgetStats() ([]budget.ShardStats, error) {
	var res BudgetStatsResult
	if err := c.do(http.MethodGet, "/shardrpc/v1/budget/stats", nil, nil, &res); err != nil {
		return nil, err
	}
	return res.Shards, nil
}

// RemoteCharger is the frontend's budget.Charger: it routes every
// charge to the node hosting the worker's budget shard through a node
// queue exactly like the submit path's (see queue.go) — one lane per
// budget shard — so a busy frontend amortizes one charge call per node
// across every submit waiting in the same window, and the node decides
// each call in one ledger commit.
//
// The Config it reports is the frontend's flag-derived copy for the
// admin surface; the owning shard's own config decides accept/reject.
type RemoteCharger struct {
	cfg   budget.Config
	hosts []*Client // by budget shard
	queue *nodeQueue
}

// NewRemoteCharger is the Charger of NewRemoteRoundRobin(clients,
// totalShards): the budget rows of the same round-robin manifest.
func NewRemoteCharger(clients []*Client, totalShards int, cfg budget.Config) (*RemoteCharger, error) {
	r, err := NewRemoteRoundRobin(clients, totalShards)
	if err != nil {
		return nil, err
	}
	return r.Charger(cfg)
}

// Charger returns the budget.Charger over the router's manifest: each
// worker's charges, refunds and peeks go to the host of its budget row,
// the rows CanPiggybackCharge decides colocation by. Budget rows never
// move under a router (ApplyManifest refuses), so the charger never
// needs rebuilding.
func (r *Remote) Charger(cfg budget.Config) (*RemoteCharger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r.routeMu.RLock()
	hosts := r.table.budget
	r.routeMu.RUnlock()
	c := &RemoteCharger{cfg: cfg, hosts: hosts}
	c.queue = newNodeQueue(len(hosts), func(b int) (*Client, uint64, error) { return hosts[b], 0, nil }, c.ship)
	return c, nil
}

// Config implements budget.Charger.
func (r *RemoteCharger) Config() budget.Config { return r.cfg }

// Shards implements budget.Charger.
func (r *RemoteCharger) Shards() int { return len(r.hosts) }

// Charge implements budget.Charger through the node queue.
func (r *RemoteCharger) Charge(c budget.Charge) (budget.Outcome, error) {
	e := r.ChargeEach([]budget.Charge{c})[0]
	return e.Outcome, e.Err
}

// ChargeEach debits several workers' charges and waits for every
// verdict: the charges of one node leave in one call. The entries are
// aligned with cs, each holding the ledger's Outcome or the Err that
// left the charge undecided.
func (r *RemoteCharger) ChargeEach(cs []budget.Charge) []SubmitEntry {
	ps := make([]pending, len(cs))
	for i := range ps {
		ps[i] = pending{lane: budget.Route(cs[i].WorkerID, len(r.hosts)), charge: cs[i]}
	}
	return r.queue.enqueue(ps)()
}

// ship sends one charge call — a group per budget shard — and hands
// every waiter its outcome. The node decides the whole call
// transactionally, so an error fails every charge of the groups it
// covers: a failed call recorded nothing the caller may act on.
func (r *RemoteCharger) ship(c *Client, secs []section) {
	groups := make([]ChargeGroup, len(secs))
	for i, sec := range secs {
		groups[i] = ChargeGroup{Shard: sec.lane, Charges: make([]budget.Charge, len(sec.recs))}
		for j, p := range sec.recs {
			groups[i].Charges[j] = p.charge
		}
	}
	for i, o := range c.chargeGroups(groups) {
		for j, p := range secs[i].recs {
			if o.err != nil {
				p.done <- SubmitEntry{Err: o.err}
			} else {
				p.done <- SubmitEntry{Outcome: o.outs[j]}
			}
		}
	}
}

// Refund implements budget.Charger. Refunds are rare (they compensate
// failed appends), so they ship directly rather than batching.
func (r *RemoteCharger) Refund(c budget.Charge) error {
	shard := budget.Route(c.WorkerID, len(r.hosts))
	return r.hosts[shard].BudgetRefund(shard, c)
}

// Peek implements budget.Charger.
func (r *RemoteCharger) Peek(workerID string) (budget.Account, error) {
	shard := budget.Route(workerID, len(r.hosts))
	return r.hosts[shard].BudgetPeek(shard, workerID)
}

// Stats implements budget.Charger: every host's shards, concatenated
// and sorted by global shard index.
func (r *RemoteCharger) Stats() ([]budget.ShardStats, error) {
	var out []budget.ShardStats
	for i, c := range r.hosts {
		if slices.Contains(r.hosts[:i], c) {
			continue
		}
		stats, err := c.BudgetStats()
		if err != nil {
			return nil, err
		}
		out = append(out, stats...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out, nil
}

// Close implements budget.Charger; the HTTP clients hold nothing worth
// tearing down.
func (r *RemoteCharger) Close() error { return nil }

var _ budget.Charger = (*RemoteCharger)(nil)
