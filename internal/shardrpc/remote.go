package shardrpc

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/budget"
	"loki/internal/placement"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Remote is the cluster-side shardset.ShardRouter: every shard-addressed
// call is forwarded to the node owning that global shard, survey
// metadata broadcasts to every node. It is what a frontend hands the
// server instead of a local store.
//
// Survey definitions are read-heavy (every submit resolves one), so
// Remote keeps a short-TTL read-through cache; publishes and
// republishes invalidate it. The TTL bounds frontend/node skew for
// definitions changed behind the frontend's back (an operator
// publishing directly to a node), which nodes tolerate anyway — they
// re-validate every append.
type Remote struct {
	// submits is the write path's node queue (queue.go): one lane per
	// response shard of the manifest, a count fixed for the router's
	// life.
	submits *nodeQueue
	// piggyback is set by EnablePiggybackCharges: a charge may ride the
	// submit RPC when its budget shard's host is the response shard's
	// primary.
	piggyback bool

	metaMu    sync.Mutex
	metaTTL   time.Duration
	metaAt    time.Time
	metaList  []*survey.Survey
	metaIndex map[string]*survey.Survey

	// token and httpc let manifest application dial nodes the router has
	// no client for yet (see failover.go).
	token string
	httpc *http.Client

	// routeMu guards the routing table and the clients it names: manifest
	// application swaps the table and may grow the client list. Between
	// applications the RLock on the hot paths is uncontended.
	routeMu      sync.RWMutex
	table        routing
	clients      []*Client
	clientsByURL map[string]*Client

	healthMu    sync.Mutex
	healthByURL map[string]*nodeHealth

	staleReads   atomic.Uint64
	fencedWrites atomic.Uint64
	onFenced     atomic.Value // func()

	probeOnce sync.Once
	probeStop chan struct{}
	probeDone chan struct{}
}

// RoundRobinPlacement lists, per node, the shards a round-robin
// placement.Manifest over nodes nodes makes it primary for.
func RoundRobinPlacement(totalShards, nodes int) [][]int {
	return placement.RoundRobinShards(totalShards, nodes)
}

// NewRemoteRoundRobin routes totalShards shards round-robin across the
// given node clients: placement.RoundRobin's layout, held as an
// in-memory manifest at version 0 with every epoch 0. Version 0 is no
// manifest at all — writes go unstamped and are never health-gated, and
// there is no failover state to report — until ApplyManifest installs a
// real one.
func NewRemoteRoundRobin(clients []*Client, totalShards int) (*Remote, error) {
	urls := make([]string, len(clients))
	for i, c := range clients {
		urls[i] = c.BaseURL()
	}
	m, err := placement.RoundRobin(totalShards, urls)
	if err != nil {
		return nil, err
	}
	m.Version = 0
	for i := range m.Shards {
		m.Shards[i].Epoch = 0
	}
	return newRemote(m, clients, "", nil)
}

// newRemote builds the router over a manifest, reusing the given clients
// for the nodes they name and dialling any other node with token.
func newRemote(m *placement.Manifest, clients []*Client, token string, httpc *http.Client) (*Remote, error) {
	r := &Remote{metaTTL: time.Second, token: token, httpc: httpc, clientsByURL: make(map[string]*Client)}
	for _, c := range clients {
		if r.clientsByURL[c.BaseURL()] == nil {
			r.clients = append(r.clients, c)
			r.clientsByURL[c.BaseURL()] = c
		}
	}
	r.submits = newNodeQueue(len(m.Shards), r.submitTarget, r.shipSubmits)
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	if err := r.applyLocked(m); err != nil {
		return nil, err
	}
	return r, nil
}

// Shards implements shardset.ShardRouter.
func (r *Remote) Shards() int { return len(r.submits.lanes) }

// GlobalID implements shardset.ShardRouter: a frontend's shard space
// is the global one.
func (r *Remote) GlobalID(shard int) int { return shard }

// Route implements shardset.ShardRouter with the canonical hash.
func (r *Remote) Route(surveyID, workerID string) int {
	return shardset.Route(surveyID, workerID, len(r.submits.lanes))
}

// route snapshots one shard's row of the routing table, and whether the
// table is positional (see routing.positional).
func (r *Remote) route(shard int) (shardRoute, bool, error) {
	if shard < 0 || shard >= len(r.submits.lanes) {
		return shardRoute{}, false, fmt.Errorf("shardrpc: shard %d outside [0, %d)", shard, len(r.submits.lanes))
	}
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return r.table.shards[shard], r.table.positional(), nil
}

// readTargets orders one shard's read candidates: the primary first
// unless the detector believes it down, then the replicas. stale[i]
// marks candidates whose answers must carry the stale-read label
// (anything that is not the shard's primary).
func (r *Remote) readTargets(shard int) (clients []*Client, stale []bool, err error) {
	rt, _, err := r.route(shard)
	if err != nil {
		return nil, nil, err
	}
	if !r.nodeDown(rt.primary.BaseURL()) {
		clients = append(clients, rt.primary)
		stale = append(stale, false)
	}
	for _, rep := range rt.replicas {
		clients = append(clients, rep)
		stale = append(stale, true)
	}
	if len(clients) == 0 {
		// Primary down and no replicas placed: reads have nowhere to go.
		clients = append(clients, rt.primary)
		stale = append(stale, false)
	}
	return clients, stale, nil
}

// invalidateMeta drops the survey cache (after any publish).
func (r *Remote) invalidateMeta() {
	r.metaMu.Lock()
	r.metaAt = time.Time{}
	r.metaList = nil
	r.metaIndex = nil
	r.metaMu.Unlock()
}

// refreshMetaLocked refetches the survey list when the cache is stale.
// Definitions are replicated to every node, so any reachable one can
// answer: believed-up nodes are tried first, every node as a last
// resort, so a dead first peer does not take survey resolution (and
// with it the whole submit path) down. Caller holds metaMu.
func (r *Remote) refreshMetaLocked() error {
	if r.metaIndex != nil && time.Since(r.metaAt) < r.metaTTL {
		return nil
	}
	clients := r.allClients()
	ordered := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if !r.nodeDown(c.BaseURL()) {
			ordered = append(ordered, c)
		}
	}
	for _, c := range clients {
		if r.nodeDown(c.BaseURL()) {
			ordered = append(ordered, c)
		}
	}
	var lastErr error
	for _, c := range ordered {
		svs, err := c.Surveys()
		r.noteResult(c, err)
		if err != nil {
			lastErr = err
			if IsTransportError(err) {
				continue
			}
			return err
		}
		idx := make(map[string]*survey.Survey, len(svs))
		for _, sv := range svs {
			idx[sv.ID] = sv
		}
		r.metaList, r.metaIndex, r.metaAt = svs, idx, time.Now()
		return nil
	}
	return lastErr
}

// Publish implements shardset.ShardRouter: broadcast to every node,
// each of which combines its own shards' outcomes.
func (r *Remote) Publish(sv *survey.Survey) (store.Outcome, error) {
	defer r.invalidateMeta()
	clients := r.allClients()
	return shardset.Broadcast(len(clients), func(i int) (store.Outcome, error) { return clients[i].Publish(sv) })
}

// PutSurvey is Publish without the outcome: a compile shim for the
// benchmark module, which calls it, and goes with that module's next
// change. Nothing else may call it.
func (r *Remote) PutSurvey(sv *survey.Survey) error {
	_, err := r.Publish(sv)
	return err
}

// Survey implements shardset.ShardRouter through the metadata cache.
func (r *Remote) Survey(id string) (*survey.Survey, error) {
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	if err := r.refreshMetaLocked(); err != nil {
		return nil, err
	}
	sv, ok := r.metaIndex[id]
	if !ok {
		return nil, fmt.Errorf("shardrpc: survey %q: %w", id, store.ErrNotFound)
	}
	return sv.Clone(), nil
}

// Surveys implements shardset.ShardRouter through the metadata cache.
func (r *Remote) Surveys() ([]*survey.Survey, error) {
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	if err := r.refreshMetaLocked(); err != nil {
		return nil, err
	}
	out := make([]*survey.Survey, len(r.metaList))
	for i, sv := range r.metaList {
		out[i] = sv.Clone()
	}
	return out, nil
}

// Submit queues records already routed (Route) — record i to shard
// shards[i] — on the router's node queue: a request's records for one
// node leave in one call, coalesced with every other request's. charges
// is nil or aligned with rs (an empty WorkerID carries none); a charge
// rides its record's call, and the owning node decides the debit and
// appends in one handler call — callers check CanPiggybackCharge first.
// Nothing has been sent when Submit returns: the returned function
// waits for the calls that carry the records and reports their
// verdicts, aligned with rs.
func (r *Remote) Submit(shards []int, rs []survey.Response, charges []budget.Charge) (wait func() []SubmitEntry) {
	ps := make([]pending, len(rs))
	for i := range ps {
		ps[i] = pending{lane: shards[i], resp: &rs[i]}
		if charges != nil {
			ps[i].charge = charges[i]
		}
	}
	return r.submits.enqueue(ps)
}

// shipSubmits sends one node call — a section per shard, charges riding
// along wherever a record carries one — and hands every caller its
// entry of its section's reply (SubmitEntries).
func (r *Remote) shipSubmits(c *Client, secs []section) {
	reqs := make(SubmitSections, len(secs))
	for i, sec := range secs {
		req := &reqs[i]
		*req = SubmitRequest{Shard: sec.lane, Epoch: sec.epoch, Responses: make([]survey.Response, len(sec.recs))}
		for j, p := range sec.recs {
			req.Responses[j] = *p.resp
			if p.charge.WorkerID != "" {
				if req.Charges == nil {
					req.Charges = make([]budget.Charge, len(sec.recs))
				}
				req.Charges[j] = p.charge
			}
		}
	}
	for i, o := range c.SubmitSections(reqs) {
		// Feed the router's failure detector and fence accounting: a
		// transport error marks the node down (the next call fails fast
		// and reads fail over), a fenced section nudges a manifest refresh.
		r.noteResult(c, o.Err)
		if errors.Is(o.Err, ErrFenced) {
			r.noteFenced()
		}
		for j, e := range SubmitEntries(len(secs[i].recs), o.Result, o.Err) {
			if e.ChargeErr != "" {
				// What the node could not decide reads, on this side of the
				// wire, as an undecided charge and then the node's reason —
				// the text the public 503 has always carried.
				e.ChargeErr = budget.ErrUndecided.Error() + ": " + e.ChargeErr
			}
			secs[i].recs[j].done <- e
		}
	}
}

// EnablePiggybackCharges lets the router fuse a worker's budget debit
// into the submit RPC whenever the manifest's budget row for the worker
// names the response shard's primary (always, on a one-node cluster;
// 1/nodes of the time under round-robin placement otherwise).
// budgetShards must be the manifest's budget shard count: the colocation
// test reads the same rows the router's Charger charges by, so it cannot
// drift from where charges land.
func (r *Remote) EnablePiggybackCharges(budgetShards int) error {
	r.routeMu.RLock()
	placed := len(r.table.budget)
	r.routeMu.RUnlock()
	if budgetShards != placed {
		return fmt.Errorf("shardrpc: piggyback charges over %d budget shards, but the manifest places %d", budgetShards, placed)
	}
	r.piggyback = true
	return nil
}

// CanPiggybackCharge reports whether a submit routed to the given
// response shard can carry workerID's budget charge in the same RPC:
// piggybacking is enabled and the worker's budget shard is hosted by
// the node the response shard's writes go to (the same client, not the
// same index: a promoted replica hosts no budget shard).
func (r *Remote) CanPiggybackCharge(shard int, workerID string) bool {
	if !r.piggyback || shard < 0 || shard >= len(r.submits.lanes) {
		return false
	}
	r.routeMu.RLock()
	t := &r.table
	ok := t.budget[budget.Route(workerID, len(t.budget))] == t.shards[shard].primary
	r.routeMu.RUnlock()
	return ok
}

// ScanShard implements shardset.ShardRouter by paging through the
// owning node's scan endpoint. Under manifest routing a down primary
// fails over to the shard's replicas; the target is fixed at scan start
// (switching providers mid-scan could re-deliver records to a
// non-idempotent callback, so a primary dying mid-scan fails the scan
// and the caller retries onto the replica).
func (r *Remote) ScanShard(shard int, surveyID string, fromSeq uint64, fn func(seq uint64, resp *survey.Response) error) error {
	clients, _, err := r.readTargets(shard)
	if err != nil {
		return err
	}
	var lastErr error
	for _, c := range clients {
		cursor := fromSeq
		delivered := false
		for {
			batch, err := c.Scan(shard, surveyID, cursor, maxScanPage)
			r.noteResult(c, err)
			if err != nil {
				// Fail over only before anything was delivered: a fresh
				// start on the replica re-delivers nothing.
				if IsTransportError(err) && !delivered {
					lastErr = err
					break
				}
				return err
			}
			for i := range batch.Records {
				rec := &batch.Records[i]
				if err := fn(rec.Seq, &rec.Response); err != nil {
					return err
				}
				delivered = true
			}
			if !batch.More {
				return nil
			}
			cursor = batch.NextSeq
		}
	}
	return lastErr
}

// CountShard implements shardset.ShardRouter. The interface cannot
// carry an error; an unreachable shard (primary and replicas) reads as
// zero, matching how a local router reports an unknown survey.
func (r *Remote) CountShard(shard int, surveyID string) int {
	clients, _, err := r.readTargets(shard)
	if err != nil {
		return 0
	}
	for _, c := range clients {
		n, err := c.Count(shard, surveyID)
		r.noteResult(c, err)
		if err == nil {
			return n
		}
		if !IsTransportError(err) {
			return 0
		}
	}
	return 0
}

// Partials is the conditional fetch behind the frontend's partial cache,
// one call per node: have[s] is the cursor the caller holds for shard s
// of the router (0 = none), and shard s's answer — not-modified, a delta
// past have[s], or a full snapshot — comes back as parts[s], or its
// failure as errs[s].
//
// It resolves in rounds. Round k sends every unresolved shard to its
// k-th read candidate (readTargets: the primary unless believed down,
// then the replicas), one call per node, the last on the caller's
// goroutine. A call that fails in transport marks its node down, and
// its shards move to round k+1; a shard with no candidate left keeps the
// transport error. An error the node answered fails its shards where
// they are. A replica-served answer carries the Stale mark and bumps the
// stale-read counter once per shard — stale reads are labeled, never
// guessed.
func (r *Remote) Partials(surveyID string, have []uint64) (parts []*Partial, errs []error) {
	parts, errs = make([]*Partial, len(have)), make([]error, len(have))
	targets := make([][]*Client, len(have))
	stale := make([][]bool, len(have))
	pending := make([]int, 0, len(have))
	for s := range have {
		if targets[s], stale[s], errs[s] = r.readTargets(s); errs[s] == nil {
			pending = append(pending, s)
		}
	}
	for k := 0; len(pending) > 0; k++ {
		calls := groupByTarget(pending, targets, k)
		var wg sync.WaitGroup
		for i := range calls {
			call := &calls[i]
			req := &PartialsRequest{SurveyID: surveyID, Shards: make([]ShardCursor, len(call.shards))}
			for j, s := range call.shards {
				req.Shards[j] = ShardCursor{Shard: s, Have: have[s]}
			}
			if i == len(calls)-1 {
				call.parts, call.err = call.c.Partials(req) // the last (often the only) one inline
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				call.parts, call.err = call.c.Partials(req)
			}()
		}
		wg.Wait()
		pending = pending[:0]
		for _, call := range calls {
			r.noteResult(call.c, call.err)
			for j, s := range call.shards {
				if call.err != nil {
					errs[s] = call.err
					if IsTransportError(call.err) && k+1 < len(targets[s]) {
						pending = append(pending, s)
					}
					continue
				}
				parts[s], errs[s] = call.parts[j], nil
				if stale[s][k] {
					parts[s].Stale = true
					r.staleReads.Add(1)
				}
			}
		}
	}
	return parts, errs
}

// partialCall is one node's share of a Partials round.
type partialCall struct {
	c      *Client
	shards []int
	parts  []*Partial
	err    error
}

// groupByTarget groups shards by their k-th read candidate, in order of
// first appearance.
func groupByTarget(shards []int, targets [][]*Client, k int) []partialCall {
	var calls []partialCall
next:
	for _, s := range shards {
		c := targets[s][k]
		for i := range calls {
			if calls[i].c == c {
				calls[i].shards = append(calls[i].shards, s)
				continue next
			}
		}
		calls = append(calls, partialCall{c: c, shards: []int{s}})
	}
	return calls
}

// Close implements shardset.ShardRouter: stops the failover prober when
// one was started. The HTTP clients hold no resources worth tearing
// down.
func (r *Remote) Close() error {
	if r.probeStop != nil {
		select {
		case <-r.probeStop:
		default:
			close(r.probeStop)
		}
		<-r.probeDone
	}
	return nil
}

var _ shardset.ShardRouter = (*Remote)(nil)
