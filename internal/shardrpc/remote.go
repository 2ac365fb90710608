package shardrpc

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/budget"
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
	// clients is guarded by routeMu: manifest application can grow it
	// (new replicas/primaries) under the lock. A positional router never
	// mutates it, so the RLock on the hot paths is uncontended. The
	// first nodes entries are the nodes the router was constructed over
	// (positional clients; a manifest's Nodes()) and never move.
	clients []*Client
	nodes   int
	// placement[globalShard] indexes clients: the positional routing
	// table, superseded by routes once a manifest is applied.
	placement []int
	// batchers group-batch the submit path per shard (see batcher.go).
	batchers []*shardBatcher
	// budgetOwner, when non-nil, maps budget shards to the node hosting
	// them (EnablePiggybackCharges): the colocation test for riding a
	// charge on the submit RPC instead of a separate charge RPC.
	budgetOwner []*Client

	metaMu    sync.Mutex
	metaTTL   time.Duration
	metaAt    time.Time
	metaList  []*survey.Survey
	metaIndex map[string]*survey.Survey

	// Failover state (see failover.go). token and httpc let manifest
	// application dial nodes the router has no client for yet; routes is
	// the manifest-derived routing table (nil = positional routing).
	token string
	httpc *http.Client

	routeMu         sync.RWMutex
	routes          []shardRoute
	manifestVersion int64
	clientsByURL    map[string]*Client

	healthMu    sync.Mutex
	healthByURL map[string]*nodeHealth

	staleReads   atomic.Uint64
	fencedWrites atomic.Uint64
	onFenced     atomic.Value // func()

	probeOnce sync.Once
	probeStop chan struct{}
	probeDone chan struct{}
}

// RoundRobinPlacement spreads a global shard space across n nodes:
// shard i lives on node i mod n. It is the canonical cluster layout
// cmd/loki-server and the cluster bench use; anything fancier (weighted
// placement, shard moves) changes only this function's caller.
func RoundRobinPlacement(totalShards, nodes int) [][]int {
	owned := make([][]int, nodes)
	for s := 0; s < totalShards; s++ {
		owned[s%nodes] = append(owned[s%nodes], s)
	}
	return owned
}

// NewRemote builds a remote router over one client per node, with
// placement[globalShard] naming the owning node's client index.
func NewRemote(clients []*Client, placement []int) (*Remote, error) {
	if len(clients) == 0 {
		return nil, errors.New("shardrpc: remote router needs at least one node client")
	}
	if len(placement) == 0 {
		return nil, errors.New("shardrpc: remote router needs a placement map")
	}
	for s, n := range placement {
		if n < 0 || n >= len(clients) {
			return nil, fmt.Errorf("shardrpc: placement maps shard %d to node %d of %d", s, n, len(clients))
		}
	}
	r := &Remote{clients: clients, nodes: len(clients), placement: placement, metaTTL: time.Second}
	r.batchers = make([]*shardBatcher, len(placement))
	for s := range r.batchers {
		r.batchers[s] = &shardBatcher{shard: s, remote: r}
	}
	return r, nil
}

// NewRemoteRoundRobin wires the canonical layout: totalShards spread
// round-robin across the given node clients. The placement is derived
// from RoundRobinPlacement — the same function nodes compute their
// ownership with — so routing and ownership cannot drift apart.
func NewRemoteRoundRobin(clients []*Client, totalShards int) (*Remote, error) {
	if len(clients) == 0 {
		return nil, errors.New("shardrpc: remote router needs at least one node client")
	}
	placement := make([]int, totalShards)
	for node, owned := range RoundRobinPlacement(totalShards, len(clients)) {
		for _, s := range owned {
			placement[s] = node
		}
	}
	return NewRemote(clients, placement)
}

// Shards implements shardset.ShardRouter.
func (r *Remote) Shards() int { return len(r.placement) }

// GlobalID implements shardset.ShardRouter: a frontend's shard space
// is the global one.
func (r *Remote) GlobalID(shard int) int { return shard }

// Route implements shardset.ShardRouter with the canonical hash.
func (r *Remote) Route(surveyID, workerID string) int {
	return shardset.Route(surveyID, workerID, len(r.placement))
}

func (r *Remote) clientFor(shard int) (*Client, error) {
	if shard < 0 || shard >= len(r.placement) {
		return nil, fmt.Errorf("shardrpc: shard %d outside [0, %d)", shard, len(r.placement))
	}
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return r.primaryLocked(shard), nil
}

// primaryLocked is the client of the node a shard's writes go to: the
// manifest's primary, or the positional binding without one. Caller
// holds routeMu.
func (r *Remote) primaryLocked(shard int) *Client {
	if r.routes != nil {
		return r.routes[shard].primary
	}
	return r.clients[r.placement[shard]]
}

// readTargets orders one shard's read candidates: the primary first
// unless the detector believes it down, then the replicas. stale[i]
// marks candidates whose answers must carry the stale-read label
// (anything that is not the shard's primary). Positional routers get
// the single fixed client.
func (r *Remote) readTargets(shard int) (clients []*Client, stale []bool, err error) {
	rt, ok := r.routeFor(shard)
	if !ok {
		c, err := r.clientFor(shard)
		if err != nil {
			return nil, nil, err
		}
		return []*Client{c}, []bool{false}, nil
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

// PutSurvey implements shardset.ShardRouter: broadcast to every node.
// A node that already holds the definition (a retried broadcast after
// a partial failure) is skipped but the broadcast continues, so a
// partial broadcast always converges; ErrExists surfaces only after
// every node has the definition, preserving the duplicate-publish
// contract.
func (r *Remote) PutSurvey(sv *survey.Survey) error {
	defer r.invalidateMeta()
	var exists error
	for _, c := range r.allClients() {
		if err := c.Publish(sv, false); err != nil {
			if errors.Is(err, store.ErrExists) {
				exists = err
				continue
			}
			return err
		}
	}
	return exists
}

// ReplaceSurvey implements shardset.ShardRouter: broadcast to every node.
func (r *Remote) ReplaceSurvey(sv *survey.Survey) error {
	defer r.invalidateMeta()
	for _, c := range r.allClients() {
		if err := c.Publish(sv, true); err != nil {
			return err
		}
	}
	return nil
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

// Submit queues records already routed (Route) to one shard on its group
// batcher: concurrent submits to a shard coalesce into batch RPCs, one
// round-trip amortized across every waiter. charges is nil or aligned
// with rs (an empty WorkerID carries none); a charge rides the record's
// RPC, and the owning node decides the debit and appends in one handler
// call — callers check CanPiggybackCharge first. Nothing has been sent
// when Submit returns: the returned function waits for the batches that
// carry the records and reports their verdicts, so one request can queue
// on several shards before it waits on any.
func (r *Remote) Submit(shard int, rs []survey.Response, charges []budget.Charge) (wait func() []SubmitEntry) {
	ps := make([]pendingSubmit, len(rs))
	for i := range ps {
		ps[i] = pendingSubmit{resp: &rs[i], done: make(chan SubmitEntry, 1)}
		if charges != nil {
			ps[i].charge = charges[i]
		}
	}
	r.batchers[shard].enqueue(ps)
	return func() []SubmitEntry {
		out := make([]SubmitEntry, len(ps))
		for i := range ps {
			out[i] = <-ps[i].done
		}
		return out
	}
}

// EnablePiggybackCharges tells the router the cluster's budget shard
// count so it can fuse a worker's budget debit into the submit RPC
// whenever the worker's budget shard lives on the same node as the
// response's shard (always, on a one-node cluster; 1/nodes of the
// time under round-robin placement otherwise). The derived placement
// is the canonical round-robin layout over the nodes the router was
// constructed over — the same list RemoteCharger is handed and the
// nodes compute their hosting from, never the client list a manifest's
// replicas have grown — so the colocation test cannot drift from where
// charges actually land.
func (r *Remote) EnablePiggybackCharges(budgetShards int) error {
	if budgetShards <= 0 {
		return fmt.Errorf("shardrpc: piggyback charges need a positive budget shard count, got %d", budgetShards)
	}
	r.routeMu.RLock()
	nodes := r.clients[:r.nodes]
	r.routeMu.RUnlock()
	owners := make([]*Client, budgetShards)
	for node, owned := range RoundRobinPlacement(budgetShards, len(nodes)) {
		for _, s := range owned {
			owners[s] = nodes[node]
		}
	}
	r.budgetOwner = owners
	return nil
}

// CanPiggybackCharge reports whether a submit routed to the given
// response shard can carry workerID's budget charge in the same RPC:
// piggybacking is enabled and the worker's budget shard is hosted by
// the node the response shard's writes go to (the same client, not the
// same index: a promoted replica hosts no budget shard).
func (r *Remote) CanPiggybackCharge(shard int, workerID string) bool {
	if r.budgetOwner == nil || shard < 0 || shard >= len(r.placement) {
		return false
	}
	r.routeMu.RLock()
	owner := r.primaryLocked(shard)
	r.routeMu.RUnlock()
	return r.budgetOwner[budget.Route(workerID, len(r.budgetOwner))] == owner
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

// PartialSince is the conditional fetch behind the frontend's partial
// cache: the owning node answers not-modified, a delta past have, or a
// full snapshot. Under manifest routing a down (or just-died) primary
// fails over to the shard's replicas; a replica-served answer carries
// the Stale mark and bumps the stale-read counter — degraded reads are
// labeled, never guessed.
func (r *Remote) PartialSince(shard int, surveyID string, have uint64) (*Partial, error) {
	clients, stale, err := r.readTargets(shard)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i, c := range clients {
		p, err := c.PartialSince(shard, surveyID, have)
		r.noteResult(c, err)
		if err == nil {
			if stale[i] {
				p.Stale = true
				r.staleReads.Add(1)
			}
			return p, nil
		}
		lastErr = err
		if !IsTransportError(err) {
			return nil, err
		}
	}
	return nil, lastErr
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
