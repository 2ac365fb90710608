// Cluster roles: the glue that turns the one Server implementation into
// a node (hosts a shard subset, serves shardrpc, and for each shard is
// its primary, follows its primary or is fenced, as the placement
// manifest says) and a frontend (routes submits, merges node partials —
// no types here, just a Server over a shardrpc.Remote router).
package server

import (
	"errors"
	"fmt"
	"slices"

	"loki/internal/budget"
	"loki/internal/placement"
	"loki/internal/shardrpc"
)

// ---------------------------------------------------------------------------
// Node

// Node adapts a Server whose router is a journaling shardset.Local into
// the shardrpc.Backend frontends and other nodes talk to. The
// shard-addressed surface and the submit pipeline are the Server's own
// shardHost, embedded — so a write meets the same fence and the same
// ledger whether it arrives over shardrpc or on the node's public API; a
// Node adds hosted budget shards and the roles: by the placement
// manifest, each hosted shard is primary (takes writes), following
// (tails its manifest primary into the node's own store, see follow.go)
// or fenced (readable, refuses writes). Every shard starts primary at
// epoch 0 — a manifest-less node fences nothing.
type Node struct {
	*shardHost
}

// NewNode wraps a Server for shardrpc serving. The server's router must
// be a shardset.Local (a node owns real storage); totalShards is the
// cluster's global shard count.
func NewNode(srv *Server, totalShards int) (*Node, error) {
	if srv.host == nil {
		return nil, errors.New("server: a cluster node needs a local shard router")
	}
	if owned := srv.host.local.Shards(); totalShards < owned {
		return nil, fmt.Errorf("server: node owns %d shards of a %d-shard cluster", owned, totalShards)
	}
	srv.host.total = totalShards
	return &Node{srv.host}, nil
}

var _ shardrpc.Backend = (*Node)(nil)

// ApplyManifest sets every hosted shard's role from a placement
// manifest: primary where the manifest names self primary, following
// where it lists self among the replicas, fenced anywhere else. Shards
// the manifest does not place go back to unfenced primaries at epoch 0.
// A manifest older than one this node applied or wrote is ignored.
// self is this node's base URL as the manifest names it; it is also the
// follower ID the node's sources account journal acks to.
//
// The moves between roles are the cluster's lifecycle, and each has one
// path. Following → primary is a promotion (the file is the signal,
// exactly as the operator's or the lease's). Primary or fenced →
// following is a rejoin without a restart: the shard resyncs from the
// manifest primary from scratch, discarding whatever it held — records
// it accepted as a primary and never shipped included. Following from a
// new primary re-sources the tail. Anything → fenced stops writes and
// following; the data stays readable.
func (n *Node) ApplyManifest(m *placement.Manifest, self string) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	n.self = self
	n.applyLocked(m)
}

// applyLocked is ApplyManifest's body for the node's own URL; the caller
// holds syncMu.
func (n *Node) applyLocked(m *placement.Manifest) {
	if m.Version < n.version {
		return
	}
	n.version = m.Version
	for i := 0; i < n.local.Shards(); i++ {
		g := n.local.GlobalID(i)
		var next shardState
		sp := m.Placement(g)
		if sp != nil {
			next.epoch = sp.Epoch
			switch {
			case sp.Primary == n.self:
			case slices.Contains(sp.Replicas, n.self):
				next.role = roleFollowing
			default:
				next.role = roleFenced
			}
		}
		cur := n.state(i)
		switch {
		case next.role == rolePrimary && cur.role == roleFollowing:
			if _, err := n.promoteLocked(i); err != nil {
				n.srv.logf("shard %d: manifest v%d promotion: %v", g, m.Version, err)
				continue
			}
		case next.role == roleFollowing:
			n.followFrom(i, sp.Primary, cur.role != roleFollowing)
		case next.role == roleFenced && cur.role != roleFenced:
			n.srv.logf("shard %d fenced by manifest v%d (primary now %s): writes refused; list this node as a replica to rejoin",
				g, m.Version, sp.Primary)
		}
		n.setState(i, next)
	}
}

// ---------------------------------------------------------------------------
// Node budget hosting

// HostBudget attaches a budget shard set to the node: frontends debit
// worker accounts through it before forwarding submits. (A node built
// with Config.Budget already hosts that set.) A Node always
// satisfies shardrpc.BudgetBackend (so the handler always mounts the
// budget routes); without a hosted set every budget call errors. Call
// it before serving — the field is not synchronized against traffic.
func (n *Node) HostBudget(set *budget.Set) { n.budget = set }

// BudgetCharge implements shardrpc.BudgetBackend: the charge endpoint
// shares the submit pipeline's ledger commit (commitCharges). A group
// the set does not host — or whose charges route to one it does not —
// fails the call naming the first such group, else the first group.
func (n *Node) BudgetCharge(groups []shardrpc.ChargeGroup) ([][]budget.Outcome, error) {
	byShard := make(map[int][]budget.Charge, len(groups))
	for _, g := range groups {
		byShard[g.Shard] = g.Charges
	}
	outs, err := n.commitCharges(byShard)
	if errors.Is(err, budget.ErrNotHosted) {
		named := groups[0].Shard
		for _, g := range groups {
			if !n.budget.Hosts(g.Shard) {
				named = g.Shard
				break
			}
		}
		return nil, &shardrpc.ErrNotOwned{Shard: named}
	}
	if err != nil {
		return nil, err
	}
	res := make([][]budget.Outcome, len(groups))
	for i, g := range groups {
		res[i] = outs[g.Shard]
	}
	return res, nil
}

// BudgetRefund implements shardrpc.BudgetBackend.
func (n *Node) BudgetRefund(shard int, c budget.Charge) error {
	set, err := n.budgetSet()
	if err != nil {
		return err
	}
	err = set.RefundShard(shard, c)
	if errors.Is(err, budget.ErrNotHosted) {
		return &shardrpc.ErrNotOwned{Shard: shard}
	}
	return err
}

// BudgetPeek implements shardrpc.BudgetBackend.
func (n *Node) BudgetPeek(shard int, workerID string) (budget.Account, error) {
	set, err := n.budgetSet()
	if err != nil {
		return budget.Account{}, err
	}
	a, err := set.PeekShard(shard, workerID)
	if errors.Is(err, budget.ErrNotHosted) {
		return budget.Account{}, &shardrpc.ErrNotOwned{Shard: shard}
	}
	return a, err
}

// BudgetStats implements shardrpc.BudgetBackend.
func (n *Node) BudgetStats() ([]budget.ShardStats, error) {
	if n.budget == nil {
		return nil, nil
	}
	return n.budget.Stats()
}

var _ shardrpc.BudgetBackend = (*Node)(nil)
