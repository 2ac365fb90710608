package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/budget"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// shardRole is what a host currently does for one of its shards.
type shardRole uint8

const (
	// rolePrimary accepts writes whose epoch stamp is not older than the
	// shard's (unstamped writes included).
	rolePrimary shardRole = iota
	// roleFenced is a shard the placement manifest neither makes this
	// host primary for nor lists it a replica of: its data stays
	// readable, every write bounces.
	roleFenced
	// roleFollowing is a shard the manifest lists this host a replica
	// of: the follow loop (follow.go) tails the manifest primary into it,
	// every write bounces, and reads are marked stale — the copy trails
	// its source by up to one poll plus a round-trip.
	roleFollowing
)

// shardState is one shard's role with the placement epoch it holds that
// role at (0 = no manifest applied). The two change together under
// shardHost.roleMu; only Node.ApplyManifest and a promotion change them.
type shardState struct {
	role  shardRole
	epoch uint64
}

// shardHost is what every server over a local router owns, and most of
// the shardrpc.Backend a Node serves: the router addressed by global
// shard index, the per-shard role, the read surface, the republish
// broadcast and the submit pipeline (submit.go) — which the server's own
// public API enters in-process — plus the follow loop's state, which
// Node drives (follow.go).
type shardHost struct {
	srv   *Server
	local *shardset.Local
	total int
	g2l   map[int]int

	// budget is the hosted budget shard subset (Config.Budget, or
	// Node.HostBudget); nil on a host without one, which refuses charged
	// batches.
	budget *budget.Set

	roleMu sync.RWMutex
	roles  []shardState // by local shard index
	// readOnly is set while every shard follows: the public publish and
	// submit routes then refuse outright (see Server.mutating).
	readOnly atomic.Bool

	follower
}

// follower is a host's follow loop state (follow.go): the knobs
// Node.Follow set (nil until then), this host's manifest URL, one client
// per source and a staleness cursor per shard.
type follower struct {
	follow *FollowOptions
	// self is this host's URL as the manifest names it, and the follower
	// ID its sources account journal acks to.
	self string
	// version is the newest manifest version applied or written by a
	// promotion here; an older one is stale (a watcher that loaded the
	// file before this host's promotion rewrote it) and is ignored.
	version int64
	sources map[string]*shardrpc.Client

	curMu   sync.Mutex
	cursors []ReplicaShardInfo // by local shard index
	// failSince is when each shard's tail started failing with transport
	// errors, for the PromoteAfter lease.
	failSince []time.Time

	// syncMu serializes follow cycles, promotions and manifest
	// application: an overlapping cycle would read the same journal
	// offset twice and double-apply, and a role must not flip under one.
	syncMu sync.Mutex

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// newShardHost builds srv's host over its local router; every shard
// starts primary at epoch 0. total is the global shard count.
func newShardHost(srv *Server, local *shardset.Local, total int) *shardHost {
	h := &shardHost{srv: srv, local: local, total: total,
		g2l: make(map[int]int, local.Shards()), roles: make([]shardState, local.Shards())}
	h.sources = make(map[string]*shardrpc.Client)
	h.cursors = make([]ReplicaShardInfo, local.Shards())
	h.failSince = make([]time.Time, local.Shards())
	for i := range h.roles {
		h.g2l[local.GlobalID(i)] = i
		h.cursors[i].Shard = local.GlobalID(i)
	}
	return h
}

func (h *shardHost) localShard(global int) (int, error) {
	i, ok := h.g2l[global]
	if !ok {
		return 0, &shardrpc.ErrNotOwned{Shard: global}
	}
	return i, nil
}

// state reads local shard i's role and epoch.
func (h *shardHost) state(i int) shardState {
	h.roleMu.RLock()
	defer h.roleMu.RUnlock()
	return h.roles[i]
}

// setState sets local shard i's role and epoch, and whether the host's
// shards all follow.
func (h *shardHost) setState(i int, st shardState) {
	h.roleMu.Lock()
	defer h.roleMu.Unlock()
	h.roles[i] = st
	all := true
	for _, r := range h.roles {
		all = all && r.role == roleFollowing
	}
	h.readOnly.Store(all)
}

// checkFence is the epoch gate every submit to local shard i (global
// index for the error) passes before admission, charging or appending.
// A fenced or following shard refuses every write, stamped or not. A
// primary refuses stamps older than its epoch — a sender still routing
// by a manifest from before the last promotion — and accepts the rest:
// unstamped writes (routers without a manifest) and stamps NEWER than
// its own, which mean the sender read a manifest this host has not seen
// yet, under which the host is still primary (or the sender would not
// have routed here).
func (h *shardHost) checkFence(i, global int, epoch uint64) error {
	st := h.state(i)
	if st.role != rolePrimary || (epoch != 0 && epoch < st.epoch) {
		return &shardrpc.FencedError{Shard: global, Epoch: epoch, Current: st.epoch}
	}
	return nil
}

// budgetSet guards the budget surface of a host that has none.
func (h *shardHost) budgetSet() (*budget.Set, error) {
	if h.budget == nil {
		return nil, errors.New("server: node hosts no budget shards")
	}
	return h.budget, nil
}

// Meta implements shardrpc.Backend.
func (h *shardHost) Meta() shardrpc.Meta {
	owned := make([]int, h.local.Shards())
	for i := range owned {
		owned[i] = h.local.GlobalID(i)
	}
	return shardrpc.Meta{TotalShards: h.total, OwnedShards: owned}
}

// ScanShard implements shardrpc.Backend.
func (h *shardHost) ScanShard(global int, surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error {
	i, err := h.localShard(global)
	if err != nil {
		return err
	}
	return h.local.ScanShard(i, surveyID, fromSeq, fn)
}

// CountShard implements shardrpc.Backend.
func (h *shardHost) CountShard(global int, surveyID string) int {
	i, err := h.localShard(global)
	if err != nil {
		return 0
	}
	return h.local.CountShard(i, surveyID)
}

// PartialState implements shardrpc.Backend: the host's shard partial,
// caught up and answered conditionally against the caller's cursor
// (not-modified / delta / full — see shardrpc.Partial), re-addressed
// under its global shard index and marked stale while the shard only
// follows its primary.
func (h *shardHost) PartialState(global int, surveyID string, have uint64) (*shardrpc.Partial, error) {
	i, err := h.localShard(global)
	if err != nil {
		return nil, err
	}
	p, err := h.srv.PartialState(i, surveyID, have)
	if err != nil {
		return nil, err
	}
	p.Shard = global
	p.Stale = h.state(i).role == roleFollowing
	return p, nil
}

// Tail implements shardrpc.Backend: the host's own journal, which its
// followers tail — including, after a promotion, the demoted old primary
// rejoining as a replica of the shard's new home.
func (h *shardHost) Tail(global int, epoch, offset uint64, max int, follower string) (*shardset.TailBatch, error) {
	i, err := h.localShard(global)
	if err != nil {
		return nil, err
	}
	return h.local.Tail(i, epoch, offset, max, follower)
}

// Publish implements shardrpc.Backend: the publish broadcast reaching
// this host, and a follower learning definitions from its source, take
// the public API's publish path.
func (h *shardHost) Publish(sv *survey.Survey) (store.Outcome, error) { return h.srv.publish(sv) }

// Survey implements shardrpc.Backend.
func (h *shardHost) Survey(id string) (*survey.Survey, error) { return h.local.Survey(id) }

// Surveys implements shardrpc.Backend.
func (h *shardHost) Surveys() ([]*survey.Survey, error) { return h.local.Surveys() }
