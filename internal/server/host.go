package server

import (
	"errors"
	"sync"

	"loki/internal/budget"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/survey"
)

// shardRole is what a host currently does for one of its shards.
type shardRole uint8

const (
	// rolePrimary accepts writes whose epoch stamp is not older than the
	// shard's (unstamped writes included).
	rolePrimary shardRole = iota
	// roleFenced is a primary the placement manifest has demoted: its
	// data stays readable, every write bounces.
	roleFenced
	// roleFollowing is a replica's shard before promotion: every write
	// bounces, and reads are marked stale — the copy trails its source
	// by up to one poll plus a round-trip.
	roleFollowing
)

// shardState is one shard's role with the placement epoch it holds that
// role at (0 = no manifest applied). The two change together under
// shardHost.roleMu.
type shardState struct {
	role  shardRole
	epoch uint64
}

// shardHost is what every server over a local router owns, and the part
// of the shardrpc.Backend that a Node and a Replica share: the router
// addressed by global shard index, the per-shard role, the read surface,
// the republish broadcast and the submit pipeline (submit.go) — which the
// server's own public API enters in-process. What differs stays on the
// two types — durable stores and hosted budget shards against a tail
// loop, how a role changes, and how a publish is deduplicated.
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
}

// newShardHost builds srv's host over its local router; every shard
// starts primary at epoch 0. total is the global shard count.
func newShardHost(srv *Server, local *shardset.Local, total int) *shardHost {
	h := &shardHost{srv: srv, local: local, total: total,
		g2l: make(map[int]int, local.Shards()), roles: make([]shardState, local.Shards())}
	for i := range h.roles {
		h.g2l[local.GlobalID(i)] = i
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

func (h *shardHost) setState(i int, st shardState) {
	h.roleMu.Lock()
	h.roles[i] = st
	h.roleMu.Unlock()
}

// checkFence is the epoch gate every submit to local shard i (global
// index for the error) passes before admission, charging or appending.
// A fenced or following shard refuses every write, stamped or not. A
// primary refuses stamps older than its epoch — a sender still routing
// by a manifest from before the last promotion — and accepts the rest:
// unstamped writes (legacy positional senders) and stamps NEWER than
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

// Tail implements shardrpc.Backend: the host's own journal. A replica
// serves it to downstream followers — including a demoted old primary
// rejoining as a replica of the shard's new home.
func (h *shardHost) Tail(global int, epoch, offset uint64, max int, follower string) (*shardset.TailBatch, error) {
	i, err := h.localShard(global)
	if err != nil {
		return nil, err
	}
	return h.local.Tail(i, epoch, offset, max, follower)
}

// ReplaceSurvey implements shardrpc.Backend: the republish broadcast.
// Fold state built under the old definition is invalidated exactly like
// a republish through the public API.
func (h *shardHost) ReplaceSurvey(sv *survey.Survey) error {
	if err := sv.Validate(); err != nil {
		return err
	}
	if err := h.local.ReplaceSurvey(sv); err != nil {
		return err
	}
	h.srv.invalidateLive(sv.ID)
	return nil
}

// Survey implements shardrpc.Backend.
func (h *shardHost) Survey(id string) (*survey.Survey, error) { return h.local.Survey(id) }

// Surveys implements shardrpc.Backend.
func (h *shardHost) Surveys() ([]*survey.Survey, error) { return h.local.Surveys() }
