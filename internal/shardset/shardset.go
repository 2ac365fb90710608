// Package shardset is the cluster-ready shard routing layer of the Loki
// backend: it partitions the response stream of every survey across N
// shards and fans reads back in, behind one interface with two
// implementations — Local (in-process store.Store instances, the
// single-machine deployment) and Remote (shardrpc clients talking to
// cluster nodes, the multi-machine deployment). The server's aggregate
// layer folds one partial accumulator per shard and merges the partials
// at query time, so neither implementation ever needs a cross-shard
// lock or a globally ordered stream.
//
// Placement is by hash of (survey ID, worker ID): one survey's
// responses spread across every shard, which is what lets a single hot
// survey scale past one WAL, one fsync device, one accumulator lock —
// and, with the Remote implementation, past one machine. (Contrast the
// ingest store's internal sharding, which places whole surveys and
// scales only across surveys.) Each shard assigns its own gap-free
// per-shard sequence numbers; a cursor into a survey is therefore a
// vector of per-shard seqs, and a full scan is a deterministic seq-merge
// of the per-shard streams.
package shardset

import (
	"fmt"
	"hash/fnv"
	"io"

	"loki/internal/store"
	"loki/internal/survey"
)

// ShardRouter partitions survey responses across a fixed set of shards.
// Implementations must be safe for concurrent use. The interface is the
// placement and read surface the two implementations share; writes go
// through each one's own batch entry (Local.AppendShardBatch behind the
// server's shard host, shardrpc.Remote.Submit on a frontend).
//
// Survey definitions are metadata replicated to every shard (each shard
// must validate appends against the current definition on its own), so
// Publish broadcasts.
type ShardRouter interface {
	// Shards returns the number of shards. Fixed for the router's
	// lifetime; responses are placed by hash modulo this count.
	Shards() int
	// GlobalID maps a router-local shard index to its global shard
	// index: the identity for a standalone router or a frontend (whose
	// shard space IS the global one), the node's ownership mapping for
	// a Local owning a cluster subset. Durable per-shard state
	// (checkpoints) must be keyed by global IDs, or a node redeployed
	// onto a different subset would restore another shard's state.
	GlobalID(shard int) int
	// Route returns the shard index owning a response of the given
	// survey by the given worker (Placement, below).
	Route(surveyID, workerID string) int
	// Publish broadcasts a survey definition to every shard, each of
	// which decides its own store.Outcome, and combines them: Replaced
	// if any shard replaced it, else Created if any created it. A
	// shard's failure stops no other shard's publish, so a retry after
	// a partial failure finishes the broadcast; the first error is
	// returned beside the outcome of the shards that took it.
	Publish(sv *survey.Survey) (store.Outcome, error)
	// Survey returns the survey definition (a caller-owned copy).
	Survey(id string) (*survey.Survey, error)
	// Surveys returns all survey definitions sorted by ID.
	Surveys() ([]*survey.Survey, error)
	// ScanShard streams one shard's slice of a survey with per-shard
	// sequence numbers strictly greater than fromSeq, in ascending seq
	// order. Semantics per shard match store.Store.ScanResponses.
	ScanShard(shard int, surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error
	// CountShard returns one shard's response count for the survey
	// (its highest assigned per-shard seq).
	CountShard(shard int, surveyID string) int
	// Close releases resources. The router must not be used afterwards.
	Close() error
}

// Broadcast publishes to each of n targets — the shards of a Local, the
// nodes of a Remote — even after one fails, and combines their outcomes
// as ShardRouter.Publish says: the outcomes' max, and the first error.
func Broadcast(n int, publish func(i int) (store.Outcome, error)) (store.Outcome, error) {
	var out store.Outcome
	var first error
	for i := 0; i < n; i++ {
		o, err := publish(i)
		out = max(out, o)
		if first == nil {
			first = err
		}
	}
	return out, first
}

// Route is the canonical placement hash: FNV-1a over survey ID, a NUL
// separator, and worker ID, modulo the shard count. Local and Remote
// must agree on it — a frontend routes with the same function a
// standalone server does — so it lives here as a free function.
func Route(surveyID, workerID string, shards int) int {
	h := fnv.New32a()
	io.WriteString(h, surveyID)
	h.Write([]byte{0})
	io.WriteString(h, workerID)
	return int(h.Sum32() % uint32(shards))
}

// Count sums a survey's response count across every shard.
func Count(r ShardRouter, surveyID string) int {
	total := 0
	for i := 0; i < r.Shards(); i++ {
		total += r.CountShard(i, surveyID)
	}
	return total
}

// Cursor is a resumption point into a survey's sharded stream: one
// per-shard sequence number per shard, in shard order.
type Cursor []uint64

// NewCursor returns the zero cursor (scan everything) for n shards.
func NewCursor(n int) Cursor { return make(Cursor, n) }

// Clone returns an independent copy.
func (c Cursor) Clone() Cursor { return append(Cursor(nil), c...) }

// Total is the number of responses the cursor covers (per-shard seqs
// are gap-free from 1, so they sum).
func (c Cursor) Total() uint64 {
	var t uint64
	for _, s := range c {
		t += s
	}
	return t
}

// ScanMerged fans a scan out over every shard and interleaves the
// per-shard streams into one deterministic order: at every step the
// undelivered record with the lowest per-shard seq is delivered next,
// ties broken by shard index. The order depends only on the shard
// contents, never on scan timing, so two scans over the same data agree
// record for record — the property the cross-shard merge-equivalence
// test leans on. fn receives the owning shard and the record's
// per-shard seq; a non-nil error aborts the merge and is returned.
//
// The merge materializes each shard's tail beyond the cursor before
// interleaving. That is a convenience for tests, replicas and
// equivalence checks — the server's aggregate path never needs a merged
// stream, it folds per-shard partials and Merges state instead.
func ScanMerged(r ShardRouter, surveyID string, from Cursor, fn func(shard int, seq uint64, resp *survey.Response) error) (Cursor, error) {
	n := r.Shards()
	if len(from) == 0 {
		from = NewCursor(n)
	}
	if len(from) != n {
		return nil, fmt.Errorf("shardset: cursor has %d shards, router has %d", len(from), n)
	}
	next := from.Clone()
	type rec struct {
		seq  uint64
		resp survey.Response
	}
	tails := make([][]rec, n)
	for i := 0; i < n; i++ {
		err := r.ScanShard(i, surveyID, from[i], func(seq uint64, resp *survey.Response) error {
			tails[i] = append(tails[i], rec{seq: seq, resp: resp.Clone()})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	heads := make([]int, n)
	for {
		best := -1
		for i := 0; i < n; i++ {
			if heads[i] >= len(tails[i]) {
				continue
			}
			if best < 0 || tails[i][heads[i]].seq < tails[best][heads[best]].seq {
				best = i
			}
		}
		if best < 0 {
			return next, nil
		}
		rc := &tails[best][heads[best]]
		if err := fn(best, rc.seq, &rc.resp); err != nil {
			return nil, err
		}
		next[best] = rc.seq
		heads[best]++
	}
}
