// The follow loop: how a node's following shards tail their manifest
// primary's append journal into the node's own stores, and how a
// following shard becomes primary.
package server

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// tailPage bounds one journal tail fetch and one bootstrap scan page.
const tailPage = 1024

// FollowOptions are the knobs of a node's follow loop.
type FollowOptions struct {
	// PollInterval is how often the node polls its sources' journal
	// tails (default 500ms). Staleness is bounded by it plus one
	// round-trip.
	PollInterval time.Duration
	// PromoteAfter, when positive, is the failover lease: a following
	// shard whose tail has been failing with transport errors (source
	// unreachable) for longer than this is promoted automatically,
	// exactly as if the operator had posted the promote signal. Zero
	// leaves promotion to the operator and the manifest.
	PromoteAfter time.Duration
	// ManifestPath, when set, lets a promotion rewrite the shared
	// placement manifest: the shard's epoch bumps, this node becomes the
	// primary, and every watcher re-routes (the old primary fences, other
	// followers re-source). Without it, promotion only flips the local
	// shard writable.
	ManifestPath string
	// OpenStore returns an empty store for a global shard, replacing the
	// one a resync discards (the old one is closed first, so it may reuse
	// its files). Nil opens a store.Mem.
	OpenStore func(global int) (store.Store, error)
}

// Follow arms the node's follow loop: every PollInterval it tails each
// following shard's manifest primary. The manifest decides which shards
// follow (ApplyManifest); until one does, a cycle does nothing. It also
// enables the operator's promote signal. Call it once, before serving;
// Close stops the loop.
func (n *Node) Follow(o FollowOptions) {
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	n.syncMu.Lock()
	n.follow = &o
	n.syncMu.Unlock()
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	go n.loop()
}

// Close stops the follow loop, if Follow started one. The node's server
// and router are closed by their owners.
func (n *Node) Close() error {
	if n.stop == nil {
		return nil
	}
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
	return nil
}

// loop runs a follow cycle on the interval until Close.
func (n *Node) loop() {
	defer close(n.done)
	t := time.NewTicker(n.follow.PollInterval)
	defer t.Stop()
	n.SyncOnce()
	for {
		select {
		case <-t.C:
			n.SyncOnce()
		case <-n.stop:
			return
		}
	}
}

// source returns the client for a source URL; the caller holds syncMu.
func (n *Node) source(url string) *shardrpc.Client {
	c, ok := n.sources[url]
	if !ok {
		c = shardrpc.NewClient(url, n.srv.cfg.ClusterToken, nil)
		n.sources[url] = c
	}
	return c
}

// cursor copies local shard i's follow cursor.
func (h *shardHost) cursor(i int) ReplicaShardInfo {
	h.curMu.Lock()
	defer h.curMu.Unlock()
	return h.cursors[i]
}

// followFrom points local shard i's cursor at source. A shard that was
// not following (primary, fenced) resyncs from scratch: what it holds may
// include records the source never had.
func (n *Node) followFrom(i int, source string, fresh bool) {
	n.curMu.Lock()
	defer n.curMu.Unlock()
	c := &n.cursors[i]
	if fresh || c.Source != source {
		n.srv.logf("shard %d: following %s", c.Shard, source)
	}
	if fresh {
		c.Epoch, c.AppliedOffset = 0, 0
	}
	c.Source = source
	n.failSince[i] = time.Time{}
}

// SyncOnce runs one follow cycle: for each following shard, refresh its
// source's survey definitions, then drain the shard's journal tail.
// Exported so tests can drive the loop deterministically.
func (n *Node) SyncOnce() {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	if n.follow == nil {
		return
	}
	synced := make(map[string]bool)
	for i := range n.cursors {
		if n.state(i).role != roleFollowing {
			continue
		}
		if src := n.cursor(i).Source; !synced[src] {
			synced[src] = true
			surveys, err := n.source(src).Surveys()
			if err != nil {
				// Keep going: an unreachable source must still drive the
				// shard's tail cycle, because that is where transport
				// failures feed the failover lease.
				n.srv.logf("follow survey sync from %s: %v", src, err)
			} else {
				n.syncSurveys(surveys)
			}
		}
		n.syncShard(i)
	}
}

// syncSurveys publishes the source's definitions into the local
// stores, which decide what each changes.
func (n *Node) syncSurveys(surveys []*survey.Survey) {
	for _, sv := range surveys {
		if _, err := n.Publish(sv); err != nil {
			n.srv.logf("follow publish %q: %v", sv.ID, err)
		}
	}
}

// resetShard discards local shard i for a resync: an empty store from
// the node's opener, a fresh own journal (the node's followers resync
// exactly like it does), and no live partial or checkpoint indexing the
// old contents.
func (n *Node) resetShard(i int) error {
	g := n.local.GlobalID(i)
	open := func() (store.Store, error) { return store.NewMem(), nil }
	if n.follow.OpenStore != nil {
		open = func() (store.Store, error) { return n.follow.OpenStore(g) }
	}
	if err := n.local.ResetShard(i, open); err != nil {
		return fmt.Errorf("reset shard %d: %w", g, err)
	}
	n.srv.resetLive()
	return nil
}

// syncShard drains one following shard's journal tail, resyncing from
// scratch on an epoch change (the source restarted or was promoted; its
// journal order is new). Transport errors (the source is unreachable)
// start the failover lease clock; once a shard's tail has been failing
// that way for PromoteAfter, the shard is promoted — unless the manifest
// file already names another primary, which it then follows instead.
func (n *Node) syncShard(i int) {
	st := n.cursor(i) // written back under curMu below
	global := st.Shard
	src := n.source(st.Source)
	for {
		batch, err := src.Tail(global, st.Epoch, st.AppliedOffset, tailPage, n.self)
		if err != nil {
			st.LastError = err.Error()
			if n.leaseExpired(i, err) {
				if perr := n.leaseLapsed(i, st.Source); perr != nil {
					n.srv.logf("shard %d: lease promotion: %v", global, perr)
				} else {
					// The shard is primary now, or follows someone else:
					// the stale cursor must not be written back over it.
					return
				}
			}
			break
		}
		n.clearFail(i)
		if batch.Epoch != st.Epoch {
			// Epoch reset: discard the local copy of this shard and
			// resync from offset zero.
			n.srv.logf("shard %d: %s journal epoch %d -> %d, resyncing", global, st.Source, st.Epoch, batch.Epoch)
			if err := n.resetShard(i); err != nil {
				st.LastError = err.Error()
				break
			}
			if st.Epoch != 0 {
				st.Resets++
			}
			st.Epoch = batch.Epoch
			st.AppliedOffset = 0
			st.SourceEnd = batch.End
			if svs, err := src.Surveys(); err == nil {
				n.syncSurveys(svs)
			}
			continue
		}
		if batch.Truncated {
			// The journal no longer holds our resume offset — we
			// registered after truncation, or fell behind a retain
			// bound. The records themselves are still in the source's
			// store: rebuild this shard from paged scans, then resume
			// tailing at the truncation base. Journal entries the scans
			// already covered carry seqs at or below the rebuilt counts
			// and are skipped by applyBatch.
			n.srv.logf("shard %d: journal truncated below offset %d, rebuilding from store scans (resume at %d)",
				global, st.AppliedOffset, batch.NextOffset)
			if err := n.resetShard(i); err != nil {
				st.LastError = err.Error()
				break
			}
			// Unlike the epoch path above — which resumes at offset 0 and
			// self-heals a failed definition sync record by record — this
			// path jumps the offset past the truncated prefix, so
			// bootstrapping from an incomplete survey list would silently
			// drop that prefix forever. A failed fetch must leave the
			// offset untouched and retry the whole bootstrap next poll.
			svs, err := src.Surveys()
			if err != nil {
				st.LastError = err.Error()
				break
			}
			n.syncSurveys(svs)
			if err := n.bootstrapShard(i, src); err != nil {
				st.LastError = err.Error()
				break
			}
			st.Bootstraps++
			st.AppliedOffset = batch.NextOffset
			st.SourceEnd = batch.End
			continue
		}
		if err := n.applyBatch(i, src, batch); err != nil {
			st.LastError = err.Error()
			break
		}
		st.AppliedOffset = batch.NextOffset
		st.SourceEnd = batch.End
		st.LastError = ""
		if batch.NextOffset >= batch.End {
			break
		}
	}
	st.LagRecords = 0
	if st.SourceEnd > st.AppliedOffset {
		st.LagRecords = st.SourceEnd - st.AppliedOffset
	}
	st.LastSyncAt = time.Now()
	n.curMu.Lock()
	n.cursors[i] = st
	n.curMu.Unlock()
}

// bootstrapScanAttempts bounds the per-page retry of a bootstrap scan
// whose transport flaked: a rebuild is expensive to restart from
// scratch (the whole shard resets again next cycle), so a blip
// mid-rebuild gets a few jittered-backoff retries before the cycle
// gives up. Non-transport errors (the source answered, and said no)
// fail immediately — retrying a 4xx is noise.
const bootstrapScanAttempts = 4

// bootstrapScan fetches one scan page with bounded retry: attempts
// spaced 50ms, 100ms, 200ms apart, each with up to its own length of
// random jitter so a fleet of recovering followers does not stampede a
// source that just came back.
func (n *Node) bootstrapScan(src *shardrpc.Client, global int, surveyID string, cursor uint64) (*shardrpc.ScanBatch, error) {
	var lastErr error
	for attempt := 0; attempt < bootstrapScanAttempts; attempt++ {
		if attempt > 0 {
			d := 50 * time.Millisecond << (attempt - 1)
			d += time.Duration(rand.Int63n(int64(d) + 1))
			select {
			case <-time.After(d):
			case <-n.stop:
				return nil, lastErr
			}
		}
		batch, err := src.Scan(global, surveyID, cursor, tailPage)
		if err == nil {
			return batch, nil
		}
		lastErr = err
		if !shardrpc.IsTransportError(err) {
			break
		}
		n.srv.logf("shard %d: bootstrap scan %q from %d (attempt %d/%d): %v",
			global, surveyID, cursor, attempt+1, bootstrapScanAttempts, err)
	}
	return nil, lastErr
}

// bootstrapShard rebuilds one (freshly reset) local shard from the
// source's paged store scans: every survey's shard slice, in per-shard
// seq order, verified to land on identical local seqs. It is how a
// follower recovers when the source's journal has been truncated below
// the offset it needs.
func (n *Node) bootstrapShard(i int, src *shardrpc.Client) error {
	global := n.local.GlobalID(i)
	svs, err := n.local.Surveys()
	if err != nil {
		return err
	}
	for _, sv := range svs {
		var cursor uint64
		for {
			batch, err := n.bootstrapScan(src, global, sv.ID, cursor)
			if err != nil {
				return fmt.Errorf("bootstrap scan %q from %d: %w", sv.ID, cursor, err)
			}
			for k := range batch.Records {
				rec := &batch.Records[k]
				if err := n.applyRecord(i, src, &rec.Response, rec.Seq); err != nil {
					return fmt.Errorf("bootstrap %w", err)
				}
			}
			if !batch.More {
				break
			}
			cursor = batch.NextSeq
		}
	}
	return nil
}

// applyBatch applies one tail page to the local shard store, verifying
// that local per-shard seqs come out identical to the source's — the
// property merged reads on a follower depend on.
func (n *Node) applyBatch(i int, src *shardrpc.Client, batch *shardset.TailBatch) error {
	for k := range batch.Entries {
		e := &batch.Entries[k]
		// A seq at or below the local count was already applied — by a
		// truncation bootstrap whose store scans overlap the journal
		// tail, where skipping is what makes the two paths compose.
		if e.Seq <= uint64(n.local.CountShard(i, e.SurveyID)) {
			continue
		}
		if err := n.applyRecord(i, src, &e.Response, e.Seq); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord appends one shipped record to local shard i and checks it
// landed on the source's seq. A survey the shard does not know yet (it
// was published after this cycle's definition sync) is fetched from the
// source and the append retried once.
func (n *Node) applyRecord(i int, src *shardrpc.Client, r *survey.Response, seq uint64) error {
	stored, err := n.local.AppendShard(i, r)
	if errors.Is(err, store.ErrNotFound) {
		if perr := n.healSurvey(src, r.SurveyID); perr != nil {
			return fmt.Errorf("apply (%s, %d): %w", r.SurveyID, seq, perr)
		}
		stored, err = n.local.AppendShard(i, r)
	}
	if err != nil {
		return fmt.Errorf("apply (%s, %d): %w", r.SurveyID, seq, err)
	}
	if uint64(stored) != seq {
		return fmt.Errorf("apply (%s, %d): local seq diverged to %d", r.SurveyID, seq, stored)
	}
	return nil
}

// healSurvey re-fetches one survey definition from the source and
// publishes it to the local stores.
func (n *Node) healSurvey(src *shardrpc.Client, surveyID string) error {
	sv, err := src.Survey(surveyID)
	if err != nil {
		return fmt.Errorf("heal survey %q: %w", surveyID, err)
	}
	_, err = n.Publish(sv)
	return err
}

// ---------------------------------------------------------------------------
// Promotion

// clearFail resets a shard's failover lease clock after a successful
// tail.
func (n *Node) clearFail(i int) {
	n.curMu.Lock()
	n.failSince[i] = time.Time{}
	n.curMu.Unlock()
}

// leaseExpired feeds one tail error into the failover lease: transport
// errors (source unreachable) start or continue the clock and report
// whether it has run past PromoteAfter; anything the source itself
// answered resets it — a source healthy enough to refuse is healthy
// enough to keep its shards.
func (n *Node) leaseExpired(i int, err error) bool {
	if !shardrpc.IsTransportError(err) {
		n.clearFail(i)
		return false
	}
	now := time.Now()
	n.curMu.Lock()
	if n.failSince[i].IsZero() {
		n.failSince[i] = now
	}
	since := n.failSince[i]
	n.curMu.Unlock()
	return n.follow.PromoteAfter > 0 && now.Sub(since) >= n.follow.PromoteAfter
}

// leaseLapsed acts on shard i's expired lease on source: when the
// manifest file already names another primary (a fellow follower won
// the race, or the operator moved the shard) the node applies that file
// — following the new primary, not promoting over it; otherwise the
// shard promotes.
func (n *Node) leaseLapsed(i int, source string) error {
	if path := n.follow.ManifestPath; path != "" {
		m, err := placement.Load(path)
		if err != nil {
			return err
		}
		if sp := m.Placement(n.local.GlobalID(i)); sp != nil && sp.Primary != source {
			n.applyLocked(m)
			return nil
		}
	}
	_, err := n.promoteLocked(i)
	return err
}

// errNotFollowing refuses the promote signal for a fenced shard: only a
// following shard holds a copy a promotion can stand on.
var errNotFollowing = errors.New("shard is fenced, not following: list this node as a replica to rejoin")

// Promote makes this node the writable primary for one following global
// shard: the operator signal half of failover (the lease in syncShard is
// the automatic half, the manifest the third; all land in
// promoteLocked). The shard's journal epoch bumps so downstream
// followers resync onto the new stream, and — when the node knows the
// shared manifest — the manifest is rewritten with the shard's
// placement epoch incremented, which is what fences the old primary's
// writes everywhere and re-routes every watcher. Idempotent: promoting a
// primary shard returns its fence epoch.
func (n *Node) Promote(global int) (uint64, error) {
	i, err := n.localShard(global)
	if err != nil {
		return 0, err
	}
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	return n.promoteLocked(i)
}

// promoteLocked is Promote's body; the caller holds syncMu (so no follow
// cycle is mid-flight while the role flips).
func (n *Node) promoteLocked(i int) (uint64, error) {
	global := n.local.GlobalID(i)
	st := n.state(i)
	switch st.role {
	case rolePrimary:
		return st.epoch, nil
	case roleFenced:
		return 0, fmt.Errorf("promote shard %d: %w", global, errNotFollowing)
	}
	fence := st.epoch
	// Promotion proceeds from whatever offset this node has applied:
	// records the dead primary accepted but never shipped are lost to
	// the shard's new history when the old primary rejoins as a
	// follower — asynchronous replication's failover contract, and why
	// the bench measures equivalence against the cluster's actual
	// post-failover contents.
	if _, err := n.local.BumpEpoch(i); err != nil {
		return 0, fmt.Errorf("promote shard %d: journal epoch: %w", global, err)
	}
	if n.follow != nil && n.follow.ManifestPath != "" && n.self != "" {
		path := n.follow.ManifestPath
		m, err := placement.Load(path)
		if err != nil {
			return 0, fmt.Errorf("promote shard %d: manifest: %w", global, err)
		}
		version := m.Version
		if fence, err = m.Promote(global, n.self); err != nil {
			return 0, fmt.Errorf("promote shard %d: %w", global, err)
		}
		if m.Version != version {
			if err := m.Save(path); err != nil {
				return 0, fmt.Errorf("promote shard %d: manifest save: %w", global, err)
			}
			n.version = max(n.version, m.Version)
		}
	}
	n.setState(i, shardState{role: rolePrimary, epoch: fence})
	n.clearFail(i)
	n.srv.logf("shard %d: promoted to primary (placement epoch %d)", global, fence)
	return fence, nil
}
