// Cluster roles: the glue that turns the one Server implementation into
// a node (owns a shard subset, serves shardrpc), a frontend (routes
// submits, merges node partials — no types here, just a Server over a
// shardrpc.Remote router), and a read replica (tails a node's append
// journal and serves read-only traffic with a staleness cursor).
package server

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// ---------------------------------------------------------------------------
// Node

// Node adapts a Server whose router is a journaling shardset.Local into
// the shardrpc.Backend a cluster frontend and its replicas talk to. The
// shard-addressed surface and the submit pipeline are the Server's own
// shardHost, embedded — so a write meets the same fence and the same
// ledger whether it arrives over shardrpc or on the node's public API; a
// Node adds durable stores (its Server's), hosted budget shards, and
// demotion by placement manifest. Every shard starts primary
// at epoch 0 — a manifest-less node fences nothing.
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

// PutSurvey implements shardrpc.Backend.
func (n *Node) PutSurvey(sv *survey.Survey) error {
	if err := sv.Validate(); err != nil {
		return err
	}
	return n.local.PutSurvey(sv)
}

var _ shardrpc.Backend = (*Node)(nil)

// ApplyManifest updates the node's fencing state from a placement
// manifest: for every owned shard it records the manifest epoch, and —
// when the manifest names another node primary — demotes the shard,
// fencing all writes to it. Demotion is the clean half of failover for
// a returned old primary: its data stays readable, its writes bounce
// with 412, and the operator restarts it as a replica of the new
// primary to rejoin (the promoted replica serves Tail, so re-bootstrap
// is the ordinary follower path). Shards the manifest does not place
// go back to unfenced primaries. self is this node's base URL as it
// appears in the manifest.
func (n *Node) ApplyManifest(m *placement.Manifest, self string) {
	roles := make([]shardState, n.local.Shards())
	hs := make([]ShardHealth, 0, n.local.Shards())
	for i := range roles {
		g := n.local.GlobalID(i)
		sp := m.Placement(g)
		if sp == nil {
			continue
		}
		roles[i].epoch = sp.Epoch
		role := "primary"
		if sp.Primary != self {
			roles[i].role = roleFenced
			role = "fenced"
		}
		hs = append(hs, ShardHealth{Shard: g, Role: role, Epoch: sp.Epoch})
	}
	n.roleMu.Lock()
	for i, st := range roles {
		if st.role == roleFenced && n.roles[i].role != roleFenced {
			g := n.local.GlobalID(i)
			n.srv.logf("shard %d demoted by manifest v%d (primary now %s): writes fenced, rejoin as a replica",
				g, m.Version, m.Placement(g).Primary)
		}
	}
	n.roles = roles
	n.roleMu.Unlock()
	n.srv.setShardHealth(hs)
}

// Demoted reports whether the manifest has fenced an owned shard's
// writes away from this node.
func (n *Node) Demoted(global int) bool {
	i, err := n.localShard(global)
	return err == nil && n.state(i).role == roleFenced
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

// BudgetCharge implements shardrpc.BudgetBackend.
func (n *Node) BudgetCharge(shard int, charges []budget.Charge) ([]budget.Outcome, error) {
	set, err := n.budgetSet()
	if err != nil {
		return nil, err
	}
	outs, err := set.ChargeShard(shard, charges)
	if errors.Is(err, budget.ErrNotHosted) {
		return nil, &shardrpc.ErrNotOwned{Shard: shard}
	}
	return outs, err
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

// ---------------------------------------------------------------------------
// Replica

// resettableStore is a store.Store whose contents can be atomically
// replaced with an empty store — the epoch-reset path of a replica: a
// followed node restarted, its journal order changed, and every applied
// record must go.
type resettableStore struct {
	mu    sync.RWMutex
	inner *store.Mem
}

func newResettableStore() *resettableStore { return &resettableStore{inner: store.NewMem()} }

func (r *resettableStore) get() *store.Mem {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.inner
}

// Reset discards everything. In-flight reads against the old store
// finish against its (immutable from here on) contents.
func (r *resettableStore) Reset() {
	r.mu.Lock()
	r.inner = store.NewMem()
	r.mu.Unlock()
}

func (r *resettableStore) PutSurvey(s *survey.Survey) error     { return r.get().PutSurvey(s) }
func (r *resettableStore) ReplaceSurvey(s *survey.Survey) error { return r.get().ReplaceSurvey(s) }
func (r *resettableStore) Survey(id string) (*survey.Survey, error) {
	return r.get().Survey(id)
}
func (r *resettableStore) Surveys() ([]*survey.Survey, error) { return r.get().Surveys() }
func (r *resettableStore) AppendResponse(s *survey.Response) error {
	return r.get().AppendResponse(s)
}
func (r *resettableStore) ScanResponses(surveyID string, fromSeq uint64, fn func(seq uint64, resp *survey.Response) error) error {
	return r.get().ScanResponses(surveyID, fromSeq, fn)
}
func (r *resettableStore) Responses(surveyID string) ([]survey.Response, error) {
	return r.get().Responses(surveyID)
}
func (r *resettableStore) ResponseCount(surveyID string) int { return r.get().ResponseCount(surveyID) }
func (r *resettableStore) Close() error                      { return r.get().Close() }

var _ store.Store = (*resettableStore)(nil)

// ReplicaConfig configures a read replica.
type ReplicaConfig struct {
	// Client speaks shardrpc to the followed node. Required.
	Client *shardrpc.Client
	// Schedule and RequesterToken mirror the primary's Server config.
	Schedule       core.Schedule
	RequesterToken string
	// Logger receives replication logs; nil disables logging.
	Logger *log.Logger
	// PollInterval is how often the replica polls the node's journal
	// tails (default 500ms). Staleness is bounded by it plus one
	// round-trip.
	PollInterval time.Duration
	// TailPage bounds one tail fetch (default 1024 records).
	TailPage int
	// FollowerID identifies this replica to the node's journal
	// truncation accounting: the node retains journal entries until
	// every registered follower acks past them. Defaults to a
	// process-scoped id; give long-lived replicas a stable one so a
	// replica restart re-registers as the same follower instead of
	// leaking a stale ack.
	FollowerID string
	// JournalRetain bounds the replica's own per-shard journal (the one
	// it serves to downstream followers and to the demoted primary after
	// a promotion). Default 65536 entries.
	JournalRetain int
	// ManifestPath, when set with SelfURL, lets promotion rewrite the
	// shared placement manifest: the shard's epoch bumps, this replica
	// becomes the primary, and every watcher re-routes. Without it,
	// promotion only flips the local shard writable (tests, ad-hoc ops).
	ManifestPath string
	// SelfURL is this replica's base URL as the manifest should name it.
	SelfURL string
	// PromoteAfter, when positive, is the failover lease: a shard whose
	// tail has been failing with transport errors (node unreachable) for
	// longer than this is promoted automatically, exactly as if the
	// operator had posted the promote signal. Zero (the default) leaves
	// promotion to the operator.
	PromoteAfter time.Duration
}

// Replica is a read-only follower of one node: it tails every shard the
// node owns via WAL shipping, applies the records to local in-memory
// stores, and serves the read half of the public API — scans and merged
// aggregates included — from its own per-shard partials. Submits and
// publishes are refused with 403. The admin surface reports per-shard
// staleness cursors (journal epoch, applied offset, lag).
//
// It serves the same internal transport a node does through the
// embedded shardHost, which is what lets frontends fail reads over to it
// when the node dies: scans, partials (marked stale until promotion),
// survey meta, and journal tails for its own downstream followers. Every
// shard starts following — writes are fenced — until Promote flips it
// primary at the shard's placement epoch (0 = no manifest, accept any
// stamp).
type Replica struct {
	*shardHost
	cfg    ReplicaConfig
	stores []*resettableStore

	mu      sync.Mutex
	cursors []ReplicaShardInfo
	// failSince tracks when each shard's tail started failing with
	// transport errors, for the PromoteAfter lease.
	failSince []time.Time

	// syncMu serializes whole replication cycles: an overlapping cycle
	// would read the same journal offset twice and double-apply.
	syncMu sync.Mutex

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewReplica connects to the followed node, mirrors its shard layout
// with empty local stores, and starts the tail loop.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Client == nil {
		return nil, errors.New("server: replica needs a shardrpc client")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.TailPage <= 0 {
		cfg.TailPage = 1024
	}
	if cfg.FollowerID == "" {
		cfg.FollowerID = fmt.Sprintf("replica-%d", os.Getpid())
	}
	if cfg.JournalRetain <= 0 {
		cfg.JournalRetain = 65536
	}
	meta, err := cfg.Client.Meta()
	if err != nil {
		return nil, fmt.Errorf("server: replica meta fetch: %w", err)
	}
	if len(meta.OwnedShards) == 0 {
		return nil, errors.New("server: followed node owns no shards")
	}
	r := &Replica{
		cfg:       cfg,
		stores:    make([]*resettableStore, len(meta.OwnedShards)),
		cursors:   make([]ReplicaShardInfo, len(meta.OwnedShards)),
		failSince: make([]time.Time, len(meta.OwnedShards)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	stores := make([]store.Store, len(meta.OwnedShards))
	for i := range r.stores {
		r.stores[i] = newResettableStore()
		stores[i] = r.stores[i]
		r.cursors[i] = ReplicaShardInfo{Shard: meta.OwnedShards[i]}
	}
	// The replica journals its own applied stream: downstream followers
	// (and, after a promotion, the demoted old primary rejoining as a
	// replica) tail it exactly like they would a node's.
	local, err := shardset.NewLocal(stores, shardset.LocalOptions{
		GlobalIDs:     meta.OwnedShards,
		Journal:       true,
		JournalRetain: cfg.JournalRetain,
	})
	if err != nil {
		return nil, err
	}
	srv, err := New(Config{
		Router:          local,
		Schedule:        cfg.Schedule,
		RequesterToken:  cfg.RequesterToken,
		Logger:          cfg.Logger,
		Role:            "replica",
		ReadOnly:        true,
		ReplicationInfo: r.replicationInfo,
		Promote:         r.Promote,
	})
	if err != nil {
		return nil, err
	}
	r.shardHost = srv.host
	r.total = meta.TotalShards
	for i := range r.roles {
		r.roles[i].role = roleFollowing
	}
	go r.loop()
	return r, nil
}

// ServeHTTP implements http.Handler: the read-only public API.
func (r *Replica) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.srv.ServeHTTP(w, req) }

// Server exposes the underlying read-only server (tests poke at it).
func (r *Replica) Server() *Server { return r.srv }

// Close stops the tail loop and releases the local stores.
func (r *Replica) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	if err := r.srv.Close(); err != nil {
		return err
	}
	return r.local.Close()
}

// replicationInfo snapshots the staleness cursors for the admin
// surface. Roles are derived at snapshot time: a shard this replica has
// been promoted on reports "primary", the rest "replica".
func (r *Replica) replicationInfo() *ReplicationInfo {
	r.mu.Lock()
	info := &ReplicationInfo{Source: r.cfg.Client.BaseURL()}
	info.Shards = append([]ReplicaShardInfo(nil), r.cursors...)
	r.mu.Unlock()
	for i := range info.Shards {
		if st := r.state(i); st.role == rolePrimary {
			info.Shards[i].Role = "primary"
			info.Shards[i].Epoch = st.epoch
			info.Shards[i].LagRecords = 0
			info.Shards[i].LastError = ""
		} else {
			info.Shards[i].Role = "replica"
		}
	}
	return info
}

// loop polls every followed shard on the interval until Close.
func (r *Replica) loop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.PollInterval)
	defer t.Stop()
	// Sync immediately on start so tests (and operators) see data
	// without waiting out the first tick.
	r.SyncOnce()
	for {
		select {
		case <-t.C:
			r.SyncOnce()
		case <-r.stop:
			return
		}
	}
}

// SyncOnce runs one replication cycle: refresh survey definitions, then
// drain every shard's journal tail. Exported so tests can drive the
// replica deterministically.
func (r *Replica) SyncOnce() {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	surveys, err := r.cfg.Client.Surveys()
	if err != nil {
		// Keep going: an unreachable node must still drive the per-shard
		// tail cycle, because that is where transport failures feed the
		// failover lease — returning here would make a dead node immune
		// to automatic promotion.
		r.logf("replica survey sync: %v", err)
	} else {
		r.syncSurveys(surveys)
	}
	for i := range r.stores {
		r.syncShard(i)
	}
}

// syncSurveys replicates definitions into the local stores, handling
// republishes (fingerprint change) like the public API would.
func (r *Replica) syncSurveys(surveys []*survey.Survey) {
	for _, sv := range surveys {
		cur, err := r.local.Survey(sv.ID)
		switch {
		case err == nil && cur.Fingerprint() == sv.Fingerprint():
			continue
		case err == nil:
			if err := r.local.ReplaceSurvey(sv); err != nil {
				r.logf("replica republish %q: %v", sv.ID, err)
				continue
			}
			r.srv.invalidateLive(sv.ID)
		default:
			if err := r.local.PutSurvey(sv); err != nil && !errors.Is(err, store.ErrExists) {
				r.logf("replica publish %q: %v", sv.ID, err)
			}
		}
	}
}

// syncShard drains one shard's journal tail, resyncing from scratch on
// an epoch change (the node restarted; its journal order is new). A
// promoted shard is skipped: this replica is its primary now, and the
// old stream has nothing more to say. Transport errors (the node is
// unreachable) start the failover lease clock; once a shard's tail has
// been failing that way for PromoteAfter, the shard self-promotes.
func (r *Replica) syncShard(i int) {
	if r.state(i).role == rolePrimary {
		return
	}
	r.mu.Lock()
	st := r.cursors[i] // copy; written back under the lock below
	r.mu.Unlock()
	global := st.Shard
	for {
		batch, err := r.cfg.Client.Tail(global, st.Epoch, st.AppliedOffset, r.cfg.TailPage, r.cfg.FollowerID)
		if err != nil {
			st.LastError = err.Error()
			if r.leaseExpired(i, err) {
				if _, perr := r.promoteLocked(i); perr != nil {
					r.logf("replica shard %d: lease promotion: %v", global, perr)
				} else {
					// promoteLocked owns the shard's state from here; the
					// stale tail cursor must not be written back over it.
					return
				}
			}
			break
		}
		r.clearFail(i)
		if batch.Epoch != st.Epoch {
			// Epoch reset: discard the local copy of this shard and
			// resync from offset zero. Live partials go too — their
			// cursors index the old stream.
			r.logf("replica shard %d: journal epoch %d -> %d, resyncing", global, st.Epoch, batch.Epoch)
			r.stores[i].Reset()
			r.resetOwnJournal(i)
			r.srv.ResetLive()
			if st.Epoch != 0 {
				st.Resets++
			}
			st.Epoch = batch.Epoch
			st.AppliedOffset = 0
			st.SourceEnd = batch.End
			// The reset wiped this shard's replicated definitions;
			// restore them before applying records.
			if svs, err := r.cfg.Client.Surveys(); err == nil {
				r.syncSurveys(svs)
			}
			continue
		}
		if batch.Truncated {
			// The journal no longer holds our resume offset — we
			// registered after truncation, or fell behind a retain
			// bound. The records themselves are still in the node's
			// store: rebuild this shard from paged scans, then resume
			// tailing at the truncation base. Journal entries the scans
			// already covered carry seqs at or below the rebuilt counts
			// and are skipped by applyBatch.
			r.logf("replica shard %d: journal truncated below offset %d, rebuilding from store scans (resume at %d)",
				global, st.AppliedOffset, batch.NextOffset)
			r.stores[i].Reset()
			r.resetOwnJournal(i)
			r.srv.ResetLive()
			// Unlike the epoch path above — which resumes at offset 0 and
			// self-heals a failed definition sync record by record — this
			// path jumps the offset past the truncated prefix, so
			// bootstrapping from an incomplete survey list would silently
			// drop that prefix forever. A failed fetch must leave the
			// offset untouched and retry the whole bootstrap next poll.
			svs, err := r.cfg.Client.Surveys()
			if err != nil {
				st.LastError = err.Error()
				break
			}
			r.syncSurveys(svs)
			if err := r.bootstrapShard(i, global); err != nil {
				st.LastError = err.Error()
				break
			}
			st.Bootstraps++
			st.AppliedOffset = batch.NextOffset
			st.SourceEnd = batch.End
			continue
		}
		if err := r.applyBatch(i, batch); err != nil {
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
	r.mu.Lock()
	r.cursors[i] = st
	r.mu.Unlock()
}

// bootstrapScanAttempts bounds the per-page retry of a bootstrap scan
// whose transport flaked: a rebuild is expensive to restart from
// scratch (the whole shard resets again next cycle), so a blip
// mid-rebuild gets a few jittered-backoff retries before the cycle
// gives up. Non-transport errors (the node answered, and said no)
// fail immediately — retrying a 4xx is noise.
const bootstrapScanAttempts = 4

// bootstrapScan fetches one scan page with bounded retry: attempts
// spaced 50ms, 100ms, 200ms apart, each with up to its own length of
// random jitter so a fleet of recovering replicas does not stampede a
// node that just came back.
func (r *Replica) bootstrapScan(global int, surveyID string, cursor uint64) (*shardrpc.ScanBatch, error) {
	var lastErr error
	for attempt := 0; attempt < bootstrapScanAttempts; attempt++ {
		if attempt > 0 {
			d := 50 * time.Millisecond << (attempt - 1)
			d += time.Duration(rand.Int63n(int64(d) + 1))
			select {
			case <-time.After(d):
			case <-r.stop:
				return nil, lastErr
			}
		}
		batch, err := r.cfg.Client.Scan(global, surveyID, cursor, r.cfg.TailPage)
		if err == nil {
			return batch, nil
		}
		lastErr = err
		if !shardrpc.IsTransportError(err) {
			break
		}
		r.logf("replica shard %d: bootstrap scan %q from %d (attempt %d/%d): %v",
			global, surveyID, cursor, attempt+1, bootstrapScanAttempts, err)
	}
	return nil, lastErr
}

// bootstrapShard rebuilds one (freshly reset) local shard from the
// source's paged store scans: every replicated survey's shard slice,
// in per-shard seq order, verified to land on identical local seqs.
// It is how a replica recovers when the node's journal has been
// truncated below the offset it needs.
func (r *Replica) bootstrapShard(i, global int) error {
	svs, err := r.local.Surveys()
	if err != nil {
		return err
	}
	for _, sv := range svs {
		var cursor uint64
		for {
			batch, err := r.bootstrapScan(global, sv.ID, cursor)
			if err != nil {
				return fmt.Errorf("bootstrap scan %q from %d: %w", sv.ID, cursor, err)
			}
			for k := range batch.Records {
				rec := &batch.Records[k]
				stored, err := r.local.AppendShard(i, &rec.Response)
				if errors.Is(err, store.ErrNotFound) {
					// The reset wiped this shard's replicated copy of the
					// definition and the survey-level sync only checks
					// shard 0; heal like applyBatch does — re-put the
					// definition and retry once.
					if perr := r.healSurvey(rec.Response.SurveyID); perr != nil {
						return perr
					}
					stored, err = r.local.AppendShard(i, &rec.Response)
				}
				if err != nil {
					return fmt.Errorf("bootstrap apply (%s, %d): %w", sv.ID, rec.Seq, err)
				}
				if uint64(stored) != rec.Seq {
					return fmt.Errorf("bootstrap apply (%s, %d): local seq diverged to %d", sv.ID, rec.Seq, stored)
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

// healSurvey re-fetches one survey definition from the followed node
// and broadcasts it to the local stores (shards that already hold it
// are skipped). It is the repair for a reset shard whose definitions
// the survey-level sync — which only inspects shard 0 — skipped.
func (r *Replica) healSurvey(surveyID string) error {
	sv, err := r.cfg.Client.Survey(surveyID)
	if err != nil {
		return fmt.Errorf("heal survey %q: %w", surveyID, err)
	}
	if err := r.local.PutSurvey(sv); err != nil && !errors.Is(err, store.ErrExists) {
		return err
	}
	return nil
}

// applyBatch applies one tail page to the local shard store, verifying
// that local per-shard seqs come out identical to the source's — the
// property merged reads on the replica depend on.
func (r *Replica) applyBatch(i int, batch *shardset.TailBatch) error {
	for k := range batch.Entries {
		e := &batch.Entries[k]
		// A seq at or below the local count was already applied — by a
		// truncation bootstrap whose store scans overlap the journal
		// tail, where skipping is what makes the two paths compose.
		if e.Seq <= uint64(r.local.CountShard(i, e.SurveyID)) {
			continue
		}
		stored, err := r.local.AppendShard(i, &e.Response)
		if errors.Is(err, store.ErrNotFound) {
			// The survey was published after this cycle's definition
			// sync (or a reset wiped this shard's copy); fetch it
			// directly and retry once.
			if perr := r.healSurvey(e.SurveyID); perr != nil {
				return fmt.Errorf("apply (%s, %d): %w", e.SurveyID, e.Seq, err)
			}
			stored, err = r.local.AppendShard(i, &e.Response)
		}
		if err != nil {
			return fmt.Errorf("apply (%s, %d): %w", e.SurveyID, e.Seq, err)
		}
		if uint64(stored) != e.Seq {
			return fmt.Errorf("apply (%s, %d): local seq diverged to %d", e.SurveyID, e.Seq, stored)
		}
	}
	return nil
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf(format, args...)
	}
}

// ---------------------------------------------------------------------------
// Replica promotion and fencing

// clearFail resets a shard's failover lease clock after a successful
// tail.
func (r *Replica) clearFail(i int) {
	r.mu.Lock()
	if !r.failSince[i].IsZero() {
		r.failSince[i] = time.Time{}
	}
	r.mu.Unlock()
}

// leaseExpired feeds one tail error into the failover lease: transport
// errors (node unreachable) start or continue the clock and report
// whether it has run past PromoteAfter; anything the node itself
// answered resets it — a node healthy enough to refuse is healthy
// enough to keep its shards.
func (r *Replica) leaseExpired(i int, err error) bool {
	if !shardrpc.IsTransportError(err) {
		r.clearFail(i)
		return false
	}
	now := time.Now()
	r.mu.Lock()
	if r.failSince[i].IsZero() {
		r.failSince[i] = now
	}
	since := r.failSince[i]
	r.mu.Unlock()
	return r.cfg.PromoteAfter > 0 && now.Sub(since) >= r.cfg.PromoteAfter
}

// resetOwnJournal clears the replica's own journal for a shard whose
// local store was just reset: downstream followers of this replica must
// resync exactly like this replica resyncs from its node.
func (r *Replica) resetOwnJournal(i int) {
	if err := r.local.ResetJournal(i); err != nil {
		r.logf("replica shard %d: own-journal reset: %v", r.local.GlobalID(i), err)
	}
}

// Promote makes this replica the writable primary for one global shard:
// the operator signal half of failover (the lease in syncShard is the
// automatic half; both land in promoteLocked). The shard's journal
// epoch bumps so downstream followers resync onto the new stream, and —
// when the replica knows the shared manifest — the manifest is
// rewritten with the shard's placement epoch incremented, which is what
// fences the old primary's writes everywhere and re-routes every
// watching frontend. Idempotent: promoting a promoted shard returns its
// fence epoch.
func (r *Replica) Promote(global int) (uint64, error) {
	i, err := r.localShard(global)
	if err != nil {
		return 0, err
	}
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	return r.promoteLocked(i)
}

// promoteLocked is Promote's body; the caller holds syncMu (so no sync
// cycle is mid-flight while ownership flips).
func (r *Replica) promoteLocked(i int) (uint64, error) {
	global := r.local.GlobalID(i)
	st := r.state(i)
	if st.role == rolePrimary {
		return st.epoch, nil
	}
	fence := st.epoch
	// Promotion proceeds from whatever offset this replica has applied:
	// records the dead primary accepted but never shipped are its to
	// re-offer when it rejoins — asynchronous replication's standard
	// failover contract, and why the bench measures equivalence against
	// the cluster's actual post-failover contents.
	if _, err := r.local.BumpEpoch(i); err != nil {
		return 0, fmt.Errorf("promote shard %d: journal epoch: %w", global, err)
	}
	if r.cfg.ManifestPath != "" && r.cfg.SelfURL != "" {
		m, err := placement.Load(r.cfg.ManifestPath)
		if err != nil {
			return 0, fmt.Errorf("promote shard %d: manifest: %w", global, err)
		}
		fence, err = m.Promote(global, r.cfg.SelfURL)
		if err != nil {
			return 0, fmt.Errorf("promote shard %d: %w", global, err)
		}
		if err := m.Save(r.cfg.ManifestPath); err != nil {
			return 0, fmt.Errorf("promote shard %d: manifest save: %w", global, err)
		}
	}
	r.setState(i, shardState{role: rolePrimary, epoch: fence})
	r.clearFail(i)
	r.logf("replica shard %d: promoted to primary (placement epoch %d)", global, fence)
	return fence, nil
}

// ApplyManifest lets a manifest watcher drive promotion from the
// outside: when a (re)loaded manifest names this replica primary for a
// shard it follows, the shard promotes exactly as if the operator had
// posted the promote signal — the file is the signal. Manifests naming
// someone else change nothing here; a replica holds no writes to fence.
func (r *Replica) ApplyManifest(m *placement.Manifest) {
	if r.cfg.SelfURL == "" {
		return
	}
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	for i := 0; i < r.local.Shards(); i++ {
		g := r.local.GlobalID(i)
		sp := m.Placement(g)
		if sp == nil || sp.Primary != r.cfg.SelfURL {
			continue
		}
		if st := r.state(i); st.role == rolePrimary {
			if sp.Epoch > st.epoch {
				r.setState(i, shardState{role: rolePrimary, epoch: sp.Epoch})
			}
			continue
		}
		if _, err := r.promoteLocked(i); err != nil {
			r.logf("replica shard %d: manifest promotion: %v", g, err)
		}
	}
}

// PutSurvey implements shardrpc.Backend. Publish broadcasts race the
// replica's own definition sync, so a same-fingerprint duplicate is
// success, not 409.
func (r *Replica) PutSurvey(sv *survey.Survey) error {
	if err := sv.Validate(); err != nil {
		return err
	}
	err := r.local.PutSurvey(sv)
	if errors.Is(err, store.ErrExists) {
		if cur, gerr := r.local.Survey(sv.ID); gerr == nil && cur.Fingerprint() == sv.Fingerprint() {
			return nil
		}
	}
	return err
}

var _ shardrpc.Backend = (*Replica)(nil)
