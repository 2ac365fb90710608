// The admin surface: store and read-path stats, budget accounts, health,
// promotion, accumulator clears.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"loki/internal/budget"
	"loki/internal/ingest"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
)

// SurveyVersionInfo is one definition version in a survey's republish
// history.
type SurveyVersionInfo struct {
	Fingerprint string `json:"fingerprint"`
	// PublishedAt is when the definition was published; zero for
	// records persisted before publish timestamps existed.
	PublishedAt time.Time `json:"published_at,omitzero"`
}

// SurveyHistoryInfo is one survey's republish history on the admin
// surface: every definition fingerprint the store has held, oldest
// first. A single entry means the survey was never republished.
type SurveyHistoryInfo struct {
	SurveyID string              `json:"survey_id"`
	Versions []SurveyVersionInfo `json:"versions"`
}

// ReplicaShardInfo is one following shard's staleness cursor on a
// node's admin surface.
type ReplicaShardInfo struct {
	// Shard is the global shard index being followed.
	Shard int `json:"shard"`
	// Source is the node followed: the shard's manifest primary.
	Source string `json:"source"`
	// Epoch is the source journal epoch the node is applying.
	Epoch uint64 `json:"epoch"`
	// AppliedOffset is how far into the source journal the node has
	// applied; SourceEnd is the journal length at the last poll, so
	// SourceEnd − AppliedOffset is the lag in records.
	AppliedOffset uint64 `json:"applied_offset"`
	SourceEnd     uint64 `json:"source_end"`
	LagRecords    uint64 `json:"lag_records"`
	// Resets counts epoch mismatches that forced a full resync.
	Resets int `json:"resets,omitempty"`
	// Bootstraps counts journal truncations that forced a rebuild from
	// store scans.
	Bootstraps int `json:"bootstraps,omitempty"`
	// LastSyncAt is when the shard last completed a poll; LastError is
	// the most recent poll failure (empty when healthy).
	LastSyncAt time.Time `json:"last_sync_at,omitzero"`
	LastError  string    `json:"last_error,omitempty"`
}

// ReplicationInfo is a node's staleness report over its following
// shards.
type ReplicationInfo struct {
	// Shards holds one cursor per following shard.
	Shards []ReplicaShardInfo `json:"shards"`
}

// AdminStoreInfo is the requester-facing observability view of the
// persistence layer and the live read path: per-log WAL shape for the
// ingest store, every live partial's catch-up cursor, republish
// history, and — on a node with following shards — the replication
// staleness cursors.
type AdminStoreInfo struct {
	// Backend names the store implementation ("mem", "file", "ingest",
	// "remote" for a frontend, or the concrete Go type for custom
	// stores).
	Backend string `json:"backend"`
	// Role is the deployment role (standalone, node, frontend).
	Role string `json:"role"`
	// RouterShards is the shard count responses partition across (1 in
	// the classic standalone deployment).
	RouterShards int `json:"router_shards"`
	// Ingest carries cumulative ingest counters; only for ingest
	// backends.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
	// Shards holds segment/compaction state, one entry per ingest log
	// (an ingest store keeps exactly one); only for ingest backends.
	Shards []ingest.ShardStats `json:"shards,omitempty"`
	// Accumulators lists the live partials' cursors, sorted by survey
	// then shard.
	Accumulators []LiveAccumulator `json:"accumulators"`
	// PoisonedRecords counts stored records the live read path has
	// rejected since startup (each one wedges its shard's reads for
	// that survey until the accumulator is rebuilt; see PoisonError).
	PoisonedRecords int64 `json:"poisoned_records"`
	// Checkpoints reports the durable checkpoint log's per-shard
	// cursors and ages; nil when checkpointing is disabled.
	Checkpoints *CheckpointInfo `json:"checkpoints,omitempty"`
	// Journals reports per-shard append-journal retention (entries,
	// truncation base, retained bytes, registered followers); only on
	// journaling nodes.
	Journals []shardset.JournalStats `json:"journals,omitempty"`
	// FrontendCache reports the frontend partial cache's per-survey
	// hit/miss/delta/not-modified counters and cursor vectors; only on
	// caching frontends.
	FrontendCache *FrontendCacheInfo `json:"frontend_cache,omitempty"`
	// Surveys is the per-survey republish history (definition
	// fingerprints with publish timestamps); only for stores that
	// record it.
	Surveys []SurveyHistoryInfo `json:"surveys,omitempty"`
	// Replication is the staleness report of a node's following
	// shards; only while some shard follows.
	Replication *ReplicationInfo `json:"replication,omitempty"`
	// Budget reports the privacy-budget ledger (mode, cap, per-shard
	// stats); only when a budget charger is configured.
	Budget *BudgetInfo `json:"budget,omitempty"`
	// Admission reports the submit admission gate and the
	// per-requester rate limit (queue depth, inflight, shed and
	// throttle counters); only when either control is configured.
	Admission *AdmissionInfo `json:"admission,omitempty"`
}

// BudgetInfo is the admin surface's view of the budget service.
type BudgetInfo struct {
	// Mode is the enforcement mode (off, log, enforce).
	Mode string `json:"mode"`
	// CapEpsilon and Delta are the configured per-worker (ε, δ) ceiling.
	CapEpsilon float64 `json:"cap_epsilon"`
	Delta      float64 `json:"delta"`
	// Shards is the global budget shard count workers hash into.
	Shards int `json:"shards"`
	// Rejected counts submits this server refused with 429.
	Rejected int64 `json:"rejected,omitempty"`
	// Ledgers holds per-shard ledger stats: the hosted shards for an
	// in-process set, every node's for a frontend. Nil (with Error set)
	// when the stats fetch failed.
	Ledgers []budget.ShardStats `json:"ledgers,omitempty"`
	// Error reports a failed stats fetch (an unreachable node).
	Error string `json:"error,omitempty"`
}

// WorkerBudgetInfo is one worker's remaining budget on the admin
// surface.
type WorkerBudgetInfo struct {
	WorkerID string `json:"worker_id"`
	// SpentEpsilon is the cumulative ε at the configured δ;
	// RemainingEpsilon the headroom under the cap.
	SpentEpsilon     float64 `json:"spent_epsilon"`
	RemainingEpsilon float64 `json:"remaining_epsilon"`
	CapEpsilon       float64 `json:"cap_epsilon"`
	Delta            float64 `json:"delta"`
	// Rho is the raw zCDP total behind SpentEpsilon.
	Rho float64 `json:"rho"`
	// Unprotected counts answers released with no noise (unbounded
	// loss, outside the finite budget).
	Unprotected int `json:"unprotected,omitempty"`
	// Charges and Refunds count accepted debits and credits.
	Charges uint64 `json:"charges,omitempty"`
	Refunds uint64 `json:"refunds,omitempty"`
}

// ingestStatser is the optional interface a store implements to report
// shard-level stats on the admin surface. Asserted structurally so
// custom Store implementations can report themselves without the server
// enumerating concrete types.
type ingestStatser interface {
	Stats() ingest.Stats
	ShardStats() []ingest.ShardStats
}

// adminStores returns the concrete stores behind a local router, in
// shard order. Empty on a frontend (it inspects its nodes' admin
// surfaces instead).
func (s *Server) adminStores() []store.Store {
	if s.host == nil {
		return nil
	}
	out := make([]store.Store, s.host.local.Shards())
	for i := range out {
		out[i] = s.host.local.Store(i)
	}
	return out
}

func (s *Server) handleAdminStore(w http.ResponseWriter, _ *http.Request) {
	info := AdminStoreInfo{
		Role:            s.cfg.Role,
		RouterShards:    s.router.Shards(),
		Accumulators:    s.liveAccumulators(),
		PoisonedRecords: s.poisoned.Load(),
		Checkpoints:     s.checkpointInfo(),
		FrontendCache:   s.frontendCacheInfo(),
		Admission:       s.admissionInfo(),
	}
	if s.host != nil {
		info.Journals, info.Replication = s.host.local.JournalStats(), s.host.replicationInfo()
	}
	stores := s.adminStores()
	if len(stores) == 0 {
		info.Backend = "remote"
	} else {
		switch stores[0].(type) {
		case *store.Mem:
			info.Backend = "mem"
		case *store.File:
			info.Backend = "file"
		case *ingest.Sharded:
			info.Backend = "ingest"
		default:
			info.Backend = fmt.Sprintf("%T", stores[0])
		}
		// Sum ingest counters across the router's stores (a node runs
		// one ingest store per owned shard); each store's one log entry
		// is appended in store order.
		var agg ingest.Stats
		var shardStats []ingest.ShardStats
		haveIngest := false
		for _, st := range stores {
			if ist, ok := st.(ingestStatser); ok {
				haveIngest = true
				is := ist.Stats()
				agg.Appends += is.Appends
				agg.Commits += is.Commits
				agg.Rotations += is.Rotations
				agg.Snapshots += is.Snapshots
				shardStats = append(shardStats, ist.ShardStats()...)
			}
		}
		if haveIngest {
			info.Ingest = &agg
			info.Shards = shardStats
		}
	}
	info.Surveys = s.surveyHistories(stores)
	if s.cfg.Budget != nil {
		bcfg := s.cfg.Budget.Config()
		bi := &BudgetInfo{
			Mode:       s.cfg.BudgetEnforce,
			CapEpsilon: bcfg.CapEpsilon,
			Delta:      bcfg.Delta,
			Shards:     s.cfg.Budget.Shards(),
			Rejected:   s.budgetRejected.Load(),
		}
		if ledgers, err := s.cfg.Budget.Stats(); err != nil {
			bi.Error = err.Error()
		} else {
			bi.Ledgers = ledgers
		}
		info.Budget = bi
	}
	writeJSON(w, http.StatusOK, info)
}

// handleAdminBudget answers one worker's remaining budget, routed to
// the shard owning the account (so any frontend or the standalone
// server answers for any worker).
func (s *Server) handleAdminBudget(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Budget == nil {
		writeError(w, http.StatusNotFound, "budget accounting is not configured on this server")
		return
	}
	worker := r.PathValue("worker")
	a, err := s.cfg.Budget.Peek(worker)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, budget.ErrNotHosted) {
			status = http.StatusMisdirectedRequest
		}
		writeError(w, status, err.Error())
		return
	}
	bcfg := s.cfg.Budget.Config()
	writeJSON(w, http.StatusOK, WorkerBudgetInfo{
		WorkerID:         worker,
		SpentEpsilon:     bcfg.Epsilon(a.Rho),
		RemainingEpsilon: bcfg.Remaining(a.Rho),
		CapEpsilon:       bcfg.CapEpsilon,
		Delta:            bcfg.Delta,
		Rho:              a.Rho,
		Unprotected:      a.Unprotected,
		Charges:          a.Charges,
		Refunds:          a.Refunds,
	})
}

// surveyHistories collects republish history from the first store that
// answers (definitions are replicated to every shard, so any one
// store's history covers the deployment).
func (s *Server) surveyHistories(stores []store.Store) []SurveyHistoryInfo {
	for _, st := range stores {
		svs, err := st.Surveys()
		if err != nil {
			continue
		}
		out := make([]SurveyHistoryInfo, 0, len(svs))
		for _, sv := range svs {
			versions := st.SurveyHistory(sv.ID)
			info := SurveyHistoryInfo{SurveyID: sv.ID}
			for _, v := range versions {
				vi := SurveyVersionInfo{Fingerprint: v.Fingerprint}
				if v.PublishedUnixNano != 0 {
					vi.PublishedAt = time.Unix(0, v.PublishedUnixNano)
				}
				info.Versions = append(info.Versions, vi)
			}
			out = append(out, info)
		}
		return out
	}
	return nil
}

// ShardHealth is one shard's row on the health surface: the role this
// server plays for it, the epoch it is at (the placement epoch; on a
// replica row the source journal epoch it applies), its replication lag
// (replica rows only), and the last error touching it.
type ShardHealth struct {
	Shard int    `json:"shard"`
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch,omitempty"`
	// LagRecords is the replication lag in records (replica rows).
	LagRecords uint64 `json:"lag_records,omitempty"`
	// PrimaryDown marks a frontend row whose routed primary the failure
	// detector currently considers dead.
	PrimaryDown bool   `json:"primary_down,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// HealthInfo is the GET /api/v1/admin/health body — the probe target
// for failover detectors, load balancers, and the bench harness. It is
// served without auth (like healthz) and assembled per role: a node
// (or standalone server) reports each hosted shard's role — primary,
// fenced, or replica with its staleness cursor — and a frontend its
// routing table with the failure detector's verdicts.
type HealthInfo struct {
	Status string        `json:"status"`
	Role   string        `json:"role"`
	Shards []ShardHealth `json:"shards,omitempty"`
	// ManifestVersion is the placement manifest version a frontend has
	// applied; 0 off-frontend or pre-manifest.
	ManifestVersion int64 `json:"manifest_version,omitempty"`
	// StaleReads / FencedWrites count replica-served partial fetches
	// and epoch-fenced submits on a frontend.
	StaleReads   uint64 `json:"stale_reads,omitempty"`
	FencedWrites uint64 `json:"fenced_writes,omitempty"`
}

func (s *Server) handleAdminHealth(w http.ResponseWriter, _ *http.Request) {
	info := HealthInfo{Status: "ok", Role: s.cfg.Role}
	if s.host != nil {
		info.Shards = s.host.healthRows()
	} else if fi := s.remote.FailoverInfo(); fi != nil {
		// Frontend: the routing table as the failure detector sees it.
		info.ManifestVersion = fi.ManifestVersion
		info.StaleReads = fi.StaleReads
		info.FencedWrites = fi.FencedWrites
		for _, sh := range fi.Shards {
			role := "primary"
			if sh.PrimaryDown {
				role = "failed-over"
			}
			info.Shards = append(info.Shards, ShardHealth{
				Shard:       sh.Shard,
				Role:        role,
				Epoch:       sh.Epoch,
				PrimaryDown: sh.PrimaryDown,
				LastError:   sh.LastError,
			})
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// healthRows derives one health row per hosted shard from its role and,
// for a following shard, its follow cursor.
func (h *shardHost) healthRows() []ShardHealth {
	rows := make([]ShardHealth, len(h.roles))
	for i := range rows {
		st := h.state(i)
		rows[i] = ShardHealth{Shard: h.local.GlobalID(i), Role: "primary", Epoch: st.epoch}
		switch st.role {
		case roleFenced:
			rows[i].Role = "fenced"
		case roleFollowing:
			c := h.cursor(i)
			rows[i].Role, rows[i].Epoch = "replica", c.Epoch
			rows[i].LagRecords, rows[i].LastError = c.LagRecords, c.LastError
		}
	}
	return rows
}

// replicationInfo snapshots the following shards' staleness cursors;
// nil while no shard follows.
func (h *shardHost) replicationInfo() *ReplicationInfo {
	var info *ReplicationInfo
	for i := range h.roles {
		if h.state(i).role != roleFollowing {
			continue
		}
		if info == nil {
			info = &ReplicationInfo{}
		}
		info.Shards = append(info.Shards, h.cursor(i))
	}
	return info
}

// PromoteResult acknowledges an operator promotion.
type PromoteResult struct {
	Shard int `json:"shard"`
	// Epoch is the shard's placement epoch after promotion (0 when the
	// node manages no manifest).
	Epoch uint64 `json:"epoch"`
}

// handlePromote is the operator failover signal: flip one following
// shard writable on this node (bumping its placement epoch through the
// shared manifest when one is configured). Idempotent.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.host == nil || s.host.follow == nil {
		writeError(w, http.StatusNotFound, "promotion is not available on this server (not a following node)")
		return
	}
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 {
		writeError(w, http.StatusBadRequest, "shard must be a non-negative integer")
		return
	}
	epoch, err := (&Node{s.host}).Promote(shard)
	if err != nil {
		status := http.StatusInternalServerError
		var no *shardrpc.ErrNotOwned
		switch {
		case errors.As(err, &no):
			status = http.StatusMisdirectedRequest
		case errors.Is(err, errNotFollowing):
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	s.logf("shard %d promoted via admin surface (placement epoch %d)", shard, epoch)
	writeJSON(w, http.StatusOK, PromoteResult{Shard: shard, Epoch: epoch})
}

// AccumulatorClearResult acknowledges an admin accumulator clear.
type AccumulatorClearResult struct {
	SurveyID string `json:"survey_id"`
	// Cleared reports whether live fold state existed and was dropped.
	Cleared bool `json:"cleared"`
	// CheckpointDropped reports whether a durable checkpoint was
	// tombstoned alongside.
	CheckpointDropped bool `json:"checkpoint_dropped"`
}

// handleAccumulatorClear lets an operator drop a poisoned (or merely
// suspect) survey accumulator — live partials and durable checkpoints —
// without republishing the survey. The next read rebuilds from the
// store; if the poisoned record is still there the poison returns,
// which is the honest outcome (the record, not the accumulator, is the
// problem — but after an offline store repair this endpoint is how the
// server notices). A frontend holds no accumulator of its own, only a
// cache of the nodes' partials, so it refuses with a 409: the clear is
// made on each node.
func (s *Server) handleAccumulatorClear(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.cache != nil {
		writeError(w, http.StatusConflict, fmt.Sprintf(
			"accumulators live on the nodes: a frontend holds none to clear; clear survey %q on each node's admin API", id))
		return
	}
	if _, err := s.router.Survey(id); err != nil {
		s.writeRefusal(w, surveyRefusal(err))
		return
	}
	hadCkpt := false
	if s.cfg.Checkpoints != nil {
		_, hadCkpt = s.cfg.Checkpoints.GetShard(id, 0)
		if !hadCkpt {
			// Any shard's record counts; shard 0 just covers the common
			// single-shard case cheaply.
			for _, rec := range s.cfg.Checkpoints.Records() {
				if rec.SurveyID == id {
					hadCkpt = true
					break
				}
			}
		}
	}
	cleared := s.invalidateLive(id)
	s.logf("admin cleared accumulator for %q (live=%v checkpoint=%v)", id, cleared, hadCkpt)
	writeJSON(w, http.StatusOK, AccumulatorClearResult{
		SurveyID:          id,
		Cleared:           cleared,
		CheckpointDropped: hadCkpt,
	})
}
