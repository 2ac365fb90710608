// Package budget is Loki's distributed privacy-budget ledger: per-worker
// epsilon accounts, sharded by worker hash, debited transactionally on
// the submit path. It is the production enforcement of the paper's core
// claim — per-worker privacy loss accumulates across surveys and must be
// tracked and capped — lifted out of the single-process ledger
// (core.Ledger) and into a service the whole cluster charges through.
//
// Accounting is zCDP, exactly like dp.Accountant: every noisy release
// carries a ρ cost, ρ composes additively, and the cap is checked as
// ε(ρ, δ) = ρ + 2·sqrt(ρ·ln(1/δ)) against a configured (ε, δ) ceiling.
// Level-None submissions carry no finite DP cost; they are counted as
// unprotected disclosures per answer and never rejected — the cap bounds
// differential-privacy loss, and pretending an unprotected upload has a
// finite ε would be exactly the accounting lie the ledger exists to
// avoid.
//
// The shard space hashes by worker ID ONLY (contrast response placement,
// which hashes (survey, worker) so one survey spreads over every shard):
// a worker's whole account must live on one shard, or two frontends
// could debit the same worker on different shards and compose nothing.
// One shard is therefore the single point of truth for a worker, which
// is what makes cross-frontend double-spend impossible: every frontend
// routes a worker's charge to the same shard, and the shard evaluates
// the cap under one lock.
//
// Durability is one shared journal per Set, whatever the number of
// hosted shards: a binary blockio.Log holding one record per charged
// batch, refund or compaction snapshot, group-committed fsyncs,
// torn-tail truncation on open, periodic snapshot compaction. Replaying
// the journal reproduces balances exactly — entries are applied in
// journal order with the same float operations the live path
// committed, ρ travels as its IEEE-754 bits, so a kill-9 restart
// answers the same ε to the last bit.
package budget

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"loki/internal/dp"
)

// ErrExhausted is the sentinel for a rejected charge: admitting the
// submit would push the worker's cumulative (ε, δ) past the cap. Its
// text is the wire error code the public API returns with HTTP 429.
var ErrExhausted = errors.New("budget_exhausted")

// ErrNotHosted marks a charge routed to a budget shard this Set does
// not host (a node owns a subset of the cluster's shard space; the
// frontier routes around it).
var ErrNotHosted = errors.New("budget: shard not hosted")

// ErrUndecided marks a charge the owning shard could not decide (a
// budget WAL failure, say) on a path where the caller must distinguish
// "refused" from "unknown" — enforce mode fails such a submit closed.
var ErrUndecided = errors.New("budget: charge undecided")

// Config is the budget ceiling every shard enforces.
type Config struct {
	// CapEpsilon is the per-worker cumulative ε ceiling at Delta.
	CapEpsilon float64 `json:"cap_epsilon"`
	// Delta is the δ the zCDP total is converted at.
	Delta float64 `json:"delta"`
}

// Validate checks the ceiling is meaningful.
func (c Config) Validate() error {
	if c.CapEpsilon <= 0 || math.IsNaN(c.CapEpsilon) {
		return fmt.Errorf("budget: cap epsilon must be positive, got %g", c.CapEpsilon)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("budget: delta must be in (0, 1), got %g", c.Delta)
	}
	return nil
}

// Epsilon converts a cumulative ρ to the (ε, δ)-DP ε at the config's δ.
func (c Config) Epsilon(rho float64) float64 { return dp.EpsilonFromRho(rho, c.Delta) }

// Remaining is the ε headroom under the cap (never negative).
func (c Config) Remaining(rho float64) float64 {
	r := c.CapEpsilon - c.Epsilon(rho)
	if r < 0 {
		return 0
	}
	return r
}

// Charge is one submit's debit against a worker's account.
type Charge struct {
	WorkerID string `json:"worker_id"`
	// SurveyID is carried for the WAL's audit trail only; it does not
	// affect accounting.
	SurveyID string `json:"survey_id,omitempty"`
	// Rho is the zCDP cost of the release (0 for level-None submits).
	Rho float64 `json:"rho,omitempty"`
	// Unprotected counts answers released with no noise in this submit.
	Unprotected int `json:"unprotected,omitempty"`
	// Enforce selects rejection when the charge would exceed the cap;
	// false (the log mode) records the debit regardless and merely
	// reports OverCap. The flag travels per charge because enforcement
	// is the frontier's policy while the balance is the shard's truth.
	Enforce bool `json:"enforce,omitempty"`
}

func (c *Charge) validate() error {
	if c.WorkerID == "" {
		return errors.New("budget: charge needs a worker id")
	}
	if c.Rho < 0 || math.IsNaN(c.Rho) || math.IsInf(c.Rho, 0) {
		return fmt.Errorf("budget: charge rho must be finite and non-negative, got %g", c.Rho)
	}
	if c.Unprotected < 0 {
		return fmt.Errorf("budget: charge unprotected count must be non-negative, got %d", c.Unprotected)
	}
	return nil
}

// Outcome is the shard's answer to one charge.
type Outcome struct {
	WorkerID string `json:"worker_id"`
	// Rejected reports the charge was refused (Enforce was set and the
	// debit would exceed the cap). Nothing was recorded.
	Rejected bool `json:"rejected,omitempty"`
	// OverCap reports the account is past the cap after (or, when
	// Rejected, would have been past it with) this charge.
	OverCap bool `json:"over_cap,omitempty"`
	// SpentEpsilon is the account's cumulative ε after the charge (for
	// a rejected charge: the unchanged balance).
	SpentEpsilon float64 `json:"spent_epsilon"`
	// RemainingEpsilon is the headroom under the cap (0 at or past it).
	RemainingEpsilon float64 `json:"remaining_epsilon"`
}

// Account is one worker's balance as a shard holds it.
type Account struct {
	WorkerID string `json:"worker_id"`
	// Rho is the cumulative zCDP cost of every accepted charge minus
	// refunds.
	Rho float64 `json:"rho"`
	// Unprotected counts answers the worker released with no noise —
	// disclosures with unbounded privacy loss, tallied separately from
	// the finite budget exactly like core.Ledger does.
	Unprotected int `json:"unprotected,omitempty"`
	// Charges and Refunds count accepted debits and credits.
	Charges uint64 `json:"charges,omitempty"`
	Refunds uint64 `json:"refunds,omitempty"`
}

// ShardStats is one budget shard's observability snapshot.
type ShardStats struct {
	// Shard is the global budget shard index.
	Shard int `json:"shard"`
	// Workers is the number of accounts the shard holds.
	Workers int `json:"workers"`
	// Charges/Refunds sum the accounts' accepted debit/credit counts.
	Charges uint64 `json:"charges,omitempty"`
	Refunds uint64 `json:"refunds,omitempty"`
	// Rejected counts enforced charges refused since this process
	// opened the shard (rejections write nothing, so the counter is
	// in-memory only and resets on restart).
	Rejected uint64 `json:"rejected,omitempty"`
	// Unprotected sums the accounts' unprotected disclosure counts.
	Unprotected int `json:"unprotected,omitempty"`
	// WALRecords is the charge and refund entries appended since the
	// last compaction; Compactions counts snapshot rewrites.
	WALRecords  int    `json:"wal_records,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
	// Durable reports whether the shard writes a WAL (false for the
	// in-memory test/bench configuration).
	Durable bool `json:"durable"`
}

// Route is the canonical budget placement hash: FNV-1a over the worker
// ID alone, modulo the shard count. Deliberately NOT shardset.Route —
// response placement spreads one survey across shards by hashing
// (survey, worker), while a budget account must concentrate everything
// one worker does onto one shard.
func Route(workerID string, shards int) int {
	h := fnv.New32a()
	io.WriteString(h, workerID)
	return int(h.Sum32() % uint32(shards))
}

// Charger is the submit path's view of the budget service: the
// in-process Set (standalone servers, nodes) and the shardrpc remote
// charger (frontends) both implement it. Implementations must be safe
// for concurrent use.
type Charger interface {
	// Config returns the ceiling this charger was configured with. The
	// owning shard's config is authoritative for the accept/reject
	// decision; this one feeds the admin surface.
	Config() Config
	// Shards returns the global budget shard count workers hash into.
	Shards() int
	// Charge debits one worker's account, deciding against the cap
	// transactionally on the owning shard. A rejected charge is not an
	// error — it comes back in the Outcome; errors mean the debit could
	// not be decided (shard down, WAL failure).
	Charge(c Charge) (Outcome, error)
	// Refund credits a charge back — the compensation the submit path
	// issues when the response append fails after the debit succeeded.
	Refund(c Charge) error
	// Peek returns a worker's account without charging (zero-valued for
	// workers never charged).
	Peek(workerID string) (Account, error)
	// Stats reports every reachable shard's ledger stats, sorted by
	// global shard index.
	Stats() ([]ShardStats, error)
	// Close releases resources.
	Close() error
}
