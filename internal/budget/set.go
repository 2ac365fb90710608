package budget

import (
	"fmt"
	"os"
	"sort"
)

// SetOptions tune NewSet.
type SetOptions struct {
	// Shards is the global budget shard count workers hash into. It must
	// match across every node and frontend of a cluster, or two servers
	// would route the same worker to different accounts; by convention it
	// equals the cluster's response shard count.
	Shards int
	// GlobalIDs selects the subset of the shard space this Set hosts
	// (the node's owned shards under the cluster placement). Nil hosts
	// all of them — the standalone deployment.
	GlobalIDs []int
	// Dir, when non-empty, is the directory the Set's shared charge
	// journal lives in (created if missing). Empty keeps every shard in
	// memory.
	Dir string
	// Config is the ceiling every hosted shard enforces.
	Config Config
}

// Set is a collection of hosted budget shards behind the Charger
// interface: the whole shard space for a standalone server, the node's
// owned subset on cluster nodes (where frontends reach the rest over
// shardrpc). The shards share one durable journal and one commit lock —
// see the ledger type for why durability is per-Set while routing,
// placement and stats stay per-shard.
type Set struct {
	total  int
	cfg    Config
	led    ledger
	shards map[int]*shardState
	ids    []int
}

// NewSet opens the hosted shards, replaying the Set's charge journal.
func NewSet(opts SetOptions) (*Set, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("budget: shard count must be positive, got %d", opts.Shards)
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	ids := opts.GlobalIDs
	if ids == nil {
		ids = make([]int, opts.Shards)
		for i := range ids {
			ids[i] = i
		}
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("budget: create dir %s: %w", opts.Dir, err)
		}
	}
	s := &Set{total: opts.Shards, cfg: opts.Config, shards: make(map[int]*shardState, len(ids))}
	for _, id := range ids {
		if id < 0 || id >= opts.Shards {
			return nil, fmt.Errorf("budget: global shard %d outside [0, %d)", id, opts.Shards)
		}
		if _, dup := s.shards[id]; dup {
			return nil, fmt.Errorf("budget: global shard %d hosted twice", id)
		}
		s.shards[id] = &shardState{global: id, accounts: make(map[string]*Account)}
		s.ids = append(s.ids, id)
	}
	sort.Ints(s.ids)
	if err := s.led.open(opts.Dir, s.applyLocked); err != nil {
		return nil, err
	}
	return s, nil
}

// Config implements Charger.
func (s *Set) Config() Config { return s.cfg }

// Shards implements Charger: the global shard count, not the hosted
// count.
func (s *Set) Shards() int { return s.total }

// Hosts reports whether one global budget shard lives in this Set —
// the pre-flight check for callers that must not half-commit a batch
// spanning hosted and unhosted shards.
func (s *Set) Hosts(global int) bool { return s.shards[global] != nil }

// routedLocked returns the hosted shard a worker's records belong to.
func (s *Set) routedLocked(worker string) (*shardState, error) {
	g := Route(worker, s.total)
	sh := s.shards[g]
	if sh == nil {
		return nil, fmt.Errorf("%w: shard %d", ErrNotHosted, g)
	}
	return sh, nil
}

// applyLocked folds one WAL record into the in-memory accounts. It is
// the single state-transition function — the live commit path and
// crash-recovery replay both go through it, which is what makes restart
// balances bit-exact. A record that routes to an unhosted shard is an
// error: the journal belongs to a different shard placement.
func (s *Set) applyLocked(rec *walRecord) error {
	switch rec.T {
	case walSnapshot:
		for _, sh := range s.shards {
			sh.accounts = make(map[string]*Account)
			sh.records = 0
		}
		for i := range rec.Snapshot {
			a := rec.Snapshot[i]
			sh, err := s.routedLocked(a.WorkerID)
			if err != nil {
				return err
			}
			sh.accounts[a.WorkerID] = &a
		}
	case walRefund:
		sh, err := s.routedLocked(rec.Worker)
		if err != nil {
			return err
		}
		a := sh.accountLocked(rec.Worker)
		a.Rho -= rec.Rho
		a.Unprotected -= rec.Unprot
		a.Refunds++
		sh.records++
	default:
		sh, err := s.routedLocked(rec.Worker)
		if err != nil {
			return err
		}
		a := sh.accountLocked(rec.Worker)
		a.Rho += rec.Rho
		a.Unprotected += rec.Unprot
		a.Charges++
		sh.records++
	}
	return nil
}

// accountLocked returns (creating if needed) a worker's account.
func (sh *shardState) accountLocked(worker string) *Account {
	a := sh.accounts[worker]
	if a == nil {
		a = &Account{WorkerID: worker}
		sh.accounts[worker] = a
	}
	return a
}

// Charge implements Charger, routing by worker hash.
func (s *Set) Charge(c Charge) (Outcome, error) {
	outs, err := s.ChargeShard(Route(c.WorkerID, s.total), []Charge{c})
	if err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// ChargeShard debits a batch against one hosted shard. The shard is the
// caller's addressing claim; every charge still lands on its worker's
// routed shard (the hash the replay path uses), and a worker routed to
// an unhosted shard fails the whole batch before anything commits.
func (s *Set) ChargeShard(global int, charges []Charge) ([]Outcome, error) {
	res, err := s.ChargeShards(map[int][]Charge{global: charges})
	if err != nil {
		return nil, err
	}
	return res[global], nil
}

// ChargeShards decides and commits several routed charge groups
// transactionally under the Set's commit lock — the node-side entry
// point of a submit call's charges and of a charge call's groups, which
// scatter across most of the hosted shards. The whole call is one WAL flush and one
// group-committed fsync, no matter how many shards it touches.
//
// Each charge is evaluated in order against the account's committed
// balance plus what earlier charges in the same call staged — one
// worker charged twice in a batch composes. A charge whose new total ε
// would exceed the cap and that asks for enforcement is rejected with
// nothing staged and nothing written; everything else is written and
// committed, and the outcomes (keyed by the caller's group) are
// withheld until the sync cohort reports the batch durable.
//
// If the process dies between the fsync and the submit path acting on
// the outcomes, replay restores charges no response was stored for —
// the account over-counts its spend. That direction is deliberate: a
// crash can cost a worker headroom, never privacy.
func (s *Set) ChargeShards(groups map[int][]Charge) (map[int][]Outcome, error) {
	s.led.mu.Lock()
	if err := s.led.checkLocked(); err != nil {
		s.led.mu.Unlock()
		return nil, err
	}
	// Pre-flight every group before staging anything: a batch that spans
	// hosted and unhosted shards, or holds a malformed charge, must not
	// half-commit.
	order := make([]int, 0, len(groups))
	for g, charges := range groups {
		order = append(order, g)
		if s.shards[g] == nil {
			s.led.mu.Unlock()
			return nil, fmt.Errorf("%w: shard %d", ErrNotHosted, g)
		}
		for i := range charges {
			if err := charges[i].validate(); err != nil {
				s.led.mu.Unlock()
				return nil, err
			}
			if _, err := s.routedLocked(charges[i].WorkerID); err != nil {
				s.led.mu.Unlock()
				return nil, err
			}
		}
	}
	sort.Ints(order) // deterministic WAL order within a call
	outs := make(map[int][]Outcome, len(groups))
	// staged accumulates accepted-but-uncommitted rho per worker so
	// in-batch composition sees it.
	staged := make(map[string]float64)
	var recs []walRecord
	for _, g := range order {
		charges := groups[g]
		res := make([]Outcome, len(charges))
		for i := range charges {
			c := &charges[i]
			sh, _ := s.routedLocked(c.WorkerID)
			var base float64
			if a := sh.accounts[c.WorkerID]; a != nil {
				base = a.Rho
			}
			cur := base + staged[c.WorkerID]
			newRho := cur + c.Rho
			eps := s.cfg.Epsilon(newRho)
			over := eps > s.cfg.CapEpsilon
			out := Outcome{WorkerID: c.WorkerID, OverCap: over}
			if over && c.Enforce && c.Rho > 0 {
				// Refused: report the unchanged balance. Zero-rho charges
				// (level-None submits) are never refused — the cap bounds DP
				// loss, and they spend none.
				out.Rejected = true
				out.SpentEpsilon = s.cfg.Epsilon(cur)
				out.RemainingEpsilon = s.cfg.Remaining(cur)
				res[i] = out
				sh.rejected++
				continue
			}
			staged[c.WorkerID] += c.Rho
			out.SpentEpsilon = eps
			out.RemainingEpsilon = s.cfg.Remaining(newRho)
			res[i] = out
			recs = append(recs, walRecord{Worker: c.WorkerID, Survey: c.SurveyID, Rho: c.Rho, Unprot: c.Unprotected})
		}
		outs[g] = res
	}
	if len(recs) == 0 {
		s.led.mu.Unlock()
		return outs, nil
	}
	if err := s.flushApplyLocked(recs); err != nil {
		s.led.mu.Unlock()
		return nil, err
	}
	if err := s.led.commitLocked(len(recs), s.maybeCompactLocked); err != nil {
		return nil, err
	}
	return outs, nil
}

// flushApplyLocked writes records to the journal and folds them into
// memory, in that order — apply order is WAL order, the replay
// contract. An apply failure after the flush leaves memory behind the
// log, so it is sticky.
func (s *Set) flushApplyLocked(recs []walRecord) error {
	if err := s.led.flushLocked(recs); err != nil {
		return err
	}
	for i := range recs {
		if err := s.applyLocked(&recs[i]); err != nil {
			s.led.err = err
			return err
		}
	}
	return nil
}

// Refund implements Charger.
func (s *Set) Refund(c Charge) error {
	return s.RefundShard(Route(c.WorkerID, s.total), c)
}

// RefundShard credits one hosted shard — the submit path's compensation
// when the response append fails after the debit. The credit is durable
// before it is visible, like every other mutation.
func (s *Set) RefundShard(global int, c Charge) error {
	s.led.mu.Lock()
	if err := s.led.checkLocked(); err != nil {
		s.led.mu.Unlock()
		return err
	}
	if s.shards[global] == nil {
		s.led.mu.Unlock()
		return fmt.Errorf("%w: shard %d", ErrNotHosted, global)
	}
	if err := c.validate(); err != nil {
		s.led.mu.Unlock()
		return err
	}
	if _, err := s.routedLocked(c.WorkerID); err != nil {
		s.led.mu.Unlock()
		return err
	}
	rec := walRecord{T: walRefund, Worker: c.WorkerID, Survey: c.SurveyID, Rho: c.Rho, Unprot: c.Unprotected}
	if err := s.flushApplyLocked([]walRecord{rec}); err != nil {
		s.led.mu.Unlock()
		return err
	}
	return s.led.commitLocked(1, s.maybeCompactLocked)
}

// Peek implements Charger.
func (s *Set) Peek(workerID string) (Account, error) {
	return s.PeekShard(Route(workerID, s.total), workerID)
}

// PeekShard reads a worker's account off one hosted shard.
func (s *Set) PeekShard(global int, workerID string) (Account, error) {
	sh := s.shards[global]
	if sh == nil {
		return Account{}, fmt.Errorf("%w: shard %d", ErrNotHosted, global)
	}
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	if a := sh.accounts[workerID]; a != nil {
		return *a, nil
	}
	return Account{WorkerID: workerID}, nil
}

// Stats implements Charger over the hosted shards. WALRecords counts
// the charge and refund entries attributable to each shard since the
// last compaction (entries, not the batch records that carry them);
// Compactions and Durable describe the shared journal and repeat on
// every row.
func (s *Set) Stats() ([]ShardStats, error) {
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	out := make([]ShardStats, 0, len(s.ids))
	for _, id := range s.ids {
		sh := s.shards[id]
		st := ShardStats{
			Shard:       id,
			Workers:     len(sh.accounts),
			Rejected:    sh.rejected,
			WALRecords:  sh.records,
			Compactions: s.led.compactions,
			Durable:     s.led.log != nil,
		}
		for _, a := range sh.accounts {
			st.Charges += a.Charges
			st.Refunds += a.Refunds
			st.Unprotected += a.Unprotected
		}
		out = append(out, st)
	}
	return out, nil
}

// maybeCompactLocked rewrites the journal as one snapshot record once
// the appended entries outnumber the live accounts enough that the
// rewrite pays for itself. Same 4x-with-floor policy as checkpoint
// compaction, with a higher floor because charge entries accumulate
// per submit, not per survey.
func (s *Set) maybeCompactLocked() {
	if s.led.log == nil {
		return
	}
	var accounts int
	for _, sh := range s.shards {
		accounts += len(sh.accounts)
	}
	threshold := 4 * (accounts + 1)
	if threshold < 64 {
		threshold = 64
	}
	if s.led.appended < threshold {
		return
	}
	s.compactLocked()
}

// compactLocked rewrites the journal as one snapshot of every hosted
// account. Failures are sticky; the original file is untouched until
// the rewrite publishes.
func (s *Set) compactLocked() {
	if s.led.rewriteLocked(sortedAccounts(s.shards)) != nil {
		return
	}
	for _, sh := range s.shards {
		sh.records = 0
	}
}

// Close implements Charger, closing the shared journal.
func (s *Set) Close() error {
	return s.led.close()
}

var _ Charger = (*Set)(nil)
