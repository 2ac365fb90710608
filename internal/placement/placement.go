// Package placement is the cluster's shared placement manifest and its
// one source of placement: a versioned JSON document mapping every
// global response shard to the node that owns its writes (the primary),
// the replicas that tail it and a per-shard fencing epoch, and every
// budget shard to the node hosting its ledger. Every role reads the
// same file: nodes host what it names them for, frontends route and
// charge by it and hot-reload it through a Watcher, and a positional
// router synthesizes one in memory (RoundRobin, at version 0). A
// failover is one atomic rewrite: bump the shard's epoch, swap the
// primary, bump the manifest version. Budget rows do not move.
//
// The epoch is the write fence. A frontend stamps every submit with the
// epoch of the shard it is routing to; a node compares the stamp
// against the newest manifest it has applied and refuses stale writes
// (a frontend still routing to a demoted primary) with a fenced error,
// which is what makes promotion safe against the old primary coming
// back mid-failover.
package placement

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"loki/internal/blockio"
)

// ShardPlacement is one shard's row in the manifest.
type ShardPlacement struct {
	// Shard is the global shard index.
	Shard int `json:"shard"`
	// Epoch is the shard's fencing epoch: bumped on every promotion.
	// Writes stamped with an older epoch are refused by the primary.
	Epoch uint64 `json:"epoch"`
	// Primary is the base URL of the node that accepts writes for the
	// shard and feeds its replicas.
	Primary string `json:"primary"`
	// Replicas are base URLs of read-only followers a frontend may fail
	// reads over to, in preference order.
	Replicas []string `json:"replicas,omitempty"`
}

// BudgetPlacement is one budget shard's row: the node hosting the
// ledger of every worker budget.Route maps to the shard. Budget rows
// have no epoch and do not move on promotion (a promoted replica hosts
// no ledger).
type BudgetPlacement struct {
	Shard int    `json:"shard"`
	Host  string `json:"host"`
}

// Manifest is the versioned placement document. Version must strictly
// grow on every change — watchers ignore anything older than what they
// already applied, so a torn half-rollout cannot move routing backwards.
type Manifest struct {
	Version int64             `json:"version"`
	Shards  []ShardPlacement  `json:"shards"`
	Budget  []BudgetPlacement `json:"budget"`
}

// RoundRobin builds the canonical first manifest: totalShards response
// shards and as many budget shards, shard s of each on node s mod n,
// every epoch 1, version 1, no replicas. Callers attach replicas and
// Save.
func RoundRobin(totalShards int, nodes []string) (*Manifest, error) {
	if totalShards < 1 {
		return nil, fmt.Errorf("placement: total shards %d < 1", totalShards)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("placement: round-robin needs at least one node")
	}
	m := &Manifest{Version: 1, Shards: make([]ShardPlacement, totalShards), Budget: make([]BudgetPlacement, totalShards)}
	for n, owned := range RoundRobinShards(totalShards, len(nodes)) {
		for _, s := range owned {
			m.Shards[s] = ShardPlacement{Shard: s, Epoch: 1, Primary: nodes[n]}
			m.Budget[s] = BudgetPlacement{Shard: s, Host: nodes[n]}
		}
	}
	return m, nil
}

// RoundRobinShards is the round-robin layout, the one place it exists:
// per node index, the shards s with s mod nodes equal to it.
func RoundRobinShards(totalShards, nodes int) [][]int {
	owned := make([][]int, nodes)
	for s := 0; s < totalShards; s++ {
		owned[s%nodes] = append(owned[s%nodes], s)
	}
	return owned
}

// Validate checks the manifest is well-formed: a positive version,
// every shard index 0..n-1 present exactly once with a non-empty
// primary that is not also its own replica, and every budget shard
// index 0..b-1 present exactly once with a non-empty host.
func (m *Manifest) Validate() error {
	if m.Version <= 0 {
		return fmt.Errorf("placement: manifest version %d must be positive", m.Version)
	}
	shards := make([]string, len(m.Shards))
	for _, sp := range m.Shards {
		if err := placeRow(shards, "shard", sp.Shard, sp.Primary); err != nil {
			return err
		}
		if slices.Contains(sp.Replicas, sp.Primary) {
			return fmt.Errorf("placement: shard %d lists its primary %q as a replica", sp.Shard, sp.Primary)
		}
	}
	budget := make([]string, len(m.Budget))
	for _, b := range m.Budget {
		if err := placeRow(budget, "budget shard", b.Shard, b.Host); err != nil {
			return err
		}
	}
	if len(shards) == 0 || len(budget) == 0 {
		return fmt.Errorf("placement: manifest has %d shards and %d budget shards; it needs both", len(shards), len(budget))
	}
	return nil
}

// placeRow records one row's node in hosts[shard], refusing an index
// outside the table, a second row for the same index and an empty node.
func placeRow(hosts []string, kind string, shard int, node string) error {
	switch {
	case shard < 0 || shard >= len(hosts):
		return fmt.Errorf("placement: %s index %d outside [0, %d)", kind, shard, len(hosts))
	case hosts[shard] != "":
		return fmt.Errorf("placement: %s %d appears twice", kind, shard)
	case node == "":
		return fmt.Errorf("placement: %s %d has no node", kind, shard)
	}
	hosts[shard] = node
	return nil
}

// Placement returns the shard's row, or nil for an unknown shard.
func (m *Manifest) Placement(shard int) *ShardPlacement {
	for i := range m.Shards {
		if m.Shards[i].Shard == shard {
			return &m.Shards[i]
		}
	}
	return nil
}

// BudgetShards returns, ascending, the budget shards node hosts. It is
// never nil, so it is safe as budget.SetOptions.GlobalIDs (where nil
// means every shard).
func (m *Manifest) BudgetShards(node string) []int {
	out := []int{}
	for _, b := range m.Budget {
		if b.Host == node {
			out = append(out, b.Shard)
		}
	}
	sort.Ints(out)
	return out
}

// Nodes returns every distinct primary base URL, in first-appearance
// order over ascending shard index — for a round-robin manifest that is
// node-index order. Load derives a parent-written manifest's budget
// rows from it.
func (m *Manifest) Nodes() []string {
	rows := append([]ShardPlacement(nil), m.Shards...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Shard < rows[j].Shard })
	var out []string
	seen := make(map[string]bool)
	for i := range rows {
		if p := rows[i].Primary; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Clone returns an independent deep copy.
func (m *Manifest) Clone() *Manifest {
	out := &Manifest{Version: m.Version, Shards: make([]ShardPlacement, len(m.Shards)),
		Budget: append([]BudgetPlacement(nil), m.Budget...)}
	copy(out.Shards, m.Shards)
	for i := range out.Shards {
		out.Shards[i].Replicas = append([]string(nil), m.Shards[i].Replicas...)
	}
	return out
}

// Promote rewrites the manifest for one shard's failover: newPrimary
// takes the shard, the shard's epoch and the manifest version bump, and
// the new primary disappears from the replica list. The demoted primary
// is NOT added as a replica — it is presumed dead, and a returned node
// re-registers by being added back explicitly once it has re-synced.
// Budget rows stay where they are. Returns the shard's new epoch.
func (m *Manifest) Promote(shard int, newPrimary string) (uint64, error) {
	sp := m.Placement(shard)
	if sp == nil {
		return 0, fmt.Errorf("placement: promote: unknown shard %d", shard)
	}
	if sp.Primary == newPrimary {
		return sp.Epoch, nil
	}
	sp.Epoch++
	sp.Primary = newPrimary
	reps := sp.Replicas[:0]
	for _, rep := range sp.Replicas {
		if rep != newPrimary {
			reps = append(reps, rep)
		}
	}
	sp.Replicas = reps
	m.Version++
	return sp.Epoch, nil
}

// Load reads and validates a manifest file. A file without budget rows
// gets the layout its writer placed budget shards by: one per response
// shard, round-robin over Nodes().
func Load(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("placement: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("placement: parse manifest %s: %w", path, err)
	}
	if len(m.Budget) == 0 && len(m.Shards) > 0 {
		// Written before budget rows existed: nodes hosted as many budget
		// shards as response shards, round-robin over the primaries.
		rr, _ := RoundRobin(len(m.Shards), m.Nodes())
		m.Budget = rr.Budget
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("placement: manifest %s: %w", path, err)
	}
	return &m, nil
}

// Save publishes the manifest through blockio.WriteFileAtomic (temp
// file, fsync, rename, directory sync): a watcher polling the path never
// reads a torn write, and a crash after a promotion cannot roll the
// fence epochs back to a torn or older file.
func (m *Manifest) Save(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	err = blockio.WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(append(b, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("placement: write manifest: %w", err)
	}
	return nil
}

// Watcher polls a manifest file and delivers every version increase to
// a callback. Polling (rather than inotify) keeps it dependency-free
// and correct over every filesystem the manifest might live on; the
// interval bounds how stale a role's routing can be after a rewrite.
type Watcher struct {
	path     string
	interval time.Duration
	fn       func(*Manifest)

	mu      sync.Mutex
	version int64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Watch loads the manifest at path, delivers it to fn once, and starts
// polling: every interval the file is re-read and fn is called again
// whenever the version grew. Parse or validation errors on later reads
// are skipped (the previous manifest stays applied) — a half-written or
// briefly absent file must not tear routing down. Close stops the loop.
func Watch(path string, interval time.Duration, fn func(*Manifest)) (*Watcher, error) {
	if interval <= 0 {
		interval = time.Second
	}
	m, err := Load(path)
	if err != nil {
		return nil, err
	}
	w := &Watcher{path: path, interval: interval, fn: fn, version: m.Version,
		stop: make(chan struct{}), done: make(chan struct{})}
	fn(m)
	go w.loop()
	return w, nil
}

func (w *Watcher) loop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.Poll()
		case <-w.stop:
			return
		}
	}
}

// Poll re-reads the manifest immediately, delivering it if the version
// grew. Exported so a role that just observed a fencing error can
// refresh its routing without waiting out the interval.
func (w *Watcher) Poll() {
	m, err := Load(w.path)
	if err != nil {
		return
	}
	w.mu.Lock()
	if m.Version <= w.version {
		w.mu.Unlock()
		return
	}
	w.version = m.Version
	w.mu.Unlock()
	w.fn(m)
}

// Close stops the watcher.
func (w *Watcher) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}
