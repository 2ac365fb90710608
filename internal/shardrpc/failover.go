package shardrpc

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"loki/internal/placement"
)

// This file is the frontend half of shard failover: manifest-driven
// routing (placement.Manifest applied without restart), per-node health
// from transport errors plus an active prober, read fallback to a
// shard's replicas with stale-read accounting, and client-side write
// fencing while a shard's primary is down and its replica not yet
// promoted. The node half (epoch checks, promotion) lives in the server
// package.

// routing is the router's one routing table: one applied manifest with
// its rows resolved to clients.
type routing struct {
	version int64
	shards  []shardRoute // by response shard
	budget  []*Client    // by budget shard: the ledger's host
}

// positional reports whether the table holds no manifest at all, only
// NewRemoteRoundRobin's in-memory version 0: its writes go unstamped and
// are never health-gated, and it has no failover state to report.
func (t *routing) positional() bool { return t.version == 0 }

// shardRoute is one shard's resolved routing row: clients instead of
// URLs, plus the manifest epoch every write is stamped with.
type shardRoute struct {
	primary  *Client
	replicas []*Client
	epoch    uint64
}

// nodeHealth is the failure detector's per-node belief: down nodes are
// skipped on reads and fence writes. It flips down on any transport
// error or failed probe, and back up on any successful call or probe.
type nodeHealth struct {
	mu      sync.Mutex
	down    bool
	lastErr string
	since   time.Time
}

// FailoverOptions tune EnableFailover.
type FailoverOptions struct {
	// ProbeInterval is how often every known node is probed; it bounds
	// both failure detection latency and how quickly a recovered node
	// is trusted again. Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 1s.
	ProbeTimeout time.Duration
}

// NewRemoteFromManifest builds the manifest-routed Remote: clients for
// every primary (first, in Nodes() order), replica and budget host the
// manifest names, read failover to the replicas, and epoch stamps on
// every submit. Later manifests hot-swap the routing through
// ApplyManifest.
func NewRemoteFromManifest(m *placement.Manifest, token string, httpClient *http.Client) (*Remote, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var clients []*Client
	for _, u := range m.Nodes() {
		clients = append(clients, NewClient(u, token, httpClient))
	}
	return newRemote(m, clients, token, httpClient)
}

// ApplyManifest swaps the routing to a newer manifest without touching
// in-flight work: shard → primary/replica clients and the per-shard
// epoch stamp change atomically under the route lock, and the next
// call each shard's records wait for resolves the new target. Manifests
// at or below the applied version are ignored (watcher redelivery,
// stale files); one that moves a budget shard is refused, because a
// ledger cannot move yet. Unknown node URLs get clients lazily; that
// needs the token NewRemoteFromManifest recorded — a NewRemoteRoundRobin
// router cannot apply manifests naming nodes it has no client for.
func (r *Remote) ApplyManifest(m *placement.Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	if m.Version <= r.table.version {
		return nil
	}
	return r.applyLocked(m)
}

// applyLocked resolves a manifest into the routing table and installs
// it. Caller holds routeMu.
func (r *Remote) applyLocked(m *placement.Manifest) error {
	if len(m.Shards) != len(r.submits.lanes) {
		return fmt.Errorf("shardrpc: manifest has %d shards, router has %d", len(m.Shards), len(r.submits.lanes))
	}
	var err error
	dial := func(url string) *Client {
		c, derr := r.clientForURLLocked(url)
		err = cmp.Or(err, derr)
		return c
	}
	t := routing{version: m.Version, shards: make([]shardRoute, len(m.Shards)), budget: make([]*Client, len(m.Budget))}
	for _, sp := range m.Shards {
		rt := shardRoute{primary: dial(sp.Primary), epoch: sp.Epoch}
		for _, ru := range sp.Replicas {
			rt.replicas = append(rt.replicas, dial(ru))
		}
		t.shards[sp.Shard] = rt
	}
	for _, b := range m.Budget {
		t.budget[b.Shard] = dial(b.Host)
	}
	if err != nil {
		return err
	}
	if r.table.shards != nil && !slices.Equal(t.budget, r.table.budget) {
		return fmt.Errorf("shardrpc: manifest v%d moves budget shards, and budget placement is fixed", m.Version)
	}
	r.table = t
	return nil
}

// clientForURLLocked returns (creating if needed) the client for a node
// base URL. Caller holds routeMu.
func (r *Remote) clientForURLLocked(url string) (*Client, error) {
	if c, ok := r.clientsByURL[url]; ok {
		return c, nil
	}
	if r.token == "" {
		return nil, fmt.Errorf("shardrpc: manifest names unknown node %q and the router has no cluster token to dial it", url)
	}
	c := NewClient(url, r.token, r.httpc)
	r.clients = append(r.clients, c)
	r.clientsByURL[url] = c
	return c, nil
}

// ManifestVersion reports the applied manifest version (0 = positional
// routing, no manifest).
func (r *Remote) ManifestVersion() int64 {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return r.table.version
}

// allClients snapshots the client list for broadcasts and meta
// refreshes; manifest application may grow it concurrently.
func (r *Remote) allClients() []*Client {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return append([]*Client(nil), r.clients...)
}

// healthFor returns (creating if needed) a node's health entry.
func (r *Remote) healthFor(url string) *nodeHealth {
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	if r.healthByURL == nil {
		r.healthByURL = make(map[string]*nodeHealth)
	}
	h := r.healthByURL[url]
	if h == nil {
		h = &nodeHealth{}
		r.healthByURL[url] = h
	}
	return h
}

// nodeDown reports the detector's current belief about a node.
func (r *Remote) nodeDown(url string) bool {
	h := r.healthFor(url)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

func (r *Remote) markDown(url string, err error) {
	h := r.healthFor(url)
	h.mu.Lock()
	if !h.down {
		h.down = true
		h.since = time.Now()
	}
	if err != nil {
		h.lastErr = err.Error()
	}
	h.mu.Unlock()
}

func (r *Remote) markUp(url string) {
	h := r.healthFor(url)
	h.mu.Lock()
	if h.down {
		h.down = false
		h.since = time.Now()
	}
	h.mu.Unlock()
}

// noteResult feeds the failure detector from ordinary RPC traffic: a
// transport error is evidence the node is down, any answered request
// (success or status error) is evidence it is up. Passive detection
// means the common case needs no probe round-trips at all; the prober
// exists to notice recovery and to catch nodes that fail while idle.
func (r *Remote) noteResult(c *Client, err error) {
	if err == nil || !IsTransportError(err) {
		r.markUp(c.BaseURL())
		return
	}
	r.markDown(c.BaseURL(), err)
}

// submitTarget resolves where one shard's next write batch goes: the
// manifest primary with its epoch stamp, refused with FailoverError
// while the primary is believed down (promotion will swap the manifest
// and the next resolution lands on the new primary). A positional
// router's writes are never gated, and its epoch 0 stamps nothing.
func (r *Remote) submitTarget(shard int) (*Client, uint64, error) {
	rt, positional, err := r.route(shard)
	if err != nil {
		return nil, 0, err
	}
	if !positional && r.nodeDown(rt.primary.BaseURL()) {
		return nil, 0, &FailoverError{Shard: shard}
	}
	return rt.primary, rt.epoch, nil
}

// noteFenced counts a fenced write and nudges the manifest refresh
// callback (a watcher Poll) so routing catches up faster than the next
// poll tick. The callback runs on its own goroutine — settlement of the
// fenced batch must not wait on a manifest re-read.
func (r *Remote) noteFenced() {
	r.fencedWrites.Add(1)
	if fn, ok := r.onFenced.Load().(func()); ok && fn != nil {
		go fn()
	}
}

// OnFenced registers a callback invoked (asynchronously) whenever a
// write is refused by a node's epoch fence — the router's signal that
// its manifest is stale. Wire it to the placement watcher's Poll.
func (r *Remote) OnFenced(fn func()) { r.onFenced.Store(fn) }

// EnableFailover starts the active prober: every known node's admin
// health endpoint is fetched on an interval, feeding the same up/down
// belief passive detection uses. Without it, a dead node is only
// noticed when traffic hits it and only trusted again when the manifest
// changes — the prober adds bounded-latency detection and recovery.
func (r *Remote) EnableFailover(opts FailoverOptions) {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	r.probeOnce.Do(func() {
		r.probeStop = make(chan struct{})
		r.probeDone = make(chan struct{})
		go r.probeLoop(opts)
	})
}

func (r *Remote) probeLoop(opts FailoverOptions) {
	defer close(r.probeDone)
	hc := &http.Client{Timeout: opts.ProbeTimeout}
	t := time.NewTicker(opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			for _, c := range r.allClients() {
				url := c.BaseURL()
				resp, err := hc.Get(url + "/api/v1/admin/health") // unauthenticated on every role
				if err != nil {
					r.markDown(url, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode >= 200 && resp.StatusCode < 500 {
					// Any answer at all proves liveness; the probe is a
					// failure detector, not a health grader.
					r.markUp(url)
				} else {
					r.markDown(url, fmt.Errorf("probe returned %s", resp.Status))
				}
			}
		case <-r.probeStop:
			return
		}
	}
}

// ShardRouteInfo is one shard's routing row on the admin surface.
type ShardRouteInfo struct {
	Shard       int      `json:"shard"`
	Epoch       uint64   `json:"epoch,omitempty"`
	Primary     string   `json:"primary"`
	PrimaryDown bool     `json:"primary_down,omitempty"`
	Replicas    []string `json:"replicas,omitempty"`
	// LastError is the primary's most recent transport failure, kept
	// after recovery for the operator's timeline.
	LastError string `json:"last_error,omitempty"`
}

// FailoverInfo is the frontend's failover state for the admin/health
// surfaces: the applied manifest version, stale-read and fenced-write
// counters, and every shard's current routing with the detector's
// belief about its primary.
type FailoverInfo struct {
	ManifestVersion int64            `json:"manifest_version"`
	StaleReads      uint64           `json:"stale_reads,omitempty"`
	FencedWrites    uint64           `json:"fenced_writes,omitempty"`
	Shards          []ShardRouteInfo `json:"shards,omitempty"`
}

// FailoverInfo snapshots the failover state; nil under positional
// routing (no manifest applied).
func (r *Remote) FailoverInfo() *FailoverInfo {
	r.routeMu.RLock()
	t := r.table
	r.routeMu.RUnlock()
	if t.positional() {
		return nil
	}
	routes := t.shards
	info := &FailoverInfo{
		ManifestVersion: t.version,
		StaleReads:      r.staleReads.Load(),
		FencedWrites:    r.fencedWrites.Load(),
		Shards:          make([]ShardRouteInfo, len(routes)),
	}
	for s, rt := range routes {
		row := ShardRouteInfo{Shard: s, Epoch: rt.epoch, Primary: rt.primary.BaseURL()}
		h := r.healthFor(row.Primary)
		h.mu.Lock()
		row.PrimaryDown = h.down
		row.LastError = h.lastErr
		h.mu.Unlock()
		for _, rep := range rt.replicas {
			row.Replicas = append(row.Replicas, rep.BaseURL())
		}
		info.Shards[s] = row
	}
	return info
}

// StaleReads reports how many reads were served by a replica instead of
// the shard's primary since the router was built.
func (r *Remote) StaleReads() uint64 { return r.staleReads.Load() }
