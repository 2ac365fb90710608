package shardrpc

import (
	"fmt"
	"net/http"
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
	// ProbePath is fetched from each node's base URL; any 2xx answer
	// counts as alive. Default the admin health endpoint, which every
	// role serves unauthenticated.
	ProbePath string
}

// NewRemoteFromManifest builds the manifest-routed Remote: one client
// per distinct primary (in first-appearance order over ascending shard
// index, so derived placements agree with positional layouts), replica
// clients for read failover, and epoch stamps on every submit. Later
// manifests hot-swap the routing through ApplyManifest.
func NewRemoteFromManifest(m *placement.Manifest, token string, httpClient *http.Client) (*Remote, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	nodes := m.Nodes()
	clients := make([]*Client, len(nodes))
	nodeIdx := make(map[string]int, len(nodes))
	for i, u := range nodes {
		clients[i] = NewClient(u, token, httpClient)
		nodeIdx[u] = i
	}
	pl := make([]int, len(m.Shards))
	for i := range m.Shards {
		sp := &m.Shards[i]
		pl[sp.Shard] = nodeIdx[sp.Primary]
	}
	r, err := NewRemote(clients, pl)
	if err != nil {
		return nil, err
	}
	r.token = token
	r.httpc = httpClient
	if err := r.ApplyManifest(m); err != nil {
		return nil, err
	}
	return r, nil
}

// ApplyManifest swaps the routing to a newer manifest without touching
// in-flight work: shard → primary/replica clients and the per-shard
// epoch stamp change atomically under the route lock, and the next
// batch each shard's batcher ships resolves the new target. Manifests
// at or below the applied version are ignored (watcher redelivery,
// stale files). Unknown node URLs get clients lazily; that needs the
// token NewRemoteFromManifest recorded — a positional NewRemote router
// cannot apply manifests naming nodes it has no client for.
func (r *Remote) ApplyManifest(m *placement.Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	if m.Version <= r.manifestVersion {
		return nil
	}
	if len(m.Shards) != len(r.placement) {
		return fmt.Errorf("shardrpc: manifest has %d shards, router has %d", len(m.Shards), len(r.placement))
	}
	routes := make([]shardRoute, len(r.placement))
	for i := range m.Shards {
		sp := &m.Shards[i]
		pc, err := r.clientForURLLocked(sp.Primary)
		if err != nil {
			return err
		}
		rt := shardRoute{primary: pc, epoch: sp.Epoch}
		for _, ru := range sp.Replicas {
			rc, err := r.clientForURLLocked(ru)
			if err != nil {
				return err
			}
			rt.replicas = append(rt.replicas, rc)
		}
		routes[sp.Shard] = rt
	}
	r.routes = routes
	r.manifestVersion = m.Version
	return nil
}

// clientForURLLocked returns (creating if needed) the client for a node
// base URL. Caller holds routeMu.
func (r *Remote) clientForURLLocked(url string) (*Client, error) {
	if r.clientsByURL == nil {
		r.clientsByURL = make(map[string]*Client, len(r.clients))
		for _, c := range r.clients {
			r.clientsByURL[c.BaseURL()] = c
		}
	}
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
	return r.manifestVersion
}

// routeFor snapshots one shard's route; ok is false under positional
// routing (no manifest applied).
func (r *Remote) routeFor(shard int) (shardRoute, bool) {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	if r.routes == nil || shard < 0 || shard >= len(r.routes) {
		return shardRoute{}, false
	}
	return r.routes[shard], true
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
// and the next resolution lands on the new primary). Positional routers
// keep the original fixed binding with an unstamped epoch.
func (r *Remote) submitTarget(shard int) (*Client, uint64, error) {
	rt, ok := r.routeFor(shard)
	if !ok {
		c, err := r.clientFor(shard)
		return c, 0, err
	}
	if r.nodeDown(rt.primary.BaseURL()) {
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
	if opts.ProbePath == "" {
		opts.ProbePath = "/api/v1/admin/health"
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
				resp, err := hc.Get(url + opts.ProbePath)
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
	routes := r.routes
	version := r.manifestVersion
	r.routeMu.RUnlock()
	if routes == nil {
		return nil
	}
	info := &FailoverInfo{
		ManifestVersion: version,
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
