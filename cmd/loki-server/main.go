// Command loki-server runs the Loki backend: the HTTP/JSON API that
// serves surveys, accepts at-source-obfuscated responses, and exposes
// noise-aware aggregates to requesters.
//
// Usage:
//
//	loki-server -addr :8080 -token secret -store loki.log -seed-catalog
//	loki-server -store ingest:/var/lib/loki -shards 8 -commit-interval 1ms
//	loki-server -role node -manifest cluster.json -advertise http://10.0.0.1:8080 -store ingest:/var/lib/loki
//	loki-server -role frontend -manifest cluster.json -seed-catalog
//
// Cluster roles (-role):
//
//	standalone  (default) one process owns everything — the classic
//	            deployment; responses live on one logical shard.
//	node        hosts the response shards the manifest names it
//	            (-advertise) primary or replica for, plus any shard store
//	            already on its disk, and serves the internal shardrpc
//	            transport (submit-batch, cursor scans, partial-aggregate
//	            snapshots, WAL-tail shipping) alongside the public API.
//	            Each hosted shard gets its own store (subdirectory for
//	            durable backends) and one role, from the manifest:
//	            primary (takes writes), replica (tails the shard's
//	            primary every -replica-poll into its own store, serves
//	            stale reads, refuses writes) or fenced (readable, refuses
//	            writes). A node whose every shard follows refuses public
//	            submits and publishes with 403. A following shard is
//	            promoted to primary by POST
//	            /api/v1/admin/promote/{shard}, automatically after
//	            -promote-after of its primary being unreachable, or by a
//	            manifest naming the node primary.
//	frontend    owns no storage: routes submissions to the manifest's
//	            primaries by the cluster-wide placement hash and answers
//	            reads from a per-survey partial cache (keyed by the
//	            per-shard cursor vector, revalidated with conditional
//	            delta RPCs within -frontend-cache-ttl, invalidated for
//	            read-your-writes by submits through this frontend;
//	            -frontend-refresh keeps hot surveys warm in the
//	            background). A negative -frontend-cache-ttl
//	            revalidates on every read.
//
// Placement (-manifest): node and frontend roles take every placement
// from one versioned JSON manifest (internal/placement): response shard
// -> primary + replicas with a fencing epoch each, and budget shard ->
// host. Its row counts are the cluster's shard counts. Every cluster
// role watches the file (-manifest-poll): frontends route by it, probe
// node health (-probe-interval) and fail reads over to replicas when a
// primary dies (writes to the failed shard answer 503 + Retry-After
// until promotion); a promotion bumps the shard's epoch in the
// manifest, which re-routes every frontend, re-sources the shard's other
// replicas and fences the old primary's writes with 412 when it returns
// — it reopens its old shard from disk, fenced. Listing a fenced node
// among a shard's replicas rejoins it without a restart: the shard
// resyncs from the new primary, discarding records the node accepted
// and never shipped. -advertise tells a node which manifest entries are
// itself, and is the follower ID its sources account journal acks to.
//
// With -store mem the server keeps everything in memory; with -store
// ingest:DIR it opens the sharded segmented-WAL ingest store rooted at
// DIR (tuned by -shards, -commit-interval and -segment-bytes); otherwise
// the given file is opened (and replayed) as the durable store: one
// blockio log, a JSON-lines file from before blocks converted on open. -seed-catalog publishes the paper's survey catalog on startup
// so a fresh server has something to serve.
//
// -checkpoint-dir DIR enables durable live-aggregate checkpoints (one
// file per survey, one record per shard): the server periodically
// (-checkpoint-interval) persists each shard partial's state plus
// cursor, so after a restart the first read scans only each shard's
// tail beyond its own checkpoint.
//
// Privacy budget (-budget-enforce=off|log|enforce): every submit debits
// the worker's zCDP account against a (-budget-cap-epsilon,
// -budget-delta) ceiling before it is appended. Standalone servers keep
// the ledger in process; cluster nodes host the budget shards the
// manifest's budget rows name (durable under -budget-dir) and frontends
// charge through them over shardrpc, so one worker's spend is enforced
// across every frontend. Set the budget flags identically on node and
// frontend roles.
//
// Overload protection (default off): -submit-inflight and -submit-queue
// bound concurrent and queued submits, shedding the excess with 429 +
// Retry-After instead of letting latency and goroutines grow without
// bound; -rate-limit-rps adds a per-requester token-bucket ceiling.
// The admin store endpoint reports queue depth, shed and throttle
// counters when either is on.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"loki/internal/budget"
	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/placement"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// config is every flag: main parses it, assemble builds a role from it.
type config struct {
	addr, storePath, token string
	seedCatalog            bool
	icfg                   ingest.Config
	checkpointDir          string
	checkpointEvery        time.Duration

	role           string
	clusterToken   string        // shardrpc bearer token (defaults to -token)
	pollInterval   time.Duration // node: journal tail poll interval of following shards
	cacheTTL       time.Duration // frontend: partial cache staleness bound
	cacheRefresh   time.Duration // frontend: background refresher interval
	journalRetain  int           // node: journal retained-entry bound
	followerAckTTL time.Duration // node: expire silent follower acks after this long

	manifest      string        // all cluster roles: shared placement manifest path
	manifestPoll  time.Duration // manifest watch interval
	advertise     string        // node: this process's base URL in the manifest, and its follower ID
	probeInterval time.Duration // frontend: health-probe interval of the failure detector
	promoteAfter  time.Duration // node: auto-promote a following shard after its tail has failed this long (0 = operator only)

	budgetDir     string  // node/standalone: budget WAL directory (empty = in-memory)
	budgetCap     float64 // epsilon ceiling per worker
	budgetDelta   float64 // delta the epsilon conversion is quoted at
	budgetEnforce string  // off, log or enforce

	submitInflight int     // admission: concurrent submits past which arrivals queue (0 = off)
	submitQueue    int     // admission: queued submits past which arrivals shed with 429
	rateLimitRPS   float64 // per-requester submit rate ceiling (0 = off)
	rateLimitBurst int     // per-requester burst above the sustained rate
}

// serverConfig is what every role's server.Config starts from: the
// schedule, the requester token, the logger and the overload knobs
// (zero values leave the default-off paths identical).
func (c *config) serverConfig(logger *log.Logger) server.Config {
	return server.Config{
		Schedule: core.DefaultSchedule(), RequesterToken: c.token, Logger: logger,
		SubmitInflight: c.submitInflight, SubmitQueue: c.submitQueue,
		RateLimitRPS: c.rateLimitRPS, RateLimitBurst: c.rateLimitBurst,
	}
}

// budgetEnabled reports whether any budget accounting is configured:
// an enforcement mode past off, or a durable ledger directory (which
// hosts accounts even when this process does not enforce, so that
// frontends that do can charge through it).
func (c *config) budgetEnabled() bool {
	return c.budgetEnforce != "off" || c.budgetDir != ""
}

func (c *config) budgetConfig() budget.Config {
	return budget.Config{CapEpsilon: c.budgetCap, Delta: c.budgetDelta}
}

// parseFlags defines every flag on fs and parses args into a config.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.storePath, "store", "mem", `persistence: "mem", "ingest:DIR" or a store file path`)
	fs.StringVar(&c.token, "token", "requester-secret", "requester bearer token")
	fs.BoolVar(&c.seedCatalog, "seed-catalog", false, "publish the paper's survey catalog on startup")
	fs.IntVar(&c.icfg.Shards, "shards", 8, "ingest store: shard label recorded at first open and required to match on reopen; every value shares one WAL and one fsync stream")
	fs.DurationVar(&c.icfg.CommitInterval, "commit-interval", 0, "ingest store: group-commit window (0 = commit as soon as the committer is free)")
	fs.Int64Var(&c.icfg.SegmentBytes, "segment-bytes", 16<<20, "ingest store: WAL segment rotation threshold")
	fs.DurationVar(&c.icfg.IdleCompact, "idle-compact", time.Minute, "ingest store: compact the WAL tail after this long without commits (negative disables)")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "directory for durable live-aggregate checkpoints (empty disables; restart catch-up then rescans whole backlogs)")
	fs.DurationVar(&c.checkpointEvery, "checkpoint-interval", 15*time.Second, "background checkpointer flush period")
	fs.StringVar(&c.role, "role", "standalone", "deployment role: standalone, node or frontend")
	fs.StringVar(&c.clusterToken, "cluster-token", "", "bearer token for the internal shardrpc transport (defaults to -token)")
	fs.DurationVar(&c.pollInterval, "replica-poll", 500*time.Millisecond, "node: journal tail poll interval of the shards the manifest lists this node a replica of")
	fs.DurationVar(&c.cacheTTL, "frontend-cache-ttl", 250*time.Millisecond,
		"frontend: partial cache staleness bound — reads within it are served from cache with no node RPCs (negative revalidates on every read)")
	fs.DurationVar(&c.cacheRefresh, "frontend-refresh", 0,
		"frontend: background cache refresher interval for recently read surveys (0 disables; reads then revalidate inline on expiry)")
	fs.IntVar(&c.journalRetain, "journal-retain", 65536,
		"node: per-shard append-journal retained-entry bound; lagging followers past it rebuild from store scans (0 retains until every registered follower acks)")
	fs.DurationVar(&c.followerAckTTL, "follower-ack-ttl", 10*time.Minute,
		"node: drop a follower's journal-truncation ack after this long without a tail from it, so dead followers stop pinning retention (0 keeps acks forever)")
	fs.StringVar(&c.manifest, "manifest", "",
		"path of the shared placement manifest (versioned JSON: response shard -> primary + replicas with per-shard epochs, budget shard -> host); node and frontend roles take all placement from it and watch it, so promotions re-route frontends, re-source replicas and fence demoted nodes without restarts")
	fs.DurationVar(&c.manifestPoll, "manifest-poll", time.Second, "placement manifest watch interval")
	fs.StringVar(&c.advertise, "advertise", "",
		"node: this process's base URL exactly as the manifest names it (required); also the follower ID its sources account journal acks to")
	fs.DurationVar(&c.probeInterval, "probe-interval", 500*time.Millisecond,
		"frontend: health-probe interval of the per-node failure detector")
	fs.DurationVar(&c.promoteAfter, "promote-after", 0,
		"node: promote a following shard automatically after its tail has been failing this long (0 promotes only on the operator signal or the manifest)")
	fs.StringVar(&c.budgetDir, "budget-dir", "",
		"directory for the durable per-worker privacy-budget ledgers (empty keeps them in memory)")
	fs.Float64Var(&c.budgetCap, "budget-cap-epsilon", 10,
		"per-worker privacy-budget ceiling, quoted as epsilon at -budget-delta")
	fs.Float64Var(&c.budgetDelta, "budget-delta", 1e-6,
		"delta the budget epsilon conversion is quoted at")
	fs.StringVar(&c.budgetEnforce, "budget-enforce", "off",
		"privacy-budget mode: off (no accounting), log (account and log over-cap workers) or enforce (reject over-cap submits with 429)")
	fs.IntVar(&c.submitInflight, "submit-inflight", 0,
		"admission control: submits served concurrently before arrivals queue (0 disables admission control)")
	fs.IntVar(&c.submitQueue, "submit-queue", 0,
		"admission control: submits queued behind -submit-inflight before arrivals shed with 429 + Retry-After (setting it without -submit-inflight defaults inflight to 4x GOMAXPROCS)")
	fs.Float64Var(&c.rateLimitRPS, "rate-limit-rps", 0,
		"per-requester submit rate ceiling in responses/sec; over-rate submits get 429 + Retry-After (0 disables)")
	fs.IntVar(&c.rateLimitBurst, "rate-limit-burst", 0,
		"per-requester burst allowance above -rate-limit-rps (0 defaults to the rate, minimum 1)")
	err := fs.Parse(args)
	if c.clusterToken == "" {
		c.clusterToken = c.token
	}
	return c, err
}

func main() {
	c, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a bad flag
	logger := log.New(os.Stderr, "loki-server ", log.LstdFlags)
	if err := run(c, logger); err != nil {
		logger.Fatal(err)
	}
}

// openStore resolves the -store flag: "mem", "ingest:DIR", or a
// single-log file path. New files are written in the binary block
// format; an existing file keeps whatever format it sniffs as.
func openStore(storePath string, icfg ingest.Config) (store.Store, error) {
	switch {
	case storePath == "mem":
		return store.NewMem(), nil
	case strings.HasPrefix(storePath, "ingest:"):
		return ingest.Open(strings.TrimPrefix(storePath, "ingest:"), icfg)
	default:
		return store.OpenFile(storePath)
	}
}

// shardStore rewrites the -store flag for one global shard of a node:
// durable backends get a per-shard location derived from the configured
// one (mem stays mem).
func shardStore(storePath string, globalShard int) string {
	switch {
	case storePath == "mem":
		return storePath
	case strings.HasPrefix(storePath, "ingest:"):
		return fmt.Sprintf("%s/gshard-%03d", storePath, globalShard)
	default:
		return fmt.Sprintf("%s.gshard-%03d", storePath, globalShard)
	}
}

// hostedShards is what a node opens: every shard the manifest names it
// primary or replica for, plus every shard whose store is already on its
// disk — a demoted primary restarting reopens its old shard, and
// ApplyManifest fences it.
func hostedShards(m *placement.Manifest, self, storePath string) []int {
	var owned []int
	for g := range m.Shards {
		sp := m.Placement(g)
		_, err := os.Stat(strings.TrimPrefix(shardStore(storePath, g), "ingest:"))
		if sp.Primary == self || slices.Contains(sp.Replicas, self) || (storePath != "mem" && err == nil) {
			owned = append(owned, g)
		}
	}
	return owned
}

// emptyShardStore opens an empty store for one global shard of a node,
// removing whatever the shard's store held on disk: the store a
// following shard resyncs into. The old store must be closed.
func emptyShardStore(storePath string, icfg ingest.Config, globalShard int) (store.Store, error) {
	path := shardStore(storePath, globalShard)
	if path != "mem" {
		if err := os.RemoveAll(strings.TrimPrefix(path, "ingest:")); err != nil {
			return nil, err
		}
	}
	return openStore(path, icfg)
}

// openCheckpoints opens the checkpoint log when enabled, logging its
// replayed state.
func openCheckpoints(dir string, every time.Duration, logger *log.Logger) (*checkpoint.Log, error) {
	if dir == "" {
		return nil, nil
	}
	ckpt, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	logger.Printf("checkpointing live aggregates to %s every %v (%d surveys on record)", dir, every, ckpt.Len())
	if n := ckpt.CorruptRecords(); n > 0 {
		logger.Printf("checkpoint log had %d unreadable records (skipped); affected shards rebuild from the store", n)
	}
	return ckpt, nil
}

// publisher is the seeding surface both a bare store and a shard router
// provide.
type publisher interface {
	Publish(*survey.Survey) (store.Outcome, error)
}

// budgetWhere names the ledger's home for startup logs.
func budgetWhere(dir string) string {
	if dir == "" {
		return "in memory"
	}
	return dir
}

// assemble builds the role c names — stores, ledgers, routers, manifest
// watchers — without listening. It returns the role's handler and a
// function closing everything it opened, newest first; on error it has
// closed that already.
func assemble(c config, logger *log.Logger) (handler http.Handler, closer func(), err error) {
	var closers []func() error
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil {
				logger.Printf("shutdown: %v", err)
			}
		}
		closers = nil
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	watch := func(fn func(*placement.Manifest)) (*placement.Watcher, error) {
		w, err := placement.Watch(c.manifest, c.manifestPoll, fn)
		if err != nil {
			return nil, fmt.Errorf("placement manifest %s: %w", c.manifest, err)
		}
		closers = append(closers, func() error { w.Close(); return nil })
		logger.Printf("watching placement manifest %s every %v", c.manifest, c.manifestPoll)
		return w, nil
	}
	var m *placement.Manifest
	if c.role == "node" || c.role == "frontend" {
		// The only placement source of both roles.
		if c.manifest == "" {
			return nil, nil, fmt.Errorf("%s needs -manifest", c.role)
		}
		if m, err = placement.Load(c.manifest); err != nil {
			return nil, nil, err
		}
	}

	switch c.role {
	case "standalone":
		st, err := openStore(c.storePath, c.icfg)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, st.Close)
		if c.seedCatalog {
			if err := seedStore(st, logger); err != nil {
				return nil, nil, err
			}
		}
		ckpt, err := openCheckpoints(c.checkpointDir, c.checkpointEvery, logger)
		if err != nil {
			return nil, nil, err
		}
		if ckpt != nil {
			closers = append(closers, ckpt.Close)
		}
		scfg := c.serverConfig(logger)
		scfg.Store, scfg.Checkpoints, scfg.CheckpointInterval = st, ckpt, c.checkpointEvery
		if c.budgetEnabled() {
			set, err := budget.NewSet(budget.SetOptions{
				Shards: 1, Dir: c.budgetDir, Config: c.budgetConfig(),
			})
			if err != nil {
				return nil, nil, err
			}
			closers = append(closers, set.Close)
			scfg.Budget = set
			scfg.BudgetEnforce = c.budgetEnforce
			logger.Printf("privacy budget %s: cap ε=%g at δ=%g (ledger %s)",
				c.budgetEnforce, c.budgetCap, c.budgetDelta, budgetWhere(c.budgetDir))
		}
		srv, err := server.New(scfg)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, srv.Close)
		handler = srv

	case "node":
		if c.advertise == "" {
			return nil, nil, errors.New("node needs -advertise (its URL as the manifest names it)")
		}
		owned := hostedShards(m, c.advertise, c.storePath)
		if len(owned) == 0 {
			return nil, nil, fmt.Errorf("node %s is primary for no shard in %s, a replica of none, and has no shard store on disk", c.advertise, c.manifest)
		}
		var stores []store.Store
		closers = append(closers, func() error {
			var errs []error
			for _, st := range stores {
				errs = append(errs, st.Close())
			}
			return errors.Join(errs...)
		})
		for _, g := range owned {
			st, err := openStore(shardStore(c.storePath, g), c.icfg)
			if err != nil {
				return nil, nil, err
			}
			stores = append(stores, st)
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{
			GlobalIDs: owned, Journal: true, JournalRetain: c.journalRetain,
			FollowerAckTTL: c.followerAckTTL,
		})
		if err != nil {
			return nil, nil, err
		}
		// The router owns the stores from here: a following shard's
		// resync replaces its store, and the router closes whichever is
		// current.
		stores = nil
		closers = append(closers, local.Close)
		if c.seedCatalog {
			if err := seedStore(local, logger); err != nil {
				return nil, nil, err
			}
		}
		ckpt, err := openCheckpoints(c.checkpointDir, c.checkpointEvery, logger)
		if err != nil {
			return nil, nil, err
		}
		if ckpt != nil {
			closers = append(closers, ckpt.Close)
		}
		scfg := c.serverConfig(logger)
		scfg.Router, scfg.Checkpoints, scfg.CheckpointInterval = local, ckpt, c.checkpointEvery
		scfg.Role, scfg.ClusterShards = "node", len(m.Shards)
		var bset *budget.Set
		if c.budgetEnabled() {
			hosted := m.BudgetShards(c.advertise)
			bset, err = budget.NewSet(budget.SetOptions{
				Shards: len(m.Budget), GlobalIDs: hosted, Dir: c.budgetDir, Config: c.budgetConfig(),
			})
			if err != nil {
				return nil, nil, err
			}
			closers = append(closers, bset.Close)
			// The node's own public API meters through its hosted subset;
			// enforcing, it refuses (421) workers whose accounts live on
			// another node rather than admit them unmetered — they submit
			// through a frontend.
			scfg.Budget = bset
			scfg.BudgetEnforce = c.budgetEnforce
			logger.Printf("privacy budget %s: hosting budget shards %v of %d, cap ε=%g at δ=%g (ledger %s)",
				c.budgetEnforce, hosted, len(m.Budget), c.budgetCap, c.budgetDelta, budgetWhere(c.budgetDir))
		}
		srv, err := server.New(scfg)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, srv.Close)
		node, err := server.NewNode(srv, len(m.Shards))
		if err != nil {
			return nil, nil, err
		}
		if bset != nil {
			node.HostBudget(bset)
		}
		rpc, err := shardrpc.NewHandler(node, c.clusterToken)
		if err != nil {
			return nil, nil, err
		}
		node.Follow(server.FollowOptions{
			PollInterval: c.pollInterval, PromoteAfter: c.promoteAfter,
			ManifestPath: c.manifest, ClusterToken: c.clusterToken,
			OpenStore: func(g int) (store.Store, error) { return emptyShardStore(c.storePath, c.icfg, g) },
		})
		closers = append(closers, node.Close)
		// The first manifest sets every shard's role before the node
		// serves; until then no shard follows.
		if _, err := watch(func(m *placement.Manifest) { node.ApplyManifest(m, c.advertise) }); err != nil {
			return nil, nil, err
		}
		logger.Printf("node %s hosts global shards %v of %d (replicas poll every %v, auto-promote after %v)",
			c.advertise, owned, len(m.Shards), c.pollInterval, c.promoteAfter)
		mux := http.NewServeMux()
		mux.Handle("/shardrpc/", rpc)
		mux.Handle("/", srv)
		handler = mux

	case "frontend":
		// Routing by the manifest — shard -> primary + replicas with
		// per-shard epochs, reloaded on file change (a promotion re-routes
		// without a restart) — plus the health-probing failure detector
		// that fails reads over to replicas.
		remote, err := shardrpc.NewRemoteFromManifest(m, c.clusterToken, nil)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, remote.Close)
		w, err := watch(func(m *placement.Manifest) {
			if err := remote.ApplyManifest(m); err != nil {
				logger.Printf("placement manifest reload: %v", err)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		// A fenced write means a newer manifest exists somewhere: re-poll
		// immediately instead of waiting out the interval.
		remote.OnFenced(w.Poll)
		remote.EnableFailover(shardrpc.FailoverOptions{ProbeInterval: c.probeInterval})
		if c.seedCatalog {
			if err := seedStore(remote, logger); err != nil {
				return nil, nil, err
			}
		}
		scfg := c.serverConfig(logger)
		scfg.Router, scfg.Role = remote, "frontend"
		scfg.FrontendCacheTTL, scfg.FrontendRefresh = c.cacheTTL, c.cacheRefresh
		if c.budgetEnforce != "off" {
			// Charge where the manifest's budget rows put the ledgers, and
			// fuse a charge into the submit RPC when its row names the
			// response shard's primary; the charger covers the rest (and
			// refunds, peeks, stats).
			charger, err := remote.Charger(c.budgetConfig())
			if err != nil {
				return nil, nil, err
			}
			if err := remote.EnablePiggybackCharges(len(m.Budget)); err != nil {
				return nil, nil, err
			}
			scfg.Budget = charger
			scfg.BudgetEnforce = c.budgetEnforce
			logger.Printf("privacy budget %s: charging %d budget shards, cap ε=%g at δ=%g",
				c.budgetEnforce, len(m.Budget), c.budgetCap, c.budgetDelta)
		}
		srv, err := server.New(scfg)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, srv.Close)
		if c.cacheTTL < 0 {
			logger.Printf("frontend routing %d shards across %d nodes (partial cache revalidated on every read)", len(m.Shards), len(m.Nodes()))
		} else {
			logger.Printf("frontend routing %d shards across %d nodes (partial cache TTL %v, refresh %v)",
				len(m.Shards), len(m.Nodes()), c.cacheTTL, c.cacheRefresh)
		}
		handler = srv

	case "replica":
		return nil, nil, errors.New(`unknown role "replica": run a follower as -role node, listed among the shard's replicas in -manifest`)

	default:
		return nil, nil, fmt.Errorf("unknown role %q (standalone, node, frontend)", c.role)
	}
	return handler, closeAll, nil
}

// run assembles the role, serves it on c.addr until SIGINT/SIGTERM and
// closes it.
func run(c config, logger *log.Logger) error {
	handler, closeAll, err := assemble(c, logger)
	if err != nil {
		return err
	}
	defer closeAll()
	httpSrv := &http.Server{
		Addr:              c.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%s)", c.addr, c.role)
		errCh <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		logger.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}

// seedStore publishes the paper's survey catalog through whatever
// publish surface the role has: a bare store, a local shard set, or a
// frontend's remote router. A survey a replayed durable store already
// holds is unchanged; one it holds under another definition (a
// republish through the API) is replaced by the catalog's.
func seedStore(dst publisher, logger *log.Logger) error {
	lecturers := []string{"Dr. Ada", "Dr. Babbage", "Dr. Curie", "Dr. Dijkstra"}
	catalog := append(survey.ProfilingSurveys(),
		survey.Health(), survey.Awareness(), survey.Lecturers(lecturers))
	for _, sv := range catalog {
		o, err := dst.Publish(sv)
		switch {
		case err != nil:
			return err
		case o == store.Created:
			logger.Printf("published survey %q (%d questions)", sv.ID, len(sv.Questions))
		case o == store.Replaced:
			logger.Printf("republished survey %q: the catalog's definition replaced the stored one", sv.ID)
		}
	}
	return nil
}
