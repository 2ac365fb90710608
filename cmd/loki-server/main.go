// Command loki-server runs the Loki backend: the HTTP/JSON API that
// serves surveys, accepts at-source-obfuscated responses, and exposes
// noise-aware aggregates to requesters.
//
// Usage:
//
//	loki-server -addr :8080 -token secret -store loki.jsonl -seed-catalog
//	loki-server -store ingest:/var/lib/loki -shards 8 -commit-interval 1ms
//
// Cluster roles (-role):
//
//	standalone  (default) one process owns everything — the classic
//	            deployment; responses live on one logical shard.
//	node        owns a subset of the cluster's shard space and serves
//	            the internal shardrpc transport (submit-batch, cursor
//	            scans, partial-aggregate snapshots, WAL-tail shipping)
//	            alongside the public API. Configure with -cluster-shards
//	            (global shard count), -cluster-nodes (cluster size) and
//	            -node-index (this node's slot); the node owns every
//	            shard s with s % cluster-nodes == node-index. Each owned
//	            shard gets its own store (subdirectory for durable
//	            backends).
//	frontend    owns no storage: routes submissions to the nodes in
//	            -peers by the cluster-wide placement hash and answers
//	            reads from a per-survey partial cache (keyed by the
//	            per-shard cursor vector, revalidated with conditional
//	            delta RPCs within -frontend-cache-ttl, invalidated for
//	            read-your-writes by submits through this frontend;
//	            -frontend-refresh keeps hot surveys warm in the
//	            background). A negative -frontend-cache-ttl
//	            revalidates on every read.
//	replica     tails the node at -follow via WAL shipping and serves
//	            the read-only half of the public API with a staleness
//	            cursor on the admin surface. Submits/publishes get 403.
//	            Also serves shardrpc, so frontends can fail reads over
//	            to it, and can be promoted to a shard's writable
//	            primary (POST /api/v1/admin/promote/{shard}, or
//	            automatically after -promote-after of the primary being
//	            unreachable).
//
// High availability (-manifest): cluster roles can share a versioned
// placement manifest (JSON: shard -> primary + replicas, each shard
// with a fencing epoch) instead of positional -peers. Every role
// watches the file (-manifest-poll): frontends route by it, probe node
// health (-probe-interval) and fail reads over to replicas when a
// primary dies (writes to the failed shard answer 503 + Retry-After
// until promotion); a promotion bumps the shard's epoch in the
// manifest, which re-routes every frontend and fences the old
// primary's writes with 412 when it returns. -advertise tells a node
// or replica which manifest entry is itself.
//
// With -store mem the server keeps everything in memory; with -store
// ingest:DIR it opens the sharded segmented-WAL ingest store rooted at
// DIR (tuned by -shards, -commit-interval and -segment-bytes); otherwise
// the given JSON-lines file is opened (and replayed) as the durable
// store. -seed-catalog publishes the paper's survey catalog on startup
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
// the ledger in process; cluster nodes host the budget shards their
// slot owns (durable under -budget-dir) and frontends charge through
// them over shardrpc, so one worker's spend is enforced across every
// frontend. Set the budget flags identically on node and frontend
// roles — the shard count and placement must agree.
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
	"strings"
	"syscall"
	"time"

	"loki/internal/blockio"
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

// clusterFlags carries the -role wiring.
type clusterFlags struct {
	role           string
	peers          string // frontend: comma-separated node base URLs
	follow         string // replica: node base URL
	clusterShards  int    // node/frontend: global shard count
	clusterNodes   int    // node: cluster size (for ownership)
	nodeIndex      int    // node: this node's slot
	clusterToken   string // shardrpc bearer token (defaults to -token)
	pollInterval   time.Duration
	cacheTTL       time.Duration // frontend: partial cache staleness bound
	cacheRefresh   time.Duration // frontend: background refresher interval
	journalRetain  int           // node: journal retained-entry bound
	followerID     string        // replica: stable follower id for truncation acks
	followerAckTTL time.Duration // node: expire silent follower acks after this long

	manifest      string        // all cluster roles: shared placement manifest path
	manifestPoll  time.Duration // manifest watch interval
	advertise     string        // node/replica: this process's base URL in the manifest
	probeInterval time.Duration // frontend: health-probe interval of the failure detector
	promoteAfter  time.Duration // replica: auto-promote after the tail has failed this long (0 = operator only)

	budgetDir     string  // node/standalone: budget WAL directory (empty = in-memory)
	budgetCap     float64 // epsilon ceiling per worker
	budgetDelta   float64 // delta the epsilon conversion is quoted at
	budgetEnforce string  // off, log or enforce

	submitInflight int     // admission: concurrent submits past which arrivals queue (0 = off)
	submitQueue    int     // admission: queued submits past which arrivals shed with 429
	rateLimitRPS   float64 // per-requester submit rate ceiling (0 = off)
	rateLimitBurst int     // per-requester burst above the sustained rate
}

// admission threads the overload knobs into a server config; zero
// values leave the config untouched (default-off paths stay identical).
func (cf *clusterFlags) admission(scfg *server.Config) {
	scfg.SubmitInflight = cf.submitInflight
	scfg.SubmitQueue = cf.submitQueue
	scfg.RateLimitRPS = cf.rateLimitRPS
	scfg.RateLimitBurst = cf.rateLimitBurst
}

// budgetEnabled reports whether any budget accounting is configured:
// an enforcement mode past off, or a durable ledger directory (which
// hosts accounts even when this process does not enforce, so that
// frontends that do can charge through it).
func (cf *clusterFlags) budgetEnabled() bool {
	return cf.budgetEnforce != "off" || cf.budgetDir != ""
}

func (cf *clusterFlags) budgetConfig() budget.Config {
	return budget.Config{CapEpsilon: cf.budgetCap, Delta: cf.budgetDelta}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storePath := flag.String("store", "mem", `persistence: "mem", "ingest:DIR" or a JSON-lines file path`)
	token := flag.String("token", "requester-secret", "requester bearer token")
	seedCatalog := flag.Bool("seed-catalog", false, "publish the paper's survey catalog on startup")
	shards := flag.Int("shards", 8, "ingest store: shard label recorded at first open and required to match on reopen; every value shares one WAL and one fsync stream")
	commitEvery := flag.Duration("commit-interval", 0, "ingest store: group-commit window (0 = commit as soon as the committer is free)")
	segmentBytes := flag.Int64("segment-bytes", 16<<20, "ingest store: WAL segment rotation threshold")
	idleCompact := flag.Duration("idle-compact", time.Minute, "ingest store: compact the WAL tail after this long without commits (negative disables)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for durable live-aggregate checkpoints (empty disables; restart catch-up then rescans whole backlogs)")
	checkpointEvery := flag.Duration("checkpoint-interval", 15*time.Second, "background checkpointer flush period")
	var cf clusterFlags
	flag.StringVar(&cf.role, "role", "standalone", "deployment role: standalone, node, frontend or replica")
	flag.StringVar(&cf.peers, "peers", "", "frontend: comma-separated node base URLs (http://host:port), in node-index order")
	flag.StringVar(&cf.follow, "follow", "", "replica: base URL of the node to tail")
	flag.IntVar(&cf.clusterShards, "cluster-shards", 8, "node/frontend: global shard count (fixed for the cluster's lifetime)")
	flag.IntVar(&cf.clusterNodes, "cluster-nodes", 1, "node: number of nodes in the cluster")
	flag.IntVar(&cf.nodeIndex, "node-index", 0, "node: this node's slot in [0, cluster-nodes)")
	flag.StringVar(&cf.clusterToken, "cluster-token", "", "bearer token for the internal shardrpc transport (defaults to -token)")
	flag.DurationVar(&cf.pollInterval, "replica-poll", 500*time.Millisecond, "replica: journal tail poll interval")
	flag.DurationVar(&cf.cacheTTL, "frontend-cache-ttl", 250*time.Millisecond,
		"frontend: partial cache staleness bound — reads within it are served from cache with no node RPCs (negative revalidates on every read)")
	flag.DurationVar(&cf.cacheRefresh, "frontend-refresh", 0,
		"frontend: background cache refresher interval for recently read surveys (0 disables; reads then revalidate inline on expiry)")
	flag.IntVar(&cf.journalRetain, "journal-retain", 65536,
		"node: per-shard append-journal retained-entry bound; lagging replicas past it rebuild from store scans (0 retains until every registered follower acks)")
	flag.StringVar(&cf.followerID, "follower-id", "",
		"replica: stable follower id for journal-truncation acks (defaults to a process-scoped id)")
	flag.DurationVar(&cf.followerAckTTL, "follower-ack-ttl", 10*time.Minute,
		"node: drop a replica's journal-truncation ack after this long without a tail from it, so dead replicas stop pinning retention (0 keeps acks forever)")
	flag.StringVar(&cf.manifest, "manifest", "",
		"path of the shared placement manifest (versioned JSON mapping shard -> primary + replicas with per-shard epochs); watched by every cluster role, so promotions re-route frontends and fence demoted nodes without restarts")
	flag.DurationVar(&cf.manifestPoll, "manifest-poll", time.Second, "placement manifest watch interval")
	flag.StringVar(&cf.advertise, "advertise", "",
		"node/replica: this process's base URL exactly as the manifest names it (required with -manifest on those roles)")
	flag.DurationVar(&cf.probeInterval, "probe-interval", 500*time.Millisecond,
		"frontend: health-probe interval of the per-node failure detector (with -manifest)")
	flag.DurationVar(&cf.promoteAfter, "promote-after", 0,
		"replica: promote a followed shard automatically after its tail has been failing this long (0 promotes only on the operator signal)")
	flag.StringVar(&cf.budgetDir, "budget-dir", "",
		"directory for the durable per-worker privacy-budget ledgers (empty keeps them in memory)")
	flag.Float64Var(&cf.budgetCap, "budget-cap-epsilon", 10,
		"per-worker privacy-budget ceiling, quoted as epsilon at -budget-delta")
	flag.Float64Var(&cf.budgetDelta, "budget-delta", 1e-6,
		"delta the budget epsilon conversion is quoted at")
	flag.StringVar(&cf.budgetEnforce, "budget-enforce", "off",
		"privacy-budget mode: off (no accounting), log (account and log over-cap workers) or enforce (reject over-cap submits with 429)")
	flag.IntVar(&cf.submitInflight, "submit-inflight", 0,
		"admission control: submits served concurrently before arrivals queue (0 disables admission control)")
	flag.IntVar(&cf.submitQueue, "submit-queue", 0,
		"admission control: submits queued behind -submit-inflight before arrivals shed with 429 + Retry-After (setting it without -submit-inflight defaults inflight to 4x GOMAXPROCS)")
	flag.Float64Var(&cf.rateLimitRPS, "rate-limit-rps", 0,
		"per-requester submit rate ceiling in responses/sec; over-rate submits get 429 + Retry-After (0 disables)")
	flag.IntVar(&cf.rateLimitBurst, "rate-limit-burst", 0,
		"per-requester burst allowance above -rate-limit-rps (0 defaults to the rate, minimum 1)")
	flag.Parse()

	if cf.clusterToken == "" {
		cf.clusterToken = *token
	}
	icfg := ingest.Config{Shards: *shards, CommitInterval: *commitEvery, SegmentBytes: *segmentBytes, IdleCompact: *idleCompact}
	logger := log.New(os.Stderr, "loki-server ", log.LstdFlags)
	if err := run(*addr, *storePath, *token, *seedCatalog, icfg, *checkpointDir, *checkpointEvery, cf, logger); err != nil {
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
		return store.OpenFileWith(storePath, store.FileOptions{Codec: blockio.CodecBinary})
	}
}

// openShardStore resolves the -store flag for one owned global shard of
// a node: durable backends get a per-shard location derived from the
// configured one.
func openShardStore(storePath string, icfg ingest.Config, globalShard int) (store.Store, error) {
	switch {
	case storePath == "mem":
		return store.NewMem(), nil
	case strings.HasPrefix(storePath, "ingest:"):
		dir := strings.TrimPrefix(storePath, "ingest:")
		return ingest.Open(fmt.Sprintf("%s/gshard-%03d", dir, globalShard), icfg)
	default:
		return store.OpenFileWith(fmt.Sprintf("%s.gshard-%03d", storePath, globalShard), store.FileOptions{Codec: blockio.CodecBinary})
	}
}

// ownedShards returns the global shards a node slot owns. The
// placement itself lives in shardrpc.RoundRobinPlacement — the same
// function the frontend routes by — so node ownership and frontend
// routing cannot drift apart.
func ownedShards(clusterShards, clusterNodes, nodeIndex int) ([]int, error) {
	if clusterShards < 1 {
		return nil, fmt.Errorf("cluster-shards %d < 1", clusterShards)
	}
	if clusterNodes < 1 || nodeIndex < 0 || nodeIndex >= clusterNodes {
		return nil, fmt.Errorf("node-index %d outside [0, %d)", nodeIndex, clusterNodes)
	}
	owned := shardrpc.RoundRobinPlacement(clusterShards, clusterNodes)[nodeIndex]
	if len(owned) == 0 {
		return nil, fmt.Errorf("node %d of %d owns no shards of %d", nodeIndex, clusterNodes, clusterShards)
	}
	return owned, nil
}

// openCheckpoints opens the checkpoint log when enabled, logging its
// replayed state.
func openCheckpoints(dir string, every time.Duration, logger *log.Logger) (*checkpoint.Log, error) {
	if dir == "" {
		return nil, nil
	}
	ckpt, err := checkpoint.OpenWith(dir, checkpoint.Options{Codec: blockio.CodecBinary})
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
	PutSurvey(*survey.Survey) error
}

// budgetWhere names the ledger's home for startup logs.
func budgetWhere(dir string) string {
	if dir == "" {
		return "in memory"
	}
	return dir
}

func run(addr, storePath, token string, seedCatalog bool, icfg ingest.Config, checkpointDir string, checkpointEvery time.Duration, cf clusterFlags, logger *log.Logger) error {
	var handler http.Handler
	var closers []func() error
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil {
				logger.Printf("shutdown: %v", err)
			}
		}
	}()

	switch cf.role {
	case "standalone":
		st, err := openStore(storePath, icfg)
		if err != nil {
			return err
		}
		closers = append(closers, st.Close)
		if seedCatalog {
			if err := seedStore(st, logger); err != nil {
				return err
			}
		}
		ckpt, err := openCheckpoints(checkpointDir, checkpointEvery, logger)
		if err != nil {
			return err
		}
		if ckpt != nil {
			closers = append(closers, ckpt.Close)
		}
		scfg := server.Config{
			Store:              st,
			Schedule:           core.DefaultSchedule(),
			RequesterToken:     token,
			Logger:             logger,
			Checkpoints:        ckpt,
			CheckpointInterval: checkpointEvery,
		}
		cf.admission(&scfg)
		if cf.budgetEnabled() {
			set, err := budget.NewSet(budget.SetOptions{
				Shards: 1, Dir: cf.budgetDir, Config: cf.budgetConfig(),
			})
			if err != nil {
				return err
			}
			closers = append(closers, set.Close)
			scfg.Budget = set
			scfg.BudgetEnforce = cf.budgetEnforce
			logger.Printf("privacy budget %s: cap ε=%g at δ=%g (ledger %s)",
				cf.budgetEnforce, cf.budgetCap, cf.budgetDelta, budgetWhere(cf.budgetDir))
		}
		srv, err := server.New(scfg)
		if err != nil {
			return err
		}
		closers = append(closers, srv.Close)
		handler = srv

	case "node":
		owned, err := ownedShards(cf.clusterShards, cf.clusterNodes, cf.nodeIndex)
		if err != nil {
			return err
		}
		stores := make([]store.Store, len(owned))
		for i, g := range owned {
			st, err := openShardStore(storePath, icfg, g)
			if err != nil {
				return err
			}
			closers = append(closers, st.Close)
			stores[i] = st
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{
			GlobalIDs: owned, Journal: true, JournalRetain: cf.journalRetain,
			FollowerAckTTL: cf.followerAckTTL,
		})
		if err != nil {
			return err
		}
		if seedCatalog {
			if err := seedStore(local, logger); err != nil {
				return err
			}
		}
		ckpt, err := openCheckpoints(checkpointDir, checkpointEvery, logger)
		if err != nil {
			return err
		}
		if ckpt != nil {
			closers = append(closers, ckpt.Close)
		}
		scfg := server.Config{
			Router:             local,
			Schedule:           core.DefaultSchedule(),
			RequesterToken:     token,
			Logger:             logger,
			Checkpoints:        ckpt,
			CheckpointInterval: checkpointEvery,
			Role:               "node",
			ClusterShards:      cf.clusterShards,
		}
		cf.admission(&scfg)
		var bset *budget.Set
		if cf.budgetEnabled() {
			bset, err = budget.NewSet(budget.SetOptions{
				Shards: cf.clusterShards, GlobalIDs: owned, Dir: cf.budgetDir, Config: cf.budgetConfig(),
			})
			if err != nil {
				return err
			}
			closers = append(closers, bset.Close)
			// The node's own public API meters through its hosted subset;
			// enforcing, it refuses (421) workers whose accounts live on
			// another node rather than admit them unmetered — they submit
			// through a frontend.
			scfg.Budget = bset
			scfg.BudgetEnforce = cf.budgetEnforce
			logger.Printf("privacy budget %s: hosting budget shards %v, cap ε=%g at δ=%g (ledger %s)",
				cf.budgetEnforce, owned, cf.budgetCap, cf.budgetDelta, budgetWhere(cf.budgetDir))
		}
		srv, err := server.New(scfg)
		if err != nil {
			return err
		}
		closers = append(closers, srv.Close)
		node, err := server.NewNode(srv, cf.clusterShards)
		if err != nil {
			return err
		}
		if bset != nil {
			node.HostBudget(bset)
		}
		rpc, err := shardrpc.NewHandler(node, cf.clusterToken)
		if err != nil {
			return err
		}
		if cf.manifest != "" {
			if cf.advertise == "" {
				return errors.New("node with -manifest needs -advertise (its URL as the manifest names it)")
			}
			w, err := placement.Watch(cf.manifest, cf.manifestPoll, func(m *placement.Manifest) {
				node.ApplyManifest(m, cf.advertise)
			})
			if err != nil {
				return fmt.Errorf("placement manifest %s: %w", cf.manifest, err)
			}
			closers = append(closers, func() error { w.Close(); return nil })
			logger.Printf("watching placement manifest %s every %v (advertised as %s)", cf.manifest, cf.manifestPoll, cf.advertise)
		}
		logger.Printf("node %d/%d owns global shards %v", cf.nodeIndex, cf.clusterNodes, owned)
		mux := http.NewServeMux()
		mux.Handle("/shardrpc/", rpc)
		mux.Handle("/", srv)
		handler = mux

	case "frontend":
		if cf.peers == "" && cf.manifest == "" {
			return errors.New("frontend needs -peers or -manifest")
		}
		var remote *shardrpc.Remote
		var peerURLs []string
		if cf.manifest != "" {
			// Manifest-driven routing: shard -> primary + replicas with
			// per-shard epochs, reloaded on file change (a promotion
			// re-routes without a restart), plus the health-probing
			// failure detector that fails reads over to replicas.
			m, err := placement.Load(cf.manifest)
			if err != nil {
				return fmt.Errorf("placement manifest %s: %w", cf.manifest, err)
			}
			remote, err = shardrpc.NewRemoteFromManifest(m, cf.clusterToken, nil)
			if err != nil {
				return err
			}
			peerURLs = m.Nodes()
			w, err := placement.Watch(cf.manifest, cf.manifestPoll, func(m *placement.Manifest) {
				if err := remote.ApplyManifest(m); err != nil {
					logger.Printf("placement manifest reload: %v", err)
				}
			})
			if err != nil {
				return fmt.Errorf("placement manifest %s: %w", cf.manifest, err)
			}
			closers = append(closers, func() error { w.Close(); return nil })
			// A fenced write means a newer manifest exists somewhere:
			// re-poll immediately instead of waiting out the interval.
			remote.OnFenced(w.Poll)
			remote.EnableFailover(shardrpc.FailoverOptions{ProbeInterval: cf.probeInterval})
			closers = append(closers, remote.Close)
			logger.Printf("watching placement manifest %s every %v (probe interval %v)", cf.manifest, cf.manifestPoll, cf.probeInterval)
		} else {
			var clients []*shardrpc.Client
			for _, p := range strings.Split(cf.peers, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					continue
				}
				peerURLs = append(peerURLs, p)
				clients = append(clients, shardrpc.NewClient(p, cf.clusterToken, nil))
			}
			if len(clients) == 0 {
				return errors.New("frontend needs at least one peer")
			}
			rr, err := shardrpc.NewRemoteRoundRobin(clients, cf.clusterShards)
			if err != nil {
				return err
			}
			remote = rr
		}
		if seedCatalog {
			if err := seedStore(remote, logger); err != nil {
				return err
			}
		}
		scfg := server.Config{
			Router:           remote,
			Schedule:         core.DefaultSchedule(),
			RequesterToken:   token,
			Logger:           logger,
			Role:             "frontend",
			FrontendCacheTTL: cf.cacheTTL,
			FrontendRefresh:  cf.cacheRefresh,
		}
		cf.admission(&scfg)
		if cf.budgetEnforce != "off" {
			chargeClients := make([]*shardrpc.Client, len(peerURLs))
			for i, p := range peerURLs {
				chargeClients[i] = shardrpc.NewClient(p, cf.clusterToken, nil)
			}
			charger, err := shardrpc.NewRemoteCharger(chargeClients, cf.clusterShards, cf.budgetConfig())
			if err != nil {
				return err
			}
			// Fuse charges into the submit RPC for workers whose budget
			// shard is colocated with the response shard; the charger
			// covers the rest (and refunds, peeks, stats).
			if err := remote.EnablePiggybackCharges(cf.clusterShards); err != nil {
				return err
			}
			scfg.Budget = charger
			scfg.BudgetEnforce = cf.budgetEnforce
			logger.Printf("privacy budget %s: charging %d budget shards across %d nodes, cap ε=%g at δ=%g",
				cf.budgetEnforce, cf.clusterShards, len(peerURLs), cf.budgetCap, cf.budgetDelta)
		}
		srv, err := server.New(scfg)
		if err != nil {
			return err
		}
		closers = append(closers, srv.Close)
		if cf.cacheTTL < 0 {
			logger.Printf("frontend routing %d shards across %d nodes (partial cache revalidated on every read)", cf.clusterShards, len(peerURLs))
		} else {
			logger.Printf("frontend routing %d shards across %d nodes (partial cache TTL %v, refresh %v)",
				cf.clusterShards, len(peerURLs), cf.cacheTTL, cf.cacheRefresh)
		}
		handler = srv

	case "replica":
		if cf.follow == "" {
			return errors.New("replica needs -follow")
		}
		if cf.manifest != "" && cf.advertise == "" {
			return errors.New("replica with -manifest needs -advertise (its URL as the manifest names it)")
		}
		rep, err := server.NewReplica(server.ReplicaConfig{
			Client:         shardrpc.NewClient(cf.follow, cf.clusterToken, nil),
			Schedule:       core.DefaultSchedule(),
			RequesterToken: token,
			Logger:         logger,
			PollInterval:   cf.pollInterval,
			FollowerID:     cf.followerID,
			JournalRetain:  cf.journalRetain,
			ManifestPath:   cf.manifest,
			SelfURL:        cf.advertise,
			PromoteAfter:   cf.promoteAfter,
		})
		if err != nil {
			return err
		}
		closers = append(closers, rep.Close)
		// The replica serves shardrpc too: frontends fail reads over to
		// it while its node is down, and after a promotion it is the
		// shard's write path and its followers' tail source.
		rpc, err := shardrpc.NewHandler(rep, cf.clusterToken)
		if err != nil {
			return err
		}
		if cf.manifest != "" {
			w, err := placement.Watch(cf.manifest, cf.manifestPoll, rep.ApplyManifest)
			if err != nil {
				return fmt.Errorf("placement manifest %s: %w", cf.manifest, err)
			}
			closers = append(closers, func() error { w.Close(); return nil })
			logger.Printf("watching placement manifest %s every %v (advertised as %s)", cf.manifest, cf.manifestPoll, cf.advertise)
		}
		if cf.promoteAfter > 0 {
			logger.Printf("replica tailing %s every %v (auto-promote after %v unreachable)", cf.follow, cf.pollInterval, cf.promoteAfter)
		} else {
			logger.Printf("replica tailing %s every %v", cf.follow, cf.pollInterval)
		}
		mux := http.NewServeMux()
		mux.Handle("/shardrpc/", rpc)
		mux.Handle("/", rep)
		handler = mux

	default:
		return fmt.Errorf("unknown role %q (standalone, node, frontend, replica)", cf.role)
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%s)", addr, cf.role)
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

// seedStore publishes the paper's survey catalog, skipping surveys that
// a replayed durable store already holds. It seeds through whatever
// publish surface the role has: a bare store, a local shard set, or a
// frontend's remote router.
func seedStore(dst publisher, logger *log.Logger) error {
	lecturers := []string{"Dr. Ada", "Dr. Babbage", "Dr. Curie", "Dr. Dijkstra"}
	catalog := append(survey.ProfilingSurveys(),
		survey.Health(), survey.Awareness(), survey.Lecturers(lecturers))
	for _, sv := range catalog {
		if err := dst.PutSurvey(sv); err != nil {
			if errors.Is(err, store.ErrExists) {
				continue // already present in a replayed store
			}
			return err
		}
		logger.Printf("published survey %q (%d questions)", sv.ID, len(sv.Questions))
	}
	return nil
}
