package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"loki/internal/blockio"
	"loki/internal/budget"
	"loki/internal/checkpoint"
	"loki/internal/client"
	"loki/internal/core"
	"loki/internal/ingest"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Fixed topology parameters. They are constants, not flags: two runs
// are comparable only if these are the same, so there is one value.
const (
	benchToken    = "benchmark-token"
	clusterNodes  = 2
	clusterShards = 8
	// journalRetain is loki-server's -journal-retain default.
	journalRetain = 65536
	// submitQueue/submitInflight turn the frontend's admission control
	// on, at bounds none of the workloads reaches: the gate is on the
	// path and sheds nothing.
	submitQueue    = 256
	submitInflight = 64
	// budgetCapEpsilon is a cap no generated worker reaches: what is
	// measured is the ledger's accounting, never a rejection.
	budgetCapEpsilon = 1e6
	budgetDelta      = 1e-6
	// standaloneSegmentBytes makes every ingest shard rotate and compact
	// several times inside one run, so the background work is in the
	// measurement rather than after it.
	standaloneSegmentBytes = 128 << 10
	checkpointInterval     = 2 * time.Second
)

// topology is one running system under test plus what the harness needs
// to drive it, read its counters and take it down.
type topology struct {
	// public is the handler respondents and requesters call in-process
	// (the frontend, or the standalone server), behind the tracing
	// decorator when the run is traced.
	public http.Handler
	// publicURL serves the same handler over a Unix socket for the batching
	// client pipelines.
	publicURL string
	// admin is the undecorated server, for GET /api/v1/admin/store.
	admin *server.Server

	dataDir string
	tracer  *tracer

	// Cluster parts (nil/empty on a standalone topology).
	remote  *shardrpc.Remote
	budgets []*budget.Set
	locals  []*shardset.Local
	// Standalone parts.
	ingest      *ingest.Sharded
	checkpoints *checkpoint.Log

	closers []func() error
}

// close takes the topology down in reverse build order and returns the
// first error.
func (tp *topology) close() error {
	var first error
	for i := len(tp.closers) - 1; i >= 0; i-- {
		if err := tp.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	tp.closers = nil
	if err := os.RemoveAll(tp.dataDir + ".sock"); err != nil && first == nil {
		first = err
	}
	return first
}

// serve starts an HTTP server for h on a Unix socket in a directory
// beside the data directory (so the socket is neither measured as data
// nor copied by the restart phase) and returns the base URL its clients
// name it by. Sockets rather than loopback TCP: the hop still crosses
// the kernel, and the run does not depend on the box having a network
// interface up, which a sandboxed checkout may not. The paths are as
// short as the data directory's, well under the 108 bytes a socket
// address holds.
func (tp *topology) serve(name string, h http.Handler) (string, error) {
	sockDir := tp.dataDir + ".sock"
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(sockDir, name)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", err // a socket file left by the topology's previous life
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	tp.closers = append(tp.closers, func() error {
		err := srv.Close() // closes the listener, which unlinks the socket
		<-done
		return err
	})
	return "http://" + name, nil
}

// socketTransport is a keep-alive transport that reaches whatever host a
// URL names at the Unix socket of that name beside the data directory,
// with enough idle connections that concurrent callers never churn
// sockets.
func (tp *topology) socketTransport() *http.Transport {
	sockDir := tp.dataDir + ".sock"
	var d net.Dialer
	return &http.Transport{
		DialContext: func(ctx context.Context, _, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, err
			}
			return d.DialContext(ctx, "unix", filepath.Join(sockDir, host))
		},
		MaxIdleConns: 512, MaxIdleConnsPerHost: 256, IdleConnTimeout: time.Minute,
	}
}

// buildCluster opens (or reopens) the cluster topology under dir: one
// frontend and clusterNodes nodes in one process, clusterShards global
// shards placed round-robin, each shard a store.File (binary codec,
// fsync before every ack) behind a journaling shardset.Local, each node
// hosting its slice of a durable budget.Set in enforce mode, the
// frontend charging through the submit RPC where placement allows, with
// admission control on and the partial cache at its default TTL.
// Frontend and nodes talk HTTP over Unix sockets. Reopening a populated dir
// is a cluster restart.
func buildCluster(dir string, t *tracer) (*topology, error) {
	tp := &topology{dataDir: dir, tracer: t}
	fail := func(err error) (*topology, error) {
		_ = tp.close()
		return nil, err
	}
	bcfg := budget.Config{CapEpsilon: budgetCapEpsilon, Delta: budgetDelta}
	owned := shardrpc.RoundRobinPlacement(clusterShards, clusterNodes)
	clients := make([]*shardrpc.Client, clusterNodes)
	for n := 0; n < clusterNodes; n++ {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node%d", n))
		if err := os.MkdirAll(filepath.Join(nodeDir, "shards"), 0o755); err != nil {
			return fail(err)
		}
		stores := make([]store.Store, len(owned[n]))
		for i, g := range owned[n] {
			path := filepath.Join(nodeDir, "shards", fmt.Sprintf("gshard-%03d.log", g))
			st, err := store.OpenFileWith(path, store.FileOptions{Sync: store.SyncAlways, Codec: blockio.CodecBinary})
			if err != nil {
				return fail(err)
			}
			stores[i] = st
			if t != nil {
				stores[i] = traceStore(t, st, spanStoreAppend, g)
			}
		}
		// The router owns the stores from here on and closes them.
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{
			GlobalIDs: owned[n], Journal: true, JournalRetain: journalRetain,
		})
		if err != nil {
			for _, st := range stores {
				st.Close()
			}
			return fail(err)
		}
		tp.closers = append(tp.closers, local.Close)
		tp.locals = append(tp.locals, local)
		set, err := budget.NewSet(budget.SetOptions{
			Shards: clusterShards, GlobalIDs: owned[n],
			Dir: filepath.Join(nodeDir, "budget"), Config: bcfg,
		})
		if err != nil {
			return fail(err)
		}
		tp.closers = append(tp.closers, set.Close)
		tp.budgets = append(tp.budgets, set)
		srv, err := server.New(server.Config{
			Router: local, Schedule: core.DefaultSchedule(), RequesterToken: benchToken,
			Role: "node", ClusterShards: clusterShards,
			Budget: set, BudgetEnforce: "enforce",
		})
		if err != nil {
			return fail(err)
		}
		tp.closers = append(tp.closers, srv.Close)
		node, err := server.NewNode(srv, clusterShards)
		if err != nil {
			return fail(err)
		}
		node.HostBudget(set)
		rpc, err := shardrpc.NewHandler(node, benchToken)
		if err != nil {
			return fail(err)
		}
		var nodeHandler http.Handler = rpc
		if t != nil {
			nodeHandler = traceNode(t, rpc)
		}
		url, err := tp.serve(fmt.Sprintf("node%d", n), nodeHandler)
		if err != nil {
			return fail(err)
		}
		var rt http.RoundTripper = tp.socketTransport()
		if t != nil {
			rt = traceRPCTransport(t, rt)
		}
		clients[n] = shardrpc.NewClient(url, benchToken, &http.Client{Transport: rt})
	}
	remote, err := shardrpc.NewRemoteRoundRobin(clients, clusterShards)
	if err != nil {
		return fail(err)
	}
	tp.closers = append(tp.closers, remote.Close)
	tp.remote = remote
	charger, err := shardrpc.NewRemoteCharger(clients, clusterShards, bcfg)
	if err != nil {
		return fail(err)
	}
	tp.closers = append(tp.closers, charger.Close)
	if err := remote.EnablePiggybackCharges(clusterShards); err != nil {
		return fail(err)
	}
	frontend, err := server.New(server.Config{
		Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: benchToken,
		Role: "frontend", Budget: charger, BudgetEnforce: "enforce",
		SubmitQueue: submitQueue, SubmitInflight: submitInflight,
	})
	if err != nil {
		return fail(err)
	}
	tp.closers = append(tp.closers, frontend.Close)
	tp.admin = frontend
	tp.public = frontend
	if t != nil {
		tp.public = traceFrontend(t, frontend)
	}
	if tp.publicURL, err = tp.serve("public", tp.public); err != nil {
		return fail(err)
	}
	return tp, nil
}

// buildStandalone opens (or reopens) the standalone topology under dir:
// one server over an ingest.Sharded store (8 WAL shards, small segments,
// other defaults) with the background checkpointer on and no budget.
func buildStandalone(dir string, t *tracer) (*topology, error) {
	tp := &topology{dataDir: dir, tracer: t}
	fail := func(err error) (*topology, error) {
		_ = tp.close()
		return nil, err
	}
	ing, err := ingest.Open(filepath.Join(dir, "ingest"), ingest.Config{
		Shards: clusterShards, SegmentBytes: standaloneSegmentBytes,
	})
	if err != nil {
		return fail(err)
	}
	tp.closers = append(tp.closers, ing.Close)
	tp.ingest = ing
	ck, err := checkpoint.OpenWith(filepath.Join(dir, "checkpoints"), checkpoint.Options{Codec: blockio.CodecBinary})
	if err != nil {
		return fail(err)
	}
	tp.closers = append(tp.closers, ck.Close)
	tp.checkpoints = ck
	var st store.Store = ing
	if t != nil {
		st = traceStore(t, ing, spanIngestAppend, -1)
	}
	srv, err := server.New(server.Config{
		Store: st, Schedule: core.DefaultSchedule(), RequesterToken: benchToken,
		Checkpoints: ck, CheckpointInterval: checkpointInterval,
	})
	if err != nil {
		return fail(err)
	}
	tp.closers = append(tp.closers, srv.Close)
	tp.admin = srv
	tp.public = srv
	if t != nil {
		tp.public = traceFrontend(t, srv)
	}
	if tp.publicURL, err = tp.serve("public", tp.public); err != nil {
		return fail(err)
	}
	return tp, nil
}

// publish stores the surveys through the topology's own publish path:
// the router broadcast on a cluster, the store on a standalone server.
func (tp *topology) publish(surveys []*survey.Survey) error {
	for _, sv := range surveys {
		var err error
		if tp.remote != nil {
			err = tp.remote.PutSurvey(sv)
		} else {
			err = tp.ingest.PutSurvey(sv)
		}
		if err != nil && !errors.Is(err, store.ErrExists) {
			return fmt.Errorf("publish %s: %w", sv.ID, err)
		}
	}
	return nil
}

// bulkPipelines is how many batching client pipelines carry bulk
// submits.
func bulkPipelines() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// newSubmitters starts the batching client pipelines against the
// topology's public socket, each with its own connection pool, behind
// the tracing transport when the run is traced.
func (tp *topology) newSubmitters(seed uint64) ([]*client.Submitter, error) {
	subs := make([]*client.Submitter, bulkPipelines())
	for i := range subs {
		var rt http.RoundTripper = tp.socketTransport()
		if tp.tracer != nil {
			rt = traceClientTransport(tp.tracer, rt)
		}
		c, err := client.New(client.Config{
			BaseURL: tp.publicURL, Schedule: core.DefaultSchedule(), Seed: seed + uint64(i),
			HTTPClient: &http.Client{Transport: rt, Timeout: 30 * time.Second},
		})
		if err != nil {
			for _, s := range subs[:i] {
				s.Close()
			}
			return nil, err
		}
		subs[i] = c.NewSubmitter(client.SubmitterConfig{
			MaxBatch: 64, MaxWait: 5 * time.Millisecond, MaxInflight: 2,
			MaxAttempts: 1, Seed: seed + uint64(i),
		})
	}
	return subs, nil
}
