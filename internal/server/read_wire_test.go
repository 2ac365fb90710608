package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/survey"
)

// The requester read wire — GET /api/v1/surveys/{id}/aggregate and
// /quality — pinned byte for byte: status, Content-Type and body, on a
// standalone server and on a frontend in every state its partial cache
// answers from (cold fill, hit, after a delta, node down, replica-served)
// plus the two refusals.
//
// testdata/read_wire/*.golden were written by the commit before a
// frontend memoized its rendered read bodies (b9516dd), from an export of
// it with this file copied in:
//
//	LOKI_FIXTURE_OUT=<repo>/internal/server/testdata/read_wire \
//	    go test -run TestWriteReadWireGoldens ./internal/server

// readWireShapes are the two read endpoints, by their path's last
// element, in readShape order.
var readWireShapes = []string{"aggregate", "quality"}

// readGet fetches one read endpoint; an empty token sends no
// Authorization header.
func readGet(t *testing.T, base, id, shape, token string) partialReply {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, base+"/api/v1/surveys/"+id+"/"+shape, nil, token)
	return partialReply{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: body}
}

// publishOK publishes sv through ts.
func publishOK(t *testing.T, ts *httptest.Server, sv *survey.Survey) {
	t.Helper()
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
}

// readWireScript drives every read state for one shape, in order, and
// hands each reply to pin under its case name.
func readWireScript(t *testing.T, shape string, pin func(name string, r partialReply)) {
	sv := clusterTestSurvey()

	// Standalone: one shard, folded in process.
	ts, _ := newTestServer(t)
	publishOK(t, ts, sv)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 30; i++ {
		submitOK(t, ts, randomResponse(sv, rng, i))
	}
	pin("standalone", readGet(t, ts.URL, sv.ID, shape, testToken))

	// A frontend over two killable nodes and four shards. The TTL is an
	// hour, so only a submit through the frontend moves its entry.
	const totalShards = 4
	nodes := newHANodes(t, 2, totalShards)
	fts, _, _ := newTestFrontend(t, []*shardrpc.Client{nodes[0].client, nodes[1].client}, totalShards, time.Hour, 0)
	publishOK(t, fts, sv)
	rng = rand.New(rand.NewSource(43))
	n := 0
	submit := func(k int) {
		for i := 0; i < k; i++ {
			submitOK(t, fts, randomResponse(sv, rng, n))
			n++
		}
	}
	submit(40)
	get := func() partialReply { return readGet(t, fts.URL, sv.ID, shape, testToken) }
	pin("frontend_cold_fill", get())
	pin("frontend_hit", get())
	submit(8)
	pin("frontend_delta", get())
	pin("frontend_unknown_survey", readGet(t, fts.URL, "ghost", shape, testToken))
	pin("frontend_no_token", readGet(t, fts.URL, sv.ID, shape, ""))

	// Node 1 (shards 1 and 3) dies. A submit to a shard node 0 owns
	// raises a read-your-writes floor, so the read revalidates, reaches
	// only node 0 and serves the dark shards from their warm parts.
	nodes[1].kill()
	for ; ; n++ {
		r := randomResponse(sv, rng, n)
		if s := shardset.Route(sv.ID, r.WorkerID, totalShards); s == 0 || s == 2 {
			submitOK(t, fts, r)
			n++
			break
		}
	}
	pin("frontend_node_down", get())

	// A frontend over one node and its replica, every read revalidating:
	// with the node down, the replica answers for both shards.
	rnodes := newHANodes(t, 1, 2)
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	rep, repURL := newHAReplica(t, rnodes[0], manifestPath, 0)
	m := haManifest(t, manifestPath, 2, rnodes[0].url, rep, repURL)
	rnodes[0].node.ApplyManifest(m, rnodes[0].url)
	remote, err := shardrpc.NewRemoteFromManifest(m, testToken, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	rsrv, err := New(Config{
		Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "frontend",
		FrontendCacheTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Close() })
	rts := httptest.NewServer(rsrv)
	t.Cleanup(rts.Close)
	publishOK(t, rts, sv)
	rng = rand.New(rand.NewSource(47))
	for i := 0; i < 30; i++ {
		submitOK(t, rts, randomResponse(sv, rng, i))
	}
	rep.SyncOnce()
	if r := readGet(t, rts.URL, sv.ID, shape, testToken); r.status != http.StatusOK {
		t.Fatalf("warm read: %v", r)
	}
	rnodes[0].kill()
	pin("frontend_replica", readGet(t, rts.URL, sv.ID, shape, testToken))
}

// eachReadWire runs the script once per shape; a case's golden is
// read_wire/<case>.<shape>.golden.
func eachReadWire(t *testing.T, fn func(t *testing.T, path, got string)) {
	for _, shape := range readWireShapes {
		t.Run(shape, func(t *testing.T) {
			readWireScript(t, shape, func(name string, r partialReply) {
				fn(t, filepath.Join("read_wire", name+"."+shape+".golden"), r.String())
			})
		})
	}
}

// TestWriteReadWireGoldens is the script that records the goldens; it
// does nothing unless LOKI_FIXTURE_OUT names the directory to write.
func TestWriteReadWireGoldens(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("LOKI_FIXTURE_OUT not set")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	eachReadWire(t, func(t *testing.T, path, got string) {
		if err := os.WriteFile(filepath.Join(out, filepath.Base(path)), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadWireGolden holds both read endpoints to the goldens.
func TestReadWireGolden(t *testing.T) {
	eachReadWire(t, func(t *testing.T, path, got string) {
		want, err := os.ReadFile(filepath.Join("testdata", path))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: read wire reply changed\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
		}
	})
}
