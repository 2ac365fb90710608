package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"loki/internal/ingest"
	"loki/internal/placement"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// TestOpenStore resolves each -store syntax to the right backend.
func TestOpenStore(t *testing.T) {
	icfg := ingest.Config{Shards: 2}

	st, err := openStore("mem", icfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*store.Mem); !ok {
		t.Fatalf("mem resolved to %T", st)
	}
	st.Close()

	dir := t.TempDir()
	st, err = openStore("ingest:"+dir, icfg)
	if err != nil {
		t.Fatal(err)
	}
	ing, ok := st.(*ingest.Sharded)
	if !ok {
		t.Fatalf("ingest: resolved to %T", st)
	}
	if err := seedStore(ing, log.New(io.Discard, "", 0)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = openStore(filepath.Join(t.TempDir(), "loki.jsonl"), icfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*store.File); !ok {
		t.Fatalf("file path resolved to %T", st)
	}
	st.Close()
}

func TestSeedStore(t *testing.T) {
	st := store.NewMem()
	defer st.Close()
	logger := log.New(io.Discard, "", 0)
	if err := seedStore(st, logger); err != nil {
		t.Fatal(err)
	}
	surveys, err := st.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	if len(surveys) != 6 {
		t.Fatalf("catalog = %d surveys, want 6", len(surveys))
	}
	// Re-seeding a store that already has the catalog is a no-op, not an
	// error — the durable-store replay path.
	if err := seedStore(st, logger); err != nil {
		t.Fatalf("re-seed failed: %v", err)
	}
	surveys, _ = st.Surveys()
	if len(surveys) != 6 {
		t.Fatalf("re-seed duplicated surveys: %d", len(surveys))
	}
}

// reserve opens a loopback listener whose URL a manifest can name before
// the role that will serve it is assembled.
func reserve(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	t.Cleanup(ts.Close)
	return ts, "http://" + ts.Listener.Addr().String()
}

// assembleArgs builds a role from a command line, exactly as the binary
// would before it listens.
func assembleArgs(t *testing.T, args ...string) (http.Handler, func(), error) {
	t.Helper()
	c, err := parseFlags(flag.NewFlagSet("loki-server", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return assemble(c, log.New(io.Discard, "", 0))
}

// mustAssemble is assembleArgs for a role that must come up; it is
// closed when the test ends.
func mustAssemble(t *testing.T, args ...string) (http.Handler, func()) {
	t.Helper()
	h, closeAll, err := assembleArgs(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeAll)
	return h, closeAll
}

// submitFresh submits one fresh worker's awareness response per name
// through base and fails on anything but 201.
func submitFresh(t *testing.T, base string, workers ...string) {
	t.Helper()
	for _, w := range workers {
		body, _ := json.Marshal(survey.Response{
			SurveyID: survey.AwarenessID, WorkerID: w, PrivacyLevel: "medium", Obfuscated: true,
			Answers: []survey.Answer{survey.ChoiceAnswer("aware", 0), survey.ChoiceAnswer("participate", 1)},
		})
		resp, err := http.Post(base+"/api/v1/surveys/"+survey.AwarenessID+"/responses", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("worker %s: %d %s", w, resp.StatusCode, msg)
		}
	}
}

// shardRoles reads a role's health surface: global shard -> role@epoch.
func shardRoles(t *testing.T, h http.Handler) map[int]string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/admin/health", nil))
	var info server.HealthInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("health %d: %v", rec.Code, err)
	}
	out := map[int]string{}
	for _, sh := range info.Shards {
		out[sh.Shard] = fmt.Sprintf("%s@%d", sh.Role, sh.Epoch)
	}
	return out
}

// TestRolesFromOneManifest assembles a node, a second node the manifest
// lists as every shard's replica, and a frontend in-process from one
// manifest file, as the binary does, and submits through the frontend
// with the ledger enforcing. After the replica is promoted on shard 0, a
// frontend started from the rewritten file charges every fresh worker
// on the node (shard 0's writes go to the replica, which hosts no
// ledger). A restarted node reopens the shard it lost from disk, fenced,
// and a node the manifest names for nothing, with nothing on disk,
// refuses to start; so does the retired replica role, naming its
// replacement.
func TestRolesFromOneManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	nodeTS, nodeURL := reserve(t)
	repTS, repURL := reserve(t)
	// Three shards: on two, FNV's low bit ties a record's response shard
	// to its budget shard through the survey ID alone.
	m, err := placement.RoundRobin(3, []string{nodeURL})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Replicas = []string{repURL}
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	common := []string{"-token", "tok", "-cluster-token", "op", "-manifest", path, "-manifest-poll", "20ms"}
	nodeArgs := append([]string{"-role", "node", "-advertise", nodeURL, "-store", filepath.Join(dir, "node.log"),
		"-budget-enforce", "enforce"}, common...)
	var closeNode func()
	nodeTS.Config.Handler, closeNode = mustAssemble(t, nodeArgs...)
	nodeTS.Start()
	repTS.Config.Handler, _ = mustAssemble(t, append([]string{"-role", "node", "-advertise", repURL,
		"-store", filepath.Join(dir, "rep.log"), "-replica-poll", "20ms"}, common...)...)
	repTS.Start()
	frontendArgs := append([]string{"-role", "frontend", "-seed-catalog", "-budget-enforce", "enforce"}, common...)
	front, _ := mustAssemble(t, frontendArgs...)
	fts := httptest.NewServer(front)
	t.Cleanup(fts.Close)
	submitFresh(t, fts.URL, "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7")

	req, _ := http.NewRequest(http.MethodPost, repURL+"/api/v1/admin/promote/0", nil)
	req.Header.Set("Authorization", "Bearer op")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote = %d", resp.StatusCode)
	}
	if m, err = placement.Load(path); err != nil || m.Placement(0).Primary != repURL {
		t.Fatalf("manifest after the promotion: %+v, %v", m, err)
	}
	front2, _ := mustAssemble(t, frontendArgs...)
	fts2 := httptest.NewServer(front2)
	t.Cleanup(fts2.Close)
	var fresh []string
	onReplica := 0
	for i := 0; i < 16; i++ {
		fresh = append(fresh, fmt.Sprintf("after-%02d", i))
		if shardset.Route(survey.AwarenessID, fresh[i], len(m.Shards)) == 0 {
			onReplica++
		}
	}
	if onReplica == 0 || onReplica == len(fresh) {
		t.Fatalf("%d of %d fresh workers route to the promoted shard: one charge path untested", onReplica, len(fresh))
	}
	submitFresh(t, fts2.URL, fresh...)

	closeNode()
	restarted, _ := mustAssemble(t, nodeArgs...)
	if got, want := shardRoles(t, restarted), map[int]string{0: "fenced@2", 1: "primary@1", 2: "primary@1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted node's shards = %v, want %v", got, want)
	}

	_, _, err = assembleArgs(t, append([]string{"-role", "node", "-advertise", "http://127.0.0.1:1",
		"-store", filepath.Join(t.TempDir(), "fresh.log")}, common...)...)
	if err == nil || !strings.Contains(err.Error(), "primary for no shard") {
		t.Fatalf("a node placed nowhere, with nothing on disk, started: %v", err)
	}
	_, _, err = assembleArgs(t, append([]string{"-role", "replica"}, common...)...)
	if err == nil || !strings.Contains(err.Error(), "-role node") {
		t.Fatalf("-role replica = %v, want an error naming -role node", err)
	}
}

// get fetches path from base with the requester token: status and body.
func get(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+path, nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestPromotedFollowerKeepsWritesAcrossRestart: a follower stores into
// the node's own durable -store, so the writes it acknowledges after a
// promotion are on disk. Follow, promote, submit, close the follower,
// and reassemble it over the same directory with the current manifest:
// its per-shard counts and its merged aggregate are what it
// acknowledged.
func TestPromotedFollowerKeepsWritesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	nodeTS, nodeURL := reserve(t)
	repTS, repURL := reserve(t)
	m, err := placement.RoundRobin(2, []string{nodeURL})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Replicas = []string{repURL}
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	common := []string{"-token", "tok", "-cluster-token", "op", "-manifest", path, "-manifest-poll", "20ms", "-replica-poll", "20ms"}
	nodeTS.Config.Handler, _ = mustAssemble(t, append([]string{"-role", "node", "-advertise", nodeURL,
		"-store", "ingest:" + filepath.Join(dir, "node"), "-seed-catalog"}, common...)...)
	nodeTS.Start()
	repArgs := append([]string{"-role", "node", "-advertise", repURL, "-store", "ingest:" + filepath.Join(dir, "rep")}, common...)
	var closeRep func()
	repTS.Config.Handler, closeRep = mustAssemble(t, repArgs...)
	repTS.Start()
	submitFresh(t, nodeURL, "w0", "w1", "w2", "w3", "w4", "w5")

	// The follower catches up, then takes both shards.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		code, body := get(t, repURL, "/api/v1/surveys/"+survey.AwarenessID+"/aggregate")
		if code == http.StatusOK && strings.Contains(string(body), `"n":6`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %d %s", code, body)
		}
	}
	for s := 0; s < 2; s++ {
		req, _ := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/api/v1/admin/promote/%d", repURL, s), nil)
		req.Header.Set("Authorization", "Bearer op")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote %d = %d", s, resp.StatusCode)
		}
	}
	var fresh []string
	for i := 0; i < 20; i++ {
		fresh = append(fresh, fmt.Sprintf("after-%02d", i))
	}
	submitFresh(t, repURL, fresh...)
	counts := func(base string) [2]int {
		c := shardrpc.NewClient(base, "op", nil)
		var out [2]int
		for s := range out {
			n, err := c.Count(s, survey.AwarenessID)
			if err != nil {
				t.Fatal(err)
			}
			out[s] = n
		}
		return out
	}
	acked := counts(repURL)
	if acked[0]+acked[1] != 26 {
		t.Fatalf("promoted follower holds %v, want 26 records", acked)
	}
	_, wantAgg := get(t, repURL, "/api/v1/surveys/"+survey.AwarenessID+"/aggregate")

	closeRep()
	restarted, _ := mustAssemble(t, repArgs...)
	rts := httptest.NewServer(restarted)
	t.Cleanup(rts.Close)
	if got := counts(rts.URL); got != acked {
		t.Fatalf("after a restart the follower holds %v, it acknowledged %v", got, acked)
	}
	if _, got := get(t, rts.URL, "/api/v1/surveys/"+survey.AwarenessID+"/aggregate"); !bytes.Equal(got, wantAgg) {
		t.Fatalf("aggregate after a restart:\n%s\nacknowledged:\n%s", got, wantAgg)
	}
}
