package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"loki/internal/core"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// A republish that fails on one shard (or one node) and is retried must
// leave every copy of the definition on the new version and every piece
// of fold state built under the old one dropped: the retry finishes the
// broadcast, whatever the first copy it could read says.

var errInjectedPublish = errors.New("injected publish failure")

// failOncePublish is a store whose next publish fails once armed.
type failOncePublish struct {
	store.Store
	armed atomic.Bool
}

func (f *failOncePublish) Publish(sv *survey.Survey) (store.Outcome, error) {
	if f.armed.CompareAndSwap(true, false) {
		return 0, errInjectedPublish
	}
	return f.Store.Publish(sv)
}

// republishedSurvey is clusterTestSurvey's second version: one question
// fewer, so a response to the first version no longer validates.
func republishedSurvey() *survey.Survey {
	sv := clusterTestSurvey()
	sv.Title = "Cluster test survey, second version"
	sv.Questions = sv.Questions[:2]
	return sv
}

// publishStatus publishes sv through a server's public API.
func publishStatus(t *testing.T, base string, sv *survey.Survey) int {
	t.Helper()
	resp, body := doReq(t, http.MethodPost, base+"/api/v1/surveys", sv, testToken)
	if resp.StatusCode >= 300 {
		t.Logf("publish %q: %d %s", sv.ID, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode
}

// foldEveryShard submits one response to each of shards shards of the
// test survey and reads its aggregate, so every shard has live state
// under the first definition.
func foldEveryShard(t *testing.T, base string, shards int) {
	t.Helper()
	for shard := 0; shard < shards; shard++ {
		w := ""
		for i := 0; w == ""; i++ {
			if c := fmt.Sprintf("p%d", i); shardset.Route("cluster", c, shards) == shard {
				w = c
			}
		}
		if r := pubSingle.post(t, base, pubRec(w, "none")); r.status != http.StatusCreated {
			t.Fatalf("submit to shard %d: %v", shard, r)
		}
	}
	if resp, body := doReq(t, http.MethodGet, base+"/api/v1/surveys/cluster/aggregate", nil, testToken); resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: %d %s", resp.StatusCode, body)
	}
}

// holdsRepublished fails unless every store behind local holds the
// second version.
func holdsRepublished(t *testing.T, who string, local *shardset.Local) {
	t.Helper()
	for i := 0; i < local.Shards(); i++ {
		got, err := local.Store(i).Survey("cluster")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(republishedSurvey()) {
			t.Errorf("%s shard %d holds %d questions (%q) after the retry, want the second version", who, i, len(got.Questions), got.Title)
		}
	}
}

// liveDropped fails unless srv holds no live set for the test survey.
func liveDropped(t *testing.T, who string, srv *Server) {
	t.Helper()
	srv.liveMu.Lock()
	ls := srv.live["cluster"]
	srv.liveMu.Unlock()
	if ls != nil {
		t.Errorf("%s still holds a live set folded under %q", who, ls.def.Title)
	}
}

func TestRepublishPartialBroadcastStandalone(t *testing.T) {
	flaky := &failOncePublish{Store: store.NewMem()}
	local, err := shardset.NewLocal([]store.Store{store.NewMem(), flaky}, shardset.LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if got := publishStatus(t, ts.URL, clusterTestSurvey()); got != http.StatusCreated {
		t.Fatalf("first publish = %d, want 201", got)
	}
	foldEveryShard(t, ts.URL, 2)

	flaky.armed.Store(true)
	if got := publishStatus(t, ts.URL, republishedSurvey()); got != http.StatusBadRequest {
		t.Fatalf("republish with shard 1 failing = %d, want 400", got)
	}
	if got := publishStatus(t, ts.URL, republishedSurvey()); got != http.StatusOK {
		t.Fatalf("retried republish = %d, want 200", got)
	}
	holdsRepublished(t, "standalone", local)
	liveDropped(t, "standalone", srv)
}

// failOnceReplace fronts a node's shardrpc handler: once armed, the
// next publish call that replaces fails with a 400.
func failOnceReplace(armed *atomic.Bool) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/shardrpc/v1/surveys" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req shardrpc.PublishRequest
				if json.Unmarshal(body, &req) == nil && req.Replace && armed.CompareAndSwap(true, false) {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusBadRequest)
					_ = json.NewEncoder(w).Encode(map[string]string{"error": errInjectedPublish.Error()})
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

func TestRepublishPartialBroadcastCluster(t *testing.T) {
	var armed atomic.Bool
	clients := make([]*shardrpc.Client, 2)
	nodes := make([]*wireNode, 2)
	for nd, owned := range shardrpc.RoundRobinPlacement(pubShards, 2) {
		o := wireNodeOpts{owned: owned, total: pubShards}
		if nd == 1 {
			o.wrap = failOnceReplace(&armed)
		}
		nodes[nd] = newWireNode(t, o)
		clients[nd] = shardrpc.NewClient(nodes[nd].url, testToken, nil)
	}
	remote, err := shardrpc.NewRemoteRoundRobin(clients, pubShards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	front, err := New(Config{Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "frontend"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)

	foldEveryShard(t, ts.URL, pubShards)
	front.cache.mu.Lock()
	cached := front.cache.surveys["cluster"] != nil
	front.cache.mu.Unlock()
	if !cached {
		t.Fatal("the aggregate read left no frontend cache entry")
	}

	armed.Store(true)
	if got := publishStatus(t, ts.URL, republishedSurvey()); got != http.StatusBadRequest {
		t.Fatalf("republish with node 1 failing = %d, want 400", got)
	}
	if armed.Load() {
		t.Fatal("node 1 never saw the republish")
	}
	if got := publishStatus(t, ts.URL, republishedSurvey()); got != http.StatusOK {
		t.Fatalf("retried republish = %d, want 200", got)
	}
	for nd, wn := range nodes {
		who := fmt.Sprintf("node %d", nd)
		holdsRepublished(t, who, wn.local)
		liveDropped(t, who, wn.srv)
	}
	front.cache.mu.Lock()
	cs := front.cache.surveys["cluster"]
	front.cache.mu.Unlock()
	if cs != nil {
		t.Errorf("the frontend still caches partials folded under %q", cs.def.Title)
	}
	if resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/cluster", nil, ""); !strings.Contains(string(body), "second version") {
		t.Errorf("the frontend reads %d %s after the retry", resp.StatusCode, body)
	}
}

// TestPublishJSONCannotHoldInvalidUTF8: the public publish path decodes
// JSON, which replaces each byte of an invalid UTF-8 sequence with
// U+FFFD, so raw 0xff bytes in a body are stored as valid UTF-8. The
// refusal in survey.Validate is reachable only from the Go API.
func TestPublishJSONCannotHoldInvalidUTF8(t *testing.T) {
	st := store.NewMem()
	base, _ := pubStandalone(t, st, "", Config{})
	body := []byte(`{"id":"raw","title":"bad ` + "\xff" + ` byte","questions":[` +
		`{"id":"q` + "\xff\xfe" + `","text":"rate","kind":0,"scale_min":1,"scale_max":5}],"reward_cents":1}`)
	if got := publishPost(t, base, body); !strings.HasPrefix(got, "status: 201\n") {
		t.Fatalf("publish: %s", got)
	}
	sv, err := st.Survey("raw")
	if err != nil {
		t.Fatal(err)
	}
	if sv.Title != "bad � byte" || sv.Questions[0].ID != "q��" {
		t.Fatalf("stored title %q, question %q", sv.Title, sv.Questions[0].ID)
	}
	if err := sv.Validate(); err != nil {
		t.Fatal(err)
	}
}
