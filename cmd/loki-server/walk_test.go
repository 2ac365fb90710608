package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"loki/internal/blockio"
	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/server"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/survey"
)

// The requester walk: the paper's adversary is a requester, who joins
// responses across surveys on a stable worker ID. Holding the requester
// token, or no token, it must learn no worker ID and no stored answer
// from any route of any role, and it must not promote, clear or read a
// ledger account. The walk enumerates the server's route table and every
// shardrpc call the cluster made during the history, and checks each
// reply and each role's shard placement.

const (
	walkShards  = 4
	walkSurvey  = "walk"
	walkPoison  = "walk-poison"
	walkRequest = "tok"
)

// Every worker ID of the history ends in walkIDSuffix, which no reply may
// hold.
const walkIDSuffix = "-stable-id"

var (
	// fencedWorker's record routes to shard 0; refundedWorker's record to a
	// shard of node1 and its account to node0.
	fencedWorker   = walkWorker(func(w string) bool { return shardset.Route(walkSurvey, w, walkShards) == 0 })
	refundedWorker = walkWorker(func(w string) bool {
		return shardset.Route(walkSurvey, w, walkShards)%2 == 1 && budget.Route(w, walkShards)%2 == 0
	})
	walkWorkers = []string{"alice-stable-id", "bob-stable-id", "dave-stable-id", "carol-stable-id", fencedWorker, refundedWorker}
	// walkAnswers are the numeric answers alice, bob and dave store:
	// digits no aggregate of them reproduces.
	walkAnswers = []float64{7.3141592, 2.7182818, 4.6692016}
)

func walkDefinition(id string, options int) *survey.Survey {
	return &survey.Survey{ID: id, Title: id, RewardCents: 1, Questions: []survey.Question{
		{ID: "score", Text: "score", Kind: survey.Numeric, ScaleMin: 0, ScaleMax: 10},
		{ID: "pick", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}[:options]},
	}}
}

func walkResponse(surveyID, worker string, score float64, pick int) []byte {
	b, _ := json.Marshal(survey.Response{
		SurveyID: surveyID, WorkerID: worker, PrivacyLevel: "medium", Obfuscated: true,
		Answers: []survey.Answer{survey.RatingAnswer("score", score), survey.ChoiceAnswer("pick", pick)},
	})
	return b
}

// walkCap is a -budget-cap-epsilon that admits four medium responses to
// a walk survey per worker.
func walkCap(t *testing.T) string {
	t.Helper()
	obf, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rho, _, err := obf.ResponseRho(walkDefinition(walkSurvey, 3), core.Medium)
	if err != nil {
		t.Fatal(err)
	}
	return strconv.FormatFloat(budget.Config{Delta: 1e-6}.Epsilon(4.5*rho), 'g', -1, 64)
}

// walkCall is one request of the walk or of the history.
func walkCall(h http.Handler, method, uri, auth string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, uri, bytes.NewReader(body))
	if auth != "" {
		req.Header.Set("Authorization", "Bearer "+auth)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustCall(t *testing.T, h http.Handler, method, uri, auth string, body []byte, want int) []byte {
	t.Helper()
	rec := walkCall(h, method, uri, auth, body)
	if rec.Code != want {
		t.Fatalf("%s %s = %d %s, want %d", method, uri, rec.Code, rec.Body, want)
	}
	return rec.Body.Bytes()
}

// rpcLog records every shardrpc request a node serves: the calls the
// walk replays without the cluster token.
type rpcLog struct {
	mu    sync.Mutex
	calls map[string][]byte // "METHOD URI" -> body
}

func (l *rpcLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/shardrpc/") {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			l.mu.Lock()
			l.calls[r.Method+" "+r.URL.RequestURI()] = body
			l.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

// walkRole is one assembled role the walk visits.
type walkRole struct {
	name string
	h    http.Handler
	node bool // serves shardrpc
}

// operatorToken is the token the history's shardrpc calls carry: the
// -cluster-token given, or -token where none is (what a build that
// defaulted one to the other would use).
func operatorToken(tokens []string) string {
	for i := 0; i+1 < len(tokens); i++ {
		if tokens[i] == "-cluster-token" {
			return tokens[i+1]
		}
	}
	return walkRequest
}

// walkStandalone assembles a standalone server with the ledger enforcing
// and leaves a history on it: stored answers, a poisoned record, an
// exhausted worker.
func walkStandalone(t *testing.T, tokens []string) (*walkRole, error) {
	h, closeAll, err := assembleArgs(t, append([]string{"-store", filepath.Join(t.TempDir(), "s.log"),
		"-budget-enforce", "enforce", "-budget-cap-epsilon", walkCap(t)}, tokens...)...)
	if err != nil {
		return nil, err
	}
	t.Cleanup(closeAll)
	walkHistory(t, h, h)
	return &walkRole{name: "standalone", h: h}, nil
}

// walkHistory publishes the walk surveys through front, stores each
// answer, exhausts carol and poisons walkPoison's accumulator.
func walkHistory(t *testing.T, front, reader http.Handler) {
	t.Helper()
	for _, id := range []string{walkSurvey, walkPoison} {
		def, _ := json.Marshal(walkDefinition(id, 3))
		mustCall(t, front, http.MethodPost, "/api/v1/surveys", walkRequest, def, http.StatusCreated)
	}
	for i, score := range walkAnswers {
		mustCall(t, front, http.MethodPost, "/api/v1/surveys/"+walkSurvey+"/responses", "", walkResponse(walkSurvey, walkWorkers[i], score, 1), http.StatusCreated)
	}
	exhausted := false
	for i := 0; i < 64 && !exhausted; i++ {
		rec := walkCall(front, http.MethodPost, "/api/v1/surveys/"+walkSurvey+"/responses", "", walkResponse(walkSurvey, "carol-stable-id", 5, 0))
		exhausted = rec.Code == http.StatusTooManyRequests
	}
	if !exhausted {
		t.Fatal("carol never exhausted her budget")
	}
	// A record that chose option c, then a definition without it: the
	// stored record poisons every rebuild of the accumulator.
	mustCall(t, front, http.MethodPost, "/api/v1/surveys/"+walkPoison+"/responses", "", walkResponse(walkPoison, "alice-stable-id", 1, 2), http.StatusCreated)
	def, _ := json.Marshal(walkDefinition(walkPoison, 2))
	mustCall(t, front, http.MethodPost, "/api/v1/surveys", walkRequest, def, http.StatusOK)
	if rec := walkCall(reader, http.MethodGet, "/api/v1/surveys/"+walkPoison+"/aggregate", walkRequest, nil); rec.Code == http.StatusOK {
		t.Fatalf("the poisoned survey's aggregate = %d %s", rec.Code, rec.Body)
	}
	mustCall(t, reader, http.MethodGet, "/api/v1/surveys/"+walkSurvey+"/aggregate", walkRequest, nil, http.StatusOK)
}

// walkCluster assembles two nodes and a frontend, enforcing the ledger,
// and a node the manifest lists as every shard's replica, and leaves
// walkHistory's history plus a fenced write and a refund on them.
func walkCluster(t *testing.T, tokens []string) ([]*walkRole, *rpcLog, error) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	ts0, url0 := reserve(t)
	ts1, url1 := reserve(t)
	tsr, urlr := reserve(t)
	m, err := placement.RoundRobin(walkShards, []string{url0, url1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Replicas = []string{urlr}
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	log := &rpcLog{calls: map[string][]byte{}}
	common := append([]string{"-manifest", path, "-manifest-poll", "20ms", "-replica-poll", "20ms",
		"-budget-cap-epsilon", walkCap(t)}, tokens...)
	var roles []*walkRole
	for i, n := range []struct {
		ts   *httptest.Server
		url  string
		args []string
	}{{ts0, url0, []string{"-budget-enforce", "enforce"}}, {ts1, url1, []string{"-budget-enforce", "enforce"}}, {tsr, urlr, nil}} {
		h, closeAll, err := assembleArgs(t, append(append([]string{"-role", "node", "-advertise", n.url,
			"-store", filepath.Join(dir, fmt.Sprintf("n%d.log", i))}, n.args...), common...)...)
		if err != nil {
			return nil, nil, err
		}
		t.Cleanup(closeAll)
		n.ts.Config.Handler = log.wrap(h)
		n.ts.Start()
		roles = append(roles, &walkRole{name: []string{"node0", "node1", "replica"}[i], h: h, node: true})
	}
	front, closeFront, err := assembleArgs(t, append([]string{"-role", "frontend", "-budget-enforce", "enforce"}, common...)...)
	if err != nil {
		return nil, nil, err
	}
	t.Cleanup(closeFront)
	roles = append(roles, &walkRole{name: "frontend", h: front})
	walkHistory(t, front, front)

	// A fenced write: the operator's manifest moves shard 0 to the
	// replica, and node0 refuses a direct write to it.
	m.Version, m.Shards[0] = 2, placement.ShardPlacement{Shard: 0, Epoch: 2, Primary: urlr}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); shardRoles(t, roles[0].h)[0] != "fenced@2"; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node0 never fenced shard 0: %v", shardRoles(t, roles[0].h))
		}
	}
	mustCall(t, roles[0].h, http.MethodPost, "/api/v1/surveys/"+walkSurvey+"/responses", "",
		walkResponse(walkSurvey, fencedWorker, 3, 0), http.StatusServiceUnavailable)

	// A refund: node1 goes dark; a worker whose record it holds and whose
	// account node0 holds is charged ahead, and the failed write refunds.
	ts1.Close()
	if rec := walkCall(front, http.MethodPost, "/api/v1/surveys/"+walkSurvey+"/responses", "", walkResponse(walkSurvey, refundedWorker, 3, 0)); rec.Code == http.StatusCreated {
		t.Fatalf("a write to a dark node = %d %s", rec.Code, rec.Body)
	}
	acct, err := shardrpc.NewClient(url0, operatorToken(tokens), nil).BudgetPeek(budget.Route(refundedWorker, walkShards), refundedWorker)
	if err != nil || acct.Charges != 1 || acct.Refunds != 1 {
		t.Fatalf("refunded worker's account: %+v, %v", acct, err)
	}
	return roles, log, nil
}

// walkWorker returns the first worker ID "walk-NN-stable-id" pred accepts.
func walkWorker(pred func(string) bool) string {
	for i := 0; ; i++ {
		if w := fmt.Sprintf("walk-%02d-stable-id", i); pred(w) {
			return w
		}
	}
}

// walkRoles walks every route of every role with the requester token and
// with none, and returns what it found.
func walkRoles(t *testing.T, roles []*walkRole, log *rpcLog) []string {
	var table []server.Route
	for _, r := range roles {
		if srv, ok := r.h.(*server.Server); ok {
			table = srv.Routes()
			break
		}
	}
	if table == nil {
		t.Fatal("no role is a *server.Server to read the route table from")
	}
	var found []string
	for _, r := range roles {
		var calls [][3]string // method, URI, body
		for _, rt := range table {
			method, pattern, _ := strings.Cut(rt.Pattern, " ")
			for _, uri := range expand(pattern) {
				calls = append(calls, [3]string{method, uri, ""})
			}
		}
		if r.node {
			for s := 0; s < walkShards; s++ {
				for _, id := range []string{walkSurvey, walkPoison} {
					calls = append(calls, [3]string{http.MethodGet, fmt.Sprintf("/shardrpc/v1/shards/%d/scan?survey=%s&codec=binary", s, id), ""},
						[3]string{http.MethodGet, fmt.Sprintf("/shardrpc/v1/shards/%d/tail?follower=walk", s), ""})
				}
			}
			log.mu.Lock()
			for mu, body := range log.calls {
				method, uri, _ := strings.Cut(mu, " ")
				calls = append(calls, [3]string{method, uri, string(body)})
			}
			log.mu.Unlock()
		}
		t.Logf("%s: %d calls, each with the requester token and with none", r.name, len(calls))
		for _, c := range calls {
			for _, auth := range []string{"", walkRequest} {
				// A frontend's health rows follow its prober, not its routes.
				before := placementRoles(t, r)
				rec := walkCall(r.h, c[0], c[1], auth, []byte(c[2]))
				if leak := leaked(rec); leak != "" {
					found = append(found, fmt.Sprintf("%s: %s %s (token %q) = %d: %s", r.name, c[0], c[1], auth, rec.Code, leak))
				}
				if after := placementRoles(t, r); !reflect.DeepEqual(before, after) {
					found = append(found, fmt.Sprintf("%s: %s %s (token %q) = %d: promoted, %v -> %v", r.name, c[0], c[1], auth, rec.Code, before, after))
				}
			}
		}
	}
	return found
}

// placementRoles is a node's shardRoles without the epochs a replica
// row reports from its source's journal (global shard -> role), and nil
// for any other role.
func placementRoles(t *testing.T, r *walkRole) map[int]string {
	if !r.node {
		return nil
	}
	roles := shardRoles(t, r.h)
	for s, r := range roles {
		roles[s], _, _ = strings.Cut(r, "@")
	}
	return roles
}

// expand fills a route pattern's wildcards with every value the history
// gave them meaning.
func expand(pattern string) []string {
	uris := []string{pattern}
	for wild, values := range map[string][]string{
		"{id}":     {walkSurvey, walkPoison},
		"{worker}": walkWorkers,
		"{shard}":  {"0", "1", "2", "3"},
	} {
		var next []string
		for _, u := range uris {
			if !strings.Contains(u, wild) {
				next = append(next, u)
				continue
			}
			for _, v := range values {
				next = append(next, strings.Replace(u, wild, v, 1))
			}
		}
		uris = next
	}
	return uris
}

// leaked names what a reply gives away, or "".
func leaked(rec *httptest.ResponseRecorder) string {
	body := rec.Body.Bytes()
	if rec.Header().Get("Content-Type") == blockio.FrameContentType {
		if plain, err := blockio.DecodeFrame(body); err == nil {
			body = plain
		}
	}
	var head bytes.Buffer
	_ = rec.Header().Write(&head)
	text := head.String() + string(body)
	if i := strings.Index(text, walkIDSuffix); i >= 0 {
		return "a worker ID: " + text[max(0, i-16):i+len(walkIDSuffix)]
	}
	for _, a := range walkAnswers {
		if s := fmt.Sprint(a); strings.Contains(text, s) {
			return "stored answer " + s
		}
	}
	var reply map[string]json.RawMessage
	if rec.Code == http.StatusOK && json.Unmarshal(body, &reply) == nil {
		if _, ok := reply["cleared"]; ok {
			return "cleared an accumulator: " + string(body)
		}
		if _, ok := reply["charges"]; ok {
			return "a ledger account: " + string(body)
		}
	}
	return ""
}

// TestRequesterWalk assembles every role under each way of giving the
// two tokens, and walks them. A role that must refuse to start must say
// which flag it needs; one that starts anyway is walked like the rest.
func TestRequesterWalk(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tokens  []string
		refused string // "" when the roles must start
	}{
		{"distinct tokens", []string{"-token", walkRequest, "-cluster-token", "op"}, ""},
		{"no cluster token", []string{"-token", walkRequest}, "-cluster-token"},
		{"one token for both", []string{"-token", walkRequest, "-cluster-token", walkRequest}, "must differ"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var roles []*walkRole
			// Standalone starts without a cluster token (its cluster routes
			// stay closed) and refuses the requester's token as one.
			sa, err := walkStandalone(t, tc.tokens)
			switch {
			case err != nil && tc.refused != "must differ":
				t.Fatalf("standalone refused to start: %v", err)
			case err == nil && tc.refused == "must differ":
				t.Errorf("standalone started with one token for both audiences")
			}
			if sa != nil {
				roles = append(roles, sa)
			}
			cluster, log, err := walkCluster(t, tc.tokens)
			switch {
			case err != nil && (tc.refused == "" || !strings.Contains(err.Error(), tc.refused)):
				t.Fatalf("cluster roles: %v, want an error naming %q", err, tc.refused)
			case err == nil && tc.refused != "":
				t.Errorf("cluster roles started, want an error naming %q", tc.refused)
			}
			roles = append(roles, cluster...)
			if len(roles) == 0 {
				return
			}
			if log == nil {
				log = &rpcLog{calls: map[string][]byte{}}
			}
			for _, f := range walkRoles(t, roles, log) {
				t.Error(f)
			}
		})
	}
}
