package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/placement"
	"loki/internal/shardrpc"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// budgetTestConfig derives a cap admitting exactly three medium-level
// responses to clusterTestSurvey: ε is monotone in the folded rho, so a
// ceiling at ε(3.5ρ) accepts the third charge and rejects the fourth.
func budgetTestConfig(t *testing.T) budget.Config {
	t.Helper()
	cfg := budget.Config{CapEpsilon: 1, Delta: 1e-6}
	rho := responseRho(t, clusterTestSurvey(), "medium")
	cfg.CapEpsilon = cfg.Epsilon(3.5 * rho)
	return cfg
}

// budgetResponse builds a fixed-shape response at the given privacy
// level so every submit costs the same rho.
func budgetResponse(sv *survey.Survey, worker, level string) *survey.Response {
	return &survey.Response{
		SurveyID:     sv.ID,
		WorkerID:     worker,
		PrivacyLevel: level,
		Obfuscated:   level != "none",
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", 3),
			survey.RatingAnswer("q1", 3),
			survey.ChoiceAnswer("q2", 1),
		},
	}
}

// responseRho computes the zCDP cost one budgetResponse charges — the
// reference the double-spend invariant is checked against.
func responseRho(t *testing.T, sv *survey.Survey, level string) float64 {
	t.Helper()
	obf, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := core.ParseLevel(level)
	if err != nil {
		t.Fatal(err)
	}
	rho, _, err := obf.ResponseRho(sv, lvl)
	if err != nil {
		t.Fatal(err)
	}
	return rho
}

// newBudgetCluster spins nodes that host both response shards and
// budget shards, then `frontends` frontend servers over them, each with
// its own RemoteCharger in the given enforcement mode. All frontends
// share the nodes, so a worker's account is one ledger no matter which
// frontend charges it.
func newBudgetCluster(t *testing.T, nodes, totalShards, frontends int, mode string) []*httptest.Server {
	t.Helper()
	owned := shardrpc.RoundRobinPlacement(totalShards, nodes)
	clients := make([]*shardrpc.Client, nodes)
	for nd := 0; nd < nodes; nd++ {
		stores := make([]store.Store, len(owned[nd]))
		for i := range stores {
			stores[i] = store.NewMem()
		}
		local, err := shardset.NewLocal(stores, shardset.LocalOptions{GlobalIDs: owned[nd], Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { local.Close() })
		nsrv, err := New(Config{Router: local, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "node"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nsrv.Close() })
		node, err := NewNode(nsrv, totalShards)
		if err != nil {
			t.Fatal(err)
		}
		set, err := budget.NewSet(budget.SetOptions{
			Shards: totalShards, GlobalIDs: owned[nd], Dir: t.TempDir(), Config: budgetTestConfig(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close() })
		node.HostBudget(set)
		h, err := shardrpc.NewHandler(node, testToken)
		if err != nil {
			t.Fatal(err)
		}
		nts := httptest.NewServer(h)
		t.Cleanup(nts.Close)
		clients[nd] = shardrpc.NewClient(nts.URL, testToken, nil)
	}
	fts := make([]*httptest.Server, frontends)
	for f := 0; f < frontends; f++ {
		remote, err := shardrpc.NewRemoteRoundRobin(clients, totalShards)
		if err != nil {
			t.Fatal(err)
		}
		charger, err := shardrpc.NewRemoteCharger(clients, totalShards, budgetTestConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		// Production wiring: colocated charges ride the submit RPC, the
		// charger covers cross-node workers plus refunds/peeks/stats.
		if err := remote.EnablePiggybackCharges(totalShards); err != nil {
			t.Fatal(err)
		}
		frontend, err := New(Config{
			Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "frontend",
			Budget: charger, BudgetEnforce: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { frontend.Close() })
		ts := httptest.NewServer(frontend)
		t.Cleanup(ts.Close)
		fts[f] = ts
	}
	return fts
}

// submitCode submits and returns the HTTP status.
func submitCode(t *testing.T, ts *httptest.Server, r *survey.Response) (int, []byte) {
	t.Helper()
	resp, body := doReq(t, http.MethodPost, submitURL(ts, r.SurveyID), r, "")
	return resp.StatusCode, body
}

// checkExhausted429 asserts the enriched budget_exhausted contract: a
// Retry-After header matching the body's hint, and the remaining (ε, δ)
// headroom — ε zero-or-tiny for an exhausted worker, δ the deployment's
// configured conversion δ.
func checkExhausted429(t *testing.T, ts *httptest.Server, r *survey.Response) {
	t.Helper()
	resp, body := doReq(t, http.MethodPost, submitURL(ts, r.SurveyID), r, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != strconv.Itoa(BudgetRetryAfterSeconds) {
		t.Fatalf("Retry-After header = %q, want %d", got, BudgetRetryAfterSeconds)
	}
	var e BudgetExhaustedError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("429 body %s: %v", body, err)
	}
	cfg := budgetTestConfig(t)
	if e.Error != budget.ErrExhausted.Error() ||
		e.RetryAfterSeconds != BudgetRetryAfterSeconds ||
		e.RemainingEpsilon < 0 || e.RemainingEpsilon >= cfg.CapEpsilon ||
		e.RemainingDelta != cfg.Delta {
		t.Fatalf("429 body = %+v (cap %+v)", e, cfg)
	}
}

// TestClusterBudgetEnforcement is the tentpole acceptance path: a
// worker who exhausts the (ε, δ) cap submitting through one frontend is
// rejected with 429 budget_exhausted through a *different* frontend —
// the account lives on its routed node shard, not in any frontend.
func TestClusterBudgetEnforcement(t *testing.T) {
	fts := newBudgetCluster(t, 2, 4, 2, "enforce")
	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, fts[0].URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}

	const worker = "worker-exhaust"
	accepted, rejected := 0, 0
	for i := 0; i < 64; i++ {
		code, body := submitCode(t, fts[0], budgetResponse(sv, worker, "medium"))
		switch code {
		case http.StatusCreated:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error != budget.ErrExhausted.Error() {
				t.Fatalf("429 body = %s", body)
			}
		default:
			t.Fatalf("submit = %d: %s", code, body)
		}
		if rejected > 0 {
			break
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted=%d rejected=%d; want both nonzero", accepted, rejected)
	}

	// The other frontend must reject immediately: same account. The 429
	// carries the enriched contract — Retry-After plus (ε, δ) headroom.
	checkExhausted429(t, fts[1], budgetResponse(sv, worker, "medium"))

	// A fresh worker through either frontend is admitted.
	if code, body := submitCode(t, fts[1], budgetResponse(sv, "worker-fresh", "medium")); code != http.StatusCreated {
		t.Fatalf("fresh worker submit = %d: %s", code, body)
	}

	// Level none spends no rho and is never rejected, even for the
	// exhausted worker: the cap bounds DP loss, and unprotected
	// disclosures are tallied separately.
	if code, body := submitCode(t, fts[1], budgetResponse(sv, worker, "none")); code != http.StatusCreated {
		t.Fatalf("none-level submit = %d: %s", code, body)
	}

	// The admin surface answers the worker's balance from any frontend.
	for i, ts := range fts {
		resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/budget/"+worker, nil, testToken)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("frontend %d admin budget = %d: %s", i, resp.StatusCode, body)
		}
		var info WorkerBudgetInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Charges != uint64(accepted)+1 || info.Unprotected != 3 {
			t.Fatalf("frontend %d reports %+v; want %d charges (incl. none-level), 3 unprotected", i, info, accepted+1)
		}
		cfg := budgetTestConfig(t)
		if info.SpentEpsilon <= 0 || info.SpentEpsilon > cfg.CapEpsilon {
			t.Fatalf("spent ε = %g outside (0, %g]", info.SpentEpsilon, cfg.CapEpsilon)
		}
	}

	// And the store admin surface reports the ledger fleet.
	var info AdminStoreInfo
	resp, body := doReq(t, http.MethodGet, fts[0].URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin store = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Budget == nil || info.Budget.Mode != "enforce" || info.Budget.Shards != 4 || len(info.Budget.Ledgers) != 4 {
		t.Fatalf("admin budget info = %+v", info.Budget)
	}
	if info.Budget.Rejected == 0 {
		t.Fatal("frontend counted no rejections")
	}
}

// TestClusterBudgetDoubleSpend hammers one worker's account from many
// goroutines through two frontends concurrently; the accepted total
// must respect the cap exactly — the account's single owning shard is
// the serialization point no matter how many frontends race.
func TestClusterBudgetDoubleSpend(t *testing.T) {
	fts := newBudgetCluster(t, 2, 4, 2, "enforce")
	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, fts[0].URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}

	const (
		worker     = "worker-race"
		goroutines = 8
		perG       = 8
	)
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ts := fts[g%len(fts)]
			for i := 0; i < perG; i++ {
				code, body := submitCode(t, ts, budgetResponse(sv, worker, "medium"))
				switch code {
				case http.StatusCreated:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("submit = %d: %s", code, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	cfg := budgetTestConfig(t)
	rho := responseRho(t, sv, "medium")
	if spent := cfg.Epsilon(float64(accepted.Load()) * rho); spent > cfg.CapEpsilon {
		t.Fatalf("%d accepted submits spend ε %g > cap %g: double spend", accepted.Load(), spent, cfg.CapEpsilon)
	}
	if rejected.Load() == 0 {
		t.Fatalf("no rejections across %d submits", goroutines*perG)
	}
	// The cap was actually approached, not starved by spurious errors:
	// one more charge would cross it.
	if under := cfg.Epsilon(float64(accepted.Load()+1) * rho); under <= cfg.CapEpsilon {
		t.Fatalf("%d accepted but %d would still fit the cap", accepted.Load(), accepted.Load()+1)
	}
}

// flakyStore fails appends on demand — the induced crack between a
// committed budget charge and its response append that the refund path
// compensates. Embedding the interface hides the Mem's batch appender.
type flakyStore struct {
	store.Store
	fail atomic.Bool
}

func (f *flakyStore) AppendResponse(r *survey.Response) error {
	if f.fail.Load() {
		return errors.New("induced append failure")
	}
	return f.Store.AppendResponse(r)
}

// TestBudgetRefundOnFailedAppend: when the append fails after the
// charge committed, the server refunds the charge so the worker is not
// billed for a response that was never stored.
func TestBudgetRefundOnFailedAppend(t *testing.T) {
	st := &flakyStore{Store: store.NewMem()}
	set, err := budget.NewSet(budget.SetOptions{Shards: 1, Config: budgetTestConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	srv, err := New(Config{
		Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Budget: set, BudgetEnforce: "enforce",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	const worker = "worker-refund"

	st.fail.Store(true)
	if code, body := submitCode(t, ts, budgetResponse(sv, worker, "medium")); code != http.StatusBadRequest {
		t.Fatalf("failed-append submit = %d: %s", code, body)
	}
	a, err := set.Peek(worker)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho != 0 || a.Charges != 1 || a.Refunds != 1 {
		t.Fatalf("after refund account = %+v; want rho 0, 1 charge, 1 refund", a)
	}

	// With the store healed the same worker's full budget is available.
	st.fail.Store(false)
	if code, body := submitCode(t, ts, budgetResponse(sv, worker, "medium")); code != http.StatusCreated {
		t.Fatalf("healed submit = %d: %s", code, body)
	}
}

// TestBudgetLogMode: over-cap workers are admitted (and only logged)
// when enforcement is advisory.
func TestBudgetLogMode(t *testing.T) {
	set, err := budget.NewSet(budget.SetOptions{Shards: 1, Config: budgetTestConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	srv, err := New(Config{
		Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Budget: set, BudgetEnforce: "log",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	sv := clusterTestSurvey()
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	const worker = "worker-log"
	for i := 0; i < 40; i++ {
		if code, body := submitCode(t, ts, budgetResponse(sv, worker, "medium")); code != http.StatusCreated {
			t.Fatalf("log-mode submit %d = %d: %s", i, code, body)
		}
	}
	a, err := set.Peek(worker)
	if err != nil {
		t.Fatal(err)
	}
	cfg := budgetTestConfig(t)
	if cfg.Epsilon(a.Rho) <= cfg.CapEpsilon {
		t.Fatalf("worker spent ε %g; the test meant to blow past cap %g", cfg.Epsilon(a.Rho), cfg.CapEpsilon)
	}
}

// TestBudgetConfigValidation covers the mode plumbing in New.
func TestBudgetConfigValidation(t *testing.T) {
	if _, err := New(Config{
		Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		BudgetEnforce: "enforce",
	}); err == nil {
		t.Fatal("enforce mode without a charger must fail")
	}
	set, err := budget.NewSet(budget.SetOptions{Shards: 1, Config: budgetTestConfig(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	if _, err := New(Config{
		Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Budget: set, BudgetEnforce: "sometimes",
	}); err == nil {
		t.Fatal("unknown enforce mode must fail")
	}
	// Admin budget endpoint 404s when accounting is off.
	srv, err := New(Config{Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/budget/w", nil, testToken); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("admin budget without accounting = %d", resp.StatusCode)
	}
	_ = fmt.Sprintf // keep fmt for future debugging aids
}

// TestManifestFrontendChargesWhereBudgetIsHosted: a frontend built from
// a manifest that places a replica holds one more client than there are
// nodes hosting budget shards. Its charge-colocation table must still be
// derived from the nodes (the list the RemoteCharger gets), or a charge
// rides the submit RPC to a node that does not host the worker's budget
// shard and the whole batch comes back 421. Enforcing, every submit of a
// fresh worker is a 201, on both charge paths (on two nodes the path is
// decided by the survey ID's byte parity, so two surveys cover both).
func TestManifestFrontendChargesWhereBudgetIsHosted(t *testing.T) {
	const totalShards = 8
	nodes := newHANodes(t, 2, totalShards)
	urls := []string{nodes[0].url, nodes[1].url}
	for nd, owned := range shardrpc.RoundRobinPlacement(totalShards, len(nodes)) {
		set, err := budget.NewSet(budget.SetOptions{
			Shards: totalShards, GlobalIDs: owned, Dir: t.TempDir(), Config: budgetTestConfig(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close() })
		nodes[nd].node.HostBudget(set)
	}
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	_, repURL := newHAReplica(t, nodes[0], manifestPath, 0)
	m, err := placement.RoundRobin(totalShards, urls)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		if m.Shards[i].Primary == urls[0] {
			m.Shards[i].Replicas = []string{repURL}
		}
	}
	if err := m.Save(manifestPath); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.node.ApplyManifest(m, n.url)
	}

	remote, err := shardrpc.NewRemoteFromManifest(m, testToken, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	charger, err := shardrpc.NewRemoteCharger([]*shardrpc.Client{nodes[0].client, nodes[1].client}, totalShards, budgetTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.EnablePiggybackCharges(totalShards); err != nil {
		t.Fatal(err)
	}
	frontend, err := New(Config{
		Router: remote, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Role: "frontend",
		Budget: charger, BudgetEnforce: "enforce",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frontend.Close() })
	fts := httptest.NewServer(frontend)
	t.Cleanup(fts.Close)

	rode := map[bool]int{}
	for _, id := range []string{"colocation-a", "colocation-b"} {
		sv := clusterTestSurvey()
		sv.ID = id
		if resp, body := doReq(t, http.MethodPost, fts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
			t.Fatalf("publish = %d: %s", resp.StatusCode, body)
		}
		for i := 0; i < 32; i++ {
			r := budgetResponse(sv, fmt.Sprintf("fresh-%s-%02d", id, i), "medium")
			rode[remote.CanPiggybackCharge(remote.Route(r.SurveyID, r.WorkerID), r.WorkerID)]++
			if code, body := submitCode(t, fts, r); code != http.StatusCreated {
				t.Fatalf("survey %s submit %d = %d: %s", id, i, code, body)
			}
		}
	}
	if rode[true] == 0 || rode[false] == 0 {
		t.Fatalf("one charge path untested: %d rode the submit, %d took the charge RPC", rode[true], rode[false])
	}
}
