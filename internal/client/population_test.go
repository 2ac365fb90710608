package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/server"
	"loki/internal/store"
	"loki/internal/survey"
)

// TestPopulationLedgersMatchServer runs a synthetic population through
// Client to a standalone server whose ledger logs without refusing:
// every person answers every profiling survey at their own privacy
// level, through their own client. The server's account of each worker
// must hold exactly the ρ and unprotected count the worker's on-device
// ledger does — the two price the same releases through the same
// mechanisms.
func TestPopulationLedgersMatchServer(t *testing.T) {
	const clusterToken = "ops"
	cfg := population.DefaultConfig()
	cfg.RegistrySize = 40
	pop, err := population.Generate(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem()
	t.Cleanup(func() { st.Close() })
	surveys := survey.ProfilingSurveys()
	for _, sv := range surveys {
		if _, err := st.Publish(sv); err != nil {
			t.Fatal(err)
		}
	}
	set, err := budget.NewSet(budget.SetOptions{Shards: 1, Config: budget.Config{CapEpsilon: 1, Delta: 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	srv, err := server.New(server.Config{
		Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: clusterToken,
		Budget: set, BudgetEnforce: "log",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ctx := context.Background()
	r := rng.New(12)
	levels := map[core.Level]int{}
	for i := range pop.Persons {
		p := &pop.Persons[i]
		worker := fmt.Sprintf("pop-%d", i)
		level := core.Level(p.PrivacyPref)
		levels[level]++
		c, err := New(Config{BaseURL: ts.URL, Schedule: core.DefaultSchedule(), Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		for _, sv := range surveys {
			raw, err := population.Answers(p, sv, r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Take(ctx, sv, worker, raw, level); err != nil {
				t.Fatalf("%s takes %s at %v: %v", worker, sv.ID, level, err)
			}
		}
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/admin/budget/"+worker, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+clusterToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var acct budget.Account
		err = json.NewDecoder(resp.Body).Decode(&acct)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("%s account = %d, %v", worker, resp.StatusCode, err)
		}
		lg := c.Ledger()
		if acct.Rho != lg.Rho() || acct.Unprotected != lg.Unprotected() {
			t.Fatalf("%s at %v: server ρ %g unprotected %d, client ledger ρ %g unprotected %d",
				worker, level, acct.Rho, acct.Unprotected, lg.Rho(), lg.Unprotected())
		}
	}
	for l := core.None; l <= core.High; l++ {
		if levels[l] == 0 {
			t.Fatalf("no person chose level %v; the run covers %v", l, levels)
		}
	}
}
