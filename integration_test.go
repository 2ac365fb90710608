package loki_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"loki"
	"loki/internal/experiments"
)

// TestEndToEndPlatform runs the whole system over real HTTP: the backend
// publishes the lecturer survey, a cohort of clients answers at mixed
// privacy levels with at-source obfuscation, and the requester-side
// aggregate recovers the true mean within noise tolerance.
func TestEndToEndPlatform(t *testing.T) {
	st := loki.NewMemStore()
	defer st.Close()
	backend, err := loki.NewServer(loki.ServerConfig{
		Store:          st,
		Schedule:       loki.DefaultSchedule(),
		RequesterToken: "tok",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(backend)
	defer ts.Close()

	sv := loki.LecturerSurvey([]string{"A"})
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const truth = 4.0
	levels := []loki.Level{loki.None, loki.Low, loki.Medium, loki.High}
	const perLevel = 40
	for i := 0; i < perLevel*len(levels); i++ {
		c, err := loki.NewClient(loki.ClientConfig{
			BaseURL:  ts.URL,
			Schedule: loki.DefaultSchedule(),
			Seed:     uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		fetched, err := c.GetSurvey(ctx, sv.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw := []loki.Answer{loki.RatingAnswer("lecturer-00", truth)}
		if _, err := c.Take(ctx, fetched, fmt.Sprintf("worker-%03d", i), raw, levels[i%len(levels)]); err != nil {
			t.Fatal(err)
		}
	}

	if got := st.ResponseCount(sv.ID); got != perLevel*len(levels) {
		t.Fatalf("stored %d responses", got)
	}
	est, err := loki.NewEstimator(loki.DefaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	responses, err := loki.CollectResponses(st, sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := est.EstimateQuestion(sv, sv.Question("lecturer-00"), responses)
	if err != nil {
		t.Fatal(err)
	}
	if qe.OverallN != perLevel*len(levels) {
		t.Fatalf("aggregated %d answers", qe.OverallN)
	}
	if diff := qe.OverallMean - truth; diff > 0.35 || diff < -0.35 {
		t.Errorf("noisy aggregate %.3f too far from truth %.1f", qe.OverallMean, truth)
	}
	// Every bin is populated and the none bin is exact.
	for l := 0; l < loki.NumLevels; l++ {
		if qe.Bins[l].N != perLevel {
			t.Errorf("bin %d n = %d", l, qe.Bins[l].N)
		}
	}
	if qe.Bins[loki.None].Mean != truth {
		t.Errorf("none bin mean %.3f, want exact truth", qe.Bins[loki.None].Mean)
	}
}

// TestEndToEndDurableStore replays a file-backed store across a restart
// of the backend.
func TestEndToEndDurableStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")

	open := func() (loki.Store, *httptest.Server) {
		st, err := loki.OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		backend, err := loki.NewServer(loki.ServerConfig{
			Store:          st,
			Schedule:       loki.DefaultSchedule(),
			RequesterToken: "tok",
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, httptest.NewServer(backend)
	}

	st, ts := open()
	sv := loki.AwarenessSurvey()
	if _, err := st.Publish(sv); err != nil {
		t.Fatal(err)
	}
	c, err := loki.NewClient(loki.ClientConfig{BaseURL: ts.URL, Schedule: loki.DefaultSchedule(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	raw := []loki.Answer{loki.ChoiceAnswer("aware", 1), loki.ChoiceAnswer("participate", 1)}
	if _, err := c.Take(context.Background(), sv, "w1", raw, loki.Low); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: everything is replayed from the log.
	st2, ts2 := open()
	defer ts2.Close()
	defer st2.Close()
	if st2.ResponseCount(sv.ID) != 1 {
		t.Fatalf("restart lost responses: %d", st2.ResponseCount(sv.ID))
	}
	c2, err := loki.NewClient(loki.ClientConfig{BaseURL: ts2.URL, Schedule: loki.DefaultSchedule(), Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	summaries, err := c2.ListSurveys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 1 || summaries[0].Responses != 1 {
		t.Fatalf("restarted listing = %+v", summaries)
	}
}

// TestAttackVersusDefenseIntegration runs the paper's two halves against
// each other end to end: the §2 attack wins on raw uploads and loses on
// Loki uploads, with the same seeds.
func TestAttackVersusDefenseIntegration(t *testing.T) {
	cfg := loki.DefaultDefenseConfig()
	cfg.Deanon.Population.RegistrySize = 40_000
	cfg.Deanon.Platform.WorkerPoolSize = 400
	cfg.Deanon.Quotas = [5]int{80, 80, 80, 30, 50}
	res, err := loki.RunDefense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.Attack.HealthExposed == 0 {
		t.Fatal("raw attack exposed nobody — nothing to defend against")
	}
	if res.Loki.Attack.HealthExposed*2 > res.Raw.Attack.HealthExposed {
		t.Errorf("defense too weak: %d exposed vs %d raw",
			res.Loki.Attack.HealthExposed, res.Raw.Attack.HealthExposed)
	}
	// Survivors of the Loki run are exactly the users who chose level
	// none — check via the experiment's own ground-truth scoring.
	if res.Loki.Attack.ReidentifiedCorrect != res.Loki.Attack.Reidentified {
		t.Error("noisy quasi-identifiers produced wrong re-identifications marked correct")
	}
}

// TestTransformedPlatformLevels checks the platform app-layer hook tags
// responses with each worker's own privacy preference.
func TestTransformedPlatformLevels(t *testing.T) {
	cfg := experiments.DefaultDefenseConfig()
	cfg.Deanon.Population.RegistrySize = 20_000
	cfg.Deanon.Platform.WorkerPoolSize = 300
	cfg.Deanon.Quotas = [5]int{60, 60, 60, 30, 40}

	// Run only the Loki half by reusing RunDefense and inspecting stats.
	res, err := experiments.RunDefense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Loki run must have collected responses at multiple levels:
	// its attack found fewer victims than raw but more than zero workers
	// remained linkable (the none-level users).
	if res.Loki.Attack.Linkable == 0 {
		t.Error("no linkable workers at all — level none users should remain linkable")
	}
}
