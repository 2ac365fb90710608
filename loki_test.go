package loki_test

import (
	"math"
	"testing"

	"loki"
)

// TestFacadeObfuscation drives the paper's core mechanism purely through
// the public API.
func TestFacadeObfuscation(t *testing.T) {
	sv := &loki.Survey{
		ID:    "t",
		Title: "t",
		Questions: []loki.Question{
			{ID: "q1", Text: "q1", Kind: loki.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q2", Text: "q2", Kind: loki.MultipleChoice, Options: []string{"a", "b", "c"}},
		},
	}
	if err := sv.Validate(); err != nil {
		t.Fatal(err)
	}
	obf, err := loki.NewObfuscator(loki.DefaultSchedule(), loki.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := loki.NewLedger(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	raw := []loki.Answer{loki.RatingAnswer("q1", 4), loki.ChoiceAnswer("q2", 1)}
	noisy, err := obf.ObfuscateResponse(sv, raw, loki.Medium, loki.NewRNG(1), ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(noisy) != 2 {
		t.Fatalf("answers = %d", len(noisy))
	}
	if ledger.Spent().Epsilon <= 0 {
		t.Error("ledger empty after obfuscation")
	}
	if lvl, err := loki.ParseLevel("medium"); err != nil || lvl != loki.Medium {
		t.Error("ParseLevel through facade broken")
	}
}

// TestFacadeCatalog checks the paper's surveys are reachable.
func TestFacadeCatalog(t *testing.T) {
	for _, sv := range []*loki.Survey{
		loki.AstrologySurvey(), loki.MatchmakingSurvey(), loki.CoverageSurvey(),
		loki.HealthSurvey(), loki.AwarenessSurvey(), loki.LecturerSurvey([]string{"X"}),
	} {
		if err := sv.Validate(); err != nil {
			t.Errorf("catalog survey %q: %v", sv.ID, err)
		}
	}
}

// TestFacadeSubstrates exercises population → registry → platform →
// attack through the public names.
func TestFacadeSubstrates(t *testing.T) {
	popCfg := loki.DefaultPopulationConfig()
	popCfg.RegistrySize = 5000
	pop, err := loki.GeneratePopulation(popCfg, loki.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	reg := loki.NewRegistry(pop)
	if reg.Size() != 5000 {
		t.Fatalf("registry size %d", reg.Size())
	}
	plCfg := loki.DefaultPlatformConfig()
	plCfg.WorkerPoolSize = 200
	pl, err := loki.NewPlatform(pop, plCfg, loki.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.PostSurvey(loki.AstrologySurvey(), 50); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(5); err != nil {
		t.Fatal(err)
	}
	if pl.TotalResponses() == 0 {
		t.Fatal("platform collected nothing")
	}
	if _, err := loki.NewAttack(reg, loki.DefaultAttackConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeTrial runs Fig. 2 through the facade and sanity-checks the
// paper's qualitative claims.
func TestFacadeTrial(t *testing.T) {
	res, err := loki.RunLecturerTrial(loki.DefaultTrialConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAbsDeviation[loki.High] <= res.MeanAbsDeviation[loki.None] {
		t.Error("Fig. 2 shape lost through the facade")
	}
	if math.IsNaN(res.NaiveRMSE) {
		t.Error("RMSE NaN")
	}
}

// TestFacadeStores opens every store backend purely through the public
// API and pushes one response end to end: the ingest store drops in
// wherever a Store is expected.
func TestFacadeStores(t *testing.T) {
	sv := &loki.Survey{
		ID:    "facade-store",
		Title: "t",
		Questions: []loki.Question{
			{ID: "q1", Text: "q1", Kind: loki.Rating, ScaleMin: 1, ScaleMax: 5},
		},
	}
	resp := &loki.Response{
		SurveyID:     sv.ID,
		WorkerID:     "w1",
		Answers:      []loki.Answer{loki.RatingAnswer("q1", 4)},
		PrivacyLevel: "medium",
		Obfuscated:   true,
	}
	fileStore, err := loki.OpenFileStoreWith(t.TempDir()+"/loki.jsonl",
		loki.FileStoreOptions{Sync: loki.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ingestStore, err := loki.OpenIngestStore(t.TempDir(), loki.IngestConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []loki.Store{loki.NewMemStore(), fileStore, ingestStore} {
		if o, err := st.Publish(sv); err != nil || o != loki.PublishCreated {
			t.Fatalf("%T: publish: %v, %v", st, o, err)
		}
		if err := st.AppendResponse(resp); err != nil {
			t.Fatal(err)
		}
		if n := st.ResponseCount(sv.ID); n != 1 {
			t.Fatalf("%T: ResponseCount = %d", st, n)
		}
		srv, err := loki.NewServer(loki.ServerConfig{
			Store:          st,
			Schedule:       loki.DefaultSchedule(),
			RequesterToken: "tok",
		})
		if err != nil || srv == nil {
			t.Fatalf("%T: server refused store: %v", st, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stats := ingestStore.Stats()
	if stats.Appends != 1 || stats.Commits != 1 {
		t.Fatalf("ingest stats = %+v", stats)
	}
}
