package platform

import (
	"fmt"
	"strings"
	"testing"

	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/store"
	"loki/internal/survey"
)

func testPop(t *testing.T, seed uint64) *population.Population {
	t.Helper()
	cfg := population.DefaultConfig()
	cfg.RegistrySize = 2000
	cfg.NumZIPs = 10
	pop, err := population.Generate(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func testPlatform(t *testing.T, seed uint64, mut func(*Config)) (*Platform, *population.Population) {
	t.Helper()
	pop := testPop(t, seed)
	cfg := DefaultConfig()
	cfg.WorkerPoolSize = 300
	if mut != nil {
		mut(&cfg)
	}
	pl, err := New(pop, cfg, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return pl, pop
}

func TestConfigValidate(t *testing.T) {
	pop := testPop(t, 1)
	good := DefaultConfig()
	good.WorkerPoolSize = 100
	if err := good.Validate(pop); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if err := good.Validate(nil); err == nil {
		t.Error("nil population accepted")
	}
	muts := []func(*Config){
		func(c *Config) { c.WorkerPoolSize = 0 },
		func(c *Config) { c.WorkerPoolSize = pop.Size() + 1 },
		func(c *Config) { c.HeavyFraction = -0.1 },
		func(c *Config) { c.HeavyFraction = 1.1 },
		func(c *Config) { c.HeavyActivityLo = 0.9; c.HeavyActivityHi = 0.5 },
		func(c *Config) { c.CasualActivityLo = -0.1 },
		func(c *Config) { c.CasualActivityHi = 1.5 },
	}
	for i, mut := range muts {
		c := DefaultConfig()
		c.WorkerPoolSize = 100
		mut(&c)
		if err := c.Validate(pop); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPostSurveyValidation(t *testing.T) {
	pl, _ := testPlatform(t, 2, nil)
	sv := survey.Astrology()
	if err := pl.PostSurvey(sv, 0); err == nil {
		t.Error("quota 0 accepted")
	}
	if err := pl.PostSurveyAppeal(sv, 10, 0); err == nil {
		t.Error("appeal 0 accepted")
	}
	if err := pl.PostSurveyAppeal(sv, 10, 1.5); err == nil {
		t.Error("appeal > 1 accepted")
	}
	bad := &survey.Survey{ID: "bad"}
	if err := pl.PostSurvey(bad, 10); err == nil {
		t.Error("invalid survey accepted")
	}
	if err := pl.PostSurvey(sv, 10); err != nil {
		t.Fatal(err)
	}
	if err := pl.PostSurvey(sv, 10); err == nil {
		t.Error("duplicate survey accepted")
	}
	if got := len(pl.Surveys()); got != 1 {
		t.Errorf("surveys = %d", got)
	}
}

func TestQuotaRespectedAndClose(t *testing.T) {
	pl, _ := testPlatform(t, 3, nil)
	sv := survey.Astrology()
	const quota = 40
	if err := pl.PostSurvey(sv, quota); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(10); err != nil {
		t.Fatal(err)
	}
	rs, err := pl.Responses(sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != quota {
		t.Fatalf("collected %d responses, quota %d", len(rs), quota)
	}
	stats := pl.Stats()
	if len(stats) != 1 || stats[0].ClosedDay < 0 {
		t.Fatalf("HIT did not close: %+v", stats)
	}
	if pl.Day() != 10 {
		t.Errorf("day = %d", pl.Day())
	}
}

func TestNoDuplicateResponsesPerWorker(t *testing.T) {
	pl, _ := testPlatform(t, 4, nil)
	sv := survey.Coverage()
	if err := pl.PostSurvey(sv, 250); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(30); err != nil {
		t.Fatal(err)
	}
	rs, _ := pl.Responses(sv.ID)
	seen := map[string]bool{}
	for i := range rs {
		if seen[rs[i].WorkerID] {
			t.Fatalf("worker %s responded twice", rs[i].WorkerID)
		}
		seen[rs[i].WorkerID] = true
	}
}

func TestStableIDsLink(t *testing.T) {
	pl, _ := testPlatform(t, 5, nil)
	s1, s2 := survey.Astrology(), survey.Coverage()
	if err := pl.PostSurvey(s1, 200); err != nil {
		t.Fatal(err)
	}
	if err := pl.PostSurvey(s2, 200); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(25); err != nil {
		t.Fatal(err)
	}
	r1, _ := pl.Responses(s1.ID)
	r2, _ := pl.Responses(s2.ID)
	ids1 := map[string]bool{}
	for i := range r1 {
		ids1[r1[i].WorkerID] = true
	}
	shared := 0
	for i := range r2 {
		if ids1[r2[i].WorkerID] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("stable IDs produced no cross-survey overlap")
	}
	// The requester's view matches ground truth under stable IDs.
	if pl.UniqueWorkers() != pl.UniquePersons() {
		t.Errorf("unique workers %d != unique persons %d", pl.UniqueWorkers(), pl.UniquePersons())
	}
}

func TestPseudonymousIDsUnlink(t *testing.T) {
	pl, _ := testPlatform(t, 6, func(c *Config) { c.IDPolicy = PseudonymousIDs })
	s1, s2 := survey.Astrology(), survey.Coverage()
	if err := pl.PostSurvey(s1, 200); err != nil {
		t.Fatal(err)
	}
	if err := pl.PostSurvey(s2, 200); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(25); err != nil {
		t.Fatal(err)
	}
	r1, _ := pl.Responses(s1.ID)
	r2, _ := pl.Responses(s2.ID)
	ids1 := map[string]bool{}
	for i := range r1 {
		ids1[r1[i].WorkerID] = true
	}
	for i := range r2 {
		if ids1[r2[i].WorkerID] {
			t.Fatal("pseudonymous IDs overlapped across surveys")
		}
	}
	// The requester now over-counts unique workers.
	if pl.UniqueWorkers() <= pl.UniquePersons() {
		t.Errorf("pseudonyms should inflate observed workers: %d vs %d",
			pl.UniqueWorkers(), pl.UniquePersons())
	}
}

func TestCostAccounting(t *testing.T) {
	pl, _ := testPlatform(t, 7, nil)
	sv := survey.Astrology() // 4 cents
	if err := pl.PostSurvey(sv, 50); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(10); err != nil {
		t.Fatal(err)
	}
	rs, _ := pl.Responses(sv.ID)
	if got := pl.CostCents(); got != len(rs)*4 {
		t.Errorf("cost = %d, want %d", got, len(rs)*4)
	}
	if pl.TotalResponses() != len(rs) {
		t.Error("TotalResponses mismatch")
	}
}

func TestTransformHook(t *testing.T) {
	tr := func(p *population.Person, s *survey.Survey, answers []survey.Answer) ([]survey.Answer, string, bool, error) {
		return answers, "medium", true, nil
	}
	pl, _ := testPlatform(t, 8, func(c *Config) { c.Transform = tr })
	sv := survey.Awareness()
	if err := pl.PostSurvey(sv, 30); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(10); err != nil {
		t.Fatal(err)
	}
	rs, _ := pl.Responses(sv.ID)
	if len(rs) == 0 {
		t.Fatal("no responses")
	}
	for i := range rs {
		if rs[i].PrivacyLevel != "medium" || !rs[i].Obfuscated {
			t.Fatal("transform metadata not recorded")
		}
	}
}

func TestTransformErrorPropagates(t *testing.T) {
	tr := func(p *population.Person, s *survey.Survey, answers []survey.Answer) ([]survey.Answer, string, bool, error) {
		return nil, "", false, fmt.Errorf("device exploded")
	}
	pl, _ := testPlatform(t, 21, func(c *Config) { c.Transform = tr })
	if err := pl.PostSurvey(survey.Awareness(), 30); err != nil {
		t.Fatal(err)
	}
	err := pl.RunDays(5)
	if err == nil {
		t.Fatal("transform error swallowed")
	}
	if !strings.Contains(err.Error(), "device exploded") {
		t.Errorf("error lost context: %v", err)
	}
}

func TestTruePersonOf(t *testing.T) {
	pl, pop := testPlatform(t, 9, nil)
	sv := survey.Awareness()
	if err := pl.PostSurvey(sv, 30); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(10); err != nil {
		t.Fatal(err)
	}
	rs, _ := pl.Responses(sv.ID)
	for i := range rs {
		pid, ok := pl.TruePersonOf(rs[i].WorkerID)
		if !ok {
			t.Fatalf("no ground truth for %s", rs[i].WorkerID)
		}
		if pid < 0 || pid >= pop.Size() {
			t.Fatalf("ground truth person %d out of range", pid)
		}
	}
	if _, ok := pl.TruePersonOf("W-nonexistent"); ok {
		t.Error("phantom worker resolved")
	}
}

func TestResponsesUnknownSurvey(t *testing.T) {
	pl, _ := testPlatform(t, 10, nil)
	if _, err := pl.Responses("nope"); err == nil {
		t.Error("unknown survey accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []HITStats {
		pl, _ := testPlatform(t, 11, nil)
		if err := pl.PostSurvey(survey.Astrology(), 80); err != nil {
			t.Fatal(err)
		}
		if err := pl.PostSurvey(survey.Health(), 40); err != nil {
			t.Fatal(err)
		}
		if err := pl.RunDays(12); err != nil {
			t.Fatal(err)
		}
		return pl.Stats()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestWorkerTagOpaque(t *testing.T) {
	a := workerTag(1, "")
	b := workerTag(2, "")
	c := workerTag(1, "s")
	if a == b || a == c {
		t.Error("worker tags collide")
	}
	if !strings.HasPrefix(a, "W") {
		t.Errorf("tag format: %s", a)
	}
}

func TestIDPolicyString(t *testing.T) {
	if StableIDs.String() != "stable-ids" || PseudonymousIDs.String() != "pseudonymous-ids" {
		t.Error("policy strings")
	}
	if IDPolicy(7).String() == "" {
		t.Error("unknown policy string empty")
	}
}

func TestActivityQuantiles(t *testing.T) {
	pl, _ := testPlatform(t, 12, nil)
	qs := pl.WorkerActivityQuantiles([]float64{-1, 0, 0.5, 1, 2})
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
}

func TestAppealLimitsParticipation(t *testing.T) {
	runWith := func(appeal float64) int {
		pl, _ := testPlatform(t, 13, nil)
		if err := pl.PostSurveyAppeal(survey.Awareness(), 300, appeal); err != nil {
			t.Fatal(err)
		}
		if err := pl.RunDays(40); err != nil {
			t.Fatal(err)
		}
		rs, _ := pl.Responses(survey.AwarenessID)
		return len(rs)
	}
	full := runWith(1)
	limited := runWith(0.2)
	if limited >= full {
		t.Errorf("appeal 0.2 collected %d responses, full appeal %d", limited, full)
	}
}

// TestSinkPersistsStreams: with a Sink configured, every posted survey
// and accepted response lands in the store, and the persisted stream
// matches the requester's view exactly.
func TestSinkPersistsStreams(t *testing.T) {
	sink := store.NewMem()
	defer sink.Close()
	pl, _ := testPlatform(t, 11, func(c *Config) { c.Sink = sink })
	sv := survey.Astrology()
	if err := pl.PostSurvey(sv, 30); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunDays(5); err != nil {
		t.Fatal(err)
	}
	got, err := pl.Responses(sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	persisted, err := store.CollectResponses(sink, sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != len(got) {
		t.Fatalf("sink holds %d responses, platform %d", len(persisted), len(got))
	}
	for i := range got {
		if persisted[i].WorkerID != got[i].WorkerID || persisted[i].Day != got[i].Day {
			t.Fatalf("sink stream diverges at %d: %+v vs %+v", i, persisted[i], got[i])
		}
	}
	// A survey already present in the sink (replayed durable store) is
	// not an error.
	pl2, _ := testPlatform(t, 12, func(c *Config) { c.Sink = sink })
	if err := pl2.PostSurvey(survey.Astrology(), 5); err != nil {
		t.Fatalf("re-posting into a pre-seeded sink: %v", err)
	}
}

// TestSinkFailureSurfaces: a closed sink must fail the simulation, not
// silently drop the stream.
func TestSinkFailureSurfaces(t *testing.T) {
	sink := store.NewMem()
	pl, _ := testPlatform(t, 13, func(c *Config) { c.Sink = sink })
	if err := pl.PostSurvey(survey.Astrology(), 30); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	if err := pl.RunDays(5); err == nil {
		t.Fatal("closed sink did not surface")
	}
}
