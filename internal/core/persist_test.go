package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loki/internal/dp"
	"loki/internal/rng"
	"loki/internal/survey"
)

func populatedLedger(t *testing.T) *Ledger {
	t.Helper()
	lg, err := NewLedger(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	o := newObf(t, DefaultOptions())
	sv := survey.Lecturers([]string{"A", "B", "C"})
	for i := 0; i < 4; i++ {
		if err := lg.RecordResponse(o, sv, Medium); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.RecordResponse(o, sv, None); err != nil {
		t.Fatal(err)
	}
	// A choice question adds a pure-ε event too.
	mc := &survey.Survey{ID: "mc", Questions: []survey.Question{
		{ID: "q", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
	}}
	if err := lg.RecordResponse(o, mc, High); err != nil {
		t.Fatal(err)
	}
	return lg
}

func TestLedgerRoundTrip(t *testing.T) {
	lg := populatedLedger(t)
	var buf bytes.Buffer
	if _, err := lg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Delta() != lg.Delta() {
		t.Error("delta lost")
	}
	if back.Responses() != lg.Responses() {
		t.Errorf("responses %d vs %d", back.Responses(), lg.Responses())
	}
	if back.Events() != lg.Events() {
		t.Errorf("events %d vs %d", back.Events(), lg.Events())
	}
	if back.Unprotected() != lg.Unprotected() {
		t.Errorf("unprotected %d vs %d", back.Unprotected(), lg.Unprotected())
	}
	if math.Abs(back.Rho()-lg.Rho()) > 1e-12 {
		t.Errorf("rho %g vs %g", back.Rho(), lg.Rho())
	}
	if math.Abs(back.Spent().Epsilon-lg.Spent().Epsilon) > 1e-9 {
		t.Errorf("spent %v vs %v", back.Spent(), lg.Spent())
	}
	// Per-survey attribution survives too.
	if len(back.PerSurvey()) != len(lg.PerSurvey()) {
		t.Error("per-survey tags lost")
	}
}

func TestLedgerFileRoundTrip(t *testing.T) {
	lg := populatedLedger(t)
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := lg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Events() != lg.Events() || back.Unprotected() != lg.Unprotected() {
		t.Error("file round trip lost state")
	}
	// A crash's stale temp file is replaced, not accumulated: saving
	// again leaves the ledger and nothing else.
	if err := os.WriteFile(path+".tmp", []byte(`{"version":1,"ev`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := lg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if names, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(names) != 1 {
		t.Errorf("directory holds %v", names)
	}
	if _, err := LoadLedgerFile(path); err != nil {
		t.Error(err)
	}
	// Restored ledgers keep accumulating.
	o := newObf(t, DefaultOptions())
	before := back.Spent().Epsilon
	if err := back.RecordResponse(o, survey.Lecturers([]string{"X"}), Low); err != nil {
		t.Fatal(err)
	}
	if back.Spent().Epsilon <= before {
		t.Error("restored ledger does not accumulate")
	}
}

func TestLoadLedgerErrors(t *testing.T) {
	if _, err := LoadLedgerFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ReadLedger(strings.NewReader("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadLedger(strings.NewReader(`{"version":99,"delta":1e-6}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := ReadLedger(strings.NewReader(`{"version":1,"delta":2}`)); err == nil {
		t.Error("invalid delta accepted")
	}
	if _, err := ReadLedger(strings.NewReader(`{"version":1,"delta":1e-6,"unprotected":-3}`)); err == nil {
		t.Error("negative unprotected accepted")
	}
	if _, err := ReadLedger(strings.NewReader(
		`{"version":1,"delta":1e-6,"events":[{"Mechanism":"gaussian","Rho":-1}]}`)); err == nil {
		t.Error("negative-cost event accepted")
	}
}

func TestSaveFileBadPath(t *testing.T) {
	lg := populatedLedger(t)
	if err := lg.SaveFile(filepath.Join(t.TempDir(), "no-such-dir", "ledger.json")); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestLaplaceNoiseOption(t *testing.T) {
	opts := DefaultOptions()
	opts.Noise = NoiseLaplace
	o := newObf(t, opts)
	r := rng.New(99)
	q := ratingQ()
	const n = 40_000
	var sum, ss float64
	for i := 0; i < n; i++ {
		out, err := o.ObfuscateAnswer(q, survey.RatingAnswer("q", 3), Medium, r)
		if err != nil {
			t.Fatal(err)
		}
		d := out.Rating - 3
		sum += d
		ss += d * d
	}
	if math.Abs(sum/n) > 0.03 {
		t.Errorf("laplace noise biased: %g", sum/n)
	}
	// Variance-matched: empirical stddev ≈ schedule σ (1.0 at medium).
	if sd := math.Sqrt(ss / n); math.Abs(sd-1.0) > 0.05 {
		t.Errorf("laplace empirical sigma %.3f, want 1.0", sd)
	}
}

func TestLaplaceCostIsPure(t *testing.T) {
	opts := DefaultOptions()
	opts.Noise = NoiseLaplace
	o := newObf(t, opts)
	lg, _ := NewLedger(1e-6)
	sv := lecturerSurvey()
	if err := lg.RecordResponse(o, sv, Medium); err != nil {
		t.Fatal(err)
	}
	// Laplace(b = σ/√2 = 1/√2) with Δ=4 → ε = 4√2 per answer.
	wantEps := 4 * math.Sqrt2
	for _, tc := range lg.PerSurvey() {
		// pure events contribute ρ = ε²/2 each; 2 answers.
		wantRho := 2 * wantEps * wantEps / 2
		if math.Abs(tc.Rho-wantRho) > 1e-9 {
			t.Errorf("rho = %g, want %g", tc.Rho, wantRho)
		}
	}
	// CostOfResponse agrees with the ledger's accounting.
	cost, ok, err := o.CostOfResponse(sv, Medium)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if math.Abs(cost.Epsilon-lg.Spent().Epsilon) > 1e-9 {
		t.Errorf("precomputed cost %g != ledger %g", cost.Epsilon, lg.Spent().Epsilon)
	}
}

func TestNoiseKindString(t *testing.T) {
	if NoiseGaussian.String() != "gaussian" || NoiseLaplace.String() != "laplace" {
		t.Error("noise kind strings")
	}
	if NoiseKind(9).String() == "" {
		t.Error("unknown noise kind string empty")
	}
}

func TestLedgerSnapshotRestore(t *testing.T) {
	lg := populatedLedger(t)
	snap, err := lg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh ledger (different delta, some state of its
	// own): every total must come back exactly.
	fresh, err := NewLedger(1e-4)
	if err != nil {
		t.Fatal(err)
	}
	o := newObf(t, DefaultOptions())
	sv := survey.Lecturers([]string{"X"})
	if err := fresh.RecordResponse(o, sv, Low); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Delta() != lg.Delta() {
		t.Errorf("delta %g vs %g", fresh.Delta(), lg.Delta())
	}
	if fresh.Rho() != lg.Rho() {
		t.Errorf("rho %g vs %g", fresh.Rho(), lg.Rho())
	}
	if fresh.Spent() != lg.Spent() {
		t.Errorf("spent %v vs %v", fresh.Spent(), lg.Spent())
	}
	if fresh.Unprotected() != lg.Unprotected() {
		t.Errorf("unprotected %d vs %d", fresh.Unprotected(), lg.Unprotected())
	}
	if fresh.Responses() != lg.Responses() {
		t.Errorf("responses %d vs %d", fresh.Responses(), lg.Responses())
	}
	if fresh.Events() != lg.Events() {
		t.Errorf("events %d vs %d", fresh.Events(), lg.Events())
	}

	// And the round trip is lossless through a second snapshot.
	again, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again) {
		t.Error("second snapshot differs from first")
	}

	if err := fresh.Restore([]byte("{nope")); err == nil {
		t.Error("corrupt snapshot restored")
	}
}

func TestResponseRho(t *testing.T) {
	o := newObf(t, DefaultOptions())
	sv := survey.Lecturers([]string{"A", "B"})

	// None: free of finite cost, every answer unprotected.
	rho, unprot, err := o.ResponseRho(sv, None)
	if err != nil {
		t.Fatal(err)
	}
	if rho != 0 || unprot != len(sv.Questions) {
		t.Fatalf("None: rho=%g unprot=%d, want 0/%d", rho, unprot, len(sv.Questions))
	}

	// Above None the rho must agree with CostOfResponse's composition.
	rho, unprot, err = o.ResponseRho(sv, Medium)
	if err != nil {
		t.Fatal(err)
	}
	if rho <= 0 || unprot != 0 {
		t.Fatalf("Medium: rho=%g unprot=%d", rho, unprot)
	}
	cost, ok, err := o.CostOfResponse(sv, Medium)
	if err != nil || !ok {
		t.Fatalf("CostOfResponse: %v ok=%v", err, ok)
	}
	if got := dp.EpsilonFromRho(rho, DefaultOptions().Delta); math.Abs(got-cost.Epsilon) > 1e-12 {
		t.Fatalf("rho→ε %g disagrees with CostOfResponse ε %g", got, cost.Epsilon)
	}

	// Free-text questions are excluded from rho, counted unprotected.
	ft := &survey.Survey{ID: "ft", Questions: []survey.Question{
		{ID: "r", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		{ID: "t", Kind: survey.FreeText},
	}}
	rho2, unprot, err := o.ResponseRho(ft, Medium)
	if err != nil {
		t.Fatal(err)
	}
	if rho2 <= 0 || unprot != 1 {
		t.Fatalf("free-text survey: rho=%g unprot=%d, want >0/1", rho2, unprot)
	}

	if _, _, err := o.ResponseRho(sv, Level(99)); err == nil {
		t.Fatal("invalid level accepted")
	}
}
