package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"loki/internal/dp"
	"loki/internal/rng"
	"loki/internal/survey"
)

func TestLevelStringsAndParse(t *testing.T) {
	for _, l := range Levels() {
		parsed, err := ParseLevel(l.String())
		if err != nil || parsed != l {
			t.Errorf("round trip of %v failed: %v, %v", l, parsed, err)
		}
		if !l.Valid() {
			t.Errorf("%v not valid", l)
		}
	}
	for in, want := range map[string]Level{
		"NONE": None, " Medium ": Medium, "med": Medium, "": None, "HIGH": High,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("paranoid"); err == nil {
		t.Error("unknown level accepted")
	}
	if Level(9).Valid() {
		t.Error("Level(9) valid")
	}
	if !strings.Contains(Level(9).String(), "9") {
		t.Error("unknown level string")
	}
}

func TestScheduleValidate(t *testing.T) {
	def, lin := DefaultSchedule(), LinearSchedule()
	if err := def.Validate(); err != nil {
		t.Fatalf("default schedule invalid: %v", err)
	}
	if err := lin.Validate(); err != nil {
		t.Fatalf("linear schedule invalid: %v", err)
	}
	bad := DefaultSchedule()
	bad.Sigma[None] = 0.1
	if err := bad.Validate(); err == nil {
		t.Error("nonzero sigma at none accepted")
	}
	bad = DefaultSchedule()
	bad.Sigma[High] = 0.1 // below medium
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone sigma accepted")
	}
	bad = DefaultSchedule()
	bad.Sigma[Low] = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sigma at low accepted")
	}
	bad = DefaultSchedule()
	bad.RREpsilon[High] = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero RR epsilon accepted")
	}
	bad = DefaultSchedule()
	bad.RREpsilon[High] = 10 // above medium: weaker privacy at higher level
	if err := bad.Validate(); err == nil {
		t.Error("increasing RR epsilon accepted")
	}
}

func TestMechanismSigmaScaling(t *testing.T) {
	s := DefaultSchedule()
	rating := survey.Question{ID: "r", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5}
	wide := survey.Question{ID: "n", Kind: survey.Numeric, ScaleMin: 0, ScaleMax: 8}
	mc := survey.Question{ID: "m", Kind: survey.MultipleChoice, Options: []string{"a", "b"}}
	ft := survey.Question{ID: "t", Kind: survey.FreeText}
	m, err := s.Mechanism(&rating, Medium)
	if err != nil || m.Gaussian.Sigma != 1.0 || m.RR.K != 0 {
		t.Errorf("rating medium: %+v, %v", m, err)
	}
	// Scale width 8 is twice the reference 4 → twice the noise, and the
	// same ρ.
	w, err := s.Mechanism(&wide, Medium)
	if err != nil || w.Gaussian.Sigma != 2.0 || w.Rho() != m.Rho() {
		t.Errorf("wide medium: %+v (ρ %g vs %g), %v", w, w.Rho(), m.Rho(), err)
	}
	c, err := s.Mechanism(&mc, High)
	if err != nil || c.RR.K != 2 || c.RR.Epsilon != 0.5 || c.Gaussian != (dp.Gaussian{}) {
		t.Errorf("choice high: %+v, %v", c, err)
	}
	if _, err := s.Mechanism(&rating, None); err == nil {
		t.Error("level none has a mechanism")
	}
	if _, err := s.Mechanism(&ft, Low); err == nil {
		t.Error("free text has a mechanism")
	}
}

func TestNewObfuscatorValidation(t *testing.T) {
	bad := DefaultSchedule()
	bad.Sigma[None] = 1
	if _, err := NewObfuscator(bad, DefaultOptions()); err == nil {
		t.Error("bad schedule accepted")
	}
	opts := DefaultOptions()
	opts.Delta = 0
	if _, err := NewObfuscator(DefaultSchedule(), opts); err == nil {
		t.Error("delta 0 accepted")
	}
	opts.Delta = 1
	if _, err := NewObfuscator(DefaultSchedule(), opts); err == nil {
		t.Error("delta 1 accepted")
	}
}

func newObf(t *testing.T, opts Options) *Obfuscator {
	t.Helper()
	o, err := NewObfuscator(DefaultSchedule(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func ratingQ() *survey.Question {
	return &survey.Question{ID: "q", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5}
}

func TestObfuscateAnswerNonePassthrough(t *testing.T) {
	o := newObf(t, DefaultOptions())
	a := survey.RatingAnswer("q", 4)
	out, err := o.ObfuscateAnswer(ratingQ(), a, None, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rating != 4 {
		t.Errorf("level none altered the answer: %g", out.Rating)
	}
}

func TestObfuscateAnswerAddsNoise(t *testing.T) {
	o := newObf(t, DefaultOptions())
	r := rng.New(2)
	a := survey.RatingAnswer("q", 4)
	changed := 0
	for i := 0; i < 100; i++ {
		out, err := o.ObfuscateAnswer(ratingQ(), a, Medium, r)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rating != 4 {
			changed++
		}
	}
	if changed < 95 {
		t.Errorf("medium level left %d/100 answers untouched", 100-changed)
	}
	// Input must not be mutated.
	if a.Rating != 4 {
		t.Error("input answer mutated")
	}
}

func TestObfuscateAnswerErrors(t *testing.T) {
	o := newObf(t, DefaultOptions())
	r := rng.New(3)
	a := survey.RatingAnswer("q", 4)
	if _, err := o.ObfuscateAnswer(ratingQ(), a, Level(9), r); err == nil {
		t.Error("invalid level accepted")
	}
	if _, err := o.ObfuscateAnswer(nil, a, Medium, r); err == nil {
		t.Error("nil question accepted")
	}
	out := survey.RatingAnswer("q", 11) // out of scale
	if _, err := o.ObfuscateAnswer(ratingQ(), out, Medium, r); err == nil {
		t.Error("invalid raw answer accepted")
	}
	ft := &survey.Question{ID: "q", Kind: survey.FreeText}
	txt := survey.TextAnswer("q", "secret")
	if _, err := o.ObfuscateAnswer(ft, txt, Medium, r); err == nil {
		t.Error("free text obfuscation accepted")
	}
}

func TestObfuscateChoiceStaysInDomain(t *testing.T) {
	o := newObf(t, DefaultOptions())
	r := rng.New(5)
	q := &survey.Question{ID: "m", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}}
	flipped := 0
	for i := 0; i < 1000; i++ {
		out, err := o.ObfuscateAnswer(q, survey.ChoiceAnswer("m", 1), High, r)
		if err != nil {
			t.Fatal(err)
		}
		if out.Choice < 0 || out.Choice > 2 {
			t.Fatalf("choice %d outside domain", out.Choice)
		}
		if out.Choice != 1 {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("randomized response never flipped at high level")
	}
}

func TestObfuscateUnbiased(t *testing.T) {
	o := newObf(t, DefaultOptions())
	r := rng.New(6)
	q := ratingQ()
	const truth, n = 4.0, 40_000
	var sum float64
	for i := 0; i < n; i++ {
		out, err := o.ObfuscateAnswer(q, survey.RatingAnswer("q", truth), High, r)
		if err != nil {
			t.Fatal(err)
		}
		sum += out.Rating
	}
	if got := sum / n; math.Abs(got-truth) > 0.04 {
		t.Errorf("mean of noisy answers = %.4f, want %g", got, truth)
	}
}

func TestObfuscateNoiseScalesWithLevel(t *testing.T) {
	o := newObf(t, DefaultOptions())
	r := rng.New(7)
	q := ratingQ()
	const n = 20_000
	var prev float64
	for _, l := range []Level{Low, Medium, High} {
		var ss float64
		for i := 0; i < n; i++ {
			out, err := o.ObfuscateAnswer(q, survey.RatingAnswer("q", 3), l, r)
			if err != nil {
				t.Fatal(err)
			}
			d := out.Rating - 3
			ss += d * d
		}
		sd := math.Sqrt(ss / n)
		want := DefaultSchedule().Sigma[l]
		if math.Abs(sd-want) > 0.05 {
			t.Errorf("level %v empirical sigma %.3f, want %g", l, sd, want)
		}
		if sd <= prev {
			t.Errorf("noise did not grow at level %v", l)
		}
		prev = sd
	}
}

func lecturerSurvey() *survey.Survey {
	return survey.Lecturers([]string{"A", "B"})
}

func lecturerAnswers() []survey.Answer {
	return []survey.Answer{
		survey.RatingAnswer("lecturer-00", 4),
		survey.RatingAnswer("lecturer-01", 5),
	}
}

func TestObfuscateResponseWithLedger(t *testing.T) {
	o := newObf(t, DefaultOptions())
	lg, err := NewLedger(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sv := lecturerSurvey()
	out, err := o.ObfuscateResponse(sv, lecturerAnswers(), Medium, rng.New(8), lg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d answers", len(out))
	}
	if lg.Events() != 2 || lg.Responses() != 1 {
		t.Errorf("ledger recorded %d events, %d responses", lg.Events(), lg.Responses())
	}
	if lg.Spent().Epsilon <= 0 {
		t.Error("ledger spent nothing")
	}
	if lg.Unprotected() != 0 {
		t.Error("noisy answers counted as unprotected")
	}
}

func TestObfuscateResponseNoneUnprotected(t *testing.T) {
	o := newObf(t, DefaultOptions())
	lg, _ := NewLedger(1e-6)
	sv := lecturerSurvey()
	out, err := o.ObfuscateResponse(sv, lecturerAnswers(), None, rng.New(9), lg)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Rating != 4 || out[1].Rating != 5 {
		t.Error("level none altered answers")
	}
	if lg.Unprotected() != 2 {
		t.Errorf("unprotected = %d, want 2", lg.Unprotected())
	}
	if lg.Rho() != 0 {
		t.Error("level none accrued rho")
	}
}

func TestObfuscateResponseUnknownQuestion(t *testing.T) {
	o := newObf(t, DefaultOptions())
	sv := lecturerSurvey()
	answers := []survey.Answer{survey.RatingAnswer("phantom-question", 3)}
	if _, err := o.ObfuscateResponse(sv, answers, Medium, rng.New(31), nil); err == nil {
		t.Fatal("answer to unknown question accepted")
	}
}

func TestObfuscateResponseFreeTextRejected(t *testing.T) {
	o := newObf(t, DefaultOptions())
	sv := &survey.Survey{ID: "s", Questions: []survey.Question{
		{ID: "r", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		{ID: "t", Kind: survey.FreeText},
	}}
	answers := []survey.Answer{survey.RatingAnswer("r", 3), survey.TextAnswer("t", "x")}
	lg, _ := NewLedger(1e-6)
	if _, err := o.ObfuscateResponse(sv, answers, Medium, rng.New(10), lg); err == nil {
		t.Fatal("free-text survey accepted at level medium")
	}
	if lg.Events() != 0 {
		t.Error("failed obfuscation still charged the ledger")
	}
	// Level none passes through, free text included.
	if _, err := o.ObfuscateResponse(sv, answers, None, rng.New(10), nil); err != nil {
		t.Fatalf("level none rejected free text: %v", err)
	}
}

func TestCostOfResponse(t *testing.T) {
	o := newObf(t, DefaultOptions())
	sv := lecturerSurvey()
	if _, ok, err := o.CostOfResponse(sv, None); err != nil || ok {
		t.Errorf("none cost: ok=%v err=%v", ok, err)
	}
	var prev float64 = math.Inf(1)
	for _, l := range []Level{Low, Medium, High} {
		cost, ok, err := o.CostOfResponse(sv, l)
		if err != nil || !ok {
			t.Fatalf("cost at %v: %v", l, err)
		}
		if cost.Epsilon >= prev {
			t.Errorf("cost not decreasing with level: %v at %v", cost, l)
		}
		prev = cost.Epsilon
	}
	if _, _, err := o.CostOfResponse(sv, Level(11)); err == nil {
		t.Error("invalid level accepted")
	}
	ft := &survey.Survey{ID: "s", Questions: []survey.Question{{ID: "t", Kind: survey.FreeText}}}
	if _, _, err := o.CostOfResponse(ft, Medium); err == nil {
		t.Error("free-text survey cost accepted")
	}
}

func TestEpsilonPerRating(t *testing.T) {
	o := newObf(t, DefaultOptions())
	eps := o.EpsilonPerRating()
	if !math.IsInf(eps[None], 1) {
		t.Error("none epsilon not infinite")
	}
	for l := Low; l < High; l++ {
		if eps[l] <= eps[l+1] {
			t.Errorf("epsilon not decreasing: %v", eps)
		}
	}
}

func TestLedgerValidation(t *testing.T) {
	if _, err := NewLedger(0); err == nil {
		t.Error("delta 0 accepted")
	}
	if _, err := NewLedger(1); err == nil {
		t.Error("delta 1 accepted")
	}
	lg, err := NewLedger(1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Delta() != 1e-7 {
		t.Error("delta accessor")
	}
	o := newObf(t, DefaultOptions())
	if err := lg.RecordResponse(o, lecturerSurvey(), Level(42)); err == nil {
		t.Error("invalid level accepted by ledger")
	}
}

func TestLedgerAccumulation(t *testing.T) {
	lg, _ := NewLedger(1e-6)
	o := newObf(t, DefaultOptions())
	sv := lecturerSurvey()
	var prev float64
	for i := 1; i <= 5; i++ {
		if err := lg.RecordResponse(o, sv, High); err != nil {
			t.Fatal(err)
		}
		eps := lg.Spent().Epsilon
		if eps <= prev {
			t.Fatalf("spent ε not increasing: %g after %d responses", eps, i)
		}
		prev = eps
	}
	if lg.Responses() != 5 || lg.Events() != 10 {
		t.Errorf("responses=%d events=%d", lg.Responses(), lg.Events())
	}
	perSurvey := lg.PerSurvey()
	if len(perSurvey) != 1 || perSurvey[0].Events != 10 {
		t.Errorf("per-survey = %+v", perSurvey)
	}
	basic, err := lg.SpentBasic()
	if err != nil {
		t.Fatal(err)
	}
	if basic.Epsilon < lg.Spent().Epsilon {
		t.Errorf("basic %g below zCDP %g over 10 events", basic.Epsilon, lg.Spent().Epsilon)
	}
}

func TestLedgerBudget(t *testing.T) {
	lg, _ := NewLedger(1e-6)
	o := newObf(t, DefaultOptions())
	sv := lecturerSurvey()

	if _, err := lg.CanAfford(o, sv, High, 0); err == nil {
		t.Error("budget 0 accepted")
	}
	fits, err := lg.CanAfford(o, sv, None, 1000)
	if err != nil || fits {
		t.Error("level none fits a finite budget")
	}
	costHigh, _, err := o.CostOfResponse(sv, High)
	if err != nil {
		t.Fatal(err)
	}
	fits, err = lg.CanAfford(o, sv, High, costHigh.Epsilon*1.01)
	if err != nil || !fits {
		t.Errorf("fresh ledger cannot afford one high response: %v", err)
	}
	// Burn budget, then the same allowance no longer fits.
	for i := 0; i < 10; i++ {
		if err := lg.RecordResponse(o, sv, High); err != nil {
			t.Fatal(err)
		}
	}
	fits, err = lg.CanAfford(o, sv, High, costHigh.Epsilon*1.01)
	if err != nil || fits {
		t.Error("spent ledger still affords the original allowance")
	}

	// MinAffordableLevel prefers the most accurate affordable level.
	fresh, _ := NewLedger(1e-6)
	costLow, _, _ := o.CostOfResponse(sv, Low)
	l, ok, err := fresh.MinAffordableLevel(o, sv, costLow.Epsilon*1.01)
	if err != nil || !ok || l != Low {
		t.Errorf("min level = %v ok=%v err=%v, want low", l, ok, err)
	}
	costMed, _, _ := o.CostOfResponse(sv, Medium)
	l, ok, err = fresh.MinAffordableLevel(o, sv, costMed.Epsilon*1.01)
	if err != nil || !ok || l != Medium {
		t.Errorf("min level = %v, want medium", l)
	}
	_, ok, err = fresh.MinAffordableLevel(o, sv, 0.001)
	if err != nil || ok {
		t.Error("tiny budget affordable")
	}
}

func TestLedgerFreeTextRejected(t *testing.T) {
	lg, _ := NewLedger(1e-6)
	o := newObf(t, DefaultOptions())
	ft := &survey.Survey{ID: "s", Questions: []survey.Question{{ID: "t", Kind: survey.FreeText}}}
	if err := lg.RecordResponse(o, ft, Medium); err == nil {
		t.Error("free-text survey costed")
	}
	if _, err := lg.CanAfford(o, ft, Medium, 10); err == nil {
		t.Error("free-text survey affordable")
	}
}

func TestLedgerConcurrency(t *testing.T) {
	lg, _ := NewLedger(1e-6)
	o := newObf(t, DefaultOptions())
	sv := lecturerSurvey()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := lg.RecordResponse(o, sv, Medium); err != nil {
					t.Error(err)
					return
				}
				_ = lg.Spent()
			}
		}()
	}
	wg.Wait()
	if lg.Responses() != 200 || lg.Events() != 400 {
		t.Fatalf("responses=%d events=%d", lg.Responses(), lg.Events())
	}
}
