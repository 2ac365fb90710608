package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"loki/internal/rng"
	"loki/internal/survey"
)

// formulaRho is how the budget layer priced a response before the
// mechanism was one value: Δ²/(2σ²) per numeric answer, with σ the
// schedule's scaled by width/4, and ε²/2 per choice answer.
func formulaRho(s Schedule, sv *survey.Survey, l Level) float64 {
	total := 0.0
	for i := range sv.Questions {
		q := &sv.Questions[i]
		switch q.Kind {
		case survey.Rating, survey.Numeric:
			sens := q.ScaleMax - q.ScaleMin
			sigma := s.Sigma[l] * (q.ScaleMax - q.ScaleMin) / ReferenceScaleWidth
			total += sens * sens / (2 * sigma * sigma)
		case survey.MultipleChoice:
			total += s.RREpsilon[l] * s.RREpsilon[l] / 2
		}
	}
	return total
}

// pricedSurveys are the catalog's surveys plus numeric scales from a
// thousandth to 1e200 wide, at fixed seeds.
func pricedSurveys() []*survey.Survey {
	out := append(survey.ProfilingSurveys(), survey.Lecturers([]string{"A", "B"}), survey.Awareness())
	g := rng.New(48)
	for i := 0; i < 200; i++ {
		lo := (g.Float64() - 0.5) * math.Pow(10, float64(g.IntRange(-3, 200)))
		w := g.Float64() * math.Pow(10, float64(g.IntRange(-3, 200)))
		out = append(out, &survey.Survey{ID: "scale", Questions: []survey.Question{
			{ID: "n", Kind: survey.Numeric, ScaleMin: lo, ScaleMax: lo + w},
			{ID: "c", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
			{ID: "t", Kind: survey.FreeText},
		}})
	}
	return out
}

// TestResponseRhoMatchesFormula: under DefaultSchedule ResponseRho is
// bit for bit what Δ²/(2σ²) gave wherever that was finite, and finite
// where it was not (Δ² and σ² overflowing together gave NaN).
func TestResponseRhoMatchesFormula(t *testing.T) {
	o := newObf(t, DefaultOptions())
	overflowed := 0
	for _, sv := range pricedSurveys() {
		if err := sv.Validate(); err != nil {
			continue
		}
		for l := Low; l <= High; l++ {
			got, _, err := o.ResponseRho(sv, l)
			if err != nil {
				t.Fatalf("%s at %v: %v", sv.ID, l, err)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
				t.Fatalf("%s at %v: ρ %g", sv.ID, l, got)
			}
			want := formulaRho(o.schedule, sv, l)
			if math.IsNaN(want) || math.IsInf(want, 0) {
				overflowed++
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %+v at %v: ρ %v, formula %v", sv.ID, sv.Questions[0], l, got, want)
			}
		}
	}
	if overflowed == 0 {
		t.Fatal("no scale overflowed the formula; the wide cases are not covered")
	}
}

// TestResponseRhoAllocs: pricing a submit allocates nothing.
func TestResponseRhoAllocs(t *testing.T) {
	o := newObf(t, DefaultOptions())
	sv := pricedSurveys()[0]
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := o.ResponseRho(sv, Medium); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ResponseRho allocates %v times per call", n)
	}
}

// FuzzMechanism: for any question Validate accepts and any level above
// None, Mechanism errors or returns a finite ρ > 0 equal to the
// schedule's — the reference rating's for a numeric scale, ε²/2 for
// multiple choice — and ResponseRho errors or prices at exactly that ρ.
func FuzzMechanism(f *testing.F) {
	f.Add(uint8(0), 1.0, 5.0, uint8(0), uint8(1))
	f.Add(uint8(1), 0.0, 1e160, uint8(0), uint8(1))
	f.Add(uint8(1), -1e308, 1e308, uint8(0), uint8(3))
	f.Add(uint8(1), 0.0, 1e-320, uint8(0), uint8(2))
	f.Add(uint8(2), 0.0, 0.0, uint8(12), uint8(2))
	f.Add(uint8(3), 0.0, 0.0, uint8(0), uint8(1))
	s := DefaultSchedule()
	o, err := NewObfuscator(s, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind uint8, lo, hi float64, options uint8, level uint8) {
		q := survey.Question{ID: "q", Kind: survey.QuestionKind(kind % 4), ScaleMin: lo, ScaleMax: hi}
		for i := 0; i < int(options%40); i++ {
			q.Options = append(q.Options, string(rune('a'+i)))
		}
		if q.Validate() != nil {
			return
		}
		l := Level(1 + level%3)
		m, err := s.Mechanism(&q, l)
		rho, unprotected, rerr := o.ResponseRho(&survey.Survey{ID: "s", Questions: []survey.Question{q}}, l)
		if err != nil {
			if q.Kind != survey.FreeText && rerr == nil {
				t.Fatalf("%+v at %v: Mechanism errs (%v), ResponseRho prices at %g", q, l, err, rho)
			}
			return
		}
		want := s.RREpsilon[l] * s.RREpsilon[l] / 2
		if q.Kind != survey.MultipleChoice {
			ref, err := s.ReferenceMechanism(l)
			if err != nil {
				t.Fatal(err)
			}
			want = ref.Rho()
		}
		if got := m.Rho(); !(got > 0) || math.IsInf(got, 0) || got != want {
			t.Fatalf("%+v at %v: ρ %v, schedule's %v", q, l, got, want)
		}
		if rerr != nil || unprotected != 0 || rho != want {
			t.Fatalf("%+v at %v: ResponseRho %v, %d unprotected, %v; want %v", q, l, rho, unprotected, rerr, want)
		}
	})
}

// fixtureHistory is the response history the parent-written snapshot in
// testdata recorded, in order.
func fixtureHistory() []struct {
	sv *survey.Survey
	l  Level
} {
	lect := survey.Lecturers([]string{"A", "B", "C"})
	num := &survey.Survey{ID: "numeric", Questions: []survey.Question{
		{ID: "pct", Kind: survey.Numeric, ScaleMin: 0, ScaleMax: 100},
		{ID: "year", Kind: survey.Numeric, ScaleMin: 1900, ScaleMax: 2013},
	}}
	mc := &survey.Survey{ID: "choice", Questions: []survey.Question{
		{ID: "two", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
		{ID: "three", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
		{ID: "r", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
	}}
	return []struct {
		sv *survey.Survey
		l  Level
	}{{lect, Medium}, {num, Low}, {mc, High}, {lect, None}, {num, High}, {mc, Low}, {lect, Medium}, {num, Medium}, {mc, Medium}}
}

// TestParentLedgerSnapshots: ledgers written before the mechanism was
// one value restore to the totals they reported. One holds a fixed
// history, which this code records into the same bytes; the other was
// written with the Laplace option, since removed, and its "laplace"
// events still count as pure-ε releases.
func TestParentLedgerSnapshots(t *testing.T) {
	for _, c := range []struct {
		file                      string
		rho, spent, basic         float64
		events, unprot, responses int
	}{
		{"ledger-parent-history.json", 179.25, 278.7774890171574, 560.4117306212175, 21, 3, 9},
		{"ledger-parent-laplace.json", 180.25000000000006, 280.05472489963716, 43.42640687119285, 8, 0, 3},
	} {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			lg, err := ReadLedger(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			basic, err := lg.SpentBasic()
			if err != nil {
				t.Fatal(err)
			}
			if lg.Rho() != c.rho || lg.Spent().Epsilon != c.spent || basic.Epsilon != c.basic ||
				lg.Events() != c.events || lg.Unprotected() != c.unprot || lg.Responses() != c.responses {
				t.Fatalf("restored ρ %v ε %v basic ε %v, %d events, %d unprotected, %d responses",
					lg.Rho(), lg.Spent().Epsilon, basic.Epsilon, lg.Events(), lg.Unprotected(), lg.Responses())
			}
			if again, err := lg.Snapshot(); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("restored snapshot re-writes differently (%v)", err)
			}
		})
	}
	o := newObf(t, DefaultOptions())
	lg, err := NewLedger(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range fixtureHistory() {
		if err := lg.RecordResponse(o, h.sv, h.l); err != nil {
			t.Fatal(err)
		}
	}
	got, err := lg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ledger-parent-history.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the fixed history records different bytes:\n%s", got)
	}
}
