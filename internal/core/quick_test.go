package core

import (
	"math"
	"testing"
	"testing/quick"

	"loki/internal/rng"
	"loki/internal/survey"
)

// TestQuickObfuscateNeverInvalid: for random scales, levels and values,
// obfuscation succeeds and produces a structurally valid answer with the
// same question ID and kind.
func TestQuickObfuscateNeverInvalid(t *testing.T) {
	obf := newObf(t, DefaultOptions())
	r := rng.New(77)
	err := quick.Check(func(seed uint64) bool {
		g := rng.New(seed)
		lvl := Level(g.Intn(NumLevels))
		hi := float64(2 + g.Intn(20))
		q := &survey.Question{ID: "q", Kind: survey.Rating, ScaleMin: 1, ScaleMax: hi}
		raw := survey.RatingAnswer("q", float64(g.IntRange(1, int(hi))))
		out, err := obf.ObfuscateAnswer(q, raw, lvl, r)
		if err != nil {
			return false
		}
		if out.QuestionID != "q" || out.Kind != raw.Kind {
			return false
		}
		return !math.IsNaN(out.Rating) && !math.IsInf(out.Rating, 0)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickLedgerMonotone: recording responses never decreases the
// cumulative loss, whatever the mix of surveys and levels.
func TestQuickLedgerMonotone(t *testing.T) {
	obf := newObf(t, DefaultOptions())
	err := quick.Check(func(seed uint64) bool {
		g := rng.New(seed)
		lg, err := NewLedger(1e-6)
		if err != nil {
			return false
		}
		prev := 0.0
		for i := 0; i < 5; i++ {
			n := 1 + g.Intn(4)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('A' + j))
			}
			sv := survey.Lecturers(names)
			lvl := Level(g.Intn(NumLevels))
			if err := lg.RecordResponse(obf, sv, lvl); err != nil {
				return false
			}
			cur := lg.Rho()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickCostMatchesLedger: the precomputed response cost equals what
// a fresh ledger actually records, across random survey shapes and
// levels.
func TestQuickCostMatchesLedger(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := rng.New(seed)
		opts := DefaultOptions()
		obf, err := NewObfuscator(DefaultSchedule(), opts)
		if err != nil {
			return false
		}
		n := 1 + g.Intn(5)
		names := make([]string, n)
		for j := range names {
			names[j] = string(rune('A' + j))
		}
		sv := survey.Lecturers(names)
		lvl := Level(1 + g.Intn(3)) // low..high
		cost, ok, err := obf.CostOfResponse(sv, lvl)
		if err != nil || !ok {
			return false
		}
		lg, err := NewLedger(opts.Delta)
		if err != nil {
			return false
		}
		if err := lg.RecordResponse(obf, sv, lvl); err != nil {
			return false
		}
		return math.Abs(cost.Epsilon-lg.Spent().Epsilon) < 1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickScheduleSigmaScaling: a numeric question's σ scales linearly
// with its scale width at every level, and its ρ does not move.
func TestQuickScheduleSigmaScaling(t *testing.T) {
	s := DefaultSchedule()
	err := quick.Check(func(seed uint64) bool {
		g := rng.New(seed)
		w := float64(1 + g.Intn(50))
		q := &survey.Question{ID: "q", Kind: survey.Numeric, ScaleMin: 0, ScaleMax: w}
		for l := Low; l <= High; l++ {
			m, err := s.Mechanism(q, l)
			ref, refErr := s.ReferenceMechanism(l)
			if err != nil || refErr != nil {
				return false
			}
			if math.Abs(m.Gaussian.Sigma-s.Sigma[l]*w/ReferenceScaleWidth) > 1e-12 || m.Rho() != ref.Rho() {
				return false
			}
		}
		_, err := s.Mechanism(q, None)
		return err != nil
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
