package survey

import (
	"encoding/json"
	"math"
	"testing"
)

func TestFingerprintStability(t *testing.T) {
	sv := Awareness()
	fp := sv.Fingerprint()
	if fp == "" || len(fp) != 64 {
		t.Fatalf("fingerprint = %q", fp)
	}
	if sv.Clone().Fingerprint() != fp {
		t.Error("clone fingerprints differently")
	}
	// Stable across a JSON round trip — the shape a definition has after
	// store replay.
	b, err := json.Marshal(sv)
	if err != nil {
		t.Fatal(err)
	}
	var back Survey
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != fp {
		t.Error("fingerprint changed across marshal/unmarshal")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Awareness()
	fp := base.Fingerprint()
	mutations := []func(*Survey){
		func(s *Survey) { s.Title = "x" },
		func(s *Survey) { s.RewardCents++ },
		func(s *Survey) { s.Questions[0].Text = "x" },
		func(s *Survey) { s.Questions[0].Options = append(s.Questions[0].Options, "maybe") },
		func(s *Survey) { s.Questions = s.Questions[:len(s.Questions)-1] },
	}
	for i, mutate := range mutations {
		sv := Awareness()
		mutate(sv)
		if sv.Fingerprint() == fp {
			t.Errorf("mutation %d not reflected in fingerprint", i)
		}
	}
}

// TestEqualAgreesWithFingerprint: Equal is the fingerprint comparison
// without the hashing — over generated surveys, their clones and JSON
// round trips, and single-field mutations of each (including the ones
// JSON renders alike, nil against empty, and unlike, 0 against −0).
func TestEqualAgreesWithFingerprint(t *testing.T) {
	mutations := []func(*Survey){
		func(s *Survey) {},
		func(s *Survey) { s.ID += "x" },
		func(s *Survey) { s.Title = "x" },
		func(s *Survey) { s.Description = "d" },
		func(s *Survey) { s.RewardCents++ },
		func(s *Survey) { s.Questions[0].ID += "x" },
		func(s *Survey) { s.Questions[0].Text = "x" },
		func(s *Survey) { s.Questions[0].Kind = FreeText },
		func(s *Survey) { s.Questions[0].ScaleMin-- },
		func(s *Survey) { s.Questions[0].ScaleMax++ },
		func(s *Survey) { s.Questions[0].ScaleMin = math.Copysign(0, -1) },
		func(s *Survey) { s.Questions[0].Attribute = AttrZIP },
		func(s *Survey) { s.Questions[0].Sensitive = !s.Questions[0].Sensitive },
		func(s *Survey) { s.Questions[0].Options = append(s.Questions[0].Options, "maybe") },
		func(s *Survey) { s.Questions[0].Options = append([]string{}, s.Questions[0].Options...) },
		func(s *Survey) { s.Questions = s.Questions[:len(s.Questions)-1] },
		func(s *Survey) { s.Questions = append(s.Questions, Question{ID: "new", Kind: FreeText}) },
		func(s *Survey) {
			s.Consistency = append(s.Consistency, ConsistencyPair{QuestionA: "a", QuestionB: "b"})
		},
		func(s *Survey) { s.Consistency = append([]ConsistencyPair{}, s.Consistency...) },
		func(s *Survey) {
			for i := range s.Consistency {
				s.Consistency[i].Tolerance += 0.5
			}
		},
		func(s *Survey) {
			for i := range s.Consistency {
				s.Consistency[i].Rule = RuleAgeYear
			}
		},
	}
	bases := ProfilingSurveys()
	for seed := uint64(1); seed <= 50; seed++ {
		bases = append(bases, genSurvey(seed))
	}
	for _, base := range bases {
		b, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var back Survey
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !base.Equal(&back) || !back.Equal(base.Clone()) {
			t.Fatalf("%q: not Equal to its own JSON round trip or clone", base.ID)
		}
		for i, mutate := range mutations {
			sv := base.Clone()
			mutate(sv)
			sameFP := sv.Fingerprint() == base.Fingerprint()
			if got := sv.Equal(base); got != sameFP || base.Equal(sv) != sameFP {
				t.Errorf("%q mutation %d: Equal = %v, fingerprints equal = %v", base.ID, i, got, sameFP)
			}
		}
	}
}
