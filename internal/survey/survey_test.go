package survey

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func ratingQ(id string) Question {
	return Question{ID: id, Text: id, Kind: Rating, ScaleMin: 1, ScaleMax: 5}
}

func TestQuestionValidate(t *testing.T) {
	cases := []struct {
		name string
		q    Question
		ok   bool
	}{
		{"rating", ratingQ("q"), true},
		{"empty id", Question{Kind: Rating, ScaleMin: 1, ScaleMax: 5}, false},
		{"inverted scale", Question{ID: "q", Kind: Rating, ScaleMin: 5, ScaleMax: 1}, false},
		{"flat scale", Question{ID: "q", Kind: Numeric, ScaleMin: 2, ScaleMax: 2}, false},
		{"mc ok", Question{ID: "q", Kind: MultipleChoice, Options: []string{"a", "b"}}, true},
		{"mc one option", Question{ID: "q", Kind: MultipleChoice, Options: []string{"a"}}, false},
		{"free text", Question{ID: "q", Kind: FreeText}, true},
		{"unknown kind", Question{ID: "q", Kind: QuestionKind(99)}, false},
		{"-Inf scale min", Question{ID: "q", Kind: Rating, ScaleMin: math.Inf(-1), ScaleMax: 5}, false},
		{"+Inf scale max", Question{ID: "q", Kind: Numeric, ScaleMin: 1, ScaleMax: math.Inf(1)}, false},
		{"NaN scale max", Question{ID: "q", Kind: Numeric, ScaleMin: 1, ScaleMax: math.NaN()}, false},
		{"free text with a NaN bound", Question{ID: "q", Kind: FreeText, ScaleMin: math.NaN()}, false},
	}
	for _, c := range cases {
		if err := c.q.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestQuestionDomainAndSensitivity(t *testing.T) {
	q := ratingQ("q")
	if q.DomainSize() != 5 || q.Sensitivity() != 4 {
		t.Errorf("rating: domain %d sensitivity %g", q.DomainSize(), q.Sensitivity())
	}
	mc := Question{ID: "m", Kind: MultipleChoice, Options: []string{"a", "b", "c"}}
	if mc.DomainSize() != 3 || mc.Sensitivity() != 2 {
		t.Errorf("mc: domain %d sensitivity %g", mc.DomainSize(), mc.Sensitivity())
	}
	ft := Question{ID: "f", Kind: FreeText}
	if ft.DomainSize() != 0 || ft.Sensitivity() != 0 {
		t.Errorf("free text: domain %d sensitivity %g", ft.DomainSize(), ft.Sensitivity())
	}
}

func TestQuestionKindString(t *testing.T) {
	for k, want := range map[QuestionKind]string{
		Rating: "rating", MultipleChoice: "multiple-choice",
		Numeric: "numeric", FreeText: "free-text",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(QuestionKind(42).String(), "42") {
		t.Error("unknown kind string lacks value")
	}
}

func TestZodiacOf(t *testing.T) {
	cases := []struct {
		md   int
		want int // index into ZodiacSigns
	}{
		{321, 0},  // 21 Mar → Aries
		{419, 0},  // 19 Apr → Aries
		{420, 1},  // 20 Apr → Taurus
		{101, 9},  // 1 Jan → Capricorn
		{119, 9},  // 19 Jan → Capricorn
		{120, 10}, // 20 Jan → Aquarius
		{219, 11}, // 19 Feb → Pisces
		{320, 11}, // 20 Mar → Pisces
		{1221, 8}, // 21 Dec → Sagittarius
		{1222, 9}, // 22 Dec → Capricorn
	}
	for _, c := range cases {
		if got := ZodiacOf(c.md); got != c.want {
			t.Errorf("ZodiacOf(%d) = %d (%s), want %d (%s)",
				c.md, got, ZodiacSigns[got], c.want, ZodiacSigns[c.want])
		}
	}
	for _, bad := range []int{0, 100, 1301, 132, 532, -5, 99999} {
		if got := ZodiacOf(bad); got != -1 {
			t.Errorf("ZodiacOf(%d) = %d, want -1", bad, got)
		}
	}
}

func TestMonthDay(t *testing.T) {
	if MonthDay(12, 31) != 1231 || MonthDay(1, 1) != 101 {
		t.Error("MonthDay encoding broken")
	}
}

func TestSurveyValidate(t *testing.T) {
	ok := &Survey{ID: "s", Title: "t", RewardCents: 5, Questions: []Question{ratingQ("a"), ratingQ("b")}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid survey rejected: %v", err)
	}
	cases := []struct {
		name string
		s    *Survey
	}{
		{"empty id", &Survey{Questions: []Question{ratingQ("a")}}},
		{"no questions", &Survey{ID: "s"}},
		{"negative reward", &Survey{ID: "s", RewardCents: -1, Questions: []Question{ratingQ("a")}}},
		{"dup question", &Survey{ID: "s", Questions: []Question{ratingQ("a"), ratingQ("a")}}},
		{"bad question", &Survey{ID: "s", Questions: []Question{{ID: "x", Kind: Rating}}}},
		{"consistency unknown ref", &Survey{ID: "s", Questions: []Question{ratingQ("a")},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "zz"}}}},
		{"consistency kind mix", &Survey{ID: "s",
			Questions:   []Question{ratingQ("a"), {ID: "m", Kind: MultipleChoice, Options: []string{"x", "y"}}},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "m"}}}},
		{"negative tolerance", &Survey{ID: "s", Questions: []Question{ratingQ("a"), ratingQ("b")},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "b", Tolerance: -1}}}},
		{"+Inf tolerance", &Survey{ID: "s", Questions: []Question{ratingQ("a"), ratingQ("b")},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "b", Tolerance: math.Inf(1)}}}},
		{"NaN tolerance", &Survey{ID: "s", Questions: []Question{ratingQ("a"), ratingQ("b")},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "b", Tolerance: math.NaN()}}}},
		{"zodiac wrong kinds", &Survey{ID: "s", Questions: []Question{ratingQ("a"), ratingQ("b")},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "b", Rule: RuleZodiac}}}},
		{"age-year wrong kinds", &Survey{ID: "s",
			Questions:   []Question{ratingQ("a"), {ID: "m", Kind: MultipleChoice, Options: []string{"x", "y"}}},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "m", Rule: RuleAgeYear}}}},
		{"unknown rule", &Survey{ID: "s", Questions: []Question{ratingQ("a"), ratingQ("b")},
			Consistency: []ConsistencyPair{{QuestionA: "a", QuestionB: "b", Rule: "bogus"}}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSurveyLookups(t *testing.T) {
	s := Astrology()
	if s.Question("star-sign") == nil {
		t.Fatal("star-sign missing")
	}
	if s.Question("nope") != nil {
		t.Fatal("phantom question found")
	}
	if got := len(s.QuestionsByAttribute(AttrOpinion)); got != 3 {
		t.Errorf("opinion questions = %d, want 3", got)
	}
	attrs := s.HarvestedAttributes()
	want := map[Attribute]bool{AttrOpinion: true, AttrStarSign: true, AttrBirthDayMonth: true}
	if len(attrs) != len(want) {
		t.Errorf("harvested = %v", attrs)
	}
	for _, a := range attrs {
		if !want[a] {
			t.Errorf("unexpected attribute %q", a)
		}
	}
}

func TestCatalogSurveysValid(t *testing.T) {
	surveys := []*Survey{
		Astrology(), Matchmaking(), Coverage(), Health(), Awareness(),
		Lecturers([]string{"A", "B", "C"}),
	}
	for _, s := range surveys {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog survey %q invalid: %v", s.ID, err)
		}
	}
	if len(ProfilingSurveys()) != 3 {
		t.Error("profiling surveys != 3")
	}
	// The three profiling surveys jointly harvest the quasi-identifier.
	got := map[Attribute]bool{}
	for _, s := range ProfilingSurveys() {
		for _, a := range s.HarvestedAttributes() {
			got[a] = true
		}
	}
	for _, need := range []Attribute{AttrBirthDayMonth, AttrBirthYear, AttrGender, AttrZIP} {
		if !got[need] {
			t.Errorf("profiling surveys do not harvest %q", need)
		}
	}
	// The health survey marks its questions sensitive.
	for _, q := range Health().Questions {
		if !q.Sensitive {
			t.Errorf("health question %q not marked sensitive", q.ID)
		}
	}
}

func TestAnswerConstructorsAndValue(t *testing.T) {
	a := RatingAnswer("q", 3.5)
	if v, err := a.Value(); err != nil || v != 3.5 {
		t.Errorf("rating value = %g, %v", v, err)
	}
	n := NumericAnswer("q", 42)
	if v, err := n.Value(); err != nil || v != 42 {
		t.Errorf("numeric value = %g, %v", v, err)
	}
	c := ChoiceAnswer("q", 2)
	if v, err := c.Value(); err != nil || v != 2 {
		t.Errorf("choice value = %g, %v", v, err)
	}
	txt := TextAnswer("q", "hi")
	if _, err := txt.Value(); err == nil {
		t.Error("text Value() accepted")
	}
}

func TestValidateAnswer(t *testing.T) {
	q := ratingQ("q")
	good := RatingAnswer("q", 3)
	if err := ValidateAnswer(&q, &good, false); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	if err := ValidateAnswer(nil, &good, false); err == nil {
		t.Error("nil question accepted")
	}
	out := RatingAnswer("q", 7.2)
	if err := ValidateAnswer(&q, &out, false); err == nil {
		t.Error("out-of-scale accepted strictly")
	}
	if err := ValidateAnswer(&q, &out, true); err != nil {
		t.Errorf("out-of-scale rejected leniently: %v", err)
	}
	nan := RatingAnswer("q", math.NaN())
	if err := ValidateAnswer(&q, &nan, true); err == nil {
		t.Error("NaN accepted")
	}
	inf := RatingAnswer("q", math.Inf(1))
	if err := ValidateAnswer(&q, &inf, true); err == nil {
		t.Error("Inf accepted")
	}
	// Rating answers satisfy Numeric questions and vice versa.
	nq := Question{ID: "q", Kind: Numeric, ScaleMin: 0, ScaleMax: 10}
	if err := ValidateAnswer(&nq, &good, false); err != nil {
		t.Errorf("rating answer rejected by numeric question: %v", err)
	}
	// But not multiple-choice.
	mc := Question{ID: "q", Kind: MultipleChoice, Options: []string{"a", "b"}}
	if err := ValidateAnswer(&mc, &good, false); err == nil {
		t.Error("rating answer accepted by choice question")
	}
	badChoice := ChoiceAnswer("q", 5)
	if err := ValidateAnswer(&mc, &badChoice, false); err == nil {
		t.Error("out-of-range choice accepted")
	}
	okChoice := ChoiceAnswer("q", 1)
	if err := ValidateAnswer(&mc, &okChoice, false); err != nil {
		t.Errorf("valid choice rejected: %v", err)
	}
}

func testSurvey() *Survey {
	return &Survey{
		ID: "s", Title: "t",
		Questions: []Question{
			ratingQ("r1"), ratingQ("r2"),
			{ID: "m", Kind: MultipleChoice, Options: []string{"x", "y"}},
		},
		Consistency: []ConsistencyPair{{QuestionA: "r1", QuestionB: "r2", Tolerance: 1}},
	}
}

func TestResponseValidate(t *testing.T) {
	s := testSurvey()
	good := Response{
		SurveyID: "s", WorkerID: "w",
		Answers: []Answer{RatingAnswer("r1", 3), RatingAnswer("r2", 3), ChoiceAnswer("m", 0)},
	}
	if err := good.Validate(s); err != nil {
		t.Fatalf("good response rejected: %v", err)
	}
	bad := good
	bad.SurveyID = "other"
	if err := bad.Validate(s); err == nil {
		t.Error("wrong survey accepted")
	}
	bad = good
	bad.WorkerID = ""
	if err := bad.Validate(s); err == nil {
		t.Error("empty worker accepted")
	}
	short := good
	short.Answers = good.Answers[:2]
	if err := short.Validate(s); err == nil {
		t.Error("missing answer accepted")
	}
	dup := good
	dup.Answers = []Answer{RatingAnswer("r1", 3), RatingAnswer("r1", 3), ChoiceAnswer("m", 0)}
	if err := dup.Validate(s); err == nil {
		t.Error("duplicate answer accepted")
	}
	// Obfuscated responses may be out of scale.
	noisy := good
	noisy.Obfuscated = true
	noisy.Answers = []Answer{RatingAnswer("r1", 8.3), RatingAnswer("r2", -0.4), ChoiceAnswer("m", 1)}
	if err := noisy.Validate(s); err != nil {
		t.Errorf("obfuscated out-of-scale rejected: %v", err)
	}
	raw := noisy
	raw.Obfuscated = false
	if err := raw.Validate(s); err == nil {
		t.Error("raw out-of-scale accepted")
	}
}

func TestResponseAnswerLookup(t *testing.T) {
	r := Response{Answers: []Answer{RatingAnswer("a", 1)}}
	if r.Answer("a") == nil || r.Answer("b") != nil {
		t.Error("Answer lookup broken")
	}
}

func TestConsistentEqualPair(t *testing.T) {
	s := testSurvey()
	resp := Response{SurveyID: "s", WorkerID: "w",
		Answers: []Answer{RatingAnswer("r1", 4), RatingAnswer("r2", 5), ChoiceAnswer("m", 0)}}
	if !resp.Consistent(s, 0) {
		t.Error("within-tolerance pair flagged inconsistent")
	}
	resp.Answers[1].Rating = 1
	if resp.Consistent(s, 0) {
		t.Error("3-point gap passed tolerance 1")
	}
	// Slack widens the tolerance for obfuscated responses.
	if !resp.Consistent(s, 5) {
		t.Error("slack not applied")
	}
	// A missing answer is inconsistent.
	missing := Response{SurveyID: "s", WorkerID: "w", Answers: []Answer{RatingAnswer("r1", 4)}}
	if missing.Consistent(s, 0) {
		t.Error("missing pair answer deemed consistent")
	}
}

func TestConsistentZodiac(t *testing.T) {
	s := Astrology()
	resp := Response{SurveyID: s.ID, WorkerID: "w", Answers: []Answer{
		RatingAnswer("astro-useful", 3),
		RatingAnswer("astro-trust", 3),
		ChoiceAnswer("star-sign", ZodiacOf(321)), // Aries
		NumericAnswer("birth-md", 321),
		RatingAnswer("astro-useful-2", 3),
	}}
	if !resp.Consistent(s, 0) {
		t.Error("matching zodiac flagged inconsistent")
	}
	resp.Answers[2].Choice = ZodiacOf(821) // Leo
	if resp.Consistent(s, 0) {
		t.Error("mismatched zodiac passed")
	}
}

func TestConsistentAgeYear(t *testing.T) {
	s := Matchmaking()
	mk := func(age, year float64) Response {
		return Response{SurveyID: s.ID, WorkerID: "w", Answers: []Answer{
			RatingAnswer("match-used", 2),
			ChoiceAnswer("gender", 0),
			NumericAnswer("birth-year", year),
			NumericAnswer("age", age),
			RatingAnswer("match-quality", 2),
		}}
	}
	// ReferenceYear is 2013: born 1980 → age 33 (or 32 pre-birthday).
	if r := mk(33, 1980); !r.Consistent(s, 0) {
		t.Error("exact age flagged")
	}
	if r := mk(32, 1980); !r.Consistent(s, 0) {
		t.Error("pre-birthday age flagged")
	}
	if r := mk(45, 1980); r.Consistent(s, 0) {
		t.Error("wildly wrong age passed")
	}
}

func TestConsistentChoiceAndText(t *testing.T) {
	s := &Survey{ID: "s", Questions: []Question{
		{ID: "c1", Kind: MultipleChoice, Options: []string{"a", "b"}},
		{ID: "c2", Kind: MultipleChoice, Options: []string{"a", "b"}},
		{ID: "t1", Kind: FreeText},
		{ID: "t2", Kind: FreeText},
	}, Consistency: []ConsistencyPair{
		{QuestionA: "c1", QuestionB: "c2"},
		{QuestionA: "t1", QuestionB: "t2"},
	}}
	resp := Response{SurveyID: "s", WorkerID: "w", Answers: []Answer{
		ChoiceAnswer("c1", 1), ChoiceAnswer("c2", 1),
		TextAnswer("t1", "x"), TextAnswer("t2", "x"),
	}}
	if !resp.Consistent(s, 0) {
		t.Error("matching choice/text flagged")
	}
	resp.Answers[1].Choice = 0
	if resp.Consistent(s, 0) {
		t.Error("choice mismatch passed")
	}
	resp.Answers[1].Choice = 1
	resp.Answers[3].Text = "y"
	if resp.Consistent(s, 0) {
		t.Error("text mismatch passed")
	}
}

func TestSurveyJSONRoundTrip(t *testing.T) {
	orig := Astrology()
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Survey
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped survey invalid: %v", err)
	}
	if back.ID != orig.ID || len(back.Questions) != len(orig.Questions) ||
		len(back.Consistency) != len(orig.Consistency) {
		t.Error("round trip lost structure")
	}
	if back.Questions[3].Attribute != AttrBirthDayMonth {
		t.Error("round trip lost attributes")
	}
}

func TestResponseJSONRoundTrip(t *testing.T) {
	orig := Response{
		SurveyID: "s", WorkerID: "w", PrivacyLevel: "medium", Obfuscated: true, Day: 3,
		Answers: []Answer{RatingAnswer("r", 3.86), ChoiceAnswer("m", 1), TextAnswer("t", "x")},
	}
	b, err := json.Marshal(&orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Answers[0].Rating != 3.86 || back.Answers[1].Choice != 1 || back.Answers[2].Text != "x" {
		t.Errorf("round trip mangled answers: %+v", back.Answers)
	}
	if back.PrivacyLevel != "medium" || !back.Obfuscated || back.Day != 3 {
		t.Error("round trip lost metadata")
	}
}

func TestLecturerQuestionIDs(t *testing.T) {
	s := Lecturers([]string{"A", "B"})
	if s.Questions[0].ID != LecturerQuestionID(0) || s.Questions[1].ID != LecturerQuestionID(1) {
		t.Error("lecturer question IDs mismatch")
	}
}
