package survey_test

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"loki/internal/blockio"
	"loki/internal/survey"
)

func encodeRecord(t testing.TB, rec *survey.SurveyRecord) []byte {
	t.Helper()
	b, err := survey.AppendSurveyRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenRecord is a republish of a survey shaped like the benchmark's:
// two rating questions, a three-option choice and a consistency pair.
func goldenRecord() *survey.SurveyRecord {
	return &survey.SurveyRecord{
		Republish: true,
		UnixNano:  1792416247742981458,
		Survey: survey.Survey{
			ID:    "bench-0007",
			Title: "Benchmark survey 7",
			Questions: []survey.Question{
				{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
				{ID: "q1", Text: "rate again", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5, Attribute: survey.AttrOpinion, Sensitive: true},
				{ID: "q2", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
			},
			Consistency: []survey.ConsistencyPair{{QuestionA: "q0", QuestionB: "q1", Tolerance: 1}},
			RewardCents: 10,
		},
	}
}

// surveyRecordGolden is goldenRecord's encoding, byte for byte: the
// survey record version 0xB4 writes. It changes only with the tag.
const surveyRecordGolden = "b401a495df8595c5f8df310a62656e63682d303030371242656e63686d61726b" +
	"207375727665792037001403027130047261746523000000000000f03f000000" +
	"00000014400271310a7261746520616761696e3b000000000000f03f00000000" +
	"00001440076f70696e696f6e027132047069636b440301610162016301027130" +
	"02713101000000000000f03f"

// TestSurveyRecordGolden pins the bytes of one survey record, and that a
// benchmark-shaped record stays below blockio.StoredBlockMax with its
// record envelope (a uvarint length and a CRC), so a one-record flush
// is a stored block that replays without Huffman tables.
func TestSurveyRecordGolden(t *testing.T) {
	got := encodeRecord(t, goldenRecord())
	if want, _ := hex.DecodeString(surveyRecordGolden); string(got) != string(want) {
		t.Fatalf("the record encodes as\n%x\nthe golden is\n%s", got, surveyRecordGolden)
	}
	var rec survey.SurveyRecord
	if err := rec.UnmarshalBinary(got); err != nil || !reflect.DeepEqual(&rec, goldenRecord()) {
		t.Fatalf("the golden decodes to %+v (%v)", rec, err)
	}
	if raw := len(binary.AppendUvarint(nil, uint64(len(got)))) + 4 + len(got); raw >= blockio.StoredBlockMax {
		t.Fatalf("a %d-byte block for one survey record reaches the %d-byte stored cut-over", raw, blockio.StoredBlockMax)
	}
}

// TestSurveyRecordRefusesNonFinite: a definition whose JSON form could
// not be rendered (and so fingerprinted) is no record either way round.
func TestSurveyRecordRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rec := goldenRecord()
		rec.Survey.Questions[0].ScaleMin = f
		if _, err := survey.AppendSurveyRecord(nil, rec); err == nil {
			t.Errorf("scale bound %g encoded", f)
		}
		rec = goldenRecord()
		rec.Survey.Consistency[0].Tolerance = f
		if _, err := survey.AppendSurveyRecord(nil, rec); err == nil {
			t.Errorf("tolerance %g encoded", f)
		}
	}
	b := encodeRecord(t, goldenRecord())
	// The pair's tolerance is the record's last eight bytes.
	inf := math.Float64bits(math.Inf(1))
	for i := 0; i < 8; i++ {
		b[len(b)-8+i] = byte(inf >> (8 * i))
	}
	var rec survey.SurveyRecord
	if err := rec.UnmarshalBinary(b); err == nil {
		t.Fatal("an infinite tolerance decoded")
	}
}

// TestSurveyRecordInvalidUTF8: a definition whose strings are not valid
// UTF-8 is logged as its JSON form held it, each invalid byte U+FFFD,
// so it replays to the definition a JSON record replayed to, with that
// definition's fingerprint; a record holding such bytes is refused.
func TestSurveyRecordInvalidUTF8(t *testing.T) {
	rec := goldenRecord()
	sv := &rec.Survey
	sv.ID, sv.Title = "bad\xff", "two\xfe\xffbytes, a rune \u00e9 and a cut one \xc3"
	sv.Questions[2].Options[1] = "\xed\xa0\x80"
	sv.Consistency[0].Rule = "\x80"
	j, err := json.Marshal(sv)
	if err != nil {
		t.Fatal(err)
	}
	var twin survey.Survey
	if err := json.Unmarshal(j, &twin); err != nil {
		t.Fatal(err)
	}
	b := encodeRecord(t, rec)
	var got survey.SurveyRecord
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !got.Survey.Equal(&twin) || got.Survey.Fingerprint() != twin.Fingerprint() {
		t.Fatalf("the record decodes to\n%+v\nthe JSON form to\n%+v", got.Survey, twin)
	}
	raw := encodeRecord(t, &survey.SurveyRecord{Survey: survey.Survey{ID: "ok"}})
	raw[4] = 0xff // a byte of the ID
	if err := new(survey.SurveyRecord).UnmarshalBinary(raw); err == nil {
		t.Fatal("a record holding an invalid UTF-8 byte decoded")
	}
}

// FuzzSurveyBinary checks the survey record both ways. Arbitrary bytes
// never panic the decoder, and a count is checked against the bytes
// left before anything is sized by it, so a short record claiming
// billions of questions or options allocates nothing like that.
// Whatever decodes re-encodes to a fixed point, refuses a trailing byte
// and any other leading tag, and fingerprints equal to the definition
// its JSON form decodes to. A record assembled from the fuzzer's values
// comes back identical, while every truncation of its encoding is
// refused.
func FuzzSurveyBinary(f *testing.F) {
	golden := encodeRecord(f, goldenRecord())
	f.Add(golden, "", uint64(0), int64(0), false)
	f.Add([]byte{}, "é\x00\xff", math.Float64bits(math.Copysign(0, -1)), int64(-3), true)
	f.Add([]byte{survey.SurveyBinaryTag, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, "x", math.Float64bits(2.5), int64(99), false)
	f.Add([]byte{survey.SurveyBinaryTag, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1 << 2, 0xff, 0xff, 0xff, 0xff, 0x0f}, "opt", math.Float64bits(math.Inf(1)), int64(6), true)
	f.Add([]byte(`{"kind":"survey"}`), "long", math.Float64bits(math.NaN()), int64(7), false)
	f.Fuzz(func(t *testing.T, data []byte, text string, bits uint64, kind int64, republish bool) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var dec survey.SurveyRecord
		decErr := dec.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if decErr == nil {
			checkDecoded(t, &dec)
		}

		if !utf8.ValidString(text) {
			text = strings.ToValidUTF8(text, "?") // TestSurveyRecordInvalidUTF8 has the rest
		}
		f64 := math.Float64frombits(bits)
		if math.IsNaN(f64) || math.IsInf(f64, 0) {
			rec := goldenRecord()
			rec.Survey.Questions[2].ScaleMax = f64
			if _, err := survey.AppendSurveyRecord(nil, rec); err == nil {
				t.Fatalf("scale bound %g encoded", f64)
			}
			f64 = 0
		}
		want := survey.SurveyRecord{
			Republish: republish, UnixNano: kind * 7919,
			Survey: survey.Survey{
				ID: text, Title: "t" + text, Description: text, RewardCents: int(-kind),
				Questions: []survey.Question{
					{ID: text, Text: text, Kind: survey.QuestionKind(kind), ScaleMin: f64, ScaleMax: -f64, Attribute: survey.Attribute(text), Sensitive: republish},
					{ID: "q1", Kind: survey.MultipleChoice, Options: []string{text, "", "c"}},
					{ID: "", Kind: survey.QuestionKind(-kind)},
				},
				Consistency: []survey.ConsistencyPair{
					{QuestionA: text, QuestionB: "q1", Tolerance: f64, Rule: survey.ConsistencyRule(text)},
					{},
				},
			},
		}
		if len(text)%3 == 0 {
			want.Survey.Questions, want.Survey.Consistency = nil, nil
		}
		enc := encodeRecord(t, &want)
		var got survey.SurveyRecord
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !sameRecord(&want, &got) {
			t.Fatalf("round trip changed the record\nwant %+v\ngot  %+v", want, got)
		}
		checkDecoded(t, &got)
		for i := range enc {
			if err := new(survey.SurveyRecord).UnmarshalBinary(enc[:i]); err == nil {
				t.Fatalf("a %d-byte truncation of a %d-byte record decoded", i, len(enc))
			}
		}
	})
}

// checkDecoded holds a decoded record to the properties every record
// has: it re-encodes to a fixed point, refuses a trailing byte and any
// other leading tag, and fingerprints equal to its JSON twin.
func checkDecoded(t *testing.T, dec *survey.SurveyRecord) {
	t.Helper()
	again := encodeRecord(t, dec)
	var dec2 survey.SurveyRecord
	if err := dec2.UnmarshalBinary(again); err != nil || !reflect.DeepEqual(dec, &dec2) {
		t.Fatalf("decoded record does not round-trip: %v\n%+v\n%+v", err, dec, dec2)
	}
	if third := encodeRecord(t, &dec2); string(third) != string(again) {
		t.Fatalf("re-encoding is no fixed point:\n%x\n%x", again, third)
	}
	if err := new(survey.SurveyRecord).UnmarshalBinary(append(again, 0)); err == nil {
		t.Fatal("a trailing byte decoded")
	}
	for _, tag := range []byte{0, '{', survey.ResponseBinaryTag, 0xB2, 0xB3, 0xB5, 0xff} {
		again[0] = tag
		if err := new(survey.SurveyRecord).UnmarshalBinary(again); err == nil {
			t.Fatalf("a record under tag %#x decoded", tag)
		}
	}
	j, err := json.Marshal(&dec.Survey)
	if err != nil {
		t.Fatalf("a decoded definition has no JSON form: %v", err)
	}
	var twin survey.Survey
	if err := json.Unmarshal(j, &twin); err != nil {
		t.Fatal(err)
	}
	if twin.Fingerprint() != dec.Survey.Fingerprint() {
		t.Fatalf("the definition fingerprints unlike its JSON twin:\n%+v\n%+v", dec.Survey, twin)
	}
}

// sameRecord is reflect.DeepEqual with nil and empty slices treated
// alike (the encoding, like the JSON form, does not distinguish them).
func sameRecord(a, b *survey.SurveyRecord) bool {
	norm := func(r survey.SurveyRecord) survey.SurveyRecord {
		s := &r.Survey
		if len(s.Questions) == 0 {
			s.Questions = nil
		}
		if len(s.Consistency) == 0 {
			s.Consistency = nil
		}
		qs := append([]survey.Question(nil), s.Questions...)
		for i := range qs {
			if len(qs[i].Options) == 0 {
				qs[i].Options = nil
			}
		}
		s.Questions = qs
		return r
	}
	x, y := norm(*a), norm(*b)
	return reflect.DeepEqual(&x, &y)
}
