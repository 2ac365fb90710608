package survey_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"loki/internal/core"
	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/survey"
)

func encode(t testing.TB, r *survey.Response) []byte {
	t.Helper()
	b, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameResponse is reflect.DeepEqual with ratings compared by bit
// pattern (NaN != NaN would fail an exact round trip) and nil and empty
// Answers treated alike (the encoding does not distinguish them).
func sameResponse(a, b *survey.Response) bool {
	if a.SurveyID != b.SurveyID || a.WorkerID != b.WorkerID || a.PrivacyLevel != b.PrivacyLevel ||
		a.Obfuscated != b.Obfuscated || a.Day != b.Day || len(a.Answers) != len(b.Answers) {
		return false
	}
	for i := range a.Answers {
		x, y := a.Answers[i], b.Answers[i]
		if math.Float64bits(x.Rating) != math.Float64bits(y.Rating) {
			return false
		}
		x.Rating, y.Rating = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// FuzzResponseBinary checks both directions of the codec. Arbitrary
// bytes never panic the decoder, and whatever decodes re-encodes to a
// fixed point. A response assembled from the fuzzer's values — any
// rating bit pattern, any Kind, negative Day and Choice, text of any
// length — comes back identical, while every truncation of its encoding
// and any trailing byte is rejected.
func FuzzResponseBinary(f *testing.F) {
	nan := math.Float64bits(math.NaN()) | 0xBEEF
	negZero := math.Float64bits(math.Copysign(0, -1))
	f.Add([]byte{}, "", uint64(0), int64(0), int64(0))
	f.Add([]byte{survey.ResponseBinaryTag}, "w", nan, int64(-3), int64(-1))
	f.Add(encode(f, &survey.Response{SurveyID: "s", WorkerID: "w", Answers: []survey.Answer{survey.RatingAnswer("q", 3.86)}}),
		strings.Repeat("long text ", 400), negZero, int64(math.MinInt64), int64(99))
	f.Add([]byte(`{"kind":"response"}`), "é\x00\xff", math.Float64bits(3.86), int64(12), int64(31))
	f.Fuzz(func(t *testing.T, data []byte, text string, bits uint64, day, kind int64) {
		var dec survey.Response
		decErr := dec.UnmarshalBinary(data)
		if decErr == nil {
			again := encode(t, &dec)
			var dec2 survey.Response
			if err := dec2.UnmarshalBinary(again); err != nil || !sameResponse(&dec, &dec2) {
				t.Fatalf("decoded input does not round-trip: %v\n%+v\n%+v", err, dec, dec2)
			}
		}

		want := survey.Response{
			SurveyID: text, WorkerID: "w" + text, PrivacyLevel: "medium",
			Obfuscated: day%2 == 0, Day: int(day),
			Answers: []survey.Answer{
				{QuestionID: "q0", Kind: survey.QuestionKind(kind), Rating: math.Float64frombits(bits), Choice: int(-day), Text: text},
				{QuestionID: text, Kind: survey.Rating, Rating: math.Float64frombits(negZero)},
				{QuestionID: "", Kind: survey.QuestionKind(-kind)},
			},
		}
		if len(text)%3 == 0 {
			want.Answers = nil
		}
		enc := encode(t, &want)
		var got survey.Response
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !sameResponse(&want, &got) {
			t.Fatalf("round trip changed the response\nwant %+v\ngot  %+v", want, got)
		}
		// Decoding over a struct that holds another record — more or fewer
		// answers, text where this one has none, NaN ratings, a Kind past
		// the head byte's range — equals decoding into a zero struct, both
		// ways round and for the fuzzer's own bytes.
		other := survey.Response{SurveyID: "other", WorkerID: text + "x", PrivacyLevel: "high", Obfuscated: true, Day: 7}
		for i := 0; i < 1+4*(len(text)%2); i++ {
			other.Answers = append(other.Answers, survey.Answer{
				QuestionID: fmt.Sprint("o", i), Kind: survey.QuestionKind(99 + i),
				Rating: math.Float64frombits(nan), Choice: i + 1, Text: "stale text",
			})
		}
		var fresh survey.Response
		if err := fresh.UnmarshalBinary(encode(t, &other)); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			held, next []byte
			want       *survey.Response
			wantErr    bool
		}{
			{encode(t, &other), enc, &got, false},
			{enc, encode(t, &other), &fresh, false},
			{enc, data, &dec, decErr != nil},
		} {
			var reused survey.Response
			if err := reused.UnmarshalBinaryReuse(c.held); err != nil {
				t.Fatal(err)
			}
			err := reused.UnmarshalBinaryReuse(c.next)
			if (err != nil) != c.wantErr {
				t.Fatalf("decode over a held record: %v, want error %v", err, c.wantErr)
			}
			if err == nil && (!sameResponse(&reused, c.want) || (reused.Answers == nil) != (c.want.Answers == nil)) {
				t.Fatalf("decode over a held record differs from a fresh decode\nwant %+v\ngot  %+v", *c.want, reused)
			}
		}
		if err := got.UnmarshalBinary(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		// Every truncation is rejected (sampled for long encodings).
		step := 1 + len(enc)/64
		for cut := 0; cut < len(enc); cut += step {
			if err := got.UnmarshalBinary(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
			}
		}
	})
}

// TestResponseBinaryHostileCounts: a count or length far beyond the
// bytes that follow is refused before anything is sized from it.
func TestResponseBinaryHostileCounts(t *testing.T) {
	head := []byte{survey.ResponseBinaryTag, 0, 0, 0, 0, 0} // three empty strings, flags, day
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, in := range map[string][]byte{
		"answer count":  append(bytes.Clone(head), huge...),
		"string length": append([]byte{survey.ResponseBinaryTag}, huge...),
		"reserved flag": {survey.ResponseBinaryTag, 0, 0, 0, 0x80, 0, 0},
		"json":          []byte(`{"survey_id":"s"}`),
	} {
		var r survey.Response
		if err := r.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		var r survey.Response
		_ = r.UnmarshalBinary(append(bytes.Clone(head), huge...))
	})
	if allocs > 8 {
		t.Errorf("hostile count cost %.0f allocations", allocs)
	}
}

// TestResponseBinaryMatchesJSON: 2000 uploads generated the way the
// phone client makes them (population behaviour model, obfuscated at
// source) come back from the binary codec exactly as they come back
// from JSON, and both equal what went in.
func TestResponseBinaryMatchesJSON(t *testing.T) {
	r := rng.New(16)
	cfg := population.DefaultConfig()
	cfg.RegistrySize = 500
	pop, err := population.Generate(cfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	obf, err := core.NewObfuscator(core.DefaultSchedule(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	surveys := survey.ProfilingSurveys()
	var binBytes, jsonBytes int
	for i := 0; i < 2000; i++ {
		p := &pop.Persons[i%pop.Size()]
		sv := surveys[i%len(surveys)]
		raw, err := population.Answers(p, sv, r)
		if err != nil {
			t.Fatal(err)
		}
		lvl := core.Level(p.PrivacyPref)
		noisy, err := obf.ObfuscateResponse(sv, raw, lvl, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := survey.Response{
			SurveyID: sv.ID, WorkerID: fmt.Sprintf("p%05d", p.ID), Answers: noisy,
			PrivacyLevel: lvl.String(), Obfuscated: lvl != core.None, Day: i % 30,
		}
		enc := encode(t, &in)
		var viaBinary, viaJSON survey.Response
		if err := viaBinary.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(&in)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaBinary, viaJSON) || !reflect.DeepEqual(viaBinary, in) {
			t.Fatalf("upload %d: codecs disagree\nin     %+v\nbinary %+v\njson   %+v", i, in, viaBinary, viaJSON)
		}
		binBytes += len(enc)
		jsonBytes += len(js)
	}
	t.Logf("2000 uploads: %d bytes binary, %d bytes JSON", binBytes, jsonBytes)
}
