package survey_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"loki/internal/survey"
)

// benchBody is the shape the benchmark uploads: three answers to a
// two-rating, one-choice survey, ratings carrying obfuscation noise.
func benchBody(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(&survey.Response{
		SurveyID: "bench-0003", WorkerID: "p00042", PrivacyLevel: "medium", Obfuscated: true,
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", 3.4187205392107425),
			survey.RatingAnswer("q1", -0.21355018345072306),
			survey.ChoiceAnswer("q2", 2),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// declined are bodies the scanner must hand to encoding/json, one per
// rule, each in a single-submit body.
var declined = map[string]string{
	"case-folded key":          `{"Survey_ID":"s"}`,
	"case-folded answer key":   `{"answers":[{"KIND":1}]}`,
	"repeated key":             `{"day":1,"day":2}`,
	"repeated answer key":      `{"answers":[{"choice":1,"choice":2}]}`,
	"unknown key":              `{"hacker":true}`,
	"null string":              `{"survey_id":null}`,
	"null answers":             `{"answers":null}`,
	"null answer":              `{"answers":[null]}`,
	"null number":              `{"day":null}`,
	"wrong type":               `{"obfuscated":"true"}`,
	"escaped string":           `{"survey_id":"s\u0031"}`,
	"escaped key":              `{"survey\u005fid":"s"}`,
	"control byte":             "{\"worker_id\":\"w\t1\"}",
	"invalid UTF-8":            "{\"worker_id\":\"w\xff\"}",
	"surrogate in UTF-8":       "{\"worker_id\":\"\xed\xa0\x80\"}",
	"leading zero":             `{"day":01}`,
	"bare minus":               `{"day":-}`,
	"leading dot":              `{"answers":[{"rating":.5}]}`,
	"trailing dot":             `{"answers":[{"rating":1.}]}`,
	"bare exponent":            `{"answers":[{"rating":1e}]}`,
	"plus sign":                `{"answers":[{"rating":+1}]}`,
	"hex float":                `{"answers":[{"rating":0x1p-2}]}`,
	"infinity":                 `{"answers":[{"rating":Infinity}]}`,
	"fraction in int":          `{"answers":[{"kind":1.0}]}`,
	"exponent in int":          `{"answers":[{"choice":2e0}]}`,
	"int out of range":         `{"day":9223372036854775808}`,
	"rating out of range":      `{"answers":[{"rating":1e400}]}`,
	"truncated literal":        `{"obfuscated":tru}`,
	"trailing value":           `{"day":1} {}`,
	"trailing close brace":     `{"day":1}}}}garbage`,
	"trailing close bracket":   `{"day":1}]`,
	"trailing junk after ws":   "{\"day\":1}\n x",
	"not an object":            `[{"day":1}]`,
	"empty body":               ``,
	"unterminated object":      `{"day":1`,
	"missing comma":            `{"day":1 "worker_id":"w"}`,
	"trailing comma":           `{"day":1,}`,
	"number glued to a letter": `{"day":1x}`,
}

// FuzzResponseJSON holds the scanner to encoding/json on both public
// body shapes: for any input it declines, or its value is
// reflect.DeepEqual to what json.Decoder with DisallowUnknownFields
// decodes with nothing but whitespace after it — and the input spells
// every key byte for byte, once per object, with no null, which
// encoding/json alone cannot referee (it folds case, lets the last of a
// repeated key win and skips a null).
func FuzzResponseJSON(f *testing.F) {
	f.Add(benchBody(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(` {"answers":[]} `))
	f.Add([]byte(`{"responses":[]}`))
	f.Add([]byte("{\"survey_id\":\"s\",\"worker_id\":\"\xc3\xa9\",\"day\":-7,\"answers\":[{\"question_id\":\"q\",\"kind\":3,\"text\":\"free text\"},{\"kind\":-1,\"choice\":-0,\"rating\":-0.0e+1}]}"))
	for _, name := range slices.Sorted(maps.Keys(declined)) {
		f.Add([]byte(declined[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		single(t, data)
		batch(t, data)
		batch(t, append(append([]byte(`{"responses":[`), data...), ']', '}'))
		batch(t, bytes.Join([][]byte{[]byte(`{"responses":[`), data, []byte(`,`), data, []byte(`]}`)}, nil))
	})
}

func single(t *testing.T, data []byte) {
	got := survey.Response{SurveyID: "s", WorkerID: "w", PrivacyLevel: "medium"}
	if !got.ScanJSON(data) {
		if !reflect.DeepEqual(got, survey.Response{}) {
			t.Fatalf("a declined body left %+v", got)
		}
		return
	}
	var want survey.Response
	agree(t, data, &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner and encoding/json differ on %q\nscan %#v\njson %#v", data, got, want)
	}
}

func batch(t *testing.T, data []byte) {
	got, ok := survey.ScanResponsesJSON(data)
	if !ok {
		return
	}
	var want struct {
		Responses []survey.Response `json:"responses"`
	}
	agree(t, data, &want)
	if !reflect.DeepEqual(got, want.Responses) {
		t.Fatalf("scanner and encoding/json differ on batch %q\nscan %#v\njson %#v", data, got, want.Responses)
	}
}

// agree fails unless data, which the scanner accepted, is a body the
// public endpoints' encoding/json path also accepts — decoded into v —
// and spells its keys exactly.
func agree(t *testing.T, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", data, err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		t.Fatalf("scanner accepted %q with bytes after the value", data)
	}
	if err := exactKeys(data); err != "" {
		t.Fatalf("scanner accepted %q: %s", data, err)
	}
}

// tags are the field tags of Response, Answer and the batch body.
var tags = map[string]bool{
	"survey_id": true, "worker_id": true, "answers": true, "privacy_level": true, "obfuscated": true, "day": true,
	"question_id": true, "kind": true, "rating": true, "choice": true, "text": true, "responses": true,
}

// exactKeys walks data's tokens and describes the first key that is no
// field tag, key given twice in one object, or null; "" when there is
// none.
func exactKeys(data []byte) string {
	type frame struct {
		seen    map[string]bool // nil in an array
		wantKey bool
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			top := stack[n-1]
			if key, ok := tok.(string); ok {
				if !tags[key] || top.seen[key] {
					return "key " + key + " is not a tag spelled exactly, or repeats"
				}
				top.seen[key], top.wantKey = true, false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{seen: map[string]bool{}, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		case nil:
			return "a null value"
		}
		if n := len(stack); n > 0 && stack[n-1].seen != nil {
			stack[n-1].wantKey = true
		}
	}
}

// TestScanJSONDeclines: every rule in the scanner's contract declines
// its case, in a single body and inside a batch.
func TestScanJSONDeclines(t *testing.T) {
	for name, body := range declined {
		var r survey.Response
		if r.ScanJSON([]byte(body)) {
			t.Errorf("%s: single body %q accepted", name, body)
		}
		if _, ok := survey.ScanResponsesJSON([]byte(`{"responses":[` + body + `]}`)); ok && body != `` {
			t.Errorf("%s: batch record %q accepted", name, body)
		}
	}
	for _, body := range []string{`{"responses":null}`, `{"responses":[],"responses":[]}`, `{"Responses":[]}`, `{"responses":[{}]}]`} {
		if _, ok := survey.ScanResponsesJSON([]byte(body)); ok {
			t.Errorf("batch body %q accepted", body)
		}
	}
}

// TestScanJSONShapes: answers [] is an empty slice and a missing
// answers key nil, as in encoding/json, and likewise for the batch.
func TestScanJSONShapes(t *testing.T) {
	var r survey.Response
	if !r.ScanJSON([]byte(`{"answers":[]}`)) || r.Answers == nil || len(r.Answers) != 0 {
		t.Fatalf("answers [] scanned to %#v", r.Answers)
	}
	if !r.ScanJSON([]byte(`{}`)) || r.Answers != nil {
		t.Fatalf("absent answers scanned to %#v", r.Answers)
	}
	if rs, ok := survey.ScanResponsesJSON([]byte(`{"responses":[]}`)); !ok || rs == nil || len(rs) != 0 {
		t.Fatalf("responses [] scanned to %#v", rs)
	}
	if rs, ok := survey.ScanResponsesJSON([]byte(`{}`)); !ok || rs != nil {
		t.Fatalf("absent responses scanned to %#v", rs)
	}
}

// TestScanJSONAllocs: a benchmark-shaped body costs one allocation per
// string the record does not already hold plus one for its answers, and
// a batch of one survey's records shares their survey, level and
// question IDs.
func TestScanJSONAllocs(t *testing.T) {
	body := benchBody(t)
	if n := testing.AllocsPerRun(100, func() {
		r := survey.Response{SurveyID: "bench-0003"}
		if !r.ScanJSON(body) {
			t.Fatal("declined")
		}
	}); n > 6 {
		t.Errorf("single body: %v allocations, want at most 6 (worker, level, three question IDs, answers)", n)
	}
	records := []byte(`{"responses":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			records = append(records, ',')
		}
		records = append(records, bytes.Replace(body, []byte("p00042"), fmt.Appendf(nil, "p%05d", i), 1)...)
	}
	records = append(records, ']', '}')
	n := testing.AllocsPerRun(20, func() {
		if _, ok := survey.ScanResponsesJSON(records); !ok {
			t.Fatal("declined")
		}
	})
	if perRecord := n / 64; perRecord > 2.5 {
		t.Errorf("batch of 64: %.2f allocations per record, want about 2 (worker, answers)", perRecord)
	}
}
