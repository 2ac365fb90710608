package shardrpc

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"loki/internal/budget"
	"loki/internal/survey"
)

// postRaw sends a submit body of the given content type straight to the
// node.
func postRaw(t *testing.T, c *Client, ctype string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.BaseURL()+"/shardrpc/v1/submit", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer cluster-token")
	req.Header.Set("Content-Type", ctype)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&payload)
	return resp.StatusCode, payload.Error
}

// TestSubmitBodyOverLimit: a submit body beyond maxBodyBytes is refused
// through the same MaxBytesReader, with the same status, as a JSON body
// on any other route.
func TestSubmitBodyOverLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 32 MiB body")
	}
	c, local := newTestNode(t, 1)
	if err := local.PutSurvey(rpcSurvey("s")); err != nil {
		t.Fatal(err)
	}
	big := survey.Response{SurveyID: "s", WorkerID: "w", Answers: []survey.Answer{{QuestionID: "q0", Text: strings.Repeat("x", maxBodyBytes)}}}
	status, msg := postRaw(t, c, SubmitContentType, encodeSections(t, SubmitSections{{Shard: 0, Responses: []survey.Response{big}}}))
	if status != http.StatusBadRequest || !strings.Contains(msg, "request body too large") {
		t.Fatalf("over-limit body: %d (%s)", status, msg)
	}
	if n := local.CountShard(0, "s"); n != 0 {
		t.Fatalf("%d responses stored from a refused body", n)
	}
}

func encodeSections(t testing.TB, secs SubmitSections) []byte {
	t.Helper()
	b, err := secs.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzNodeSubmitBody: the sections body decoder never panics and never
// sizes a slice from a count the remaining bytes cannot hold (it keeps
// what it sized even when it fails, so every input is checked); what
// decodes re-encodes to a fixed point; and a body whose leading byte is
// not the sections tag is refused.
func FuzzNodeSubmitBody(f *testing.F) {
	charged := benchSubmitRequest()
	charged.Epoch = 3
	charged.Charges = make([]budget.Charge, len(charged.Responses))
	charged.Charges[1] = budget.Charge{WorkerID: "w", SurveyID: "s", Rho: 0.25, Unprotected: 2, Enforce: true}
	f.Add([]byte{})
	f.Add([]byte{sectionsBodyTag, 0})
	f.Add([]byte{sectionsBodyTag, 1, 0, 0, 0, 0})
	f.Add([]byte{sectionsBodyTag, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0})
	f.Add([]byte{sectionsBodyTag, 1, 2, 7, 0xff, 0xff, 0xff, 0x7f, 0})
	f.Add(perShardBody(f))
	f.Add(encodeSections(f, SubmitSections{*benchSubmitRequest(), *charged, {Shard: -4, Epoch: 1 << 40}}))
	f.Fuzz(checkSectionsDecode)
}

// FuzzSubmitBody: arbitrary bytes hold to FuzzNodeSubmitBody's decoder
// properties; a call assembled from the fuzzer's values (one or two
// sections) round-trips, while every truncation of it and any trailing
// byte is refused, and so is the call under any leading byte other than
// the sections tag.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte{}, "", uint64(0), int64(0))
	f.Add([]byte{0xB2, 0, 0, 0, 0}, "w", math.Float64bits(math.NaN())|7, int64(-9))
	f.Add(perShardBody(f), strings.Repeat("x", 3000), math.Float64bits(0.1), int64(1<<40))
	f.Add([]byte(`{"shard":0,"responses":[]}`), "é", uint64(1)<<63, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, text string, bits uint64, n int64) {
		checkSectionsDecode(t, data)

		want := SubmitSections{{Shard: int(n), Epoch: bits}, {Shard: -int(n), Epoch: bits >> 1}}[:1+int(uint64(n)%2)]
		for s := range want {
			req := &want[s]
			for i := 0; i < int(uint64(n)%4); i++ {
				req.Responses = append(req.Responses, survey.Response{
					SurveyID: text, WorkerID: text[:len(text)/2], Day: int(-n),
					Answers: []survey.Answer{{QuestionID: "q", Kind: survey.QuestionKind(i), Rating: math.Float64frombits(bits), Choice: int(n), Text: text}},
				})
				req.Charges = append(req.Charges, budget.Charge{WorkerID: text, Rho: math.Float64frombits(bits), Unprotected: int(n), Enforce: i%2 == 1})
			}
			if n%3 == 0 {
				req.Charges = nil
			}
		}
		enc := encodeSections(t, want)
		var got SubmitSections
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		// Compare through the encoding: NaN ratings defeat DeepEqual.
		if !bytes.Equal(enc, encodeSections(t, got)) || len(got) != len(want) {
			t.Fatalf("round trip changed the call\nwant %+v\ngot  %+v", want, got)
		}
		for s := range want {
			if len(got[s].Responses) != len(want[s].Responses) || len(got[s].Charges) != len(want[s].Charges) {
				t.Fatalf("round trip changed section %d\nwant %+v\ngot  %+v", s, want[s], got[s])
			}
		}
		if err := got.UnmarshalBinary(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		step := 1 + len(enc)/64
		for cut := 0; cut < len(enc); cut += step {
			if err := got.UnmarshalBinary(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
			}
		}
		if len(data) > 0 && data[0] != sectionsBodyTag {
			retagged := append([]byte{data[0]}, enc[1:]...)
			if err := got.UnmarshalBinary(retagged); err == nil {
				t.Fatalf("a call under leading byte %#x decoded", data[0])
			}
		}
	})
}

// perShardBody is a one-section call under the retired per-shard
// layout's leading byte, 0xB2, which a node now refuses.
func perShardBody(t testing.TB) []byte {
	t.Helper()
	b := encodeSections(t, SubmitSections{*benchSubmitRequest()})
	return append([]byte{0xB2}, b[2:]...)
}

// checkSectionsDecode holds the sections decoder to its properties on
// arbitrary bytes; see FuzzNodeSubmitBody.
func checkSectionsDecode(t *testing.T, data []byte) {
	var secs SubmitSections
	err := secs.UnmarshalBinary(data)
	if len(secs)*minSectionBytes > len(data) {
		t.Fatalf("%d sections sized from a %d-byte body", len(secs), len(data))
	}
	for i, s := range secs {
		if len(s.Responses)*minResponseBytes > len(data) || len(s.Charges)*minChargeBytes > len(data) {
			t.Fatalf("section %d: %d responses and %d charges sized from a %d-byte body", i, len(s.Responses), len(s.Charges), len(data))
		}
	}
	if err == nil && data[0] != sectionsBodyTag {
		t.Fatalf("a body with leading byte %#x decoded", data[0])
	}
	if err == nil {
		again := encodeSections(t, secs)
		var secs2 SubmitSections
		if err := secs2.UnmarshalBinary(again); err != nil || !bytes.Equal(again, encodeSections(t, secs2)) {
			t.Fatalf("decoded body does not re-encode to a fixed point: %v", err)
		}
	}
}
