package shardrpc

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"loki/internal/budget"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

func encodeBody(t testing.TB, req *SubmitRequest) []byte {
	t.Helper()
	b, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSubmitBodyMatchesJSON: a request comes out of the binary body
// exactly as it comes out of the JSON one — plain, charged, with an
// uncharged entry riding along, stamped and unstamped.
func TestSubmitBodyMatchesJSON(t *testing.T) {
	charged := benchSubmitRequest()
	charged.Epoch = 7
	charged.Charges = make([]budget.Charge, len(charged.Responses))
	for i := range charged.Charges {
		if i%5 == 4 {
			continue // no charge for this entry
		}
		r := &charged.Responses[i]
		r.Answers[0].Rating += 1 / float64(i+3) // not a short decimal
		charged.Charges[i] = budget.Charge{WorkerID: r.WorkerID, SurveyID: r.SurveyID, Rho: 0.5 / float64(i+1), Unprotected: i % 3, Enforce: i%2 == 0}
	}
	for name, req := range map[string]*SubmitRequest{
		"plain":    benchSubmitRequest(),
		"charged":  charged,
		"negative": {Shard: -1, Responses: []survey.Response{rpcResponse("s", 1)}},
	} {
		var viaBinary, viaJSON SubmitRequest
		if err := viaBinary.UnmarshalBinary(encodeBody(t, req)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaBinary, viaJSON) || !reflect.DeepEqual(&viaBinary, req) {
			t.Errorf("%s: bodies disagree\nbinary %+v\njson   %+v", name, viaBinary, viaJSON)
		}
	}
}

// FuzzSubmitBody: arbitrary bytes never panic the body decoder and
// whatever decodes re-encodes to a fixed point; a request assembled
// from the fuzzer's values round-trips, and every truncation and any
// trailing byte is refused.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte{}, "", uint64(0), int64(0))
	f.Add([]byte{submitBodyTag, 0, 0, 0, 0}, "w", math.Float64bits(math.NaN())|7, int64(-9))
	f.Add(encodeBody(f, benchSubmitRequest()), strings.Repeat("x", 3000), math.Float64bits(0.1), int64(1<<40))
	f.Add([]byte(`{"shard":0,"responses":[]}`), "é", uint64(1)<<63, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, text string, bits uint64, n int64) {
		var dec SubmitRequest
		if err := dec.UnmarshalBinary(data); err == nil {
			again := encodeBody(t, &dec)
			var dec2 SubmitRequest
			if err := dec2.UnmarshalBinary(again); err != nil || !bytes.Equal(again, encodeBody(t, &dec2)) {
				t.Fatalf("decoded body does not round-trip: %v", err)
			}
		}
		want := SubmitRequest{Shard: int(n), Epoch: bits}
		for i := 0; i < int(uint64(n)%4); i++ {
			want.Responses = append(want.Responses, survey.Response{
				SurveyID: text, WorkerID: text[:len(text)/2], Day: int(-n),
				Answers: []survey.Answer{{QuestionID: "q", Kind: survey.QuestionKind(i), Rating: math.Float64frombits(bits), Choice: int(n), Text: text}},
			})
			want.Charges = append(want.Charges, budget.Charge{WorkerID: text, Rho: math.Float64frombits(bits), Unprotected: int(n), Enforce: i%2 == 1})
		}
		if n%2 == 0 {
			want.Charges = nil
		}
		enc := encodeBody(t, &want)
		var got SubmitRequest
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		// Compare through the encoding: NaN ratings defeat DeepEqual.
		if !bytes.Equal(enc, encodeBody(t, &got)) || len(got.Responses) != len(want.Responses) || len(got.Charges) != len(want.Charges) {
			t.Fatalf("round trip changed the request\nwant %+v\ngot  %+v", want, got)
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
	})
}

// submitSpy fronts a Handler, recording the content type of every
// submit it sees and, while mute is set, stripping the capability
// advertisement from every reply — which is all that distinguishes a
// node built before the binary body from one built after.
type submitSpy struct {
	next http.Handler
	mu   sync.Mutex
	mute bool
	seen []string
}

type muteWriter struct{ http.ResponseWriter }

func (m muteWriter) WriteHeader(code int) {
	m.Header().Del(AcceptHeader)
	m.ResponseWriter.WriteHeader(code)
}

func (s *submitSpy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if strings.HasSuffix(r.URL.Path, "/submit") {
		s.seen = append(s.seen, r.Header.Get("Content-Type"))
	}
	mute := s.mute
	s.mu.Unlock()
	if mute {
		w = muteWriter{w}
	}
	s.next.ServeHTTP(w, r)
}

func (s *submitSpy) set(mute bool) {
	s.mu.Lock()
	s.mute = mute
	s.mu.Unlock()
}

func newSpiedNode(t *testing.T) (*Client, *submitSpy, *shardset.Local) {
	t.Helper()
	local, err := shardset.NewLocal([]store.Store{store.NewMem()}, shardset.LocalOptions{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	h, err := NewHandler(&testBackend{local: local, total: 1}, "cluster-token")
	if err != nil {
		t.Fatal(err)
	}
	spy := &submitSpy{next: h}
	ts := httptest.NewServer(spy)
	t.Cleanup(ts.Close)
	if err := local.PutSurvey(rpcSurvey("s")); err != nil {
		t.Fatal(err)
	}
	return NewClient(ts.URL, "cluster-token", nil), spy, local
}

func submitOne(t *testing.T, c *Client, i int) {
	t.Helper()
	res, err := c.Submit(&SubmitRequest{Shard: 0, Responses: []survey.Response{rpcResponse("s", i)}})
	if err != nil || res.Appended != 1 {
		t.Fatalf("submit %d: %+v, %v", i, res, err)
	}
}

// TestSubmitBodyNegotiation walks one client through a node's upgrade
// and rollback. It never sends a binary body to a handler whose newest
// reply did not advertise one; it switches on the first reply that
// does, with no extra call; every submit on either side lands.
func TestSubmitBodyNegotiation(t *testing.T) {
	c, spy, local := newSpiedNode(t)

	spy.set(true) // an old node: no advertisement
	if _, err := c.Meta(); err != nil {
		t.Fatal(err)
	}
	submitOne(t, c, 1)
	submitOne(t, c, 2)

	spy.set(false) // upgraded in place: this JSON submit's reply advertises
	submitOne(t, c, 3)
	submitOne(t, c, 4)

	spy.set(true) // rolled back: the reply to a non-submit call says so first
	if _, err := c.Meta(); err != nil {
		t.Fatal(err)
	}
	submitOne(t, c, 5)

	want := []string{"application/json", "application/json", "application/json", SubmitContentType, "application/json"}
	if !reflect.DeepEqual(spy.seen, want) {
		t.Fatalf("submit content types %v, want %v", spy.seen, want)
	}
	if n := local.CountShard(0, "s"); n != 5 {
		t.Fatalf("%d responses stored, want 5", n)
	}
	// What arrived through the binary body is what was sent.
	var got []survey.Response
	if err := local.ScanShard(0, "s", 0, func(_ uint64, r *survey.Response) error {
		got = append(got, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if want := rpcResponse("s", i+1); !reflect.DeepEqual(r, want) {
			t.Errorf("stored response %d = %+v, want %+v", i+1, r, want)
		}
	}
}

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

// TestSubmitBodyOverLimit: a binary body beyond maxBodyBytes is refused
// through the same MaxBytesReader, with the same status, as a JSON one.
func TestSubmitBodyOverLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates two 32 MiB bodies")
	}
	c, _, local := newSpiedNode(t)
	big := survey.Response{SurveyID: "s", WorkerID: "w", Answers: []survey.Answer{{QuestionID: "q0", Text: strings.Repeat("x", maxBodyBytes)}}}
	req := &SubmitRequest{Shard: 0, Responses: []survey.Response{big}}
	js, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	jsonStatus, jsonMsg := postRaw(t, c, "application/json", js)
	binStatus, binMsg := postRaw(t, c, SubmitContentType, encodeBody(t, req))
	if jsonStatus != http.StatusBadRequest || binStatus != jsonStatus {
		t.Fatalf("over-limit bodies: JSON %d (%s), binary %d (%s)", jsonStatus, jsonMsg, binStatus, binMsg)
	}
	if !strings.Contains(binMsg, "request body too large") || !strings.Contains(jsonMsg, "request body too large") {
		t.Fatalf("refusals do not name the cap: %q / %q", jsonMsg, binMsg)
	}
	if n := local.CountShard(0, "s"); n != 0 {
		t.Fatalf("%d responses stored from refused bodies", n)
	}
}
