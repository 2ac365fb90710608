package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"loki/internal/core"
	"loki/internal/store"
	"loki/internal/survey"
)

// decodeBenchRecord is record i in the benchmark's upload shape: two
// noisy ratings and a choice, about 250 bytes as JSON.
func decodeBenchRecord(r *rand.Rand, i int) survey.Response {
	return survey.Response{
		SurveyID: fmt.Sprintf("bench-%04d", i%8), WorkerID: fmt.Sprintf("p%05d", i), PrivacyLevel: "medium", Obfuscated: true,
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", 1+4*r.Float64()+r.NormFloat64()),
			survey.RatingAnswer("q1", 1+4*r.Float64()+r.NormFloat64()),
			survey.ChoiceAnswer("q2", r.IntN(3)),
		},
	}
}

// BenchmarkSubmitDecode is readJSON on the two public submit bodies —
// one benchmark-shaped record, and a batch of 64 — through the schema
// scanner and through the encoding/json path a declined body takes.
func BenchmarkSubmitDecode(b *testing.B) {
	srv, err := New(Config{Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	one := decodeBenchRecord(r, 0)
	var batch BatchSubmitRequest
	for i := 0; i < 64; i++ {
		batch.Responses = append(batch.Responses, decodeBenchRecord(r, i))
	}
	singleBody, err := json.Marshal(&one)
	if err != nil {
		b.Fatal(err)
	}
	batchBody, err := json.Marshal(&batch)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
		// decode runs readJSON once, through the scanner or not.
		decode func(w http.ResponseWriter, req *http.Request, scanner bool) bool
	}{
		{"single", singleBody, func(w http.ResponseWriter, req *http.Request, scanner bool) bool {
			var resp survey.Response
			var scan func([]byte) bool
			if scanner {
				scan = resp.ScanJSON
			}
			return srv.readJSON(w, req, &resp, scan)
		}},
		{"batch64", batchBody, func(w http.ResponseWriter, req *http.Request, scanner bool) bool {
			var body BatchSubmitRequest
			var scan func([]byte) bool
			if scanner {
				scan = func(b []byte) (ok bool) {
					body.Responses, ok = survey.ScanResponsesJSON(b)
					return ok
				}
			}
			return srv.readJSON(w, req, &body, scan)
		}},
	} {
		for _, path := range []string{"scanner", "fallback"} {
			b.Run(c.name+"/"+path, func(b *testing.B) {
				w := httptest.NewRecorder()
				rd := bytes.NewReader(c.body)
				req := httptest.NewRequest(http.MethodPost, "/api/v1/responses", io.NopCloser(rd))
				b.SetBytes(int64(len(c.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rd.Reset(c.body)
					if !c.decode(w, req, path == "scanner") {
						b.Fatalf("decode refused: %s", w.Body)
					}
				}
			})
		}
	}
}
