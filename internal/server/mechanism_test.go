package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"loki/internal/store"
	"loki/internal/survey"
)

// wideSurvey is a survey Validate accepts whose one numeric question
// spans 0..1e160: Δ² and σ² both overflow a float64, Δ/σ does not.
func wideSurvey() *survey.Survey {
	return &survey.Survey{ID: "wide", Title: "Wide", Questions: []survey.Question{
		{ID: "big", Text: "how many", Kind: survey.Numeric, ScaleMin: 0, ScaleMax: 1e160},
	}}
}

// wideResponse is one low-level response to wideSurvey, its answer
// already noisy.
func wideResponse(worker string) *survey.Response {
	return &survey.Response{
		SurveyID: "wide", WorkerID: worker, PrivacyLevel: "low", Obfuscated: true,
		Answers: []survey.Answer{survey.RatingAnswer("big", 5e159)},
	}
}

// ratingRho is what one 1..5 rating costs at the level: a privacy level
// costs the same per numeric answer on every scale.
func ratingRho(t *testing.T, level string) float64 {
	t.Helper()
	return responseRho(t, &survey.Survey{ID: "rating", Questions: []survey.Question{
		{ID: "r", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
	}}, level)
}

// publishAndSubmit publishes wideSurvey at base and submits one
// response to it, which must be accepted.
func publishAndSubmit(t *testing.T, base, worker string) {
	t.Helper()
	if resp, body := doReq(t, http.MethodPost, base+"/api/v1/surveys", wideSurvey(), testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	if resp, body := doReq(t, http.MethodPost, base+"/api/v1/surveys/wide/responses", wideResponse(worker), ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
}

// TestWideNumericScalePriced: a numeric question whose Δ² overflows is
// priced like any other. Its charge was NaN: an enforcing server
// answered 503, a logging one stored the response and charged ρ 0.
func TestWideNumericScalePriced(t *testing.T) {
	for _, mode := range []string{"log", "enforce"} {
		t.Run(mode, func(t *testing.T) {
			base, _ := pubStandalone(t, store.NewMem(), mode, Config{})
			const worker = "w-wide"
			publishAndSubmit(t, base, worker)
			resp, body := doReq(t, http.MethodGet, base+"/api/v1/admin/budget/"+worker, nil, testClusterToken)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("account = %d: %s", resp.StatusCode, body)
			}
			var acct struct {
				Rho float64 `json:"rho"`
			}
			if err := json.Unmarshal(body, &acct); err != nil {
				t.Fatal(err)
			}
			if want := ratingRho(t, "low"); acct.Rho != want {
				t.Fatalf("account ρ = %g, want %g (a 1..5 rating at low): %s", acct.Rho, want, body)
			}
		})
	}
}

// checkUnencodable holds a read whose estimate JSON cannot carry to a
// 500 refusal with a body, twice: a failed rendering is not kept.
func checkUnencodable(t *testing.T, base string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		resp, body := doReq(t, http.MethodGet, base+"/api/v1/surveys/wide/aggregate", nil, testToken)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "cannot be encoded") {
			t.Fatalf("aggregate read %d = %d (Content-Length %q): %s", i, resp.StatusCode, resp.Header.Get("Content-Length"), body)
		}
	}
	// The same survey's quality tally encodes, and is served.
	if resp, body := doReq(t, http.MethodGet, base+"/api/v1/surveys/wide/quality", nil, testToken); resp.StatusCode != http.StatusOK {
		t.Fatalf("quality = %d: %s", resp.StatusCode, body)
	}
}

// TestUnencodableReadRefused: the wide survey's noise-aware variance
// overflows to +Inf, which JSON cannot carry. The read was a 200 with
// an empty body; it is a 500 refusal, on a standalone and on a frontend.
func TestUnencodableReadRefused(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		base, _ := pubStandalone(t, store.NewMem(), "", Config{})
		publishAndSubmit(t, base, "w1")
		checkUnencodable(t, base)
	})
	t.Run("frontend", func(t *testing.T) {
		pc := newPubCluster(t, pubClusterOpts{})
		publishAndSubmit(t, pc.front, "w1")
		checkUnencodable(t, pc.front)
	})
}

// TestFrontendAccumulatorClearRefused: a frontend holds no accumulator,
// so its clear is a 409 naming where they live; each node clears its
// own.
func TestFrontendAccumulatorClearRefused(t *testing.T) {
	pc := newPubCluster(t, pubClusterOpts{})
	id := clusterTestSurvey().ID
	resp, body := doReq(t, http.MethodPost, pc.front+"/api/v1/admin/accumulator/"+id+"/clear", nil, testClusterToken)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "accumulators live on the nodes") {
		t.Fatalf("frontend clear = %d: %s", resp.StatusCode, body)
	}
	for i, wn := range pc.nodes {
		if resp, body := doReq(t, http.MethodPost, wn.url+"/api/v1/admin/accumulator/"+id+"/clear", nil, testClusterToken); resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d clear = %d: %s", i, resp.StatusCode, body)
		}
	}
}
