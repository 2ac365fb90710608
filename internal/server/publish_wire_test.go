package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loki/internal/store"
	"loki/internal/survey"
)

// The public publish wire — POST /api/v1/surveys — pinned byte for
// byte: status and body for a created, an unchanged (identical
// republish), a replaced and an invalid definition, on a standalone
// server and on a frontend over two nodes, each followed by the
// definition a read then returns.
//
// testdata/public_wire/publish_*.golden were written by 6420600, the
// commit before publishing became one verb whose outcome each store
// decides, from a `git archive` export of it with this file copied in:
//
//	LOKI_FIXTURE_OUT=<repo>/internal/server/testdata/public_wire \
//	    go test -run TestWritePublishWireGoldens ./internal/server
//
// and must keep passing unchanged.

// publishPost publishes body as the requester.
func publishPost(t *testing.T, base string, body []byte) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/surveys", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+testToken)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return pubReply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: raw}.String()
}

// publishSurvey publishes sv and appends what a read of its ID returns.
func publishSurvey(t *testing.T, base string, sv *survey.Survey) string {
	t.Helper()
	body, err := json.Marshal(sv)
	if err != nil {
		t.Fatal(err)
	}
	out := publishPost(t, base, body)
	resp, got := doReq(t, http.MethodGet, base+"/api/v1/surveys/"+sv.ID, nil, "")
	return out + "\nthen GET: " + resp.Status + "\n" + string(got)
}

// publishCase is one pinned publish verdict on a fresh topology.
type publishCase struct {
	name string
	run  func(t *testing.T, base string) string
}

func publishWireCases() []publishCase {
	fresh := clusterTestSurvey()
	fresh.ID = "fresh"
	changed := clusterTestSurvey()
	changed.Title = "Cluster test survey, second version"
	changed.Questions = changed.Questions[:2]
	invalid := clusterTestSurvey()
	invalid.Questions = nil
	return []publishCase{
		{"created", func(t *testing.T, base string) string { return publishSurvey(t, base, fresh) }},
		{"unchanged", func(t *testing.T, base string) string { return publishSurvey(t, base, clusterTestSurvey()) }},
		{"replaced", func(t *testing.T, base string) string { return publishSurvey(t, base, changed) }},
		{"invalid", func(t *testing.T, base string) string { return publishSurvey(t, base, invalid) }},
	}
}

// eachPublishWire runs every case in both roles: a standalone server
// and a frontend, each already holding the two test surveys.
func eachPublishWire(t *testing.T, fn func(t *testing.T, path, got string)) {
	roles := []struct {
		name string
		base func(t *testing.T) string
	}{
		{"standalone", func(t *testing.T) string {
			base, _ := pubStandalone(t, store.NewMem(), "", Config{})
			return base
		}},
		{"frontend", func(t *testing.T) string { return newPubCluster(t, pubClusterOpts{}).front }},
	}
	for _, role := range roles {
		for _, c := range publishWireCases() {
			t.Run(role.name+"_"+c.name, func(t *testing.T) {
				name := "publish_" + role.name + "_" + c.name + ".golden"
				fn(t, filepath.Join("public_wire", name), c.run(t, role.base(t)))
			})
		}
	}
}

// TestWritePublishWireGoldens is the script that records the goldens; it
// does nothing unless LOKI_FIXTURE_OUT names the directory to write.
func TestWritePublishWireGoldens(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("LOKI_FIXTURE_OUT not set")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	eachPublishWire(t, func(t *testing.T, path, got string) {
		if err := os.WriteFile(filepath.Join(out, filepath.Base(path)), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPublishWireGolden holds every public publish verdict to its golden.
func TestPublishWireGolden(t *testing.T) {
	eachPublishWire(t, func(t *testing.T, path, got string) {
		want, err := os.ReadFile(filepath.Join("testdata", path))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("publish reply changed\n--- got ---\n%s\n--- want ---\n%s", got, strings.TrimSpace(string(want)))
		}
	})
}
