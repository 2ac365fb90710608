package server

import (
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"loki/internal/core"
	"loki/internal/store"
)

// TestRouteDocMatchesTable holds the package doc's route list to the
// route table the mux is built from: the same patterns, in the same
// order, each with the same audience.
func TestRouteDocMatchesTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "server.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if fs := strings.Fields(line); len(fs) >= 3 && (fs[0] == "GET" || fs[0] == "POST") {
			doc = append(doc, fs[0]+" "+fs[1]+" "+fs[2])
		}
	}
	srv, err := New(Config{Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var table []string
	for _, rt := range srv.Routes() {
		table = append(table, rt.Pattern+" "+rt.Audience)
	}
	if !reflect.DeepEqual(doc, table) {
		t.Fatalf("package doc lists\n%s\nthe route table is\n%s", strings.Join(doc, "\n"), strings.Join(table, "\n"))
	}
}

// TestOneCredentialPerAudience: the requester token opens no cluster
// route, the cluster token no requester route, an empty cluster token
// opens nothing ("Bearer " included), and one token may not be both.
func TestOneCredentialPerAudience(t *testing.T) {
	if _, err := New(Config{Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: testToken}); err == nil {
		t.Fatal("New accepted one token for both audiences")
	}
	for _, cluster := range []string{"", testClusterToken} {
		srv, err := New(Config{Store: store.NewMem(), Schedule: core.DefaultSchedule(), RequesterToken: testToken, ClusterToken: cluster})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, rt := range srv.Routes() {
			method, path, _ := strings.Cut(rt.Pattern, " ")
			path = strings.NewReplacer("{id}", "s", "{worker}", "w", "{shard}", "0").Replace(path)
			for _, auth := range []string{"", "Bearer ", "Bearer " + testToken, "Bearer " + testClusterToken} {
				req := httptest.NewRequest(method, path, nil)
				if auth != "" {
					req.Header.Set("Authorization", auth)
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				open := rt.Audience == "public" ||
					rt.Audience == "requester" && auth == "Bearer "+testToken ||
					rt.Audience == "cluster" && cluster != "" && auth == "Bearer "+cluster
				want := `{"error":"missing or invalid ` + rt.Audience + ` token"}` + "\n"
				if refused := rec.Code == http.StatusUnauthorized && rec.Body.String() == want; refused == open {
					t.Errorf("cluster token %q: %s with %q = %d %s", cluster, rt.Pattern, auth, rec.Code, rec.Body)
				}
			}
		}
	}
}
