package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"loki/internal/core"
	"loki/internal/store"
	"loki/internal/survey"
)

// faultyStore wraps a Mem store and fails (or panics) on demand.
type faultyStore struct {
	*store.Mem
	failSurveys   bool
	failResponses bool
	panicSurveys  bool
}

func (f *faultyStore) Surveys() ([]*survey.Survey, error) {
	if f.panicSurveys {
		panic("storage corrupted")
	}
	if f.failSurveys {
		return nil, errors.New("disk on fire")
	}
	return f.Mem.Surveys()
}

// ScanResponses is the read path /aggregate and /quality actually use.
func (f *faultyStore) ScanResponses(id string, fromSeq uint64, fn func(uint64, *survey.Response) error) error {
	if f.failResponses {
		return errors.New("disk on fire")
	}
	return f.Mem.ScanResponses(id, fromSeq, fn)
}

func newFaultyServer(t *testing.T, fs *faultyStore) *httptest.Server {
	t.Helper()
	srv, err := New(Config{
		Store:          fs,
		Schedule:       core.DefaultSchedule(),
		RequesterToken: testToken,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestListSurveysStoreFailure(t *testing.T) {
	fs := &faultyStore{Mem: store.NewMem(), failSurveys: true}
	ts := newFaultyServer(t, fs)
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys", nil, "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing store list = %d", resp.StatusCode)
	}
}

func TestAggregateStoreFailure(t *testing.T) {
	fs := &faultyStore{Mem: store.NewMem()}
	if _, err := fs.Mem.Publish(survey.Awareness()); err != nil {
		t.Fatal(err)
	}
	fs.failResponses = true
	ts := newFaultyServer(t, fs)
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/"+survey.AwarenessID+"/aggregate", nil, testToken)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing store aggregate = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys/"+survey.AwarenessID+"/quality", nil, testToken)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing store quality = %d", resp.StatusCode)
	}
}

func TestPublishAuditStoreFailure(t *testing.T) {
	// The audit listing fails after the survey was stored: the handler
	// must surface a 500 rather than panic.
	fs := &faultyStore{Mem: store.NewMem(), failSurveys: true}
	ts := newFaultyServer(t, fs)
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", survey.Awareness(), testToken)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing audit publish = %d", resp.StatusCode)
	}
}

func TestPanicRecovery(t *testing.T) {
	fs := &faultyStore{Mem: store.NewMem(), panicSurveys: true}
	ts := newFaultyServer(t, fs)
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys", nil, "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d (%s)", resp.StatusCode, body)
	}
	// The server survives and keeps serving after the panic.
	fs.panicSurveys = false
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/api/v1/surveys", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive panic: %d", resp.StatusCode)
	}
}
