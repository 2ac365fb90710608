package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"loki/internal/aggregate"
	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// raceSurvey returns the mixed-kind survey the read-path tests fold.
func ckptSurvey() *survey.Survey {
	return &survey.Survey{
		ID:    "ckpt",
		Title: "Checkpoint test survey",
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q1", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
		},
		RewardCents: 1,
	}
}

func ckptResponse(sv *survey.Survey, i int) *survey.Response {
	levels := []string{"none", "low", "medium", "high"}
	return &survey.Response{
		SurveyID:     sv.ID,
		WorkerID:     fmt.Sprintf("w%04d", i),
		PrivacyLevel: levels[i%4],
		Obfuscated:   i%4 != 0,
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", float64(1+i%5)),
			survey.ChoiceAnswer("q1", i%2),
		},
	}
}

func submitOK(t testing.TB, ts *httptest.Server, r *survey.Response) {
	t.Helper()
	resp, body := doReq(t, http.MethodPost, submitURL(ts, r.SurveyID), r, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
}

func adminInfo(t *testing.T, ts *httptest.Server) *AdminStoreInfo {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d: %s", resp.StatusCode, body)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return &info
}

// TestRepublishInvalidatesLiveAggregate is the regression test for the
// stale-aggregate bug: republishing a survey with changed questions must
// drop the live accumulator, so /aggregate answers under the new
// definition instead of bins laid out for the old question set.
func TestRepublishInvalidatesLiveAggregate(t *testing.T) {
	ts, st := newTestServer(t)
	v1 := ckptSurvey()
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", v1, testToken)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d", resp.StatusCode)
	}
	for i := 0; i < 20; i++ {
		submitOK(t, ts, ckptResponse(v1, i))
	}
	// Warm the live accumulator under v1.
	getAggregate(t, ts, v1.ID)

	// Republish with a changed question set: q1 grows an option and a
	// new rating question appears. Old responses stay foldable (their
	// choices remain in range; the new question is simply unanswered).
	v2 := ckptSurvey()
	v2.Questions[1].Options = []string{"a", "b", "c"}
	v2.Questions = append(v2.Questions, survey.Question{
		ID: "q2", Text: "rate again", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 10,
	})
	resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", v2, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("republish = %d: %s", resp.StatusCode, body)
	}

	// New submissions answer the v2 question set.
	for i := 20; i < 30; i++ {
		r := ckptResponse(v2, i)
		r.Answers[1] = survey.ChoiceAnswer("q1", i%3)
		r.Answers = append(r.Answers, survey.RatingAnswer("q2", float64(1+i%10)))
		submitOK(t, ts, r)
	}

	// The live read path must now agree with a from-scratch recompute
	// under v2 — including the new question and the widened choice
	// domain. Without invalidation the accumulator still has v1's
	// two-option bins and no q2 at all.
	live := getAggregate(t, ts, v2.ID)
	if len(live.Questions) != 2 || len(live.Choices) != 1 {
		t.Fatalf("live aggregate shape %d/%d, want v2's 2/1", len(live.Questions), len(live.Choices))
	}
	if got := len(live.Choices[0].Estimated); got != 3 {
		t.Fatalf("choice domain = %d options, want v2's 3", got)
	}
	compareAggregate(t, live, recomputeAggregate(t, st, v2))

	// The admin surface reports the new fingerprint.
	info := adminInfo(t, ts)
	if len(info.Accumulators) != 1 || info.Accumulators[0].Fingerprint != v2.Fingerprint() {
		t.Errorf("accumulator fingerprint not rebuilt under v2: %+v", info.Accumulators)
	}
}

// TestRepublishIdenticalKeepsLiveState: republishing the same definition
// must not throw away fold state.
func TestRepublishIdenticalKeepsLiveState(t *testing.T) {
	ts, _ := newTestServer(t)
	sv := ckptSurvey()
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatal("publish failed")
	}
	for i := 0; i < 5; i++ {
		submitOK(t, ts, ckptResponse(sv, i))
	}
	getAggregate(t, ts, sv.ID)
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", ckptSurvey(), testToken); resp.StatusCode != http.StatusOK {
		t.Fatal("idempotent republish failed")
	}
	info := adminInfo(t, ts)
	if len(info.Accumulators) != 1 || info.Accumulators[0].Cursor != 5 {
		t.Errorf("identical republish dropped live state: %+v", info.Accumulators)
	}
}

// TestRepublishRacingSubmitRebuildsLiveSet: the live set is resolved by
// ID and kept while the caller's definition is the one it was folded
// under, so a republish that lands between a submit resolving the
// definition and that submit reaching liveFor must still end with the
// set rebuilt. First the interleaving step by step, then submitters
// and a republisher running free under -race.
func TestRepublishRacingSubmitRebuildsLiveSet(t *testing.T) {
	st := store.NewMem()
	srv, err := New(Config{Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { st.Close() })
	// v2 widens the choice question; a v1 response is valid under both.
	v1, v2 := ckptSurvey(), ckptSurvey()
	v2.Questions[1].Options = []string{"a", "b", "c"}
	publish := func(sv *survey.Survey) {
		t.Helper()
		if resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", sv, testToken); resp.StatusCode >= 300 {
			t.Fatalf("publish = %d: %s", resp.StatusCode, body)
		}
	}
	publish(v1)
	submitOK(t, ts, ckptResponse(v1, 0))

	// A submit resolved v1 ... the republish lands (store replaced, live
	// set invalidated) ... the submit reaches liveFor with v1 in hand.
	resolved, err := st.Survey(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	publish(v2)
	stale, err := srv.liveFor(resolved)
	if err != nil || stale.fp != v1.Fingerprint() {
		t.Fatalf("late v1 caller: fp %q, %v", stale.fp, err)
	}
	// The next caller resolves v2 and must not be handed v1's bins.
	fresh, err := srv.liveFor(v2)
	if err != nil || fresh == stale || fresh.fp != v2.Fingerprint() {
		t.Fatalf("v2 caller got the stale set (fp %q, %v)", fresh.fp, err)
	}
	if again, _ := srv.liveFor(v2.Clone()); again != fresh {
		t.Fatal("an unchanged definition rebuilt the set")
	}

	// Free-running: four submitters against a republisher flipping the
	// definition, ending on v2.
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(1)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, err := json.Marshal(ckptResponse(v1, int(next.Add(1))))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(submitURL(ts, v1.ID), "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("submit during republish = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		publish([]*survey.Survey{v1, v2}[i%2])
	}
	close(stop)
	wg.Wait()
	live := getAggregate(t, ts, v2.ID)
	if got := len(live.Choices[0].Estimated); got != 3 {
		t.Fatalf("choice domain = %d options after the last republish, want v2's 3", got)
	}
	compareAggregate(t, live, recomputeAggregate(t, st, v2))
	if info := adminInfo(t, ts); len(info.Accumulators) != 1 || info.Accumulators[0].Fingerprint != v2.Fingerprint() {
		t.Errorf("accumulator not folded under v2: %+v", info.Accumulators)
	}
}

// poisonStore wraps a Mem store and rewrites one scanned record so the
// accumulator rejects it — the stand-in for a record that validated
// under an old definition or a corrupted replay.
type poisonStore struct {
	*store.Mem
	poisonSeq uint64       // 0 disables
	scans     atomic.Int64 // ScanResponses calls, to prove reads stop rescanning
}

func (p *poisonStore) ScanResponses(id string, fromSeq uint64, fn func(uint64, *survey.Response) error) error {
	p.scans.Add(1)
	return p.Mem.ScanResponses(id, fromSeq, func(seq uint64, r *survey.Response) error {
		if seq == p.poisonSeq {
			bad := *r
			bad.Answers = append([]survey.Answer(nil), r.Answers...)
			bad.Answers[1] = survey.ChoiceAnswer("q1", 99) // out of range
			return fn(seq, &bad)
		}
		return fn(seq, r)
	})
}

// TestPoisonedRecordFailsOnce is the regression test for the wedged
// catch-up bug: a record the accumulator rejects must fail reads with a
// 500 that names the survey and seq, must not be rescanned on every
// read, must not be retried by every submit, and must be counted on the
// admin surface.
func TestPoisonedRecordFailsOnce(t *testing.T) {
	ps := &poisonStore{Mem: store.NewMem()}
	srv, err := New(Config{Store: ps, Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	sv := ckptSurvey()
	if err := ps.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		submitOK(t, ts, ckptResponse(sv, i))
	}
	ps.poisonSeq = 3

	// Force a rebuild that has to traverse the poisoned record: a fresh
	// server (the submits above already folded seqs 1..6 live).
	srv2, err := New(Config{Store: ps, Schedule: core.DefaultSchedule(), RequesterToken: testToken})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	resp, body := doReq(t, http.MethodGet, aggregateURL(ts2, sv.ID), nil, testToken)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned read = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), sv.ID) || !strings.Contains(string(body), "seq 3") {
		t.Fatalf("poison error lacks coordinates: %s", body)
	}

	// Subsequent reads fail fast: same 500, no new scan of the store.
	scansAfterFirst := ps.scans.Load()
	for i := 0; i < 3; i++ {
		resp, _ = doReq(t, http.MethodGet, aggregateURL(ts2, sv.ID), nil, testToken)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("sticky poisoned read = %d", resp.StatusCode)
		}
	}
	resp, _ = doReq(t, http.MethodGet, ts2.URL+"/api/v1/surveys/"+sv.ID+"/quality", nil, testToken)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sticky poisoned quality = %d", resp.StatusCode)
	}
	if got := ps.scans.Load(); got != scansAfterFirst {
		t.Fatalf("poisoned reads rescanned the store: %d scans, want %d", got, scansAfterFirst)
	}

	// Submits still land, and the write path does not retry the fold.
	preSubmitScans := ps.scans.Load()
	r := ckptResponse(sv, 6)
	resp, body = doReq(t, http.MethodPost, submitURL(ts2, sv.ID), r, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit while poisoned = %d: %s", resp.StatusCode, body)
	}
	if got := ps.scans.Load(); got != preSubmitScans {
		t.Fatalf("submit retried the poisoned fold: %d scans, want %d", got, preSubmitScans)
	}

	// Admin surface: one poisoned record, with coordinates.
	resp, body = doReq(t, http.MethodGet, ts2.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d", resp.StatusCode)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.PoisonedRecords != 1 {
		t.Errorf("poisoned_records = %d, want 1", info.PoisonedRecords)
	}
	if len(info.Accumulators) != 1 || info.Accumulators[0].PoisonedSeq != 3 || info.Accumulators[0].PoisonedError == "" {
		t.Errorf("accumulator poison info = %+v", info.Accumulators)
	}

	// Recovery: once the underlying record reads clean again, a
	// republish with a changed definition rebuilds the accumulator and
	// reads come back.
	ps.poisonSeq = 0
	v2 := ckptSurvey()
	v2.Title = "Checkpoint test survey (fixed)"
	if resp, _ := doReq(t, http.MethodPost, ts2.URL+"/api/v1/surveys", v2, testToken); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery republish = %d", resp.StatusCode)
	}
	got := getAggregate(t, ts2, sv.ID)
	compareAggregate(t, got, recomputeAggregate(t, ps, v2))
}

// TestPoisonErrorNamesNoWorker: a stored record the accumulator rejects
// reaches the requester — the failed read, and poisoned_error on the
// admin surface — by its coordinates and its question only, never by
// the worker who sent it or the choice they submitted.
func TestPoisonErrorNamesNoWorker(t *testing.T) {
	ts, _ := newTestServer(t)
	v1 := ckptSurvey()
	v1.Questions[1].Options = nil
	for i := 0; i < 60; i++ {
		v1.Questions[1].Options = append(v1.Questions[1].Options, fmt.Sprint("option ", i))
	}
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", v1, testToken); resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish = %d: %s", resp.StatusCode, body)
	}
	r := ckptResponse(v1, 0)
	r.WorkerID = "w-secret"
	r.Answers[1] = survey.ChoiceAnswer("q1", 47)
	submitOK(t, ts, r)
	// Republished with two options, the stored choice is out of range.
	if resp, body := doReq(t, http.MethodPost, ts.URL+"/api/v1/surveys", ckptSurvey(), testToken); resp.StatusCode != http.StatusOK {
		t.Fatalf("republish = %d: %s", resp.StatusCode, body)
	}
	resp, read := doReq(t, http.MethodGet, aggregateURL(ts, v1.ID), nil, testToken)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned read = %d: %s", resp.StatusCode, read)
	}
	resp, admin := doReq(t, http.MethodGet, ts.URL+"/api/v1/admin/store", nil, testToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin = %d: %s", resp.StatusCode, admin)
	}
	var info AdminStoreInfo
	if err := json.Unmarshal(admin, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Accumulators) != 1 || info.Accumulators[0].PoisonedSeq != 1 {
		t.Fatalf("accumulator poison info = %+v", info.Accumulators)
	}
	if msg := info.Accumulators[0].PoisonedError; !strings.Contains(msg, `"q1"`) {
		t.Errorf("poisoned_error %q does not name the question", msg)
	}
	for _, leak := range []struct{ where, text, secret string }{
		{"read body", string(read), "w-secret"},
		{"read body", string(read), "47"},
		{"admin body", string(admin), "w-secret"},
		{"poisoned_error", info.Accumulators[0].PoisonedError, "47"},
	} {
		if strings.Contains(leak.text, leak.secret) {
			t.Errorf("%s names %q: %s", leak.where, leak.secret, leak.text)
		}
	}
}

// scanTrackingStore records the fromSeq of every response scan, to prove
// restart catch-up starts at the checkpoint cursor instead of 0.
type scanTrackingStore struct {
	store.Store
	fromSeqs []uint64 // not concurrency-safe; the test reads it single-threaded
}

func (s *scanTrackingStore) ScanResponses(id string, fromSeq uint64, fn func(uint64, *survey.Response) error) error {
	s.fromSeqs = append(s.fromSeqs, fromSeq)
	return s.Store.ScanResponses(id, fromSeq, fn)
}

// TestCheckpointRestartEquivalence is the restart-equivalence test:
// restore-from-checkpoint + tail catch-up must equal a from-scratch
// recompute, and the catch-up scan must start at the checkpoint cursor.
func TestCheckpointRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "loki.jsonl")
	ckptDir := filepath.Join(dir, "ckpt")

	// First life: fold 30 responses, checkpoint on shutdown.
	st, err := store.OpenFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Checkpoints: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	sv := ckptSurvey()
	if err := st.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		submitOK(t, ts, ckptResponse(sv, i))
	}
	getAggregate(t, ts, sv.ID)
	ts.Close()
	if err := srv.Close(); err != nil { // final checkpoint flush
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: replay the store and the checkpoint log, append a
	// tail of 5 more responses, then read.
	st2, err := store.OpenFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	tracking := &scanTrackingStore{Store: st2}
	ck2, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck2.Close() })
	if rec, ok := ck2.Get(sv.ID); !ok || rec.Cursor != n {
		t.Fatalf("checkpoint after first life = %+v, want cursor %d", rec, n)
	}
	srv2, err := New(Config{
		Store: tracking, Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Checkpoints: ck2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	for i := n; i < n+5; i++ {
		submitOK(t, ts2, ckptResponse(sv, i))
	}
	got := getAggregate(t, ts2, sv.ID)
	if got.Choices[0].N != n+5 {
		t.Fatalf("restored aggregate folded %d, want %d", got.Choices[0].N, n+5)
	}
	compareAggregate(t, got, recomputeAggregate(t, st2, sv)) // the reference scan, untracked

	// Every catch-up scan in the second life resumed from the
	// checkpoint cursor or beyond — never a whole-backlog rescan.
	if len(tracking.fromSeqs) == 0 {
		t.Fatal("no scans observed")
	}
	for _, from := range tracking.fromSeqs {
		if from < n {
			t.Fatalf("restart catch-up scanned from %d, want >= %d (checkpoint cursor)", from, n)
		}
	}
}

// TestCheckpointFingerprintMismatch: a checkpoint taken under an old
// definition must be ignored after a republish — the rebuild scans from
// 0 and answers under the new definition.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "loki.jsonl")
	ckptDir := filepath.Join(dir, "ckpt")

	st, err := store.OpenFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store: st, Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Checkpoints: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	sv := ckptSurvey()
	if err := st.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		submitOK(t, ts, ckptResponse(sv, i))
	}
	getAggregate(t, ts, sv.ID)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// The definition changes out-of-band between lives (e.g. another
	// replica handled the republish), so the checkpoint log was never
	// tombstoned — the fingerprint is the only guard.
	v2 := ckptSurvey()
	v2.Questions[1].Options = []string{"a", "b", "c"}
	if err := st.ReplaceSurvey(v2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.OpenFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	tracking := &scanTrackingStore{Store: st2}
	ck2, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck2.Close() })
	srv2, err := New(Config{
		Store: tracking, Schedule: core.DefaultSchedule(), RequesterToken: testToken,
		Checkpoints: ck2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	got := getAggregate(t, ts2, sv.ID)
	if len(got.Choices) != 1 || len(got.Choices[0].Estimated) != 3 {
		t.Fatalf("aggregate not under v2: %+v", got.Choices)
	}
	compareAggregate(t, got, recomputeAggregate(t, tracking, v2))
	if len(tracking.fromSeqs) == 0 || tracking.fromSeqs[0] != 0 {
		t.Fatalf("stale checkpoint was trusted: first scan from %v, want 0", tracking.fromSeqs)
	}
}

// TestCheckpointAheadOfStore: a checkpoint whose cursor exceeds the
// store's history (a wiped or swapped store, a foreign checkpoint dir)
// must be distrusted — the server rebuilds from the store instead of
// serving phantom responses forever.
func TestCheckpointAheadOfStore(t *testing.T) {
	ckptDir := t.TempDir()
	sv := ckptSurvey()

	// Build a checkpoint claiming 50 responses...
	bigStore := store.NewMem()
	if err := bigStore.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := bigStore.AppendResponse(ckptResponse(sv, i)); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: bigStore, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Checkpoints: ck})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	getAggregate(t, ts, sv.ID)
	ts.Close()
	srv.Close()
	ck.Close()
	bigStore.Close()

	// ...then pair it with a store holding only 4.
	smallStore := store.NewMem()
	t.Cleanup(func() { smallStore.Close() })
	if err := smallStore.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := smallStore.AppendResponse(ckptResponse(sv, i)); err != nil {
			t.Fatal(err)
		}
	}
	ck2, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck2.Close() })
	srv2, err := New(Config{Store: smallStore, Schedule: core.DefaultSchedule(), RequesterToken: testToken, Checkpoints: ck2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	got := getAggregate(t, ts2, sv.ID)
	if got.Choices[0].N != 4 {
		t.Fatalf("aggregate folded %d responses, want the store's 4 (phantom checkpoint trusted)", got.Choices[0].N)
	}
	compareAggregate(t, got, recomputeAggregate(t, smallStore, sv))
	// And the submit path keeps folding normally.
	submitOK(t, ts2, ckptResponse(sv, 4))
	if got := getAggregate(t, ts2, sv.ID); got.Choices[0].N != 5 {
		t.Fatalf("after submit folded %d, want 5", got.Choices[0].N)
	}
}

// TestAdvanceBacklogGuard covers the cold-backlog fix: the submit path
// must skip the inline fold whenever the *unfolded backlog* is large —
// whether the accumulator is cold from seq 0 or checkpoint-restored to a
// stale cursor — and fold when the backlog is small, even from a
// nonzero restored cursor.
func TestAdvanceBacklogGuard(t *testing.T) {
	st := store.NewMem()
	t.Cleanup(func() { st.Close() })
	sv := ckptSurvey()
	if err := st.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	const total = coldBacklog + 200
	for i := 0; i < total; i++ {
		if err := st.AppendResponse(ckptResponse(sv, i)); err != nil {
			t.Fatal(err)
		}
	}
	router := shardset.NewLocalSingle(st)
	newLA := func() *livePart {
		acc, err := aggregate.NewAccumulator(core.DefaultSchedule(), sv)
		if err != nil {
			t.Fatal(err)
		}
		return &livePart{surveyID: sv.ID, acc: acc}
	}

	// Cold from 0 with a big backlog: skip.
	la := newLA()
	if err := la.advance(router); err != nil {
		t.Fatal(err)
	}
	if got := la.cursor.Load(); got != 0 {
		t.Fatalf("cold big-backlog advance folded to %d, want 0", got)
	}

	// Restored to a stale cursor with a big remaining backlog: skip too.
	// (The old cursor==0 guard folded the whole tail inline here.)
	la = newLA()
	la.cursor.Store(100)
	if err := la.advance(router); err != nil {
		t.Fatal(err)
	}
	if got := la.cursor.Load(); got != 100 {
		t.Fatalf("restored big-backlog advance folded to %d, want 100", got)
	}

	// Restored with a small tail: fold it.
	la = newLA()
	la.cursor.Store(total - 10)
	if err := la.advance(router); err != nil {
		t.Fatal(err)
	}
	if got := la.cursor.Load(); got != total {
		t.Fatalf("small-tail advance folded to %d, want %d", got, total)
	}
}
