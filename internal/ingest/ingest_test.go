package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"loki/internal/blockio"
	"loki/internal/store"
	"loki/internal/survey"
)

// testConfig keeps segments tiny so rotation and compaction trigger
// under test-sized workloads.
func testConfig(shards int) Config {
	return Config{
		Shards:          shards,
		MaxBatch:        64,
		SegmentBytes:    4096,
		CompactSegments: 2,
	}
}

func openTest(t *testing.T, dir string, cfg Config) *Sharded {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitSnapshots blocks until the background compactor has published at
// least n snapshots.
func waitSnapshots(t *testing.T, s *Sharded, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Snapshots < n {
		if time.Now().After(deadline) {
			t.Fatalf("compactor never reached %d snapshots: stats %+v", n, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func sampleSurvey() *survey.Survey {
	return survey.Lecturers([]string{"A", "B"})
}

func sampleResponse(worker string) *survey.Response {
	return &survey.Response{
		SurveyID: survey.LecturerID,
		WorkerID: worker,
		Answers: []survey.Answer{
			survey.RatingAnswer("lecturer-00", 4),
			survey.RatingAnswer("lecturer-01", 3),
		},
		PrivacyLevel: "medium",
		Obfuscated:   true,
	}
}

// benchSurvey returns a small distinct survey so tests can spread load
// across shards.
func benchSurvey(i int) *survey.Survey {
	return &survey.Survey{
		ID:    fmt.Sprintf("ingest-test-%02d", i),
		Title: fmt.Sprintf("Ingest test survey %d", i),
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		},
		RewardCents: 10,
	}
}

func benchResponse(surveyID, worker string) *survey.Response {
	return &survey.Response{
		SurveyID:     surveyID,
		WorkerID:     worker,
		Answers:      []survey.Answer{survey.RatingAnswer("q0", 3)},
		PrivacyLevel: "medium",
		Obfuscated:   true,
	}
}

// TestStoreContract exercises the store.Store contract, mirroring the
// store package's own contract test.
func TestStoreContract(t *testing.T) {
	s := openTest(t, t.TempDir(), testConfig(4))
	defer s.Close()

	sv := sampleSurvey()
	if o, err := s.Publish(sv); err != nil || o != store.Created {
		t.Fatalf("first publish: %v, %v", o, err)
	}
	if o, err := s.Publish(sv); err != nil || o != store.Unchanged {
		t.Fatalf("identical republish: %v, %v", o, err)
	}
	if o, err := s.Publish(&survey.Survey{ID: "bad"}); err == nil || o != store.Unchanged {
		t.Fatalf("invalid survey: %v, %v", o, err)
	}
	got, err := s.Survey(sv.ID)
	if err != nil || got.ID != sv.ID {
		t.Fatalf("Survey: %v, %v", got, err)
	}
	if _, err := s.Survey("nope"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("missing survey: %v", err)
	}
	all, err := s.Surveys()
	if err != nil || len(all) != 1 {
		t.Fatalf("Surveys: %d, %v", len(all), err)
	}

	if err := s.AppendResponse(sampleResponse("w1")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResponse(sampleResponse("w2")); err != nil {
		t.Fatal(err)
	}
	bad := sampleResponse("w3")
	bad.SurveyID = "nope"
	if err := s.AppendResponse(bad); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("response to unknown survey: %v", err)
	}
	short := sampleResponse("w4")
	short.Answers = short.Answers[:1]
	if err := s.AppendResponse(short); err == nil {
		t.Fatal("invalid response stored")
	}

	rs, err := store.CollectResponses(s, sv.ID)
	if err != nil || len(rs) != 2 {
		t.Fatalf("Responses: %d, %v", len(rs), err)
	}
	if rs[0].WorkerID != "w1" || rs[1].WorkerID != "w2" {
		t.Fatalf("append order lost: %q, %q", rs[0].WorkerID, rs[1].WorkerID)
	}
	if _, err := store.CollectResponses(s, "nope"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("responses of unknown survey: %v", err)
	}
	if n := s.ResponseCount(sv.ID); n != 2 {
		t.Fatalf("ResponseCount = %d, want 2", n)
	}
	if n := s.ResponseCount("nope"); n != 0 {
		t.Fatalf("ResponseCount(unknown) = %d, want 0", n)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResponse(sampleResponse("w5")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if _, err := s.Publish(benchSurvey(0)); err == nil {
		t.Fatal("put after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestConcurrentAppends hammers every shard from many goroutines and
// checks nothing is lost, misplaced or reordered per worker stream.
func TestConcurrentAppends(t *testing.T) {
	s := openTest(t, t.TempDir(), testConfig(4))
	defer s.Close()

	const surveys = 8
	const workers = 16
	const perWorker = 25
	for i := 0; i < surveys; i++ {
		if _, err := s.Publish(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, surveys*workers)
	for i := 0; i < surveys; i++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				id := benchSurvey(i).ID
				for k := 0; k < perWorker; k++ {
					r := benchResponse(id, fmt.Sprintf("s%d-w%d-%d", i, w, k))
					if err := s.AppendResponse(r); err != nil {
						errs <- err
						return
					}
				}
			}(i, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < surveys; i++ {
		id := benchSurvey(i).ID
		if n := s.ResponseCount(id); n != workers*perWorker {
			t.Fatalf("survey %d: %d responses, want %d", i, n, workers*perWorker)
		}
	}
	st := s.Stats()
	if st.Appends != surveys*workers*perWorker {
		t.Fatalf("Stats.Appends = %d, want %d", st.Appends, surveys*workers*perWorker)
	}
	if st.Commits < 1 || st.Commits > st.Appends {
		t.Fatalf("Stats.Commits = %d outside [1, %d]", st.Commits, st.Appends)
	}
}

// TestReopenReplaysEverything writes through rotations and compactions,
// closes, reopens, and verifies every acknowledged response survives.
func TestReopenReplaysEverything(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(3)
	s := openTest(t, dir, cfg)

	const surveys = 6
	const perSurvey = 120 // well past SegmentBytes with ~200-byte records
	for i := 0; i < surveys; i++ {
		if _, err := s.Publish(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < perSurvey; k++ {
		for i := 0; i < surveys; i++ {
			if err := s.AppendResponse(benchResponse(benchSurvey(i).ID, fmt.Sprintf("w%04d", k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Stats().Rotations == 0 {
		t.Fatal("no segment rotation happened; shrink SegmentBytes")
	}
	waitSnapshots(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, cfg)
	defer s2.Close()
	svs, err := s2.Surveys()
	if err != nil || len(svs) != surveys {
		t.Fatalf("Surveys after reopen: %d, %v", len(svs), err)
	}
	for i := 0; i < surveys; i++ {
		id := benchSurvey(i).ID
		rs, err := store.CollectResponses(s2, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != perSurvey {
			t.Fatalf("survey %d: %d responses after reopen, want %d", i, len(rs), perSurvey)
		}
		for k, r := range rs {
			if want := fmt.Sprintf("w%04d", k); r.WorkerID != want {
				t.Fatalf("survey %d response %d: worker %q, want %q (order lost)", i, k, r.WorkerID, want)
			}
		}
	}
}

// TestShardCountFixed: reopening with a different shard count must fail
// rather than silently misplace responses.
func TestShardCountFixed(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testConfig(4))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testConfig(8)); err == nil {
		t.Fatal("shard count change accepted")
	}
	s2 := openTest(t, dir, testConfig(4))
	s2.Close()
}

// TestConfigValidate rejects nonsense configurations.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Shards: -1},
		{Shards: 4096},
		{Shards: 1, MaxBatch: -2},
		{Shards: 1, SegmentBytes: 16},
		{Shards: 1, CommitInterval: -1},
	}
	for i, cfg := range bad {
		if _, err := Open(t.TempDir(), cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestSurveysSurviveAlone: a reopened store with surveys but no
// responses replays the meta log.
func TestSurveysSurviveAlone(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testConfig(2))
	if _, err := s.Publish(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, testConfig(2))
	defer s2.Close()
	if _, err := s2.Survey(survey.LecturerID); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionPrunesSegments: after a snapshot, the directory holds
// only the WAL tail, and the snapshot plus tail still replay to the
// full data set.
func TestCompactionPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	if _, err := s.Publish(sv); err != nil {
		t.Fatal(err)
	}
	const n = 400
	for k := 0; k < n; k++ {
		if err := s.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("w%04d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitSnapshots(t, s, 1)
	rotations := s.Stats().Rotations
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots on disk, want 1", len(snaps))
	}
	if int64(len(segs)) > rotations {
		t.Fatalf("%d segments on disk after %d rotations: compaction pruned nothing", len(segs), rotations)
	}
	for _, seq := range segs {
		if seq <= snaps[0] {
			t.Fatalf("segment %d should have been compacted away (snapshot covers %d)", seq, snaps[0])
		}
	}

	s2 := openTest(t, dir, cfg)
	defer s2.Close()
	if got := s2.ResponseCount(sv.ID); got != n {
		t.Fatalf("after compaction + reopen: %d responses, want %d", got, n)
	}
}

// TestFailedLogRefusesAppends: a sticky I/O failure must surface on
// every subsequent append instead of silently dropping data.
func TestFailedLogRefusesAppends(t *testing.T) {
	s := openTest(t, t.TempDir(), testConfig(1))
	defer s.Close()
	sv := benchSurvey(0)
	if _, err := s.Publish(sv); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResponse(benchResponse(sv.ID, "w1")); err != nil {
		t.Fatal(err)
	}
	// Sabotage the active segment file descriptor.
	if err := s.seg.File().Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResponse(benchResponse(sv.ID, "w2")); err == nil {
		t.Fatal("append to failed log succeeded")
	}
	if err := s.AppendResponse(benchResponse(sv.ID, "w3")); err == nil {
		t.Fatal("append after sticky failure succeeded")
	}
	// Readers still serve what was acknowledged.
	if n := s.ResponseCount(sv.ID); n != 1 {
		t.Fatalf("ResponseCount = %d, want 1", n)
	}
	s.seg = nil // keep Close from double-closing the sabotaged fd
}

// TestOpenRejectsCorruptInterior: a flipped byte inside a sealed,
// rotated segment must refuse to open, not silently drop data — sealed
// files replay with strict semantics (no torn-tail repair).
func TestOpenRejectsCorruptInterior(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.CompactSegments = 1000 // keep the sealed segment from compacting away
	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	if _, err := s.Publish(sv); err != nil {
		t.Fatal(err)
	}
	for k := 0; s.Stats().Rotations == 0; k++ {
		if k > 10000 {
			t.Fatal("no rotation after 10000 appends")
		}
		if err := s.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("w%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments: %v, %v (want a rotated segment plus the active one)", segs, err)
	}
	// segs[0] was rotated, so it carries its seal; corrupt its interior.
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, cfg); err == nil {
		t.Fatal("opened a store with interior corruption")
	}
}

// TestPartialFirstOpenRecovers: a crash during a format-1 store's first
// Open can leave the layout marker plus only a subset of (empty) shard
// directories; reopening with the original shard count must succeed and
// leave the store-level layout.
func TestPartialFirstOpenRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(8)
	if err := os.WriteFile(filepath.Join(dir, layoutName), []byte(`{"format":1,"shards":8}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: only 3 of 8 shard dirs got created.
	for i := 0; i < 3; i++ {
		if err := os.MkdirAll(filepath.Join(dir, shardDirName(i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	s := openTest(t, dir, cfg)
	defer s.Close()
	if _, err := s.Publish(benchSurvey(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResponse(benchResponse(benchSurvey(0).ID, "w1")); err != nil {
		t.Fatal(err)
	}
	assertStoreLevelLayout(t, dir)
}

// TestCorruptLayoutRefused: a mangled layout marker must refuse to open
// rather than guess a shard count.
func TestCorruptLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	openTest(t, dir, testConfig(2)).Close()
	if err := os.WriteFile(filepath.Join(dir, layoutName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testConfig(2)); err == nil {
		t.Fatal("corrupt layout accepted")
	}
}

// TestCloseRacesAppend: Close concurrent with appends must never panic
// (the close gate replaces a WaitGroup whose Add could race Wait); every
// append either commits or reports use-after-close.
func TestCloseRacesAppend(t *testing.T) {
	s := openTest(t, t.TempDir(), testConfig(2))
	sv := benchSurvey(0)
	if _, err := s.Publish(sv); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				err := s.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("g%d-%d", g, k)))
				if err != nil {
					return // use-after-close is the expected refusal
				}
			}
		}(g)
	}
	s.Close()
	wg.Wait()
}

// TestMetaFailureSticky: a meta-log I/O failure must poison survey
// publishing — a retry after a failed flush could duplicate the record
// on disk and break the next replay.
func TestMetaFailureSticky(t *testing.T) {
	s := openTest(t, t.TempDir(), testConfig(1))
	defer s.Close()
	if _, err := s.Publish(benchSurvey(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.meta.File().Close(); err != nil { // sabotage the meta fd
		t.Fatal(err)
	}
	if _, err := s.Publish(benchSurvey(1)); err == nil {
		t.Fatal("publish on dead meta fd succeeded")
	}
	if _, err := s.Publish(benchSurvey(1)); err == nil {
		t.Fatal("publish after sticky meta failure succeeded")
	}
	// The failed survey must not be visible.
	if _, err := s.Survey(benchSurvey(1).ID); err == nil {
		t.Fatal("failed publish visible to reads")
	}
}

// TestObfuscatedCommitIsStoredBlock pins the coupling between this store
// and blockio.StoredBlockMax. A response with three answers of which two
// are noisy ratings — what the benchmark's standalone_mixed workload
// submits — is a binary record of under 60 bytes, each rating its eight
// raw IEEE-754 bytes, so a commit of it alone (or of up to three) is a
// stored block: its bytes lie in the segment as they are, and no
// compressor is reset nor Huffman table built for noise deflate cannot
// shorten. (As JSON, each rating ~17 significant digits, the same
// response was above the cut-over alone and deflated.) If this fails,
// the cut-over or the record moved: disk_bytes_per_response on
// standalone_mixed is what to re-measure.
func TestObfuscatedCommitIsStoredBlock(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{Shards: 1})
	sv := &survey.Survey{ID: "bench-0000", Title: "t", Questions: []survey.Question{
		{ID: "q0", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		{ID: "q1", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
		{ID: "q2", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
	}}
	if _, err := s.Publish(sv); err != nil {
		t.Fatal(err)
	}
	// The shortest such record: a "low" level, choice 0 (omitted by JSON).
	if err := s.AppendResponse(&survey.Response{
		SurveyID: sv.ID, WorkerID: "p00000", PrivacyLevel: "low", Obfuscated: true,
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", 3.8612345678901234),
			survey.RatingAnswer("q1", 1.0987654321098765),
			survey.ChoiceAnswer("q2", 0),
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, seg := range segs {
		file, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := blockio.Replay(seg, false, func(_ uint64, p []byte) error {
			records++
			if p[0] != survey.ResponseBinaryTag {
				t.Errorf("the record starts %#x, not the binary tag", p[0])
			}
			// Committed alone: varint length + CRC + payload is the block.
			if raw := len(p) + 5; 3*raw >= blockio.StoredBlockMax {
				t.Errorf("a one-record commit makes a %d-byte block; three of them reach the %d-byte stored cut-over", raw, blockio.StoredBlockMax)
			}
			if !bytes.Contains(file, p) {
				t.Error("the record is not in the segment as it is: its block was deflated, not stored")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if records != 1 {
		t.Fatalf("%d response records in %v, want 1", records, segs)
	}
}
