package ingest

// Crash-recovery tests: simulate a machine dying mid-append by hand-
// mutilating WAL files, then assert that reopening truncates the torn
// tail cleanly and preserves every acknowledged response.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"loki/internal/store"
)

// tornBytes is the prefix of a record as a crashed append would leave it:
// valid JSON start, no terminating newline.
var tornBytes = []byte(`{"survey_id":"ingest-test-00","worker_id":"TORN","answe`)

// appendBytes appends raw bytes to a file, as a crashed kernel flush
// would have.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// newestSegment returns the path of the highest-sequence segment of a
// log directory.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments in %s: %v, %v", dir, segs, err)
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

// populate opens a store, publishes one survey and appends n acknowledged
// responses, then closes it.
func populate(t *testing.T, dir string, cfg Config, n int) {
	t.Helper()
	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	if err := s.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if err := s.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("w%04d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncated: a torn record at the end of the newest segment
// is dropped on reopen; every acknowledged response survives; the store
// accepts new appends afterwards.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	const acked = 25
	populate(t, dir, cfg, acked)

	seg := newestSegment(t, dir)
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	appendBytes(t, seg, tornBytes)

	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	rs, err := store.CollectResponses(s, sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != acked {
		t.Fatalf("%d responses after torn-tail recovery, want %d", len(rs), acked)
	}
	for _, r := range rs {
		if r.WorkerID == "TORN" {
			t.Fatal("torn record replayed")
		}
	}
	if err := s.AppendResponse(benchResponse(sv.ID, "after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The mutilated segment itself was physically truncated.
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("torn segment is %d bytes, want %d (truncated back)", after.Size(), before.Size())
	}
}

// TestTornTailAcrossReopens: repeated crash/recover cycles never lose
// acknowledged data (a torn tail after each reopen).
func TestTornTailAcrossReopens(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	if err := s.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	total := 0
	for cycle := 0; cycle < 4; cycle++ {
		for k := 0; k < 10; k++ {
			if err := s.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("c%d-w%d", cycle, k))); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		appendBytes(t, newestSegment(t, dir), tornBytes)
		s = openTest(t, dir, cfg)
		if n := s.ResponseCount(sv.ID); n != total {
			t.Fatalf("cycle %d: %d responses, want %d", cycle, n, total)
		}
	}
	s.Close()
}

// TestTornMetaTailTruncated: a torn survey record in meta.jsonl is
// dropped on reopen and the surviving surveys replay.
func TestTornMetaTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	s := openTest(t, dir, cfg)
	if err := s.PutSurvey(benchSurvey(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSurvey(benchSurvey(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendBytes(t, filepath.Join(dir, metaName), []byte(`{"id":"torn-sur`))

	s2 := openTest(t, dir, cfg)
	defer s2.Close()
	svs, err := s2.Surveys()
	if err != nil || len(svs) != 2 {
		t.Fatalf("surveys after torn meta recovery: %d, %v", len(svs), err)
	}
	// And publishing continues to work after truncation.
	if err := s2.PutSurvey(benchSurvey(2)); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailInSealedSegmentRefused: only the newest segment may be
// torn; a torn interior segment means real corruption and must refuse to
// open rather than silently drop records.
func TestTornTailInSealedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.CompactSegments = 1000 // keep every segment around
	populate(t, dir, cfg, 200) // enough to roll several 4 KiB segments

	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("only %d segments; need >= 2 for an interior tear", len(segs))
	}
	appendBytes(t, filepath.Join(dir, segName(segs[0])), tornBytes)
	if _, err := Open(dir, cfg); err == nil {
		t.Fatal("opened a store with a torn sealed segment")
	}
}

// TestCrashDuringSnapshotIgnoresTmp: a crash mid-snapshot leaves a *.tmp
// file; reopen must discard it and recover from segments alone.
func TestCrashDuringSnapshotIgnoresTmp(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.CompactSegments = 1000 // no real snapshot
	const acked = 30
	populate(t, dir, cfg, acked)

	tmp := filepath.Join(dir, snapName(99)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte(`{"format":1,"covers":99,"count":9999}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, cfg)
	defer s.Close()
	if n := s.ResponseCount(benchSurvey(0).ID); n != acked {
		t.Fatalf("%d responses, want %d", n, acked)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot tmp not removed: %v", err)
	}
}
