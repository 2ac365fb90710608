package ingest

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// TestScanResponses checks cursor-based scans against the sharded
// store: per-survey seq numbering, resumption, and stability across a
// reopen (the recovery path rebuilds the same order from snapshot + WAL
// tail).
func TestScanResponses(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testConfig(4))
	const surveys, each = 3, 20
	for i := 0; i < surveys; i++ {
		if _, err := s.Publish(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < each; j++ {
		for i := 0; i < surveys; i++ {
			r := benchResponse(benchSurvey(i).ID, fmt.Sprintf("s%d-w%03d", i, j))
			if err := s.AppendResponse(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	checkScan := func(st *Sharded, i int, fromSeq uint64) {
		t.Helper()
		want := fromSeq
		err := st.ScanResponses(benchSurvey(i).ID, fromSeq, func(seq uint64, r *survey.Response) error {
			want++
			if seq != want {
				return fmt.Errorf("seq %d, want %d", seq, want)
			}
			if wantW := fmt.Sprintf("s%d-w%03d", i, seq-1); r.WorkerID != wantW {
				return fmt.Errorf("seq %d holds %q, want %q (append order lost)", seq, r.WorkerID, wantW)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want != each {
			t.Fatalf("scan from %d covered up to seq %d, want %d", fromSeq, want, each)
		}
	}
	for i := 0; i < surveys; i++ {
		checkScan(s, i, 0)
		checkScan(s, i, 7)
	}
	if err := s.ScanResponses("ghost", 0, func(uint64, *survey.Response) error { return nil }); err == nil {
		t.Fatal("unknown survey scan accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cursors must survive recovery.
	s2 := openTest(t, dir, testConfig(4))
	defer s2.Close()
	for i := 0; i < surveys; i++ {
		checkScan(s2, i, 0)
		checkScan(s2, i, 13)
	}
}

// TestArenaGrowsUnderScansAndFolds: appends grow the arenas, regrowing
// their arrays, while scans, the compactor and a hand-run fold read
// arenas captured before (run it with -race). Every scan delivers a
// prefix of the appends, each record with its own worker and answer,
// and the hand-run fold's snapshot holds exactly the view it captured.
func TestArenaGrowsUnderScansAndFolds(t *testing.T) {
	cfg := testConfig(1)
	cfg.CompactSegments, cfg.IdleCompact = 1, -1 // fold on every rotation
	s := openTest(t, t.TempDir(), cfg)
	defer s.Close()
	const surveys, each, batch = 3, 400, 4
	for i := 0; i < surveys; i++ {
		if _, err := s.Publish(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
	resp := func(i, j int) survey.Response {
		r := benchResponse(benchSurvey(i).ID, fmt.Sprintf("s%d-w%04d", i, j))
		r.Answers[0].Rating = 1 + float64(j%41)/10
		return *r
	}
	check := func(i int, seq uint64, r *survey.Response) error {
		if want := resp(i, int(seq-1)); r.WorkerID != want.WorkerID || len(r.Answers) != 1 || r.Answers[0] != want.Answers[0] {
			return fmt.Errorf("survey %d seq %d holds %+v, want %+v", i, seq, *r, want)
		}
		return nil
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for j := 0; j < each; j += batch {
			for i := 0; i < surveys; i++ {
				rs := make([]survey.Response, batch)
				for k := range rs {
					rs[k] = resp(i, j+k)
				}
				if _, err := s.AppendResponses(rs); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := 0; i < surveys; i++ {
					n := uint64(0)
					if err := s.ScanResponses(benchSurvey(i).ID, 0, func(seq uint64, r *survey.Response) error {
						if n++; seq != n {
							return fmt.Errorf("seq %d after %d records", seq, n-1)
						}
						return check(i, seq, r)
					}); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	// The hand-run fold captures a view halfway through the appends.
	for s.ResponseCount(benchSurvey(surveys-1).ID) < each/2 {
		time.Sleep(time.Millisecond)
	}
	s.idxMu.RLock()
	view := maps.Clone(s.index)
	s.idxMu.RUnlock()
	dir := t.TempDir()
	if _, err := s.writeSnapshot(dir, compactJob{covers: 1, view: view}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	got := make(map[string]int)
	var r survey.Response
	header := true
	if err := blockio.ReplayFile(filepath.Join(dir, snapName(1)), false, func(rec []byte) error {
		if header {
			header = false
			return nil
		}
		if err := decodeResponse(rec, &r); err != nil {
			return err
		}
		got[r.SurveyID]++
		var i int
		fmt.Sscanf(r.SurveyID, "ingest-test-%d", &i)
		return check(i, uint64(got[r.SurveyID]), &r)
	}); err != nil {
		t.Fatal(err)
	}
	for id, a := range view {
		if got[id] != len(a.ends) {
			t.Errorf("snapshot of the view holds %d records of %s, the view %d", got[id], id, len(a.ends))
		}
	}
	for i := 0; i < surveys; i++ {
		if n := s.ResponseCount(benchSurvey(i).ID); n != each {
			t.Fatalf("survey %d holds %d responses, want %d", i, n, each)
		}
	}
	if s.Stats().Snapshots == 0 {
		t.Fatal("no fold ran beside the appends")
	}
}

// TestIdleCompaction checks that a shard with a quiet WAL tail gets
// compacted by the idle timer: without new commits, the sealed-segment
// count drops to zero, a snapshot appears, and recovery still serves
// every response.
func TestIdleCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.IdleCompact = 25 * time.Millisecond
	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	if _, err := s.Publish(sv); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for j := 0; j < n; j++ {
		if err := s.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("w%03d", j))); err != nil {
			t.Fatal(err)
		}
	}
	// The appends fit one segment, so rotation-driven compaction never
	// fires; only the idle timer can fold the tail.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle shard never compacted: stats %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	stats := s.ShardStats()
	if len(stats) != 1 {
		t.Fatalf("shard stats = %d entries", len(stats))
	}
	sh := stats[0]
	if sh.IdleCompactions == 0 {
		t.Errorf("idle compactions = 0 after idle snapshot")
	}
	if sh.SealedSegments != 0 {
		t.Errorf("sealed segments = %d after compaction, want 0", sh.SealedSegments)
	}
	if sh.SnapshotSeq == 0 {
		t.Errorf("snapshot seq = 0 after compaction")
	}
	if sh.LastCompaction.IsZero() {
		t.Errorf("last compaction time unset")
	}

	// Reads are unaffected, and appends keep working after the fold.
	if got := s.ResponseCount(sv.ID); got != n {
		t.Fatalf("response count after idle compaction = %d, want %d", got, n)
	}
	if err := s.AppendResponse(benchResponse(sv.ID, "late")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from snapshot + fresh tail serves everything.
	s2 := openTest(t, dir, cfg)
	defer s2.Close()
	if got := s2.ResponseCount(sv.ID); got != n+1 {
		t.Fatalf("response count after reopen = %d, want %d", got, n+1)
	}
}

// TestImportedSnapshotIdleFolds: a JSON-era directory whose JSON-lines
// snapshot dwarfs its WAL tail folds within one idle period of the
// open. Weighed by its size, the snapshot would stay JSON lines, and be
// replayed as such at every open, until the tail reached an eighth of
// it.
func TestImportedSnapshotIdleFolds(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.SegmentBytes = 1 << 20
	cfg.IdleCompact = 25 * time.Millisecond
	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	if _, err := s.Publish(sv); err != nil {
		t.Fatal(err)
	}
	const n = 200
	batch := make([]survey.Response, n)
	for j := range batch {
		batch[j] = *benchResponse(sv.ID, fmt.Sprintf("w%03d", j))
	}
	if _, err := s.AppendResponses(batch); err != nil {
		t.Fatal(err)
	}
	waitSnapshots(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.IdleCompact = -1
	s = openTest(t, dir, cfg)
	if err := s.AppendResponse(benchResponse(sv.ID, "tail")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	toJSONLines(t, dir)
	size := func(pat string) (total int64) {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
		return total
	}
	snapBytes, tailBytes := size(snapPrefix+"*"), size(segPrefix+"*")
	if tailBytes == 0 || shouldIdleCompact(tailBytes, snapBytes) {
		t.Fatalf("a %d-byte tail beside a %d-byte JSON-lines snapshot: the size rule alone would fold it", tailBytes, snapBytes)
	}

	cfg.IdleCompact = 50 * time.Millisecond
	s = openTest(t, dir, cfg)
	defer s.Close()
	waitSnapshots(t, s, 1)
	if got := s.ShardStats()[0].IdleCompactions; got != 1 {
		t.Fatalf("%d idle compactions, want the one fold", got)
	}
	if folded := size(snapPrefix + "*"); folded >= snapBytes {
		t.Fatalf("the fold wrote a %d-byte snapshot over the %d-byte JSON-lines one", folded, snapBytes)
	}
	if got := s.ResponseCount(sv.ID); got != n+1 {
		t.Fatalf("%d responses after the fold, want %d", got, n+1)
	}
}

// TestShouldIdleCompact pins the write-amplification guard: a tiny
// unfolded tail must not trigger a rewrite of a much larger snapshot.
func TestShouldIdleCompact(t *testing.T) {
	cases := []struct {
		tail, snap int64
		want       bool
	}{
		{0, 0, false},           // nothing to fold
		{0, 1 << 20, false},     // nothing to fold despite a snapshot
		{1, 0, true},            // no snapshot yet: always fold
		{100, 500 << 20, false}, // trickle into a huge history: skip
		{64 << 20, 500 << 20, true},
		{1 << 20, 8 << 20, true}, // exactly 1/8: fold
		{1<<20 - 1, 8 << 20, false},
	}
	for _, c := range cases {
		if got := shouldIdleCompact(c.tail, c.snap); got != c.want {
			t.Errorf("shouldIdleCompact(%d, %d) = %v, want %v", c.tail, c.snap, got, c.want)
		}
	}
}

// TestSurveyReturnsCopy mirrors the store package's interior-pointer
// regression test for the sharded store.
func TestSurveyReturnsCopy(t *testing.T) {
	s := openTest(t, t.TempDir(), testConfig(1))
	defer s.Close()
	if _, err := s.Publish(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	got, err := s.Survey(survey.LecturerID)
	if err != nil {
		t.Fatal(err)
	}
	got.Questions[0].Text = "defaced"
	again, _ := s.Survey(survey.LecturerID)
	if again.Questions[0].Text == "defaced" {
		t.Fatal("Survey leaked interior pointers into the stored definition")
	}
	all, err := s.Surveys()
	if err != nil || len(all) != 1 {
		t.Fatalf("Surveys: %d, %v", len(all), err)
	}
	all[0].Questions[0].ScaleMax = 99
	again, _ = s.Survey(survey.LecturerID)
	if again.Questions[0].ScaleMax == 99 {
		t.Fatal("Surveys leaked interior pointers into the stored definition")
	}
}
