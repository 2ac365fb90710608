package ingest

// The single log: shared group commits, the background compactor's
// crash points, and what a reopen leaves on disk.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"loki/internal/logtest"
	"loki/internal/store"
	"loki/internal/survey"
)

// TestShouldCompact pins the rotation-time trigger: both the absolute
// floor and the one-half-of-snapshot rule must hold.
func TestShouldCompact(t *testing.T) {
	const floor = 512 << 10
	cases := []struct {
		sealed, snap int64
		want         bool
	}{
		{0, 0, false},
		{floor - 1, 0, false}, // below the floor, even with no snapshot
		{floor, 0, true},
		{floor, 2 * floor, true},      // exactly one half
		{floor, 2*floor + 2, false},   // just under one half
		{4 << 20, 64 << 20, false},    // well past the floor, small against history
		{32 << 20, 64 << 20, true},    // half of a large history
		{100 << 20, 64 << 20, true},   // compactor fell behind: still due
		{floor / 2, floor / 2, false}, // ratio alone is not enough
	}
	for _, c := range cases {
		if got := shouldCompact(c.sealed, c.snap, floor); got != c.want {
			t.Errorf("shouldCompact(%d, %d, %d) = %v, want %v", c.sealed, c.snap, floor, got, c.want)
		}
	}
}

// storeFiles lists the entries of a store directory.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestReopenLeaksNoSegment: every Open starts a fresh active segment;
// the header-only one the previous run left must be removed, not kept
// as a sealed segment, or an idle store gains a file (and a step toward
// compaction) per restart.
func TestReopenLeaksNoSegment(t *testing.T) {
	for _, records := range []int{0, 5} {
		t.Run(fmt.Sprintf("records=%d", records), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(2)
			populate(t, dir, cfg, records)
			openTest(t, dir, cfg).Close()
			want := len(storeFiles(t, dir))
			for i := 0; i < 10; i++ {
				s := openTest(t, dir, cfg)
				if n := s.ResponseCount(benchSurvey(0).ID); n != records {
					t.Fatalf("reopen %d: %d responses, want %d", i, n, records)
				}
				if sealed := s.ShardStats()[0].SealedSegments; sealed > 1 {
					t.Fatalf("reopen %d: %d sealed segments, want at most the one holding the records", i, sealed)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if st := s.Stats(); st.Snapshots != 0 {
					t.Fatalf("reopen %d triggered a snapshot: %+v", i, st)
				}
				if got := storeFiles(t, dir); len(got) != want {
					t.Fatalf("reopen %d: %d files %v, want %d", i, len(got), got, want)
				}
			}
		})
	}
}

// TestTornCommitAcrossSurveys: a commit that interleaves several
// surveys and is torn mid-frame truncates back to the last whole commit
// — no record of the torn commit replays, every acknowledged one does.
func TestTornCommitAcrossSurveys(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4)
	cfg.SegmentBytes = 1 << 20 // keep every commit in one segment
	s := openTest(t, dir, cfg)
	const surveys = 3
	for i := 0; i < surveys; i++ {
		if err := s.PutSurvey(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(tag string) {
		var batch []survey.Response
		for k := 0; k < 4; k++ {
			for i := 0; i < surveys; i++ {
				batch = append(batch, *benchResponse(benchSurvey(i).ID, fmt.Sprintf("%s-%d-%d", tag, i, k)))
			}
		}
		if _, err := s.AppendResponses(batch); err != nil {
			t.Fatal(err)
		}
	}
	seg := newestSegment(t, dir)
	commit("acked-a")
	commit("acked-b")
	acked, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	commits := s.Stats().Commits
	commit("torn")
	if got := s.Stats().Commits; got != commits+1 {
		t.Fatalf("the batch took %d commits, want 1", got-commits)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The crash: the last commit's frame reached the disk only in part.
	if err := os.Truncate(seg, (acked.Size()+whole.Size())/2); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, cfg)
	defer s2.Close()
	for i := 0; i < surveys; i++ {
		rs := scanAll(t, s2, benchSurvey(i).ID)
		if len(rs) != 8 {
			t.Fatalf("survey %d: %d records after the torn commit, want the 8 acknowledged", i, len(rs))
		}
		for k, r := range rs {
			want := fmt.Sprintf("acked-%c-%d-%d", "ab"[k/4], i, k%4)
			if r.WorkerID != want {
				t.Fatalf("survey %d seq %d: %q, want %q", i, k+1, r.WorkerID, want)
			}
		}
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != acked.Size() {
		t.Fatalf("torn segment is %d bytes (%v), want %d: truncated to the last whole commit", fi.Size(), err, acked.Size())
	}
}

// TestFailedCommitFailsEveryWaiter: when the commit's write or fsync
// fails, every appender waiting on that commit gets the error, nothing
// becomes visible, and the store stays failed.
func TestFailedCommitFailsEveryWaiter(t *testing.T) {
	cfg := testConfig(8)
	cfg.CommitInterval = 50 * time.Millisecond // gather all the waiters into one commit
	s := openTest(t, t.TempDir(), cfg)
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.PutSurvey(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendResponse(benchResponse(benchSurvey(0).ID, "before")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.seg.File().Close(); err != nil { // sabotage the active segment
		t.Fatal(err)
	}
	const waiters = 16
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = s.AppendResponse(benchResponse(benchSurvey(w%4).ID, fmt.Sprintf("w%d", w)))
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d was acknowledged by a failed commit", w)
		}
	}
	if err := s.AppendResponse(benchResponse(benchSurvey(1).ID, "late")); err == nil {
		t.Fatal("append after the failed commit succeeded")
	}
	if _, err := s.AppendResponses([]survey.Response{*benchResponse(benchSurvey(2).ID, "late")}); err == nil {
		t.Fatal("batch append after the failed commit succeeded")
	}
	if after := s.Stats(); after != before {
		t.Fatalf("failed commits moved the counters: %+v -> %+v", before, after)
	}
	for i := 0; i < 4; i++ {
		want := 0
		if i == 0 {
			want = 1
		}
		if n := s.ResponseCount(benchSurvey(i).ID); n != want {
			t.Fatalf("survey %d: %d responses visible, want %d", i, n, want)
		}
	}
	s.seg = nil // keep Close from double-closing the sabotaged fd
}

// TestCompactorKillPoints stages the directory a crash would leave at
// each step of a fold — temp snapshot written; snapshot renamed into
// place but the segments it covers not yet deleted; segments deleted
// but the superseded snapshot still there — and checks each reopens to
// the same per-survey streams.
func TestCompactorKillPoints(t *testing.T) {
	cfg := testConfig(2)
	cfg.CompactSegments = 1000 // no fold while the history is written
	const surveys = 3
	write := func(s *Sharded, tag string) {
		for k := 0; k < 150; k++ {
			if err := s.AppendResponse(benchResponse(benchSurvey(k%surveys).ID, fmt.Sprintf("%s-%03d", tag, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	streams := func(s *Sharded) map[string][]survey.Response {
		out := make(map[string][]survey.Response)
		for i := 0; i < surveys; i++ {
			out[benchSurvey(i).ID] = scanAll(t, s, benchSurvey(i).ID)
		}
		return out
	}
	// fold reopens dir with an eager idle timer, which folds the whole
	// tail, and returns the snapshot's file name.
	fold := func(dir string) string {
		eager := cfg
		eager.IdleCompact = time.Millisecond
		s := openTest(t, dir, eager)
		waitSnapshots(t, s, 1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshots after a fold: %v (%v), want one", snaps, err)
		}
		return snapName(snaps[0])
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// segments: the history as sealed segments only, no snapshot.
	segments := filepath.Join(t.TempDir(), "segments")
	s := openTest(t, segments, cfg)
	for i := 0; i < surveys; i++ {
		if err := s.PutSurvey(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
	write(s, "first")
	want1 := streams(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// folded1: the same history after one fold.
	folded1 := filepath.Join(t.TempDir(), "folded1")
	copyTree(t, segments, folded1)
	snap1 := fold(folded1)
	// folded2: more history and a second fold on top.
	folded2 := filepath.Join(t.TempDir(), "folded2")
	copyTree(t, folded1, folded2)
	s = openTest(t, folded2, cfg)
	write(s, "second")
	want2 := streams(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap2 := fold(folded2)
	if snap2 == snap1 {
		t.Fatalf("second fold reused snapshot name %s", snap1)
	}

	cases := []struct {
		name  string
		base  string
		stage func(dir string)
		want  map[string][]survey.Response
	}{
		{"tmp written", segments, func(dir string) {
			writeFile(t, filepath.Join(dir, snap1+tmpSuffix), read(filepath.Join(folded1, snap1)))
		}, want1},
		{"renamed, covered segments not yet deleted", segments, func(dir string) {
			writeFile(t, filepath.Join(dir, snap1), read(filepath.Join(folded1, snap1)))
		}, want1},
		{"segments deleted, superseded snapshot present", folded2, func(dir string) {
			writeFile(t, filepath.Join(dir, snap1), read(filepath.Join(folded1, snap1)))
		}, want2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			copyTree(t, c.base, dir)
			c.stage(dir)
			s := openTest(t, dir, cfg)
			assertStreams(t, s, c.want)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(left) > 0 {
				t.Fatalf("temp files survive the reopen: %v", left)
			}
			if snaps, _ := listSeqs(dir, snapPrefix, snapSuffix); len(snaps) > 1 {
				t.Fatalf("superseded snapshot survives the reopen: %v", snaps)
			}
			s2 := openTest(t, dir, cfg)
			defer s2.Close()
			assertStreams(t, s2, c.want)
		})
	}
}

// snapshotRecordBytes returns the part of a snapshot file that holds its
// response records: after the header's block and before the block
// index.
func snapshotRecordBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indexOff := binary.LittleEndian.Uint64(b[len(b)-20:])
	r := bytes.NewReader(b[8:]) // the frame of block 0: firstSeq, count, rawLen, compLen, CRC, payload
	var compLen uint64
	for range 4 {
		if compLen, err = binary.ReadUvarint(r); err != nil {
			t.Fatal(err)
		}
	}
	return b[len(b)-r.Len()+4+int(compLen) : indexOff]
}

// payloadBytes is the response payloads of the snapshot at path, in
// either framing, each followed by a newline.
func payloadBytes(t *testing.T, path string) []byte {
	t.Helper()
	lines, err := logtest.Lines(path)
	if err != nil {
		t.Fatal(err)
	}
	return lines[bytes.IndexByte(lines, '\n')+1:] // past the header
}

// TestFoldCopiesPreviousSnapshot: a fold encodes only the records past
// what the superseded snapshot holds. The second of two folds holds all
// of the first snapshot's record blocks byte for byte right behind its
// own header — or, when the directory was rewritten as JSON lines in
// between ("json"), all of the first snapshot's records, payloads byte
// for byte, in blocks — and reopens to every survey's stream.
func TestFoldCopiesPreviousSnapshot(t *testing.T) {
	for _, codec := range []string{"binary", "json"} {
		t.Run(codec, func(t *testing.T) {
			const surveys = 3
			cfg := testConfig(1)
			cfg.SegmentBytes = 1 << 20
			cfg.CompactSegments = 1000 // the folds below come from the idle timer
			dir := t.TempDir()
			write := func(tag string, n int) map[string][]survey.Response {
				s := openTest(t, dir, cfg)
				defer s.Close()
				for i := 0; i < surveys; i++ {
					if err := s.PutSurvey(benchSurvey(i)); err != nil && !errors.Is(err, store.ErrExists) {
						t.Fatal(err)
					}
				}
				var batch []survey.Response
				for k := 0; k < n; k++ {
					batch = append(batch, *benchResponse(benchSurvey(k%surveys).ID, fmt.Sprintf("%s-%05d", tag, k)))
					if len(batch) == 64 || k == n-1 {
						if _, err := s.AppendResponses(batch); err != nil {
							t.Fatal(err)
						}
						batch = batch[:0]
					}
				}
				want := make(map[string][]survey.Response)
				for i := 0; i < surveys; i++ {
					want[benchSurvey(i).ID] = scanAll(t, s, benchSurvey(i).ID)
				}
				return want
			}
			fold := func() string {
				eager := cfg
				eager.IdleCompact = time.Millisecond
				s := openTest(t, dir, eager)
				waitSnapshots(t, s, 1)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
				if err != nil || len(snaps) != 1 {
					t.Fatalf("snapshots after a fold: %v (%v), want one", snaps, err)
				}
				return filepath.Join(dir, snapName(snaps[0]))
			}

			write("first", 3000) // past one 128 KiB block of binary records
			firstPath := fold()
			first := snapshotRecordBytes(t, firstPath)
			want := write("second", 600)
			if codec == "json" {
				toJSONLines(t, dir)
				first = payloadBytes(t, firstPath)
			}
			secondPath := fold()
			records := snapshotRecordBytes(t, secondPath)
			if codec == "json" {
				records = payloadBytes(t, secondPath)
			}
			if len(records) <= len(first) || !bytes.Equal(records[:len(first)], first) {
				t.Fatalf("the second snapshot's %d record bytes do not start with the first snapshot's %d", len(records), len(first))
			}
			s := openTest(t, dir, cfg)
			defer s.Close()
			assertStreams(t, s, want)
		})
	}
}

// TestConcurrentAppendScanCompact runs appenders, batch appenders and
// scanners against a store whose compactor folds again and again
// underneath them. The stored counts the appends return are per-survey
// sequence numbers, so replaying the acknowledgements in that order
// into a store.Mem must give the same scans — live, and after a reopen
// from snapshot + tail.
func TestConcurrentAppendScanCompact(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(8)
	cfg.CompactSegments = 1
	s := openTest(t, dir, cfg)
	mem := store.NewMem()
	defer mem.Close()
	const surveys = 4
	for i := 0; i < surveys; i++ {
		for _, st := range []store.Store{s, mem} {
			if err := st.PutSurvey(benchSurvey(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	type ack struct {
		seq  int
		resp survey.Response
	}
	var mu sync.Mutex
	acks := make(map[string][]ack)
	stop := make(chan struct{})
	var scanners, appenders sync.WaitGroup
	for g := 0; g < 2; g++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				next := uint64(1)
				err := s.ScanResponses(benchSurvey(i%surveys).ID, 0, func(seq uint64, _ *survey.Response) error {
					if seq != next {
						return fmt.Errorf("scan saw seq %d, want %d", seq, next)
					}
					next++
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for k := 0; k < 120; k++ {
				// Odd goroutines send three-record batches across surveys.
				batch := []survey.Response{*benchResponse(benchSurvey((g+k)%surveys).ID, fmt.Sprintf("g%d-%03d", g, k))}
				if g%2 == 1 {
					batch = append(batch,
						*benchResponse(benchSurvey((g+k+1)%surveys).ID, fmt.Sprintf("g%d-%03d-b", g, k)),
						*benchResponse(benchSurvey((g+k)%surveys).ID, fmt.Sprintf("g%d-%03d-c", g, k)))
				}
				counts, err := s.AppendResponses(batch)
				if err != nil || len(counts) != len(batch) {
					t.Errorf("append: %d counts for %d records, %v", len(counts), len(batch), err)
					return
				}
				mu.Lock()
				for i, r := range batch {
					acks[r.SurveyID] = append(acks[r.SurveyID], ack{counts[i], r})
				}
				mu.Unlock()
			}
		}()
	}
	appenders.Wait()
	close(stop)
	scanners.Wait()
	if t.Failed() {
		return
	}
	waitSnapshots(t, s, 2)

	// Feed the reference store the acknowledgements in seq order; the
	// seqs of one survey must be exactly 1..n.
	for id, as := range acks {
		ordered := make([]*survey.Response, len(as))
		for _, a := range as {
			if a.seq < 1 || a.seq > len(as) || ordered[a.seq-1] != nil {
				t.Fatalf("survey %s: stored count %d is not a unique seq in 1..%d", id, a.seq, len(as))
			}
			ordered[a.seq-1] = &a.resp
		}
		for _, r := range ordered {
			if err := mem.AppendResponse(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make(map[string][]survey.Response)
	for i := 0; i < surveys; i++ {
		id := benchSurvey(i).ID
		if want[id], _ = store.CollectResponses(mem, id); len(want[id]) == 0 {
			t.Fatalf("survey %s got no appends", id)
		}
	}
	assertStreams(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, cfg)
	defer s2.Close()
	assertStreams(t, s2, want)
}

// TestSnapshotTempFileKeepsItsSize: while a fold writes, its temp file
// shows the hinted size throughout — a copy of the live directory that
// rechecks names and sizes must not see a file growing for seconds. It
// changes size once, when the finished file is cut back to what was
// written just before it is published.
func TestSnapshotTempFileKeepsItsSize(t *testing.T) {
	s := openTest(t, t.TempDir(), testConfig(1))
	defer s.Close()
	sv := benchSurvey(0)
	var a arena
	for i := 0; i < 20000; i++ {
		rec, err := encodeResponse(nil, benchResponse(sv.ID, fmt.Sprintf("w%06d", i)))
		if err != nil {
			t.Fatal(err)
		}
		a.add(rec)
	}
	view := map[string]arena{sv.ID: a}
	const hint = 64 << 20
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapName(7)+tmpSuffix)
	type result struct {
		size int64
		err  error
	}
	done := make(chan result, 1)
	go func() {
		size, err := s.writeSnapshot(dir, compactJob{covers: 7, view: view, sizeHint: hint})
		done <- result{size, err}
	}()
	var sizes []int64 // distinct nonzero sizes of the temp file, in the order seen
	for {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if len(sizes) == 0 {
				t.Skip("the fold finished before its temp file was ever observed")
			}
			if sizes[0] != hint || len(sizes) > 2 || (len(sizes) == 2 && sizes[1] != r.size) {
				t.Fatalf("temp file sizes seen %v, want the hinted %d throughout, then at most the final %d", sizes, int64(hint), r.size)
			}
			fi, err := os.Stat(filepath.Join(dir, snapName(7)))
			if err != nil || fi.Size() != r.size || r.size >= hint {
				t.Fatalf("published snapshot: %v bytes on disk (%v), %d reported, hint %d", fi.Size(), err, r.size, int64(hint))
			}
			if err := s.loadSnapshot(dir, new(logState)); err != nil {
				t.Fatalf("published snapshot does not load: %v", err)
			}
			return
		default:
		}
		// Size 0 is the instant between create and the up-front resize.
		if fi, err := os.Stat(tmp); err == nil && fi.Size() != 0 && (len(sizes) == 0 || sizes[len(sizes)-1] != fi.Size()) {
			sizes = append(sizes, fi.Size())
		}
		time.Sleep(200 * time.Microsecond)
	}
}
