package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// Three fixture directories, each fixtureScript's output for its framing
// and response count:
//
//   - testdata/parent_dir and testdata/parent_dir_json were written by
//     d4d2a40, the commit before ingest's response records went binary,
//     by running its TestWriteParentFixture (LOKI_FIXTURE_OUT set) in a
//     git archive export of it: a block directory whose records are JSON
//     payloads, and a JSON-lines one, each a JSON-lines meta log, a
//     snapshot, a sealed segment and the active (unsealed) one.
//     parent_dir is byte for byte what 469b70b, the commit before ingest
//     moved onto blockio.Log, wrote for the same script. No commit since
//     writes either again. Both must open (converting the meta log to
//     blocks), take appends, fold over their snapshot into a block
//     snapshot and reopen.
//   - testdata/binary_dir holds binary response records (tag 0xB1) and a
//     snapshot made by two folds, the second a tail-only one, written by
//     TestWriteBinaryFixture. Records carry no timestamp, and the script
//     commits one call at a time and waits out every fold, so the same
//     script must write the same segment and snapshot bytes until the
//     format is meant to change.

type dirFixture struct {
	name  string
	codec string   // the framing its response files were written in
	n     int      // responses the script appends
	files []string // the snapshot and segments it leaves, in listing order
}

var (
	parentFixtures = []dirFixture{
		{"parent_dir", "binary", 96, []string{snapName(2), segName(3), segName(4)}},
		{"parent_dir_json", "json", 96, []string{snapName(2), segName(3), segName(4)}},
	}
	binaryFixture = dirFixture{"binary_dir", "binary", 360, []string{snapName(4), segName(5), segName(6)}}
)

func fixtureConfig() Config {
	return Config{Shards: 1, MaxBatch: 64, SegmentBytes: 4096, CompactSegments: 2, IdleCompact: -1}
}

func fixtureResponse(i int) survey.Response {
	r := benchResponse(benchSurvey(0).ID, fmt.Sprintf("fx-%03d", i))
	r.Answers = []survey.Answer{survey.RatingAnswer("q0", 1+float64(i%41)/10)}
	r.Day = i % 7
	return *r
}

// waitFolded blocks until no fold is in flight. Called before every
// append, it makes each rotation see the previous fold's outcome, so
// whether a rotation folds does not depend on scheduling.
func waitFolded(t *testing.T, s *Sharded) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.logMu.Lock()
		busy := s.compacting
		s.logMu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a fold never finished: stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// fixtureScript appends fx.n responses — single commits, every tenth
// call a three-record batch — rotating and folding as the small
// segments fill, and returns how many snapshots the store wrote.
func fixtureScript(t *testing.T, dir string, fx dirFixture) int64 {
	t.Helper()
	s := openTest(t, dir, fixtureConfig())
	if err := s.PutSurvey(benchSurvey(0)); err != nil {
		t.Fatal(err)
	}
	for call, done := 0, 0; done < fx.n; call++ {
		n := 1
		if call%10 == 9 {
			n = 3
		}
		batch := make([]survey.Response, min(n, fx.n-done))
		for i := range batch {
			batch[i] = fixtureResponse(done + i)
		}
		waitFolded(t, s)
		if _, err := s.AppendResponses(batch); err != nil {
			t.Fatal(err)
		}
		done += len(batch)
	}
	waitFolded(t, s)
	snaps := s.Stats().Snapshots
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fixtureListing(t, dir); !reflect.DeepEqual(got, fx.files) {
		t.Fatalf("the script left %v, want %v", got, fx.files)
	}
	return snaps
}

func fixtureListing(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for _, pat := range []string{snapPrefix + "*", segPrefix + "*"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m {
			names = append(names, filepath.Base(p))
		}
	}
	return names
}

// TestWriteBinaryFixture rewrites testdata/binary_dir; run it only when
// the record or the fold is meant to change.
func TestWriteBinaryFixture(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("set LOKI_FIXTURE_OUT to (re)write the fixture with this commit's code")
	}
	dir := filepath.Join(out, binaryFixture.name)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	fixtureScript(t, dir, binaryFixture)
}

// checkFixtureDir opens a copy of testdata/<fx.name>, which must hold
// the script's responses; its meta log, opened for appends, is a block
// file that takes a survey. It appends until a fold supersedes the
// fixture's snapshot with a block snapshot, and reopens to everything.
// It returns the copy's directory.
func checkFixtureDir(t *testing.T, fx dirFixture) string {
	t.Helper()
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", fx.name), dir)
	want := make([]survey.Response, fx.n)
	for i := range want {
		want[i] = fixtureResponse(i)
	}
	cfg := fixtureConfig()
	s := openTest(t, dir, cfg)
	if got := scanAll(t, s, benchSurvey(0).ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s opened to %d responses, want the script's %d", fx.name, len(got), len(want))
	}
	wantSurveys, err := s.Surveys()
	if err != nil || len(wantSurveys) != 1 {
		t.Fatalf("%s opened to surveys %v (%v), want the script's one", fx.name, wantSurveys, err)
	}
	if bin, err := blockio.Sniff(filepath.Join(dir, metaName)); err != nil || !bin {
		t.Fatalf("the open left %s's meta log JSON lines (%v)", fx.name, err)
	}
	if err := s.PutSurvey(benchSurvey(1)); err != nil {
		t.Fatal(err)
	}
	wantSurveys = append(wantSurveys, benchSurvey(1))
	snaps := s.Stats().Snapshots
	for i := 0; i < 100; i++ { // more than a segment's worth: rotates and folds
		r := fixtureResponse(1000 + i)
		if err := s.AppendResponse(&r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	waitSnapshots(t, s, snaps+1)
	waitFolded(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fx.files[0])); !os.IsNotExist(err) {
		t.Fatalf("the fixture's snapshot %s survived a fold (%v)", fx.files[0], err)
	}
	seqs, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("snapshots after the fold: %v (%v)", seqs, err)
	}
	if bin, err := blockio.Sniff(filepath.Join(dir, snapName(seqs[0]))); err != nil || !bin {
		t.Fatalf("the fold wrote a snapshot that is no block file (%v)", err)
	}
	s = openTest(t, dir, cfg)
	defer s.Close()
	if got := scanAll(t, s, benchSurvey(0).ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("after appends, a fold and a reopen: %d responses, want %d", len(got), len(want))
	}
	if got, err := s.Surveys(); err != nil || !reflect.DeepEqual(got, wantSurveys) {
		t.Fatalf("after a reopen: surveys %v (%v), want %v", got, err, wantSurveys)
	}
	return dir
}

// snapshotRecords returns the response records of dir's one snapshot.
func snapshotRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	seqs, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("snapshots in %s: %v (%v), want one", dir, seqs, err)
	}
	var recs [][]byte
	if err := blockio.ReplayFile(filepath.Join(dir, snapName(seqs[0])), false, func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs[1:]
}

// TestParentDirFixture: each parent-written directory opens to the
// script's responses, takes appends through a rotation and a fold over
// its snapshot, and reopens. The fold copies the parent snapshot's
// records, JSON payloads, as they are; the tail — the parent's JSON
// segment records and the appended ones — is binary.
func TestParentDirFixture(t *testing.T) {
	for _, fx := range parentFixtures {
		t.Run(fx.codec, func(t *testing.T) {
			parentSnap := len(snapshotRecords(t, filepath.Join("testdata", fx.name)))
			dir := checkFixtureDir(t, fx)
			recs := snapshotRecords(t, dir)
			for i, rec := range recs {
				if isJSON := rec[0] == '{'; isJSON != (i < parentSnap) {
					t.Fatalf("snapshot record %d of %d starts %#x: want the parent snapshot's %d JSON records first, then binary ones", i, len(recs), rec[0], parentSnap)
				}
			}
		})
	}
}

// TestBinaryDirFixture: the script writes testdata/binary_dir byte for
// byte, every response record in it is binary, and it opens, takes
// appends, folds and reopens like the parent fixtures.
func TestBinaryDirFixture(t *testing.T) {
	fresh := t.TempDir()
	if snaps := fixtureScript(t, fresh, binaryFixture); snaps != 2 {
		t.Fatalf("the script folded %d times, want 2 (the second over the first's snapshot)", snaps)
	}
	fixture := filepath.Join("testdata", binaryFixture.name)
	for i, name := range binaryFixture.files {
		mine, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mine, want) {
			t.Errorf("%s: this commit wrote %d bytes that differ from the fixture's %d: the format moved", name, len(mine), len(want))
		}
		records := 0
		if err := blockio.ReplayFile(filepath.Join(fixture, name), false, func(p []byte) error {
			if records++; (i > 0 || records > 1) && p[0] != survey.ResponseBinaryTag {
				return fmt.Errorf("record %d starts %#x, not the binary tag", records, p[0])
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	checkFixtureDir(t, binaryFixture)
}
