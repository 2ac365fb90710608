package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// testdata/parent_dir was written by the commit BEFORE ingest moved onto
// blockio.Log (469b70b), by running dirFixtureScript there
// (TestWriteParentFixture with LOKI_FIXTURE_OUT set): a format-2
// directory in the binary codec holding a snapshot that covers segments
// 1-2, sealed segment 3 and active (unsealed) segment 4. WAL records
// carry no timestamp and the script commits one call at a time, so this
// commit's code must write the same segment and snapshot bytes.

var fixtureFiles = []string{snapName(2), segName(3), segName(4)}

func fixtureConfig() Config {
	return Config{Shards: 1, MaxBatch: 64, SegmentBytes: 4096, CompactSegments: 2, IdleCompact: -1, Codec: blockio.CodecBinary}
}

func fixtureResponse(i int) survey.Response {
	r := benchResponse(benchSurvey(0).ID, fmt.Sprintf("fx-%03d", i))
	r.Answers = []survey.Answer{survey.RatingAnswer("q0", 1+float64(i%41)/10)}
	r.Day = i % 7
	return *r
}

// dirFixtureScript appends 96 responses — single commits, every tenth
// call a three-record batch — which rotates three times; the second
// rotation folds segments 1-2 into the snapshot.
func dirFixtureScript(t *testing.T, dir string) []survey.Response {
	t.Helper()
	s := openTest(t, dir, fixtureConfig())
	if err := s.PutSurvey(benchSurvey(0)); err != nil {
		t.Fatal(err)
	}
	var all []survey.Response
	for call := 0; len(all) < 96; call++ {
		n := 1
		if call%10 == 9 {
			n = 3
		}
		batch := make([]survey.Response, n)
		for i := range batch {
			batch[i] = fixtureResponse(len(all) + i)
		}
		if _, err := s.AppendResponses(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	waitSnapshots(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return all
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

func TestWriteParentFixture(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("set LOKI_FIXTURE_OUT to (re)write the fixture with this commit's code")
	}
	dir := filepath.Join(out, "parent_dir")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	dirFixtureScript(t, dir)
	if got := fixtureListing(t, dir); !reflect.DeepEqual(got, fixtureFiles) {
		t.Fatalf("the script left %v, want %v", got, fixtureFiles)
	}
}

// TestParentDirFixture: this commit writes the parent's segment and
// snapshot bytes for the same script; the parent-written directory
// opens to the script's responses, takes appends through a rotation and
// a fold, and reopens.
func TestParentDirFixture(t *testing.T) {
	fresh := t.TempDir()
	want := dirFixtureScript(t, fresh)
	if got := fixtureListing(t, fresh); !reflect.DeepEqual(got, fixtureFiles) {
		t.Fatalf("the script left %v, want %v", got, fixtureFiles)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_dir"), dir)
	for _, name := range fixtureFiles {
		mine, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		parent, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mine, parent) {
			t.Errorf("%s: this commit wrote %d bytes that differ from the parent's %d: the format moved", name, len(mine), len(parent))
		}
	}

	s := openTest(t, dir, fixtureConfig())
	if got := scanAll(t, s, benchSurvey(0).ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent directory opened to %d responses, want the script's %d", len(got), len(want))
	}
	snaps := s.Stats().Snapshots
	for i := 0; i < 60; i++ { // two more segments' worth: rotates and folds
		r := fixtureResponse(1000 + i)
		if err := s.AppendResponse(&r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	waitSnapshots(t, s, snaps+1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, fixtureConfig())
	defer s.Close()
	if got := scanAll(t, s, benchSurvey(0).ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("after appends, a fold and a reopen: %d responses, want %d", len(got), len(want))
	}
}
