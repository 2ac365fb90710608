package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// testdata/parent_dir was written by the commit BEFORE checkpoint moved
// onto blockio.Log (469b70b), by running dirFixtureScript there
// (TestWriteParentFixture with LOKI_FIXTURE_OUT set): a legacy
// single-file log holding two surveys, binary per-survey files (one of
// them nothing but the tombstone that shadowed a legacy survey), and a
// JSON-lines per-survey file. The legacy log is no longer read, so its
// two surveys are absent from what the directory opens to; the
// tombstone file still has to replay (to nothing). This commit writes
// the JSON-lines file by hand: no Log writes that framing any more.

func fixtureSurvey(id string) *survey.Survey {
	sv := testSurvey()
	sv.ID = id
	return sv
}

// fixtureWant is the directory's live contents: survey -> shard -> cursor
// (and the state is filledState(cursor)).
var fixtureWant = map[string]map[int]uint64{
	"bin-survey":  {0: 7, 1: 4},
	"json-survey": {0: 2, 2: 9},
}

func dirFixtureScript(t *testing.T, dir string) {
	t.Helper()
	put := func(l *Log, id string, shard, n int) {
		rec := record(t, fixtureSurvey(id), n)
		rec.Shard, rec.ShardCount = shard, 4
		if err := l.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing wrote the legacy file even then; its format is one Record
	// per JSON line. (Run at this commit, Drop removes a file instead of
	// leaving the tombstone the fixture holds.)
	var legacy []byte
	for id, n := range map[string]int{"legacy-a": 5, "legacy-b": 6} {
		b, err := json.Marshal(record(t, fixtureSurvey(id), n))
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(append(legacy, b...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints.jsonl"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(l, "bin-survey", 0, 3)
	put(l, "bin-survey", 1, 4)
	put(l, "bin-survey", 0, 7)
	if err := l.Drop("legacy-b"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var lines []byte
	for _, c := range []struct{ shard, n int }{{0, 2}, {2, 9}} {
		rec := record(t, fixtureSurvey("json-survey"), c.n)
		rec.Shard, rec.ShardCount = c.shard, 4
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, b...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, surveysDir, surveyFileName("json-survey")), lines, 0o644); err != nil {
		t.Fatal(err)
	}
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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	dirFixtureScript(t, dir)
}

func checkFixtureContents(t *testing.T, l *Log, want map[string]map[int]uint64) {
	t.Helper()
	got := map[string]map[int]uint64{}
	for _, rec := range l.Records() {
		if got[rec.SurveyID] == nil {
			got[rec.SurveyID] = map[int]uint64{}
		}
		got[rec.SurveyID][rec.Shard] = rec.Cursor
		sv := fixtureSurvey(rec.SurveyID)
		if rec.Fingerprint != sv.Fingerprint() || !reflect.DeepEqual(rec.State, filledState(t, sv, int(rec.Cursor))) {
			t.Errorf("%s shard %d: state or fingerprint differs from the one checkpointed", rec.SurveyID, rec.Shard)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live checkpoints %v, want %v", got, want)
	}
	if n := l.CorruptRecords(); n != 0 {
		t.Fatalf("%d corrupt records", n)
	}
}

// TestParentDirFixture: the parent-written directory opens to its
// reference contents, leaving the JSON-lines file as it is until its
// survey's first Put converts it; every file takes appends, survives a
// compaction and reopens.
func TestParentDirFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent_dir"))); err != nil {
		t.Fatal(err)
	}
	isBinary := func(id string) bool {
		bin, err := blockio.Sniff(filepath.Join(dir, surveysDir, surveyFileName(id)))
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	if !isBinary("bin-survey") || !isBinary("legacy-b") || isBinary("json-survey") {
		t.Fatal("fixture files are not in the codecs the script wrote them in")
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("parent-written directory does not open: %v", err)
	}
	checkFixtureContents(t, l, fixtureWant)
	if isBinary("json-survey") {
		t.Fatal("Open converted a file no Put had touched")
	}

	want := map[string]map[int]uint64{
		"legacy-a":    {1: 8},
		"bin-survey":  {0: 7, 1: 10},
		"json-survey": {0: 2, 2: 9, 3: 11},
	}
	for id, shard := range map[string]int{"legacy-a": 1, "bin-survey": 1, "json-survey": 3} {
		rec := record(t, fixtureSurvey(id), int(want[id][shard]))
		rec.Shard, rec.ShardCount = shard, 4
		if err := l.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !isBinary("json-survey") {
		t.Fatal("the first Put left the JSON-lines file JSON")
	}
	checkFixtureContents(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	checkFixtureContents(t, l, want)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	checkFixtureContents(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	checkFixtureContents(t, l, want)
}
