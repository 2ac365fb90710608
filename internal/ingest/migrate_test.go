package ingest

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/blockio"
	"loki/internal/logtest"
	"loki/internal/survey"
)

// scanAll collects one survey's full (seq, response) stream.
func scanAll(t *testing.T, s *Sharded, surveyID string) []survey.Response {
	t.Helper()
	var out []survey.Response
	if err := s.ScanResponses(surveyID, 0, func(seq uint64, r *survey.Response) error {
		if seq != uint64(len(out)+1) {
			return fmt.Errorf("seq %d out of order (have %d)", seq, len(out))
		}
		out = append(out, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// segCodecs sniffs every WAL segment of one log dir and returns how
// many are binary vs JSON.
func segCodecs(t *testing.T, dir string) (binary, json int) {
	t.Helper()
	segs, err := listSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range segs {
		bin, err := blockio.Sniff(filepath.Join(dir, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if bin {
			binary++
		} else {
			json++
		}
	}
	return binary, json
}

// jsonRecord maps a payload of this store's files to the JSON line a
// JSON-lines store held for it: a binary response record becomes the
// response's JSON object, a binary survey record the meta log's JSON
// record, and a JSON record (snapshot header) stays as it is.
func jsonRecord(p []byte) ([]byte, error) {
	switch {
	case len(p) > 0 && p[0] == survey.ResponseBinaryTag:
		var r survey.Response
		if err := r.UnmarshalBinary(p); err != nil {
			return nil, err
		}
		return json.Marshal(&r)
	case len(p) > 0 && p[0] == survey.SurveyBinaryTag:
		var rec survey.SurveyRecord
		if err := rec.UnmarshalBinary(p); err != nil {
			return nil, err
		}
		return json.Marshal(&metaRecord{Survey: rec.Survey, PublishedUnixNano: rec.UnixNano})
	}
	return p, nil
}

// toJSONLines rewrites a closed store's directory as a store writing
// JSON lines left it: the meta log, every segment and every snapshot,
// record for record. No Log writes that framing any more.
func toJSONLines(t *testing.T, dir string) {
	t.Helper()
	paths := []string{filepath.Join(dir, metaName)}
	for _, pat := range []string{segPrefix + "*" + segSuffix, snapPrefix + "*" + snapSuffix} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	for _, p := range paths {
		if err := logtest.WriteJSONLines(p, jsonRecord); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// TestMigrateJSONDirToBinary: a directory written entirely in JSON lines
// reopens, replays identically, converts its meta log and writes its NEW
// segments in blocks — per-file autodetection migrates the directory in
// place; the old segments are not rewritten.
func TestMigrateJSONDirToBinary(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	cfg.CompactSegments = 1000 // keep segments so the reopen replays real JSON files

	s := openTest(t, dir, cfg)
	sv := benchSurvey(0)
	if err := s.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	const oldN = 150
	for k := 0; k < oldN; k++ {
		if err := s.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("old-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	want := scanAll(t, s, sv.ID)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	toJSONLines(t, dir)
	if bin, jsn := segCodecs(t, dir); bin != 0 || jsn == 0 {
		t.Fatalf("JSON-era directory holds %d binary / %d json segments", bin, jsn)
	}

	// Reopen: same records, then new block segments.
	s2 := openTest(t, dir, cfg)
	defer s2.Close()
	if got := scanAll(t, s2, sv.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened scan diverged: %d records vs %d", len(got), len(want))
	}
	if bin, err := blockio.Sniff(filepath.Join(dir, metaName)); err != nil || !bin {
		t.Fatalf("the open left the meta log JSON lines (%v)", err)
	}
	for k := 0; k < oldN; k++ {
		if err := s2.AppendResponse(benchResponse(sv.ID, fmt.Sprintf("new-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	want2 := scanAll(t, s2, sv.ID)
	if len(want2) != 2*oldN {
		t.Fatalf("after migration appends: %d records, want %d", len(want2), 2*oldN)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	bin, jsn := segCodecs(t, dir)
	if bin == 0 {
		t.Fatal("no block segments written after reopening")
	}
	if jsn == 0 {
		t.Fatal("old JSON segments vanished — migration must be in place, not a rewrite")
	}

	// A third open replays the mixed directory end to end.
	s3 := openTest(t, dir, cfg)
	defer s3.Close()
	if got := scanAll(t, s3, sv.ID); !reflect.DeepEqual(got, want2) {
		t.Fatalf("mixed-codec scan diverged: %d records vs %d", len(got), len(want2))
	}
}

// TestCodecEquivalence: the same append sequence into a directory kept
// in blocks and into one rewritten as JSON lines halfway — across
// rotations, snapshots, a fold over the JSON-lines files and a reopen —
// yields identical record streams. The framing is a storage detail,
// never a semantic one.
func TestCodecEquivalence(t *testing.T) {
	arms := []string{"binary", "json"}
	dirs := map[string]string{}
	stores := map[string]*Sharded{}
	for _, arm := range arms {
		dirs[arm] = t.TempDir()
		stores[arm] = openTest(t, dirs[arm], testConfig(2))
	}
	surveys := []*survey.Survey{benchSurvey(0), benchSurvey(1), benchSurvey(2)}
	for _, sv := range surveys {
		for _, s := range stores {
			if err := s.PutSurvey(sv); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Enough volume to rotate 4KiB segments and trigger snapshots in both.
	appendAll := func(from, to int) {
		for k := from; k < to; k++ {
			sv := surveys[k%len(surveys)]
			r := benchResponse(sv.ID, fmt.Sprintf("w-%04d", k))
			for _, s := range stores {
				if err := s.AppendResponse(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	compare := func(when string) {
		for _, sv := range surveys {
			b := scanAll(t, stores["binary"], sv.ID)
			j := scanAll(t, stores["json"], sv.ID)
			if len(b) == 0 || !reflect.DeepEqual(b, j) {
				t.Fatalf("survey %s %s: binary (%d records) and JSON (%d records) streams diverge", sv.ID, when, len(b), len(j))
			}
		}
	}
	reopen := func() {
		for _, arm := range arms {
			waitFolded(t, stores[arm])
			if err := stores[arm].Close(); err != nil {
				t.Fatal(err)
			}
			if arm == "json" {
				toJSONLines(t, dirs[arm])
			}
			stores[arm] = openTest(t, dirs[arm], testConfig(2))
		}
	}
	appendAll(0, 400)
	compare("before the rewrite")
	reopen()
	compare("after the rewrite")
	appendAll(400, 800)
	compare("after more appends")
	// Recovery must preserve the equivalence.
	for _, arm := range arms {
		waitFolded(t, stores[arm])
		if err := stores[arm].Close(); err != nil {
			t.Fatal(err)
		}
		stores[arm] = openTest(t, dirs[arm], testConfig(2))
		defer stores[arm].Close()
	}
	compare("after a reopen")
}
