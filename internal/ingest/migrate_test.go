package ingest

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/blockio"
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

// TestMigrateJSONDirToBinary: a directory written entirely under the
// JSON-lines codec reopens under the binary codec (the default), replays
// identically, and writes its NEW segments in binary — per-file
// autodetection migrates the directory in place, no rewrite step.
func TestMigrateJSONDirToBinary(t *testing.T) {
	dir := t.TempDir()
	cfgJSON := testConfig(2)
	cfgJSON.CompactSegments = 1000 // keep segments so the reopen replays real JSON files
	cfgJSON.Codec = blockio.CodecJSON

	s := openTest(t, dir, cfgJSON)
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
	if bin, jsn := segCodecs(t, dir); bin != 0 || jsn == 0 {
		t.Fatalf("JSON-era directory holds %d binary / %d json segments", bin, jsn)
	}

	// Reopen with the binary codec: same records, then new binary segments.
	cfgBin := cfgJSON
	cfgBin.Codec = "" // defaulted: binary
	s2 := openTest(t, dir, cfgBin)
	defer s2.Close()
	if got := scanAll(t, s2, sv.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened scan diverged: %d records vs %d", len(got), len(want))
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
		t.Fatal("no binary segments written after reopening with the binary codec")
	}
	if jsn == 0 {
		t.Fatal("old JSON segments vanished — migration must be in place, not a rewrite")
	}

	// A third open replays the mixed-codec directory end to end.
	s3 := openTest(t, dir, cfgBin)
	defer s3.Close()
	if got := scanAll(t, s3, sv.ID); !reflect.DeepEqual(got, want2) {
		t.Fatalf("mixed-codec scan diverged: %d records vs %d", len(got), len(want2))
	}
}

// TestCodecEquivalence: the same append sequence through the binary and
// JSON codecs — across rotations, snapshots and a reopen — yields
// byte-identical record streams. The codec is a storage detail, never a
// semantic one.
func TestCodecEquivalence(t *testing.T) {
	stores := map[string]*Sharded{}
	dirs := map[string]string{}
	for _, codec := range []string{blockio.CodecBinary, blockio.CodecJSON} {
		cfg := testConfig(2)
		cfg.Codec = codec
		dirs[codec] = t.TempDir()
		stores[codec] = openTest(t, dirs[codec], cfg)
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
	for k := 0; k < 400; k++ {
		sv := surveys[k%len(surveys)]
		r := benchResponse(sv.ID, fmt.Sprintf("w-%04d", k))
		for _, s := range stores {
			if err := s.AppendResponse(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sv := range surveys {
		b := scanAll(t, stores[blockio.CodecBinary], sv.ID)
		j := scanAll(t, stores[blockio.CodecJSON], sv.ID)
		if !reflect.DeepEqual(b, j) {
			t.Fatalf("survey %s: binary (%d records) and JSON (%d records) streams diverge", sv.ID, len(b), len(j))
		}
	}
	// Recovery must preserve the equivalence, codec by codec.
	for codec, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(2)
		cfg.Codec = codec
		stores[codec] = openTest(t, dirs[codec], cfg)
		defer stores[codec].Close()
	}
	for _, sv := range surveys {
		b := scanAll(t, stores[blockio.CodecBinary], sv.ID)
		j := scanAll(t, stores[blockio.CodecJSON], sv.ID)
		if len(b) == 0 || !reflect.DeepEqual(b, j) {
			t.Fatalf("survey %s after reopen: binary (%d) and JSON (%d) streams diverge", sv.ID, len(b), len(j))
		}
	}
}
