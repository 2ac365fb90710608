package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"loki/internal/blockio"
	"loki/internal/logtest"
	"loki/internal/survey"
)

// testdata/parent_file.binary and testdata/parent_file.json were
// written by the commit BEFORE File moved onto blockio.Log (469b70b), by
// running fileFixtureScript there (TestWriteParentFixture with
// LOKI_FIXTURE_OUT set), one per codec that commit wrote: blocks and
// JSON lines. Response records carry no timestamp, so everything behind
// the survey record (which does) of the block file must come out
// byte-identical from this commit's code: same framing, same block cuts,
// same seqs across the mid-script reopen. The JSON-lines file is an
// import now: it opens to the same contents, converted to blocks.

func fixtureResponse(i int) *survey.Response {
	return &survey.Response{
		SurveyID: survey.LecturerID, WorkerID: fmt.Sprintf("fx-%03d", i), PrivacyLevel: "high", Obfuscated: true, Day: 1 + i%5,
		Answers: []survey.Answer{
			survey.RatingAnswer("lecturer-00", 4+float64(i)/7),
			survey.RatingAnswer("lecturer-01", 3-float64(i)/11),
		},
	}
}

// fileFixtureScript writes one log: a survey, five one-record commits, a
// four-record batch, a close and reopen, three more single commits and a
// 100-record batch (one compressed block). It returns the file's size
// right after the survey record.
func fileFixtureScript(t *testing.T, path string) int64 {
	t.Helper()
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	single := func(k int) {
		for ; k > 0; k-- {
			if err := st.AppendResponse(fixtureResponse(n)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	batch := func(k int) {
		var rs []survey.Response
		for ; k > 0; k-- {
			rs = append(rs, *fixtureResponse(n))
			n++
		}
		if _, err := st.AppendResponses(rs); err != nil {
			t.Fatal(err)
		}
	}
	single(5)
	batch(4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	single(3)
	batch(100)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestWriteParentFixture(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("set LOKI_FIXTURE_OUT to (re)write the fixtures with this commit's code")
	}
	path := filepath.Join(out, "parent_file."+blockio.CodecBinary)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	fileFixtureScript(t, path)
}

// TestParentFileFixtures: each parent-written log opens to the script's
// contents, as a block file whose payloads are the parent's records byte
// for byte; this commit writes the parent's block bytes behind the
// survey record; and the parent's file takes appends and reopens.
func TestParentFileFixtures(t *testing.T) {
	for _, codec := range []string{"binary", "json"} {
		t.Run(codec, func(t *testing.T) {
			fresh := filepath.Join(t.TempDir(), "fresh")
			surveyEnd := fileFixtureScript(t, fresh)
			path := copyFixture(t, "parent_file."+codec)
			parent, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if codec == "binary" {
				mine, err := os.ReadFile(fresh)
				if err != nil {
					t.Fatal(err)
				}
				tail := mine[surveyEnd:]
				if len(tail) < 1000 || len(parent) < len(tail) || !bytes.Equal(parent[len(parent)-len(tail):], tail) {
					t.Fatalf("the %d response-record bytes this commit wrote differ from the parent's (%d-byte file): the format moved", len(tail), len(parent))
				}
			}

			ref, err := OpenFile(fresh)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			st, err := OpenFile(path)
			if err != nil {
				t.Fatalf("parent-written log does not open: %v", err)
			}
			sameContents(t, st, ref)
			if codec == "json" {
				payloads, err := logtest.Lines(path)
				if err != nil {
					t.Fatal(err)
				}
				if bin, err := blockio.Sniff(path); err != nil || !bin || !bytes.Equal(payloads, parent) {
					t.Fatalf("the open did not convert the JSON lines to blocks of the same payloads (%v)", err)
				}
			}
			for _, target := range []*File{st, ref} {
				if err := target.AppendResponse(fixtureResponse(900)); err != nil {
					t.Fatal(err)
				}
				if _, err := target.AppendResponses([]survey.Response{*fixtureResponse(901), *fixtureResponse(902)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = OpenFile(path); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sameContents(t, st, ref)
			if n := st.ResponseCount(survey.LecturerID); n != 115 {
				t.Fatalf("%d responses after the appends, want 115", n)
			}
		})
	}
}
