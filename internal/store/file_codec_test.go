package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"loki/internal/blockio"
	"loki/internal/logtest"
	"loki/internal/survey"
)

// TestFileStoreBinaryCodec: the file store passes the store contract
// under the options the benchmark module passes, writes a block file
// and survives reopen (resuming appends into the unsealed block log).
func TestFileStoreBinaryCodec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.blk")
	opts := FileOptions{Sync: SyncAlways, Codec: blockio.CodecBinary}
	st, err := OpenFileWith(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	storeTest(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the log did not sniff as blocks: %v %v", bin, err)
	}
	// Reopen twice: replay restores everything, and the resumed writer
	// keeps appending to the same file.
	for i := 0; i < 2; i++ {
		st2, err := OpenFileWith(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := 2 + i
		if got := st2.ResponseCount(survey.LecturerID); got != want {
			t.Fatalf("reopen %d: %d responses, want %d", i, got, want)
		}
		if err := st2.AppendResponse(sampleResponse("again")); err != nil {
			t.Fatal(err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// jsonRecord maps a block log's payload to the JSON line a JSON-lines
// log held for it: a binary response record becomes a "response"
// record, a binary survey record a "survey" or "republish" one, and a
// JSON record stays as it is.
func jsonRecord(p []byte) ([]byte, error) {
	switch {
	case len(p) > 0 && p[0] == survey.ResponseBinaryTag:
		var r survey.Response
		if err := r.UnmarshalBinary(p); err != nil {
			return nil, err
		}
		return json.Marshal(&record{Kind: "response", Response: &r})
	case len(p) > 0 && p[0] == survey.SurveyBinaryTag:
		var rec survey.SurveyRecord
		if err := rec.UnmarshalBinary(p); err != nil {
			return nil, err
		}
		kind := "survey"
		if rec.Republish {
			kind = "republish"
		}
		return json.Marshal(&record{Kind: kind, Survey: &rec.Survey, LoggedUnixNano: rec.UnixNano})
	}
	return p, nil
}

// toJSONLines rewrites the closed store log at path as the JSON-lines
// log a store wrote before blocks, record for record.
func toJSONLines(t *testing.T, path string) {
	t.Helper()
	if err := logtest.WriteJSONLines(path, jsonRecord); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreCodecSticky: a JSON-lines log is converted to blocks by
// the open, payloads byte for byte, and stays blocks: a file never goes
// back to JSON lines, nor mixes framings.
func TestFileStoreCodecSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.jsonl")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurvey(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(sampleResponse("w1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	toJSONLines(t, path)
	lines, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the open left a JSON-lines log: %v %v", bin, err)
	}
	payloads, err := logtest.Lines(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payloads, lines) {
		t.Fatalf("the converted log holds other payloads than the JSON lines:\n%s\n%s", payloads, lines)
	}
	if err := st2.AppendResponse(sampleResponse("w2")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.ResponseCount(survey.LecturerID); got != 2 {
		t.Fatalf("after the conversion and an append: %d responses, want 2", got)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the log left blocks: %v %v", bin, err)
	}
}

// TestFileStoreBinaryInteriorDamage: a flipped byte inside an acked
// response's block, with later acked responses behind it, refuses the
// open instead of truncating them away.
func TestFileStoreBinaryInteriorDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loki.blk")
	opts := FileOptions{Sync: SyncAlways, Codec: blockio.CodecBinary}
	st, err := OpenFileWith(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurvey(sampleSurvey()); err != nil {
		t.Fatal(err)
	}
	var firstEnd int64
	for i, w := range []string{"w1", "w2", "w3"} {
		if err := st.AppendResponse(sampleResponse(w)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			firstEnd = fi.Size()
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[firstEnd-1] ^= 0xFF // the first response's block
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := OpenFileWith(path, opts); !errors.Is(err, blockio.ErrInteriorDamage) {
		if err == nil {
			t.Fatalf("damaged store opened with %d responses", st.ResponseCount(survey.LecturerID))
		}
		t.Fatalf("refused for the wrong reason: %v", err)
	}
}

// TestOpenFileWithRejectsUnknownCodec: FileOptions.Codec takes "" or
// blockio.CodecBinary; the retired JSON-lines codec and anything else
// are refused by name.
func TestOpenFileWithRejectsUnknownCodec(t *testing.T) {
	for _, codec := range []string{"json", "msgpack"} {
		_, err := OpenFileWith(filepath.Join(t.TempDir(), "x"), FileOptions{Codec: codec})
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(codec)) || !strings.Contains(err.Error(), "json codec is retired") {
			t.Fatalf("codec %q: %v", codec, err)
		}
	}
}
