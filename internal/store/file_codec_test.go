package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// TestFileStoreBinaryCodec: the blockio-backed file store passes the
// same contract as the JSON one and survives reopen (resuming appends
// into the unsealed block log).
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
		t.Fatalf("binary-codec log did not sniff binary: %v %v", bin, err)
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

// TestFileStoreCodecSticky: an existing JSON log opened with the binary
// codec keeps its JSON format — the file's own magic wins, so a single
// log never mixes codecs.
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
	st2, err := OpenFileWith(path, FileOptions{Sync: SyncAlways, Codec: blockio.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.AppendResponse(sampleResponse("w2")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if bin, err := blockio.Sniff(path); err != nil || bin {
		t.Fatalf("JSON log flipped codec mid-file: %v %v", bin, err)
	}
	st3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.ResponseCount(survey.LecturerID); got != 2 {
		t.Fatalf("after mixed-open appends: %d responses, want 2", got)
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

func TestOpenFileWithRejectsUnknownCodec(t *testing.T) {
	if _, err := OpenFileWith(filepath.Join(t.TempDir(), "x"), FileOptions{Codec: "msgpack"}); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
