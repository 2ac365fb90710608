package blockio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeLog writes n records ("rec-<seq>" with some padding so blocks
// actually compress) and returns the file path. seal controls whether
// the file gets its index + footer.
func writeLog(t *testing.T, n int, seal bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.bin")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		seq, err := w.Append(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
		// Flush every few records: real adopters cut at group-commit
		// boundaries, so multi-block files arise even below the size cut.
		if i%100 == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if seal {
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
	} else if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testRecord(i int) []byte {
	return []byte(fmt.Sprintf(`{"seq":%d,"pad":"abcdefghijklmnopqrstuvwxyz-abcdefghijklmnopqrstuvwxyz"}`, i))
}

// collect replays every record into a map keyed by seq.
func collect(t *testing.T, path string, tornOK bool) (map[uint64][]byte, bool) {
	t.Helper()
	got := make(map[uint64][]byte)
	torn, err := Replay(path, tornOK, func(seq uint64, payload []byte) error {
		got[seq] = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	return got, torn
}

func TestRoundTripUnsealed(t *testing.T) {
	const n = 250
	path := writeLog(t, n, false)
	got, torn := collect(t, path, true)
	if torn {
		t.Fatal("clean file reported torn")
	}
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 1; i <= n; i++ {
		if !bytes.Equal(got[uint64(i)], testRecord(i)) {
			t.Fatalf("record %d mismatch: %s", i, got[uint64(i)])
		}
	}
}

func TestRoundTripSealed(t *testing.T) {
	const n = 500
	path := writeLog(t, n, true)
	got, _ := collect(t, path, false)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 1; i <= n; i++ {
		if !bytes.Equal(got[uint64(i)], testRecord(i)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestSniff(t *testing.T) {
	bin := writeLog(t, 3, false)
	if ok, err := Sniff(bin); err != nil || !ok {
		t.Fatalf("sniff binary: %v %v", ok, err)
	}
	jsonPath := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(jsonPath, []byte(`{"a":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := Sniff(jsonPath); err != nil || ok {
		t.Fatalf("sniff json: %v %v", ok, err)
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := Sniff(empty); err != nil || ok {
		t.Fatalf("sniff empty: %v %v", ok, err)
	}
}

// TestScanFromSealedSeeks: an indexed scan from a deep cursor must not
// read the whole file.
func TestScanFromSealedSeeks(t *testing.T) {
	const n = 2000
	path := writeLog(t, n, true)
	full, err := ScanFrom(path, 0, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !full.Indexed || full.Records != n {
		t.Fatalf("full scan: %+v", full)
	}
	tail, err := ScanFrom(path, n-5, func(seq uint64, payload []byte) error {
		if !bytes.Equal(payload, testRecord(int(seq))) {
			return fmt.Errorf("record %d mismatch", seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tail.Records != 5 {
		t.Fatalf("tail scan delivered %d records, want 5", tail.Records)
	}
	if !tail.Indexed {
		t.Fatal("tail scan did not use the index")
	}
	if tail.BlocksRead >= full.BlocksRead || tail.BytesRead*2 >= full.BytesRead {
		t.Fatalf("tail scan read %d blocks / %d bytes of a %d-block / %d-byte file — the index did not seek",
			tail.BlocksRead, tail.BytesRead, full.BlocksRead, full.BytesRead)
	}
}

// TestTornTailMidBlock: truncating the file mid-frame loses exactly the
// records of the torn block; repair truncates back to the last verified
// frame and the file replays cleanly afterwards.
func TestTornTailMidBlock(t *testing.T) {
	const n = 300 // flushed every 100 -> 3 blocks
	path := writeLog(t, n, false)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	got, torn := collect(t, path, true)
	if !torn {
		t.Fatal("mid-block truncation not reported as torn")
	}
	if len(got) != 200 {
		t.Fatalf("replayed %d records after torn tail, want 200 (two intact blocks)", len(got))
	}
	// The repair is physical: a second replay sees a clean file.
	got2, torn2 := collect(t, path, true)
	if torn2 || len(got2) != 200 {
		t.Fatalf("post-repair replay: torn=%v records=%d", torn2, len(got2))
	}
}

// TestCorruptCRCRecovered: flipping a byte inside the last block makes
// its checksum fail; repair truncates that block away and keeps every
// earlier record (truncate-and-recover, like the WAL torn-tail tests).
func TestCorruptCRCRecovered(t *testing.T) {
	const n = 300
	path := writeLog(t, n, false)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], fi.Size()-20); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0xFF}, fi.Size()-20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, torn := collect(t, path, true)
	if !torn {
		t.Fatal("corrupt CRC not reported as torn")
	}
	if len(got) != 200 {
		t.Fatalf("replayed %d records after CRC corruption, want 200", len(got))
	}
	for i := 1; i <= 200; i++ {
		if !bytes.Equal(got[uint64(i)], testRecord(i)) {
			t.Fatalf("surviving record %d mismatch", i)
		}
	}
}

// TestCorruptionRefusedWhenSealedSemantics: with tornOK=false a damaged
// tail is an error, not a repair.
func TestCorruptionRefusedWhenSealedSemantics(t *testing.T) {
	path := writeLog(t, 100, false)
	if err := os.Truncate(path, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(path, false, func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("torn frame accepted with tornOK=false")
	}
}

// TestGarbageAfterSealRepairs: bytes appended after a seal (a crashed
// writer reusing a sealed file, or hand mutilation) invalidate the
// footer; a repairing replay truncates the garbage and the index but
// keeps every record.
func TestGarbageAfterSealRepairs(t *testing.T) {
	const n = 150
	path := writeLog(t, n, true)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("{torn json garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, torn := collect(t, path, true)
	if !torn {
		t.Fatal("garbage after seal not repaired")
	}
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
}

// TestResumeAppend: a repairing replay hands back enough state to keep
// appending to an unsealed file (the file-store and checkpoint pattern).
func TestResumeAppend(t *testing.T) {
	path := writeLog(t, 120, false)
	var count uint64
	if _, err := Replay(path, true, func(seq uint64, _ []byte) error {
		count = seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWriterAt(f, fi.Size(), count+1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 121; i <= 140; i++ {
		if _, err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, path, true)
	if len(got) != 140 {
		t.Fatalf("replayed %d records after resume, want 140", len(got))
	}
	if !bytes.Equal(got[140], testRecord(140)) {
		t.Fatal("resumed record mismatch")
	}
	if err := w.Seal(); err == nil {
		t.Fatal("resumed writer allowed Seal")
	}
}

func TestEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(empty, true, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("empty file: %v", err)
	}
	// The wrapped not-exist must survive errors.Is: every adopter
	// branches on it for fresh logs.
	if _, err := Replay(filepath.Join(dir, "missing.bin"), true, func(uint64, []byte) error { return nil }); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte(`{"seq":1,"resp":{"survey_id":"s","answers":[1,2,3]}}`), 64)
	frame, err := EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= len(payload) {
		t.Fatalf("frame (%d bytes) did not compress payload (%d bytes)", len(frame), len(payload))
	}
	got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame round trip mismatch")
	}
	frame[len(frame)-1] ^= 0xFF
	if _, err := DecodeFrame(frame); err == nil {
		t.Fatal("corrupt frame decoded")
	}
}
