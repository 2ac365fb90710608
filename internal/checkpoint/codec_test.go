package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"loki/internal/blockio"
	"loki/internal/logtest"
)

// TestBinaryCodecRoundTrip: under the options the benchmark module
// passes, a checkpoint log persists, replays, appends across reopens and
// compacts, in blockio files.
func TestBinaryCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Codec: blockio.CodecBinary}
	sv := testSurvey()
	l, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 20; n++ {
		if err := l.Put(record(t, sv, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, surveysDir, surveyFileName(sv.ID))
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("checkpoint file did not sniff as blocks: %v %v", bin, err)
	}

	l2, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := l2.Get(sv.ID); !ok || rec.Cursor != 20 {
		t.Fatalf("after reopen: %+v, want cursor 20", rec)
	}
	// The reopened handle resumes the unsealed block log.
	if err := l2.Put(record(t, sv, 21)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if rec, ok := l3.Get(sv.ID); !ok || rec.Cursor != 21 {
		t.Fatalf("after compaction + reopen: %+v, want cursor 21", rec)
	}
	if got := l3.CorruptRecords(); got != 0 {
		t.Fatalf("clean binary log reports %d corrupt records", got)
	}
}

// TestBinaryInteriorDamageSkipped: a damaged block with verified blocks
// behind it refuses a blockio open, but checkpoints are advisory: Open
// counts it, keeps the records before it, and rewrites the file clean.
func TestBinaryInteriorDamageSkipped(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Codec: blockio.CodecBinary}
	sv := testSurvey()
	path := filepath.Join(dir, surveysDir, surveyFileName(sv.ID))
	l, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for n := 1; n <= 3; n++ {
		if err := l.Put(record(t, sv, n)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[ends[1]-1] ^= 0xFF // cursor 2's block; cursor 3's verifies behind it
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatalf("interior damage refused the open: %v", err)
	}
	if got := l2.CorruptRecords(); got != 1 {
		t.Errorf("corrupt records = %d, want 1", got)
	}
	if rec, ok := l2.Get(sv.ID); !ok || rec.Cursor != 1 {
		t.Fatalf("after the damage: %+v, want cursor 1", rec)
	}
	if err := l2.Put(record(t, sv, 4)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := l3.CorruptRecords(); got != 0 {
		t.Errorf("the damage survived the rewrite: %d corrupt", got)
	}
	if rec, ok := l3.Get(sv.ID); !ok || rec.Cursor != 4 {
		t.Fatalf("after reopen: %+v, want cursor 4", rec)
	}
}

// TestCodecMigrationAtFirstPut: a JSON-era checkpoint file replays as
// it is on Open, and its survey's first Put converts it to blocks, which
// takes the append and stays blocks through a compaction.
func TestCodecMigrationAtFirstPut(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(record(t, sv, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, surveysDir, surveyFileName(sv.ID))
	if err := logtest.WriteJSONLines(path, nil); err != nil { // the JSON era
		t.Fatal(err)
	}
	lines, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := l2.Get(sv.ID); !ok || rec.Cursor != 5 {
		t.Fatalf("the JSON-era file opened to %+v, want cursor 5", rec)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, lines) {
		t.Fatal("Open rewrote a file no Put had touched")
	}
	if err := l2.Put(record(t, sv, 6)); err != nil {
		t.Fatal(err)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the first Put did not convert the file: %v %v", bin, err)
	}
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Put(record(t, sv, 7)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the file left blocks: %v %v", bin, err)
	}
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if rec, ok := l3.Get(sv.ID); !ok || rec.Cursor != 7 {
		t.Fatalf("after migration: %+v, want cursor 7", rec)
	}
}

// TestOpenWithRejectsRetiredCodec: Options.Codec takes "" or
// blockio.CodecBinary; the retired JSON-lines codec and anything else
// are refused by name.
func TestOpenWithRejectsRetiredCodec(t *testing.T) {
	for _, codec := range []string{"json", "msgpack"} {
		_, err := OpenWith(t.TempDir(), Options{Codec: codec})
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(codec)) || !strings.Contains(err.Error(), "json codec is retired") {
			t.Fatalf("codec %q: %v", codec, err)
		}
	}
}
