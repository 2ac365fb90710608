package blockio

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// oneBlock writes payload as a single-record block and returns the
// block's raw length and its comp bytes, parsed from the file by hand.
func oneBlock(t *testing.T, payload []byte) (rawLen uint64, comp []byte, path string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "one.bin")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewFieldReader(b[headerSize:])
	r.Uvarint() // firstSeq
	r.Uvarint() // count
	rawLen = r.Uvarint()
	compLen := r.Uvarint()
	r.Bytes(4) // crc
	comp = r.Bytes(compLen)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("frame does not parse: %v, %d bytes left", r.Err(), r.Len())
	}
	return rawLen, comp, path
}

// TestStoredBlockCutOver: a block below StoredBlockMax is the raw bytes
// behind a five-byte stored-block header, one at or above it is
// compressed, and both are plain deflate streams — what any reader of
// format version 1, including binaries older than the stored path,
// hands to compress/flate.
func TestStoredBlockCutOver(t *testing.T) {
	for _, payloadLen := range []int{0, 1, 100, StoredBlockMax - 7, StoredBlockMax - 6, StoredBlockMax, 4 * StoredBlockMax} {
		payload := bytes.Repeat([]byte("ab"), payloadLen/2+1)[:payloadLen]
		rawLen, comp, path := oneBlock(t, payload)
		stored := rawLen < StoredBlockMax
		if stored != (len(comp) == int(rawLen)+5 && comp[0] == 0x01) {
			t.Errorf("payload %d (raw %d): stored=%v but comp is %d bytes starting %#x", payloadLen, rawLen, stored, len(comp), comp[0])
		}
		if !stored && len(comp) >= int(rawLen) {
			t.Errorf("payload %d: repetitive block of %d raw bytes did not compress (%d)", payloadLen, rawLen, len(comp))
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
		if err != nil || uint64(len(raw)) != rawLen || !bytes.HasSuffix(raw, payload) {
			t.Errorf("payload %d: comp does not inflate to the block: %v (%d bytes)", payloadLen, err, len(raw))
		}
		got, _ := collect(t, path, false)
		if len(got) != 1 || !bytes.Equal(got[1], payload) {
			t.Errorf("payload %d: replay returned %d records", payloadLen, len(got))
		}
	}
	// The record sizes either side of the boundary above are the boundary:
	// envelope = uvarint(len) + crc32 + payload.
	if raw, _, _ := oneBlock(t, make([]byte, StoredBlockMax-7)); raw != StoredBlockMax-1 {
		t.Fatalf("boundary arithmetic is off: raw %d", raw)
	}
}

// TestTornStoredBlock: a file that ends inside a stored block is
// repaired back to the last whole block, like any torn frame.
func TestTornStoredBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.bin")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 1; i <= 3; i++ {
		if _, err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Offset())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for cut := ends[1] + 1; cut < ends[2]; cut++ {
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		got, repaired := collect(t, path, true)
		if !repaired || len(got) != 2 {
			t.Fatalf("cut at %d: repaired=%v, %d records", cut, repaired, len(got))
		}
		if fi, _ := os.Stat(path); fi.Size() != ends[1] {
			t.Fatalf("cut at %d: repaired to %d, want %d", cut, fi.Size(), ends[1])
		}
		// Put the third block back for the next cut.
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(ends[1], io.SeekStart); err != nil {
			t.Fatal(err)
		}
		w, err := NewWriterAt(f, ends[1], 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(testRecord(3)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFieldPrimitives: what the appenders write the reader returns, a
// short read latches, and a count is checked against the bytes left.
func TestFieldPrimitives(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	b := AppendString(nil, "héllo")
	b = AppendString(b, "")
	b = AppendFloat64(b, negZero)
	b = AppendFloat64(b, nan)
	b = binary.AppendVarint(b, -42)
	b = binary.AppendUvarint(b, 3)
	b = append(b, 7, 8, 9)
	r := NewFieldReader(b)
	if s := r.Str(); s != "héllo" {
		t.Errorf("Str = %q", s)
	}
	if s := r.Str(); s != "" {
		t.Errorf("empty Str = %q", s)
	}
	if f := r.Float64(); math.Float64bits(f) != math.Float64bits(negZero) {
		t.Errorf("-0 came back as %v", f)
	}
	if f := r.Float64(); math.Float64bits(f) != math.Float64bits(nan) {
		t.Errorf("NaN payload lost: %#x", math.Float64bits(f))
	}
	if v := r.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if n := r.Count(1); n != 3 || r.Byte() != 7 || r.Len() != 2 || r.Err() != nil {
		t.Errorf("Count = %d, %d left, err %v", n, r.Len(), r.Err())
	}
	if n := NewFieldReader(b[len(b)-4:]).Count(2); n != 0 {
		t.Errorf("count of 3 two-byte elements accepted with 3 bytes left: %d", n)
	}
	short := NewFieldReader(AppendString(nil, "abc")[:2])
	if s := short.Str(); s != "" || short.Err() == nil || short.Uvarint() != 0 || short.Len() != 0 {
		t.Errorf("short string read %q, err %v", s, short.Err())
	}
}
