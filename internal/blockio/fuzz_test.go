package blockio

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBlockRoundTrip writes fuzzer-chosen records through the Writer
// (with fuzzer-chosen flush/seal points), replays them back, and then
// replays a fuzzer-truncated copy to check the repair invariant: a
// damaged file yields a prefix of the original records, never garbage
// and never an error. The flush cadence comes from the fuzzer too, so
// blocks of one record up to nine land on both sides of StoredBlockMax:
// stored and compressed blocks interleave in one file.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte("hello\x00world"), uint8(3), uint16(7), true)
	f.Add([]byte(`{"survey_id":"s","answers":[1,2,3]}`), uint8(50), uint16(1), false)
	f.Add([]byte{}, uint8(1), uint16(0), true)
	// One record per block, each block one byte under / exactly at the
	// cut-over (envelope: 2-byte length + crc + 1-byte seq prefix + seed).
	f.Add(bytes.Repeat([]byte{0xB1}, StoredBlockMax-8), uint8(9), uint16(9), false)
	f.Add(bytes.Repeat([]byte{0xB1}, StoredBlockMax-7), uint8(9), uint16(18), true)
	f.Fuzz(func(t *testing.T, seedRec []byte, nRecs uint8, cut uint16, seal bool) {
		if len(seedRec) > 1<<16 {
			t.Skip()
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.bin")
		fh, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriter(fh, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := int(nRecs)
		every := 1 + int(cut)%9
		var want [][]byte
		for i := 0; i < n; i++ {
			// Derive a distinct record per seq from the seed.
			rec := append(binary.AppendUvarint(nil, uint64(i)), seedRec...)
			if _, err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
			if i%every == every-1 {
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

		// Full round trip.
		var got [][]byte
		if _, err := Replay(path, false, func(seq uint64, payload []byte) error {
			if seq != uint64(len(got)+1) {
				t.Fatalf("seq %d out of order (have %d records)", seq, len(got))
			}
			got = append(got, append([]byte(nil), payload...))
			return nil
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(got) != n {
			t.Fatalf("round trip: %d records, want %d", len(got), n)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d mismatch", i+1)
			}
		}

		// Truncate-at-arbitrary-point recovery: the repaired file must
		// replay to a prefix of the original stream.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cutAt := int64(cut) % (fi.Size() + 1)
		mut := filepath.Join(dir, "mut.bin")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mut, b[:cutAt], 0o644); err != nil {
			t.Fatal(err)
		}
		var prefix int
		if _, err := Replay(mut, true, func(seq uint64, payload []byte) error {
			if seq != uint64(prefix+1) {
				t.Fatalf("repaired seq %d out of order", seq)
			}
			if int(seq) > n || !bytes.Equal(payload, want[seq-1]) {
				t.Fatalf("repaired record %d is not a prefix record", seq)
			}
			prefix++
			return nil
		}); err != nil {
			t.Fatalf("repaired replay: %v", err)
		}
	})
}

// FuzzLogTruncate is the crash model of every durable structure in the
// system, fuzzed: fuzzer-sized records (the corpus straddles
// StoredBlockMax) go to a Log at a fuzzer-chosen flush cadence, or, with
// bin false, into a JSON-lines file built byte by byte (the framing no
// Log writes any more, one recoverable unit per line). The file is cut
// at a fuzzer-chosen offset, and the reopen must never panic or refuse,
// never yield a record that was not appended or skip one, never lose a
// flush (or line) that lay wholly before the cut, leave a block file,
// and take an append and reopen with it.
func FuzzLogTruncate(f *testing.F) {
	f.Add(false, []byte("hello"), uint8(5), uint8(2), uint16(40))
	f.Add(true, []byte("hello"), uint8(5), uint8(2), uint16(40))
	f.Add(true, []byte{}, uint8(1), uint8(0), uint16(3))
	f.Add(true, bytes.Repeat([]byte{0xB1}, (StoredBlockMax-8)/2), uint8(9), uint8(0), uint16(700))
	f.Add(true, bytes.Repeat([]byte{0xB1}, (StoredBlockMax-6)/2), uint8(9), uint8(1), uint16(1300))
	f.Add(false, bytes.Repeat([]byte{0xB1}, StoredBlockMax), uint8(4), uint8(3), uint16(1025))
	f.Fuzz(func(t *testing.T, bin bool, seedRec []byte, nRecs, cadence uint8, cut uint16) {
		if len(seedRec) > 1<<12 {
			t.Skip()
		}
		path := filepath.Join(t.TempDir(), "fuzz.log")
		reopen := func() (*Log, []string) {
			var got []string
			l, err := OpenLog(path, func(p []byte) error {
				got = append(got, string(p))
				return nil
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return l, got
		}
		every := 1 + int(cadence)%9
		var want []string
		flushed := map[int64]int{0: 0} // file size after a flush -> records it covers
		var lines []byte
		var l *Log
		if bin {
			l, _ = reopen()
		}
		for i := 0; i < int(nRecs); i++ {
			// Hex keeps a JSON line free of newlines; the seq prefix makes
			// every record distinct.
			rec := hex.EncodeToString(append(binary.AppendUvarint(nil, uint64(i)), seedRec...))
			want = append(want, rec)
			if !bin {
				lines = append(append(lines, rec...), '\n')
				flushed[int64(len(lines))] = len(want)
				continue
			}
			if err := l.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
			if i%every == every-1 {
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				flushed[l.Size()] = len(want)
			}
		}
		if bin {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cutAt := int64(cut) % (fi.Size() + 1)
		if err := os.Truncate(path, cutAt); err != nil {
			t.Fatal(err)
		}
		covered := 0
		for size, n := range flushed {
			if size <= cutAt && n > covered {
				covered = n
			}
		}
		l, got := reopen()
		if len(got) < covered || len(got) > len(want) {
			t.Fatalf("cut at %d of %d: %d records survive, flushes before the cut cover %d of %d", cutAt, fi.Size(), len(got), covered, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut at %d: record %d is not the record appended there", cutAt, i)
			}
		}
		if err := l.Append([]byte("cafe")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if isBlocks, err := Sniff(path); err != nil || !isBlocks {
			t.Fatalf("cut at %d: the reopened file is not a block file (%v)", cutAt, err)
		}
		l, again := reopen()
		defer l.Close()
		if len(again) != len(got)+1 || again[len(got)] != "cafe" {
			t.Fatalf("cut at %d: the repaired file reopened to %d records after one append to %d", cutAt, len(again), len(got))
		}
	})
}
