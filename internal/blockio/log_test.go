package blockio_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"loki/internal/blockio"
	"loki/internal/logtest"
)

// arms name where a test's first records come from: "binary", Put
// through the Log; "json", a JSON-lines file written by hand (no Log
// writes that framing any more), which the open converts to blocks.
var arms = []string{"json", "binary"}

// bareLog is a Log with the smallest possible user on top: record i is
// the decimal text of i, and every Put is its own flush + fsync.
type bareLog struct {
	log  *blockio.Log
	recs []int
}

func openBare(path string) (*bareLog, error) {
	b := &bareLog{}
	var err error
	b.log, err = blockio.OpenLog(path, func(p []byte) error {
		i, err := strconv.Atoi(string(p))
		b.recs = append(b.recs, i)
		return err
	})
	return b, err
}

func (b *bareLog) Put(i int) error {
	err := b.log.Append([]byte(strconv.Itoa(i)))
	if err == nil {
		err = b.log.Flush()
	}
	if err == nil {
		err = b.log.Sync()
	}
	if err == nil {
		b.recs = append(b.recs, i)
	}
	return err
}

func (b *bareLog) Records() []int { return append([]int{}, b.recs...) }
func (b *bareLog) Close() error   { return b.log.Close() }

// writeLines writes the JSON-lines file a Log wrote before blocks:
// one record per line.
func writeLines(t *testing.T, path string, recs ...string) {
	t.Helper()
	var b []byte
	for _, r := range recs {
		b = append(append(b, r...), '\n')
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// startBare opens the log at path holding records is, by way of arm.
func startBare(t *testing.T, path, arm string, is ...int) *bareLog {
	t.Helper()
	if arm == "json" {
		var recs []string
		for _, i := range is {
			recs = append(recs, strconv.Itoa(i))
		}
		writeLines(t, path, recs...)
	}
	b, err := openBare(path)
	if err != nil {
		t.Fatal(err)
	}
	if arm == "json" {
		if bin, err := blockio.Sniff(path); err != nil || !bin {
			t.Fatalf("the open left a JSON-lines file (%v)", err)
		}
	} else {
		for _, i := range is {
			if err := b.Put(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(is) > 0 && !reflect.DeepEqual(b.recs, is) {
		t.Fatalf("started with %v, want %v", b.recs, is)
	}
	return b
}

func (b *bareLog) compact() error {
	return b.log.Rewrite(func(nl *blockio.Log) error {
		for _, i := range b.recs {
			if err := nl.Append([]byte(strconv.Itoa(i))); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestLogConformance runs the suite every Log user runs against a bare
// Log, from records Put through it and from a converted JSON-lines file.
func TestLogConformance(t *testing.T) {
	for _, arm := range arms {
		t.Run(arm, func(t *testing.T) {
			u := logtest.User{
				Open:    func(dir string) (logtest.Store, error) { return openBare(filepath.Join(dir, "log")) },
				LogFile: func(dir string) string { return filepath.Join(dir, "log") },
				Compact: func(st logtest.Store) error { return st.(*bareLog).compact() },
			}
			if arm == "json" {
				u.Imported = func(p []byte) ([]byte, error) { return p, nil }
			}
			logtest.Run(t, u)
		})
	}
}

// TestLogStickyFailure fails the write, the flush and the fsync in turn:
// the failing call errors, every later call — whichever verb — returns
// that same error, and a reopen shows only what was synced before.
func TestLogStickyFailure(t *testing.T) {
	// Overflows the write buffer even deflated, so Append itself hits
	// the descriptor.
	big := make([]byte, 1<<18)
	rng := rand.New(rand.NewSource(1))
	for i := range big {
		big[i] = 'a' + byte(rng.Intn(26))
	}
	stages := []struct {
		name   string
		inject func(testing.TB, string)
		hit    func(l *blockio.Log) error // the call that must fail first
	}{
		{"write", logtest.BreakWrites, func(l *blockio.Log) error { return l.Append(big) }},
		{"flush", logtest.BreakWrites, func(l *blockio.Log) error {
			if err := l.Append([]byte("2")); err != nil {
				t.Errorf("a buffered append touched the file: %v", err)
			}
			return l.Flush()
		}},
		{"fsync", logtest.BreakSync, func(l *blockio.Log) error {
			if err := l.Append([]byte("2")); err != nil {
				t.Errorf("a buffered append touched the file: %v", err)
			}
			if err := l.Flush(); err != nil {
				t.Errorf("flush into a pipe failed: %v", err)
			}
			return l.Sync()
		}},
	}
	for _, arm := range arms {
		for _, stage := range stages {
			t.Run(arm+"/"+stage.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log")
				b := startBare(t, path, arm, 0, 1)
				stage.inject(t, path)
				first := stage.hit(b.log)
				if first == nil {
					t.Fatalf("the %s did not fail", stage.name)
				}
				if !strings.Contains(first.Error(), path) {
					t.Errorf("error does not name the file: %v", first)
				}
				later := map[string]error{
					"Append": b.log.Append([]byte("3")), "Flush": b.log.Flush(), "Sync": b.log.Sync(),
					"Seal": b.log.Seal(), "Err": b.log.Err(), "Close": b.log.Close(),
					"Rewrite": b.log.Rewrite(func(*blockio.Log) error { return nil }),
				}
				for verb, err := range later {
					if err != first {
						t.Errorf("%s after the failure: %v, want the first failure %v", verb, err, first)
					}
				}
				b, err := openBare(path)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				if !reflect.DeepEqual(b.recs, []int{0, 1}) {
					t.Fatalf("reopened to %v, want [0 1]", b.recs)
				}
			})
		}
	}
}

// TestLogCodecFollowsFile: a file's framing is sniffed, not named. A
// JSON-lines file converts on open to the block file a Log appending
// the same payloads would have written, payloads byte for byte; a
// block file reopens untouched; a fresh file starts as blocks.
func TestLogCodecFollowsFile(t *testing.T) {
	dir := t.TempDir()
	recs := []string{"0", `{"a":"\u00e9","b":[1,2]}`, "\x00\xb1\r\tnot json at all", "3"}
	path := filepath.Join(dir, "log")
	writeLines(t, path, recs...)
	var got []string
	l, err := blockio.OpenLog(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %q, want %q", got, recs)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the open left a JSON-lines file (%v)", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != l.Size() {
		t.Fatalf("Size() = %d, file is %v bytes (%v)", l.Size(), fi.Size(), err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	converted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The same payloads through a fresh Log, one flush.
	ref := filepath.Join(dir, "ref")
	rl, err := blockio.OpenLog(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := rl.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	if want, _ := os.ReadFile(ref); string(converted) != string(want) {
		t.Fatalf("converted file (%d bytes) differs from a Log's own (%d bytes)", len(converted), len(want))
	}
	// A block file is appended to as it is.
	b, err := openBare(filepath.Join(dir, "fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(7); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if bin, err := blockio.Sniff(filepath.Join(dir, "fresh")); err != nil || !bin {
		t.Fatalf("a fresh log is not a block file (%v)", err)
	}
	if l, err = blockio.OpenLog(path, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if again, _ := os.ReadFile(path); string(again) != string(converted) {
		t.Fatal("reopening a block file changed it")
	}
}

// TestLogConvertsJSONLinesAtEveryCut: a JSON-lines file cut at every
// byte opens to exactly the whole lines before the cut, in a block file
// that takes an append and reopens with it.
func TestLogConvertsJSONLinesAtEveryCut(t *testing.T) {
	var recs []string
	for i := 0; i < 6; i++ {
		recs = append(recs, strconv.Itoa(i)+strings.Repeat("x", i*3))
	}
	src := filepath.Join(t.TempDir(), "src")
	writeLines(t, src, recs...)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(whole); cut++ {
		want := strings.Count(string(whole[:cut]), "\n")
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []string
		open := func() *blockio.Log {
			got = nil
			l, err := blockio.OpenLog(path, func(p []byte) error {
				got = append(got, string(p))
				return nil
			})
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			return l
		}
		l := open()
		if len(got) != want || want > 0 && !reflect.DeepEqual(got, recs[:want]) {
			t.Fatalf("cut at %d: opened to %q, want %q", cut, got, recs[:want])
		}
		if bin, err := blockio.Sniff(path); want > 0 && (err != nil || !bin) {
			t.Fatalf("cut at %d: the open left a JSON-lines file (%v)", cut, err)
		}
		if err := l.Append([]byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if bin, err := blockio.Sniff(path); err != nil || !bin {
			t.Fatalf("cut at %d: after an append the file is not a block file (%v)", cut, err)
		}
		l = open()
		l.Close()
		if len(got) != want+1 || got[want] != "new" || !reflect.DeepEqual(got[:want], recs[:want]) {
			t.Fatalf("cut at %d: reopened to %q after one append", cut, got)
		}
	}
}

// TestLogConversionCrash: a crash mid-conversion leaves the JSON-lines
// file and a stale temp file, half or wholly written; the next open
// removes the temp file and converts again.
func TestLogConversionCrash(t *testing.T) {
	recs := []string{"a", "bb", "ccc", "dddd"}
	dir := t.TempDir()
	done := filepath.Join(dir, "done")
	writeLines(t, done, recs...)
	l, err := blockio.OpenLog(done, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	converted, err := os.ReadFile(done)
	if err != nil {
		t.Fatal(err)
	}
	for name, tmp := range map[string][]byte{"half": converted[:len(converted)/2], "whole": converted} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			writeLines(t, path, recs...)
			if err := os.WriteFile(path+".tmp", tmp, 0o644); err != nil {
				t.Fatal(err)
			}
			var got []string
			l, err := blockio.OpenLog(path, func(p []byte) error {
				got = append(got, string(p))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if !reflect.DeepEqual(got, recs) {
				t.Fatalf("opened to %q, want %q", got, recs)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("the stale temp file survived the open (%v)", err)
			}
			if b, _ := os.ReadFile(path); string(b) != string(converted) {
				t.Fatal("the redone conversion differs from an uninterrupted one")
			}
		})
	}
}

// TestLogSealAndReplayFile: a sealed file takes no appends, replays
// strictly through ReplayFile, and a refusing apply refuses the open —
// of a JSON-lines file too, which it leaves unconverted.
func TestLogSealAndReplayFile(t *testing.T) {
	for _, arm := range arms {
		t.Run(arm, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			boom := errors.New("boom")
			if arm == "json" {
				writeLines(t, path, "0", "1", "2", "3", "4")
				raw, _ := os.ReadFile(path)
				if _, err := blockio.OpenLog(path, func([]byte) error { return boom }); !errors.Is(err, boom) {
					t.Fatalf("apply's refusal did not refuse the open: %v", err)
				}
				if got, _ := os.ReadFile(path); string(got) != string(raw) {
					t.Fatal("a refused open converted the JSON-lines file")
				}
			}
			b := startBare(t, path, arm, 0, 1, 2, 3, 4)
			if err := b.log.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := b.log.Append([]byte("9")); err == nil {
				t.Fatal("append to a sealed log succeeded")
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			var got []string
			if err := blockio.ReplayFile(path, false, func(p []byte) error {
				got = append(got, string(p))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, ",") != "0,1,2,3,4" {
				t.Fatalf("replayed %v", got)
			}
			if _, err := blockio.OpenLog(path+".other", nil); err != nil {
				t.Fatalf("a fresh file never calls apply: %v", err)
			}
			if _, err := blockio.OpenLog(path, func([]byte) error { return boom }); !errors.Is(err, boom) {
				t.Fatalf("apply's refusal did not refuse the open: %v", err)
			}
			if err := blockio.ReplayFile(filepath.Join(t.TempDir(), "absent"), true, nil); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("replaying a missing file: %v", err)
			}
		})
	}
}

// wholeBlocks counts the blocks of src, when it is a block file, whose
// compressed payloads appear in dst byte for byte, and returns that and
// how many blocks src has.
func wholeBlocks(t *testing.T, src, dst string) (whole, blocks int) {
	t.Helper()
	if bin, err := blockio.Sniff(src); err != nil || !bin {
		return 0, 0
	}
	srcBlocks, err := blockio.BlockPayloads(src)
	if err != nil {
		t.Fatal(err)
	}
	dstBlocks, err := blockio.BlockPayloads(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, sb := range srcBlocks {
		if slices.ContainsFunc(dstBlocks, func(db []byte) bool { return bytes.Equal(db, sb) }) {
			whole++
		}
	}
	return whole, len(srcBlocks)
}

// TestLogCopyFrom copies a file's records after a skipped prefix into a
// log behind one record of its own, from a sealed block file and from a
// JSON-lines file, into a fresh log ("binary") and into one converted
// from a JSON-lines file ("json"), with a skip of one record and of
// several. The copy holds exactly the records after the skip, replays
// strictly and seeks by its index once sealed. From a block file every
// block past the one the skip ends in is copied whole: its compressed
// payload lands in the copy byte for byte. From a JSON-lines file no
// block is copied.
func TestLogCopyFrom(t *testing.T) {
	const n = 3000 // ~300 KiB of records: three blocks
	rec := func(i int) []byte { return []byte(strconv.Itoa(i) + strings.Repeat("-", 90) + strconv.Itoa(i*7919)) }
	for _, from := range arms {
		src := filepath.Join(t.TempDir(), "src")
		if from == "json" {
			var recs []string
			for i := 0; i < n; i++ {
				recs = append(recs, string(rec(i)))
			}
			writeLines(t, src, recs...)
		} else if _, err := blockio.WriteLogAtomic(src, 0, func(l *blockio.Log) error {
			for i := 0; i < n; i++ {
				if err := l.Append(rec(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, to := range arms {
			for _, skip := range []int{1, 17} {
				t.Run(fmt.Sprintf("%s-%s/skip=%d", from, to, skip), func(t *testing.T) {
					dst := filepath.Join(t.TempDir(), "dst")
					copied := 0
					fill := func(l *blockio.Log) error {
						var err error
						copied, err = l.CopyFrom(src, skip)
						return err
					}
					if to == "json" {
						writeLines(t, dst, "head")
						l, err := blockio.OpenLog(dst, func([]byte) error { return nil })
						if err == nil {
							err = fill(l)
						}
						if err == nil {
							err = l.Seal()
						}
						if err == nil {
							err = l.Close()
						}
						if err != nil {
							t.Fatal(err)
						}
					} else if _, err := blockio.WriteLogAtomic(dst, 0, func(l *blockio.Log) error {
						if err := l.Append([]byte("head")); err != nil {
							return err
						}
						return fill(l)
					}); err != nil {
						t.Fatal(err)
					}
					if copied != n-skip {
						t.Fatalf("copied %d records, want %d", copied, n-skip)
					}
					whole, blocks := wholeBlocks(t, src, dst)
					if from == "binary" && (blocks < 3 || whole != blocks-1) {
						t.Fatalf("%d of the source's %d blocks landed in the copy whole, want all but the first", whole, blocks)
					}
					var got []string
					if err := blockio.ReplayFile(dst, false, func(p []byte) error {
						got = append(got, string(p))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if len(got) != n-skip+1 || got[0] != "head" {
						t.Fatalf("the copy holds %d records starting %q", len(got), got[0])
					}
					for i, g := range got[1:] {
						if g != string(rec(skip+i)) {
							t.Fatalf("record %d is %q, want %q", i+1, g, rec(skip+i))
						}
					}
					st, err := blockio.ScanFrom(dst, uint64(len(got)-5), func(seq uint64, p []byte) error {
						if want := got[seq-1]; string(p) != want {
							return fmt.Errorf("seq %d holds %q, want %q", seq, p, want)
						}
						return nil
					})
					if err != nil || !st.Indexed || st.Records != 5 {
						t.Fatalf("an indexed scan of the last records: %+v, %v", st, err)
					}
				})
			}
		}
	}
}

// TestLogInteriorDamageRefused: a flipped byte inside a block that a
// verified block follows refuses the open and leaves the file as it was;
// the same flip in the last block is a torn tail, repaired to the prefix.
func TestLogInteriorDamageRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	b, err := openBare(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // file size after each Put: the end of its block
	for i := 0; i < 5; i++ {
		if err := b.Put(i); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, b.log.Size())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int64) []byte {
		mut := append([]byte(nil), clean...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		return mut
	}

	mut := flip(ends[1] - 1) // the second block's last payload byte
	if _, err := openBare(path); !errors.Is(err, blockio.ErrInteriorDamage) {
		t.Fatalf("interior damage opened: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(mut) {
		t.Fatalf("the refused open changed the file: %d bytes, was %d", len(got), len(mut))
	}

	flip(ends[4] - 1)
	if b, err = openBare(path); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !reflect.DeepEqual(b.recs, []int{0, 1, 2, 3}) {
		t.Fatalf("damaged last block reopened to %v, want [0 1 2 3]", b.recs)
	}
}

// TestWriteFileAtomic: a failing write callback leaves the old file
// byte-identical and no temp file behind; a succeeding one replaces it.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	write := func(s string, fail error) error {
		return blockio.WriteFileAtomic(path, func(f *os.File) error {
			if _, err := f.WriteString(s); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("one\n", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := write("torn", boom); !errors.Is(err, boom) {
		t.Fatalf("failing callback: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "one\n" {
		t.Fatalf("old file now holds %q", b)
	}
	if err := write("two\n", nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "two\n" {
		t.Fatalf("file holds %q", b)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("directory holds %v", names)
	}
}

// TestLogSyncBesideAppend is the one concurrency Log allows: a sync
// cohort fsyncing outside the lock its appenders hold.
func TestLogSyncBesideAppend(t *testing.T) {
	for _, arm := range arms {
		t.Run(arm, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			b := startBare(t, path, arm, 0)
			const n = 200
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 1; i <= n; i++ {
					if err := b.log.Append([]byte(strconv.Itoa(i))); err != nil {
						t.Error(err)
					}
					if err := b.log.Flush(); err != nil {
						t.Error(err)
					}
				}
			}()
			for synced := false; !synced; {
				select {
				case <-done:
					synced = true
				default:
				}
				if err := b.log.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := openBare(path)
			if err != nil || len(b.recs) != n+1 {
				t.Fatalf("reopened to %d records (%v), want %d", len(b.recs), err, n+1)
			}
			b.Close()
		})
	}
}
