package blockio_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"loki/internal/blockio"
	"loki/internal/logtest"
)

var codecs = []string{blockio.CodecJSON, blockio.CodecBinary}

// bareLog is a Log with the smallest possible user on top: record i is
// the decimal text of i, and every Put is its own flush + fsync.
type bareLog struct {
	log  *blockio.Log
	recs []int
}

func openBare(path, codec string) (*bareLog, error) {
	b := &bareLog{}
	var err error
	b.log, err = blockio.OpenLog(path, codec, func(p []byte) error {
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

func (b *bareLog) compact(codec string) error {
	return b.log.Rewrite(codec, func(nl *blockio.Log) error {
		for _, i := range b.recs {
			if err := nl.Append([]byte(strconv.Itoa(i))); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestLogConformance runs the suite every Log user runs against a bare
// Log, in both codecs.
func TestLogConformance(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec, func(t *testing.T) {
			logtest.Run(t, logtest.User{
				Open:    func(dir string) (logtest.Store, error) { return openBare(filepath.Join(dir, "log"), codec) },
				LogFile: func(dir string) string { return filepath.Join(dir, "log") },
				Compact: func(st logtest.Store) error { return st.(*bareLog).compact(codec) },
			})
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
	for _, codec := range codecs {
		for _, stage := range stages {
			t.Run(codec+"/"+stage.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log")
				b, err := openBare(path, codec)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range []int{0, 1} {
					if err := b.Put(i); err != nil {
						t.Fatal(err)
					}
				}
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
					"Rewrite": b.log.Rewrite(codec, func(*blockio.Log) error { return nil }),
				}
				for verb, err := range later {
					if err != first {
						t.Errorf("%s after the failure: %v, want the first failure %v", verb, err, first)
					}
				}
				if b, err = openBare(path, codec); err != nil {
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

// TestLogCodecFollowsFile: a non-empty file dictates its framing, a
// fresh or empty one takes the caller's, and Rewrite is the migration.
func TestLogCodecFollowsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	b, err := openBare(path, blockio.CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if raw, _ := os.ReadFile(path); string(raw) != "0\n1\n2\n" {
		t.Fatalf("JSON-lines file holds %q", raw)
	}
	if b, err = openBare(path, blockio.CodecBinary); err != nil {
		t.Fatal(err)
	}
	if got := b.log.Codec(); got != blockio.CodecJSON {
		t.Fatalf("reopened a JSON file under the binary codec as %s", got)
	}
	if err := b.compact(blockio.CodecBinary); err != nil {
		t.Fatal(err)
	}
	if got := b.log.Codec(); got != blockio.CodecBinary {
		t.Fatalf("after a binary rewrite the log is %s", got)
	}
	if err := b.Put(3); err != nil { // appends resume on the rewritten file
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != b.log.Size() {
		t.Fatalf("Size() = %d, file is %v bytes (%v)", b.log.Size(), fi.Size(), err)
	}
	b.Close()
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("rewritten file is not binary (%v)", err)
	}
	if b, err = openBare(path, blockio.CodecJSON); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !reflect.DeepEqual(b.recs, []int{0, 1, 2, 3}) {
		t.Fatalf("records %v after the migration", b.recs)
	}
}

// TestLogSealAndReplayFile: a sealed file takes no appends, replays
// strictly through ReplayFile in either codec, and a refusing apply
// refuses the open.
func TestLogSealAndReplayFile(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			b, err := openBare(path, codec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := b.Put(i); err != nil {
					t.Fatal(err)
				}
			}
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
			boom := errors.New("boom")
			if _, err := blockio.OpenLog(path+".other", codec, nil); err != nil {
				t.Fatalf("a fresh file never calls apply: %v", err)
			}
			if _, err := blockio.OpenLog(path, codec, func([]byte) error { return boom }); !errors.Is(err, boom) {
				t.Fatalf("apply's refusal did not refuse the open: %v", err)
			}
			if err := blockio.ReplayFile(filepath.Join(t.TempDir(), "absent"), true, nil); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("replaying a missing file: %v", err)
			}
		})
	}
}

// TestLogCopyFrom copies a sealed file's records after a skipped prefix
// into a new file behind one record of its own, for every pairing of
// codecs and a skip of one record and of several. The copy
// holds exactly the records after the skip, replays strictly and (binary)
// seeks by its index. conv sees every copied record except, binary to binary,
// those of whole blocks, which are copied as they are.
func TestLogCopyFrom(t *testing.T) {
	const n = 3000 // ~300 KiB of records: three binary blocks
	rec := func(i int) []byte { return []byte(strconv.Itoa(i) + strings.Repeat("-", 90) + strconv.Itoa(i*7919)) }
	for _, from := range codecs {
		src := filepath.Join(t.TempDir(), "src")
		if _, err := blockio.WriteLogAtomic(src, from, 0, func(l *blockio.Log) error {
			for i := 0; i < n; i++ {
				if err := l.Append(rec(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, to := range codecs {
			for _, skip := range []int{1, 17} {
				t.Run(fmt.Sprintf("%s-%s/skip=%d", from, to, skip), func(t *testing.T) {
					dst := filepath.Join(t.TempDir(), "dst")
					converted, copied := 0, 0
					if _, err := blockio.WriteLogAtomic(dst, to, 0, func(l *blockio.Log) error {
						if err := l.Append([]byte("head")); err != nil {
							return err
						}
						var err error
						copied, err = l.CopyFrom(src, skip, func(p []byte) ([]byte, error) {
							converted++
							return p, nil
						})
						return err
					}); err != nil {
						t.Fatal(err)
					}
					if copied != n-skip {
						t.Fatalf("copied %d records, want %d", copied, n-skip)
					}
					if whole := from == blockio.CodecBinary && to == blockio.CodecBinary; whole != (converted < copied) || converted == 0 {
						t.Fatalf("conv saw %d of %d copied records (codecs %s → %s)", converted, copied, from, to)
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
					if to != blockio.CodecBinary {
						return
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
	b, err := openBare(path, blockio.CodecBinary)
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
	if _, err := openBare(path, blockio.CodecBinary); !errors.Is(err, blockio.ErrInteriorDamage) {
		t.Fatalf("interior damage opened: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(mut) {
		t.Fatalf("the refused open changed the file: %d bytes, was %d", len(got), len(mut))
	}

	flip(ends[4] - 1)
	if b, err = openBare(path, blockio.CodecBinary); err != nil {
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

// TestLogSyncBesideAppend is the one concurrency Log allows: a flusher
// or sync cohort fsyncing outside the lock its appenders hold.
func TestLogSyncBesideAppend(t *testing.T) {
	for _, codec := range codecs {
		t.Run(codec, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			b, err := openBare(path, codec)
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < n; i++ {
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
			if b, err = openBare(path, codec); err != nil || len(b.recs) != n {
				t.Fatalf("reopened to %d records (%v), want %d", len(b.recs), err, n)
			}
			b.Close()
		})
	}
}
