// Package logtest is the crash / torn-tail / I/O-failure conformance
// suite for everything built on blockio.Log: the file store, a
// checkpoint file, the budget ledger, ingest's meta log and its WAL
// segments. Each of those packages plugs its constructor into Run from
// a test; blockio's own tests run the same script against a bare Log.
// Test-only: nothing outside _test files imports it.
package logtest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/blockio"
)

// Store is one durable structure reduced to numbered records.
type Store interface {
	// Put durably appends record i; nil means acknowledged.
	Put(i int) error
	// Records lists the record numbers readable now, ascending.
	Records() []int
	Close() error
}

// User is one constructor under test.
type User struct {
	// Open opens (creating if needed) the structure rooted at dir.
	Open func(dir string) (Store, error)
	// LogFile names the file Put's bytes land in, for a dir holding at
	// least one record.
	LogFile func(dir string) string
	// MayOverCount allows records whose fsync failed to stay visible in
	// memory until the reopen (the budget ledger: a failure may cost a
	// worker headroom, never privacy). Everyone else must hide them.
	MayOverCount bool
	// Compact, when set, rewrites the log file of an open Store to its
	// live records (the structure's compaction).
	Compact func(Store) error
	// Imported, when set, starts every script from a JSON-lines file:
	// the records a script begins with are Put, the store is closed,
	// LogFile is rewritten by WriteJSONLines with Imported as its conv,
	// and the reopen must hold the same records, with the file LogFile
	// names then a block file (the converted one, or a fresh file the
	// store appends to beside it).
	Imported func(payload []byte) ([]byte, error)
}

func (u User) open(t *testing.T, dir string) Store {
	t.Helper()
	st, err := u.Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return st
}

// start opens a fresh structure at dir holding records is (see
// User.Imported).
func (u User) start(t *testing.T, dir string, is ...int) Store {
	t.Helper()
	st := u.open(t, dir)
	put(t, st, is...)
	if u.Imported == nil {
		return st
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := u.LogFile(dir)
	if err := WriteJSONLines(path, u.Imported); err != nil {
		t.Fatal(err)
	}
	st = u.open(t, dir)
	wantRecords(t, st, is...)
	if _, err := blockio.Replay(u.LogFile(dir), false, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("after the open, %s is no whole block file: %v", u.LogFile(dir), err)
	}
	return st
}

// WriteJSONLines rewrites the closed record file at path as JSON lines,
// the framing every Log wrote before blocks: one line per record, its
// payload mapped by conv when conv is non-nil. No Log writes that
// framing any more, so tests build such files with this.
func WriteJSONLines(path string, conv func(payload []byte) ([]byte, error)) error {
	var lines []byte
	err := blockio.ReplayFile(path, false, func(p []byte) error {
		if conv != nil {
			var err error
			if p, err = conv(p); err != nil {
				return err
			}
		}
		if bytes.IndexByte(p, '\n') >= 0 {
			return fmt.Errorf("record %q holds a newline", p)
		}
		lines = append(append(lines, p...), '\n')
		return nil
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, lines, 0o644)
}

// Lines returns the records of the file at path, in either framing, each
// followed by a newline: for a file converted from JSON lines, the
// bytes of the JSON-lines file it was.
func Lines(path string) ([]byte, error) {
	var out []byte
	err := blockio.ReplayFile(path, false, func(p []byte) error {
		out = append(append(out, p...), '\n')
		return nil
	})
	return out, err
}

func put(t *testing.T, st Store, is ...int) {
	t.Helper()
	for _, i := range is {
		if err := st.Put(i); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, st Store, want ...int) {
	t.Helper()
	if got := st.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("records %v, want %v", got, want)
	}
}

func size(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// copyDir clones a closed store's directory somewhere writable.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// Run drives u through the suite.
func Run(t *testing.T, u User) {
	t.Run("TornTail", func(t *testing.T) { tornTail(t, u) })
	t.Run("BrokenWrites", func(t *testing.T) { brokenLog(t, u, BreakWrites) })
	t.Run("BrokenSync", func(t *testing.T) { brokenLog(t, u, BreakSync) })
	if u.Compact != nil {
		t.Run("RewriteCrash", func(t *testing.T) { rewriteCrash(t, u) })
	}
}

// tornTail cuts the log at every byte offset inside its last commit:
// each reopen must yield exactly the commits before it, take an append,
// and reopen again with that append.
func tornTail(t *testing.T, u User) {
	dir := t.TempDir()
	st := u.start(t, dir, 0, 1, 2)
	rel, err := filepath.Rel(dir, u.LogFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	before := size(t, filepath.Join(dir, rel))
	put(t, st, 3)
	after := size(t, filepath.Join(dir, rel))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("the last commit did not grow %s (%d -> %d)", rel, before, after)
	}
	for cut := before; cut <= after; cut++ {
		cp := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(cp, rel), cut); err != nil {
			t.Fatal(err)
		}
		want := []int{0, 1, 2}
		if cut == after {
			want = append(want, 3)
		}
		st := u.open(t, cp)
		if got := st.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d of [%d, %d]: records %v, want %v", cut, before, after, got, want)
		}
		if err := st.Put(4); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
		st = u.open(t, cp)
		if got := st.Records(); !reflect.DeepEqual(got, append(want, 4)) {
			t.Fatalf("cut at %d: after append and reopen: records %v, want %v", cut, got, append(want, 4))
		}
		st.Close()
	}
}

// brokenLog injects an I/O failure under the open store: the failing
// Put errors, nothing after it is acknowledged or visible, Close
// reports it, and a reopen shows exactly what was acknowledged before.
func brokenLog(t *testing.T, u User, inject func(testing.TB, string)) {
	dir := t.TempDir()
	st := u.start(t, dir, 0, 1)
	inject(t, u.LogFile(dir))
	for _, i := range []int{2, 3} {
		if err := st.Put(i); err == nil {
			t.Fatalf("put %d on a broken log was acknowledged", i)
		}
	}
	if !u.MayOverCount {
		wantRecords(t, st, 0, 1)
	}
	if err := st.Close(); err == nil {
		t.Fatal("close after the failure reported success")
	}
	st = u.open(t, dir)
	defer st.Close()
	wantRecords(t, st, 0, 1)
	put(t, st, 4)
	wantRecords(t, st, 0, 1, 4)
}

// rewriteCrash rebuilds the three states a crash can leave a rewrite in
// — temp file half written, temp file complete but not yet renamed,
// renamed — and requires the old or the new contents, never a mix, no
// acknowledged record lost, and no temp file left after the reopen.
func rewriteCrash(t *testing.T, u User) {
	dir := t.TempDir()
	st := u.start(t, dir, 0, 1, 2, 3, 4, 5)
	rel, err := filepath.Rel(dir, u.LogFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	done := copyDir(t, dir)
	st = u.open(t, done)
	if err := u.Compact(st); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(filepath.Join(done, rel))
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]func(cp string) error{
		"before the temp fsync": func(cp string) error {
			return os.WriteFile(filepath.Join(cp, rel)+".tmp", rewritten[:len(rewritten)/2], 0o644)
		},
		"before the rename": func(cp string) error {
			return os.WriteFile(filepath.Join(cp, rel)+".tmp", rewritten, 0o644)
		},
		"after the rename": func(cp string) error {
			return os.WriteFile(filepath.Join(cp, rel), rewritten, 0o644)
		},
	}
	for name, arrange := range states {
		cp := copyDir(t, dir)
		if err := arrange(cp); err != nil {
			t.Fatal(err)
		}
		st := u.open(t, cp)
		if got, want := st.Records(), []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("killed %s: records %v, want %v", name, got, want)
		}
		if err := st.Put(6); err != nil {
			t.Fatalf("killed %s: append after reopen: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(cp, rel) + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("killed %s: the stale temp file survived the reopen (%v)", name, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = u.open(t, cp)
		wantRecords(t, st, 0, 1, 2, 3, 4, 5, 6)
		st.Close()
	}
}
