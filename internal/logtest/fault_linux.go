//go:build linux

package logtest

import (
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

// overFDs duplicates src over every descriptor this process holds open
// on path. Unlike closing the descriptor it keeps the number occupied,
// so no later open can be handed it and receive the victim's writes.
func overFDs(t testing.TB, path string, src *os.File) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	broken := 0
	for _, e := range fds {
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err != nil || target != path {
			continue
		}
		if err := syscall.Dup3(int(src.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		broken++
	}
	if broken == 0 {
		t.Fatalf("no open descriptor for %s", path)
	}
}

// BreakWrites makes every write (and fsync) through this process's
// descriptors for path fail with EBADF, by duplicating a read-only
// /dev/null over them: the failure is injected from outside whatever
// owns the file.
func BreakWrites(t testing.TB, path string) {
	t.Helper()
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	overFDs(t, path, null)
}

// BreakSync makes writes through this process's descriptors for path
// succeed and every fsync fail (EINVAL), by duplicating a pipe's write
// end over them: the bytes go nowhere near the file, which is what a
// dropped dirty page looks like after a failed fsync.
func BreakSync(t testing.TB, path string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// The read end stays open so writes do not fail with EPIPE.
	t.Cleanup(func() { r.Close(); w.Close() })
	overFDs(t, path, w)
}
