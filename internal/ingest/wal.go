package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segmented write-ahead-log file naming. A log directory holds
//
//	wal-<seq>.seg    append-only segments, seq strictly increasing
//	snap-<seq>.snap  a snapshot covering every segment with seq' <= seq
//
// each in whichever codec wrote it (blockio binary blocks or JSON
// lines; see codec.go). <seq> is a zero-padded hexadecimal sequence
// number, so lexicographic order equals numeric order.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name with the given prefix and suffix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexPart := name[len(prefix) : len(name)-len(suffix)]
	if len(hexPart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSeqs returns the sorted sequence numbers of every file in dir
// matching prefix/suffix.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: list %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// writeFileAtomic publishes dir/name crash-atomically: write fills a
// temp file, which is fsynced, renamed into place and made durable with
// a directory sync, so a reader sees the old content (or no file) or
// the whole new content, never a torn one. It returns the file's size.
func writeFileAtomic(dir, name string, write func(f *os.File) error) (int64, error) {
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("ingest: create %s: %w", tmp, err)
	}
	var size int64
	werr := write(f)
	if werr == nil {
		var fi os.FileInfo
		if fi, werr = f.Stat(); werr == nil {
			size = fi.Size()
		}
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("ingest: write %s: %w", tmp, werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return 0, fmt.Errorf("ingest: publish %s: %w", name, err)
	}
	return size, syncDir(dir)
}

// removeTmp deletes leftover temporary files (a crash mid-snapshot leaves
// a *.tmp behind; it was never visible, so it is garbage).
func removeTmp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ingest: list %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("ingest: remove stale %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// syncDir fsyncs a directory so entry creations/renames/removals are
// durable. File fsync alone does not persist the directory entry.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ingest: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ingest: sync dir %s: %w", dir, err)
	}
	return nil
}

// Segment and snapshot replay dispatch per file on blockio.Sniff:
// binary files go through blockio.Replay, JSON-lines files through
// store.ReplayLines. Both share the same crash-recovery contract
// (complete-record streaming with torn-tail truncation on the active
// tail, strict verification for sealed/immutable files).
