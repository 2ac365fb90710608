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
// each in blockio blocks, or, written before blocks, in JSON lines (see
// blockio.Log). <seq> is a zero-padded hexadecimal sequence
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
