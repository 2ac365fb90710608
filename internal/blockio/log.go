package blockio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// tmpSuffix names the temp file a rewrite or an atomic publish fills
// before renaming it over its target: <path>.tmp, one writer per path.
const tmpSuffix = ".tmp"

// Log is the one durable record file of the system: an append-only file
// of opaque records in blockio blocks. The file store, the checkpoint
// files, the budget ledger and ingest's segments, meta log and snapshots
// are all a Log plus their own record type and their own fsync schedule
// — Log is the file, not the scheduler.
//
// The contract, in one place:
//
//   - A Log writes blocks and nothing else. A non-empty JSON-lines file
//     (one record per line, what these files held before) is an import:
//     Open replays it, then republishes the same payloads, in order and
//     byte for byte, as a block file (tmp → fsync → rename → dir-sync)
//     before appending to it. A crash mid-conversion leaves the JSON
//     file, which the next open converts again.
//   - Open streams every complete record to apply, truncates a torn tail
//     back to the last whole block (or JSON line), and resumes appending
//     at the repaired end. A block that fails its checksum yet is
//     followed by one that verifies is not a tail: ErrInteriorDamage
//     refuses the open. Damage that leaves a whole record unreadable is
//     apply's to judge: an apply error refuses it.
//   - Append buffers, Flush cuts the open block and hands it to the OS
//     as one recoverable unit, Sync makes what was flushed durable. Who
//     calls Sync, and when, is the user's group-commit policy.
//   - The first I/O failure is sticky: after a failed write or fsync the
//     on-disk tail is unknowable (the kernel may have dropped the dirty
//     pages, and a later fsync can falsely succeed), so every later call
//     returns that error. Reopening replays what reached the disk.
//   - Rewrite replaces the contents atomically: tmp → fsync → rename →
//     dir-sync, then appends resume on the new file. A crash leaves the
//     old contents or the new, never a mix; the stale temp file is
//     removed by the next open.
//
// A Log is not safe for concurrent use, with one exception: Sync may run
// beside Append and Flush (a sync cohort fsyncs outside the lock its
// appenders hold). It must not run beside Rewrite or Close, which swap
// or close the descriptor.
type Log struct {
	path string
	f    *os.File
	bw   *Writer
	// sealed files take no more appends and are already durable.
	sealed bool
	failed atomic.Pointer[error]
}

// OpenLog opens the record file at path, creating it (and making its
// directory entry durable) if it does not exist, replays it through
// apply and leaves it positioned for appends. A JSON-lines file is
// converted to blocks first (see Log).
func OpenLog(path string, apply func(payload []byte) error) (*Log, error) {
	if err := os.Remove(path + tmpSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("blockio: remove stale %s: %w", path+tmpSuffix, err)
	}
	binary := true
	var nextSeq uint64
	fi, err := os.Stat(path)
	fresh := errors.Is(err, os.ErrNotExist)
	switch {
	case fresh:
	case err != nil:
		return nil, fmt.Errorf("blockio: stat %s: %w", path, err)
	case fi.Size() > 0:
		binary, err = replay(path, true, func(seq uint64, payload []byte) error {
			nextSeq = seq
			return apply(payload)
		})
		if err != nil {
			return nil, err
		}
	}
	if !binary && nextSeq > 0 {
		l, err := publishLog(path, 0, func(nl *Log) error {
			return replayLines(path, false, func(_ uint64, p []byte) error { return nl.Append(p) })
		})
		if err != nil {
			return nil, fmt.Errorf("blockio: convert %s: %w", path, err)
		}
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockio: open %s: %w", path, err)
	}
	var l *Log
	// Fresh, empty, or a JSON file that held nothing but a torn first
	// record: off is 0 and the writer starts a block file.
	off, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		l, err = resumeLog(path, f, off, nextSeq+1)
	}
	if err == nil && fresh {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockio: open %s: %w", path, err)
	}
	return l, nil
}

// resumeLog wraps f, an open block file positioned at its end off, for
// appending. The log stays unsealed across opens (appends continue), so
// replay always scans it with torn-tail semantics.
func resumeLog(path string, f *os.File, off int64, nextSeq uint64) (*Log, error) {
	bw, err := newWriterAt(f, off, nextSeq)
	if err != nil {
		return nil, err
	}
	return &Log{path: path, f: f, bw: bw}, nil
}

// Err returns the sticky first failure, or nil.
func (l *Log) Err() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Fail records err as the sticky failure unless an earlier one holds
// the slot, and returns whichever does. Users call it when their own
// step fails in a way that leaves the log's tail unknowable (a record
// buffered but never acknowledged).
func (l *Log) Fail(err error) error {
	l.failed.CompareAndSwap(nil, &err)
	return l.Err()
}

// fail is Fail for this type's own I/O, naming the operation.
func (l *Log) fail(op string, err error) error {
	return l.Fail(fmt.Errorf("blockio: %s %s: %w", op, l.path, err))
}

// Append buffers one record. The payload is copied.
func (l *Log) Append(payload []byte) error {
	if err := l.Err(); err != nil {
		return err
	}
	if l.sealed {
		return fmt.Errorf("blockio: append to sealed %s", l.path)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("blockio: record of %d bytes exceeds the %d limit", len(payload), maxRecordBytes)
	}
	if _, err := l.bw.Append(payload); err != nil {
		return l.fail("write", err)
	}
	return nil
}

// Flush hands every buffered record to the OS. It cuts the open block,
// so what one Flush covers replays whole or not at all. Durability
// still needs Sync.
func (l *Log) Flush() error {
	if err := l.Err(); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return l.fail("flush", err)
	}
	return nil
}

// Sync fsyncs the file: everything flushed before the call is durable
// when it returns nil.
func (l *Log) Sync() error {
	if err := l.Err(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return l.fail("sync", err)
	}
	return nil
}

// Seal completes the file: flushed, fsynced and closed to appends. It
// gains its block index and footer, so scans can seek into it and
// replay verifies it strictly; only a file written by this Log since it
// was empty can be sealed.
func (l *Log) Seal() error {
	if err := l.Err(); err != nil || l.sealed {
		return err
	}
	if err := l.bw.Seal(); err != nil {
		return l.fail("seal", err)
	}
	l.sealed = true
	return nil
}

// flushSync is Flush then Sync.
func (l *Log) flushSync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.Sync()
}

// Size returns the file's size in bytes once everything appended has
// been flushed: framed, compressed bytes.
func (l *Log) Size() int64 { return l.bw.Offset() }

// File exposes the descriptor, for tests that sabotage it.
func (l *Log) File() *os.File { return l.f }

// Close flushes, fsyncs (unless Seal already did) and closes the file.
// After a failure it only closes, and reports the failure.
func (l *Log) Close() error {
	err := l.Err()
	if err == nil && !l.sealed {
		err = l.flushSync()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("blockio: close %s: %w", l.path, cerr)
	}
	return err
}

// Rewrite atomically replaces the file's contents with the records emit
// appends to nl, a fresh file, and resumes appending after them. Until
// the rename the old file is untouched; any failure is sticky.
func (l *Log) Rewrite(emit func(nl *Log) error) error {
	if err := l.Err(); err != nil {
		return err
	}
	nl, err := publishLog(l.path, 0, emit)
	if err != nil {
		return l.fail("rewrite", err)
	}
	// The old descriptor names an unlinked file now; nothing durable
	// depends on how its close goes.
	l.f.Close()
	l.f, l.bw = nl.f, nl.bw
	return nil
}

// CopyFrom appends the records of the file at path after its first
// skip, in order, and returns how many it appended. The file is read
// strictly, like a sealed file: any damage in it is an error. From a
// block file, every block past the skipped records is copied whole —
// its checksum verified, its payload neither inflated nor recompressed
// — behind a cut of the open block. Every other record (those sharing a
// block with skipped ones, and all of a JSON-lines file's) goes through
// Append. A failed copy leaves part of the file appended, so it fails
// the log sticky.
func (l *Log) CopyFrom(path string, skip int) (int, error) {
	if err := l.Err(); err != nil {
		return 0, err
	}
	n := 0
	add := func(p []byte) error {
		n++
		return l.Append(p)
	}
	binary, err := Sniff(path)
	if err == nil && binary {
		var whole int
		whole, err = copyBlocks(path, skip, l.bw, add)
		n += whole
	} else if err == nil {
		seen := 0
		err = ReplayFile(path, false, func(p []byte) error {
			if seen++; seen <= skip {
				return nil
			}
			return add(p)
		})
	}
	if err != nil {
		return n, l.Fail(fmt.Errorf("blockio: copy %s into %s: %w", path, l.path, err))
	}
	return n, nil
}

// copyBlocks is CopyFrom from a block file. Frames wholly past
// the first skip records go to w as they are; the records past skip in
// the one frame that straddles it go to add. It returns how many
// records it copied in whole frames.
func copyBlocks(path string, skip int, w *Writer, add func([]byte) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return 0, err
	}
	if err := checkHeader(h[:]); err != nil {
		return 0, err
	}
	end := st.Size()
	if _, dataEnd, ok := readIndex(f, end); ok {
		end = dataEnd
	}
	fs, err := newFrameScanner(f, headerSize)
	if err != nil {
		return 0, err
	}
	whole, seen := 0, 0
	for fs.off < end {
		bm, rawLen, comp, err := fs.frame()
		if err != nil {
			return whole, fmt.Errorf("corrupt block at offset %d: %w", bm.Offset, err)
		}
		switch {
		case seen >= skip:
			if err = w.appendBlock(bm.Count, rawLen, comp); err == nil {
				whole += bm.Count
			}
		case seen+bm.Count > skip:
			var raw []byte
			if raw, err = fs.inflate(comp, rawLen); err == nil {
				err = walkBlock(raw, bm, bm.FirstSeq+uint64(skip-seen)-1, func(_ uint64, p []byte) error { return add(p) })
			}
		}
		if err != nil {
			return whole, err
		}
		seen += bm.Count
	}
	return whole, nil
}

// WriteLogAtomic publishes a complete, sealed record file at path:
// emit's records go to <path>.tmp, which is sealed and renamed into
// place, so a reader sees no file (or the old one) or the whole new one.
// It returns the file's size. The temp file is extended (sparsely) to
// sizeHint before the first write and cut back afterwards, so a
// directory listing changes when a long write publishes, not
// continuously while it runs.
func WriteLogAtomic(path string, sizeHint int64, emit func(nl *Log) error) (int64, error) {
	nl, err := publishLog(path, sizeHint, func(nl *Log) error {
		if err := emit(nl); err != nil {
			return err
		}
		return nl.Seal()
	})
	if err != nil {
		return 0, err
	}
	return nl.Size(), nl.f.Close()
}

// publishLog fills <path>.tmp with emit's records and publishes it over
// path. The returned Log is still open on the file.
func publishLog(path string, sizeHint int64, emit func(nl *Log) error) (*Log, error) {
	var nl *Log
	_, err := publishFile(path, func(f *os.File) (err error) {
		if nl, err = resumeLog(path, f, 0, 1); err != nil {
			return err
		}
		if sizeHint > 0 {
			if err := f.Truncate(sizeHint); err != nil {
				return err
			}
		}
		if err := emit(nl); err != nil {
			return err
		}
		if err := nl.Flush(); err != nil {
			return err
		}
		if sizeHint > 0 {
			return f.Truncate(nl.Size())
		}
		return nil
	})
	return nl, err
}

// WriteFileAtomic publishes path crash-atomically: write fills
// <path>.tmp, which is fsynced, renamed into place and made durable
// with a directory sync, so a reader sees the old content (or no file)
// or the whole new content, never a torn one. On failure the old file
// is untouched and no temp file is left. One writer per path.
func WriteFileAtomic(path string, write func(f *os.File) error) error {
	f, err := publishFile(path, write)
	if err != nil {
		return err
	}
	return f.Close()
}

// publishFile is the one place a file is published by rename: fill
// writes <path>.tmp, which is fsynced (the rename must never publish
// torn content), renamed over path and the rename made durable. The
// file is returned still open; on failure it is closed and removed.
func publishFile(path string, fill func(f *os.File) error) (*os.File, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockio: create %s: %w", tmp, err)
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("blockio: publish %s: %w", path, err)
	}
	return f, nil
}

// SyncDir fsyncs a directory so entry creations, renames and removals
// are durable. File fsync alone does not persist the directory entry.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("blockio: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("blockio: sync dir %s: %w", dir, err)
	}
	return nil
}

// ReplayFile streams every complete record of the file at path to fn,
// a block file or a JSON-lines one. With tornOK a torn tail is truncated away
// (and the truncation fsynced); without, for files that were closed
// behind an fsync and may not legally be torn, it is an error. An fn
// error aborts the replay: interior corruption is surfaced, never
// silently dropped.
func ReplayFile(path string, tornOK bool, fn func(payload []byte) error) error {
	_, err := ReplayImport(path, tornOK, fn)
	return err
}

// ReplayImport is ReplayFile that also reports whether the file is an
// import: a non-empty file in the framing every Log wrote before
// blocks, which none writes now. An owner that rewrites its files
// anyway (ingest's fold) uses it to rewrite an import at its next
// chance, without knowing the framing.
func ReplayImport(path string, tornOK bool, fn func(payload []byte) error) (bool, error) {
	records := 0
	binary, err := replay(path, tornOK, func(_ uint64, payload []byte) error {
		records++
		return fn(payload)
	})
	return !binary && records > 0, err
}

// replay is ReplayFile with record seqs (JSON lines count from 1), also
// reporting whether the file is a block file.
func replay(path string, tornOK bool, fn func(seq uint64, payload []byte) error) (bool, error) {
	binary, err := Sniff(path)
	if err != nil {
		return false, err
	}
	if binary {
		_, err = Replay(path, tornOK, fn)
	} else {
		err = replayLines(path, tornOK, fn)
	}
	return binary, err
}

// replayLines is the JSON-lines half of replay: every complete
// newline-terminated line is a record (delivered without the newline),
// and a final line without one is the torn tail of a crashed append.
func replayLines(path string, tornOK bool, fn func(seq uint64, line []byte) error) error {
	// Write access is only needed to truncate a torn tail; files that
	// may not be torn replay fine read-only, e.g. from a backup.
	flag := os.O_RDONLY
	if tornOK {
		flag = os.O_RDWR
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return fmt.Errorf("blockio: open %s: %w", path, err)
	}
	defer f.Close()
	rd := bufio.NewReader(f)
	var valid int64
	for seq := uint64(1); ; seq++ {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			if len(line) == 0 {
				return nil
			}
			if !tornOK {
				return fmt.Errorf("blockio: torn record at offset %d in %s", valid, path)
			}
			return repairTo(f, path, valid)
		}
		if err != nil {
			return fmt.Errorf("blockio: read %s: %w", path, err)
		}
		if err := fn(seq, line[:len(line)-1]); err != nil {
			return fmt.Errorf("blockio: replay %s at offset %d: %w", path, valid, err)
		}
		valid += int64(len(line))
	}
}
