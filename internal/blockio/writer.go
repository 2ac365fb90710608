package blockio

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Writer appends records to a blockio file. It buffers records into an
// open block and cuts the block — compress, checksum, frame, hand to
// the buffered file writer — when the block reaches DefaultBlockBytes
// or on Flush. Nothing reaches the OS before Flush, and nothing is
// durable before Sync, mirroring the bufio+fsync discipline of the
// JSON-lines logs it replaces. Writers are not safe for concurrent use;
// every adopting subsystem already serializes its appends.
type Writer struct {
	f  *os.File
	bw *bufio.Writer

	comp *flate.Writer // made by the first block at or above StoredBlockMax
	cbuf bytes.Buffer  // compressed-block scratch
	raw  []byte        // open block: record envelopes, uncompressed

	off      int64 // bytes handed to bw (header + sealed frames)
	firstSeq uint64
	count    int
	nextSeq  uint64
	index    []BlockMeta
	sealable bool
	sealed   bool
	err      error
}

// NewWriter starts a fresh blockio file on f (which must be empty and
// positioned at offset 0) with record seqs starting at firstSeq.
// Seqs are 1-based positions by convention: pass 1 for a new log.
func NewWriter(f *os.File, firstSeq uint64) (*Writer, error) {
	w := &Writer{
		f:        f,
		bw:       bufio.NewWriterSize(f, 1<<16),
		nextSeq:  firstSeq,
		sealable: true,
	}
	if _, err := w.bw.Write(header()); err != nil {
		return nil, fmt.Errorf("blockio: write header: %w", err)
	}
	w.off = headerSize
	return w, nil
}

// newWriterAt resumes appending to an unsealed blockio file: f must be
// positioned at off, the current end of fully written frames (the
// caller got both from a repairing Replay). nextSeq continues the
// file's record numbering. A resumed writer cannot Seal — it does not
// know the offsets of the blocks already on disk — which is fine for
// the logs that resume (file store, checkpoints): they are replayed
// whole and never seek. With off == 0 this is NewWriter on a fresh file.
func newWriterAt(f *os.File, off int64, nextSeq uint64) (*Writer, error) {
	if off == 0 {
		return NewWriter(f, nextSeq)
	}
	if off < headerSize {
		return nil, fmt.Errorf("blockio: resume offset %d inside the header", off)
	}
	return &Writer{
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		off:     off,
		nextSeq: nextSeq,
	}, nil
}

// StoredBlockMax is the raw size below which a block (or wire frame) is
// framed as one *stored* deflate block instead of being compressed. A
// group commit of one to three records is a few dozen to a couple of
// hundred bytes; when those are binary response records they are
// at-source noise that no Huffman code shortens, and when they are JSON
// the dynamic-Huffman header costs about what the coding saves, so
// resetting the compressor and building its tables per commit is CPU
// spent to learn that. The output is an ordinary deflate stream: every
// reader, old binaries included, inflates it unchanged.
const StoredBlockMax = 256

// compress fills dst with raw as a deflate stream: below StoredBlockMax
// a single block of type "stored" (RFC 1951 §3.2.4: BFINAL=1/BTYPE=00,
// LEN, ^LEN, the bytes), otherwise fw's output, fw being made on first
// need and returned for reuse. BestSpeed: blocks long enough to be
// compressed repeat their survey, worker and question ids, which deflate
// well even at the fastest setting, and this sits on the group-commit
// hot path.
func compress(fw *flate.Writer, dst *bytes.Buffer, raw []byte) (*flate.Writer, error) {
	dst.Reset()
	if len(raw) < StoredBlockMax {
		n := uint16(len(raw))
		dst.Write([]byte{0x01, byte(n), byte(n >> 8), byte(^n), byte(^n >> 8)})
		dst.Write(raw)
		return fw, nil
	}
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(dst, flate.BestSpeed); err != nil {
			return nil, err // only an invalid level constant
		}
	} else {
		fw.Reset(dst)
	}
	if _, err := fw.Write(raw); err != nil {
		return fw, err
	}
	return fw, fw.Close()
}

// Append buffers one record into the open block and returns its seq.
// The payload is copied; callers may reuse the slice.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.sealed {
		return 0, errors.New("blockio: append after seal")
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("blockio: record of %d bytes exceeds the %d limit", len(payload), maxRecordBytes)
	}
	if w.count == 0 {
		w.firstSeq = w.nextSeq
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(payload)))
	w.raw = append(w.raw, scratch[:n]...)
	w.raw = binary.LittleEndian.AppendUint32(w.raw, checksum(payload))
	w.raw = append(w.raw, payload...)
	seq := w.nextSeq
	w.nextSeq++
	w.count++
	if len(w.raw) >= DefaultBlockBytes {
		if err := w.cutBlock(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// cutBlock frames the open block into the buffered file writer:
// compressed, or stored as-is when it is below StoredBlockMax.
func (w *Writer) cutBlock() error {
	if w.count == 0 {
		return nil
	}
	var err error
	if w.comp, err = compress(w.comp, &w.cbuf, w.raw); err != nil {
		w.err = fmt.Errorf("blockio: compress block: %w", err)
		return w.err
	}
	if err := w.writeFrame(w.firstSeq, w.count, uint64(len(w.raw)), w.cbuf.Bytes()); err != nil {
		return err
	}
	w.raw = w.raw[:0]
	w.count = 0
	return nil
}

// appendBlock cuts the open block, then frames count records that are
// already compressed — comp, inflating to rawLen bytes, taken whole from
// another file's frame — as the next block, under the next seqs. The
// payload is neither inflated nor recompressed.
func (w *Writer) appendBlock(count int, rawLen uint64, comp []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.sealed {
		return errors.New("blockio: append after seal")
	}
	if err := w.cutBlock(); err != nil {
		return err
	}
	if err := w.writeFrame(w.nextSeq, count, rawLen, comp); err != nil {
		return err
	}
	w.nextSeq += uint64(count)
	return nil
}

// writeFrame hands one block frame to the buffered file writer and
// indexes it.
func (w *Writer) writeFrame(firstSeq uint64, count int, rawLen uint64, comp []byte) error {
	var hdr [4*binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], firstSeq)
	n += binary.PutUvarint(hdr[n:], uint64(count))
	n += binary.PutUvarint(hdr[n:], rawLen)
	n += binary.PutUvarint(hdr[n:], uint64(len(comp)))
	binary.LittleEndian.PutUint32(hdr[n:], checksum(comp))
	n += 4
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		w.err = fmt.Errorf("blockio: write block frame: %w", err)
		return w.err
	}
	if _, err := w.bw.Write(comp); err != nil {
		w.err = fmt.Errorf("blockio: write block frame: %w", err)
		return w.err
	}
	w.index = append(w.index, BlockMeta{Offset: w.off, FirstSeq: firstSeq, Count: count})
	w.off += int64(n + len(comp))
	return nil
}

// Flush cuts the open block and pushes every buffered byte to the OS —
// the group-commit boundary. Durability still needs Sync.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.cutBlock(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("blockio: flush: %w", err)
		return w.err
	}
	return nil
}

// Sync fsyncs the underlying file.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("blockio: sync: %w", err)
		return w.err
	}
	return nil
}

// Seal flushes, appends the block index and footer, and fsyncs: the
// file is immutable afterwards and indexed scans can seek into it.
func (w *Writer) Seal() error {
	if w.err != nil {
		return w.err
	}
	if w.sealed {
		return nil
	}
	if !w.sealable {
		return errors.New("blockio: a resumed writer cannot seal")
	}
	if err := w.cutBlock(); err != nil {
		return err
	}
	fail := func(err error) error {
		w.err = err
		return err
	}
	indexOff := w.off
	var idx []byte
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(w.index)))
	idx = append(idx, scratch[:n]...)
	for _, bm := range w.index {
		n = binary.PutUvarint(scratch[:], uint64(bm.Offset))
		idx = append(idx, scratch[:n]...)
		n = binary.PutUvarint(scratch[:], bm.FirstSeq)
		idx = append(idx, scratch[:n]...)
		n = binary.PutUvarint(scratch[:], uint64(bm.Count))
		idx = append(idx, scratch[:n]...)
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(indexOff))
	binary.LittleEndian.PutUint32(foot[8:], uint32(len(idx)))
	binary.LittleEndian.PutUint32(foot[12:], checksum(idx))
	copy(foot[16:], footMagic)
	if _, err := w.bw.Write(idx); err != nil {
		return fail(fmt.Errorf("blockio: write index: %w", err))
	}
	if _, err := w.bw.Write(foot[:]); err != nil {
		return fail(fmt.Errorf("blockio: write footer: %w", err))
	}
	if err := w.bw.Flush(); err != nil {
		return fail(fmt.Errorf("blockio: flush seal: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return fail(fmt.Errorf("blockio: sync seal: %w", err))
	}
	w.off = indexOff + int64(len(idx)) + footerSize
	w.sealed = true
	return nil
}

// Close flushes buffered bytes and closes the file. It does not fsync
// (Sync or Seal first if durability is required) and does not seal.
func (w *Writer) Close() error {
	flushErr := w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if closeErr != nil {
		return fmt.Errorf("blockio: close: %w", closeErr)
	}
	return nil
}

// Offset returns the file size in fully framed bytes — after a Flush,
// exactly the bytes on disk (or in the OS cache).
func (w *Writer) Offset() int64 { return w.off }

// NextSeq returns the seq the next appended record will get.
func (w *Writer) NextSeq() uint64 { return w.nextSeq }
