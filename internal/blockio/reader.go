package blockio

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// errTorn classifies a parse failure as "the file ends or rots here":
// an incomplete frame, a checksum mismatch, a decompression failure.
// Repairing scans truncate at the failing frame's start, exactly like
// replayLines truncates a torn trailing JSON line.
var errTorn = errors.New("blockio: torn or corrupt frame")

// Replay streams every record of the file at path to fn, in seq order —
// the binary half of ReplayFile and the crash-recovery primitive under
// every Log. A sealed file (valid footer) is
// scanned strictly: it was made immutable by Seal, so any damage is an
// error. An unsealed file is scanned sequentially; a torn or corrupt
// tail is truncated back to the last verified frame (and the truncation
// fsynced) when tornOK, or an error when the caller knows the file may
// not legally be torn. The returned bool reports whether a repair
// truncated anything. fn errors abort the replay and are returned
// as-is (wrapped), never treated as tears.
func Replay(path string, tornOK bool, fn func(seq uint64, payload []byte) error) (bool, error) {
	flag := os.O_RDONLY
	if tornOK {
		flag = os.O_RDWR
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return false, fmt.Errorf("blockio: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("blockio: stat %s: %w", path, err)
	}
	size := st.Size()
	if size == 0 {
		return false, nil
	}
	if size < headerSize {
		// The file died before its header flush; nothing was ever
		// acknowledged from it.
		if !tornOK {
			return false, fmt.Errorf("blockio: %s: torn header in sealed log", path)
		}
		return true, repairTo(f, path, 0)
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return false, fmt.Errorf("blockio: read %s: %w", path, err)
	}
	if err := checkHeader(h[:]); err != nil {
		return false, fmt.Errorf("%w (%s)", err, path)
	}
	if index, dataEnd, ok := readIndex(f, size); ok {
		return false, scanSealed(f, path, index, dataEnd, 0, nil, fn)
	}
	return scanSequential(f, path, tornOK, fn)
}

// ScanStats describes what a ScanFrom physically did, so callers (and
// the bench) can verify that an indexed seek skipped the bulk of the
// file instead of decoding it whole.
type ScanStats struct {
	// Indexed is true when the file was sealed and the block index
	// drove the scan.
	Indexed bool
	// BlocksRead and BytesRead count the frames actually fetched and
	// decompressed.
	BlocksRead int
	BytesRead  int64
	// Records is how many records were delivered to fn.
	Records int
}

// ScanFrom streams the records with seq > fromSeq to fn. On a sealed
// file it binary-searches the block index and seeks straight to the
// block containing the cursor; on an unsealed file it falls back to a
// sequential scan, silently stopping at a torn tail (the tail was never
// acknowledged). The file is opened read-only and never repaired.
func ScanFrom(path string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (ScanStats, error) {
	var stats ScanStats
	f, err := os.Open(path)
	if err != nil {
		return stats, fmt.Errorf("blockio: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return stats, fmt.Errorf("blockio: stat %s: %w", path, err)
	}
	size := st.Size()
	if size < headerSize {
		return stats, nil
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return stats, fmt.Errorf("blockio: read %s: %w", path, err)
	}
	if err := checkHeader(h[:]); err != nil {
		return stats, fmt.Errorf("%w (%s)", err, path)
	}
	count := func(seq uint64, payload []byte) error {
		stats.Records++
		return fn(seq, payload)
	}
	if index, dataEnd, ok := readIndex(f, size); ok {
		stats.Indexed = true
		// Seek to the last block whose first seq is <= the first seq we
		// want (fromSeq+1); earlier blocks hold only records the cursor
		// already has.
		i := sort.Search(len(index), func(i int) bool { return index[i].FirstSeq > fromSeq+1 })
		if i > 0 {
			i--
		}
		index = index[i:]
		if len(index) > 0 {
			err = scanSealed(f, path, index, dataEnd, fromSeq, &stats, count)
		}
		return stats, err
	}
	fs, err := newFrameScanner(f, headerSize)
	if err != nil {
		return stats, err
	}
	for {
		bm, raw, frameBytes, err := fs.next()
		switch {
		case err == io.EOF:
			return stats, nil
		case errors.Is(err, errTorn):
			return stats, nil // unacknowledged tail; reads serve the committed prefix
		case err != nil:
			return stats, err
		}
		stats.BlocksRead++
		stats.BytesRead += frameBytes
		if err := walkBlock(raw, bm, fromSeq, count); err != nil {
			if errors.Is(err, errTorn) {
				return stats, nil
			}
			return stats, err
		}
	}
}

// repairTo truncates the file back to a verified prefix and fsyncs.
func repairTo(f *os.File, path string, off int64) error {
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("blockio: truncate torn tail of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("blockio: sync truncated %s: %w", path, err)
	}
	return nil
}

// readIndex loads and validates the block index of a sealed file. Any
// inconsistency — missing footer magic, checksum mismatch, offsets out
// of range — reports the file as unsealed and leaves interpretation to
// the sequential scan (which is where repair lives).
func readIndex(f *os.File, size int64) ([]BlockMeta, int64, bool) {
	if size < headerSize+footerSize {
		return nil, 0, false
	}
	var foot [footerSize]byte
	if _, err := f.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, 0, false
	}
	if string(foot[16:20]) != footMagic {
		return nil, 0, false
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	indexLen := int64(binary.LittleEndian.Uint32(foot[8:]))
	wantCRC := binary.LittleEndian.Uint32(foot[12:])
	if indexOff < headerSize || indexOff+indexLen+footerSize != size {
		return nil, 0, false
	}
	idx := make([]byte, indexLen)
	if _, err := f.ReadAt(idx, indexOff); err != nil {
		return nil, 0, false
	}
	if checksum(idx) != wantCRC {
		return nil, 0, false
	}
	br := bytes.NewReader(idx)
	n, err := binary.ReadUvarint(br)
	if err != nil || n > uint64(indexLen) {
		return nil, 0, false
	}
	index := make([]BlockMeta, 0, n)
	prevOff := int64(headerSize) - 1
	for i := uint64(0); i < n; i++ {
		off, err1 := binary.ReadUvarint(br)
		first, err2 := binary.ReadUvarint(br)
		cnt, err3 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, 0, false
		}
		if int64(off) <= prevOff || int64(off) >= indexOff || cnt == 0 {
			return nil, 0, false
		}
		prevOff = int64(off)
		index = append(index, BlockMeta{Offset: int64(off), FirstSeq: first, Count: int(cnt)})
	}
	if br.Len() != 0 {
		return nil, 0, false
	}
	return index, indexOff, true
}

// scanSealed streams the frames of a sealed file from the first indexed
// block to dataEnd. Sealed files are immutable, so every anomaly is a
// hard error, never a tear.
func scanSealed(f *os.File, path string, index []BlockMeta, dataEnd int64, fromSeq uint64, stats *ScanStats, fn func(uint64, []byte) error) error {
	if len(index) == 0 {
		return nil
	}
	fs, err := newFrameScanner(f, index[0].Offset)
	if err != nil {
		return err
	}
	for fs.off < dataEnd {
		bm, raw, frameBytes, err := fs.next()
		if err != nil {
			if err == io.EOF || errors.Is(err, errTorn) {
				return fmt.Errorf("blockio: %s: corrupt block at offset %d in sealed file", path, bm.Offset)
			}
			return err
		}
		if stats != nil {
			stats.BlocksRead++
			stats.BytesRead += frameBytes
		}
		if err := walkBlock(raw, bm, fromSeq, fn); err != nil {
			if errors.Is(err, errTorn) {
				return fmt.Errorf("blockio: %s: corrupt record in sealed block at offset %d", path, bm.Offset)
			}
			return err
		}
	}
	return nil
}

// scanSequential streams an unsealed file frame by frame, repairing (or
// refusing) a torn tail per tornOK.
func scanSequential(f *os.File, path string, tornOK bool, fn func(uint64, []byte) error) (bool, error) {
	fs, err := newFrameScanner(f, headerSize)
	if err != nil {
		return false, err
	}
	for {
		bm, raw, _, err := fs.next()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			if !errors.Is(err, errTorn) {
				return false, err
			}
			if !tornOK {
				return false, fmt.Errorf("blockio: torn frame at offset %d in sealed log %s", bm.Offset, path)
			}
			return true, repairTo(f, path, bm.Offset)
		}
		if err := walkBlock(raw, bm, 0, fn); err != nil {
			if !errors.Is(err, errTorn) {
				return false, err
			}
			if !tornOK {
				return false, fmt.Errorf("blockio: corrupt block at offset %d in sealed log %s", bm.Offset, path)
			}
			return true, repairTo(f, path, bm.Offset)
		}
	}
}

// walkBlock iterates a decompressed block's record envelopes, calling
// fn for every record with seq > fromSeq. Envelope damage inside a
// checksum-valid block is still classified errTorn: the caller decides
// whether that means repair or refusal.
func walkBlock(raw []byte, bm BlockMeta, fromSeq uint64, fn func(uint64, []byte) error) error {
	seq := bm.FirstSeq
	for i := 0; i < bm.Count; i++ {
		l, n := binary.Uvarint(raw)
		if n <= 0 || l > maxRecordBytes || uint64(len(raw)) < uint64(n)+4+l {
			return errTorn
		}
		raw = raw[n:]
		wantCRC := binary.LittleEndian.Uint32(raw)
		payload := raw[4 : 4+l]
		if checksum(payload) != wantCRC {
			return errTorn
		}
		raw = raw[4+l:]
		if seq > fromSeq {
			if err := fn(seq, payload); err != nil {
				return fmt.Errorf("blockio: replay record seq %d: %w", seq, err)
			}
		}
		seq++
	}
	if len(raw) != 0 {
		return errTorn
	}
	return nil
}

// frameScanner streams block frames from a file offset, reusing its
// compression scratch across frames.
type frameScanner struct {
	br  *bufio.Reader
	off int64 // offset of the next unread byte
	dec io.ReadCloser
	cmp []byte
	raw []byte
}

func newFrameScanner(f *os.File, off int64) (*frameScanner, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("blockio: seek: %w", err)
	}
	return &frameScanner{br: bufio.NewReaderSize(f, 1<<16), off: off}, nil
}

// readByte reads one byte, tracking the offset.
func (fs *frameScanner) ReadByte() (byte, error) {
	b, err := fs.br.ReadByte()
	if err == nil {
		fs.off++
	}
	return b, err
}

// next parses one block frame. It returns io.EOF exactly at a frame
// boundary, errTorn for anything that ends or fails mid-frame, and the
// decompressed block otherwise. The returned BlockMeta carries the
// frame's start offset even on error (the repair point).
func (fs *frameScanner) next() (BlockMeta, []byte, int64, error) {
	bm := BlockMeta{Offset: fs.off}
	firstSeq, err := binary.ReadUvarint(fs)
	if err == io.EOF && fs.off == bm.Offset {
		return bm, nil, 0, io.EOF
	}
	if err != nil {
		return bm, nil, 0, errTorn
	}
	cnt, err := binary.ReadUvarint(fs)
	if err != nil || cnt == 0 || cnt > maxBlockBytes {
		return bm, nil, 0, errTorn
	}
	rawLen, err := binary.ReadUvarint(fs)
	if err != nil || rawLen > maxBlockBytes {
		return bm, nil, 0, errTorn
	}
	compLen, err := binary.ReadUvarint(fs)
	if err != nil || compLen > maxBlockBytes {
		return bm, nil, 0, errTorn
	}
	var crcb [4]byte
	if _, err := io.ReadFull(fs.br, crcb[:]); err != nil {
		return bm, nil, 0, errTorn
	}
	fs.off += 4
	if uint64(cap(fs.cmp)) < compLen {
		fs.cmp = make([]byte, compLen)
	}
	cmp := fs.cmp[:compLen]
	if _, err := io.ReadFull(fs.br, cmp); err != nil {
		return bm, nil, 0, errTorn
	}
	fs.off += int64(compLen)
	if checksum(cmp) != binary.LittleEndian.Uint32(crcb[:]) {
		return bm, nil, 0, errTorn
	}
	if fs.dec == nil {
		fs.dec = flate.NewReader(bytes.NewReader(cmp))
	} else if err := fs.dec.(flate.Resetter).Reset(bytes.NewReader(cmp), nil); err != nil {
		return bm, nil, 0, errTorn
	}
	if uint64(cap(fs.raw)) < rawLen {
		fs.raw = make([]byte, rawLen)
	}
	raw := fs.raw[:rawLen]
	if _, err := io.ReadFull(fs.dec, raw); err != nil {
		return bm, nil, 0, errTorn
	}
	// The stream must end exactly at rawLen.
	var one [1]byte
	if n, _ := fs.dec.Read(one[:]); n != 0 {
		return bm, nil, 0, errTorn
	}
	bm.FirstSeq = firstSeq
	bm.Count = int(cnt)
	return bm, raw, fs.off - bm.Offset, nil
}
