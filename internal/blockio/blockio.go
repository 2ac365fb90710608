// Package blockio is the durable-file layer shared by every persistence
// subsystem. Log (log.go) is the one record file the file store, the
// checkpoint files, the budget ledger and ingest's segments, meta log
// and snapshots are built on — open/replay with torn-tail repair,
// append / flush / sync, a sticky first failure, atomic rewrite, and
// CopyFrom, which appends another file's records and moves its blocks
// whole, never inflated or recompressed. Every Log writes the chunked
// block format described here, which also frames the compressed
// cluster-RPC bodies of the WAL-tail-shipping read path (frame.go).
// JSON lines (one record per line), the format these files had before,
// are read only: ReplayFile and CopyFrom read them, and OpenLog
// converts such a file to blocks once. WriteFileAtomic and SyncDir are
// the only place files are published by rename; Sniff and ReplayFile
// the only place a file's framing is detected.
//
// A blockio file is
//
//	header | block frame ... | [index | footer]
//
// The 8-byte header carries a magic, the format version and the
// compression codec. Records are opaque payloads — whatever the
// subsystem logs: the response records of the file store and of ingest
// and the budget ledger's records are binary encodings built from this
// package's field primitives (field.go); survey records, ingest's
// snapshot headers and everything checkpoint and the wire frames carry
// are JSON — wrapped in a varint-length + CRC32C envelope and buffered
// into blocks of ~128 KiB uncompressed, each framed as
//
//	uvarint firstSeq | uvarint count | uvarint rawLen | uvarint compLen |
//	crc32c(comp) | comp bytes
//
// where comp is a deflate stream of the block: flate-compressed, or,
// for a block under StoredBlockMax raw bytes (a one-to-three-record
// group commit), a single *stored* deflate block — the bytes as they
// are behind a five-byte header. Readers inflate both the same way.
//
// Writer.Flush cuts the open block at a group-commit boundary, so
// everything acknowledged (flushed, then fsynced) is inside a fully
// framed, checksummed block.
//
// Seal appends a trailing block index (offset, first seq and record
// count per block) and a fixed-size footer, turning the file immutable:
// ScanFrom then seeks straight to the block containing a requested seq
// instead of replaying from byte 0. A file without a valid footer — the
// active segment, or a crash mid-seal — is scanned sequentially with
// the same torn-tail repair semantics as a JSON-lines file: a torn or
// corrupt tail is truncated back to the last fully verified block. A
// block that fails its checksum but is followed by one that verifies is
// no tail, and refuses the open (ErrInteriorDamage).
//
// Compression is stdlib compress/flate so the module keeps zero
// external dependencies and tier-1 builds offline.
package blockio

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	fileMagic = "LKB1" // file header magic
	footMagic = "LKX1" // footer magic (trailing, after the block index)

	formatVersion = 1

	// Compression codec ids (header byte 5).
	compFlate = 1

	headerSize = 8  // magic(4) + version(1) + compression(1) + reserved(2)
	footerSize = 20 // indexOff(8) + indexLen(4) + indexCRC(4) + magic(4)

	// DefaultBlockBytes is the uncompressed size at which an open block
	// is cut even without a Flush.
	DefaultBlockBytes = 128 << 10

	// maxRecordBytes bounds one record envelope; larger lengths in a
	// file mean corruption, not data.
	maxRecordBytes = 64 << 20
	// maxBlockBytes bounds a frame's raw and compressed lengths during
	// parsing, for the same reason.
	maxBlockBytes = 1 << 27
)

// CodecBinary names this package's compressed block format: the value
// of shardrpc's codec query parameter, and the one format a Log writes.
const CodecBinary = "binary"

// castagnoli is the CRC32C table used for every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// header renders the 8-byte file header.
func header() []byte {
	h := make([]byte, headerSize)
	copy(h, fileMagic)
	h[4] = formatVersion
	h[5] = compFlate
	return h
}

// checkHeader validates the 8 header bytes.
func checkHeader(h []byte) error {
	if string(h[:4]) != fileMagic {
		return fmt.Errorf("blockio: bad magic %q", h[:4])
	}
	if h[4] != formatVersion {
		return fmt.Errorf("blockio: format version %d not supported", h[4])
	}
	if h[5] != compFlate {
		return fmt.Errorf("blockio: compression codec %d not supported", h[5])
	}
	return nil
}

// Sniff reports whether the file at path is a blockio file (starts with
// the format magic). An empty or shorter-than-header file is not: both
// framings replay it as zero records, and the JSON-lines path owns that
// case.
func Sniff(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var h [4]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil
		}
		return false, fmt.Errorf("blockio: sniff %s: %w", path, err)
	}
	return string(h[:]) == fileMagic, nil
}

// BlockMeta locates one block inside a file: its frame's byte offset,
// the seq of its first record and how many records it holds.
type BlockMeta struct {
	Offset   int64
	FirstSeq uint64
	Count    int
}
