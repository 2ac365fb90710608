package blockio

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire frames: the single-block flavor of the segment format, used to
// compress cluster-RPC response bodies on the WAL-tail-shipping and
// replica-bootstrap read paths. A frame is
//
//	"LKF1" | uvarint rawLen | uvarint compLen | crc32c(comp) | comp
//
// — the same envelope discipline as an on-disk block, minus seqs (the
// JSON body inside carries its own cursor fields).

const frameMagic = "LKF1"

// FrameContentType is the HTTP content type of a wire frame: the one
// reply encoding of shardrpc's scan and tail routes.
const FrameContentType = "application/x-loki-frame"

// EncodeFrame compresses payload into a wire frame (stored as-is below
// StoredBlockMax, like an on-disk block).
func EncodeFrame(payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := compress(nil, &buf, payload); err != nil {
		return nil, fmt.Errorf("blockio: compress frame: %w", err)
	}
	comp := buf.Bytes()
	out := make([]byte, 0, len(frameMagic)+2*binary.MaxVarintLen64+4+len(comp))
	out = append(out, frameMagic...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.AppendUvarint(out, uint64(len(comp)))
	out = binary.LittleEndian.AppendUint32(out, checksum(comp))
	return append(out, comp...), nil
}

// DecodeFrame verifies and decompresses a wire frame.
func DecodeFrame(frame []byte) ([]byte, error) {
	if len(frame) < len(frameMagic) || string(frame[:len(frameMagic)]) != frameMagic {
		return nil, errors.New("blockio: not a wire frame")
	}
	b := frame[len(frameMagic):]
	rawLen, n := binary.Uvarint(b)
	if n <= 0 || rawLen > maxBlockBytes {
		return nil, errors.New("blockio: corrupt frame length")
	}
	b = b[n:]
	compLen, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)) != uint64(n)+4+compLen {
		return nil, errors.New("blockio: corrupt frame length")
	}
	b = b[n:]
	wantCRC := binary.LittleEndian.Uint32(b)
	comp := b[4:]
	if checksum(comp) != wantCRC {
		return nil, errors.New("blockio: frame checksum mismatch")
	}
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close()
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, fmt.Errorf("blockio: decompress frame: %w", err)
	}
	var one [1]byte
	if n, _ := fr.Read(one[:]); n != 0 {
		return nil, errors.New("blockio: frame longer than declared")
	}
	return raw, nil
}
