package blockio

import (
	"encoding/binary"
	"errors"
	"math"
)

// Field primitives: the conventions binary record payloads and RPC
// bodies share with the block envelopes around them — uvarint lengths
// and counts, zigzag varints for signed integers (both straight from
// encoding/binary), length-prefixed strings, and float64 as its raw
// little-endian IEEE-754 bits, so a stored rating is the submitted one
// to the last mantissa bit (NaN payloads and −0 included) instead of a
// shortest-decimal rendering of it.

// AppendString appends s as uvarint(len(s)) followed by its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat64 appends f's IEEE-754 bits, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// ErrShortField is what a FieldReader latches when a field runs past
// the end of its input or a varint is malformed.
var ErrShortField = errors.New("blockio: truncated or malformed field")

// FieldReader is a bounds-checked cursor over a buffer of such fields.
// The first short or malformed read latches Err; every read after it
// returns a zero value, so a decoder reads its whole layout and checks
// once. Nothing is ever allocated from a length or count that has not
// been verified against the bytes remaining.
type FieldReader struct {
	b   []byte
	err error
}

// NewFieldReader reads fields from b.
func NewFieldReader(b []byte) *FieldReader { return &FieldReader{b: b} }

// Err returns the first read failure, or nil.
func (r *FieldReader) Err() error { return r.err }

// Len returns the number of unread bytes (0 after a failure).
func (r *FieldReader) Len() int { return len(r.b) }

func (r *FieldReader) fail() {
	r.err = ErrShortField
	r.b = nil
}

// Uvarint reads one unsigned varint.
func (r *FieldReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads one zigzag varint that must fit an int.
func (r *FieldReader) Int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// Count reads a uvarint element count and fails unless the remaining
// bytes could hold that many elements of at least minBytes each — the
// guard that keeps make([]T, count) proportional to the input.
func (r *FieldReader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

// Bytes reads the next n bytes without copying them.
func (r *FieldReader) Bytes(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *FieldReader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Str reads one length-prefixed string (copied out of the buffer).
func (r *FieldReader) Str() string { return string(r.Bytes(r.Uvarint())) }

// Float64 reads one float64 from its little-endian bits.
func (r *FieldReader) Float64() float64 {
	if b := r.Bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}
