package survey

import (
	"encoding/binary"
	"fmt"
	"math"

	"loki/internal/blockio"
)

// ResponseBinaryTag leads every binary-encoded Response and names the
// layout version. 0xB1 is a UTF-8 continuation byte: no JSON text (and
// so no JSON-payload record) can start with it, which is what lets a
// log replay dispatch per record on the first byte.
const ResponseBinaryTag = 0xB1

// Binary layout, version 0xB1 (field primitives: blockio.FieldReader):
//
//	tag | str SurveyID | str WorkerID | str PrivacyLevel | flags |
//	varint Day | uvarint len(Answers) | answer ...
//
//	answer = str QuestionID | head | [varint Kind] | [f64 Rating] |
//	         [varint Choice] | [str Text]
//
// flags bit 0 is Obfuscated; the other bits are reserved and must be
// zero. head bits 0–2 say which of Rating, Choice and Text follow (a
// zero value is omitted — Rating by its bit pattern, so −0 is kept);
// bits 3–7 hold Kind+1 for Kind in [0, 30], or 0 when Kind follows as a
// varint. Ratings are raw IEEE-754 bits: an obfuscated rating carries
// fresh noise in every mantissa bit and must come back exactly.

const (
	flagObfuscated = 1 << 0

	hasRating = 1 << 0
	hasChoice = 1 << 1
	hasText   = 1 << 2
	kindShift = 3
	kindMax   = 1<<(8-kindShift) - 2 // largest Kind the head byte holds

	minAnswerBytes = 2 // empty QuestionID + head
)

// AppendBinary appends the binary encoding of r to b. It cannot fail;
// the error is there to satisfy encoding.BinaryAppender.
func (r *Response) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, ResponseBinaryTag)
	b = blockio.AppendString(b, r.SurveyID)
	b = blockio.AppendString(b, r.WorkerID)
	b = blockio.AppendString(b, r.PrivacyLevel)
	var flags byte
	if r.Obfuscated {
		flags |= flagObfuscated
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(r.Day))
	b = binary.AppendUvarint(b, uint64(len(r.Answers)))
	for i := range r.Answers {
		a := &r.Answers[i]
		b = blockio.AppendString(b, a.QuestionID)
		var head byte
		if math.Float64bits(a.Rating) != 0 {
			head |= hasRating
		}
		if a.Choice != 0 {
			head |= hasChoice
		}
		if a.Text != "" {
			head |= hasText
		}
		inline := a.Kind >= 0 && a.Kind <= kindMax
		if inline {
			head |= byte(a.Kind+1) << kindShift
		}
		b = append(b, head)
		if !inline {
			b = binary.AppendVarint(b, int64(a.Kind))
		}
		if head&hasRating != 0 {
			b = blockio.AppendFloat64(b, a.Rating)
		}
		if head&hasChoice != 0 {
			b = binary.AppendVarint(b, int64(a.Choice))
		}
		if head&hasText != 0 {
			b = blockio.AppendString(b, a.Text)
		}
	}
	return b, nil
}

// UnmarshalBinary decodes exactly one AppendBinary encoding into r,
// replacing its contents. Malformed, truncated and over-long input is an
// error, never a panic, and leaves r unspecified.
func (r *Response) UnmarshalBinary(data []byte) error {
	*r = Response{}
	return r.UnmarshalBinaryReuse(data)
}

// UnmarshalBinaryReuse is UnmarshalBinary for a struct decoded into
// record after record: r ends up exactly as UnmarshalBinary would leave
// it, but keeps its Answers array when that is long enough and each of
// its strings whose bytes are unchanged, so a scan over one survey's
// records allocates little beyond the worker IDs. The answers it
// overwrites must be r's own, shared with nothing still in use.
func (r *Response) UnmarshalBinaryReuse(data []byte) error {
	d := blockio.NewFieldReader(data)
	if err := r.decode(d); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("survey: binary response: %d trailing bytes", d.Len())
	}
	return nil
}

// DecodeBinary reads one AppendBinary encoding from d into r, leaving d
// at the byte after it — how an enclosing format (the shardrpc submit
// body) reads responses laid end to end. On error r is unspecified. A
// response with no answers decodes to a nil Answers slice.
func (r *Response) DecodeBinary(d *blockio.FieldReader) error {
	*r = Response{}
	return r.decode(d)
}

// reuseStr reads one string field, returning old itself when the bytes
// spell it.
func reuseStr(d *blockio.FieldReader, old string) string {
	if b := d.Bytes(d.Uvarint()); string(b) != old {
		return string(b)
	}
	return old
}

// decode reads one AppendBinary encoding from d over r's contents,
// setting every field and reusing what UnmarshalBinaryReuse says.
func (r *Response) decode(d *blockio.FieldReader) error {
	if tag := d.Byte(); d.Err() == nil && tag != ResponseBinaryTag {
		return fmt.Errorf("survey: not a binary response (tag %#x)", tag)
	}
	r.SurveyID = reuseStr(d, r.SurveyID)
	r.WorkerID = reuseStr(d, r.WorkerID)
	r.PrivacyLevel = reuseStr(d, r.PrivacyLevel)
	flags := d.Byte()
	r.Obfuscated = flags&flagObfuscated != 0
	r.Day = d.Int()
	switch n := d.Count(minAnswerBytes); {
	case n == 0:
		r.Answers = nil
	case n <= cap(r.Answers):
		r.Answers = r.Answers[:n]
	default:
		r.Answers = make([]Answer, n)
	}
	for i := range r.Answers {
		a := &r.Answers[i]
		a.QuestionID = reuseStr(d, a.QuestionID)
		head := d.Byte()
		if k := head >> kindShift; k != 0 {
			a.Kind = QuestionKind(k - 1)
		} else {
			a.Kind = QuestionKind(d.Int())
		}
		a.Rating, a.Choice, a.Text = 0, 0, ""
		if head&hasRating != 0 {
			a.Rating = d.Float64()
		}
		if head&hasChoice != 0 {
			a.Choice = d.Int()
		}
		if head&hasText != 0 {
			a.Text = reuseStr(d, a.Text)
		}
	}
	if d.Err() != nil {
		return fmt.Errorf("survey: binary response: %w", d.Err())
	}
	if flags&^flagObfuscated != 0 {
		return fmt.Errorf("survey: binary response: reserved flag bits %#x set", flags)
	}
	return nil
}
