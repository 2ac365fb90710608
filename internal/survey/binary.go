package survey

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"

	"loki/internal/blockio"
)

// ResponseBinaryTag leads every binary-encoded Response and names the
// layout version. 0xB1 is a UTF-8 continuation byte: no JSON text (and
// so no JSON-payload record) can start with it, which is what lets a
// log replay dispatch per record on the first byte. The other binary
// records are continuation bytes too: the budget ledger's 0xB2, the
// shardrpc sections body's 0xB3 and the survey record's 0xB4
// (SurveyBinaryTag).
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

// SurveyBinaryTag leads every binary survey record and names its layout
// version: the record a durable log holds for a published or
// republished definition (SurveyRecord).
const SurveyBinaryTag = 0xB4

// SurveyRecord is one publish of a survey definition as a durable log
// holds it: the definition, whether it was logged as a republish (an
// overwrite of the definition in effect), and when, in Unix nanoseconds.
type SurveyRecord struct {
	Survey    Survey
	Republish bool
	UnixNano  int64
}

// Binary layout, version 0xB4 (field primitives: blockio.FieldReader):
//
//	tag | flags | varint UnixNano | str ID | str Title | str Description |
//	varint RewardCents | uvarint len(Questions) | question ... |
//	uvarint len(Consistency) | pair ...
//
//	question = str ID | str Text | head | [varint Kind] | [f64 ScaleMin] |
//	           [f64 ScaleMax] | [uvarint len(Options) | str Option ...] |
//	           [str Attribute]
//	pair     = str QuestionA | str QuestionB | head | [f64 Tolerance] |
//	           [str Rule]
//
// flags bit 0 is Republish. A question's head bits 0–3 say which of
// ScaleMin, ScaleMax, Options and Attribute follow, bit 4 is Sensitive,
// and bits 5–7 hold Kind+1 for Kind in [0, 6], or 0 when Kind follows as
// a varint. A pair's head bits 0–1 say whether Tolerance and Rule
// follow. Reserved bits must be zero. A field holding its zero value is
// omitted, as the definition's JSON form omits it (a float by its bit
// pattern, so −0 is kept). Floats are raw IEEE-754 bits and must be
// finite, and strings valid UTF-8: the JSON form, which Fingerprint
// hashes, cannot hold NaN or ±Inf, and renders each byte of an invalid
// UTF-8 sequence as U+FFFD, so neither would fingerprint the same after
// a round trip. The encoder refuses both, and Survey.Validate refuses
// invalid UTF-8 before a store logs anything.

const flagRepublish = 1 << 0

const (
	qHasMin = 1 << iota
	qHasMax
	qHasOptions
	qHasAttribute
	qSensitive
	qKindShift = 5
	qKindMax   = 1<<(8-qKindShift) - 2 // largest Kind the head byte holds

	pHasTolerance = 1 << 0
	pHasRule      = 1 << 1

	minQuestionBytes = 3 // empty ID and Text + head
	minPairBytes     = 3 // empty QuestionA and QuestionB + head
)

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// text reads one string field that must be valid UTF-8, clearing *ok
// when it is not.
func text(d *blockio.FieldReader, ok *bool) string {
	s := d.Str()
	*ok = *ok && utf8.ValidString(s)
	return s
}

// AppendSurveyRecord appends rec's binary encoding to b. It fails only
// on a string that is not valid UTF-8, or a scale bound or tolerance
// that is not finite.
func AppendSurveyRecord(b []byte, rec *SurveyRecord) ([]byte, error) {
	s := &rec.Survey
	if err := s.checkUTF8(); err != nil {
		return b, err
	}
	var flags byte
	if rec.Republish {
		flags |= flagRepublish
	}
	b = append(b, SurveyBinaryTag, flags)
	b = binary.AppendVarint(b, rec.UnixNano)
	b = blockio.AppendString(b, s.ID)
	b = blockio.AppendString(b, s.Title)
	b = blockio.AppendString(b, s.Description)
	b = binary.AppendVarint(b, int64(s.RewardCents))
	b = binary.AppendUvarint(b, uint64(len(s.Questions)))
	for i := range s.Questions {
		q := &s.Questions[i]
		if !finite(q.ScaleMin) || !finite(q.ScaleMax) {
			return b, fmt.Errorf("survey: %q question %q: scale [%g, %g] is not finite", s.ID, q.ID, q.ScaleMin, q.ScaleMax)
		}
		b = blockio.AppendString(b, q.ID)
		b = blockio.AppendString(b, q.Text)
		var head byte
		if math.Float64bits(q.ScaleMin) != 0 {
			head |= qHasMin
		}
		if math.Float64bits(q.ScaleMax) != 0 {
			head |= qHasMax
		}
		if len(q.Options) > 0 {
			head |= qHasOptions
		}
		if q.Attribute != "" {
			head |= qHasAttribute
		}
		if q.Sensitive {
			head |= qSensitive
		}
		inline := q.Kind >= 0 && q.Kind <= qKindMax
		if inline {
			head |= byte(q.Kind+1) << qKindShift
		}
		b = append(b, head)
		if !inline {
			b = binary.AppendVarint(b, int64(q.Kind))
		}
		if head&qHasMin != 0 {
			b = blockio.AppendFloat64(b, q.ScaleMin)
		}
		if head&qHasMax != 0 {
			b = blockio.AppendFloat64(b, q.ScaleMax)
		}
		if head&qHasOptions != 0 {
			b = binary.AppendUvarint(b, uint64(len(q.Options)))
			for _, o := range q.Options {
				b = blockio.AppendString(b, o)
			}
		}
		if head&qHasAttribute != 0 {
			b = blockio.AppendString(b, string(q.Attribute))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Consistency)))
	for i := range s.Consistency {
		p := &s.Consistency[i]
		if !finite(p.Tolerance) {
			return b, fmt.Errorf("survey: %q consistency pair (%q, %q): tolerance %g is not finite", s.ID, p.QuestionA, p.QuestionB, p.Tolerance)
		}
		b = blockio.AppendString(b, p.QuestionA)
		b = blockio.AppendString(b, p.QuestionB)
		var head byte
		if math.Float64bits(p.Tolerance) != 0 {
			head |= pHasTolerance
		}
		if p.Rule != "" {
			head |= pHasRule
		}
		b = append(b, head)
		if head&pHasTolerance != 0 {
			b = blockio.AppendFloat64(b, p.Tolerance)
		}
		if head&pHasRule != 0 {
			b = blockio.AppendString(b, string(p.Rule))
		}
	}
	return b, nil
}

// UnmarshalBinary decodes exactly one AppendSurveyRecord encoding into
// r, replacing its contents. Malformed, truncated and over-long input is
// an error, never a panic, and leaves r unspecified. A definition with
// no questions, options or pairs decodes them as nil slices.
func (r *SurveyRecord) UnmarshalBinary(data []byte) error {
	*r = SurveyRecord{}
	d := blockio.NewFieldReader(data)
	if tag := d.Byte(); d.Err() == nil && tag != SurveyBinaryTag {
		return fmt.Errorf("survey: not a binary survey record (tag %#x)", tag)
	}
	flags := d.Byte()
	r.Republish = flags&flagRepublish != 0
	r.UnixNano = int64(d.Int())
	ok := true
	s := &r.Survey
	s.ID = text(d, &ok)
	s.Title = text(d, &ok)
	s.Description = text(d, &ok)
	s.RewardCents = d.Int()
	if n := d.Count(minQuestionBytes); n > 0 {
		s.Questions = make([]Question, n)
	}
	for i := range s.Questions {
		q := &s.Questions[i]
		q.ID = text(d, &ok)
		q.Text = text(d, &ok)
		head := d.Byte()
		if k := head >> qKindShift; k != 0 {
			q.Kind = QuestionKind(k - 1)
		} else {
			q.Kind = QuestionKind(d.Int())
		}
		if head&qHasMin != 0 {
			q.ScaleMin = d.Float64()
		}
		if head&qHasMax != 0 {
			q.ScaleMax = d.Float64()
		}
		if head&qHasOptions != 0 {
			if n := d.Count(1); n > 0 {
				q.Options = make([]string, n)
			}
			for j := range q.Options {
				q.Options[j] = text(d, &ok)
			}
		}
		if head&qHasAttribute != 0 {
			q.Attribute = Attribute(text(d, &ok))
		}
		q.Sensitive = head&qSensitive != 0
		ok = ok && finite(q.ScaleMin) && finite(q.ScaleMax)
	}
	if n := d.Count(minPairBytes); n > 0 {
		s.Consistency = make([]ConsistencyPair, n)
	}
	var reserved byte
	for i := range s.Consistency {
		p := &s.Consistency[i]
		p.QuestionA = text(d, &ok)
		p.QuestionB = text(d, &ok)
		head := d.Byte()
		if head&pHasTolerance != 0 {
			p.Tolerance = d.Float64()
		}
		if head&pHasRule != 0 {
			p.Rule = ConsistencyRule(text(d, &ok))
		}
		reserved |= head &^ (pHasTolerance | pHasRule)
		ok = ok && finite(p.Tolerance)
	}
	switch {
	case d.Err() != nil:
		return fmt.Errorf("survey: binary survey record: %w", d.Err())
	case d.Len() != 0:
		return fmt.Errorf("survey: binary survey record: %d trailing bytes", d.Len())
	case flags&^flagRepublish != 0 || reserved != 0:
		return fmt.Errorf("survey: binary survey record: reserved bits set (flags %#x, pair heads %#x)", flags, reserved)
	case !ok:
		return fmt.Errorf("survey: binary survey record %q: a string is not valid UTF-8, or a scale bound or tolerance not finite", s.ID)
	}
	return nil
}
