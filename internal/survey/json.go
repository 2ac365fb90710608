package survey

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// A schema scanner for the two public submit bodies: one Response as a
// JSON object, and the batch body {"responses":[…]}. It reads the same
// JSON wire encoding/json does, without reflection, but only the part of
// it whose decoding is unambiguous. A body it cannot decode to exactly
// the value json.Decoder (with DisallowUnknownFields) produces, it
// declines, and the caller decodes that body with encoding/json instead.
// It declines:
//
//   - a key that is not a byte-exact field tag (encoding/json folds
//     case), and a key given twice;
//   - null, and a value of any type but the field's;
//   - a string holding a backslash, a control byte or invalid UTF-8;
//   - a number outside the JSON grammar, a fraction or exponent in an
//     integer field (kind, choice, day), an integer out of int's range,
//     and a rating strconv.ParseFloat rejects;
//   - anything but whitespace after the value.

// ScanJSON decodes data, a single-submit body, into r and reports true
// when it can decode it to exactly what encoding/json would, and false
// (declines) otherwise. Like UnmarshalBinaryReuse it keeps each string
// of r whose bytes the body spells again; it never keeps r's Answers.
// A declined body leaves r as the zero Response.
func (r *Response) ScanJSON(data []byte) bool {
	hint := *r
	*r = Response{}
	s := jsonScanner{data: data}
	if s.response(r, &hint) && s.end() {
		return true
	}
	*r = Response{}
	return false
}

// ScanResponsesJSON decodes data, a batch-submit body
// {"responses":[…]}, under ScanJSON's rules. A missing "responses" key
// decodes to nil and an empty array to an empty slice, as in
// encoding/json. Each record keeps the strings of the one before it that
// it spells again, so a batch of one survey's responses shares its
// survey, level and question IDs.
func ScanResponsesJSON(data []byte) ([]Response, bool) {
	s := jsonScanner{data: data}
	if !s.consume('{') {
		return nil, false
	}
	var rs []Response
	if !s.consume('}') {
		if key, ok := s.rawString(); !ok || string(key) != "responses" || !s.consume(':') || !s.consume('[') {
			return nil, false
		}
		rs = []Response{}
		if !s.consume(']') {
			for {
				var hint *Response
				if n := len(rs); n > 0 {
					hint = &rs[n-1]
				}
				var r Response
				if !s.response(&r, hint) {
					return nil, false
				}
				rs = append(rs, r)
				if s.consume(']') {
					break
				}
				if !s.consume(',') {
					return nil, false
				}
			}
		}
		if !s.consume('}') {
			return nil, false
		}
	}
	if !s.end() {
		return nil, false
	}
	return rs, true
}

// jsonScanner walks one body. Each method reports false as soon as the
// body leaves what the scanner accepts; nothing it decodes aliases data.
type jsonScanner struct {
	data []byte
	pos  int
}

// space skips JSON whitespace.
func (s *jsonScanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *jsonScanner) consume(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (s *jsonScanner) end() bool {
	s.space()
	return s.pos == len(s.data)
}

// literal consumes word (true or false) after any whitespace.
func (s *jsonScanner) literal(word string) bool {
	s.space()
	if len(s.data)-s.pos >= len(word) && string(s.data[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

// rawString reads a string that decodes to its own bytes: no escape, no
// control byte, valid UTF-8. The bytes alias data.
func (s *jsonScanner) rawString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.data[s.pos:], '"')
	if n < 0 {
		return nil, false
	}
	b, ascii := s.data[s.pos:s.pos+n], true
	for _, c := range b {
		if c < 0x20 || c == '\\' {
			return nil, false
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	s.pos += n + 1
	return b, ascii || utf8.Valid(b)
}

// str reads a string field, returning old itself when the bytes spell
// it.
func (s *jsonScanner) str(old string) (string, bool) {
	b, ok := s.rawString()
	if !ok {
		return "", false
	}
	if string(b) == old {
		return old, true
	}
	return string(b), true
}

// number reads a number as the JSON grammar spells it and reports
// whether it is an integer (no fraction, no exponent). The bytes alias
// data.
func (s *jsonScanner) number() (lit []byte, integer, ok bool) {
	s.space()
	d, i := s.data, s.pos
	digits := func() bool {
		start := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		return nil, false, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	lit, s.pos = d[s.pos:i], i
	return lit, integer, true
}

// integer reads an int field as encoding/json does: strconv.ParseInt
// over the literal, refused outside int's range.
func (s *jsonScanner) integer() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// float reads a float64 field as encoding/json does.
func (s *jsonScanner) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// fields reads an object, handing each key to field, which reads its
// value and returns the key's bit in seen (0 for a key it does not
// know). A repeated or unknown key declines.
func (s *jsonScanner) fields(field func(key []byte) (bit uint, ok bool)) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint
	for {
		key, ok := s.rawString()
		if !ok || !s.consume(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// response reads one Response object into r, which must be zero,
// keeping hint's strings (hint may be nil) where the bytes spell them.
func (s *jsonScanner) response(r *Response, hint *Response) bool {
	if hint == nil {
		hint = &Response{}
	}
	return s.fields(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "survey_id":
			r.SurveyID, ok = s.str(hint.SurveyID)
			return 1 << 0, ok
		case "worker_id":
			r.WorkerID, ok = s.str(hint.WorkerID)
			return 1 << 1, ok
		case "answers":
			r.Answers, ok = s.answerList(hint.Answers)
			return 1 << 2, ok
		case "privacy_level":
			r.PrivacyLevel, ok = s.str(hint.PrivacyLevel)
			return 1 << 3, ok
		case "obfuscated":
			switch {
			case s.literal("true"):
				r.Obfuscated = true
			case !s.literal("false"):
				return 0, false
			}
			return 1 << 4, true
		case "day":
			r.Day, ok = s.integer()
			return 1 << 5, ok
		}
		return 0, false
	})
}

// answerList reads an answers array into a new slice of its exact
// length (empty, not nil, for []), keeping the question IDs and texts of
// hint's answer at the same index where the bytes spell them.
func (s *jsonScanner) answerList(hint []Answer) ([]Answer, bool) {
	if !s.consume('[') {
		return nil, false
	}
	var stack [8]Answer // most lists are read without a scratch allocation
	list := stack[:0]
	if !s.consume(']') {
		for {
			var h Answer
			if i := len(list); i < len(hint) {
				h = hint[i]
			}
			var a Answer
			if !s.answer(&a, &h) {
				return nil, false
			}
			list = append(list, a)
			if s.consume(']') {
				break
			}
			if !s.consume(',') {
				return nil, false
			}
		}
	}
	return append([]Answer{}, list...), true
}

// answer reads one Answer object into a, which must be zero.
func (s *jsonScanner) answer(a, hint *Answer) bool {
	return s.fields(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "question_id":
			a.QuestionID, ok = s.str(hint.QuestionID)
			return 1 << 0, ok
		case "kind":
			var k int
			k, ok = s.integer()
			a.Kind = QuestionKind(k)
			return 1 << 1, ok
		case "rating":
			a.Rating, ok = s.float()
			return 1 << 2, ok
		case "choice":
			a.Choice, ok = s.integer()
			return 1 << 3, ok
		case "text":
			a.Text, ok = s.str(hint.Text)
			return 1 << 4, ok
		}
		return 0, false
	})
}
