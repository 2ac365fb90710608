package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"loki/internal/blockio"
	"loki/internal/budget"
	"loki/internal/survey"
)

// The submit request body is binary: the responses in the form the
// node's store will log them in, so a response crosses frontend → node →
// disk without once being spelled as JSON text. The reply is JSON
// (SectionsResult).
//
// SubmitContentType marks the body, and its leading tag, which like
// survey.ResponseBinaryTag cannot begin a JSON text, names the layout:
// one section per shard of a node call.
//
//	sections = 0xB3 | uvarint len(sections) | section ...
//
//	section  = varint Shard | uvarint Epoch |
//	           uvarint len(Responses) | response ... |
//	           uvarint len(Charges)   | charge ...
//	response = survey.Response.AppendBinary
//	charge   = str WorkerID | str SurveyID | f64 Rho |
//	           varint Unprotected | byte Enforce
const (
	// SubmitContentType marks a binary submit request body.
	SubmitContentType = "application/x-loki-submit"

	sectionsBodyTag = 0xB3
)

const (
	minResponseBytes = 7  // tag, three empty strings, flags, day, answer count
	minChargeBytes   = 12 // two empty strings, rho, unprotected, enforce
	minSectionBytes  = 4  // shard, epoch, two empty counts
)

// SubmitSections is one node call's worth of submit batches, one
// section per shard; each section is a SubmitRequest, refused or
// answered on its own (see SectionResult).
type SubmitSections []SubmitRequest

// AppendBinary appends the sections body for s to b. It cannot fail;
// the error satisfies encoding.BinaryAppender.
func (s SubmitSections) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(append(b, sectionsBodyTag), uint64(len(s)))
	for i := range s {
		b = s[i].appendSection(b)
	}
	return b, nil
}

// UnmarshalBinary decodes exactly one AppendBinary body of at least one
// section into s, replacing its contents. Input from the wire: a body
// that is malformed, truncated, over-long or carries no section is an
// error (s is then unspecified), and no slice is sized from a count the
// remaining bytes could not hold. Empty Responses and Charges decode to
// nil slices.
func (s *SubmitSections) UnmarshalBinary(data []byte) error {
	d := blockio.NewFieldReader(data)
	if tag := d.Byte(); d.Err() == nil && tag != sectionsBodyTag {
		return fmt.Errorf("shardrpc: not a sections body (tag %#x)", tag)
	}
	*s = nil
	if n := d.Count(minSectionBytes); n > 0 {
		*s = make(SubmitSections, n)
	}
	for i := range *s {
		if err := (*s)[i].decodeSection(d); err != nil {
			return fmt.Errorf("shardrpc: section %d: %w", i, err)
		}
	}
	switch {
	case d.Err() != nil:
		return fmt.Errorf("shardrpc: submit body: %w", d.Err())
	case d.Len() != 0:
		return errors.New("shardrpc: submit body: trailing bytes")
	case len(*s) == 0:
		return errors.New("shardrpc: submit call has no section")
	}
	return nil
}

func (r *SubmitRequest) appendSection(b []byte) []byte {
	b = binary.AppendVarint(b, int64(r.Shard))
	b = binary.AppendUvarint(b, r.Epoch)
	b = binary.AppendUvarint(b, uint64(len(r.Responses)))
	for i := range r.Responses {
		b, _ = r.Responses[i].AppendBinary(b) // cannot fail
	}
	b = binary.AppendUvarint(b, uint64(len(r.Charges)))
	for i := range r.Charges {
		c := &r.Charges[i]
		b = blockio.AppendString(b, c.WorkerID)
		b = blockio.AppendString(b, c.SurveyID)
		b = blockio.AppendFloat64(b, c.Rho)
		b = binary.AppendVarint(b, int64(c.Unprotected))
		enforce := byte(0)
		if c.Enforce {
			enforce = 1
		}
		b = append(b, enforce)
	}
	return b
}

// decodeSection reads one section into r, replacing its contents. A
// truncated section is left for UnmarshalBinary to report.
func (r *SubmitRequest) decodeSection(d *blockio.FieldReader) error {
	*r = SubmitRequest{Shard: d.Int(), Epoch: d.Uvarint()}
	if n := d.Count(minResponseBytes); n > 0 {
		r.Responses = make([]survey.Response, n)
	}
	for i := range r.Responses {
		if err := r.Responses[i].DecodeBinary(d); err != nil {
			return fmt.Errorf("shardrpc: submit body response %d: %w", i, err)
		}
	}
	if n := d.Count(minChargeBytes); n > 0 {
		r.Charges = make([]budget.Charge, n)
	}
	for i := range r.Charges {
		c := &r.Charges[i]
		c.WorkerID, c.SurveyID, c.Rho, c.Unprotected = d.Str(), d.Str(), d.Float64(), d.Int()
		enforce := d.Byte()
		if enforce > 1 {
			return fmt.Errorf("shardrpc: submit body charge %d: enforce byte %#x", i, enforce)
		}
		c.Enforce = enforce == 1
	}
	return nil
}
