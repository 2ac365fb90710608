package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"loki/internal/blockio"
	"loki/internal/budget"
	"loki/internal/survey"
)

// The submit request has a second body encoding: the responses in the
// binary form the node's store will log them in, so a response crosses
// frontend → node → disk without once being spelled as JSON text. The
// reply is the JSON SubmitResult either way.
//
// Negotiation needs no flag and no extra round trip. A Handler that
// reads the binary body says so in AcceptHeader on every reply it
// writes; a Client sends binary once the newest reply from its node
// carried that, and JSON until then and whenever one does not — an
// older node, or one rolled back, keeps getting what it understands.
// Any reply counts (a frontend publishes to and reads from its nodes
// too), so at most the first submit to a node goes out as JSON.
const (
	// SubmitContentType marks a binary submit request body.
	SubmitContentType = "application/x-loki-submit"
	// AcceptHeader is the reply header naming the binary request body a
	// Handler reads (SubmitContentType).
	AcceptHeader = "X-Shardrpc-Accept"
)

// submitBodyTag leads the binary submit body and names its layout
// version; like survey.ResponseBinaryTag it cannot begin a JSON text.
//
//	tag | varint Shard | uvarint Epoch |
//	uvarint len(Responses) | response ... |
//	uvarint len(Charges)   | charge ...
//
//	response = survey.Response.AppendBinary
//	charge   = str WorkerID | str SurveyID | f64 Rho |
//	           varint Unprotected | byte Enforce
const submitBodyTag = 0xB2

const (
	minResponseBytes = 7  // tag, three empty strings, flags, day, answer count
	minChargeBytes   = 12 // two empty strings, rho, unprotected, enforce
)

// AppendBinary appends the binary submit body for r to b. It cannot
// fail; the error satisfies encoding.BinaryAppender.
func (r *SubmitRequest) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, submitBodyTag)
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
	return b, nil
}

// UnmarshalBinary decodes exactly one AppendBinary body into r,
// replacing its contents. Input from the wire: malformed, truncated or
// over-long bodies are errors (r is then unspecified), and no slice is
// sized from a count the remaining bytes could not hold. Empty Responses
// and Charges decode to nil slices.
func (r *SubmitRequest) UnmarshalBinary(data []byte) error {
	d := blockio.NewFieldReader(data)
	if tag := d.Byte(); d.Err() == nil && tag != submitBodyTag {
		return fmt.Errorf("shardrpc: not a binary submit body (tag %#x)", tag)
	}
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
	switch {
	case d.Err() != nil:
		return fmt.Errorf("shardrpc: submit body: %w", d.Err())
	case d.Len() != 0:
		return errors.New("shardrpc: submit body: trailing bytes")
	}
	return nil
}
