package survey

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
)

// Fingerprint returns a stable content hash of the survey definition —
// ID, questions, consistency pairs, reward, everything a response or an
// aggregate is interpreted against. Two definitions fingerprint equal iff
// their JSON forms are identical, and the JSON form is stable across a
// marshal/unmarshal round trip (struct field order is fixed and omitempty
// drops nil and empty slices alike), so a fingerprint taken before a
// restart matches the one recomputed from a replayed store.
//
// The read path uses fingerprints to detect republished definitions:
// live accumulators and durable checkpoints record the fingerprint they
// were folded under, and any state carrying a stale fingerprint is
// invalid — its bins were laid out for a different question set.
func (s *Survey) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Survey contains only marshalable fields (strings, numbers,
		// bools, slices thereof); Marshal cannot fail on it.
		panic("survey: fingerprint marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Equal reports whether two valid definitions fingerprint equal, without
// rendering or hashing either: the per-request check of "is the state I
// hold still folded under this definition", which only a republish ever
// answers no. It mirrors the JSON form the fingerprint hashes, whose
// omitempty fields drop a nil slice like an empty one and −0 like 0.
func (s *Survey) Equal(o *Survey) bool {
	if s.ID != o.ID || s.Title != o.Title || s.Description != o.Description ||
		s.RewardCents != o.RewardCents || len(s.Questions) != len(o.Questions) {
		return false
	}
	for i := range s.Questions {
		a, b := &s.Questions[i], &o.Questions[i]
		if a.ID != b.ID || a.Text != b.Text || a.Kind != b.Kind ||
			a.ScaleMin != b.ScaleMin || a.ScaleMax != b.ScaleMax ||
			a.Attribute != b.Attribute || a.Sensitive != b.Sensitive ||
			!slices.Equal(a.Options, b.Options) {
			return false
		}
	}
	return slices.Equal(s.Consistency, o.Consistency)
}
