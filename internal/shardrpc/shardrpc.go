// Package shardrpc is Loki's compact internal HTTP transport between
// cluster roles: the frontend routes submissions to the nodes owning
// each shard and merges per-shard partial aggregates at query time;
// read replicas tail a node's append journal (WAL shipping with a shard
// epoch + offset) and serve read-only scans and aggregates.
//
// The wire is JSON over HTTP — the same operational surface as the
// public API (curl-able, proxy-friendly), but a distinct, token-guarded
// namespace with its own stability contract. Each call has one request
// shape and one reply shape. Two are not plain JSON: the submit request
// body is binary (submitbody.go), and scan and tail replies are their
// JSON in one blockio frame.
//
//	POST /shardrpc/v1/submit                    batch append to one or more
//	                                            of a node's shards in one
//	                                            call, a section per shard
//	GET  /shardrpc/v1/shards/{shard}/scan       cursor scan (paged, framed)
//	GET  /shardrpc/v1/shards/{shard}/count      per-shard response count
//	POST /shardrpc/v1/partial                   partial accumulator state
//	                                            for one or more shards in
//	                                            one call (conditional: each
//	                                            shard's have cursor answers
//	                                            not-modified/delta/full)
//	GET  /shardrpc/v1/shards/{shard}/tail       WAL-tail shipping (framed;
//	                                            ?follower=id registers a
//	                                            truncation ack)
//	GET  /shardrpc/v1/meta                      shard ownership map
//	GET  /shardrpc/v1/surveys                   survey definitions
//	GET  /shardrpc/v1/surveys/{id}              one survey definition
//	POST /shardrpc/v1/surveys                   publish/republish broadcast
//
// Shard indices on this surface are always global (the cluster's shard
// space); a node translates to its local subset and rejects shards it
// does not own with 421 (misdirected request), which a frontend treats
// as a placement-map bug, never retries.
package shardrpc

import (
	"context"
	"errors"
	"fmt"

	"loki/internal/aggregate"
	"loki/internal/budget"
	"loki/internal/shardset"
	"loki/internal/survey"
)

// Meta describes a node's place in the cluster: the size of the global
// shard space and the slice of it this node owns.
type Meta struct {
	TotalShards int   `json:"total_shards"`
	OwnedShards []int `json:"owned_shards"`
}

// SubmitRequest is a batch append to one global shard. Responses must
// already be validated by the sender against the survey definition; the
// node re-validates against its replicated copy before appending, so a
// frontend/node definition skew surfaces as a 400, not silent
// corruption.
type SubmitRequest struct {
	Shard     int
	Responses []survey.Response
	// Epoch is the placement epoch the sender routed under — the
	// fencing token from the shared placement manifest. A node that has
	// applied a newer manifest refuses the batch with FencedError (412)
	// before any state changes: after a promotion, a frontend still
	// routing to the demoted primary (or stamping the old epoch at the
	// new one) cannot land writes. Zero means the sender is not
	// manifest-routed (a NewRemoteRoundRobin router); such writes pass
	// the epoch comparison but are still refused wholesale by a demoted
	// node.
	Epoch uint64
	// Charges, when present, piggybacks privacy-budget debits on the
	// submit round-trip: aligned 1:1 with Responses (an empty WorkerID
	// carries no charge), each debit is decided against the worker's
	// budget shard ON THE RECEIVING NODE before the append, so the
	// enforce-mode hot path stays one RPC instead of charge + submit.
	// The sender must route: every non-empty charge's worker hashes to
	// a budget shard the addressed node hosts (else 421); a backend that
	// hosts no budget shards refuses a charged batch whole (400).
	Charges []budget.Charge
}

// Validate refuses a request no backend can act on: an empty batch, or
// charges that are present but not aligned 1:1 with the responses.
func (r *SubmitRequest) Validate() error {
	if len(r.Responses) == 0 {
		return errors.New("submit batch is empty")
	}
	if len(r.Charges) > 0 && len(r.Charges) != len(r.Responses) {
		return errors.New("charges are not aligned with responses")
	}
	return nil
}

// SubmitResult acknowledges a durable batch.
//
// Two shapes share it. A plain batch (no Charges) keeps the original
// contract: Stored holds one count per durably appended response — a
// strict prefix of the request on error. A charged batch answers per
// request entry: Stored, Outcomes, ChargeErrs and AppendErrs are all
// aligned with the request's Responses, because a budget rejection in
// the middle of the batch means the durable set is no longer a prefix.
type SubmitResult struct {
	Appended int `json:"appended"`
	// Stored holds, per appended response, the shard's response count
	// for that response's survey right after its append — the submit
	// ack figure, free at append time. On a charged batch the slice is
	// request-aligned and zero where nothing was appended.
	Stored []int `json:"stored"`
	// Outcomes (charged batches only) carries each entry's budget
	// decision; a rejected entry was not appended. Zero-valued for
	// entries whose charge errored or that carried no charge.
	Outcomes []budget.Outcome `json:"outcomes,omitempty"`
	// ChargeErrs (charged batches only) reports entries whose debit
	// could not be decided. Enforce-mode entries with a charge error
	// were not appended (fail closed); log-mode entries were (fail
	// open, the miss is reported for the sender's logs).
	ChargeErrs []string `json:"charge_errs,omitempty"`
	// AppendErrs (charged batches only) reports entries admitted by the
	// ledger whose append then failed; their charges were refunded on
	// the node before the reply.
	AppendErrs []string `json:"append_errs,omitempty"`
	// Throttled, when present, is aligned with the request's Responses
	// and marks entries the node's per-requester rate limit refused —
	// they were not appended and should be retried after
	// RetryAfterSeconds. A reply with Throttled set is request-aligned
	// throughout (Stored, and AppendErrs when appends failed), because
	// a throttled entry in the middle of the batch means the durable
	// set is no longer a prefix. Absent on nodes without rate limiting.
	Throttled []bool `json:"throttled,omitempty"`
	// RetryAfterSeconds is the back-off hint for the Throttled entries.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// SubmitOutcome is one section's answer from Backend.Submit: the
// result, the error that refused the section, or — a plain section whose
// append failed — both, the result holding the durable prefix.
type SubmitOutcome struct {
	Result *SubmitResult
	Err    error
}

// SectionsResult answers a sections body: the call's total of durably
// appended records, which leads the body, and one entry per request
// section, in order.
type SectionsResult struct {
	Appended int             `json:"appended"`
	Sections []SectionResult `json:"sections"`
}

// SectionResult is one section's answer: its status (see
// backendStatus), error and Retry-After, and inline the SubmitResult of
// a 200 or the durable prefix (Appended, Stored) of a plain section
// whose append failed.
type SectionResult struct {
	Status     int    `json:"status"`
	Error      string `json:"error,omitempty"`
	RetryAfter int    `json:"retry_after,omitempty"`
	*SubmitResult
}

// SubmitEntry is one record's verdict on a submit: its entry of the
// batch's SubmitResult, or the error that refused (or lost) the batch
// it travelled in. It is what the public submit path maps to an HTTP
// answer, whichever role dispatched the record.
type SubmitEntry struct {
	// Err refused the whole batch — nothing of this record was charged or
	// stored (a shed, fenced, misrouted or unreachable batch), or the
	// store failed at or before it in a plain batch.
	Err error
	// Throttled: the rate limit refused the record; retry after
	// RetryAfterSeconds.
	Throttled         bool
	RetryAfterSeconds int
	// Outcome is the ledger's decision when the record was charged; a
	// Rejected outcome stored nothing.
	Outcome budget.Outcome
	// ChargeErr: the charge could not be decided. An enforcing record was
	// not stored, an advisory one was.
	ChargeErr string
	// AppendErr: the store refused the record after the ledger admitted
	// it; the charge has been refunded.
	AppendErr string
	// Stored is the shard's response count for the survey right after a
	// stored record's append; 0 when that count was lost with an error
	// reply.
	Stored int
}

// SubmitEntries cuts the outcome of one n-record batch — a section's
// SubmitOutcome, or Client.Submit's return values — into per-record
// verdicts.
func SubmitEntries(n int, res *SubmitResult, err error) []SubmitEntry {
	out := make([]SubmitEntry, n)
	if err != nil {
		// A plain batch that failed mid-append leaves a durable prefix,
		// the result beside the error, the sender must not resubmit.
		var stored []int
		durable := 0
		if res != nil {
			stored, durable = res.Stored, res.Appended
		}
		for k := range out {
			if k >= durable {
				out[k].Err = err
			} else if k < len(stored) {
				out[k].Stored = stored[k]
			}
		}
		return out
	}
	// Every per-entry slice is optional: a plain reply carries only Stored.
	for k := range out {
		e := &out[k]
		if k < len(res.Throttled) && res.Throttled[k] {
			e.Throttled, e.RetryAfterSeconds = true, res.RetryAfterSeconds
			continue
		}
		if k < len(res.Stored) {
			e.Stored = res.Stored[k]
		}
		if k < len(res.Outcomes) {
			e.Outcome = res.Outcomes[k]
		}
		if k < len(res.ChargeErrs) {
			e.ChargeErr = res.ChargeErrs[k]
		}
		if k < len(res.AppendErrs) {
			e.AppendErr = res.AppendErrs[k]
		}
	}
	return out
}

// ScanRecord is one response with its per-shard sequence number.
type ScanRecord struct {
	Seq      uint64          `json:"seq"`
	Response survey.Response `json:"response"`
}

// ScanBatch is one page of a cursor scan.
type ScanBatch struct {
	Records []ScanRecord `json:"records,omitempty"`
	// NextSeq resumes the scan (the last delivered seq, or the request
	// cursor when the page is empty).
	NextSeq uint64 `json:"next_seq"`
	// More reports whether the shard may hold records beyond this page.
	More bool `json:"more"`
}

// CountResult carries a per-shard response count.
type CountResult struct {
	Count int `json:"count"`
}

// Partial is one shard's partial accumulator for a survey: the fold
// state the frontend Merges at query time, plus the coordinates needed
// to trust it (the per-shard cursor it covers and the definition
// fingerprint it was folded under).
//
// The fetch is conditional: the request carries the cursor the caller
// already holds (`have`), and the node answers with the cheapest
// response that brings the caller current —
//
//   - NotModified (no state): the shard cursor equals have; the
//     caller's cached copy is already exact.
//   - Delta (From == have): State is the fold of only the responses
//     with seq in (From, Cursor] — the caller Merges it into its cached
//     accumulator instead of replacing it. O(new responses) to build,
//     O(questions × levels) on the wire like any snapshot.
//   - Full (neither flag): State covers seq [1, Cursor]; the caller
//     replaces its cached copy. This is the have=0 cold fetch and the
//     resync path when the caller's cursor is ahead of the shard (the
//     shard store was rebuilt).
type Partial struct {
	SurveyID    string                      `json:"survey_id"`
	Shard       int                         `json:"shard"`
	Fingerprint string                      `json:"fingerprint"`
	Cursor      uint64                      `json:"cursor"`
	State       *aggregate.AccumulatorState `json:"state,omitempty"`
	// NotModified reports the shard cursor equals the request's have
	// cursor; no state is shipped.
	NotModified bool `json:"not_modified,omitempty"`
	// Delta reports State covers only (From, Cursor]; the caller merges
	// it over a cached copy whose cursor is exactly From.
	Delta bool   `json:"delta,omitempty"`
	From  uint64 `json:"from,omitempty"`
	// Stale marks state served by a replica that has not been promoted:
	// it may lag the failed primary's last durable appends. Frontends
	// carry the mark to the requester's answer (stale_shards) and count
	// it on their health surface, so stale reads are labeled, never
	// guessed.
	Stale bool `json:"stale,omitempty"`
}

// PartialsRequest is one conditional partial fetch for several of a
// node's shards: the cursor the caller holds for each (0 = none).
type PartialsRequest struct {
	SurveyID string        `json:"survey_id"`
	Shards   []ShardCursor `json:"shards"`
}

// ShardCursor is one shard of a PartialsRequest and the cursor the
// caller already holds for it.
type ShardCursor struct {
	Shard int    `json:"shard"`
	Have  uint64 `json:"have"`
}

// Validate refuses a request no node answers: no shard, a shard named
// twice, or more shards than the cluster has.
func (r *PartialsRequest) Validate(totalShards int) error {
	if len(r.Shards) == 0 {
		return errors.New("partial request names no shard")
	}
	if len(r.Shards) > totalShards {
		return fmt.Errorf("partial request names %d shards, the cluster has %d", len(r.Shards), totalShards)
	}
	seen := make(map[int]bool, len(r.Shards))
	for _, sc := range r.Shards {
		if seen[sc.Shard] {
			return fmt.Errorf("partial request names shard %d twice", sc.Shard)
		}
		seen[sc.Shard] = true
	}
	return nil
}

// PartialsResult answers a PartialsRequest: one Partial per requested
// shard, in request order.
type PartialsResult struct {
	Partials []*Partial `json:"partials"`
}

// PublishRequest broadcasts a survey definition. Replace selects the
// republish path (overwrite an existing definition).
type PublishRequest struct {
	Survey  *survey.Survey `json:"survey"`
	Replace bool           `json:"replace,omitempty"`
}

// Backend is what a cluster node exposes through a Handler. The server
// package's Node and Replica implement it over a journaling
// shardset.Local plus the host's live partial accumulators.
type Backend interface {
	// Meta reports the node's shard ownership.
	Meta() Meta
	// Submit is the one write: run a node call's sections — each a
	// routed batch for one shard — through the host's gates, and durably append what
	// passes. The call takes one admission slot and one ledger commit, and
	// its sections' appends run concurrently. ctx is the caller's — a
	// sender that gave up must not keep a queue slot. The outcomes are
	// aligned with sections.
	//
	// A section's refusal is its outcome's error with a nil result,
	// decided before any of its per-record state (rate-limit buckets,
	// ledger, store) changes, and it refuses that section alone: a
	// section failing Validate, ErrNotOwned for a shard (or a charge's
	// budget shard) the host does not hold, FencedError for a stale or
	// unaccepted placement epoch, OverloadedError when admission sheds
	// the call.
	//
	// Per-record verdicts travel inside a successful result (see
	// SubmitResult): throttled entries; and, on a charged batch, budget
	// rejections, undecided charges (enforce-mode entries are not
	// appended, log-mode entries are), and appends that failed after an
	// accepted charge, which the host refunds before replying. Ordering
	// is charge-then-append: a crash between the two over-counts a
	// worker's spend, never under-counts it.
	//
	// The one result-with-error shape: a plain batch (no charges, nothing
	// throttled) whose append fails returns the durable prefix beside the
	// error, which the Handler reports inline in the section's answer.
	Submit(ctx context.Context, sections []SubmitRequest) []SubmitOutcome
	// ScanShard streams one global shard's slice of a survey beyond a
	// per-shard cursor.
	ScanShard(shard int, surveyID string, fromSeq uint64, fn func(seq uint64, r *survey.Response) error) error
	// CountShard returns one global shard's response count.
	CountShard(shard int, surveyID string) int
	// PartialState returns the shard's current partial accumulator for
	// the survey, caught up to the shard's latest append. have is the
	// per-shard cursor the caller already holds (0 = none): the node
	// answers not-modified, a delta past have, or a full snapshot —
	// see Partial.
	PartialState(shard int, surveyID string, have uint64) (*Partial, error)
	// Tail serves WAL-tail shipping for one global shard. A non-empty
	// follower id registers the caller for journal-truncation
	// accounting: the offset it sends is its ack (everything before it
	// is applied), and the journal retains entries every registered
	// follower still needs.
	Tail(shard int, epoch, offset uint64, max int, follower string) (*shardset.TailBatch, error)
	// PutSurvey / ReplaceSurvey / Survey / Surveys mirror the survey
	// metadata surface (replicated to every shard by the backend).
	PutSurvey(sv *survey.Survey) error
	ReplaceSurvey(sv *survey.Survey) error
	Survey(id string) (*survey.Survey, error)
	Surveys() ([]*survey.Survey, error)
}

// OverloadedError reports a node that shed the whole batch at
// admission (queue full): nothing was appended, the sender should
// retry the entire batch after RetryAfterSeconds. The Handler maps it
// to 429 with a Retry-After header; the Client maps the 429 back.
type OverloadedError struct{ RetryAfterSeconds int }

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("shardrpc: node overloaded, retry after %ds", e.RetryAfterSeconds)
}

// ErrNotOwned is the sentinel a Backend returns from shard-addressed
// calls for global shards outside its owned subset; the Handler maps it
// to 421.
type ErrNotOwned struct{ Shard int }

// Error implements error.
func (e *ErrNotOwned) Error() string {
	return fmt.Sprintf("shardrpc: shard %d not owned by this node", e.Shard)
}

// ErrFenced is the sentinel inside every epoch-fencing refusal, local
// or remote: errors.Is(err, ErrFenced) answers "was this write refused
// because the sender's view of shard ownership is stale?" uniformly on
// both sides of the wire.
var ErrFenced = errors.New("shardrpc: write fenced by shard placement epoch")

// FencedError refuses a write whose placement epoch is stale, or any
// write addressed to a shard the receiver no longer (or does not yet)
// own the writes for: a demoted primary fences everything, an
// unpromoted replica fences everything, a current primary fences
// epochs older than the manifest it has applied. Nothing was appended.
// The Handler maps it to 412 (precondition failed); the Client maps
// the 412 back. The sender's correct move is to refresh its placement
// manifest and re-route — the frontend surfaces it to workers as a 503
// with Retry-After while the failover completes.
type FencedError struct {
	Shard int
	// Epoch is the stale epoch the write carried (0 = unstamped).
	Epoch uint64
	// Current is the receiver's epoch for the shard, when it has one.
	Current uint64
}

// Error implements error.
func (e *FencedError) Error() string {
	return fmt.Sprintf("shardrpc: shard %d write fenced (sender epoch %d, current %d)", e.Shard, e.Epoch, e.Current)
}

// Unwrap ties every fencing refusal to the ErrFenced sentinel.
func (e *FencedError) Unwrap() error { return ErrFenced }

// FailoverError reports a shard whose primary the frontend currently
// believes dead and whose replica has not been promoted: writes have
// nowhere safe to land. Nothing was sent. The server maps it to a 503
// with Retry-After — the worker retries once promotion (seconds, not
// minutes) swaps the manifest.
type FailoverError struct{ Shard int }

// Error implements error.
func (e *FailoverError) Error() string {
	return fmt.Sprintf("shardrpc: shard %d failed over, writes fenced until promotion", e.Shard)
}

// IsTransportError reports whether a Client call failed before an HTTP
// status came back — connection refused/reset, timeout, DNS: the
// signature of a dead or unreachable peer, as opposed to a peer that
// answered with an error. The failover detector treats it as evidence
// the node is down; every status-carrying failure unwraps through
// remoteError instead, and a reply that breaks its contract through
// errProtocol.
func IsTransportError(err error) bool {
	if err == nil {
		return false
	}
	var re *remoteError
	return !errors.As(err, &re) && !errors.Is(err, errProtocol)
}

// errProtocol marks a reply that arrived whole but breaks its contract
// (a batched partial reply that does not answer the shards asked for):
// the peer is alive and wrong, which no failover can fix.
var errProtocol = errors.New("shardrpc: protocol error")
