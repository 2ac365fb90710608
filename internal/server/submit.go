package server

import (
	"context"

	"loki/internal/budget"
	"loki/internal/shardrpc"
	"loki/internal/survey"
)

// Submit implements shardrpc.Backend: the one path a routed batch takes
// through a shard host, whichever role runs it and whatever the batch
// carries. The stages run in this order and each is decided once:
//
//	validate    400  empty batch, misaligned charges
//	ownership   421  shard not held by this host
//	fence       412  stale epoch stamp, demoted or unpromoted shard
//	admission   429  the bounded submit queue is full (or the caller left it)
//	routing     400  charges sent to a host without budget shards
//	            421  a charge's worker hashes to an unhosted budget shard
//	throttle    per record: the worker's rate-limit bucket is empty
//	charge      per record: rejected, or undecided while enforcing
//	append      the survivors, one durability round
//	refund      charges accepted for records the store then refused
//	advance     each touched survey's shard partial
//
// Everything above "throttle" refuses the batch whole, with an error
// and before any per-record state — bucket, ledger, store — changes, so
// a sender that re-routes and resends has lost nothing. From throttle
// down, verdicts are per record and travel in the request-aligned
// result. Charge-then-append is the privacy-safe order: a crash between
// the two over-counts a worker's spend, never under-counts it.
//
// The common batch — gates off or nothing refused — allocates no mask
// and no index: the request's own slice is what gets appended.
func (h *shardHost) Submit(ctx context.Context, req *shardrpc.SubmitRequest) (*shardrpc.SubmitResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	shard, err := h.localShard(req.Shard)
	if err != nil {
		return nil, err
	}
	if err := h.checkFence(shard, req.Shard, req.Epoch); err != nil {
		return nil, err
	}
	if a := h.srv.adm; a != nil {
		if !a.acquire(ctx) {
			return nil, &shardrpc.OverloadedError{RetryAfterSeconds: OverloadRetryAfterSeconds}
		}
		defer a.release()
	}
	rs, charges := req.Responses, req.Charges
	var set *budget.Set
	if len(charges) > 0 {
		if set, err = h.budgetSet(); err != nil {
			return nil, err
		}
		// A batch spanning hosted and unhosted budget shards fails whole
		// (the sender's colocation test is wrong), never half-commits.
		for k := range charges {
			if w := charges[k].WorkerID; w != "" {
				if b := budget.Route(w, set.Shards()); !set.Hosts(b) {
					return nil, &shardrpc.ErrNotOwned{Shard: b}
				}
			}
		}
	}

	res := &shardrpc.SubmitResult{}
	if l := h.srv.limiter; l != nil {
		throttled := 0
		for k := range rs {
			retryAfter, ok := l.allow(rs[k].WorkerID)
			if ok {
				continue
			}
			if res.Throttled == nil {
				res.Throttled = make([]bool, len(rs))
			}
			res.Throttled[k] = true
			res.RetryAfterSeconds = max(res.RetryAfterSeconds, retryAfter)
			throttled++
		}
		if throttled == len(rs) {
			res.Stored = make([]int, len(rs))
			return res, nil
		}
	}
	if set != nil {
		// Debit every charged, unthrottled record in ONE ledger commit: a
		// submit batch scatters across most of the hosted budget shards,
		// and the shared journal turns that scatter into a single
		// group-committed fsync. Each record's outcome, or the commit's
		// error, lands at its request position.
		res.Outcomes = make([]budget.Outcome, len(rs))
		groups := make(map[int][]budget.Charge)
		pos := make(map[int][]int) // pos[b][j]: request position of groups[b][j]
		for k := range charges {
			if charges[k].WorkerID == "" || throttledAt(res, k) {
				continue
			}
			b := budget.Route(charges[k].WorkerID, set.Shards())
			groups[b] = append(groups[b], charges[k])
			pos[b] = append(pos[b], k)
		}
		if len(groups) > 0 {
			outs, err := set.ChargeShards(groups)
			if err != nil {
				res.ChargeErrs = make([]string, len(rs))
			}
			for b, ks := range pos {
				for j, k := range ks {
					if err != nil {
						res.ChargeErrs[k] = err.Error()
					} else {
						res.Outcomes[k] = outs[b][j]
					}
				}
			}
		}
	}
	// keep reports whether record k goes on to the append. The ledger
	// keeps out a rejected charge and an undecided one that asked for
	// enforcement; uncharged entries and log-mode entries whose charge
	// errored fail open.
	keep := func(k int) bool {
		switch {
		case throttledAt(res, k):
			return false
		case set == nil || charges[k].WorkerID == "":
			return true
		case res.ChargeErrs != nil && res.ChargeErrs[k] != "":
			return !charges[k].Enforce
		}
		return !res.Outcomes[k].Rejected
	}
	kept := 0
	for k := range rs {
		if keep(k) {
			kept++
		}
	}
	// survivors are what gets appended; at[j] is survivor j's request
	// position, nil when every record survived.
	survivors, at := rs, []int(nil)
	if kept < len(rs) {
		survivors = make([]survey.Response, 0, kept)
		at = make([]int, 0, kept)
		for k := range rs {
			if keep(k) {
				survivors = append(survivors, rs[k])
				at = append(at, k)
			}
		}
	}
	counts, aerr := h.local.AppendShardBatch(shard, survivors)
	for _, id := range uniqueSurveyIDs(survivors[:len(counts)]) {
		h.srv.advanceShard(id, shard)
	}
	res.Appended = len(counts)
	if set == nil && res.Throttled == nil {
		// The plain shape: Stored is the durable prefix, and a failure is
		// the call's error with that prefix beside it.
		res.Stored = counts
		return res, aerr
	}
	// A charged or throttled reply is request-aligned: a refusal in the
	// middle of the batch means the durable set is no longer a prefix,
	// and append failures travel per record inside the reply.
	res.Stored = make([]int, len(rs))
	for j := range survivors {
		k := j
		if at != nil {
			k = at[j]
		}
		if j < len(counts) {
			res.Stored[k] = counts[j]
			continue
		}
		if res.AppendErrs == nil {
			res.AppendErrs = make([]string, len(rs))
		}
		res.AppendErrs[k] = "append did not report this record durable"
		if aerr != nil {
			res.AppendErrs[k] = aerr.Error()
		}
		// Not durable: compensate an accepted charge before replying, so
		// the ledger never counts spend for a response the store refused.
		if set != nil && charges[k].WorkerID != "" && (res.ChargeErrs == nil || res.ChargeErrs[k] == "") {
			if rerr := set.Refund(charges[k]); rerr != nil {
				h.srv.logf("budget refund for worker %q after failed charged append: %v", charges[k].WorkerID, rerr)
			}
			res.Outcomes[k] = budget.Outcome{}
		}
	}
	return res, nil
}

// throttledAt reports whether the rate limit refused record k.
func throttledAt(res *shardrpc.SubmitResult, k int) bool {
	return res.Throttled != nil && res.Throttled[k]
}

// uniqueSurveyIDs returns the distinct survey IDs of a batch, in first-
// appearance order (batches are usually one survey; the map only pays
// off when they are not).
func uniqueSurveyIDs(rs []survey.Response) []string {
	if len(rs) == 0 {
		return nil
	}
	out := []string{rs[0].SurveyID}
	if len(rs) == 1 {
		return out
	}
	seen := map[string]bool{rs[0].SurveyID: true}
	for i := 1; i < len(rs); i++ {
		if !seen[rs[i].SurveyID] {
			seen[rs[i].SurveyID] = true
			out = append(out, rs[i].SurveyID)
		}
	}
	return out
}

// advanceShard best-effort folds one shard's partial after a routed
// append (the shardrpc twin of the public submit handler's warm-up).
func (s *Server) advanceShard(surveyID string, shard int) {
	sv, err := s.router.Survey(surveyID)
	if err != nil {
		return
	}
	ls, err := s.liveFor(sv)
	if err != nil {
		return
	}
	if err := ls.parts[shard].advance(s.router); err != nil {
		s.logf("live aggregate catch-up for %q shard %d: %v", surveyID, shard, err)
	}
}
