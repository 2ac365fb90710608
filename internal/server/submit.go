package server

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"sync"

	"loki/internal/budget"
	"loki/internal/core"
	"loki/internal/shardrpc"
	"loki/internal/store"
	"loki/internal/survey"
)

// Submit implements shardrpc.Backend: a node call from a frontend.
func (h *shardHost) Submit(ctx context.Context, secs []shardrpc.SubmitRequest) []shardrpc.SubmitOutcome {
	return h.submit(ctx, secs, h.srv.adm)
}

// submit is the one path a node call takes through a shard host —
// sections, each a batch routed to one shard; a per-shard request is
// the call of one section — whichever role runs it, whichever door it
// came in by — the shardrpc surface or the host's own public API
// (dispatchLocal) — and whatever it carries. The stages run in this
// order and each is decided once:
//
//	validate    400  an empty section, charges not aligned with responses
//	ownership   421  shard not held by this host
//	fence       412  stale epoch stamp, demoted or unpromoted shard
//	admission   429  the bounded submit queue is full (or the caller left
//	                 it); one slot for the whole call
//	routing     400  charges sent to a host without budget shards
//	            421  a charge's worker hashes to an unhosted budget shard
//	throttle    per record: the worker's rate-limit bucket is empty
//	charge      per record: rejected, or undecided while enforcing; every
//	            section's charges in one ledger commit (commitCharges)
//	append      each section's survivors to its shard, one durability
//	            round; the sections side by side
//	refund      charges accepted for records the store then refused
//	advance     each touched survey's shard partial
//
// gate is the admission stage; nil means the caller already holds its
// slot (the public handlers' admit wrapper took it before decoding).
//
// Everything above "throttle" refuses a section whole, with an error and
// before any of its per-record state — bucket, ledger, store — changes,
// so a sender that re-routes and resends has lost nothing; a refused
// section fails alone. From throttle down, verdicts are per record and
// travel in the section's request-aligned result. Charge-then-append is
// the privacy-safe order: a crash between the two over-counts a worker's
// spend, never under-counts it. The outcomes are aligned with reqs.
//
// The common section — gates off or nothing refused — allocates no mask
// and no index: the request's own slice is what gets appended.
func (h *shardHost) submit(ctx context.Context, reqs []shardrpc.SubmitRequest, gate *admission) []shardrpc.SubmitOutcome {
	outs := make([]shardrpc.SubmitOutcome, len(reqs))
	secs := make([]hostSection, 0, len(reqs))
	for i := range reqs {
		sec := hostSection{req: &reqs[i], out: &outs[i], res: &shardrpc.SubmitResult{}}
		err := sec.req.Validate()
		if err == nil {
			sec.shard, err = h.localShard(sec.req.Shard)
		}
		if err == nil {
			err = h.checkFence(sec.shard, sec.req.Shard, sec.req.Epoch)
		}
		if err != nil {
			outs[i].Err = err
			continue
		}
		secs = append(secs, sec)
	}
	if len(secs) == 0 {
		return outs
	}
	if gate != nil {
		if !gate.acquire(ctx) {
			for _, sec := range secs {
				sec.out.Err = &shardrpc.OverloadedError{RetryAfterSeconds: OverloadRetryAfterSeconds}
			}
			return outs
		}
		defer gate.release()
	}
	live := secs[:0]
	for _, sec := range secs {
		if err := h.routeCharges(&sec); err != nil {
			sec.out.Err = err
		} else if h.throttle(&sec) {
			live = append(live, sec)
		}
	}
	h.charge(live)
	var wg sync.WaitGroup
	for i := range live {
		sec := &live[i]
		sec.survive()
		appendSection := func() {
			sec.counts, sec.aerr = h.local.AppendShardBatch(sec.shard, sec.survivors)
		}
		if i == len(live)-1 {
			appendSection() // the last (usually the only) one inline
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendSection()
		}()
	}
	wg.Wait()
	for i := range live {
		h.settleSection(&live[i])
	}
	return outs
}

// hostSection is one section of a node call on its way through submit.
type hostSection struct {
	req   *shardrpc.SubmitRequest
	out   *shardrpc.SubmitOutcome
	shard int // local index
	// set is the host's budget set when the section carries charges.
	set *budget.Set
	res *shardrpc.SubmitResult
	// survivors are what gets appended; at[j] is survivor j's request
	// position, nil when every record survived.
	survivors []survey.Response
	at        []int
	counts    []int
	aerr      error
}

// routeCharges is the routing stage: a section that carries charges
// needs a budget set here, and every charge's worker must hash to a
// budget shard it hosts — a section spanning hosted and unhosted budget
// shards fails whole (the sender's colocation test is wrong), never
// half-commits.
func (h *shardHost) routeCharges(sec *hostSection) error {
	charges := sec.req.Charges
	if len(charges) == 0 {
		return nil
	}
	set, err := h.budgetSet()
	if err != nil {
		return err
	}
	for k := range charges {
		if w := charges[k].WorkerID; w != "" {
			if b := budget.Route(w, set.Shards()); !set.Hosts(b) {
				return &shardrpc.ErrNotOwned{Shard: b}
			}
		}
	}
	sec.set = set
	return nil
}

// throttle is the rate-limit stage. It reports whether anything of the
// section goes on; a section whose every record the limit refused is
// answered here.
func (h *shardHost) throttle(sec *hostSection) bool {
	l, rs, res := h.srv.limiter, sec.req.Responses, sec.res
	if l == nil {
		return true
	}
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
	if throttled < len(rs) {
		return true
	}
	res.Stored = make([]int, len(rs))
	sec.out.Result = res
	return false
}

// charge is the charge stage: it debits every charged, unthrottled
// record of the call's sections in ONE ledger commit — a call scatters
// across most of the hosted budget shards, and the shared journal turns
// that scatter into a single group-committed fsync. Each record's
// outcome, or the commit's error, lands at its request position.
func (h *shardHost) charge(secs []hostSection) {
	var groups map[int][]budget.Charge
	var pos map[int][][2]int // pos[b][j]: section and request position of groups[b][j]
	for i := range secs {
		sec := &secs[i]
		if sec.set == nil {
			continue
		}
		sec.res.Outcomes = make([]budget.Outcome, len(sec.req.Responses))
		for k, c := range sec.req.Charges {
			if c.WorkerID == "" || throttledAt(sec.res, k) {
				continue
			}
			if groups == nil {
				groups, pos = make(map[int][]budget.Charge), make(map[int][][2]int)
			}
			b := budget.Route(c.WorkerID, sec.set.Shards())
			groups[b] = append(groups[b], c)
			pos[b] = append(pos[b], [2]int{i, k})
		}
	}
	if groups == nil {
		return
	}
	outs, err := h.commitCharges(groups)
	for b, ps := range pos {
		for j, p := range ps {
			res := secs[p[0]].res
			if err == nil {
				res.Outcomes[p[1]] = outs[b][j]
				continue
			}
			if res.ChargeErrs == nil {
				res.ChargeErrs = make([]string, len(res.Outcomes))
			}
			res.ChargeErrs[p[1]] = err.Error()
		}
	}
}

// commitCharges is the ledger commit both charge doors share — a submit
// call's charges (charge) and the budget charge endpoint's groups
// (Node.BudgetCharge): every group in one ChargeShards call, so one
// journal flush, one group-committed fsync and one ledger record per
// call.
func (h *shardHost) commitCharges(groups map[int][]budget.Charge) (map[int][]budget.Outcome, error) {
	set, err := h.budgetSet()
	if err != nil {
		return nil, err
	}
	return set.ChargeShards(groups)
}

// survive picks the records that go on to the append. The ledger keeps
// out a rejected charge and an undecided one that asked for
// enforcement; uncharged entries and log-mode entries whose charge
// errored fail open.
func (sec *hostSection) survive() {
	rs, charges, res := sec.req.Responses, sec.req.Charges, sec.res
	keep := func(k int) bool {
		switch {
		case throttledAt(res, k):
			return false
		case sec.set == nil || charges[k].WorkerID == "":
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
	sec.survivors = rs
	if kept < len(rs) {
		sec.survivors = make([]survey.Response, 0, kept)
		sec.at = make([]int, 0, kept)
		for k := range rs {
			if keep(k) {
				sec.survivors = append(sec.survivors, rs[k])
				sec.at = append(sec.at, k)
			}
		}
	}
}

// settleSection runs the refund and advance stages for one appended
// section and writes its outcome.
func (h *shardHost) settleSection(sec *hostSection) {
	charges, res, counts, survivors := sec.req.Charges, sec.res, sec.counts, sec.survivors
	for j := range counts {
		// Batches are usually one survey; advancing one twice costs a
		// count and finds nothing to fold.
		if id := survivors[j].SurveyID; j == 0 || id != survivors[j-1].SurveyID {
			h.srv.advanceShard(id, sec.shard)
		}
	}
	res.Appended = len(counts)
	sec.out.Result = res
	if sec.set == nil && res.Throttled == nil {
		// The plain shape: Stored is the durable prefix, and a failure is
		// the section's error with that prefix beside it.
		res.Stored, sec.out.Err = counts, sec.aerr
		return
	}
	// A charged or throttled reply is request-aligned: a refusal in the
	// middle of the batch means the durable set is no longer a prefix,
	// and append failures travel per record inside the reply.
	res.Stored = make([]int, len(sec.req.Responses))
	for j := range survivors {
		k := j
		if sec.at != nil {
			k = sec.at[j]
		}
		if j < len(counts) {
			res.Stored[k] = counts[j]
			continue
		}
		if res.AppendErrs == nil {
			res.AppendErrs = make([]string, len(sec.req.Responses))
		}
		res.AppendErrs[k] = "append did not report this record durable"
		if sec.aerr != nil {
			res.AppendErrs[k] = sec.aerr.Error()
		}
		// Not durable: compensate an accepted charge before replying, so
		// the ledger never counts spend for a response the store refused.
		if sec.set != nil && charges[k].WorkerID != "" && (res.ChargeErrs == nil || res.ChargeErrs[k] == "") {
			h.srv.refund(sec.set, charges[k])
			res.Outcomes[k] = budget.Outcome{}
		}
	}
}

// throttledAt reports whether the rate limit refused record k.
func throttledAt(res *shardrpc.SubmitResult, k int) bool {
	return res.Throttled != nil && res.Throttled[k]
}

// advanceShard keeps a shard's partial hot after an append: it folds
// what the shard newly stored, so the next read pays nothing. Best
// effort — the records are already durable, and reads catch up from the
// cursor themselves. The survey's live set is taken as it stands: a
// republish drops it (invalidateLive), so only a missing set costs a
// lookup of the definition, not every append.
func (s *Server) advanceShard(surveyID string, shard int) {
	s.liveMu.Lock()
	ls := s.live[surveyID]
	s.liveMu.Unlock()
	if ls == nil {
		sv, err := s.router.Survey(surveyID)
		if err != nil {
			return
		}
		if ls, err = s.liveFor(sv); err != nil {
			return
		}
	}
	if err := ls.parts[shard].advance(s.router); err != nil {
		s.logf("live aggregate catch-up for %q shard %d: %v", surveyID, shard, err)
	}
}

// ---------------------------------------------------------------------------
// The public submit path

// submitRecord is one response on its way through the public submit
// pipeline: what the stages learn about it, and the refusal of the first
// stage that turned it away (nil while it stands, and at the end for a
// record that is durably stored).
type submitRecord struct {
	resp  *survey.Response
	sv    *survey.Survey
	lvl   core.Level
	shard int
	// charge is the record's price; its WorkerID is empty while budget
	// accounting is off.
	charge budget.Charge
	stored int
	ref    *submitRefusal
}

// submit runs public submits — a single is a batch of one — through the
// one stage list every role shares:
//
//	resolve    404  unknown survey (400 for a record that names none)
//	contract   400  unknown privacy level, a level above none not marked
//	                obfuscated, answers that do not fit the survey
//	price      the zCDP cost of the response at its level, when budget
//	           accounting is on
//	route      the shard the response belongs to
//	dispatch   the role-bound stage: dispatchLocal or dispatchRemote
//	settle     each record's verdict to its HTTP answer, in one mapping
//	tally      the served counters, and on a frontend the partial cache's
//	           read-your-writes floor
//
// Decoding and admission come before it (the handlers and their admit
// wrapper), encoding after. The returned records are aligned with rs.
func (s *Server) submit(ctx context.Context, rs []survey.Response) []submitRecord {
	recs := make([]submitRecord, len(rs))
	// Batches are mostly one survey: resolve each distinct one once.
	type resolved struct {
		sv  *survey.Survey
		ref *submitRefusal
	}
	var surveys map[string]resolved
	for i := range rs {
		rec := &recs[i]
		rec.resp = &rs[i]
		if rec.resp.SurveyID == "" {
			rec.ref = &submitRefusal{status: http.StatusBadRequest, msg: "response missing survey_id"}
			continue
		}
		rv, seen := surveys[rec.resp.SurveyID]
		if !seen {
			var err error
			if rv.sv, err = s.router.Survey(rec.resp.SurveyID); err != nil {
				rv.ref = surveyRefusal(err)
			}
			if len(rs) > 1 {
				if surveys == nil {
					surveys = make(map[string]resolved)
				}
				surveys[rec.resp.SurveyID] = rv
			}
		}
		if rec.sv, rec.ref = rv.sv, rv.ref; rec.ref != nil {
			continue
		}
		if rec.ref = s.checkContract(rec); rec.ref != nil {
			continue
		}
		if s.budgetMode != budgetOff {
			if rec.ref = s.price(rec); rec.ref != nil {
				continue
			}
		}
		rec.shard = s.router.Route(rec.sv.ID, rec.resp.WorkerID)
	}
	s.dispatch(ctx, recs)
	for i := range recs {
		rec := &recs[i]
		if rec.ref != nil {
			continue
		}
		s.served.Add(1)
		s.levelTally[rec.lvl].Add(1)
		// A frontend's nodes fold their own partials; what it owes its
		// readers is to revalidate the shard on the next read instead of
		// serving a cached merge that predates this submit.
		if s.cache != nil && rec.stored > 0 {
			s.cache.noteSubmit(rec.sv.ID, rec.shard, uint64(rec.stored))
		}
	}
	return recs
}

// surveyRefusal answers a survey that did not resolve.
func surveyRefusal(err error) *submitRefusal {
	status := http.StatusInternalServerError
	if errors.Is(err, store.ErrNotFound) {
		status = http.StatusNotFound
	}
	return &submitRefusal{status: status, msg: err.Error()}
}

// checkContract is the privacy-level contract. The server cannot verify
// noise was added (by design it never sees the raw answers), but it
// enforces what the response declares: a level above none must be marked
// obfuscated.
func (s *Server) checkContract(rec *submitRecord) *submitRefusal {
	lvl, err := core.ParseLevel(rec.resp.PrivacyLevel)
	if err != nil {
		return &submitRefusal{status: http.StatusBadRequest, msg: err.Error()}
	}
	if lvl != core.None && !rec.resp.Obfuscated {
		return &submitRefusal{status: http.StatusBadRequest,
			msg: "responses at privacy levels above none must be obfuscated at source"}
	}
	if err := rec.resp.Validate(rec.sv); err != nil {
		return &submitRefusal{status: http.StatusBadRequest, msg: err.Error()}
	}
	rec.lvl = lvl
	return nil
}

// price costs one submit for the ledger.
func (s *Server) price(rec *submitRecord) *submitRefusal {
	rho, unprotected, err := s.obf.ResponseRho(rec.sv, rec.lvl)
	if err != nil {
		return &submitRefusal{status: http.StatusBadRequest, msg: err.Error()}
	}
	rec.charge = budget.Charge{
		WorkerID:    rec.resp.WorkerID,
		SurveyID:    rec.sv.ID,
		Rho:         rho,
		Unprotected: unprotected,
		Enforce:     s.budgetMode == budgetEnforcing,
	}
	return nil
}

// groupByShard returns, per shard in first-appearance order, the
// positions in recs of the records still standing (no refusal yet) that
// are routed to it.
func groupByShard(recs []submitRecord) [][]int {
	var groups [][]int
next:
	for k := range recs {
		if recs[k].ref != nil {
			continue
		}
		for g := range groups {
			if recs[groups[g][0]].shard == recs[k].shard {
				groups[g] = append(groups[g], k)
				continue next
			}
		}
		groups = append(groups, []int{k})
	}
	return groups
}

// dispatchLocal is the dispatch stage of a server that owns its shards
// (standalone, a node's own public API): the standing records enter the
// shard host's pipeline in-process as one call, a section per shard,
// below its admission gate — the handler's admit wrapper already holds
// the slot. Fence, charge routing, throttle, charge, append, refund and
// advance are the host's, the same code a frontend's call runs through;
// the sections commit side by side, so a batch spanning several shards
// waits for the slowest durability round, not for their sum.
func (s *Server) dispatchLocal(ctx context.Context, recs []submitRecord) {
	groups := groupByShard(recs)
	secs := make([]shardrpc.SubmitRequest, len(groups))
	for g, at := range groups {
		secs[g] = s.localSection(recs, at)
	}
	for g, o := range s.host.submit(ctx, secs, nil) {
		for j, e := range shardrpc.SubmitEntries(len(groups[g]), o.Result, o.Err) {
			s.settle(&recs[groups[g][j]], e)
		}
	}
}

// localSection is the section for the records of recs at the given
// positions, all routed to one shard.
func (s *Server) localSection(recs []submitRecord, at []int) shardrpc.SubmitRequest {
	req := shardrpc.SubmitRequest{Shard: s.router.GlobalID(recs[at[0]].shard), Responses: make([]survey.Response, len(at))}
	for j, k := range at {
		rec := &recs[k]
		req.Responses[j] = *rec.resp
		if rec.charge.WorkerID == "" {
			continue
		}
		// A node hosts a slice of the budget shard space. Enforcing, a
		// worker whose shard lives elsewhere is the host's to refuse (421:
		// submit through a frontend, which can reach it); in log mode
		// accounting is advisory, so the submit goes unmetered.
		if set := s.host.budget; !rec.charge.Enforce && !set.Hosts(budget.Route(rec.charge.WorkerID, set.Shards())) {
			s.logf("budget shard of worker %q is not hosted here (log mode, submit admitted unmetered)", rec.charge.WorkerID)
			continue
		}
		if req.Charges == nil {
			req.Charges = make([]budget.Charge, len(at))
		}
		req.Charges[j] = rec.charge
	}
	return req
}

// dispatchRemote is a frontend's dispatch stage. What it binds
// differently from a shard host: the throttle is this frontend's own
// limiter (the owning node applies its own behind it); a record's charge
// rides its submit call where the node that owns the response shard also
// hosts the worker's budget shard, and is sent ahead through the charger
// — then refunded if the record is not stored — only where it does not;
// and the append is the router's node queue, which coalesces this
// request's records with every other request's. Both the charges sent
// ahead and the submits are queued whole before waiting on any, so the
// request costs at most one charge call and one submit call per node.
func (s *Server) dispatchRemote(_ context.Context, recs []submitRecord) {
	// pre holds what a charge sent ahead decided for a record that still
	// goes to its node; ahead marks the admitted ones (refund unless stored).
	pre := make([]shardrpc.SubmitEntry, len(recs))
	ahead := make([]bool, len(recs))
	var sendAhead []int
	for k := range recs {
		rec := &recs[k]
		if rec.ref != nil {
			continue
		}
		if l := s.limiter; l != nil {
			if retryAfter, ok := l.allow(rec.resp.WorkerID); !ok {
				s.settle(rec, shardrpc.SubmitEntry{Throttled: true, RetryAfterSeconds: retryAfter})
				continue
			}
		}
		if s.budgetMode != budgetOff && !s.remote.CanPiggybackCharge(rec.shard, rec.resp.WorkerID) {
			sendAhead = append(sendAhead, k)
		}
	}
	if len(sendAhead) > 0 {
		charges := make([]budget.Charge, len(sendAhead))
		for j, k := range sendAhead {
			charges[j] = recs[k].charge
		}
		for j, v := range s.charger.ChargeEach(charges) {
			k := sendAhead[j]
			rec := &recs[k]
			switch {
			case v.Err != nil && !rec.charge.Enforce:
				pre[k].ChargeErr = v.Err.Error() // fails open: goes on uncharged
			case v.Err != nil:
				s.settle(rec, shardrpc.SubmitEntry{ChargeErr: v.Err.Error()})
			case v.Outcome.Rejected:
				s.settle(rec, shardrpc.SubmitEntry{Outcome: v.Outcome})
			default:
				pre[k].Outcome, ahead[k] = v.Outcome, true
			}
		}
	}
	var at []int // positions of the records still standing
	for k := range recs {
		if recs[k].ref == nil {
			at = append(at, k)
		}
	}
	if len(at) == 0 {
		return
	}
	shards, rs, charges := make([]int, len(at)), make([]survey.Response, len(at)), make([]budget.Charge, len(at))
	for j, k := range at {
		shards[j], rs[j] = recs[k].shard, *recs[k].resp
		if !ahead[k] && pre[k].ChargeErr == "" {
			charges[j] = recs[k].charge
		}
	}
	for j, e := range s.remote.Submit(shards, rs, charges)() {
		k := at[j]
		if ahead[k] || pre[k].ChargeErr != "" {
			e.Outcome, e.ChargeErr = pre[k].Outcome, pre[k].ChargeErr
		}
		if ahead[k] && (e.Err != nil || e.Throttled || e.AppendErr != "") {
			s.refund(s.cfg.Budget, recs[k].charge)
		}
		s.settle(&recs[k], e)
	}
}

// refund credits back a charge the ledger accepted for a record that was
// then not stored, so the ledger never counts spend for a response the
// store refused.
func (s *Server) refund(ledger budget.Charger, ch budget.Charge) {
	if err := ledger.Refund(ch); err != nil {
		s.logf("budget refund for worker %q after failed append: %v", ch.WorkerID, err)
	}
}

// FailoverRetryAfterSeconds is the Retry-After on 503s for writes to a
// failed-over shard: short, because promotion typically lands within a
// probe interval or two and the client should retry promptly.
const FailoverRetryAfterSeconds = 1

// Failover wire codes on 503 refusals.
const (
	// FailedOverCode: the shard's primary is down and its replica has
	// not been promoted yet — writes are fenced until promotion.
	FailedOverCode = "shard_failed_over"
	// FencedCode: the write carried a placement epoch older than the
	// one the owning node has applied (a promotion is propagating), or
	// went to a shard this server has been demoted for.
	FencedCode = "write_fenced"
	// NodeUnreachableCode: the RPC to the owning node never completed.
	NodeUnreachableCode = "node_unreachable"
)

// BudgetRetryAfterSeconds is the advisory Retry-After on 429
// budget_exhausted answers. A privacy budget is cumulative — it does
// not replenish on a clock — so the hint is a coarse back-off until an
// operator raises the cap or the worker drops to a cheaper privacy
// level, not a lease expiry.
const BudgetRetryAfterSeconds = 3600

// settle is the one mapping from a dispatched record's verdict — its
// entry of the shard host's result, whichever side of the wire the host
// ran on — to the refusal the public API answers with; a record that
// gets none is stored. Entry verdicts in the order the host decided
// them: throttled, append failure (any charge already refunded), an
// enforcing charge that could not be decided (fail closed: admitting
// unmetered spend would defeat the cap), a rejected charge. A batch-level
// error keeps the retryable vocabulary — a shed stays 429 so the
// client's backoff engages; failover refusals (a shard whose primary is
// down, a write fenced by a newer placement epoch, a node that never
// answered) are 503 + Retry-After, because the condition is the
// cluster's, not the request's, and clears once promotion lands; a host
// that does not hold the worker's budget shard is 421; anything else is
// the request's own 400.
func (s *Server) settle(rec *submitRecord, e shardrpc.SubmitEntry) {
	switch {
	case e.Err != nil:
		var overloaded *shardrpc.OverloadedError
		var failedOver *shardrpc.FailoverError
		var notOwned *shardrpc.ErrNotOwned
		var unreachable *url.Error
		switch {
		case errors.As(e.Err, &overloaded):
			rec.ref = &submitRefusal{status: http.StatusTooManyRequests, msg: OverloadedCode,
				retryAfter: max(overloaded.RetryAfterSeconds, OverloadRetryAfterSeconds)}
		case errors.As(e.Err, &failedOver):
			rec.ref = &submitRefusal{status: http.StatusServiceUnavailable, msg: FailedOverCode, retryAfter: FailoverRetryAfterSeconds}
		case errors.Is(e.Err, shardrpc.ErrFenced):
			rec.ref = &submitRefusal{status: http.StatusServiceUnavailable, msg: FencedCode, retryAfter: FailoverRetryAfterSeconds}
		case errors.As(e.Err, &unreachable):
			// A *url.Error is specifically an RPC that never completed (only
			// the shardrpc client produces one here).
			rec.ref = &submitRefusal{status: http.StatusServiceUnavailable, msg: NodeUnreachableCode, retryAfter: FailoverRetryAfterSeconds}
		case errors.As(e.Err, &notOwned):
			rec.ref = &submitRefusal{status: http.StatusMisdirectedRequest, msg: e.Err.Error()}
		default:
			rec.ref = &submitRefusal{status: http.StatusBadRequest, msg: e.Err.Error()}
		}
	case e.Throttled:
		rec.ref = &submitRefusal{status: http.StatusTooManyRequests, msg: RateLimitedCode,
			retryAfter: max(e.RetryAfterSeconds, OverloadRetryAfterSeconds)}
	case e.AppendErr != "":
		rec.ref = &submitRefusal{status: http.StatusBadRequest, msg: e.AppendErr}
	case e.ChargeErr != "" && rec.charge.Enforce:
		rec.ref = &submitRefusal{status: http.StatusServiceUnavailable, msg: "privacy-budget charge failed: " + e.ChargeErr}
	case e.Outcome.Rejected:
		s.budgetRejected.Add(1)
		out := e.Outcome
		rec.ref = &submitRefusal{status: http.StatusTooManyRequests, msg: budget.ErrExhausted.Error(),
			retryAfter: BudgetRetryAfterSeconds, budget: &out}
	case e.ChargeErr != "":
		s.logf("budget charge for worker %q failed (log mode, submit admitted): %s", rec.resp.WorkerID, e.ChargeErr)
		fallthrough
	default:
		if e.Outcome.OverCap {
			s.logf("worker %q over budget cap (spent ε %.4g of %.4g) at level %s; %s mode admits",
				rec.resp.WorkerID, e.Outcome.SpentEpsilon, s.cfg.Budget.Config().CapEpsilon, rec.lvl, s.cfg.BudgetEnforce)
		}
		rec.stored = e.Stored
	}
}
