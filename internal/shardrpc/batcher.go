package shardrpc

import (
	"errors"
	"fmt"
	"sync"

	"loki/internal/budget"
	"loki/internal/survey"
)

// The remote router's submit path group-batches: while one submit RPC
// to a shard is in flight, concurrent appends for the same shard queue
// up and ship as the next batch — the transport-layer twin of the
// ingest store's WAL group commit. One HTTP round-trip then amortizes
// across every caller waiting in the same window, which is what lets a
// frontend saturate its nodes instead of paying a full round-trip per
// response. A lone append still ships immediately (the batcher never
// waits on a timer), so uncontended submit latency is one round-trip.
//
// Entries may carry a piggybacked budget charge (see AppendCharged on
// Remote): the batch then carries charges, and the node decides every
// debit before appending — the enforce-mode hot path at the same one
// round-trip as the plain one.

// maxSubmitBatch bounds one shipped batch; deeper queues ship as
// consecutive batches.
const maxSubmitBatch = 256

// pendingSubmit is one caller's routed response waiting for the next
// batch. charge, when non-nil, rides the same RPC. done receives
// exactly one result.
type pendingSubmit struct {
	resp   *survey.Response
	charge *budget.Charge
	done   chan submitDone
}

type submitDone struct {
	stored int
	out    budget.Outcome
	err    error
}

// shardBatcher owns one shard's submit queue and its single shipping
// goroutine (started lazily on the first append). The target node is
// resolved through the router at every ship, not bound at construction:
// a manifest swap (failover promotion) redirects the very next batch,
// and a shard whose primary is down fails its batches fast with
// FailoverError instead of burning a connection timeout per batch.
type shardBatcher struct {
	shard  int
	remote *Remote

	mu      sync.Mutex
	queue   []*pendingSubmit
	running bool
}

func newShardBatcher(shard int, remote *Remote) *shardBatcher {
	return &shardBatcher{shard: shard, remote: remote}
}

// append enqueues one response and blocks until its batch is durable on
// the node (or failed).
func (b *shardBatcher) append(resp *survey.Response) (int, error) {
	d := b.enqueue(&pendingSubmit{resp: resp, done: make(chan submitDone, 1)})
	return d.stored, d.err
}

// appendCharged enqueues one response with its budget charge and blocks
// until the node has decided the debit and appended (or refused) it.
func (b *shardBatcher) appendCharged(resp *survey.Response, ch budget.Charge) submitDone {
	return b.enqueue(&pendingSubmit{resp: resp, charge: &ch, done: make(chan submitDone, 1)})
}

func (b *shardBatcher) enqueue(p *pendingSubmit) submitDone {
	b.mu.Lock()
	b.queue = append(b.queue, p)
	if !b.running {
		b.running = true
		go b.run()
	}
	b.mu.Unlock()
	return <-p.done
}

// run ships batches until the queue drains, then exits (the next append
// restarts it). Batching needs no window timer: while a ship's
// round-trip runs, latecomers pile into the queue and form the next
// batch naturally.
func (b *shardBatcher) run() {
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.running = false
			b.mu.Unlock()
			return
		}
		n := len(b.queue)
		if n > maxSubmitBatch {
			n = maxSubmitBatch
		}
		batch := b.queue[:n:n]
		b.queue = append([]*pendingSubmit(nil), b.queue[n:]...)
		b.mu.Unlock()
		b.ship(batch)
	}
}

// ship sends one batch — charges riding along wherever an entry carries
// one — and settles every caller from the reply. A refused or lost
// batch fails everyone, except that a plain batch failing mid-append
// reports how many leading records the node made durable
// (AppendedHeader): that prefix succeeds without a per-record count.
// A charged batch never reports one — its append failures travel per
// entry inside a 200, because its durable set is not a prefix.
func (b *shardBatcher) ship(batch []*pendingSubmit) {
	client, epoch, terr := b.remote.submitTarget(b.shard)
	if terr != nil {
		// The shard is failed over (primary down, replica unpromoted):
		// nothing to send to — settle fast with the retryable vocabulary.
		for _, p := range batch {
			p.done <- submitDone{err: terr}
		}
		return
	}
	req := &SubmitRequest{Shard: b.shard, Epoch: epoch, Responses: make([]survey.Response, len(batch))}
	for i, p := range batch {
		req.Responses[i] = *p.resp
		if p.charge != nil {
			if req.Charges == nil {
				req.Charges = make([]budget.Charge, len(batch))
			}
			req.Charges[i] = *p.charge
		}
	}
	res, err := client.Submit(req)
	b.noteShip(client, err)
	if err != nil {
		appended := 0
		var re *remoteError
		if errors.As(err, &re) {
			appended = min(re.Appended, len(batch))
		}
		for i, p := range batch {
			if i < appended {
				// Durable, but the count was lost with the error reply.
				p.done <- submitDone{}
			} else {
				p.done <- submitDone{err: err}
			}
		}
		return
	}
	for i, p := range batch {
		p.done <- settle(res, i, p)
	}
}

// noteShip feeds the router's failure detector and fence accounting
// from a shipped batch's outcome: a transport error marks the node
// down (the next ship fails fast and reads fail over), a fenced reply
// nudges a manifest refresh.
func (b *shardBatcher) noteShip(client *Client, err error) {
	b.remote.noteResult(client, err)
	if errors.Is(err, ErrFenced) {
		b.remote.noteFenced()
	}
}

// settle maps entry i of a 200 reply to its caller's result, in the
// order the node decided it: throttled (not appended, retryable),
// append failure (any charge was refunded node-side), enforce-mode
// undecided charge (fail closed), budget rejection, or stored with its
// outcome. A log-mode entry whose charge errored was still appended —
// it settles as stored with a zero outcome, and the caller can tell
// from the empty outcome worker id. Every per-entry slice is optional:
// a plain reply carries only Stored, and settles as stored.
func settle(res *SubmitResult, i int, p *pendingSubmit) submitDone {
	if i < len(res.Throttled) && res.Throttled[i] {
		return submitDone{err: &ThrottledError{RetryAfterSeconds: res.RetryAfterSeconds}}
	}
	if i < len(res.AppendErrs) && res.AppendErrs[i] != "" {
		return submitDone{err: errors.New(res.AppendErrs[i])}
	}
	var out budget.Outcome
	if i < len(res.Outcomes) {
		out = res.Outcomes[i]
	}
	if i < len(res.ChargeErrs) && res.ChargeErrs[i] != "" && p.charge != nil && p.charge.Enforce {
		return submitDone{err: fmt.Errorf("%w: %s", budget.ErrUndecided, res.ChargeErrs[i])}
	}
	if out.Rejected {
		return submitDone{out: out, err: fmt.Errorf("worker %q: %w", out.WorkerID, budget.ErrExhausted)}
	}
	stored := 0
	if i < len(res.Stored) {
		stored = res.Stored[i]
	}
	return submitDone{stored: stored, out: out}
}
