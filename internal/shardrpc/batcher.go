package shardrpc

import (
	"errors"
	"sync"

	"loki/internal/budget"
	"loki/internal/survey"
)

// The remote router's submit path group-batches: while one submit RPC
// to a shard is in flight, concurrent records for the same shard queue
// up and ship as the next batch — the transport-layer twin of the
// ingest store's WAL group commit. One HTTP round-trip then amortizes
// across every caller waiting in the same window, which is what lets a
// frontend saturate its nodes instead of paying a full round-trip per
// response. A lone record still ships immediately (the batcher never
// waits on a timer), so uncontended submit latency is one round-trip.
//
// A record may carry a piggybacked budget charge: the batch then carries
// charges, and the node decides every debit before appending — the
// enforce-mode hot path at the same one round-trip as the plain one.

// maxSubmitBatch bounds one shipped batch; deeper queues ship as
// consecutive batches.
const maxSubmitBatch = 256

// pendingSubmit is one caller's routed response waiting for the next
// batch. charge (an empty WorkerID carries none) rides the same RPC.
// done receives exactly one verdict.
type pendingSubmit struct {
	resp   *survey.Response
	charge budget.Charge
	done   chan SubmitEntry
}

// shardBatcher owns one shard's submit queue and its single shipping
// goroutine (started lazily on the first record). The target node is
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

// enqueue queues records for the next batch without waiting for it.
func (b *shardBatcher) enqueue(ps []pendingSubmit) {
	b.mu.Lock()
	for i := range ps {
		b.queue = append(b.queue, &ps[i])
	}
	if !b.running {
		b.running = true
		go b.run()
	}
	b.mu.Unlock()
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

// ship sends one batch — charges riding along wherever a record carries
// one — and hands every caller its entry of the reply (SubmitEntries). A
// shard that is failed over (primary down, replica unpromoted) has
// nowhere to send: its batch settles fast with the retryable
// FailoverError.
func (b *shardBatcher) ship(batch []*pendingSubmit) {
	var res *SubmitResult
	client, epoch, err := b.remote.submitTarget(b.shard)
	if err == nil {
		req := &SubmitRequest{Shard: b.shard, Epoch: epoch, Responses: make([]survey.Response, len(batch))}
		for i, p := range batch {
			req.Responses[i] = *p.resp
			if p.charge.WorkerID != "" {
				if req.Charges == nil {
					req.Charges = make([]budget.Charge, len(batch))
				}
				req.Charges[i] = p.charge
			}
		}
		res, err = client.Submit(req)
		// Feed the router's failure detector and fence accounting: a
		// transport error marks the node down (the next ship fails fast
		// and reads fail over), a fenced reply nudges a manifest refresh.
		b.remote.noteResult(client, err)
		if errors.Is(err, ErrFenced) {
			b.remote.noteFenced()
		}
	}
	for i, e := range SubmitEntries(len(batch), res, err) {
		if e.ChargeErr != "" {
			// What the node could not decide reads, on this side of the
			// wire, as an undecided charge and then the node's reason — the
			// text the public 503 has always carried.
			e.ChargeErr = budget.ErrUndecided.Error() + ": " + e.ChargeErr
		}
		batch[i].done <- e
	}
}
