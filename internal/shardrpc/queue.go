package shardrpc

import (
	"sync"

	"loki/internal/budget"
	"loki/internal/survey"
)

// The frontend's write path batches by node. A node queue has one lane
// per shard — response shards for the submit path (Remote), budget
// shards for the charge path (RemoteCharger) — and sends calls to the
// nodes the lanes resolve to. At most one call carrying a lane is in
// flight; while it is, the lane's newcomers queue, and when a lane is
// idle its records go out in the next call to its node, together with
// every other idle lane of that node that has records queued. So a
// request costs at most one call per node, however many of the node's
// shards it touches, and one HTTP round trip amortizes across every
// caller waiting in the same window — the transport-layer twin of the
// store's group commit. A lone record still ships at once (nothing
// waits on a timer), and a call parked on one shard (a wedged store)
// holds up no other shard of its node: their records go out in a call
// of their own.

// maxSubmitBatch bounds one lane's share of a call; deeper queues ship
// in consecutive calls.
const maxSubmitBatch = 256

// pending is one record waiting in a node queue: a routed response with
// the budget charge riding it (an empty WorkerID carries none), or on
// the charge path a charge alone. done receives exactly one verdict.
type pending struct {
	lane   int
	resp   *survey.Response
	charge budget.Charge
	done   chan SubmitEntry
}

// section is one lane's share of a call, stamped with the epoch its
// lane resolved with.
type section struct {
	lane  int
	epoch uint64
	recs  []*pending
}

// nodeQueue batches records by node (see above).
type nodeQueue struct {
	// target resolves a lane to the node its next call goes to and the
	// epoch stamp the call carries for it; an error settles the lane's
	// queued records unsent (a shard whose primary is down fails fast
	// instead of burning a connection timeout per call). It is asked
	// each time a lane's records wait for a call, so a manifest swap
	// redirects the very next one.
	target func(lane int) (*Client, uint64, error)
	// ship sends one call to c and settles every record it carries.
	ship func(c *Client, secs []section)

	mu    sync.Mutex
	lanes []lane
}

// lane is one shard's queue. A lane is idle (node nil, not busy),
// waiting for the next call to node, or busy while a call carries it.
type lane struct {
	queue []*pending
	node  *Client
	epoch uint64
	busy  bool
}

func newNodeQueue(lanes int, target func(int) (*Client, uint64, error), ship func(*Client, []section)) *nodeQueue {
	return &nodeQueue{target: target, ship: ship, lanes: make([]lane, lanes)}
}

// enqueue queues records for their lanes' next calls without waiting
// for them; records enqueued together that resolve to one node leave in
// one call. The returned function waits for their verdicts, aligned
// with ps.
func (q *nodeQueue) enqueue(ps []pending) (wait func() []SubmitEntry) {
	q.mu.Lock()
	for i := range ps {
		l := ps[i].lane
		ps[i].done = make(chan SubmitEntry, 1)
		q.lanes[l].queue = append(q.lanes[l].queue, &ps[i])
		q.armLocked(l, nil)
	}
	q.mu.Unlock()
	return func() []SubmitEntry {
		out := make([]SubmitEntry, len(ps))
		for i := range ps {
			out[i] = <-ps[i].done
		}
		return out
	}
}

// armLocked puts an idle lane with records queued in wait for the next
// call to its node, and starts a shipper for that node unless one is
// bound to collect the lane already: self, the shipper arming it, or
// the one some other lane waits for. A lane whose target fails has its
// records settled with the error instead; done is buffered for its one
// verdict, so that send never blocks under mu. Caller holds mu.
func (q *nodeQueue) armLocked(l int, self *Client) {
	ln := &q.lanes[l]
	if ln.busy || ln.node != nil || len(ln.queue) == 0 {
		return
	}
	c, epoch, err := q.target(l)
	if err != nil {
		for _, p := range ln.queue {
			p.done <- SubmitEntry{Err: err}
		}
		ln.queue = nil
		return
	}
	bound := c == self
	for i := range q.lanes {
		bound = bound || q.lanes[i].node == c
	}
	ln.node, ln.epoch = c, epoch
	if !bound {
		go q.run(c)
	}
}

// run ships calls to node c until no lane waits for it. Batching needs
// no window timer: while a call's round trip runs, latecomers pile into
// the lanes and form the next call naturally.
func (q *nodeQueue) run(c *Client) {
	for {
		var secs []section
		q.mu.Lock()
		for l := range q.lanes {
			ln := &q.lanes[l]
			if ln.node != c {
				continue
			}
			n := min(len(ln.queue), maxSubmitBatch)
			secs = append(secs, section{lane: l, epoch: ln.epoch, recs: ln.queue[:n:n]})
			if n == len(ln.queue) {
				ln.queue = nil
			} else {
				ln.queue = append([]*pending(nil), ln.queue[n:]...)
			}
			ln.node, ln.busy = nil, true
		}
		q.mu.Unlock()
		if len(secs) == 0 {
			return
		}
		q.ship(c, secs)
		q.mu.Lock()
		for _, sec := range secs {
			q.lanes[sec.lane].busy = false
			q.armLocked(sec.lane, c)
		}
		q.mu.Unlock()
	}
}
