package storage

// GroupCommit is the group commit's queue and its flush rule: when the
// next flush takes the queue. It is a state machine with no goroutine,
// timer, lock or clock: time comes in as an argument (ns on any clock
// that never goes back), and its one driver serializes the calls. The
// persister runs it on the wall clock with T its commit requests; the
// zab simulator runs the same rule on its virtual clock.
//
// The rule counts requests: the client requests a flush answers. A
// record somebody's reply waits on is one (Record with awaited), and so
// is each Await: a read its session queued behind a write not yet
// answered, which the flush that makes that write durable answers too.
// A request counts in the period it arrives in, the time between two
// flushes taking the queue. After a flush that took a batch of k
// requests, the next one starts once k requests have arrived again, or
// once as long as that flush took has passed since it ended, whichever
// comes first. Clients that a flush answers come back together, reads
// and writes alike, so their writes go down together, instead of
// splitting into cohorts that each wait out the other's flush. A flush
// that took no request, a queued state transfer, Close and a latched
// failure never hold the queue.
//
// The bound caps what the rule can cost. It accepts one imprecision: a
// read admitted while the write ahead of it is already inside the
// running flush (or just came out of it, its reply not yet released)
// needs no later flush but counts toward the next, so the hold after the
// next flush waits for one request too many, up to the bound. And a
// device faster than a client's round trip can sit idle for up to one
// flush per cycle while a hold waits for requests that will not all
// return.
type GroupCommit[T any] struct {
	queue    []T  // records and state transfers no flush has taken
	awaited  int  // requests that arrived this period
	transfer bool // a state transfer is queued; nothing is queued behind one
	failure  error
	closed   bool

	holding   bool  // Next answered Hold and no flush has started since
	heldSince int64 // when the hold began
	flushing  bool  // between a Flush answer and Flushed

	// What a hold waits for: as many requests as the last flush took
	// (target), until as long as it took has passed since it ended.
	target int
	until  int64
}

// Action is what Next tells the driver to do.
type Action int

const (
	// Idle: nothing to start; the queue is empty, or a flush is running.
	Idle Action = iota
	// Hold: wait for requests, and ask Next again by Step.Until.
	Hold
	// Flush: flush Step.Batch now, and call Flushed once it is durable.
	Flush
)

// HoldEnd says whether a flush ends a hold, and how.
type HoldEnd int

const (
	NotHeld    HoldEnd = iota
	ByRequests         // the requests the hold waited for arrived
	// ByBound: they did not. The last flush's duration ran out, or, rarely,
	// a state transfer, Close or a failure cut the hold short.
	ByBound
)

// Step is Next's answer.
type Step[T any] struct {
	Act   Action
	Until int64   // with Hold: when the bound runs out
	Batch []T     // with Flush: the whole queue, in the order it came
	Ended HoldEnd // with Flush: the hold it ends, if any
	Held  int64   // with Flush: how long that hold lasted
}

// Record queues one record; awaited marks one somebody's reply waits on,
// which counts as a request. It refuses the record with the failure, or
// ErrClosed, once either is latched. wake reports whether Next may now
// answer differently: the rule was idle, or the record ends a hold.
func (g *GroupCommit[T]) Record(rec T, awaited bool) (wake bool, err error) {
	if g.failure != nil {
		return false, g.failure
	}
	if g.closed {
		return false, ErrClosed
	}
	g.queue = append(g.queue, rec)
	if awaited {
		g.awaited++
	}
	return g.wakes(), nil
}

// Await counts one request that the next flush answers without logging
// anything for it. wake is as for Record.
func (g *GroupCommit[T]) Await() (wake bool) {
	g.awaited++
	return g.wakes()
}

// wakes: during a hold, only the request that ends it changes Next's
// answer; otherwise anything queued while no flush runs does.
func (g *GroupCommit[T]) wakes() bool {
	if g.holding {
		return g.awaited == g.target
	}
	return !g.flushing && len(g.queue) > 0
}

// Snapshot queues a state transfer, which Next flushes without a hold,
// so the driver asks Next again after it. The driver queues nothing
// behind a transfer until the flush that took it has published it.
func (g *GroupCommit[T]) Snapshot(transfer T) error {
	_, err := g.Record(transfer, false)
	g.transfer = err == nil
	return err
}

// Fail latches err unless a failure is latched already. A failed rule
// holds nothing, so the driver asks Next again after it, and it refuses
// new work with the first failure.
func (g *GroupCommit[T]) Fail(err error) {
	if g.failure == nil {
		g.failure = err
	}
}

// Close ends holding, so the driver asks Next again after it, and
// refuses new work with ErrClosed; what is queued still flushes.
func (g *GroupCommit[T]) Close() { g.closed = true }

// Holding reports whether the rule holds the queue for requests.
func (g *GroupCommit[T]) Holding() bool { return g.holding }

// Next is the one function that decides when a flush starts: given that
// it is now, whether the driver idles, holds the queue, or flushes it.
// A Flush answer takes the queue: what arrives after it counts toward
// the next flush.
func (g *GroupCommit[T]) Next(now int64) Step[T] {
	if g.flushing || len(g.queue) == 0 {
		return Step[T]{}
	}
	if now < g.until && g.awaited < g.target && !g.transfer && !g.closed && g.failure == nil {
		if !g.holding {
			g.holding, g.heldSince = true, now
		}
		return Step[T]{Act: Hold, Until: g.until}
	}
	st := Step[T]{Act: Flush, Batch: g.queue}
	if g.holding {
		st.Ended, st.Held = ByBound, now-g.heldSince
		if g.awaited >= g.target {
			st.Ended = ByRequests
		}
	}
	g.queue, g.target, g.awaited = nil, g.awaited, 0
	g.transfer, g.holding, g.flushing = false, false, true
	return st
}

// Flushed closes the cycle a Flush answer opened: the batch became
// durable (or failed) at now, after took ns.
func (g *GroupCommit[T]) Flushed(now, took int64) {
	g.flushing, g.until = false, now+took
}
