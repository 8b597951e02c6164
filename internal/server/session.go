package server

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// slot is one request in a session's ring, from its admission until the
// writer has sent its reply. Guarded by the session's mu.
type slot struct {
	xid   int32
	op    wire.OpCode
	state slotState
	// staged is the zxid of the commit whose reply waits in resp, pending,
	// for the flush covering it on a durable replica; 0 otherwise.
	staged int64

	// Pipeline-stage timestamps (obs.Now ns), stamped for writes only:
	// submitNs by admit, commitNs when the write is answered.
	submitNs int64
	commitNs int64

	// resp is the reply once the slot is answered, and a staged write's
	// reply before that. own is a queued read's copy of its body (see
	// admit). Both keep their arrays when the slot is reused.
	resp []byte
	own  []byte
}

type slotState uint8

const (
	// pending: a write awaiting its fate, or a read queued unexecuted.
	pending slotState = iota
	// running: a read the reader goroutine is executing (see admit).
	running
	// answered: resp holds the reply.
	answered
)

// agreed reports whether op goes through agreement. SYNC is agreed like
// a write: its commit is the flush point.
func agreed(op wire.OpCode) bool { return op.IsWrite() || op == wire.OpSync }

// watchEventBuffer bounds the watch events a session has fired and not
// yet released. A client that lets more pile up has stopped reading, and
// its session ends (see Notify): the zab loop that fires events must not
// block on it, and a dropped event would leave its watch hanging.
const watchEventBuffer = 1024

// session serializes one client connection. Its requests, in submission
// order, are one ring of slots, and a request's sequence number (seq,
// counted from 0 for the session's life) is its whole ordering state:
// request seq lies at ring[seq & (len(ring)-1)] from its admission
// (tail++) until the writer's SendFrames has returned with its reply
// (head moves past it). A seq below head names nothing, so a seq never
// names a second request. Release order (ZooKeeper's per-session FIFO
// guarantee, which the entry enclave's response-matching queue relies
// on, §4.2) is seq order.
//
// The one-queue rule: waiting counts the pending slots. A read admitted
// while waiting is zero has nothing ahead of it whose outcome it could
// depend on, so it is running: the reader goroutine executes it on the
// spot. Any other read is pending, unexecuted, and the writer goroutine
// executes it when it reaches the head — at that point everything ahead
// of it is answered, so the fate of every earlier write of the session
// is known (read-after-own-write) and same-session reads execute in
// submission order. A write is answered by its commit (commit, or
// commit and flushed on a durable replica) or its abort; an aborted
// write fails the queued reads behind it.
//
// Only the reader admits, so only the reader grows the ring. A
// completion never holds a slot: it names its write by xid (see find),
// or the reader by seq (refuse), and resolves it under mu, so one that
// lost a race to an abort finds nothing to answer.
type session struct {
	id    int64
	rep   *Replica
	conn  transport.Conn
	icept Interceptor

	mu         sync.Mutex
	ring       []slot // len a power of two, or 0 before the first request
	head, tail uint64 // the oldest unreleased seq, the next seq to admit
	waiting    int    // pending slots
	closed     bool

	// closeHandedOn records that the reader handed on the client's own
	// CloseSession and it was not refused (reader goroutine only; the
	// replica reads it once run has returned). closeDelivered records
	// that the CloseSession was delivered while the session was still in
	// the replica's table (guarded by the replica's mu).
	closeHandedOn  bool
	closeDelivered bool

	// evs holds the watch events of the writer's current pass (writer
	// goroutine only).
	evs []byte
	// burst collects the writes of the reader's current burst (reader
	// goroutine only).
	burst burst

	kickCh  chan struct{}
	events  chan wire.WatcherEvent
	stopped chan struct{}
	writerD chan struct{}
}

func newSession(r *Replica, id int64, conn transport.Conn, icept Interceptor) *session {
	return &session{
		id:      id,
		rep:     r,
		conn:    conn,
		icept:   icept,
		kickCh:  make(chan struct{}, 1),
		events:  make(chan wire.WatcherEvent, watchEventBuffer),
		stopped: make(chan struct{}),
		writerD: make(chan struct{}),
	}
}

// Notify implements ztree.Watcher: enqueue without blocking. A full
// queue ends the session rather than drop an event a watch waits for:
// the client's watch handles close, as at any session end.
func (s *session) Notify(ev wire.WatcherEvent) {
	select {
	case s.events <- ev:
		s.kick()
	default:
		s.shutdown()
	}
}

// kick wakes the writer goroutine.
func (s *session) kick() {
	select {
	case s.kickCh <- struct{}{}:
	default:
	}
}

// shutdown closes the connection and stops the writer.
func (s *session) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopped)
	_ = s.conn.Close()
}

// run processes the session until the connection ends. It blocks.
func (s *session) run() error {
	go s.writer()
	err := s.reader()
	s.shutdown()
	<-s.writerD
	return err
}

// reader takes requests off the connection a burst at a time — whatever
// one wake-up found already received, never waiting for more — passes
// the burst through the interceptor in one call, admits each request in
// order, and then hands the burst's writes on to agreement together
// (handOn). The writes go even when the session stops after them: at
// its CloseSession, a malformed header or a rejected request.
func (s *session) reader() error {
	var frames [][]byte // reused across bursts, as the connection reuses the frames' storage
	for {
		var err error
		if frames, err = s.conn.RecvFrames(frames[:0]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("server: session %d recv: %w", s.id, err)
		}
		s.rep.framesPerRead.Observe(int64(len(frames)))
		// A rejection (protocol violation or integrity failure in the
		// entry enclave) drops the client, after the requests ahead of
		// the rejected one went in as they would have one by one.
		msgs, rejected := s.icept.OnRequests(frames)
		var stop bool
		for _, msg := range msgs {
			if stop, err = s.submit(msg); stop || err != nil {
				break
			}
		}
		s.handOn()
		if stop || err != nil {
			return err
		}
		if rejected != nil {
			return fmt.Errorf("server: session %d intercept: %w", s.id, rejected)
		}
		// An idle session must not pin its last burst.
		clear(msgs)
		clear(frames)
	}
}

// submit enters one intercepted request into the pipeline: a write
// joins the reader's burst, a read executes here or waits in the ring
// for the writer. stop reports that the session takes no further
// requests (it closed, or this was its CloseSession).
func (s *session) submit(msg []byte) (stop bool, err error) {
	var hdr wire.RequestHeader
	var d wire.Decoder
	d.Reset(msg)
	if err := hdr.Deserialize(&d); err != nil {
		return false, fmt.Errorf("server: session %d header: %w", s.id, err)
	}
	body := msg[d.Offset():]
	seq, dst, runNow, ok := s.admit(hdr.Xid, hdr.Op, body)
	switch {
	case !ok:
		return true, nil
	case runNow:
		s.ran(seq, s.rep.handleRead(s, dst, hdr.Xid, hdr.Op, body))
	case agreed(hdr.Op):
		s.rep.writeOps.Add(1)
		s.burst.writes = append(s.burst.writes, write{
			op:     hdr.Op,
			origin: zab.Origin{Peer: s.rep.cfg.ID, Session: s.id, Xid: hdr.Xid},
			body:   body,
			seq:    seq,
		})
	case s.rep.persister != nil:
		// Queued behind an unanswered write, the read is answered by the
		// flush that makes that write durable: the flush rule counts it.
		s.rep.persister.Await()
	}
	// After CloseSession stop reading; the writer drains its response.
	return hdr.Op == wire.OpCloseSession, nil
}

// handOn hands the writes of the reader's burst on to agreement
// (Replica.handOn) and refuses those it could not: all of them on a
// degraded or removed replica, which takes no client write. A refused
// write is answered, and the reads queued behind it fail, as for an
// abort.
func (s *session) handOn() {
	b := &s.burst
	if len(b.writes) == 0 {
		return
	}
	if s.rep.degraded.Load() || s.rep.removed.Load() {
		refuseAll(b.writes)
	} else {
		s.rep.handOn(b)
	}
	for _, w := range b.writes {
		if w.refused {
			s.refuse(w.seq)
		} else if w.op == wire.OpCloseSession {
			s.closeHandedOn = true
		}
	}
	b.reset()
}

// at returns the slot of request seq, head <= seq < tail. Caller holds
// s.mu.
func (s *session) at(seq uint64) *slot { return &s.ring[seq&uint64(len(s.ring)-1)] }

// admit gives a request the next seq and decides who executes it. A read
// with no pending slot ahead of it is running: the caller — the reader —
// executes it into dst, the slot's buffer, and records the reply with
// ran, and the writer stops at the slot until then. Every other request
// is pending. ok is false once the session closed.
func (s *session) admit(xid int32, op wire.OpCode, body []byte) (seq uint64, dst []byte, runNow, ok bool) {
	var now int64
	if agreed(op) {
		now = obs.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, false, false
	}
	if s.tail-s.head == uint64(len(s.ring)) {
		s.grow()
	}
	seq = s.tail
	s.tail++
	e := s.at(seq)
	*e = slot{xid: xid, op: op, submitNs: now, resp: e.resp[:0], own: e.own[:0]}
	if !agreed(op) {
		if s.waiting == 0 {
			e.state = running
			return seq, e.resp, true, true
		}
		// Queued unexecuted, the read outlives the burst it came in: its
		// body lies in the connection's receive chunk (or the entry
		// enclave's request buffer), which the reader's next receive
		// reuses, so this one request keeps a copy. A write's body is read
		// only by the burst's hand-on, before the reader moves on.
		e.own = append(e.own, body...)
	}
	s.waiting++
	return seq, nil, false, true
}

// grow doubles the ring, which is full, moving each slot to where its
// seq lies in the new one. Caller holds s.mu.
func (s *session) grow() {
	ring := make([]slot, max(2*len(s.ring), 8))
	for seq := s.head; seq < s.tail; seq++ {
		ring[seq&uint64(len(ring)-1)] = *s.at(seq)
	}
	s.ring = ring
}

// ran records the reply of the read the reader executed as seq.
func (s *session) ran(seq uint64, resp []byte) {
	s.mu.Lock()
	e := s.at(seq)
	e.resp, e.state = resp, answered
	s.mu.Unlock()
	s.kick()
}

// find returns the first pending write with this xid whose reply is
// staged at zxid (0: not staged) — the one a commit, reject, abort or
// flush with the xid in its Origin is about. A session's writes are
// proposed, and so committed, in seq order: of two writes in flight
// under one xid the first is the one the ensemble answers first. The
// scan is as long as the session's window. Caller holds s.mu.
func (s *session) find(xid int32, zxid int64) (seq uint64, ok bool) {
	for seq = s.head; seq < s.tail; seq++ {
		if e := s.at(seq); e.state == pending && e.xid == xid && e.staged == zxid && agreed(e.op) {
			return seq, true
		}
	}
	return 0, false
}

// commit builds the reply of the write a commit at zxid with xid
// answers (see find) into its slot — the agreed reply, possibly an
// application-level error like BADVERSION. It answers the write, or, on
// a durable replica, stages the reply at zxid for flushed and reports
// that it did. A commit an abort overtook finds no write.
func (s *session) commit(xid int32, zxid int64, txn *ztree.Txn, res *ztree.TxnResult, durable bool) (staged bool) {
	s.mu.Lock()
	seq, ok := s.find(xid, 0)
	if ok {
		e := s.at(seq)
		e.resp = s.rep.buildWriteResponse(e.resp[:0], txn, e.op, xid, res)
		if durable {
			e.staged = zxid
		} else {
			s.answer(seq, false)
		}
	}
	s.mu.Unlock()
	if ok && !durable {
		s.kick()
	}
	return ok && durable
}

// abort answers the write xid names as aborted: the leader rejected it.
func (s *session) abort(xid int32) { s.complete(xid, 0, true) }

// flushed answers the write whose reply commit staged at zxid: with
// that reply once the flush made the commit durable, or aborted if the
// flush failed.
func (s *session) flushed(xid int32, zxid int64, err error) { s.complete(xid, zxid, err != nil) }

// complete answers the write find(xid, staged) names. A write is
// answered once: when an abort or another completion got there first,
// there is no such write and nothing changes.
func (s *session) complete(xid int32, staged int64, aborted bool) {
	s.mu.Lock()
	if seq, ok := s.find(xid, staged); ok {
		s.answer(seq, aborted)
	}
	s.mu.Unlock()
	s.kick()
}

// refuse aborts the write the reader admitted as seq and could not
// submit, unless an abort answered it meanwhile — then the writer may
// have released it, and its slot may hold a later request.
func (s *session) refuse(seq uint64) {
	s.mu.Lock()
	if seq >= s.head && s.at(seq).state == pending {
		s.answer(seq, true)
	}
	s.mu.Unlock()
	s.kick()
}

// abortWrites aborts every pending write of the session.
func (s *session) abortWrites() {
	s.mu.Lock()
	for seq := s.head; seq < s.tail; seq++ {
		if e := s.at(seq); e.state == pending && agreed(e.op) {
			s.answer(seq, true)
		}
	}
	s.mu.Unlock()
	s.kick()
}

// answer records the fate of the pending write seq: committed, with the
// reply already in resp, or aborted (the write will never commit here —
// leader change, forward rejection, failed flush, shutdown), with
// CONNECTIONLOSS. An abort fails the queued reads behind the write with
// CONNECTIONLOSS too: their read-after-own-write baseline is gone (the
// write's fate is unknown), so completing them with data could silently
// violate the session guarantee. Reads ahead of the aborted write keep
// waiting for the fate of whatever earlier write they are behind.
// Caller holds s.mu.
func (s *session) answer(seq uint64, aborted bool) {
	w := s.at(seq)
	w.commitNs = obs.Now()
	if !aborted {
		s.rep.submitToCommit.Observe(w.commitNs - w.submitNs)
	}
	w.state, w.staged = answered, 0
	s.waiting--
	for ; aborted && seq < s.tail; seq++ {
		if e := s.at(seq); e == w || e.state == pending && !agreed(e.op) {
			e.resp = errorReply(e.resp[:0], e.xid, 0, wire.ErrConnectionLoss)
			if e.state == pending {
				e.state = answered
				s.waiting--
			}
		}
	}
}

// writer is the in-order releaser: it sends the answered replies at the
// head of the ring, interleaving watch events. The only thing it
// executes is a read that had to wait for requests ahead of it (see
// gatherDue), so release order — which the entry enclave's
// response-matching FIFO depends on — never depends on who executed.
//
// Flush rule: each drain pass gathers every response and then every
// watch event that is ALREADY due, passes them through the interceptor
// in one call and sends them with one write, in the order single sends
// would have used. It never waits for more, so a session with one
// request in flight still gets one frame per crossing and per write. A
// failed write loses every frame of its batch and ends the session; so
// does a pass the interceptor refuses (the entry enclave would not
// release a message, e.g. the response FIFO was violated): the session
// must die rather than leak anything, and nothing of the pass is sent.
// Once the write returned, the pass's slots are released.
func (s *session) writer() {
	defer close(s.writerD)
	var due [][]byte // reused across passes; the frames themselves are not
	for {
		for {
			var n uint64
			var closing bool
			due, n, closing = s.gatherDue(due[:0])
			if len(due) == 0 {
				break
			}
			out, err := s.icept.OnResponses(due)
			if err == nil {
				// Counted before the write: a client that has read the
				// frames must find them counted.
				s.rep.framesPerRelease.Observe(int64(len(out)))
				err = s.conn.SendFrames(out)
			}
			clear(out)
			clear(due)
			if err != nil || closing {
				s.shutdown()
				return
			}
			s.release(n)
		}
		select {
		case <-s.kickCh:
		case <-s.stopped:
			return
		}
	}
}

// gatherDue appends to due the raw messages of one drain pass: the
// replies of the n answered slots at the head of the ring, then the
// queued watch events, serialized into s.evs, up to
// transport.BatchBytes. A queued read that reaches the head is executed
// here — everything ahead of it is answered, and nothing can answer it
// in the meantime: an abort only fails reads behind the aborted write,
// and no write is ahead of the head. The pass stops at a running read,
// as at a pending write, until its reply is recorded. closing reports
// that the pass ends with the CloseSession reply, after which nothing
// more may be sent.
func (s *session) gatherDue(due [][]byte) (_ [][]byte, n uint64, closing bool) {
	size := 0
	s.mu.Lock()
	for ; size < transport.BatchBytes && s.head+n < s.tail && !closing; n++ {
		seq := s.head + n
		e := s.at(seq)
		if e.state == running || e.state == pending && agreed(e.op) {
			break // its reader, or its fate's completion, kicks
		}
		if e.state == pending {
			xid, op, body, dst := e.xid, e.op, e.own, e.resp[:0]
			s.mu.Unlock()
			resp := s.rep.handleRead(s, dst, xid, op, body)
			s.mu.Lock()
			e = s.at(seq) // admit may have grown the ring
			e.resp, e.state = resp, answered
			s.waiting--
		}
		if e.commitNs > 0 {
			s.rep.commitToRelease.Observe(obs.Now() - e.commitNs)
		}
		due = append(due, e.resp)
		size += len(e.resp)
		closing = e.op == wire.OpCloseSession
	}
	s.mu.Unlock()
	s.evs = s.evs[:0]
	for size < transport.BatchBytes && !closing {
		var ev wire.WatcherEvent
		select {
		case ev = <-s.events:
		default:
			return due, n, false
		}
		start := len(s.evs)
		enc := beginReply(s.evs, wire.WatcherEventXid, 0, wire.ErrOK)
		ev.Serialize(&enc)
		s.evs = enc.Bytes()
		due = append(due, s.evs[start:])
		size += len(s.evs) - start
	}
	return due, n, closing
}

// release frees the n slots of a pass the writer has sent for admit to
// reuse. A buffer that grew past transport.MaxScratchRetain for one big
// reply, body or burst of events is dropped rather than kept for the
// session's lifetime.
func (s *session) release(n uint64) {
	s.mu.Lock()
	for seq := s.head; seq < s.head+n; seq++ {
		e := s.at(seq)
		if cap(e.resp) > transport.MaxScratchRetain {
			e.resp = nil
		}
		if cap(e.own) > transport.MaxScratchRetain {
			e.own = nil
		}
	}
	s.head += n
	s.mu.Unlock()
	if cap(s.evs) > transport.MaxScratchRetain {
		s.evs = nil
	}
}
