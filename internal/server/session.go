package server

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// inflightReq is one request in a session's FIFO queue. Its position in
// the queue is its whole ordering state: an unanswered request is either
// a write awaiting its fate or a read the writer goroutine will execute
// when it reaches the head. Entries are the session's bookkeeping and
// are recycled (see session.free): answered, staged and resp are guarded
// by the session's mu.
type inflightReq struct {
	xid  int32
	op   wire.OpCode
	body []byte

	// Pipeline-stage timestamps (obs.Now ns), stamped for writes only.
	// submitNs is set by admit; commitNs is written when the write is
	// answered and read by the writer after it saw the answer, so mu
	// orders the two.
	submitNs int64
	commitNs int64

	// answered reports that resp holds the reply. On a durable replica a
	// committed write's reply waits in resp, unanswered, until the flush
	// covering it returns; staged is that commit's zxid, 0 otherwise.
	answered bool
	staged   int64
	resp     []byte

	// own is a queued read's copy of its body (see admit). resp and own
	// keep their arrays when the entry is recycled.
	own []byte
}

// agreed reports whether op goes through agreement. SYNC is agreed like
// a write: its commit is the flush point.
func agreed(op wire.OpCode) bool { return op.IsWrite() || op == wire.OpSync }

// watchEventBuffer bounds the out-of-band watch notification queue per
// session; beyond it, events are dropped (watches are one-shot hints,
// and an unresponsive client must not stall the commit path).
const watchEventBuffer = 1024

// session serializes one client connection. One FIFO queue, in
// submission order, is the only per-request ordering state; release
// order (ZooKeeper's per-session FIFO guarantee, which the entry
// enclave's response-matching queue relies on, §4.2) is queue order.
//
// The one-queue rule: waiting counts the unanswered requests in the
// queue. A read submitted while waiting is zero has nothing ahead of it
// whose outcome it could depend on, so the reader goroutine executes it
// on the spot. Any other read is left unexecuted in the queue, and the
// writer goroutine executes it when it reaches the head — at that point
// everything ahead of it is answered, so the fate of every earlier
// write of the session is known (read-after-own-write) and same-session
// reads execute in submission order. A write is answered by its commit
// (writeDone, or stage and flushed on a durable replica) or its abort;
// an aborted write fails the unexecuted reads behind it.
//
// The bookkeeping is recycled. Entries come from the session's free list
// and go back to it once the writer's SendFrames has returned, with the
// reply buffer they kept; the queue keeps its backing array. A
// completion therefore never holds an entry: it names its write by xid
// (see find) and resolves it under mu, so one that lost a race to an
// abort finds nothing to answer instead of a recycled entry.
type session struct {
	id    int64
	rep   *Replica
	conn  transport.Conn
	icept Interceptor

	mu      sync.Mutex
	queue   []*inflightReq // every unreleased request, submission order
	waiting int            // requests in queue not answered
	free    []*inflightReq // released entries, for admit to reuse
	closed  bool

	// sent holds the entries the writer's current pass released, until
	// their replies have been sent (writer goroutine only).
	sent []*inflightReq

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

// Notify implements ztree.Watcher: enqueue without blocking.
func (s *session) Notify(ev wire.WatcherEvent) {
	select {
	case s.events <- ev:
		s.kick()
	default:
		// Drop: the client's event queue is full.
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
// the burst through the interceptor in one call, then classifies and
// submits each request in order.
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
		for _, msg := range msgs {
			if stop, err := s.submit(msg); stop || err != nil {
				return err
			}
		}
		if rejected != nil {
			return fmt.Errorf("server: session %d intercept: %w", s.id, rejected)
		}
		// An idle session must not pin its last burst.
		clear(msgs)
		clear(frames)
	}
}

// submit enters one intercepted request into the pipeline: a write is
// handed to agreement, a read executes here or waits in the queue for
// the writer. stop reports that the session takes no further requests
// (it closed, or this was its CloseSession).
func (s *session) submit(msg []byte) (stop bool, err error) {
	var hdr wire.RequestHeader
	var d wire.Decoder
	d.Reset(msg)
	if err := hdr.Deserialize(&d); err != nil {
		return false, fmt.Errorf("server: session %d header: %w", s.id, err)
	}
	body := msg[d.Offset():]
	entry, runNow, ok := s.admit(hdr.Xid, hdr.Op, body)
	switch {
	case !ok:
		return true, nil
	case runNow:
		s.push(entry, s.rep.handleRead(s, entry))
	case agreed(hdr.Op):
		s.rep.handleWrite(s, entry, hdr, body)
	case s.rep.persister != nil:
		// Queued behind an unanswered write, the read is answered by the
		// flush that makes that write durable: the flush rule counts it.
		s.rep.persister.Await()
	}
	// After CloseSession stop reading; the writer drains its response.
	return hdr.Op == wire.OpCloseSession, nil
}

// admit takes an entry for a request off the free list and decides who
// executes it. A read with nothing unanswered ahead of it (runNow)
// belongs to the caller — the reader goroutine, the only one that
// admits — which executes it and then appends it with push, already
// answered, so the writer never meets a request someone else is
// executing. Every other request is appended here, unanswered. ok is
// false once the session closed.
func (s *session) admit(xid int32, op wire.OpCode, body []byte) (entry *inflightReq, runNow, ok bool) {
	var now int64
	if agreed(op) {
		now = obs.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, false
	}
	entry = s.entry(xid, op, body)
	entry.submitNs = now
	if !agreed(op) {
		if s.waiting == 0 {
			return entry, true, true
		}
		// Queued unexecuted, the read outlives the burst it came in: its
		// body lies in the connection's receive chunk (or the entry
		// enclave's request buffer), which the reader's next receive
		// reuses, so this one request keeps a copy. A write's body is read
		// only by handleWrite, before the reader moves on.
		entry.own = append(entry.own[:0], body...)
		entry.body = entry.own
	}
	s.queue = append(s.queue, entry)
	s.waiting++
	return entry, false, true
}

// entry returns a reset entry, recycled if the free list has one.
// Caller holds s.mu.
func (s *session) entry(xid int32, op wire.OpCode, body []byte) *inflightReq {
	n := len(s.free)
	if n == 0 {
		return &inflightReq{xid: xid, op: op, body: body}
	}
	e := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	*e = inflightReq{xid: xid, op: op, body: body, resp: e.resp[:0], own: e.own[:0]}
	return e
}

// recycle hands the entries of the pass the writer has just sent back to
// the free list. A buffer that grew past transport.MaxScratchRetain for
// one big reply or body is dropped rather than kept for the session's
// lifetime.
func (s *session) recycle() {
	s.mu.Lock()
	for _, e := range s.sent {
		if cap(e.resp) > transport.MaxScratchRetain {
			e.resp = nil
		}
		if cap(e.own) > transport.MaxScratchRetain {
			e.own = nil
		}
		e.body = nil
		s.free = append(s.free, e)
	}
	s.mu.Unlock()
	clear(s.sent)
	s.sent = s.sent[:0]
}

// push appends a read the reader goroutine executed itself.
func (s *session) push(entry *inflightReq, resp []byte) {
	s.mu.Lock()
	entry.resp, entry.answered = resp, true
	s.queue = append(s.queue, entry)
	s.mu.Unlock()
	s.kick()
}

// find returns the first unanswered write with this xid whose reply is
// staged at zxid (0: not staged) — the one a commit, reject, abort or
// flush with the xid in its Origin is about — or nil. A session's writes
// are proposed, and so committed, in queue order: of two writes in
// flight under one xid the first is the one the ensemble answers first.
// The scan is as long as the session's window. Caller holds s.mu.
func (s *session) find(xid int32, zxid int64) *inflightReq {
	for _, e := range s.queue {
		if !e.answered && e.xid == xid && e.staged == zxid && agreed(e.op) {
			return e
		}
	}
	return nil
}

// inflight returns the op of the write a commit with xid answers (see
// find); ok is false when there is none left to answer — an abort
// overtook the commit.
func (s *session) inflight(xid int32) (op wire.OpCode, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.find(xid, 0); e != nil {
		return e.op, true
	}
	return 0, false
}

// writeDone answers the write xid names (see find) as committed: resp,
// the agreed reply (possibly an application-level error like
// BADVERSION), is copied into the entry.
func (s *session) writeDone(xid int32, resp []byte) { s.complete(xid, 0, resp, false) }

// abort answers the write xid names as aborted: the leader rejected it.
func (s *session) abort(xid int32) { s.complete(xid, 0, nil, true) }

// flushed answers the write whose reply stage put aside for zxid: with
// that reply once the flush made the commit durable, or aborted if the
// flush failed.
func (s *session) flushed(xid int32, zxid int64, err error) { s.complete(xid, zxid, nil, err != nil) }

// complete answers the write find(xid, staged) names: committed, with
// resp copied into the entry (or, when resp is nil, the reply staged
// there), or aborted. A write is answered once: when an abort or another
// completion got there first, there is no such write and nothing
// changes.
func (s *session) complete(xid int32, staged int64, resp []byte, aborted bool) {
	s.mu.Lock()
	e := s.find(xid, staged)
	if e != nil {
		if resp != nil {
			e.resp = append(e.resp[:0], resp...)
		}
		s.answer(e, aborted)
	}
	s.mu.Unlock()
	if e != nil {
		s.kick()
	}
}

// stage copies the reply of a write committed at zxid into the entry xid
// names, unanswered: a durable replica releases it when the flush
// covering zxid returns (flushed). It reports whether there was such a
// write.
func (s *session) stage(xid int32, zxid int64, resp []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.find(xid, 0)
	if e != nil {
		e.resp = append(e.resp[:0], resp...)
		e.staged = zxid
	}
	return e != nil
}

// refuse aborts e, a write the reader has just admitted and cannot
// submit — unless e was answered meanwhile (an abort overtook the
// submit), in which case the writer may already have released e and
// reused it for a watch event. The reader is the only goroutine that
// appends to the queue, so until it moves on, e is this write's exactly
// while it is the queue's tail.
func (s *session) refuse(e *inflightReq) {
	s.mu.Lock()
	n := len(s.queue)
	if n > 0 && s.queue[n-1] == e && !e.answered {
		s.answer(e, true)
	}
	s.mu.Unlock()
	s.kick()
}

// abortWrites aborts every unanswered write of the session.
func (s *session) abortWrites() {
	s.mu.Lock()
	aborted := false
	for _, e := range s.queue {
		if !e.answered && agreed(e.op) {
			s.answer(e, true)
			aborted = true
		}
	}
	s.mu.Unlock()
	if aborted {
		s.kick()
	}
}

// answer records the fate of a write: committed, with the reply already
// in resp, or aborted (the write will never commit here — leader change,
// forward rejection, failed flush, shutdown), with CONNECTIONLOSS. An
// abort fails the unexecuted reads behind the write in the queue with
// CONNECTIONLOSS: their read-after-own-write baseline is gone (the
// write's fate is unknown), so completing them with data could silently
// violate the session guarantee. Reads ahead of the aborted write keep
// waiting for the fate of whatever earlier write they are behind.
// Caller holds s.mu.
func (s *session) answer(e *inflightReq, aborted bool) {
	if aborted {
		e.resp = errorReply(e.resp[:0], e.xid, 0, wire.ErrConnectionLoss)
	}
	e.answered, e.staged = true, 0
	s.waiting--
	if e.submitNs > 0 {
		e.commitNs = obs.Now()
		if !aborted {
			s.rep.submitToCommit.Observe(e.commitNs - e.submitNs)
		}
	}
	if aborted {
		s.failReadsBehind(e)
	}
}

// failReadsBehind answers every unexecuted read queued after the
// aborted write with CONNECTIONLOSS. Caller holds s.mu.
func (s *session) failReadsBehind(aborted *inflightReq) {
	behind := false
	for _, e := range s.queue {
		switch {
		case e == aborted:
			behind = true
		case behind && !e.answered && !agreed(e.op):
			e.resp = errorReply(e.resp[:0], e.xid, 0, wire.ErrConnectionLoss)
			e.answered = true
			s.waiting--
		}
	}
}

// writer is the in-order releaser: it pops answered responses off the
// head of the FIFO queue and sends them, interleaving watch events. The
// only thing it executes is a read that had to wait for requests ahead
// of it (see gatherDue), so release order — which the entry enclave's
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
// Once the write returned, the pass's entries are recycled.
func (s *session) writer() {
	defer close(s.writerD)
	var due [][]byte // reused across passes; the frames themselves are not
	for {
		for {
			var closing bool
			due, closing = s.gatherDue(due[:0])
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
			s.recycle()
		}
		select {
		case <-s.kickCh:
		case <-s.stopped:
			return
		}
	}
}

// gatherDue appends to due the raw messages of one drain pass: the
// responses answered at the head of the FIFO queue, then the queued
// watch events, up to transport.BatchBytes; the entries they lie in go
// to s.sent. An unexecuted read that reaches the head is executed here —
// everything ahead of it is answered, and nothing can answer it in the
// meantime: an abort only fails reads behind the aborted write, and no
// write is ahead of the head. closing reports that the pass ends with
// the CloseSession reply, after which nothing more may be sent.
func (s *session) gatherDue(due [][]byte) (_ [][]byte, closing bool) {
	size, n := 0, 0
	s.mu.Lock()
	for size < transport.BatchBytes && n < len(s.queue) {
		head := s.queue[n]
		if !head.answered {
			if agreed(head.op) {
				break // fate unknown; its completion kicks
			}
			s.mu.Unlock()
			resp := s.rep.handleRead(s, head)
			s.mu.Lock()
			head.resp, head.answered = resp, true
			s.waiting--
		}
		n++
		if head.commitNs > 0 {
			s.rep.commitToRelease.Observe(obs.Now() - head.commitNs)
		}
		s.sent = append(s.sent, head)
		due = append(due, head.resp)
		size += len(head.resp)
		if closing = head.op == wire.OpCloseSession; closing {
			break
		}
	}
	// Pop the released entries; the queue keeps its array.
	left := copy(s.queue, s.queue[n:])
	clear(s.queue[left:])
	s.queue = s.queue[:left]
	for size < transport.BatchBytes && !closing {
		var ev wire.WatcherEvent
		select {
		case ev = <-s.events:
		default:
			s.mu.Unlock()
			return due, false
		}
		e := s.entry(wire.WatcherEventXid, 0, nil)
		enc := beginReply(e.resp, wire.WatcherEventXid, 0, wire.ErrOK)
		ev.Serialize(&enc)
		e.resp = enc.Bytes()
		s.sent = append(s.sent, e)
		due = append(due, e.resp)
		size += len(e.resp)
	}
	s.mu.Unlock()
	return due, closing
}
