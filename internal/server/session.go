package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// inflightReq is one request in a session's FIFO queue. Its position in
// the queue is its whole ordering state: resp is nil until the request
// is answered, and an unanswered request is either a write awaiting its
// fate or a read the writer goroutine will execute when it reaches the
// head. resp is guarded by the session's mu.
type inflightReq struct {
	xid  int32
	op   wire.OpCode
	body []byte

	// Pipeline-stage timestamps (obs.Now ns), stamped for writes only.
	// submitNs is set once by the reader goroutine before the entry is
	// shared; commitNs is written by writeDone before it publishes resp
	// and read by the writer after it saw resp, so mu orders the two.
	submitNs int64
	commitNs int64

	resp []byte
}

// isWrite reports whether the request goes through agreement. SYNC is
// agreed like a write: its commit is the flush point.
func (e *inflightReq) isWrite() bool { return e.op.IsWrite() || e.op == wire.OpSync }

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
// reads execute in submission order. A write is answered by writeDone;
// an aborted write fails the unexecuted reads behind it.
type session struct {
	id    int64
	rep   *Replica
	conn  transport.Conn
	icept Interceptor

	mu      sync.Mutex
	queue   []*inflightReq // every unreleased request, submission order
	waiting int            // requests in queue with resp == nil
	closed  bool

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
	entry := &inflightReq{xid: hdr.Xid, op: hdr.Op, body: msg[d.Offset():]}
	if entry.isWrite() {
		entry.submitNs = obs.Now()
	}
	runNow, ok := s.admit(entry)
	switch {
	case !ok:
		return true, nil
	case runNow:
		s.push(entry, s.rep.handleRead(s, entry))
	case entry.isWrite():
		s.rep.handleWrite(s, entry)
	case s.rep.persister != nil:
		// Queued behind an unanswered write, the read is answered by the
		// flush that makes that write durable: the flush rule counts it.
		s.rep.persister.Await()
	}
	// After CloseSession stop reading; the writer drains its response.
	return hdr.Op == wire.OpCloseSession, nil
}

// admit decides who executes a request. A read with nothing unanswered
// ahead of it (runNow) belongs to the caller — the reader goroutine,
// the only one that admits — which executes it and then appends it with
// push, already answered, so the writer never meets a request someone
// else is executing. Every other request is appended here, unanswered.
// ok is false once the session closed.
func (s *session) admit(entry *inflightReq) (runNow, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	if !entry.isWrite() {
		if s.waiting == 0 {
			return true, true
		}
		// Queued unexecuted, the read outlives the burst it came in: its
		// body lies in the connection's receive chunk (or the entry
		// enclave's request buffer), which the reader's next receive
		// reuses, so this one request keeps a copy. A write's body is read
		// only by handleWrite, before the reader moves on.
		entry.body = bytes.Clone(entry.body)
	}
	s.queue = append(s.queue, entry)
	s.waiting++
	return false, true
}

// push appends a read the reader goroutine executed itself.
func (s *session) push(entry *inflightReq, resp []byte) {
	s.mu.Lock()
	entry.resp = resp
	s.queue = append(s.queue, entry)
	s.mu.Unlock()
	s.kick()
}

// writeDone records the fate of one of this session's writes: committed
// (resp is the agreed reply, possibly an application-level error like
// BADVERSION) or aborted (the write will never commit here — leader
// change, forward rejection, shutdown — and resp carries the error
// reply, typically CONNECTIONLOSS). An abort fails the unexecuted reads
// behind the write in the queue with CONNECTIONLOSS: their
// read-after-own-write baseline is gone (the write's fate is unknown),
// so completing them with data could silently violate the session
// guarantee. Reads ahead of the aborted write keep waiting for the
// fate of whatever earlier write they are behind. A write is answered
// once: a second call for the same entry changes nothing.
func (s *session) writeDone(entry *inflightReq, resp []byte, aborted bool) {
	var now int64
	if entry.submitNs > 0 {
		now = obs.Now()
	}
	s.mu.Lock()
	if entry.resp != nil {
		s.mu.Unlock()
		return
	}
	entry.resp, entry.commitNs = resp, now
	s.waiting--
	if aborted {
		s.failReadsBehind(entry)
	}
	s.mu.Unlock()
	if now > 0 && !aborted {
		s.rep.submitToCommit.Observe(now - entry.submitNs)
	}
	s.kick()
}

// abort answers a write as aborted with CONNECTIONLOSS.
func (s *session) abort(entry *inflightReq) {
	s.writeDone(entry, errorReply(entry.xid, 0, wire.ErrConnectionLoss), true)
}

// abortWrites aborts every unanswered write of the session.
func (s *session) abortWrites() {
	s.mu.Lock()
	var writes []*inflightReq
	for _, e := range s.queue {
		if e.resp == nil && e.isWrite() {
			writes = append(writes, e)
		}
	}
	s.mu.Unlock()
	for _, e := range writes {
		s.abort(e)
	}
}

// inflight returns the first unanswered write with this xid, the one a
// commit, reject or abort with the xid in its Origin is about, or nil.
// A session's writes are proposed, and so committed, in queue order: of
// two writes in flight under one xid the first is the one the ensemble
// answers first. The scan is as long as the session's window.
func (s *session) inflight(xid int32) *inflightReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.queue {
		if e.resp == nil && e.xid == xid && e.isWrite() {
			return e
		}
	}
	return nil
}

// failReadsBehind answers every unexecuted read queued after the
// aborted write with CONNECTIONLOSS. Caller holds s.mu.
func (s *session) failReadsBehind(aborted *inflightReq) {
	behind := false
	for _, e := range s.queue {
		switch {
		case e == aborted:
			behind = true
		case behind && e.resp == nil && !e.isWrite():
			e.resp = errorReply(e.xid, 0, wire.ErrConnectionLoss)
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
// watch events, up to transport.BatchBytes. An unexecuted read that
// reaches the head is executed here — everything ahead of it is
// answered, and nothing can answer it in the meantime: an abort only
// fails reads behind the aborted write, and no write is ahead of the
// head. closing reports that the pass ends with the CloseSession reply,
// after which nothing more may be sent.
func (s *session) gatherDue(due [][]byte) (_ [][]byte, closing bool) {
	size := 0
	s.mu.Lock()
	for size < transport.BatchBytes && len(s.queue) > 0 {
		head := s.queue[0]
		if head.resp == nil {
			if head.isWrite() {
				break // fate unknown; writeDone kicks
			}
			s.mu.Unlock()
			resp := s.rep.handleRead(s, head)
			s.mu.Lock()
			head.resp = resp
			s.waiting--
		}
		s.queue[0] = nil
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			s.queue = nil // let the backing array go
		}
		if head.commitNs > 0 {
			s.rep.commitToRelease.Observe(obs.Now() - head.commitNs)
		}
		due = append(due, head.resp)
		size += len(head.resp)
		if closing = head.op == wire.OpCloseSession; closing {
			break
		}
	}
	s.mu.Unlock()
	for size < transport.BatchBytes && !closing {
		select {
		case ev := <-s.events:
			e := beginReply(wire.WatcherEventXid, 0, wire.ErrOK)
			ev.Serialize(e)
			msg := wire.Detach(e)
			due = append(due, msg)
			size += len(msg)
		default:
			return due, false
		}
	}
	return due, closing
}
