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

// reqState tracks a request through the split pipeline. Writes go
// statePending -> stateDone (commit or abort). Reads either execute
// immediately (statePending -> stateDone on the reader goroutine) or
// park behind an uncommitted same-session write
// (statePending -> stateParked -> stateDone via the resume pool).
type reqState int32

const (
	statePending reqState = iota // submitted, not yet executed/committed
	stateParked                  // read waiting on an earlier uncommitted write
	stateDone                    // response ready for in-order release
)

// inflightReq is one request in a session's FIFO release queue.
type inflightReq struct {
	xid  int32
	op   wire.OpCode
	body []byte
	// seq is the session write watermark attached to this request: for
	// a write, its position in the session's write order (1-based); for
	// a read, the seq of the last write submitted before it — the read
	// may execute only once that write has completed (its barrier).
	seq int64

	// Pipeline-stage timestamps (obs.Now ns), stamped for writes only.
	// submitNs is set once by the reader goroutine before the entry is
	// shared; commitNs is written by the single writeDone call before
	// complete() and read by the writer goroutine after result(), both
	// under e.mu, so the accesses are ordered.
	submitNs int64
	commitNs int64

	mu    sync.Mutex
	state reqState
	resp  []byte
}

func (e *inflightReq) complete(resp []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateDone {
		return
	}
	e.state = stateDone
	e.resp = resp
}

func (e *inflightReq) fail(code wire.ErrCode) {
	e.complete(errorReply(e.xid, 0, code))
}

func (e *inflightReq) park() {
	e.mu.Lock()
	if e.state == statePending {
		e.state = stateParked
	}
	e.mu.Unlock()
}

func (e *inflightReq) result() ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resp, e.state == stateDone
}

// watchEventBuffer bounds the out-of-band watch notification queue per
// session; beyond it, events are dropped (watches are one-shot hints,
// and an unresponsive client must not stall the commit path).
const watchEventBuffer = 1024

// session serializes one client connection with ZooKeeper's
// commit-processor split: *execution order* and *release order* are
// separate concerns.
//
//   - The reader goroutine decodes and classifies requests. A read
//     executes immediately, on the reader goroutine, whenever the
//     session has no earlier write still in flight (committedSeq ==
//     writeSeq); only reads that genuinely trail an uncommitted write
//     of this session park until that write completes, at which point
//     the replica's resume pool drains them in submission order.
//   - The writer goroutine is a pure in-order releaser: it sends
//     responses strictly in request order (ZooKeeper's per-session FIFO
//     guarantee, which the entry enclave's response-matching queue
//     relies on, §4.2) and interleaves watch events. It never executes
//     anything.
//
// The watermark rule: writeSeq counts writes submitted on the session,
// committedSeq the writes whose fate is known (committed or aborted).
// A read's barrier is the writeSeq at its submission; it may execute
// once committedSeq has reached that barrier, which preserves
// read-after-own-write without serializing reads behind the write's
// response release.
type session struct {
	id    int64
	rep   *Replica
	conn  transport.Conn
	icept Interceptor

	mu     sync.Mutex
	queue  []*inflightReq // release FIFO (all ops, submission order)
	parked []*inflightReq // reads awaiting execution, submission order
	// draining marks that a resume-pool worker is currently executing
	// this session's eligible parked reads; at most one drains a given
	// session at a time, keeping same-session read execution ordered.
	// drainDone is broadcast whenever draining clears, so teardown can
	// wait for an in-flight drain (see awaitDrain).
	draining  bool
	drainDone *sync.Cond
	writeSeq  int64 // writes submitted on this session
	// committedSeq is the CONTIGUOUS completion watermark: every write
	// with seq <= committedSeq has a known fate. Writes can complete
	// out of order (a later forwarded write may be rejected while an
	// earlier one is still with the leader); those park in doneAhead
	// until the gap closes — advancing past a still-pending write would
	// let reads barriered on it run against pre-own-write state.
	committedSeq int64
	doneAhead    map[int64]struct{}
	closed       bool

	kickCh  chan struct{}
	events  chan wire.WatcherEvent
	stopped chan struct{}
	writerD chan struct{}
}

func newSession(r *Replica, id int64, conn transport.Conn, icept Interceptor) *session {
	s := &session{
		id:      id,
		rep:     r,
		conn:    conn,
		icept:   icept,
		kickCh:  make(chan struct{}, 1),
		events:  make(chan wire.WatcherEvent, watchEventBuffer),
		stopped: make(chan struct{}),
		writerD: make(chan struct{}),
	}
	s.drainDone = sync.NewCond(&s.mu)
	return s
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
	var frames [][]byte // reused across bursts; the frames themselves are not
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
// handed to agreement, a read executes here or parks. stop reports that
// the session takes no further requests (it closed, or this was its
// CloseSession).
func (s *session) submit(msg []byte) (stop bool, err error) {
	var hdr wire.RequestHeader
	d := wire.NewDecoder(msg)
	if err := hdr.Deserialize(d); err != nil {
		return false, fmt.Errorf("server: session %d header: %w", s.id, err)
	}
	body := msg[d.Offset():]

	entry := &inflightReq{xid: hdr.Xid, op: hdr.Op, body: body}
	// SYNC is agreed like a write: its commit is the flush point.
	isWrite := hdr.Op.IsWrite() || hdr.Op == wire.OpSync
	if isWrite {
		entry.submitNs = obs.Now()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true, nil
	}
	s.queue = append(s.queue, entry)
	var runNow bool
	if isWrite {
		s.writeSeq++
		entry.seq = s.writeSeq
	} else {
		entry.seq = s.writeSeq
		// Execute immediately unless an earlier write of this
		// session is still uncommitted, or parked reads are still
		// draining (the drain worker may be mid-execution of an
		// earlier read even when parked is empty; overtaking it
		// would reorder same-session read execution).
		runNow = s.committedSeq == s.writeSeq && len(s.parked) == 0 && !s.draining
		if !runNow {
			entry.park()
			s.parked = append(s.parked, entry)
		}
	}
	s.mu.Unlock()

	switch {
	case isWrite:
		s.rep.handleWrite(s, entry)
	case runNow:
		entry.complete(s.rep.handleRead(s, entry))
		s.kick()
	}
	// After CloseSession stop reading; the writer drains its response.
	return hdr.Op == wire.OpCloseSession, nil
}

// writeDone records the fate of one of this session's writes: committed
// (resp is the agreed reply, possibly an application-level error like
// BADVERSION) or aborted (the write will never commit here — leader
// change, forward rejection, shutdown — and resp carries the error
// reply, typically CONNECTIONLOSS). It advances the commit watermark
// and deals with parked reads: on a commit, eligible reads are handed
// to the resume pool; on an abort, reads that trailed the aborted write
// fail with CONNECTIONLOSS — their read-after-own-write baseline is
// gone (the write's fate is unknown), so completing them with data
// could silently violate the session guarantee.
func (s *session) writeDone(entry *inflightReq, resp []byte, aborted bool) {
	if entry.submitNs > 0 {
		now := obs.Now()
		entry.commitNs = now
		if !aborted {
			s.rep.submitToCommit.Observe(now - entry.submitNs)
		}
	}
	entry.complete(resp)

	var failed []*inflightReq
	schedule := false
	s.mu.Lock()
	// Advance the watermark contiguously: a completion above a gap
	// (an earlier write still pending) parks in doneAhead so reads
	// barriered on the pending write keep waiting for its real fate.
	if entry.seq == s.committedSeq+1 {
		s.committedSeq++
		for len(s.doneAhead) > 0 {
			if _, ok := s.doneAhead[s.committedSeq+1]; !ok {
				break
			}
			delete(s.doneAhead, s.committedSeq+1)
			s.committedSeq++
		}
	} else if entry.seq > s.committedSeq {
		if s.doneAhead == nil {
			s.doneAhead = make(map[int64]struct{})
		}
		s.doneAhead[entry.seq] = struct{}{}
	}
	if aborted && len(s.parked) > 0 {
		// Fail exactly the reads whose barrier includes the aborted
		// write (barrier >= its seq): their read-after-own-write
		// baseline is gone. Reads behind earlier still-pending writes
		// keep waiting for those writes' own fate.
		kept := s.parked[:0]
		for _, e := range s.parked {
			if e.seq >= entry.seq {
				failed = append(failed, e)
			} else {
				kept = append(kept, e)
			}
		}
		for i := len(kept); i < len(s.parked); i++ {
			s.parked[i] = nil
		}
		s.parked = kept
	}
	if !s.closed && !s.draining && len(s.parked) > 0 && s.parked[0].seq <= s.committedSeq {
		s.draining = true
		schedule = true
	}
	s.mu.Unlock()

	for _, e := range failed {
		e.fail(wire.ErrConnectionLoss)
	}
	if schedule {
		s.rep.scheduleResume(s)
	}
	s.kick()
}

// drainParked executes this session's eligible parked reads in
// submission order. Runs on a resume-pool worker; at most one worker
// drains a session at a time (the draining flag), so same-session read
// execution never reorders.
func (s *session) drainParked() {
	for {
		s.mu.Lock()
		if s.closed || len(s.parked) == 0 || s.parked[0].seq > s.committedSeq {
			s.draining = false
			s.drainDone.Broadcast()
			s.mu.Unlock()
			return
		}
		e := s.parked[0]
		s.parked[0] = nil
		s.parked = s.parked[1:]
		if len(s.parked) == 0 {
			s.parked = nil // let the backing array go
		}
		s.mu.Unlock()

		e.complete(s.rep.handleRead(s, e))
		s.kick()
	}
}

// awaitDrain blocks until no resume-pool worker is executing this
// session's parked reads. Teardown calls it (after shutdown, which
// stops new drains from being scheduled) before deregistering the
// session's watches: a worker mid-handleRead could otherwise
// re-register a watch for the dead session after RemoveWatcher ran.
func (s *session) awaitDrain() {
	s.mu.Lock()
	for s.draining {
		s.drainDone.Wait()
	}
	s.mu.Unlock()
}

// writer is the in-order releaser: it pops completed responses off the
// head of the FIFO queue and sends them, interleaving watch events. It
// executes nothing — execution happens on the reader goroutine or the
// resume pool — so release order (which the entry enclave's
// response-matching FIFO depends on) is decoupled from execution order.
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
// responses complete at the head of the FIFO queue, then the queued
// watch events, up to transport.BatchBytes. closing reports that the
// pass ends with the CloseSession reply, after which nothing more may
// be sent.
func (s *session) gatherDue(due [][]byte) (_ [][]byte, closing bool) {
	size := 0
	for size < transport.BatchBytes {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.mu.Unlock()
			break
		}
		head := s.queue[0]
		s.mu.Unlock()

		resp, done := head.result()
		if !done {
			break // head still executing or awaiting commit; wait for kick
		}
		s.mu.Lock()
		s.queue[0] = nil
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			s.queue = nil
		}
		s.mu.Unlock()
		if head.commitNs > 0 {
			s.rep.commitToRelease.Observe(obs.Now() - head.commitNs)
		}
		due = append(due, resp)
		size += len(resp)
		if head.op == wire.OpCloseSession {
			return due, true
		}
	}
	for size < transport.BatchBytes {
		select {
		case ev := <-s.events:
			hdr := wire.ReplyHeader{Xid: wire.WatcherEventXid, Err: wire.ErrOK}
			msg := wire.MarshalPair(&hdr, &ev)
			due = append(due, msg)
			size += len(msg)
		default:
			return due, false
		}
	}
	return due, false
}
