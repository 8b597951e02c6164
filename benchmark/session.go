package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
)

// session is one closed-loop client: it keeps sp.window operations in
// flight and issues the next one only when the oldest has completed.
type session struct {
	id    int
	sp    *spec
	cl    *client.Client
	trace *sessionTrace // nil in an untraced run
	pool  []byte
	paths []string // the session's keys
	// lastOff is, per key, the pool offset of the last payload this
	// session sent. Nobody else writes the session's keys and a read
	// waits for the session's earlier writes, so a GET returns the
	// payload of the last SET issued before it (see readOK for the one
	// exception the server allows itself).
	lastOff []int32
	// seqNodes queues the acknowledged sequential nodes, oldest first.
	seqNodes []string

	gen *generator
	ops []op
	// t0 and t1 are each op's issue and completion time, index-aligned
	// with ops.
	t0, t1 []int64

	inflight []inflightOp
	failed   int
	firstErr error
}

type inflightOp struct {
	fut    *client.Future
	idx    int
	expect int32 // GET: offset of the payload the reply must carry
}

func newSession(id int, sp *spec, seed uint64, pool []byte, cl *client.Client, tr *sessionTrace) *session {
	perRound := sp.roundOps / numSessions
	s := &session{
		id: id, sp: sp, cl: cl, trace: tr, pool: pool,
		paths:   make([]string, sp.half()),
		lastOff: make([]int32, sp.half()),
		gen:     newGenerator(sp, seed, id),
		ops:     make([]op, perRound),
		t0:      make([]int64, perRound),
		t1:      make([]int64, perRound),
	}
	for k := range s.paths {
		s.paths[k] = sp.keyPath(id, k)
		s.lastOff[k] = preloadOffset(id, k)
	}
	return s
}

func (s *session) payload(off int32) []byte { return s.pool[off : off+payloadBytes] }

func (s *session) fail(o op, err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = fmt.Errorf("session %d %s key %d: %w", s.id, o.kind, o.key, err)
	}
}

var errWrongData = errors.New("reply does not carry the last payload written")

// nextRound draws the round's ops from the stream. Untimed.
func (s *session) nextRound() {
	s.gen.fill(s.ops)
	if s.trace != nil {
		s.trace.reset(len(s.ops))
	}
}

// runRound issues the round's ops and returns when all have completed.
func (s *session) runRound() {
	if s.sp.window == 1 {
		s.runSerial()
		return
	}
	for i := range s.ops {
		if len(s.inflight) == s.sp.window {
			s.completeOldest()
		}
		s.issue(i)
	}
	for len(s.inflight) > 0 {
		s.completeOldest()
	}
}

// runSerial is the window-1 loop on the client's synchronous calls, the
// way a coordination client that waits for each reply uses the library.
func (s *session) runSerial() {
	ctx := context.Background()
	for i, o := range s.ops {
		s.t0[i] = now()
		switch o.kind {
		case opGet:
			data, _, err := s.cl.Get(ctx, s.paths[o.key])
			if err == nil && !bytes.Equal(data, s.payload(s.lastOff[o.key])) {
				err = errWrongData
			}
			if err != nil {
				s.fail(o, err)
			}
		case opSet:
			s.lastOff[o.key] = o.off
			if _, err := s.cl.Set(ctx, s.paths[o.key], s.payload(o.off), -1); err != nil {
				s.fail(o, err)
			}
		case opCreateSeq:
			path, err := s.cl.Create(ctx, seqPrefix(s.id), s.payload(o.off), wire.FlagSequential)
			if err != nil {
				s.fail(o, err)
			} else {
				s.seqNodes = append(s.seqNodes, path)
			}
		case opDeleteOldest:
			if err := s.cl.Delete(ctx, s.popSeqNode(), -1); err != nil {
				s.fail(o, err)
			}
		}
		s.t1[i] = now()
	}
}

func (s *session) popSeqNode() string {
	path := s.seqNodes[0]
	s.seqNodes = s.seqNodes[1:]
	return path
}

func (s *session) issue(i int) {
	o := s.ops[i]
	in := inflightOp{idx: i}
	s.t0[i] = now()
	switch o.kind {
	case opGet:
		in.expect = s.lastOff[o.key]
		in.fut = s.cl.GetAsync(s.paths[o.key], false)
	case opSet:
		s.lastOff[o.key] = o.off
		in.fut = s.cl.SetAsync(s.paths[o.key], s.payload(o.off), -1)
	case opCreateSeq:
		in.fut = s.cl.CreateAsync(seqPrefix(s.id), s.payload(o.off), wire.FlagSequential)
	case opDeleteOldest:
		in.fut = s.cl.DeleteAsync(s.popSeqNode(), -1)
	}
	s.inflight = append(s.inflight, in)
}

func (s *session) completeOldest() {
	in := s.inflight[0]
	copy(s.inflight, s.inflight[1:])
	s.inflight = s.inflight[:len(s.inflight)-1]

	res := in.fut.Wait()
	s.t1[in.idx] = now()
	o := s.ops[in.idx]
	err := res.Err
	switch {
	case err != nil:
	case o.kind == opGet && !s.readOK(in, res.Data):
		err = errWrongData
	case o.kind == opCreateSeq:
		s.seqNodes = append(s.seqNodes, res.Path)
	}
	if err != nil {
		s.fail(o, err)
	}
}

// readOK checks the payload a pipelined GET returned. The server parks
// a read behind the session's uncommitted writes and runs it some time
// after they commit; by then SETs the session issued after the GET may
// have committed too, and the read sees them. So the reply must carry
// the last payload written before the GET or one written to the same key
// while the GET was in flight, never anything else.
func (s *session) readOK(in inflightOp, data []byte) bool {
	if bytes.Equal(data, s.payload(in.expect)) {
		return true
	}
	key := s.ops[in.idx].key
	for j := in.idx + 1; j < len(s.ops) && j < in.idx+s.sp.window; j++ {
		if o := s.ops[j]; o.kind == opSet && o.key == key && bytes.Equal(data, s.payload(o.off)) {
			return true
		}
	}
	return false
}

// retrySetup repeats a set-up write for as long as it is refused with
// CONNECTIONLOSS, which is what a write gets when it reaches a replica
// that cannot propose or forward it yet. Measured ops are never retried.
func retrySetup(write func() error) error {
	for attempt := 0; ; attempt++ {
		err := write()
		if !isConnectionLoss(err) || attempt == 100 {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// createTree creates the znodes every session's keys hang under.
func createTree(cl *client.Client, sp *spec) error {
	paths := []string{"/bench"}
	for i := 0; i < sp.parents; i++ {
		paths = append(paths, parentPath(i))
	}
	for s := 0; s < numSessions; s++ {
		paths = append(paths, seqParent(s))
	}
	for _, p := range paths {
		p := p
		if err := retrySetup(func() error {
			_, err := cl.Create(context.Background(), p, nil, 0)
			return err
		}); err != nil {
			return fmt.Errorf("create %s: %w", p, err)
		}
	}
	return nil
}

// preload creates the session's keys and sequential nodes, 64 creates
// in flight.
func (s *session) preload() error {
	const window = 64
	type item struct {
		path  string
		off   int32
		flags wire.CreateFlags
		fut   *client.Future
	}
	var todo []item
	for k, p := range s.paths {
		todo = append(todo, item{path: p, off: s.lastOff[k]})
	}
	if s.sp.hasSequential() {
		for i := 0; i < seqPreload; i++ {
			todo = append(todo, item{path: seqPrefix(s.id), off: preloadOffset(s.id, i), flags: wire.FlagSequential})
		}
	}
	for head, tail := 0, 0; head < len(todo); head++ {
		for ; tail < len(todo) && tail-head < window; tail++ {
			it := &todo[tail]
			it.fut = s.cl.CreateAsync(it.path, s.payload(it.off), it.flags)
		}
		it := &todo[head]
		res := it.fut.Wait()
		if isConnectionLoss(res.Err) {
			_ = retrySetup(func() error {
				res = s.cl.CreateR(context.Background(), it.path, s.payload(it.off), it.flags)
				return res.Err
			})
		}
		if res.Err != nil {
			return fmt.Errorf("preload %s: %w", it.path, res.Err)
		}
		if it.flags&wire.FlagSequential != 0 {
			s.seqNodes = append(s.seqNodes, res.Path)
		}
	}
	return nil
}
