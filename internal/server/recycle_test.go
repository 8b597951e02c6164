package server

import (
	"errors"
	"sync"
	"testing"

	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// unstartedSession returns a session of r that no goroutine serves: the
// test plays its reader (admit, push), its writer (gatherDue, recycle)
// and the completions.
func unstartedSession(r *Replica, id int64) *session {
	conn, _ := transport.NewChanPipe()
	return newSession(r, id, conn, NopInterceptor{})
}

// setReply is the agreed reply of a SET with xid, committed at zxid.
func setReply(xid int32, zxid int64) []byte {
	return wire.MarshalPair(&wire.ReplyHeader{Xid: xid, Zxid: zxid}, &wire.SetDataResponse{Stat: wire.Stat{Mzxid: zxid}})
}

// release runs one writer pass and recycles its entries; it returns the
// released replies' headers.
func release(t *testing.T, s *session) []wire.ReplyHeader {
	t.Helper()
	due, _ := s.gatherDue(nil)
	hdrs := make([]wire.ReplyHeader, len(due))
	for i, msg := range due {
		if err := hdrs[i].Deserialize(wire.NewDecoder(msg)); err != nil {
			t.Fatal(err)
		}
	}
	s.recycle()
	return hdrs
}

// answered reports whether e is answered, under the session's lock.
func answered(s *session, e *inflightReq) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.answered
}

// TestSessionAllocations: once a session has served a request, a
// window-1 read and a window-1 write through it allocate no bookkeeping.
// The entry comes off the free list and goes back after its pass, the
// reply is built (read) or copied (write) into the buffer the entry
// kept, and the queue keeps its array. What is left is a read's one
// allocation: its decoded path, the key of the tree lookup.
func TestSessionAllocations(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	if _, err := r.tree.Create("/alloc", make([]byte, 1024), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s := unstartedSession(r, 7000)
	body := readBodyOf(t, "/alloc")
	reply := setReply(2, 9)
	var due [][]byte
	var failed bool
	read := func() {
		e, runNow, ok := s.admit(1, wire.OpGetData, body)
		failed = failed || !runNow || !ok
		s.push(e, r.handleRead(s, e))
		due, _ = s.gatherDue(due[:0])
		failed = failed || len(due) != 1 || len(due[0]) < 1024
		s.recycle()
	}
	write := func() {
		_, runNow, ok := s.admit(2, wire.OpSetData, nil)
		failed = failed || runNow || !ok
		s.writeDone(2, reply)
		due, _ = s.gatherDue(due[:0])
		failed = failed || len(due) != 1 || len(due[0]) != len(reply)
		s.recycle()
	}
	for _, c := range []struct {
		name string
		run  func()
		want float64
	}{{"read", read, 1}, {"write", write, 0}} {
		c.run()
		got := testing.AllocsPerRun(1000, c.run)
		if failed {
			t.Fatalf("%s: a pass did not release the one reply", c.name)
		}
		if got != c.want {
			t.Errorf("%s: %v allocs per request, want %v", c.name, got, c.want)
		}
	}
}

// TestLateCommitAfterReuse: an abort answers a write, the writer
// releases it and the session's next write reuses its entry. The commit
// of the first write lost the race to the abort — deliver had found the
// write, and built its reply, before the abort — and must now find
// nothing to answer, not the new occupant. The first part plays that
// interleaving step by step; the second races a commit against
// abort-release-reuse for real, for the race detector.
func TestLateCommitAfterReuse(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	s := unstartedSession(r, 7001)

	old, _, _ := s.admit(1, wire.OpSetData, nil)
	if _, ok := s.inflight(1); !ok { // deliver's lookup
		t.Fatal("inflight misses the admitted write")
	}
	s.abort(1)
	if got := release(t, s); len(got) != 1 || got[0].Xid != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v, want the abort of xid 1", got)
	}
	next, _, _ := s.admit(2, wire.OpSetData, nil)
	if next != old {
		t.Fatal("the next write did not reuse the released entry")
	}
	s.writeDone(1, setReply(1, 9)) // the late commit
	if answered(s, next) {
		t.Fatal("the late commit of xid 1 answered the entry's new occupant, xid 2")
	}
	if got := release(t, s); len(got) != 0 {
		t.Fatalf("released %+v with xid 2 unanswered", got)
	}
	s.writeDone(2, setReply(2, 10))
	if got := release(t, s); len(got) != 1 || got[0].Xid != 2 || got[0].Zxid != 10 {
		t.Fatalf("released %+v, want xid 2's own commit", got)
	}

	for i := int32(0); i < 300; i++ {
		xid := 100 + 2*i
		s.admit(xid, wire.OpSetData, nil)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // deliver
			defer wg.Done()
			if _, ok := s.inflight(xid); ok {
				s.writeDone(xid, setReply(xid, 9))
			}
		}()
		s.abort(xid)
		got := release(t, s)
		if len(got) != 1 || got[0].Xid != xid || (got[0].Err != wire.ErrOK && got[0].Err != wire.ErrConnectionLoss) {
			t.Fatalf("round %d: released %+v, want one answer for xid %d", i, got, xid)
		}
		next, _, _ := s.admit(xid+1, wire.OpSetData, nil)
		wg.Wait()
		if answered(s, next) {
			t.Fatalf("round %d: a completion for xid %d answered xid %d", i, xid, xid+1)
		}
		s.abort(xid + 1)
		release(t, s)
	}
}

// TestLateFlushAfterReuse is TestLateCommitAfterReuse on a durable
// replica's path. A committed write's reply waits in its entry for the
// flush covering it; a role change aborts the write meanwhile, the writer
// releases it, and the entry is reused — by a write under the same xid,
// which a client may repeat, committed and staged in turn. The flush
// callback of the first commit must answer nothing; the new occupant is
// answered by its own flush, and aborted by a flush that failed.
func TestLateFlushAfterReuse(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	s := unstartedSession(r, 7002)

	old, _, _ := s.admit(1, wire.OpSetData, nil)
	if !s.stage(1, 10, setReply(1, 10)) {
		t.Fatal("stage misses the admitted write")
	}
	s.abortWrites() // a role change
	if got := release(t, s); len(got) != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v, want the abort of xid 1", got)
	}
	next, _, _ := s.admit(1, wire.OpSetData, nil)
	if next != old {
		t.Fatal("the next write did not reuse the released entry")
	}
	s.flushed(1, 10, nil) // the late flush, before the new write commits
	if answered(s, next) {
		t.Fatal("the late flush of zxid 10 answered the entry's new occupant")
	}
	if !s.stage(1, 11, setReply(1, 11)) {
		t.Fatal("stage misses the new write")
	}
	s.flushed(1, 10, nil) // and after it staged its own reply
	if got := release(t, s); len(got) != 0 {
		t.Fatalf("released %+v before the flush of zxid 11", got)
	}
	s.flushed(1, 11, nil)
	if got := release(t, s); len(got) != 1 || got[0].Zxid != 11 || got[0].Err != wire.ErrOK {
		t.Fatalf("released %+v, want the reply staged for zxid 11", got)
	}
	s.admit(2, wire.OpSetData, nil)
	s.stage(2, 12, setReply(2, 12))
	s.flushed(2, 12, errFlush)
	if got := release(t, s); len(got) != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v after a failed flush, want CONNECTIONLOSS", got)
	}

	for i := int64(0); i < 300; i++ {
		zxid := 100 + 2*i
		s.admit(1, wire.OpSetData, nil)
		s.stage(1, zxid, setReply(1, zxid))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the persister
			defer wg.Done()
			s.flushed(1, zxid, nil)
		}()
		s.abortWrites()
		if got := release(t, s); len(got) != 1 {
			t.Fatalf("round %d: released %+v, want one answer", i, got)
		}
		next, _, _ := s.admit(1, wire.OpSetData, nil)
		s.stage(1, zxid+1, setReply(1, zxid+1))
		wg.Wait()
		if answered(s, next) {
			t.Fatalf("round %d: the flush of zxid %d answered the write staged at %d", i, zxid, zxid+1)
		}
		s.abortWrites()
		release(t, s)
	}
}

var errFlush = errors.New("fsync failed")

// TestRefuseAfterReuse: a write's submit fails (no leader) while a role
// change aborts it, and the writer releases the entry and reuses it for
// a watch event before the reader's refuse runs. The refuse must answer
// nothing: the count of unanswered requests stays put, so a later read
// still waits behind a later write, and the event's bytes stay as they
// were serialized. The first part plays that interleaving step by step;
// the second runs refuse against abort-release-reuse for real, for the
// race detector.
func TestRefuseAfterReuse(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	s := unstartedSession(r, 7003)
	ev := wire.WatcherEvent{Type: wire.EventNodeDataChanged, State: 3, Path: "/watched"}
	want := wire.MarshalPair(&wire.ReplyHeader{Xid: wire.WatcherEventXid}, &ev)
	waiting := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.waiting
	}

	w, _, _ := s.admit(1, wire.OpSetData, nil)
	s.abortWrites() // the role change, while the submit is under way
	if got := release(t, s); len(got) != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v, want the abort of xid 1", got)
	}
	s.Notify(ev)
	due, _ := s.gatherDue(nil)
	if len(due) != 1 || len(s.sent) != 1 || s.sent[0] != w {
		t.Fatal("the watch event did not reuse the released entry")
	}
	s.refuse(w) // the failed submit
	if n := waiting(); n != 0 {
		t.Fatalf("waiting = %d after the late refuse, want 0", n)
	}
	if string(due[0]) != string(want) {
		t.Fatalf("the late refuse rewrote the watch event in flight: % x, want % x", due[0], want)
	}
	s.recycle()
	s.admit(2, wire.OpSetData, nil)
	if _, runNow, _ := s.admit(3, wire.OpGetData, readBodyOf(t, "/")); runNow {
		t.Fatal("a read behind an unanswered write runs at once")
	}
	s.abortWrites()
	release(t, s)

	for i := int32(0); i < 300; i++ {
		xid := 100 + i
		w, _, _ := s.admit(xid, wire.OpSetData, nil)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the reader, its submit failed
			defer wg.Done()
			s.refuse(w)
		}()
		s.abortWrites()
		release(t, s)
		s.Notify(ev)
		due, _ := s.gatherDue(nil)
		wg.Wait()
		if n := waiting(); n != 0 {
			t.Fatalf("round %d: waiting = %d, want 0", i, n)
		}
		for _, msg := range due {
			if string(msg) != string(want) {
				t.Fatalf("round %d: released % x, want the watch event", i, msg)
			}
		}
		s.recycle()
	}
}
