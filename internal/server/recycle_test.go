package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// unstartedSession returns a session of r that no goroutine serves: the
// test plays its reader (admit, ran, refuse), its writer (gatherDue,
// release) and the completions.
func unstartedSession(r *Replica, id int64) *session {
	conn, _ := transport.NewChanPipe()
	return newSession(r, id, conn, NopInterceptor{})
}

// commitSet commits the SET with xid at zxid, as deliver does, and
// reports whether its reply was staged.
func commitSet(s *session, xid int32, zxid int64, durable bool) bool {
	return s.commit(xid, zxid, &ztree.Txn{}, &ztree.TxnResult{Zxid: zxid}, durable)
}

// release runs one writer pass and releases its slots; it returns the
// released messages' headers.
func release(t *testing.T, s *session) []wire.ReplyHeader {
	t.Helper()
	due, n, _ := s.gatherDue(nil)
	hdrs := make([]wire.ReplyHeader, len(due))
	for i, msg := range due {
		if err := hdrs[i].Deserialize(wire.NewDecoder(msg)); err != nil {
			t.Fatal(err)
		}
	}
	s.release(n)
	return hdrs
}

// isAnswered reports whether request seq is answered or already released,
// under the session's lock.
func isAnswered(s *session, seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return seq < s.head || s.at(seq).state == answered
}

// TestSessionAllocations: once a session has served a request, a
// window-1 read, a window-1 write and a window-8 burst of writes through
// it allocate no bookkeeping. The request takes the next slot of the
// ring, which the reader grew while warming up and which the measured
// runs wrap around; the reply is built into the buffer the slot kept.
// What is left is a read's one allocation: its decoded path, the key of
// the tree lookup.
func TestSessionAllocations(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	if _, err := r.tree.Create("/alloc", make([]byte, 1024), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s := unstartedSession(r, 7000)
	body := readBodyOf(t, "/alloc")
	var due [][]byte
	var failed bool
	drain := func(want int) {
		var n uint64
		due, n, _ = s.gatherDue(due[:0])
		failed = failed || len(due) != want
		s.release(n)
	}
	read := func() {
		seq, dst, runNow, ok := s.admit(1, wire.OpGetData, body)
		failed = failed || !runNow || !ok
		s.ran(seq, r.handleRead(s, dst, 1, wire.OpGetData, body))
		drain(1)
		failed = failed || len(due[0]) < 1024
	}
	write := func() {
		_, _, runNow, ok := s.admit(2, wire.OpSetData, nil)
		failed = failed || runNow || !ok
		commitSet(s, 2, 9, false)
		drain(1)
	}
	burst := func() {
		for xid := int32(1); xid <= 8; xid++ {
			_, _, runNow, ok := s.admit(xid, wire.OpSetData, nil)
			failed = failed || runNow || !ok
		}
		for xid := int32(1); xid <= 8; xid++ {
			commitSet(s, xid, 9, false)
		}
		drain(8)
	}
	for _, c := range []struct {
		name string
		run  func()
		want float64
	}{{"read", read, 1}, {"write", write, 0}, {"burst of 8 writes", burst, 0}} {
		c.run()
		got := testing.AllocsPerRun(1000, c.run)
		if failed {
			t.Fatalf("%s: a pass did not release the requests' replies", c.name)
		}
		if got != c.want {
			t.Errorf("%s: %v allocs per run, want %v", c.name, got, c.want)
		}
	}
}

// TestLateCommitAfterReuse: an abort answers a write, the writer
// releases it and the session's next write takes the next slot. The
// commit of the first write lost the race to the abort and must now
// find nothing to answer, not the new write. The first part plays that
// interleaving step by step; the second races a commit against
// abort-release-admit for real, for the race detector.
func TestLateCommitAfterReuse(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	s := unstartedSession(r, 7001)

	s.admit(1, wire.OpSetData, nil)
	s.abort(1)
	if got := release(t, s); len(got) != 1 || got[0].Xid != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v, want the abort of xid 1", got)
	}
	next, _, _, _ := s.admit(2, wire.OpSetData, nil)
	commitSet(s, 1, 9, false) // the late commit
	if isAnswered(s, next) {
		t.Fatal("the late commit of xid 1 answered xid 2")
	}
	if got := release(t, s); len(got) != 0 {
		t.Fatalf("released %+v with xid 2 unanswered", got)
	}
	commitSet(s, 2, 10, false)
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
			commitSet(s, xid, 9, false)
		}()
		s.abort(xid)
		got := release(t, s)
		if len(got) != 1 || got[0].Xid != xid || (got[0].Err != wire.ErrOK && got[0].Err != wire.ErrConnectionLoss) {
			t.Fatalf("round %d: released %+v, want one answer for xid %d", i, got, xid)
		}
		next, _, _, _ := s.admit(xid+1, wire.OpSetData, nil)
		wg.Wait()
		if isAnswered(s, next) {
			t.Fatalf("round %d: a completion for xid %d answered xid %d", i, xid, xid+1)
		}
		s.abort(xid + 1)
		release(t, s)
	}
}

// TestLateFlushAfterReuse is TestLateCommitAfterReuse on a durable
// replica's path. A committed write's reply waits in its slot for the
// flush covering it; a role change aborts the write meanwhile, the
// writer releases it, and a write under the same xid, which a client may
// repeat, is committed and staged in turn. The flush callback of the
// first commit must answer nothing; the new write is answered by its own
// flush, and aborted by a flush that failed.
func TestLateFlushAfterReuse(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	s := unstartedSession(r, 7002)

	s.admit(1, wire.OpSetData, nil)
	if !commitSet(s, 1, 10, true) {
		t.Fatal("commit did not stage the admitted write")
	}
	s.abortWrites() // a role change
	if got := release(t, s); len(got) != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v, want the abort of xid 1", got)
	}
	next, _, _, _ := s.admit(1, wire.OpSetData, nil)
	s.flushed(1, 10, nil) // the late flush, before the new write commits
	if isAnswered(s, next) {
		t.Fatal("the late flush of zxid 10 answered the new write")
	}
	if !commitSet(s, 1, 11, true) {
		t.Fatal("commit did not stage the new write")
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
	commitSet(s, 2, 12, true)
	s.flushed(2, 12, errFlush)
	if got := release(t, s); len(got) != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v after a failed flush, want CONNECTIONLOSS", got)
	}

	for i := int64(0); i < 300; i++ {
		zxid := 100 + 2*i
		s.admit(1, wire.OpSetData, nil)
		commitSet(s, 1, zxid, true)
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
		next, _, _, _ := s.admit(1, wire.OpSetData, nil)
		commitSet(s, 1, zxid+1, true)
		wg.Wait()
		if isAnswered(s, next) {
			t.Fatalf("round %d: the flush of zxid %d answered the write staged at %d", i, zxid, zxid+1)
		}
		s.abortWrites()
		release(t, s)
	}
}

var errFlush = errors.New("fsync failed")

// TestRefuseAfterReuse: a write's submit fails (no leader) while a role
// change aborts it, and the writer releases it and sends a watch event
// before the reader's refuse runs. The refuse must answer nothing: the
// count of pending requests stays put, so a later read still waits
// behind a later write, and the event's bytes stay as they were
// serialized. The first part plays that interleaving step by step; the
// second runs refuse against abort-release-event for real, for the race
// detector.
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

	w, _, _, _ := s.admit(1, wire.OpSetData, nil)
	s.abortWrites() // the role change, while the submit is under way
	if got := release(t, s); len(got) != 1 || got[0].Err != wire.ErrConnectionLoss {
		t.Fatalf("released %+v, want the abort of xid 1", got)
	}
	s.Notify(ev)
	due, n, _ := s.gatherDue(nil)
	s.refuse(w) // the failed submit
	if got := waiting(); got != 0 {
		t.Fatalf("waiting = %d after the late refuse, want 0", got)
	}
	if len(due) != 1 || string(due[0]) != string(want) {
		t.Fatalf("the late refuse rewrote the watch event in flight: %x, want % x", due, want)
	}
	s.release(n)
	s.admit(2, wire.OpSetData, nil)
	if _, _, runNow, _ := s.admit(3, wire.OpGetData, readBodyOf(t, "/")); runNow {
		t.Fatal("a read behind a pending write runs at once")
	}
	s.abortWrites()
	release(t, s)

	for i := int32(0); i < 300; i++ {
		xid := 100 + i
		w, _, _, _ := s.admit(xid, wire.OpSetData, nil)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the reader, its submit failed
			defer wg.Done()
			s.refuse(w)
		}()
		s.abortWrites()
		release(t, s)
		s.Notify(ev)
		due, n, _ := s.gatherDue(nil)
		wg.Wait()
		if got := waiting(); got != 0 {
			t.Fatalf("round %d: waiting = %d, want 0", i, got)
		}
		for _, msg := range due {
			if string(msg) != string(want) {
				t.Fatalf("round %d: released % x, want the watch event", i, msg)
			}
		}
		s.release(n)
	}
}

// TestWatchEventOverflowEndsSession: a session holds watchEventBuffer
// fired events for a client that does not read them. The next event
// ends the session rather than vanish, so the client's watch handles
// close; none of the events before it is lost.
func TestWatchEventOverflowEndsSession(t *testing.T) {
	tc := newTestCluster(t, 1)
	s := unstartedSession(tc.replicas[0], 7004)
	closed := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	}
	event := func(i int) wire.WatcherEvent {
		return wire.WatcherEvent{Type: wire.EventNodeDataChanged, State: 3, Path: fmt.Sprintf("/w%d", i)}
	}
	for i := range watchEventBuffer {
		s.Notify(event(i))
	}
	if closed() {
		t.Fatalf("%d events closed the session", watchEventBuffer)
	}
	s.Notify(event(watchEventBuffer))
	if !closed() {
		t.Fatalf("event %d was dropped and the session lives on", watchEventBuffer+1)
	}
	got := 0
	for {
		due, n, _ := s.gatherDue(nil)
		if len(due) == 0 {
			break
		}
		for _, msg := range due {
			ev := event(got)
			if want := wire.MarshalPair(&wire.ReplyHeader{Xid: wire.WatcherEventXid}, &ev); string(msg) != string(want) {
				t.Fatalf("event %d: % x, want % x", got, msg, want)
			}
			got++
		}
		s.release(n)
	}
	if got != watchEventBuffer {
		t.Fatalf("released %d events, want the %d queued before the session ended", got, watchEventBuffer)
	}
}
