package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/wire"
)

// --- context plumbing ---

func TestContextCancelReleasesCall(t *testing.T) {
	cl, srv := newFakePair(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Get(ctx, "/slow/1")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach the server
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call did not return")
	}
	// The session survives the abandoned call: new ops still work, and
	// the late response for the withdrawn xid is dropped harmlessly.
	srv.releaseHeld()
	if _, _, err := cl.Get(ctxbg, "/fine"); err != nil {
		t.Fatal(err)
	}
}

func TestContextDeadlineExpires(t *testing.T) {
	cl, srv := newFakePair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := cl.Get(ctx, "/slow/deadline")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	srv.releaseHeld()
}

func TestContextAlreadyCancelled(t *testing.T) {
	cl, _ := newFakePair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cl.Get(ctx, "/x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestContextCancelNoFreelistLeak: a cancel mid-flight must release
// the pooled Future without poisoning the pool — a leaked buffered
// result would surface as a wrong reply on a later recycled call.
// This is the freelist acceptance test: hammer cancel/complete races,
// then verify hundreds of fresh calls still get THEIR results.
func TestContextCancelNoFreelistLeak(t *testing.T) {
	cl, srv := newFakePair(t)
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			_, _, _ = cl.Get(ctx, fmt.Sprintf("/slow/%d", i))
			close(done)
		}()
		// Race the cancellation against the in-flight response from the
		// previous round being released: both orders must be leak-free.
		if i%2 == 0 {
			srv.releaseHeld()
		}
		cancel()
		<-done
		if i%2 == 1 {
			srv.releaseHeld()
		}
	}
	// Pool integrity: recycled futures must deliver the right results.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				path := fmt.Sprintf("/chk-g%d-i%d", g, i)
				data, _, err := cl.Get(ctxbg, path)
				if err != nil {
					t.Errorf("get %s: %v", path, err)
					return
				}
				if string(data) != path {
					t.Errorf("get %s returned %q: stale recycled result", path, data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// --- per-watch subscription handles ---

func TestWatchHandleDeliversExactlyOnce(t *testing.T) {
	cl, srv := newFakePair(t)
	_, _, w, err := cl.GetW(ctxbg, "/w")
	if err != nil {
		t.Fatal(err)
	}
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: "/w"})
	select {
	case ev, ok := <-w.Events():
		if !ok || ev.Path != "/w" || ev.Type != wire.EventNodeDataChanged {
			t.Fatalf("ev = %+v ok=%v", ev, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}
	// One-shot: a second event on the same path is NOT delivered to the
	// consumed handle; the channel is closed.
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: "/w"})
	select {
	case ev, ok := <-w.Events():
		if ok {
			t.Fatalf("second delivery on one-shot watch: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after delivery")
	}
}

func TestWatchPerSubscriptionDelivery(t *testing.T) {
	cl, srv := newFakePair(t)
	// Two independent subscriptions on one path plus one on another.
	_, _, w1, err := cl.GetW(ctxbg, "/p")
	if err != nil {
		t.Fatal(err)
	}
	_, _, w2, err := cl.GetW(ctxbg, "/p")
	if err != nil {
		t.Fatal(err)
	}
	_, _, other, err := cl.GetW(ctxbg, "/other")
	if err != nil {
		t.Fatal(err)
	}
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeDeleted, Path: "/p"})
	for i, w := range []*Watch{w1, w2} {
		select {
		case ev, ok := <-w.Events():
			if !ok || ev.Type != wire.EventNodeDeleted {
				t.Fatalf("sub %d: ev = %+v ok=%v", i, ev, ok)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sub %d starved", i)
		}
	}
	select {
	case ev := <-other.Events():
		t.Fatalf("unrelated subscription fired: %+v", ev)
	default:
	}
	other.Cancel()
}

// TestWatchNotArmedUntilResponse: an event already in flight when a
// new subscription's arming request is outstanding belongs to an OLDER
// watch on the path and must not consume the new handle's one-shot
// delivery; the handle only becomes eligible once its own response has
// been processed.
func TestWatchNotArmedUntilResponse(t *testing.T) {
	cl, srv := newFakePair(t)
	done := make(chan *Watch, 1)
	go func() {
		// The fake server parks /slow* responses, so this subscription
		// stays un-armed until releaseHeld.
		_, _, w, _ := cl.GetW(ctxbg, "/slowp")
		done <- w
	}()
	waitForPending(t, cl)
	// A stale event (from a hypothetical older subscription) arrives
	// before the arming response: it must be ignored by the new handle.
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: "/slowp"})
	time.Sleep(20 * time.Millisecond)
	srv.releaseHeld() // response processed: NOW the handle is armed
	w := <-done
	select {
	case ev, ok := <-w.Events():
		t.Fatalf("stale pre-response event delivered: %+v ok=%v", ev, ok)
	case <-time.After(50 * time.Millisecond):
	}
	// The next (genuine) event is delivered exactly once.
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: "/slowp"})
	select {
	case ev, ok := <-w.Events():
		if !ok || ev.Type != wire.EventNodeDataChanged {
			t.Fatalf("ev = %+v ok=%v", ev, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("armed watch starved")
	}
}

// waitForPending blocks until the client has an in-flight call.
func waitForPending(t *testing.T, cl *Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.mu.Lock()
		n := len(cl.pending)
		cl.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("call never became pending")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchCancelStopsDelivery(t *testing.T) {
	cl, srv := newFakePair(t)
	_, _, w, err := cl.GetW(ctxbg, "/c")
	if err != nil {
		t.Fatal(err)
	}
	w.Cancel()
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: "/c"})
	select {
	case ev, ok := <-w.Events():
		if ok {
			t.Fatalf("cancelled watch delivered %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled watch channel not closed")
	}
	// Double cancel is fine.
	w.Cancel()
}

func TestWatchChildKindRouting(t *testing.T) {
	cl, srv := newFakePair(t)
	// The fake server answers LS with UNIMPLEMENTED, which must close
	// the child-watch handle (the server arms no watch on error).
	_, w, err := cl.ChildrenW(ctxbg, "/kids")
	if err == nil {
		t.Fatal("fake server answers UNIMPLEMENTED for ls")
	}
	select {
	case _, ok := <-w.Events():
		if ok {
			t.Fatal("failed ChildrenW delivered an event")
		}
	case <-time.After(time.Second):
		t.Fatal("failed ChildrenW handle not closed")
	}
	// A data watch must NOT fire on a children event and vice versa.
	_, _, dw, err := cl.GetW(ctxbg, "/mix")
	if err != nil {
		t.Fatal(err)
	}
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeChildrenChanged, Path: "/mix"})
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: "/mix"})
	select {
	case ev, ok := <-dw.Events():
		if !ok || ev.Type != wire.EventNodeDataChanged {
			t.Fatalf("data watch got %+v ok=%v", ev, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("data watch starved")
	}
}

func TestWatchClosedOnSessionEnd(t *testing.T) {
	cl, _ := newFakePair(t)
	_, _, w, err := cl.GetW(ctxbg, "/bye")
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	select {
	case _, ok := <-w.Events():
		if ok {
			t.Fatal("event on closed session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel not closed on session end")
	}
}

// --- Txn builder ---

func TestTxnBuilderCommit(t *testing.T) {
	cl, _ := newFakePair(t)
	results, err := cl.Txn().
		Check("/a", 3).
		Create("/a/audit-", []byte("x"), wire.FlagSequential).
		Set("/a", []byte("y"), -1).
		Delete("/a/old", 2).
		Commit(ctxbg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %+v", results)
	}
	want := []wire.OpCode{wire.OpCheck, wire.OpCreate, wire.OpSetData, wire.OpDelete}
	for i, r := range results {
		if r.Op != want[i] || r.Err != wire.ErrOK {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if results[1].Path != "/a/audit-0000000002" {
		t.Fatalf("created path = %q", results[1].Path)
	}
}

func TestTxnBuilderAbortCarriesPerOpResults(t *testing.T) {
	cl, _ := newFakePair(t)
	results, err := cl.Txn().
		Check("/missing", -1).
		Set("/a", []byte("y"), -1).
		Commit(ctxbg)
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != wire.ErrNoNode {
		t.Fatalf("err = %v", err)
	}
	if len(results) != 2 || results[0].Err != wire.ErrNoNode ||
		results[1].Err != wire.ErrRuntimeInconsistency {
		t.Fatalf("results = %+v", results)
	}
}
