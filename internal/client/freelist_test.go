package client

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestFutureRecycleCorrectness hammers the synchronous API from many
// goroutines: recycled futures must never leak a result across calls
// (a stale buffered result would surface as a wrong-op reply). The
// race detector additionally guards the pool handoff.
func TestFutureRecycleCorrectness(t *testing.T) {
	cl, _ := newFakePair(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("/g%d-i%d", g, i)
				data, stat, err := cl.Get(ctxbg, path)
				if err != nil {
					t.Errorf("get %s: %v", path, err)
					return
				}
				// The fake server echoes the path as data; a result
				// delivered to the wrong (recycled) future shows up as
				// a mismatched payload.
				if string(data) != path || stat.Version != 3 {
					t.Errorf("get %s returned %q (version %d): cross-call result leak", path, data, stat.Version)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFutureRecycleDrained: a future must re-enter the pool only after
// its single result was consumed, so a fresh Get on a recycled future
// blocks until ITS result arrives rather than completing early.
func TestFutureRecycleDrained(t *testing.T) {
	cl, _ := newFakePair(t)
	for i := 0; i < 100; i++ {
		if _, _, err := cl.Get(ctxbg, "/a"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(ctxbg, "/missing"); err == nil {
			t.Fatal("expected NoNode — stale recycled result satisfied the call")
		}
	}
}

// pooled takes up to n futures out of the pool and hands them back; it
// reports whether want was among them and fails t if any pooled future
// holds a result — the pool invariant is an empty channel.
func pooled(t *testing.T, n int, want *Future) bool {
	t.Helper()
	taken := make([]*Future, 0, n)
	found := false
	for i := 0; i < n && !found; i++ {
		f := futurePool.Get().(*Future)
		if len(f.ch) != 0 {
			t.Fatalf("pooled future holds %d result(s)", len(f.ch))
		}
		found = f == want
		taken = append(taken, f)
	}
	for _, f := range taken {
		futurePool.Put(f)
	}
	return found
}

// TestWaitRecyclesFuture: Wait hands the future back to the pool with
// its result. The pool may drop what is put into it (under the race
// detector it does, at random), so the future only has to come back in
// one of a few tries.
func TestWaitRecyclesFuture(t *testing.T) {
	cl, _ := newFakePair(t)
	for try := 0; try < 20; try++ {
		f := cl.GetAsync("/p", false)
		if res := f.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		if pooled(t, 64, f) {
			return
		}
	}
	t.Fatal("Wait never handed its future back to the pool")
}

// TestDoneKeepsFuture: a future whose result was read through Done stays
// with the caller. Later calls never get it, so nothing more arrives on
// its channel however many calls follow.
func TestDoneKeepsFuture(t *testing.T) {
	cl, _ := newFakePair(t)
	f := cl.GetAsync("/p", false)
	if res := <-f.Done(); res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := 0; i < 200; i++ {
		if pooled(t, 8, f) {
			t.Fatal("a future read through Done went back to the pool")
		}
		if i%2 == 0 {
			_, _, _ = cl.Get(ctxbg, "/q")
		} else {
			_ = cl.SetAsync("/q", nil, -1).Wait()
		}
	}
	select {
	case res := <-f.Done():
		t.Fatalf("the caller's future received another call's result: %+v", res)
	default:
	}
}

// TestCancelKeepsPoolInvariant: a cancelled call returns its future to
// the pool empty, whether the withdrawal beat the reply (no result can
// arrive) or lost to it (the result was consumed first). Every pooled
// future is checked after each round.
func TestCancelKeepsPoolInvariant(t *testing.T) {
	cl, srv := newFakePair(t)
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _, _ = cl.Get(ctx, fmt.Sprintf("/slow/%d", i))
		}()
		if i%2 == 0 {
			// Races the cancel below against this round's reply, if the
			// request has reached the server yet.
			go srv.releaseHeld()
		}
		cancel()
		<-done
		srv.releaseHeld()
		pooled(t, 16, nil)
		// A Wait-recycled future joins the pool between the rounds.
		if res := cl.GetAsync("/p", false).Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// A late reply for a withdrawn xid is dropped: fresh calls get theirs.
	for i := 0; i < 50; i++ {
		path := fmt.Sprintf("/after/%d", i)
		if data, _, err := cl.Get(ctxbg, path); err != nil || string(data) != path {
			t.Fatalf("get %s = %q, %v: stale recycled result", path, data, err)
		}
	}
	pooled(t, 16, nil)
}
