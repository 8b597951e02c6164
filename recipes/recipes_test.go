package recipes

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
)

// newCluster boots a SecureKeeper cluster: recipes must work unchanged
// through the enclave stack.
func newCluster(t *testing.T) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Variant:         core.SecureKeeper,
		Replicas:        3,
		TickInterval:    5 * time.Millisecond,
		ElectionTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func connect(t *testing.T, c *core.Cluster, i int) *client.Client {
	t.Helper()
	cl, err := c.Connect(i%c.Size(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

var bg = context.Background()

func TestEnsurePath(t *testing.T) {
	c := newCluster(t)
	cl := connect(t, c, 0)
	if err := EnsurePath(bg, cl, "/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := EnsurePath(bg, cl, "/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exists(bg, "/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if err := EnsurePath(bg, cl, "relative"); err == nil {
		t.Fatal("relative path must fail")
	}
	if err := EnsurePath(bg, cl, "/"); err != nil {
		t.Fatal(err)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	c := newCluster(t)
	var (
		mu     sync.Mutex
		inside int
		peak   int
		total  int
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := connect(t, c, w)
			lock, err := NewLock(bg, cl, "/locks/m")
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				ctx, cancel := context.WithTimeout(bg, 10*time.Second)
				err := lock.Lock(ctx)
				cancel()
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				mu.Lock()
				inside++
				if inside > peak {
					peak = inside
				}
				total++
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inside--
				mu.Unlock()
				if err := lock.Unlock(bg); err != nil {
					t.Errorf("worker %d unlock: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if peak != 1 {
		t.Fatalf("mutual exclusion violated: peak = %d", peak)
	}
	if total != 12 {
		t.Fatalf("total = %d", total)
	}
}

func TestTryLock(t *testing.T) {
	c := newCluster(t)
	clA := connect(t, c, 0)
	clB := connect(t, c, 1)

	lockA, err := NewLock(bg, clA, "/locks/try")
	if err != nil {
		t.Fatal(err)
	}
	lockB, err := NewLock(bg, clB, "/locks/try")
	if err != nil {
		t.Fatal(err)
	}

	got, err := lockA.TryLock(bg)
	if err != nil || !got {
		t.Fatalf("first TryLock = %v, %v", got, err)
	}
	got, err = lockB.TryLock(bg)
	if err != nil || got {
		t.Fatalf("contended TryLock = %v, %v (want false)", got, err)
	}
	if err := lockA.Unlock(bg); err != nil {
		t.Fatal(err)
	}
	got, err = lockB.TryLock(bg)
	if err != nil || !got {
		t.Fatalf("TryLock after release = %v, %v", got, err)
	}
	_ = lockB.Unlock(bg)
	if err := lockB.Unlock(bg); err != ErrNotLocked {
		t.Fatalf("double unlock = %v", err)
	}
}

func TestLockContextExpiry(t *testing.T) {
	c := newCluster(t)
	clA := connect(t, c, 0)
	clB := connect(t, c, 1)
	lockA, _ := NewLock(bg, clA, "/locks/to")
	lockB, _ := NewLock(bg, clB, "/locks/to")
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := lockA.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	shortCtx, shortCancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer shortCancel()
	if err := lockB.Lock(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The timed-out candidate must have withdrawn: holder is still A.
	holder, err := lockA.Holder(bg)
	if err != nil || holder == "" {
		t.Fatalf("holder = %q, %v", holder, err)
	}
	// Sync-then-read: B's withdrawal committed via B's session; A's
	// replica-local view needs a sync to be guaranteed to include it.
	if err := clA.Sync(bg, "/locks/to"); err != nil {
		t.Fatal(err)
	}
	kids, _ := clA.Children(bg, "/locks/to")
	if len(kids) != 1 {
		t.Fatalf("stale candidates remain: %v", kids)
	}
}

func TestLockReleasedOnSessionDeath(t *testing.T) {
	c := newCluster(t)
	clA := connect(t, c, 0)
	holder, err := c.Connect(1, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lockH, err := NewLock(bg, holder, "/locks/death")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := lockH.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	// The holder's process dies.
	_ = holder.Close()

	lockA, err := NewLock(bg, clA, "/locks/death")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(bg, 10*time.Second)
	defer cancel2()
	if err := lockA.Lock(ctx2); err != nil {
		t.Fatalf("lock not released by session death: %v", err)
	}
}

func TestElection(t *testing.T) {
	c := newCluster(t)
	candidates := make([]*Election, 3)
	for i := range candidates {
		cl := connect(t, c, i)
		e, err := NewElection(bg, cl, "/election/svc")
		if err != nil {
			t.Fatal(err)
		}
		candidates[i] = e
	}
	// Exactly one leader.
	leaders := 0
	leaderIdx := -1
	for i, e := range candidates {
		lead, err := e.IsLeader(bg)
		if err != nil {
			t.Fatal(err)
		}
		if lead {
			leaders++
			leaderIdx = i
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d", leaders)
	}
	// Leader resigns; someone else takes over.
	if err := candidates[leaderIdx].Resign(bg); err != nil {
		t.Fatal(err)
	}
	next := candidates[(leaderIdx+1)%3]
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := next.AwaitLeadership(ctx); err != nil {
		// The successor is the lowest remaining sequence, which may be
		// the other candidate. Try it too.
		other := candidates[(leaderIdx+2)%3]
		ctx2, cancel2 := context.WithTimeout(bg, time.Second)
		defer cancel2()
		if err2 := other.AwaitLeadership(ctx2); err2 != nil {
			t.Fatalf("no successor: %v / %v", err, err2)
		}
	}
}

func TestBarrier(t *testing.T) {
	c := newCluster(t)
	const n = 3
	var entered, left sync.WaitGroup
	entered.Add(n)
	left.Add(n)
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			defer cancel()
			cl := connect(t, c, i)
			b, err := NewBarrier(ctx, cl, "/barrier/b1", n)
			if err != nil {
				errCh <- err
				entered.Done()
				left.Done()
				return
			}
			if err := b.Enter(ctx, fmt.Sprintf("p%d", i)); err != nil {
				errCh <- err
				entered.Done()
				left.Done()
				return
			}
			entered.Done()
			entered.Wait() // all must have passed Enter together
			if err := b.Leave(ctx); err != nil {
				errCh <- err
			}
			left.Done()
		}(i)
	}
	left.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestBarrierContextExpiry(t *testing.T) {
	c := newCluster(t)
	cl := connect(t, c, 0)
	// The barrier's first write is a fresh session's first request, which
	// a replica not yet following a synced leader refuses with
	// CONNECTIONLOSS; creating the barrier is safe to re-issue.
	var b *Barrier
	ctx, cancel := context.WithTimeout(bg, 15*time.Second)
	err := client.Reissue(ctx, func() (err error) {
		b, err = NewBarrier(bg, cl, "/barrier/short", 2)
		return err
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if err := b.Enter(ctx, "lonely"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if _, err := NewBarrier(bg, cl, "/barrier/short", 0); err == nil {
		t.Fatal("zero-size barrier must be rejected")
	}
}

func TestCounter(t *testing.T) {
	c := newCluster(t)
	cl := connect(t, c, 0)
	ctr, err := NewCounter(bg, cl, "/counters/hits")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctr.Get(bg); err != nil || v != 0 {
		t.Fatalf("initial = %d, %v", v, err)
	}
	if v, err := ctr.Add(bg, 5); err != nil || v != 5 {
		t.Fatalf("add = %d, %v", v, err)
	}
	if v, err := ctr.Add(bg, -2); err != nil || v != 3 {
		t.Fatalf("add = %d, %v", v, err)
	}
}

func TestCounterConcurrentIncrements(t *testing.T) {
	c := newCluster(t)
	const workers, each = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := connect(t, c, w)
			ctr, err := NewCounter(bg, cl, "/counters/conc")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < each; i++ {
				if _, err := ctr.Add(bg, 1); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cl := connect(t, c, 0)
	ctr, err := NewCounter(bg, cl, "/counters/conc")
	if err != nil {
		t.Fatal(err)
	}
	v, err := ctr.Get(bg)
	if err != nil || v != workers*each {
		t.Fatalf("final = %d, %v; want %d (lost updates?)", v, err, workers*each)
	}
}

func TestGroupMembership(t *testing.T) {
	c := newCluster(t)
	clA := connect(t, c, 0)
	clB := connect(t, c, 1)

	gA, err := JoinGroup(bg, clA, "/groups/web", "server-a")
	if err != nil {
		t.Fatal(err)
	}
	gB, err := JoinGroup(bg, clB, "/groups/web", "server-b")
	if err != nil {
		t.Fatal(err)
	}
	members, err := gA.Members(bg)
	if err != nil || len(members) != 2 {
		t.Fatalf("members = %v, %v", members, err)
	}
	if err := gB.Leave(bg); err != nil {
		t.Fatal(err)
	}
	members, err = gA.Members(bg)
	if err != nil || len(members) != 1 || members[0] != "server-a" {
		t.Fatalf("members after leave = %v, %v", members, err)
	}
}

// TestGroupMembershipSurvivesCrash: a member whose connection dies is
// removed automatically (ephemeral nodes).
func TestGroupMembershipSurvivesCrash(t *testing.T) {
	c := newCluster(t)
	watcherCl := connect(t, c, 0)
	dying, err := c.Connect(1, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JoinGroup(bg, dying, "/groups/crashy", "victim"); err != nil {
		t.Fatal(err)
	}
	g, err := JoinGroup(bg, watcherCl, "/groups/crashy", "survivor")
	if err != nil {
		t.Fatal(err)
	}
	_ = dying.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		members, err := g.Members(bg)
		if err != nil {
			t.Fatal(err)
		}
		if len(members) == 1 && members[0] == "survivor" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim not removed: %v", members)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLockFencingToken: every acquisition carries the create zxid of
// its lock node as a fencing token, so successive holders observe
// strictly increasing tokens — the property a downstream resource uses
// to reject a stale (paused or partitioned-away) holder.
func TestLockFencingToken(t *testing.T) {
	c := newCluster(t)
	var last int64
	for i := 0; i < 3; i++ {
		cl := connect(t, c, i)
		l, err := NewLock(bg, cl, "/locks/fenced")
		if err != nil {
			t.Fatal(err)
		}
		token, err := l.Acquire(bg)
		if err != nil {
			t.Fatal(err)
		}
		if token <= 0 {
			t.Fatalf("acquire %d: token %d, want > 0", i, token)
		}
		if token <= last {
			t.Fatalf("acquire %d: token %d not above previous holder's %d", i, token, last)
		}
		if l.Token() != token {
			t.Fatalf("Token() = %d, want %d", l.Token(), token)
		}
		last = token
		if err := l.Unlock(bg); err != nil {
			t.Fatal(err)
		}
		if l.Token() != 0 {
			t.Fatalf("Token() after unlock = %d, want 0", l.Token())
		}
	}
}
