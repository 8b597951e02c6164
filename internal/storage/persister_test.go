package storage

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/ztree"
)

// The flush rule's tests are schedules: they drive GroupCommit with a
// clock of their own, as a driver would, so nothing here sleeps or
// stalls a disk and no outcome depends on the machine's speed.

const ms = int64(time.Millisecond)

// ruleRig is a driver of the rule on the test's clock. A record's value
// is its number.
type ruleRig struct {
	t   *testing.T
	g   GroupCommit[int]
	now int64
	n   int
}

// record queues one record, awaited or not, and returns the rule's wake.
func (r *ruleRig) record(awaited bool) bool {
	r.t.Helper()
	r.n++
	wake, err := r.g.Record(r.n, awaited)
	if err != nil {
		r.t.Fatal(err)
	}
	return wake
}

// next asks the rule and checks what it answers.
func (r *ruleRig) next(want Action) Step[int] {
	r.t.Helper()
	st := r.g.Next(r.now)
	if st.Act != want {
		r.t.Fatalf("at %v the rule answered %+v, want action %d", time.Duration(r.now), st, want)
	}
	return st
}

// flushed lets a flush take took and closes it.
func (r *ruleRig) flushed(took int64) {
	r.now += took
	r.g.Flushed(r.now, took)
}

// prime makes the last flush one that took k awaited records and took
// dev: it follows a flush that took none, so nothing holds it.
func (r *ruleRig) prime(k int, dev int64) {
	r.t.Helper()
	for i := 0; i < k; i++ {
		r.record(true)
	}
	r.next(Flush)
	r.flushed(dev)
}

// TestFlushRuleCohortSharesOneFsync: k writers answered by one flush
// come back one by one, and all k go down in the next flush. Flushing as
// soon as the first is queued would send it alone and the other k-1 in
// the flush after. Only the first record and the one that ends the hold
// wake the driver.
func TestFlushRuleCohortSharesOneFsync(t *testing.T) {
	const k, dev = 8, 100 * ms
	r := &ruleRig{t: t}
	r.prime(k, dev)
	ended := r.now
	for i := 1; i <= k; i++ {
		r.now += ms
		if wake := r.record(true); wake != (i == 1 || i == k) {
			t.Fatalf("record %d of %d woke the driver: %v", i, k, wake)
		}
		if i == 1 {
			if st := r.next(Hold); st.Until != ended+dev {
				t.Fatalf("held until %v, want the last flush's length after it ended, %v", time.Duration(st.Until), time.Duration(ended+dev))
			}
		}
	}
	st := r.next(Flush)
	if len(st.Batch) != k || st.Ended != ByRequests || st.Held != (k-1)*ms {
		t.Fatalf("the cohort flushed %d records after a hold %v of %v, want %d after one ended by its requests after %v",
			len(st.Batch), st.Ended, time.Duration(st.Held), k, time.Duration((k-1)*ms))
	}
}

// TestFlushRuleLoneWriterNeverHeld: one writer's record is the whole
// cohort, so it never waits for anybody.
func TestFlushRuleLoneWriterNeverHeld(t *testing.T) {
	r := &ruleRig{t: t}
	for i := 0; i < 5; i++ {
		r.now += ms
		if !r.record(true) {
			t.Fatal("a lone writer's record did not wake the driver")
		}
		if st := r.next(Flush); st.Ended != NotHeld || len(st.Batch) != 1 {
			t.Fatalf("flush %d: %+v, want one record, never held", i, st)
		}
		r.flushed(20 * ms)
	}
}

// TestFlushRuleHoldBoundedByFlush: when only k-1 of k writers come
// back, the flush starts once as long as the last flush took has passed
// since it ended, and not before.
func TestFlushRuleHoldBoundedByFlush(t *testing.T) {
	const k, dev = 4, 100 * ms
	r := &ruleRig{t: t}
	r.prime(k, dev)
	bound := r.now + dev
	for i := 0; i < k-1; i++ {
		r.now += ms
		r.record(true)
	}
	heldFrom := r.now
	if st := r.next(Hold); st.Until != bound {
		t.Fatalf("held until %v, want %v", time.Duration(st.Until), time.Duration(bound))
	}
	r.now = bound - 1
	r.next(Hold)
	r.now = bound
	if st := r.next(Flush); len(st.Batch) != k-1 || st.Ended != ByBound || st.Held != bound-heldFrom {
		t.Fatalf("at the bound: %d records, hold %v of %v; want %d, ended by the bound after %v",
			len(st.Batch), st.Ended, time.Duration(st.Held), k-1, time.Duration(bound-heldFrom))
	}
}

// TestFlushRuleNeverHolds: a state transfer, Close and a latched failure
// each end a hold at once, the last flush's long bound notwithstanding.
func TestFlushRuleNeverHolds(t *testing.T) {
	injected := errors.New("injected")
	for _, tc := range []struct {
		name    string
		end     func(g *GroupCommit[int]) error
		refused error // what a record after it gets
	}{
		{"state transfer", func(g *GroupCommit[int]) error { return g.Snapshot(-1) }, nil},
		{"close", func(g *GroupCommit[int]) error { g.Close(); return nil }, ErrClosed},
		{"failure", func(g *GroupCommit[int]) error { g.Fail(injected); g.Fail(errors.New("later")); return nil }, injected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &ruleRig{t: t}
			r.prime(2, 200*ms)
			r.record(true)
			r.next(Hold) // 1 of 2 requests
			r.now += ms
			if err := tc.end(&r.g); err != nil {
				t.Fatal(err)
			}
			if st := r.next(Flush); st.Ended != ByBound || st.Held != ms {
				t.Fatalf("after the %s: %+v, want the hold cut short at once", tc.name, st)
			}
			if _, err := r.g.Record(0, true); !errors.Is(err, tc.refused) {
				t.Fatalf("a record after the %s got %v, want %v", tc.name, err, tc.refused)
			}
		})
	}
}

// TestFlushRuleCountsReads: the last flush took 5 awaited records and a
// read counted by Await, and the cohort comes back as 4 records and 2
// reads. The hold ends at the 6th request, not at the bound: counting
// records alone, it would wait for a 5th record that never comes.
func TestFlushRuleCountsReads(t *testing.T) {
	const dev = 100 * ms
	r := &ruleRig{t: t}
	for i := 0; i < 5; i++ {
		r.record(true)
	}
	r.g.Await()
	r.next(Flush)
	r.flushed(dev)

	for i, read := range []bool{false, true, false, false, false, true} {
		r.now += ms
		var wake bool
		if read {
			wake = r.g.Await()
		} else {
			wake = r.record(true)
		}
		if wake != (i == 0 || i == 5) {
			t.Fatalf("request %d woke the driver: %v", i+1, wake)
		}
		if i == 0 {
			r.next(Hold)
		}
	}
	if st := r.next(Flush); len(st.Batch) != 4 || st.Ended != ByRequests || st.Held != 5*ms {
		t.Fatalf("the cohort: %+v, want its 4 records, the hold ended by the 6th request", st)
	}
}

// TestFlushRuleLateReadCountsTowardNextHold: the imprecision the rule
// accepts, capped by the bound. A read admitted while the write ahead of
// it is inside the running flush is answered by that flush but counts
// toward the next batch, so the hold after the next flush waits for one
// request too many: it ends at the bound, and the flush after it is back
// to counting right.
func TestFlushRuleLateReadCountsTowardNextHold(t *testing.T) {
	const dev = 100 * ms
	r := &ruleRig{t: t}
	r.prime(1, dev)
	r.record(true) // the writer is back: one request, as many as last time
	r.next(Flush)
	if r.g.Await() { // the read behind its write, admitted during the flush
		t.Fatal("a read during a flush woke the driver")
	}
	r.flushed(dev)
	r.record(true) // a batch of 2 requests: this record and the late read
	r.next(Flush)
	r.flushed(dev)
	bound := r.now + dev
	r.record(true) // held for a 2nd request that never comes
	r.next(Hold)
	r.now = bound
	if st := r.next(Flush); st.Ended != ByBound || st.Held != dev {
		t.Fatalf("%+v, want a hold to the bound, %v", st, time.Duration(dev))
	}
	r.flushed(dev)
	r.record(true) // the last batch was 1 request: not held
	if st := r.next(Flush); st.Ended != NotHeld {
		t.Fatalf("%+v, want no hold", st)
	}
}

// TestGroupCommitIsClockless keeps the rule's file what the simulator
// needs: no goroutine, channel, lock, timer or clock of its own.
func TestGroupCommitIsClockless(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "groupcommit.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"time": true, "sync": true, "sync/atomic": true, "runtime": true, "securekeeper/internal/obs": true}
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
			t.Errorf("groupcommit.go imports %s", path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.SelectStmt, *ast.ChanType, *ast.SendStmt:
			t.Errorf("groupcommit.go: %T", n)
		}
		return true
	})
}

// wallRig drives the rule through a real persister, on the wall clock.
type wallRig struct {
	t    *testing.T
	p    *Persister
	done chan error
	zxid int64
}

func newWallRig(t *testing.T, fs FS) *wallRig {
	p, _, err := recoverOn(fs, PersisterConfig{Dir: t.TempDir(), Tree: ztree.New(), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return &wallRig{t: t, p: p, done: make(chan error, 8)}
}

// record queues one record, awaited or not.
func (w *wallRig) record(awaited bool) {
	w.zxid++
	txn := ztree.Txn{Zxid: w.zxid, Type: ztree.TxnCreate, Path: "/r"}
	if awaited {
		w.p.Record(&txn, func(err error) { w.done <- err })
	} else {
		w.p.Record(&txn, nil)
	}
}

// next returns what the next awaited record to complete was answered; a
// record that never completes is a commit loop that missed a wakeup.
func (w *wallRig) next() error {
	w.t.Helper()
	select {
	case err := <-w.done:
		return err
	case <-time.After(10 * time.Second):
		w.t.Fatal("an awaited record never completed")
		return nil
	}
}

// wait waits for n awaited records to complete durably.
func (w *wallRig) wait(n int) {
	w.t.Helper()
	for ; n > 0; n-- {
		if err := w.next(); err != nil {
			w.t.Fatal(err)
		}
	}
}

// until polls the rule's state.
func (w *wallRig) until(cond func() bool) {
	for {
		w.p.mu.Lock()
		ok := cond()
		w.p.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// primePair makes the last flush one that took 2 requests and the stall:
// it follows a flush nobody waits on, which holds nothing, and the two
// records queued behind that go down together.
func (w *wallRig) primePair(stall time.Duration) {
	w.t.Helper()
	w.p.StallFsync(stall)
	w.record(false)
	w.until(func() bool { return len(w.p.rule.queue) == 0 })
	w.record(true)
	w.record(true)
	w.wait(2)
}

// TestPersisterHoldsOnTheWallClock drives the rule through the
// persister, on the wall clock, with every fsync stalled: a hold that its
// requests end wakes the commit loop at once, and one they do not is
// ended by the timer at the bound. Each shows in
// storage_flush_hold_seconds under its own ended label. A state
// transfer, Close and a latched failure each wake the loop out of a hold
// at once.
func TestPersisterHoldsOnTheWallClock(t *testing.T) {
	const stall = 50 * time.Millisecond
	w := newWallRig(t, osFS{})
	p := w.p
	w.primePair(stall)

	fsyncs := p.txnsHist.Snapshot().Count
	w.record(true)
	w.until(p.rule.Holding)
	w.record(true) // the second request ends the hold
	w.wait(2)
	if n := p.txnsHist.Snapshot().Count - fsyncs; n != 1 {
		t.Fatalf("the returning pair took %d fsyncs, want 1", n)
	}
	if st := p.holdHist[ByRequests].Snapshot(); st.Count != 1 || time.Duration(st.Sum) > stall/2 {
		t.Fatalf("holds ended by requests: %d for %v, want one far under %v", st.Count, time.Duration(st.Sum), stall)
	}

	w.record(true) // alone: held to the bound, the last flush's length
	w.wait(1)
	st := p.holdHist[ByBound].Snapshot()
	if held := time.Duration(st.Sum); st.Count != 1 || held < stall/2 || held > 3*stall/2 {
		t.Fatalf("holds ended by the bound: %d for %v, want one for about %v", st.Count, held, stall)
	}

	injected := errors.New("injected")
	for _, tc := range []struct {
		name string
		end  func(w *wallRig) error
		want error // what the held record is answered
	}{
		{"state transfer", func(w *wallRig) error { return w.p.Snapshot(w.zxid) }, nil},
		{"close", func(w *wallRig) error { return w.p.Close() }, nil},
		{"failure", func(w *wallRig) error { w.p.Fail(injected); return nil }, injected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const bound = 2 * stall
			w := newWallRig(t, osFS{})
			w.primePair(bound)
			w.record(true)
			w.until(w.p.rule.Holding)
			w.p.StallFsync(0) // what follows is the wakeup's time alone
			start := time.Now()
			if err := tc.end(w); err != nil {
				t.Fatal(err)
			}
			if err := w.next(); !errors.Is(err, tc.want) {
				t.Fatalf("the held record was answered %v, want %v", err, tc.want)
			}
			if took := time.Since(start); took > bound/2 {
				t.Fatalf("the %s ended a hold bounded at %v after %v", tc.name, bound, took)
			}
			if st := w.p.holdHist[ByBound].Snapshot(); st.Count != 1 || time.Duration(st.Sum) > bound/2 {
				t.Fatalf("holds ended by the bound: %d for %v, want one cut short", st.Count, time.Duration(st.Sum))
			}
		})
	}
}

// noSyncFS is the operating system's file system with a free fsync.
type noSyncFS struct{ osFS }

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) OpenFile(name string, flag int) (File, error) {
	f, err := fs.osFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// TestPersisterShortHoldsComplete holds, over and over, for as long as a
// flush with a free fsync takes, a few microseconds, so the bound often
// runs out between the commit loop's question and its wait. No held
// record may be left waiting for a wakeup that already came.
func TestPersisterShortHoldsComplete(t *testing.T) {
	w := newWallRig(t, noSyncFS{})
	for i := 0; i < 50000; i++ {
		w.p.Await()
		w.record(true) // a flush of 2 requests: this record and a read
		w.wait(1)
		w.record(true) // alone: held, unless the bound ran out already
		w.wait(1)
	}
	if w.p.holdHist[ByBound].Snapshot().Count == 0 {
		t.Fatal("no record was held")
	}
}
