package storage

import (
	"errors"
	"testing"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/ztree"
)

// The flush rule's tests stall every fsync for far longer than the
// gaps between the records they send, so scheduling noise cannot move
// a record from one flush into another.

// holdRig drives a persister whose fsyncs each take a stall.
type holdRig struct {
	t    *testing.T
	p    *Persister
	zxid int64
	done chan error // one value per awaited record's callback
}

func newHoldRig(t *testing.T, stall time.Duration) *holdRig {
	t.Helper()
	p, _, err := Recover(PersisterConfig{Dir: t.TempDir(), Tree: ztree.New(), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	p.StallFsync(stall)
	return &holdRig{t: t, p: p, done: make(chan error, 64)}
}

// record queues one record, awaited or not.
func (r *holdRig) record(awaited bool) {
	r.zxid++
	txn := ztree.Txn{Zxid: r.zxid, Type: ztree.TxnCreate, Path: "/r"}
	if !awaited {
		r.p.Record(&txn, nil)
		return
	}
	r.p.Record(&txn, func(err error) { r.done <- err })
}

// wait collects n awaited records' outcomes and fails the test on an error.
func (r *holdRig) wait(n int) {
	r.t.Helper()
	for ; n > 0; n-- {
		if err := <-r.done; err != nil {
			r.t.Fatal(err)
		}
	}
}

// until polls cond under the persister's lock.
func (r *holdRig) until(cond func() bool) {
	for {
		r.p.mu.Lock()
		ok := cond()
		r.p.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// prime makes the last flush one that released k awaited records: a
// flush of a record nobody waits on, which holds nothing, with k awaited
// records queued behind it.
func (r *holdRig) prime(k int) {
	r.record(false)
	r.until(func() bool { return len(r.p.queue) == 0 }) // the loop took it
	for i := 0; i < k; i++ {
		r.record(true)
	}
	r.wait(k)
}

// TestFlushRuleCohortSharesOneFsync: k writers answered by one flush
// come back one by one, and all k go down in the next fsync. Flushing as
// soon as the first is queued would send it alone and the other k-1 in
// the fsync after.
func TestFlushRuleCohortSharesOneFsync(t *testing.T) {
	const k = 8
	r := newHoldRig(t, 100*time.Millisecond)
	r.prime(k)
	before := r.p.txnsHist.Snapshot()
	for i := 0; i < k; i++ {
		time.Sleep(time.Millisecond)
		r.record(true)
	}
	r.wait(k)
	after := r.p.txnsHist.Snapshot()
	if fsyncs, txns := after.Count-before.Count, after.Sum-before.Sum; fsyncs != 1 || txns != k {
		t.Fatalf("%d returning writers took %d fsyncs for %d records, want 1 for %d", k, fsyncs, txns, k)
	}
	if holds := r.p.holdHist.Snapshot().Count; holds != 1 {
		t.Fatalf("storage_flush_hold_seconds counted %d holds, want 1", holds)
	}
}

// TestFlushRuleLoneWriterNeverHeld: one writer's record is the whole
// cohort, so it never waits for anybody.
func TestFlushRuleLoneWriterNeverHeld(t *testing.T) {
	r := newHoldRig(t, 20*time.Millisecond)
	for i := 0; i < 5; i++ {
		r.record(true)
		r.wait(1)
	}
	if st := r.p.txnsHist.Snapshot(); st.Count != 5 || st.Sum != 5 {
		t.Fatalf("%d fsyncs for %d records, want 5 for 5", st.Count, st.Sum)
	}
	if st := r.p.holdHist.Snapshot(); st.Count != 0 {
		t.Fatalf("a lone writer was held %d times for %v", st.Count, time.Duration(st.Sum))
	}
}

// TestFlushRuleHoldBoundedByFlush: when only k-1 of k writers come
// back, the flush starts once as long as the last flush took has passed
// since it ended — about one stall — and not later.
func TestFlushRuleHoldBoundedByFlush(t *testing.T) {
	const k, stall = 4, 100 * time.Millisecond
	r := newHoldRig(t, stall)
	r.prime(k)
	for i := 0; i < k-1; i++ {
		r.record(true)
	}
	r.wait(k - 1)
	st := r.p.holdHist.Snapshot()
	if held := time.Duration(st.Sum); st.Count != 1 || held < stall/2 || held > 3*stall/2 {
		t.Fatalf("held %d times for %v in all, want once for about %v", st.Count, held, stall)
	}
}

// TestFlushRuleNeverHolds: a state transfer, Close and a latched failure
// each end a hold at once. The last flush took 200 ms, so the hold they
// cut short had about that long to run.
func TestFlushRuleNeverHolds(t *testing.T) {
	const stall = 200 * time.Millisecond
	for _, tc := range []struct {
		name    string
		end     func(r *holdRig) error
		wantErr bool
	}{
		{"state transfer", func(r *holdRig) error { return r.p.Snapshot(r.zxid) }, false},
		{"close", func(r *holdRig) error { return r.p.Close() }, false},
		{"failure", func(r *holdRig) error { r.p.Fail(errors.New("injected")); return nil }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newHoldRig(t, stall)
			r.prime(2)
			r.p.StallFsync(0)
			r.record(true)
			r.until(func() bool { return r.p.holdFor != 0 }) // held: 1 of 2 awaited records
			start := time.Now()
			if err := tc.end(r); err != nil {
				t.Fatal(err)
			}
			err := <-r.done
			if took := time.Since(start); took > stall/2 {
				t.Fatalf("the held record completed %v after the %s, want at once", took, tc.name)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("the held record completed with %v", err)
			}
		})
	}
}

// Snapshot sums storage_flush_hold_seconds over both of its series.
func (h holdHists) Snapshot() obs.HistogramSnapshot {
	s, b := h.requests.Snapshot(), h.bound.Snapshot()
	for i := range s.Buckets {
		s.Buckets[i] += b.Buckets[i]
	}
	s.Count += b.Count
	s.Sum += b.Sum
	return s
}

// TestFlushRuleCountsReads: the last flush took 5 awaited records and a
// read counted by Await, and the cohort comes back as 4 records and 2
// reads. The hold ends at the 6th request, not at the bound: counting
// records alone, it would wait for a 5th record that never comes.
func TestFlushRuleCountsReads(t *testing.T) {
	const stall = 100 * time.Millisecond
	r := newHoldRig(t, stall)
	r.record(false)
	r.until(func() bool { return len(r.p.queue) == 0 }) // the loop took it
	for i := 0; i < 5; i++ {
		r.record(true)
	}
	r.p.Await()
	r.wait(5)

	before := r.p.txnsHist.Snapshot()
	for _, read := range []bool{false, true, false, false, false, true} {
		time.Sleep(time.Millisecond)
		if read {
			r.p.Await()
		} else {
			r.record(true)
		}
	}
	r.wait(4)
	after := r.p.txnsHist.Snapshot()
	if fsyncs, txns := after.Count-before.Count, after.Sum-before.Sum; fsyncs != 1 || txns != 4 {
		t.Fatalf("the returning cohort took %d fsyncs for %d records, want 1 for 4", fsyncs, txns)
	}
	req, bound := r.p.holdHist.requests.Snapshot(), r.p.holdHist.bound.Snapshot()
	if held := time.Duration(req.Sum); req.Count != 1 || bound.Count != 0 || held > stall/2 {
		t.Fatalf("holds: %d ended by requests (%v in all), %d by the bound; want one, far under %v",
			req.Count, held, bound.Count, stall)
	}
}

// TestFlushRuleLateReadCountsTowardNextHold: the imprecision the rule
// accepts, capped by the bound. A read admitted while the write ahead of
// it is inside the running flush is answered by that flush but counts
// toward the next batch, so the hold after the next flush waits for one
// request too many: it ends at the bound, about one flush, and the flush
// after it is back to counting right.
func TestFlushRuleLateReadCountsTowardNextHold(t *testing.T) {
	const stall = 100 * time.Millisecond
	r := newHoldRig(t, stall)
	r.prime(1)
	r.record(true) // the writer is back: one request, as many as last time
	r.until(func() bool { return len(r.p.queue) == 0 })
	r.p.Await() // the read behind its write, admitted during the flush
	r.wait(1)
	r.record(true) // a batch of 2 requests: this record and the late read
	r.wait(1)
	r.record(true) // held for a 2nd request that never comes
	r.wait(1)
	bound := r.p.holdHist.bound.Snapshot()
	if held := time.Duration(bound.Sum); bound.Count != 1 || held < stall/2 || held > 3*stall/2 {
		t.Fatalf("held to the bound %d times for %v in all, want once for about %v", bound.Count, held, stall)
	}
	r.record(true) // the last batch was 1 request: not held
	r.wait(1)
	if st := r.p.holdHist.Snapshot(); st.Count != 1 {
		t.Fatalf("%d holds, want only the one at the bound", st.Count)
	}
}
