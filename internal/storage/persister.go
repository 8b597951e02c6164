package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/ztree"
)

// PersisterConfig configures Recover.
type PersisterConfig struct {
	Dir  string
	Tree *ztree.Tree
	// SnapshotEvery triggers a snapshot after that many recorded
	// transactions (0 = never snapshot automatically).
	SnapshotEvery int
	// SegmentBytes is the log rotation threshold (0 = default).
	SegmentBytes int64
	// Obs, when set, receives the persister's live metrics: fsync
	// latency, txns per fsync, commit-wait latency, flush holds and
	// queue depth.
	Obs *obs.Registry
	// OnFail, when set, is called once with the failure that latches
	// the persister (a disk error or Fail), on the goroutine that
	// latched it, before any waiter hears of it. It must not block.
	OnFail func(error)
}

// commitReq is one unit of work queued for the commit-log goroutine: a
// transaction to log, or a state-transfer snapshot to publish.
type commitReq struct {
	txn ztree.Txn
	// done is invoked exactly once, after the fsync that made txn
	// durable, or for a state transfer once it is published (or with the
	// failure that prevented either). May be called from the commit-log
	// goroutine; must not block.
	done func(error)
	// snap, when set, is a tree snapshot captured synchronously at
	// enqueue time, consistent with exactly the records up to snapZxid.
	snap     *ztree.Snapshot
	snapZxid int64
	// transfer marks a state-transfer snapshot, which carries no txn.
	transfer bool
	// enqNs is the obs.Now() stamp taken at enqueue, for the
	// commit-wait histogram (Record → covering fsync returned).
	enqNs int64
}

// Persister ties the tree, the segmented WAL and snapshots together
// with ZooKeeper-style group commit: callers enqueue transactions and
// a single commit-log goroutine coalesces everything queued into one
// Append run + one Sync, completing every waiter on the shared fsync.
// Under W concurrent writers the per-transaction fsync cost approaches
// 1/W of a solo commit.
//
// When the next flush starts is GroupCommit's to decide (see there);
// the persister is its driver on the wall clock. It owns the log, the
// one timer that bounds a hold, the callbacks and the metrics, and asks
// the rule's Next whenever its state may have changed.
//
// Any persistence failure is sticky: the first error is reported to
// OnFail and to its waiters, and every subsequent Record fails fast
// with it. The replica layer reacts by dropping into degraded read-only
// mode — it must never acknowledge a commit it can no longer store.
type Persister struct {
	log           *Log
	tree          *ztree.Tree
	snapshotEvery int
	onFail        func(error)
	sinceSnap     int // records since the last snapshot; the apply goroutine's alone

	mu     sync.Mutex
	rule   GroupCommit[commitReq] // the queue and the flush rule
	wakeup sync.Cond              // on mu: the rule's state may have changed

	loopDone chan struct{}

	// Live metrics (nil instruments are no-ops when no registry is wired).
	fsyncHist  *obs.Histogram              // storage_fsync_seconds
	txnsHist   *obs.Histogram              // storage_txns_per_fsync
	commitWait *obs.Histogram              // storage_commit_wait_seconds
	holdHist   [ByBound + 1]*obs.Histogram // storage_flush_hold_seconds, by HoldEnd (none for NotHeld)

	// syncStallNs is a fault-injection knob: when positive, every fsync
	// is preceded by that many nanoseconds of sleep on the commit-log
	// goroutine, modelling a degraded disk whose flushes crawl without
	// failing (group commit keeps acknowledging, just slowly).
	syncStallNs atomic.Int64
}

// Recover restores state from dir — latest valid snapshot, then every
// log record above it — into cfg.Tree through OpenLog on the operating
// system's file system, and returns a running Persister plus the
// highest zxid recovered. A fresh directory recovers to zxid 0.
func Recover(cfg PersisterConfig) (*Persister, int64, error) { return recoverOn(osFS{}, cfg) }

// recoverOn is Recover on fs.
func recoverOn(fs FS, cfg PersisterConfig) (*Persister, int64, error) {
	log, lastZxid, err := OpenLog(fs, cfg.Dir, cfg.SegmentBytes, cfg.Tree.Restore, func(txn *ztree.Txn) { cfg.Tree.Apply(txn) })
	if err != nil {
		return nil, 0, err
	}
	p := &Persister{
		log:           log,
		tree:          cfg.Tree,
		snapshotEvery: cfg.SnapshotEvery,
		onFail:        cfg.OnFail,
		loopDone:      make(chan struct{}),
	}
	p.wakeup.L = &p.mu
	if cfg.Obs != nil {
		p.fsyncHist = cfg.Obs.Histogram("storage_fsync_seconds", "", "group-commit fsync latency")
		p.txnsHist = cfg.Obs.CountHistogram("storage_txns_per_fsync", "", "transactions covered by each fsync")
		p.commitWait = cfg.Obs.Histogram("storage_commit_wait_seconds", "", "Record enqueue to covering fsync return")
		const holdHelp = "time the flush rule held a non-empty queue for the requests the last flush took, by how the hold ended"
		p.holdHist[ByRequests] = cfg.Obs.Histogram("storage_flush_hold_seconds", `ended="requests"`, holdHelp)
		p.holdHist[ByBound] = cfg.Obs.Histogram("storage_flush_hold_seconds", `ended="bound"`, holdHelp)
		cfg.Obs.GaugeFunc("storage_commit_queue_depth", "", "commit requests awaiting the group fsync", func() int64 {
			p.mu.Lock()
			n := len(p.rule.queue)
			p.mu.Unlock()
			return int64(n)
		})
		cfg.Obs.CounterFunc("storage_corrupt_records_total", "", "tolerated corruption events: torn tails dropped, corrupt snapshots skipped (process-wide)", CorruptRecords)
	}
	go p.run()
	return p, lastZxid, nil
}

// Record enqueues txn for durable storage. done, when set, marks txn
// as awaited (see GroupCommit) and fires exactly once — possibly on the
// commit-log goroutine, so it must not block — after the fsync covering
// txn returns, or with the error that prevented durability. Pass nil
// for a record nobody waits on. Record itself never blocks on I/O: the
// zab delivery loop stays decoupled from disk latency, which is what
// lets concurrent proposals pile into one fsync window.
//
// Must be called from the single apply goroutine, after txn has been
// applied to the tree: automatic snapshots are captured here,
// synchronously, so they are consistent with exactly the records
// enqueued so far. The tree is copied before the lock is taken, so the
// commit loop and Await never wait on the copy.
func (p *Persister) Record(txn *ztree.Txn, done func(error)) {
	req := commitReq{txn: *txn, done: done, enqNs: obs.Now()}
	if p.snapshotEvery > 0 {
		if p.sinceSnap++; p.sinceSnap >= p.snapshotEvery {
			req.snap, req.snapZxid, p.sinceSnap = p.tree.Snapshot(), txn.Zxid, 0
		}
	}
	p.mu.Lock()
	wake, err := p.rule.Record(req, done != nil)
	p.mu.Unlock()
	if err != nil && done != nil {
		done(err)
	}
	if wake {
		p.wakeup.Signal()
	}
}

// Await counts one request that the next flush answers without logging
// anything for it: a read a session queued behind a write of its own
// that is not answered yet (see GroupCommit). It never blocks on I/O and
// may be called from any goroutine.
func (p *Persister) Await() {
	p.mu.Lock()
	wake := p.rule.Await()
	p.mu.Unlock()
	if wake {
		p.wakeup.Signal()
	}
}

// Snapshot installs the tree as it is now, as of zxid, as this
// replica's whole history on disk, and blocks until it is published:
// the log and every other snapshot go (see Log.Snapshot). Used after a
// state transfer: the restored tree's transactions never traversed this
// replica's log, and the records it holds above zxid were rolled back.
// Like Record, it is called from the single apply goroutine, so nothing
// is recorded behind it before it returns.
func (p *Persister) Snapshot(zxid int64) error {
	snap := p.tree.Snapshot()
	ch := make(chan error, 1)
	p.mu.Lock()
	err := p.rule.Snapshot(commitReq{
		snap:     snap,
		snapZxid: zxid,
		transfer: true,
		done:     func(err error) { ch <- err },
	})
	p.mu.Unlock()
	if err != nil {
		return err
	}
	p.sinceSnap = 0
	p.wakeup.Signal()
	return <-ch
}

// Err reports the sticky persistence failure, nil while healthy.
func (p *Persister) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rule.failure
}

// Close drains the queue, seals the log, and stops the commit loop.
func (p *Persister) Close() error {
	p.mu.Lock()
	first := !p.rule.closed
	p.rule.Close()
	p.mu.Unlock()
	p.wakeup.Signal()
	<-p.loopDone
	if !first {
		return nil
	}
	err := p.Err()
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// run is the commit-log goroutine, the flush rule's driver: it asks the
// rule what to do whenever it wakes up, and commits each batch the rule
// hands it. It holds mu except while it commits, so no change to the
// rule's state falls between its question and its wait. The end of a
// hold's bound is one more wakeup, and the timer takes mu to signal it,
// so a bound that runs out before run waits is heard once it does; one
// that changes nothing costs one more question.
func (p *Persister) run() {
	defer close(p.loopDone)
	hold := time.AfterFunc(time.Hour, func() { p.mu.Lock(); p.wakeup.Signal(); p.mu.Unlock() })
	hold.Stop()
	defer hold.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		start := obs.Now()
		switch st := p.rule.Next(start); {
		case st.Act == Flush:
			p.mu.Unlock()
			p.holdHist[st.Ended].Observe(st.Held)
			ended := p.commitBatch(st.Batch)
			p.mu.Lock()
			p.rule.Flushed(ended, ended-start)
			continue
		case st.Act == Hold:
			hold.Reset(time.Duration(st.Until - start))
		case p.rule.closed:
			return
		}
		p.wakeup.Wait()
	}
}

// commitBatch makes batch durable, answers its waiters, and returns
// when the fsync returned (obs.Now ns).
func (p *Persister) commitBatch(batch []commitReq) int64 {
	err := p.Err() // sticky: fail queued work without touching the disk
	txns := 0      // every record: a state transfer, if any, is last
	for ; txns < len(batch) && !batch[txns].transfer && err == nil; txns++ {
		err = p.log.Append(&batch[txns].txn)
	}
	if err == nil {
		if stall := p.syncStallNs.Load(); stall > 0 {
			time.Sleep(time.Duration(stall))
		}
		syncStart := obs.Now()
		err = p.log.Sync()
		p.fsyncHist.Observe(obs.Now() - syncStart)
	}
	if err == nil {
		p.txnsHist.Observe(int64(txns))
	} else {
		p.Fail(err)
	}
	durableNs := obs.Now()
	// Only the LAST snapshot in the batch needs writing — recovery always
	// prefers the newest — and it covers the intent of every earlier one.
	// A state transfer is always last: nothing is recorded behind it until
	// it is published.
	var last *commitReq
	for i := range batch {
		r := &batch[i]
		if r.snap != nil {
			last = r
		}
		if r.done != nil && !r.transfer {
			p.commitWait.Observe(durableNs - r.enqNs)
			r.done(err)
		}
	}
	snapErr := err
	if err == nil && last != nil {
		if snapErr = p.log.Snapshot(last.snap, last.snapZxid, last.transfer); snapErr != nil {
			p.Fail(snapErr)
		}
	}
	if last != nil && last.transfer {
		last.done(snapErr)
	}
	return durableNs
}

// Fail injects a sticky persistence failure (fault injection for
// tests and operators, and the commit loop's own disk errors): every
// subsequent Record and Snapshot fails fast with err, as if the disk
// had died.
func (p *Persister) Fail(err error) {
	p.mu.Lock()
	first := p.rule.failure == nil
	p.rule.Fail(err)
	p.mu.Unlock()
	if first {
		if p.onFail != nil {
			p.onFail(err)
		}
		p.wakeup.Signal() // a latched failure ends a hold
	}
}

// StallFsync injects (or, with d <= 0, clears) an fsync stall: every
// subsequent group-commit flush sleeps d first. Unlike Fail this is
// non-sticky and harmless to correctness — commits still land, the
// batch window just stretches — which makes it the right probe for
// "slow disk" chaos scenarios where degraded mode must NOT trigger.
func (p *Persister) StallFsync(d time.Duration) { p.syncStallNs.Store(int64(d)) }
