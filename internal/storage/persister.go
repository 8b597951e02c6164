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
	// durable (or with the failure that prevented it). May be called
	// from the commit-log goroutine; must not block.
	done func(error)
	// snap, when set, is a tree snapshot captured synchronously at
	// enqueue time, consistent with exactly the records up to snapZxid.
	snap     *ztree.Snapshot
	snapZxid int64
	// transferDone marks a state-transfer snapshot, which carries no
	// txn, and reports its outcome.
	transferDone func(error)
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
// When the next flush starts is one rule, and it counts requests: the
// client requests a flush answers. A record with a done callback is
// one (somebody's reply waits on its fsync), and so is each Await: a
// read its session queued behind a write not yet answered, which the
// flush that makes that write durable answers too. A request counts in
// the period it arrives in, the time between two flushes taking the
// queue. After a flush that took a batch of k requests, the next one
// starts once k requests have arrived again, or once as long as that
// flush took has passed since it ended, whichever comes first. Clients
// that a flush answers come back together, reads and writes alike, so
// their writes go down together, instead of splitting into cohorts that
// each wait out the other's flush. A flush that took no request, a
// queued state transfer, Close and a latched failure never hold the
// queue.
//
// The bound caps what the rule can cost. It accepts one imprecision: a
// read admitted while the write ahead of it is already inside the
// running flush (or just came out of it, its reply not yet released)
// needs no later flush but counts toward the next, so the hold after
// the next flush waits for one request too many, up to the bound. And a
// device faster than a client's round trip can sit idle for up to one
// flush per cycle while a hold waits for requests that will not all
// return.
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

	mu      sync.Mutex
	queue   []commitReq
	awaited int // requests that arrived this period: awaited records and Awaits
	holdFor int // while the loop holds: the awaited count that ends the hold
	failure error
	closed  bool

	kick     chan struct{} // 1-buffered wakeup for the commit loop
	hold     *time.Timer   // bounds a hold; the loop's one timer, reset per hold
	loopDone chan struct{}

	// Live metrics (nil instruments are no-ops when no registry is wired).
	fsyncHist  *obs.Histogram // storage_fsync_seconds
	txnsHist   *obs.Histogram // storage_txns_per_fsync
	commitWait *obs.Histogram // storage_commit_wait_seconds
	holdHist   holdHists      // storage_flush_hold_seconds

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
func Recover(cfg PersisterConfig) (*Persister, int64, error) {
	log, lastZxid, err := OpenLog(osFS{}, cfg.Dir, cfg.SegmentBytes, cfg.Tree.Restore, func(txn *ztree.Txn) { cfg.Tree.Apply(txn) })
	if err != nil {
		return nil, 0, err
	}
	p := &Persister{
		log:           log,
		tree:          cfg.Tree,
		snapshotEvery: cfg.SnapshotEvery,
		onFail:        cfg.OnFail,
		kick:          make(chan struct{}, 1),
		hold:          time.NewTimer(time.Hour),
		loopDone:      make(chan struct{}),
	}
	p.hold.Stop()
	if cfg.Obs != nil {
		p.fsyncHist = cfg.Obs.Histogram("storage_fsync_seconds", "", "group-commit fsync latency")
		p.txnsHist = cfg.Obs.CountHistogram("storage_txns_per_fsync", "", "transactions covered by each fsync")
		p.commitWait = cfg.Obs.Histogram("storage_commit_wait_seconds", "", "Record enqueue to covering fsync return")
		const holdHelp = "time the flush rule held a non-empty queue for the requests the last flush took, by how the hold ended"
		p.holdHist = holdHists{
			requests: cfg.Obs.Histogram("storage_flush_hold_seconds", `ended="requests"`, holdHelp),
			bound:    cfg.Obs.Histogram("storage_flush_hold_seconds", `ended="bound"`, holdHelp),
		}
		cfg.Obs.GaugeFunc("storage_commit_queue_depth", "", "commit requests awaiting the group fsync", func() int64 {
			p.mu.Lock()
			n := len(p.queue)
			p.mu.Unlock()
			return int64(n)
		})
		cfg.Obs.CounterFunc("storage_corrupt_records_total", "", "tolerated corruption events: torn tails dropped, corrupt snapshots skipped (process-wide)", CorruptRecords)
	}
	go p.commitLoop()
	return p, lastZxid, nil
}

// Record enqueues txn for durable storage. done, when set, marks txn
// as awaited (see Persister) and fires exactly once — possibly on the
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
	if err := p.deadLocked(); err != nil {
		p.mu.Unlock()
		if done != nil {
			done(err)
		}
		return
	}
	p.queue = append(p.queue, req)
	if done != nil {
		p.awaited++
	}
	wake := p.awaited >= p.holdFor // during a hold, only the record that ends it
	p.mu.Unlock()
	if wake {
		p.wake()
	}
}

// Await counts one request that the next flush answers without logging
// anything for it: a read a session queued behind a write of its own
// that is not answered yet (see Persister). It never blocks on I/O and
// may be called from any goroutine.
func (p *Persister) Await() {
	p.mu.Lock()
	p.awaited++
	wake := p.awaited == p.holdFor // only the request that ends a hold
	p.mu.Unlock()
	if wake {
		p.wake()
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
	if err := p.deadLocked(); err != nil {
		p.mu.Unlock()
		return err
	}
	p.queue = append(p.queue, commitReq{
		snap:         snap,
		snapZxid:     zxid,
		transferDone: func(err error) { ch <- err },
	})
	p.mu.Unlock()
	p.sinceSnap = 0
	p.wake()
	return <-ch
}

// Err reports the sticky persistence failure, nil while healthy.
func (p *Persister) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failure
}

// Close drains the queue, seals the log, and stops the commit loop.
func (p *Persister) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.loopDone
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.wake()
	<-p.loopDone
	err := p.Err()
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

func (p *Persister) deadLocked() error {
	if p.failure != nil {
		return p.failure
	}
	if p.closed {
		return ErrClosed
	}
	return nil
}

// wake nudges the commit loop; the 1-buffered channel means a pending
// wakeup is never lost and an already-pending one need not be doubled.
func (p *Persister) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// flushed is what the flush rule remembers of the last flush: the
// requests in the batch it took, and how long it took to make them
// durable and when it did (obs.Now ns).
type flushed struct {
	awaited     int
	took, ended int64
}

// holdHists is storage_flush_hold_seconds, one series per way a hold
// ends: ended="requests" when the requests it waited for arrived,
// "bound" when they did not — the last flush's duration ran out, or,
// rarely, a state transfer, Close or a failure cut the hold short.
type holdHists struct{ requests, bound *obs.Histogram }

func (h holdHists) observe(ns int64, met bool) {
	if met {
		h.requests.Observe(ns)
	} else {
		h.bound.Observe(ns)
	}
}

// commitLoop is the commit-log goroutine: it repeatedly swaps out the
// whole queue and commits it as one batch, starting each flush by the
// rule in the Persister doc.
func (p *Persister) commitLoop() {
	defer close(p.loopDone)
	var last flushed
	var heldSince int64 // when the current hold began; 0: none
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return
			}
			<-p.kick
			continue
		}
		if wait := last.ended + last.took - obs.Now(); wait > 0 && p.holdsLocked(last.awaited) {
			p.holdFor = last.awaited
			select { // a wakeup from before the hold would end it at once
			case <-p.kick:
			default:
			}
			p.mu.Unlock()
			if heldSince == 0 {
				heldSince = obs.Now()
			}
			p.waitHold(time.Duration(wait))
			continue
		}
		batch, awaited := p.queue, p.awaited
		p.queue, p.awaited, p.holdFor = nil, 0, 0
		p.mu.Unlock()
		start := obs.Now()
		if heldSince != 0 {
			p.holdHist.observe(start-heldSince, awaited >= last.awaited)
			heldSince = 0
		}
		ended := p.commitBatch(batch)
		last = flushed{awaited: awaited, took: ended - start, ended: ended}
	}
}

// holdsLocked reports whether the queue waits for more requests, given
// that the last flush took a batch of target of them.
func (p *Persister) holdsLocked(target int) bool {
	return p.awaited < target && !p.closed && p.failure == nil &&
		p.queue[len(p.queue)-1].transferDone == nil // a state transfer is always last
}

// waitHold sleeps until a wakeup (the awaited count reached, a state
// transfer, Close, a failure) or for d, whichever comes first.
func (p *Persister) waitHold(d time.Duration) {
	p.hold.Reset(d)
	select {
	case <-p.kick:
		if !p.hold.Stop() {
			select { // it fired meanwhile: drain it before the next Reset
			case <-p.hold.C:
			default:
			}
		}
	case <-p.hold.C:
	}
}

// commitBatch makes batch durable, answers its waiters, and returns
// when the fsync returned (obs.Now ns).
func (p *Persister) commitBatch(batch []commitReq) int64 {
	err := p.Err() // sticky: fail queued work without touching the disk
	txns := 0
	if err == nil {
		for i := range batch {
			if batch[i].transferDone != nil {
				continue
			}
			txns++
			if err = p.log.Append(&batch[i].txn); err != nil {
				break
			}
		}
		if err == nil {
			if stall := p.syncStallNs.Load(); stall > 0 {
				time.Sleep(time.Duration(stall))
			}
			syncStart := obs.Now()
			err = p.log.Sync()
			p.fsyncHist.Observe(obs.Now() - syncStart)
		}
	}
	if err == nil {
		p.txnsHist.Observe(int64(txns))
	} else {
		p.fail(err)
	}
	durableNs := obs.Now()
	for i := range batch {
		if batch[i].done != nil {
			p.commitWait.Observe(durableNs - batch[i].enqNs)
			batch[i].done(err)
		}
	}

	// Only the LAST snapshot in the batch needs writing — recovery
	// always prefers the newest — and it covers the intent of every
	// earlier one. A state transfer is always last: nothing is recorded
	// behind it until it is published.
	var last *commitReq
	for i := range batch {
		if batch[i].snap != nil {
			last = &batch[i]
		}
	}
	snapErr := err
	if err == nil && last != nil {
		if snapErr = p.log.Snapshot(last.snap, last.snapZxid, last.transferDone != nil); snapErr != nil {
			p.fail(snapErr)
		}
	}
	for i := range batch {
		if batch[i].transferDone != nil {
			batch[i].transferDone(snapErr)
		}
	}
	return durableNs
}

// Fail injects a sticky persistence failure (fault injection for
// tests and operators): every subsequent Record and Snapshot fails
// fast with err, as if the disk had died.
func (p *Persister) Fail(err error) { p.fail(err) }

// StallFsync injects (or, with d <= 0, clears) an fsync stall: every
// subsequent group-commit flush sleeps d first. Unlike Fail this is
// non-sticky and harmless to correctness — commits still land, the
// batch window just stretches — which makes it the right probe for
// "slow disk" chaos scenarios where degraded mode must NOT trigger.
func (p *Persister) StallFsync(d time.Duration) { p.syncStallNs.Store(int64(d)) }

func (p *Persister) fail(err error) {
	p.mu.Lock()
	first := p.failure == nil
	if first {
		p.failure = err
	}
	p.mu.Unlock()
	if first {
		if p.onFail != nil {
			p.onFail(err)
		}
		p.wake() // a latched failure ends a hold
	}
}
