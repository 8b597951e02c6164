package zab

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/ztree"
)

// Peer is one replica's instance of the atomic broadcast protocol: the
// protocol core plus the driver that runs it in production — one
// goroutine that owns the ticker, the transport's receive channel and
// the submit rendezvous, reads the clock once per wake-up and calls the
// core's entry points one at a time. Role, Leader, LastCommitted, the
// stats and membership accessors are the core's and safe from any
// goroutine. Start it with Start and stop it with Stop.
type Peer struct {
	*core

	stop   chan struct{}
	done   chan struct{}
	submit chan submitReq
	// submitWaiting counts goroutines currently blocked handing a
	// submission to the loop — the live depth of the (unbuffered)
	// submit queue.
	submitWaiting atomic.Int32
}

type submitReq struct {
	txn    ztree.Txn
	origin Origin
	errCh  chan error
}

// NewPeer constructs a peer; call Start to run it.
func NewPeer(cfg Config) *Peer {
	p := &Peer{
		core:   newCore(cfg),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		submit: make(chan submitReq),
	}
	if reg := cfg.Obs; reg != nil {
		reg.GaugeFunc("zab_outstanding_depth", "", "leader proposals awaiting quorum", func() int64 { return int64(p.OutstandingDepth()) })
		reg.GaugeFunc("zab_submit_queue_depth", "", "goroutines blocked handing a submission to the zab loop", func() int64 {
			return int64(p.submitWaiting.Load())
		})
		reg.GaugeFunc("zab_committed_zxid", "", "highest locally delivered zxid", p.LastCommitted)
		reg.GaugeFunc("zab_leader_committed_zxid", "", "highest committed bound announced by the leader", p.LeaderCommitted)
		s := &p.stats
		reg.CounterFunc("zab_elections_total", "", "elections started", s.elections.Load)
		reg.CounterFunc("zab_proposals_total", "", "proposals accepted while leading", s.proposals.Load)
		reg.CounterFunc("zab_commits_total", "", "transactions delivered", s.commits.Load)
		reg.CounterFunc("zab_resyncs_total", "", "follower resyncs after detected holes", s.resyncs.Load)
		reg.CounterFunc("zab_propose_frames_total", "", "PROPOSE frames sent", s.proposeFrames.Load)
		reg.CounterFunc("zab_observer_frames_total", "", "OBSERVERCOMMIT frames sent or received", s.observerFrames.Load)
	}
	return p
}

// Start launches the peer's loop goroutine.
func (p *Peer) Start() {
	go p.run()
}

// Stop terminates the peer and waits for its loop to exit.
func (p *Peer) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// submitErrChPool recycles the per-Submit reply channels. A channel is
// only returned to the pool after its single buffered reply has been
// consumed; channels abandoned on the stop path (which may still
// receive a late reply) are left to the garbage collector.
var submitErrChPool = sync.Pool{
	New: func() any { return make(chan error, 1) },
}

// Submit proposes a transaction. Only valid on the leader; followers
// get ErrNotLeader and must forward via SendApp instead.
func (p *Peer) Submit(txn ztree.Txn, origin Origin) error {
	if p.Role() != RoleLeading {
		return ErrNotLeader
	}
	errCh := submitErrChPool.Get().(chan error)
	req := submitReq{txn: txn, origin: origin, errCh: errCh}
	p.submitWaiting.Add(1)
	select {
	case p.submit <- req:
		p.submitWaiting.Add(-1)
	case <-p.stop:
		p.submitWaiting.Add(-1)
		if len(errCh) == 0 {
			submitErrChPool.Put(errCh) // never handed to the loop
		}
		return ErrStopped
	}
	select {
	case err := <-req.errCh:
		submitErrChPool.Put(errCh)
		return err
	case <-p.stop:
		return ErrStopped
	}
}

// SendApp tunnels an application payload to another replica.
func (p *Peer) SendApp(to PeerID, payload []byte) error {
	return p.env.Transport.Send(to, Message{Kind: KindApp, App: payload})
}

func (p *Peer) run() {
	defer close(p.done)
	ticker := time.NewTicker(time.Duration(p.tickNs))
	defer ticker.Stop()
	recv := p.env.Transport.Receive()

	p.start(obs.Now())
	for {
		select {
		case <-p.stop:
			return
		case msg := <-recv:
			p.handle(obs.Now(), msg)
		case req := <-p.submit:
			now := obs.Now()
			p.accept(now, req)
			p.drainSubmits(now)
			p.flush(now)
		case <-ticker.C:
			p.onTick(recv)
		}
	}
}

// onTick handles every message already queued, then ticks. A tick
// judges silence, and select picks at random among ready cases: after a
// scheduling stall a follower could otherwise time out a leader whose
// pings sit unread in its own mailbox — an election with nothing wrong.
// Only what was queued when the tick fired is drained, so a flood
// cannot starve the heartbeat.
func (p *Peer) onTick(recv <-chan Message) {
	now := obs.Now()
	for n := len(recv); n > 0; n-- {
		select {
		case msg := <-recv:
			p.handle(now, msg)
		default: // Network.Flush got there first
		}
	}
	p.tick(now)
}

func (p *Peer) accept(now int64, req submitReq) {
	req.errCh <- p.propose(now, req.txn, req.origin)
}

// maxDrainRounds bounds how many scheduler yields one batch window
// spends collecting concurrent submissions before flushing.
const maxDrainRounds = 4

// drainSubmits accumulates concurrently-submitted transactions into the
// current batch. A submitter unblocks the moment its request is
// accepted, so under contention the next submissions are typically
// being *scheduled* rather than already queued; yielding between drain
// rounds lets runnable submitters enqueue, which is what makes batches
// actually form. The window closes after a round that found nothing, so
// a lone writer pays only one scheduler yield before its single-record
// frame flushes.
func (p *Peer) drainSubmits(now int64) {
	p.drainOnce(now)
	for rounds := 0; rounds < maxDrainRounds; rounds++ {
		runtime.Gosched()
		if p.drainOnce(now) == 0 {
			return
		}
	}
}

// drainOnce accepts every submission already queued and returns how
// many there were.
func (p *Peer) drainOnce(now int64) int {
	n := 0
	for {
		select {
		case req := <-p.submit:
			p.accept(now, req)
			n++
		default:
			return n
		}
	}
}
