package zab

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/ztree"
)

// Role is the peer's current protocol role.
type Role int32

// Protocol roles.
const (
	RoleLooking Role = iota + 1
	RoleFollowing
	RoleLeading
	// RoleObserving marks a non-voting replica: it replays the leader's
	// committed stream and serves reads, but never votes, never counts
	// toward any quorum, and never leads.
	RoleObserving
	// RoleRemoved marks a replica that learned — by delivering a
	// reconfig txn removing its id, or from the leader's REMOVED reply
	// to one of its election votes — that it is no longer an ensemble
	// member. A removed peer stops campaigning, ignores the protocol,
	// and stays removed until the process is restarted under a
	// membership that includes it again.
	RoleRemoved
)

// String returns the mnemonic for a role.
func (r Role) String() string {
	switch r {
	case RoleLooking:
		return "LOOKING"
	case RoleFollowing:
		return "FOLLOWING"
	case RoleLeading:
		return "LEADING"
	case RoleObserving:
		return "OBSERVING"
	case RoleRemoved:
		return "REMOVED"
	default:
		return fmt.Sprintf("ROLE(%d)", int32(r))
	}
}

// Submission errors.
var (
	ErrNotLeader = errors.New("zab: not the leader")
	ErrStopped   = errors.New("zab: peer stopped")
)

// Config parameterizes a Peer.
type Config struct {
	// ID is this replica's identity; Peers lists the VOTING members of
	// the ensemble (including ID when this peer votes) AT BOOT. Quorum
	// size and election fan-out derive from the voter set, which
	// committed reconfig transactions may grow or shrink at runtime.
	ID    PeerID
	Peers []PeerID
	// Observers lists the non-voting members at boot (including ID when
	// this peer is an observer). Observers receive the leader's
	// heartbeats and committed stream but are excluded from vote
	// tallies, quorum counts, and outstanding-proposal replay.
	Observers []PeerID
	// Logf, when set, receives membership-lifecycle log lines (reconfig
	// applications, removal notices). Optional; must not block.
	Logf func(format string, args ...any)
	// Transport connects this peer to the ensemble.
	Transport Transport
	// Deliver is invoked from the peer's loop goroutine for every
	// committed transaction, in zxid order. It must not block.
	Deliver func(Committed)
	// Snapshot and Restore let the protocol transfer database state
	// during follower recovery.
	Snapshot func() *ztree.Snapshot
	Restore  func(*ztree.Snapshot)
	// OnApp receives application messages tunneled between replicas
	// (the server layer's request forwarding). Must not block.
	OnApp func(from PeerID, payload []byte)
	// OnRoleChange is invoked when the peer's role or known leader
	// changes. Optional.
	OnRoleChange func(role Role, leader PeerID)
	// TickInterval drives heartbeats; ElectionTimeout bounds how long
	// a peer waits for votes or leader liveness before (re)electing.
	TickInterval    time.Duration
	ElectionTimeout time.Duration
	// MaxLogEntries caps the committed log kept for diff syncs; beyond
	// it followers recover via snapshot.
	MaxLogEntries int
	// LastZxid seeds the peer's history position after a restart that
	// recovered state from disk.
	LastZxid int64
	// Obs, when set, receives the peer's protocol metrics: the
	// propose→quorum-ack latency histogram, queue-depth gauges, zxid
	// frontier gauges, and the Stats counters.
	Obs *obs.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TickInterval <= 0 {
		out.TickInterval = 10 * time.Millisecond
	}
	if out.ElectionTimeout <= 0 {
		out.ElectionTimeout = 120 * time.Millisecond
	}
	if out.MaxLogEntries <= 0 {
		// Bounded for memory: the log is a ring of this many entries,
		// and entries retain their transaction payloads. Followers that
		// fall further behind recover via snapshot instead.
		out.MaxLogEntries = 20000
	}
	return out
}

type vote struct {
	round int64
	for_  PeerID
	zxid  int64
}

func betterVote(a, b vote) bool { // is a better than b
	if a.zxid != b.zxid {
		return a.zxid > b.zxid
	}
	return a.for_ > b.for_
}

// outstandingProposal is one proposal the leader has accepted and not
// yet committed. The leader keeps them in one slice in ascending zxid
// order and, per follower, one cumulative ACK frontier (Peer.acked): a
// proposal is acknowledged by exactly the followers whose frontier
// reached its zxid, so the two together are the whole quorum state.
type outstandingProposal struct {
	rec ProposalRecord
	// proposedNs is the obs.Now() stamp taken when the leader accepted
	// the submission; the propose→quorum-ack histogram reads it when
	// the proposal commits.
	proposedNs int64
}

type submitReq struct {
	txn    ztree.Txn
	origin Origin
	errCh  chan error
}

// Peer is one replica's instance of the atomic broadcast protocol. Start
// it with Run (typically via Start) and stop it with Stop.
type Peer struct {
	cfg Config

	role   atomic.Int32
	leader atomic.Int64
	stop   chan struct{}
	done   chan struct{}
	submit chan submitReq

	// Loop-owned state (no locking needed inside the loop).
	round       int64
	myVote      vote
	votes       map[PeerID]vote
	epoch       int64
	counter     int64
	lastZxid    int64 // highest zxid seen (proposed or applied); NOT what votes advertise
	lastCommit  int64 // highest zxid delivered; the frontier votes and FOLLOWERINFO claim
	outstanding []outstandingProposal
	acked       map[PeerID]int64         // leader: each follower's cumulative ACK frontier
	batch       []ProposalRecord         // leader: submissions awaiting one PROPOSE frame
	inflight    map[int64]ProposalRecord // follower: proposals awaiting commit
	log         commitLog                // committed history for diff syncs
	synced      map[PeerID]struct{}
	// obsSynced tracks observers that completed the snapshot/diff sync
	// handshake and now receive the committed stream. Deliberately
	// separate from synced: nothing in quorum math, handleSubmit's
	// activation gate, or replayOutstanding may ever see an observer.
	obsSynced map[PeerID]struct{}
	// isObserver marks this peer itself as a non-voting member; voters
	// and observers are the CURRENT membership (boot config plus every
	// applied reconfig txn) used to classify message senders and size
	// quorums; addrs maps members added at runtime to their transport
	// addresses (boot members' addresses live in the transport itself).
	isObserver bool
	voters     map[PeerID]struct{}
	observers  map[PeerID]struct{}
	addrs      map[PeerID]string
	// updater is the transport's optional runtime-membership hook.
	updater MembershipUpdater
	// memberMu guards the mirrors below: copies of the loop-owned
	// membership and leader sync state published for off-loop readers
	// (stats, reconfig validation at the server layer).
	memberMu   sync.RWMutex
	mVoters    map[PeerID]bool
	mObservers map[PeerID]bool
	mObsSynced map[PeerID]bool
	// obsRun accumulates the records committed in one advanceCommits
	// run for the observer stream (loop-owned, reset per run);
	// obsTargets is the observer set snapshotted at the start of the run
	// so a mid-run reconfig cannot hide its own txn from the observer it
	// promotes or removes.
	obsRun     []ProposalRecord
	obsTargets []PeerID
	// commitTargets is the synced-follower set snapshotted at the start
	// of an advanceCommits run, for the same reason as obsTargets: the
	// follower a remove txn drops must still get the commit that parks it.
	commitTargets []PeerID
	// transportRemovals defers the leader's updater.RemovePeer calls: the
	// commit covering a removal must flush to the removed peer before its
	// link is torn down, so the teardown runs from tick after a grace
	// period instead of inline with the reconfig's delivery.
	transportRemovals map[PeerID]time.Time
	lastHeard         map[PeerID]time.Time
	electionDue       time.Time
	finalizeDue       time.Time // grace deadline for a quorum-but-not-unanimous tally
	followTarget      PeerID
	// peerScratch is the reusable fan-out target list handed to
	// SendToMany (loop-owned, rebuilt before every use).
	peerScratch []PeerID
	// leaderSynced records whether the followed leader has answered our
	// FOLLOWERINFO with a sync. Until it does, the tick re-sends the
	// FOLLOWERINFO: the first one races the leader's own activation (it
	// ignores FOLLOWERINFO while still LOOKING), and without a retry
	// the leader would never assemble a synced quorum — a permanently
	// wedged ensemble the multi-process failover harness exposed.
	// nextSyncAsk paces those retries.
	leaderSynced bool
	nextSyncAsk  time.Time

	// outDepth mirrors len(outstanding) for lock-free observability
	// (the admin/stats API reads it off the loop goroutine).
	outDepth atomic.Int32
	// submitWaiting counts goroutines currently blocked handing a
	// submission to the loop — the live depth of the (unbuffered)
	// submit queue.
	submitWaiting atomic.Int32
	// leaderBound is the highest committed bound the leader has
	// announced to us (COMMIT frames, piggybacked PROPOSE/PING bounds,
	// OBSERVERCOMMIT). Written only by the loop goroutine; read by the
	// stats API to compute commit lag.
	leaderBound atomic.Int64

	// proposeToAck is the propose→quorum-ack latency histogram (nil
	// no-op without a registry).
	proposeToAck *obs.Histogram

	statsMu sync.Mutex
	stats   Stats
}

// Stats counts protocol events for observability and tests.
type Stats struct {
	Elections int64
	Proposals int64
	Commits   int64
	Resyncs   int64
	// ProposeFrames counts PROPOSE frames actually sent (one per
	// follower per flush). With batching, ProposeFrames/Proposals drops
	// below the follower count under concurrent load; the contended
	// benchmarks assert on that ratio.
	ProposeFrames int64
	// ObserverFrames counts OBSERVERCOMMIT frames streamed to synced
	// observers (leader side).
	ObserverFrames int64
}

// NewPeer constructs a peer; call Start to run it.
func NewPeer(cfg Config) *Peer {
	c := cfg.withDefaults()
	p := &Peer{
		cfg:       c,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		submit:    make(chan submitReq),
		votes:     make(map[PeerID]vote),
		acked:     make(map[PeerID]int64),
		inflight:  make(map[int64]ProposalRecord),
		log:       commitLog{recs: make([]ProposalRecord, c.MaxLogEntries)},
		synced:    make(map[PeerID]struct{}),
		obsSynced: make(map[PeerID]struct{}),
		voters:    make(map[PeerID]struct{}, len(c.Peers)),
		observers: make(map[PeerID]struct{}, len(c.Observers)),
		addrs:     make(map[PeerID]string),
		lastHeard: make(map[PeerID]time.Time),

		transportRemovals: make(map[PeerID]time.Time),
	}
	for _, id := range c.Peers {
		p.voters[id] = struct{}{}
	}
	for _, id := range c.Observers {
		p.observers[id] = struct{}{}
		if id == c.ID {
			p.isObserver = true
		}
	}
	p.updater, _ = c.Transport.(MembershipUpdater)
	p.publishMembership()
	p.publishObsSynced()
	p.role.Store(int32(RoleLooking))
	p.leader.Store(int64(-1))
	p.lastZxid = c.LastZxid
	atomic.StoreInt64(&p.lastCommit, c.LastZxid)
	p.registerMetrics(c.Obs)
	return p
}

// registerMetrics wires the peer's instruments into reg (nil = no-op).
func (p *Peer) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.proposeToAck = reg.Histogram("zab_propose_to_ack_seconds", "", "leader accept to quorum ack, per proposal")
	reg.GaugeFunc("zab_outstanding_depth", "", "leader proposals awaiting quorum", func() int64 {
		return int64(p.outDepth.Load())
	})
	reg.GaugeFunc("zab_submit_queue_depth", "", "goroutines blocked handing a submission to the zab loop", func() int64 {
		return int64(p.submitWaiting.Load())
	})
	reg.GaugeFunc("zab_committed_zxid", "", "highest locally delivered zxid", p.LastCommitted)
	reg.GaugeFunc("zab_leader_committed_zxid", "", "highest committed bound announced by the leader", p.LeaderCommitted)
	stat := func(f func(Stats) int64) func() int64 {
		return func() int64 {
			p.statsMu.Lock()
			defer p.statsMu.Unlock()
			return f(p.stats)
		}
	}
	reg.CounterFunc("zab_elections_total", "", "elections started", stat(func(s Stats) int64 { return s.Elections }))
	reg.CounterFunc("zab_proposals_total", "", "proposals accepted while leading", stat(func(s Stats) int64 { return s.Proposals }))
	reg.CounterFunc("zab_commits_total", "", "transactions delivered", stat(func(s Stats) int64 { return s.Commits }))
	reg.CounterFunc("zab_resyncs_total", "", "follower resyncs after detected holes", stat(func(s Stats) int64 { return s.Resyncs }))
	reg.CounterFunc("zab_propose_frames_total", "", "PROPOSE frames sent", stat(func(s Stats) int64 { return s.ProposeFrames }))
	reg.CounterFunc("zab_observer_frames_total", "", "OBSERVERCOMMIT frames sent or received", stat(func(s Stats) int64 { return s.ObserverFrames }))
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

// Role returns the peer's current role.
func (p *Peer) Role() Role { return Role(p.role.Load()) }

// Leader returns the current known leader, or -1 if none.
func (p *Peer) Leader() PeerID { return PeerID(p.leader.Load()) }

// ID returns this peer's identity.
func (p *Peer) ID() PeerID { return p.cfg.ID }

// LastCommitted returns the highest delivered zxid. Only meaningful for
// observability; read from the loop's perspective it may lag.
func (p *Peer) LastCommitted() int64 { return atomic.LoadInt64(&p.lastCommit) }

// OutstandingDepth returns the number of proposals awaiting quorum on
// this peer. Non-zero only while leading; exposed for the stats API.
func (p *Peer) OutstandingDepth() int { return int(p.outDepth.Load()) }

// LeaderCommitted returns the highest committed bound this peer knows
// the leader reached: its own frontier while leading, otherwise the
// latest bound announced over COMMIT/PROPOSE/PING/OBSERVERCOMMIT
// frames. LeaderCommitted() - LastCommitted() is this peer's commit
// lag, never negative.
func (p *Peer) LeaderCommitted() int64 {
	bound := p.leaderBound.Load()
	if own := p.LastCommitted(); own > bound {
		return own
	}
	return bound
}

// StatsSnapshot returns a copy of the protocol counters.
func (p *Peer) StatsSnapshot() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
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
	return p.cfg.Transport.Send(to, Message{Kind: KindApp, App: payload})
}

// quorum returns the minimum ensemble majority size over the CURRENT
// voter set — the set reconfig transactions mutate, so the required
// majority switches at exactly the reconfig txn's zxid.
func (p *Peer) quorum() int { return len(p.voters)/2 + 1 }

func (p *Peer) setRole(role Role, leader PeerID) {
	prevRole := Role(p.role.Swap(int32(role)))
	prevLeader := PeerID(p.leader.Swap(int64(leader)))
	if p.cfg.OnRoleChange != nil && (prevRole != role || prevLeader != leader) {
		p.cfg.OnRoleChange(role, leader)
	}
}

func (p *Peer) run() {
	defer close(p.done)
	ticker := time.NewTicker(p.cfg.TickInterval)
	defer ticker.Stop()

	if p.isObserver {
		p.startObserving()
	} else {
		p.startElection()
	}

	for {
		select {
		case <-p.stop:
			return
		case msg := <-p.cfg.Transport.Receive():
			p.handle(msg)
		case req := <-p.submit:
			p.handleSubmit(req)
			p.drainSubmits()
			p.flushProposals()
			p.advanceCommits()
		case now := <-ticker.C:
			p.tick(now)
		}
	}
}

// isVoter reports whether id is a voting member of the ensemble.
func (p *Peer) isVoter(id PeerID) bool {
	_, ok := p.voters[id]
	return ok
}

// isObserverMember reports whether id is a non-voting member.
func (p *Peer) isObserverMember(id PeerID) bool {
	_, ok := p.observers[id]
	return ok
}

// isMember reports whether id is any kind of ensemble member.
func (p *Peer) isMember(id PeerID) bool {
	return p.isVoter(id) || p.isObserverMember(id)
}

// --- observer lifecycle ---

// startObserving (re)enters the leaderless observing state: the peer
// waits for a leader's heartbeat to adopt it. Also used when the
// followed leader goes silent — the observer NEVER elects; it reports
// leader -1 (failing pending forwarded writes at the server layer) and
// waits for the voters to sort it out.
func (p *Peer) startObserving() {
	p.followTarget = -1
	p.leaderSynced = false
	p.inflight = make(map[int64]ProposalRecord)
	p.setRole(RoleObserving, -1)
}

// adoptLeader points the observer at a (possibly new) leader and asks
// to be synced from the committed frontier, exactly like a lagging
// follower — except via OBSERVERINFO, so the leader never confuses the
// sender with a quorum participant.
func (p *Peer) adoptLeader(leader PeerID) {
	p.followTarget = leader
	p.leaderSynced = false
	p.nextSyncAsk = time.Now().Add(p.syncAskInterval())
	p.inflight = make(map[int64]ProposalRecord)
	p.lastHeard[leader] = time.Now()
	p.setRole(RoleObserving, leader)
	_ = p.cfg.Transport.Send(leader, Message{Kind: KindObserverInfo, Zxid: p.lastCommitted()})
}

// --- election ---

func (p *Peer) startElection() {
	if p.isObserver {
		// Defensive: no code path should route an observer here, but if
		// one ever does, detaching beats campaigning.
		p.startObserving()
		return
	}
	p.statsMu.Lock()
	p.stats.Elections++
	p.statsMu.Unlock()

	p.setRole(RoleLooking, -1)
	p.batch = nil // unsent proposals die with the leadership term
	p.outDepth.Store(0)
	p.finalizeDue = time.Time{}
	p.round++
	p.votes = make(map[PeerID]vote, len(p.voters))
	// Votes advertise the ACKed frontier (electionZxid): the committed
	// bound extended by the gapless in-flight prefix this peer still
	// buffers. Committed-only is not enough — a leader that reaches
	// quorum on a proposal commits and acks the client immediately, so
	// if it dies before any COMMIT message lands, the acked write
	// survives only in some follower's in-flight buffer; that follower
	// must outbid peers with equal committed state or the write is
	// rolled back. Raw lastZxid overshoots the other way: it counts
	// shed proposals and the bare epoch marker a leader stamps at
	// activation, letting a peer with *stale committed state* outbid
	// peers holding real history. The cumulative-ACK frontier is
	// exactly the set of transactions this peer vouched for.
	p.myVote = vote{round: p.round, for_: p.cfg.ID, zxid: p.electionZxid()}
	p.votes[p.cfg.ID] = p.myVote
	p.synced = make(map[PeerID]struct{})
	p.electionDue = time.Now().Add(p.cfg.ElectionTimeout)
	p.broadcastVote()
	// A single-peer ensemble (or one whose own vote already forms a
	// quorum) decides immediately — no votes will arrive to trigger it.
	p.checkElection()
}

// otherPeers rebuilds the scratch list with every VOTING member but
// this one (election fan-out: observers receive no votes).
func (p *Peer) otherPeers() []PeerID {
	p.peerScratch = p.peerScratch[:0]
	for id := range p.voters {
		if id != p.cfg.ID {
			p.peerScratch = append(p.peerScratch, id)
		}
	}
	return p.peerScratch
}

// allOtherPeers rebuilds the scratch list with every ensemble member —
// voters and observers — but this one (the leader's heartbeat fan-out,
// which is how observers discover the leader).
func (p *Peer) allOtherPeers() []PeerID {
	p.peerScratch = p.peerScratch[:0]
	for id := range p.voters {
		if id != p.cfg.ID {
			p.peerScratch = append(p.peerScratch, id)
		}
	}
	for id := range p.observers {
		if id != p.cfg.ID {
			p.peerScratch = append(p.peerScratch, id)
		}
	}
	return p.peerScratch
}

// syncedObservers rebuilds the scratch list with every synced observer.
func (p *Peer) syncedObservers() []PeerID {
	p.peerScratch = p.peerScratch[:0]
	for id := range p.obsSynced {
		p.peerScratch = append(p.peerScratch, id)
	}
	return p.peerScratch
}

// syncedFollowers rebuilds the scratch list with every synced follower.
func (p *Peer) syncedFollowers() []PeerID {
	p.peerScratch = p.peerScratch[:0]
	for id := range p.synced {
		if id != p.cfg.ID {
			p.peerScratch = append(p.peerScratch, id)
		}
	}
	return p.peerScratch
}

func (p *Peer) broadcastVote() {
	SendToMany(p.cfg.Transport, p.otherPeers(), Message{
		Kind:     KindVote,
		Epoch:    p.myVote.round,
		VoteFor:  p.myVote.for_,
		VoteZxid: p.myVote.zxid,
	})
}

func (p *Peer) handleVote(msg Message) {
	// Observers are silent in elections, in both directions: an observer
	// never tallies or answers votes, and a vote claimed by a non-voting
	// peer (buggy or malicious) must never enter a voter's tally.
	if p.isObserver || !p.isVoter(msg.From) {
		// A campaigner that is no member AT ALL was removed by a
		// committed reconfig it never saw (it was down, or restarted
		// from stale state). Left alone it campaigns forever against a
		// quorum that no longer counts it; the leader — whose membership
		// reflects every committed reconfig — tells it so.
		if !p.isObserver && p.Role() == RoleLeading && !p.isMember(msg.From) {
			_ = p.cfg.Transport.Send(msg.From, Message{Kind: KindRemoved})
		}
		return
	}
	v := vote{round: msg.Epoch, for_: msg.VoteFor, zxid: msg.VoteZxid}
	if p.Role() != RoleLooking {
		// A settled peer answers only genuine vote broadcasts, with a
		// reply naming the current leader, echoing the asker's round so
		// it counts in the asker's tally. Replies to replies would
		// ping-pong forever between two settled peers.
		//
		// A follower only answers once the leader has acknowledged its
		// sync this term (leaderSynced): electing a leader is not
		// evidence it is alive. Without this, two survivors of a dead
		// high-id leader can resurrect it in turns — the settled one
		// advertises it, the looking one re-elects it on the id
		// tie-break, each re-follow restarting the silence clock — and
		// livelock for many election timeouts.
		if !msg.VoteReply && (p.Role() == RoleLeading || p.leaderSynced) {
			_ = p.cfg.Transport.Send(msg.From, Message{
				Kind:      KindVote,
				Epoch:     msg.Epoch,
				VoteFor:   p.Leader(),
				VoteZxid:  p.lastCommitted(),
				VoteReply: true,
			})
		}
		return
	}
	switch {
	case v.round > p.myVote.round:
		// Join the newer round, adopting the better of the two votes.
		p.round = v.round
		mine := vote{round: v.round, for_: p.cfg.ID, zxid: p.electionZxid()}
		if betterVote(v, mine) {
			p.myVote = v
		} else {
			p.myVote = mine
		}
		p.votes = map[PeerID]vote{p.cfg.ID: p.myVote, msg.From: v}
		p.broadcastVote()
	case v.round == p.myVote.round:
		p.votes[msg.From] = v
		if betterVote(v, p.myVote) {
			p.myVote = vote{round: p.round, for_: v.for_, zxid: v.zxid}
			p.votes[p.cfg.ID] = p.myVote
			p.broadcastVote()
		}
	default:
		// Stale round: remind the sender of the current round (as a
		// reply, so a settled sender will not answer back).
		if !msg.VoteReply {
			_ = p.cfg.Transport.Send(msg.From, Message{
				Kind:      KindVote,
				Epoch:     p.myVote.round,
				VoteFor:   p.myVote.for_,
				VoteZxid:  p.myVote.zxid,
				VoteReply: true,
			})
		}
		return
	}
	p.checkElection()
}

func (p *Peer) checkElection() {
	candidate, n, ok := p.tallyQuorum()
	if !ok {
		return
	}
	if n == len(p.voters) {
		// Unanimous: no tallied peer can still adopt a better vote
		// (every vote names the same best candidate), so finalize now.
		p.finalizeElection(candidate)
		return
	}
	// Quorum without unanimity: a tallied peer may adopt a better vote
	// after we counted it (it keeps electing while we settle), which
	// can build rings of followers with no leader. Hold the result for
	// a short grace period — ZooKeeper's election "finalize wait" — and
	// let the tick finalize whatever tally then stands.
	if p.finalizeDue.IsZero() {
		p.finalizeDue = time.Now().Add(2 * p.cfg.TickInterval)
	}
}

// tallyQuorum returns the candidate holding a quorum of current votes.
func (p *Peer) tallyQuorum() (PeerID, int, bool) {
	tally := make(map[PeerID]int, len(p.votes))
	for _, v := range p.votes {
		tally[v.for_]++
	}
	for candidate, n := range tally {
		if n >= p.quorum() {
			return candidate, n, true
		}
	}
	return 0, 0, false
}

func (p *Peer) finalizeElection(candidate PeerID) {
	p.finalizeDue = time.Time{}
	if candidate == p.cfg.ID {
		p.becomeLeader()
	} else {
		p.becomeFollower(candidate)
	}
}

func (p *Peer) becomeLeader() {
	// Leader completion: commit the gapless ACKed prefix buffered while
	// following the previous leader. The vote advertised this frontier,
	// so winning the election promises these transactions. Any write
	// the old leader committed (and acked to its client) was ACKed by
	// a quorum; that quorum intersects the quorum that elected us, and
	// the intersecting voter only voted for a frontier at least as
	// high as its own — so ours covers the write, and committing the
	// prefix here is what turns that argument into a preserved write.
	p.commitUpTo(p.electionZxid())
	p.inflight = make(map[int64]ProposalRecord)
	// The new epoch must exceed every epoch reflected in the votes.
	maxEpoch := EpochOf(p.lastZxid)
	for _, v := range p.votes {
		if e := EpochOf(v.zxid); e > maxEpoch {
			maxEpoch = e
		}
	}
	p.epoch = maxEpoch + 1
	p.counter = 0
	p.lastZxid = MakeZxid(p.epoch, 0)
	p.outstanding = nil
	p.acked = make(map[PeerID]int64) // a frontier vouches for one term's proposals
	p.outDepth.Store(0)
	p.batch = nil
	p.synced = map[PeerID]struct{}{p.cfg.ID: {}}
	// Observers re-handshake with every new leader (their OBSERVERINFO
	// answers our first ping); until then they get no stream.
	p.obsSynced = make(map[PeerID]struct{})
	p.publishObsSynced()
	now := time.Now()
	for id := range p.voters {
		p.lastHeard[id] = now
	}
	p.setRole(RoleLeading, p.cfg.ID)
}

func (p *Peer) becomeFollower(leader PeerID) {
	p.followTarget = leader
	p.leaderSynced = false
	p.nextSyncAsk = time.Now().Add(p.syncAskInterval())
	// Keep the ACKed in-flight prefix across the transition: if the new
	// leader dies before syncing us, the next election vote must still
	// cover every transaction this peer's ACKs vouched for. The sync
	// answer supersedes (and trims) the buffer when it lands.
	p.trimInflight(p.ackFrontier())
	p.lastHeard[leader] = time.Now()
	p.setRole(RoleFollowing, leader)
	// FOLLOWERINFO advertises the COMMITTED frontier, never lastZxid:
	// buffered-but-uncommitted proposals die with the old term, and
	// claiming them would make the leader's diff start past entries
	// this follower never applied — silent state divergence.
	_ = p.cfg.Transport.Send(leader, Message{Kind: KindFollowerInfo, Zxid: p.lastCommitted()})
}

// syncAskInterval paces FOLLOWERINFO retries: fast enough to win the
// race with a just-activating leader, slow enough that a long snapshot
// transfer in flight is not answered with yet more snapshots.
func (p *Peer) syncAskInterval() time.Duration { return p.cfg.ElectionTimeout / 2 }

// --- recovery / sync ---

func (p *Peer) handleFollowerInfo(msg Message) {
	if p.Role() != RoleLeading {
		return
	}
	if !p.isVoter(msg.From) {
		// A non-voter claiming FOLLOWERINFO is synced like an observer:
		// it gets the state transfer but can never enter the voter
		// handshake, no matter what it sends.
		p.handleObserverInfo(msg)
		return
	}
	p.lastHeard[msg.From] = time.Now()
	p.sendSync(msg.From, msg.Zxid)
}

// handleObserverInfo syncs a joining (or resyncing) observer from its
// committed frontier, exactly like a lagging follower. The observer's
// NEWLEADERACK after the transfer lands in obsSynced (see
// handleNewLeaderAck), switching it onto the committed stream. A peer
// that is no member at all is ignored: it is either removed (its next
// election vote gets the REMOVED reply) or a joiner racing its own
// reconfig-add commit, which retries until the add lands.
func (p *Peer) handleObserverInfo(msg Message) {
	if p.Role() != RoleLeading || p.isVoter(msg.From) || !p.isObserverMember(msg.From) {
		return
	}
	p.lastHeard[msg.From] = time.Now()
	p.sendSync(msg.From, msg.Zxid)
}

// sendSync transfers committed history to a peer whose frontier is
// zxid: a diff when the log still covers it, a full snapshot otherwise.
// Every sync answer piggybacks the leader's current membership, so a
// snapshot-synced joiner (whose diff never replays the reconfig txns)
// and a follower restarted from stale state adopt the ensemble's
// current voter/observer sets along with the data.
func (p *Peer) sendSync(to PeerID, zxid int64) {
	cfgBytes := encodeMembership(p.voters, p.observers, p.addrs)
	if diff, ok := p.diffSince(zxid); ok {
		_ = p.cfg.Transport.Send(to, Message{
			Kind:   KindSyncDiff,
			Epoch:  p.epoch,
			Zxid:   p.lastCommitted(),
			Diff:   diff,
			Config: cfgBytes,
		})
		return
	}
	snap := p.cfg.Snapshot()
	_ = p.cfg.Transport.Send(to, Message{
		Kind:     KindSyncSnap,
		Epoch:    p.epoch,
		Zxid:     p.lastCommitted(),
		Snapshot: snap,
		Config:   cfgBytes,
	})
}

func (p *Peer) lastCommitted() int64 { return atomic.LoadInt64(&p.lastCommit) }

// diffSince returns the committed proposals after zxid if the log still
// holds them.
func (p *Peer) diffSince(zxid int64) ([]ProposalRecord, bool) {
	if EpochOf(zxid) != p.epoch && zxid != 0 && p.log.n == 0 {
		return nil, false
	}
	return p.log.since(zxid)
}

func (p *Peer) handleSync(msg Message) {
	if role := p.Role(); (role != RoleFollowing && role != RoleObserving) || msg.From != p.followTarget {
		return
	}
	p.statsMu.Lock()
	p.stats.Resyncs++
	p.statsMu.Unlock()

	// Captured before the install moves the commit bound: the ACKed
	// prefix as of now is what this peer's cumulative ACKs vouched for
	// and must outlive the sync (see trimInflight).
	keep := p.ackFrontier()
	switch msg.Kind {
	case KindSyncSnap:
		p.log.reset(msg.Zxid)
		p.lastZxid = msg.Zxid
		atomic.StoreInt64(&p.lastCommit, msg.Zxid)
		// Restore after the position update so the application layer
		// can read the new zxid when persisting the restored state.
		if msg.Snapshot != nil {
			p.cfg.Restore(msg.Snapshot)
		}
	case KindSyncDiff:
		for _, rec := range msg.Diff {
			if rec.Txn.Zxid <= p.lastCommitted() {
				continue
			}
			p.deliver(Committed{Txn: rec.Txn, Origin: rec.Origin})
		}
		p.lastZxid = msg.Zxid
	}
	// The sync carries the leader's membership as of the transferred
	// frontier: adopt it (snapshot transfers never replay the reconfig
	// txns the snapshot already reflects). A diff may have delivered a
	// removal of this very peer above — then it is out of the ensemble
	// and must not complete the handshake.
	if len(msg.Config) > 0 {
		p.adoptMembership(msg.Config)
	}
	if p.Role() == RoleRemoved {
		return
	}
	p.epoch = msg.Epoch
	p.leaderSynced = true
	p.trimInflight(keep)
	p.lastHeard[msg.From] = time.Now()
	_ = p.cfg.Transport.Send(msg.From, Message{Kind: KindNewLeaderAck, Zxid: p.lastZxid})
}

func (p *Peer) handleNewLeaderAck(msg Message) {
	if p.Role() != RoleLeading {
		return
	}
	p.lastHeard[msg.From] = time.Now()
	if !p.isVoter(msg.From) {
		// An observer completing its sync joins the committed stream and
		// NOTHING else: not the synced set (quorum, activation gate, the
		// propose fan-out) and not replayOutstanding — uncommitted
		// proposals are a voter concern only. obsSynced is also the
		// promotion gate: ValidateReconfig accepts a promote only for
		// observers in this set, which is what keeps an unsynced joiner
		// from ever counting toward a quorum.
		if !p.isObserverMember(msg.From) {
			return
		}
		p.obsSynced[msg.From] = struct{}{}
		p.publishObsSynced()
		return
	}
	p.synced[msg.From] = struct{}{}
	p.replayOutstanding(msg.From)
}

// replayOutstanding re-sends every uncommitted proposal to a follower
// that just (re)synced. Sync transfers only committed history and
// PROPOSE frames go to already-synced followers exactly once, so a
// proposal whose only recipient shed it (or resynced, discarding its
// in-flight buffer) would otherwise be held by no live follower. Such a
// proposal can never reach quorum, and because commits advance strictly
// in zxid order it head-of-line-blocks every later proposal too: the
// leader keeps accepting writes that never commit — a stable-looking
// but permanently wedged ensemble, which the SIGKILL crash harness
// exposed after whole-ensemble restarts.
func (p *Peer) replayOutstanding(to PeerID) {
	bound := p.lastCommitted()
	frames := int64(0)
	for start := 0; start < len(p.outstanding); start += maxBatchRecords {
		end := min(start+maxBatchRecords, len(p.outstanding))
		batch := make([]ProposalRecord, 0, end-start)
		for _, prop := range p.outstanding[start:end] {
			batch = append(batch, prop.rec)
		}
		_ = p.cfg.Transport.Send(to, Message{Kind: KindProposeBatch, Epoch: p.epoch, Zxid: bound, Batch: batch})
		frames++
	}
	if frames > 0 {
		p.statsMu.Lock()
		p.stats.ProposeFrames += frames
		p.statsMu.Unlock()
	}
}

// --- broadcast ---

// handleSubmit stamps a submission with the next zxid and queues it on
// the current batch; the run loop flushes accumulated submissions as a
// single multi-record PROPOSE frame per follower.
func (p *Peer) handleSubmit(req submitReq) {
	if p.Role() != RoleLeading {
		req.errCh <- ErrNotLeader
		return
	}
	if len(p.synced) < p.quorum() {
		req.errCh <- fmt.Errorf("zab: leader not yet activated (%d/%d synced): %w",
			len(p.synced), p.quorum(), ErrNotLeader)
		return
	}
	p.counter++
	zxid := MakeZxid(p.epoch, p.counter)
	req.txn.Zxid = zxid
	p.lastZxid = zxid
	rec := ProposalRecord{Txn: req.txn, Origin: req.origin}
	p.outstanding = append(p.outstanding, outstandingProposal{rec: rec, proposedNs: obs.Now()})
	p.outDepth.Store(int32(len(p.outstanding)))
	p.batch = append(p.batch, rec)
	p.statsMu.Lock()
	p.stats.Proposals++
	p.statsMu.Unlock()
	req.errCh <- nil
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
func (p *Peer) drainSubmits() {
	p.drainOnce()
	for rounds := 0; rounds < maxDrainRounds; rounds++ {
		runtime.Gosched()
		if p.drainOnce() == 0 {
			return
		}
	}
}

// drainOnce accepts every submission already queued, flushing early if
// the batch hits the frame cap. Returns how many it accepted.
func (p *Peer) drainOnce() int {
	n := 0
	for {
		select {
		case req := <-p.submit:
			p.handleSubmit(req)
			n++
			if len(p.batch) >= maxBatchRecords {
				p.flushProposals()
			}
		default:
			return n
		}
	}
}

// flushProposals sends the accumulated batch as one PROPOSE frame per
// synced follower, piggybacking the leader's commit bound so followers
// can apply previously committed transactions without a COMMIT frame.
func (p *Peer) flushProposals() {
	if len(p.batch) == 0 {
		return
	}
	// One shared copy per flush: the in-process transport passes the
	// slice by reference and receivers treat frames as read-only, so
	// every follower can share it while p.batch is reused.
	frame := make([]ProposalRecord, len(p.batch))
	copy(frame, p.batch)
	p.batch = p.batch[:0]
	bound := p.lastCommitted()
	followers := p.syncedFollowers()
	// Encode-once fan-out: a multicast-capable transport (the TCP mesh)
	// serializes this frame a single time for all followers.
	SendToMany(p.cfg.Transport, followers, Message{Kind: KindProposeBatch, Epoch: p.epoch, Zxid: bound, Batch: frame})
	if frames := int64(len(followers)); frames > 0 {
		p.statsMu.Lock()
		p.stats.ProposeFrames += frames
		p.statsMu.Unlock()
	}
}

// handleProposeBatch replays a multi-record PROPOSE frame in zxid order
// and acknowledges it as a unit: one cumulative ACK for the contiguous
// prefix of proposals this follower holds.
func (p *Peer) handleProposeBatch(msg Message) {
	if p.Role() != RoleFollowing || msg.From != p.followTarget || len(msg.Batch) == 0 {
		return
	}
	p.lastHeard[msg.From] = time.Now()
	committed := p.lastCommitted()
	var prev int64
	for i := range msg.Batch {
		rec := &msg.Batch[i]
		zxid := rec.Txn.Zxid
		if i > 0 && zxid <= prev {
			break // malformed frame: ignore the out-of-order tail
		}
		prev = zxid
		if zxid <= committed {
			continue // duplicate of an already-committed proposal
		}
		p.inflight[zxid] = *rec
		if zxid > p.lastZxid {
			p.lastZxid = zxid
		}
	}
	// Ack the batch as a unit, but never past a gap: the cumulative ACK
	// asserts this follower holds *every* proposal up to the frontier,
	// and acking past missing proposals would let the leader count a
	// false quorum for them.
	frontier := p.ackFrontier()
	_ = p.cfg.Transport.Send(msg.From, Message{Kind: KindAck, Zxid: frontier})
	if frontier < prev {
		// An earlier frame was shed; recover now instead of waiting for
		// the commit-time hole detection.
		p.resync()
		return
	}
	// Piggybacked commit bound: apply what the leader has committed.
	p.commitUpTo(msg.Zxid)
}

// ackFrontier returns the highest zxid z such that this follower holds
// (or has committed) every proposal in (lastCommitted, z].
func (p *Peer) ackFrontier() int64 {
	z := p.lastCommitted()
	for {
		next := MakeZxid(EpochOf(z), CounterOf(z)+1)
		if _, ok := p.inflight[next]; ok {
			z = next
			continue
		}
		// Epoch boundary: the first proposal of the current epoch
		// follows the last zxid of the previous one.
		if EpochOf(z) < p.epoch {
			next = MakeZxid(p.epoch, 1)
			if _, ok := p.inflight[next]; ok {
				z = next
				continue
			}
		}
		return z
	}
}

// electionZxid is the frontier a vote advertises: the committed bound
// plus the contiguous ACKed in-flight prefix (ackFrontier). For a
// peer with nothing buffered — a leader, or a fully caught-up
// follower — it degenerates to the committed frontier.
func (p *Peer) electionZxid() int64 { return p.ackFrontier() }

// trimInflight drops buffered proposals outside (lastCommitted, keep]:
// entries at or below the commit bound are applied history, entries
// past keep were never ACKed (a gap separates them) so no quorum ever
// counted this peer as holding them. What remains is the prefix this
// peer's cumulative ACKs vouched for — it must survive role changes
// and resyncs, because a leader may have committed against those ACKs
// and died before any COMMIT message escaped.
func (p *Peer) trimInflight(keep int64) {
	committed := p.lastCommitted()
	for z := range p.inflight {
		if z <= committed || z > keep {
			delete(p.inflight, z)
		}
	}
}

func (p *Peer) resync() {
	role := p.Role()
	if role != RoleFollowing && role != RoleObserving {
		return
	}
	// Until the sync lands, the tick keeps re-requesting (the request
	// itself may be shed on a flapping link). Observers ask via
	// OBSERVERINFO so the leader never mistakes them for voters.
	p.leaderSynced = false
	p.nextSyncAsk = time.Now().Add(p.syncAskInterval())
	// Shed the un-ACKed tail past the gap, but KEEP the ACKed prefix:
	// the leader may have already committed against those ACKs, and if
	// it dies before the sync answer arrives this buffer is the only
	// surviving copy a truthful election vote can offer.
	p.trimInflight(p.ackFrontier())
	kind := KindFollowerInfo
	if role == RoleObserving {
		kind = KindObserverInfo
	}
	_ = p.cfg.Transport.Send(p.followTarget, Message{Kind: kind, Zxid: p.lastCommitted()})
}

// handleAck advances a follower's cumulative frontier: an ACK for zxid
// Z asserts the follower holds every proposal up to Z, so batches are
// acknowledged as units. The frontier is clamped to the highest zxid
// this leader proposed — an ACK can vouch only for proposals that
// exist, never in advance for ones a later submission creates.
func (p *Peer) handleAck(msg Message) {
	if p.Role() != RoleLeading || !p.isVoter(msg.From) {
		// The voter check is defense in depth: observers never send ACKs,
		// but a non-voter's ACK entering the tally would forge quorum.
		return
	}
	p.lastHeard[msg.From] = time.Now()
	if z := min(msg.Zxid, p.lastZxid); z > p.acked[msg.From] {
		p.acked[msg.From] = z
		p.advanceCommits()
	}
}

// quorumAcked reports whether the leader plus the CURRENT voters whose
// frontier reached zxid form a quorum. Evaluated per proposal: a
// reconfig delivered in the middle of a commit run changes both the
// voter set and the quorum size for the proposal after it, and a
// frontier left by a voter the reconfig removed no longer counts.
func (p *Peer) quorumAcked(zxid int64) bool {
	n := 1 // the leader holds everything it proposed
	for id, z := range p.acked {
		if z >= zxid && id != p.cfg.ID && p.isVoter(id) {
			n++
		}
	}
	return n >= p.quorum()
}

// advanceCommits commits outstanding proposals strictly in zxid order as
// soon as the head of the queue reaches quorum, then notifies followers
// with a single cumulative COMMIT frame for the whole run (the next
// PROPOSE frame piggybacks the same bound).
func (p *Peer) advanceCommits() {
	if len(p.outstanding) == 0 || !p.quorumAcked(p.outstanding[0].rec.Txn.Zxid) {
		return
	}
	p.obsRun = p.obsRun[:0]
	// Snapshot the observer targets BEFORE delivering: a reconfig txn in
	// this very run may promote or remove an observer (applyReconfig
	// drops it from obsSynced mid-loop), and that observer must still
	// receive the run containing its own membership change — it is how a
	// promoted joiner learns to start following and a removed observer
	// learns to park.
	p.obsTargets = p.obsTargets[:0]
	for id := range p.obsSynced {
		p.obsTargets = append(p.obsTargets, id)
	}
	// Same pre-delivery snapshot for the voter commit fan-out: a remove
	// txn in this run prunes its target from p.synced mid-loop, yet that
	// follower must still receive the commit bound covering its own
	// removal — delivering it is how the follower parks itself.
	p.commitTargets = p.commitTargets[:0]
	for id := range p.synced {
		if id != p.cfg.ID {
			p.commitTargets = append(p.commitTargets, id)
		}
	}
	n := 0
	for n < len(p.outstanding) && p.quorumAcked(p.outstanding[n].rec.Txn.Zxid) {
		prop := p.outstanding[n]
		n++
		p.proposeToAck.Observe(obs.Now() - prop.proposedNs)
		p.deliver(Committed{Txn: prop.rec.Txn, Origin: prop.rec.Origin})
		if len(p.obsTargets) > 0 {
			p.obsRun = append(p.obsRun, prop.rec)
		}
	}
	// Compact in place: the slice keeps its backing array and stops
	// referencing the committed records. (A delivered reconfig that
	// parks this peer drops the slice; then there is nothing to compact.)
	if n <= len(p.outstanding) {
		rest := copy(p.outstanding, p.outstanding[n:])
		clear(p.outstanding[rest:])
		p.outstanding = p.outstanding[:rest]
	}
	p.outDepth.Store(int32(len(p.outstanding)))
	bound := p.lastCommitted()
	SendToMany(p.cfg.Transport, p.commitTargets, Message{Kind: KindCommit, Zxid: bound})
	if len(p.obsRun) > 0 {
		p.streamToObservers(bound)
	}
}

// streamToObservers ships one run's committed records to every observer
// synced at the start of the run: encode-once fan-out, chunked at the
// frame cap, no ACK ever expected — the write path never waits on an
// observer.
func (p *Peer) streamToObservers(bound int64) {
	targets := p.obsTargets
	if len(targets) == 0 {
		return
	}
	frames := int64(0)
	for start := 0; start < len(p.obsRun); start += maxBatchRecords {
		end := start + maxBatchRecords
		if end > len(p.obsRun) {
			end = len(p.obsRun)
		}
		batch := make([]ProposalRecord, end-start)
		copy(batch, p.obsRun[start:end])
		SendToMany(p.cfg.Transport, targets, Message{Kind: KindObserverCommit, Epoch: p.epoch, Zxid: bound, Batch: batch})
		frames += int64(len(targets))
	}
	p.statsMu.Lock()
	p.stats.ObserverFrames += frames
	p.statsMu.Unlock()
}

func (p *Peer) handleCommit(msg Message) {
	if p.Role() != RoleFollowing || msg.From != p.followTarget {
		return
	}
	p.lastHeard[msg.From] = time.Now()
	p.commitUpTo(msg.Zxid)
}

// handleObserverCommit applies a leader-streamed run of already-committed
// records: buffer them like proposals, then commit to the bound. No ACK is
// sent — observers are invisible to quorum accounting. A hole (shed frame)
// falls through commitUpTo's resync, which re-announces via OBSERVERINFO.
func (p *Peer) handleObserverCommit(msg Message) {
	if p.Role() != RoleObserving || msg.From != p.followTarget || len(msg.Batch) == 0 {
		return
	}
	p.lastHeard[msg.From] = time.Now()
	if msg.Epoch > p.epoch {
		// The stream carries only records committed during the sending
		// leader's reign, so adopting its epoch keeps the successor walk
		// in commitUpTo correct across the boundary.
		p.epoch = msg.Epoch
	}
	committed := p.lastCommitted()
	var prev int64
	for i := range msg.Batch {
		rec := &msg.Batch[i]
		zxid := rec.Txn.Zxid
		if i > 0 && zxid <= prev {
			break // malformed frame: ignore the out-of-order tail
		}
		prev = zxid
		if zxid <= committed {
			continue // duplicate of an already-committed record
		}
		p.inflight[zxid] = *rec
		if zxid > p.lastZxid {
			p.lastZxid = zxid
		}
	}
	p.statsMu.Lock()
	p.stats.ObserverFrames++
	p.statsMu.Unlock()
	p.commitUpTo(msg.Zxid)
}

// commitUpTo applies in-flight proposals with zxid <= bound, strictly in
// zxid order by walking the successor chain from the last commit — O(1)
// per record where a lowest-of-map scan would make committing a full
// batch quadratic. A hole below the bound means we missed a proposal
// (shed mailbox, transient partition) and must recover from the leader.
func (p *Peer) commitUpTo(bound int64) {
	// Every bound that reaches here is the leader's announced committed
	// frontier; remember the highest for commit-lag reporting even when
	// we cannot apply up to it yet.
	if bound > p.leaderBound.Load() {
		p.leaderBound.Store(bound)
	}
	for p.lastCommitted() < bound {
		rec, ok := p.nextInflightCommit()
		if !ok {
			// The leader committed past us but the successor is not
			// buffered: we missed proposals.
			p.resync()
			return
		}
		if rec.Txn.Zxid > bound {
			return // buffered, but the leader has not committed it yet
		}
		delete(p.inflight, rec.Txn.Zxid)
		p.deliver(Committed{Txn: rec.Txn, Origin: rec.Origin})
	}
}

// nextInflightCommit returns the buffered proposal that immediately
// succeeds the last commit: next counter within the same epoch, or the
// first proposal (counter 1) of the current epoch after a boundary.
func (p *Peer) nextInflightCommit() (ProposalRecord, bool) {
	last := p.lastCommitted()
	if rec, ok := p.inflight[MakeZxid(EpochOf(last), CounterOf(last)+1)]; ok {
		return rec, true
	}
	if EpochOf(last) < p.epoch {
		if rec, ok := p.inflight[MakeZxid(p.epoch, 1)]; ok {
			return rec, true
		}
	}
	return ProposalRecord{}, false
}

// deliver applies a committed transaction and records it in the log.
// Reconfig transactions additionally mutate the membership HERE — in
// commit order, on every member — which is what makes the quorum-size
// switch atomic at the reconfig txn's zxid.
func (p *Peer) deliver(c Committed) {
	atomic.StoreInt64(&p.lastCommit, c.Txn.Zxid)
	if c.Txn.Zxid > p.lastZxid {
		p.lastZxid = c.Txn.Zxid
	}
	p.log.append(ProposalRecord{Txn: c.Txn, Origin: c.Origin})
	p.statsMu.Lock()
	p.stats.Commits++
	p.statsMu.Unlock()
	if c.Txn.Type == ztree.TxnReconfig {
		p.applyReconfig(c.Txn.Zxid, c.Txn.Data)
	}
	p.cfg.Deliver(c)
}

// --- heartbeats & timeouts ---

func (p *Peer) tick(now time.Time) {
	for id, due := range p.transportRemovals {
		if now.After(due) {
			delete(p.transportRemovals, id)
			if p.updater != nil && !p.isMember(id) {
				p.updater.RemovePeer(id)
			}
		}
	}
	switch p.Role() {
	case RoleRemoved:
		// Out of the ensemble: no heartbeats, no elections, nothing.
		return
	case RoleLeading:
		p.flushProposals() // defensive: no batch should survive a loop iteration
		SendToMany(p.cfg.Transport, p.allOtherPeers(), Message{Kind: KindPing, Epoch: p.epoch, Zxid: p.lastCommitted()})
		// Abdicate if a quorum has gone silent. Observers never count:
		// an ensemble of live observers with no voter quorum is not a
		// functioning ensemble.
		alive := 1
		for id, t := range p.lastHeard {
			if id == p.cfg.ID || !p.isVoter(id) {
				continue
			}
			if now.Sub(t) < p.cfg.ElectionTimeout {
				alive++
			}
		}
		if alive < p.quorum() {
			p.startElection()
		}
	case RoleFollowing:
		if now.Sub(p.lastHeard[p.followTarget]) > p.cfg.ElectionTimeout {
			p.startElection()
			return
		}
		if !p.leaderSynced && now.After(p.nextSyncAsk) {
			// The initial FOLLOWERINFO raced the leader's activation (or
			// was shed); keep asking — paced, so a slow in-flight
			// snapshot transfer is not answered with more snapshots —
			// until the leader syncs us. Advertise the committed
			// frontier (see becomeFollower).
			p.nextSyncAsk = now.Add(p.syncAskInterval())
			_ = p.cfg.Transport.Send(p.followTarget, Message{Kind: KindFollowerInfo, Zxid: p.lastCommitted()})
		}
	case RoleLooking:
		if !p.finalizeDue.IsZero() && now.After(p.finalizeDue) {
			p.finalizeDue = time.Time{}
			if candidate, _, ok := p.tallyQuorum(); ok {
				p.finalizeElection(candidate)
				return
			}
		}
		if now.After(p.electionDue) {
			p.startElection()
		}
	case RoleObserving:
		if p.followTarget < 0 {
			return // waiting for a leader ping to adopt
		}
		if now.Sub(p.lastHeard[p.followTarget]) > p.cfg.ElectionTimeout {
			// Leader gone: never start an election — detach and wait
			// for the voters' next leader to ping us.
			p.startObserving()
			return
		}
		if !p.leaderSynced && now.After(p.nextSyncAsk) {
			// Same pacing rationale as the follower case above, but the
			// non-voting announce kind.
			p.nextSyncAsk = now.Add(p.syncAskInterval())
			_ = p.cfg.Transport.Send(p.followTarget, Message{Kind: KindObserverInfo, Zxid: p.lastCommitted()})
		}
	}
}

func (p *Peer) handlePing(msg Message) {
	switch p.Role() {
	case RoleFollowing:
		if msg.From == p.followTarget {
			p.lastHeard[msg.From] = time.Now()
			p.commitUpTo(msg.Zxid)
			_ = p.cfg.Transport.Send(msg.From, Message{Kind: KindPong, Zxid: p.lastCommitted()})
		}
	case RoleLooking:
		// A leader exists; join it — unless the sender is not a voter we
		// recognize (a removed replica restarted from stale state could
		// otherwise drag us into following a ghost).
		if p.isVoter(msg.From) {
			p.becomeFollower(msg.From)
		}
	case RoleObserving:
		if !p.isVoter(msg.From) {
			return // only voters can lead
		}
		if msg.From == p.followTarget {
			p.lastHeard[msg.From] = time.Now()
			p.commitUpTo(msg.Zxid)
			_ = p.cfg.Transport.Send(msg.From, Message{Kind: KindPong, Zxid: p.lastCommitted()})
			return
		}
		// A leader we are not attached to: adopt it if we have none, or
		// if it is at least as recent as the one we lost track of.
		if p.followTarget < 0 || msg.Epoch >= p.epoch {
			p.adoptLeader(msg.From)
		}
	}
}

func (p *Peer) handlePong(msg Message) {
	if p.Role() == RoleLeading {
		p.lastHeard[msg.From] = time.Now()
	}
}

// --- dispatch ---

func (p *Peer) handle(msg Message) {
	switch msg.Kind {
	case KindVote:
		p.handleVote(msg)
	case KindFollowerInfo:
		p.handleFollowerInfo(msg)
	case KindSyncSnap, KindSyncDiff:
		p.handleSync(msg)
	case KindNewLeaderAck:
		p.handleNewLeaderAck(msg)
	case KindProposeBatch:
		p.handleProposeBatch(msg)
	case KindAck:
		p.handleAck(msg)
	case KindCommit:
		p.handleCommit(msg)
	case KindPing:
		p.handlePing(msg)
	case KindPong:
		p.handlePong(msg)
	case KindApp:
		if p.cfg.OnApp != nil {
			p.cfg.OnApp(msg.From, msg.App)
		}
	case KindObserverInfo:
		p.handleObserverInfo(msg)
	case KindObserverCommit:
		p.handleObserverCommit(msg)
	case KindRemoved:
		p.handleRemoved(msg)
	}
}

// --- dynamic membership ---

// logf forwards to the configured logger, if any.
func (p *Peer) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Membership returns sorted copies of the current voter and observer
// sets. Safe from any goroutine.
func (p *Peer) Membership() (voters, observers []PeerID) {
	p.memberMu.RLock()
	defer p.memberMu.RUnlock()
	voters = make([]PeerID, 0, len(p.mVoters))
	for id := range p.mVoters {
		voters = append(voters, id)
	}
	observers = make([]PeerID, 0, len(p.mObservers))
	for id := range p.mObservers {
		observers = append(observers, id)
	}
	sort.Slice(voters, func(i, j int) bool { return voters[i] < voters[j] })
	sort.Slice(observers, func(i, j int) bool { return observers[i] < observers[j] })
	return voters, observers
}

// ValidateReconfig checks a membership change against the current
// membership and sync state. Called on the LEADER before it submits the
// reconfig txn; the checks mirror applyReconfig's no-op guards, so a
// change that validates here but races a conflicting commit degrades to
// a harmless no-op at delivery rather than a divergent membership.
func (p *Peer) ValidateReconfig(ch ReconfigChange) error {
	if ch.ID <= 0 {
		return fmt.Errorf("zab: bad reconfig peer id %d", ch.ID)
	}
	p.memberMu.RLock()
	defer p.memberMu.RUnlock()
	switch ch.Action {
	case ReconfigAdd:
		if p.mVoters[ch.ID] || p.mObservers[ch.ID] {
			return fmt.Errorf("zab: peer %d is already an ensemble member", ch.ID)
		}
	case ReconfigPromote:
		if p.mVoters[ch.ID] {
			return fmt.Errorf("zab: peer %d is already a voter", ch.ID)
		}
		if !p.mObservers[ch.ID] {
			return fmt.Errorf("zab: peer %d is not an ensemble member; reconfig add it first", ch.ID)
		}
		if !p.mObsSynced[ch.ID] {
			return fmt.Errorf("zab: observer %d has not completed its snapshot sync; an unsynced joiner may not count toward quorum", ch.ID)
		}
	case ReconfigRemove:
		if !p.mVoters[ch.ID] && !p.mObservers[ch.ID] {
			return fmt.Errorf("zab: peer %d is not an ensemble member", ch.ID)
		}
		if ch.ID == p.cfg.ID {
			return fmt.Errorf("zab: cannot remove the current leader (peer %d); move leadership first by stopping it", ch.ID)
		}
		if p.mVoters[ch.ID] && len(p.mVoters) <= 1 {
			return fmt.Errorf("zab: cannot remove the last voter")
		}
	default:
		return fmt.Errorf("zab: unknown reconfig action %d", ch.Action)
	}
	return nil
}

// publishMembership mirrors the loop-owned membership for off-loop
// readers.
func (p *Peer) publishMembership() {
	voters := make(map[PeerID]bool, len(p.voters))
	for id := range p.voters {
		voters[id] = true
	}
	observers := make(map[PeerID]bool, len(p.observers))
	for id := range p.observers {
		observers[id] = true
	}
	p.memberMu.Lock()
	p.mVoters = voters
	p.mObservers = observers
	p.memberMu.Unlock()
}

// publishObsSynced mirrors the leader's synced-observer set (the
// promotion gate) for off-loop readers.
func (p *Peer) publishObsSynced() {
	synced := make(map[PeerID]bool, len(p.obsSynced))
	for id := range p.obsSynced {
		synced[id] = true
	}
	p.memberMu.Lock()
	p.mObsSynced = synced
	p.memberMu.Unlock()
}

// applyReconfig mutates the membership at a reconfig txn's delivery.
// Every guard is an idempotent no-op check: replicas replaying history
// (restart recovery, diff sync) re-apply the same changes harmlessly.
func (p *Peer) applyReconfig(zxid int64, data []byte) {
	ch, err := DecodeReconfigChange(data)
	if err != nil {
		p.logf("zab: peer %d: ignoring malformed reconfig txn at zxid %#x: %v", p.cfg.ID, zxid, err)
		return
	}
	switch ch.Action {
	case ReconfigAdd:
		if p.isMember(ch.ID) {
			return
		}
		p.observers[ch.ID] = struct{}{}
		if ch.Addr != "" {
			p.addrs[ch.ID] = ch.Addr
		}
		if p.updater != nil {
			// Self included: the transport must learn our own role so
			// future handshakes advertise it correctly.
			p.updater.AddPeer(ch.ID, ch.Addr, true)
		}
		p.logf("zab: peer %d: reconfig@%#x added %d (%s) as observer; voters=%d observers=%d",
			p.cfg.ID, zxid, ch.ID, ch.Addr, len(p.voters), len(p.observers))
	case ReconfigPromote:
		if !p.isObserverMember(ch.ID) {
			return
		}
		delete(p.observers, ch.ID)
		p.voters[ch.ID] = struct{}{}
		if p.Role() == RoleLeading {
			delete(p.obsSynced, ch.ID)
			p.publishObsSynced()
			// The promoted voter re-handshakes via FOLLOWERINFO; seed
			// its liveness so the abdication check gives it time to.
			p.lastHeard[ch.ID] = time.Now()
		}
		if p.updater != nil {
			p.updater.AddPeer(ch.ID, ch.Addr, false)
		}
		p.logf("zab: peer %d: reconfig@%#x promoted %d to voter; quorum is now %d of %d",
			p.cfg.ID, zxid, ch.ID, p.quorum(), len(p.voters))
		if ch.ID == p.cfg.ID && p.isObserver {
			p.isObserver = false
			// Enter the voter handshake with the leader that promoted
			// us; with no known leader, campaign like any voter.
			if p.followTarget >= 0 {
				p.becomeFollower(p.followTarget)
			} else {
				p.startElection()
			}
		}
	case ReconfigRemove:
		if !p.isMember(ch.ID) {
			return
		}
		delete(p.voters, ch.ID)
		delete(p.observers, ch.ID)
		delete(p.addrs, ch.ID)
		delete(p.synced, ch.ID)
		delete(p.lastHeard, ch.ID)
		delete(p.votes, ch.ID)
		delete(p.acked, ch.ID)
		if _, ok := p.obsSynced[ch.ID]; ok {
			delete(p.obsSynced, ch.ID)
			p.publishObsSynced()
		}
		if p.updater != nil && ch.ID != p.cfg.ID {
			if p.Role() == RoleLeading {
				// Defer the link teardown: the commit covering this very
				// removal still has to flush to the removed peer so it can
				// park itself (tick performs the teardown after the grace).
				p.transportRemovals[ch.ID] = time.Now().Add(p.cfg.ElectionTimeout)
			} else {
				p.updater.RemovePeer(ch.ID)
			}
		}
		p.logf("zab: peer %d: reconfig@%#x removed %d; quorum is now %d of %d",
			p.cfg.ID, zxid, ch.ID, p.quorum(), len(p.voters))
		if ch.ID == p.cfg.ID {
			p.becomeRemoved(fmt.Sprintf("reconfig txn %#x removed this id", zxid))
		}
	}
	p.publishMembership()
}

// adoptMembership replaces the membership with a leader-sent snapshot
// (piggybacked on sync answers), reconciling the transport's peer map
// with the delta.
func (p *Peer) adoptMembership(data []byte) {
	members, err := decodeMembership(data)
	if err != nil {
		p.logf("zab: peer %d: ignoring malformed membership snapshot: %v", p.cfg.ID, err)
		return
	}
	voters := make(map[PeerID]struct{}, len(members))
	observers := make(map[PeerID]struct{})
	addrs := make(map[PeerID]string)
	selfVoter, selfObserver := false, false
	for _, m := range members {
		if m.Observer {
			observers[m.ID] = struct{}{}
		} else {
			voters[m.ID] = struct{}{}
		}
		if m.Addr != "" {
			addrs[m.ID] = m.Addr
		}
		if m.ID == p.cfg.ID {
			selfVoter, selfObserver = !m.Observer, m.Observer
		}
	}
	if p.updater != nil {
		for _, m := range members {
			_, wasVoter := p.voters[m.ID]
			_, wasObs := p.observers[m.ID]
			// Self included on role changes: the transport must learn our
			// own role so future handshakes advertise it correctly.
			if !wasVoter && !wasObs || wasObs != m.Observer {
				p.updater.AddPeer(m.ID, m.Addr, m.Observer)
			}
		}
		for id := range p.voters {
			if id == p.cfg.ID {
				continue
			}
			if _, ok := voters[id]; !ok {
				if _, ok := observers[id]; !ok {
					p.updater.RemovePeer(id)
				}
			}
		}
		for id := range p.observers {
			if id == p.cfg.ID {
				continue
			}
			if _, ok := voters[id]; !ok {
				if _, ok := observers[id]; !ok {
					p.updater.RemovePeer(id)
				}
			}
		}
	}
	p.voters = voters
	p.observers = observers
	p.addrs = addrs
	p.publishMembership()
	switch {
	case selfVoter && p.isObserver:
		// Promoted while we were syncing; the caller (handleSync) is
		// about to complete a FOLLOWERINFO-equivalent handshake anyway.
		p.isObserver = false
	case selfObserver:
		p.isObserver = true
	case !selfVoter && !selfObserver:
		p.becomeRemoved("leader's membership snapshot no longer lists this id")
	}
}

// becomeRemoved parks the peer permanently: a removed replica must not
// campaign, vote, ack, or heartbeat — its former peers no longer count
// it, so any participation is at best noise and at worst a ghost quorum.
func (p *Peer) becomeRemoved(why string) {
	if p.Role() == RoleRemoved {
		return
	}
	p.logf("zab: peer %d REMOVED FROM ENSEMBLE (%s): parking — no elections, no votes; writes will be refused until restarted under a membership that includes this id",
		p.cfg.ID, why)
	p.batch = nil
	p.outstanding = nil
	p.outDepth.Store(0)
	p.inflight = make(map[int64]ProposalRecord)
	p.leaderSynced = false
	p.followTarget = -1
	p.finalizeDue = time.Time{}
	p.setRole(RoleRemoved, -1)
}

// handleRemoved processes the leader's you-were-removed notice.
func (p *Peer) handleRemoved(msg Message) {
	if p.Role() == RoleLeading || p.Role() == RoleRemoved {
		return
	}
	// Only trust the notice from a peer we still believe is a voter: our
	// own membership may be stale, but a sender we never heard of could
	// be the stale one.
	if !p.isVoter(msg.From) {
		return
	}
	p.becomeRemoved(fmt.Sprintf("peer %d reports this id is no longer a member", msg.From))
}
