package zab

import (
	"sync/atomic"

	"securekeeper/internal/obs"
)

// core is one replica's protocol state machine: election (election.go),
// recovery (sync.go), broadcast (broadcast.go) and membership
// (membership.go). It owns no goroutine, channel, lock or clock. Time
// is the now argument (monotonic ns, 0 never occurs) of its five entry
// points — start, handle, propose, flush, tick — and the world is the
// env it was built with, called in program order. Whoever calls the
// entry points, one at a time, is its driver: Peer for production, the
// simulator in sim_test.go for everything a seed can replay.
type core struct {
	env    env
	id     PeerID
	tickNs int64 // Config.TickInterval
	electN int64 // Config.ElectionTimeout

	// Read from any goroutine (Role, Leader, LastCommitted, the stats
	// API) and by Deliver/Restore callees in the middle of a step, so
	// they are written where they change rather than published after.
	role        atomic.Int32
	leader      atomic.Int64
	lastCommit  atomic.Int64 // highest zxid delivered; what votes and FOLLOWERINFO claim
	leaderBound atomic.Int64 // highest committed bound the leader announced to us
	outDepth    atomic.Int32 // len(outstanding)
	stats       counters
	view        atomic.Pointer[memberView]

	// Everything below belongs to the driver's goroutine.
	members    []member // every ensemble member, sorted by id (membership.go)
	isObserver bool     // this peer itself is a non-voting member
	leaving    bool     // leads only to hand on its own removal; see applyReconfig

	round  int64
	myVote vote
	// epoch is the latest epoch this peer accepted — led, or synced with
	// the leader of — and acceptedFrom that leader (-1: not known, after
	// a restart). An epoch has one leader: see accepts.
	epoch        int64
	acceptedFrom PeerID
	counter      int64
	lastZxid     int64 // highest zxid seen (proposed or applied); NOT what votes advertise

	outstanding []outstandingProposal    // leader: accepted, not yet committed, ascending
	batch       []ProposalRecord         // leader: submissions awaiting one PROPOSE frame
	inflight    map[int64]ProposalRecord // follower: proposals awaiting commit
	log         commitLog                // committed history for diff syncs

	electionDue int64
	finalizeDue int64 // grace deadline for a quorum-but-not-unanimous tally
	// followTarget is the leader this peer follows or observes (-1:
	// none) and heard when it last spoke. leaderSynced records whether
	// it has answered our FOLLOWERINFO with a sync. Until it does, the
	// tick re-sends the FOLLOWERINFO: the first one races the leader's
	// own activation (it ignores FOLLOWERINFO while still LOOKING), and
	// without a retry the leader would never assemble a synced quorum —
	// a permanently wedged ensemble the multi-process failover harness
	// exposed. nextSyncAsk paces those retries.
	followTarget PeerID
	heard        int64
	leaderSynced bool
	joined       bool // synced at least once since it last attached to followTarget
	pinged       bool // pinged at least once since then
	nextSyncAsk  int64

	// Fan-out lists, rebuilt from the member table before every use.
	// commitTo and streamTo are taken at the start of an advanceCommits
	// run: a reconfig delivered inside the run may drop the follower or
	// observer it is about, and that peer must still receive the run
	// that carries its own membership change — it is how a removed
	// follower parks and a promoted observer starts following.
	scratch, commitTo, streamTo []PeerID
	obsRun                      []ProposalRecord // one run's records for the observer stream

	proposeToAck *obs.Histogram // nil (a no-op) without a registry
}

// env is the core's whole contact with the world: what Config injects,
// and nothing else. The transport is reached through its two methods
// only, so a driver that fakes the Config's functions and Transport
// fakes everything the core can do.
type env struct {
	Config
	updater MembershipUpdater // the transport's runtime-membership hook, if it has one
}

func (e *env) send(to PeerID, msg Message) { _ = e.Transport.Send(to, msg) }

func (e *env) sendMany(to []PeerID, msg Message) { SendToMany(e.Transport, to, msg) }

func (e *env) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// counters is Stats with each field written by the driver's goroutine
// and read from any.
type counters struct {
	elections, proposals, commits, resyncs, proposeFrames, observerFrames atomic.Int64
}

func newCore(cfg Config) *core {
	cfg = cfg.withDefaults()
	c := &core{
		env:          env{Config: cfg},
		id:           cfg.ID,
		tickNs:       int64(cfg.TickInterval),
		electN:       int64(cfg.ElectionTimeout),
		inflight:     make(map[int64]ProposalRecord),
		log:          commitLog{recs: make([]ProposalRecord, cfg.MaxLogEntries), base: cfg.LastZxid},
		lastZxid:     cfg.LastZxid,
		epoch:        EpochOf(cfg.LastZxid),
		acceptedFrom: -1,
		followTarget: -1,
	}
	c.env.updater, _ = cfg.Transport.(MembershipUpdater)
	for _, id := range cfg.Peers {
		c.addMember(id, "", true)
	}
	for _, id := range cfg.Observers {
		c.addMember(id, "", false)
		c.isObserver = c.isObserver || id == cfg.ID
	}
	c.publish()
	c.role.Store(int32(RoleLooking))
	c.leader.Store(-1)
	c.lastCommit.Store(cfg.LastZxid)
	if cfg.Obs != nil {
		c.proposeToAck = cfg.Obs.Histogram("zab_propose_to_ack_seconds", "", "leader accept to quorum ack, per proposal")
	}
	return c
}

// Role returns the peer's current role.
func (c *core) Role() Role { return Role(c.role.Load()) }

// Leader returns the current known leader, or -1 if none.
func (c *core) Leader() PeerID { return PeerID(c.leader.Load()) }

// ID returns this peer's identity.
func (c *core) ID() PeerID { return c.id }

// LastCommitted returns the highest delivered zxid.
func (c *core) LastCommitted() int64 { return c.lastCommit.Load() }

// OutstandingDepth returns the number of proposals awaiting quorum on
// this peer. Non-zero only while leading; exposed for the stats API.
func (c *core) OutstandingDepth() int { return int(c.outDepth.Load()) }

// LeaderCommitted returns the highest committed bound this peer knows
// the leader reached: its own frontier while leading, otherwise the
// latest bound announced over COMMIT/PROPOSE/PING/OBSERVERCOMMIT
// frames. LeaderCommitted() - LastCommitted() is this peer's commit
// lag, never negative.
func (c *core) LeaderCommitted() int64 {
	return max(c.leaderBound.Load(), c.LastCommitted())
}

// StatsSnapshot returns a copy of the protocol counters.
func (c *core) StatsSnapshot() Stats {
	s := &c.stats
	return Stats{
		Elections:      s.elections.Load(),
		Proposals:      s.proposals.Load(),
		Commits:        s.commits.Load(),
		Resyncs:        s.resyncs.Load(),
		ProposeFrames:  s.proposeFrames.Load(),
		ObserverFrames: s.observerFrames.Load(),
	}
}

func (c *core) setRole(role Role, leader PeerID) {
	prevRole := Role(c.role.Swap(int32(role)))
	prevLeader := PeerID(c.leader.Swap(int64(leader)))
	if c.env.OnRoleChange != nil && (prevRole != role || prevLeader != leader) {
		c.env.OnRoleChange(role, leader)
	}
}

// start enters the protocol: an observer waits for a leader's ping, a
// voter campaigns.
func (c *core) start(now int64) {
	if c.isObserver {
		c.startObserving()
	} else {
		c.startElection(now)
	}
}

// handle processes one inbound message.
func (c *core) handle(now int64, msg Message) {
	switch msg.Kind {
	case KindVote:
		c.handleVote(now, msg)
	case KindFollowerInfo, KindObserverInfo:
		c.handleInfo(now, msg)
	case KindSyncSnap, KindSyncDiff:
		c.handleSync(now, msg)
	case KindNewLeaderAck:
		c.handleNewLeaderAck(now, msg)
	case KindProposeBatch:
		c.handleProposeBatch(now, msg)
	case KindAck:
		c.handleAck(now, msg)
	case KindCommit:
		c.handleCommit(now, msg)
	case KindPing:
		c.handlePing(now, msg)
	case KindPong:
		if m := c.member(msg.From); m != nil && c.Role() == RoleLeading {
			m.lastHeard = now
			if !m.synced && !m.obsSynced && msg.Epoch == c.epoch && msg.Zxid == c.LastCommitted() {
				// It has synced with us this term and stands exactly where
				// we do, yet we do not count it: its NEWLEADERACK was lost,
				// and it will not send another — with nothing committing,
				// nothing tells it.
				c.handleNewLeaderAck(now, msg)
			}
		}
	case KindApp:
		if c.env.OnApp != nil {
			c.env.OnApp(msg.From, msg.App)
		}
	case KindObserverCommit:
		c.handleObserverCommit(now, msg)
	case KindRemoved:
		c.handleRemoved(msg)
	}
}

// tick is the heartbeat: it sends what is periodic and judges silence.
func (c *core) tick(now int64) {
	c.reapRemoved(now)
	switch c.Role() {
	case RoleLeading:
		c.flushProposals() // defensive: no batch should survive a driver wake-up
		c.env.sendMany(c.others((*member).isMember), Message{Kind: KindPing, Epoch: c.epoch, Zxid: c.LastCommitted()})
		// Abdicate if a quorum has gone silent. Observers never count:
		// an ensemble of live observers with no voter quorum is not a
		// functioning ensemble. Nor does the leader, once it is no voter
		// of its own table (leaving): its followers alone must be a
		// quorum, or it would lead on for good with too few to commit.
		voters, alive := 0, 0
		for i := range c.members {
			m := &c.members[i]
			if !m.voter {
				continue
			}
			voters++
			if m.id == c.id || m.lastHeard != 0 && now-m.lastHeard < c.electN {
				alive++
			}
		}
		if alive < voters/2+1 {
			c.startElection(now)
		}
	case RoleLooking:
		if c.finalizeDue != 0 && now > c.finalizeDue {
			c.finalizeDue = 0
			if candidate, _, ok := c.tallyQuorum(); ok {
				c.finalizeElection(now, candidate)
				return
			}
		}
		if now > c.electionDue {
			c.startElection(now)
			return
		}
		// A vote is otherwise sent once per adoption, and a link that
		// comes up after that broadcast (the TCP mesh dials while the
		// peers already campaign) would cost the whole election timeout.
		// Re-sending is idempotent at the receiver: same round, same
		// vote, nothing to adopt; a leader answers with itself.
		c.broadcastVote()
	case RoleFollowing, RoleObserving:
		if c.followTarget < 0 {
			return // an observer waiting for a leader's ping to adopt
		}
		if now-c.heard > c.electN {
			// Leader gone. A voter campaigns; an observer NEVER elects —
			// it detaches and waits for the voters' next leader to ping it.
			c.start(now)
			return
		}
		if !c.leaderSynced && now > c.nextSyncAsk {
			// The initial announce raced the leader's activation (or was
			// shed); keep asking — paced, so a slow in-flight snapshot
			// transfer is not answered with more snapshots — until the
			// leader syncs us.
			c.askSync(now)
		}
	}
}

func (c *core) handlePing(now int64, msg Message) {
	switch role := c.Role(); {
	case role != RoleLooking && role != RoleFollowing && role != RoleObserving:
	case msg.From == c.followTarget && role != RoleLooking && !(c.leaderSynced && msg.Epoch > c.epoch):
		if !c.leaderSynced && !c.pinged {
			// The first ping since we attached, and no sync yet: our
			// announce reached the winner while it still sat out its own
			// finalize wait, LOOKING, and was lost on it. It leads now;
			// ask again at once instead of at the next paced retry.
			c.askSync(now)
		}
		c.heard, c.pinged = now, true
		c.commitUpTo(now, msg.Zxid)
		pong := Message{Kind: KindPong, Zxid: c.LastCommitted()}
		if c.leaderSynced {
			pong.Epoch = c.epoch // the term we are synced in; see the leader's side
		}
		c.env.send(msg.From, pong)
	case msg.From == c.followTarget && role != RoleLooking:
		// Our leader, in a term we have not synced with: it restarted
		// and won again before we missed a single ping. Its new term
		// counts no one as synced, so without a fresh handshake it would
		// never activate.
		c.follow(now, msg.From)
	case role != RoleLooking && c.leaderSynced && msg.Epoch <= c.epoch:
		// Attached to a leader that has synced us: another one, of no
		// later term, does not lure us away.
	case c.accepts(msg.From, msg.Epoch) && (c.isMember(msg.From) || msg.Epoch > c.epoch):
		// A leader exists, and this peer is looking for one — or follows
		// what turned out not to be one (it finalized a tally that its
		// candidate then left for this leader), or one a later term has
		// deposed: join it. It need not be a voter we know of — an
		// observer promoted while we were away leads as one, and an
		// observer has no election to learn that from — nor even a
		// member, if it leads an epoch later than any we have heard of:
		// it was admitted while we were away. Any other stranger is
		// refused: a removed replica restarted from stale state must not
		// drag us into following a ghost.
		c.follow(now, msg.From)
	case c.isMember(msg.From):
		c.contest(now, msg.Epoch)
	}
}

// contest answers a leader this peer cannot accept (see accepts): it can
// never sync with it, and waiting changes nothing. If the leader claims
// the very epoch this peer has from another (or led itself), the peer
// declares that epoch spent — accepting the next from no one — and
// campaigns: its votes now show an epoch above the leader's, which
// makes the leader stand for a new term above both (see handleVote).
func (c *core) contest(now, epoch int64) {
	if epoch == c.epoch {
		c.epoch, c.acceptedFrom = c.epoch+1, -1
	}
	if c.Role() != RoleLooking {
		c.start(now)
	}
}

// accepts reports whether leader's claim to lead epoch fits what this
// peer has accepted: a later epoch, or the one it is in from the leader
// it has it from. A leader takes the epoch after the highest its voters
// know of, so two leaders can claim one epoch only if neither's voters
// had heard of the other; whoever syncs with one of them must then
// refuse the other, or both could gather a synced quorum and commit
// different transactions under one zxid.
func (c *core) accepts(leader PeerID, epoch int64) bool {
	return epoch > c.epoch || epoch == c.epoch && (c.acceptedFrom == leader || c.acceptedFrom < 0) ||
		c.isObserver // counted in no quorum; whoever it attaches to syncs it from scratch
}
