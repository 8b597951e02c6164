package zab

type vote struct {
	round int64
	for_  PeerID
	zxid  int64
	// seen is the highest epoch the voter had accepted when it sent the
	// vote (in the message header's zxid field, which votes leave
	// free): a leader it synced with may have proposed nothing yet, and
	// then no zxid shows that its epoch is taken.
	seen int64
}

func betterVote(a, b vote) bool { // is a better than b
	if a.zxid != b.zxid {
		return a.zxid > b.zxid
	}
	return a.for_ > b.for_
}

func (c *core) startElection(now int64) {
	if c.isObserver {
		// Defensive: no code path should route an observer here, but if
		// one ever does, detaching beats campaigning.
		c.startObserving()
		return
	}
	c.stats.elections.Add(1)
	if synced, quorum := c.syncedQuorum(); c.Role() == RoleLeading && synced < quorum {
		// It led an epoch in which no quorum ever synced with it, so it
		// proposed nothing in it and may serve under whoever else holds
		// it: it gives the epoch back. (Any peer that did sync with it
		// refuses that other leader and makes it stand again: contest.)
		c.epoch, c.acceptedFrom = max(c.epoch-1, EpochOf(c.LastCommitted())), -1
	}
	c.setRole(RoleLooking, -1)
	c.batch = nil // unsent proposals die with the leadership term
	c.outDepth.Store(0)
	c.finalizeDue = 0
	c.round++
	for i := range c.members {
		c.members[i].synced = false
	}
	// Votes advertise the ACKed frontier (ackFrontier): the committed
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
	c.adoptVote(vote{round: c.round, for_: c.id, zxid: c.ackFrontier()})
	c.electionDue = now + c.electN
	// A single-peer ensemble (or one whose own vote already forms a
	// quorum) decides immediately — no votes will arrive to trigger it.
	c.checkElection(now)
}

// adoptVote makes v this peer's vote (entering v.round, where votes of
// older rounds stop counting), records it in its own row and
// broadcasts it to every other member. An observer ignores votes, but a
// member this peer still lists as one may have been promoted while it
// was away, and then the election may need the vote to reach it.
func (c *core) adoptVote(v vote) {
	v.seen = c.epoch
	c.round, c.myVote = v.round, v
	if m := c.member(c.id); m != nil {
		m.vote = v
	}
	c.broadcastVote()
}

func (c *core) broadcastVote() {
	c.env.sendMany(c.others((*member).isMember), Message{
		Kind:     KindVote,
		Epoch:    c.myVote.round,
		Zxid:     c.epoch,
		VoteFor:  c.myVote.for_,
		VoteZxid: c.myVote.zxid,
	})
}

func (c *core) handleVote(now int64, msg Message) {
	// Observers are silent in elections, in both directions: an observer
	// never tallies or answers votes, and a vote claimed by a non-voting
	// peer (buggy or malicious) must never enter a voter's tally.
	from := c.member(msg.From)
	if c.isObserver {
		return
	}
	v := vote{round: msg.Epoch, for_: msg.VoteFor, zxid: msg.VoteZxid, seen: msg.Zxid}
	if c.Role() == RoleLeading && from != nil && from.isMember() &&
		(v.seen > c.epoch || v.zxid > c.LastCommitted() && EpochOf(v.zxid) < c.epoch) {
		// A member that will refuse our syncs for good. Either it has
		// accepted a later epoch than the one we lead (it was elected
		// into it and lost its voters before any synced; see accepts), or
		// it holds acknowledged proposals of an earlier epoch that we
		// never had (see handleSync). Only a new term gets it back: in an
		// epoch above both, under whoever holds the most. (It need not be
		// a voter: a leader that never gathered a quorum may have synced
		// it a promotion that never became history, and then it campaigns
		// where no one counts its votes.)
		c.startElection(now)
	}
	if from == nil || !from.voter {
		// A campaigner that is no member AT ALL was removed by a
		// committed reconfig it never saw (it was down, or restarted
		// from stale state). Left alone it campaigns forever against a
		// quorum that no longer counts it; the leader — whose membership
		// reflects every committed reconfig — tells it so.
		if c.Role() == RoleLeading && !c.isMember(msg.From) {
			c.env.send(msg.From, Message{Kind: KindRemoved})
		}
		return
	}
	switch role := c.Role(); {
	case role == RoleFollowing && msg.From == c.followTarget && !msg.VoteReply && v.round > c.round:
		// The leader we follow campaigns in a later round than the one
		// that elected it, so it leads no more: it abdicated. Campaign
		// with it, and handle its vote as one candidate's. (In the round
		// we finalized in, it is merely still sitting out its own
		// finalize wait, re-sending its vote on every tick.)
		c.startElection(now)
	case role == RoleLeading && !msg.VoteReply:
		// The leader answers a genuine vote broadcast with a reply naming
		// itself, echoing the asker's round so it counts in the asker's
		// tally (replies to replies would ping-pong forever). A follower
		// answers nothing: electing a leader is not evidence it is alive
		// — survivors of a dead leader naming it to each other re-elect
		// it in turns — nor that it still holds what it held when they
		// synced: a leader that restarted lost what it had not yet
		// delivered. The leader's word about itself is neither stale nor
		// second-hand, and its ping reaches the asker within a tick anyway.
		c.env.send(msg.From, Message{
			Kind:      KindVote,
			Epoch:     msg.Epoch,
			Zxid:      c.epoch,
			VoteFor:   c.id,
			VoteZxid:  c.LastCommitted(),
			VoteReply: true,
		})
		return
	case role != RoleLooking:
		return
	}
	if v.for_ == c.id && v.zxid > c.ackFrontier() {
		// A vote for this peer that promises more history than it holds
		// was cast for an earlier incarnation, which crashed with
		// proposals in memory. Counting it would elect this peer over
		// the voters that still hold them.
		return
	}
	switch {
	case v.round > c.round:
		// Join the newer round, adopting the better of the two votes.
		from.vote = v
		if mine := (vote{round: v.round, for_: c.id, zxid: c.ackFrontier()}); betterVote(mine, v) {
			c.adoptVote(mine)
		} else {
			c.adoptVote(v)
		}
	case v.round == c.round:
		if from.vote.round == v.round && betterVote(from.vote, v) {
			return // overtaken in flight: within a round a vote only ever improves
		}
		from.vote = v
		if betterVote(v, c.myVote) {
			c.adoptVote(v)
		}
	default:
		// Stale round: remind the sender of the current round (as a
		// reply, so a settled sender will not answer back).
		if !msg.VoteReply {
			c.env.send(msg.From, Message{
				Kind:      KindVote,
				Epoch:     c.myVote.round,
				Zxid:      c.epoch,
				VoteFor:   c.myVote.for_,
				VoteZxid:  c.myVote.zxid,
				VoteReply: true,
			})
		}
		return
	}
	c.checkElection(now)
}

func (c *core) checkElection(now int64) {
	candidate, n, ok := c.tallyQuorum()
	if !ok {
		return
	}
	if n == c.count((*member).isVoter) {
		// Unanimous: no tallied peer can still adopt a better vote
		// (every vote names the same best candidate), so finalize now.
		c.finalizeElection(now, candidate)
		return
	}
	// Quorum without unanimity: a tallied peer may adopt a better vote
	// after we counted it (it keeps electing while we settle), which
	// can build rings of followers with no leader. Hold the result for
	// a short grace period — ZooKeeper's election "finalize wait" — and
	// let the tick finalize whatever tally then stands.
	if c.finalizeDue == 0 {
		c.finalizeDue = now + 2*c.tickNs
	}
}

// votedFor returns the candidate a voter's vote names in this round.
func (c *core) votedFor(m *member) (PeerID, bool) {
	return m.vote.for_, m.voter && m.vote.round == c.round
}

// tallyQuorum returns the candidate holding a quorum of this round's
// votes, and how many.
func (c *core) tallyQuorum() (PeerID, int, bool) {
	quorum := c.quorum()
	for i := range c.members {
		candidate, ok := c.votedFor(&c.members[i])
		if !ok {
			continue
		}
		n := 0
		for j := range c.members {
			if who, ok := c.votedFor(&c.members[j]); ok && who == candidate {
				n++
			}
		}
		if n >= quorum {
			return candidate, n, true
		}
	}
	return 0, 0, false
}

func (c *core) finalizeElection(now int64, candidate PeerID) {
	c.finalizeDue = 0
	if candidate == c.id {
		c.becomeLeader(now)
	} else {
		c.follow(now, candidate)
	}
}

func (c *core) becomeLeader(now int64) {
	// Leader completion: commit the gapless ACKed prefix buffered while
	// following the previous leader. The vote advertised this frontier,
	// so winning the election promises these transactions. Any write
	// the old leader committed (and acked to its client) was ACKed by
	// a quorum; that quorum intersects the quorum that elected us, and
	// the intersecting voter only voted for a frontier at least as
	// high as its own — so ours covers the write, and committing the
	// prefix here is what turns that argument into a preserved write.
	c.applyUpTo(now, c.ackFrontier())
	c.inflight = make(map[int64]ProposalRecord)
	// The new epoch must exceed every epoch the voters know of: those of
	// their zxids and the one each last accepted. The rows are reset for
	// the term: a frontier vouches for one term's proposals, and
	// observers re-handshake with every new leader (their FOLLOWERINFO
	// answers our first ping); until then they get no stream.
	maxEpoch := max(EpochOf(c.lastZxid), c.epoch)
	for i := range c.members {
		m := &c.members[i]
		if _, ok := c.votedFor(m); ok {
			maxEpoch = max(maxEpoch, EpochOf(m.vote.zxid), m.vote.seen)
		}
		m.synced, m.obsSynced, m.acked, m.lastHeard = m.id == c.id, false, 0, now
	}
	c.publish()
	c.epoch, c.acceptedFrom = maxEpoch+1, c.id
	c.counter = 0
	c.lastZxid = MakeZxid(c.epoch, 0)
	c.outstanding = nil
	c.outDepth.Store(0)
	c.batch = nil
	c.setRole(RoleLeading, c.id)
}
