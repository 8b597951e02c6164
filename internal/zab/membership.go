package zab

import (
	"fmt"
	"slices"
)

// member is one row of the core's member table: who the peer is, and
// everything this core tracks about it. The table is kept sorted by id,
// so every quorum count, tally and fan-out list is one scan in one
// defined order — two runs of the same inputs send the same messages
// in the same sequence. The table is the CURRENT membership: the boot
// configuration plus every applied reconfig txn.
type member struct {
	id   PeerID
	addr string // transport address of a member added at runtime
	// voter distinguishes the two kinds of member. An observer receives
	// the leader's heartbeats and committed stream and is invisible to
	// vote tallies, quorum counts and outstanding-proposal replay.
	voter bool
	// Leader-side state, reset by becomeLeader. synced: the voter
	// finished this term's sync handshake (the leader's own row
	// included) and gets PROPOSE frames. obsSynced is the observer's
	// equivalent and deliberately a different flag: nothing in quorum
	// math, the activation gate or replayOutstanding may ever see an
	// observer. acked is the follower's cumulative ACK frontier.
	synced, obsSynced bool
	acked             int64
	lastHeard         int64
	// removeAt, when set, marks a row that is no member any more: the
	// leader that removed the peer keeps it until this deadline so that
	// the commit covering the removal can still flush to the removed
	// peer before tick tears its link down.
	removeAt int64
	// vote is the peer's vote in round vote.round; it counts while that
	// is the round this core is in.
	vote vote
}

func (m *member) isVoter() bool    { return m.voter }
func (m *member) isObserver() bool { return !m.voter && m.removeAt == 0 }
func (m *member) isMember() bool   { return m.removeAt == 0 }
func (m *member) isSynced() bool   { return m.synced }
func (m *member) isStreamed() bool { return m.obsSynced }

// rowOf returns id's row in a table (a removed peer's lingering one
// included), or nil. The pointer is good until the table next changes.
func rowOf(members []member, id PeerID) *member {
	for i := range members {
		if members[i].id == id {
			return &members[i]
		}
	}
	return nil
}

func (c *core) member(id PeerID) *member { return rowOf(c.members, id) }

// isVoter reports whether id is a voting member of the ensemble.
func (c *core) isVoter(id PeerID) bool {
	m := c.member(id)
	return m != nil && m.voter
}

// isMember reports whether id is any kind of ensemble member.
func (c *core) isMember(id PeerID) bool {
	m := c.member(id)
	return m != nil && m.isMember()
}

// addMember inserts id as a voter or an observer, in place of whatever
// row it had.
func (c *core) addMember(id PeerID, addr string, voter bool) {
	i := 0
	for i < len(c.members) && c.members[i].id < id {
		i++
	}
	if i == len(c.members) || c.members[i].id != id {
		c.members = slices.Insert(c.members, i, member{})
	}
	c.members[i] = member{id: id, addr: addr, voter: voter}
}

// dropMember deletes id's row.
func (c *core) dropMember(id PeerID) {
	c.members = slices.DeleteFunc(c.members, func(m member) bool { return m.id == id })
}

// pick appends to dst every row but this peer's own that keep accepts,
// in id order.
func (c *core) pick(dst []PeerID, keep func(*member) bool) []PeerID {
	for i := range c.members {
		if m := &c.members[i]; m.id != c.id && keep(m) {
			dst = append(dst, m.id)
		}
	}
	return dst
}

// others rebuilds the scratch fan-out list: pick, for a list that is
// sent to at once.
func (c *core) others(keep func(*member) bool) []PeerID {
	c.scratch = c.pick(c.scratch[:0], keep)
	return c.scratch
}

// count returns how many rows keep accepts.
func (c *core) count(keep func(*member) bool) int {
	n := 0
	for i := range c.members {
		if keep(&c.members[i]) {
			n++
		}
	}
	return n
}

// syncedQuorum counts the voters that finished this term's handshake
// (the leader's own row included) and the majority they must reach
// before the leader may propose: its activation.
func (c *core) syncedQuorum() (synced, quorum int) { return c.count((*member).isSynced), c.quorum() }

// quorum returns the minimum ensemble majority size over the CURRENT
// voter set — the set reconfig transactions mutate, so the required
// majority switches at exactly the reconfig txn's zxid.
func (c *core) quorum() int { return c.count((*member).isVoter)/2 + 1 }

// memberView is the immutable copy of the table that readers off the
// driver's goroutine see (Membership, ValidateReconfig): republished
// whenever membership or an observer's sync state changes.
type memberView struct {
	voters, observers []PeerID // sorted
	obsSynced         []PeerID // the leader's promotion gate
}

func (c *core) publish() {
	v := &memberView{}
	for i := range c.members {
		switch m := &c.members[i]; {
		case m.voter:
			v.voters = append(v.voters, m.id)
		case m.isMember():
			v.observers = append(v.observers, m.id)
			if m.obsSynced {
				v.obsSynced = append(v.obsSynced, m.id)
			}
		}
	}
	c.view.Store(v)
	c.refreshActivated()
}

// Membership returns sorted copies of the current voter and observer
// sets. Safe from any goroutine.
func (c *core) Membership() (voters, observers []PeerID) {
	v := c.view.Load()
	return slices.Clone(v.voters), slices.Clone(v.observers)
}

// ValidateReconfig checks a membership change against the current
// membership and sync state. Called on the LEADER before it submits the
// reconfig txn; the checks mirror applyReconfig's no-op guards, so a
// change that validates here but races a conflicting commit degrades to
// a harmless no-op at delivery rather than a divergent membership.
func (c *core) ValidateReconfig(ch ReconfigChange) error {
	if ch.ID <= 0 {
		return fmt.Errorf("zab: bad reconfig peer id %d", ch.ID)
	}
	v := c.view.Load()
	voter, observer := slices.Contains(v.voters, ch.ID), slices.Contains(v.observers, ch.ID)
	switch ch.Action {
	case ReconfigAdd:
		if voter || observer {
			return fmt.Errorf("zab: peer %d is already an ensemble member", ch.ID)
		}
	case ReconfigPromote:
		if voter {
			return fmt.Errorf("zab: peer %d is already a voter", ch.ID)
		}
		if !observer {
			return fmt.Errorf("zab: peer %d is not an ensemble member; reconfig add it first", ch.ID)
		}
		if !slices.Contains(v.obsSynced, ch.ID) {
			return fmt.Errorf("zab: observer %d has not completed its snapshot sync; an unsynced joiner may not count toward quorum", ch.ID)
		}
	case ReconfigRemove:
		if !voter && !observer {
			return fmt.Errorf("zab: peer %d is not an ensemble member", ch.ID)
		}
		if ch.ID == c.id {
			return fmt.Errorf("zab: cannot remove the current leader (peer %d); move leadership first by stopping it", ch.ID)
		}
		if voter && len(v.voters) <= 1 {
			return fmt.Errorf("zab: cannot remove the last voter")
		}
	default:
		return fmt.Errorf("zab: unknown reconfig action %d", ch.Action)
	}
	return nil
}

// applyReconfig mutates the membership at a reconfig txn's delivery —
// in commit order, on every member — which is what makes the
// quorum-size switch atomic at the txn's zxid. Every guard is an
// idempotent no-op check: replicas replaying history (restart
// recovery, diff sync) re-apply the same changes harmlessly.
func (c *core) applyReconfig(now, zxid int64, data []byte) {
	ch, err := DecodeReconfigChange(data)
	if err != nil {
		c.env.logf("zab: peer %d: ignoring malformed reconfig txn at zxid %#x: %v", c.id, zxid, err)
		return
	}
	m := c.member(ch.ID)
	present := m != nil && m.isMember()
	switch ch.Action {
	case ReconfigAdd:
		if present {
			return
		}
		c.addMember(ch.ID, ch.Addr, false)
		if c.env.updater != nil {
			// Self included: the transport must learn our own role so
			// future handshakes advertise it correctly.
			c.env.updater.AddPeer(ch.ID, ch.Addr, true)
		}
		c.env.logf("zab: peer %d: reconfig@%#x added %d (%s) as observer; voters=%d observers=%d",
			c.id, zxid, ch.ID, ch.Addr, c.count((*member).isVoter), c.count((*member).isObserver))
	case ReconfigPromote:
		if !present || m.voter {
			return
		}
		// The promoted voter re-handshakes via FOLLOWERINFO; on the
		// leader, seed its liveness so the abdication check gives it
		// time to.
		m.voter, m.obsSynced, m.lastHeard = true, false, now
		if c.env.updater != nil {
			c.env.updater.AddPeer(ch.ID, ch.Addr, false)
		}
		c.env.logf("zab: peer %d: reconfig@%#x promoted %d to voter; quorum is now %d of %d",
			c.id, zxid, ch.ID, c.quorum(), c.count((*member).isVoter))
		if ch.ID == c.id && c.isObserver {
			c.isObserver = false
			// Enter the voter handshake with the leader that promoted
			// us; with no known leader, campaign like any voter.
			if c.followTarget >= 0 {
				c.follow(now, c.followTarget)
			} else {
				c.startElection(now)
			}
		}
	case ReconfigRemove:
		if !present {
			return
		}
		switch {
		case c.env.updater == nil || ch.ID == c.id:
			c.dropMember(ch.ID)
		case c.Role() == RoleLeading:
			// Defer the link teardown: the commit covering this very
			// removal still has to flush to the removed peer so it can
			// park itself (tick performs the teardown after the grace).
			*m = member{id: ch.ID, removeAt: now + c.electN}
		default:
			c.dropMember(ch.ID)
			c.env.updater.RemovePeer(ch.ID)
		}
		c.env.logf("zab: peer %d: reconfig@%#x removed %d; quorum is now %d of %d",
			c.id, zxid, ch.ID, c.quorum(), c.count((*member).isVoter))
		switch {
		case ch.ID != c.id:
		case c.Role() == RoleLooking:
			// Elected, and the prefix it completes holds its own removal
			// (proposed under another leader). So far only it has delivered
			// that: were it to park now, the others would go on counting a
			// voter that is gone for good. It leads until a quorum has
			// synced the removal from it, and parks then.
			c.leaving = true
		default:
			c.becomeRemoved(fmt.Sprintf("reconfig txn %#x removed this id", zxid))
		}
	}
	c.publish()
}

// reapRemoved tears down the links of removed peers whose grace is over.
func (c *core) reapRemoved(now int64) {
	for i := 0; i < len(c.members); i++ {
		if m := &c.members[i]; m.removeAt != 0 && now > m.removeAt {
			c.env.updater.RemovePeer(m.id)
			c.members = slices.Delete(c.members, i, i+1)
			i--
		}
	}
}

// adoptMembership replaces the membership with a leader-sent snapshot
// (piggybacked on sync answers), reconciling the transport's peer map
// with the delta.
func (c *core) adoptMembership(data []byte) {
	snap, err := decodeMembership(data)
	if err != nil {
		c.env.logf("zab: peer %d: ignoring malformed membership snapshot: %v", c.id, err)
		return
	}
	old := c.members
	c.members = make([]member, 0, len(snap))
	selfVoter, selfObserver := false, false
	for _, m := range snap {
		c.addMember(m.id, m.addr, m.voter)
		if m.id == c.id {
			selfVoter, selfObserver = m.voter, !m.voter
		}
	}
	if c.env.updater != nil {
		for i := range c.members {
			m := &c.members[i]
			// Self included on role changes: the transport must learn our
			// own role so future handshakes advertise it correctly.
			if was := rowOf(old, m.id); was == nil || !was.isMember() || was.voter != m.voter {
				c.env.updater.AddPeer(m.id, m.addr, !m.voter)
			}
		}
		for i := range old {
			if id := old[i].id; id != c.id && c.member(id) == nil {
				c.env.updater.RemovePeer(id)
			}
		}
	}
	c.publish()
	switch {
	case selfVoter && c.isObserver:
		// Promoted while we were away; the caller (handleSync) completes
		// the handshake as the voter we are now.
		c.isObserver = false
	case selfObserver:
		c.isObserver = true
	case !selfVoter && !selfObserver:
		c.becomeRemoved("leader's membership snapshot no longer lists this id")
	}
}

// becomeRemoved parks the peer permanently: a removed replica must not
// campaign, vote, ack, or heartbeat — its former peers no longer count
// it, so any participation is at best noise and at worst a ghost quorum.
func (c *core) becomeRemoved(why string) {
	if c.Role() == RoleRemoved {
		return
	}
	c.env.logf("zab: peer %d REMOVED FROM ENSEMBLE (%s): parking — no elections, no votes; writes will be refused until restarted under a membership that includes this id",
		c.id, why)
	c.batch = nil
	c.outstanding = nil
	c.outDepth.Store(0)
	c.inflight = make(map[int64]ProposalRecord)
	c.leaderSynced = false
	c.followTarget = -1
	c.finalizeDue = 0
	c.setRole(RoleRemoved, -1)
}

// handleRemoved processes the leader's you-were-removed notice.
func (c *core) handleRemoved(msg Message) {
	if c.Role() == RoleLeading || c.Role() == RoleRemoved {
		return
	}
	// Only trust the notice from a peer we still believe is a voter: our
	// own membership may be stale, but a sender we never heard of could
	// be the stale one.
	if !c.isVoter(msg.From) {
		return
	}
	c.becomeRemoved(fmt.Sprintf("peer %d reports this id is no longer a member", msg.From))
}
