package zab

// startObserving (re)enters the leaderless observing state: the peer
// waits for a leader's heartbeat to adopt it. Also used when the
// followed leader goes silent — the observer NEVER elects; it reports
// leader -1 (failing pending forwarded writes at the server layer) and
// waits for the voters to sort it out.
func (c *core) startObserving() {
	c.followTarget = -1
	c.leaderSynced = false
	c.inflight = make(map[int64]ProposalRecord)
	c.setRole(RoleObserving, -1)
}

// follow attaches this peer to a leader as what it is — a voter
// follows, an observer observes — and announces its frontier. It keeps
// the ACKed in-flight prefix across the transition: if the new leader
// dies before syncing us, the next election vote must still cover
// every transaction this peer's ACKs vouched for. The sync answer
// supersedes the buffer when it lands.
func (c *core) follow(now int64, leader PeerID) {
	c.followTarget, c.heard = leader, now
	c.leaderSynced, c.joined, c.pinged = false, false, false
	c.trimInflight(c.ackFrontier())
	if c.isObserver {
		c.setRole(RoleObserving, leader)
	} else {
		c.setRole(RoleFollowing, leader)
	}
	c.askSync(now)
}

// askSync announces this peer's frontier to the leader it follows or
// observes, and arms the next retry: half an election timeout is fast
// enough to win the race with a just-activating leader, slow enough
// that a long snapshot transfer in flight is not answered with yet
// more snapshots. The announce advertises the COMMITTED frontier, never
// lastZxid: buffered-but-uncommitted proposals die with the old term,
// and claiming them would make the leader's diff start past entries
// this peer never applied — silent state divergence. Observers ask via
// OBSERVERINFO so the leader never mistakes them for voters.
func (c *core) askSync(now int64) {
	c.nextSyncAsk = now + c.electN/2
	kind := KindFollowerInfo
	if c.Role() == RoleObserving {
		kind = KindObserverInfo
	}
	c.env.send(c.followTarget, Message{Kind: kind, Zxid: c.LastCommitted()})
}

// handleInfo syncs a member that announced its committed frontier, by
// either kind of announce: FOLLOWERINFO or OBSERVERINFO says what the
// sender believes it is, and a voter restarted under the configuration
// it joined with still believes it observes. What it IS is this
// leader's row for it, which decides what its NEWLEADERACK will mean
// (see handleNewLeaderAck), and the sync answer carries the membership
// that tells it. A peer that is no member at all is ignored: it is
// either removed (its next election vote gets the REMOVED reply) or a
// joiner racing its own reconfig-add commit, which retries until the
// add lands.
func (c *core) handleInfo(now int64, msg Message) {
	if m := c.member(msg.From); m != nil && m.isMember() && c.Role() == RoleLeading {
		m.lastHeard = now
		c.sendSync(msg.From, msg.Zxid)
	}
}

// sendSync transfers committed history to a peer whose frontier is
// zxid: a diff when the log still covers it, a full snapshot otherwise.
// Every sync answer piggybacks the leader's current membership, so a
// snapshot-synced joiner (whose diff never replays the reconfig txns)
// and a follower restarted from stale state adopt the ensemble's
// current voter/observer sets along with the data.
func (c *core) sendSync(to PeerID, zxid int64) {
	msg := Message{Kind: KindSyncDiff, Epoch: c.epoch, Zxid: c.LastCommitted(), Config: encodeMembership(c.members)}
	var ok bool
	if msg.Diff, ok = c.diffSince(zxid); !ok {
		msg.Kind, msg.Snapshot = KindSyncSnap, c.env.Snapshot()
	}
	c.env.send(to, msg)
}

// diffSince returns the committed proposals after zxid if the log still
// holds them.
func (c *core) diffSince(zxid int64) ([]ProposalRecord, bool) {
	if EpochOf(zxid) != c.epoch && zxid != 0 && c.log.n == 0 {
		return nil, false
	}
	return c.log.since(zxid)
}

func (c *core) handleSync(now int64, msg Message) {
	if role := c.Role(); (role != RoleFollowing && role != RoleObserving) || msg.From != c.followTarget {
		return
	}
	if !c.accepts(msg.From, msg.Epoch) {
		c.contest(now, msg.Epoch)
		return
	}
	// The first sync of a term: since this peer attached to the leader,
	// or since the leader, unnoticed, was elected again.
	fresh := !c.joined || msg.Epoch != c.epoch
	switch {
	case (!fresh || c.isObserver) && msg.Zxid < c.LastCommitted(), !startsHere(msg.Diff, c.LastCommitted()):
		// An answer to an earlier ask that later frames overtook (every
		// retry is answered, and installing a frontier older than what
		// this peer has delivered since would take deliveries back), or
		// a diff from a frontier this peer is not at — one it announced
		// before it crashed and came back with less. The tick asks again.
		return
	case fresh && msg.Zxid < c.ackFrontier() && !c.isObserver:
		// A new leader that lacks what this peer acknowledged to an
		// earlier one. It was elected on votes cast before those
		// proposals were made — a vote does not stop its voter from
		// following the old leader a while longer — and they may be
		// committed. Syncing would drop them and help activate a leader
		// without them; campaigning shows it the frontier it missed (see
		// handleVote), and whoever holds the most wins the next round —
		// in an epoch above this leader's, which this peer now counts as
		// spent, so that its pings do not pull it back in meanwhile.
		c.epoch, c.acceptedFrom = max(c.epoch, msg.Epoch)+1, -1
		c.startElection(now)
		return
	}
	c.stats.resyncs.Add(1)

	// Captured before the install moves the commit bound: the ACKed
	// prefix as of now is what this peer's cumulative ACKs vouched for
	// and must outlive a resync within a term (see trimInflight). The
	// first sync of a term keeps nothing: the prefix was ACKed to an
	// earlier leader, this one committed what it held of it before it
	// led, and what is still above its frontier is not part of history
	// — left buffered, its commit bounds would deliver it in place of
	// its own proposals.
	keep := int64(0)
	if !fresh {
		keep = c.ackFrontier()
	}
	switch msg.Kind {
	case KindSyncSnap:
		c.log.reset(msg.Zxid)
		c.lastZxid = msg.Zxid
		c.lastCommit.Store(msg.Zxid)
		// Restore after the position update so the application layer
		// can read the new zxid when persisting the restored state.
		if msg.Snapshot != nil {
			c.env.Restore(msg.Snapshot)
		}
	case KindSyncDiff:
		for _, rec := range msg.Diff {
			if rec.Txn.Zxid > c.LastCommitted() {
				c.deliver(now, rec)
			}
		}
		c.lastZxid = msg.Zxid
	}
	// The sync carries the leader's membership as of the transferred
	// frontier: adopt it (snapshot transfers never replay the reconfig
	// txns the snapshot already reflects). A diff may have delivered a
	// removal of this very peer above — then it is out of the ensemble
	// and must not complete the handshake.
	if len(msg.Config) > 0 {
		c.adoptMembership(msg.Config)
	}
	switch {
	case c.Role() == RoleRemoved:
		return
	case c.Role() == RoleObserving && !c.isObserver:
		// Promoted while it was away: the handshake this sync completes
		// is a voter's, and the leader will count its ACKs.
		c.setRole(RoleFollowing, c.followTarget)
	}
	c.epoch, c.acceptedFrom = msg.Epoch, msg.From
	c.leaderSynced, c.joined = true, true
	c.trimInflight(keep)
	c.heard = now
	c.env.send(msg.From, Message{Kind: KindNewLeaderAck, Zxid: c.lastZxid})
}

// startsHere reports whether the first record of diff past committed can
// be the very next one: the next counter of committed's epoch, or the
// first of a later epoch.
func startsHere(diff []ProposalRecord, committed int64) bool {
	for i := range diff {
		if z := diff[i].Txn.Zxid; z > committed {
			return z == committed+1 && EpochOf(z) == EpochOf(committed) || EpochOf(z) > EpochOf(committed) && CounterOf(z) == 1
		}
	}
	return true
}

func (c *core) handleNewLeaderAck(now int64, msg Message) {
	m := c.member(msg.From)
	if c.Role() != RoleLeading || m == nil || !m.isMember() {
		return
	}
	m.lastHeard = now
	if m.voter {
		m.synced = true
		c.replayOutstanding(msg.From)
		if synced, quorum := c.syncedQuorum(); c.leaving && synced >= quorum {
			c.becomeRemoved("a quorum has synced the reconfig txn that removed this id")
		}
		return
	}
	// An observer completing its sync joins the committed stream and
	// NOTHING else: not synced (quorum, activation gate, the propose
	// fan-out) and not replayOutstanding — uncommitted proposals are a
	// voter concern only. obsSynced is also the promotion gate:
	// ValidateReconfig accepts a promote only for observers that have
	// it, which is what keeps an unsynced joiner from ever counting
	// toward a quorum.
	m.obsSynced = true
	c.publish()
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
func (c *core) replayOutstanding(to PeerID) {
	bound := c.LastCommitted()
	for start := 0; start < len(c.outstanding); start += maxBatchRecords {
		end := min(start+maxBatchRecords, len(c.outstanding))
		batch := make([]ProposalRecord, 0, end-start)
		for _, prop := range c.outstanding[start:end] {
			batch = append(batch, prop.rec)
		}
		c.env.send(to, Message{Kind: KindProposeBatch, Epoch: c.epoch, Zxid: bound, Batch: batch})
		c.stats.proposeFrames.Add(1)
	}
}

// resync asks the leader for the history this peer missed. Until the
// sync lands, the tick keeps re-requesting (the request itself may be
// shed on a flapping link).
func (c *core) resync(now int64) {
	if role := c.Role(); role != RoleFollowing && role != RoleObserving {
		return
	}
	c.leaderSynced = false
	// Shed the un-ACKed tail past the gap, but KEEP the ACKed prefix:
	// the leader may have already committed against those ACKs, and if
	// it dies before the sync answer arrives this buffer is the only
	// surviving copy a truthful election vote can offer.
	c.trimInflight(c.ackFrontier())
	c.askSync(now)
}
