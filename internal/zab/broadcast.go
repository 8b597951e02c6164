package zab

import (
	"fmt"

	"securekeeper/internal/ztree"
)

// outstandingProposal is one proposal the leader has accepted and not
// yet committed. The leader keeps them in one slice in ascending zxid
// order and, per follower, one cumulative ACK frontier (member.acked):
// a proposal is acknowledged by exactly the followers whose frontier
// reached its zxid, so the two together are the whole quorum state.
type outstandingProposal struct {
	rec ProposalRecord
	// proposedNs is the now of the propose call that accepted the
	// submission; the propose→quorum-ack histogram reads it when the
	// proposal commits.
	proposedNs int64
}

// propose stamps a submission with the next zxid and queues it on the
// current batch; flush sends accumulated submissions as a single
// multi-record PROPOSE frame per follower (a batch that reaches the
// frame cap goes at once).
func (c *core) propose(now int64, txn ztree.Txn, origin Origin) error {
	if c.Role() != RoleLeading {
		return ErrNotLeader
	}
	if synced, quorum := c.syncedQuorum(); synced < quorum {
		return fmt.Errorf("zab: leader not yet activated (%d/%d synced): %w", synced, quorum, ErrNotLeader)
	}
	c.counter++
	txn.Zxid = MakeZxid(c.epoch, c.counter)
	c.lastZxid = txn.Zxid
	rec := ProposalRecord{Txn: txn, Origin: origin}
	c.outstanding = append(c.outstanding, outstandingProposal{rec: rec, proposedNs: now})
	c.outDepth.Store(int32(len(c.outstanding)))
	c.batch = append(c.batch, rec)
	c.stats.proposals.Add(1)
	if len(c.batch) >= maxBatchRecords {
		c.flushProposals()
	}
	return nil
}

// flush ends a run of propose calls: what they queued goes out, and
// whatever already has its quorum (all of it, in an ensemble of one)
// commits.
func (c *core) flush(now int64) {
	c.flushProposals()
	c.advanceCommits(now)
}

// flushProposals sends the accumulated batch as one PROPOSE frame per
// synced follower, piggybacking the leader's commit bound so followers
// can apply previously committed transactions without a COMMIT frame.
// Prepare sees the batch first.
func (c *core) flushProposals() {
	if len(c.batch) == 0 {
		return
	}
	if c.env.Prepare != nil {
		c.env.Prepare(c.batch)
		// The batch is the tail of outstanding: a proposal joins both at
		// once, and none is acknowledged before its frame is sent.
		own := c.outstanding[len(c.outstanding)-len(c.batch):]
		for i := range own {
			own[i].rec.Txn = c.batch[i].Txn
		}
	}
	// One shared copy per flush: the in-process transport passes the
	// slice by reference and receivers treat frames as read-only, so
	// every follower can share it while c.batch is reused.
	frame := make([]ProposalRecord, len(c.batch))
	copy(frame, c.batch)
	c.batch = c.batch[:0]
	// Encode-once fan-out: a multicast-capable transport (the TCP mesh)
	// serializes this frame a single time for all followers.
	followers := c.others((*member).isSynced)
	c.env.sendMany(followers, Message{Kind: KindProposeBatch, Epoch: c.epoch, Zxid: c.LastCommitted(), Batch: frame})
	c.stats.proposeFrames.Add(int64(len(followers)))
}

// buffer files a frame's records, ascending, under inflight and returns
// the zxid of the last one it looked at. Records at or below the commit
// bound are duplicates of applied history; a malformed frame's
// out-of-order tail is ignored.
func (c *core) buffer(batch []ProposalRecord) (last int64) {
	committed := c.LastCommitted()
	for i := range batch {
		rec := &batch[i]
		zxid := rec.Txn.Zxid
		if i > 0 && zxid <= last {
			break
		}
		last = zxid
		if zxid <= committed {
			continue
		}
		c.inflight[zxid] = *rec
		c.lastZxid = max(c.lastZxid, zxid)
	}
	return last
}

// handleProposeBatch replays a multi-record PROPOSE frame in zxid order
// and acknowledges it as a unit: one cumulative ACK for the contiguous
// prefix of proposals this follower holds.
func (c *core) handleProposeBatch(now int64, msg Message) {
	if c.Role() != RoleFollowing || msg.From != c.followTarget || len(msg.Batch) == 0 {
		return
	}
	c.heard = now
	if !c.leaderSynced || msg.Epoch != c.epoch {
		// Not (or no longer) synced with this leader, which may still
		// count us in: an ACK now would vouch for a proposal that the
		// sync answer on its way makes us drop. The replay that follows
		// our NEWLEADERACK brings it again. (Or a frame of an earlier
		// term of this same leader, overtaken by its re-election.)
		return
	}
	last := c.buffer(msg.Batch)
	// Ack the batch as a unit, but never past a gap: the cumulative ACK
	// asserts this follower holds *every* proposal up to the frontier,
	// and acking past missing proposals would let the leader count a
	// false quorum for them.
	frontier := c.ackFrontier()
	c.env.send(msg.From, Message{Kind: KindAck, Zxid: frontier})
	if frontier < last {
		// An earlier frame was shed; recover now instead of waiting for
		// the commit-time hole detection.
		c.resync(now)
		return
	}
	// Piggybacked commit bound: apply what the leader has committed.
	c.commitUpTo(now, msg.Zxid)
}

// successor returns the zxid of the buffered proposal that immediately
// follows z: the next counter within z's epoch, or the first proposal
// (counter 1) of the current epoch after a boundary.
func (c *core) successor(z int64) (int64, bool) {
	next := MakeZxid(EpochOf(z), CounterOf(z)+1)
	if _, ok := c.inflight[next]; ok {
		return next, true
	}
	if EpochOf(z) < c.epoch {
		next = MakeZxid(c.epoch, 1)
		_, ok := c.inflight[next]
		return next, ok
	}
	return 0, false
}

// ackFrontier returns the highest zxid z such that this follower holds
// (or has committed) every proposal in (lastCommitted, z]: what its
// cumulative ACKs vouch for, and the frontier its election votes
// advertise. With nothing buffered it is the committed frontier.
func (c *core) ackFrontier() int64 {
	z := c.LastCommitted()
	for {
		next, ok := c.successor(z)
		if !ok {
			return z
		}
		z = next
	}
}

// trimInflight drops buffered proposals outside (lastCommitted, keep]:
// entries at or below the commit bound are applied history, entries
// past keep were never ACKed (a gap separates them) so no quorum ever
// counted this peer as holding them. What remains is the prefix this
// peer's cumulative ACKs vouched for — it must survive role changes
// and resyncs, because a leader may have committed against those ACKs
// and died before any COMMIT message escaped.
func (c *core) trimInflight(keep int64) {
	committed := c.LastCommitted()
	for z := range c.inflight {
		if z <= committed || z > keep {
			delete(c.inflight, z)
		}
	}
}

// handleAck advances a follower's cumulative frontier: an ACK for zxid
// Z asserts the follower holds every proposal up to Z, so batches are
// acknowledged as units. The frontier is clamped to the highest zxid
// this leader proposed — an ACK can vouch only for proposals that
// exist, never in advance for ones a later submission creates.
func (c *core) handleAck(now int64, msg Message) {
	m := c.member(msg.From)
	if c.Role() != RoleLeading || m == nil || !m.voter {
		// The voter check is defense in depth: observers never send ACKs,
		// but a non-voter's ACK entering the tally would forge quorum.
		return
	}
	m.lastHeard = now
	if z := min(msg.Zxid, c.lastZxid); z > m.acked {
		m.acked = z
		c.advanceCommits(now)
	}
}

// quorumAcked reports whether the leader plus the CURRENT voters whose
// frontier reached zxid form a quorum. Evaluated per proposal: a
// reconfig delivered in the middle of a commit run changes both the
// voter set and the quorum size for the proposal after it, and a
// frontier left by a voter the reconfig removed no longer counts.
func (c *core) quorumAcked(zxid int64) bool {
	voters, n := 0, 1 // the leader holds everything it proposed
	for i := range c.members {
		if m := &c.members[i]; m.voter {
			voters++
			if m.acked >= zxid && m.id != c.id {
				n++
			}
		}
	}
	return n >= voters/2+1
}

// advanceCommits commits outstanding proposals strictly in zxid order as
// soon as the head of the queue reaches quorum, then notifies followers
// with a single cumulative COMMIT frame for the whole run (the next
// PROPOSE frame piggybacks the same bound).
func (c *core) advanceCommits(now int64) {
	if len(c.outstanding) == 0 || !c.quorumAcked(c.outstanding[0].rec.Txn.Zxid) {
		return
	}
	// Taken BEFORE delivering; see the fields.
	c.commitTo = c.pick(c.commitTo[:0], (*member).isSynced)
	c.streamTo = c.pick(c.streamTo[:0], (*member).isStreamed)
	c.obsRun = c.obsRun[:0]
	n := 0
	for n < len(c.outstanding) && c.quorumAcked(c.outstanding[n].rec.Txn.Zxid) {
		prop := c.outstanding[n]
		n++
		c.proposeToAck.Observe(now - prop.proposedNs)
		c.deliver(now, prop.rec)
		if len(c.streamTo) > 0 {
			c.obsRun = append(c.obsRun, prop.rec)
		}
	}
	// Compact in place: the slice keeps its backing array and stops
	// referencing the committed records. (A delivered reconfig that
	// parks this peer drops the slice; then there is nothing to compact.)
	if n <= len(c.outstanding) {
		rest := copy(c.outstanding, c.outstanding[n:])
		clear(c.outstanding[rest:])
		c.outstanding = c.outstanding[:rest]
	}
	c.outDepth.Store(int32(len(c.outstanding)))
	bound := c.LastCommitted()
	c.env.sendMany(c.commitTo, Message{Kind: KindCommit, Zxid: bound})
	// One run's committed records to every observer synced at its
	// start: encode-once fan-out, chunked at the frame cap, no ACK ever
	// expected — the write path never waits on an observer.
	for start := 0; start < len(c.obsRun); start += maxBatchRecords {
		batch := append([]ProposalRecord(nil), c.obsRun[start:min(start+maxBatchRecords, len(c.obsRun))]...)
		c.env.sendMany(c.streamTo, Message{Kind: KindObserverCommit, Epoch: c.epoch, Zxid: bound, Batch: batch})
		c.stats.observerFrames.Add(int64(len(c.streamTo)))
	}
}

func (c *core) handleCommit(now int64, msg Message) {
	if c.Role() != RoleFollowing || msg.From != c.followTarget {
		return
	}
	c.heard = now
	c.commitUpTo(now, msg.Zxid)
}

// handleObserverCommit applies a leader-streamed run of already-committed
// records: buffer them like proposals, then commit to the bound. No ACK is
// sent — observers are invisible to quorum accounting. A hole (shed frame)
// falls through commitUpTo's resync, which re-announces via FOLLOWERINFO.
func (c *core) handleObserverCommit(now int64, msg Message) {
	if c.Role() != RoleObserving || msg.From != c.followTarget || len(msg.Batch) == 0 || !c.leaderSynced {
		return
	}
	c.heard = now
	// The stream carries only records committed during the sending
	// leader's reign, so adopting its epoch keeps the successor walk in
	// commitUpTo correct across the boundary.
	c.epoch = max(c.epoch, msg.Epoch)
	c.buffer(msg.Batch)
	c.stats.observerFrames.Add(1)
	c.commitUpTo(now, msg.Zxid)
}

// commitUpTo applies what the leader this peer follows has announced
// as committed. Every bound that reaches here is the leader's
// frontier; the highest is remembered for commit-lag reporting even
// when this peer cannot apply up to it yet — and before the leader has
// synced it, it cannot: what it buffers then is the ACKed prefix of an
// earlier term, and a leader elected without this peer may never have
// held those proposals.
func (c *core) commitUpTo(now, bound int64) {
	if bound > c.leaderBound.Load() {
		c.leaderBound.Store(bound)
	}
	if c.leaderSynced {
		c.applyUpTo(now, bound)
	}
}

// applyUpTo delivers in-flight proposals with zxid <= bound, strictly in
// zxid order by walking the successor chain from the last commit — O(1)
// per record where a lowest-of-map scan would make committing a full
// batch quadratic. A hole below the bound means we missed a proposal
// (shed mailbox, transient partition) and must recover from the leader.
func (c *core) applyUpTo(now, bound int64) {
	for c.LastCommitted() < bound {
		next, ok := c.successor(c.LastCommitted())
		if !ok {
			// The leader committed past us but the successor is not
			// buffered: we missed proposals.
			c.resync(now)
			return
		}
		if next > bound {
			return // buffered, but the leader has not committed it yet
		}
		rec := c.inflight[next]
		delete(c.inflight, next)
		c.deliver(now, rec)
	}
}

// deliver applies a committed transaction and records it in the log.
// A reconfig transaction additionally changes the membership HERE.
func (c *core) deliver(now int64, d Committed) {
	c.lastCommit.Store(d.Txn.Zxid)
	c.lastZxid = max(c.lastZxid, d.Txn.Zxid)
	c.log.append(d)
	c.stats.commits.Add(1)
	if d.Txn.Type == ztree.TxnReconfig {
		c.applyReconfig(now, d.Txn.Zxid, d.Txn.Data)
	}
	c.env.Deliver(d)
}
