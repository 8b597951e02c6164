package zab

import (
	"errors"
	"slices"
	"testing"

	"securekeeper/internal/storage"
	"securekeeper/internal/ztree"
)

// Directed schedules: the simulator's world with the weather off and a
// script in place of the nemesis. Each of zab's historical bugs is one
// (it fails with the fix reverted), as are the scenarios that used to
// be goroutine tests polling a real clock. Every invariant of the
// random sweep is checked after every event here too.

// failover bounds, in ticks, how long an ensemble takes to settle under
// a new leader once the old one is gone: the election timeout to notice,
// the finalize wait, and one FOLLOWERINFO retry — the first announce
// races the winner's own finalize wait and is lost on a peer still
// LOOKING.
const failover = (simElection+simElection/2)/simTick + 12

// schedule plays script in a fresh world of the given shape and reports
// a violated invariant or a failed await with the trace.
func schedule(t *testing.T, voters, observers int, script func(s *sim)) {
	t.Helper()
	s := newSim(1, voters, observers)
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(simFailure)
			if !ok {
				panic(r)
			}
			t.Fatalf("%v\nlast %d events:\n%s", f, *simTrace, s.dump())
		}
	}()
	script(s)
}

// start boots every peer at once. A script that does not call it, to
// set the stage first, has it called by its first await.
func (s *sim) start() {
	for _, p := range s.peers {
		if p.inc == 0 {
			s.boot(p)
		}
	}
}

// await steps the world until cond holds, for at most ticks ticks.
func (s *sim) await(what string, ticks int64, cond func() bool) {
	s.start()
	for deadline := s.now + ticks*simTick; !cond(); {
		if len(s.q) == 0 || s.q[0].at > deadline {
			s.failf("%s: not within %d ticks", what, ticks)
		}
		s.step()
	}
}

// idle lets ticks ticks pass.
func (s *sim) idle(ticks int64) { s.run(s.now + ticks*simTick) }

// settled reports whether l leads with a synced quorum and every other
// running member follows it, synced.
func (s *sim) settled(l *simPeer) bool {
	if l == nil || !l.activated {
		return false
	}
	for _, p := range s.peers {
		if c := p.core; p.up() && p != l && c.Role() != RoleRemoved && (c.followTarget != l.id || !c.leaderSynced) {
			return false
		}
	}
	return true
}

// elect waits for the ensemble to settle under a leader and returns it.
func (s *sim) elect(ticks int64) *simPeer {
	s.await("a leader every running member is synced with", ticks, func() bool { return s.settled(s.leaderNow()) })
	return s.leaderNow()
}

// write proposes n client transactions at l and flushes them as one burst.
func (s *sim) write(l *simPeer, n int) {
	for ; n > 0; n-- {
		if err := s.propose(l, ztree.Txn{Type: ztree.TxnSetData, Path: "/k"}); err != nil {
			s.failf("leader %d refused a write: %v", l.id, err)
		}
	}
	s.flush(l)
}

// reconfig validates and proposes one membership change at l.
func (s *sim) reconfig(l *simPeer, ch ReconfigChange) {
	if err := l.core.ValidateReconfig(ch); err != nil {
		s.failf("validate %s %d: %v", ch.Action, ch.ID, err)
	}
	if err := s.propose(l, ztree.Txn{Type: ztree.TxnReconfig, Data: ch.Encode()}); err != nil {
		s.failf("leader %d refused %s %d: %v", l.id, ch.Action, ch.ID, err)
	}
	s.flush(l)
}

// awaitDelivered waits until each of the peers has delivered n transactions.
func (s *sim) awaitDelivered(n int, ticks int64, ids ...PeerID) {
	s.await("deliveries", ticks, func() bool {
		for _, id := range ids {
			if len(s.peer(id).applied) < n {
				return false
			}
		}
		return true
	})
}

func (s *sim) ids() []PeerID {
	ids := make([]PeerID, len(s.peers))
	for i, p := range s.peers {
		ids[i] = p.id
	}
	return ids
}

// isolate cuts (or heals) every link of p.
func (s *sim) isolate(p *simPeer, down bool) {
	for _, o := range s.peers {
		s.cut(p.id, o.id, down)
	}
}

// others returns the running peers other than p.
func (s *sim) others(p *simPeer) []*simPeer {
	var out []*simPeer
	for _, o := range s.peers {
		if o != p && o.up() {
			out = append(out, o)
		}
	}
	return out
}

// TestScheduleRingOfFollowers (PR 2's bug): peers 1 and 2 tally a quorum
// for 2 before the better vote of 3 reaches them. Finalizing on the
// spot, 1 follows 2 while 2 goes on to adopt 3's vote: followers in a
// ring, no leader, an election timeout lost. The finalize wait holds the
// tally for two ticks, 3's vote lands within it, and nobody ever follows
// anyone but 3.
func TestScheduleRingOfFollowers(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		s.route = func(from, to PeerID, msg Message) int64 {
			if from == 3 && msg.Kind == KindVote {
				return simTick // 3's votes take a tick; all else 50µs
			}
			return 50_000
		}
		s.onRole = func(p *simPeer, role Role, leader PeerID) {
			if role == RoleFollowing && leader != 3 {
				s.failf("peer %d follows %d: it finalized a tally that 3's vote was about to change", p.id, leader)
			}
		}
		if l := s.elect(8); l.id != 3 {
			s.failf("peer %d leads, want 3", l.id)
		}
	})
}

// TestOrphanedProposalRecoversOnResync (PR 6's livelock, found by the SIGKILL
// harness): a proposal whose PROPOSE fan-out reaches no follower must
// still commit once they resync. The resync diff is empty (nothing new
// is committed) and PROPOSE frames go out once, so only the replay on
// NEWLEADERACK brings the orphan back; without it in-order commit blocks
// every later write while the leader keeps accepting them.
func TestOrphanedProposalRecoversOnResync(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		s.write(l, 1)
		s.awaitDelivered(1, 4, s.ids()...)

		// The leader is cut off for one burst, well under the election
		// timeout: the submit succeeds, the frame reaches nobody.
		s.isolate(l, true)
		s.write(l, 1)
		s.idle(2)
		s.isolate(l, false)

		// The next frame acks a frontier short of the orphan, so both
		// followers resync.
		s.write(l, 1)
		s.awaitDelivered(3, 10, s.ids()...)
		if l.core.StatsSnapshot().Elections != 1 {
			s.failf("the cut cost an election")
		}
	})
}

// TestSurvivorsDoNotResurrectDeadLeader (PR 8): peers 1 and 2 adopt leader
// 3, which dies before it syncs either; their silence clocks are offset
// by half a timeout. Nobody may vouch for a leader that never answered:
// once a survivor has given 3 up it never follows 3 again, and the two
// elect one of themselves as soon as the second clock runs out.
func TestSurvivorsDoNotResurrectDeadLeader(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		s.start()
		three := s.peer(3)
		s.crash(three)
		ping := func(to PeerID) { s.send(3, to, Message{Kind: KindPing, Epoch: 1}) }
		ping(1)
		ping(2)
		s.await("both adopt 3", 2, func() bool {
			return s.peer(1).core.Leader() == 3 && s.peer(2).core.Leader() == 3
		})
		for i := 0; i < 8; i++ { // 3 keeps 2 alone alive for half a timeout more
			ping(2)
			s.idle(1)
		}
		gaveUp := map[PeerID]bool{}
		s.onRole = func(p *simPeer, role Role, leader PeerID) {
			gaveUp[p.id] = gaveUp[p.id] || role == RoleLooking
			if gaveUp[p.id] && leader == 3 {
				s.failf("peer %d re-adopted the dead leader", p.id)
			}
		}
		s.elect(failover)
	})
}

// TestScheduleAckedWriteSurvivesLeaderLoss (PR 9): the leader commits
// and acknowledges a write on one follower's ACK and is lost before any
// COMMIT leaves it; the other follower never saw the proposal. The write
// survives in one in-flight buffer only, so that follower's vote must
// advertise the ACKed frontier, not the committed one — on committed
// frontiers the two tie, the higher id wins, and here that is the
// follower without the write — and the winner must complete the prefix.
func TestScheduleAckedWriteSurvivesLeaderLoss(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		s.write(l, 1)
		s.awaitDelivered(1, 4, s.ids()...)
		holder := s.others(l)[0] // the lower id of the two
		s.route = func(from, to PeerID, msg Message) int64 {
			if msg.Kind == KindCommit || msg.Kind == KindPing || msg.Kind == KindProposeBatch && to != holder.id {
				return -1 // one follower gets the proposal, nobody a commit bound
			}
			return 50_000
		}
		s.write(l, 1)
		s.await("the leader to acknowledge the write", 2, func() bool { return s.ackedUpTo == 2 })
		s.crash(l)
		s.route = nil
		if next := s.elect(failover); next != holder || len(next.applied) != 2 {
			s.failf("leader %d has %d txns, want %d with the acknowledged 2", next.id, len(next.applied), holder.id)
		}
	})
}

// TestScheduleRemovedVoterAck (PR 17): voters {1,2,3,4}, remove(4) at z1
// and a write at z2 that only voter 4 acknowledges. Committing z1
// shrinks the quorum to two of {1,2,3}; z2 is then held by the leader
// alone among them and must wait for 2 or 3.
func TestScheduleRemovedVoterAck(t *testing.T) {
	schedule(t, 4, 0, func(s *sim) {
		l := s.elect(10)
		var four, other *simPeer
		for _, p := range s.others(l) {
			if four == nil {
				four = p // the voter to remove (any but the leader)
			} else {
				other = p
			}
		}
		s.route = func(from, to PeerID, msg Message) int64 {
			if msg.Kind == KindProposeBatch && to != four.id && !(to == other.id && msg.Batch[0].Txn.Type == ztree.TxnReconfig) {
				return -1 // the write reaches only the voter being removed
			}
			return 50_000
		}
		s.reconfig(l, ReconfigChange{Action: ReconfigRemove, ID: four.id})
		s.write(l, 1)
		s.idle(2)
		if len(l.applied) != 1 {
			s.failf("leader delivered %d txns, want only the reconfig: the write is held by the removed voter alone", len(l.applied))
		}
		// The next frame shows the others the gap; they resync, the
		// replay brings the write, and now it commits.
		s.route = nil
		s.write(l, 1)
		s.awaitDelivered(3, 10, l.id, other.id)
	})
}

// TestScheduleLeavingLeaderAbdicates (red list, simulator seed 13262):
// a leader proposes the removal of follower A, which only A acknowledges,
// and dies. A wins on its ACKed frontier and delivers its own removal
// while it completes the prefix, so it leads on, leaving, over the
// voters {B, the dead leader}, with B alone to follow it. That is no
// quorum, and A must abdicate as any leader does when a quorum of its
// voters goes silent; counting itself, though no voter of its own table,
// it used to lead on for good. Once the dead leader is back, B and it
// elect one of themselves and commit.
func TestScheduleLeavingLeaderAbdicates(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		s.write(l, 1)
		s.awaitDelivered(1, 4, s.ids()...)
		a := s.others(l)[0]
		s.route = func(from, to PeerID, msg Message) int64 {
			if msg.Kind == KindProposeBatch && to != a.id || msg.Kind == KindAck && from == a.id {
				return -1 // only A holds its removal, and the leader never hears so
			}
			return 50_000
		}
		s.reconfig(l, ReconfigChange{Action: ReconfigRemove, ID: a.id})
		s.idle(2)
		s.crash(l)
		s.route = nil
		s.await("A to lead on its own removal", failover, func() bool { return a.core.Role() == RoleLeading && a.core.leaving })
		s.await("A to abdicate", failover, func() bool { return a.core.Role() != RoleLeading })
		s.boot(l)
		next := s.elect(3 * failover)
		if next == a {
			s.failf("A leads again after its removal")
		}
		s.write(next, 1)
		s.awaitDelivered(3, 4, next.id, l.id)
	})
}

// TestScheduleLinksUpAfterFirstBroadcast (red list): every process of a
// TCP ensemble starts at once and campaigns before its dials complete,
// so every first vote is lost. A vote used to be sent once per
// adoption: nobody heard anybody, and the whole election timeout passed
// before the next round. A LOOKING peer now re-sends its vote on every
// tick, and the ensemble settles a few ticks after the links come up.
func TestScheduleLinksUpAfterFirstBroadcast(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		s.start()
		for _, p := range s.peers {
			s.isolate(p, true) // the boot broadcasts, just sent, were lost already
		}
		s.idle(1)
		for _, p := range s.peers {
			s.isolate(p, false)
		}
		// One tick to re-send, the votes' flight, the leader's first ping
		// and a sync: well inside the finalize wait plus three ticks.
		s.elect(2 + 3)
	})
}

// TestScheduleFreshEnsembleFirstWrite (red list, ~1/300 starts: one
// LEADING, two LOOKING, the first write fails). The winner finalizes at
// once when its tally is unanimous; the others, who each lack one
// adopted vote, sit out the finalize wait. A write in that window is
// refused — the leader has no synced quorum yet — and that is legal:
// LEADING is a role, not a promise to accept writes. The tests that
// failed waited for the role; they now wait for the followers too, as
// benchmark/ensemble.go does. What made the window 40 ms wide was not
// legal wear: the followers' FOLLOWERINFO reached the winner while it
// was still LOOKING and the retry was half an election timeout away;
// the winner's first ping now triggers it.
func TestScheduleFreshEnsembleFirstWrite(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		s.route = func(from, to PeerID, msg Message) int64 {
			if msg.Kind == KindVote && from != 3 && to != 3 {
				return 3 * simTick / 2 // 1 and 2 hear each other late
			}
			return 50_000
		}
		three := s.peer(3)
		s.await("3 to lead", 2, func() bool { return three.core.Role() == RoleLeading })
		if r1, r2 := s.peer(1).core.Role(), s.peer(2).core.Role(); r1 != RoleLooking || r2 != RoleLooking {
			s.failf("peers 1 and 2 are %s and %s, want both LOOKING while 3 already leads", r1, r2)
		}
		if err := s.propose(three, ztree.Txn{Type: ztree.TxnSetData, Path: "/k"}); err == nil {
			s.failf("a leader without a synced quorum accepted a write")
		}
		// The finalize wait, then the first ping: no half election
		// timeout in it.
		s.write(s.elect(2+3), 1)
		s.awaitDelivered(1, 4, s.ids()...)
	})
}

// TestScheduleStalledFollowerReadsBeforeItTicks (the hypothesis behind
// durable_write_sk's "2 elections started during the run", leader
// unchanged): a follower descheduled for longer than the election
// timeout wakes to a mailbox full of its leader's pings and a tick that
// fired long ago. Ticking first, it judges the leader silent and
// campaigns; the leader's next vote check stands it down too. Reading
// first — what Peer.onTick does — nothing happens at all.
func TestScheduleStalledFollowerReadsBeforeItTicks(t *testing.T) {
	for _, tickFirst := range []bool{false, true} {
		schedule(t, 3, 0, func(s *sim) {
			s.tickFirst = tickFirst
			l := s.elect(10)
			f := s.others(l)[0]
			elections := func() (n int64) {
				for _, p := range s.peers {
					n += p.core.StatsSnapshot().Elections
				}
				return n
			}
			before := elections()
			f.stalled = true
			s.idle(simElection/simTick + 4)
			s.unstall(f)
			s.idle(4)
			if started := elections() - before; (started > 0) != tickFirst {
				s.failf("tick first = %v: %d elections started", tickFirst, started)
			}
		})
	}
}

// TestScheduleRollbackThenRestart: a follower rolled back by a snapshot
// install restarts with that snapshot rotted. A leader loses the ACK of
// a write that one follower, A, holds; the leader dies; A wins on the
// ACKed frontier and delivers the write at once, but is cut off before
// anyone syncs with it. The others elect a leader without the write,
// which commits in its own epoch, so A, back, is synced by a snapshot
// that rolls the write back. A delivers on, dies, and its newest
// snapshot — the install's — decays. Recovery must refuse the disk: an
// older snapshot from before the install, and the log behind it, would
// replay the rolled-back write (storage's state-transfer rule removes
// both when it publishes the install).
func TestScheduleRollbackThenRestart(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		s.write(l, simSnapEvery+1) // a periodic snapshot everywhere
		s.awaitDelivered(simSnapEvery+1, 4, s.ids()...)
		a := s.others(l)[0]
		s.route = func(from, to PeerID, msg Message) int64 {
			if msg.Kind == KindProposeBatch && to != a.id || msg.Kind == KindAck && from == a.id {
				return -1 // only A holds the write, and the leader never hears so
			}
			return 50_000
		}
		s.write(l, 1)
		s.idle(2)
		s.crash(l)
		s.route = nil
		s.onRole = func(p *simPeer, role Role, leader PeerID) {
			if p == a && role == RoleLeading {
				s.isolate(a, true) // elected, and gone before anyone syncs
			}
		}
		s.await("A to lead on the write it acknowledged", failover, func() bool { return a.core.Role() == RoleLeading })
		if n := len(a.applied); n != simSnapEvery+2 {
			s.failf("A delivered %d txns on election, want the %d it acknowledged", n, simSnapEvery+2)
		}
		s.onRole = nil
		s.boot(l)
		var next *simPeer
		s.await("a leader without A", 3*failover, func() bool { next = s.leaderNow(); return next != nil && next != a })
		s.write(next, 1)
		s.awaitDelivered(simSnapEvery+2, 4, next.id)
		s.isolate(a, false)
		s.await("A to sync with it", 2*failover, func() bool {
			return a.core.Role() == RoleFollowing && a.core.followTarget == next.id && a.core.leaderSynced
		})
		if a.core.StatsSnapshot().Resyncs == 0 || a.lastApplied() != s.truth[len(s.truth)-1].zxid {
			s.failf("A is at %#x, want the snapshot at %#x", a.lastApplied(), s.truth[len(s.truth)-1].zxid)
		}
		s.write(next, 2)
		s.awaitDelivered(simSnapEvery+4, 4, s.ids()...)
		s.idle(2) // A's group commit
		s.crash(a)
		rotted := a.disk.rot("snapshot.")
		if _, _, err := s.recoverDisk(a); !errors.Is(err, storage.ErrCorruptRecord) {
			s.failf("A's recovery with %s rotted: %v, want it refused as corrupt", rotted, err)
		}
	})
}

// TestScheduleCrashAtEachPublishStep: a follower cut off for longer than
// the leader's log reaches comes back by a snapshot install, and its
// process dies at step k of publishing it — the tmp file's write and
// fsync, the removal of the replaced log, the rename, the removal of
// the replaced snapshot, the directory fsync — for every k until the
// publish completes. Each time it restarts from what recovery returns
// (recoverDisk checks it is a prefix of a log it held) and ends with the
// leader's log.
func TestScheduleCrashAtEachPublishStep(t *testing.T) {
	var steps []string
	for k := 1; ; k++ {
		died := ""
		schedule(t, 3, 0, func(s *sim) {
			l := s.elect(10)
			f := s.others(l)[0]
			s.write(l, simSnapEvery+2) // a periodic snapshot and a log behind it
			s.awaitDelivered(simSnapEvery+2, 4, s.ids()...)
			s.idle(2)
			s.isolate(f, true)
			for i := 0; i < simLogLimit+2; i++ {
				s.write(l, 1)
				s.idle(1)
			}
			n := len(s.truth)
			f.disk.dieIn = k
			s.isolate(f, false)
			s.await("the snapshot install", failover, func() bool { return !f.up() || len(f.applied) == n })
			died = f.disk.died
			s.awaitDelivered(n, 3*failover, s.ids()...)
			s.sameLog(n, s.ids()...)
		})
		if died == "" {
			break
		}
		if steps = append(steps, died); k > 50 {
			t.Fatalf("no publish completed within %d steps: %v", k, steps)
		}
	}
	for _, want := range []string{"write", "fsync", "remove", "rename", "dir fsync"} {
		if !slices.Contains(steps, want) {
			t.Errorf("no crash at a %s; the publish's steps were %v", want, steps)
		}
	}
	t.Logf("crashed at each of %d steps: %v", len(steps), steps)
}
