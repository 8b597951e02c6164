package zab

import (
	"flag"
	"fmt"
	"slices"
	"testing"

	"securekeeper/internal/storage"
	"securekeeper/internal/ztree"
)

// What the simulator checks. SNIPPETS.md quotes ZooKeeper's promises;
// here they are, stated over what the simulated world can see:
//
//   - an epoch has one leader: LEADING is a claim any core can make on
//     a quorum of votes, a synced quorum is what lets it propose, and
//     no two cores ever gather one in the same epoch;
//   - a peer delivers in strictly ascending zxid order, and there is one
//     total order — what leaders with a synced quorum have delivered —
//     that every peer's log fits position by position; a snapshot
//     install never takes a confirmed delivery away (see fits);
//   - every acknowledged txn — delivered by the leader that proposed it,
//     which is when a client hears "ok" — is in the delivered log of any
//     leader at the moment it activates (has a synced quorum);
//   - the quorum switches exactly at a reconfig's zxid: when a leader
//     commits position i, a majority of the voters as of position i
//     (the leader and followers whose ACKs the network saw) holds it,
//     and a vote or frontier in a tally belongs to a voter's row;
//   - once the faults stop and everyone is connected, a leader activates
//     within simSettle and every transaction it then accepts commits,
//     everywhere;
//   - a restarted process recovers, from storage on its disk, a prefix
//     of a log it held (see recoverDisk): a crash can lose deliveries,
//     never invent or reorder them, and never bring back ones a
//     snapshot install rolled back.
//
// The nemesis keeps ZooKeeper's premise — fewer than a quorum of voters
// crashed at any instant — and one more condition this implementation
// needs, because zab keeps nothing of its own on disk (the WAL sees a
// txn only at Deliver): a follower acknowledges a proposal, and accepts
// an epoch, from memory. So a voter is crashed only where that cannot
// erase the last quorum copy — everything in the total order, and
// everything the victim has acknowledged, is held by a quorum of running
// voters not counting the victim — and only once the latest epoch shows
// in a delivered zxid. README "What zab promises, and when".
//
// The disk is a nemesis too. Each peer group-commits through the
// persister's own flush rule (storage.GroupCommit, see pump), on the
// virtual clock, with device times drawn from the rng; a leader's
// deliveries of its own proposals are the requests it counts. A process
// may die in its group commit, with the write out and the fsync not
// returned; inside a hold, with deliveries queued that no flush has
// taken; or at any step of a snapshot publish. A crash tears unsynced
// bytes and reverts names no directory fsync covered (simdisk_test.go).

var (
	simSeeds = flag.Int("zabsim.seeds", 0, "random schedules in TestSimSweep (0: 2400, or 240 under -race or -short)")
	simSeed  = flag.Int64("zabsim.seed", 0, "replay this one seed in TestSimSweep, verbosely")
	simTrace = flag.Int("zabsim.trace", 200, "trace lines a failing seed prints")
)

const (
	simChaos  = 120 * simTick // faults and traffic
	simSettle = 3 * simElection
	simJoiner = PeerID(8)
)

func (s *sim) delivered(p *simPeer, c Committed) {
	if p.disk.died != "" {
		return // the process is dead; what its core still does is void
	}
	e := entryOf(&c.Txn)
	if e.zxid <= p.lastApplied() {
		s.failf("peer %d delivered %#x after %#x: not ascending", p.id, e.zxid, p.lastApplied())
	}
	p.applied = append(p.applied, e)
	rec := simRecord{txn: c.Txn}
	if p.sinceSnap++; p.sinceSnap >= simSnapEvery {
		rec.snap, rec.zxid, p.sinceSnap = snapshotOf(p.applied), e.zxid, 0
	}
	// The leader's delivery of its own proposal is a request: its client
	// waits on the flush, as a replica's session does on Persister.Record.
	// (A sim peer's rule is never failed or closed: Record cannot refuse.)
	own := c.Origin.Peer == p.id && c.Origin.Session == int64(p.inc)
	if wake, _ := p.rule.Record(rec, own); wake {
		s.later(p, 0, func() { s.pump(p) })
	}
	s.record("deliver", p.id, Message{}, e.zxid, e.id)
	role, l := p.core.Role(), s.peer(p.core.followTarget)
	if p.activated || (role == RoleFollowing || role == RoleObserving) && l != nil && l.up() && l.activated {
		s.fits(p) // delivered by, or from, a leader with a synced quorum
	}
	if own && p.activated {
		// The leader that proposed it commits it: the client hears "ok".
		s.quorumHeld(p, len(p.applied)-1)
		s.confirm(p)
		s.ackedUpTo = max(s.ackedUpTo, len(p.applied))
	}
	if s.onDeliver != nil {
		s.onDeliver(p, c)
	}
}

// confirm makes everything p has delivered part of the one total order.
// p leads with a synced quorum: what it holds, a quorum holds.
func (s *sim) confirm(p *simPeer) {
	s.fits(p)
	s.truth = append(s.truth, p.applied[min(len(s.truth), len(p.applied)):]...)
}

// fits checks p's log against the total order as far as both reach. A
// leader delivers the prefix it acknowledged as soon as it is elected,
// and whoever syncs with it before a quorum has receives it too: such a
// delivery is not yet confirmed, and one that never is must be gone, by
// a snapshot install, before its holder delivers anything from a leader
// that has a quorum.
func (s *sim) fits(p *simPeer) {
	for ; p.checked < min(len(p.applied), len(s.truth)); p.checked++ {
		if got, want := p.applied[p.checked], s.truth[p.checked]; got != want {
			s.failf("peer %d holds (%#x, txn %d) at position %d of %d, where the order has (%#x, txn %d)",
				p.id, got.zxid, got.id, p.checked, len(p.applied), want.zxid, want.id)
		}
	}
}

// pump is p's commit goroutine, woken: it asks p's flush rule — the
// persister's own, storage.GroupCommit — what to do now, on the virtual
// clock. A hold asks again at its bound; a flush lasts a device time
// drawn from the rng, then asks again.
func (s *sim) pump(p *simPeer) {
	switch st := p.rule.Next(s.now); st.Act {
	case storage.Hold:
		s.record("hold", p.id, Message{}, st.Until, 0)
		s.later(p, st.Until-s.now, func() { s.pump(p) })
	case storage.Flush:
		f := s.startFlush(p, st)
		s.later(p, 1+s.rng.Int63n(simTick), func() {
			if p.flight == f {
				s.endFlush(p)
				s.pump(p)
			}
		})
	}
}

// startFlush takes the batch the rule handed over and appends its
// records, which reach the disk when the flush ends (endFlush).
func (s *sim) startFlush(p *simPeer, st storage.Step[simRecord]) *simFlush {
	switch st.Ended {
	case storage.ByRequests:
		s.stats.byRequests++
	case storage.ByBound:
		s.stats.byBound++
	}
	f := &simFlush{start: s.now}
	for i := range st.Batch {
		r := &st.Batch[i]
		if !r.transfer {
			s.logged(p, p.log.Append(&r.txn))
		}
		if r.snap != nil {
			f.last = r
		}
	}
	s.record("flush", p.id, Message{}, int64(len(st.Batch)), int64(st.Ended))
	p.flight = f
	return f
}

// endFlush completes p's flush as the persister's commitBatch does: one
// write and one fsync cover every record in it, and then the batch's
// last snapshot — a periodic one, or a state transfer — is published.
func (s *sim) endFlush(p *simPeer) {
	f := p.flight
	p.flight = nil
	s.logged(p, p.log.Sync())
	if f.last != nil && p.disk.died == "" {
		s.publish(p, f.last.snap, f.last.zxid, f.last.transfer)
	}
	p.rule.Flushed(s.now, s.now-f.start)
}

// logged fails the world on a storage error, unless p's process died.
func (s *sim) logged(p *simPeer, err error) {
	if err != nil && p.disk.died == "" {
		s.failf("peer %d: %v", p.id, err)
	}
}

// publish writes a snapshot through storage. Now and then, within the
// crash budget, the process dies at one of the publish's steps.
func (s *sim) publish(p *simPeer, snap *ztree.Snapshot, zxid int64, transfer bool) {
	if s.rng.Intn(100) < s.diskPct && s.mayCrash(p) {
		p.disk.dieIn = 1 + s.rng.Intn(12)
	}
	s.logged(p, p.log.Snapshot(snap, zxid, transfer))
	if p.disk.died != "" {
		s.stats.midPublish++
		s.record("died", p.id, Message{}, zxid, btoi(transfer))
	}
	p.disk.dieIn = 0
}

// restored installs a leader's snapshot and publishes it as the peer's
// history on disk, as a durable replica does before it goes on.
func (s *sim) restored(p *simPeer, snap *ztree.Snapshot) {
	if p.disk.died != "" {
		return
	}
	log, ok := entriesOf(snap)
	switch {
	case !ok:
		s.failf("peer %d installed a snapshot no peer made", p.id)
	case len(log) < p.checked:
		s.failf("peer %d installed a snapshot of %d txns over %d confirmed ones", p.id, len(log), p.checked)
	}
	p.before = p.applied
	p.applied, p.checked, p.sinceSnap = log, 0, 0
	s.record("restore", p.id, Message{}, p.lastApplied(), int64(len(p.applied)))
	// A replica's zab loop blocks in Persister.Snapshot until the transfer
	// is published: the flush under way ends first, then the transfer goes
	// down with whatever was queued before it, never held.
	if p.flight != nil {
		s.endFlush(p)
	}
	_ = p.rule.Snapshot(simRecord{snap: snap, zxid: p.core.LastCommitted(), transfer: true}) // cannot refuse, as Record
	st := p.rule.Next(s.now)
	if st.Act != storage.Flush {
		s.failf("peer %d: the flush rule answered %d to a state transfer", p.id, st.Act)
	}
	s.startFlush(p, st)
	if s.endFlush(p); p.disk.died == "" {
		p.before = nil
	}
}

func (s *sim) roleChanged(p *simPeer, role Role, leader PeerID) {
	s.record("role", p.id, Message{}, int64(role), int64(leader))
	if s.onRole != nil {
		s.onRole(p, role, leader)
	}
	if role == RoleRemoved && p.lastRole == RoleLeading && p.core.leaving {
		s.activates(p) // it led just long enough to hand on its own removal
	}
	p.lastRole = role
	if role != RoleLeading {
		return
	}
	// Elected: a quorum of its voters sent it a vote naming it in this
	// round — and no one else's vote can have counted.
	voters := p.electorate
	n := 0
	for _, v := range voters {
		if v == p.id || s.voteSent[[4]int64{int64(v), int64(p.id), p.core.round, int64(p.id)}] {
			n++
		}
	}
	if n < len(voters)/2+1 {
		s.failf("peer %d leads epoch %d on %d votes of %v", p.id, p.core.epoch, n, voters)
	}
}

// votersAt returns the voter set under which position i is decided.
func (s *sim) votersAt(i int) []PeerID {
	voters, _ := s.membersAt(i)
	return voters
}

// membersAt replays the boot membership and every reconfig before
// position i of the total order.
func (s *sim) membersAt(i int) (voters, observers []PeerID) {
	voters, observers = slices.Clone(s.bootVoters), slices.Clone(s.bootObservers)
	for _, e := range s.truth[:i] {
		if e.data == "" {
			continue
		}
		ch, err := DecodeReconfigChange([]byte(e.data))
		if err != nil {
			s.failf("undecodable reconfig in the log: %v", err)
		}
		isVoter, isObserver := slices.Contains(voters, ch.ID), slices.Contains(observers, ch.ID)
		switch {
		case ch.Action == ReconfigAdd && !isVoter && !isObserver:
			observers = append(observers, ch.ID)
		case ch.Action == ReconfigPromote && isObserver:
			observers = slices.DeleteFunc(observers, func(id PeerID) bool { return id == ch.ID })
			voters = append(voters, ch.ID)
		case ch.Action == ReconfigRemove:
			drop := func(id PeerID) bool { return id == ch.ID }
			voters, observers = slices.DeleteFunc(voters, drop), slices.DeleteFunc(observers, drop)
		}
	}
	return voters, observers
}

// quorumHeld checks, as leader p commits position i, that a majority of
// the voters as of i acknowledged it.
func (s *sim) quorumHeld(p *simPeer, i int) {
	voters, zxid := s.votersAt(i), p.applied[i].zxid
	n := 0
	for _, v := range voters {
		if v == p.id || s.ackSent[[2]PeerID{v, p.id}] >= zxid {
			n++
		}
	}
	if n < len(voters)/2+1 {
		s.failf("leader %d committed %#x held by %d of the voters %v as of that zxid", p.id, zxid, n, voters)
	}
}

// check runs after every event. A process whose disk died under it in
// the event goes first, as if at that instant: what it did after is
// void (send and delivered drop it).
func (s *sim) check() {
	for _, p := range s.peers {
		if p.up() && p.disk.died != "" {
			s.kill(p)
		}
	}
	for _, p := range s.peers {
		if !p.up() {
			continue
		}
		c := p.core
		leading := c.Role() == RoleLeading
		for j := range c.members {
			if m := &c.members[j]; !m.voter && (m.synced || m.acked != 0 || m.vote.round == c.round && c.round != 0) {
				s.failf("peer %d: non-voter %d is in a tally (synced %v, acked %#x, vote %+v)", p.id, m.id, m.synced, m.acked, m.vote)
			}
		}
		synced, quorum := c.syncedQuorum()
		active := leading && synced >= quorum
		if active && !p.activated {
			s.activates(p)
		}
		p.activated = active
	}
}

// activates records that p has gathered a synced quorum in its epoch.
func (s *sim) activates(p *simPeer) {
	c := p.core
	s.record("active", p.id, Message{}, c.epoch, 0)
	if by, taken := s.ledBy[c.epoch]; taken && by != [2]int{int(p.id), p.inc} {
		s.failf("peer %d (incarnation %d) activates in epoch %d, which peer %d (incarnation %d) led", p.id, p.inc, c.epoch, by[0], by[1])
	}
	s.ledBy[c.epoch] = [2]int{int(p.id), p.inc}
	// (A deposed leader can still gather a "quorum" of handshakes sent
	// before its followers left; they will not acknowledge what it
	// proposes, and nothing is claimed for it.)
	if c.epoch >= s.newestLed {
		s.newestLed = c.epoch
		s.confirm(p)
		if len(p.applied) < s.ackedUpTo {
			s.failf("leader %d activated in epoch %d with %d txns delivered; %d were acknowledged", p.id, c.epoch, len(p.applied), s.ackedUpTo)
		}
	}
}

// holders counts the running voters other than victim that hold all
// of the total order and everything victim has acknowledged — an ACK
// may still be on its way to a leader who will commit on it —
// delivered, acknowledged in flight or, on the leader, proposed.
func (s *sim) holders(voters []PeerID, victim *simPeer) int {
	upTo := victim.core.ackFrontier()
	if len(s.truth) > 0 {
		upTo = max(upTo, s.truth[len(s.truth)-1].zxid)
	}
	n := 0
	for _, v := range voters {
		p := s.peer(v)
		if p == nil || p == victim || !p.up() {
			continue
		}
		c := p.core
		proposed := c.Role() == RoleLeading && len(c.outstanding) > 0 && c.outstanding[len(c.outstanding)-1].rec.Txn.Zxid >= upTo
		if p.lastApplied() >= upTo || c.ackFrontier() >= upTo || proposed {
			n++
		}
	}
	return n
}

// epochsShow reports whether the latest epoch any running core has
// accepted already has a transaction in the total order. Until then
// nothing that survives a crash says the epoch is taken.
func (s *sim) epochsShow() bool {
	shown := int64(0)
	if len(s.truth) > 0 {
		shown = EpochOf(s.truth[len(s.truth)-1].zxid)
	}
	for _, p := range s.peers {
		if p.up() && p.core.epoch > shown {
			return false
		}
	}
	return true
}

// leaderNow returns the activated leader of the highest epoch, if any.
func (s *sim) leaderNow() *simPeer {
	var best *simPeer
	for _, p := range s.peers {
		if p.up() && p.activated && !p.stalled && (best == nil || p.core.epoch > best.core.epoch) {
			best = p
		}
	}
	return best
}

// client proposes a small burst at whoever leads, like sessions whose
// writes reach the leader between two of its wake-ups.
func (s *sim) client() {
	if p := s.leaderNow(); p != nil {
		for n := 1 + s.rng.Intn(3); n > 0; n-- {
			_ = s.propose(p, ztree.Txn{Type: ztree.TxnSetData, Path: "/k"})
		}
		s.flush(p)
	}
}

// reconfigure walks one joiner through add → boot → promote → remove
// (of the joiner or of another voter), one step per call, each step
// validated and proposed at whoever leads now.
func (s *sim) reconfigure() {
	l := s.leaderNow()
	if l == nil {
		return
	}
	submit := func(ch ReconfigChange) bool {
		if l.core.ValidateReconfig(ch) != nil {
			return false
		}
		err := s.propose(l, ztree.Txn{Type: ztree.TxnReconfig, Data: ch.Encode()})
		s.flush(l)
		return err == nil
	}
	switch j := s.peer(simJoiner); {
	case s.reconfigStage == 0:
		if submit(ReconfigChange{Action: ReconfigAdd, ID: simJoiner}) {
			s.reconfigStage = 1
		}
	case s.reconfigStage == 1:
		voters, observers := l.core.Membership()
		if slices.Contains(observers, simJoiner) {
			if j == nil {
				j = s.addPeer(simJoiner, voters, observers)
			}
			if !j.up() {
				s.boot(j)
			}
			s.reconfigStage = 2
		}
	case s.reconfigStage == 2:
		if submit(ReconfigChange{Action: ReconfigPromote, ID: simJoiner}) {
			s.reconfigStage = 3
		}
	case s.reconfigStage == 3:
		voters, _ := l.core.Membership()
		victim := voters[s.rng.Intn(len(voters))]
		if victim != l.id && submit(ReconfigChange{Action: ReconfigRemove, ID: victim}) {
			s.reconfigStage = 4
		}
	}
}

// mayCrash is the crash budget: p may die now without taking the last
// quorum copy of anything with it (see the top of this file).
func (s *sim) mayCrash(p *simPeer) bool {
	voters := s.votersAt(len(s.truth))
	quorum := len(voters)/2 + 1
	down := 0
	for _, v := range voters {
		if q := s.peer(v); q == nil || !q.up() || q.disk.died != "" {
			down++
		}
	}
	isVoter := slices.Contains(voters, p.id)
	return p.up() && p.disk.died == "" && p.core.Role() != RoleRemoved && (!isVoter || down+1 < quorum && s.holders(voters, p) >= quorum && s.epochsShow())
}

// kill crashes p and restarts it a while later.
func (s *sim) kill(p *simPeer) {
	s.crash(p)
	s.after(s.rng.Int63n(2*simElection), func() {
		if !p.up() {
			s.boot(p)
		}
	})
}

// nemesis injects one fault, or lifts one.
func (s *sim) nemesis() {
	p := s.peers[s.rng.Intn(len(s.peers))]
	switch s.rng.Intn(12) {
	case 0, 1: // crash, within the budget
		if !s.mayCrash(p) {
			break
		}
		if p.flight != nil && s.rng.Intn(2) == 0 {
			// It dies in its group commit: the write went out, the fsync
			// never returned.
			p.disk.dieIn = 2
			_ = p.log.Sync()
		}
		s.kill(p)
	case 2, 3: // cut a link for a while
		o := s.peers[s.rng.Intn(len(s.peers))]
		s.cut(p.id, o.id, true)
		s.record("cut", p.id, Message{}, int64(o.id), 0)
		s.after(s.rng.Int63n(2*simElection), func() { s.cut(p.id, o.id, false) })
	case 4: // partition p off entirely
		s.record("isolate", p.id, Message{}, 0, 0)
		for _, o := range s.peers {
			s.cut(p.id, o.id, true)
		}
		s.after(s.rng.Int63n(2*simElection), func() {
			for _, o := range s.peers {
				s.cut(p.id, o.id, false)
			}
		})
	case 5: // stall: no events for a while, the inbox keeps filling
		if p.up() && !p.stalled {
			p.stalled = true
			s.record("stall", p.id, Message{}, 0, 0)
			s.after(s.rng.Int63n(2*simElection), func() { s.unstall(p) })
		}
	case 6, 7: // the weather changes
		s.dropPct, s.dupPct, s.slowPct = s.rng.Intn(12), s.rng.Intn(6), s.rng.Intn(25)
	case 8, 9, 10:
		s.reconfigure()
	}
}

// runSeed plays one random schedule and returns its trace hash, or the
// first violated invariant.
func runSeed(seed int64, nVoters, nObservers int) (s *sim, err error) {
	s = newSim(seed, nVoters, nObservers)
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(simFailure)
			if !ok {
				panic(r)
			}
			err = f
		}
	}()
	for _, p := range s.peers {
		s.boot(p)
	}
	var chaos func()
	chaos = func() {
		if s.now < simChaos {
			s.nemesis()
			s.after(simTick/2+s.rng.Int63n(4*simTick), chaos)
		}
	}
	var traffic func()
	traffic = func() {
		if s.now < simChaos+simSettle+20*simTick {
			s.client()
			s.after(simTick/8+s.rng.Int63n(simTick), traffic)
		}
	}
	s.after(s.rng.Int63n(10*simTick), chaos)
	s.after(s.rng.Int63n(10*simTick), traffic)
	s.diskPct = 10
	s.run(simChaos)

	// The faults stop: links heal, the weather clears, whoever is down
	// or stalled comes back (the pending restarts still fire, harmlessly).
	s.record("calm", 0, Message{}, 0, 0)
	s.dropPct, s.dupPct, s.slowPct, s.diskPct = 0, 0, 0, 0
	s.cuts = make(map[[2]PeerID]bool)
	voters, observers := s.membersAt(len(s.truth))
	for _, p := range s.peers {
		if p.up() && p.core.Role() == RoleRemoved && (slices.Contains(voters, p.id) || slices.Contains(observers, p.id)) {
			// Parked, yet a member: elected, it delivered a removal of
			// itself that only it held, and no quorum ever synced with
			// it. The operator's remedy for a parked peer is a restart.
			s.crash(p)
		}
		if !p.up() {
			s.boot(p)
		}
		s.unstall(p)
	}
	s.run(simChaos + simSettle)
	l := s.leaderNow()
	if l == nil {
		s.failf("no leader activated within %d ticks of the faults stopping", simSettle/simTick)
	}
	before := s.nextID
	s.run(simChaos + simSettle + 40*simTick)
	if s.leaderNow() != l {
		s.failf("leader %d did not hold once the faults had stopped", l.id)
	}
	for id := before + 1; id <= s.nextID; id++ {
		if s.proposed[id] && !slices.ContainsFunc(s.truth, func(e entry) bool { return e.id == id }) {
			s.failf("txn %d, accepted by leader %d after the faults stopped, never committed", id, l.id)
		}
	}
	voterNow, observerNow := l.core.Membership()
	for _, id := range append(voterNow, observerNow...) {
		p := s.peer(id)
		if p == nil || p.core.Role() == RoleRemoved {
			// Parked until an operator restarts it. (It can be parked and
			// a member still: elected, it delivered a removal of itself
			// that only it held, and lost the lead before a quorum synced.)
			continue
		}
		if s.fits(p); len(p.applied) != len(s.truth) {
			s.failf("member %d delivered %d of %d txns after the faults stopped (role %s)", id, len(p.applied), len(s.truth), p.core.Role())
		}
	}
	return s, nil
}

// simShapes are the ensembles the sweep alternates over: voters, observers.
var simShapes = [][2]int{{3, 0}, {5, 0}, {3, 1}, {5, 2}}

// TestSimSweep runs random schedules over 3- and 5-voter ensembles with
// and without observers. -zabsim.seed=N replays seed N (on every shape)
// and prints its trace; -zabsim.seeds=N widens the sweep.
func TestSimSweep(t *testing.T) {
	n := *simSeeds
	if n == 0 {
		n = 2400
		if testing.Short() || raceEnabled {
			n = 240
		}
	}
	first := int64(1)
	if *simSeed != 0 {
		first, n = *simSeed, 1
	}
	events := 0
	var disk diskStats
	var failed []int64
	for seed := first; seed < first+int64(n); seed++ {
		shape := simShapes[seed%int64(len(simShapes))]
		s, err := runSeed(seed, shape[0], shape[1])
		events += s.events
		disk.add(s.stats)
		if err != nil || *simSeed != 0 {
			t.Logf("last %d events of seed %d (%d voters, %d observers):\n%s", *simTrace, seed, shape[0], shape[1], s.dump())
		}
		if err != nil {
			failed = append(failed, seed)
			t.Errorf("seed %d, %d voters + %d observers, after %d events: %v\nreplay: go test ./internal/zab -run 'TestSimSweep$' -zabsim.seed=%d",
				seed, shape[0], shape[1], s.events, err, seed)
		}
	}
	t.Logf("%d seeds, %d events; the disks saw %d torn tails, %d crashes that lost unsynced writes, %d that reverted names, %d mid-publish; "+
		"the flush rules' holds ended %d times by requests and %d by the bound, and %d crashes came inside one",
		n, events, disk.torn, disk.lost, disk.reverted, disk.midPublish, disk.byRequests, disk.byBound, disk.inHold)
	if len(failed) > 0 {
		t.Errorf("%d of %d seeds failed: %v", len(failed), n, failed)
	}
	// Neither the disk nemesis nor the flush rule may go quiet unnoticed.
	if *simSeed == 0 && (disk.torn == 0 || disk.lost == 0 || disk.reverted == 0 || disk.midPublish == 0 ||
		disk.byRequests == 0 || disk.byBound == 0 || disk.inHold == 0) {
		t.Errorf("a kind of disk fault or hold never happened over %d seeds: %+v", n, disk)
	}
}

// TestSimSameSeedSameTrace: a seed is a schedule — two runs of one seed
// produce the same events, in the same order, with the same effects.
func TestSimSameSeedSameTrace(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a, errA := runSeed(seed, 5, 2)
		b, errB := runSeed(seed, 5, 2)
		if a.hash != b.hash || a.events != b.events || fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("seed %d: trace hash %#x after %d events (%v), then %#x after %d (%v)", seed, a.hash, a.events, errA, b.hash, b.events, errB)
		}
	}
}
