package zab

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"securekeeper/internal/storage"
	"securekeeper/internal/ztree"
)

// The simulated world: N cores, one virtual clock, one event heap keyed
// (virtual ns, seq) and one math/rand source — nothing else is random,
// nothing reads a real clock, and no map is ranged over, so a seed is a
// schedule. Each peer keeps its deliveries in storage's real log and
// snapshots, on a disk of its own (simdisk_test.go), group-committed by
// storage's own flush rule on the virtual clock, and a restart boots
// from what storage's recovery returns. sim_test.go holds what is
// checked after every event and the nemesis that decides which faults a
// seed injects.

const (
	simTick     = int64(5 * time.Millisecond)
	simElection = int64(80 * time.Millisecond)
	simLogLimit = 12 // small, so laggards recover by snapshot too

	simDir          = "wal"
	simSegmentBytes = 1024 // a few dozen records: several segments between snapshots
	simSnapEvery    = 32   // deliveries between periodic snapshots
)

// entry is one delivered transaction as the simulated application sees
// it: where it was ordered and which client request (or reconfig) it is.
type entry struct {
	zxid int64
	id   int64  // client sequence number, carried in Txn.Session
	data string // reconfig payload, "" otherwise
}

type simPeer struct {
	id   PeerID
	core *core // nil while crashed
	inc  int   // incarnation; events addressed to an older one are void
	// applied is the delivered log in memory; log writes it to disk, a
	// group commit at a time: rule is the persister's queue and flush
	// rule, and flight the flush under way (see pump).
	applied   []entry
	checked   int // applied[:checked] has been compared with the total order
	disk      *simDisk
	log       *storage.Log // nil while crashed
	rule      storage.GroupCommit[simRecord]
	flight    *simFlush
	sinceSnap int // deliveries since the last snapshot
	// before is applied as it was before a snapshot install whose
	// publish the process died in: what a restart may recover instead.
	before []entry
	// bootVoters/bootObservers is the membership the process is
	// (re)started under; see boot.
	bootVoters, bootObservers []PeerID
	stalled                   bool
	inbox                     []Message // arrivals while stalled
	parked                    []func()  // in link mode, what a stalled process does once it runs
	tickEvery                 int64     // per-peer tick skew
	activated                 bool      // leading with a synced quorum, as last observed
	lastRole                  Role      // as last reported by OnRoleChange
	electorate                []PeerID  // the voters it knew when it last began a step LOOKING
}

func (p *simPeer) up() bool { return p.core != nil }

// simRecord is what a peer queues for its group commit, as the
// persister does: a delivered transaction, with the periodic snapshot
// taken at it if one was due, or a state transfer's snapshot.
type simRecord struct {
	txn      ztree.Txn
	snap     *ztree.Snapshot
	zxid     int64 // snap's
	transfer bool
}

// simFlush is a flush under way: when it began, and the last snapshot
// of its batch, which it publishes once the records are synced.
type simFlush struct {
	start int64
	last  *simRecord
}

func (p *simPeer) lastApplied() int64 {
	if len(p.applied) == 0 {
		return 0
	}
	return p.applied[len(p.applied)-1].zxid
}

type event struct {
	at   int64
	seq  uint64
	peer PeerID
	inc  int
	tick bool
	msg  Message
	fn   func() // nemesis and client actions
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// traceRec is one line of the event trace: formatted only when a seed
// fails, hashed always.
type traceRec struct {
	at, seq    uint64
	what       string
	peer       PeerID
	msg        Message
	a, b       int64
	roles      [8]int8
	committeds [8]int64
}

type sim struct {
	rng   *rand.Rand
	now   int64
	seq   uint64
	q     eventHeap
	peers []*simPeer // sorted by id
	cuts  map[[2]PeerID]bool

	// Network weather, all zero once the faults stop.
	dropPct, dupPct, slowPct int
	// tickFirst makes a peer that wakes from a stall tick before it
	// reads its inbox — the order the driver had before it drained the
	// mailbox first. route, when set, replaces the weather: it returns
	// each message's delay, or a negative one to lose it. onRole sees
	// every role change. Directed schedules only.
	tickFirst bool
	route     func(from, to PeerID, msg Message) int64
	onRole    func(p *simPeer, role Role, leader PeerID)

	bootVoters, bootObservers []PeerID // the world's first configuration
	reconfigStage             int      // how far the joiner's add → promote → remove got

	truth     []entry // the one total order: everything anyone delivered
	ackedUpTo int     // truth[:ackedUpTo] holds every acknowledged txn
	nextID    int64
	proposed  map[int64]bool // client ids a leader accepted
	// voteSent and ackSent are what the network saw leave: every vote
	// (from, to, round, for) and each follower's highest ACK per leader.
	voteSent  map[[4]int64]bool
	ackSent   map[[2]PeerID]int64
	ledBy     map[int64][2]int // epoch → (peer, incarnation) that activated in it
	newestLed int64            // the highest such epoch

	events    int // events run
	recs      int // trace lines recorded
	hash      uint64
	trace     []traceRec                    // ring of the last *simTrace lines
	onDeliver func(p *simPeer, c Committed) // directed schedules hook in here

	// diskPct is the chance, in percent, that the nemesis lets a process
	// die inside a snapshot publish; stats counts what crashes did.
	diskPct int
	stats   diskStats

	// linked runs the link mode (simlink_test.go): wires join the peers
	// in place of the weather, and links counts what they did.
	linked bool
	wires  map[[2]PeerID]*simWire
	links  linkStats
}

type simFailure struct{ error }

func newSim(seed int64, voters, observers int) *sim {
	s := &sim{
		rng:      rand.New(rand.NewSource(seed)),
		now:      1,
		cuts:     make(map[[2]PeerID]bool),
		proposed: make(map[int64]bool),
		voteSent: make(map[[4]int64]bool),
		ackSent:  make(map[[2]PeerID]int64),
		ledBy:    make(map[int64][2]int),
		wires:    make(map[[2]PeerID]*simWire),
		hash:     14695981039346656037,
		trace:    make([]traceRec, *simTrace),
	}
	var vs, os []PeerID
	for i := 1; i <= voters; i++ {
		vs = append(vs, PeerID(i))
	}
	for i := 1; i <= observers; i++ {
		os = append(os, PeerID(voters+i))
	}
	s.bootVoters, s.bootObservers = vs, os
	for _, id := range append(append([]PeerID(nil), vs...), os...) {
		s.addPeer(id, vs, os)
	}
	return s
}

// addPeer registers a process that will run under the given membership;
// boot starts it.
func (s *sim) addPeer(id PeerID, voters, observers []PeerID) *simPeer {
	p := &simPeer{id: id, bootVoters: voters, bootObservers: observers, disk: newSimDisk(s.rng, &s.stats)}
	i := 0
	for i < len(s.peers) && s.peers[i].id < id {
		i++
	}
	s.peers = append(s.peers, nil)
	copy(s.peers[i+1:], s.peers[i:])
	s.peers[i] = p
	return p
}

func (s *sim) peer(id PeerID) *simPeer {
	for _, p := range s.peers {
		if p.id == id {
			return p
		}
	}
	return nil
}

func (s *sim) failf(format string, args ...any) {
	panic(simFailure{fmt.Errorf(format, args...)})
}

func (s *sim) schedule(at int64, e event) {
	s.seq++
	e.at, e.seq = at, s.seq
	heap.Push(&s.q, e)
}

func (s *sim) after(d int64, fn func()) { s.schedule(s.now+d, event{fn: fn}) }

// later runs fn after d unless p's process has died or restarted by then.
func (s *sim) later(p *simPeer, d int64, fn func()) {
	inc := p.inc
	s.after(d, func() {
		if p.up() && p.inc == inc {
			fn()
		}
	})
}

// simLink is one peer's Transport: Send hands the message to the
// simulated network; nothing is ever received from a channel — the
// simulator calls handle itself.
type simLink struct {
	s    *sim
	from PeerID
}

func (l simLink) Send(to PeerID, msg Message) error { l.s.send(l.from, to, msg); return nil }
func (l simLink) Receive() <-chan Message           { return nil }
func (l simLink) Close() error                      { return nil }
func (l simLink) AddPeer(id PeerID, addr string, observer bool) {
	l.s.record("addpeer", l.from, Message{}, int64(id), 0)
}
func (l simLink) RemovePeer(id PeerID) { l.s.record("rmpeer", l.from, Message{}, int64(id), 0) }

// boot (re)starts p from what storage's recovery returns from its disk.
// zab keeps no membership on disk: a process runs under the one its
// operator starts it with, and the operator knows what the ensemble
// confirmed, since every reconfig is submitted through the operator and
// acknowledged to them. A peer the ensemble no longer lists restarts as
// what it last was.
func (s *sim) boot(p *simPeer) {
	if voters, observers := s.membersAt(len(s.truth)); slices.Contains(voters, p.id) || slices.Contains(observers, p.id) {
		p.bootVoters, p.bootObservers = voters, observers
	}
	p.inc++
	log, lastZxid, err := s.recoverDisk(p)
	if err != nil {
		s.failf("peer %d cannot recover its disk: %v", p.id, err)
	}
	p.log = log
	p.stalled, p.inbox, p.parked, p.activated = false, nil, nil, false
	p.tickEvery = simTick * int64(90+s.rng.Intn(21)) / 100
	p.core = newCore(Config{
		ID:              p.id,
		Peers:           p.bootVoters,
		Observers:       p.bootObservers,
		Transport:       simLink{s, p.id},
		TickInterval:    time.Duration(simTick),
		ElectionTimeout: time.Duration(simElection),
		MaxLogEntries:   simLogLimit,
		LastZxid:        lastZxid,
		Deliver:         func(c Committed) { s.delivered(p, c) },
		Snapshot:        func() *ztree.Snapshot { return snapshotOf(p.applied) },
		Restore:         func(snap *ztree.Snapshot) { s.restored(p, snap) },
		OnRoleChange:    func(role Role, leader PeerID) { s.roleChanged(p, role, leader) },
	})
	s.record("boot", p.id, Message{}, p.lastApplied(), int64(p.inc))
	s.enter(p).start(s.now)
	s.schedule(s.now+int64(s.rng.Int63n(p.tickEvery)), event{peer: p.id, inc: p.inc, tick: true})
	if s.linked {
		s.plug(p)
	}
}

// recoverDisk runs storage's recovery over p's disk, rebuilding p.applied
// from the snapshot and records it hands back, and checks what it got:
// a prefix of the log the process held when it died — or, had it died
// publishing a snapshot install, of the one it held before — so it holds
// nothing the peer had not delivered, and what of it was compared with
// the total order still fits it.
func (s *sim) recoverDisk(p *simPeer) (*storage.Log, int64, error) {
	held, before := p.applied, p.before
	p.applied, p.before, p.sinceSnap, p.disk.died = nil, nil, 0, ""
	log, lastZxid, err := storage.OpenLog(p.disk, simDir, simSegmentBytes,
		func(snap *ztree.Snapshot) { p.applied, _ = entriesOf(snap) },
		func(txn *ztree.Txn) { p.applied = append(p.applied, entryOf(txn)) })
	switch {
	case err != nil:
		return nil, 0, err
	case lastZxid != p.lastApplied():
		s.failf("peer %d recovered a log ending at %#x as zxid %#x", p.id, p.lastApplied(), lastZxid)
	case isPrefix(p.applied, held):
		p.checked = min(p.checked, len(p.applied))
	case before != nil && isPrefix(p.applied, before):
		p.checked = 0
	default:
		s.failf("peer %d recovered %d txns up to %#x, not a prefix of the %d it held (up to %#x)",
			p.id, len(p.applied), lastZxid, len(held), lastOf(held))
	}
	return log, lastZxid, nil
}

// crash discards the core, its log and its commit queue; the disk keeps
// what a crash leaves (simDisk.crash).
func (s *sim) crash(p *simPeer) {
	if p.rule.Holding() {
		s.stats.inHold++
	}
	p.bootVoters, p.bootObservers = p.core.Membership()
	p.core, p.log, p.rule, p.flight = nil, nil, storage.GroupCommit[simRecord]{}, nil
	s.record("crash", p.id, Message{}, int64(len(p.applied)), 0)
	p.disk.crash()
	if s.linked {
		s.unplug(p)
	}
}

func isPrefix(a, b []entry) bool { return len(a) <= len(b) && slices.Equal(a, b[:len(a)]) }

func lastOf(log []entry) int64 {
	if len(log) == 0 {
		return 0
	}
	return log[len(log)-1].zxid
}

// snapshotOf packs a delivered log into a snapshot of one node, whose
// data holds each entry's zxid, id and reconfig payload; entriesOf
// unpacks it, and entryOf reads a logged transaction.
func snapshotOf(applied []entry) *ztree.Snapshot {
	var b []byte
	for _, e := range applied {
		b = binary.BigEndian.AppendUint64(b, uint64(e.zxid))
		b = binary.BigEndian.AppendUint64(b, uint64(e.id))
		b = binary.BigEndian.AppendUint16(b, uint16(len(e.data)))
		b = append(b, e.data...)
	}
	return &ztree.Snapshot{Nodes: []ztree.SnapshotNode{{Path: "/", Data: b}}}
}

// entriesOf reports ok=false for a snapshot snapshotOf did not make.
func entriesOf(snap *ztree.Snapshot) (log []entry, ok bool) {
	for _, n := range snap.Nodes {
		for b := n.Data; len(b) > 0; {
			if len(b) < 18 || len(b) < 18+int(binary.BigEndian.Uint16(b[16:])) {
				return nil, false
			}
			end := 18 + int(binary.BigEndian.Uint16(b[16:]))
			log = append(log, entry{zxid: int64(binary.BigEndian.Uint64(b)), id: int64(binary.BigEndian.Uint64(b[8:])), data: string(b[18:end])})
			b = b[end:]
		}
	}
	return log, true
}

func entryOf(txn *ztree.Txn) entry {
	e := entry{zxid: txn.Zxid, id: txn.Session}
	if txn.Type == ztree.TxnReconfig {
		e.data = string(txn.Data)
	}
	return e
}

func (s *sim) linkDown(a, b PeerID) bool {
	if a > b {
		a, b = b, a
	}
	return s.cuts[[2]PeerID{a, b}]
}

func (s *sim) cut(a, b PeerID, down bool) {
	if a > b {
		a, b = b, a
	}
	s.cuts[[2]PeerID{a, b}] = down
	if down && s.linked {
		s.sever(a, b)
	}
}

// send is the network: bookkeeping of what left, then loss, delay
// (which reorders) and duplication, each decided by the one rng — or, in
// link mode, the link between the two.
func (s *sim) send(from, to PeerID, msg Message) {
	msg.From = from
	switch msg.Kind {
	case KindVote:
		s.voteSent[[4]int64{int64(from), int64(to), msg.Epoch, int64(msg.VoteFor)}] = true
	case KindAck:
		if k := [2]PeerID{from, to}; msg.Zxid > s.ackSent[k] {
			s.ackSent[k] = msg.Zxid
		}
	}
	if s.linked {
		s.sendLinked(from, to, msg)
		return
	}
	dst := s.peer(to)
	if dst == nil || !dst.up() || s.peer(from).disk.died != "" || s.linkDown(from, to) || s.rng.Intn(100) < s.dropPct {
		s.record("lost", to, msg, 0, 0)
		return
	}
	if s.route != nil {
		if delay := s.route(from, to, msg); delay >= 0 {
			s.schedule(s.now+delay, event{peer: to, inc: dst.inc, msg: msg})
		} else {
			s.record("lost", to, msg, 0, 0)
		}
		return
	}
	copies := 1
	if s.rng.Intn(100) < s.dupPct {
		copies = 2
	}
	for ; copies > 0; copies-- {
		delay := 20_000 + s.rng.Int63n(200_000)
		if s.rng.Intn(100) < s.slowPct {
			delay += s.rng.Int63n(3 * simTick)
		}
		s.schedule(s.now+delay, event{peer: to, inc: dst.inc, msg: msg})
	}
}

// step runs the next event; it reports false when none is left.
func (s *sim) step() bool {
	if len(s.q) == 0 {
		return false
	}
	e := heap.Pop(&s.q).(event)
	s.now = e.at
	s.events++
	switch p := s.peer(e.peer); {
	case e.fn != nil:
		e.fn()
	case p == nil || !p.up() || p.inc != e.inc:
		return true // addressed to a process that is gone
	case e.tick:
		s.schedule(s.now+p.tickEvery, event{peer: p.id, inc: p.inc, tick: true})
		if !p.stalled {
			s.record("tick", p.id, Message{}, 0, 0)
			s.enter(p).tick(s.now)
		}
	case p.stalled:
		p.inbox = append(p.inbox, e.msg)
	default:
		s.record("recv", p.id, e.msg, 0, 0)
		s.enter(p).handle(s.now, e.msg)
	}
	s.check()
	return true
}

// enter returns p's core for one call of an entry point. Whoever wins
// an election inside that call wins it among the voters known now; the
// prefix it then delivers may change them.
func (s *sim) enter(p *simPeer) *core {
	if p.core.Role() == RoleLooking {
		p.electorate, _ = p.core.Membership()
	}
	return p.core
}

// run steps until the virtual clock passes until.
func (s *sim) run(until int64) {
	for len(s.q) > 0 && s.q[0].at <= until {
		s.step()
	}
	s.now = max(s.now, until)
}

// unstall wakes a stalled peer: its driver finds a full mailbox and a
// tick that fired long ago. The driver reads the mailbox first.
func (s *sim) unstall(p *simPeer) {
	if !p.up() || !p.stalled {
		return
	}
	p.stalled = false
	s.record("unstall", p.id, Message{}, int64(len(p.inbox)), 0)
	if s.tickFirst {
		s.enter(p).tick(s.now)
	}
	for _, msg := range p.inbox {
		s.enter(p).handle(s.now, msg)
	}
	p.inbox = nil
	parked := p.parked
	p.parked = nil
	for _, fn := range parked {
		fn()
	}
	if !s.tickFirst {
		s.enter(p).tick(s.now)
	}
}

// propose submits one client transaction at p, as Peer.Submit would
// between two wake-ups; the caller flushes.
func (s *sim) propose(p *simPeer, txn ztree.Txn) error {
	s.nextID++
	txn.Session = s.nextID
	err := p.core.propose(s.now, txn, Origin{Peer: p.id, Session: int64(p.inc)})
	if err == nil {
		s.proposed[s.nextID] = true
	}
	s.record("propose", p.id, Message{}, s.nextID, btoi(err == nil))
	return err
}

// flush ends a client burst at p: the driver's flush, with deliveries
// inside it marked as the leader committing its own proposals.
func (s *sim) flush(p *simPeer) {
	p.core.flush(s.now)
	s.check()
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// record appends to the trace and folds the event, and every peer's
// visible state after the previous one, into the hash.
func (s *sim) record(what string, peer PeerID, msg Message, a, b int64) {
	r := traceRec{at: uint64(s.now), seq: s.seq, what: what, peer: peer, msg: msg, a: a, b: b}
	for i, p := range s.peers {
		if i < len(r.roles) && p.up() {
			r.roles[i], r.committeds[i] = int8(p.core.Role()), p.core.LastCommitted()
		}
	}
	s.trace[s.recs%len(s.trace)] = r
	s.recs++
	mix := func(v uint64) { s.hash = (s.hash ^ v) * 1099511628211 }
	mix(r.at)
	mix(r.seq)
	for _, c := range []byte(what) {
		mix(uint64(c))
	}
	mix(uint64(peer))
	mix(uint64(msg.Kind))
	mix(uint64(msg.From))
	mix(uint64(msg.Epoch))
	mix(uint64(msg.Zxid))
	mix(uint64(msg.VoteFor))
	mix(uint64(msg.VoteZxid))
	mix(uint64(len(msg.Batch) + len(msg.Diff)))
	mix(uint64(a))
	mix(uint64(b))
	for i := range r.roles {
		mix(uint64(r.roles[i]))
		mix(uint64(r.committeds[i]))
	}
}

// dump formats the last events for a failing seed.
func (s *sim) dump() string {
	var b strings.Builder
	for i := max(0, s.recs-len(s.trace)); i < s.recs; i++ {
		r := &s.trace[i%len(s.trace)]
		fmt.Fprintf(&b, "%9.3fms #%-6d %-8s peer %d", float64(r.at)/1e6, r.seq, r.what, r.peer)
		if r.msg.Kind != 0 {
			fmt.Fprintf(&b, " %s from %d epoch %d zxid %#x", r.msg.Kind, r.msg.From, r.msg.Epoch, r.msg.Zxid)
			if r.msg.Kind == KindVote {
				fmt.Fprintf(&b, " for %d@%#x reply=%v", r.msg.VoteFor, r.msg.VoteZxid, r.msg.VoteReply)
			}
			if n := len(r.msg.Batch) + len(r.msg.Diff); n > 0 {
				fmt.Fprintf(&b, " records=%d", n)
			}
		}
		if r.a != 0 || r.b != 0 {
			fmt.Fprintf(&b, " (%d, %d)", r.a, r.b)
		}
		b.WriteString("  |")
		for j, p := range s.peers {
			if j < len(r.roles) {
				fmt.Fprintf(&b, " %d:%s@%#x", p.id, roleLetter(Role(r.roles[j])), r.committeds[j])
			}
		}
		b.WriteByte('\n')
	}
	for _, p := range s.peers {
		if !p.up() {
			fmt.Fprintf(&b, "peer %d: down, %d txns delivered before\n", p.id, len(p.applied))
			continue
		}
		c := p.core
		fmt.Fprintf(&b, "peer %d: %s of %d, epoch %d round %d, %d delivered, %d in flight, %d outstanding, synced=%v stalled=%v; rows:",
			p.id, c.Role(), c.followTarget, c.epoch, c.round, len(p.applied), len(c.inflight), len(c.outstanding), c.leaderSynced, p.stalled)
		for _, m := range c.members {
			fmt.Fprintf(&b, " %d{voter=%v synced=%v/%v acked=%#x vote=%d@%d gone=%v}", m.id, m.voter, m.synced, m.obsSynced, m.acked, m.vote.for_, m.vote.round, m.removeAt != 0)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func roleLetter(r Role) string {
	if r == 0 {
		return "down"
	}
	return r.String()[:4]
}
