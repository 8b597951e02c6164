package zab

import (
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/zabnet/link"
)

// The simulator's link mode. In place of the weather, every pair of
// peers is joined by the mesh's own link rules: one link.Core at each
// end, the core zabnet.Mesh drives over TCP, here driven on the virtual
// clock. A message is serialized with zab's wire codec, queued whole or
// shed whole, fragmented past simChunkBytes, written by its end's writer
// in the order queued, and reassembled and decoded at the other end. A
// cut or a crash takes the connection down at both ends and loses what
// was queued on it; the higher id redials when its core says (at once
// after a live link died, out a backoff after a failed attempt). A
// stalled peer is a stopped process: it neither reads nor writes, so
// its peers' writers block on it, their queues fill, and they shed.
// What the lossy mode cannot show is exactly this: FIFO links that lose
// messages only whole and only at a shed or a reconnect, the gaps zab's
// resync exists for.

// The links' limits are scaled down, as simLogLimit is, so that what
// they guard happens within a run; like the mesh's, the queue holds the
// largest message the world makes (a snapshot of about 1500 txns).
const (
	simOutboxFrames = 64   // small, so the links to a stopped peer fill and shed
	simChunkBytes   = 1024 // small, so snapshots and proposal batches fragment
)

// simWire is the connection between two peers: both ends' cores, the
// lower id's first, whether they are connected, and the number of the
// connection — events of an older one are void.
type simWire struct {
	peers [2]*simPeer
	ends  [2]*link.Core
	up    bool
	gen   int
	busy  [2]bool // a write from that end is under way
	ever  bool    // connected before: the next link-up is a reconnect
}

// linkStats counts what the links did over a run.
type linkStats struct{ shed, down, reconnects, fragmented int }

func (st *linkStats) add(o linkStats) {
	st.shed += o.shed
	st.down += o.down
	st.reconnects += o.reconnects
	st.fragmented += o.fragmented
}

func newSimCore() *link.Core { return link.New(simOutboxFrames, simChunkBytes) }

// wire returns the connection between a and b, made on first use.
func (s *sim) wire(a, b PeerID) *simWire {
	if a > b {
		a, b = b, a
	}
	w := s.wires[[2]PeerID{a, b}]
	if w == nil {
		w = &simWire{peers: [2]*simPeer{s.peer(a), s.peer(b)}, ends: [2]*link.Core{newSimCore(), newSimCore()}}
		s.wires[[2]PeerID{a, b}] = w
	}
	return w
}

func (w *simWire) end(id PeerID) int {
	if id == w.peers[0].id {
		return 0
	}
	return 1
}

// sendLinked queues msg on from's end of the wire to to.
func (s *sim) sendLinked(from, to PeerID, msg Message) {
	if s.peer(to) == nil || s.peer(from).disk.died != "" {
		s.record("lost", to, msg, 0, 0)
		return
	}
	w := s.wire(from, to)
	i := w.end(from)
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	msg.Serialize(e)
	switch w.ends[i].Enqueue(e.Bytes()) {
	case link.Queued:
		if e.Len() > simChunkBytes {
			s.links.fragmented++
		}
		s.kick(w, i)
	case link.Shed:
		s.links.shed++
		s.record("shed", to, msg, 0, 0)
	case link.Down:
		s.links.down++
		s.record("lost", to, msg, 0, 0)
	}
}

// kick wakes the writer at end i of w, unless it is writing.
func (s *sim) kick(w *simWire, i int) {
	if !w.busy[i] {
		w.busy[i] = true
		gen := w.gen
		s.after(0, func() { s.writer(w, i, gen) })
	}
}

// writer is the writer at end i: it takes every frame queued and puts
// them on the wire, which carries them to the other end. The write
// completes when that end has read them.
func (s *sim) writer(w *simWire, i, gen int) {
	switch src := w.peers[i]; {
	case w.gen != gen:
	case src.stalled:
		src.parked = append(src.parked, func() { s.writer(w, i, gen) })
	default:
		frames := w.ends[i].Take()
		if len(frames) == 0 {
			w.busy[i] = false
			return
		}
		s.after(20_000+s.rng.Int63n(200_000), func() { s.reader(w, i, gen, frames) })
	}
}

// reader is the reader at the end opposite i: each message the frames
// complete is decoded and handled, and then the writer at i learns its
// write is done. The invariants are checked once the event is over, as
// for a stalled peer's mailbox (a process whose disk died meanwhile
// acts on, void, until then).
func (s *sim) reader(w *simWire, i, gen int, frames [][]byte) {
	dst := w.peers[1-i]
	switch {
	case w.gen != gen:
		return
	case dst.stalled:
		dst.parked = append(dst.parked, func() { s.reader(w, i, gen, frames) })
		return
	}
	for _, f := range frames {
		body, err := w.ends[1-i].Received(f)
		if err != nil {
			s.failf("peer %d: the link from %d broke its framing: %v", dst.id, w.peers[i].id, err)
		}
		if body == nil {
			continue
		}
		var msg Message
		var d wire.Decoder
		d.Reset(body)
		if err := d.Finish(msg.Deserialize(&d)); err != nil {
			s.failf("peer %d: undecodable %d-byte message from %d: %v", dst.id, len(body), w.peers[i].id, err)
		}
		msg.From = w.peers[i].id
		s.record("recv", dst.id, msg, 0, 0)
		s.enter(dst).handle(s.now, msg)
	}
	w.ends[i].Wrote(len(frames))
	w.busy[i] = false
	if w.ends[i].Depth() > 0 {
		s.kick(w, i)
	}
}

// sever takes the connection between a and b down, if there is one:
// both ends lose what they queued, and the higher id starts redialing.
func (s *sim) sever(a, b PeerID) {
	w := s.wires[[2]PeerID{min(a, b), max(a, b)}]
	if a == b || w == nil || !w.up {
		return
	}
	w.up, w.busy, w.gen = false, [2]bool{}, w.gen+1
	w.ends[0].Down(s.now)
	w.ends[1].Down(s.now)
	s.record("linkdown", w.peers[0].id, Message{}, int64(w.peers[1].id), 0)
	s.redial(w)
}

// redial schedules the higher id's next dial attempt, when its core says.
func (s *sim) redial(w *simWire) {
	hi, gen := w.peers[1], w.gen
	inc := hi.inc
	s.schedule(w.ends[1].Next(s.now), event{fn: func() { s.dial(w, inc, gen) }})
}

// dial is one attempt of the higher id's dial loop. It connects when
// both processes run and no cut is between them, and fails otherwise.
func (s *sim) dial(w *simWire, inc, gen int) {
	lo, hi := w.peers[0], w.peers[1]
	switch {
	case !hi.up() || hi.inc != inc || w.up || w.gen != gen:
	case hi.stalled:
		hi.parked = append(hi.parked, func() { s.dial(w, inc, gen) })
	case lo.up() && !lo.stalled && !s.linkDown(lo.id, hi.id):
		w.up, w.gen = true, w.gen+1
		w.ends[0].Up()
		w.ends[1].Up()
		if w.ever {
			s.links.reconnects++
		}
		w.ever = true
		s.record("linkup", lo.id, Message{}, int64(hi.id), 0)
	default:
		w.ends[1].Down(s.now) // the attempt failed
		s.redial(w)
	}
}

// plug starts a booted process's dial loops, toward every lower id.
func (s *sim) plug(p *simPeer) {
	for _, q := range s.peers {
		if q.id < p.id {
			s.redial(s.wire(q.id, p.id))
		}
	}
}

// unplug takes a crashed process's connections down; the process that
// boots in its place starts with cores of its own.
func (s *sim) unplug(p *simPeer) {
	for _, q := range s.peers {
		if w := s.wires[[2]PeerID{min(p.id, q.id), max(p.id, q.id)}]; w != nil && q != p {
			s.sever(p.id, q.id)
			w.ends[w.end(p.id)] = newSimCore()
		}
	}
}

// relinked returns when the last link that is down will be redialed.
func (s *sim) relinked() int64 {
	last := s.now
	for _, p := range s.peers {
		for _, q := range s.peers {
			if w := s.wires[[2]PeerID{p.id, q.id}]; w != nil && !w.up {
				last = max(last, w.ends[1].Next(s.now))
			}
		}
	}
	return last
}

// TestSimLinkSweep runs the sweep's random schedules in link mode, an
// eighth as many as -zabsim.seeds asks TestSimSweep for (300 by
// default), and fails if the links never shed, reconnected or
// fragmented a message. -zabsim.seed=N replays seed N in link mode.
func TestSimLinkSweep(t *testing.T) { sweep(t, true) }

// TestScheduleLinkResyncAfterGap: the leader's link to a follower goes
// down while the leader commits a burst, so the burst is lost on that
// link; the link comes back at the follower's next dial, before the
// follower's election timeout. The follower must notice the gap, resync
// from the same leader and converge, still following it.
func TestScheduleLinkResyncAfterGap(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		s.linked = true
		l := s.elect(2 * failover)
		s.write(l, 1)
		s.awaitDelivered(1, 20, s.ids()...)
		f := s.others(l)[0]
		epoch, resyncs, lost := l.core.epoch, f.core.stats.resyncs.Load(), s.links.down

		s.cut(l.id, f.id, true)
		s.write(l, 20)
		s.await("the leader to commit the burst", 20, func() bool { return len(l.applied) == 21 })
		if s.links.down < lost+2 {
			s.failf("%d messages lost on the cut link, want the burst's proposal and commit", s.links.down-lost)
		}
		s.cut(l.id, f.id, false)
		s.await("the link back", 20, func() bool { return s.wire(l.id, f.id).up })
		s.write(l, 1)
		s.awaitDelivered(22, 40, f.id)
		switch {
		case f.core.stats.resyncs.Load() <= resyncs:
			s.failf("follower %d converged without a resync", f.id)
		case f.core.Role() != RoleFollowing || f.core.followTarget != l.id || l.core.epoch != epoch:
			s.failf("follower %d is %s of %d in epoch %d; it followed %d in epoch %d", f.id, f.core.Role(), f.core.followTarget, l.core.epoch, l.id, epoch)
		}
	})
}
