// Package zabnet is the TCP peer transport for the atomic broadcast
// protocol: it implements zab.Transport over real sockets so replicas
// can run as separate OS processes on separate machines, which is how
// the paper's SecureKeeper deployment operates (one enclave-backed
// replica per host).
//
// Topology: every peer listens on its configured address and the peer
// with the HIGHER id dials the lower one, so each pair shares exactly
// one TCP connection used bidirectionally (ZooKeeper's election
// transport uses the same deterministic dial-direction rule to avoid
// duplicate links).
//
// Links: what a link promises is one clockless core per peer,
// link.Core, which the zab simulator's link mode runs too — FIFO order,
// a send queue of at most 4096 frames that sheds a message whole,
// messages larger than a 1 MiB chunk (snapshot transfers) fragmented
// across frames and reassembled on the receive side, so one giant
// snapshot cannot monopolize a frame or trip MaxFrameSize, and when to
// redial: at once after a live link dies, and after a failed attempt
// out a backoff from 20 ms doubling to 1 s. The accept side simply
// waits to be redialed. The Mesh is the core's TCP driver: the sockets,
// the accept and dial goroutines, the hello and attestation, a writer
// and a reader goroutine per connection, and the peer table. Framing
// reuses transport.FramedConn — the same length-prefixed framing
// clients speak, each direction of a connection working in one buffer
// it keeps — with a 1-byte frame type in front.
//
// Loss model: Send is best-effort, exactly like the in-process
// zab.Network — a disconnected peer or a full outbox sheds the message
// and the protocol recovers by re-election or follower resync. Links
// are identified by the handshaken peer id and Message.From is stamped
// from the link identity, never trusted from the wire.
//
// Trust model: a link opens with one hello from each side — id and role,
// the dialer's first. With Config.Secure unset that PLAINTEXT claim is
// all there is — the Vanilla baseline's deployment shape, where the
// cluster network itself is trusted. With Config.Secure set
// (SecureKeeper) the same hello carries an attested tail — a fresh
// channel public key and an sgx quote binding id, role and key into the
// attestation transcript — and the link then runs transport.Handshake to
// an ephemeral-keyed SecureConn pinned to the quoted key. Session
// keys come from the per-connection X25519 exchange — never from the
// storage key, which stays inside the enclaves. A peer that cannot
// produce a quote under the deployment's attestation root and expected
// measurement, or whose claimed id/role disagrees with the quoted
// transcript, is rejected before any protocol frame flows; so is a hello
// of the other kind, so a link cannot be downgraded.
//
// Membership is dynamic: the mesh implements zab.MembershipUpdater, so
// committed reconfiguration transactions grow and shrink the peer map
// at runtime — added peers get dial loops (or accept-side validation
// entries), removed peers get their links closed and dialers stopped.
package zabnet

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/sgx"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/zabnet/link"
)

// Frame types carried in the first payload byte of a hello; a link's
// message frames carry link's (link.FrameMsg and the fragment frames).
const (
	frameHello    byte = 0x01 // hello: magic, version, peer id, role
	frameHelloSec byte = 0x06 // hello with the attested tail: + channel key + sgx quote
)

// helloMagic identifies the mesh protocol in the handshake frame.
const helloMagic int32 = 0x5a424e31 // "ZBN1"

// protoVersion is bumped on incompatible frame-layout changes.
// v2 added the role byte to the hello frame (observer-aware meshes).
const protoVersion int32 = 2

// Hello role bytes: each side declares whether it is a voting member or
// an observer, and the receiver validates the claim against its own
// topology — a replica misconfigured about its role (or a voter list
// that disagrees between hosts) fails loudly at connect time instead of
// silently corrupting quorum accounting.
const (
	roleVoter    byte = 0x00
	roleObserver byte = 0x01
)

func roleByte(observer bool) byte {
	if observer {
		return roleObserver
	}
	return roleVoter
}

// Mesh errors.
var (
	ErrMeshClosed = errors.New("zabnet: mesh closed")
	errBadHello   = errors.New("zabnet: bad handshake")
)

// Connection set-up bounds: one dial attempt, the hello exchange (and
// channel handshake) on a new link, and the shared receive queue, which
// sheds when full. Each link queues at most outboxFrames frames not yet
// written (a full queue sheds: the protocol tolerates loss, and blocking
// would stall the zab loop), and fragments messages larger than
// chunkBytes (snapshot transfers), well under the transport's frame
// ceiling.
const (
	dialTimeout      = time.Second
	handshakeTimeout = 2 * time.Second
	inboxFrames      = 16384
	outboxFrames     = 4096
	chunkBytes       = 1 << 20
)

// Config parameterizes a Mesh.
type Config struct {
	// ID is this replica's identity; Peers maps every ensemble member
	// — voters AND observers — (including ID, unless Listener is
	// provided) to its mesh address.
	ID    zab.PeerID
	Peers map[zab.PeerID]string
	// Observers marks which Peers entries are non-voting members. Each
	// hello declares its sender's role and the receiver validates it
	// against this set, so the whole ensemble must agree on who
	// observes.
	Observers map[zab.PeerID]bool
	// Listener optionally provides a pre-bound listener (tests use
	// ephemeral ports); when nil the mesh listens on Peers[ID].
	Listener net.Listener
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Obs, when set, receives the mesh's metrics: per-peer outbox
	// depth gauges and shed/drop counters.
	Obs *obs.Registry
	// Secure, when set, upgrades every peer link to mutual attestation
	// plus channel encryption (the SecureKeeper mesh). Nil keeps the
	// plaintext hello — the Vanilla baseline.
	Secure *SecureConfig
}

// SecureConfig holds the material for attested, encrypted peer links.
type SecureConfig struct {
	// Signer is the deployment attestation identity (seeded from the
	// administrator's storage key): it quotes our hello transcript and
	// verifies the peers'.
	Signer *sgx.QuoteSigner
	// Identity is this replica's per-process channel identity. It is
	// FRESH per boot, never derived from the storage key: the quote
	// binds it to the attested hello, and the X25519 exchange it
	// authenticates yields per-connection session keys.
	Identity *transport.Identity
}

// Mesh connects one replica to its ensemble over TCP.
type Mesh struct {
	cfg   Config
	ln    net.Listener
	inbox chan zab.Message

	// peers is everything the mesh knows per peer id, itself included,
	// under mu: the LIVE membership — seeded from Config, mutated by
	// Add/RemovePeer as reconfig txns commit — and each peer's link.
	mu    sync.Mutex
	peers map[zab.PeerID]*peer

	// Shed accounting (nil instruments no-op without a registry).
	// outboxShed counts messages dropped because a peer's outbox was
	// full — ZERO in a healthy run, which the smoke harness asserts.
	// unreachable counts sends to peers with no live link (normal
	// during connect/reconnect windows). inboxShed counts received
	// messages dropped because the shared inbox was full.
	outboxShed  *obs.Counter
	unreachable *obs.Counter
	inboxShed   *obs.Counter
	// framesPerWrite is the batch factor of the link writers: frames
	// moved per SendFrames call, 1 when traffic is sparse.
	framesPerWrite *obs.Histogram

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

var (
	_ zab.Transport         = (*Mesh)(nil)
	_ zab.MultiSender       = (*Mesh)(nil)
	_ zab.MembershipUpdater = (*Mesh)(nil)
)

// peer is one row of the mesh's peer table, and the driver of the
// peer's link core. A removed member keeps its row (member false) and
// with it its core and outbox-depth gauge, so that a remove/re-add cycle
// registers no second one. Mesh.mu guards the membership fields; mu
// guards the core and conn, the connection carrying the link now: non-nil
// exactly while the core is up. The core outlives its connections: each
// new one brings it up, and the dial side's backoff runs across attempts.
type peer struct {
	id       zab.PeerID
	member   bool   // in the live membership
	observer bool   // its role there
	addr     string // "" when unknown: the accept side needs none
	// dialStop cancels the dial loop toward this (lower-id) peer; nil
	// while none runs.
	dialStop chan struct{}

	mu   sync.Mutex
	core *link.Core
	conn *conn
}

// conn is one TCP connection carrying a link: the framed stream on a
// plaintext mesh, a transport.SecureConn on an attested one. wake tells
// its writer the core has frames queued; done closes when it goes down.
type conn struct {
	fc   transport.Conn
	wake chan struct{}
	done chan struct{}
	once sync.Once
}

func (c *conn) close() {
	c.once.Do(func() {
		close(c.done)
		_ = c.fc.Close()
	})
}

// current returns the connection carrying the link, nil while it is down.
func (p *peer) current() *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// depth is the number of frames queued and not yet written.
func (p *peer) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Depth()
}

// down takes the link down if c carries it — whatever connection does,
// with c nil — and closes that connection.
func (p *peer) down(c *conn) {
	p.mu.Lock()
	if c == nil {
		c = p.conn
	}
	if c != nil && c == p.conn {
		p.conn = nil
		p.core.Down(obs.Now())
	}
	p.mu.Unlock()
	if c != nil {
		c.close()
	}
}

// NewMesh starts the mesh: it listens for higher-id peers dialing in, and
// dials every lower-id peer itself.
func NewMesh(c Config) (*Mesh, error) {
	if c.Secure != nil && (c.Secure.Signer == nil || c.Secure.Identity == nil) {
		return nil, errors.New("zabnet: Secure requires both Signer and Identity")
	}
	ln := c.Listener
	if ln == nil {
		addr, ok := c.Peers[c.ID]
		if !ok {
			return nil, fmt.Errorf("zabnet: peer map has no address for self (id %d)", c.ID)
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("zabnet: listen %s: %w", addr, err)
		}
	}
	m := &Mesh{
		cfg:    c,
		ln:     ln,
		inbox:  make(chan zab.Message, inboxFrames),
		peers:  make(map[zab.PeerID]*peer, len(c.Peers)),
		closed: make(chan struct{}),
	}
	// A nil registry hands out nil instruments, which count nothing.
	m.outboxShed = c.Obs.Counter("zabnet_outbox_shed_total", "", "messages dropped on a full peer outbox (zero in a healthy run)")
	m.unreachable = c.Obs.Counter("zabnet_unreachable_total", "", "sends to peers with no live link")
	m.inboxShed = c.Obs.Counter("zabnet_inbox_shed_total", "", "received messages dropped on a full inbox")
	m.framesPerWrite = c.Obs.CountHistogram("zabnet_frames_per_write", "", "frames a link writer found queued and sent with one write")
	m.wg.Add(1)
	go m.acceptLoop()
	for id, addr := range c.Peers {
		m.addMember(id, addr, c.Observers[id])
	}
	return m, nil
}

// addMember puts id into the live membership, or re-classifies it; an
// empty addr keeps the address already known. A peer other than
// ourselves gets its link and outbox-depth gauge with its row, so once
// per id for the mesh's lifetime, and a lower-id one whose address is
// known its dial loop, unless one runs. Returns the address now on
// record.
func (m *Mesh) addMember(id zab.PeerID, addr string, observer bool) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[id]
	if p == nil {
		p = &peer{id: id, core: link.New(outboxFrames, chunkBytes)}
		m.peers[id] = p
		if id != m.cfg.ID {
			m.cfg.Obs.GaugeFunc("zabnet_outbox_depth", fmt.Sprintf(`peer="%d"`, id), "frames queued toward this peer",
				func() int64 { return int64(p.depth()) })
		}
	}
	if addr != "" {
		p.addr = addr
	}
	p.member, p.observer = true, observer
	if id < m.cfg.ID && p.addr != "" && p.dialStop == nil {
		p.dialStop = make(chan struct{})
		m.wg.Add(1)
		go m.dialLoop(p, p.addr, p.dialStop)
	}
	return p.addr
}

// AddPeer implements zab.MembershipUpdater: a committed reconfig added
// (or re-classified) a member. An empty addr keeps the known address —
// the promote case, where only the role flips. Must not block: it is
// called from the zab loop goroutine.
func (m *Mesh) AddPeer(id zab.PeerID, addr string, observer bool) {
	if m.isClosed() {
		return
	}
	addr = m.addMember(id, addr, observer)
	if id == m.cfg.ID {
		m.logf("zabnet %d: own role is now observer=%v", m.cfg.ID, observer)
		return
	}
	m.logf("zabnet %d: membership adds peer %d (%s, observer=%v)", m.cfg.ID, id, addr, observer)
}

// RemovePeer implements zab.MembershipUpdater: a committed reconfig
// dropped a member. Its dial loop stops, its link goes down, and future
// hellos claiming its id are rejected as unknown.
func (m *Mesh) RemovePeer(id zab.PeerID) {
	m.mu.Lock()
	if p := m.peers[id]; p != nil {
		p.member, p.addr = false, ""
		if p.dialStop != nil {
			close(p.dialStop)
			p.dialStop = nil
		}
		p.down(nil)
	}
	m.mu.Unlock()
	m.logf("zabnet %d: membership removes peer %d; link torn down", m.cfg.ID, id)
}

// memberRole looks the peer up in the live membership.
func (m *Mesh) memberRole(id zab.PeerID) (known, observer bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[id]
	return p != nil && p.member, p != nil && p.observer
}

// Addr returns the mesh listener's bound address.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// ID returns the mesh's own peer identity.
func (m *Mesh) ID() zab.PeerID { return m.cfg.ID }

// Send implements zab.Transport: best-effort framed delivery to the
// peer's current link. An unconnected peer or a full outbox sheds the
// message (the protocol recovers via resync/re-election).
func (m *Mesh) Send(to zab.PeerID, msg zab.Message) error {
	return m.send([]zab.PeerID{to}, msg)
}

// SendMany implements zab.MultiSender: the message is serialized ONCE
// and its frames appended to the send buffer of every requested link —
// for a PROPOSE batch or snapshot fan-out in an n-replica ensemble this
// removes n-1 redundant encodings of the same payload. Per-peer
// delivery stays best-effort and independent, exactly like Send.
func (m *Mesh) SendMany(to []zab.PeerID, msg zab.Message) error {
	if err := m.send(to, msg); err == ErrMeshClosed {
		return err
	}
	return nil
}

// send serializes msg once and hands it to the link core of each peer
// in to, waking the writer of the connection carrying the link. It
// reports ErrMeshClosed, or zab.ErrPeerUnreachable when some peer is
// ourselves or unknown, or its core shed the message or found the link
// down; those losses are counted.
func (m *Mesh) send(to []zab.PeerID, msg zab.Message) (err error) {
	if m.isClosed() {
		return ErrMeshClosed
	}
	msg.From = m.cfg.ID
	var e *wire.Encoder // encoded lazily: the list may hold no known peer
	for _, id := range to {
		if id == m.cfg.ID {
			err = zab.ErrPeerUnreachable
			continue
		}
		st := link.Down
		if p := m.peer(id); p != nil {
			if e == nil {
				e = wire.GetEncoder()
				msg.Serialize(e)
			}
			p.mu.Lock()
			if st = p.core.Enqueue(e.Bytes()); st == link.Queued {
				select {
				case p.conn.wake <- struct{}{}:
				default:
				}
			}
			p.mu.Unlock()
		}
		if st == link.Shed {
			m.outboxShed.Inc()
		} else if st == link.Down {
			m.unreachable.Inc()
		}
		if st != link.Queued {
			err = zab.ErrPeerUnreachable
		}
	}
	if e != nil {
		wire.PutEncoder(e)
	}
	return err
}

// Receive implements zab.Transport.
func (m *Mesh) Receive() <-chan zab.Message { return m.inbox }

// Close implements zab.Transport: tears down the listener and every
// link and waits for all mesh goroutines to exit.
func (m *Mesh) Close() error {
	m.closeOnce.Do(func() {
		close(m.closed)
		_ = m.ln.Close()
		m.mu.Lock()
		for _, p := range m.peers {
			p.down(nil)
		}
		m.mu.Unlock()
	})
	m.wg.Wait()
	return nil
}

// Connected reports whether the link to the peer is up: false from the
// moment KillLink, RemovePeer, Close or a failed write takes it down.
func (m *Mesh) Connected(id zab.PeerID) bool {
	p := m.peer(id)
	return p != nil && p.current() != nil
}

// KillLink drops the current TCP connection to a peer (fault
// injection: the dial side redials at once).
func (m *Mesh) KillLink(id zab.PeerID) {
	if p := m.peer(id); p != nil {
		p.down(nil)
	}
}

func (m *Mesh) isClosed() bool {
	select {
	case <-m.closed:
		return true
	default:
		return false
	}
}

func (m *Mesh) peer(id zab.PeerID) *peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[id]
}

func (m *Mesh) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// --- connection establishment ---

func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			if _, err := m.handshake(nc, 0); err != nil {
				m.logf("zabnet %d: reject inbound %s: %v", m.cfg.ID, nc.RemoteAddr(), err)
			}
		}()
	}
}

// dialLoop keeps a link to a lower-id peer up: one attempt, then it waits
// for the link to die, and then until the core's Next — at once after a
// live link died, out the backoff after a failed attempt.
func (m *Mesh) dialLoop(p *peer, addr string, stop chan struct{}) {
	defer m.wg.Done()
	for {
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		var c *conn
		if err == nil {
			c, err = m.handshake(nc, p.id)
		}
		switch {
		case err != nil:
			m.logf("zabnet %d: dial peer %d (%s): %v", m.cfg.ID, p.id, addr, err)
			p.mu.Lock()
			p.core.Down(obs.Now()) // a failed attempt: the link was down
			p.mu.Unlock()
		case c == nil:
			return // closing, or the peer was removed
		default:
			m.logf("zabnet %d: connected to peer %d (%s)", m.cfg.ID, p.id, addr)
			select {
			case <-c.done:
			case <-stop:
				return
			case <-m.closed:
				return
			}
		}
		p.mu.Lock()
		t := obs.Now()
		wait := time.Duration(p.core.Next(t) - t)
		p.mu.Unlock()
		select {
		case <-time.After(wait):
		case <-stop:
			return
		case <-m.closed:
			return
		}
	}
}

// handshake opens a link on a fresh connection, in either direction:
// dialed is the peer we dialed, 0 when the connection was accepted. Each
// side sends one hello, the dialer first. The other side's must come from
// the peer we dialed, or — only higher-id peers may dial us (the
// dial-direction rule) — from a higher id than ours; the sender must be a
// member, in the role the live membership gives it. On a secured mesh the
// hello was attested (parseHello) and the link is wrapped in a SecureConn
// pinned to the quoted channel key. All of that precedes the first
// protocol frame; a connection that fails any of it is closed. One that
// passes is installed (see install).
func (m *Mesh) handshake(nc net.Conn, dialed zab.PeerID) (_ *conn, err error) {
	defer func() {
		if err != nil {
			_ = nc.Close()
		}
	}()
	fc := transport.NewFramedConn(nc)
	_ = fc.SetDeadline(time.Now().Add(handshakeTimeout))
	dialing := dialed != 0
	_, selfObserver := m.memberRole(m.cfg.ID)
	own := newHello(m.cfg.ID, selfObserver, m.cfg.Secure)
	if dialing {
		if err := sendHello(fc, &own); err != nil {
			return nil, err
		}
	}
	payload, err := fc.RecvFrame()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadHello, err)
	}
	h, err := parseHello(payload, m.cfg.Secure)
	if err != nil {
		return nil, err
	}
	if dialing && h.id != dialed {
		return nil, fmt.Errorf("%w: dialed peer %d but %d answered", errBadHello, dialed, h.id)
	}
	if !dialing && h.id <= m.cfg.ID {
		return nil, fmt.Errorf("%w: peer %d must not dial %d (higher id dials lower)", errBadHello, h.id, m.cfg.ID)
	}
	known, wantObs := m.memberRole(h.id)
	if !known {
		return nil, fmt.Errorf("%w: unknown peer %d", errBadHello, h.id)
	}
	if h.observer != wantObs {
		return nil, fmt.Errorf("%w: peer %d claims observer=%v, topology says %v", errBadHello, h.id, h.observer, wantObs)
	}
	if !dialing {
		if err := sendHello(fc, &own); err != nil {
			return nil, err
		}
	}
	var c transport.Conn = fc
	if m.cfg.Secure != nil {
		c, err = transport.Handshake(fc, m.cfg.Secure.Identity, dialing, transport.VerifyExact(h.channelPub))
		if err != nil {
			return nil, fmt.Errorf("zabnet: secure channel with peer %d: %w", h.id, err)
		}
	}
	_ = fc.SetDeadline(time.Time{})
	return m.install(h.id, c), nil
}

// install makes fc the connection carrying id's link, taking down the
// one it replaces (whose queue is lost with it), and starts its writer
// and reader. It returns nil, and closes fc, when the mesh is closing or
// id was removed since the handshake.
func (m *Mesh) install(id zab.PeerID, fc transport.Conn) *conn {
	c := &conn{fc: fc, wake: make(chan struct{}, 1), done: make(chan struct{})}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[id]
	if p == nil || !p.member || m.isClosed() {
		c.close()
		return nil
	}
	p.down(nil)
	p.mu.Lock()
	p.conn = c
	p.core.Up()
	p.mu.Unlock()
	m.wg.Add(2)
	go m.writeLoop(p, c)
	go m.readLoop(p, c)
	return c
}

// --- frame pump ---

// writeLoop sends whatever c's link has ALREADY queued: it takes all of
// it from the core, so senders carry on queuing while it writes, and
// sends the frames in order in portions of transport.BatchBytes, one
// write each (a snapshot chunk goes alone), reporting each portion
// written. It sleeps only when nothing is queued and never waits for
// more, so a lone frame leaves as soon as it is queued. A failed write
// takes the link down, which loses everything taken — the loss model of
// a dropped link.
func (m *Mesh) writeLoop(p *peer, c *conn) {
	defer m.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-c.wake:
		}
		var frames [][]byte
		p.mu.Lock()
		if p.conn == c {
			frames = p.core.Take()
		}
		p.mu.Unlock()
		for len(frames) > 0 {
			n, size := 0, 0
			for n < len(frames) && size < transport.BatchBytes {
				size += len(frames[n])
				n++
			}
			err := c.fc.SendFrames(frames[:n])
			p.mu.Lock()
			if p.conn == c {
				p.core.Wrote(n)
			}
			p.mu.Unlock()
			m.framesPerWrite.Observe(int64(n))
			if err != nil {
				p.down(c)
				return
			}
			frames = frames[n:]
		}
	}
}

// readLoop hands each frame c receives to the link's core, and each
// message that completes to the protocol loop. A read error, or a frame
// that breaks the framing, takes the link down.
func (m *Mesh) readLoop(p *peer, c *conn) {
	defer m.wg.Done()
	defer p.down(c)
	for {
		frame, err := c.fc.RecvFrame()
		if err != nil {
			return
		}
		var body []byte
		p.mu.Lock()
		if p.conn == c {
			body, err = p.core.Received(frame)
		}
		p.mu.Unlock()
		if err != nil {
			m.logf("zabnet %d: peer %d broke the framing: %v", m.cfg.ID, p.id, err)
			return
		}
		if body != nil {
			m.deliver(p.id, body)
		}
	}
}

// deliver decodes one message and queues it for the protocol loop.
// Decode failures drop the message (framing is intact, so the stream
// remains usable); a full inbox sheds exactly like the in-process
// transport's mailbox.
func (m *Mesh) deliver(from zab.PeerID, body []byte) {
	var msg zab.Message
	var d wire.Decoder
	d.Reset(body)
	if err := d.Finish(msg.Deserialize(&d)); err != nil {
		m.logf("zabnet %d: drop undecodable %d-byte message from peer %d: %v", m.cfg.ID, len(body), from, err)
		return
	}
	// The link's handshaken identity is authoritative; never trust a
	// From field claimed on the wire.
	msg.From = from
	select {
	case m.inbox <- msg:
	default:
		// Inbox overflow: shed; the protocol re-syncs.
		m.inboxShed.Inc()
	}
}

// --- wire helpers ---

// hello is the record each side of a new link sends first: who it is and
// in which role. On a secured mesh it ends in an attested tail, told apart
// by the frame type.
type hello struct {
	id       zab.PeerID
	observer bool
	// The attested tail (frameHelloSec): the sender's channel key and a
	// quote whose report data is helloTranscript(id, observer, channelPub).
	channelPub ed25519.PublicKey
	quote      *sgx.Quote
}

// helloTranscript hashes the identity claims of one attested hello —
// peer id, role, channel public key — into the quote's report data.
// Because the quote signs this digest, none of the three can be altered
// (an observer claiming voter, a replica claiming another's id, a
// swapped channel key) without breaking attestation verification.
func helloTranscript(id zab.PeerID, observer bool, channelPub ed25519.PublicKey) []byte {
	h := sha256.New()
	h.Write([]byte("zabnet-hello-v1"))
	var fixed [9]byte
	binary.BigEndian.PutUint64(fixed[:8], uint64(id))
	fixed[8] = roleByte(observer)
	h.Write(fixed[:])
	h.Write(channelPub)
	return h.Sum(nil)
}

// encode writes the hello frame; the attested tail follows when the
// record has one.
func (h *hello) encode(e *wire.Encoder) {
	t := frameHello
	if h.quote != nil {
		t = frameHelloSec
	}
	_ = e.WriteByte(t)
	e.WriteInt32(helloMagic)
	e.WriteInt32(protoVersion)
	e.WriteInt64(int64(h.id))
	_ = e.WriteByte(roleByte(h.observer))
	if h.quote != nil {
		e.WriteBuffer(h.channelPub)
		e.WriteRaw(h.quote.Measurement[:])
		e.WriteBuffer(h.quote.ReportData)
		e.WriteBuffer(h.quote.Signature)
	}
}

// newHello is the hello of peer id: plaintext when sec is nil, else with
// sec's channel public key and its signer's quote over the transcript
// binding all of them together.
func newHello(id zab.PeerID, observer bool, sec *SecureConfig) hello {
	h := hello{id: id, observer: observer}
	if sec != nil {
		h.channelPub = sec.Identity.Public
		h.quote = sec.Signer.Quote(helloTranscript(id, observer, h.channelPub))
	}
	return h
}

func sendHello(fc *transport.FramedConn, h *hello) error {
	e := wire.GetEncoder()
	h.encode(e)
	err := fc.SendFrame(e.Bytes())
	wire.PutEncoder(e)
	return err
}

// parseHello reads and checks a received hello frame. With sec nil (a
// plaintext mesh) only a plaintext hello is accepted; otherwise only an
// attested one, whose quote must verify under the deployment attestation
// root with the expected measurement, and whose report data must equal
// the transcript recomputed from the claimed id, role and channel key.
func parseHello(payload []byte, sec *SecureConfig) (hello, error) {
	var d wire.Decoder
	d.Reset(payload) // copying reads: the frame is the connection's until its next receive
	t := d.ReadUint8()
	if t != frameHello && t != frameHelloSec {
		return hello{}, errBadHello
	}
	if attested := t == frameHelloSec; attested != (sec != nil) {
		// Neither kind of mesh takes the other's hello: no downgrade.
		return hello{}, fmt.Errorf("%w: hello attested=%v on a mesh with secure=%v", errBadHello, attested, sec != nil)
	}
	if d.ReadInt32() != helloMagic {
		return hello{}, errBadHello
	}
	if version := d.ReadInt32(); version != protoVersion {
		return hello{}, fmt.Errorf("%w: protocol version %d (want %d)", errBadHello, version, protoVersion)
	}
	h := hello{id: zab.PeerID(d.ReadInt64())}
	role := d.ReadUint8()
	h.observer = role == roleObserver
	if sec != nil {
		h.channelPub, h.quote = d.ReadBuffer(), new(sgx.Quote)
		copy(h.quote.Measurement[:], d.ReadRaw(sha256.Size))
		h.quote.ReportData = d.ReadBuffer()
		h.quote.Signature = d.ReadBuffer()
	}
	if d.Finish(nil) != nil || h.id <= 0 || (role != roleVoter && role != roleObserver) ||
		(sec != nil && len(h.channelPub) != ed25519.PublicKeySize) {
		return hello{}, errBadHello
	}
	if sec != nil {
		if err := sec.Signer.Verify(h.quote); err != nil {
			// Surface the sgx error itself (measurement rejected, signature
			// invalid) — it is the actionable part of the rejection.
			return hello{}, fmt.Errorf("zabnet: peer attestation: %w", err)
		}
		if !hmac.Equal(h.quote.ReportData, helloTranscript(h.id, h.observer, h.channelPub)) {
			return hello{}, fmt.Errorf("%w: quote transcript does not match claimed identity", errBadHello)
		}
	}
	return h, nil
}
