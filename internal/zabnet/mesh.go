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
// duplicate links). Dialers reconnect automatically with exponential
// backoff; the accept side simply waits to be redialed.
//
// Framing reuses transport.FramedConn — the same length-prefixed
// framing clients speak, each direction of a connection working in one
// buffer it keeps — with a 1-byte frame type in front. Messages that
// exceed the chunk size (snapshot transfers) are
// fragmented across frames and reassembled on the receive side, so one
// giant snapshot cannot monopolize a frame or trip MaxFrameSize.
//
// Loss model: Send is best-effort, exactly like the in-process
// zab.Network — a disconnected peer or a full outbox sheds the frame
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/sgx"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// Frame types carried in the first payload byte of every mesh frame.
const (
	frameHello     byte = 0x01 // hello: magic, version, peer id, role
	frameMsg       byte = 0x02 // one complete encoded zab.Message
	frameFragBegin byte = 0x03 // fragment start: total length + first chunk
	frameFragCont  byte = 0x04 // fragment continuation chunk
	frameFragEnd   byte = 0x05 // final fragment chunk
	frameHelloSec  byte = 0x06 // hello with the attested tail: + channel key + sgx quote
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

// maxReassembledBytes bounds a fragmented message (snapshot transfer)
// on the receive side; the claimed total is peer-controlled.
const maxReassembledBytes = 256 << 20

// Mesh errors.
var (
	ErrMeshClosed = errors.New("zabnet: mesh closed")
	errBadHello   = errors.New("zabnet: bad handshake")
	// errOutboxFull is enqueue's internal capacity-shed signal; callers
	// surface it as zab.ErrPeerUnreachable after counting the shed.
	errOutboxFull = errors.New("zabnet: outbox full")
)

// Connection set-up bounds: one dial attempt, the hello exchange (and
// channel handshake) on a new link, and the shared receive queue, which
// sheds when full.
const (
	dialTimeout      = time.Second
	handshakeTimeout = 2 * time.Second
	inboxFrames      = 16384
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

	// What follows no deployment sets; the package's tests shrink them.
	// reconnectMin/Max bound the dialer's exponential backoff.
	reconnectMin, reconnectMax time.Duration
	// outboxFrames bounds each peer's send queue; a full outbox sheds
	// (the protocol tolerates loss, and blocking would stall the zab
	// loop).
	outboxFrames int
	// chunkBytes is the fragmentation threshold and fragment size for
	// oversized messages (snapshot transfers).
	chunkBytes int
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

func (c *Config) withDefaults() Config {
	out := *c
	if out.reconnectMin <= 0 {
		out.reconnectMin = 20 * time.Millisecond
	}
	if out.reconnectMax <= 0 {
		out.reconnectMax = time.Second
	}
	if out.outboxFrames <= 0 {
		out.outboxFrames = 4096
	}
	if out.chunkBytes <= 0 {
		out.chunkBytes = 1 << 20
	}
	// A fragment frame is type byte + 8-byte total + chunk; keep it
	// comfortably under the transport's frame ceiling.
	if out.chunkBytes > transport.MaxFrameSize/2 {
		out.chunkBytes = transport.MaxFrameSize / 2
	}
	return out
}

// Mesh connects one replica to its ensemble over TCP.
type Mesh struct {
	cfg   Config
	ln    net.Listener
	inbox chan zab.Message

	// peers is everything the mesh knows per peer id, itself included,
	// under mu: the LIVE membership — seeded from Config, mutated by
	// Add/RemovePeer as reconfig txns commit — and the current link.
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

// peer is one row of the mesh's peer table. A removed member keeps its
// row (member false) and with it its outbox-depth gauge, so that a
// remove/re-add cycle registers no second one.
type peer struct {
	member   bool   // in the live membership
	observer bool   // its role there
	addr     string // "" when unknown: the accept side needs none
	link     *link  // current connection, nil while there is none
	// dialStop cancels the dial loop toward this (lower-id) peer; nil
	// while none runs.
	dialStop chan struct{}
}

// link is one live TCP connection to a peer. fc is the framed TCP
// stream on a plaintext mesh and a transport.SecureConn on an attested
// one — the pump loops are identical either way.
//
// A link owns its send buffer: senders append encoded frames to pending
// (ends[i] is where the i-th of them ends) and the writer swaps pending
// with the spare it emptied last, so in steady state a send copies a
// message's bytes into memory the link already has and allocates
// nothing. sendMu guards all four buffers; holding it for a whole message is
// also what keeps a fragmented message's frames contiguous (the
// receiver's reassembly depends on it) and the capacity check atomic.
// A buffer grown past transport.MaxScratchRetain (a snapshot's
// fragments) serves the one write cycle that carries it.
type link struct {
	peer zab.PeerID
	fc   transport.Conn

	sendMu         sync.Mutex
	pending, spare []byte
	ends, spareEnd []int
	// writing counts the frames the writer took and has not written yet:
	// they still occupy the queue (capacity check, depth). The writer
	// sets it under sendMu when it swaps and lowers it after each write.
	writing atomic.Int64
	// wake tells the writer that pending is not empty.
	wake chan struct{}

	done chan struct{}
	once sync.Once
}

func (l *link) close() {
	l.once.Do(func() {
		close(l.done)
		_ = l.fc.Close()
	})
}

// NewMesh starts the mesh: it listens for higher-id peers dialing in, and
// dials every lower-id peer itself.
func NewMesh(cfg Config) (*Mesh, error) {
	c := cfg.withDefaults()
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
// ourselves gets its outbox-depth gauge with its row, so once per id for
// the mesh's lifetime, and a lower-id one whose address is known its dial
// loop, unless one runs. Returns the address now on record.
func (m *Mesh) addMember(id zab.PeerID, addr string, observer bool) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[id]
	if p == nil {
		p = &peer{}
		m.peers[id] = p
		if id != m.cfg.ID {
			// Under mu, which the gauge takes: the registry reads a gauge
			// outside its own lock.
			m.cfg.Obs.GaugeFunc("zabnet_outbox_depth", fmt.Sprintf(`peer="%d"`, id), "frames queued toward this peer", func() int64 {
				if l := m.link(id); l != nil {
					return int64(l.depth())
				}
				return 0
			})
		}
	}
	if addr != "" {
		p.addr = addr
	}
	p.member, p.observer = true, observer
	if id < m.cfg.ID && p.addr != "" && p.dialStop == nil {
		p.dialStop = make(chan struct{})
		m.wg.Add(1)
		go m.dialLoop(id, p.addr, p.dialStop)
	}
	return p.addr
}

// AddPeer implements zab.MembershipUpdater: a committed reconfig added
// (or re-classified) a member. An empty addr keeps the known address —
// the promote case, where only the role flips. Must not block: it is
// called from the zab loop goroutine.
func (m *Mesh) AddPeer(id zab.PeerID, addr string, observer bool) {
	select {
	case <-m.closed:
		return
	default:
	}
	addr = m.addMember(id, addr, observer)
	if id == m.cfg.ID {
		m.logf("zabnet %d: own role is now observer=%v", m.cfg.ID, observer)
		return
	}
	m.logf("zabnet %d: membership adds peer %d (%s, observer=%v)", m.cfg.ID, id, addr, observer)
}

// RemovePeer implements zab.MembershipUpdater: a committed reconfig
// dropped a member. Its dial loop stops, its link closes, and future
// hellos claiming its id are rejected as unknown.
func (m *Mesh) RemovePeer(id zab.PeerID) {
	m.mu.Lock()
	var l *link
	if p := m.peers[id]; p != nil {
		p.member, p.addr = false, ""
		if p.dialStop != nil {
			close(p.dialStop)
			p.dialStop = nil
		}
		l = p.link
	}
	m.mu.Unlock()
	if l != nil {
		l.close()
	}
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
	if to == m.cfg.ID {
		return zab.ErrPeerUnreachable
	}
	select {
	case <-m.closed:
		return ErrMeshClosed
	default:
	}
	l := m.link(to)
	if l == nil {
		m.unreachable.Inc()
		return zab.ErrPeerUnreachable
	}
	msg.From = m.cfg.ID
	e := wire.GetEncoder()
	msg.Serialize(e)
	err := m.countEnqueue(l.enqueue(e.Bytes(), m.cfg.chunkBytes, m.cfg.outboxFrames))
	wire.PutEncoder(e)
	return err
}

// countEnqueue attributes an enqueue failure to the right counter and
// maps the internal capacity signal onto the transport's loss error.
func (m *Mesh) countEnqueue(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errOutboxFull):
		m.outboxShed.Inc()
		return zab.ErrPeerUnreachable
	default:
		m.unreachable.Inc()
		return err
	}
}

// SendMany implements zab.MultiSender: the message is serialized ONCE
// and its frames appended to the send buffer of every requested link —
// for a PROPOSE batch or snapshot fan-out in an n-replica ensemble this
// removes n-1 redundant encodings of the same payload. Per-peer
// delivery stays best-effort and independent, exactly like Send.
func (m *Mesh) SendMany(to []zab.PeerID, msg zab.Message) error {
	select {
	case <-m.closed:
		return ErrMeshClosed
	default:
	}
	msg.From = m.cfg.ID
	var e *wire.Encoder // encoded lazily: the peer list may hold no live link
	for _, id := range to {
		if id == m.cfg.ID {
			continue
		}
		l := m.link(id)
		if l == nil {
			m.unreachable.Inc()
			continue
		}
		if e == nil {
			e = wire.GetEncoder()
			msg.Serialize(e)
		}
		_ = m.countEnqueue(l.enqueue(e.Bytes(), m.cfg.chunkBytes, m.cfg.outboxFrames))
	}
	if e != nil {
		wire.PutEncoder(e)
	}
	return nil
}

// enqueue appends one encoded message to the link's send buffer as a
// frameMsg frame, or as a fragment sequence when it exceeds chunkBytes
// (snapshot transfers), and wakes the writer. Either every frame is
// queued or none is: maxFrames bounds the frames not yet written — those
// waiting for the writer and those it took and is still writing — and a
// message that would exceed it is shed whole.
func (l *link) enqueue(body []byte, chunkBytes, maxFrames int) error {
	frames := 1
	if len(body) > chunkBytes {
		frames = (len(body) + chunkBytes - 1) / chunkBytes
	}
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	select {
	case <-l.done:
		return zab.ErrPeerUnreachable
	default:
	}
	if len(l.ends)+int(l.writing.Load())+frames > maxFrames {
		return errOutboxFull
	}
	if frames == 1 {
		l.pending = append(append(l.pending, frameMsg), body...)
		l.ends = append(l.ends, len(l.pending))
	} else {
		l.pending, l.ends = appendFragments(l.pending, l.ends, body, chunkBytes)
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

// depth is the number of frames queued and not yet written.
func (l *link) depth() int {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	return len(l.ends) + int(l.writing.Load())
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
			if p.link != nil {
				p.link.close()
			}
		}
		m.mu.Unlock()
	})
	m.wg.Wait()
	return nil
}

// Connected reports whether a live link to the peer exists.
func (m *Mesh) Connected(id zab.PeerID) bool { return m.link(id) != nil }

// KillLink drops the current TCP connection to a peer (fault
// injection: the dial side re-establishes it with backoff).
func (m *Mesh) KillLink(id zab.PeerID) {
	if l := m.link(id); l != nil {
		l.close()
	}
}

func (m *Mesh) link(id zab.PeerID) *link {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.peers[id]; p != nil {
		return p.link
	}
	return nil
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
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			l, err := m.handshake(conn, 0)
			if err != nil {
				m.logf("zabnet %d: reject inbound %s: %v", m.cfg.ID, conn.RemoteAddr(), err)
				return
			}
			m.installLink(l)
		}()
	}
}

// dialLoop keeps a link to a lower-id peer up: one attempt, then it waits
// for the link to die or, after a failure, out the backoff.
func (m *Mesh) dialLoop(peer zab.PeerID, addr string, stop chan struct{}) {
	defer m.wg.Done()
	backoff := m.cfg.reconnectMin
	for {
		var (
			l     *link
			died  <-chan struct{}
			retry <-chan time.Time
		)
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			l, err = m.handshake(conn, peer)
		}
		if err != nil {
			m.logf("zabnet %d: dial peer %d (%s): %v (retry in %v)", m.cfg.ID, peer, addr, err, backoff)
			retry = time.After(backoff)
			backoff = min(2*backoff, m.cfg.reconnectMax)
		} else {
			backoff = m.cfg.reconnectMin
			m.logf("zabnet %d: connected to peer %d (%s)", m.cfg.ID, peer, addr)
			m.installLink(l)
			died = l.done
		}
		select {
		case <-died:
			continue
		case <-retry:
			continue
		case <-stop:
		case <-m.closed:
		}
		if l != nil {
			l.close()
		}
		return
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
// protocol frame; a connection that fails any of it is closed.
func (m *Mesh) handshake(conn net.Conn, dialed zab.PeerID) (_ *link, err error) {
	defer func() {
		if err != nil {
			_ = conn.Close()
		}
	}()
	fc := transport.NewFramedConn(conn)
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
	return newLink(h.id, c), nil
}

func newLink(peer zab.PeerID, fc transport.Conn) *link {
	return &link{peer: peer, fc: fc, wake: make(chan struct{}, 1), done: make(chan struct{})}
}

// installLink makes l the current link for its peer, retiring any
// previous one, and starts its writer and reader goroutines.
func (m *Mesh) installLink(l *link) {
	m.mu.Lock()
	p := m.peers[l.peer]
	select {
	case <-m.closed:
		p = nil
	default:
	}
	if p == nil || !p.member { // closing, or removed since the handshake
		m.mu.Unlock()
		l.close()
		return
	}
	if p.link != nil {
		p.link.close()
	}
	p.link = l
	m.mu.Unlock()
	m.wg.Add(2)
	go m.writeLoop(l)
	go m.readLoop(l)
}

func (m *Mesh) removeLink(l *link) {
	m.mu.Lock()
	if p := m.peers[l.peer]; p != nil && p.link == l {
		p.link = nil
	}
	m.mu.Unlock()
}

// --- frame pump ---

// writeLoop sends whatever is ALREADY in the link's send buffer: it
// takes all of it by swapping the buffer with its spare, so senders
// carry on appending while it writes, and sends the frames in order in
// portions of transport.BatchBytes, one write each (a snapshot chunk
// goes alone). It sleeps only when nothing is queued and never waits
// for more, so a lone frame leaves as soon as it is queued. A failed
// write loses everything taken — the loss model of a dropped link — and
// closes the link.
func (m *Mesh) writeLoop(l *link) {
	defer m.wg.Done()
	var batch [][]byte
	for {
		select {
		case <-l.done:
			return
		case <-l.wake:
		}
		l.sendMu.Lock()
		buf, ends := l.pending, l.ends
		l.pending, l.ends = l.spare, l.spareEnd
		l.spare, l.spareEnd = nil, nil
		l.writing.Store(int64(len(ends)))
		l.sendMu.Unlock()

		start, size := 0, 0
		for i, end := range ends {
			batch = append(batch, buf[start:end])
			size += end - start
			start = end
			if size < transport.BatchBytes && i < len(ends)-1 {
				continue
			}
			err := l.fc.SendFrames(batch)
			l.writing.Add(-int64(len(batch)))
			m.framesPerWrite.Observe(int64(len(batch)))
			clear(batch)
			batch, size = batch[:0], 0
			if err != nil {
				l.close()
				return
			}
		}

		if cap(buf) > transport.MaxScratchRetain {
			buf = nil
		}
		l.sendMu.Lock()
		l.spare, l.spareEnd = buf[:0], ends[:0]
		l.sendMu.Unlock()
	}
}

func (m *Mesh) readLoop(l *link) {
	defer m.wg.Done()
	defer m.removeLink(l)
	defer l.close()
	// Fragment reassembly state: one in-flight fragmented message per
	// link (the sender enqueues fragments contiguously).
	var asm []byte
	asmTotal := -1
	for {
		payload, err := l.fc.RecvFrame()
		if err != nil {
			return
		}
		if len(payload) < 1 {
			m.logf("zabnet %d: empty frame from peer %d", m.cfg.ID, l.peer)
			return
		}
		switch payload[0] {
		case frameMsg:
			if asmTotal >= 0 {
				m.logf("zabnet %d: message frame from %d interleaved with fragments", m.cfg.ID, l.peer)
				return
			}
			m.deliverEncoded(l, payload[1:])
		case frameFragBegin:
			var d wire.Decoder
			d.Reset(payload[1:])
			d.SetZeroCopy(true) // the chunk is copied into asm below
			total := d.ReadInt64()
			chunk := d.ReadRaw(d.Remaining())
			if asmTotal >= 0 || d.Err() != nil {
				m.logf("zabnet %d: bad fragment start from peer %d", m.cfg.ID, l.peer)
				return
			}
			if total <= 0 || total > maxReassembledBytes {
				m.logf("zabnet %d: fragment total %d from peer %d out of range", m.cfg.ID, total, l.peer)
				return
			}
			// total is only the peer's claim: memory is taken as the
			// bytes arrive, not reserved on its word.
			asmTotal = int(total)
			asm = append([]byte(nil), chunk...)
		case frameFragCont, frameFragEnd:
			if asmTotal < 0 || len(asm)+len(payload)-1 > asmTotal {
				m.logf("zabnet %d: fragment overflow from peer %d", m.cfg.ID, l.peer)
				return
			}
			asm = append(asm, payload[1:]...)
			if payload[0] == frameFragEnd {
				if len(asm) != asmTotal {
					m.logf("zabnet %d: fragment underrun from peer %d (%d/%d)", m.cfg.ID, l.peer, len(asm), asmTotal)
					return
				}
				m.deliverEncoded(l, asm)
				asm, asmTotal = nil, -1
			}
		default:
			m.logf("zabnet %d: unknown frame type %#x from peer %d", m.cfg.ID, payload[0], l.peer)
			return
		}
	}
}

// deliverEncoded decodes one message and queues it for the protocol
// loop. Decode failures drop the message (framing is intact, so the
// stream remains usable); a full inbox sheds exactly like the
// in-process transport's mailbox.
func (m *Mesh) deliverEncoded(l *link, body []byte) {
	var msg zab.Message
	var d wire.Decoder
	d.Reset(body)
	if err := d.Finish(msg.Deserialize(&d)); err != nil {
		m.logf("zabnet %d: drop undecodable %d-byte message from peer %d: %v", m.cfg.ID, len(body), l.peer, err)
		return
	}
	// The link's handshaken identity is authoritative; never trust a
	// From field claimed on the wire.
	msg.From = l.peer
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

// appendFragments appends to a send buffer the fragment sequence of an
// encoded message larger than chunkBytes: a frameFragBegin frame that
// announces the total, frameFragCont frames, and a frameFragEnd frame,
// each carrying chunkBytes of the body (the last what is left).
func appendFragments(dst []byte, ends []int, body []byte, chunkBytes int) ([]byte, []int) {
	frames := (len(body) + chunkBytes - 1) / chunkBytes
	dst = slices.Grow(dst, len(body)+frames+8)
	for off := 0; off < len(body); off += chunkBytes {
		end := min(off+chunkBytes, len(body))
		switch {
		case off == 0:
			dst = append(dst, frameFragBegin)
			dst = binary.BigEndian.AppendUint64(dst, uint64(len(body)))
		case end == len(body):
			dst = append(dst, frameFragEnd)
		default:
			dst = append(dst, frameFragCont)
		}
		dst = append(dst, body[off:end]...)
		ends = append(ends, len(dst))
	}
	return dst, ends
}
