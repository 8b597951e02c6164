package zabnet

import (
	"bytes"
	"crypto/hmac"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/sgx"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// helloFrame is the frame h goes out as.
func helloFrame(h hello) []byte {
	e := wire.NewEncoder(256)
	h.encode(e)
	return e.Bytes()
}

// impostor is what a rejection case may use: the id a well-formed hello
// would claim in the direction under test (a member the mesh expects
// there), and, on an attested mesh, attestation material of the
// deployment itself — a peer that could pass, were its claim true.
type impostor struct {
	as    zab.PeerID
	legit *SecureConfig // nil on a plaintext mesh
}

// rejection is one hello the handshake must refuse.
type rejection struct {
	name string
	// why is what the mesh's log must give as its reason.
	why string
	// plain and attested say which kind of mesh the case is put to, accept
	// and dial from which side: dialing in, or answering the mesh's dial.
	plain, attested bool
	accept, dial    bool
	frame           func(im impostor) []byte
	// after, when set, plays on once the hellos are exchanged; initiator
	// is our side of the channel handshake (the dialer initiates).
	after func(fc *transport.FramedConn, initiator bool)
}

// The mesh under test is peer 2 of voters 1, 2, 3 and observer 4. It
// dials 1 — which the test plays — and is dialed by 3 and 4.
var rejections = []rejection{
	{name: "lower id dialing higher", why: "must not dial", plain: true, attested: true, accept: true,
		frame: func(im impostor) []byte { return helloFrame(newHello(1, false, im.legit)) }},
	{name: "another member answers", why: "but 3 answered", plain: true, attested: true, dial: true,
		frame: func(im impostor) []byte { return helloFrame(newHello(3, false, im.legit)) }},
	{name: "unknown id", why: "unknown peer 7", plain: true, attested: true, accept: true,
		frame: func(im impostor) []byte { return helloFrame(newHello(7, false, im.legit)) }},
	{name: "role mismatch", why: "claims observer=true", plain: true, attested: true, accept: true, dial: true,
		// A voter in the topology that claims observer.
		frame: func(im impostor) []byte { return helloFrame(newHello(im.as, true, im.legit)) }},
	{name: "observer claims voter", why: "claims observer=false", plain: true, attested: true, accept: true,
		// Peer 4 is an observer in the topology; on an attested mesh this
		// is a fully valid attested hello that must die on role validation.
		frame: func(im impostor) []byte { return helloFrame(newHello(4, false, im.legit)) }},
	{name: "bad magic", why: errBadHello.Error(), plain: true, attested: true, accept: true, dial: true,
		frame: func(im impostor) []byte {
			f := helloFrame(newHello(im.as, false, im.legit))
			copy(f[1:5], []byte{0x12, 0x34, 0x56, 0x78})
			return f
		}},
	{name: "wrong measurement", why: "peer attestation", attested: true, accept: true, dial: true,
		frame: func(im impostor) []byte {
			evil := &SecureConfig{Signer: sgx.NewSeededQuoteSigner(testMeshSeed, "evil-binary"), Identity: im.legit.Identity}
			return helloFrame(newHello(im.as, false, evil))
		}},
	{name: "wrong deployment seed", why: "peer attestation", attested: true, accept: true, dial: true,
		frame: func(im impostor) []byte {
			outsider := &SecureConfig{Signer: sgx.NewSeededQuoteSigner([]byte("some-other-deployment-secret"), testMeshCode), Identity: im.legit.Identity}
			return helloFrame(newHello(im.as, false, outsider))
		}},
	{name: "id spoof", why: "transcript does not match", attested: true, accept: true, dial: true,
		// A quote honestly bound to id 4 re-sent under a hello claiming
		// another id: the transcript check must catch the mismatch.
		frame: func(im impostor) []byte {
			h := newHello(4, false, im.legit)
			h.id = im.as
			return helloFrame(h)
		}},
	{name: "plaintext hello on secured mesh", why: "attested=false", attested: true, accept: true, dial: true,
		frame: func(im impostor) []byte { return helloFrame(newHello(im.as, false, nil)) }},
	{name: "attested hello on plaintext mesh", why: "attested=true", plain: true, accept: true, dial: true,
		frame: func(im impostor) []byte {
			return helloFrame(newHello(im.as, false, &SecureConfig{Signer: sgx.NewSeededQuoteSigner(testMeshSeed, testMeshCode), Identity: mustIdentity()}))
		}},
	{name: "replayed transcript", why: "secure channel with peer", attested: true, accept: true, dial: true,
		// The attacker captured the peer's genuine attested hello (quote
		// and all) but does not hold its channel private key: the channel
		// handshake must fail — replaying attestation evidence buys
		// nothing without the key it binds.
		frame: func(im impostor) []byte { return helloFrame(newHello(im.as, false, im.legit)) },
		after: func(fc *transport.FramedConn, initiator bool) {
			// The mesh accepts the hello and runs the channel handshake; we
			// answer with a DIFFERENT identity, as a replayer without the
			// private key must.
			_, _ = transport.Handshake(fc, mustIdentity(), initiator, transport.VerifyAny())
		}},
}

func mustIdentity() *transport.Identity {
	id, err := transport.NewIdentity()
	if err != nil {
		panic(err)
	}
	return id
}

// runRejections puts every case of the table that applies to a mesh of
// this kind to it, from both sides: each must end with the connection torn
// down, the case's reason in the log, no protocol frame sent and no link
// installed.
func runRejections(t *testing.T, attested bool) {
	peer1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer1.Close()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		logMu sync.Mutex
		log   []string
	)
	cfg := Config{
		ID:        2,
		Peers:     map[zab.PeerID]string{1: peer1.Addr().String(), 2: own.Addr().String(), 3: "", 4: ""},
		Observers: map[zab.PeerID]bool{4: true},
		Listener:  own,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			log = append(log, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}
	im := impostor{}
	if attested {
		cfg.Secure = testSecureConfig(t)
		im.legit = &SecureConfig{Signer: cfg.Secure.Signer, Identity: mustIdentity()}
	}
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })

	// play sends the case's hello on conn, as the peer that dialed or the
	// one the mesh dialed, and waits for the mesh to hang up.
	play := func(t *testing.T, c rejection, conn net.Conn, as zab.PeerID, meshDialed bool) {
		defer conn.Close()
		logMu.Lock()
		log = log[:0]
		logMu.Unlock()
		fc := transport.NewFramedConn(conn)
		_ = fc.SetDeadline(time.Now().Add(3 * time.Second))
		meshHello := func() {
			payload, err := fc.RecvFrame()
			if err != nil {
				t.Fatal(err)
			}
			if h, err := parseHello(payload, cfg.Secure); err != nil || h.id != 2 || h.observer {
				t.Fatalf("the mesh's own hello: %+v, %v", h, err)
			}
		}
		if meshDialed { // then its hello comes first
			meshHello()
		}
		im.as = as
		if err := fc.SendFrame(c.frame(im)); err != nil {
			t.Fatal(err)
		}
		if c.after != nil {
			if !meshDialed { // it took our hello and answers with its own
				meshHello()
			}
			c.after(fc, !meshDialed)
		}
		for {
			payload, err := fc.RecvFrame()
			if err != nil {
				break // mesh closed the connection — rejected
			}
			t.Fatalf("a %d-byte frame of type %#x flowed although the handshake failed", len(payload), payload[0])
		}
		waitFor(t, 3*time.Second, "the log to say "+c.why, func() bool {
			logMu.Lock()
			defer logMu.Unlock()
			return slices.ContainsFunc(log, func(line string) bool { return strings.Contains(line, c.why) })
		})
		for id := zab.PeerID(1); id <= 7; id++ {
			if m.Connected(id) {
				t.Fatalf("mesh installed a link for peer %d", id)
			}
		}
	}
	// The mesh redials peer 1 after each rejection, out a backoff from
	// 20 ms doubling to 1 s; the cases it dials into come first and back
	// to back, so that none finds a connection the mesh has given up on.
	for _, c := range rejections {
		if c.dial && (attested && c.attested || !attested && c.plain) {
			t.Run("dial/"+c.name, func(t *testing.T) {
				conn, err := peer1.Accept()
				if err != nil {
					t.Fatal(err)
				}
				play(t, c, conn, 1, true)
			})
		}
	}
	for _, c := range rejections {
		if c.accept && (attested && c.attested || !attested && c.plain) {
			t.Run(c.name, func(t *testing.T) {
				conn, err := net.Dial("tcp", m.Addr())
				if err != nil {
					t.Fatal(err)
				}
				play(t, c, conn, 3, false)
			})
		}
	}
}

// TestMeshRejectsWrongDialDirection: on a plaintext mesh a lower-id peer
// dialing a higher-id peer violates the dedup rule and must be rejected,
// as must unknown ids, role claims the membership contradicts, garbage
// and attested hellos — whichever side dialed.
func TestMeshRejectsWrongDialDirection(t *testing.T) { runRejections(t, false) }

// TestSecureMeshHandshakeNegatives: on an attested mesh the same, and
// wrong measurement, wrong deployment seed, spoofed id, a plaintext hello
// and a replayed transcript, all rejected without panics and without a
// link forming — whichever side dialed.
func TestSecureMeshHandshakeNegatives(t *testing.T) { runRejections(t, true) }

// FuzzHelloParse: arbitrary bytes never panic the one hello parser, and
// never yield an accepted identity on a secured mesh unless the quote
// verifies under the deployment root and its report data is the transcript
// of exactly the identity returned; on a plaintext mesh nothing attested
// is accepted. What is accepted encodes back to the bytes it came from.
func FuzzHelloParse(f *testing.F) {
	sec := &SecureConfig{Signer: sgx.NewSeededQuoteSigner(testMeshSeed, testMeshCode), Identity: mustIdentity()}
	plain, attested := helloFrame(newHello(3, true, nil)), helloFrame(newHello(3, false, sec))
	for _, secured := range []bool{false, true} {
		f.Add(plain, secured) // secured: plaintext-to-secured
		f.Add(attested, secured)
	}
	// Each truncated at every field boundary: type, magic, version, id,
	// role; then channel key, measurement, report data, signature.
	for _, n := range []int{0, 1, 5, 9, 17} {
		f.Add(plain[:n], false)
	}
	for _, n := range []int{0, 1, 5, 9, 17, 18, 22, 54, 86, 90, 122, 126, len(attested) - 1} {
		f.Add(attested[:n], true)
	}
	mutate := func(frame []byte, at int, b byte) []byte {
		out := bytes.Clone(frame)
		out[at] = b
		return out
	}
	for _, frame := range [][]byte{plain, attested} {
		f.Add(mutate(frame, 17, 2), len(frame) > 18)   // role byte 2
		f.Add(mutate(frame, 4, 0x32), len(frame) > 18) // wrong magic
		f.Add(mutate(frame, 8, 3), len(frame) > 18)    // wrong version
	}
	f.Add(append(bytes.Clone(plain), 0), false) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte, secured bool) {
		var cfg *SecureConfig
		if secured {
			cfg = sec
		}
		h, err := parseHello(data, cfg)
		if err != nil {
			return
		}
		if h.id <= 0 {
			t.Fatalf("accepted id %d", h.id)
		}
		if (h.quote != nil) != secured {
			t.Fatalf("secured=%v mesh accepted a hello with quote=%v", secured, h.quote != nil)
		}
		if secured {
			if err := sec.Signer.Verify(h.quote); err != nil {
				t.Fatalf("accepted a quote that does not verify: %v", err)
			}
			if !hmac.Equal(h.quote.ReportData, helloTranscript(h.id, h.observer, h.channelPub)) {
				t.Fatal("accepted an identity its quote does not bind")
			}
		}
		if got := helloFrame(h); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x, which encodes back as %x", data, got)
		}
	})
}
