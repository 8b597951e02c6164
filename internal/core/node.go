package core

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"net"
	"sync"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/enclave"
	"securekeeper/internal/obs"
	"securekeeper/internal/server"
	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
	"securekeeper/internal/zabnet"
)

// NodeConfig parameterizes one ensemble member.
type NodeConfig struct {
	// Variant selects Vanilla, TLS or SecureKeeper.
	Variant Variant
	// ID is this replica's ensemble identity; Topology describes every
	// member (including ID) — voter/observer role and peer-mesh TCP
	// address. Parse one with ParseTopology or build one with
	// VoterTopology.
	ID       zab.PeerID
	Topology Topology
	// MeshListener optionally provides a pre-bound peer listener
	// (tests use ephemeral ports); nil listens on Peers[ID].
	MeshListener net.Listener
	// TickInterval and ElectionTimeout tune the broadcast protocol.
	TickInterval    time.Duration
	ElectionTimeout time.Duration
	// StorageKey is the ensemble-wide storage key for SecureKeeper: in
	// a multi-process deployment every replica's key server must
	// release the same key or replicas would store mutually
	// undecryptable ciphertext. Nil generates a random key (only valid
	// for a single-replica ensemble). Ignored for baselines.
	StorageKey []byte
	// DataDir, when set, makes the replica durable (see server.Config).
	DataDir       string
	SnapshotEvery int
	// ApplySGXLatency and SGXCost mirror the Cluster knobs.
	ApplySGXLatency bool
	SGXCost         *sgx.CostModel
	// Logf, when set, receives mesh connection diagnostics.
	Logf func(format string, args ...any)
}

// Node is one replica host: a peer transport under the variant's full
// per-host stack — the replica, its channel identity and, for
// SecureKeeper, the machine-local SGX state. NewNode puts it on a zabnet
// TCP mesh (one process per replica, the paper's deployment); a Cluster
// is N of them on an in-process channel network.
type Node struct {
	variant   Variant
	id        zab.PeerID
	keyServer *enclave.KeyServer // nil for the baselines
	replica   *server.Replica
	identity  *transport.Identity
	obs       *obs.Registry
	mesh      *zabnet.Mesh // nil on a Cluster's channel network
	shut      func()       // takes the peer transport down

	runtime *sgx.Runtime // nil except SecureKeeper
	counter *enclave.Counter
	sealed  *enclave.SealedKeyStore
	// provMu guards entryProvisioned, which records whether the initial
	// remote attestation for the entry-enclave measurement has happened
	// on this replica; later enclaves unseal instead (§4.5).
	provMu           sync.Mutex
	entryProvisioned bool
	// entryCache is where the path-chunk caches of the host's entry
	// enclaves, one per client connection, count together.
	entryCache skcrypto.CacheCounters

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // in-process sessions opened by Connect
}

// newKeyServer builds the variant's key-release administrator. A nil
// storageKey generates a fresh random key (single-process ensembles); a
// multi-process ensemble passes the same key to every replica, playing
// the role of the paper's central key server that all enclaves attest
// against.
func newKeyServer(storageKey []byte) (*enclave.KeyServer, error) {
	trusted := []sgx.Measurement{
		sgx.MeasureCode(enclave.EntryCodeIdentity),
		sgx.MeasureCode(enclave.CounterCodeIdentity),
	}
	if storageKey != nil {
		return enclave.NewKeyServerWithKey(storageKey, trusted...)
	}
	return enclave.NewKeyServer(trusted...)
}

// newNode assembles one replica host on the peer transport tr: channel
// identity, the SGX runtime and counter enclave for SecureKeeper, and the
// replica itself. It is the only place a host is built; what differs
// between a Cluster member and a process of its own is tr and shut, which
// takes tr down when the node closes. reg is the host's metrics registry
// (one per host, like production; instrumentation is always on —
// exposition is what's opt-in).
func newNode(cfg NodeConfig, ks *enclave.KeyServer, reg *obs.Registry, tr zab.Transport, shut func()) (*Node, error) {
	identity, err := transport.NewIdentity()
	if err != nil {
		return nil, err
	}
	n := &Node{variant: cfg.Variant, id: cfg.ID, keyServer: ks, identity: identity, obs: reg, shut: shut}
	scfg := server.Config{
		ID:              cfg.ID,
		Peers:           cfg.Topology.VoterIDs(),
		Observers:       cfg.Topology.ObserverIDs(),
		Transport:       tr,
		TickInterval:    cfg.TickInterval,
		ElectionTimeout: cfg.ElectionTimeout,
		DataDir:         cfg.DataDir,
		SnapshotEvery:   cfg.SnapshotEvery,
		Logf:            cfg.Logf,
		Obs:             reg,
	}
	if cfg.Variant == SecureKeeper {
		cost := sgx.DefaultCostModel()
		if cfg.SGXCost != nil {
			cost = *cfg.SGXCost
		}
		n.runtime = sgx.NewRuntime(sgx.EPCUsableBytes, cost, cfg.ApplySGXLatency)
		registerEcallMetrics(reg, n.runtime)
		registerCacheMetrics(reg, "entry", n.entryCache.Stats)
		n.sealed = enclave.NewSealedKeyStore()
		ks.TrustPlatform(n.runtime.QuoteVerificationKey())

		counter, err := enclave.NewCounter(n.runtime)
		if err != nil {
			return nil, err
		}
		if err := enclave.ProvisionCounter(counter, ks, n.sealed); err != nil {
			return nil, err
		}
		n.counter = counter
		registerCacheMetrics(reg, "counter", counter.CacheStats)
		scfg.SeqAppend = counter.AppendSequences
	}
	n.replica = server.NewReplica(scfg)
	return n, nil
}

// NewNode starts the replica on a TCP mesh of its own: the mesh begins
// dialing its peers immediately and the replica joins the ensemble's
// election. Unlike NewCluster it does NOT wait for a leader — a lone
// first process of a 3-replica ensemble must come up and wait for quorum.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Variant == 0 {
		cfg.Variant = Vanilla
	}
	// A valid topology has positive ids and an address for each, so
	// membership is all that is left to check of cfg.ID.
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Topology.Has(cfg.ID) {
		return nil, fmt.Errorf("core: topology has no entry for node %d", cfg.ID)
	}

	var (
		ks     *enclave.KeyServer
		secure *zabnet.SecureConfig
		err    error
	)
	if cfg.Variant == SecureKeeper {
		if cfg.StorageKey == nil && cfg.Topology.Size() > 1 {
			return nil, fmt.Errorf("core: a multi-replica SecureKeeper ensemble needs a shared storage key")
		}
		if ks, err = newKeyServer(cfg.StorageKey); err != nil {
			return nil, err
		}
		if secure, err = meshSecureConfig(cfg.StorageKey); err != nil {
			return nil, err
		}
	}

	// One registry per node process: the mesh, broadcast, storage and
	// server layers all register into it, so a single scrape covers the
	// whole replica.
	reg := obs.NewRegistry()
	mesh, err := zabnet.NewMesh(zabnet.Config{
		ID:        cfg.ID,
		Peers:     cfg.Topology.Addrs(),
		Observers: cfg.Topology.ObserverSet(),
		Listener:  cfg.MeshListener,
		Logf:      cfg.Logf,
		Obs:       reg,
		Secure:    secure,
	})
	if err != nil {
		return nil, err
	}
	n, err := newNode(cfg, ks, reg, mesh, func() { _ = mesh.Close() })
	if err != nil {
		_ = mesh.Close()
		return nil, err
	}
	n.mesh = mesh
	return n, nil
}

// meshCodeIdentity is the simulated measurement of the replica binary:
// the code every mesh peer must prove it is running before a link comes
// up.
const meshCodeIdentity = "securekeeper-replica-mesh"

// meshSecureConfig derives the SecureKeeper mesh's attestation material.
// The deployment attestation root is seeded from the administrator's
// storage key — the secret §4.5 already distributes to exactly the
// attested enclaves — via a domain-separated hash, so the key itself
// never signs anything. The channel identity is fresh per boot: session
// keys come from the per-connection X25519 exchange, never from the
// storage key.
func meshSecureConfig(storageKey []byte) (*zabnet.SecureConfig, error) {
	seed := storageKey
	if seed == nil {
		// Single-replica ensemble with a generated storage key: the mesh
		// has no peers to attest, but the config must still be complete.
		var buf [32]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("core: mesh attestation seed: %w", err)
		}
		seed = buf[:]
	}
	h := sha256.Sum256(append([]byte("securekeeper-mesh-attest-v1:"), seed...))
	id, err := transport.NewIdentity()
	if err != nil {
		return nil, err
	}
	return &zabnet.SecureConfig{
		Signer:   sgx.NewSeededQuoteSigner(h[:], meshCodeIdentity),
		Identity: id,
	}, nil
}

// ID returns the node's ensemble identity.
func (n *Node) ID() zab.PeerID { return n.id }

// Replica exposes the underlying replica (tests and observability).
func (n *Node) Replica() *server.Replica { return n.replica }

// Mesh exposes the TCP peer transport (tests and fault injection); nil
// for a member of a Cluster.
func (n *Node) Mesh() *zabnet.Mesh { return n.mesh }

// Obs returns the node's metrics registry (the scrape target).
func (n *Node) Obs() *obs.Registry { return n.obs }

// IsLeader reports whether this node currently leads the ensemble.
func (n *Node) IsLeader() bool { return n.replica.IsLeader() }

// Role returns the node's protocol role.
func (n *Node) Role() zab.Role { return n.replica.Peer().Role() }

// Leader returns the known leader id, or -1.
func (n *Node) Leader() zab.PeerID { return n.replica.Peer().Leader() }

// WaitForRole blocks until the node settles into an ensemble role.
func (n *Node) WaitForRole(timeout time.Duration) error {
	return n.replica.WaitForRole(timeout)
}

// ReplicaPublicKey returns the channel identity clients pin (§4.1).
func (n *Node) ReplicaPublicKey() []byte {
	return append([]byte(nil), n.identity.Public...)
}

func (n *Node) stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// ServeExternal serves an externally accepted (e.g. TCP) client
// connection with the variant's full stack — the one place the server
// side of each variant is put together: plaintext for Vanilla, secure
// channel terminated in untrusted code for TLS, and for SecureKeeper the
// same channel with a fresh entry enclave behind it (the paper ends the
// channel inside the enclave; README "A variant's stack"). Blocks until
// the session ends.
func (n *Node) ServeExternal(conn transport.Conn) error {
	if n.stopped() {
		return ErrReplicaStopped
	}
	var icept server.Interceptor = server.NopInterceptor{}
	switch n.variant {
	case Vanilla:
		return n.replica.ServeConn(conn, icept)
	case TLS:
		// The channel ends in untrusted code; nothing sits behind it.
	case SecureKeeper:
		entry, err := n.provisionEntry()
		if err != nil {
			return err
		}
		defer entry.Close()
		icept = &entryInterceptor{entry: entry}
	default:
		return fmt.Errorf("core: unknown variant %d", n.variant)
	}
	sc, err := transport.Handshake(conn, n.identity, false, transport.VerifyAny())
	if err != nil {
		return err
	}
	return n.replica.ServeConn(sc, icept)
}

// provisionEntry instantiates and provisions a per-client entry enclave
// on the host's SGX runtime: the first one on a replica is
// remote-attested by the key server; subsequent ones unseal the key blob
// the first left behind (§4.5).
func (n *Node) provisionEntry() (*enclave.Entry, error) {
	entry, err := enclave.NewEntry(n.runtime)
	if err != nil {
		return nil, err
	}
	entry.CountCacheIn(&n.entryCache)
	n.provMu.Lock()
	provisioned := n.entryProvisioned
	n.provMu.Unlock()
	if provisioned {
		if err := enclave.UnsealEntry(entry, n.sealed); err == nil {
			return entry, nil
		}
		// Sealed blob missing or damaged: fall back to attestation.
	}
	if err := enclave.ProvisionEntry(entry, n.keyServer, n.sealed); err != nil {
		entry.Close()
		return nil, err
	}
	n.provMu.Lock()
	n.entryProvisioned = true
	n.provMu.Unlock()
	return entry, nil
}

// Connect opens an in-process client session: a channel pipe whose
// server end ServeExternal serves and whose client end openSession takes.
func (n *Node) Connect(opts client.Options) (*client.Client, error) {
	// Counted under the lock that Close sets closed under, so that no
	// session is added once Close has begun to wait for them.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrReplicaStopped
	}
	n.wg.Add(1)
	n.mu.Unlock()
	clientEnd, serverEnd := transport.NewChanPipe()
	go func() {
		defer n.wg.Done()
		if err := n.ServeExternal(serverEnd); err != nil {
			// An error before the session loop (enclave provisioning,
			// handshake) leaves the pipe open with nobody reading;
			// close it or the client side blocks in Handshake forever.
			_ = serverEnd.Close()
		}
	}()
	cl, err := n.openSession(clientEnd, opts)
	if err != nil {
		// Mirror image of the server-side close above: a client-side
		// failure must close the pipe too, or the serve goroutine blocks
		// on it forever and Close deadlocks in wg.Wait.
		_ = clientEnd.Close()
	}
	return cl, err
}

// openSession is the client side of the variant's stack — the one place
// it is put together: Vanilla speaks plaintext, the other two handshake
// the secure channel pinning the replica's public key (received out of
// band, §4.1).
func (n *Node) openSession(conn transport.Conn, opts client.Options) (*client.Client, error) {
	if n.variant != Vanilla {
		id, err := transport.NewIdentity()
		if err != nil {
			return nil, err
		}
		sc, err := transport.Handshake(conn, id, true, transport.VerifyExact(n.identity.Public))
		if err != nil {
			return nil, err
		}
		conn = sc
	}
	return client.NewSession(conn, opts)
}

// Close takes the node off its peer transport, stops the replica and
// waits for the sessions Connect opened to end.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()

	n.shut()
	n.replica.Close()
	if n.counter != nil {
		n.counter.Close()
	}
	n.wg.Wait()
}

// entryInterceptor adapts the entry enclave to the server's
// interception points: one ecall per burst. The session reader is the
// only caller of OnRequests and the releaser of OnResponses, so each
// direction reuses its own result slice, as the entry reuses the packed
// buffer the results lie in.
type entryInterceptor struct {
	entry       *enclave.Entry
	reqs, resps [][]byte
}

var _ server.Interceptor = (*entryInterceptor)(nil)

// OnRequests implements server.Interceptor.
func (ei *entryInterceptor) OnRequests(msgs [][]byte) (_ [][]byte, err error) {
	ei.reqs, err = ei.entry.ProcessRequests(msgs, ei.reqs[:0])
	return ei.reqs, err
}

// OnResponses implements server.Interceptor.
func (ei *entryInterceptor) OnResponses(msgs [][]byte) (_ [][]byte, err error) {
	ei.resps, err = ei.entry.ProcessResponses(msgs, ei.resps[:0])
	return ei.resps, err
}
