package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/internal/obs"
	"securekeeper/internal/server"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// Protocol timing, the same for every workload. Nothing is injected
// between replicas: message delay is whatever the in-process channels or
// the loopback interface give.
const (
	tickInterval    = 25 * time.Millisecond
	electionTimeout = 500 * time.Millisecond
	// deviceLatency is the stated latency of the simulated log device:
	// every group-commit flush of durable_write_sk sleeps this long
	// before the real fsync, on every replica.
	deviceLatency = 2 * time.Millisecond
	snapshotEvery = 50000
)

// ensemble is the system under test: an in-process core.Cluster, or
// three core.Nodes on the loopback zabnet mesh with a TCP client
// listener each. Client sessions are built by the benchmark itself, on
// the public ServeExternal seam, so that it can put its own instruments
// around the secure channel.
type ensemble struct {
	sp      *spec
	cluster *core.Cluster
	nodes   []*core.Node
	clients []net.Listener // per node, write_tcp_sk only
	dataDir string         // removed on close

	// traceOn switches every instrument of this ensemble. nil when the
	// run is untraced: then no wrapper is installed at all.
	traceOn *atomic.Bool
	zabSent *zabCounter

	serving sync.WaitGroup
}

// startEnsemble constructs and starts the replicas. The caller waits for
// the election with waitSettled.
func startEnsemble(sp *spec, scratch string, traced bool) (*ensemble, error) {
	e := &ensemble{sp: sp}
	if traced {
		e.traceOn = new(atomic.Bool)
		e.zabSent = &zabCounter{on: e.traceOn}
	}
	var err error
	if sp.tcp {
		err = e.startNodes()
	} else {
		err = e.startCluster(scratch)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *ensemble) startCluster(scratch string) error {
	cfg := core.Config{
		Variant:         e.sp.variant,
		Replicas:        numReplicas,
		TickInterval:    tickInterval,
		ElectionTimeout: electionTimeout,
		ApplySGXLatency: true,
	}
	if e.sp.durable {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return err
		}
		e.dataDir = dir
		cfg.DataDir = dir
		cfg.SnapshotEvery = snapshotEvery
	}
	if e.zabSent != nil {
		cfg.WrapTransport = func(_ zab.PeerID, inner zab.Transport, _ *obs.Registry) zab.Transport {
			return &countingTransport{Transport: inner, c: e.zabSent}
		}
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	e.cluster = c
	return nil
}

func (e *ensemble) startNodes() error {
	storageKey := bytes.Repeat([]byte{0x5b}, 16)
	mesh := make(map[zab.PeerID]net.Listener)
	addrs := make(map[zab.PeerID]string)
	for id := zab.PeerID(1); id <= numReplicas; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		mesh[id] = ln
		addrs[id] = ln.Addr().String()
	}
	topo := core.VoterTopology(addrs)
	for id := zab.PeerID(1); id <= numReplicas; id++ {
		node, err := core.NewNode(core.NodeConfig{
			Variant:         e.sp.variant,
			ID:              id,
			Topology:        topo,
			MeshListener:    mesh[id],
			StorageKey:      storageKey,
			TickInterval:    tickInterval,
			ElectionTimeout: electionTimeout,
			ApplySGXLatency: true,
			Logf:            func(string, ...any) {},
		})
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, node)
	}
	for _, node := range e.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.clients = append(e.clients, ln)
		e.serving.Add(1)
		go e.acceptLoop(node, ln)
	}
	return nil
}

func (e *ensemble) acceptLoop(node *core.Node, ln net.Listener) {
	defer e.serving.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			if err := node.ServeExternal(transport.NewFramedConn(conn)); err != nil {
				_ = conn.Close()
			}
		}()
	}
}

func (e *ensemble) size() int { return numReplicas }

func (e *ensemble) replica(i int) *server.Replica {
	if e.cluster != nil {
		return e.cluster.Replica(i)
	}
	return e.nodes[i].Replica()
}

func (e *ensemble) registry(i int) *obs.Registry {
	if e.cluster != nil {
		return e.cluster.Obs(i)
	}
	return e.nodes[i].Obs()
}

func (e *ensemble) publicKey(i int) []byte {
	if e.cluster != nil {
		return e.cluster.ReplicaPublicKey(i)
	}
	return e.nodes[i].ReplicaPublicKey()
}

// leader returns the index of the leading replica, or -1.
func (e *ensemble) leader() int {
	for i := 0; i < e.size(); i++ {
		if e.replica(i).IsLeader() {
			return i
		}
	}
	return -1
}

// elections sums the elections every replica has started. It does not
// move while a leader holds, so a change between two readings means the
// ensemble re-elected in between.
func (e *ensemble) elections() int64 {
	var n int64
	for i := 0; i < e.size(); i++ {
		n += e.replica(i).Peer().StatsSnapshot().Elections
	}
	return n
}

// waitSettled blocks until one replica leads and the others follow it.
func (e *ensemble) waitSettled(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := e.leader(); l >= 0 {
			followers := 0
			for i := 0; i < e.size(); i++ {
				p := e.replica(i).Peer()
				if i != l && p.Role() == zab.RoleFollowing && p.Leader() == e.replica(l).ID() {
					followers++
				}
			}
			if followers == e.size()-1 {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("ensemble did not settle on a leader")
}

// placeSessions attaches session 0 to the leader and session 1 to the
// lowest-numbered follower. Which replica wins the election differs from
// run to run; a write that enters at the leader skips the forwarding
// hop, so attaching sessions to fixed replica numbers would make write
// latency depend on the election's outcome.
func placeSessions(leader, replicas int) ([numSessions]int, error) {
	if leader < 0 || leader >= replicas || replicas < 2 {
		return [numSessions]int{}, fmt.Errorf("cannot place sessions: leader %d of %d replicas", leader, replicas)
	}
	follower := 0
	if leader == 0 {
		follower = 1
	}
	return [numSessions]int{leader, follower}, nil
}

// connect opens a client session to replica i with the variant's stack.
func (e *ensemble) connect(i int) (*client.Client, *sessionTrace, error) {
	var conn, serverEnd transport.Conn
	if e.sp.tcp {
		tcp, err := net.Dial("tcp", e.clients[i].Addr().String())
		if err != nil {
			return nil, nil, err
		}
		conn = transport.NewFramedConn(tcp)
	} else {
		clientEnd, se := transport.NewChanPipe()
		conn, serverEnd = clientEnd, se
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			if err := e.cluster.ServeExternal(i, se); err != nil {
				// Closing our end too releases a client that is still
				// waiting for the handshake.
				_ = se.Close()
			}
		}()
	}
	fail := func(err error) (*client.Client, *sessionTrace, error) {
		_ = conn.Close()
		if serverEnd != nil {
			_ = serverEnd.Close()
		}
		return nil, nil, err
	}

	var st *sessionTrace
	if e.traceOn != nil {
		st = &sessionTrace{under: newTracedConn(conn, e.traceOn)}
		conn = st.under
	}
	if e.sp.variant != core.Vanilla {
		id, err := transport.NewIdentity()
		if err != nil {
			return fail(err)
		}
		sc, err := transport.Handshake(conn, id, true, transport.VerifyExact(e.publicKey(i)))
		if err != nil {
			return fail(err)
		}
		conn = sc
		if st != nil {
			st.over = newTracedConn(conn, e.traceOn)
			conn = st.over
		}
	}
	cl, err := client.NewSession(conn, client.Options{})
	if err != nil {
		return fail(err)
	}
	return cl, st, nil
}

// stallDevice turns the simulated device latency on for every replica.
func (e *ensemble) stallDevice(d time.Duration) {
	for i := 0; i < e.size(); i++ {
		if p := e.replica(i).Persister(); p != nil {
			p.StallFsync(d)
		}
	}
}

// outboxShed sums the frames the mesh dropped on a full peer outbox.
func (e *ensemble) outboxShed() float64 {
	return scrape(registries(e)...).value("zabnet_outbox_shed_total")
}

// converged waits until every replica has applied the same last
// transaction and reports whether their tree digests agree.
func (e *ensemble) converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		zxid := e.replica(0).Peer().LastCommitted()
		same := true
		for i := 1; i < e.size(); i++ {
			same = same && e.replica(i).Peer().LastCommitted() == zxid
		}
		if same {
			digest := e.replica(0).Tree().Digest()
			for i := 1; i < e.size(); i++ {
				if d := e.replica(i).Tree().Digest(); d != digest {
					return fmt.Errorf("replica %d digest %x differs from replica 1 digest %x at zxid %x", i+1, d, digest, zxid)
				}
			}
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("replicas did not reach the same zxid")
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *ensemble) close() {
	for _, ln := range e.clients {
		_ = ln.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	e.serving.Wait()
	if e.dataDir != "" {
		_ = os.RemoveAll(e.dataDir)
	}
}

// isConnectionLoss reports the error a write gets when it reaches a
// replica that cannot propose or forward it yet.
func isConnectionLoss(err error) bool {
	var pe *wire.ProtocolError
	return errors.As(err, &pe) && pe.Code == wire.ErrConnectionLoss
}

// zabCounter counts what the replicas hand to the in-process peer
// transport while tracing is on.
type zabCounter struct {
	on    *atomic.Bool
	msgs  atomic.Int64
	bytes atomic.Int64
}

// countingTransport is the core.Config.WrapTransport shim. It must not
// implement zab.MultiSender: the in-process endpoint does not either,
// and every directed send should be counted.
type countingTransport struct {
	zab.Transport
	c *zabCounter
}

func (t *countingTransport) Send(to zab.PeerID, msg zab.Message) error {
	if t.c.on.Load() {
		enc := wire.GetEncoder()
		msg.Serialize(enc)
		t.c.bytes.Add(int64(enc.Len()))
		wire.PutEncoder(enc)
		t.c.msgs.Add(1)
	}
	return t.Transport.Send(to, msg)
}
