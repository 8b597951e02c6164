package core

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
)

// The multi-process harness re-executes this test binary as ensemble
// replicas: TestMain diverts a child process (marked by SK_NODE_HELPER)
// into runNodeHelper before any test runs, so each replica is a real
// OS process with its own zabnet mesh endpoint — the deployment shape
// the paper evaluates, one replica per machine.

func TestMain(m *testing.M) {
	if os.Getenv("SK_NODE_HELPER") == "1" {
		runNodeHelper()
		return
	}
	os.Exit(m.Run())
}

// runNodeHelper runs one replica until the parent kills the process.
// It prints "ROLE <id> <role> <leader>" transitions on stdout; the
// parent parses them to locate the leader.
func runNodeHelper() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "node helper:", err)
		os.Exit(1)
	}
	id, err := strconv.ParseInt(os.Getenv("SK_NODE_ID"), 10, 64)
	if err != nil {
		fail(fmt.Errorf("SK_NODE_ID: %w", err))
	}
	topo, err := ParseTopology(os.Getenv("SK_NODE_TOPOLOGY"))
	if err != nil {
		fail(err)
	}
	node, err := NewNode(NodeConfig{
		Variant:  Vanilla,
		ID:       zab.PeerID(id),
		Topology: topo,
		// Fast failover so the harness (and CI) does not stall: these
		// mirror the in-process test cluster's settings.
		TickInterval:    5 * time.Millisecond,
		ElectionTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", os.Getenv("SK_NODE_CLIENT_ADDR"))
	if err != nil {
		fail(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = node.ServeExternal(transport.NewFramedConn(conn))
			}()
		}
	}()
	fmt.Printf("READY %d\n", id)
	lastRole, lastLeader := zab.Role(0), zab.PeerID(-2)
	for {
		role, leader := node.Role(), node.Leader()
		if role != lastRole || leader != lastLeader {
			lastRole, lastLeader = role, leader
			fmt.Printf("ROLE %d %s %d\n", id, role, leader)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// procEnsemble manages the child replica processes.
type procEnsemble struct {
	t           *testing.T
	topo        Topology              // mesh addresses + roles
	peers       map[zab.PeerID]string // mesh addresses (all members)
	clientAddrs map[zab.PeerID]string

	mu    sync.Mutex
	procs map[zab.PeerID]*exec.Cmd
	roles map[zab.PeerID]zab.Role
	lead  map[zab.PeerID]zab.PeerID
}

// freePorts reserves n distinct ephemeral ports. The listeners close
// just before the children bind, so a tiny reuse race exists; a child
// that loses it exits immediately, which the harness surfaces on
// stderr (the test then fails on its leader-wait with that context).
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return addrs
}

func newProcEnsemble(t *testing.T, n int) *procEnsemble {
	return newProcObserverEnsemble(t, n, 0)
}

// newProcObserverEnsemble spawns nVoters voting replicas (ids
// 1..nVoters) plus nObs observer replicas (the ids after the voters),
// each its own OS process.
func newProcObserverEnsemble(t *testing.T, nVoters, nObs int) *procEnsemble {
	t.Helper()
	n := nVoters + nObs
	addrs := freePorts(t, 2*n)
	pe := &procEnsemble{
		t: t,
		topo: Topology{
			Voters:    make(map[zab.PeerID]string, nVoters),
			Observers: make(map[zab.PeerID]string, nObs),
		},
		peers:       make(map[zab.PeerID]string, n),
		clientAddrs: make(map[zab.PeerID]string, n),
		procs:       make(map[zab.PeerID]*exec.Cmd, n),
		roles:       make(map[zab.PeerID]zab.Role, n),
		lead:        make(map[zab.PeerID]zab.PeerID, n),
	}
	for i := 0; i < n; i++ {
		id := zab.PeerID(i + 1)
		if i < nVoters {
			pe.topo.Voters[id] = addrs[i]
		} else {
			pe.topo.Observers[id] = addrs[i]
		}
		pe.peers[id] = addrs[i]
		pe.clientAddrs[id] = addrs[n+i]
	}
	for id := range pe.peers {
		pe.start(id)
	}
	t.Cleanup(pe.killAll)
	return pe
}

// start spawns (or respawns) replica id as a child process.
func (pe *procEnsemble) start(id zab.PeerID) {
	pe.t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"SK_NODE_HELPER=1",
		fmt.Sprintf("SK_NODE_ID=%d", id),
		"SK_NODE_TOPOLOGY="+pe.topo.String(),
		"SK_NODE_CLIENT_ADDR="+pe.clientAddrs[id],
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		pe.t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		pe.t.Fatal(err)
	}
	go pe.scanRoles(id, stdout)
	// Reap the child when it exits. SIGKILL-based shutdown is the
	// expected path; any other failure (port-bind race, helper error)
	// is surfaced on stderr so a later timeout has its real cause next
	// to it. Not t.Logf: the reaper can outlive the test.
	go func() {
		err := cmd.Wait()
		if err != nil && err.Error() != "signal: killed" {
			fmt.Fprintf(os.Stderr, "multiproc harness: node %d exited: %v\n", id, err)
		}
	}()

	pe.mu.Lock()
	pe.procs[id] = cmd
	pe.roles[id] = 0
	pe.lead[id] = -2
	pe.mu.Unlock()
}

func (pe *procEnsemble) scanRoles(id zab.PeerID, r interface{ Read([]byte) (int, error) }) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		pe.t.Logf("node %d: %s", id, line)
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "ROLE" {
			continue
		}
		var role zab.Role
		switch fields[2] {
		case "LOOKING":
			role = zab.RoleLooking
		case "FOLLOWING":
			role = zab.RoleFollowing
		case "LEADING":
			role = zab.RoleLeading
		case "OBSERVING":
			role = zab.RoleObserving
		default:
			continue
		}
		leader, _ := strconv.ParseInt(fields[3], 10, 64)
		pe.mu.Lock()
		pe.roles[id] = role
		pe.lead[id] = zab.PeerID(leader)
		pe.mu.Unlock()
	}
}

func (pe *procEnsemble) role(id zab.PeerID) zab.Role {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.roles[id]
}

// leaderAmong returns the (unique) child of ids currently LEADING.
func (pe *procEnsemble) leaderAmong(ids []zab.PeerID) (zab.PeerID, bool) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	for _, id := range ids {
		if pe.roles[id] == zab.RoleLeading {
			return id, true
		}
	}
	return 0, false
}

// sigkill delivers SIGKILL — a hard crash, no shutdown path runs.
func (pe *procEnsemble) sigkill(id zab.PeerID) {
	pe.mu.Lock()
	cmd := pe.procs[id]
	pe.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Signal(syscall.SIGKILL)
	}
}

func (pe *procEnsemble) killAll() {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	for _, cmd := range pe.procs {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Signal(syscall.SIGKILL)
		}
	}
}

// connect opens a client session to child id, retrying while the child
// is still binding its listener.
func (pe *procEnsemble) connect(id zab.PeerID) (*client.Client, error) {
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		tcp, err := net.DialTimeout("tcp", pe.clientAddrs[id], time.Second)
		if err != nil {
			lastErr = err
			time.Sleep(20 * time.Millisecond)
			continue
		}
		cl, err := client.NewSession(transport.NewFramedConn(tcp), client.Options{})
		if err != nil {
			_ = tcp.Close()
			lastErr = err
			time.Sleep(20 * time.Millisecond)
			continue
		}
		return cl, nil
	}
	return nil, fmt.Errorf("connect to node %d: %w", id, lastErr)
}

// syncGet returns the node's replicated value for path after a SYNC
// barrier, so reads do not race the commit propagation.
func syncGet(cl *client.Client, path string) ([]byte, error) {
	if err := cl.Sync(ctxbg, path); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	data, _, err := cl.Get(ctxbg, path)
	return data, err
}

// retryWrite retries a write while the ensemble is mid-election
// (CONNECTIONLOSS is the correct client-visible outcome of failover;
// real clients re-issue).
func retryWrite(t *testing.T, what string, f func() error) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = f(); err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s: %v", what, err)
}

// TestMultiProcessFailover is the paper-shaped deployment test: three
// replicas as three OS processes over the TCP mesh, client traffic
// across all of them, a SIGKILL of the leader mid-service,
// re-election, continued service, and resync of the restarted replica.
func TestMultiProcessFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness in -short mode")
	}
	pe := newProcEnsemble(t, 3)
	all := []zab.PeerID{1, 2, 3}

	waitLeader := func(among []zab.PeerID) zab.PeerID {
		t.Helper()
		var leader zab.PeerID
		waitForCond(t, 15*time.Second, "leader among survivors", func() bool {
			var ok bool
			leader, ok = pe.leaderAmong(among)
			return ok
		})
		return leader
	}
	leader := waitLeader(all)
	t.Logf("initial leader: node %d", leader)

	// Writes via a FOLLOWER exercise cross-process request forwarding;
	// reads land on every replica.
	var follower zab.PeerID
	for _, id := range all {
		if id != leader {
			follower = id
			break
		}
	}
	fcl, err := pe.connect(follower)
	if err != nil {
		t.Fatal(err)
	}
	retryWrite(t, "create /mp via follower", func() error {
		_, err := fcl.Create(ctxbg, "/mp", []byte("v1"), 0)
		return err
	})
	for _, id := range all {
		cl, err := pe.connect(id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := syncGet(cl, "/mp")
		if err != nil || !bytes.Equal(data, []byte("v1")) {
			t.Fatalf("node %d: /mp = %q, %v", id, data, err)
		}
		_ = cl.Close()
	}
	_ = fcl.Close()

	// Crash the leader hard. The survivors must re-elect and keep
	// serving.
	t.Logf("SIGKILL leader node %d", leader)
	pe.sigkill(leader)
	survivors := make([]zab.PeerID, 0, 2)
	for _, id := range all {
		if id != leader {
			survivors = append(survivors, id)
		}
	}
	newLeader := waitLeader(survivors)
	t.Logf("re-elected leader: node %d", newLeader)
	if newLeader == leader {
		t.Fatalf("dead node %d cannot lead", leader)
	}

	scl, err := pe.connect(survivors[0])
	if err != nil {
		t.Fatal(err)
	}
	retryWrite(t, "set /mp after failover", func() error {
		_, err := scl.Set(ctxbg, "/mp", []byte("v2"), -1)
		return err
	})
	_ = scl.Close()
	for _, id := range survivors {
		cl, err := pe.connect(id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := syncGet(cl, "/mp")
		if err != nil || !bytes.Equal(data, []byte("v2")) {
			t.Fatalf("survivor %d after failover: /mp = %q, %v", id, data, err)
		}
		_ = cl.Close()
	}

	// Restart the crashed replica on the same addresses: it must rejoin
	// as a follower and resync the writes it missed.
	t.Logf("restarting node %d", leader)
	pe.start(leader)
	waitForCond(t, 15*time.Second, "restarted node to follow", func() bool {
		return pe.role(leader) == zab.RoleFollowing
	})
	cl, err := pe.connect(leader)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	waitForCond(t, 15*time.Second, "restarted node to serve resynced data", func() bool {
		data, err = syncGet(cl, "/mp")
		return err == nil && bytes.Equal(data, []byte("v2"))
	})
	_ = cl.Close()
}

func waitForCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newTCPNodeEnsemble builds n Nodes in-process whose replicas talk
// zab over real TCP meshes on ephemeral ports. tweak, if given, edits
// each node's configuration before it starts.
func newTCPNodeEnsemble(t *testing.T, n int, v Variant, tweak ...func(*NodeConfig)) []*Node {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make(map[zab.PeerID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		peers[zab.PeerID(i+1)] = ln.Addr().String()
	}
	var key []byte
	if v == SecureKeeper {
		key = bytes.Repeat([]byte{0x42}, 16)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := NodeConfig{
			Variant:         v,
			ID:              zab.PeerID(i + 1),
			Topology:        VoterTopology(peers),
			MeshListener:    listeners[i],
			StorageKey:      key,
			TickInterval:    5 * time.Millisecond,
			ElectionTimeout: 250 * time.Millisecond,
		}
		for _, f := range tweak {
			f(&cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
	}
	return nodes
}

func tcpEnsembleLeader(t *testing.T, nodes []*Node) *Node {
	t.Helper()
	var leader *Node
	waitForCond(t, 15*time.Second, "TCP-mesh ensemble leader", func() bool {
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
				return true
			}
		}
		return false
	})
	return leader
}

// TestTCPMeshServesAllVariants runs a quick create/set/get round over
// the TCP mesh for every variant (SecureKeeper with a shared storage
// key, the multi-process provisioning path).
func TestTCPMeshServesAllVariants(t *testing.T) {
	for _, v := range []Variant{Vanilla, TLS, SecureKeeper} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			nodes := newTCPNodeEnsemble(t, 3, v)
			leader := tcpEnsembleLeader(t, nodes)
			cl, err := leader.Connect(client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			retryWrite(t, "create", func() error {
				_, err := cl.Create(ctxbg, "/v", []byte("x"), 0)
				return err
			})
			if _, err := cl.Set(ctxbg, "/v", []byte("y"), -1); err != nil {
				t.Fatal(err)
			}
			// Every replica converges on the update. (A quorum of two
			// has served the writes; the third may still be joining,
			// and a SYNC through it fails until it follows.)
			for i, n := range nodes {
				if err := n.WaitForRole(15 * time.Second); err != nil {
					t.Fatal(err)
				}
				ncl, err := n.Connect(client.Options{})
				if err != nil {
					t.Fatal(err)
				}
				data, err := syncGet(ncl, "/v")
				if err != nil || !bytes.Equal(data, []byte("y")) {
					t.Fatalf("node %d: /v = %q, %v", i+1, data, err)
				}
				_ = ncl.Close()
			}
		})
	}
}

// TestTCPMeshBatchingContended replays the contended Fig 8 workload
// against a TCP-mesh ensemble: 16 concurrent writers on distinct
// nodes. PR 2's proposal batching must survive the real transport —
// the acceptance bar is ≤ 0.5 propose-frames/txn (unbatched would be
// 2.0 with two followers).
func TestTCPMeshBatchingContended(t *testing.T) {
	if testing.Short() {
		t.Skip("contended workload in -short mode")
	}
	nodes := newTCPNodeEnsemble(t, 3, Vanilla)
	leader := tcpEnsembleLeader(t, nodes)

	const clients = 16
	const opsPerClient = 100
	// Sessions and paths are created once; each measurement run only
	// Sets (a second run re-creating existing paths would spin on
	// NodeExists forever).
	cls := make([]*client.Client, clients)
	for i := range cls {
		cl, err := leader.Connect(client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		cls[i] = cl
		path := fmt.Sprintf("/fig8-%d", i)
		retryWrite(t, "create "+path, func() error {
			_, err := cl.Create(ctxbg, path, nil, 0)
			return err
		})
	}
	run := func() float64 {
		t.Helper()
		before := leader.Replica().Peer().StatsSnapshot()
		payload := bytes.Repeat([]byte{0xaa}, 1024)
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i, cl := range cls {
			wg.Add(1)
			go func(i int, cl *client.Client) {
				defer wg.Done()
				path := fmt.Sprintf("/fig8-%d", i)
				for op := 0; op < opsPerClient; op++ {
					if _, err := cl.Set(ctxbg, path, payload, -1); err != nil {
						errs <- fmt.Errorf("client %d op %d: %w", i, op, err)
						return
					}
				}
			}(i, cl)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		after := leader.Replica().Peer().StatsSnapshot()
		txns := after.Proposals - before.Proposals
		frames := after.ProposeFrames - before.ProposeFrames
		if txns < clients*opsPerClient {
			t.Fatalf("only %d txns proposed", txns)
		}
		ratio := float64(frames) / float64(txns)
		t.Logf("propose-frames/txn over TCP mesh: %.3f (%d frames / %d txns)", ratio, frames, txns)
		return ratio
	}

	// One retry absorbs a pathological scheduling run on starved CI
	// hosts; the workload itself is the same both times.
	ratio := run()
	if ratio > 0.5 {
		t.Logf("ratio %.3f > 0.5, retrying once", ratio)
		ratio = run()
	}
	if ratio > 0.5 {
		t.Fatalf("propose-frames/txn = %.3f, want <= 0.5 (batching regressed over the TCP mesh)", ratio)
	}
}

// TestMultiProcessObserverCrash: a 3-voter + 1-observer ensemble of
// real OS processes. The observer settles into OBSERVING, serves a
// replicated read, and its SIGKILL neither blocks further commits nor
// disturbs the voters' leadership (it was never part of quorum).
func TestMultiProcessObserverCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness in -short mode")
	}
	pe := newProcObserverEnsemble(t, 3, 1)
	voters := []zab.PeerID{1, 2, 3}
	const obs = zab.PeerID(4)

	var leader zab.PeerID
	waitForCond(t, 15*time.Second, "initial leader", func() bool {
		l, ok := pe.leaderAmong(voters)
		leader = l
		return ok
	})
	waitForCond(t, 15*time.Second, "observer to settle", func() bool {
		return pe.role(obs) == zab.RoleObserving
	})

	cl, err := pe.connect(leader)
	if err != nil {
		t.Fatal(err)
	}
	retryWrite(t, "create", func() error {
		_, err := cl.Create(ctxbg, "/oc", []byte("v1"), 0)
		return err
	})

	// The observer process replays the commit and serves the read.
	ocl, err := pe.connect(obs)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	waitForCond(t, 15*time.Second, "observer to serve the write", func() bool {
		data, err = syncGet(ocl, "/oc")
		return err == nil && bytes.Equal(data, []byte("v1"))
	})
	_ = ocl.Close()

	// Hard-kill the observer: commits keep flowing and leadership holds.
	pe.sigkill(obs)
	retryWrite(t, "write after observer crash", func() error {
		_, err := cl.Set(ctxbg, "/oc", []byte("v2"), -1)
		return err
	})
	if l, ok := pe.leaderAmong(voters); !ok || l != leader {
		t.Fatalf("leadership moved after observer crash: leader %d -> %d (ok=%v)", leader, l, ok)
	}
	_ = cl.Close()
}
