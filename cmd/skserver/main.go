// Command skserver runs ONE SecureKeeper (or baseline) replica and serves
// clients over TCP. The replica is connected to its peers over the zabnet
// TCP mesh — the paper's deployment shape, one replica per machine — so
// -id and -topology are required. The topology spec names every ensemble
// member, voters and observers alike, so all processes share one spec
// string. Each process serves clients on its own -listen address:
//
//	skserver -id 1 -topology '1@127.0.0.1:2888;2@127.0.0.1:2889;3@127.0.0.1:2890;4@127.0.0.1:2891:observer' -listen 127.0.0.1:2181
//	skserver -id 2 -topology '1@127.0.0.1:2888;2@127.0.0.1:2889;3@127.0.0.1:2890;4@127.0.0.1:2891:observer' -listen 127.0.0.1:2182
//	...
//	skserver -id 4 -topology '1@127.0.0.1:2888;2@127.0.0.1:2889;3@127.0.0.1:2890;4@127.0.0.1:2891:observer' -listen 127.0.0.1:2184
//
// Replica 4 above joins as a non-voting observer: it replays the
// leader's commit stream and serves reads, but never votes or counts
// toward quorum. A topology of one member is a whole ensemble in one
// process; a program that wants several replicas in its own process
// embeds core.NewCluster, as the examples do.
//
// For -variant securekeeper every replica of an ensemble of more than one
// must share one storage key: pass the same -storage-key (32 hex chars) to
// each process, playing the role of the paper's key server releasing
// one key to all attested enclaves.
//
// Role transitions are printed as "skserver: id=N role=LEADING
// leader=N" lines; orchestration (and the CI failover smoke) watches
// them to find the leader. Connect with skclient.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"securekeeper/internal/core"
	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "skserver:", err)
		os.Exit(1)
	}
}

// run starts the replica on its TCP peer mesh and serves clients until
// interrupted. With -data-dir the replica is durable: committed
// transactions are logged and snapshotted there, and a restart recovers
// from disk instead of relying on a live leader's snapshot/diff sync.
func run() error {
	variant := flag.String("variant", "securekeeper", "vanilla, tls or securekeeper")
	listen := flag.String("listen", "127.0.0.1:2181", "client address")
	id := flag.Int64("id", 0, "this replica's id in -topology (required)")
	topologyFlag := flag.String("topology", "", "ensemble spec, id@host:port[:observer] semicolon-separated (required)")
	storageKey := flag.String("storage-key", "", "shared storage key, hex (securekeeper ensembles of more than one replica)")
	dataDir := flag.String("data-dir", "", "durable state directory; empty = in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 100000, "commits between durable snapshots, ZooKeeper's snapCount; a snapshot purges the log segments it covers (0 = never)")
	metricsAddr := flag.String("metrics-addr", "", "admin HTTP address serving /metrics (Prometheus text), /metrics.json and /debug/pprof/; empty disables")
	flag.Parse()

	v, err := parseVariant(*variant)
	if err != nil {
		return err
	}
	if *id == 0 || *topologyFlag == "" {
		flag.Usage()
		return fmt.Errorf("-id and -topology are required: skserver runs one replica of the ensemble -topology describes (a single-replica ensemble is -id 1 -topology '1@127.0.0.1:2888')")
	}
	topo, err := core.ParseTopology(*topologyFlag)
	if err != nil {
		return fmt.Errorf("parse -topology: %w", err)
	}
	var key []byte
	if *storageKey != "" {
		if key, err = hex.DecodeString(*storageKey); err != nil {
			return fmt.Errorf("parse -storage-key: %w", err)
		}
	}
	node, err := core.NewNode(core.NodeConfig{
		Variant:       v,
		ID:            zab.PeerID(*id),
		Topology:      topo,
		StorageKey:    key,
		DataDir:       *dataDir,
		SnapshotEvery: *snapshotEvery,
		// Mesh and membership lifecycle lines (reconfig applications,
		// link attestation failures, removal notices) go to stderr where
		// the smoke harnesses collect per-node logs.
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	defer ln.Close()
	role := "voter"
	if topo.IsObserver(zab.PeerID(*id)) {
		role = "observer"
	}
	fmt.Printf("skserver: id=%d variant=%s mesh=%s clients=%s voters=%d observers=%d member=%s\n",
		*id, v, node.Mesh().Addr(), ln.Addr(), len(topo.Voters), len(topo.Observers), role)
	if *metricsAddr != "" {
		mln, err := serveMetrics(*metricsAddr, node.Obs())
		if err != nil {
			return err
		}
		defer mln.Close()
		fmt.Printf("skserver: id=%d metrics=%s\n", *id, mln.Addr())
	}

	go watchRole(node)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := node.ServeExternal(transport.NewFramedConn(conn)); err != nil {
					fmt.Fprintf(os.Stderr, "skserver: session on replica %d ended: %v\n", *id, err)
				}
			}()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("skserver: id=%d shutting down\n", *id)
	return nil
}

// serveMetrics starts the opt-in admin HTTP listener: GET /metrics
// serves Prometheus text exposition, GET /metrics.json a debug dump of
// the same snapshot, and /debug/pprof/ the runtime profiles of this
// process (`go tool pprof http://<addr>/debug/pprof/profile`). Returns
// the listener so the caller can close it and report the bound address.
func serveMetrics(addr string, reg *obs.Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}

// watchRole prints ensemble role transitions; the failover harness and
// the CI smoke script grep these lines to locate the leader.
func watchRole(node *core.Node) {
	var lastRole zab.Role
	var lastLeader zab.PeerID = -2
	for range time.Tick(50 * time.Millisecond) {
		role, leader := node.Role(), node.Leader()
		if role == lastRole && leader == lastLeader {
			continue
		}
		lastRole, lastLeader = role, leader
		fmt.Printf("skserver: id=%d role=%s leader=%d\n", node.ID(), role, leader)
	}
}

func parseVariant(s string) (core.Variant, error) {
	switch s {
	case "vanilla":
		return core.Vanilla, nil
	case "tls":
		return core.TLS, nil
	case "securekeeper":
		return core.SecureKeeper, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want vanilla, tls or securekeeper)", s)
	}
}
