package securekeeper_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/obs"
	"securekeeper/internal/server"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
)

// newDurableBenchReplica boots a single durable replica backed by dir,
// reporting to reg.
func newDurableBenchReplica(tb testing.TB, dir string, reg *obs.Registry) *server.Replica {
	tb.Helper()
	net := zab.NewNetwork()
	r := server.NewReplica(server.Config{
		ID:              1,
		Peers:           []zab.PeerID{1},
		Transport:       net.Endpoint(1),
		TickInterval:    5 * time.Millisecond,
		ElectionTimeout: 60 * time.Millisecond,
		DataDir:         dir,
		// Steady-state log appends only: snapshot churn would measure
		// tree serialization, not the commit path.
		SnapshotEvery: 1 << 30,
		Obs:           reg,
	})
	tb.Cleanup(func() {
		r.Close()
		net.Close()
	})
	deadline := time.Now().Add(5 * time.Second)
	for !r.IsLeader() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !r.IsLeader() {
		tb.Fatal("single replica did not lead")
	}
	return r
}

func connectBench(tb testing.TB, r *server.Replica) *client.Client {
	tb.Helper()
	a, sEnd := transport.NewChanPipe()
	go func() { _ = r.ServeConn(sEnd, nil) }()
	cl, err := client.NewSession(a, client.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = cl.Close() })
	return cl
}

// BenchmarkDurableCommit measures the group-committed write path end
// to end: N concurrent synchronous writers Set their own znode on a
// durable replica, and every acknowledgement waits for the WAL fsync
// covering its transaction. With group commit the per-transaction cost
// must SHRINK as writers grow — concurrent commits piling into one
// fsync window share a single disk flush — which the txns/fsync metric
// makes visible (1 writer ≈ 1 txn/fsync; 64 writers should batch far
// above that).
func BenchmarkDurableCommit(b *testing.B) {
	for _, writers := range []int{1, 8, 64} {
		writers := writers
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			reg := obs.NewRegistry()
			ops := durableCommit(b, reg, writers)
			fsyncs, txns := fsyncTally(b, reg)
			measure(b, ops)
			b.StopTimer()
			fsyncsAfter, txnsAfter := fsyncTally(b, reg)
			if n := fsyncsAfter - fsyncs; n > 0 {
				b.ReportMetric((txnsAfter-txns)/n, "txns/fsync")
			}
		})
	}
}

// durableCommit sets up BenchmarkDurableCommit's load on a fresh
// durable replica reporting to reg: writers sessions, each Setting its
// own 128-byte node from its own goroutine.
func durableCommit(tb testing.TB, reg *obs.Registry, writers int) load {
	tb.Helper()
	r := newDurableBenchReplica(tb, tb.TempDir(), reg)
	payload := make([]byte, 128)
	cls := make([]*client.Client, writers)
	paths := make([]string, writers)
	for i := range cls {
		cls[i] = connectBench(tb, r)
		paths[i] = fmt.Sprintf("/w%02d", i)
		create(tb, cls[i], paths[i], payload)
	}
	return func(n int) { parallelSets(tb, cls, paths, payload, n) }
}

// fsyncTally reads storage_txns_per_fsync from reg: its count is the
// group-commit fsyncs so far, its sum the transactions they covered.
func fsyncTally(b *testing.B, reg *obs.Registry) (fsyncs, txns float64) {
	b.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	var metrics []struct {
		Name  string
		Count *int64
		Sum   *float64
	}
	if err := json.Unmarshal(buf.Bytes(), &metrics); err != nil {
		b.Fatal(err)
	}
	for _, m := range metrics {
		if m.Name == "storage_txns_per_fsync" && m.Count != nil {
			return float64(*m.Count), *m.Sum
		}
	}
	return 0, 0
}
