// Package securekeeper's root benchmark suite: one testing.B benchmark
// per figure and table of the paper's evaluation (§6), expressed as
// per-operation costs, plus ablation benchmarks for its design choices.
// Table 3 is `go run ./cmd/sksloc`. TestEndToEndAllocations
// (alloc_test.go) runs the loads of the Fig 7/8, Multi, mixed, observer
// and durable benchmarks against allocation budgets.
//
// Run with: go test -bench=. -benchmem
package securekeeper_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/internal/enclave"
	"securekeeper/internal/kvstore"
	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// ctxbg is the background context for benchmark operations.
var ctxbg = context.Background()

// variants are the paper's three systems, in its order.
var variants = []core.Variant{core.Vanilla, core.TLS, core.SecureKeeper}

// opMode is the operation pattern benchOps runs.
type opMode int

const (
	opGet       opMode = iota // GET of the target node
	opSet                     // SET of the target node
	opCreate                  // CREATE of a new regular node
	opCreateSeq               // CREATE of a new sequential node
	opLs                      // getChildren of a node with 8 children
	opMixed                   // 70:30 GET/SET
)

// newBenchCluster boots a cluster tuned for benchmarking.
func newBenchCluster(tb testing.TB, v core.Variant) *core.Cluster {
	tb.Helper()
	c, err := core.NewCluster(core.Config{
		Variant:         v,
		Replicas:        3,
		TickInterval:    25 * time.Millisecond,
		ElectionTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return c
}

// connect opens a session to replica i, closed when tb ends.
func connect(tb testing.TB, c *core.Cluster, i int) *client.Client {
	tb.Helper()
	cl, err := c.Connect(i, client.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = cl.Close() })
	return cl
}

// create makes the node path holding data, or fails tb.
func create(tb testing.TB, cl *client.Client, path string, data []byte) {
	tb.Helper()
	if _, err := cl.Create(ctxbg, path, data, 0); err != nil {
		tb.Fatal(err)
	}
}

// A load is an end-to-end op stream, set up on a running ensemble: each
// call issues n more ops and returns once all of them are answered. A
// figure benchmark times it over b.N ops (measure), and
// TestEndToEndAllocations counts the objects it allocates.
type load func(n int)

// measure times ops over the benchmark's b.N ops, allocations reported.
func measure(b *testing.B, ops load) {
	b.ReportAllocs()
	b.ResetTimer()
	ops(b.N)
}

// syncOps sets up one client's synchronous stream of one operation
// type on nodes under root.
func syncOps(tb testing.TB, c *core.Cluster, root string, mode opMode, payloadSize int) load {
	tb.Helper()
	cl := connect(tb, c, 0)
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	target := root + "/target"
	create(tb, cl, root, nil)
	create(tb, cl, target, payload)
	if mode == opLs {
		for i := 0; i < 8; i++ {
			create(tb, cl, fmt.Sprintf("%s/c%02d", target, i), nil)
		}
	}
	next := 0
	return func(n int) {
		for end := next + n; next < end; next++ {
			i := next
			var err error
			switch mode {
			case opGet:
				_, _, err = cl.Get(ctxbg, target)
			case opSet:
				_, err = cl.Set(ctxbg, target, payload, -1)
			case opCreate:
				_, err = cl.Create(ctxbg, fmt.Sprintf("%s/n%09d", root, i), payload, 0)
			case opCreateSeq:
				_, err = cl.Create(ctxbg, root+"/s-", payload, wire.FlagSequential)
			case opLs:
				_, err = cl.Children(ctxbg, target)
			case opMixed:
				if i%10 < 7 {
					_, _, err = cl.Get(ctxbg, target)
				} else {
					_, err = cl.Set(ctxbg, target, payload, -1)
				}
			}
			if err != nil {
				tb.Fatalf("op %d: %v", i, err)
			}
		}
	}
}

// benchOps measures one synchronous operation type end to end. It
// returns the cluster, which stays up until the benchmark ends.
func benchOps(b *testing.B, v core.Variant, mode opMode, payloadSize int) *core.Cluster {
	b.Helper()
	cluster := newBenchCluster(b, v)
	measure(b, syncOps(b, cluster, "/b", mode, payloadSize))
	return cluster
}

// spread splits n ops over workers goroutines, worker w issuing k of
// them, and waits for them all.
func spread(n, workers int, worker func(w, k int)) {
	var wg sync.WaitGroup
	per, extra := n/workers, n%workers
	for w := 0; w < workers; w++ {
		k := per
		if w < extra {
			k++
		}
		if k == 0 {
			continue
		}
		wg.Add(1)
		go func(w, k int) {
			defer wg.Done()
			worker(w, k)
		}(w, k)
	}
	wg.Wait()
}

// parallelSets issues n synchronous Sets of payload, spread over one
// goroutine per session, session w setting paths[w].
func parallelSets(tb testing.TB, cls []*client.Client, paths []string, payload []byte, n int) {
	spread(n, len(cls), func(w, k int) {
		for i := 0; i < k; i++ {
			if _, err := cls[w].Set(ctxbg, paths[w], payload, -1); err != nil {
				tb.Error(err)
				return
			}
		}
	})
}

// pipelined issues n ops spread over the sessions in cls, each keeping
// up to window of them in flight: op(s, i) starts session s's i-th op.
// It returns once every answer is in; a failed op fails tb.
func pipelined(tb testing.TB, cls []*client.Client, n, window int, op func(s, i int) *client.Future) {
	spread(n, len(cls), func(s, k int) {
		futures := make(chan *client.Future, window)
		var drain sync.WaitGroup
		drain.Add(1)
		go func() {
			defer drain.Done()
			// Keep consuming after an error: returning early would leave
			// the producer blocked on a full channel and hang the caller
			// instead of failing it.
			failed := false
			for f := range futures {
				if res := f.Wait(); res.Err != nil && !failed {
					failed = true
					tb.Error(res.Err)
				}
			}
		}()
		for i := 0; i < k; i++ {
			futures <- op(s, i)
		}
		close(futures)
		drain.Wait()
	})
}

// forEachVariant runs a sub-benchmark per system variant.
func forEachVariant(b *testing.B, fn func(b *testing.B, v core.Variant)) {
	for _, v := range variants {
		v := v
		b.Run(v.String(), func(b *testing.B) { fn(b, v) })
	}
}

// --- Figure 2: memory usage ---

// BenchmarkFig2MemoryUsage shows a coordination service outgrowing the
// EPC on a small data set (§3.3): after a 70:30 GET/SET load on a
// Vanilla ensemble it reports each replica's share of the Go heap and
// its tree's size, with the usable EPC beside them.
func BenchmarkFig2MemoryUsage(b *testing.B) {
	cluster := benchOps(b, core.Vanilla, opMixed, 1024)
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var treeBytes int64
	for i := 0; i < cluster.Size(); i++ {
		treeBytes += cluster.Replica(i).Tree().ApproxBytes()
	}
	replicas := float64(cluster.Size())
	b.ReportMetric(float64(ms.HeapAlloc)/replicas/(1<<20), "heap-MB/replica")
	b.ReportMetric(float64(treeBytes)/replicas/(1<<20), "tree-MB/replica")
	b.ReportMetric(float64(sgx.EPCUsableBytes)/(1<<20), "epc-usable-MB")
}

// --- Figure 3: EPC paging on random access ---

func BenchmarkFig3EPCPaging(b *testing.B) {
	for _, mb := range []int{8, 64, 128, 256} {
		mb := mb
		b.Run(fmt.Sprintf("enclaveMB=%d", mb), func(b *testing.B) {
			rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
			bufBytes := int64(mb) << 20
			e, err := rt.Create(sgx.Spec{CodeIdentity: "bench", CodeBytes: 4096, HeapBytes: bufBytes})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Destroy(e)
			pages := bufBytes / sgx.PageSize
			rng := rand.New(rand.NewSource(42))
			for p := int64(0); p < pages; p++ {
				e.TouchRandomPage(bufBytes, p, false) // warm
			}
			rt.Meter().Reset() // exclude warm-up from the virtual metric
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TouchRandomPage(bufBytes, rng.Int63n(pages), false)
			}
			b.ReportMetric(rt.Meter().VirtualNs()/float64(b.N), "virtual-ns/op")
		})
	}
}

// --- Figure 4: in-enclave KVS vs native ---

func BenchmarkFig4EnclaveKVS(b *testing.B) {
	for _, tc := range []struct {
		name      string
		inEnclave bool
		mb        int
	}{
		{"native-16MB", false, 16},
		{"sgx-16MB", true, 16},
		{"native-512MB", false, 512},
		{"sgx-512MB", true, 512},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
			var store *kvstore.Store
			var err error
			if tc.inEnclave {
				store, err = kvstore.NewEnclaveStore(rt, int64(tc.mb)<<20)
			} else {
				store, err = kvstore.NewNativeStore(rt, int64(tc.mb)<<20)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			store.Warm()
			rt.Meter().Reset() // exclude warm-up from the virtual metric
			rng := rand.New(rand.NewSource(42))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Access(rng, i%10 < 3)
			}
			b.ReportMetric(rt.Meter().VirtualNs()/float64(b.N), "virtual-ns/op")
		})
	}
}

// --- Figures 6a/6b: mixed workload ---

func BenchmarkFig6aSyncMixed(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, opMixed, 1024)
	})
}

func BenchmarkFig6bAsyncMixed(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		cluster := newBenchCluster(b, v)
		cl := connect(b, cluster, 0)
		payload := make([]byte, 1024)
		create(b, cl, "/b", nil)
		create(b, cl, "/b/t", payload)
		b.ResetTimer()
		pipelined(b, []*client.Client{cl}, b.N, 64, func(_, i int) *client.Future {
			if i%10 < 7 {
				return cl.GetAsync("/b/t", false)
			}
			return cl.SetAsync("/b/t", payload, -1)
		})
	})
}

// --- Figures 7-10: per-operation throughput ---

func BenchmarkFig7Get(b *testing.B) {
	for _, payload := range []int{0, 1024, 4096} {
		payload := payload
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			forEachVariant(b, func(b *testing.B, v core.Variant) {
				benchOps(b, v, opGet, payload)
			})
		})
	}
}

func BenchmarkFig8Set(b *testing.B) {
	for _, payload := range []int{0, 1024, 4096} {
		payload := payload
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			forEachVariant(b, func(b *testing.B, v core.Variant) {
				benchOps(b, v, opSet, payload)
			})
		})
	}
}

// BenchmarkFig8SetContended is the multi-client variant of Fig 8: n
// concurrent clients hammer Set on distinct nodes, exercising the
// sharded ztree across paths and the leader's proposal batching under
// write bursts. It reports propose-frames/txn measured at the leader:
// without batching the ratio equals the follower count (2 in a
// 3-replica ensemble); batching must push it below that.
func BenchmarkFig8SetContended(b *testing.B) {
	for _, clients := range []int{4, 16} {
		clients := clients
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			forEachVariant(b, func(b *testing.B, v core.Variant) {
				cluster := newBenchCluster(b, v)
				leader := cluster.Replica(cluster.LeaderIndex()).Peer()
				ops := contendedSets(b, cluster, "/c", clients)
				statsBefore := leader.StatsSnapshot()
				measure(b, ops)
				b.StopTimer()
				stats := leader.StatsSnapshot()
				txns := stats.Proposals - statsBefore.Proposals
				frames := stats.ProposeFrames - statsBefore.ProposeFrames
				if txns > 0 {
					b.ReportMetric(float64(frames)/float64(txns), "propose-frames/txn")
				}
			})
		})
	}
}

// contendedSets sets up Fig 8's contended load: clients sessions on
// one replica, each Setting its own 1 KiB node under root, one
// goroutine per session.
func contendedSets(tb testing.TB, c *core.Cluster, root string, clients int) load {
	tb.Helper()
	payload := make([]byte, 1024)
	cls := make([]*client.Client, clients)
	paths := make([]string, clients)
	for i := range cls {
		cls[i] = connect(tb, c, 0)
		paths[i] = fmt.Sprintf("%s%d", root, i)
		create(tb, cls[i], paths[i], payload)
	}
	return func(n int) { parallelSets(tb, cls, paths, payload, n) }
}

// BenchmarkMixedReadWrite is the waiting-read workload: 8 concurrent
// sessions each pipeline a 90/10 GET/SET mix against their own znode. A
// read with nothing unanswered ahead of it executes on the session
// reader at once; a read behind one of the session's own writes waits
// in the session's FIFO queue and its writer executes it when it
// reaches the head. Reads of different sessions run in parallel.
// Reads/sec is the headline metric; it should scale with GOMAXPROCS
// instead of flatlining.
func BenchmarkMixedReadWrite(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		var reads atomic.Int64
		ops := mixedReadWrite(b, newBenchCluster(b, v), "/mx", &reads)
		start := time.Now()
		measure(b, ops)
		elapsed := time.Since(start)
		b.StopTimer()
		if secs := elapsed.Seconds(); secs > 0 {
			b.ReportMetric(float64(reads.Load())/secs, "reads/sec")
		}
	})
}

// mixedReadWrite sets up BenchmarkMixedReadWrite's load on nodes under
// root, counting the reads it issues in reads.
func mixedReadWrite(tb testing.TB, c *core.Cluster, root string, reads *atomic.Int64) load {
	tb.Helper()
	const (
		sessions = 8
		window   = 32
	)
	payload := make([]byte, 1024)
	cls := make([]*client.Client, sessions)
	paths := make([]string, sessions)
	for i := range cls {
		cls[i] = connect(tb, c, i%c.Size())
		paths[i] = fmt.Sprintf("%s%d", root, i)
		create(tb, cls[i], paths[i], payload)
	}
	return func(n int) {
		pipelined(tb, cls, n, window, func(s, i int) *client.Future {
			if i%10 == 9 {
				return cls[s].SetAsync(paths[s], payload, -1)
			}
			reads.Add(1)
			return cls[s].GetAsync(paths[s], false)
		})
	}
}

// BenchmarkObserverReadFanout measures what observer replicas buy on
// the read path. A fixed-rate write load runs against the leader while
// read sessions — a fixed number per ensemble member — pipeline GETs.
// The 3 voters stay fixed; only the observer count grows 0 -> 1 -> 2,
// so added read throughput (the reads/sec metric) is attributable to
// observers fanning reads out beyond the voting quorum — the ZooKeeper
// observer pitch: scale reads without deepening the commit quorum.
func BenchmarkObserverReadFanout(b *testing.B) {
	for _, nObs := range []int{0, 1, 2} {
		nObs := nObs
		b.Run(fmt.Sprintf("observers=%d", nObs), func(b *testing.B) {
			ops := observerFanout(b, nObs)
			start := time.Now()
			measure(b, ops)
			elapsed := time.Since(start)
			b.StopTimer()
			if secs := elapsed.Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "reads/sec")
			}
		})
	}
}

// observerFanout boots BenchmarkObserverReadFanout's ensemble, 3 voters
// and observers observers, starts its write load, which stops when tb
// ends, and returns its read load.
//
// Reads are served under the SecureKeeper entry-enclave cost model
// with latency applied and the crossing fee raised into sleepable
// territory, so every request pays a wall-clock service fee on its
// serving member instead of a busy-wait. That puts per-session
// throughput in the service-time-bound regime — the one observers are
// deployed for: each member sustains a bounded request rate, and every
// observer added is serving capacity the voters no longer provide.
func observerFanout(tb testing.TB, observers int) load {
	tb.Helper()
	const (
		voters            = 3
		sessionsPerMember = 2
		window            = 32
		writeEvery        = 5 * time.Millisecond
	)
	cost := sgx.DefaultCostModel()
	// Large enough that the meter sleeps the crossing off instead of
	// spinning: the fee must not consume CPU, or read capacity would be
	// core-bound and adding observers could never show up on 1-2 cores.
	cost.CrossingNs = 150_000
	cluster, err := core.NewCluster(core.Config{
		Variant:         core.SecureKeeper,
		Replicas:        voters,
		Observers:       observers,
		SGXCost:         &cost,
		ApplySGXLatency: true,
		TickInterval:    25 * time.Millisecond,
		ElectionTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cluster.Close)
	leader, err := cluster.WaitForLeader(10 * time.Second)
	if err != nil {
		tb.Fatal(err)
	}

	payload := make([]byte, 1024)
	wcl := connect(tb, cluster, leader)
	create(tb, wcl, "/fan", payload)

	// A fixed quota of read sessions per member, covering voters AND
	// observers, so serving capacity — not session count per member — is
	// what grows with the observer count. A Sync barrier per session
	// guarantees the serving member (observers included) has replayed
	// /fan before the clock starts.
	cls := make([]*client.Client, sessionsPerMember*cluster.Size())
	for i := range cls {
		cl := connect(tb, cluster, i%cluster.Size())
		// A just-started observer rejects forwarded Syncs until it adopts
		// the leader; retry rather than measure a cold start.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if err = cl.Sync(ctxbg, "/fan"); err == nil {
				if _, _, err = cl.Get(ctxbg, "/fan"); err == nil {
					break
				}
			}
			if time.Now().After(deadline) {
				tb.Fatalf("replica %d never served /fan: %v", i%cluster.Size(), err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		cls[i] = cl
	}

	// Fixed-rate write load, identical across observer counts (a
	// free-running writer would self-throttle and vary the interference
	// between runs).
	writerStop := make(chan struct{})
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		tick := time.NewTicker(writeEvery)
		defer tick.Stop()
		for {
			select {
			case <-writerStop:
				return
			case <-tick.C:
			}
			if _, err := wcl.Set(ctxbg, "/fan", payload, -1); err != nil {
				return
			}
		}
	}()
	tb.Cleanup(func() {
		close(writerStop)
		writerDone.Wait()
	})

	return func(n int) {
		pipelined(tb, cls, n, window, func(s, _ int) *client.Future {
			return cls[s].GetAsync("/fan", false)
		})
	}
}

// BenchmarkMulti measures an N-op atomic transaction (one wire round
// trip, one zab proposal, one zxid) against its classic equivalent of
// N sequential Sets (BenchmarkMultiSequentialSets: N round trips, N
// proposals). The pair quantifies what the multi API buys on the
// agreement path for both the plaintext and enclave variants.
func BenchmarkMulti(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		measure(b, multiSets(b, newBenchCluster(b, v), "/m", false))
	})
}

// BenchmarkMultiSequentialSets is the baseline for BenchmarkMulti: the
// same N writes issued as N independent synchronous Sets.
func BenchmarkMultiSequentialSets(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		measure(b, multiSets(b, newBenchCluster(b, v), "/m", true))
	})
}

// multiSets sets up the Multi benchmarks' load: one op Sets the 8
// nodes under root, in one multi or, sequential, in 8 Sets.
func multiSets(tb testing.TB, c *core.Cluster, root string, sequential bool) load {
	tb.Helper()
	const nOps = 8
	cl := connect(tb, c, 0)
	payload := make([]byte, 128)
	create(tb, cl, root, nil)
	paths := make([]string, nOps)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/k%d", root, i)
		create(tb, cl, paths[i], payload)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if sequential {
				for _, p := range paths {
					if _, err := cl.Set(ctxbg, p, payload, -1); err != nil {
						tb.Fatal(err)
					}
				}
				continue
			}
			txn := cl.Txn()
			for _, p := range paths {
				txn.Set(p, payload, -1)
			}
			if _, err := txn.Commit(ctxbg); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func BenchmarkFig9aCreate(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, opCreate, 1024)
	})
}

func BenchmarkFig9bCreateSequential(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, opCreateSeq, 1024)
	})
}

func BenchmarkFig10Ls(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, opLs, 64)
	})
}

// --- Figure 11: YCSB-style mix ---

func BenchmarkFig11YCSB(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		cluster := newBenchCluster(b, v)
		cl, err := cluster.Connect(0, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		const records = 32
		payload := make([]byte, 1024)
		if _, err := cl.Create(ctxbg, "/y", nil, 0); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/y/user%06d", i), payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(42))
		zipf := rand.NewZipf(rng, 1.1, 1.0, records-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := fmt.Sprintf("/y/user%06d", zipf.Uint64())
			var err error
			if rng.Float64() < 0.5 {
				_, _, err = cl.Get(ctxbg, key)
			} else {
				_, err = cl.Set(ctxbg, key, payload, -1)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 12: fault tolerance (time-to-recover) ---

func BenchmarkFig12LeaderFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster := func() *core.Cluster {
			c, err := core.NewCluster(core.Config{
				Variant:         core.Vanilla,
				Replicas:        3,
				TickInterval:    5 * time.Millisecond,
				ElectionTimeout: 60 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			return c
		}()
		leader, err := cluster.WaitForLeader(5 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		survivor := (leader + 1) % 3
		cl, err := cluster.Connect(survivor, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Create(ctxbg, "/f", nil, 0); err != nil {
			b.Fatal(err)
		}

		b.StartTimer() // measure: kill leader -> first successful write
		cluster.StopReplica(leader)
		for {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/f/after-%d", i), nil, 0); err == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		b.StopTimer()
		_ = cl.Close()
		cluster.Close()
	}
}

// --- Table 2: encryption overhead on message lengths ---

// BenchmarkTable2MessageSizes encrypts a sample path and a 1 KiB
// payload as the entry enclave does on their way to the store, and
// reports how many bytes each grows by.
func BenchmarkTable2MessageSizes(b *testing.B) {
	const path = "/app/config/database"
	payload := make([]byte, 1024)
	codec, err := skcrypto.NewCodec(make([]byte, skcrypto.KeySize))
	if err != nil {
		b.Fatal(err)
	}
	var encPath string
	var encPayload []byte
	for i := 0; i < b.N; i++ {
		if encPath, err = codec.EncryptPath(path); err != nil {
			b.Fatal(err)
		}
		if encPayload, err = codec.EncryptPayload(path, payload, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(encPath)-len(path)), "path-overhead-B")
	b.ReportMetric(float64(len(encPayload)-len(payload)), "payload-overhead-B")
}

// --- Ablations ---

// Ablation 1: per-chunk path encryption (supports getChildren) vs
// encrypting the whole path as one blob (which would break hierarchy).
func BenchmarkAblationPathChunkVsWhole(b *testing.B) {
	key := make([]byte, skcrypto.KeySize)
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		b.Fatal(err)
	}
	path := "/app/config/service/instance"
	b.Run("per-chunk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPath(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole-path-blob", func(b *testing.B) {
		// Whole-path mode approximated by a single payload encryption
		// of the full path string (one AES-GCM call, no per-chunk IV).
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPayload("/", []byte(path), false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 2: deterministic IV derivation (hash of path prefix) vs
// random IVs. Deterministic IVs are required for ciphertext
// addressability; the bench shows their cost is comparable.
func BenchmarkAblationDeterministicVsRandomIV(b *testing.B) {
	key := make([]byte, skcrypto.KeySize)
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("deterministic-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPath("/node"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random-payload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPayload("/node", []byte("node"), false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 3: the §5.1 pre-sized single ecall vs a two-call scheme
// (first call to learn the size, second to fetch the grown message).
func BenchmarkAblationBufferPresizeVsTwoCall(b *testing.B) {
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	grow := func(buf []byte, msgLen int) (int, error) {
		need := msgLen + 64
		if need > len(buf) {
			return 0, sgx.ErrBufferOverflow
		}
		for i := msgLen; i < need; i++ {
			buf[i] = byte(i)
		}
		return need, nil
	}
	e, err := rt.Create(sgx.Spec{
		CodeIdentity: "ablation", CodeBytes: 4096,
		Ecalls: map[string]sgx.EcallFunc{"grow": grow},
	})
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)

	b.Run("presized-single-ecall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := make([]byte, len(msg)+enclave.GrowthHeadroom(len(msg)))
			copy(buf, msg)
			if _, err := e.EcallBatch("grow", buf, len(msg), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-ecalls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// First call fails on exact-size buffer (learning the need),
			// second call carries the enlarged buffer.
			tight := make([]byte, len(msg))
			copy(tight, msg)
			_, _ = e.EcallBatch("grow", tight, len(msg), 1)
			buf := make([]byte, len(msg)+128)
			copy(buf, msg)
			if _, err := e.EcallBatch("grow", buf, len(msg), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 4: per-client entry enclaves vs one shared enclave. The
// shared enclave serializes its FIFO queue behind one mutex; per-client
// enclaves shard it (§6.5 discusses the trade-off).
func BenchmarkAblationSharedVsPerClientEnclave(b *testing.B) {
	const workers = 4
	setup := func(b *testing.B) (*sgx.Runtime, *enclave.KeyServer, *enclave.SealedKeyStore) {
		rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
		ks, err := enclave.NewKeyServer(sgx.MeasureCode(enclave.EntryCodeIdentity))
		if err != nil {
			b.Fatal(err)
		}
		ks.TrustPlatform(rt.QuoteVerificationKey())
		return rt, ks, enclave.NewSealedKeyStore()
	}
	msgFor := func(xid int32) []byte {
		return wire.MarshalPair(
			&wire.RequestHeader{Xid: xid, Op: wire.OpGetData},
			&wire.GetDataRequest{Path: "/shared/node"},
		)
	}

	b.Run("shared-enclave", func(b *testing.B) {
		rt, ks, store := setup(b)
		entry, err := enclave.NewEntry(rt)
		if err != nil {
			b.Fatal(err)
		}
		defer entry.Close()
		if err := enclave.ProvisionEntry(entry, ks, store); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := entry.ProcessRequest(msgFor(int32(w*per + i))); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
	b.Run("per-client-enclaves", func(b *testing.B) {
		rt, ks, store := setup(b)
		entries := make([]*enclave.Entry, workers)
		for w := range entries {
			entry, err := enclave.NewEntry(rt)
			if err != nil {
				b.Fatal(err)
			}
			defer entry.Close()
			if w == 0 {
				err = enclave.ProvisionEntry(entry, ks, store)
			} else {
				err = enclave.UnsealEntry(entry, store)
			}
			if err != nil {
				b.Fatal(err)
			}
			entries[w] = entry
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := entries[w].ProcessRequest(msgFor(int32(i))); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// Ablation 5: sensitivity to the enclave-crossing cost — the virtual
// SGX cost per processed message as CrossingNs grows.
func BenchmarkAblationEcallCrossingCost(b *testing.B) {
	for _, crossing := range []float64{0, 2600, 10000} {
		crossing := crossing
		b.Run(fmt.Sprintf("crossingNs=%.0f", crossing), func(b *testing.B) {
			cost := sgx.DefaultCostModel()
			cost.CrossingNs = crossing
			rt := sgx.NewRuntime(sgx.EPCUsableBytes, cost, false)
			ks, err := enclave.NewKeyServer(sgx.MeasureCode(enclave.EntryCodeIdentity))
			if err != nil {
				b.Fatal(err)
			}
			ks.TrustPlatform(rt.QuoteVerificationKey())
			entry, err := enclave.NewEntry(rt)
			if err != nil {
				b.Fatal(err)
			}
			defer entry.Close()
			if err := enclave.ProvisionEntry(entry, ks, nil); err != nil {
				b.Fatal(err)
			}
			msg := wire.MarshalPair(
				&wire.RequestHeader{Xid: 1, Op: wire.OpGetData},
				&wire.GetDataRequest{Path: "/a/b"},
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := entry.ProcessRequest(msg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rt.Meter().VirtualNs()/float64(b.N), "virtual-ns/op")
		})
	}
}

// --- end-to-end secure channel cost (supports Table 1's TLS column) ---

func BenchmarkSecureChannelRecord(b *testing.B) {
	cluster := newBenchCluster(b, core.TLS)
	cl, err := cluster.Connect(0, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/sc", make([]byte, 1024), 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctxbg, "/sc"); err != nil {
			b.Fatal(err)
		}
	}
}
