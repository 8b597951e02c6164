package ztree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// parallelTree is BenchmarkZTreeParallel's tree: 16 parents of 64
// children each, holding 256 bytes. It returns the children's paths.
func parallelTree(tb testing.TB) (*Tree, []string) {
	tb.Helper()
	tr := New()
	paths := make([]string, 0, 16*64)
	for p := 0; p < 16; p++ {
		if _, err := tr.Create(fmt.Sprintf("/p%d", p), nil, 0, 0, 1); err != nil {
			tb.Fatal(err)
		}
		for c := 0; c < 64; c++ {
			path := fmt.Sprintf("/p%d/c%d", p, c)
			if _, err := tr.Create(path, make([]byte, 256), 0, 0, 2); err != nil {
				tb.Fatal(err)
			}
			paths = append(paths, path)
		}
	}
	return tr, paths
}

// writeHeavyTree is BenchmarkZTreeParallelWriteHeavy's tree: 512 nodes
// of 256 bytes under the root.
func writeHeavyTree(tb testing.TB) (*Tree, []string) {
	tb.Helper()
	tr := New()
	paths := make([]string, 512)
	for c := range paths {
		paths[c] = fmt.Sprintf("/c%d", c)
		if _, err := tr.Create(paths[c], make([]byte, 256), 0, 0, 1); err != nil {
			tb.Fatal(err)
		}
	}
	return tr, paths
}

// treeOp is one op of a parallel benchmark on a node picked by rng. It
// reports whether the op wrote.
type treeOp func(tb testing.TB, tr *Tree, paths []string, payload []byte, rng *rand.Rand) bool

// readMostly is the paper's read-mostly profile: a SetData of a random
// node one time in ten, a GetDataRef of one otherwise.
func readMostly(tb testing.TB, tr *Tree, paths []string, payload []byte, rng *rand.Rand) bool {
	path := paths[rng.Intn(len(paths))]
	if rng.Intn(10) == 0 {
		if _, err := tr.SetData(path, payload, -1, 3); err != nil {
			tb.Error(err)
		}
		return true
	}
	if _, _, err := tr.GetDataRef(path); err != nil {
		tb.Error(err)
	}
	return false
}

// allWrites takes the write lock every op: a SetData of a random
// node.
func allWrites(tb testing.TB, tr *Tree, paths []string, payload []byte, rng *rand.Rand) bool {
	if _, err := tr.SetData(paths[rng.Intn(len(paths))], payload, -1, 2); err != nil {
		tb.Error(err)
	}
	return true
}

// benchParallel runs op GOMAXPROCS-parallel on the tree setup makes.
func benchParallel(b *testing.B, setup func(testing.TB) (*Tree, []string), op treeOp) {
	tr, paths := setup(b)
	payload := make([]byte, 256)
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			op(b, tr, paths, payload, rng)
		}
	})
}

// BenchmarkZTreeParallel measures GOMAXPROCS-parallel mixed Get/Set
// throughput (90% reads / 10% writes, the paper's read-mostly profile).
func BenchmarkZTreeParallel(b *testing.B) {
	benchParallel(b, parallelTree, readMostly)
}

// BenchmarkZTreeParallelWriteHeavy is the contended all-write variant:
// every operation takes the write lock, so it isolates pure lock
// contention rather than RWMutex read scaling.
func BenchmarkZTreeParallelWriteHeavy(b *testing.B) {
	benchParallel(b, writeHeavyTree, allWrites)
}

// TestParallelAllocations pins what the parallel benchmarks' ops
// allocate while four goroutines run them at once: a read nothing, a
// SetData two objects — its copy of the caller's payload and the Stat
// it returns. Taking the tree's lock, read or write, allocates nothing. The runtime may add a few objects of its
// own to a round of 8000 ops (a goroutine that blocks on a contended
// lock can need a wait record), far fewer than one per op.
func TestParallelAllocations(t *testing.T) {
	const runtimeSlack = 16
	cases := []struct {
		name  string
		setup func(testing.TB) (*Tree, []string)
		op    treeOp
	}{{"read-mostly", parallelTree, readMostly}, {"write-heavy", writeHeavyTree, allWrites}}
	for _, tc := range cases {
		tr, paths := tc.setup(t)
		// The first round leaves the runtime's own caches (blocked
		// goroutines' wait records) warm, so the second counts the ops.
		parallelRound(t, tr, paths, tc.op)
		allocs, writes := parallelRound(t, tr, paths, tc.op)
		if allocs < 2*writes || allocs > 2*writes+runtimeSlack {
			t.Errorf("%s: 8000 ops with %d writes made %d allocations, want %d (two per write) and at most %d of the runtime's",
				tc.name, writes, allocs, 2*writes, runtimeSlack)
		}
	}
}

// parallelRound runs 2000 ops of op on each of four goroutines at once
// and returns how many objects they allocated and how many ops wrote.
func parallelRound(tb testing.TB, tr *Tree, paths []string, op treeOp) (allocs, writes uint64) {
	const goroutines, perG = 4, 2000
	payload := make([]byte, 256)
	var wrote atomic.Uint64
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ready.Add(1)
		done.Add(1)
		go func(seed int64) {
			defer done.Done()
			rng := rand.New(rand.NewSource(seed))
			ready.Done()
			<-start
			for i := 0; i < perG; i++ {
				if op(tb, tr, paths, payload, rng) {
					wrote.Add(1)
				}
			}
		}(int64(g + 1))
	}
	// The goroutines and their rngs exist before the count starts.
	ready.Wait()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	done.Wait()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, wrote.Load()
}
