package securekeeper_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/internal/obs"
)

// allocOps is how many ops a load runs to warm up, and then again to be
// counted.
const allocOps = 1000

// TestEndToEndAllocations holds the paper's request paths to allocation
// budgets. Each load is the one a figure benchmark times, run on one
// ensemble per variant; the observer fan-out and the durable commit
// boot their own, as their benchmarks do. As with the benchmarks'
// allocs/op, the count is the whole process's — client, replicas,
// enclaves and their background loops — per op. A budget lies about
// half an object above what its load allocates on a 2-vCPU box with
// GOMAXPROCS from 1 to 4, so one more allocation per op on the load's
// path fails it.
func TestEndToEndAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools at random, so allocation counts mean nothing")
	}
	// max is the budget in allocs/op per variant, in variants' order:
	// Vanilla, TLS, SecureKeeper.
	loads := []struct {
		name  string
		max   [3]float64
		setup func(tb testing.TB, c *core.Cluster) load
	}{
		{"Fig7Get/payload=1024", [3]float64{2.5, 2.5, 3.5}, func(tb testing.TB, c *core.Cluster) load {
			return syncOps(tb, c, "/get", opGet, 1024)
		}},
		{"Fig8Set/payload=0", [3]float64{3.5, 3.5, 5.5}, func(tb testing.TB, c *core.Cluster) load {
			return syncOps(tb, c, "/set0", opSet, 0)
		}},
		{"Fig8Set/payload=1024", [3]float64{4.5, 4.5, 5.5}, func(tb testing.TB, c *core.Cluster) load {
			return syncOps(tb, c, "/set1k", opSet, 1024)
		}},
		{"Fig8Set/payload=4096", [3]float64{4.7, 4.7, 5.7}, func(tb testing.TB, c *core.Cluster) load {
			return syncOps(tb, c, "/set4k", opSet, 4096)
		}},
		{"Fig8SetContended/clients=4", [3]float64{4.5, 4.5, 5.3}, func(tb testing.TB, c *core.Cluster) load {
			return contendedSets(tb, c, "/c4-", 4)
		}},
		{"Fig8SetContended/clients=16", [3]float64{4.0, 4.0, 4.9}, func(tb testing.TB, c *core.Cluster) load {
			return contendedSets(tb, c, "/c16-", 16)
		}},
		{"Multi", [3]float64{39.5, 39.5, 66.5}, func(tb testing.TB, c *core.Cluster) load {
			return multiSets(tb, c, "/multi", false)
		}},
		{"MultiSequentialSets", [3]float64{32.5, 32.5, 40.5}, func(tb testing.TB, c *core.Cluster) load {
			return multiSets(tb, c, "/seq", true)
		}},
		{"MixedReadWrite", [3]float64{2.9, 2.9, 4.0}, func(tb testing.TB, c *core.Cluster) load {
			return mixedReadWrite(tb, c, "/mx", new(atomic.Int64))
		}},
		{"FollowerPipelinedSets/window=16", [3]float64{3.1, 3.1, 4.2}, func(tb testing.TB, c *core.Cluster) load {
			return followerPipelinedSets(tb, c, "/fw")
		}},
	}
	for i, v := range variants {
		t.Run(v.String(), func(t *testing.T) {
			c := newBenchCluster(t, v)
			for _, l := range loads {
				t.Run(l.name, func(t *testing.T) { checkAllocs(t, l.setup(t, c), l.max[i]) })
			}
		})
	}
	for observers, max := range []float64{4.3, 4.3, 4.3} {
		t.Run(fmt.Sprintf("ObserverReadFanout/observers=%d", observers), func(t *testing.T) {
			checkAllocs(t, observerFanout(t, observers), max)
		})
	}
	for _, d := range []struct {
		writers int
		max     float64
	}{{1, 5.5}, {8, 4.5}, {64, 4.1}} {
		t.Run(fmt.Sprintf("DurableCommit/writers=%d", d.writers), func(t *testing.T) {
			checkAllocs(t, durableCommit(t, obs.NewRegistry(), d.writers), d.max)
		})
	}
}

// checkAllocs warms ops up, counts what it allocates per op three
// times and fails t if the median count is over max. The median stands
// against the two ways a count strays while the path stays the same: a
// window that pays to refill pools a GC cycle emptied, and one in which
// the replicas' opportunistic batching happens to save objects (a
// Multi's count drops by up to half an object per op in some windows).
func checkAllocs(t *testing.T, ops load, max float64) {
	t.Helper()
	ops(allocOps)
	var counts [3]float64
	for i := range counts {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ops(allocOps)
		runtime.ReadMemStats(&after)
		counts[i] = float64(after.Mallocs-before.Mallocs) / allocOps
	}
	slices.Sort(counts[:])
	if counts[1] > max {
		t.Errorf("%.2f allocs/op (counts %.2f), budget %.1f", counts[1], counts, max)
	} else {
		t.Logf("%.2f allocs/op (counts %.2f), budget %.1f", counts[1], counts, max)
	}
}

// followerPipelinedSets is one session on a follower keeping 16 SETs of
// its own znode in flight: its bursts are forwarded to the leader, one
// APP message per burst, and prepped there a burst at a time.
func followerPipelinedSets(tb testing.TB, c *core.Cluster, path string) load {
	tb.Helper()
	cl := connect(tb, c, (c.LeaderIndex()+1)%c.Voters())
	payload := make([]byte, 128)
	create(tb, cl, path, payload)
	cls := []*client.Client{cl}
	return func(n int) {
		pipelined(tb, cls, n, 16, func(_, _ int) *client.Future { return cl.SetAsync(path, payload, -1) })
	}
}
