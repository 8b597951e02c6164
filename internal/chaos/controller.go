package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"securekeeper/internal/core"
	"securekeeper/internal/storage"
	"securekeeper/internal/zab"
)

// Controller executes a Schedule against one injector and the
// in-process cluster it covers, resolving runtime-dependent choices (who
// leads NOW) at fire time and recording what actually happened. Replica
// indexes are 0-based; peer IDs on the wire are index+1.
type Controller struct {
	Inj     *Injector
	Cluster *core.Cluster
	// Logf, when set, receives one line per executed action.
	Logf func(format string, args ...any)

	mu  sync.Mutex
	log []string
}

// Executed returns the log of actions actually applied, one line per
// fired event, with the runtime-resolved victim indexes.
func (c *Controller) Executed() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.log...)
}

func (c *Controller) record(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	c.mu.Lock()
	c.log = append(c.log, line)
	c.mu.Unlock()
	if c.Logf != nil {
		c.Logf("%s", line)
	}
}

// Run fires the schedule's events at their offsets from now, in order,
// until done or ctx ends. It returns nil on a fully executed schedule;
// a targeted event whose victim cannot be resolved is skipped with a
// log line, not an error (the run and its checkers continue).
func (c *Controller) Run(ctx context.Context, sched Schedule) error {
	start := time.Now()
	for _, ev := range sched {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		c.apply(ctx, ev)
	}
	return nil
}

// apply executes one event now.
func (c *Controller) apply(ctx context.Context, ev Event) {
	switch ev.Act {
	case ActDegradeLinks:
		c.Inj.SetDefaults(ev.Fault)
		c.record("%v degrade-links [%s]", ev.At.Round(time.Millisecond), ev.Fault)
	case ActClearLinks:
		c.Inj.ClearLinks()
		c.record("%v clear-links", ev.At.Round(time.Millisecond))
	case ActPartition:
		c.Inj.Partition(ev.Sides...)
		c.record("%v partition %v", ev.At.Round(time.Millisecond), ev.Sides)
	case ActOneWayCut:
		leader, err := c.leader(ctx)
		if err != nil {
			c.record("%v oneway-cut skipped: %v", ev.At.Round(time.Millisecond), err)
			return
		}
		victim := c.nonLeaderVoter(leader, ev.Target)
		if victim < 0 {
			c.record("%v oneway-cut skipped: no live non-leader voter", ev.At.Round(time.Millisecond))
			return
		}
		c.Inj.CutOneWay(zab.PeerID(leader+1), zab.PeerID(victim+1), true)
		c.record("%v oneway-cut r%d->r%d severed", ev.At.Round(time.Millisecond), leader+1, victim+1)
	case ActHeal:
		c.Inj.Heal()
		c.record("%v heal", ev.At.Round(time.Millisecond))
	case ActKillLeader:
		leader, err := c.leader(ctx)
		if err != nil {
			c.record("%v kill-leader skipped: %v", ev.At.Round(time.Millisecond), err)
			return
		}
		c.Cluster.StopReplica(leader)
		c.record("%v kill-leader r%d", ev.At.Round(time.Millisecond), leader+1)
	case ActKillFollower:
		leader, err := c.leader(ctx)
		if err != nil {
			c.record("%v kill-follower skipped: %v", ev.At.Round(time.Millisecond), err)
			return
		}
		victim := c.nonLeaderVoter(leader, ev.Target)
		if victim < 0 {
			c.record("%v kill-follower skipped: no live non-leader voter", ev.At.Round(time.Millisecond))
			return
		}
		c.Cluster.StopReplica(victim)
		c.record("%v kill-follower r%d", ev.At.Round(time.Millisecond), victim+1)
	case ActRestartAll:
		// Rolling restart: bring replicas back ONE at a time, letting
		// the ensemble settle on a leader between restarts. Restarting
		// several memory-only (or wiped-disk) replicas at once lets the
		// fresh empties form a quorum among themselves and elect an
		// empty leader before the surviving full replica's vote lands —
		// wiping committed state, exactly as wiping a majority of
		// ZooKeeper disks simultaneously would.
		for i := 0; i < c.Cluster.Size(); i++ {
			if !c.Cluster.Stopped(i) {
				continue
			}
			if err := c.Cluster.RestartReplica(i); err != nil {
				c.record("%v restart r%d failed: %v", ev.At.Round(time.Millisecond), i+1, err)
				continue
			}
			if _, err := c.Cluster.WaitForLeader(5 * time.Second); err != nil {
				c.record("%v restart r%d (no leader settled: %v)", ev.At.Round(time.Millisecond), i+1, err)
				continue
			}
			c.record("%v restart r%d", ev.At.Round(time.Millisecond), i+1)
		}
	case ActStallFsync:
		n := 0
		for i := 0; i < c.Cluster.Size(); i++ {
			if p := c.persister(i); p != nil {
				p.StallFsync(ev.Stall)
				n++
			}
		}
		c.record("%v stall-fsync %v on %d replicas", ev.At.Round(time.Millisecond), ev.Stall, n)
	case ActFailStorage:
		leader, err := c.leader(ctx)
		if err != nil {
			c.record("%v fail-storage skipped: %v", ev.At.Round(time.Millisecond), err)
			return
		}
		victim := c.nonLeaderVoter(leader, ev.Target)
		if victim < 0 {
			c.record("%v fail-storage skipped: no live non-leader voter", ev.At.Round(time.Millisecond))
			return
		}
		p := c.persister(victim)
		if p == nil {
			c.record("%v fail-storage skipped: r%d has no persister", ev.At.Round(time.Millisecond), victim+1)
			return
		}
		p.Fail(errors.New("chaos: injected persistence failure"))
		c.record("%v fail-storage r%d", ev.At.Round(time.Millisecond), victim+1)
	default:
		c.record("%v unknown action %d", ev.At.Round(time.Millisecond), int(ev.Act))
	}
}

// persister returns replica i's WAL persister, or nil when it is stopped
// or the cluster is memory-only (storage faults become no-ops).
func (c *Controller) persister(i int) *storage.Persister {
	if c.Cluster.Stopped(i) {
		return nil
	}
	return c.Cluster.Replica(i).Persister()
}

// leader resolves the current leader index, retrying while an election
// is in flight (the same wait the Fig 12 harness used before killing).
func (c *Controller) leader(ctx context.Context) (int, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if i := c.Cluster.LeaderIndex(); i >= 0 && !c.Cluster.Stopped(i) {
			return i, nil
		}
		if time.Now().After(deadline) {
			return -1, errors.New("no leader elected")
		}
		select {
		case <-ctx.Done():
			return -1, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// nonLeaderVoter resolves "the k-th non-leader voter" over the LIVE
// voting replicas in index order, wrapping k; -1 when none are live.
func (c *Controller) nonLeaderVoter(leader, k int) int {
	var live []int
	for i := 0; i < c.Cluster.Voters(); i++ {
		if i != leader && !c.Cluster.Stopped(i) {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[k%len(live)]
}
