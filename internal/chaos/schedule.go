package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"securekeeper/internal/zab"
)

// ActionKind enumerates the fault actions a schedule can fire.
type ActionKind int

// Schedule actions. Targeted actions that depend on runtime state
// (who leads right now) carry a deterministic CHOICE (e.g. "the k-th
// non-leader voter") and resolve it at execution time, so the planned
// schedule is identical across runs even though the victim's index is
// not knowable at plan time.
const (
	// ActDegradeLinks applies Fault as the all-links default.
	ActDegradeLinks ActionKind = iota
	// ActClearLinks removes all link-quality faults.
	ActClearLinks
	// ActPartition splits the voters into Sides (symmetric).
	ActPartition
	// ActOneWayCut severs the leader's OUTBOUND link to the Target-th
	// non-leader voter (asymmetric partition: the follower keeps
	// acking into the void).
	ActOneWayCut
	// ActHeal removes partitions and one-way cuts.
	ActHeal
	// ActKillLeader crashes the current leader.
	ActKillLeader
	// ActKillFollower crashes the Target-th live non-leader voter.
	ActKillFollower
	// ActRestartAll restarts every crashed replica.
	ActRestartAll
	// ActStallFsync imposes Stall on every durable replica's fsyncs
	// (Stall=0 clears); commits keep landing, slowly.
	ActStallFsync
)

// String names the action for schedule rendering.
func (a ActionKind) String() string {
	switch a {
	case ActDegradeLinks:
		return "degrade-links"
	case ActClearLinks:
		return "clear-links"
	case ActPartition:
		return "partition"
	case ActOneWayCut:
		return "oneway-cut"
	case ActHeal:
		return "heal"
	case ActKillLeader:
		return "kill-leader"
	case ActKillFollower:
		return "kill-follower"
	case ActRestartAll:
		return "restart-all"
	case ActStallFsync:
		return "stall-fsync"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Event is one planned fault: an action at an offset from run start.
type Event struct {
	At    time.Duration
	Act   ActionKind
	Fault LinkFault      // ActDegradeLinks
	Sides [][]zab.PeerID // ActPartition
	// Target selects the k-th non-leader voter (0-based, by replica
	// index order at execution time) for targeted actions.
	Target int
	Stall  time.Duration // ActStallFsync
}

// String renders one event; the rendered schedule is the replay
// artifact compared across runs.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %s", e.At.Round(time.Millisecond), e.Act)
	switch e.Act {
	case ActDegradeLinks:
		fmt.Fprintf(&b, " [%s]", e.Fault)
	case ActPartition:
		for i, side := range e.Sides {
			if i > 0 {
				b.WriteString(" |")
			}
			fmt.Fprintf(&b, " %v", side)
		}
	case ActOneWayCut, ActKillFollower:
		fmt.Fprintf(&b, " non-leader#%d", e.Target)
	case ActStallFsync:
		fmt.Fprintf(&b, " %v", e.Stall)
	}
	return b.String()
}

// Schedule is a time-ordered fault plan.
type Schedule []Event

// String renders the whole plan, one event per line.
func (s Schedule) String() string {
	lines := make([]string, len(s))
	for i, e := range s {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// Kinds returns the distinct action kinds in the schedule, in
// first-occurrence order (TestPlanCoversFaultKinds asserts fault-type
// coverage with it).
func (s Schedule) Kinds() []ActionKind {
	seen := make(map[ActionKind]bool)
	var out []ActionKind
	for _, e := range s {
		if !seen[e.Act] {
			seen[e.Act] = true
			out = append(out, e.Act)
		}
	}
	return out
}

// Profile selects which fault families Plan weaves into a schedule
// and their intensity. The zero profile plans nothing.
type Profile struct {
	// Voters is the voting-ensemble size the partition planner splits.
	Voters int
	// Degrade, when non-healthy, is applied to all links for the
	// middle stretch of the run.
	Degrade LinkFault
	// Partition plans a symmetric minority/majority split with heal;
	// AsymCut plans a one-way leader→follower cut with heal.
	Partition bool
	AsymCut   bool
	// LeaderChurn kills the leader and later restarts it; FollowerKill
	// crashes a follower mid-run.
	LeaderChurn  bool
	FollowerKill bool
	// FsyncStall stretches every durable fsync by this much for the
	// middle of the run.
	FsyncStall time.Duration
}

// Plan lays the profile's faults out over total as a pure function of
// its arguments: the same (seed, profile, total) always yields the
// identical schedule — the seed-replay contract `skchaos -seed`
// exposes. Fault windows are jittered fractions of the run so legs
// overlap differently seed to seed, but every enabled family fires at
// least once.
func Plan(seed int64, p Profile, total time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	// at places an event at a jittered fraction of the run: frac of
	// total, plus up to spreadPct% of total, never past 90%.
	at := func(frac, spreadPct float64) time.Duration {
		f := frac + rng.Float64()*spreadPct/100
		if f > 0.9 {
			f = 0.9
		}
		return time.Duration(f * float64(total))
	}
	var s Schedule
	if !p.Degrade.healthy() {
		s = append(s, Event{At: at(0.05, 5), Act: ActDegradeLinks, Fault: p.Degrade})
		s = append(s, Event{At: at(0.80, 5), Act: ActClearLinks})
	}
	if p.Partition && p.Voters >= 2 {
		minority := minoritySide(rng, p.Voters)
		s = append(s, Event{At: at(0.25, 10), Act: ActPartition, Sides: [][]zab.PeerID{minority, majoritySide(minority, p.Voters)}})
		s = append(s, Event{At: at(0.50, 10), Act: ActHeal})
	}
	if p.AsymCut && p.Voters >= 2 {
		k := rng.Intn(p.Voters - 1)
		s = append(s, Event{At: at(0.15, 10), Act: ActOneWayCut, Target: k})
		s = append(s, Event{At: at(0.35, 5), Act: ActHeal})
	}
	if p.FollowerKill && p.Voters >= 3 {
		s = append(s, Event{At: at(0.30, 15), Act: ActKillFollower, Target: rng.Intn(p.Voters - 1)})
	}
	if p.LeaderChurn {
		s = append(s, Event{At: at(0.55, 10), Act: ActKillLeader})
	}
	if p.FollowerKill || p.LeaderChurn {
		s = append(s, Event{At: at(0.75, 10), Act: ActRestartAll})
	}
	if p.FsyncStall > 0 {
		s = append(s, Event{At: at(0.20, 10), Act: ActStallFsync, Stall: p.FsyncStall})
		s = append(s, Event{At: at(0.70, 5), Act: ActStallFsync, Stall: 0})
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s
}

// minoritySide picks a random strict minority of the voter set.
func minoritySide(rng *rand.Rand, voters int) []zab.PeerID {
	size := (voters - 1) / 2
	if size < 1 {
		size = 1
	}
	perm := rng.Perm(voters)[:size]
	sort.Ints(perm)
	side := make([]zab.PeerID, size)
	for i, idx := range perm {
		side[i] = zab.PeerID(idx + 1)
	}
	return side
}

// majoritySide is the voter-set complement of the minority.
func majoritySide(minority []zab.PeerID, voters int) []zab.PeerID {
	in := make(map[zab.PeerID]bool, len(minority))
	for _, id := range minority {
		in[id] = true
	}
	var side []zab.PeerID
	for i := 1; i <= voters; i++ {
		if !in[zab.PeerID(i)] {
			side = append(side, zab.PeerID(i))
		}
	}
	return side
}
