package chaos

import (
	"reflect"
	"testing"
	"time"
)

func fullProfile() Profile {
	return Profile{
		Voters:       3,
		Degrade:      LinkFault{Drop: 0.05, Delay: time.Millisecond, Jitter: time.Millisecond},
		Partition:    true,
		AsymCut:      true,
		LeaderChurn:  true,
		FollowerKill: true,
		FsyncStall:   2 * time.Millisecond,
	}
}

// TestPlanDeterministic is the replay contract: the fault schedule is a
// pure function of (seed, profile, duration), so `skchaos -seed N` run
// twice produces the identical schedule.
func TestPlanDeterministic(t *testing.T) {
	a := Plan(42, fullProfile(), 5*time.Second)
	b := Plan(42, fullProfile(), 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different renderings:\n%s\nvs\n%s", a, b)
	}
	if c := Plan(43, fullProfile(), 5*time.Second); c.String() == a.String() {
		t.Fatalf("different seeds produced the identical schedule:\n%s", a)
	}
}

// TestScenarioPlanReplay asserts the same contract through the runner's
// public surface, per registered scenario.
func TestScenarioPlanReplay(t *testing.T) {
	for _, name := range Scenarios() {
		cfg := ScenarioConfig{Scenario: name, Seed: 7, Duration: 3 * time.Second, Replicas: 3}
		a, err := PlanScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PlanScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s: same config produced different schedules:\n%s\nvs\n%s", name, a, b)
		}
	}
}

func TestPlanCoversFaultKinds(t *testing.T) {
	sched := Plan(1, fullProfile(), 5*time.Second)
	want := []ActionKind{
		ActDegradeLinks, ActClearLinks, ActPartition, ActOneWayCut, ActHeal,
		ActKillLeader, ActKillFollower, ActRestartAll, ActStallFsync,
	}
	have := make(map[ActionKind]bool)
	for _, k := range sched.Kinds() {
		have[k] = true
	}
	for _, k := range want {
		if !have[k] {
			t.Errorf("full profile schedule missing %s:\n%s", k, sched)
		}
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].At < sched[i-1].At {
			t.Fatalf("schedule not sorted by offset:\n%s", sched)
		}
	}
	for _, ev := range sched {
		if ev.At < 0 || ev.At > 5*time.Second {
			t.Fatalf("event offset %v outside the run window:\n%s", ev.At, sched)
		}
	}
}
