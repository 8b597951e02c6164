package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"securekeeper/internal/wire"
)

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(sorted, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one value = %v", got)
	}
}

func TestSummaryBestQuarter(t *testing.T) {
	s := summarize([]float64{50, 10, 40, 20, 30, 60, 80, 70})
	if s.Q1 != 27.5 || s.Median != 45 || s.Q3 != 62.5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.best(true) != 75 || s.best(false) != 15 {
		t.Errorf("best quarter: higher %v lower %v", s.best(true), s.best(false))
	}
	if one := summarize([]float64{9}); one.best(true) != 9 || one.best(false) != 9 {
		t.Errorf("best quarter of one value: %+v", one)
	}
	if none := summarize(nil); none.best(true) != 0 {
		t.Errorf("best quarter of nothing: %+v", none)
	}
	if got := s.iqrShare(); math.Abs(got-35.0/45) > 1e-9 {
		t.Errorf("iqrShare = %v", got)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	ns := []int64{4000, 1000, 3000, 2000, 5000}
	got := latencyQuantiles(ns, 0.5, 1)
	if got[0] != 3 || got[1] != 5 {
		t.Errorf("latencyQuantiles = %v, want [3 5] µs", got)
	}
}

func TestPlaceSessions(t *testing.T) {
	for leader, want := range map[int][numSessions]int{0: {0, 1}, 1: {1, 0}, 2: {2, 0}} {
		got, err := placeSessions(leader, 3)
		if err != nil || got != want {
			t.Errorf("leader %d: placement %v, %v; want %v", leader, got, err, want)
		}
	}
	for _, leader := range []int{-1, 3} {
		if _, err := placeSessions(leader, 3); err == nil {
			t.Errorf("leader %d of 3 was placed", leader)
		}
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := streamHash(sp, 7, 3), streamHash(sp, 7, 3), streamHash(sp, 8, 3)
		if a != b {
			t.Errorf("%s: same seed gave streams %x and %x", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
	}
	sk, _ := findSpec("kv_mixed_sk")
	vanilla, _ := findSpec("kv_mixed_vanilla")
	if streamHash(sk, 11, 3) != streamHash(vanilla, 11, 3) {
		t.Error("kv_mixed_sk and kv_mixed_vanilla streams differ")
	}
}

func TestGeneratorFollowsTheSpec(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		g := newGenerator(sp, 3, 1)
		ops := make([]op, 100000)
		g.fill(ops)
		var kinds [numOpKinds]int
		hot := 0
		live := 0
		if sp.hasSequential() {
			live = seqPreload
		}
		for _, o := range ops {
			kinds[o.kind]++
			if int(o.key) >= sp.half() || o.key < 0 {
				t.Fatalf("%s: key %d outside the session's half", sp.name, o.key)
			}
			if o.off < 0 || int(o.off) > poolBytes-payloadBytes {
				t.Fatalf("%s: payload offset %d outside the pool", sp.name, o.off)
			}
			if (o.kind == opGet || o.kind == opSet) && int(o.key) < sp.hotKeys {
				hot++
			}
			switch o.kind {
			case opCreateSeq:
				live++
			case opDeleteOldest:
				live--
			}
			if sp.hasSequential() && (live < seqFloor || live > seqCeil) {
				t.Fatalf("%s: %d sequential nodes alive, want %d..%d", sp.name, live, seqFloor, seqCeil)
			}
		}
		for k, share := range sp.mix {
			if got := 100 * float64(kinds[k]) / float64(len(ops)); math.Abs(got-float64(share)) > 1.5 {
				t.Errorf("%s: %s is %.1f%% of the stream, want %d%%", sp.name, opKind(k), got, share)
			}
		}
		if sp.hotKeys > 0 {
			if got := float64(hot) / float64(kinds[opGet]+kinds[opSet]); math.Abs(got-sp.hotShare) > 0.01 {
				t.Errorf("%s: hot set takes %.3f of accesses, want %.2f", sp.name, got, sp.hotShare)
			}
		}
	}
}

func TestRetrySetupRetriesConnectionLossOnly(t *testing.T) {
	calls := 0
	err := retrySetup(func() error {
		calls++
		if calls < 3 {
			return wire.ErrConnectionLoss.Error()
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("after connection loss: err %v, %d calls", err, calls)
	}
	calls = 0
	other := errors.New("no node")
	if err := retrySetup(func() error { calls++; return other }); err != other || calls != 1 {
		t.Errorf("other error: err %v, %d calls", err, calls)
	}
}

// tiny shrinks a workload to something a test can run in a second.
func tiny(t *testing.T, sp spec, traced bool) options {
	sp.roundOps = 500
	return options{
		sp: &sp, seed: 5, traced: traced,
		setups: 1, minRounds: 2, replayOps: 100,
		scratch: t.TempDir(), outDir: t.TempDir(),
	}
}

func TestLeaderChangeFailsTheRun(t *testing.T) {
	sp, _ := findSpec("kv_mixed_vanilla")
	b := &bench{opt: tiny(t, *sp, false)}
	b.pool = newPool(b.opt.seed)
	defer b.tearDown()
	if _, err := b.setUp(); err != nil {
		t.Fatal(err)
	}
	if err := b.leaderHeld(); err != nil {
		t.Fatalf("leader reported lost right after set-up: %v", err)
	}
	if place, _ := placeSessions(b.leaderAtStart, numReplicas); b.ens.leader() != place[0] {
		t.Fatalf("session 0 is not on the leader")
	}
	// Crash the leader and wait for a survivor to take over.
	b.ens.cluster.StopReplica(b.leaderAtStart)
	took := func() bool {
		for i := 0; i < numReplicas; i++ {
			if i != b.leaderAtStart && b.ens.replica(i).IsLeader() {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); !took() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if err := b.leaderHeld(); err == nil {
		t.Error("run continued after the leader changed")
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(file), kind, len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: file has %+v, code has %+v", kind, i, file[i], code[i])
			}
		}
	}
	check("end-to-end", f.EndToEnd, endToEndDefs)
	check("per-layer", f.PerLayer, perLayerDefs)
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that exactly the metrics BENCHMARK.json names come out, with
// their units.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for i := range specs {
		sp := specs[i]
		for _, traced := range []bool{false, true} {
			opt := tiny(t, sp, traced)
			res, err := run(opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if res.checkErr != nil || res.failed != 0 || res.attempted != 2*500 {
				t.Errorf("%s traced=%v: check %v, %d of %d failed", sp.name, traced, res.checkErr, res.failed, res.attempted)
			}
			got, want := res.metrics, f.EndToEnd
			if traced {
				want = f.PerLayer
				if _, err := os.Stat(tracePath(opt.outDir, sp.name)); err != nil {
					t.Errorf("%s: no trace file: %v", sp.name, err)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d named", sp.name, traced, len(got), len(want))
			}
			for _, def := range want {
				m, ok := got[def.Name]
				if !ok || m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (reported %v), want unit %s", sp.name, traced, def.Name, m, ok, def.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", sp.name, def.Name, m.Value)
				}
			}
		}
	}
}
