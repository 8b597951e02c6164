package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: securekeeper
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkFig7Get/payload=1024/Vanilla-ZK-4         	     300	     10925 ns/op	    4140 B/op	      17 allocs/op
BenchmarkFig7Get/payload=1024/SecureKeeper-4       	     300	      8863 ns/op	    5912 B/op	      26 allocs/op
BenchmarkFig8SetContended/clients=16/SecureKeeper-4	     500	     17217 ns/op	         0.4120 propose-frames/txn	   13625 B/op	      43 allocs/op
PASS
ok  	securekeeper	0.102s
`

func TestParseBenchOutput(t *testing.T) {
	got := ParseBenchOutput(sampleOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(got), got)
	}
	van := got["BenchmarkFig7Get/payload=1024/Vanilla-ZK"]
	if van.AllocsPerOp != 17 || van.BytesPerOp == nil || *van.BytesPerOp != 4140 {
		t.Fatalf("vanilla = %+v", van)
	}
	// Custom metrics (propose-frames/txn) must not confuse the parser.
	cont := got["BenchmarkFig8SetContended/clients=16/SecureKeeper"]
	if cont.AllocsPerOp != 43 {
		t.Fatalf("contended = %+v", cont)
	}
}

func TestParseBenchOutputKeepsBestOfRepeats(t *testing.T) {
	out := `
BenchmarkX-8 100 2000 ns/op 10 B/op 7 allocs/op
BenchmarkX-8 100 1500 ns/op 10 B/op 5 allocs/op
BenchmarkX-8 100 1800 ns/op 10 B/op 6 allocs/op
`
	got := ParseBenchOutput(out)
	if got["BenchmarkX"].AllocsPerOp != 5 {
		t.Fatalf("kept %v allocs/op, want the lowest, 5", got["BenchmarkX"].AllocsPerOp)
	}
	// Each metric keeps its own lowest: the repeat with the fewest
	// objects need not be the one with the fewest bytes.
	got = ParseBenchOutput("BenchmarkY-8 100 1 ns/op 900 B/op 5 allocs/op\nBenchmarkY-8 100 1 ns/op 700 B/op 6 allocs/op\n")
	if y := got["BenchmarkY"]; y.AllocsPerOp != 5 || *y.BytesPerOp != 700 {
		t.Fatalf("kept %v allocs/op and %v B/op, want 5 and 700", y.AllocsPerOp, *y.BytesPerOp)
	}
}

func baseOf(allocs float64) *Baseline {
	return &Baseline{
		TolerancePct: 20,
		Benchmarks:   map[string]Result{"BenchmarkX": {AllocsPerOp: allocs}},
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	measured := map[string]Result{"BenchmarkX": {AllocsPerOp: 11}}
	if f := Gate(baseOf(10), measured, 20); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

// TestGateIgnoresNsPerOp: timings are not gated. A run that took three
// times the baseline's wall clock with the same allocations passes, and
// a baseline file that still carries the retired ns fields loads.
func TestGateIgnoresNsPerOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	old := `{"tolerance_pct": 20, "ns_tolerance_pct": 50,
		"benchmarks": {"BenchmarkX": {"ns_per_op": 1000, "allocs_per_op": 10}}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	measured := ParseBenchOutput("BenchmarkX-8 100 3000 ns/op 10 B/op 10 allocs/op\n")
	if f := Gate(base, measured, base.TolerancePct); len(f) != 0 {
		t.Fatalf("slower run with the same allocs/op failed the gate: %v", f)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	measured := map[string]Result{"BenchmarkX": {AllocsPerOp: 13}}
	f := Gate(baseOf(10), measured, 20)
	if len(f) != 1 || !strings.Contains(f[0], "allocs/op regressed") {
		t.Fatalf("failures = %v", f)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	f := Gate(baseOf(10), map[string]Result{}, 20)
	if len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Fatalf("failures = %v", f)
	}
}

func TestGateRewardsImprovement(t *testing.T) {
	measured := map[string]Result{"BenchmarkX": {AllocsPerOp: 2}}
	if f := Gate(baseOf(10), measured, 20); len(f) != 0 {
		t.Fatalf("improvement flagged as failure: %v", f)
	}
}

// TestGateFailsOnBytesRegression: an entry that names bytes_per_op gates
// B/op as well — a receive path that goes back to a fresh chunk per
// 32 KiB is 0 allocs/op and 1 KiB/op — with the same tolerance as
// allocs/op and a few bytes of slack for a late buffer growth; entries
// without the field, and baseline files from before it existed, gate
// allocs/op alone.
func TestGateFailsOnBytesRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	file := `{"tolerance_pct": 20, "benchmarks": {
		"BenchmarkReuse": {"allocs_per_op": 0, "bytes_per_op": 0},
		"BenchmarkBatch": {"allocs_per_op": 7, "bytes_per_op": 1500},
		"BenchmarkOther": {"allocs_per_op": 10}}}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	run := func(reuse, batch, other int) []string {
		return Gate(base, ParseBenchOutput(fmt.Sprintf(`
BenchmarkReuse-8 1600 600 ns/op 0.0625 reads/frame %d B/op 0 allocs/op
BenchmarkBatch-8 1600 2500 ns/op %d B/op 7 allocs/op
BenchmarkOther-8 100 9000 ns/op %d B/op 10 allocs/op
`, reuse, batch, other)), base.TolerancePct)
	}
	if f := run(15, 1700, 99999); len(f) != 0 {
		t.Fatalf("within tolerance and slack, ungated entry doubled: %v", f)
	}
	if f := run(1024, 1500, 4000); len(f) != 1 || !strings.Contains(f[0], "BenchmarkReuse: B/op regressed") {
		t.Fatalf("a chunk per 32 KiB on the reuse benchmark: failures = %v", f)
	}
	if f := run(0, 2800, 4000); len(f) != 1 || !strings.Contains(f[0], "BenchmarkBatch: B/op regressed") {
		t.Fatalf("results copied out again on the batch benchmark: failures = %v", f)
	}
}
