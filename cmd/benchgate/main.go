// Command benchgate compares `go test -bench -benchmem` output against
// a committed baseline and fails (exit 1) when a tracked benchmark's
// allocs/op — or, for the entries that carry "bytes_per_op", its B/op —
// regresses beyond the tolerance. CI runs it after the bench smoke step
// so an allocation regression blocks the merge the same way a failing
// test does. -update keeps B/op for the entries that already gate it; a
// benchmark starts gating bytes when "bytes_per_op" is added to its
// entry by hand.
//
// Usage:
//
//	benchgate -baseline bench_baseline.json bench-smoke.txt
//	benchgate -baseline bench_baseline.json -update bench-smoke.txt
//
// Benchmark names are normalized by stripping the trailing -<GOMAXPROCS>
// suffix so baselines transfer across machines with different core
// counts. Only benchmarks present in the baseline are gated; a baseline
// entry missing from the measured output is an error, so the gate
// cannot rot silently when benchmarks are renamed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json", "baseline JSON path")
	update := flag.Bool("update", false, "rewrite the baseline from the measured output instead of gating")
	tolerance := flag.Float64("tolerance", 0, "override regression tolerance in percent (0 = use baseline's)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-baseline file] [-update] [-tolerance pct] <bench-output.txt>")
		os.Exit(2)
	}

	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	measured := ParseBenchOutput(string(raw))
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark results found in %s", flag.Arg(0)))
	}

	if *update {
		base := Baseline{TolerancePct: 20, Benchmarks: measured}
		prev, err := LoadBaseline(*baselinePath)
		if err == nil {
			// Preserve the previous baseline's policy: -update refreshes
			// the numbers, not the tolerance or which entries gate B/op.
			base.TolerancePct = prev.TolerancePct
		}
		for name, m := range measured {
			if prev == nil || prev.Benchmarks[name].BytesPerOp == nil {
				m.BytesPerOp = nil
				measured[name] = m
			}
		}
		buf, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baseline %s updated with %d benchmarks\n", *baselinePath, len(measured))
		return
	}

	base, err := LoadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	tol := base.TolerancePct
	if *tolerance > 0 {
		tol = *tolerance
	}
	failures := Gate(base, measured, tol)
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, ok := measured[name]
		if !ok {
			continue
		}
		b := base.Benchmarks[name]
		fmt.Printf("benchgate: %-60s allocs/op %5.0f -> %5.0f (%+.1f%%)",
			name, b.AllocsPerOp, m.AllocsPerOp, pctDelta(b.AllocsPerOp, m.AllocsPerOp))
		if b.BytesPerOp != nil && m.BytesPerOp != nil {
			fmt.Printf("  B/op %6.0f -> %6.0f", *b.BytesPerOp, *m.BytesPerOp)
		}
		fmt.Println()
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), tol)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
