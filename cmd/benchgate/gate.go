package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result holds the gated metric for one benchmark: allocations per op,
// which a smoke-length run on a shared runner reproduces. ns/op does
// not (2× spread between repeats is normal there), so it is not read;
// timing claims come from the repository benchmark (benchmark/).
type Result struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed reference file.
type Baseline struct {
	// TolerancePct is the allowed allocs/op regression in percent
	// before the gate fails.
	TolerancePct float64           `json:"tolerance_pct"`
	Benchmarks   map[string]Result `json:"benchmarks"`
}

// LoadBaseline reads and validates a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if b.TolerancePct <= 0 {
		b.TolerancePct = 20
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	return &b, nil
}

// procSuffix matches the trailing -<GOMAXPROCS> of a benchmark name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseBenchOutput extracts allocs/op per benchmark from `go test
// -bench -benchmem` output. Names are normalized without the GOMAXPROCS
// suffix; duplicate lines (e.g. -count>1) keep the lowest, so a repeat
// that still paid for warm-up does not set the figure.
func ParseBenchOutput(out string) map[string]Result {
	results := make(map[string]Result)
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8 N ns ns/op [extra metrics...] B B/op A allocs/op
		if len(fields) < 4 {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "allocs/op" {
				continue
			}
			allocs, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if prev, ok := results[name]; !ok || allocs < prev.AllocsPerOp {
				results[name] = Result{AllocsPerOp: allocs}
			}
		}
	}
	return results
}

// Gate returns a human-readable failure per baseline benchmark that is
// missing from measured or whose allocs/op regressed beyond
// tolerancePct.
func Gate(base *Baseline, measured map[string]Result, tolerancePct float64) []string {
	var failures []string
	for name, want := range base.Benchmarks {
		got, ok := measured[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from measured output (renamed or skipped?)", name))
			continue
		}
		if d := pctDelta(want.AllocsPerOp, got.AllocsPerOp); d > tolerancePct {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
				name, d, want.AllocsPerOp, got.AllocsPerOp, tolerancePct))
		}
	}
	return failures
}

// pctDelta returns the percent change from base to now; positive means
// a regression (now worse than base).
func pctDelta(base, now float64) float64 {
	if base == 0 {
		if now == 0 {
			return 0
		}
		return 100
	}
	return (now - base) / base * 100
}
