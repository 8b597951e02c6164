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

// Result holds the gated metrics for one benchmark: allocations per op,
// which a smoke-length run on a shared runner reproduces, and bytes per
// op for the benchmarks whose baseline entry names it — the ones that
// pin a buffer-reuse property, where a regression costs kilobytes per op
// and not one object more (a fresh receive chunk per 32 KiB received is
// 0 allocs/op). ns/op is not read (2× spread between repeats is normal
// on a shared runner); timing claims come from the repository benchmark
// (benchmark/).
type Result struct {
	AllocsPerOp float64  `json:"allocs_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// Baseline is the committed reference file.
type Baseline struct {
	// TolerancePct is the allowed regression in percent before the gate
	// fails, for allocs/op and, where an entry gates it, for B/op.
	TolerancePct float64           `json:"tolerance_pct"`
	Benchmarks   map[string]Result `json:"benchmarks"`
}

// bytesSlack is allowed on top of the tolerance for B/op. B/op is total
// bytes over iterations, so one buffer that grows once more after the
// warm-up shows as a few bytes per op at smoke lengths; anything the
// bytes gate is after costs hundreds.
const bytesSlack = 64

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

// ParseBenchOutput extracts allocs/op and B/op per benchmark from `go
// test -bench -benchmem` output. Names are normalized without the
// GOMAXPROCS suffix; of duplicate lines (e.g. -count>1) the lowest of
// each metric is kept, so a repeat that still paid for warm-up does not
// set the figure.
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
		var res Result
		found := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "allocs/op":
				res.AllocsPerOp, found = v, true
			case "B/op":
				res.BytesPerOp = &v
			}
		}
		if !found {
			continue
		}
		if prev, ok := results[name]; ok {
			res.AllocsPerOp = min(res.AllocsPerOp, prev.AllocsPerOp)
			if res.BytesPerOp == nil || (prev.BytesPerOp != nil && *prev.BytesPerOp < *res.BytesPerOp) {
				res.BytesPerOp = prev.BytesPerOp
			}
		}
		results[name] = res
	}
	return results
}

// Gate returns a human-readable failure per baseline benchmark that is
// missing from measured, whose allocs/op regressed beyond tolerancePct,
// or whose B/op — where the baseline entry names it — regressed beyond
// tolerancePct plus bytesSlack.
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
		if want.BytesPerOp == nil || got.BytesPerOp == nil {
			continue // -benchmem prints B/op wherever it prints allocs/op
		}
		if allowed := *want.BytesPerOp*(1+tolerancePct/100) + bytesSlack; *got.BytesPerOp > allowed {
			failures = append(failures, fmt.Sprintf("%s: B/op regressed (%.0f -> %.0f, allowed %.0f: tolerance %.0f%% + %d B)",
				name, *want.BytesPerOp, *got.BytesPerOp, allowed, tolerancePct, bytesSlack))
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
