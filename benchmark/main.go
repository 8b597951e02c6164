// Command benchmark is the repository's benchmark: four closed-loop
// workloads against a three-replica ensemble, seven end-to-end metrics
// each, and a traced mode that breaks the result down by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json")
	seed := flag.Uint64("seed", 1, "seed of the op stream and the payloads")
	seconds := flag.Float64("seconds", 24, "length of the measured phase (run_seconds in BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics and write the span file")
	all := flag.Bool("all", false, "run every workload and print the SecureKeeper/Vanilla ratios")
	flag.Parse()

	if *all {
		os.Exit(runAll(*seed, *seconds, *trace != 0))
	}
	sp, err := findSpec(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := run(defaultOptions(sp, *seed, *seconds, *trace != 0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(os.Stdout, res)
	if res.checkErr != nil {
		os.Exit(1)
	}
}

// runAll runs the workloads one after the other and prints, for the two
// kv_mixed workloads, SecureKeeper's numbers as a multiple of Vanilla's:
// the ratio the paper's evaluation is about. Informational, not gated.
func runAll(seed uint64, seconds float64, traced bool) int {
	results := map[string]*result{}
	status := 0
	for i := range specs {
		res, err := run(defaultOptions(&specs[i], seed, seconds, traced))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", specs[i].name, err)
			status = 1
			continue
		}
		report(os.Stdout, res)
		if res.checkErr != nil {
			status = 1
		}
		results[res.workload] = res
	}
	sk, vanilla := results["kv_mixed_sk"], results["kv_mixed_vanilla"]
	if !traced && sk != nil && vanilla != nil {
		fmt.Println("\nkv_mixed_sk / kv_mixed_vanilla (informational)")
		for _, def := range endToEndDefs {
			if def.Name == "setup_s" {
				continue
			}
			fmt.Printf("  sk_over_vanilla.%-14s %.3f\n", def.Name, sk.metrics[def.Name].Value/vanilla.metrics[def.Name].Value)
		}
	}
	return status
}

// report prints the run for a reader and, as the last line, the one
// JSON object the benchmark driver parses.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d ops attempted, %d failed\n",
		res.workload, res.seed, res.rounds, res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	if res.checkErr != nil {
		fmt.Fprintf(w, "  output check: FAILED: %v\n", res.checkErr)
	} else {
		fmt.Fprintf(w, "  output check: ok (every GET compared, sample read back, replica digests equal, no shed frames)\n")
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		line := fmt.Sprintf("  %-32s %14.4f %-6s", name, m.Value, m.Unit)
		if s, ok := res.spread[name]; ok {
			line += fmt.Sprintf("  (median %.4f, IQR %.1f%%)", s.Median, 100*s.iqrShare())
		}
		fmt.Fprintln(w, line)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.checkErr == nil, res.attempted, res.failed, res.metrics}
	line, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}
