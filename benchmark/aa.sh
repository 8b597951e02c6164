#!/usr/bin/env bash
# A/A check: runs two sets of N runs of every workload back to back on
# this checkout, the same code both times, and compares the sets the way
# the benchmark driver compares a parent commit with a change.
#
#   bash benchmark/aa.sh [runs-per-set]        (default 5)
#
# Prints a Markdown report (benchmark/AA.md is one such output) and exits
# non-zero if, for any workload and end-to-end metric, the two sets'
# medians differ by more than the metric's bound or a set's own spread
# (interquartile range over median) exceeds it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs="${1:-5}"
out=".bench_build/aa"
rm -rf "$out"
mkdir -p "$out"

field() { python3 -c 'import json,sys; b=json.load(open("BENCHMARK.json")); print(eval(sys.argv[1]))' "$1"; }
workloads="$(field '" ".join(w["name"] for w in b["workloads"])')"
seconds="$(field 'b["run_seconds"]')"

seed=1
for set in A B; do
  for i in $(seq 1 "$runs"); do
    for w in $workloads; do
      echo "set $set run $i: $w (seed $seed)" >&2
      bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 > "$out/$set.$w.$i.json"
    done
    seed=$((seed + 1))
  done
done

python3 - "$out" "$runs" <<'EOF'
import json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
failed = False

def values(set_, workload, metric):
    vals = []
    for i in range(1, runs + 1):
        run = json.load(open(f"{out}/{set_}.{workload}.{i}.json"))
        if not run["correct"] or run["failed"]:
            raise SystemExit(f"{set_}.{workload}.{i}: output check failed")
        vals.append(run["metrics"][metric]["value"])
    return vals

def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)

print(f"# A/A: two sets of {runs} runs, same code, {bench['run_seconds']} s measured per run\n")
print("`gap` is set B's median against set A's, positive when B is worse; `spread` is the")
print("interquartile range over the median within a set; `max dev` is the run furthest")
print("from its own set's median. Seeds differ from run to run.\n")
for w in bench["workloads"]:
    print(f"## {w['name']}\n")
    print("| metric | median A | median B | gap | spread A | spread B | max dev | bound | |")
    print("|---|---:|---:|---:|---:|---:|---:|---:|---|")
    for m in bench["end_to_end"]:
        a, b = values("A", w["name"], m["name"]), values("B", w["name"], m["name"])
        ma, mb = statistics.median(a), statistics.median(b)
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        dev = max(max(abs(v - ma) / ma for v in a), max(abs(v - mb) / mb for v in b))
        # The driver holds setup_s to the gap between medians only.
        over = abs(gap) > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
        failed = failed or over
        print(f"| {m['name']} | {ma:.4f} | {mb:.4f} | {gap:+.1%} | {sa:.1%} | {sb:.1%} | {dev:.1%} | {m['bound']:.0%} | {'OVER' if over else 'ok'} |")
    print()
print("verdict: " + ("a gap or a spread exceeds its bound" if failed else "every gap and every spread is within its bound"))
sys.exit(1 if failed else 0)
EOF
