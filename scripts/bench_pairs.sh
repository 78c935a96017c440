#!/bin/sh
# Compare the benchmark's end-to-end metrics of a parent revision and of
# this working tree over alternating pairs of runs:
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD PAIRS [SECONDS]
#
# The parent is exported with `git archive | tar -x` into a temporary
# directory, so no worktree is added and nothing under .git changes.  Pair i
# runs `perfbench/run.py --trace 0 --seed i` once on each side, the parent
# first in odd pairs and the working tree first in even ones; SECONDS is
# passed on as --seconds (default: BENCHMARK.json's run_seconds).  From each
# run's last JSON line it prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles and how many pairs the
# working tree won, plus each side's failed operations.  It exits 1 after
# the table when either side failed an operation or reported a result that
# is not correct.
set -eu
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

run() {  # run SIDE CHECKOUT SEED: keep the last line of one benchmark run
    if ! (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
            --trace 0 ${seconds:+--seconds "$seconds"}) > "$tmp/out"; then
        echo "error: $1 run at seed $3 failed" >&2
        exit 1
    fi
    tail -n 1 "$tmp/out" > "$tmp/$1.$3.json"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$tmp/parent" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run parent "$tmp/parent" "$i"
    fi
    echo "pair $i of $pairs done" >&2
    i=$((i + 1))
done

python3 - "$tmp" "$pairs" "$root/BENCHMARK.json" "$rev" "$workload" <<'EOF'
import json
import statistics
import sys

tmp, pairs, spec_path, rev, workload = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
spec = json.load(open(spec_path))
runs = {side: [json.load(open(f"{tmp}/{side}.{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{workload}: {pairs} alternating pairs, parent {rev} against the working tree")
print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
      f"{'change':>8} {'won':>6}")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
    cells = []
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles(vals[side])
        cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
    won = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
    base = statistics.median(vals["parent"])
    rel = statistics.median(vals["change"]) / base - 1.0 if base else float("nan")
    print(f"{name:<12} {cells[0]:>30} {cells[1]:>30} {rel:>+8.1%} {won:>3}/{pairs}")
clean = True
for side, rs in runs.items():
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    correct = all(r["correct"] for r in rs)
    print(f"{side}: {failed} of {attempted} operations failed, all correct: {correct}")
    clean = clean and failed == 0 and correct
sys.exit(0 if clean else 1)
EOF
