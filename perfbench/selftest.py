"""Self-test of the benchmark.

    python3 perfbench/selftest.py          # from the root of a checkout, ~3 minutes

For every workload and each seed in SEEDS, one short traced run starts an
untraced, a traced and an untraced process, one operation each, and must
report ``correct`` with no failed operation.  The run itself requires
every operation's output to equal the first one's byte for byte, so this
also shows that the tracer's wrappers draw no random numbers.  The traced
figures must show work in the layers a workload exercises and none in the
layers it bypasses.  Finally the benchmark must refuse, with a nonzero exit
code and no result line, to run where the program's source is missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)
BUSY = {
    "chaos-elastic": ["events.count", "elastic.kernel.builds", "harness.u_statistic.calls",
                      "core.rng.variates"],
    "simulate-large": ["events.count", "thermostat.bath.calls", "mckean.particle_steps",
                       "core.rng.variates"],
    "measure-limits": ["limits.rhs_evals", "metrics.sampling_error.replicas",
                       "core.rng.variates"],
}
IDLE = {
    "chaos-elastic": ["metrics.sampling_error.replicas", "limits.rhs_evals",
                      "mckean.particle_steps", "thermostat.bath.calls"],
    "simulate-large": ["metrics.sampling_error.replicas", "limits.rhs_evals",
                       "harness.u_statistic.calls", "elastic.simulate.calls"],
    "measure-limits": ["events.count", "events.batches", "elastic.simulate.calls",
                       "mckean.particle_steps", "thermostat.bath.calls"],
}


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    root = HERE.parent
    problems = []
    for workload in BUSY:
        for seed in SEEDS:
            proc = bench(root, "--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", "1")
            tag = f"{workload} seed {seed}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] != 3:
                failed = [ln for ln in proc.stdout.splitlines() if "FAILED" in ln]
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed "
                                f"{failed}")
            problems += [f"{tag}: no {k} work" for k in BUSY[workload] if not values[k] > 0]
            problems += [f"{tag}: unexpected {k} = {values[k]}" for k in IDLE[workload]
                         if values[k] != 0]
            print(f"{tag}: checked", flush=True)

    # a directory holding only the benchmark cannot run it
    bare = root / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, "--workload", "chaos-elastic", "--seed", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the program's source")
        print("bare directory: checked", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
