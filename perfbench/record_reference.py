"""Store each workload's outputs at given seeds as the benchmark's reference.

    python3 perfbench/record_reference.py            # seeds 0-10, ~4 minutes
    python3 perfbench/record_reference.py 1 2 3      # chosen seeds

Runs one untraced operation per (workload, seed) and writes its output to
``perfbench/reference/<workload>/seed-<n>.txt``.  ``run.py`` compares a
run's first output with the file for its seed and reports whether the
bytes match and the largest relative deviation of any number, for
information only: a legitimate fix (say, a different bath draw order)
changes realisations, after which the references are recorded again.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import HERE, reference_path, spawn
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    root = HERE.parent
    seeds = [int(s) for s in argv] or list(range(11))
    workdir = root / ".bench_build" / "record-reference"
    try:
        for name in WORKLOADS:
            for seed in seeds:
                report = spawn(root, workdir, name, seed, budget=0.0, traced=False,
                               timeout=300.0)
                if "error" in report or report["ops"][0]["problems"]:
                    sys.stderr.write(f"{name} seed {seed}: not recorded: "
                                     f"{report.get('error') or report['ops'][0]['problems']}\n")
                    return 1
                path = reference_path(name, seed)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(report["result_text"])
                print(f"{path.relative_to(root)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
