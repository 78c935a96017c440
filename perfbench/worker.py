"""One workload process: set up, run operations in a closed loop, report.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads
pinned to 1 and ``src`` on ``PYTHONPATH``, so that set-up time and peak
RSS belong to this workload alone.  One caller issues one operation at a
time and starts the next when the previous one has been checked.  The
process runs operations until their summed wall time reaches ``--budget``
seconds (at least one), then prints one JSON line with its set-up end,
per-operation timings, check results and output digests, and its peak RSS.

With ``--traced 1`` every operation runs under the tracer of
``tracing.py``; it is installed just before the pipeline calls and removed
before the check, so checks add nothing to the per-layer figures.

    python3 perfbench/worker.py --workload simulate-large --seed 1 \\
        --budget 5 --traced 0 --workdir .bench_build/perfbench/w
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import numpy
    import scipy

    import meanfield
    import meanfield.cli  # the entry point imports every layer the workloads use

    src = (Path.cwd() / "src").resolve()
    if src not in Path(meanfield.__file__).resolve().parents:
        sys.stderr.write(f"meanfield imported from {meanfield.__file__}, not from {src}\n")
        return 3
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workload.prepare(workdir, args.seed)

    setup_end = time.monotonic()
    ops = []
    spent = 0.0
    absent: list[str] = []
    while True:
        tracer = Tracer() if args.traced else None
        if tracer is not None:
            tracer.install()
            absent = tracer.absent
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            outputs = workload.run(ctx)
            problems = []
        except Exception as exc:  # a failed call is recorded, never aborts the run
            traceback.print_exc()
            outputs = []
            problems = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
        if not problems:
            try:
                problems = workload.check(outputs)
            except Exception as exc:  # malformed output is a failed check
                traceback.print_exc()
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        text = "".join(f"== {o.label} (exit {o.exit_code})\n{o.text}" for o in outputs)
        ops.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "traced": bool(args.traced),
            "problems": problems,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "layers": tracer.layer_metrics() if tracer is not None else None,
        })
        if len(ops) == 1:
            first_text = text
        spent += wall
        if spent + 0.5 * spent / len(ops) >= args.budget:
            break

    print(json.dumps({
        "setup_end": setup_end,
        "ops": ops,
        "result_text": first_text,
        "absent": absent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
