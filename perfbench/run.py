"""Benchmark of the meanfield package: end-to-end metrics and per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chaos-elastic --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Load comes from one caller in a closed loop: each workload process issues
one operation at a time (pipeline calls with ``--workers 1``, then their
check) and starts the next when it returns.  Every process is fresh, with
OMP/OPENBLAS/MKL threads pinned to 1, and the run starts at least
MIN_PROCESSES of them so set-up time and peak RSS are medians, continuing
until the operations have taken ``--seconds`` of wall time in total.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: per
operation wall and CPU seconds (medians), set-up seconds from process start
to the first pipeline call, and peak RSS per process.  ``--trace 1``
alternates untraced and traced processes and reports the per-layer
metrics of the traced operations (medians), plus ``trace.overhead_s``, the
traced minus the untraced median wall time.

Every operation's output must also equal, byte for byte, the first
operation's output of the run: a fixed (config, seed) gives fixed bytes,
traced or not.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report, including the failure rate, high percentiles, the
machine, and the comparison with the stored reference outputs in
``perfbench/reference`` (for information only, never gated).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (the benchmark's own module)

MIN_PROCESSES = 3
MAX_PROCESSES = 16
# every process of one workload run ends within this many seconds
RUN_DEADLINE_S = 165.0
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def reference_path(workload: str, seed: int) -> Path:
    return HERE / "reference" / workload / f"seed-{seed}.txt"


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root: Path, workdir: Path, workload: str, seed: int, budget: float, traced: bool,
          timeout: float) -> dict:
    """Run one worker process to completion; its report, or a failure record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--traced", str(int(traced)), "--workdir", str(workdir)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return {"error": f"worker timed out after {exc.timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"error": f"worker exit code {proc.returncode}: {tail}"}
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"worker printed no report: {lines[-1][:200]}"}
    report["setup_s"] = report["setup_end"] - t_spawn
    report["traced"] = traced
    return report


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            return f"p{p}", ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return "max", ordered[-1]


def relative_deviation(text: str, reference: str) -> float:
    """Largest relative difference between numeric fields of two outputs."""
    worst = 0.0
    a_lines, b_lines = text.splitlines(), reference.splitlines()
    if len(a_lines) != len(b_lines):
        return math.inf
    for a_line, b_line in zip(a_lines, b_lines):
        a_fields, b_fields = a_line.replace("=", ",").split(","), b_line.replace("=", ",").split(",")
        if len(a_fields) != len(b_fields):
            return math.inf
        for a, b in zip(a_fields, b_fields):
            try:
                x, y = float(a), float(b)
            except ValueError:
                continue
            if x != y:
                worst = max(worst, abs(x - y) / max(abs(y), 1e-300))
    return worst


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    """Run one workload for ``seconds`` of operations; the metrics and report lines."""
    workdir = root / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
    reports: list[dict] = []
    measured = 0.0
    start = time.monotonic()
    try:
        while len(reports) < MAX_PROCESSES and (len(reports) < MIN_PROCESSES
                                                or measured < seconds):
            elapsed = time.monotonic() - start
            left = RUN_DEADLINE_S - elapsed
            # stop early rather than start a process that cannot finish
            if len(reports) >= MIN_PROCESSES and elapsed / len(reports) > left:
                break
            share = max(seconds - measured, 0.0) / max(1, MIN_PROCESSES - len(reports))
            traced = trace and len(reports) % 2 == 1
            report = spawn(root, workdir / str(len(reports)), name, seed, share, traced, left)
            reports.append(report)
            measured += sum(op["wall_s"] for op in report.get("ops", []))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(name, seed, trace, reports, spec)


def summarize(name: str, seed: int, trace: bool, reports: list[dict], spec: dict) -> dict:
    ok = [r for r in reports if "error" not in r]
    ops = [op for r in ok for op in r["ops"]]
    lines = []
    failures = [r["error"] for r in reports if "error" in r]
    if ops:
        first = ops[0]["digest"]
        for op in ops:
            if op["digest"] != first:
                op["problems"].append("output differs from the first operation of the run")
    failures += [p for op in ops for p in op["problems"]]
    failed = sum(1 for r in reports if "error" in r) + sum(1 for op in ops if op["problems"])
    attempted = max(1, sum(1 for r in reports if "error" in r) + len(ops))

    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    samples = {
        "wall_s": [op["wall_s"] for op in plain],
        "cpu_s": [op["cpu_s"] for op in plain],
        "setup_s": [r["setup_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok if not r["traced"]],
    }
    lines.append(f"workload {name}, seed {seed}: {len(reports)} processes, {len(ops)} operations "
                 f"({len(traced)} traced), one caller in a closed loop, --workers 1")
    metrics: dict[str, dict] = {}
    if not trace:
        for m in spec["end_to_end"]:
            values = samples.get(m["name"])
            if not values:
                raise RuntimeError(f"no samples for {m['name']}: every process failed")
            median = statistics.median(values)
            label, high = high_percentile(values)
            metrics[m["name"]] = {"value": median, "unit": m["unit"]}
            lines.append(f"  {m['name']:<12} median {median:.4f} {m['unit']:<5} "
                         f"{label} {high:.4f}  n={len(values)}")
    else:
        if not traced or not plain:
            raise RuntimeError("a traced run needs both a traced and an untraced operation")
        layers = {key: statistics.median(op["layers"][key] for op in traced)
                  for key in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                      - statistics.median(op["wall_s"] for op in plain))
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
            lines.append(f"  {m['name']:<34} {layers[m['name']]:>14.6g} {m['unit']}")
        absent = sorted({a for r in ok for a in r.get("absent", [])})
        lines.append(f"  absent trace targets: {', '.join(absent) or 'none'}")
    lines.append(f"  {'fail_rate':<12} {failed / attempted:.4f} ratio ({failed} of {attempted})")
    for problem in failures:
        lines.append(f"  FAILED: {problem}")

    ref = reference_path(name, seed)
    if ok and ref.exists():
        text, stored = ok[0]["result_text"], ref.read_text()
        lines.append(f"  reference {ref.relative_to(HERE.parent)}: bytes_match "
                     f"{str(text == stored).lower()}, result_max_rel_dev "
                     f"{relative_deviation(text, stored):.3g} (information only)")
    else:
        lines.append(f"  reference: none stored for seed {seed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines, "reports": ok}


def machine_lines(reports: list[dict]) -> list[str]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    versions = reports[0]["versions"] if reports else {}
    pins = " ".join(f"{k}={v}" for k, v in PINNED_THREADS.items())
    return [f"machine: nproc {len(os.sched_getaffinity(0))}, cpu {model}, "
            f"python {versions.get('python', '?')}, numpy {versions.get('numpy', '?')}, "
            f"scipy {versions.get('scipy', '?')}, {pins}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds of operations per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "meanfield" / "cli.py").is_file():
        sys.stderr.write(f"error: no meanfield source under {root / 'src'}; "
                         "run from the root of a meanfield checkout\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, name, args.seed, seconds, bool(args.trace), spec)
        except RuntimeError as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
    print("\n".join(machine_lines(next(iter(results.values()))["reports"])))
    for res in results.values():
        print("\n".join(res["lines"]))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
