"""The three benchmark workloads: inputs from a seed, pipeline calls, checks.

Each workload is a scaled-down acceptance criterion driven through the
package's public entry points: ``meanfield.cli.main`` in-process, and
``meanfield.harness.fourier_contraction_check``.  One operation is one
call of ``run`` (the timed pipeline calls) followed by ``check`` (not
timed).  The program receives the seed and the generated config files and
nothing else.

* ``chaos-elastic``: ``chaos-curve`` on the elastic gas in the shape of
  C4 (anisotropic Gaussian data, ``tanh_square``).  About 800 short
  trajectories: the event engine's small-batch regime, per-replica set-up
  (one angular-kernel build per replica), the U-statistic and the CLI's
  bootstrap.  N runs up to C4's 1024 with the reference at 16384, so
  most events fall in batches of tens; N starts at 2 so that err(N_min)
  stands clear of its standard error at this replica budget.
* ``simulate-large``: two ``simulate`` calls, the thermostat at N=32768
  (long collision batches, the bath hook per batch) and the C8 linear
  McKean-Vlasov system (Euler-Maruyama steps, inverse-transform normals).
* ``measure-limits``: ``omega-n`` (sliced sampling error) and the C7
  Fourier contraction check on seeded Gaussian pairs.  No particle
  dynamics: the bypass workload for every event-engine change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CHAOS_CFG = """\
model = kac_elastic
dimension = 3
n_list = 2, 8, 64, 1024
n_ref = 16384
replicas = 200
replicas_ref = 4
snapshot_times = 1.5, 3.0, 4.5, 6.0
kernel = isotropic
initial = gaussian
initial_mean = 0.0
initial_variance = 4.0, 0.25, 0.25
observable = tanh_square
observable_axis = 0
observable_scale = 1.0
estimator = empirical-mean
"""

THERMOSTAT_N = 32768
THERMOSTAT_ALPHA = 0.8
THERMOSTAT_NU = 1.0
THERMOSTAT_T_END = 20.0
THERMOSTAT_CFG = f"""\
model = inelastic_thermostat
dimension = 3
n = {THERMOSTAT_N}
alpha = {THERMOSTAT_ALPHA}
nu = {THERMOSTAT_NU}
kernel = isotropic
ordered_pair_rate = true
t_end = {THERMOSTAT_T_END}
snapshot_times = {", ".join(str(k) for k in range(1, 21))}
initial = gaussian
initial_mean = 0.0
initial_variance = 10.0
"""

# C8's linear configuration: U(z) = -kappa z, drift -lam z, noise sigma
MKV = {"n": 20000, "lam": 0.5, "kappa": 1.0, "sigma": 1.0, "mean0": 1.0, "var0": 0.25}
MKV_TIMES = [0.125 * k for k in range(1, 9)]
MKV_CFG = f"""\
model = mckean_vlasov
dimension = 1
n = {MKV["n"]}
drift_lambda = {MKV["lam"]}
sigma = {MKV["sigma"]}
interaction = linear
interaction_kappa = {MKV["kappa"]}
dt = 0.0005
t_end = 1.0
snapshot_times = {", ".join(str(t) for t in MKV_TIMES)}
initial = gaussian
initial_mean = {MKV["mean0"]}
initial_variance = {MKV["var0"]}
"""

OMEGA_CFG = """\
dimension = 3
n_list = 16, 64, 256, 1024
replicas = 64
reference_factor = 64
estimator = sliced
n_projections = 64
law = gaussian
law_mean = 0.0
law_variance = 1.0
"""

# the C7 grid and equation; T shortened from 1 to keep one operation short
FOURIER = {"xi_max": 40.0, "nodes": 512, "alpha": 0.8, "s": 3.0, "t_end": 0.25, "dt": 1e-3}
FOURIER_PAIRS = 3

# a tolerance in standard errors wide enough that a correct program passes
# at every seed with overwhelming probability
SE_TOLERANCE = 5.0


@dataclass
class Output:
    """One pipeline call's result: its label, exit code and output text."""

    label: str
    exit_code: int
    text: str


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int], dict]
    run: Callable[[dict], list[Output]]
    check: Callable[[list[Output]], list[str]]


# --------------------------------------------------------------------------
# shared helpers


def _cli(argv: list[str]) -> int:
    """Run the CLI in-process; an argparse exit becomes its exit code."""
    from meanfield import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _cli_csv(label: str, argv: list[str], out: Path) -> Output:
    out.unlink(missing_ok=True)
    code = _cli(argv + ["--workers", "1", "--out", str(out)])
    return Output(label, code, out.read_text() if out.exists() else "")


def _write_configs(workdir: Path, files: dict[str, str]) -> dict[str, Path]:
    paths = {}
    for name, text in files.items():
        paths[name] = workdir / name
        paths[name].write_text(text)
    return paths


def _table(text: str) -> tuple[list[str], list[list[float]], dict[str, str]]:
    """Columns, numeric rows and footer items of a CSV written by the CLI."""
    lines = text.splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return [], [], {}
    start = lines.index(body[0])
    footer = {}
    for ln in lines[start:]:
        if ln.startswith("#") and "=" in ln:
            key, _, value = ln[1:].partition("=")
            footer[key.strip()] = value.strip()
    return body[0].split(","), [[float(x) for x in ln.split(",")] for ln in body[1:]], footer


def _usable(out: Output) -> list[str]:
    if out.exit_code != 0:
        return [f"{out.label}: exit code {out.exit_code}"]
    if not out.text:
        return [f"{out.label}: no output written"]
    return []


def _finite(label: str, rows: list[list[float]]) -> list[str]:
    if not rows:
        return [f"{label}: no result rows"]
    if not all(math.isfinite(x) for row in rows for x in row):
        return [f"{label}: non-finite values"]
    return []


# --------------------------------------------------------------------------
# chaos-elastic


def _chaos_prepare(workdir: Path, seed: int) -> dict:
    return {"seed": seed, "workdir": workdir,
            "cfg": _write_configs(workdir, {"chaos.cfg": CHAOS_CFG})["chaos.cfg"]}


def _chaos_run(ctx: dict) -> list[Output]:
    argv = ["chaos-curve", "--config", str(ctx["cfg"]), "--seed", str(ctx["seed"])]
    return [_cli_csv("chaos-curve", argv, ctx["workdir"] / "chaos.csv")]


def _chaos_check(outputs: list[Output]) -> list[str]:
    (out,) = outputs
    problems = _usable(out)
    if problems:
        return problems
    _, rows, _ = _table(out.text)
    problems = _finite(out.label, rows)
    if problems:
        return problems
    (_, err_lo, se_lo), (_, err_hi, se_hi) = rows[0], rows[-1]
    if not err_lo - err_hi > 2.0 * math.hypot(se_lo, se_hi):
        problems.append(
            f"chaos-curve: err(N={rows[0][0]:g}) = {err_lo:.3g} ± {se_lo:.2g} is not 2 pooled "
            f"SE above err(N={rows[-1][0]:g}) = {err_hi:.3g} ± {se_hi:.2g}"
        )
    return problems


# --------------------------------------------------------------------------
# simulate-large


def _large_prepare(workdir: Path, seed: int) -> dict:
    cfg = _write_configs(workdir, {"thermostat.cfg": THERMOSTAT_CFG, "mkv.cfg": MKV_CFG})
    return {"seed": seed, "workdir": workdir, "cfg": cfg}


def _large_run(ctx: dict) -> list[Output]:
    outs = []
    for name in ("thermostat", "mkv"):
        argv = ["simulate", "--config", str(ctx["cfg"][f"{name}.cfg"]), "--seed", str(ctx["seed"])]
        outs.append(_cli_csv(f"simulate {name}", argv, ctx["workdir"] / f"{name}.csv"))
    return outs


def _thermostat_problems(out: Output) -> list[str]:
    from meanfield.elastic import AngularKernel
    from meanfield.thermostat import RestitutionParams, steady_temperature

    _, rows, _ = _table(out.text)
    problems = _finite(out.label, rows)
    if problems:
        return problems
    params = RestitutionParams(alpha=THERMOSTAT_ALPHA, nu=THERMOSTAT_NU, dim=3)
    target = steady_temperature(params, AngularKernel.isotropic(3), "ordered-pairs",
                                n_particles=THERMOSTAT_N)
    tail = [row[1] for row in rows if row[0] > THERMOSTAT_T_END / 2]
    plateau = sum(tail) / len(tail)
    if abs(plateau - target) > 0.05 * target:
        problems.append(f"{out.label}: plateau {plateau:.4f} not within 5% of {target:.4f}")
    return problems


def _mkv_problems(out: Output) -> list[str]:
    from meanfield.mckean import linear_moment_flow

    _, rows, _ = _table(out.text)
    problems = _finite(out.label, rows)
    if problems:
        return problems
    m = MKV
    times = [row[0] for row in rows]
    means, variances = linear_moment_flow(m["kappa"], m["lam"], [m["sigma"]], [m["mean0"]],
                                          [m["var0"]], times)
    for k, (t, second, mean) in enumerate(rows):
        # the empirical mean is an Ornstein-Uhlenbeck process of its own:
        # the interaction cancels in it and the noise enters as sigma/sqrt(N)
        decay = math.exp(-2.0 * m["lam"] * t)
        sd_mean = math.sqrt((m["var0"] * decay
                             + m["sigma"] ** 2 * (1.0 - decay) / (2.0 * m["lam"])) / m["n"])
        var_t = float(variances[k, 0])
        sd_var = var_t * math.sqrt(2.0 / m["n"])
        if abs(mean - means[k, 0]) > SE_TOLERANCE * sd_mean:
            problems.append(f"{out.label}: mean {mean:.5f} at t={t:g} vs flow {means[k, 0]:.5f}")
        if abs(second - mean**2 - var_t) > SE_TOLERANCE * sd_var:
            problems.append(f"{out.label}: variance {second - mean**2:.5f} at t={t:g} "
                            f"vs flow {var_t:.5f}")
    return problems


def _large_check(outputs: list[Output]) -> list[str]:
    thermo, mkv = outputs
    problems = _usable(thermo) + _usable(mkv)
    if problems:
        return problems
    return _thermostat_problems(thermo) + _mkv_problems(mkv)


# --------------------------------------------------------------------------
# measure-limits


def _limits_prepare(workdir: Path, seed: int) -> dict:
    # C7's draw of Gaussian variance pairs, from the benchmark's own generator
    draw = random.Random(seed)
    pairs = []
    for _ in range(FOURIER_PAIRS):
        va, vb = 0.5 + 1.5 * draw.random(), 0.5 + 1.5 * draw.random()
        if abs(va - vb) < 1e-3:
            vb += 0.1
        pairs.append((va, vb))
    cfg = _write_configs(workdir, {"omega.cfg": OMEGA_CFG})["omega.cfg"]
    return {"seed": seed, "workdir": workdir, "cfg": cfg, "pairs": pairs}


def _limits_run(ctx: dict) -> list[Output]:
    from meanfield import harness
    from meanfield.limits import gaussian_spectrum, make_xi_grid

    argv = ["omega-n", "--config", str(ctx["cfg"]), "--seed", str(ctx["seed"])]
    outs = [_cli_csv("omega-n", argv, ctx["workdir"] / "omega.csv")]
    f = FOURIER
    xi = make_xi_grid(f["xi_max"], f["nodes"])
    lines = ["var_a,var_b,max_ratio,identical_inputs"]
    for va, vb in ctx["pairs"]:
        res = harness.fourier_contraction_check(
            gaussian_spectrum(xi, va), gaussian_spectrum(xi, vb),
            alpha=f["alpha"], s=f["s"], t_end=f["t_end"], dt=f["dt"],
        )
        lines.append(f"{va!r},{vb!r},{res.max_ratio!r},{int(res.identical_inputs)}")
    outs.append(Output("fourier-contraction", 0, "\n".join(lines) + "\n"))
    return outs


def _limits_check(outputs: list[Output]) -> list[str]:
    omega, fourier = outputs
    problems = _usable(omega)
    if problems:
        return problems
    _, rows, footer = _table(omega.text)
    problems = _finite(omega.label, rows)
    try:
        slope = float(footer["fitted_slope"])
    except (KeyError, ValueError):
        problems.append(f"omega-n: no fitted slope ({footer.get('fit_refused', 'missing')})")
    else:
        if not slope <= -2.0 / 7.0 + 0.02:
            problems.append(f"omega-n: slope {slope:.4f} above -2/7 + 0.02")
    _, pair_rows, _ = _table(fourier.text)
    problems += _finite(fourier.label, pair_rows)
    for va, vb, ratio, identical in pair_rows:
        if identical or not ratio <= 1.01:
            problems.append(f"fourier-contraction: pair ({va:.4f}, {vb:.4f}) ratio {ratio:.4f}, "
                            f"identical_inputs {bool(identical)}")
    return problems


WORKLOADS = {
    "chaos-elastic": Workload(_chaos_prepare, _chaos_run, _chaos_check),
    "simulate-large": Workload(_large_prepare, _large_run, _large_check),
    "measure-limits": Workload(_limits_prepare, _limits_run, _limits_check),
}
