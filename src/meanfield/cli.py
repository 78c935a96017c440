"""Batch driver: resolve a flat config, run the requested pipeline, emit CSV.

Subcommands

* ``simulate``     one trajectory of any model; per-snapshot summary rows
* ``metric``       one distance between two particle files
* ``chaos-curve``  observable error against a limit oracle across N
* ``omega-n``      sampling error of empirical measures against their law
* ``check``        built-in invariant suite (exit 0 on pass)

Every output embeds the fully resolved config, the code version, the rate
conventions in force and the per-stream draw accounting, and is
byte-identical for a fixed (config, seed) regardless of ``--workers``
(replicas own disjoint streams whatever task block they fall in;
aggregation is order-preserving).

Stream-id allocation: simulate uses 1 (initial data) and 2 (dynamics);
chaos-curve replicas carry base id 1_000_000 (k+1) + r for replica r of the
k-th N (oracle replicas 900_000_000 + r) and split each base b into 2b
(initial data) and 2b + 1 (dynamics), and its bootstrap draws from 977
under the master seed; omega-n uses 10_000 (k+1) plus 1 (projection
directions) and 2 + r (replicas); the rate fit of chaos-curve and
omega-n draws its slope CI from 1331 under the fixed seed 7; check uses
ids below 1000.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from ._events import apply_pair_collisions, column_norms
from ._parallel import ordered_map
from .config import dump_particles, load_particles, parse_config, write_csv
from .core import (
    EmpiricalMeasure,
    ParticleState,
    RngStream,
    SimulationError,
    gaussian_sample_state,
    quantile_init_1d,
)
from .elastic import AngularKernel, simulate_kac
from .harness import (
    DegenerateFit,
    chaos_error_curve,
    observable_series,
    rate_fit,
    symmetrization_gap,
)
from .limits import OracleEstimate, SpectralInstability
from .mckean import (
    DriftDiffusionSpec,
    VlasovSpec,
    gradient_catalog,
    interaction_catalog,
    simulate_mkv,
    simulate_vlasov,
)
from .metrics import (
    empirical_sampling_error,
    h_neg_sobolev_norm,
    toscani_norm,
    tv_histogram,
    w1_exact_1d,
    w2_exact_matching,
    w2_sliced,
)
from .observables import ObservableProduct, observable_catalog
from .thermostat import RestitutionParams, simulate_thermostat, temperature

RATE_CONVENTIONS = {
    "rate_convention_elastic": "unordered-pairs:(N-1)/2",
    "rate_convention_thermostat_ordered": "ordered-pairs:N-1",
    "rate_convention_thermostat_halved": "unordered-pairs:(N-1)/2",
}

_MODELS = ("kac_elastic", "inelastic_thermostat", "mckean_vlasov", "vlasov")

# chaos-curve replicas of one N run in blocks of at most this many particles,
# each block one stacked system of whichever stochastic model (elastic,
# thermostat or McKean-Vlasov); larger stacks buy little speed and cost
# cache and memory (24 McKean replicas of 10^4 particles ran 35-40 % slower
# as one 240k-row stack than as 24 lone runs)
REPLICA_BLOCK_PARTICLES = 16_384


class ConfigError(ValueError):
    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class _Cfg(dict):
    """Config dict that records the defaults it hands out.

    The CSV header echoes the union of the explicit keys and everything
    resolved from defaults, so rerunning the echoed block needs no
    implicit knowledge.
    """

    def __init__(self, base: dict) -> None:
        super().__init__(base)
        self.used: dict = {}


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(key, "required but missing")
    if isinstance(cfg, _Cfg) and default is not None:
        cfg.used[key] = default
    return default


def _integer(key: str, value) -> int:
    """A config value that must be a whole number: an int or an integral float."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ConfigError(key, f"must be an integer, got {value!r}")


def _int(cfg: dict, key: str, default: int | None = None, required: bool = False) -> int:
    return _integer(key, _get(cfg, key, default, required))


def _count(cfg: dict, key: str, default: int) -> int:
    """A replica or projection count, refused below 1."""
    value = _int(cfg, key, default)
    if value < 1:
        raise ConfigError(key, f"must be at least 1, got {value}")
    return value


def _replica_count(cfg: dict, default: int) -> int:
    """Replicas of a Monte Carlo estimate: one would report a standard error of 0."""
    value = _count(cfg, "replicas", default)
    if value < 2:
        raise ConfigError("replicas", f"must be at least 2 for a standard error, got {value}")
    return value


def _as_list(v) -> list:
    if isinstance(v, (list, tuple)):
        return list(v)
    return [v]


def _floats(cfg: dict, key: str, default=None, required: bool = False) -> np.ndarray:
    """A number or a list of numbers, as a float array."""
    values = _as_list(_get(cfg, key, default, required))
    try:
        return np.asarray([float(x) for x in values], dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(key, f"must be a number or a list of numbers, got {values!r}") from None


def _n_list(cfg: dict) -> list[int]:
    """The particle counts of a curve, each refused below 1."""
    n_values = [_integer("n_list", x) for x in _as_list(_get(cfg, "n_list", required=True))]
    if min(n_values) < 1:
        raise ConfigError("n_list", f"must be at least 1, got {min(n_values)}")
    return n_values


def _per_coordinate(cfg: dict, key: str, default: list, m: int) -> np.ndarray:
    """A per-coordinate list of m values; a single value is broadcast."""
    values = _floats(cfg, key, default)
    if len(values) == 1:
        return np.full(m, values[0])
    if len(values) != m:
        raise ConfigError(key, f"need 1 or {m} values (one per coordinate), got {len(values)}")
    return values


# --------------------------------------------------------------------------
# builders


def _build_kernel(cfg: dict, dim: int) -> AngularKernel:
    name = _get(cfg, "kernel", "isotropic")
    if name == "isotropic":
        return AngularKernel.isotropic(dim)
    if name == "two_point":
        if dim != 1:
            raise ConfigError("kernel", "two_point kernels are one-dimensional")
        w = _floats(cfg, "kernel_weights", [0.5, 0.5])
        return AngularKernel.two_point(float(w[0]), float(w[1]))
    raise ConfigError("kernel", f"unknown kernel '{name}'")


def _build_observable(cfg: dict) -> ObservableProduct:
    name = _get(cfg, "observable", required=True)
    params = {}
    if "observable_center" in cfg:
        # checked per coordinate, passed as given: the tag echoes the config
        _per_coordinate(cfg, "observable_center", None, _state_dim(cfg))
        params["center"] = _floats(cfg, "observable_center")
    for key, tgt in (
        ("observable_width", "width"),
        ("observable_scale", "scale"),
        ("observable_axis", "axis"),
    ):
        if key in cfg:
            params[tgt] = cfg[key]
    return ObservableProduct((observable_catalog(str(name), **params),))


def _state_dim(cfg: dict) -> int:
    d = _int(cfg, "dimension", required=True)
    if _get(cfg, "model", required=True) == "vlasov":
        return 2 * d
    return d


def _initial_state(cfg: dict, n: int, streams: list[RngStream]) -> ParticleState:
    """Initial data of a replica stack, replica r drawing from ``streams[r]``."""
    kind = _get(cfg, "initial", "gaussian")
    m = _state_dim(cfg)
    if kind == "gaussian":
        mean = _per_coordinate(cfg, "initial_mean", [0.0], m)
        var = _per_coordinate(cfg, "initial_variance", [1.0], m)
        if not np.all(np.isfinite(mean)):
            raise ConfigError("initial_mean", "must be finite")
        if not np.all(np.isfinite(var)) or np.any(var < 0):
            raise ConfigError("initial_variance", "must be finite and nonnegative")
        return gaussian_sample_state(mean, var, n, streams)
    if kind == "quantile":
        vlasov = _get(cfg, "model") == "vlasov"
        if m != (2 if vlasov else 1):
            raise ConfigError("initial", "quantile initialization needs dimension = 1")
        law = _get(cfg, "quantile_law", "uniform")
        if law == "uniform":
            lo = float(_get(cfg, "quantile_lo", -1.0))
            hi = float(_get(cfg, "quantile_hi", 1.0))
            inv = lambda u: lo + (hi - lo) * u
        elif law == "gaussian":
            mu = float(_get(cfg, "quantile_mean", 0.0))
            sd = math.sqrt(float(_get(cfg, "quantile_variance", 1.0)))
            inv = lambda u: mu + sd * ndtri(u)
        else:
            raise ConfigError("quantile_law", f"unknown law '{law}'")
        coords = np.zeros((n, m))
        coords[:, :1] = quantile_init_1d(inv, n).coords  # vlasov velocities start at rest
    elif kind == "file":
        coords = load_particles(_get(cfg, "initial_file", required=True))
        if coords.shape[1] != m:
            raise ConfigError("initial_file", f"particles must have {m} coordinates")
        if len(coords) < n:
            raise ConfigError("initial_file", f"needs {n} particles, found {len(coords)}")
        coords = coords[:n]
    else:
        raise ConfigError("initial", f"unknown initial law '{kind}'")
    # these laws draw nothing: every replica starts from the same data
    return ParticleState(np.tile(coords, (len(streams), 1)))


def _build_mkv_spec(cfg: dict, dim: int) -> DriftDiffusionSpec:
    lam = float(_get(cfg, "drift_lambda", 0.0))
    sigma = float(_get(cfg, "sigma", 0.0))
    name = str(_get(cfg, "interaction", "zero"))
    params = {}
    for key, tgt in (
        ("interaction_kappa", "kappa"),
        ("interaction_amp", "amp"),
        ("interaction_width", "width"),
        ("interaction_eps", "eps"),
    ):
        if key in cfg:
            params[tgt] = float(cfg[key])
    return DriftDiffusionSpec(
        dim=dim,
        linear_drift=-lam * np.eye(dim),
        diffusion_matrix=sigma * np.eye(dim),
        interaction=interaction_catalog(name, dim, **params),
        n_minus_one_prefactor=bool(_get(cfg, "n_minus_one_prefactor", False)),
    )


def _build_vlasov_spec(cfg: dict, dim: int) -> VlasovSpec:
    name = str(_get(cfg, "potential_gradient", "zero"))
    params = {}
    if "gradient_amp" in cfg:
        params["amp"] = float(cfg["gradient_amp"])
    if "gradient_kappa" in cfg:
        params["kappa"] = float(cfg["gradient_kappa"])
    return VlasovSpec(space_dim=dim, potential_gradient=gradient_catalog(name, **params))


def _model_kernel(cfg: dict) -> AngularKernel | None:
    """The angular kernel of a collision model, built once per command."""
    if _get(cfg, "model", required=True) in ("kac_elastic", "inelastic_thermostat"):
        return _build_kernel(cfg, _int(cfg, "dimension", required=True))
    return None


def _simulate_runs(cfg: dict, n: int, seed: int, stream_ids, kernel: AngularKernel | None):
    """Trajectories of N particles, one replica per (initial, dynamics) stream-id pair.

    Returns (times, the replica stack at each time, draw items per replica).
    """
    model = _get(cfg, "model", required=True)
    if model not in _MODELS:
        raise ConfigError("model", f"must be one of {_MODELS}")
    times = _floats(cfg, "snapshot_times", required=True)
    t_end = float(_get(cfg, "t_end", times[-1] if len(times) else 0.0))
    init_streams = [RngStream(seed, sid) for sid, _ in stream_ids]
    initial = _initial_state(cfg, n, init_streams)
    dim = _int(cfg, "dimension", required=True)
    dyn_streams = [RngStream(seed, sid) for _, sid in stream_ids]
    if model == "kac_elastic":
        states = simulate_kac(initial, kernel, t_end, times, dyn_streams)
    elif model == "inelastic_thermostat":
        params = RestitutionParams(
            alpha=float(_get(cfg, "alpha", required=True)),
            nu=float(_get(cfg, "nu", 1.0)),
            dim=dim,
        )
        ordered = bool(_get(cfg, "ordered_pair_rate", True))
        states = simulate_thermostat(initial, kernel, params, t_end, times, dyn_streams,
                                     ordered_pair_rate=ordered)
    elif model == "mckean_vlasov":
        spec = _build_mkv_spec(cfg, dim)
        dt = float(_get(cfg, "dt", 1e-3))
        states = simulate_mkv(initial, spec, t_end, dt, times, dyn_streams)
    else:  # vlasov: deterministic, so every caller asks for one run
        spec = _build_vlasov_spec(cfg, dim)
        dt = float(_get(cfg, "dt", 1e-3))
        states = simulate_vlasov(initial, spec, t_end, dt, times)
    draws = [
        [(a, init.draw_counter), (b, dyn.draw_counter)]
        for (a, b), init, dyn in zip(stream_ids, init_streams, dyn_streams)
    ]
    return times, states, draws


# --------------------------------------------------------------------------
# shared header assembly


def _accounting_items(draws: list[tuple[int, int]]) -> list[tuple[str, object]]:
    draws = sorted(draws)
    total = sum(c for _, c in draws)
    blob = ";".join(f"{sid}:{c}" for sid, c in draws)
    items: list[tuple[str, object]] = [
        ("rng_streams", len(draws)),
        ("rng_draws_total", total),
    ]
    if len(draws) <= 64:
        items.append(("rng_draws", blob))
    else:
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        items.append(("rng_draws_sha256", digest))
    return items


def _header(cfg: dict, seed: int, extra: list[tuple[str, object]]) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [("meanfield_csv", 1), ("code_version", __version__)]
    items += [(k, v) for k, v in sorted(RATE_CONVENTIONS.items())]
    resolved = dict(cfg)
    if isinstance(cfg, _Cfg):
        resolved.update(cfg.used)
    resolved["master_seed"] = seed
    items += [(k, resolved[k]) for k in sorted(resolved)]
    items += extra
    return items


def _fit_footers(n_values, errors, std_errors) -> list[tuple[str, object]]:
    """Footer items of a log-log rate fit, or the reason it was refused."""
    try:
        slope, intercept, ci = rate_fit(n_values, errors, std_errors)
    except (DegenerateFit, ValueError) as exc:
        return [("fit_refused", str(exc))]
    return [
        ("fitted_slope", slope),
        ("fit_intercept", intercept),
        ("slope_ci_lo", ci[0]),
        ("slope_ci_hi", ci[1]),
    ]


# --------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict, seed: int, workers: int, out: str | None) -> str:
    cfg = _Cfg(cfg)
    n = _int(cfg, "n", required=True)
    times, states, (draws,) = _simulate_runs(cfg, n, seed, [(1, 2)], _model_kernel(cfg))
    m = states[0].dim if states else 0
    columns = ["time", "temperature"] + [f"mom_{k}" for k in range(m)]
    rows = []
    for s in states:
        mom = s.coords.mean(axis=0)
        rows.append([s.time, temperature(s)] + [float(x) for x in mom])
    if bool(_get(cfg, "dump_particles", False)) and out:
        dump_particles(str(out) + ".particles.txt", states[-1].coords)
    header = _header(cfg, seed, _accounting_items(draws))
    return write_csv(out, header, columns, rows)


_METRIC_NAMES = ("w1", "w2_exact", "w2_sliced", "toscani", "h_sobolev", "tv")


def cmd_metric(cfg: dict, seed: int, workers: int, out: str | None) -> str:
    cfg = _Cfg(cfg)
    name = _get(cfg, "metric", required=True)
    if name not in _METRIC_NAMES:
        raise ConfigError("metric", f"must be one of {_METRIC_NAMES}")
    a = EmpiricalMeasure(load_particles(_get(cfg, "input_a", required=True)))
    b = EmpiricalMeasure(load_particles(_get(cfg, "input_b", required=True)))
    draws: list[tuple[int, int]] = []
    extra: list[tuple[str, object]] = []
    se = 0.0
    if name == "w1":
        value = w1_exact_1d(a, b)
        extra.append(("estimator_used", "exact-1d-quantile-coupling"))
    elif name == "w2_exact":
        res = w2_exact_matching(a, b)
        value = math.sqrt(res.cost)
        extra.append(("estimator_used", "exact-assignment"))
    elif name == "w2_sliced":
        stream = RngStream(seed, 1)
        value, se = w2_sliced(a, b, _count(cfg, "n_projections", 64), stream)
        draws.append((1, stream.draw_counter))
        extra.append(("estimator_used", "sliced-monte-carlo"))
    elif name in ("toscani", "h_sobolev"):
        xi_max = float(_get(cfg, "xi_max", 40.0))
        n_nodes = _int(cfg, "xi_nodes", 4096)
        xi = np.linspace(-xi_max, xi_max, n_nodes)
        s_order = float(_get(cfg, "s", 3.0 if name == "toscani" else 1.0))
        if name == "toscani":
            value, arg = toscani_norm(a, b, s_order, xi)
            extra += [("estimator_used", "grid-sup"), ("argmax_xi", arg)]
        else:
            value = h_neg_sobolev_norm(a, b, s_order, xi)
            extra.append(("estimator_used", "grid-trapezoid"))
    else:
        edges = _floats(cfg, "bin_edges", required=True)
        value = tv_histogram(a, b, edges)
        extra.append(("estimator_used", "binned-tv-lower-bound"))
    header = _header(cfg, seed, extra + _accounting_items(draws))
    return write_csv(out, header, ["metric", "value", "std_error"], [[name, value, se]])


def _curve_block(cfg, seed, obs, estimator, kernel, block) -> list[tuple[np.ndarray, int, int]]:
    """Replicas of one N: per replica (per-time values, stream_id, draws)."""
    n, sids = block
    # even/odd split keeps the two per-replica streams disjoint for every replica
    _, states, draws = _simulate_runs(cfg, n, seed, [(2 * sid, 2 * sid + 1) for sid in sids],
                                      kernel)
    # one (replicas, N, d) view per snapshot: the observable runs once per block
    values = observable_series([s.coords.reshape(len(sids), n, -1) for s in states], obs,
                               estimator)
    return [(v, sid, sum(c for _, c in items)) for v, sid, items in zip(values, sids, draws)]


def _replica_blocks(n: int, sids: list[int]) -> list[tuple[int, list[int]]]:
    size = max(1, REPLICA_BLOCK_PARTICLES // n)
    return [(n, sids[i:i + size]) for i in range(0, len(sids), size)]


def cmd_chaos_curve(cfg: dict, seed: int, workers: int, out: str | None) -> str:
    cfg = _Cfg(cfg)
    model = _get(cfg, "model", required=True)
    times = _floats(cfg, "snapshot_times", required=True)
    n_values = _n_list(cfg)
    obs = _build_observable(cfg)
    estimator = str(_get(cfg, "estimator", "empirical-mean"))
    if estimator not in ("empirical-mean", "marginal"):
        raise ConfigError("estimator", f"unknown estimator '{estimator}' "
                          "(empirical-mean or marginal)")
    n_ref = _int(cfg, "n_ref", required=True)
    if n_ref < 16 * max(n_values):
        raise ConfigError("n_ref", "must be at least 16x the largest N")
    deterministic = model == "vlasov"
    replicas = 1 if deterministic else _replica_count(cfg, 64)
    replicas_ref = 1 if deterministic else _count(cfg, "replicas_ref", 32)
    task = functools.partial(_curve_block, cfg, seed, obs, estimator, _model_kernel(cfg))

    def run_blocks(n: int, sids: list[int], in_process_first: bool = False) -> list:
        blocks = _replica_blocks(n, sids)
        head = [task(blocks.pop(0))] if in_process_first else []
        return [rep for block in head + ordered_map(task, blocks, workers) for rep in block]

    # oracle replicas first (fixed stream block), then the measured runs;
    # the first block runs in-process so the defaults it resolves land in
    # the parent's header whatever the worker count
    oracle_out = run_blocks(n_ref, [900_000_000 + r for r in range(replicas_ref)], True)
    oracle = OracleEstimate.from_replicas(times, np.stack([v for v, _, _ in oracle_out]))
    draws = [(sid, d) for _, sid, d in oracle_out]
    values = []
    for k, n in enumerate(n_values):
        results = run_blocks(n, [1_000_000 * (k + 1) + r for r in range(replicas)])
        values.append(np.stack([v for v, _, _ in results]))
        draws += [(sid, d) for _, sid, d in results]
    # the bootstrap reads only its own stream, so it can follow all the runs
    curve = chaos_error_curve(n_values, values, oracle, seed)

    footers = [("oracle_se_max", curve.oracle_se_max)]
    footers += _fit_footers(n_values, curve.errors, curve.std_errors)
    extra = [("estimator_used", estimator), ("observable_tag", obs.tag)]
    header = _header(cfg, seed, extra + _accounting_items(draws))
    rows = [[n, curve.errors[k], curve.std_errors[k]] for k, n in enumerate(n_values)]
    return write_csv(out, header, ["N", "error", "std_error"], rows, footers)


def cmd_omega_n(cfg: dict, seed: int, workers: int, out: str | None) -> str:
    cfg = _Cfg(cfg)
    dim = _int(cfg, "dimension", required=True)
    n_values = _n_list(cfg)
    replicas = _replica_count(cfg, 200)
    estimator = str(_get(cfg, "estimator", "auto"))
    if estimator not in ("auto", "exact-1d", "sliced"):
        raise ConfigError("estimator", f"unknown estimator '{estimator}' "
                          "(auto, exact-1d or sliced)")
    if estimator == "exact-1d" and dim != 1:
        raise ConfigError("estimator", f"exact-1d needs dimension = 1, got {dim}")
    n_proj = _count(cfg, "n_projections", 64)
    law = str(_get(cfg, "law", "gaussian"))
    if law != "gaussian":
        raise ConfigError("law", "only the gaussian law is built in")
    mean = _per_coordinate(cfg, "law_mean", [0.0], dim)
    if not np.all(np.isfinite(mean)):
        raise ConfigError("law_mean", f"must be finite, got {mean.tolist()}")
    var = _per_coordinate(cfg, "law_variance", [1.0], dim)
    if not np.all(np.isfinite(var) & (var >= 0)):
        raise ConfigError("law_variance", f"must be finite and nonnegative, got {var.tolist()}")

    rows = []
    errors = []
    ses = []
    draws: list[tuple[int, int]] = []
    est_used = None
    for k, n in enumerate(n_values):
        streams: dict[int, RngStream] = {}

        def factory(sid: int, _k=k) -> RngStream:
            s = RngStream(seed, 10_000 * (_k + 1) + sid)
            streams[10_000 * (_k + 1) + sid] = s
            return s

        res = empirical_sampling_error(mean, var, n, replicas, factory,
                                       estimator=estimator, n_projections=n_proj)
        est_used = res.estimator
        rows.append([n, res.mean, res.standard_error])
        errors.append(res.mean)
        ses.append(res.standard_error)
        draws += [(sid, s.draw_counter) for sid, s in streams.items()]

    extra = [("estimator_used", est_used)]
    header = _header(cfg, seed, extra + _accounting_items(draws))
    footers = _fit_footers(n_values, errors, ses)
    return write_csv(out, header, ["N", "omega_mean", "omega_se"], rows, footers)


def cmd_check(cfg: dict, seed: int, workers: int, out: str | None) -> str:
    lines = []
    ok = True

    def report(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        tag = "PASS" if passed else "FAIL"
        lines.append(f"[{tag}] {name}: {detail}")

    # conservation of the elastic gas
    init = gaussian_sample_state(np.zeros(3), np.ones(3), 200, RngStream(seed, 1))
    p0 = init.coords.sum(axis=0)
    e0 = float(np.sum(init.coords**2))
    out_states = simulate_kac(init, AngularKernel.isotropic(3), 1.0, [0.5, 1.0],
                              [RngStream(seed, 2)])
    drift = max(
        max(abs(np.sum(s.coords**2) - e0) / e0 for s in out_states),
        max(
            float(np.linalg.norm(s.coords.sum(axis=0) - p0)) / math.sqrt(e0)
            for s in out_states
        ),
    )
    report("elastic-conservation", drift <= 1e-8, f"max relative drift {drift:.2e}")

    # symmetrization bound on random instances
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    factors = [
        observable_catalog("gauss_bump", center=[0.0], width=1.0),
        observable_catalog("tanh_coord", axis=0),
        observable_catalog("tanh_square", axis=0),
    ]
    for _ in range(200):
        ell = int(rng.integers(1, 4))
        n = int(rng.choice([4, 6, 8]))
        if n < 2 * ell:
            continue
        state = ParticleState(rng.normal(size=(n, 1)) * 2.0)
        obs = ObservableProduct(tuple(rng.permutation(factors)[:ell]))
        gap, bound = symmetrization_gap(state, obs)
        worst = max(worst, gap - bound)
        violations += int(gap > bound + 1e-15)
    report("symmetrization-bound", violations == 0,
           f"0 violations, worst margin {worst:.2e}" if violations == 0
           else f"{violations} violations")

    # metric axioms
    bad = 0
    for _ in range(50):
        pts = [EmpiricalMeasure(rng.normal(size=(8, 1))) for _ in range(3)]
        d_ab = w1_exact_1d(pts[0], pts[1])
        d_ba = w1_exact_1d(pts[1], pts[0])
        d_ac = w1_exact_1d(pts[0], pts[2])
        d_cb = w1_exact_1d(pts[2], pts[1])
        w2ab = math.sqrt(w2_exact_matching(pts[0], pts[1]).cost)
        bad += int(d_ab != d_ba)
        bad += int(d_ab > d_ac + d_cb + 1e-10)
        bad += int(d_ab > w2ab + 1e-12)
    report("metric-axioms", bad == 0, f"{bad} violations over 50 random triples")

    # spectral invariants survive a short evolution
    from .limits import gaussian_spectrum, make_xi_grid, spectral_evolve

    try:
        g = gaussian_spectrum(make_xi_grid(8.0, 256), 1.0)
        [(_, [final])] = spectral_evolve([g], 0.8, True, 0.2, dt=5e-3)
        final.check_invariants(atol=1e-8)
        report("spectral-invariants", True, "F(0)=1, Hermitian, |F|<=1 after 40 steps")
    except Exception as exc:  # pragma: no cover
        report("spectral-invariants", False, str(exc))

    # pointwise inelastic contraction of the engine's collision rule: 500
    # collisions, 50 disjoint pairs (k, k + 50) per restitution
    stream = RngStream(seed, 3)
    worst_ratio = 0.0
    kernel, pairs = AngularKernel.isotropic(3), np.arange(50)
    for _ in range(10):
        alpha = 0.05 + 0.9 * float(stream.uniform())
        x = stream.normal(size=(100, 3)).T.copy()  # coordinate-major, as the engine plays
        u = x[:, :50] - x[:, 50:]
        costh = kernel.sample_costheta(50, stream)
        apply_pair_collisions(x, pairs, pairs + 50, costh, stream.normal(size=(50, 3)).T, alpha,
                              [(0, 50)])
        ratio = column_norms(x[:, :50] - x[:, 50:]) / column_norms(u)
        worst_ratio = max(worst_ratio, float(ratio.max()))
    report("inelastic-contraction", worst_ratio <= 1.0 + 1e-12,
           f"max |u*|/|u| = {worst_ratio:.12f}")

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)
    if not ok:
        raise SystemExit(1)
    return text


# --------------------------------------------------------------------------


_COMMANDS = {
    "simulate": cmd_simulate,
    "metric": cmd_metric,
    "chaos-curve": cmd_chaos_curve,
    "omega-n": cmd_omega_n,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meanfield",
        description="simulate interacting-particle models and measure their mean-field errors",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="flat config file")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=str, default=None, help="output CSV path")
    args = parser.parse_args(argv)

    cfg: dict = {}
    if args.config is not None:
        cfg = parse_config(args.config)
    elif args.subcommand != "check":
        parser.error("--config is required for this subcommand")
    seed = args.seed if args.seed is not None else int(cfg.get("master_seed", 0))
    out = args.out if args.out is not None else cfg.get("out")
    try:
        _COMMANDS[args.subcommand](cfg, seed, max(1, args.workers), out)
    except (ValueError, SimulationError, SpectralInstability) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy names the allocation it could not make
        sys.stderr.write(f"error: out of memory: {str(exc) or 'an allocation failed'}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
