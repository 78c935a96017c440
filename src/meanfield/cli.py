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
(initial data) and 2b + 1 (dynamics); its bootstrap fills one block of
uniform words per N of more than one replica from 977 under the master
seed, outside the ``rng_draws`` accounting; omega-n uses 10_000 (k+1)
plus 1 (projection directions) and 2 + r (replicas); the rate fit of
chaos-curve and omega-n draws its slope CI from 1331 under the fixed
seed 7; check uses ids below 1000.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from ._events import apply_pair_collisions, column_norms, sine_of
from ._parallel import ordered_map
from .config import dump_particles, load_particles, parse_config, write_csv
from .core import (
    EmpiricalMeasure,
    ParticleState,
    RngStream,
    SimulationError,
    gaussian_sample_state,
    quantile_init_1d,
    validate_snapshots,
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

# chaos-curve replicas of one N run in blocks of at most this many particles,
# each block one stacked system of whichever stochastic model (elastic,
# thermostat or McKean-Vlasov); larger stacks buy little speed and cost
# cache and memory (24 McKean replicas of 10^4 particles ran 35-40 % slower
# as one 240k-row stack than as 24 lone runs)
REPLICA_BLOCK_PARTICLES = 16_384


class ConfigError(ValueError):
    """A config value refused on its field; its args are (field, message), so it pickles."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        return f"config field '{self.args[0]}': {self.args[1]}"


# --------------------------------------------------------------------------
# the config schema

_REQUIRED = object()  # the default of a field that has none

# Every config field, declared once: name -> (kind, default).  Kinds: a tuple
# of choices, "bool", "path", the whole numbers "count" (>= 1), "replicas"
# (>= 2) and "index" (>= 0), the finite reals of _REAL_BOUNDS, and [kind], one
# or more values of a kind.  A default of None: the field is read only when set,
# or its command works out the default.  Per-command kinds and defaults are
# keyed by command.  Keys outside the table are accepted and echoed unread.
_FIELDS = {
    "master_seed": ("index", 0),
    "out": ("path", None),
    "model": (("kac_elastic", "inelastic_thermostat", "mckean_vlasov", "vlasov"), _REQUIRED),
    "dimension": ("count", _REQUIRED),
    # simulate and chaos-curve runs
    "n": ("count", _REQUIRED),
    "snapshot_times": (["real"], _REQUIRED),
    "t_end": ("nonnegative", None),  # default: the last snapshot time
    "dump_particles": ("bool", False),
    "initial": (("gaussian", "quantile", "file"), "gaussian"),
    "initial_mean": (["real"], [0.0]),
    "initial_variance": (["nonnegative"], [1.0]),
    "initial_file": ("path", _REQUIRED),
    "quantile_law": (("uniform", "gaussian"), "uniform"),
    "quantile_lo": ("real", -1.0),
    "quantile_hi": ("real", 1.0),
    "quantile_mean": ("real", 0.0),
    "quantile_variance": ("nonnegative", 1.0),
    "kernel": (("isotropic", "two_point"), "isotropic"),
    "kernel_weights": (["nonnegative"], [0.5, 0.5]),
    "alpha": ("probability", _REQUIRED),
    "nu": ("nonnegative", 1.0),
    "ordered_pair_rate": ("bool", True),
    "drift_lambda": ("real", 0.0),
    "sigma": ("real", 0.0),
    "interaction": (("zero", "linear", "gaussian_derivative", "screened_coulomb"), "zero"),
    "interaction_kappa": ("real", None),
    "interaction_amp": ("real", None),
    "interaction_width": ("real", None),
    "interaction_eps": ("real", None),
    "n_minus_one_prefactor": ("bool", False),
    "potential_gradient": (("zero", "linear", "sine"), "zero"),
    "gradient_amp": ("real", None),
    "gradient_kappa": ("real", None),
    "dt": ("positive", 1e-3),
    # chaos-curve and omega-n
    "n_list": (["count"], _REQUIRED),
    "n_ref": ("count", _REQUIRED),
    "replicas": ("replicas", {"chaos-curve": 64, "omega-n": 200}),
    "replicas_ref": ("count", 32),
    "estimator": ({"chaos-curve": ("empirical-mean", "marginal"),
                   "omega-n": ("auto", "exact-1d", "sliced")},
                  {"chaos-curve": "empirical-mean", "omega-n": "auto"}),
    "observable": (("gauss_bump", "tanh_coord", "tanh_square"), _REQUIRED),
    "observable_center": (["real"], None),
    "observable_width": ("positive", None),
    "observable_scale": ("positive", None),
    "observable_axis": ("index", None),
    "n_projections": ("count", 64),
    "law": (("gaussian",), "gaussian"),
    "law_mean": (["real"], [0.0]),
    "law_variance": (["nonnegative"], [1.0]),
    # metric
    "metric": (("w1", "w2_exact", "w2_sliced", "toscani", "h_sobolev", "tv"), _REQUIRED),
    "input_a": ("path", _REQUIRED),
    "input_b": ("path", _REQUIRED),
    "xi_max": ("positive", 40.0),
    "xi_nodes": ("count", 4096),
    "s": ("positive", None),  # default: 3 for toscani, 1 for h_sobolev
    "bin_edges": (["real"], _REQUIRED),
}
_REAL_BOUNDS = {
    "real": (lambda x: True, "a finite number"),
    "positive": (lambda x: x > 0.0, "positive and finite"),
    "nonnegative": (lambda x: x >= 0.0, "nonnegative and finite"),
    "probability": (lambda x: 0.0 < x < 1.0, "strictly between 0 and 1"),
}


def _value(name: str, kind, value):
    """One value of a scalar kind, resolved, or a ConfigError on its field."""
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(name, f"unknown {name} {value!r} (one of {', '.join(kind)})")
    elif kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(name, f"must be true or false, got {value!r}")
    elif kind == "path":
        if not isinstance(value, str) or not value:
            raise ConfigError(name, f"must be a file path, got {value!r}")
    elif kind in ("count", "replicas", "index"):
        # a whole number, also when written as an integral float; bool is an int subclass
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(name, f"must be an integer, got {value!r}")
        lowest = 0 if kind == "index" else 1
        if value < lowest:
            raise ConfigError(name, f"must be at least {lowest}, got {value}")
        if kind == "replicas" and value < 2:  # one replica reports a standard error of 0
            raise ConfigError(name, f"must be at least 2 for a standard error, got {value}")
        return int(value)
    else:
        test, bound = _REAL_BOUNDS[kind]
        if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
                or not (math.isfinite(value) and test(value))):
            raise ConfigError(name, f"{name} must be {bound}, got {value!r}")
        return float(value)
    return value


class _Cfg(dict):
    """One command's config, each field read through its declared kind.

    The CSV header echoes the explicit keys and every default a read fell
    back on, so rerunning the echoed block needs no implicit knowledge.
    """

    def __init__(self, base: dict, command: str) -> None:
        super().__init__(base)
        self.command = command
        self.used: dict = {}

    def read(self, name: str, default=None, coords: int | None = None):
        """A field's resolved value, None if unset without a default.

        ``coords`` reads a per-coordinate list (one value for every coordinate,
        or one per coordinate) as an array of ``coords`` values.
        """
        kind, declared = _FIELDS[name]
        kind = kind[self.command] if isinstance(kind, dict) else kind
        if default is None:
            default = declared[self.command] if isinstance(declared, dict) else declared
        if name in self:
            value = self[name]
        elif default is _REQUIRED:
            raise ConfigError(name, "required but missing")
        elif default is None:
            return None
        else:
            value = self.used[name] = default
        if not isinstance(kind, list):
            return _value(name, kind, value)
        values = value if isinstance(value, (list, tuple)) else [value]
        if coords is not None and len(values) not in (1, coords):
            raise ConfigError(name, f"need 1 or {coords} values (one per coordinate), "
                              f"got {len(values)}")
        if not values:
            raise ConfigError(name, "must hold at least one value")
        values = [_value(name, kind[0], x) for x in values]
        return values if coords is None else np.resize(values, coords)


@dataclass(frozen=True)
class _Run:
    """A simulate or chaos-curve run, resolved once from its config; it pickles.

    ``play`` is the model's simulate function, bound to all but data and streams.
    """

    m: int  # coordinates per particle: a vlasov particle has a position and a velocity
    times: list[float]
    initial: tuple  # ("gaussian", mean, var), ("quantile", law, a, b) or ("file", particles)
    play: functools.partial
    stochastic: bool


def _resolve_run(cfg: _Cfg, n_max: int) -> _Run:
    """Every field the run reads; ``n_max`` is the largest N it plays."""
    model = cfg.read("model")
    dim = cfg.read("dimension")
    m = 2 * dim if model == "vlasov" else dim
    n_field = "n" if cfg.command == "simulate" else "n_list"
    if model in ("kac_elastic", "inelastic_thermostat") and np.min(cfg.read(n_field)) < 2:
        raise ConfigError(n_field, "the collision models need N >= 2")
    times = cfg.read("snapshot_times")
    # a negative last snapshot is refused below, not as the t_end it would default
    grid = {"t_end": cfg.read("t_end", max(times[-1], 0.0)), "snapshot_times": times}
    dt = cfg.read("dt") if model in ("mckean_vlasov", "vlasov") else None
    try:  # the simulators' own contract, checked here to name the field
        validate_snapshots(times, 0.0, grid["t_end"], dt)
    except ValueError as exc:
        raise ConfigError("snapshot_times", str(exc)) from None
    if model == "kac_elastic":
        play = functools.partial(simulate_kac, kernel=_build_kernel(cfg, dim), **grid)
    elif model == "inelastic_thermostat":
        play = functools.partial(simulate_thermostat, kernel=_build_kernel(cfg, dim),
                                 params=RestitutionParams(cfg.read("alpha"), cfg.read("nu"), dim),
                                 ordered_pair_rate=cfg.read("ordered_pair_rate"), **grid)
    elif model == "mckean_vlasov":
        lam, sigma, name = cfg.read("drift_lambda"), cfg.read("sigma"), cfg.read("interaction")
        force = interaction_catalog(name, dim, **_catalog_params(
            cfg, "interaction_", ("kappa", "amp", "width", "eps")))
        spec = DriftDiffusionSpec(dim, -lam * np.eye(dim), sigma * np.eye(dim), force,
                                  cfg.read("n_minus_one_prefactor"))
        play = functools.partial(simulate_mkv, spec=spec, dt=dt, **grid)
    else:
        name = cfg.read("potential_gradient")
        force = gradient_catalog(name, **_catalog_params(cfg, "gradient_", ("amp", "kappa")))
        play = functools.partial(simulate_vlasov, spec=VlasovSpec(dim, force), dt=dt, **grid)
    return _Run(m, times, _resolve_initial(cfg, dim, m, n_max), play, model != "vlasov")


def _catalog_params(cfg: _Cfg, prefix: str, names: tuple[str, ...]) -> dict:
    """The catalog parameters the config sets; the catalog defaults the rest."""
    values = {name: cfg.read(prefix + name) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _build_kernel(cfg: _Cfg, dim: int) -> AngularKernel:
    if cfg.read("kernel") == "isotropic":
        return AngularKernel.isotropic(dim)
    if dim != 1:
        raise ConfigError("kernel", "two_point kernels are one-dimensional")
    w = cfg.read("kernel_weights")
    if len(w) != 2 or not sum(w) > 0.0:
        raise ConfigError("kernel_weights", f"need 2 values (mass at +1 and at -1) with a "
                          f"positive sum, got {w}")
    return AngularKernel.two_point(*w)


def _resolve_initial(cfg: _Cfg, dim: int, m: int, n_max: int) -> tuple:
    kind = cfg.read("initial")
    if kind == "gaussian":
        return kind, cfg.read("initial_mean", coords=m), cfg.read("initial_variance", coords=m)
    if kind == "quantile":
        if dim != 1:
            raise ConfigError("initial", "quantile initialization needs dimension = 1")
        law = cfg.read("quantile_law")
        if law == "uniform":
            return kind, law, cfg.read("quantile_lo"), cfg.read("quantile_hi")
        return kind, law, cfg.read("quantile_mean"), math.sqrt(cfg.read("quantile_variance"))
    particles = load_particles(cfg.read("initial_file"))
    if particles.shape[1] != m:
        raise ConfigError("initial_file", f"particles must have {m} coordinates")
    if len(particles) < n_max:
        raise ConfigError("initial_file", f"needs {n_max} particles, found {len(particles)}")
    return kind, particles


def _build_observable(cfg: _Cfg, m: int) -> ObservableProduct:
    name = cfg.read("observable")
    params = _catalog_params(cfg, "observable_", ("width", "scale", "axis"))
    if "observable_center" in cfg:
        cfg.read("observable_center", coords=m)
        # passed as given, not broadcast: the observable's tag echoes it
        params["center"] = cfg.read("observable_center")
    if params.get("axis", 0) >= m:
        raise ConfigError("observable_axis", f"must lie in [0, {m}), got {params['axis']}")
    return ObservableProduct((observable_catalog(name, **params),))


def _initial_state(run: _Run, n: int, streams: list[RngStream]) -> ParticleState:
    """Initial data of a replica stack, replica r drawing from ``streams[r]``."""
    kind, *law = run.initial
    if kind == "gaussian":
        return gaussian_sample_state(*law, n, streams)
    if kind == "quantile":
        name, a, b = law
        inv = (lambda u: a + (b - a) * u) if name == "uniform" else (lambda u: a + b * ndtri(u))
        coords = np.zeros((n, run.m))
        coords[:, :1] = quantile_init_1d(inv, n).coords  # vlasov velocities start at rest
    else:
        coords = law[0][:n]
    # these laws draw nothing: every replica starts from the same data
    return ParticleState(np.tile(coords, (len(streams), 1)))


def _simulate_runs(run: _Run, n: int, seed: int, stream_ids):
    """Trajectories of N particles, one replica per (initial, dynamics) stream-id pair.

    Returns (the replica stack at each time, draw items per replica).
    """
    init_streams = [RngStream(seed, sid) for sid, _ in stream_ids]
    initial = _initial_state(run, n, init_streams)
    dyn_streams = [RngStream(seed, sid) for _, sid in stream_ids]
    # vlasov is deterministic, so every caller asks for one run
    states = run.play(initial, rngs=dyn_streams) if run.stochastic else run.play(initial)
    draws = [[(a, init.draw_counter), (b, dyn.draw_counter)]
             for (a, b), init, dyn in zip(stream_ids, init_streams, dyn_streams)]
    return states, draws


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


def _header(cfg: _Cfg, seed: int, extra: list[tuple[str, object]]) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [("meanfield_csv", 1), ("code_version", __version__)]
    items += [(k, v) for k, v in sorted(RATE_CONVENTIONS.items())]
    resolved = {**cfg, **cfg.used, "master_seed": seed}
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
    cfg = _Cfg(cfg, "simulate")
    n = cfg.read("n")
    run = _resolve_run(cfg, n)
    dump = cfg.read("dump_particles")
    states, (draws,) = _simulate_runs(run, n, seed, [(1, 2)])
    columns = ["time", "temperature"] + [f"mom_{k}" for k in range(run.m)]
    rows = []
    for s in states:
        mom = s.coords.mean(axis=0)
        rows.append([s.time, temperature(s)] + [float(x) for x in mom])
    if dump and out:
        dump_particles(str(out) + ".particles.txt", states[-1].coords)
    header = _header(cfg, seed, _accounting_items(draws))
    return write_csv(out, header, columns, rows)


def cmd_metric(cfg: dict, seed: int, workers: int, out: str | None) -> str:
    cfg = _Cfg(cfg, "metric")
    name = cfg.read("metric")
    a = EmpiricalMeasure(load_particles(cfg.read("input_a")))
    b = EmpiricalMeasure(load_particles(cfg.read("input_b")))
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
        value, se = w2_sliced(a, b, cfg.read("n_projections"), stream)
        draws.append((1, stream.draw_counter))
        extra.append(("estimator_used", "sliced-monte-carlo"))
    elif name in ("toscani", "h_sobolev"):
        xi_max = cfg.read("xi_max")
        xi = np.linspace(-xi_max, xi_max, cfg.read("xi_nodes"))
        s_order = cfg.read("s", 3.0 if name == "toscani" else 1.0)
        if name == "h_sobolev" and s_order < 1.0:
            raise ConfigError("s", f"h_sobolev needs s >= 1 for empirical inputs, got {s_order}")
        if name == "toscani":
            value, arg = toscani_norm(a, b, s_order, xi)
            extra += [("estimator_used", "grid-sup"), ("argmax_xi", arg)]
        else:
            value = h_neg_sobolev_norm(a, b, s_order, xi)
            extra.append(("estimator_used", "grid-trapezoid"))
    else:
        edges = cfg.read("bin_edges")
        if len(edges) < 2 or any(hi <= lo for lo, hi in zip(edges, edges[1:])):
            raise ConfigError("bin_edges", f"need 2 or more edges, strictly increasing: {edges}")
        value = tv_histogram(a, b, edges)
        extra.append(("estimator_used", "binned-tv-lower-bound"))
    header = _header(cfg, seed, extra + _accounting_items(draws))
    return write_csv(out, header, ["metric", "value", "std_error"], [[name, value, se]])


def _curve_block(run: _Run, obs: ObservableProduct, estimator: str, seed: int,
                 block) -> list[tuple[np.ndarray, int, int]]:
    """Replicas of one N: per replica (per-time values, stream_id, draws)."""
    n, sids = block
    # even/odd split keeps the two per-replica streams disjoint for every replica
    states, draws = _simulate_runs(run, n, seed, [(2 * sid, 2 * sid + 1) for sid in sids])
    # one (replicas, N, d) view per snapshot: the observable runs once per block
    values = observable_series([s.coords.reshape(len(sids), n, -1) for s in states], obs,
                               estimator)
    return [(v, sid, sum(c for _, c in items)) for v, sid, items in zip(values, sids, draws)]


def cmd_chaos_curve(cfg: dict, seed: int, workers: int, out: str | None) -> str:
    cfg = _Cfg(cfg, "chaos-curve")
    n_values = cfg.read("n_list")
    n_ref = cfg.read("n_ref")
    if n_ref < 16 * max(n_values):
        raise ConfigError("n_ref", "must be at least 16x the largest N")
    run = _resolve_run(cfg, n_ref)
    obs = _build_observable(cfg, run.m)
    estimator = cfg.read("estimator")
    replicas, replicas_ref = 1, 1  # vlasov is deterministic: one run per N
    if run.stochastic:
        replicas, replicas_ref = cfg.read("replicas"), cfg.read("replicas_ref")
    task = functools.partial(_curve_block, run, obs, estimator, seed)

    def run_blocks(n: int, sids: list[int]) -> list:
        size = max(1, REPLICA_BLOCK_PARTICLES // n)
        blocks = [(n, sids[i:i + size]) for i in range(0, len(sids), size)]
        return [rep for block in ordered_map(task, blocks, workers) for rep in block]

    # oracle replicas first (fixed stream block), then the measured runs
    oracle_out = run_blocks(n_ref, [900_000_000 + r for r in range(replicas_ref)])
    oracle = OracleEstimate.from_replicas(run.times, np.stack([v for v, _, _ in oracle_out]))
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
    cfg = _Cfg(cfg, "omega-n")
    dim = cfg.read("dimension")
    n_values = cfg.read("n_list")
    replicas = cfg.read("replicas")
    estimator = cfg.read("estimator")
    if estimator == "exact-1d" and dim != 1:
        raise ConfigError("estimator", f"exact-1d needs dimension = 1, got {dim}")
    n_proj = cfg.read("n_projections")
    cfg.read("law")  # gaussian, the one built-in law: read to refuse another and echo it
    mean = cfg.read("law_mean", coords=dim)
    var = cfg.read("law_variance", coords=dim)

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
        costh = kernel.cosines(stream.uniform(size=50))
        apply_pair_collisions(x, pairs, pairs + 50, costh, stream.normal(size=(50, 3)).T,
                              sine_of(costh), alpha)
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

    if args.config is None and args.subcommand != "check":
        parser.error("--config is required for this subcommand")
    try:
        cfg = _Cfg({} if args.config is None else parse_config(args.config), args.subcommand)
        seed = args.seed if args.seed is not None else cfg.read("master_seed")
        out = args.out if args.out is not None else cfg.read("out")
        _COMMANDS[args.subcommand](cfg, seed, max(1, args.workers), out)
    except (ValueError, SimulationError, SpectralInstability, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy names the allocation it could not make
        sys.stderr.write(f"error: out of memory: {str(exc) or 'an allocation failed'}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
