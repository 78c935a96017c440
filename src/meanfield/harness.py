"""Fluctuation measurements across N: observable gaps against limit
oracles, symmetrization bounds, contraction checks and log-log rate fits.

The central quantity is the observable error

    err(N) = max over the time grid of | E Phi(Z_t^N) - Phi_limit(t) |

estimated by replica averaging, with bootstrap standard errors.  Two
estimators of E Phi are available: the marginal product on particles
1..ell (unbiased under exchangeability, simplest variance accounting)
and the full U-statistic over distinct index tuples (same expectation,
much smaller variance; the default for rate measurements at scale).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .core import ParticleState, RngStream, canonical_atom_order
from .elastic import AngularKernel, simulate_kac_coupled
from .limits import GridSpectrum, OracleEstimate, spectral_evolve
from .metrics import toscani_norm
from .observables import ObservableProduct, marginal_observable

__all__ = [
    "ChaosCurve",
    "DegenerateFit",
    "symmetrization_gap",
    "u_statistic",
    "observable_series",
    "chaos_error_curve",
    "rate_fit",
    "tanaka_contraction_check",
    "fourier_contraction_check",
]


class DegenerateFit(RuntimeError):
    """Rate fit refused: some errors are indistinguishable from zero."""


# --------------------------------------------------------------------------
# distinct-tuple averages and the symmetrization bound


def u_statistic(atoms: np.ndarray, obs: ObservableProduct) -> float:
    """Average of Π_j phi_j(z_{i_j}) over distinct index tuples, exactly.

    Equals the symmetrized tensor observable (every distinct tuple appears
    the same number of times in the permutation average).  Evaluated in
    closed form by inclusion-exclusion over coincident indices for
    ell <= 3, and by explicit tuple enumeration beyond.
    """
    n = atoms.shape[0]
    ell = obs.ell
    if n < ell:
        raise ValueError("need at least ell atoms")
    a = canonical_atom_order(atoms)
    vals = [f(a) for f in obs.factors]
    sums = [float(v.sum()) for v in vals]
    if ell == 1:
        return sums[0] / n
    if ell == 2:
        s12 = float((vals[0] * vals[1]).sum())
        return (sums[0] * sums[1] - s12) / (n * (n - 1))
    if ell == 3:
        s12 = float((vals[0] * vals[1]).sum())
        s13 = float((vals[0] * vals[2]).sum())
        s23 = float((vals[1] * vals[2]).sum())
        s123 = float((vals[0] * vals[1] * vals[2]).sum())
        total = (
            sums[0] * sums[1] * sums[2]
            - s12 * sums[2] - s13 * sums[1] - s23 * sums[0]
            + 2.0 * s123
        )
        return total / (n * (n - 1) * (n - 2))
    # explicit enumeration; factorial growth makes this a small-N tool
    idx = range(n)
    total = 0.0
    count = 0
    for tup in permutations(idx, ell):
        prod = 1.0
        for j, i in enumerate(tup):
            prod *= vals[j][i]
        total += prod
        count += 1
    return total / count


def symmetrization_gap(state: ParticleState, obs: ObservableProduct) -> tuple[float, float]:
    """Gap between the polynomial observable and its symmetrized tensor.

    Returns (gap, bound) with bound = 2 ell^2 ||phi||_inf / N; the gap is
    the coincident-index defect of the empirical-measure polynomial and
    obeys the bound deterministically for N >= 2 ell.
    """
    n = state.n_particles
    ell = obs.ell
    if n < 2 * ell:
        raise ValueError("the bound requires N >= 2*ell")
    atoms = canonical_atom_order(state.coords)
    vals = [f(atoms) for f in obs.factors]
    poly = 1.0
    for v in vals:
        poly *= float(v.mean())
    sym = u_statistic(state.coords, obs)
    bound = 2.0 * ell * ell * obs.sup_norm / n
    return abs(poly - sym), bound


# --------------------------------------------------------------------------
# observable error curves

BOOTSTRAP_RESAMPLES = 200


@dataclass
class ChaosCurve:
    """Observable error against a limit oracle, per N, with bootstrap errors."""

    n_values: np.ndarray
    errors: np.ndarray
    std_errors: np.ndarray
    oracle_se_max: float


def observable_series(
    states: Sequence[ParticleState], obs: ObservableProduct, estimator: str
) -> np.ndarray:
    """Estimates of E Phi, one per state: 'marginal' or 'empirical-mean'."""
    if estimator == "marginal":
        return np.array([marginal_observable(s, obs) for s in states])
    if estimator == "empirical-mean":
        return np.array([u_statistic(s.coords, obs) for s in states])
    raise ValueError("estimator must be 'marginal' or 'empirical-mean'")


def chaos_error_curve(
    n_values: Sequence[int],
    values: Sequence[np.ndarray],
    oracle: OracleEstimate | np.ndarray,
    seed: int,
) -> ChaosCurve:
    """Measure err(N) = sup_t |E Phi - oracle| by replica averaging.

    ``values[k]`` is the (replicas, n_times) array of observable values at
    ``n_values[k]``; ``oracle`` is either a replica-based estimate (its
    replicas are resampled too) or a plain array of exact per-time values.
    The standard errors come from BOOTSTRAP_RESAMPLES resamples drawn from
    ``RngStream(seed, 977)``: per N and resample, the replica pick, then the
    oracle-replica pick.  A single replica has standard error 0.
    """
    n_values = np.asarray(list(n_values), dtype=np.int64)
    if isinstance(oracle, OracleEstimate):
        o_mean = oracle.mean
        o_raw = oracle.per_replica
        o_se = float(np.max(oracle.standard_error))
    else:
        o_mean = np.asarray(oracle, dtype=np.float64)
        o_raw = None
        o_se = 0.0
    if len(values) != len(n_values):
        raise ValueError("need one value array per N")

    boot_rng = RngStream(seed, 977)
    errors = np.empty(len(n_values))
    std_errors = np.zeros(len(n_values))
    for k, vals in enumerate(values):
        vals = np.asarray(vals, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != len(o_mean):
            raise ValueError("values must be (replicas, n_times) arrays matching the oracle")
        reps = len(vals)
        errors[k] = float(np.abs(vals.mean(axis=0) - o_mean).max())
        if reps > 1:
            bs = np.empty(BOOTSTRAP_RESAMPLES)
            for b in range(BOOTSTRAP_RESAMPLES):
                pick = np.asarray(boot_rng.integers(0, reps, size=reps))
                mean_b = vals[pick].mean(axis=0)
                if o_raw is not None and len(o_raw) > 1:
                    opick = np.asarray(boot_rng.integers(0, len(o_raw), size=len(o_raw)))
                    oracle_b = o_raw[opick].mean(axis=0)
                else:
                    oracle_b = o_mean
                bs[b] = float(np.abs(mean_b - oracle_b).max())
            std_errors[k] = float(bs.std(ddof=1))

    smallest = float(errors.min())
    if o_se > 0 and smallest > 0 and o_se * 3.0 > smallest:
        warnings.warn(
            "oracle standard error is within 3x of the smallest measured gap; "
            "the curve tail is not resolved",
            RuntimeWarning,
            stacklevel=2,
        )
    return ChaosCurve(n_values=n_values, errors=errors, std_errors=std_errors,
                      oracle_se_max=o_se)


def rate_fit(
    n_values: np.ndarray,
    errors: np.ndarray,
    std_errors: np.ndarray,
    n_bootstrap: int = 400,
    seed: int = 7,
) -> tuple[float, float, tuple[float, float]]:
    """Least-squares slope of log(error) against log(N), with bootstrap CI.

    Returns (slope, intercept, CI).  Refuses (DegenerateFit) when any
    error sits within two standard errors of zero, and demands at least
    four N values spanning 1.5 decades.  The CI resamples errors through
    their standard errors (parametric bootstrap) unless zero everywhere.
    """
    n_values = np.asarray(n_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    std_errors = np.asarray(std_errors, dtype=np.float64)
    if len(n_values) < 4:
        raise ValueError("rate fits need at least 4 values of N")
    span = math.log10(float(max(n_values)) / float(min(n_values)))
    if span < 1.5:
        raise ValueError("rate fits need N spanning at least 1.5 decades")
    if np.any(errors <= 2.0 * std_errors):
        raise DegenerateFit("some errors are within 2 standard errors of zero")
    x = np.log(n_values)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    if np.all(std_errors == 0.0):
        return float(slope), float(intercept), (float(slope), float(slope))
    rng = RngStream(seed, 1331)
    slopes = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        noise = np.atleast_1d(rng.normal(size=len(errors)))
        pert = np.maximum(errors + std_errors * noise, 1e-300)
        slopes[b] = np.polyfit(x, np.log(pert), 1)[0]
    lo, hi = np.quantile(slopes, [0.025, 0.975])
    return float(slope), float(intercept), (float(lo), float(hi))


# --------------------------------------------------------------------------
# contraction checks


@dataclass
class ContractionSeries:
    times: np.ndarray
    w2_mean: np.ndarray
    w2_se: np.ndarray
    estimator: str
    contraction_holds: bool


def tanaka_contraction_check(
    initial_pair_sampler: Callable[[RngStream], tuple[ParticleState, ParticleState]],
    kernel: AngularKernel,
    time_grid: Sequence[float],
    replicas: int,
    rng_factory: Callable[[int], RngStream],
) -> ContractionSeries:
    """Coupled-stream quadratic-distance series for two elastic flows.

    Both systems consume identical (time, pair) event streams with
    parallel-transported scattering directions (the quadratic coupling);
    the matched-atom cost sqrt((1/N) Σ |v_i - w_i|^2) is an admissible
    coupling, hence an upper bound on W2 of the empirical flows, and
    every collision contracts its expectation.  The check flags any rise
    of the mean above its t = 0 value by more than two pooled standard
    errors.
    """
    times = np.asarray(time_grid, dtype=np.float64)
    if times[0] != 0.0:
        raise ValueError("the time grid must start at 0 (reference value)")
    t_end = float(times[-1])
    vals = np.empty((replicas, len(times)))
    for r in range(replicas):
        stream = rng_factory(r)
        state_a, state_b = initial_pair_sampler(stream)
        if state_a.n_particles != state_b.n_particles:
            raise ValueError("coupled systems need equal particle counts")
        out_a, out_b = simulate_kac_coupled(state_a, state_b, kernel, t_end, times, stream)
        for k, (sa, sb) in enumerate(zip(out_a, out_b)):
            vals[r, k] = math.sqrt(float(np.mean(np.sum((sa.coords - sb.coords) ** 2, axis=1))))
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / math.sqrt(replicas) if replicas > 1 else np.zeros_like(mean)
    pooled = np.sqrt(se**2 + se[0] ** 2)
    holds = bool(np.all(mean <= mean[0] + 2.0 * pooled + 1e-12))
    return ContractionSeries(times=times, w2_mean=mean, w2_se=se,
                             estimator="coupled-matched-atoms", contraction_holds=holds)


@dataclass
class FourierContractionResult:
    times: np.ndarray
    distances: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    identical_inputs: bool


def fourier_contraction_check(
    spec_a: GridSpectrum,
    spec_b: GridSpectrum,
    alpha: float,
    s: float,
    t_end: float,
    dt: float = 1e-3,
    n_checkpoints: int = 10,
    rate_factor: float = 1.0,
    with_diffusion: bool = True,
) -> FourierContractionResult:
    """Growth of the Fourier-norm distance against the e^{2t} envelope.

    Evolves both spectra through the diffusive inelastic equation, as one
    batch of a single ``spectral_evolve`` loop, and returns
    max_t |f_t - g_t|_s / (e^{2t} |f_0 - g_0|_s).  Identical inputs are
    flagged and return ratio 0 by convention.
    """
    if not np.array_equal(spec_a.xi_nodes, spec_b.xi_nodes):
        raise ValueError("spectra must share a grid")
    xi = spec_a.xi_nodes
    d0, _ = toscani_norm(spec_a.values, spec_b.values, s, xi)
    steps = int(round(t_end / dt))
    snap_every = max(1, steps // n_checkpoints)
    snap_times = [k * dt for k in range(snap_every, steps + 1, snap_every)]
    if snap_times[-1] != steps * dt:
        snap_times.append(steps * dt)
    if d0 == 0.0:
        return FourierContractionResult(
            times=np.asarray(snap_times), distances=np.zeros(len(snap_times)),
            ratios=np.zeros(len(snap_times)), max_ratio=0.0, identical_inputs=True,
        )
    snaps = spectral_evolve([spec_a, spec_b], alpha, with_diffusion, t_end, dt=dt,
                            rate_factor=rate_factor, snapshot_times=snap_times)
    times = np.array([t for t, _ in snaps])
    dists = np.array([toscani_norm(ga.values, gb.values, s, xi)[0] for _, (ga, gb) in snaps])
    ratios = dists / (np.exp(2.0 * times) * d0)
    return FourierContractionResult(
        times=times, distances=dists, ratios=ratios,
        max_ratio=float(ratios.max()), identical_inputs=False,
    )
