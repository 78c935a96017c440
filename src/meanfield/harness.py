"""Fluctuation measurements across N: observable gaps against limit
oracles, symmetrization bounds, contraction checks and log-log rate fits.

The central quantity is the observable error

    err(N) = max over the time grid of | E Phi(Z_t^N) - Phi_limit(t) |

estimated by replica averaging, with bootstrap standard errors.  Two
estimators of E Phi are available: the marginal product on particles
1..ell (unbiased under exchangeability, simplest variance accounting)
and the full U-statistic over distinct index tuples (same expectation,
much smaller variance; the default for rate measurements at scale).
The U-statistic is one exact sum for every ell, over the set partitions
of the factors, at cost Bell(ell) * N.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ParticleState, RngStream, canonical_atom_order, open_unit
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


@functools.cache
def _partitions(ell: int) -> tuple[tuple[float, tuple[tuple[int, ...], ...]], ...]:
    """(mu(pi), blocks of pi) for every set partition pi of the factors 0..ell-1.

    Finest first, then by restricted-growth string, blocks by least element:
    the order that reproduces the ell <= 3 closed forms bit for bit.
    """
    strings = [[0]]
    for _ in range(ell - 1):
        strings = [a + [k] for a in strings for k in range(max(a) + 2)]
    strings.sort(key=lambda a: -max(a))  # stable: restricted-growth order within
    out = []
    for a in strings:
        parts = tuple(tuple(j for j in range(ell) if a[j] == k) for k in range(max(a) + 1))
        mu = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in parts)
        out.append((float(mu), parts))
    return tuple(out)


# the largest ell served: its Bell(8) = 4140 partitions build in ~0.06 s,
# while ell = 10 (115,975) takes ~1.6 s and each step up several times more
MAX_ELL = 8


def _distinct_tuple_mean(vals: Sequence[np.ndarray]) -> float | np.ndarray:
    """Mean of Π_j vals[j][i_j] over distinct index tuples (i_1, .., i_ell).

    ``vals[j]`` has the atoms on its last axis; any leading axes (a stack
    of configurations) give one mean each.
    """
    ell = len(vals)
    if ell > MAX_ELL:
        raise ValueError(f"ell = {ell} is refused: the exact sum runs over Bell({ell}) set "
                         f"partitions; at most ell = {MAX_ELL} (Bell({MAX_ELL}) = 4140) "
                         "is supported")
    sums: dict[tuple[int, ...], np.ndarray] = {}
    total = None
    for mu, parts in _partitions(ell):
        term = mu
        for b in parts:
            if b not in sums:
                sums[b] = functools.reduce(operator.mul, [vals[j] for j in b]).sum(axis=-1)
            term = term * sums[b]
        # left to right from the first term: no compensated sum(), and no
        # 0.0 start that would turn a -0.0 total into 0.0
        total = term if total is None else total + term
    mean = total / float(math.perm(vals[0].shape[-1], ell))
    return float(mean) if np.ndim(mean) == 0 else mean


def u_statistic(atoms: np.ndarray, obs: ObservableProduct) -> float | np.ndarray:
    """Average of Π_j phi_j(z_{i_j}) over distinct index tuples, exactly.

    Equals the symmetrized tensor observable (every distinct tuple appears
    the same number of times in the permutation average).  One sum for
    every ell, by Möbius inversion over coincident indices:

        Σ_pi mu(pi) Π_{B in pi} S_B / (N)_ell,   S_B = Σ_i Π_{j in B} phi_j(z_i),

    over the set partitions pi of the ell factors, with
    mu(pi) = Π_B (-1)^{|B|-1} (|B|-1)! and (N)_ell = N (N-1) .. (N-ell+1).
    Cost of order Bell(ell) * N (Bell = 1, 2, 5, 15, 52, 203 for ell = 1..6):
    one sum over the atoms per block, each reused across partitions.
    ell above MAX_ELL is refused.  ``atoms`` is one (N, m) configuration,
    giving a float, or a stack (..., N, m), giving one value per
    configuration, each bitwise the value of that configuration alone.
    """
    if atoms.shape[-2] < obs.ell:
        raise ValueError("need at least ell atoms")
    a = canonical_atom_order(atoms)
    return _distinct_tuple_mean([f(a) for f in obs.factors])


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
    sym = _distinct_tuple_mean(vals)
    bound = 2.0 * ell * ell * obs.sup_norm / n
    return abs(poly - sym), bound


# --------------------------------------------------------------------------
# observable error curves

BOOTSTRAP_RESAMPLES = 200
RATE_FIT_RESAMPLES = 400  # the parametric bootstrap of ``rate_fit``'s slope CI
# the bootstrap gathers its resampled values at most this many at a time
# (512 KB), so its peak memory does not grow with the replica count
_GATHER_VALUES = 2**16


@dataclass
class ChaosCurve:
    """Observable error against a limit oracle, per N, with bootstrap errors."""

    n_values: np.ndarray
    errors: np.ndarray
    std_errors: np.ndarray
    oracle_se_max: float


def observable_series(
    snapshots: Sequence[np.ndarray], obs: ObservableProduct, estimator: str
) -> np.ndarray:
    """Estimates of E Phi: 'marginal' or 'empirical-mean'.

    ``snapshots[t]`` is the (R, N, m) stack of R replicas' configurations
    at time t; returns the (R, n_times) values, each bitwise the value of
    that configuration alone.
    """
    if estimator == "marginal":
        per_time = [marginal_observable(stack, obs) for stack in snapshots]
    elif estimator == "empirical-mean":
        per_time = [u_statistic(stack, obs) for stack in snapshots]
    else:
        raise ValueError("estimator must be 'marginal' or 'empirical-mean'")
    return np.stack(per_time, axis=-1)


def chaos_error_curve(
    n_values: Sequence[int],
    values: Sequence[np.ndarray],
    oracle: OracleEstimate,
    seed: int,
) -> ChaosCurve:
    """Measure err(N) = sup_t |E Phi - oracle| by replica averaging.

    ``values[k]`` is the (replicas, n_times) array of observable values at
    ``n_values[k]``; the oracle's replicas are resampled too.  An exact
    oracle is the one-replica ``OracleEstimate.from_replicas(times,
    exact[None])``: standard error 0, nothing to resample.
    The standard errors come from BOOTSTRAP_RESAMPLES resamples drawn from
    ``RngStream(seed, 977)``: per N, one ``(BOOTSTRAP_RESAMPLES, reps +
    n_oracle)`` block of uniform words whose row b holds resample b's
    replica picks, then its oracle-replica picks (none for a one-replica
    oracle), each floor(u n) of its uniform u (the pair map in the
    ``elastic`` module docstring).  A single replica has standard error 0.
    """
    n_values = np.asarray(list(n_values), dtype=np.int64)
    o_mean, o_raw = oracle.mean, oracle.per_replica
    o_se = float(np.max(oracle.standard_error))
    if len(values) != len(n_values):
        raise ValueError("need one value array per N")

    n_oracle = len(o_raw) if len(o_raw) > 1 else 0
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
            counts = np.repeat([reps, n_oracle], [reps, n_oracle])  # each column's n
            u = open_unit(boot_rng.uniform_words(np.empty((BOOTSTRAP_RESAMPLES, len(counts)))))
            picks = np.multiply(u, counts, out=u).astype(np.int64)
            oracle_b = o_raw[picks[:, reps:]].mean(axis=1) if n_oracle else o_mean
            step = max(1, _GATHER_VALUES // vals.size)  # resamples per gather
            means = np.concatenate([vals[picks[b:b + step, :reps]].mean(axis=1)
                                    for b in range(0, BOOTSTRAP_RESAMPLES, step)])
            bs = np.abs(means - oracle_b).max(axis=1)
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


def _line_fits(x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of ``np.polyfit(x, y, 1)`` for each row y of ys, bit for bit.

    The rows share polyfit's scaled Vandermonde matrix; each keeps its own
    least-squares solve, since a many-column solve rounds differently.
    """
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(x) * np.finfo(x.dtype).eps
    coef = np.array([np.linalg.lstsq(lhs, y, rcond)[0] for y in ys]) / scale
    return coef[:, 0], coef[:, 1]


def rate_fit(
    n_values: np.ndarray,
    errors: np.ndarray,
    std_errors: np.ndarray,
    seed: int = 7,
) -> tuple[float, float, tuple[float, float]]:
    """Least-squares slope of log(error) against log(N), with bootstrap CI.

    Returns (slope, intercept, CI).  Refuses (DegenerateFit) when any
    error sits within two standard errors of zero, and demands at least
    four N values spanning 1.5 decades.  The CI resamples errors through
    their standard errors (parametric bootstrap, ``RATE_FIT_RESAMPLES``
    resamples) unless zero everywhere.
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
    (slope,), (intercept,) = _line_fits(x, np.log(errors)[None])
    if np.all(std_errors == 0.0):
        return float(slope), float(intercept), (float(slope), float(slope))
    # one resample per row, drawn in the order of one draw per resample
    noise = RngStream(seed, 1331).normal(size=(RATE_FIT_RESAMPLES, len(errors)))
    slopes, _ = _line_fits(x, np.log(np.maximum(errors + std_errors * noise, 1e-300)))
    lo, hi = np.quantile(slopes, [0.025, 0.975])
    return float(slope), float(intercept), (float(lo), float(hi))


# --------------------------------------------------------------------------
# contraction checks


@dataclass
class ContractionSeries:
    times: np.ndarray
    w2_mean: np.ndarray
    contraction_holds: bool


def tanaka_contraction_check(
    initial_pair_sampler: Callable[[RngStream], tuple[ParticleState, ParticleState]],
    kernel: AngularKernel,
    time_grid: Sequence[float],
    rngs: Sequence[RngStream],
) -> ContractionSeries:
    """Coupled-stream quadratic-distance series for two elastic flows.

    Replica r's pair, of one shape and start time for all r, is
    ``initial_pair_sampler(rngs[r])``; the pairs are stacked and played by
    one ``simulate_kac_coupled`` call, which draws replica r's events from
    ``rngs[r]`` after its initial data.  Both systems consume identical
    (time, pair) event streams with parallel-transported scattering
    directions (the quadratic coupling); the matched-atom cost
    sqrt((1/N) Σ |v_i - w_i|^2) is an admissible coupling, hence an upper
    bound on W2 of the empirical flows, and every collision contracts its
    expectation.  The check flags any rise of the mean above its t = 0
    value by more than two pooled standard errors.
    """
    times = np.asarray(time_grid, dtype=np.float64)
    if not times.size or times[0] != 0.0:
        raise ValueError("the time grid must start at 0 (reference value)")
    pairs = [initial_pair_sampler(stream) for stream in rngs]
    if len({(st.coords.shape, st.time) for pair in pairs for st in pair}) != 1:
        raise ValueError("need a stream, and sampled systems of one N, dimension and start time")
    state_a, state_b = (ParticleState(np.concatenate([st.coords for st in side]), side[0].time)
                        for side in zip(*pairs))
    out_a, out_b = simulate_kac_coupled(state_a, state_b, kernel, float(times[-1]), times, rngs)
    costs = [np.sum((sa.coords - sb.coords) ** 2, axis=1).reshape(len(rngs), -1)
             for sa, sb in zip(out_a, out_b)]
    vals = np.sqrt(np.stack([c.mean(axis=1) for c in costs], axis=1))  # (R, T), C order
    est = OracleEstimate.from_replicas(times, vals)
    mean, se = est.mean, est.standard_error
    pooled = np.sqrt(se**2 + se[0] ** 2)
    holds = bool(np.all(mean <= mean[0] + 2.0 * pooled + 1e-12))
    return ContractionSeries(times=times, w2_mean=mean, contraction_holds=holds)


@dataclass
class FourierContractionResult:
    times: np.ndarray
    max_ratio: float
    identical_inputs: bool


def fourier_contraction_check(
    spec_a: GridSpectrum,
    spec_b: GridSpectrum,
    alpha: float,
    s: float,
    t_end: float,
    dt: float = 1e-3,
) -> FourierContractionResult:
    """Growth of the Fourier-norm distance against the e^{2t} envelope.

    Evolves both spectra through the diffusive inelastic equation, as one
    batch of a single ``spectral_evolve`` loop, and returns
    max_t |f_t - g_t|_s / (e^{2t} |f_0 - g_0|_s) over ten checkpoints
    evenly spaced on the dt grid up to t_end.  ``t_end`` must be k dt for a
    whole k >= 1, to within 1e-6 steps.  Identical inputs are flagged and
    return ratio 0 by convention.
    """
    if not np.array_equal(spec_a.xi_nodes, spec_b.xi_nodes):
        raise ValueError("spectra must share a grid")
    # run_fixed_steps's grid tolerance, checked before the first step
    steps = t_end / dt if dt > 0 else 0.0
    if not (np.rint(steps) >= 1 and abs(steps - np.rint(steps)) <= 1e-6):
        raise ValueError(f"t_end={t_end} must be a whole number k >= 1 of steps dt={dt}")
    steps = int(np.rint(steps))
    xi = spec_a.xi_nodes
    d0, _ = toscani_norm(spec_a.values, spec_b.values, s, xi)
    snap_every = max(1, steps // 10)
    snap_times = [k * dt for k in range(snap_every, steps + 1, snap_every)]
    if snap_times[-1] != steps * dt:
        snap_times.append(steps * dt)
    if d0 == 0.0:
        return FourierContractionResult(times=np.asarray(snap_times), max_ratio=0.0,
                                        identical_inputs=True)
    snaps = spectral_evolve([spec_a, spec_b], alpha, True, steps * dt, dt=dt,
                            snapshot_times=snap_times)
    times = np.array([t for t, _ in snaps])
    dists = np.array([toscani_norm(ga.values, gb.values, s, xi)[0] for _, (ga, gb) in snaps])
    ratios = dists / (np.exp(2.0 * times) * d0)
    return FourierContractionResult(times=times, max_ratio=float(ratios.max()),
                                    identical_inputs=False)
