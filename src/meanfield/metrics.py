"""Distances between probability measures, empirical or gridded.

Exact routes where the problem size allows them (sorted/CDF couplings in
1-D, optimal assignment for equal-size point clouds), Monte Carlo sliced
approximation beyond, and the two Fourier-side norms used by the spectral
solver.  Every estimator that substitutes for an exact distance reports
which route was taken so downstream CSV can record it.  SciPy's optimizer
is imported on the first exact-assignment call, not with the module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import EmpiricalMeasure, RngStream, canonical_atom_order

__all__ = [
    "TransportPlanResult",
    "w1_exact_1d",
    "w2_exact_matching",
    "w2_sliced",
    "toscani_norm",
    "h_neg_sobolev_norm",
    "tv_histogram",
    "empirical_sampling_error",
]

ASSIGNMENT_BUDGET = 4096
# projection columns of the sliced sampling-error reference sorted and
# reduced at a time (see empirical_sampling_error)
PROJECTION_BLOCK = 8


@dataclass(frozen=True)
class TransportPlanResult:
    """Optimal matching between two N-point clouds: cost = W_q^q."""

    cost: float
    assignment: np.ndarray


def _atoms_1d(mu: EmpiricalMeasure) -> np.ndarray:
    if mu.dim != 1:
        raise ValueError("this distance requires 1-D atoms")
    return np.sort(mu.atoms[:, 0])


def _quantile_coupling_cost(a: np.ndarray, b: np.ndarray, power: int) -> float:
    """∫ |Qa(u) - Qb(u)|^p du for sorted atom vectors with uniform weights.

    Exact for atomic measures of any sizes via the common refinement of the
    two quantile grids.  When len(b) is a multiple of len(a) the refinement
    is the finer grid itself, which keeps the computation one vector op.
    """
    n, m = len(a), len(b)
    if m % n == 0:
        diffs = b.reshape(n, m // n) - a[:, None]
        return float(np.mean(np.abs(diffs) ** power))
    if n % m == 0:
        return _quantile_coupling_cost(b, a, power)
    # general common refinement of breakpoints {i/n} ∪ {j/m}
    cuts = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate(([0.0], cuts, [1.0]))
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qa = a[np.minimum((mids * n).astype(int), n - 1)]
    qb = b[np.minimum((mids * m).astype(int), m - 1)]
    return float(np.sum(widths * np.abs(qa - qb) ** power))


def w1_exact_1d(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W1 between 1-D empirical measures (CDF-difference integral)."""
    return _quantile_coupling_cost(_atoms_1d(a), _atoms_1d(b), power=1)


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(N, M) squared distances, bit for bit ``((x[:, None] - y[None]) ** 2).sum(axis=2)``.

    numpy adds fewer than 8 squares left to right, which adding the
    squared coordinate differences in turn reproduces without the
    (N, M, d) tensor; more it sums pairwise, so those go to numpy.
    """
    if x.shape[1] >= 8:
        return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    d2 = np.subtract.outer(x[:, 0], y[:, 0])
    d2 *= d2
    diff = np.empty_like(d2) if x.shape[1] > 1 else None
    for c in range(1, x.shape[1]):
        np.subtract.outer(x[:, c], y[:, c], out=diff)
        diff *= diff
        d2 += diff
    return d2


def w2_exact_matching(a: EmpiricalMeasure, b: EmpiricalMeasure) -> TransportPlanResult:
    """Globally optimal squared-cost matching of two equal-size clouds.

    Between N-point uniform empirical measures the quadratic transport
    problem reduces to a minimum over permutations; solved exactly by the
    assignment algorithm (cubic worst case, hence the size budget).
    """
    if a.n_atoms != b.n_atoms:
        raise ValueError("equal atom counts required for exact matching")
    n = a.n_atoms
    if n > ASSIGNMENT_BUDGET:
        raise ValueError(
            f"N={n} exceeds the exact-assignment budget {ASSIGNMENT_BUDGET}; "
            "use w2_sliced for large clouds"
        )
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    from scipy.optimize import linear_sum_assignment

    d2 = _squared_distances(a.atoms, b.atoms)
    rows, cols = linear_sum_assignment(d2)
    sigma = np.empty(n, dtype=np.int64)
    sigma[rows] = cols
    cost = math.fsum(d2[rows, cols].tolist()) / n
    return TransportPlanResult(cost=cost, assignment=sigma)


def w2_sliced(
    a: EmpiricalMeasure,
    b: EmpiricalMeasure,
    n_projections: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo sliced-W2 estimate: (value, standard error of value).

    Averages exact 1-D squared coupling costs over random unit directions.
    This is an approximation of W2 for d > 1 and is recorded as such by
    every consumer.  For 1-D inputs every projection reproduces the exact
    sorted coupling.
    """
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    dirs = rng.unit_vectors(a.dim, n_projections)
    costs = np.empty(n_projections)
    for k in range(n_projections):
        pa = np.sort(a.atoms @ dirs[k])
        pb = np.sort(b.atoms @ dirs[k])
        costs[k] = _quantile_coupling_cost(pa, pb, power=2)
    mean_sq = float(costs.mean())
    value = math.sqrt(mean_sq)
    if n_projections == 1 or value == 0.0:
        return value, 0.0
    se_sq = float(costs.std(ddof=1)) / math.sqrt(n_projections)
    return value, se_sq / (2.0 * value)  # delta method through sqrt


def _char_values(mu: EmpiricalMeasure, xi: np.ndarray) -> np.ndarray:
    if mu.dim != 1:
        raise ValueError("Fourier-side norms take 1-D empirical measures")
    atoms = canonical_atom_order(mu.atoms)[:, 0]
    phase = np.exp(-1j * np.outer(xi, atoms))
    return phase.mean(axis=1)


def _delta_char(a, b, xi_nodes: np.ndarray) -> np.ndarray:
    """Characteristic-function difference on the grid, from measures or arrays."""
    xi = np.asarray(xi_nodes, dtype=np.float64)
    if isinstance(a, EmpiricalMeasure):
        fa = _char_values(a, xi)
    else:
        fa = np.asarray(a, dtype=np.complex128)
    if isinstance(b, EmpiricalMeasure):
        fb = _char_values(b, xi)
    else:
        fb = np.asarray(b, dtype=np.complex128)
    if fa.shape != xi.shape or fb.shape != xi.shape:
        raise ValueError("spectral values must match the xi grid")
    return fa - fb


def toscani_norm(a, b, s: float, xi_nodes: np.ndarray) -> tuple[float, float]:
    """Fourier-based norm sup_ξ |Δf̂(ξ)| / (1+ξ²)^(s/2), on a finite grid.

    Returns ``(value, argmax_xi)``; an argmax at the grid boundary signals
    an under-resolved supremum.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    xi = np.asarray(xi_nodes, dtype=np.float64)
    delta = _delta_char(a, b, xi)
    weighted = np.abs(delta) / (1.0 + xi**2) ** (s / 2.0)
    k = int(np.argmax(weighted))
    return float(weighted[k]), float(xi[k])


def h_neg_sobolev_norm(a, b, s: float, xi_nodes: np.ndarray) -> float:
    """Negative Sobolev norm ‖Δf̂(ξ)/(1+ξ²)^(s/2)‖_L² by trapezoid quadrature."""
    if s < 1:
        raise ValueError("s >= 1 required for empirical inputs in 1-D")
    xi = np.asarray(xi_nodes, dtype=np.float64)
    delta = _delta_char(a, b, xi)
    integrand = np.abs(delta) ** 2 / (1.0 + xi**2) ** s
    total = float(np.trapezoid(integrand, xi))
    if total > 0:
        h_lo = xi[1] - xi[0]
        h_hi = xi[-1] - xi[-2]
        boundary = 0.5 * (integrand[0] * h_lo + integrand[-1] * h_hi)
        if boundary > 0.01 * total:
            warnings.warn(
                "grid boundary carries >1% of the H^{-s} integral; widen the grid",
                RuntimeWarning,
                stacklevel=2,
            )
    return math.sqrt(total)


def tv_histogram(a: EmpiricalMeasure, b: EmpiricalMeasure, bin_edges: np.ndarray) -> float:
    """Binned total-variation proxy Σ|p_a - p_b| on shared 1-D bins.

    A lower bound on the TV distance between smoothed laws; atoms outside
    the binned range are counted in overflow bins.
    """
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing with >= 2 entries")
    full = np.concatenate(([-np.inf], edges, [np.inf]))
    pa = np.histogram(a.atoms[:, 0], bins=full)[0] / a.n_atoms
    pb = np.histogram(b.atoms[:, 0], bins=full)[0] / b.n_atoms
    return float(np.abs(pa - pb).sum())


def _projection_blocks(n_projections: int) -> list[tuple[int, int]]:
    """Column ranges of PROJECTION_BLOCK, a lone last column joined to the one before."""
    starts = list(range(0, n_projections, PROJECTION_BLOCK))
    if len(starts) > 1 and n_projections - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_projections]))


@dataclass
class SamplingErrorResult:
    """Mean squared distance between N-sample empirical measures and their law."""

    mean: float
    standard_error: float
    estimator: str
    per_replica: np.ndarray = field(repr=False)


def empirical_sampling_error(
    f_sampler,
    n: int,
    replicas: int,
    reference_size: int,
    rng_factory,
    estimator: str = "auto",
    n_projections: int = 64,
) -> SamplingErrorResult:
    """Monte Carlo estimate of E[W2(empirical_N, law)^2].

    The continuous law is proxied by a one-time reference sample of
    ``reference_size`` i.i.d. points (``>= 64*n`` enforced); the reported
    quantity is then the squared distance between two empirical measures,
    and the residual proxy bias scales like the estimate at the reference
    size.  ``f_sampler(n, rng) -> (n, d) array``;  ``rng_factory(stream_id)
    -> RngStream`` assigns one stream per replica (stream 0 builds the
    reference).

    estimator: 'exact-1d' (quantile coupling; 1-D only), 'sliced'
    (Monte Carlo sliced W2, any d), or 'auto'; any other name is refused.
    The sliced route costs O(n * n_projections) per replica: the sorted
    reference projections are reduced once to per-block moments, taking
    ``PROJECTION_BLOCK`` projection columns at a time, so the reference
    holds ``reference_size * (d + PROJECTION_BLOCK)`` floats at most, not
    ``reference_size * (d + n_projections)``.  No column block is one
    column wide unless ``n_projections == 1`` (a lone last column joins
    the block before it): the within-block mean of a one-column block
    runs along a contiguous axis, where numpy sums pairwise instead of
    left to right, and the moments would change in the last bits.
    """
    if estimator not in ("auto", "exact-1d", "sliced"):
        raise ValueError(f"unknown estimator '{estimator}' (auto, exact-1d or sliced)")
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    if reference_size < 64 * n:
        raise ValueError("reference_size must be at least 64*n")
    if reference_size % n != 0:
        raise ValueError("reference_size must be a multiple of n (block coupling)")
    ref = np.asarray(f_sampler(reference_size, rng_factory(0)), dtype=np.float64)
    if ref.ndim == 1:
        ref = ref[:, None]
    d = ref.shape[1]
    if estimator == "auto":
        estimator = "exact-1d" if d == 1 else "sliced"
    if estimator == "exact-1d" and d != 1:
        raise ValueError("exact-1d estimator requires 1-D samples")

    if estimator == "exact-1d":
        ref_sorted = np.sort(ref[:, 0])
    else:
        dir_rng = rng_factory(1)
        dirs = dir_rng.unit_vectors(d, n_projections)
        # the coupling pairs sample atom i with block i of the sorted
        # reference, so the reference enters only through each block's
        # mean and (centered, cancellation-free) variance:
        # mean_b (r_b - p)^2 = var + (mean - p)^2
        block_mean = np.empty((n, n_projections))
        block_var = np.empty((n, n_projections))
        for lo, hi in _projection_blocks(n_projections):
            blocks = ref @ dirs[lo:hi].T  # (M, hi - lo)
            blocks.sort(axis=0)
            blocks = blocks.reshape(n, reference_size // n, hi - lo)
            block_mean[:, lo:hi] = blocks.mean(axis=1)
            blocks -= block_mean[:, None, lo:hi]
            block_var[:, lo:hi] = np.square(blocks, out=blocks).mean(axis=1)
            del blocks

    sq = np.empty(replicas)
    for r in range(replicas):
        rng = rng_factory(2 + r)
        sample = np.asarray(f_sampler(n, rng), dtype=np.float64)
        if sample.ndim == 1:
            sample = sample[:, None]
        if estimator == "exact-1d":
            sq[r] = _quantile_coupling_cost(np.sort(sample[:, 0]), ref_sorted, 2)
        else:
            proj = np.sort(sample @ dirs.T, axis=0)  # (n, n_projections)
            sq[r] = float(np.mean(block_var + (block_mean - proj) ** 2))
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return SamplingErrorResult(mean=mean, standard_error=se, estimator=estimator,
                               per_replica=sq)
