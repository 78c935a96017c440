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
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtri

from .core import EmpiricalMeasure, RngStream, canonical_atom_order, gaussian_sample_state

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
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def _normal_quantile_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(q_mean, q_var): the standard normal's moments on each quantile block.

    Interior variances integrate in z by 16-node Gauss-Legendre: the closed
    form n (G(z_i) - G(z_{i-1})) - q_mean², G = Φ - zφ, cancels on narrow
    blocks.  The two tail blocks keep it, as 1 - n z_1 φ(z_1) - q_mean[0]².
    """
    if n == 1:
        return np.zeros(1), np.ones(1)
    z = ndtri(np.arange(1, n) / n)
    phi = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    q_mean = n * (np.append(0.0, phi) - np.append(phi, 0.0))
    q_var = np.empty(n)
    q_var[0] = q_var[-1] = 1.0 - n * z[0] * phi[0] - q_mean[0] ** 2
    # per call, not at import: its eigensolver costs 0.9 MB of resident memory
    x, w = leggauss(16)
    half = 0.5 * (z[1:] - z[:-1])
    nodes = 0.5 * (z[:-1] + z[1:])[:, None] + half[:, None] * x
    dev = nodes - q_mean[1:-1, None]
    density = np.exp(-0.5 * nodes * nodes) * _INV_SQRT_2PI
    q_var[1:-1] = n * half * ((dev * dev * density) @ w)
    return q_mean, q_var


@dataclass
class SamplingErrorResult:
    """Mean squared distance between N-sample empirical measures and their law."""

    mean: float
    standard_error: float
    estimator: str
    per_replica: np.ndarray = field(repr=False)


def empirical_sampling_error(
    law_mean,
    law_variance,
    n: int,
    replicas: int,
    rng_factory,
    estimator: str = "auto",
    n_projections: int = 64,
) -> SamplingErrorResult:
    """Monte Carlo estimate of E[W2(empirical_N, law)^2], law N(m, diag v).

    Replica r draws its N atoms by ``gaussian_sample_state`` from
    ``rng_factory(2 + r)``.  The quantile coupling pairs the i-th smallest
    projection p_(i) on θ with the law's quantile block [(i-1)/N, i/N], at
    cost mean_i [s² q_var[i] + (μ + s q_mean[i] - p_(i))²], where
    N(μ, s²), μ = θ·m, s² = Σ θ_j² v_j, is the projected law and, with
    z_i = ndtri(i/N) and the standard normal density φ,

        q_mean[i] = N (φ(z_{i-1}) - φ(z_i)),
        q_var[i] = N ∫ (z - q_mean[i])² φ(z) dz over [z_{i-1}, z_i].

    estimator: 'exact-1d' (θ = 1, the exact coupling; 1-D only), 'sliced'
    (the mean over ``n_projections`` directions from ``rng_factory(1)``,
    any d), or 'auto'; any other name is refused.  A replica holds one
    (n_projections, N) array.
    """
    if estimator not in ("auto", "exact-1d", "sliced"):
        raise ValueError(f"unknown estimator '{estimator}' (auto, exact-1d or sliced)")
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    m = np.asarray(law_mean, dtype=np.float64).ravel()
    v = np.asarray(law_variance, dtype=np.float64).ravel()
    if m.size == 0 or m.shape != v.shape:
        raise ValueError("law_mean and law_variance need one equal, nonzero length")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"law_mean must be finite, got {m.tolist()}")
    if not np.all(np.isfinite(v) & (v >= 0)):
        raise ValueError(f"law_variance must be finite and nonnegative, got {v.tolist()}")
    if estimator == "auto":
        estimator = "exact-1d" if m.size == 1 else "sliced"
    if estimator == "exact-1d" and m.size != 1:
        raise ValueError("exact-1d estimator requires a 1-D law")

    if estimator == "exact-1d":
        dirs = np.ones((1, 1))
    else:
        dirs = rng_factory(1).unit_vectors(m.size, n_projections)
    q_mean, q_var = _normal_quantile_blocks(n)
    s2 = np.square(dirs) @ v
    block_mean = (dirs @ m)[:, None] + np.sqrt(s2)[:, None] * q_mean
    block_var = s2[:, None] * q_var
    sq = np.empty(replicas)
    for r in range(replicas):
        proj = dirs @ gaussian_sample_state(m, v, n, rng_factory(2 + r)).coords.T
        proj.sort(axis=1)  # one row per projection
        proj -= block_mean
        np.square(proj, out=proj)
        proj += block_var
        sq[r] = proj.mean()
    se = float(sq.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return SamplingErrorResult(mean=float(sq.mean()), standard_error=se, estimator=estimator,
                               per_replica=sq)
