"""Reference solutions of the limiting one-particle equations.

Two flavors of oracle:

* a one-dimensional Fourier-spectral integrator of the inelastic
  collision equation with diffusion, built on Bobylev's identity for
  Maxwellian kernels (the collision gain becomes pointwise products of
  the characteristic function at contracted frequencies);
* large-N particle self-oracles: observable values of N_ref-particle
  replica runs (``OracleEstimate``) stand in for the limit flow, justified
  by the very convergence rate under measurement (the ``chaos-curve``
  command enforces N_ref >= 16 N and runs them, quantile-initialized
  deterministic flows included).

The spectral grid is uniform and symmetric with an exact zero node
(requested node counts are rounded up to odd).  Frequencies are evolved
on the nonnegative half and mirrored by conjugation, so the Hermitian
symmetry of real measures holds identically; the zero node carries the
mass and its time derivative vanishes identically.  The interpolating
spline's system is factored once per operator, and several spectra on
one grid advance together as the columns of one array through a single
RK4 loop.  LAPACK (``scipy.linalg``) is imported when the first spline
is factored, not with the module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import run_fixed_steps

__all__ = [
    "GridSpectrum",
    "SpectralInstability",
    "gaussian_spectrum",
    "spectral_evolve",
    "OracleEstimate",
]

RK4_STABILITY = 2.78  # max |lambda| dt for the diffusion multiplier, asserted


class SpectralInstability(RuntimeError):
    """|F| left the characteristic-function ball; the time step is unstable."""


def make_xi_grid(xi_max: float, n_nodes: int) -> np.ndarray:
    """Uniform symmetric grid with an exact zero node (odd count)."""
    if xi_max <= 0 or n_nodes < 9:
        raise ValueError("need xi_max > 0 and at least 9 nodes")
    half = n_nodes // 2
    step = xi_max / half
    return np.concatenate([-step * np.arange(half, 0, -1), step * np.arange(0, half + 1)])


@dataclass
class GridSpectrum:
    """Characteristic-function values on a symmetric 1-D frequency grid."""

    xi_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.xi_nodes = np.asarray(self.xi_nodes, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.xi_nodes.shape != self.values.shape:
            raise ValueError("grid and values must have matching shapes")
        n = len(self.xi_nodes)
        if n % 2 != 1 or self.xi_nodes[n // 2] != 0.0:
            raise ValueError("grid must be symmetric with an exact zero node")
        if not np.allclose(self.xi_nodes, -self.xi_nodes[::-1], atol=0.0):
            raise ValueError("grid must be symmetric about 0")
        self.check_invariants(atol=1e-10)

    @property
    def zero_index(self) -> int:
        return len(self.xi_nodes) // 2

    def check_invariants(self, atol: float = 1e-8) -> None:
        # the tests below are `>` comparisons, which NaN fails silently
        if not np.isfinite(self.values).all():
            raise SpectralInstability("non-finite characteristic-function values")
        mid = self.zero_index
        if abs(self.values[mid] - 1.0) > atol:
            raise SpectralInstability(f"mass node drifted: F(0) = {self.values[mid]}")
        herm = np.max(np.abs(self.values - np.conj(self.values[::-1])))
        if herm > atol:
            raise SpectralInstability(f"Hermitian symmetry broken by {herm:.2e}")
        amax = float(np.max(np.abs(self.values)))
        if amax > 1.0 + 1e-6:
            raise SpectralInstability(f"|F| = {amax} exceeds the characteristic bound")

    def second_moment(self) -> float:
        """-F''(0) by a five-point central difference (the energy readout)."""
        mid = self.zero_index
        h = self.xi_nodes[mid + 1] - self.xi_nodes[mid]
        f = self.values
        d2 = (
            -f[mid + 2] + 16.0 * f[mid + 1] - 30.0 * f[mid]
            + 16.0 * f[mid - 1] - f[mid - 2]
        ) / (12.0 * h * h)
        return float(-d2.real)

    def copy(self) -> "GridSpectrum":
        return GridSpectrum(self.xi_nodes.copy(), self.values.copy())


def gaussian_spectrum(xi_nodes: np.ndarray, variance: float, mean: float = 0.0) -> GridSpectrum:
    xi = np.asarray(xi_nodes, dtype=np.float64)
    return GridSpectrum(xi, np.exp(-1j * mean * xi - 0.5 * variance * xi**2))


def _mirror(half_values: np.ndarray) -> np.ndarray:
    return np.concatenate([np.conj(half_values[:0:-1]), half_values])


class _QuerySpline:
    """Not-a-knot C^2 cubic spline through fixed nodes, read at fixed points.

    The spline of ``scipy.interpolate.CubicSpline(x, y, extrapolate=False)``
    in Hermite form.  SciPy's slope system, tridiagonal once the not-a-knot
    rows are eliminated and symmetric positive definite once its rows are
    scaled, is LDL^T-factored once by LAPACK ``pttrf``.  A call is one
    stencil, one ``pttrs`` solve and two gathers on one real array whose
    rows are the real and imaginary parts of the ``(n, B)`` complex ``y``;
    it returns ``(n_queries, B)``, within 6.3e-15 of SciPy on unit-scale
    data (129 and 2049 nodes, even or random spacings within a 1:3 range).
    """

    def __init__(self, x: np.ndarray, queries: np.ndarray) -> None:
        x, q = np.asarray(x, dtype=np.float64), np.asarray(queries, dtype=np.float64)
        dx = np.diff(x)
        if len(x) < 4 or np.any(dx <= 0):
            raise ValueError("the spline needs at least 4 increasing nodes")
        if q.min() < x[0] or q.max() > x[-1]:
            raise ValueError("spline queries fall outside the nodes")
        from scipy.linalg import lapack

        d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
        lower = np.concatenate([dx[1:], [d_hi]])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.concatenate([[d_lo], dx[:-1]])
        # rows scaled by r, r[i] upper[i] = r[i+1] lower[i]: symmetric, positive pivots
        r = np.concatenate([[1.0], np.cumprod(upper / lower)])
        *self._ldl, info = lapack.dpttrf(r * diag, r[:-1] * upper)
        if info != 0:
            raise ValueError("singular spline system")
        self._pttrs = lapack.dpttrs
        # right side of interior row i: 3 (dx[i] slope[i-1] + dx[i-1] slope[i]),
        # and of each not-a-knot end row, on the first and last three nodes
        a, c = -3.0 * dx[1:] / dx[:-1], 3.0 * dx[:-1] / dx[1:]
        self._stencil = r[1:-1] * a, -r[1:-1] * (a + c), r[1:-1] * c
        lo0, lo1 = (dx[0] + 2.0 * d_lo) * dx[1] / (dx[0] * d_lo), dx[0] ** 2 / (dx[1] * d_lo)
        hi0, hi1 = dx[-1] ** 2 / (dx[-2] * d_hi), (2.0 * d_hi + dx[-1]) * dx[-2] / (dx[-1] * d_hi)
        self._end_rows = (r[0] * np.array([-lo0, lo0 - lo1, lo1]),
                          r[-1] * np.array([-hi0, hi0 - hi1, hi1]))
        # each query's interval, x[i] <= q < x[i+1] (the last one closed), and
        # the Hermite weights of value and slope at its left and right node
        left = np.minimum(np.searchsorted(x, q, side="right") - 1, len(x) - 2)
        self._nodes = left, left + 1
        h, t = dx[left], (q - x[left]) / dx[left]
        s = 1.0 - t
        self._weights = (np.stack([(1.0 + 2.0 * t) * s * s, h * t * s * s])[:, None],
                         np.stack([t * t * (3.0 - 2.0 * t), -h * t * t * s])[:, None])

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=np.complex128)
        # values, then slopes, as rows; pttrs solves the columns of rhs.T in place
        buf = np.empty((2, 2 * y.shape[1], len(y)))
        v, rhs = buf
        v[...] = y.view(np.float64).T
        a, b, c = self._stencil
        rhs[:, 1:-1] = a * v[:, :-2] + b * v[:, 1:-1] + c * v[:, 2:]
        rhs[:, 0] = v[:, :3] @ self._end_rows[0]
        rhs[:, -1] = v[:, -3:] @ self._end_rows[1]
        self._pttrs(*self._ldl, rhs.T, overwrite_b=1)
        (i, j), (w_i, w_j) = self._nodes, self._weights
        terms = buf.take(i, axis=2) * w_i + buf.take(j, axis=2) * w_j
        out = np.empty((len(i), len(v)))
        np.add(terms[0], terms[1], out=out.T)
        return out.view(np.complex128)


class _BobylevOperator:
    """Half-grid right-hand side of the diffusive inelastic equation.

    For frequencies xi >= 0 and the two scattering directions of the
    1-D sphere, the gain evaluates the spectrum at the contracted
    frequencies ((1-a)/2) xi and ((1+a)/2) xi (direction away from the
    relative velocity) and at (xi, 0) (direction along it), so all
    queries stay inside [0, xi_max].  Off-node values come from a C^2
    cubic spline over the mirrored full grid: a derivative-limited
    monotone cubic is ruled out here because its error in the vertex
    cells around xi = 0 scales like the local curvature itself (both
    are O(h^2)), which biases the dissipation rate by a
    resolution-independent O(1) fraction; the C^2 spline is 4th-order
    accurate and the |F| <= 1 guard catches any overshoot.  The query
    points are fixed, so the spline system is factored once, at
    construction (``_QuerySpline``).

    The operator maps an ``(n_half, B)`` array of B half-spectra to their
    time derivatives, column by column.

    rate_factor scales the collision part: 1 is the limit equation as
    normalized here; 2 reproduces the mean-field limit of the
    ordered-pair particle generator.
    """

    def __init__(
        self,
        xi_half: np.ndarray,
        alpha: float,
        with_diffusion: bool,
        rate_factor: float = 1.0,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        self.xi = xi_half
        self.rate_factor = rate_factor
        c_minus = 0.5 * (1.0 - alpha)
        c_plus = 0.5 * (1.0 + alpha)
        self.q_lo = c_minus * xi_half
        self.q_hi = c_plus * xi_half
        if self.q_hi[-1] > xi_half[-1] + 1e-12:
            raise ValueError("contracted frequencies fall outside the grid")
        # interpolate over the mirrored full grid so the zero node is
        # interior (an endpoint closure at the vertex of Re F costs an
        # O(h) slope error that the energy readout amplifies by 1/h^2)
        x_full = np.concatenate([-xi_half[:0:-1], xi_half])
        self._spline = _QuerySpline(x_full, np.concatenate([self.q_lo, self.q_hi]))
        self._damping = (float(with_diffusion) * (xi_half**2))[:, None]

    def __call__(self, f_half: np.ndarray) -> np.ndarray:
        n = len(self.xi)
        f_q = self._spline(_mirror(f_half))
        # the two directions weigh 1/2 each; written as two products, not
        # 0.5 * (a + b), which can round differently at subnormals
        gain = 0.5 * f_half * f_half[0] + 0.5 * f_q[:n] * f_q[n:]
        rhs = self.rate_factor * (gain - f_half) - self._damping * f_half
        rhs[0] = 0.0  # mass node: gain(0) = F(0)^2 = loss, identically
        return rhs


def spectral_evolve(
    spectra: Sequence[GridSpectrum],
    alpha: float,
    with_diffusion: bool,
    t_end: float,
    dt: float = 1e-3,
    rate_factor: float = 1.0,
    snapshot_times: Sequence[float] | None = None,
) -> list[tuple[float, list[GridSpectrum]]]:
    """RK4 integration of the spectral equation, invariants checked per step.

    The equation weighs the two scattering directions of the 1-D sphere
    equally and, ``with_diffusion``, adds the unit-strength bath term
    -xi^2 F; ``rate_factor`` scales the collision part (0 leaves the
    heat flow alone).  The B ``spectra`` share one grid and advance as one
    ``(n_half, B)`` array through a single RK4 loop, each column exactly
    as it would be alone.  Returns one ``(k dt, [B spectra])`` pair per
    snapshot: ``snapshot_times`` (default ``[t_end]``) are sorted times in
    [0, t_end] on the grid k dt, as ``core.run_fixed_steps`` reads them.
    Aborts via SpectralInstability when |F| of any column leaves the unit
    ball beyond 1e-6.
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum")
    xi_nodes = spectra[0].xi_nodes
    if any(not np.array_equal(g.xi_nodes, xi_nodes) for g in spectra[1:]):
        raise ValueError("spectra must share a grid")
    mid = spectra[0].zero_index
    xi_half = xi_nodes[mid:]
    lam = float(with_diffusion) * xi_half[-1] ** 2 + 2.0 * rate_factor
    if lam * dt > RK4_STABILITY:
        raise ValueError(
            f"dt={dt} exceeds the RK4 stability budget for |xi|max={xi_half[-1]}"
        )
    boundary = max(float(np.abs(g.values[-1])) for g in spectra)
    if boundary > 1e-6:
        warnings.warn(
            f"|F| = {boundary:.2e} at the grid boundary; domain truncation is unsafe",
            RuntimeWarning,
            stacklevel=2,
        )
    op = _BobylevOperator(xi_half, alpha, with_diffusion, rate_factor)
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0

    def step(f: np.ndarray, k: int) -> np.ndarray:
        k1 = op(f)
        k2 = op(f + half_dt * k1)
        k3 = op(f + half_dt * k2)
        k4 = op(f + dt * k3)
        f = f + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # per-column max of |F|; a NaN propagates and fails the comparison,
        # so this is the finiteness guard too
        amax = np.abs(f).max(axis=0)
        if not np.all(amax <= 1.0 + 1e-6):
            j = int(np.argmin(amax <= 1.0 + 1e-6))
            raise SpectralInstability(
                f"|F| = {amax[j]} at t = {k * dt:g} in spectrum {j} "
                "(dt too large or grid too wide)"
            )
        return f

    def columns(f: np.ndarray, k: int) -> tuple[float, list[GridSpectrum]]:
        # GridSpectrum checks the invariants of every column as it is built
        full = _mirror(f)
        return k * dt, [GridSpectrum(xi_nodes.copy(), full[:, j].copy())
                        for j in range(len(spectra))]

    f0 = np.stack([g.values[mid:] for g in spectra], axis=1)
    snaps = [t_end] if snapshot_times is None else snapshot_times
    return run_fixed_steps(f0, step, columns, snaps, 0.0, t_end, dt)


# --------------------------------------------------------------------------
# particle self-oracles


@dataclass
class OracleEstimate:
    """Replica-averaged observable values along a time grid."""

    times: np.ndarray
    mean: np.ndarray
    standard_error: np.ndarray
    per_replica: np.ndarray  # (replicas, n_times)

    @classmethod
    def from_replicas(cls, times: Sequence[float], values: np.ndarray) -> "OracleEstimate":
        """Mean and standard error of ``values[r, t]``, one row per replica.

        A single replica has standard error 0 (no spread to estimate).
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(times) or len(values) == 0:
            raise ValueError("oracle values must be a (replicas, n_times) array, replicas >= 1")
        reps = len(values)
        se = (values.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1
              else np.zeros(len(times)))
        return cls(times=times, mean=values.mean(axis=0), standard_error=se, per_replica=values)
