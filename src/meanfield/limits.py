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
RK4 loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .core import EmpiricalMeasure, canonical_atom_order

__all__ = [
    "GridSpectrum",
    "SpectralInstability",
    "char_from_empirical",
    "gaussian_spectrum",
    "bobylev_rhs",
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


def char_from_empirical(mu: EmpiricalMeasure, xi_nodes: np.ndarray) -> GridSpectrum:
    """Exact characteristic function of an atomic measure on the grid."""
    if mu.dim != 1:
        raise ValueError("the spectral solver is one-dimensional")
    atoms = canonical_atom_order(mu.atoms)[:, 0]
    xi = np.asarray(xi_nodes, dtype=np.float64)
    vals = np.exp(-1j * np.outer(xi, atoms)).mean(axis=1)
    return GridSpectrum(xi, vals)


def gaussian_spectrum(xi_nodes: np.ndarray, variance: float, mean: float = 0.0) -> GridSpectrum:
    xi = np.asarray(xi_nodes, dtype=np.float64)
    return GridSpectrum(xi, np.exp(-1j * mean * xi - 0.5 * variance * xi**2))


def _mirror(half_values: np.ndarray) -> np.ndarray:
    return np.concatenate([np.conj(half_values[:0:-1]), half_values])


class _QuerySpline:
    """Not-a-knot C^2 cubic spline through fixed nodes, read at fixed points.

    The spline of ``scipy.interpolate.CubicSpline(x, y,
    extrapolate=False)``: SciPy's slope system, tridiagonal once the
    not-a-knot rows are eliminated, is LU-factored here once by LAPACK
    ``gttrf``, and the interval and local offset of every query are found
    once.  A call is then one ``gttrs`` solve on the real and imaginary
    parts of the data plus the evaluation of each query's cubic, O(n) per
    call.  ``y`` is an ``(n, B)`` complex array; the result is
    ``(n_queries, B)``.
    """

    def __init__(self, x: np.ndarray, queries: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        q = np.asarray(queries, dtype=np.float64)
        n = len(x)
        dx = np.diff(x)
        if n < 4 or np.any(dx <= 0):
            raise ValueError("the spline needs at least 4 increasing nodes")
        if q.min() < x[0] or q.max() > x[-1]:
            raise ValueError("spline queries fall outside the nodes")
        d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
        lower = np.concatenate([dx[1:], [d_hi]])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.concatenate([[d_lo], dx[:-1]])
        *self._lu, info = lapack.dgttrf(lower, diag, upper)
        if info != 0:
            raise ValueError("singular spline system")
        self._dx = dx
        # SciPy divides complex data by a real step as numpy does, through
        # the reciprocal; multiplying by it keeps the spline the same bits
        self._inv_dx = 1.0 / dx
        # not-a-knot rows of the slope system, grouped as SciPy groups them
        self._bc = ((dx[0] + 2.0 * d_lo) * dx[1], dx[0] ** 2, 1.0 / d_lo,
                    dx[-1] ** 2, (2.0 * d_hi + dx[-1]) * dx[-2], 1.0 / d_hi)
        # PPoly's interval rule: x[i] <= q < x[i+1], the last one closed
        self._idx = np.minimum(np.searchsorted(x, q, side="right") - 1, n - 2)
        self._inv_h = self._inv_dx[self._idx]
        off = q - x[self._idx]
        self._powers = (off, off * off, off * off * off)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        n_cols = y.shape[1]
        # one real series per row: the layout gttrs reads as its columns
        yr = np.concatenate([y.real.T, y.imag.T])
        dx = self._dx
        slope = np.diff(yr, axis=1) * self._inv_dx
        a0, a1, inv_lo, b0, b1, inv_hi = self._bc
        rhs = np.empty_like(yr)
        rhs[:, 1:-1] = 3.0 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
        rhs[:, 0] = (a0 * slope[:, 0] + a1 * slope[:, 1]) * inv_lo
        rhs[:, -1] = (b0 * slope[:, -2] + b1 * slope[:, -1]) * inv_hi
        deriv = lapack.dgttrs(*self._lu, rhs.T, overwrite_b=1)[0].T
        # PPoly's coefficients and its power-sum evaluation, per query
        i, inv_h, (u1, u2, u3) = self._idx, self._inv_h, self._powers
        s0, s1, sl = deriv.take(i, axis=1), deriv.take(i + 1, axis=1), slope.take(i, axis=1)
        t = (s0 + s1 - 2.0 * sl) * inv_h
        val = yr.take(i, axis=1) + s0 * u1 + ((sl - s0) * inv_h - t) * u2 + t * inv_h * u3
        out = np.empty((n_cols, len(i)), dtype=np.complex128)
        out.real, out.imag = val[:n_cols], val[n_cols:]
        return out.T


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
        weights: tuple[float, float] = (0.5, 0.5),
        rate_factor: float = 1.0,
        nu: float = 1.0,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if abs(weights[0] + weights[1] - 1.0) > 1e-12 or min(weights) < 0:
            raise ValueError("direction weights must be nonnegative and sum to 1")
        self.xi = xi_half
        self.alpha = alpha
        self.weights = weights
        self.rate_factor = rate_factor
        self.diffusion = nu if with_diffusion else 0.0
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
        self._damping = (self.diffusion * (xi_half**2))[:, None]

    def __call__(self, f_half: np.ndarray) -> np.ndarray:
        n = len(self.xi)
        f_q = self._spline(_mirror(f_half))
        w_to, w_away = self.weights
        gain = w_to * f_half * f_half[0] + w_away * f_q[:n] * f_q[n:]
        rhs = self.rate_factor * (gain - f_half) - self._damping * f_half
        rhs[0] = 0.0  # mass node: gain(0) = F(0)^2 = loss, identically
        return rhs


def bobylev_rhs(
    spectrum: GridSpectrum,
    alpha: float,
    with_diffusion: bool,
    weights: tuple[float, float] = (0.5, 0.5),
    rate_factor: float = 1.0,
    nu: float = 1.0,
) -> np.ndarray:
    """Time derivative of the spectrum under collisions (+ diffusion).

    Returns the derivative on the full grid (Hermitian by construction).
    """
    mid = spectrum.zero_index
    op = _BobylevOperator(spectrum.xi_nodes[mid:], alpha, with_diffusion, weights,
                          rate_factor, nu)
    return _mirror(op(spectrum.values[mid:, None]))[:, 0]


def spectral_evolve(
    spectrum: GridSpectrum | Sequence[GridSpectrum],
    alpha: float,
    with_diffusion: bool,
    t_end: float,
    dt: float = 1e-3,
    weights: tuple[float, float] = (0.5, 0.5),
    rate_factor: float = 1.0,
    nu: float = 1.0,
    snapshot_times: Sequence[float] | None = None,
) -> GridSpectrum | list:
    """RK4 integration of the spectral equation, invariants checked per step.

    ``spectrum`` is one GridSpectrum or a sequence of B spectra on one
    grid; a sequence is advanced as one ``(n_half, B)`` array through a
    single RK4 loop, each column exactly as it would be alone.  With
    ``snapshot_times`` a list of (t, spectrum) pairs is returned;
    otherwise the terminal spectrum.  For a sequence input, each spectrum
    in the result is a list with one GridSpectrum per input.  Aborts via
    SpectralInstability when |F| of any column leaves the unit ball
    beyond 1e-6.
    """
    single = isinstance(spectrum, GridSpectrum)
    spectra = [spectrum] if single else list(spectrum)
    if not spectra:
        raise ValueError("need at least one spectrum")
    if dt <= 0:
        raise ValueError("dt must be positive")
    xi_nodes = spectra[0].xi_nodes
    if any(not np.array_equal(g.xi_nodes, xi_nodes) for g in spectra[1:]):
        raise ValueError("spectra must share a grid")
    mid = spectra[0].zero_index
    xi_half = xi_nodes[mid:]
    lam = (nu if with_diffusion else 0.0) * xi_half[-1] ** 2 + 2.0 * rate_factor
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
    op = _BobylevOperator(xi_half, alpha, with_diffusion, weights, rate_factor, nu)
    f = np.stack([g.values[mid:] for g in spectra], axis=1)
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9:
        raise ValueError("t_end must be a multiple of dt")
    snaps = list(snapshot_times) if snapshot_times is not None else None
    if snaps is not None:
        want = {int(round(s / dt)): s for s in snaps}
        if any(abs(round(s / dt) * dt - s) > 1e-9 for s in snaps):
            raise ValueError("snapshot times must be multiples of dt")

    def columns() -> list[GridSpectrum]:
        # GridSpectrum checks the invariants of every column as it is built
        full = _mirror(f)
        return [GridSpectrum(xi_nodes.copy(), full[:, j].copy()) for j in range(len(spectra))]

    out: list = []
    if snaps is not None and 0 in want:
        out.append((want[0], columns()))
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    for k in range(1, n_steps + 1):
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
        if snaps is not None and k in want:
            out.append((want[k], columns()))
    final = columns()
    if snaps is None:
        return final[0] if single else final
    return [(t, gs[0]) for t, gs in out] if single else out


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
