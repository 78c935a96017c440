"""Drift-diffusion interacting particles and the deterministic
position-velocity specialization.

The stochastic system couples a linear drift, a mean-field pairwise force
(1/N) Σ_{j≠i} U(z_i - z_j) and additive Gaussian noise, integrated by
fixed-step Euler-Maruyama (weak order one is enough: the mean-field error
dominates at desk scale).  ``simulate_mkv`` advances a replica stack,
one stream per replica, each system feeling only its own mean field.
The zero-diffusion specialization carries (x, v) coordinates, a
velocity-only force through a potential gradient, and a second-order
explicit midpoint integrator, bit-reproducible run to run.

Interaction kernels come from a small named catalog; every entry vanishes
at the origin, so the self-pair term of the full double sum is harmless
and the force loops do not special-case the diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (ParticleState, RngStream, SimulationError, replica_normals, replica_size,
                   run_fixed_steps)

__all__ = [
    "InteractionKernel",
    "interaction_catalog",
    "DriftDiffusionSpec",
    "VlasovSpec",
    "gradient_catalog",
    "simulate_mkv",
    "simulate_vlasov",
    "linear_moment_flow",
]

_FORCE_CHUNK = 256


@dataclass(frozen=True)
class InteractionKernel:
    """Pairwise interaction U: R^m -> R^m with U(0) = 0."""

    fn: Callable[[np.ndarray], np.ndarray]
    fast_force: Callable[[np.ndarray], np.ndarray] | None = None


# catalog entries bind module-level functions, so the specs pickle into worker tasks


def _linear_force(kappa: float, coords: np.ndarray) -> np.ndarray:
    return -kappa * (coords - coords.mean(axis=-2, keepdims=True))


def _gaussian_derivative(amp: float, width: float, z: np.ndarray) -> np.ndarray:
    r2 = np.sum(z * z, axis=-1, keepdims=True)
    return -amp * z * np.exp(-r2 / (2.0 * width**2))


def _screened_coulomb(amp: float, eps: float, z: np.ndarray) -> np.ndarray:
    r2 = np.sum(z * z, axis=-1, keepdims=True)
    return amp * z / (r2 + eps**2) ** 1.5


def interaction_catalog(name: str, dim: int, **params) -> InteractionKernel:
    """Built-in interactions: zero, linear, gaussian_derivative, screened_coulomb."""
    if name == "zero":
        return InteractionKernel(np.zeros_like, fast_force=np.zeros_like)
    if name == "linear":
        kappa = float(params.get("kappa", 1.0))
        return InteractionKernel(functools.partial(np.multiply, -kappa),
                                 fast_force=functools.partial(_linear_force, kappa))
    if name == "gaussian_derivative":
        return InteractionKernel(functools.partial(
            _gaussian_derivative, float(params.get("amp", 1.0)), float(params.get("width", 1.0))))
    if name == "screened_coulomb":
        return InteractionKernel(functools.partial(
            _screened_coulomb, float(params.get("amp", 1.0)), float(params.get("eps", 0.5))))
    raise ValueError(f"unknown interaction kernel '{name}'")


@dataclass
class DriftDiffusionSpec:
    """Coefficients of the drift-diffusion system.

    linear_drift is the m x m matrix applied to the state; the diffusion
    matrix sigma enters as sigma * sqrt(dt) * xi, i.e. A = sigma sigma^T/2.
    ``n_minus_one_prefactor`` switches the mean-field force to the
    N/(N-1)-scaled variant; default off, the plain (1/N) sum.
    """

    dim: int
    linear_drift: np.ndarray
    diffusion_matrix: np.ndarray
    interaction: InteractionKernel
    n_minus_one_prefactor: bool = False

    def __post_init__(self) -> None:
        self.linear_drift = np.asarray(self.linear_drift, dtype=np.float64)
        self.diffusion_matrix = np.asarray(self.diffusion_matrix, dtype=np.float64)
        for mat in (self.linear_drift, self.diffusion_matrix):
            if mat.shape != (self.dim, self.dim):
                raise ValueError("coefficient matrices must be dim x dim")


def _mean_field_forces(coords: np.ndarray, kernel: InteractionKernel,
                       n_minus_one: bool = False) -> np.ndarray:
    """(1/N) Σ_j U(z_i - z_j) for every i of each system in (..., N, m).

    The diagonal vanishes by contract.  Pairwise rows go in chunks of
    ``_FORCE_CHUNK`` shared among the systems, as large as one system's.
    """
    n = coords.shape[-2]
    if kernel.fast_force is not None:
        out = kernel.fast_force(coords)
    else:
        out = np.zeros_like(coords)
        step = max(1, _FORCE_CHUNK // math.prod(coords.shape[:-2]))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            diffs = coords[..., lo:hi, None, :] - coords[..., None, :, :]
            out[..., lo:hi, :] = kernel.fn(diffs).sum(axis=-2) / n
    if n_minus_one and n > 1:
        out *= n / (n - 1.0)
    return out


def _check_finite(coords: np.ndarray, when: str) -> None:
    if not np.all(np.isfinite(coords)):
        raise SimulationError(f"non-finite coordinates detected ({when}); blow-up")


def _em_step(state: ParticleState, spec: DriftDiffusionSpec, dt: float, reps: int,
             z: np.ndarray) -> ParticleState:
    """One Euler-Maruyama step of a stack of ``reps`` replicas, its (R N, m) normals z given."""
    coords = state.coords
    # coords + dt * (coords L^T + F) + sqrt(dt) * (z S^T), combined in place
    # in that operation order, so bitwise equal to the expression.  np.dot,
    # not @: at (N, 1) x (1, 1) a matmul call costs ~7x an np.dot call.
    new = np.dot(coords, spec.linear_drift.T)
    forces = _mean_field_forces(coords.reshape(reps, -1, state.dim), spec.interaction,
                                spec.n_minus_one_prefactor)
    new += forces.reshape(coords.shape)
    new *= dt
    new += coords
    noise = np.dot(z, spec.diffusion_matrix.T)
    noise *= math.sqrt(dt)
    new += noise
    _check_finite(new, f"t={state.time + dt:g}")
    return ParticleState(new, time=state.time + dt)


# Euler-Maruyama draws each replica's normals for K steps in one call, K
# as large as keeps a block of all replicas' K steps within this many
# variates (2 MB), and at least 1
_NOISE_BLOCK = 2**18


def simulate_mkv(
    initial: ParticleState,
    spec: DriftDiffusionSpec,
    t_end: float,
    dt: float,
    snapshot_times: Sequence[float],
    rngs: Sequence[RngStream],
) -> list[ParticleState]:
    """Fixed-step Euler-Maruyama trajectories of a replica stack.

    Replica r of ``initial`` is driven by ``rngs[r]`` and is bitwise its
    lone run, deterministic given (seed, dt).  Snapshots: sorted times in
    [initial.time, t_end] on the grid initial.time + k dt, as
    ``core.run_fixed_steps`` reads them; no step runs past the last one.
    Step k is stamped ``initial.time + k * dt``, not a running sum of dt.
    Each stream hands out its N m normals per step, step after step, K
    steps per call, and draws none past the last step.
    """
    n = replica_size(initial, rngs)
    t0, m = initial.time, initial.dim
    per_call = max(1, _NOISE_BLOCK // initial.coords.size)
    noise = None

    def step(state: ParticleState, k: int) -> ParticleState:
        nonlocal noise
        j = (k - 1) % per_call
        if j == 0:  # the snapshots are validated by now; the last one ends the run
            last = int(np.rint((np.asarray(snapshot_times, dtype=np.float64)[-1] - t0) / dt))
            steps = min(per_call, last - k + 1)
            noise = replica_normals(rngs, [(r, steps * n) for r in range(len(rngs))],
                                    m).reshape(len(rngs), steps, n, m)
        z = np.ascontiguousarray(noise[:, j]).reshape(-1, m)
        state = _em_step(state, spec, dt, len(rngs), z)
        state.time = t0 + k * dt
        return state

    return run_fixed_steps(initial, step, lambda state, k: state.copy(), snapshot_times,
                           t0, t_end, dt)


# --------------------------------------------------------------------------
# deterministic position-velocity specialization


def _linear_gradient(kappa: float, x: np.ndarray) -> np.ndarray:
    return kappa * (x - x.mean(axis=0))


def _sine(amp: float, x: np.ndarray) -> np.ndarray:
    return amp * np.sin(x)


def _sine_force(amp: float, x: np.ndarray) -> np.ndarray:
    # sin(xi - xj) = sin xi cos xj - cos xi sin xj: two running means
    if x.shape[1] != 1:
        raise ValueError("sine gradient is one-dimensional")
    s, c = np.sin(x), np.cos(x)
    return amp * (s * c.mean(axis=0) - c * s.mean(axis=0))


def gradient_catalog(name: str, **params) -> InteractionKernel:
    """Potential gradients for the velocity-block force: zero, linear, sine.

    Entries are odd with value 0 at the origin, so the mean-field sum may
    include the self term and total momentum is exactly conserved in the
    continuum dynamics.
    """
    if name == "zero":
        return InteractionKernel(np.zeros_like, fast_force=np.zeros_like)
    if name == "linear":
        kappa = float(params.get("kappa", 1.0))
        return InteractionKernel(functools.partial(np.multiply, kappa),
                                 fast_force=functools.partial(_linear_gradient, kappa))
    if name == "sine":
        amp = float(params.get("amp", 1.0))
        return InteractionKernel(functools.partial(_sine, amp),
                                 fast_force=functools.partial(_sine_force, amp))
    raise ValueError(f"unknown potential gradient '{name}'")


@dataclass
class VlasovSpec:
    """Zero-diffusion transport block: x' = v, v' = mean-field gradient force."""

    space_dim: int
    potential_gradient: InteractionKernel

    def force(self, x: np.ndarray) -> np.ndarray:
        return _mean_field_forces(x, self.potential_gradient)


def _vlasov_rhs(coords: np.ndarray, spec: VlasovSpec) -> np.ndarray:
    d = spec.space_dim
    rhs = np.empty_like(coords)
    rhs[:, :d] = coords[:, d:]
    rhs[:, d:] = spec.force(coords[:, :d])
    return rhs


def simulate_vlasov(
    initial: ParticleState,
    spec: VlasovSpec,
    t_end: float,
    dt: float,
    snapshot_times: Sequence[float],
) -> list[ParticleState]:
    """Explicit-midpoint integration of the deterministic (x, v) system.

    Snapshots follow the contract of ``simulate_mkv``.  No randomness
    anywhere: repeated runs are bit-identical.
    """
    if initial.dim != 2 * spec.space_dim:
        raise ValueError("state must carry (x, v) pairs: dim = 2 * space_dim")
    t0 = initial.time

    def step(coords: np.ndarray, k: int) -> np.ndarray:
        k1 = _vlasov_rhs(coords, spec)
        k2 = _vlasov_rhs(coords + 0.5 * dt * k1, spec)
        coords = coords + dt * k2
        _check_finite(coords, f"t={t0 + k * dt:g}")
        return coords

    return run_fixed_steps(initial.coords, step,
                           lambda coords, k: ParticleState(coords.copy(), t0 + k * dt),
                           snapshot_times, t0, t_end, dt)


# --------------------------------------------------------------------------
# moment flow of the exactly solvable linear configuration


def linear_moment_flow(
    kappa: float,
    lam: float,
    sigma_diag: np.ndarray,
    mean0: np.ndarray,
    var0: np.ndarray,
    times: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Mean/variance trajectories of the limit law for U = -kappa z, T = -lam I.

    Committed derivation: the limit force is -kappa (z - m(t)) with m(t)
    the law's own mean, so

        m'   = -lam m
        c'   = -2 (lam + kappa) c + s^2        (per coordinate, s^2 = sigma^2)

    with fixed point c_inf = s^2 / (2 (lam + kappa)).  Both equations are
    scalar linear ODEs; the exact exponentials are evaluated directly.
    Cross-checked against a large-N simulation in the test suite.
    """
    if kappa < 0 or lam < 0:
        raise ValueError("kappa and lam must be nonnegative")
    sigma_diag = np.atleast_1d(np.asarray(sigma_diag, dtype=np.float64))
    mean0 = np.atleast_1d(np.asarray(mean0, dtype=np.float64))
    var0 = np.atleast_1d(np.asarray(var0, dtype=np.float64))
    t = np.asarray(times, dtype=np.float64)[:, None]
    s2 = sigma_diag**2
    means = mean0[None, :] * np.exp(-lam * t)
    rate = 2.0 * (lam + kappa)
    if rate > 0:
        c_inf = s2 / rate
        variances = c_inf[None, :] + (var0 - c_inf)[None, :] * np.exp(-rate * t)
    else:
        variances = var0[None, :] + s2[None, :] * t
    return means, variances
