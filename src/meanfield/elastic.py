"""Event-driven elastic collision gas for Maxwell molecules with cutoff.

Binary collisions at pair-independent rate: the N-particle generator sums
over unordered pairs with weight 1/N, so the total jump rate is (N-1)/2
and each event rotates the relative velocity of a uniformly chosen pair
onto a fresh direction sigma drawn from the angular kernel.  Momentum and
kinetic energy are conserved collision by collision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from . import _events
from .core import ParticleState, RngStream, SimulationError, validate_snapshots

__all__ = [
    "AngularKernel",
    "simulate_kac",
    "simulate_kac_replicas",
    "simulate_kac_coupled",
]

_TABLE_NODES = 4096


def _constant_density(value: float, c: np.ndarray) -> np.ndarray:
    return np.full_like(np.asarray(c, float), value)


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere in R^{k+1}."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.exp(gammaln((k + 1) / 2.0))


@dataclass
class AngularKernel:
    """Collision kernel b on the deviation-angle cosine, normalized on S^{d-1}.

    The cosine marginal carries the surface-measure factor
    (1 - c^2)^{(d-3)/2}; sampling runs through an inverse-CDF table built
    in angle space (where that factor is smooth for every d >= 2), with
    exact transforms for the isotropic kernel in d = 2, 3.  For d = 1 the
    sphere degenerates to {-1, +1} and the kernel reduces to two weights.
    """

    dim: int
    density: Callable[[np.ndarray], np.ndarray] | None = None
    weights: tuple[float, float] | None = None  # d=1: (mass at +1, mass at -1)
    name: str = "custom"
    raw_norm: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.dim == 1:
            if self.weights is None:
                raise ValueError("d=1 kernels are two point masses; pass weights")
            wp, wm = self.weights
            if wp < 0 or wm < 0 or wp + wm <= 0:
                raise ValueError("weights must be nonnegative with positive sum")
            self.raw_norm = wp + wm
            self.weights = (wp / self.raw_norm, wm / self.raw_norm)
            return
        if self.density is None:
            raise ValueError("d>=2 kernels need a density on [-1, 1]")
        # fine angle grid; trapezoid CDF of b(cos t) sin^{d-2}(t) * |S^{d-2}|
        t = np.linspace(0.0, math.pi, 8 * _TABLE_NODES + 1)
        c = np.cos(t)
        vals = np.asarray(self.density(c), dtype=np.float64) * np.sin(t) ** (self.dim - 2)
        if np.any(vals < -1e-14):
            raise ValueError("kernel density must be nonnegative on [-1, 1]")
        vals = np.maximum(vals, 0.0) * sphere_area(self.dim - 2)
        cdf = np.concatenate(([0.0], np.cumsum((vals[1:] + vals[:-1]) * 0.5 * np.diff(t))))
        self.raw_norm = float(cdf[-1])
        if self.raw_norm <= 0:
            raise ValueError("kernel density integrates to zero")
        cdf /= self.raw_norm
        # decimate the fine CDF to the published table resolution
        u_nodes = np.linspace(0.0, 1.0, _TABLE_NODES)
        self._theta_of_u = np.interp(u_nodes, cdf, t)
        self._u_nodes = u_nodes
        self._exact = None
        if self.name == "isotropic" and self.dim in (2, 3):
            self._exact = f"isotropic-{self.dim}d"

    @classmethod
    def isotropic(cls, dim: int) -> "AngularKernel":
        """Uniform scattering direction on S^{d-1} (constant b = 1/|S^{d-1}|)."""
        if dim == 1:
            return cls(dim=1, weights=(0.5, 0.5), name="isotropic")
        # a partial, not a lambda, so the kernel pickles into worker tasks
        density = functools.partial(_constant_density, 1.0 / sphere_area(dim - 1))
        return cls(dim=dim, density=density, name="isotropic")

    @classmethod
    def two_point(cls, w_plus: float, w_minus: float) -> "AngularKernel":
        return cls(dim=1, weights=(w_plus, w_minus), name="two-point")

    def b1(self) -> float:
        """Mean deviation cosine ∫ (sigma·uhat) b dsigma under the kernel."""
        if self.dim == 1:
            wp, wm = self.weights
            return wp - wm
        t = np.linspace(0.0, math.pi, 8 * _TABLE_NODES + 1)
        c = np.cos(t)
        vals = (
            np.asarray(self.density(c), dtype=np.float64)
            * np.sin(t) ** (self.dim - 2)
            * c
            * sphere_area(self.dim - 2)
        )
        return float(np.trapezoid(vals, t) / self.raw_norm)

    def sample_costheta(self, k: int, rng: RngStream) -> np.ndarray:
        u = np.atleast_1d(rng.uniform(size=k))
        if self.dim == 1:
            wp, _ = self.weights
            return np.where(u < wp, 1.0, -1.0)
        if self._exact == "isotropic-3d":
            return 1.0 - 2.0 * u
        if self._exact == "isotropic-2d":
            return np.cos(math.pi * u)
        return np.cos(np.interp(u, self._u_nodes, self._theta_of_u))


def _generate_events(
    n: int,
    dim: int,
    rate: float,
    kernel: AngularKernel,
    t0: float,
    t_end: float,
    rng: RngStream,
) -> _events.EventRecord:
    times = _events.sample_event_times(rate, t0, t_end, rng)
    k = len(times)
    pi, pj = _events.sample_pairs(n, k, rng)
    costh = kernel.sample_costheta(k, rng)
    frames = rng.normal(size=(k, dim)) if dim >= 2 else None
    return _events.EventRecord(times=times, pair_i=pi, pair_j=pj, costh=costh, frames=frames)


def _simulate_stacked(initials, kernel, t_end, snapshot_times, rngs, pair_rate,
                      restitution=None, bath=None) -> list[list[ParticleState]]:
    """Independent collision trajectories of R replicas, played as one stacked system.

    Replica r starts from ``initials[r]`` and draws its events, at total
    rate ``pair_rate * (N - 1)``, from ``rngs[r]``; all replicas share N,
    the dimension and the start time.  ``restitution`` goes to the
    collision rule (None: elastic).  ``bath(coords)``, when given, takes
    the stacked ``(R N, d)`` coords and returns the ``on_chunk`` and
    ``on_snapshot`` hooks of ``_events.play_events``.
    """
    if not initials or len(rngs) != len(initials):
        raise ValueError("need one dynamics stream per initial state, and at least one")
    n, d, t0 = initials[0].n_particles, initials[0].dim, initials[0].time
    if any(s.coords.shape != (n, d) or s.time != t0 for s in initials):
        raise ValueError("replicas need matching shapes and start times")
    if n < 2:
        raise SimulationError("need N >= 2")
    if kernel.dim != d:
        raise ValueError("kernel dimension must match the state")
    snaps = validate_snapshots(snapshot_times, t0, t_end)
    records = [_generate_events(n, d, pair_rate * (n - 1), kernel, t0, t_end, rng) for rng in rngs]
    coords = np.concatenate([s.coords for s in initials])
    on_chunk, on_snapshot = (None, None) if bath is None else bath(coords)
    captured = _events.play_events(coords, records, snaps, restitution,
                                   on_chunk=on_chunk, on_snapshot=on_snapshot)
    return [
        [ParticleState(c[r * n:(r + 1) * n], time=float(t)) for t, c in zip(snaps, captured)]
        for r in range(len(initials))
    ]


def simulate_kac_replicas(
    initials: Sequence[ParticleState],
    kernel: AngularKernel,
    t_end: float,
    snapshot_times: Sequence[float],
    rngs: Sequence[RngStream],
) -> list[list[ParticleState]]:
    """Independent trajectories of R replicas, played as one stacked system.

    Replica r starts from ``initials[r]`` and draws its events from
    ``rngs[r]``; its snapshot states are bitwise those of
    ``simulate_kac(initials[r], kernel, t_end, snapshot_times, rngs[r])``.
    All replicas share N, the dimension and the start time.
    """
    return _simulate_stacked(initials, kernel, t_end, snapshot_times, rngs, 0.5)


def simulate_kac(
    initial: ParticleState,
    kernel: AngularKernel,
    t_end: float,
    snapshot_times: Sequence[float],
    rng: RngStream,
) -> list[ParticleState]:
    """Exact event-driven trajectory; returns states at the snapshot times."""
    return simulate_kac_replicas([initial], kernel, t_end, snapshot_times, [rng])[0]


def _apply_coupled(coords, pi, pj, costh, frames, restitution, batches, pre_batch_hook) -> None:
    """Elastic collisions of two systems side by side in coords = [v_a | v_b].

    Takes the arguments of ``_events.apply_pair_collisions`` (restitution
    and hook are unused: the coupling is elastic and has no bath).
    """
    d = coords.shape[1] // 2
    va, vb = coords[:, :d], coords[:, d:]
    sinth = None if frames is None else _events.sine_of(costh)
    for lo, hi in batches:
        ii = pi[lo:hi]
        jj = pj[lo:hi]
        ua = va.take(ii, axis=0) - va.take(jj, axis=0)
        ub = vb.take(ii, axis=0) - vb.take(jj, axis=0)
        ra = _events.row_norms(ua)
        rb = _events.row_norms(ub)
        fr = None if frames is None else frames[lo:hi]
        sn = None if sinth is None else sinth[lo:hi]
        sigma_a = _events.deviation_vectors(ua, ra, costh[lo:hi], fr, sn)
        # transport onto the second geometry where both are defined;
        # a degenerate first pair falls back to the direct construction
        safe_a = np.where(ra > 0.0, ra, 1.0)[:, None]
        safe_b = np.where(rb > 0.0, rb, 1.0)[:, None]
        sigma_b = _events.rotate_between(ua / safe_a, ub / safe_b, sigma_a)
        direct_b = _events.deviation_vectors(ub, rb, costh[lo:hi], fr, sn)
        sigma_b = np.where((ra > 0.0)[:, None], sigma_b, direct_b)
        for v, r, sigma in ((va, ra, sigma_a), (vb, rb, sigma_b)):
            moving = r > 0.0
            w = v.take(ii, axis=0) + v.take(jj, axis=0)
            u_star = r[:, None] * sigma
            v[ii[moving]] = 0.5 * (w + u_star)[moving]
            v[jj[moving]] = 0.5 * (w - u_star)[moving]


def simulate_kac_coupled(
    initial_a: ParticleState,
    initial_b: ParticleState,
    kernel: AngularKernel,
    t_end: float,
    snapshot_times: Sequence[float],
    rng: RngStream,
) -> tuple[list[ParticleState], list[ParticleState]]:
    """Two elastic systems under one event stream, directions coupled.

    Both systems share the collision times and pairs.  The scattering
    direction of the second system is the first system's direction
    parallel-transported by the rotation taking the first relative
    direction onto the second, so both draw from the same angular law
    relative to their own geometry.  Under this quadratic coupling every
    collision contracts the expected matched-atom cost: with gamma the
    angle between the two relative directions, the coupled cross term
    gains (1 - cos gamma) (1 - cos^2 theta) / 2 >= 0 for every deviation
    angle theta, whatever the kernel.
    """
    n, d = initial_a.n_particles, initial_a.dim
    if initial_b.n_particles != n or initial_b.dim != d:
        raise ValueError("coupled systems need matching shapes")
    if n < 2:
        raise SimulationError("need N >= 2")
    if kernel.dim != d:
        raise ValueError("kernel dimension must match the state")
    snaps = validate_snapshots(snapshot_times, initial_a.time, t_end)
    record = _generate_events(n, d, (n - 1) / 2.0, kernel, initial_a.time, t_end, rng)
    coords = np.hstack([initial_a.coords, initial_b.coords])
    captured = _events.play_events(coords, [record], snaps, apply=_apply_coupled)
    out_a = [ParticleState(c[:, :d], time=float(t)) for t, c in zip(snaps, captured)]
    out_b = [ParticleState(c[:, d:], time=float(t)) for t, c in zip(snaps, captured)]
    return out_a, out_b
