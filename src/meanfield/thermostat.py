"""Inelastic Maxwell collision gas driven by a Brownian thermal bath.

Mixed jump-diffusion dynamics: binary inelastic collisions (restitution
alpha) at pair-independent rate, plus an independent Brownian forcing of
strength nu on every particle.  Both components are sampled exactly --
collision times from the global exponential clock, and Brownian motion by
aggregating each particle's increment over the interval since that
particle was last touched (increments over disjoint intervals are
independent Gaussians, so deferred aggregation is exact in law and O(1)
per event instead of O(N)).

The bath is drawn in event order, never in batch order: before each
chunk of consecutive events is played, every event of the chunk gets 2 d
normals up front (d for each particle of the pair, the increment since
that particle was last touched), and at each snapshot every particle is
synced with d more.  A particle's increments therefore follow its own events in
stream order, and the trajectory is the same bit for bit under any
schedule of the event engine, the dependency levels or one event per
batch.

Rate convention: the generator used here sums over ordered pairs, total
jump rate N-1.  The halved convention (unordered pairs, rate (N-1)/2,
matching the elastic module) is available behind ``ordered_pair_rate=False``
and is recorded by every consumer; the two conventions rescale time by a
factor 2 in the collision component only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _events
from .core import ParticleState, RngStream, SimulationError, validate_snapshots
from .elastic import AngularKernel, _generate_events

__all__ = [
    "RestitutionParams",
    "collide_inelastic",
    "simulate_thermostat",
    "steady_temperature",
    "temperature",
]


@dataclass(frozen=True)
class RestitutionParams:
    """Restitution coefficient, bath strength and dimension.

    alpha in (0, 1); nu > 0 is the bath strength (nu = 0 is accepted as
    the bath-off cooling limit used by diagnostics).
    """

    alpha: float
    nu: float = 1.0
    dim: int = 3

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.nu < 0.0:
            raise ValueError("nu must be nonnegative (0 disables the bath)")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def collide_inelastic(
    v_i: np.ndarray, v_j: np.ndarray, sigma: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inelastic pair update: w/2 ± u*/2, u* = (1-a)/2 u + (1+a)/2 |u| sigma.

    Momentum is conserved exactly; |u*| <= |u| pointwise with equality only
    at sigma = u/|u|, so the pair kinetic energy never increases.  The
    u = 0 pair returns unchanged (same convention as the elastic rule).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    v_i = np.asarray(v_i, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    u = v_i - v_j
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return v_i.copy(), v_j.copy()
    w = v_i + v_j
    u_star = 0.5 * (1.0 - alpha) * u + 0.5 * (1.0 + alpha) * r * np.asarray(sigma, float)
    return 0.5 * (w + u_star), 0.5 * (w - u_star)


def temperature(state: ParticleState) -> float:
    """Kinetic temperature (1/(dN)) Σ |v_k|^2."""
    return float(np.sum(state.coords**2) / state.coords.size)


def steady_temperature(
    params: RestitutionParams,
    kernel: AngularKernel,
    rate_convention: str = "ordered-pairs",
    n_particles: int | None = None,
) -> float:
    """Stationary temperature from the kinetic-energy balance.

    Collisions at total rate R(N-1) (R = 1 for the ordered-pair generator,
    R = 1/2 for the unordered/limit-equation convention) each dissipate
    E[dE] = -(1-a^2)(1-b1)|u|^2/4 on a uniform pair, while the bath injects
    2 d nu per particle per unit time.  With D = R(1-a^2)(1-b1)/4 the total
    energy E and squared momentum |P|^2 obey

        dE/dt = -2 D E + (2 D / N) E|P|^2 + 2 d nu N,
        E|P(t)|^2 = |P_0|^2 + 2 d nu N t    (collisions conserve momentum),

    whose quasi-stationary branch is T(t) = (nu/D)(N-1)/N + 2 nu t / N for
    centered data: the plateau carries a (N-1)/N correction and a slow
    O(t/N) center-of-mass heating, both negligible at desk scale.  The
    N -> inf plateau 4 nu / (R (1-a^2)(1-b1)) is returned when n_particles
    is omitted.  alpha -> 1 or b1 -> 1 removes all dissipation and the
    balance diverges (returned as inf).
    """
    if rate_convention not in ("ordered-pairs", "unordered-pairs"):
        raise ValueError("rate_convention must be 'ordered-pairs' or 'unordered-pairs'")
    if params.nu == 0.0:
        return 0.0
    rate_factor = 1.0 if rate_convention == "ordered-pairs" else 0.5
    b1 = kernel.b1()
    dissipation = rate_factor * (1.0 - params.alpha**2) * (1.0 - b1) / 2.0
    if dissipation <= 0.0:
        return math.inf
    finite_n = 1.0 if n_particles is None else (n_particles - 1.0) / n_particles
    return 2.0 * params.nu * finite_n / dissipation


def _diffuse(coords, idx, last_sync, now, nu, z) -> None:
    """Bring particles idx up to their exact Brownian state at time now."""
    dt = now - last_sync[idx]
    coords[idx] += np.sqrt(np.maximum(2.0 * nu * dt, 0.0))[:, None] * z
    last_sync[idx] = now


def simulate_thermostat(
    initial: ParticleState,
    kernel: AngularKernel,
    params: RestitutionParams,
    t_end: float,
    snapshot_times: Sequence[float],
    rng: RngStream,
    ordered_pair_rate: bool = True,
) -> list[ParticleState]:
    """Exact trajectory of the collision + bath process; snapshot states.

    At ``params.nu == 0`` there is no bath: the run is the pure inelastic
    collision process, and ``rng`` draws only the event stream.
    """
    n, d = initial.n_particles, initial.dim
    if n < 2:
        raise SimulationError("need N >= 2")
    if kernel.dim != d or params.dim != d:
        raise ValueError("kernel/params dimension must match the state")
    snaps = validate_snapshots(snapshot_times, initial.time, t_end)
    rate = float(n - 1) if ordered_pair_rate else (n - 1) / 2.0
    record = _generate_events(n, d, rate, kernel, initial.time, t_end, rng)

    coords = initial.coords.copy()
    on_chunk = on_snapshot = None
    if params.nu > 0.0:
        last_sync = np.full(n, initial.time)
        nu = params.nu

        def on_chunk(order: np.ndarray, now: np.ndarray):
            # drawn in event order, then taken in play order batch by batch
            # (no chunk-sized reordered copy)
            z = rng.normal(size=(len(order), 2 * d))

            def hook(lo: int, hi: int, ii: np.ndarray, jj: np.ndarray) -> None:
                both = np.concatenate([ii, jj])
                t = np.tile(now[lo:hi], 2)
                zb = z.take(order[lo:hi], axis=0)
                normals = np.concatenate([zb[:, :d], zb[:, d:]])
                _diffuse(coords, both, last_sync, t, nu, normals)

            return hook

        def on_snapshot(s: float) -> None:
            _diffuse(coords, np.arange(n), last_sync, s, nu, rng.normal(size=(n, d)))

    captured = _events.play_events(coords, [record], snaps, params.alpha,
                                   on_chunk=on_chunk, on_snapshot=on_snapshot)
    return [ParticleState(c, time=float(s)) for s, c in zip(snaps, captured)]
