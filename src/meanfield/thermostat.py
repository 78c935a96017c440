"""Inelastic Maxwell collision gas driven by a Brownian thermal bath.

Mixed jump-diffusion dynamics: binary inelastic collisions (restitution
alpha) at pair-independent rate, plus an independent Brownian forcing of
strength nu on every particle.  Both components are sampled exactly --
collision times from the global exponential clock, and Brownian motion by
aggregating each particle's increment over the interval since that
particle was last touched (increments over disjoint intervals are
independent Gaussians, so deferred aggregation is exact in law and O(1)
per event instead of O(N)).

The bath is drawn per replica, in event order, never in batch order:
each event's 2 d bath normals (d for each particle of the pair, the
increment since that particle was last touched) follow its frame normals
in one row drawn from its own replica's stream just before its chunk is
played, and at each snapshot every particle is synced with d more from
the same stream.  Each stream hands out its words in the order of a lone
run, and a replica's trajectory is the same bit for bit under any
schedule of the event engine: the dependency levels, one event per
batch, or many replicas stacked into one system.
``simulate_thermostat`` takes such a stack (one state of R N rows, one
stream per replica); a single run is R = 1.

Rate convention: the generator used here sums over ordered pairs, total
jump rate N-1.  The halved convention (unordered pairs, rate (N-1)/2,
matching the elastic module) is available behind ``ordered_pair_rate=False``
and is recorded by every consumer; the two conventions rescale time by a
factor 2 in the collision component only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _events
from .core import ParticleState, RngStream, replica_normals
from .elastic import AngularKernel, _simulate_stacked

__all__ = [
    "RestitutionParams",
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
        if not 0.0 <= self.nu < math.inf:
            raise ValueError("nu must be nonnegative and finite (0 disables the bath)")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


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


class _Bath:
    """Brownian forcing of strength nu on a replica stack, caught up per particle.

    The bath of ``_events.play_events``, which draws ``width`` = 2 d
    normals per event, after the event's frame, and hands them to
    ``kick``: it brings a batch's particles up to their collision time.
    ``sync`` brings every particle up to a snapshot with d more normals
    per particle, drawn from each replica's stream.
    """

    def __init__(self, rngs: Sequence[RngStream], nu: float, initial: ParticleState) -> None:
        self.rngs, self.nu, self.d, self.width = rngs, nu, initial.dim, 2 * initial.dim
        self.last_sync = np.full(initial.n_particles, initial.time)

    def kick(self, x: np.ndarray, ii: np.ndarray, jj: np.ndarray, now: np.ndarray,
             z: np.ndarray) -> None:
        for idx, z_idx in ((ii, z[:self.d]), (jj, z[self.d:])):
            scale = np.sqrt(np.maximum(2.0 * self.nu * (now - self.last_sync[idx]), 0.0))
            _events.put_columns(x, idx, x.take(idx, axis=1) + scale * z_idx)
            self.last_sync[idx] = now

    def sync(self, x: np.ndarray, s: float) -> None:
        n = x.shape[1] // len(self.rngs)
        z = replica_normals(self.rngs, [(r, n) for r in range(len(self.rngs))], self.d)
        np.add(x, np.sqrt(np.maximum(2.0 * self.nu * (s - self.last_sync), 0.0)) * z.T, out=x)
        self.last_sync[:] = s


def simulate_thermostat(
    initial: ParticleState,
    kernel: AngularKernel,
    params: RestitutionParams,
    t_end: float,
    snapshot_times: Sequence[float],
    rngs: Sequence[RngStream],
    ordered_pair_rate: bool = True,
) -> list[ParticleState]:
    """Exact trajectories of the collision + bath process of a replica stack.

    Replica r of ``initial`` (the ``ParticleState`` row layout) draws its
    events, each event's bath normals after its frame and each snapshot's
    sync normals from ``rngs[r]``, and is bitwise the run it would be
    alone; one stream is one run.  Nothing is drawn past the last
    snapshot.  At ``params.nu == 0`` there is no bath: the run is the pure
    inelastic collision process, and the streams draw only the events.
    """
    if not params.dim == kernel.dim == initial.dim:
        raise ValueError("kernel dimension must match the state and params.dim")
    bath = _Bath(rngs, params.nu, initial) if params.nu > 0.0 else None
    collide = functools.partial(_events.apply_pair_collisions, restitution=params.alpha)
    return _simulate_stacked(initial, kernel, t_end, snapshot_times, rngs,
                             1.0 if ordered_pair_rate else 0.5, collide, bath)
