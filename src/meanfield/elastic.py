"""Event-driven elastic collision gas for Maxwell molecules with cutoff.

Binary collisions at pair-independent rate: the N-particle generator sums
over unordered pairs with weight 1/N, so the total jump rate is (N-1)/2
and each event rotates the relative velocity of a uniformly chosen pair
onto a fresh direction sigma drawn from the angular kernel.  Momentum and
kinetic energy are conserved collision by collision.  ``simulate_kac``
and ``simulate_kac_coupled`` (Tanaka's coupling of two systems) play a
replica stack, one dynamics stream per replica, as one system.

A run draws its events one snapshot interval at a time, just before it
plays them (``_generate_events``): the Poisson clock is memoryless, so
restarting it at each snapshot samples the law of one clock run
through.  A pair is drawn from two uniforms u_i, u_j of the package's
53-bit grid (``RngStream``) as i = floor(u_i n) and j = j' + (j' >= i)
with j' = floor(u_j (n - 1)).  floor(u n) is monotone in u, and each of
the n indices takes a share of the grid within a few 2**-53 of 1/n; it
never reaches n, since for u <= 1 - 2**-53 the product u n rounds below
n.  numpy's bounded integer draw would cost about 13 us a call, more
than a small replica's whole interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from . import _events
from .core import (ParticleState, RngStream, SimulationError, open_unit, replica_normals,
                   replica_size, validate_snapshots)

__all__ = [
    "AngularKernel",
    "simulate_kac",
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
            if not (0 <= wp < math.inf and 0 <= wm < math.inf and wp + wm > 0):
                raise ValueError("weights must be finite and nonnegative with positive sum")
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
        self._exact = None  # the isotropic factory's exact transform, by dimension

    @classmethod
    def isotropic(cls, dim: int) -> "AngularKernel":
        """Uniform scattering direction on S^{d-1} (constant b = 1/|S^{d-1}|)."""
        if dim == 1:
            return cls(dim=1, weights=(0.5, 0.5), name="isotropic")
        # a partial, not a lambda, so the kernel pickles into worker tasks
        density = functools.partial(_constant_density, 1.0 / sphere_area(dim - 1))
        kernel = cls(dim=dim, density=density, name="isotropic")
        if dim in (2, 3):  # the uniform law's cosine has a closed-form inverse CDF
            kernel._exact = dim
        return kernel

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

    def cosines(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Deviation-angle cosines of uniforms u on (0, 1), by inverse transform.

        Written into ``out`` when given, which may be u itself.
        """
        if out is None:
            out = np.empty(np.shape(u))
        if self.dim == 1:
            np.copyto(out, np.where(u < self.weights[0], 1.0, -1.0))
        elif self._exact == 3:
            np.multiply(u, -2.0, out=out)
            out += 1.0  # 1 - 2 u, rounded once as written
        elif self._exact == 2:
            np.cos(np.multiply(u, math.pi, out=out), out=out)
        else:
            np.cos(np.interp(u, self._u_nodes, self._theta_of_u), out=out)
        return out

    def sample_costheta(self, k: int, rng: RngStream) -> np.ndarray:
        return self.cosines(np.atleast_1d(rng.uniform(size=k)))


def _jump_times(rngs, size, rate, start):
    """Rows of ``size`` Poisson clock jumps at ``rate``, row r from ``rngs[r]`` after ``start[r]``.

    The clock's one draw: each stream fills its row with uniform words,
    and the block becomes exponential gaps -log(u) / rate and their
    running sums from the start.
    """
    clock = np.empty((len(rngs), size))
    for rng, row in zip(rngs, clock):
        rng.uniform_words(row)
    np.log(open_unit(clock), out=clock)
    clock *= -(1.0 / rate)
    np.cumsum(clock, axis=1, out=clock)
    clock += start[:, None]
    return clock


def _interval_times(rate, t0, t1, rngs):
    """Each stream's Poisson clock on (t0, t1): the jump times, stream after stream, and counts.

    The rate is positive.  Stream r draws ``max(64, 1.2 rate (t1 - t0) +
    16)`` exponential gaps into a row of one block buffer; while its clock
    has not passed t1 it draws ``max(64, size // 4)`` more, the size
    shrinking each round, in a block with the other streams still short.
    With t1 <= t0 nothing is drawn.  A function of its own, so that the
    clock buffer, which the per-stream times view, is freed before the
    segment's other fields are allocated.
    """
    if t1 <= t0:
        return np.empty(0), [0] * len(rngs)
    size = max(64, int(1.2 * rate * (t1 - t0)) + 16)
    clock = _jump_times(rngs, size, rate, np.full(len(rngs), t0, dtype=np.float64))
    counts = np.count_nonzero(clock < t1, axis=1)
    times = [row[:c] for row, c in zip(clock, counts.tolist())]
    short = np.flatnonzero(counts == size).tolist()
    while short:  # these clocks kept every jump so far; each refill starts at the last
        size = max(64, size // 4)
        more = _jump_times([rngs[r] for r in short], size, rate,
                           np.array([times[r][-1] for r in short]))
        for r, row in zip(short, more):
            times[r] = np.concatenate((times[r], row[row < t1]))
        short = [r for r, row in zip(short, more) if row[-1] < t1]
    return np.concatenate(times), [len(t) for t in times]


def _generate_events(
    n: int,
    rate: float,
    kernel: AngularKernel,
    t0: float,
    t1: float,
    rngs: Sequence[RngStream],
    width: int,
) -> _events.EventSegment:
    """The events in (t0, t1) of R = len(rngs) replicas of n particles, replica after replica.

    Stream r draws, in this order: its clock gaps (``_interval_times``),
    one ``(k, 3)`` block of uniform words, a row [cosine, i, j] per event,
    and k rows of ``width`` normals (``core.replica_normals``): the frame,
    then a bath's.  The cosine transform and the pair map (module
    docstring) run once per block; pair indices are int32 rows of the
    stack, offset by r n.
    """
    if len(rngs) * n > np.iinfo(np.int32).max:
        raise SimulationError("a replica stack indexes at most 2**31 - 1 particles")
    times, counts = _interval_times(rate, t0, t1, rngs)
    bounds = np.zeros(len(rngs) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    words = np.empty((len(times), 3))
    for rng, lo, hi in zip(rngs, bounds.tolist(), bounds[1:].tolist()):
        rng.uniform_words(words[lo:hi])
    normals = replica_normals(rngs, list(enumerate(counts)), width)
    u = open_unit(words).T
    costh = kernel.cosines(u[0])
    pair_i = np.multiply(u[1], n).astype(np.int32)
    b = np.multiply(u[2], n - 1).astype(np.int32)
    # replica r's particles are rows r n .. r n + n - 1; uniform pairs
    # i != j, canonicalized to i < j: the collision laws are
    # orientation-free (swapping the pair and reflecting sigma preserves
    # the update law), so the canonical order loses nothing
    b += b >= pair_i
    pair_j = np.maximum(pair_i, b)
    np.minimum(pair_i, b, out=pair_i)
    offset = np.repeat(np.arange(0, len(rngs) * n, n, dtype=np.int32), counts)
    pair_i += offset
    pair_j += offset
    return _events.EventSegment(times, pair_i, pair_j, costh, normals, bounds)


def _simulate_stacked(initial, kernel, t_end, snapshot_times, rngs, pair_rate, collide,
                      bath=None) -> list[ParticleState]:
    """Independent collision trajectories of a replica stack, played as one system.

    ``initial`` stacks R = len(rngs) replicas of N particles (the
    ``ParticleState`` row layout); replica r draws its events, at total
    rate ``pair_rate * (N - 1)``, from ``rngs[r]``.  The run is played on
    the coordinate-major ``(d, R N)`` copy of ``initial``, one snapshot
    interval at a time: its events are drawn (``_generate_events``, with
    rows of ``bath.width`` more normals when a bath is given), played
    (``_events.play_segment`` with ``collide`` and ``bath``) and
    released, then the bath syncs and the snapshot is copied.  t_end only
    bounds the snapshots: the run draws and plays nothing past the last.
    """
    n, t = replica_size(initial, rngs), initial.time
    if n < 2:
        raise SimulationError("need N >= 2")
    snaps = validate_snapshots(snapshot_times, t, t_end)
    rate, frame = pair_rate * (n - 1), _events.frame_width(kernel.dim)
    width = frame + (0 if bath is None else bath.width)
    x = initial.coords.T.copy()
    out = []
    for s in snaps.tolist():
        # the call holds the interval's only reference: it goes before the copy
        _events.play_segment(x, _generate_events(n, rate, kernel, t, s, rngs, width), frame,
                             collide, bath)
        t = max(t, s)
        if bath is not None:
            bath.sync(x, s)
        out.append(ParticleState(x.T.copy(), time=s))
    return out


def simulate_kac(
    initial: ParticleState,
    kernel: AngularKernel,
    t_end: float,
    snapshot_times: Sequence[float],
    rngs: Sequence[RngStream],
) -> list[ParticleState]:
    """Exact event-driven trajectories of a replica stack; its snapshot states.

    Replica r of ``initial`` draws its events from ``rngs[r]`` and is
    bitwise the run it would be alone; one stream is one run.  Nothing is
    drawn or played past the last snapshot: a run with t_end beyond it is
    the run that ends there, and one without snapshots draws nothing.
    """
    if kernel.dim != initial.dim:
        raise ValueError("kernel dimension must match the state")
    return _simulate_stacked(initial, kernel, t_end, snapshot_times, rngs, 0.5,
                             _events.apply_pair_collisions)


def _apply_coupled(x, ii, jj, costh, frames, sinth) -> None:
    """One batch of elastic collisions of two systems stacked in the rows x = [v_a; v_b].

    The coupled gas's rule: the arguments of ``_events.apply_pair_collisions``,
    and its pair gather and scatter.
    """
    d = len(x) // 2
    va, vb = x[:d], x[d:]
    wa, ua, ra = _events.pair_geometry(va, ii, jj)
    wb, ub, rb = _events.pair_geometry(vb, ii, jj)
    sigma_a = _events.deviation_vectors(ua, ra, costh, frames, sinth)
    # transport onto the second geometry where both are defined;
    # a degenerate first pair falls back to the direct construction
    sigma_b = _events.rotate_between(ua / np.where(ra > 0.0, ra, 1.0),
                                     ub / np.where(rb > 0.0, rb, 1.0), sigma_a)
    direct_b = _events.deviation_vectors(ub, rb, costh, frames, sinth)
    sigma_b = np.where(ra > 0.0, sigma_b, direct_b)
    _events.put_pairs(va, ii, jj, wa, np.multiply(ra, sigma_a, out=sigma_a), ra > 0.0)
    _events.put_pairs(vb, ii, jj, wb, np.multiply(rb, sigma_b, out=sigma_b), rb > 0.0)


def simulate_kac_coupled(
    initial_a: ParticleState,
    initial_b: ParticleState,
    kernel: AngularKernel,
    t_end: float,
    snapshot_times: Sequence[float],
    rngs: Sequence[RngStream],
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
    angle theta, whatever the kernel.  ``initial_a`` and ``initial_b`` are
    replica stacks of one shape and start time; replica r of both draws
    its events from ``rngs[r]`` and is bitwise the pair it would be alone.
    """
    if initial_b.coords.shape != initial_a.coords.shape:
        raise ValueError("coupled systems need matching shapes")
    if initial_b.time != initial_a.time:
        raise ValueError("coupled systems need equal start times")
    if kernel.dim != initial_a.dim:
        raise ValueError("kernel dimension must match the state")
    both = ParticleState(np.hstack([initial_a.coords, initial_b.coords]), initial_a.time)
    out = _simulate_stacked(both, kernel, t_end, snapshot_times, rngs, 0.5, _apply_coupled)
    return ([ParticleState(s.coords[:, :initial_a.dim], s.time) for s in out],
            [ParticleState(s.coords[:, initial_a.dim:], s.time) for s in out])
