"""Shared domain types: particle states, empirical measures, RNG streams.

Everything downstream (collision gases, SDEs, metrics, the chaos harness)
consumes these types.  Two contracts matter most:

* Reproducibility: all randomness flows through ``RngStream``, a
  counter-based (Philox) generator keyed by ``(master_seed, stream_id)``.
  The k-th variate of a stream is a pure function of the key and k, so
  replica-parallel pipelines are deterministic for any worker count.
* Permutation symmetry: every functional evaluated on an
  ``EmpiricalMeasure`` first canonicalizes atom order, so permuting the
  atoms changes nothing, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

__all__ = [
    "ParticleState",
    "EmpiricalMeasure",
    "RngStream",
    "empirical_from_state",
    "moment",
    "quantile_init_1d",
    "gaussian_sample_state",
    "canonical_atom_order",
]

_INV_2_53 = 2.0 ** -53


class SimulationError(RuntimeError):
    """Raised when a simulator detects invalid state (blow-up, bad input)."""


@dataclass
class RngStream:
    """Counter-based random stream, reproducible and splittable by id.

    Independent streams are obtained by varying ``stream_id`` under a fixed
    ``master_seed`` (Philox keyed through ``SeedSequence(master_seed,
    spawn_key=(stream_id,))``).  ``draw_counter`` counts scalar variates
    handed out, for audit headers.  Uniforms are drawn as
    ``(k + 0.5) * 2**-53`` with k a 53-bit integer, so they lie strictly
    inside (0, 1); normals are inverse-transform (``ndtri``) so the whole
    stream reduces to one documented uniform sequence.

    k is ``bit_generator.random_raw(size) >> 11``, the top 53 bits of one
    raw 64-bit word.  For the range 2**53 numpy's Lemire method never
    rejects and returns exactly that shift, so k equals
    ``integers(0, 2**53, dtype=uint64)`` word for word and the generator
    ends in the same state; the raw path only skips the bounded-integer
    machinery and converts in place.
    """

    master_seed: int
    stream_id: int = 0
    draw_counter: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("master_seed and stream_id must be nonnegative")
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(seq))
        # replay position when a stream is reconstructed mid-sequence
        if self.draw_counter:
            raise ValueError("streams start at draw_counter=0; keep the object")

    def _count(self, size) -> int:
        # plain Python: np.prod costs more than a small draw itself
        if size is None:
            return 1
        if isinstance(size, (int, np.integer)):
            return int(size)
        return int(math.prod(size))

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform variates on the open interval (0, 1)."""
        self.draw_counter += self._count(size)
        k = self._gen.bit_generator.random_raw(size)
        if size is None:
            return (np.float64(k >> 11) + 0.5) * _INV_2_53
        k >>= 11
        u = k.view(np.float64)  # same buffer: each word is read before it is written
        np.add(k, 0.5, out=u)
        u *= _INV_2_53
        return u

    def normal(self, size=None) -> np.ndarray | float:
        """Standard normals via inverse transform of :meth:`uniform`."""
        u = self.uniform(size=size)
        if size is None:
            return ndtri(u)
        return ndtri(u, out=u)

    def exponential(self, scale: float = 1.0, size=None) -> np.ndarray | float:
        return -scale * np.log(self.uniform(size=size))

    def integers(self, low: int, high: int, size=None) -> np.ndarray | int:
        """Uniform integers in [low, high)."""
        self.draw_counter += self._count(size)
        return self._gen.integers(low, high, size=size)

    def unit_vectors(self, dim: int, n: int) -> np.ndarray:
        """n independent uniform directions on the (dim-1)-sphere."""
        g = self.normal(size=(n, dim))
        g = np.atleast_2d(g)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        # a zero-norm draw has probability 0; regenerate defensively
        bad = norms[:, 0] < 1e-300
        while np.any(bad):
            g[bad] = np.atleast_2d(self.normal(size=(int(bad.sum()), dim)))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            bad = norms[:, 0] < 1e-300
        return g / norms


@dataclass
class ParticleState:
    """Configuration of N particles in R^m plus the simulation clock.

    ``coords`` is an (N, m) contiguous float64 array (the hot loops index
    rows).  For position-velocity models the row layout is ``x ⊕ v``.
    """

    coords: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[0] < 1 or self.coords.shape[1] < 1:
            raise ValueError("coords must be a nonempty (N, m) array")
        if self.time < 0.0:
            raise ValueError("time must be nonnegative")

    @property
    def n_particles(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def copy(self) -> "ParticleState":
        return ParticleState(self.coords.copy(), self.time)


@dataclass
class EmpiricalMeasure:
    """Uniform-weight atomic probability measure built from N atoms."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        self.atoms = np.ascontiguousarray(self.atoms, dtype=np.float64)
        if self.atoms.ndim == 1:
            self.atoms = self.atoms[:, None]
        if self.atoms.ndim != 2 or self.atoms.shape[0] < 1:
            raise ValueError("atoms must be a nonempty (N, m) array")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def weight(self) -> float:
        return 1.0 / self.atoms.shape[0]


def _strictly_ascending(x: np.ndarray) -> bool:
    return bool((x[1:] > x[:-1]).all())


def canonical_atom_order(atoms: np.ndarray) -> np.ndarray:
    """Atoms sorted lexicographically by coordinates.

    Measurement functionals reduce over this order so their floating-point
    result is invariant under atom permutations, exactly.  Atoms already
    in that order come back as the same array, so a state canonicalized
    once costs O(N) per later functional.
    """
    if _strictly_ascending(atoms[:, 0]):
        return atoms
    out = atoms[np.argsort(atoms[:, 0])]
    if _strictly_ascending(out[:, 0]):
        return out  # distinct leading coordinates fix the lexicographic order
    return atoms[np.lexsort(atoms.T[::-1])]


def empirical_from_state(state: ParticleState) -> EmpiricalMeasure:
    """The N-point uniform atomic measure carried by a particle state."""
    return EmpiricalMeasure(state.coords.copy())


def moment(mu: EmpiricalMeasure, q: float) -> float:
    """Moment of order q: (1/N) Σ_j (1 + |z_j|^2)^(q/2)."""
    if q < 0:
        raise ValueError("moment order q must be nonnegative")
    z2 = np.einsum("ij,ij->i", mu.atoms, mu.atoms)
    terms = np.sort((1.0 + z2) ** (q / 2.0))
    return float(terms.sum() / mu.n_atoms)


def quantile_init_1d(target_cdf_inverse: Callable[[float], float], n: int) -> ParticleState:
    """Deterministic midpoint-quantile configuration of a 1-D law.

    Places particle j at F^{-1}((j - 1/2)/n), ascending.  Used wherever the
    i.i.d. sampling error must be suppressed below the mean-field error.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = (np.arange(n, dtype=np.float64) + 0.5) / n
    try:
        x = np.asarray(target_cdf_inverse(u), dtype=np.float64)
    except (TypeError, ValueError):
        x = np.array([target_cdf_inverse(float(ui)) for ui in u], dtype=np.float64)
    if x.shape != (n,):
        x = np.broadcast_to(x, (n,)).astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise SimulationError("inverse CDF returned non-finite quantiles")
    return ParticleState(np.sort(x)[:, None], time=0.0)


def gaussian_sample_state(
    mean: Sequence[float],
    covariance_diagonal: Sequence[float],
    n: int,
    rng: RngStream,
) -> ParticleState:
    """N i.i.d. draws from a diagonal Gaussian on R^m."""
    mean = np.asarray(mean, dtype=np.float64).ravel()
    var = np.asarray(covariance_diagonal, dtype=np.float64).ravel()
    if mean.shape != var.shape:
        raise ValueError("mean and covariance_diagonal must have equal length")
    if np.any(var < 0):
        raise ValueError("variances must be nonnegative")
    m = mean.shape[0]
    z = np.atleast_2d(rng.normal(size=(n, m)))
    return ParticleState(mean[None, :] + np.sqrt(var)[None, :] * z, time=0.0)
