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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

__all__ = [
    "ParticleState",
    "EmpiricalMeasure",
    "RngStream",
    "quantile_init_1d",
    "gaussian_sample_state",
    "canonical_atom_order",
    "replica_size",
    "replica_normals",
    "validate_snapshots",
    "run_fixed_steps",
]

_HALF_STEP = 2.0 ** -54  # half the spacing of the 53-bit uniform grid
_BELOW_ONE = np.float64(1.0 - 2.0 ** -53)


class SimulationError(RuntimeError):
    """Raised when a simulator detects invalid state (blow-up, bad input)."""


@dataclass
class RngStream:
    """Counter-based random stream, reproducible and splittable by id.

    Independent streams are obtained by varying ``stream_id`` under a fixed
    ``master_seed`` (Philox keyed through ``SeedSequence(master_seed,
    spawn_key=(stream_id,))``).  ``draw_counter`` counts scalar variates
    handed out, for audit headers.  Uniforms are ``(k + 0.5) * 2**-53``
    in float64, with k the top 53 bits of one raw 64-bit word.  Below
    k = 2**52 that is exact; above it the ``+ 0.5`` rounds away (ties to
    even), so k = 2**52 gives exactly 0.5 and the upper half lies on the
    ``k * 2**-53`` grid.  The one word that would round to 1.0,
    k = 2**53 - 1, is clamped to ``1 - 2**-53``, so every uniform lies
    strictly inside (0, 1).  Normals are inverse-transform (``ndtri``),
    hence finite, so the whole stream reduces to one documented uniform
    sequence.

    numpy's ``Generator.random`` returns exactly ``k * 2**-53`` from one
    word, and adding ``2**-54`` rounds as ``(k + 0.5) * 2**-53`` does
    (scaling by a power of two commutes with rounding), so the uniforms
    are filled in place with no integer pass.
    """

    master_seed: int
    stream_id: int = 0
    draw_counter: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("master_seed and stream_id must be nonnegative")
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def _count(self, size) -> int:
        # plain Python: np.prod costs more than a small draw itself
        if size is None:
            return 1
        if isinstance(size, (int, np.integer)):
            return int(size)
        return int(math.prod(size))

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform variates on the open interval (0, 1)."""
        if size is None:
            self.draw_counter += 1
            return min(np.float64(self._gen.random()) + _HALF_STEP, _BELOW_ONE)
        return open_unit(self.uniform_words(np.empty(size)))

    def uniform_words(self, out: np.ndarray) -> np.ndarray:
        """Fill the C-contiguous float64 ``out`` with the words ``k * 2**-53`` of its uniforms.

        ``open_unit`` turns them into the uniforms :meth:`uniform` would
        draw, element by element, so a caller can fill many small pieces
        of one buffer and shift the buffer once.
        """
        self._gen.random(out=out)
        self.draw_counter += out.size
        return out

    def normal(self, size=None) -> np.ndarray | float:
        """Standard normals via inverse transform of :meth:`uniform`."""
        u = self.uniform(size=size)
        if size is None:
            return ndtri(u)
        return ndtri(u, out=u)

    def integers(self, low: int, high: int, size=None, dtype=np.int64) -> np.ndarray | int:
        """Uniform integers in [low, high), of the given numpy integer dtype."""
        self.draw_counter += self._count(size)
        return self._gen.integers(low, high, size=size, dtype=dtype)

    def unit_vectors(self, dim: int, n: int) -> np.ndarray:
        """n independent uniform directions on the (dim-1)-sphere."""
        g = self.normal(size=(n, dim))
        g = np.atleast_2d(g)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        # k = 2**52 rounds to u = 0.5 exactly, a normal of exactly 0, so a
        # zero row has probability 2**(-53 dim); regenerate it
        bad = norms[:, 0] < 1e-300
        while np.any(bad):
            g[bad] = np.atleast_2d(self.normal(size=(int(bad.sum()), dim)))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            bad = norms[:, 0] < 1e-300
        return g / norms


def open_unit(words: np.ndarray) -> np.ndarray:
    """Shift ``RngStream.uniform_words`` in place onto (0, 1), as ``RngStream.uniform`` does."""
    words += _HALF_STEP
    # a read-only scan is cheaper than a clamp pass, and the top word is rare
    if np.maximum.reduce(words, axis=None, initial=0.0) == 1.0:
        np.minimum(words, _BELOW_ONE, out=words)
    return words


@dataclass
class ParticleState:
    """Configuration of N particles in R^m plus the simulation clock.

    ``coords`` is an (N, m) contiguous float64 array (the hot loops index
    rows).  For position-velocity models the row layout is ``x ⊕ v``.  A
    stack of R independent replicas of n particles is one state of R n
    rows: replica r owns rows r n .. r n + n - 1, so ``coords.reshape(R,
    n, m)`` is a view with one replica per leading index.
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


def _ascending_rows(x: np.ndarray) -> np.ndarray:
    """Whether each row of x (along the last axis) is strictly ascending."""
    return (x[..., 1:] > x[..., :-1]).all(axis=-1)


def canonical_atom_order(atoms: np.ndarray) -> np.ndarray:
    """Atoms sorted lexicographically by coordinates.

    Measurement functionals reduce over this order so their floating-point
    result is invariant under atom permutations, exactly.  ``atoms`` is one
    (N, m) configuration or a stack (..., N, m) of them, each sorted on its
    own.  Atoms already in that order come back as the same array, so a
    state canonicalized once costs O(N) per later functional.
    """
    lead = atoms[..., 0]
    if _ascending_rows(lead).all():
        return atoms
    n, m = atoms.shape[-2:]
    flat = atoms.reshape(-1, n, m)
    order = np.argsort(lead.reshape(-1, n), axis=-1)
    order += n * np.arange(len(flat))[:, None]  # row numbers in the (R N, m) stack
    out = flat.reshape(-1, m).take(order.ravel(), axis=0).reshape(flat.shape)
    # distinct leading coordinates fix the lexicographic order; ties need every key
    for r in np.flatnonzero(~_ascending_rows(out[..., 0])):
        out[r] = flat[r][np.lexsort(flat[r].T[::-1])]
    return out.reshape(atoms.shape)


def quantile_init_1d(target_cdf_inverse: Callable[[np.ndarray], np.ndarray],
                     n: int) -> ParticleState:
    """Deterministic midpoint-quantile configuration of a 1-D law.

    Places particle j at F^{-1}((j - 1/2)/n), ascending.  Used wherever the
    i.i.d. sampling error must be suppressed below the mean-field error.
    ``target_cdf_inverse`` maps the array of n levels to n quantiles.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = (np.arange(n, dtype=np.float64) + 0.5) / n
    x = np.asarray(target_cdf_inverse(u), dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise SimulationError("inverse CDF returned non-finite quantiles")
    return ParticleState(np.sort(x)[:, None], time=0.0)


def gaussian_sample_state(
    mean: Sequence[float],
    covariance_diagonal: Sequence[float],
    n: int,
    rng: RngStream | Sequence[RngStream],
) -> ParticleState:
    """N i.i.d. draws from a diagonal Gaussian on R^m.

    A sequence of streams gives a replica stack: replica r's N rows are
    drawn from ``rng[r]``, each bitwise its lone draw.
    """
    mean = np.asarray(mean, dtype=np.float64).ravel()
    var = np.asarray(covariance_diagonal, dtype=np.float64).ravel()
    if mean.shape != var.shape:
        raise ValueError("mean and covariance_diagonal must have equal length")
    if not np.all(np.isfinite(mean)):
        raise ValueError("means must be finite")
    if not np.all(np.isfinite(var)) or np.any(var < 0):
        raise ValueError("variances must be finite and nonnegative")
    rngs = [rng] if isinstance(rng, RngStream) else rng
    z = replica_normals(rngs, [(r, n) for r in range(len(rngs))], mean.shape[0])
    return ParticleState(mean + np.sqrt(var) * z, time=0.0)


def replica_size(state: ParticleState, rngs: Sequence[RngStream]) -> int:
    """Particles per replica of a stack driven by one stream per replica."""
    if not rngs or state.n_particles % len(rngs):
        raise ValueError(f"need at least one stream and a row count divisible by the stream "
                         f"count; got {state.n_particles} rows and {len(rngs)} streams")
    return state.n_particles // len(rngs)


def replica_normals(rngs: Sequence[RngStream], owners, width: int) -> np.ndarray:
    """Rows of ``width`` normals: ``count`` from ``rngs[r]`` for each ``(r, count)`` of owners.

    The package's one block normal draw: each owner's stream fills its
    rows of one buffer with the words of the uniforms ``RngStream.normal``
    would draw, and one shift and one ``ndtri`` pass transform the block.
    """
    z = np.empty((sum(k for _, k in owners), width))
    lo = 0
    for r, k in owners:
        rngs[r].uniform_words(z[lo:lo + k])
        lo += k
    return ndtri(open_unit(z), out=z)


def validate_snapshots(snapshot_times: Sequence[float], t0: float, t_end: float,
                       dt: float | None = None) -> np.ndarray:
    """Snapshot times as an array: finite, sorted, in [t0, t_end] and, given dt, on t0 + k dt."""
    if not t0 <= t_end < math.inf:  # NaN fails every comparison
        raise ValueError(f"t_end must not precede the start time and must be finite, got {t_end}")
    snaps = np.asarray(snapshot_times, dtype=np.float64)
    if not np.all(np.isfinite(snaps)):
        raise ValueError("snapshot times must be finite")
    if snaps.size and np.any(np.diff(snaps) < 0):
        raise ValueError("snapshot times must be sorted ascending")
    if snaps.size and (snaps[0] < t0 - 1e-12 or snaps[-1] > t_end + 1e-12):
        raise ValueError("snapshot times must lie in [start, t_end]")
    if dt is not None:
        steps = (snaps - t0) / dt
        off = np.abs(steps - np.rint(steps)) > 1e-6
        if off.any():
            raise ValueError(f"snapshot {snaps[off][0]} is not a multiple of dt={dt}")
    return snaps


def run_fixed_steps(x, step: Callable, emit: Callable, snapshot_times: Sequence[float],
                    t0: float, t_end: float, dt: float) -> list:
    """Fixed-step flow ``x = step(x, k)`` for k = 1, 2, ..., read at the snapshots.

    The snapshots obey ``validate_snapshots`` with the step dt; a
    repeated time is read once per repeat.  Returns
    ``emit(x, k)`` at each snapshot's step k (k = 0 is the initial x) and
    takes no step past the last snapshot.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    snaps = validate_snapshots(snapshot_times, t0, t_end, dt)
    out = []
    k = 0
    for target in np.rint((snaps - t0) / dt).astype(int):
        while k < target:
            k += 1
            x = step(x, k)
        out.append(emit(x, k))
    return out
