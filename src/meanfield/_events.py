"""Internals of the event-driven collision engine.

The jump processes draw one global exponential clock and a uniform pair
per event (superposition of the per-pair Poisson clocks, same law, O(1)
per event).  Exactness under vectorization rests on two facts:

* collision updates on disjoint pairs commute, so any schedule that keeps
  every particle's own events in stream order realizes the same
  trajectory bit for bit;
* all per-event randomness (waiting time, pair, deviation-angle cosine,
  a raw frame vector for the azimuth, and the thermostat's bath normals)
  is drawn up front in event order, so nothing random depends on the
  schedule.

``play_events`` is the one snapshot/batch loop.  The events up to each
snapshot form a segment, played in chunks of consecutive events; within
a chunk every event gets the ASAP level of its per-particle dependency
DAG (``level_schedule``), and each level is one batch of events on
disjoint particles.  Levels are few (11-13 for a chunk of 12,000-16,000
events on 16,384 or 32,768 particles), so the per-batch numpy overhead
is paid about a dozen times per chunk instead of once per ~sqrt(N)
events.
Replicas stack into one system: replica r owns rows r N .. r N + N - 1
and its pair indices are offset by r N.  Their events never share a
particle and each replica keeps its own streams, so a stacked block
plays every replica exactly as it would play alone, in as many batches
as its deepest replica needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RngStream


@dataclass
class EventRecord:
    """Realized event stream: enough to replay the same collisions elsewhere."""

    times: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    costh: np.ndarray
    frames: np.ndarray | None

    def __len__(self) -> int:
        return len(self.times)


def sample_event_times(rate: float, t0: float, t1: float, rng: RngStream) -> np.ndarray:
    """Jump times of a Poisson clock of the given rate on (t0, t1]."""
    if rate <= 0.0 or t1 <= t0:
        return np.empty(0)
    out = []
    t = t0
    expected = max(64, int(1.2 * rate * (t1 - t0)) + 16)
    while True:
        gaps = rng.exponential(scale=1.0 / rate, size=expected)
        times = t + np.cumsum(gaps)
        if times[-1] >= t1:
            out.append(times[times < t1])
            break
        out.append(times)
        t = float(times[-1])
        expected = max(64, int(0.25 * expected))
    return np.concatenate(out) if out else np.empty(0)


def sample_pairs(n: int, k: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """k uniform pairs (i, j), i != j, canonicalized to i < j.

    The collision laws are orientation-free (swapping the pair and
    reflecting sigma preserves the update law), so the canonical order
    loses nothing.
    """
    a = rng.integers(0, n, size=k)
    b = rng.integers(0, n - 1, size=k)
    b = b + (b >= a)
    return np.minimum(a, b).astype(np.int64), np.maximum(a, b).astype(np.int64)


def level_schedule(pi: np.ndarray, pj: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Dependency-level schedule: play order and one ``(lo, hi)`` batch per level.

    An event depends on the previous event, in stream order, of each of
    its two particles; its level is one more than the highest level it
    depends on, 0 without dependencies (the ASAP level of the dependency
    DAG).  Events of one level touch disjoint particles and every
    particle meets its events in stream order.  Found by peeling: each
    pass places every pending event whose dependencies are all placed.
    ``order`` lists the events level by level, in stream order within a
    level, and ``order[lo:hi]`` of each batch is one level.
    """
    k = len(pi)
    ends = np.column_stack((pi, pj)).ravel()  # event e owns slots 2e, 2e+1
    if k and ends.max() < 65536:
        # numpy's stable sort of 16-bit keys is a radix sort; stability
        # keeps each particle's slots in stream order
        by_particle = np.argsort(ends.astype(np.uint16), kind="stable")
    else:
        # unique keys: any sort is stable
        by_particle = np.argsort(ends * (2 * k) + np.arange(2 * k))
    sorted_ends = ends[by_particle]
    prev = np.full(2 * k, k, dtype=np.int64)  # event k stands for "none", always placed
    follows = sorted_ends[1:] == sorted_ends[:-1]
    prev[by_particle[1:][follows]] = by_particle[:-1][follows] // 2
    dep_i, dep_j = prev[0::2], prev[1::2]
    placed = np.zeros(k + 1, dtype=bool)
    placed[k] = True
    levels = []
    pending = np.arange(k)
    while pending.size:
        ready = placed[dep_i[pending]] & placed[dep_j[pending]]
        now = pending[ready]
        if not now.size:  # only an event on a pair (p, p) waits on itself
            raise ValueError("an event pairs a particle with itself")
        placed[now] = True
        levels.append(now)
        pending = pending[~ready]
    edges = np.cumsum([0] + [len(lv) for lv in levels]).tolist()
    order = np.concatenate(levels) if levels else np.empty(0, dtype=np.int64)
    return order, list(zip(edges[:-1], edges[1:]))


def row_norms(u: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of u, bit for bit ``np.linalg.norm(u, axis=1)``.

    numpy adds the squares of a row shorter than 8 left to right, which
    adding the squared columns in turn reproduces at a fraction of the
    cost; longer rows it sums pairwise, so those go to numpy.
    """
    if u.shape[1] >= 8:
        return np.linalg.norm(u, axis=1)
    s = u[:, 0] * u[:, 0]
    for c in range(1, u.shape[1]):
        s += u[:, c] * u[:, c]
    return np.sqrt(s, out=s)


def sine_of(costh: np.ndarray) -> np.ndarray:
    """sqrt(1 - costh^2), clipped at 0: the sine of the deviation angle."""
    return np.sqrt(np.maximum(0.0, 1.0 - costh**2))


def _orthonormal_to(uhat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit vectors orthogonal to the rows of uhat, azimuth carried by g."""
    e = g - np.einsum("ij,ij->i", g, uhat)[:, None] * uhat
    norms = row_norms(e)
    bad = norms < 1e-12
    if np.any(bad):
        # g (anti)parallel to uhat: deterministic completion via the axis
        # least aligned with uhat
        for row in np.nonzero(bad)[0]:
            axis = np.zeros(uhat.shape[1])
            axis[int(np.argmin(np.abs(uhat[row])))] = 1.0
            v = axis - (axis @ uhat[row]) * uhat[row]
            e[row] = v
            norms[row] = np.linalg.norm(v)
    e /= norms[:, None]
    return e


def deviation_vectors(
    u: np.ndarray,
    r: np.ndarray,
    costh: np.ndarray,
    frames: np.ndarray | None,
    sinth: np.ndarray | None = None,
) -> np.ndarray:
    """Unit vectors sigma with sigma·(u/r) = costh, azimuth uniform via frames.

    Rows with r == 0 return an arbitrary placeholder (the caller must mask
    them; the collision update leaves such pairs unchanged anyway).
    ``sinth`` is ``sine_of(costh)``, passed by a caller that computes it
    once for many batches.
    """
    d = u.shape[1]
    safe_r = np.where(r > 0.0, r, 1.0)
    uhat = u / safe_r[:, None]
    if d == 1:
        return costh[:, None] * uhat
    ehat = _orthonormal_to(uhat, frames)
    ehat *= (sine_of(costh) if sinth is None else sinth)[:, None]
    uhat *= costh[:, None]
    uhat += ehat
    return uhat


def rotate_between(p: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply, rowwise, the rotation taking unit p onto unit q to x.

    The minimal rotation in span(p, q); for antipodal rows (measure zero)
    the deterministic fallback is the reflection across the plane normal
    to p, which also maps p to q = -p and preserves angles to the axis.
    """
    pq = np.einsum("ij,ij->i", p, q)
    out = np.empty_like(x)
    same = np.all(p == q, axis=1)  # identical geometry: exact identity
    ok = (pq > -1.0 + 1e-12) & ~same
    out[same] = x[same]
    if np.any(ok):
        s = p[ok] + q[ok]
        coef = np.einsum("ij,ij->i", s, x[ok]) / (1.0 + pq[ok])
        px = np.einsum("ij,ij->i", p[ok], x[ok])
        out[ok] = x[ok] - coef[:, None] * s + 2.0 * px[:, None] * q[ok]
    rows = ~ok & ~same
    if np.any(rows):
        px = np.einsum("ij,ij->i", p[rows], x[rows])
        out[rows] = x[rows] - 2.0 * px[:, None] * p[rows]
    return out


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array as one opaque record each (a view; rows must be contiguous).

    Scattering records copies whole rows, far cheaper than a 2-D fancy
    assignment that walks every element.
    """
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]


def apply_pair_collisions(
    coords: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    costh: np.ndarray,
    frames: np.ndarray | None,
    restitution: float | None,
    batches: list[tuple[int, int]],
    pre_batch_hook=None,
) -> None:
    """Apply the collision sequence to coords (rows contiguous) in place.

    restitution None means the elastic rule (relative speed preserved);
    otherwise the inelastic rule with that coefficient.  pre_batch_hook,
    when given, is called as hook(lo, hi, idx_i, idx_j) before each batch
    (the thermostat uses it to bring colliding particles up to date with
    their diffusion).
    """
    rows = _rows(coords)
    sinth = None if frames is None else sine_of(costh)
    for lo, hi in batches:
        ii = pi[lo:hi]
        jj = pj[lo:hi]
        if pre_batch_hook is not None:
            pre_batch_hook(lo, hi, ii, jj)
        vi = coords.take(ii, axis=0)
        vj = coords.take(jj, axis=0)
        w = vi + vj
        u = np.subtract(vi, vj, out=vi)  # in place: same arithmetic, fewer temporaries
        r = row_norms(u)
        sigma = deviation_vectors(u, r, costh[lo:hi], None if frames is None else frames[lo:hi],
                                  None if sinth is None else sinth[lo:hi])
        if restitution is None:
            u_star = np.multiply(r[:, None], sigma, out=sigma)
        else:
            u_star = 0.5 * (1.0 - restitution) * u + 0.5 * (1.0 + restitution) * r[:, None] * sigma
        vi_new = w + u_star
        vi_new *= 0.5
        vj_new = np.subtract(w, u_star, out=w)
        vj_new *= 0.5
        moving = r > 0.0
        if not moving.all():  # pairs at zero relative velocity stay put
            ii, jj, vi_new, vj_new = ii[moving], jj[moving], vi_new[moving], vj_new[moving]
        rows[ii] = _rows(vi_new)
        rows[jj] = _rows(vj_new)


# a segment is played in chunks of at most this many events: one chunk per
# snapshot segment of a 16,384-particle chaos-curve block (11-13 levels
# for its ~12,500 events, against ~12 levels per 4,096-event chunk).  The
# thermostat at N = 32768 takes 11 levels per chunk; over repeated
# thermostat and McKean runs in one process its peak RSS stayed at
# 124-126 MB, as with 4,096-event chunks, once chunk fields are gathered
# without extra copies (``_in_play_order``)
CHUNK_EVENTS = 16384


def _chunks(spans, limit: int):
    """Split ``(replica, record, lo, hi)`` spans into runs of at most limit events, in order."""
    chunk, size = [], 0
    for r, rec, lo, hi in spans:
        while lo < hi:
            take = min(hi - lo, limit - size)
            chunk.append((r, rec, lo, lo + take))
            size += take
            lo += take
            if size == limit:
                yield chunk
                chunk, size = [], 0
    if chunk:
        yield chunk


def _in_play_order(chunk, field: str, order: np.ndarray) -> np.ndarray:
    """One event field of a chunk's spans, gathered into play order.

    A one-span chunk is gathered straight from its record: chunk-sized
    copies fragment the heap of a long run (with them, a second
    thermostat run at N = 32768 peaked ~5 MB higher).
    """
    parts = [getattr(rec, field)[lo:hi] for _, rec, lo, hi in chunk]
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)).take(order, axis=0)


def play_events(
    coords: np.ndarray,
    records: Sequence[EventRecord],
    snaps: np.ndarray,
    restitution: float | None = None,
    apply=None,
    on_chunk=None,
    on_snapshot=None,
) -> list[np.ndarray]:
    """Play event streams on coords in place; copies of coords at the snapshots.

    Record r drives rows r*n .. r*n + n - 1 of coords, n = len(coords) //
    len(records).  The events up to each snapshot time form a segment;
    events after the last snapshot are never observed and are left out.
    A segment is played in chunks of consecutive events (record by
    record, each in stream order), each chunk in its level schedule.
    ``apply`` (default :func:`apply_pair_collisions`, looked up at call
    time) has that function's signature and gets the chunk's event arrays
    in play order with one ``(lo, hi)`` batch per level.
    ``on_chunk(order, times, owners)``, when given, is called before
    each chunk with its play order (positions among the chunk's events in
    stream order), the event times in play order and the chunk's owners:
    one ``(r, count)`` per span, in stream order, for ``count``
    consecutive events of record r.  It returns the chunk's pre-batch
    hook.  ``on_snapshot(s)`` runs right before the state at time s is
    copied.
    """
    if apply is None:
        apply = apply_pair_collisions
    n = len(coords) // len(records)
    cursors = [0] * len(records)
    out = []
    for s in snaps:
        uptos = [int(np.searchsorted(rec.times, s, side="right")) for rec in records]
        spans = [(r, rec, lo, hi)
                 for r, (rec, lo, hi) in enumerate(zip(records, cursors, uptos)) if hi > lo]
        for chunk in _chunks(spans, CHUNK_EVENTS):
            pi = np.concatenate([rec.pair_i[lo:hi] + r * n for r, rec, lo, hi in chunk])
            pj = np.concatenate([rec.pair_j[lo:hi] + r * n for r, rec, lo, hi in chunk])
            order, batches = level_schedule(pi, pj)
            costh = _in_play_order(chunk, "costh", order)
            frames = None if records[0].frames is None else _in_play_order(chunk, "frames", order)
            hook = None
            if on_chunk is not None:
                hook = on_chunk(order, _in_play_order(chunk, "times", order),
                                [(r, hi - lo) for r, _, lo, hi in chunk])
            apply(coords, pi[order], pj[order], costh, frames, restitution, batches, hook)
        cursors = uptos
        if on_snapshot is not None:
            on_snapshot(float(s))
        out.append(coords.copy())
    return out
