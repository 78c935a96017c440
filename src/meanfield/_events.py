"""Internals of the event-driven collision engine.

The jump processes draw one global exponential clock and a uniform pair
per event (superposition of the per-pair Poisson clocks, same law, O(1)
per event).  Exactness under vectorization rests on two facts:

* collision updates on disjoint pairs commute, so any schedule that keeps
  every particle's own events in stream order realizes the same
  trajectory bit for bit;
* every stream hands out its per-event randomness in event order, never
  in batch order, so nothing random depends on the schedule.  The
  waiting times, pairs and deviation-angle cosines are drawn when the
  record is made; the rest of an event's words, its raw frame vector
  for the azimuth and then, for the thermostat, its bath normals, come
  next in each stream, one row per event, drawn chunk by chunk just
  before the chunk is played (Philox streams can be read in pieces with
  no change to a word).  Nothing is drawn past the last snapshot.

``play_events`` is the one snapshot/batch loop.  A model hands it a
collision rule, called once per batch of disjoint pairs
(``apply_pair_collisions``, elastic or inelastic, or the coupled gas's
rule), and optionally a bath that moves particles between their jumps
(the thermostat's Brownian forcing) with the normals of its events' row
tails, so every model plays under the one schedule.

The record is cut at the snapshots when it is drawn: one
``EventSegment`` per snapshot holds the events since the previous one,
24 bytes each (time, two int32 pair indices, cosine), and
``play_events`` consumes the record, releasing each segment once it is
played, before the snapshot is copied.  A segment is played in chunks of
consecutive events; within a chunk every event gets the ASAP level of
its per-particle dependency DAG (``level_schedule``), and each level is
one batch of events on disjoint particles.  Levels are few (8-13 for a
chunk of 12,000-16,384 events on 16,384 or 32,768 particles), so the
per-batch numpy overhead is paid about a dozen times per chunk instead
of once per ~sqrt(N) events.
Replicas stack into one system: replica r owns particles r N .. r N +
N - 1, and each segment holds the whole block's events of its interval,
replica after replica, with pair indices offset by r N.  Their events
never share a particle and each replica keeps its own streams, so a
stacked block plays every replica exactly as it would play alone, in as
many batches as its deepest replica needs.

The collision kernel works coordinate-major: the block is played on a
``(d, R N)`` copy whose row c holds coordinate c of every particle, so
each per-pair scalar (relative speed, cosine, sine) broadcasts along the
long axis, and a batch gathers and scatters whole columns.  Dot products
and norms add their d terms in the order numpy's row-wise einsum and
``np.linalg.norm`` use (``column_dot``, ``column_norms``), so the
trajectory is bit for bit the row-major one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import replica_normals


@dataclass
class EventSegment:
    """The events of a replica block between two snapshots: enough to replay them.

    The streams are stacked: replica r's events are ``bounds[r]:bounds[r +
    1]``, in its stream order, and its pair indices (int32) are rows of
    the stacked state (offset by r N).  An event takes 24 bytes: its
    frame vector and bath normals are not kept but drawn when the event
    is played (``play_events``).
    """

    times: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    costh: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


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
        # unique keys: any sort is stable; int64, as int32 pairs would overflow
        by_particle = np.argsort(np.multiply(ends, 2 * k, dtype=np.int64) + np.arange(2 * k))
    sorted_ends = ends[by_particle]
    prev = np.full(2 * k, k, dtype=np.int64)  # event k stands for "none", always placed
    src = by_particle[:-1] >> 1  # the event of the slot before, unless another particle's
    src[sorted_ends[1:] != sorted_ends[:-1]] = k
    prev[by_particle[1:]] = src
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


def column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the columns of coordinate-major (d, k) arrays.

    Bit for bit ``np.einsum("ij,ij->i", a.T, b.T)`` on row-major copies:
    below d = 8 numpy's einsum keeps two running sums, the even and the
    odd coordinates, and adds them last; that order is written out here,
    so it also holds whatever SIMD loop numpy dispatches.
    """
    d = a.shape[0]
    if d >= 8:
        return np.einsum("ij,ij->i", np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    even = a[0] * b[0]
    for c in range(2, d, 2):
        even += a[c] * b[c]
    if d == 1:
        return even
    odd = a[1] * b[1]
    for c in range(3, d, 2):
        odd += a[c] * b[c]
    return np.add(even, odd, out=even)


def column_norms(u: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a coordinate-major (d, k) array.

    Bit for bit ``np.linalg.norm`` over the rows of a row-major copy:
    numpy adds the squares of a row shorter than 8 left to right, which
    adding the squared coordinates in turn reproduces; longer rows it sums
    pairwise, so those go to numpy.
    """
    if u.shape[0] >= 8:
        return np.linalg.norm(np.ascontiguousarray(u.T), axis=1)
    s = u[0] * u[0]
    for c in range(1, u.shape[0]):
        s += u[c] * u[c]
    return np.sqrt(s, out=s)


def frame_width(dim: int) -> int:
    """Frame words per event in dimension dim: one per coordinate, none at d = 1 (no azimuth)."""
    return dim if dim >= 2 else 0


def sine_of(costh: np.ndarray) -> np.ndarray:
    """sqrt(1 - costh^2), clipped at 0: the sine of the deviation angle."""
    return np.sqrt(np.maximum(0.0, 1.0 - costh**2))


def _orthonormal_to(uhat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit columns orthogonal to the columns of uhat, azimuth carried by g."""
    e = g - column_dot(g, uhat) * uhat
    norms = column_norms(e)
    bad = norms < 1e-12
    if np.any(bad):
        # g (anti)parallel to uhat: deterministic completion via the axis
        # least aligned with uhat
        for col in np.nonzero(bad)[0]:
            u = uhat[:, col].copy()
            axis = np.zeros(len(u))
            axis[int(np.argmin(np.abs(u)))] = 1.0
            v = axis - (axis @ u) * u
            e[:, col] = v
            norms[col] = np.linalg.norm(v)
    e /= norms
    return e


def deviation_vectors(u: np.ndarray, r: np.ndarray, costh: np.ndarray, frames: np.ndarray,
                      sinth: np.ndarray) -> np.ndarray:
    """Unit columns sigma with sigma·(u/r) = costh, azimuth uniform via frames.

    u and frames are coordinate-major (d, k); at d = 1 frames (0, k) is
    unused.  Columns with r == 0 return an arbitrary placeholder (the
    caller must mask them; the collision update leaves such pairs
    unchanged anyway).  ``sinth`` is ``sine_of(costh)``, which a caller
    computes once for many batches.
    """
    uhat = u / np.where(r > 0.0, r, 1.0)
    if u.shape[0] == 1:
        return costh * uhat
    ehat = _orthonormal_to(uhat, frames)
    ehat *= sinth
    uhat *= costh
    uhat += ehat
    return uhat


def rotate_between(p: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply, columnwise, the rotation taking unit p onto unit q to x.

    The minimal rotation in span(p, q); for antipodal columns (measure
    zero) the deterministic fallback is the reflection across the plane
    normal to p, which also maps p to q = -p and preserves angles to the
    axis.
    """
    pq = column_dot(p, q)
    out = np.empty_like(x)
    same = np.all(p == q, axis=0)  # identical geometry: exact identity
    ok = (pq > -1.0 + 1e-12) & ~same
    out[:, same] = x[:, same]
    if np.any(ok):
        s = p[:, ok] + q[:, ok]
        coef = column_dot(s, x[:, ok]) / (1.0 + pq[ok])
        px = column_dot(p[:, ok], x[:, ok])
        out[:, ok] = x[:, ok] - coef * s + 2.0 * px * q[:, ok]
    cols = ~ok & ~same
    if np.any(cols):
        px = column_dot(p[:, cols], x[:, cols])
        out[:, cols] = x[:, cols] - 2.0 * px * p[:, cols]
    return out


def put_columns(x: np.ndarray, idx: np.ndarray, v: np.ndarray) -> None:
    """``x[:, idx] = v`` for a C-contiguous (d, M) x, as one flat scatter."""
    if not x.flags.c_contiguous:  # a flat copy would take the writes
        raise ValueError("the coordinate-major array must be C-contiguous")
    x.reshape(-1)[idx + np.arange(0, x.size, x.shape[1])[:, None]] = v


def pair_geometry(x: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """Sums w, differences u and relative speeds r of the column pairs (ii, jj) of x."""
    vi = x.take(ii, axis=1)
    vj = x.take(jj, axis=1)
    w = vi + vj
    u = np.subtract(vi, vj, out=vi)  # in place: same arithmetic, fewer temporaries
    return w, u, column_norms(u)


def put_pairs(x: np.ndarray, ii: np.ndarray, jj: np.ndarray, w: np.ndarray, u_star: np.ndarray,
              moving: np.ndarray) -> None:
    """Write (w ± u_star) / 2 to the columns ii and jj of x; pairs not moving stay put."""
    vi_new = w + u_star
    vi_new *= 0.5
    vj_new = np.subtract(w, u_star, out=w)
    vj_new *= 0.5
    if not moving.all():  # pairs at zero relative velocity stay put
        ii, jj, vi_new, vj_new = ii[moving], jj[moving], vi_new[:, moving], vj_new[:, moving]
    put_columns(x, ii, vi_new)
    put_columns(x, jj, vj_new)


def apply_pair_collisions(x: np.ndarray, ii: np.ndarray, jj: np.ndarray, costh: np.ndarray,
                          frames: np.ndarray, sinth: np.ndarray,
                          restitution: float | None = None) -> None:
    """One batch of collisions on the disjoint column pairs (ii, jj) of x, in place.

    x is C-contiguous and coordinate-major (d, M).  Pair k collides with
    deviation cosine costh[k], its sine sinth[k] and frame column
    frames[:, k] of the (d, k) frames, (0, k) at d = 1.  restitution None
    means the elastic rule (relative speed preserved); otherwise the
    inelastic rule with that coefficient.
    """
    w, u, r = pair_geometry(x, ii, jj)
    sigma = deviation_vectors(u, r, costh, frames, sinth)
    if restitution is None:
        u_star = np.multiply(r, sigma, out=sigma)
    else:
        u_star = 0.5 * (1.0 - restitution) * u + 0.5 * (1.0 + restitution) * r * sigma
    put_pairs(x, ii, jj, w, u_star, r > 0.0)


# a segment is played in chunks of at most this many events: one chunk per
# snapshot segment of a 16,384-particle chaos-curve block (11-13 levels
# for its ~12,500 events, against ~12 levels per 4,096-event chunk).  The
# thermostat at N = 32768 takes 8-10 levels per full chunk
CHUNK_EVENTS = 16384


def _play_chunk(x, seg: EventSegment, c0: int, c1: int, owners, rngs, width: int, collide,
                bath) -> None:
    """Play the events ``c0:c1`` of a segment on x in their level schedule.

    A function of its own, so that a chunk's normals are freed before the
    next chunk draws its own.
    """
    order, batches = level_schedule(seg.pair_i[c0:c1], seg.pair_j[c0:c1])
    pi, pj, costh = (a[c0:c1].take(order) for a in (seg.pair_i, seg.pair_j, seg.costh))
    sinth = sine_of(costh)
    # each owner's next rows of [frame | bath] normals, drawn from its own
    # stream in stream order, taken in play order; the transposes are views
    tail = 0 if bath is None else bath.width
    z = replica_normals(rngs, owners, width + tail).take(order, axis=0).T
    frames = z[:width]
    if bath is not None:
        now = seg.times[c0:c1].take(order)
    for lo, hi in batches:
        ii, jj = pi[lo:hi], pj[lo:hi]
        if bath is not None:
            bath.kick(x, ii, jj, now[lo:hi], z[width:, lo:hi])
        collide(x, ii, jj, costh[lo:hi], frames[:, lo:hi], sinth[lo:hi])


def _play_segment(x, seg: EventSegment, rngs, width: int, collide, bath) -> None:
    """Play one segment on x, in chunks of at most ``CHUNK_EVENTS`` consecutive events."""
    live = np.flatnonzero(np.diff(seg.bounds))  # replicas with events in the segment
    starts, ends = seg.bounds[live], seg.bounds[live + 1]
    for c0 in range(0, len(seg), CHUNK_EVENTS):
        c1 = min(c0 + CHUNK_EVENTS, len(seg))
        k0, k1 = np.searchsorted(ends, c0, side="right"), np.searchsorted(starts, c1)
        counts = np.minimum(ends[k0:k1], c1) - np.maximum(starts[k0:k1], c0)
        owners = list(zip(live[k0:k1].tolist(), counts.tolist()))
        _play_chunk(x, seg, c0, c1, owners, rngs, width, collide, bath)


def play_events(x: np.ndarray, record: list[EventSegment], snaps: np.ndarray, rngs, width: int,
                collide, bath=None) -> list[np.ndarray]:
    """Play a stacked event record on x in place; row copies of x at the snapshots.

    x is the C-contiguous coordinate-major ``(d, R n)`` working copy of a
    stacked state; each snapshot is a ``(R n, d)`` copy of its rows.
    ``record`` holds one segment per snapshot, the events since the
    previous snapshot, and is consumed: each segment leaves the list and
    is released once played, before its snapshot is copied.  A segment is
    played in chunks of consecutive events (replica by replica, each in
    stream order), each chunk in its level schedule.  ``collide(x, ii, jj,
    costh, frames, sinth)``, the signature of :func:`apply_pair_collisions`,
    plays one batch: one level's events on disjoint pairs.  Just before a
    chunk is played, each of its owners, one ``(r, count)`` per span of
    ``count`` consecutive events of replica r, draws one row of normals
    per event from ``rngs[r]``, in stream order: ``width`` frame normals
    (``frame_width``), then ``bath.width`` more when a bath is given; one
    word block per owner, one transform per chunk.  ``bath``, when given,
    moves particles between their jumps: ``bath.kick(x, ii, jj, now, z)``
    runs before each batch collides, with the batch's event times and the
    ``(bath.width, k)`` tails of its rows, and ``bath.sync(x, s)`` runs
    right before the state at time s is copied.
    """
    out = []
    for s in snaps:
        # the call holds the segment's last reference: it and the chunk arrays go before the copy
        _play_segment(x, record.pop(0), rngs, width, collide, bath)
        if bath is not None:
            bath.sync(x, float(s))
        out.append(x.T.copy())
    return out
