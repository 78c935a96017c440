"""Reference forms of the event engine and the Euler-Maruyama step, kept as test oracles.

These are one stream's events of one snapshot interval, drawn alone
(the engine draws each interval of a replica block just before playing
it, every stream in this order), the row-major collision rules the
engine used before it played each replica block as one coordinate-major
system, the per-replica loop of the coupled contraction check, and the
one-step Euler-Maruyama draw; the package must reproduce them bit for
bit.  ``sample_pairs`` draws uniform pairs for tests of the schedule and
the collision rules; it is not the engine's pair draw.
"""

import math

import numpy as np

from meanfield._events import sine_of
from meanfield.core import RngStream, replica_normals, replica_size
from meanfield.elastic import simulate_kac_coupled
from meanfield.mckean import _em_step


def sample_event_times(rate: float, t0: float, t1: float, rng: RngStream) -> np.ndarray:
    """Jump times of a Poisson clock of the given rate on (t0, t1), one stream alone."""
    if rate <= 0.0 or t1 <= t0:
        return np.empty(0)
    out = []
    t = t0
    expected = max(64, int(1.2 * rate * (t1 - t0)) + 16)
    while True:
        gaps = -(1.0 / rate) * np.log(rng.uniform(size=expected))
        times = t + np.cumsum(gaps)
        if times[-1] >= t1:
            out.append(times[times < t1])
            break
        out.append(times)
        t = float(times[-1])
        expected = max(64, int(0.25 * expected))
    return np.concatenate(out)


def sample_pairs(n: int, k: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """k uniform pairs (i, j), i != j, canonicalized to i < j."""
    a = rng.integers(0, n, size=k)
    b = rng.integers(0, n - 1, size=k)
    b = b + (b >= a)
    return np.minimum(a, b).astype(np.int64), np.maximum(a, b).astype(np.int64)


def generate_events_alone(n, rate, kernel, t0, t1, rng, width):
    """One stream's events in (t0, t1), drawn alone: (times, pair_i, pair_j, costh, normals).

    The clock, then one row of [cosine, i, j] uniforms per event, then
    one row of ``width`` normals per event (the frame, then a bath's).
    """
    times = sample_event_times(rate, t0, t1, rng)
    k = len(times)
    u = rng.uniform(size=(k, 3))
    i = np.floor(u[:, 1] * n).astype(np.int64)
    j = np.floor(u[:, 2] * (n - 1)).astype(np.int64)
    j += j >= i
    return (times, np.minimum(i, j), np.maximum(i, j), kernel.cosines(u[:, 0]),
            rng.normal(size=(k, width)))


def directional_temperature_flow(coords, n, times, axis=0):
    """E[S(t) | V_0] of each replica of the d = 3 elastic gas, isotropic kernel: (R, len(times)).

    S = Σ_i v_{i,axis}² over the replica's n particles; ``coords`` is the
    (R n, 3) stack of initial velocities.  Each pair collides at rate
    1/n, and a collision moves the pair's S by |u|²/6 − u_axis²/2 in the
    mean over the isotropic sigma.  Summed over the pairs, with the
    conserved momentum P and energy E = Σ|v_i|², the mean obeys
    dS/dt = −(S − S*)/2 with S* = P_axis²/n + E/3 − |P|²/(3n), so

        E[S(t) | V_0] = S* + (S(0) − S*) e^{−t/2}.
    """
    v = coords.reshape(-1, n, 3)
    p = v.sum(axis=1)
    energy = np.sum(v**2, axis=(1, 2))
    start = np.sum(v[..., axis] ** 2, axis=1)
    star = p[:, axis] ** 2 / n + energy / 3.0 - np.sum(p**2, axis=1) / (3.0 * n)
    decay = np.exp(-0.5 * np.asarray(times, dtype=np.float64))
    return star[:, None] + (start - star)[:, None] * decay


def reference_orthonormal_to(uhat, g):
    e = g - np.einsum("ij,ij->i", g, uhat)[:, None] * uhat
    norms = np.linalg.norm(e, axis=1)
    for row in np.nonzero(norms < 1e-12)[0]:
        axis = np.zeros(uhat.shape[1])
        axis[int(np.argmin(np.abs(uhat[row])))] = 1.0
        e[row] = axis - (axis @ uhat[row]) * uhat[row]
        norms[row] = np.linalg.norm(e[row])
    e /= norms[:, None]
    return e


def reference_deviation_vectors(u, r, c, frames):
    uhat = u / np.where(r > 0.0, r, 1.0)[:, None]
    if frames is None:
        return c[:, None] * uhat
    ehat = reference_orthonormal_to(uhat, frames)
    ehat *= np.sqrt(np.maximum(0.0, 1.0 - c**2))[:, None]
    uhat *= c[:, None]
    uhat += ehat
    return uhat


def reference_apply(coords, pi, pj, costh, frames, restitution, batches, pre_batch_hook=None):
    """The collision loop as first written, on (N, d) rows: row fancy
    indexing, np.linalg.norm, np.einsum, the deviation-angle sine per batch."""
    for lo, hi in batches:
        ii, jj = pi[lo:hi], pj[lo:hi]
        if pre_batch_hook is not None:
            pre_batch_hook(lo, hi, ii, jj)
        vi, vj = coords[ii], coords[jj]
        w = vi + vj
        u = vi - vj
        r = np.linalg.norm(u, axis=1)
        sigma = reference_deviation_vectors(u, r, costh[lo:hi],
                                            None if frames is None else frames[lo:hi])
        if restitution is None:
            u_star = r[:, None] * sigma
        else:
            u_star = 0.5 * (1.0 - restitution) * u + 0.5 * (1.0 + restitution) * r[:, None] * sigma
        moving = r > 0.0
        coords[ii[moving]] = (0.5 * (w + u_star))[moving]
        coords[jj[moving]] = (0.5 * (w - u_star))[moving]


def apply_batches(rule, x, pi, pj, costh, frames, batches, **kwargs) -> None:
    """A per-batch collision rule on each ``(lo, hi)`` batch in turn, as the engine plays a chunk.

    x is coordinate-major (d, M) and frames (d, K), (0, K) at d = 1.
    """
    sinth = sine_of(costh)
    for lo, hi in batches:
        rule(x, pi[lo:hi], pj[lo:hi], costh[lo:hi], frames[:, lo:hi], sinth[lo:hi], **kwargs)


def reference_rotate_between(p, q, x):
    pq = np.einsum("ij,ij->i", p, q)
    out = np.empty_like(x)
    same = np.all(p == q, axis=1)
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


def reference_apply_coupled(coords, pi, pj, costh, frames, batches):
    """The coupled elastic gas on rows [v_a | v_b], as first written."""
    d = coords.shape[1] // 2
    va, vb = coords[:, :d], coords[:, d:]
    for lo, hi in batches:
        ii, jj = pi[lo:hi], pj[lo:hi]
        ua = va[ii] - va[jj]
        ub = vb[ii] - vb[jj]
        ra = np.linalg.norm(ua, axis=1)
        rb = np.linalg.norm(ub, axis=1)
        fr = None if frames is None else frames[lo:hi]
        sigma_a = reference_deviation_vectors(ua, ra, costh[lo:hi], fr)
        safe_a = np.where(ra > 0.0, ra, 1.0)[:, None]
        safe_b = np.where(rb > 0.0, rb, 1.0)[:, None]
        sigma_b = reference_rotate_between(ua / safe_a, ub / safe_b, sigma_a)
        direct_b = reference_deviation_vectors(ub, rb, costh[lo:hi], fr)
        sigma_b = np.where((ra > 0.0)[:, None], sigma_b, direct_b)
        for v, r, sigma in ((va, ra, sigma_a), (vb, rb, sigma_b)):
            moving = r > 0.0
            w = v[ii] + v[jj]
            u_star = r[:, None] * sigma
            v[ii[moving]] = 0.5 * (w + u_star)[moving]
            v[jj[moving]] = 0.5 * (w - u_star)[moving]


def reference_diffuse(coords, idx, last_sync, now, nu, z) -> None:
    """The bath's catch-up of rows idx to time now, as first written."""
    dt = now - last_sync[idx]
    coords[idx] += np.sqrt(np.maximum(2.0 * nu * dt, 0.0))[:, None] * z
    last_sync[idx] = now


def tanaka_per_replica(initial_pair_sampler, kernel, time_grid, rngs):
    """``harness.tanaka_contraction_check``'s W2 table, one coupled run per replica.

    Replica r samples its pair from ``rngs[r]``, then plays it alone; row r
    holds its matched-atom costs at the times of the grid.
    """
    times = np.asarray(time_grid, dtype=np.float64)
    vals = np.empty((len(rngs), len(times)))
    for r, stream in enumerate(rngs):
        state_a, state_b = initial_pair_sampler(stream)
        out_a, out_b = simulate_kac_coupled(state_a, state_b, kernel, float(times[-1]), times,
                                            [stream])
        for k, (sa, sb) in enumerate(zip(out_a, out_b)):
            vals[r, k] = math.sqrt(float(np.mean(np.sum((sa.coords - sb.coords) ** 2, axis=1))))
    return vals


def em_step(state, spec, dt, rngs):
    """One Euler-Maruyama step of a replica stack, replica r driven by ``rngs[r]``.

    Each stream draws the step's N m normals in one call, the per-step
    form of the K-step draws of ``mckean.simulate_mkv``.
    """
    n = replica_size(state, rngs)
    return _em_step(state, spec, dt, len(rngs),
                    replica_normals(rngs, [(r, n) for r in range(len(rngs))], state.dim))
