import numpy as np
import pytest
from scipy import stats

from meanfield import _events, elastic
from meanfield.core import ParticleState, RngStream, SimulationError, gaussian_sample_state
from meanfield.elastic import (
    AngularKernel,
    _apply_coupled,
    _generate_events,
    simulate_kac,
    simulate_kac_coupled,
)
from meanfield.thermostat import RestitutionParams, simulate_thermostat
from oracles import (
    TopWords,
    apply_batches,
    directional_temperature_flow,
    generate_events_alone,
    reference_apply,
    reference_apply_coupled,
    sample_pairs,
)


def test_kernel_normalization_witness():
    # raw_norm is the trapezoid integral of the density over S^{d-1}; the
    # isotropic density is 1/|S^{d-1}|, so it reads 1 (1 - 7.7e-10 at d = 3)
    for d in (2, 3, 4):
        assert abs(AngularKernel.isotropic(d).raw_norm - 1.0) < 1e-8
    k1 = AngularKernel.two_point(0.3, 0.9)
    assert k1.raw_norm == pytest.approx(1.2, abs=1e-15)
    assert abs(sum(k1.weights) - 1.0) < 1e-15
    assert k1.b1() == pytest.approx((0.3 - 0.9) / 1.2)


def test_kernel_rejects_negative_density():
    with pytest.raises(ValueError):
        AngularKernel(dim=3, density=lambda c: c)  # negative on [-1, 0)


@pytest.mark.parametrize("weights", [(np.nan, 0.5), (0.5, np.inf), (np.inf, np.inf)])
def test_two_point_kernel_refuses_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        AngularKernel.two_point(*weights)


def test_isotropic_b1_zero():
    assert AngularKernel.isotropic(3).b1() == pytest.approx(0.0, abs=1e-12)
    assert AngularKernel.isotropic(2).b1() == pytest.approx(0.0, abs=1e-10)


def test_custom_density_named_isotropic_samples_its_own_law():
    # the exact transform belongs to the isotropic factory, not to the name:
    # a tilted density named "isotropic" samples its own mean cosine (0.751),
    # not the uniform law's 0
    kern = AngularKernel(dim=3, density=lambda c: np.exp(4.0 * c), name="isotropic")
    u = RngStream(76, 0).uniform(size=100_000)
    mean = kern.cosines(u).mean()  # standard error 0.0009
    assert kern.b1() == pytest.approx(0.751, abs=5e-4)
    assert mean == pytest.approx(kern.b1(), abs=0.005)
    # the factory's kernels keep their closed forms, bit for bit
    assert AngularKernel.isotropic(3).cosines(u).tobytes() == (1.0 - 2.0 * u).tobytes()
    assert AngularKernel.isotropic(2).cosines(u).tobytes() == np.cos(u * np.pi).tobytes()


def collide(vi, vj, costh, frames=None, restitution=None):
    """Pairs (vi[k], vj[k]) through the engine's collision rule, as one batch."""
    x = np.concatenate([vi, vj]).astype(np.float64).T.copy()  # coordinate-major
    k = len(vi)
    pairs = np.arange(k)
    costh = np.asarray(costh, dtype=np.float64)
    _events.apply_pair_collisions(x, pairs, pairs + k, costh,
                                  np.empty((0, k)) if frames is None else np.asarray(frames).T,
                                  _events.sine_of(costh), restitution)
    return x.T[:k], x.T[k:]


def test_sample_sigma_isotropic_costheta_uniform_ks():
    k = AngularKernel.isotropic(3)
    rng = RngStream(42, 0)
    uhat = np.array([1.0, 0.0, 0.0])
    c = k.cosines(rng.uniform(size=100_000))
    ks = stats.kstest(c, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert ks.statistic < 0.01
    # the assembled sigma has the same cosine against uhat
    g = np.atleast_2d(rng.normal(size=(5000, 3)))
    sig = _events.deviation_vectors(np.tile(uhat, (5000, 1)).T, np.ones(5000), c[:5000], g.T,
                                    _events.sine_of(c[:5000])).T
    np.testing.assert_allclose(sig @ uhat, c[:5000], atol=1e-12)


def test_sample_sigma_spiked_kernel_aligns():
    # a spiked kernel barely deflects: the new relative velocity stays near u
    spike = AngularKernel(dim=3, density=lambda c: np.exp(400.0 * (c - 1.0)), name="spike")
    rng = RngStream(7, 0)
    uhat = np.array([0.0, 1.0, 0.0])
    vi, vj = collide(np.tile(uhat, (64, 1)), np.tile(-uhat, (64, 1)),
                     spike.cosines(rng.uniform(size=64)), np.atleast_2d(rng.normal(size=(64, 3))))
    sigma = (vi - vj) / 2.0
    assert np.all(sigma @ uhat > 0.97)


def test_sample_costheta_tabulated_matches_density():
    # non-isotropic smooth kernel; empirical CDF vs quadrature CDF
    dens = lambda c: 1.0 + 0.5 * c
    k = AngularKernel(dim=3, density=dens, name="tilted")
    c = k.cosines(RngStream(9, 0).uniform(size=200_000))
    # d=3 cosine marginal is density/norm with flat surface factor:
    # pdf (1 + c/2)/2 on [-1,1], CDF (x^2 + 4x + 3)/8
    cdf = lambda x: (x**2 + 4.0 * x + 3.0) / 8.0
    ks = stats.kstest(c, cdf)
    assert ks.statistic < 0.01


def test_collide_elastic_headon():
    # u = (2, 0) turned onto sigma = (0, 1): cos theta 0, frame along sigma
    vi, vj = collide([[1.0, 0.0]], [[-1.0, 0.0]], [0.0], np.array([[0.0, 1.0]]))
    np.testing.assert_array_equal(vi, [[0.0, 1.0]])
    np.testing.assert_array_equal(vj, [[0.0, -1.0]])


def test_collide_elastic_identity_when_sigma_parallel():
    vi0 = np.array([[2.0, 1.0, -1.0]])
    vj0 = np.array([[0.5, 1.0, 3.0]])
    vi, vj = collide(vi0, vj0, [1.0], np.array([[0.3, -1.2, 0.7]]))
    np.testing.assert_allclose(vi, vi0, atol=1e-14)
    np.testing.assert_allclose(vj, vj0, atol=1e-14)


def test_collide_elastic_zero_relative_velocity():
    v = np.array([[1.0, 2.0]])
    vi, vj = collide(v, v, [0.3], np.array([[0.0, 1.0]]))
    np.testing.assert_array_equal(vi, v)
    np.testing.assert_array_equal(vj, v)


def test_collide_elastic_conservation_random():
    rng = RngStream(13, 0)
    vi0 = np.atleast_2d(rng.normal(size=(200, 3)))
    vj0 = np.atleast_2d(rng.normal(size=(200, 3)))
    costh = AngularKernel.isotropic(3).cosines(rng.uniform(size=200))
    vi, vj = collide(vi0, vj0, costh, np.atleast_2d(rng.normal(size=(200, 3))))
    p0, p1 = vi0 + vj0, vi + vj
    e0 = np.sum(vi0**2 + vj0**2, axis=1)
    e1 = np.sum(vi**2 + vj**2, axis=1)
    assert np.all(np.linalg.norm(p1 - p0, axis=1)
                  <= 1e-12 * np.maximum(1.0, np.linalg.norm(p0, axis=1)))
    assert np.all(np.abs(e1 - e0) <= 1e-12 * e0)
    # sigma is a unit vector: the relative speed is kept
    np.testing.assert_allclose(np.linalg.norm(vi - vj, axis=1),
                               np.linalg.norm(vi0 - vj0, axis=1), rtol=1e-12)


def test_next_collision_rate_and_mean_wait():
    # N=2 -> rate (N-1)/2 = 1/2: about 100,000 waits of mean 2
    segment = _generate_events(2, 0.5, AngularKernel.two_point(0.5, 0.5), 0.0, 200_000.0,
                               [RngStream(21, 0)], 0)
    times = segment.times
    waits = np.diff(times, prepend=0.0)
    assert len(waits) > 99_000
    assert 1.98 <= waits.mean() <= 2.02

    # N=100 -> rate 49.5: check via expected number of events in simulate
    st100 = gaussian_sample_state(np.zeros(3), np.ones(3), 100, RngStream(3, 1))
    kern = AngularKernel.isotropic(3)
    dyn, alone = RngStream(3, 2), RngStream(3, 2)
    simulate_kac(st100, kern, 10.0, [10.0], [dyn])
    rec = _generate_events(100, 49.5, kern, 0.0, 10.0, [alone], 3)
    # the run drew exactly this interval: its clock, 3 uniforms and 3 frame
    # normals per event
    assert dyn.draw_counter == alone.draw_counter
    assert rec.normals.shape == (len(rec), 3)
    assert abs(len(rec) / 10.0 - 49.5) < 3.0 * np.sqrt(495.0) / 10.0 * 3


def pair_chi_square(pi: np.ndarray, pj: np.ndarray, n: int) -> float:
    """Pearson's statistic of the pairs i < j against the uniform law on the n(n-1)/2 cells."""
    counts = np.bincount(pi * n + pj, minlength=n * n).reshape(n, n)[np.triu_indices(n, 1)]
    expect = len(pi) / len(counts)
    return float(np.sum((counts - expect) ** 2) / expect)


# level 1e-3 over the 45 pair cells at N = 10: chi-square with 44 dof
PAIR_CELLS_CRITICAL = stats.chi2.ppf(1.0 - 1e-3, 44)  # 78.75


def engine_pairs(n, k, rng):
    """About k pairs of n particles from the engine: one interval of a clock of rate 1.

    The pair indices are rows of a one-replica stack, int64 for the tests.
    """
    seg = _generate_events(n, 1.0, AngularKernel.isotropic(1), 0.0, float(k), [rng], 0)
    return seg.pair_i.astype(np.int64), seg.pair_j.astype(np.int64)


def test_pair_marginal_uniform():
    # one goodness-of-fit test over all 45 cells of the engine's pair draw:
    # a correct sampler fails it with probability 1e-3 (this stream reads
    # 50.5, p = 0.23)
    n = 10
    pi, pj = engine_pairs(n, 1_000_000, RngStream(5, 0))
    assert len(pi) > 990_000 and np.all(pi < pj)
    assert pair_chi_square(pi, pj, n) < PAIR_CELLS_CRITICAL


def test_pair_chi_square_rejects_one_heavier_cell():
    # the engine's pairs, with each draw moved to cell (0, 1) with
    # probability eps, so that cell is 5 % heavier: p (1 - eps) + eps =
    # 1.05 p.  Over K draws the statistic's noncentrality is 0.0025 p K
    # (1 + 1/44): 56.8 at K = 10**6, rejected with probability 0.90, and
    # 227 at 4 * 10**6, rejected except with probability 4e-16 (these
    # streams read 229 moved and 47.1 unmoved).  Drawn in four intervals
    # of 10**6, one held at a time
    n = 10
    p = 2.0 / (n * (n - 1))
    moves = RngStream(5, 3)
    pairs = []
    for rng in (RngStream(5, 1), RngStream(5, 2)):
        parts = [engine_pairs(n, 1_000_000, rng) for _ in range(4)]
        pairs.append([np.concatenate(c) for c in zip(*parts)])
    pi, pj = pairs[0]
    moved = moves.uniform(size=len(pi)) < 0.05 * p / (1.0 - p)
    pi[moved], pj[moved] = 0, 1
    assert pair_chi_square(pi, pj, n) > PAIR_CELLS_CRITICAL
    assert pair_chi_square(*pairs[1], n) < PAIR_CELLS_CRITICAL  # the uniform law at this size


@pytest.mark.parametrize("n", [2, 3, 10, 1000, 2**20 + 1, 2**31 - 1])
def test_pair_indices_stay_below_n_at_the_top_word(n):
    # floor(u n) at the largest uniform the package draws: every index
    # below n, the pair (n - 2, n - 1)
    seg = _generate_events(n, 1.0, AngularKernel.isotropic(1), 0.0, 1e-14, [TopWords(5, 4)], 0)
    assert len(seg) > 64  # the first clock fill and a refill
    assert np.all(seg.pair_j < n) and np.all(seg.pair_i < seg.pair_j)
    assert seg.pair_i.tolist() == [n - 2] * len(seg) and seg.pair_j.tolist() == [n - 1] * len(seg)


def test_simulate_t_end_zero_returns_initial():
    st0 = gaussian_sample_state(np.zeros(2), np.ones(2), 8, RngStream(0, 0))
    out = simulate_kac(st0, AngularKernel.isotropic(2), 0.0, [0.0], [RngStream(0, 1)])
    np.testing.assert_array_equal(out[0].coords, st0.coords)
    assert out[0].time == 0.0


def test_simulate_identical_velocities_frozen():
    coords = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
    out = simulate_kac(ParticleState(coords), AngularKernel.isotropic(3), 5.0,
                       [1.0, 5.0], [RngStream(8, 0)])
    for s in out:
        np.testing.assert_array_equal(s.coords, coords)


def test_simulate_conservation_and_snapshots():
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 200, RngStream(17, 0))
    p0 = st0.coords.sum(axis=0)
    e0 = np.sum(st0.coords**2)
    snaps = [0.5, 1.0, 1.5, 2.0]
    out = simulate_kac(st0, AngularKernel.isotropic(3), 2.0, snaps, [RngStream(17, 1)])
    assert [s.time for s in out] == snaps
    for s in out:
        assert np.linalg.norm(s.coords.sum(axis=0) - p0) <= 1e-8 * np.sqrt(e0)
        assert abs(np.sum(s.coords**2) - e0) <= 1e-8 * e0


def test_simulate_rejects_unsorted_snapshots():
    st0 = gaussian_sample_state(np.zeros(2), np.ones(2), 4, RngStream(0, 0))
    with pytest.raises(ValueError, match="sorted"):
        simulate_kac(st0, AngularKernel.isotropic(2), 2.0, [1.5, 0.5], [RngStream(0, 1)])


def test_batched_apply_equals_sequential_oracle():
    # the level schedule must reproduce one-event-at-a-time application
    rng = RngStream(33, 0)
    n, d, k = 12, 3, 400
    x0 = np.atleast_2d(rng.normal(size=(n, d))).T.copy()
    pi, pj = sample_pairs(n, k, rng)
    costh = AngularKernel.isotropic(3).cosines(rng.uniform(size=k))
    frames = np.atleast_2d(rng.normal(size=(k, d))).T.copy()

    a = x0.copy()
    order, batches = _events.level_schedule(pi, pj)
    assert len(batches) < k // 2  # the schedule really batches
    apply_batches(_events.apply_pair_collisions, a, pi[order], pj[order], costh[order],
                  frames[:, order], batches)

    b = x0.copy()
    one_by_one = [(e, e + 1) for e in range(k)]
    apply_batches(_events.apply_pair_collisions, b, pi, pj, costh, frames, one_by_one)

    np.testing.assert_array_equal(a, b)


def test_level_schedule_properties():
    rng = RngStream(2, 0)
    n, k = 30, 500
    pi, pj = sample_pairs(n, k, rng)
    order, batches = _events.level_schedule(pi, pj)
    assert sorted(order.tolist()) == list(range(k))
    assert [lo for lo, _ in batches[1:]] == [hi for _, hi in batches[:-1]]
    level = np.empty(k, dtype=np.int64)
    for lv, (lo, hi) in enumerate(batches):
        level[order[lo:hi]] = lv
    assert level[0] == 0
    for lv in range(len(batches)):
        at = np.flatnonzero(level == lv)
        touched = np.concatenate([pi[at], pj[at]])
        assert len(np.unique(touched)) == len(touched)  # disjoint within a level
        if lv > 0:  # ASAP: each event waits on some event one level down
            below = np.flatnonzero(level == lv - 1)
            below_parts = set(np.concatenate([pi[below], pj[below]]).tolist())
            assert all({pi[e], pj[e]} & below_parts for e in at)
    for p in range(n):  # each particle meets its events in stream order
        mine = np.flatnonzero((pi == p) | (pj == p))
        assert np.all(np.diff(level[mine]) > 0)


def keyed_level_schedule(pi, pj):
    """Oracle: the level schedule with slots ordered by one keyed argsort."""
    k = len(pi)
    slot = np.arange(2 * k)
    ends = np.column_stack((pi, pj)).ravel()
    by_particle = np.argsort(ends * (2 * k) + slot)
    prev = np.full(2 * k, k, dtype=np.int64)
    follows = ends[by_particle[1:]] == ends[by_particle[:-1]]
    prev[by_particle[1:][follows]] = by_particle[:-1][follows] // 2
    dep_i, dep_j = prev[0::2], prev[1::2]
    placed = np.zeros(k + 1, dtype=bool)
    placed[k] = True
    levels = []
    pending = np.arange(k)
    while pending.size:
        ready = placed[dep_i[pending]] & placed[dep_j[pending]]
        levels.append(pending[ready])
        placed[pending[ready]] = True
        pending = pending[~ready]
    edges = np.cumsum([0] + [len(lv) for lv in levels]).tolist()
    order = np.concatenate(levels) if levels else np.empty(0, dtype=np.int64)
    return order, list(zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("n, top", [(2, None), (40, None), (16_384, None), (70_000, 65_535),
                                    (70_000, 65_536), (70_000, None), (3, "empty")])
def test_level_schedule_equals_keyed_argsort(n, top):
    # particle indices below 2**16 take the radix sort, the rest the keyed one
    rng = RngStream(8, n)
    k = 0 if top == "empty" else 6_000
    pi, pj = sample_pairs(n, k, rng)
    if isinstance(top, int):  # the largest index sits right at the boundary
        pi, pj = np.minimum(pi, top - 1), np.minimum(pj, top)  # still pi < pj
        pi[:50] = 0  # particle 0 shares its 16-bit residue with particle 65536
        pj[-1] = top
    order, batches = _events.level_schedule(pi, pj)
    want_order, want_batches = keyed_level_schedule(pi, pj)
    np.testing.assert_array_equal(order, want_order)
    assert batches == want_batches
    if top == "empty":
        assert order.size == 0 and batches == []


def test_level_schedule_int32_pairs_past_the_int32_key():
    # from 2**16 particles on, slots are ordered by the key ends * 2k + slot,
    # which passes 2**31 here.  Built from the engine's int32 pairs it must
    # be int64: wrapped to 32 bits, with 2k = 2**15, particles p and p + 2**17
    # share their keys, their slots interleave, and events 1 and 2 would
    # lose their dependency on event 0
    n, k = 200_000, 2**14
    pi, pj = sample_pairs(n, k, RngStream(9, 1))
    pi[:3], pj[:3] = [5, 5, 12], [5 + 2**17, 9, 5 + 2**17]
    assert int(pj.max()) * 2 * k > 2**32
    order, batches = _events.level_schedule(pi.astype(np.int32), pj.astype(np.int32))
    want_order, want_batches = keyed_level_schedule(pi, pj)
    np.testing.assert_array_equal(order, want_order)
    assert batches == want_batches
    level = np.empty(k, dtype=np.int64)
    for lv, (lo, hi) in enumerate(batches):
        level[order[lo:hi]] = lv
    assert level[0] == 0 and level[1] > 0 and level[2] > 0


def test_level_schedule_refuses_self_pair():
    # an event on (p, p) would wait on itself; refused instead of spinning
    with pytest.raises(ValueError, match="itself"):
        _events.level_schedule(np.array([0, 1, 2]), np.array([1, 1, 3]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("restitution", [None, 0.8])
def test_apply_pair_collisions_bitwise_equals_reference(d, restitution):
    # the coordinate-major kernel against the row-major loop as first written
    rng = RngStream(44, d)
    n, k = 60, 3_000
    coords0 = np.atleast_2d(rng.normal(size=(n, d)))
    pi, pj = sample_pairs(n, k, rng)
    kern = AngularKernel.two_point(0.4, 0.6) if d == 1 else AngularKernel.isotropic(d)
    costh = kern.cosines(rng.uniform(size=k))
    frames = np.atleast_2d(rng.normal(size=(k, d))) if d >= 2 else None
    order, batches = _events.level_schedule(pi, pj)
    assert batches[0][1] >= 2
    pi, pj, costh = pi[order], pj[order], costh[order]
    # the first two events played are on level 0, so they see coords0: one
    # pair at zero relative velocity, and one frame parallel to its u-hat
    coords0[pj[1]] = coords0[pi[1]]
    if frames is not None:
        frames = frames[order]
        frames[0] = 2.5 * (coords0[pi[0]] - coords0[pj[0]])
    got = coords0.T.copy()
    # the engine takes d = 1 frames as (0, K); the reference, None
    apply_batches(_events.apply_pair_collisions, got, pi, pj, costh,
                  np.empty((0, k)) if frames is None else frames.T.copy(), batches,
                  restitution=restitution)
    want = coords0.copy()
    reference_apply(want, pi, pj, costh, frames, restitution, batches)
    assert got.T.tobytes() == want.tobytes()
    assert not np.array_equal(got.T, coords0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_coupled_bitwise_equals_reference(d):
    # the coupled gas on the engine's gather and scatter, against its
    # row-major form: pairs at zero relative velocity in either system or
    # both, a frame parallel to u-hat, equal and opposite geometries
    rng = RngStream(45, d)
    n, k = 40, 2_000
    a0 = np.atleast_2d(rng.normal(size=(n, d)))
    b0 = np.atleast_2d(rng.normal(size=(n, d)))
    pi, pj = sample_pairs(n, k, rng)
    kern = AngularKernel.two_point(0.4, 0.6) if d == 1 else AngularKernel.isotropic(d)
    costh = kern.cosines(rng.uniform(size=k))
    frames = np.atleast_2d(rng.normal(size=(k, d))) if d >= 2 else None
    order, batches = _events.level_schedule(pi, pj)
    assert batches[0][1] >= 6
    pi, pj, costh = pi[order], pj[order], costh[order]
    a0[pj[0]] = a0[pi[0]]  # first system at rest relative to itself
    b0[pj[1]] = b0[pi[1]]  # second system at rest
    a0[pj[2]], b0[pj[2]] = a0[pi[2]], b0[pi[2]]  # both at rest
    b0[[pi[3], pj[3]]] = a0[[pi[3], pj[3]]]  # identical geometries
    b0[pi[4]], b0[pj[4]] = a0[pj[4]], a0[pi[4]]  # opposite relative velocities
    if frames is not None:
        frames = frames[order]
        frames[5] = -3.0 * (a0[pi[5]] - a0[pj[5]])
    rows = np.hstack([a0, b0])
    got = rows.T.copy()
    apply_batches(_apply_coupled, got, pi, pj, costh,
                  np.empty((0, k)) if frames is None else frames.T.copy(), batches)
    want = rows.copy()
    reference_apply_coupled(want, pi, pj, costh, frames, batches)
    assert got.T.tobytes() == want.tobytes()
    assert not np.array_equal(got.T, rows)


@pytest.mark.parametrize("d", [1, 3])
def test_simulate_kac_coupled_equals_sequential_reference(d):
    # the whole coupled run against the stream's events, drawn alone one
    # snapshot interval at a time, applied one at a time, in stream order,
    # by the row-major rule
    kern = AngularKernel.two_point(0.3, 0.7) if d == 1 else AngularKernel.isotropic(d)
    a = gaussian_sample_state(np.zeros(d), np.ones(d), 12, RngStream(47, 0))
    b = ParticleState(a.coords * np.linspace(2.0, 1.0, d) + 0.5)
    snaps = [0.5, 3.0]
    out_a, out_b = simulate_kac_coupled(a, b, kern, 3.0, snaps, [RngStream(47, 1)])
    rng, t = RngStream(47, 1), 0.0
    rows = np.hstack([a.coords, b.coords])
    for s, sa, sb in zip(snaps, out_a, out_b):
        _, pi, pj, costh, frames = generate_events_alone(12, 5.5, kern, t, s, rng,
                                                         _events.frame_width(d))
        t = s
        reference_apply_coupled(rows, pi, pj, costh, frames if d >= 2 else None,
                                [(e, e + 1) for e in range(len(pi))])
        assert sa.coords.tobytes() == np.ascontiguousarray(rows[:, :d]).tobytes()
        assert sb.coords.tobytes() == np.ascontiguousarray(rows[:, d:]).tobytes()
    assert not np.array_equal(out_a[-1].coords, a.coords)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_column_helpers_equal_numpy_sums(d):
    # the written-out summation orders against np.einsum and np.linalg.norm
    # on row-major copies, for short and long runs of columns
    rng = np.random.default_rng(d)
    for k in (1, 2, 3, 7, 1_001):
        a = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-8, 8, (k, d))
        b = rng.standard_normal((k, d))
        got = _events.column_dot(a.T.copy(), b.T.copy())
        assert got.tobytes() == np.einsum("ij,ij->i", a, b).tobytes()
        assert _events.column_norms(a.T.copy()).tobytes() == np.linalg.norm(a, axis=1).tobytes()


class _HalfGaps(RngStream):
    """A stream whose uniform words are square roots, so its exponential gaps
    halve: its first clock draw ends before t_end and the clock refills.
    Every array of uniforms, whole or filled piece by piece, passes through
    ``uniform_words``."""

    def uniform_words(self, out):
        return np.sqrt(super().uniform_words(out), out=out)


@pytest.mark.parametrize("d, kernel", [
    (1, AngularKernel.two_point(0.3, 0.7)),
    (1, AngularKernel.isotropic(1)),
    (2, AngularKernel.isotropic(2)),
    (3, AngularKernel.isotropic(3)),
    (3, AngularKernel(dim=3, density=lambda c: 1.0 + 0.5 * c, name="tilted")),
    (2, AngularKernel(dim=2, density=lambda c: np.exp(c), name="forward")),
])
def test_generate_events_block_equals_per_stream_generator(d, kernel):
    # one stacked interval, read per replica, against each stream drawing
    # the interval alone: every field, the replica bounds, the normals
    # (frame rows, and frame and bath rows) and the draw counts; stream 1
    # refills its clock.  Each stream then draws a second interval after
    # the first, and an empty interval draws nothing
    n, rate, t0, t_mid, t1 = 7, 3.0 * 6, 0.5, 3.0, 5.5
    for width in (_events.frame_width(d), _events.frame_width(d) + 2 * d):
        block = [RngStream(70, r) for r in range(4)]
        block[1] = _HalfGaps(70, 1)
        alone = [type(s)(70, s.stream_id) for s in block]
        for lo, hi in ((t0, t_mid), (t_mid, t1)):
            seg = _generate_events(n, rate, kernel, lo, hi, block, width)
            parts = [generate_events_alone(n, rate, kernel, lo, hi, s, width) for s in alone]
            counts = [len(p[0]) for p in parts]
            bounds = np.cumsum([0] + counts)
            assert len(seg) == bounds[-1]
            assert np.all((seg.times > lo) & (seg.times < hi))
            assert seg.normals.shape == (len(seg), width)
            for r, p in enumerate(parts):
                rows = slice(bounds[r], bounds[r + 1])
                for field, name in enumerate(["times", "pair_i", "pair_j", "costh", "normals"]):
                    got = getattr(seg, name)[rows]
                    if name.startswith("pair"):  # rows of the stack, drawn and kept as int32
                        assert got.dtype == np.int32
                        np.testing.assert_array_equal(got - r * n, p[field])
                    else:
                        assert got.dtype == p[field].dtype and got.tobytes() == p[field].tobytes()
            assert [s.draw_counter for s in block] == [s.draw_counter for s in alone]
            assert counts[1] > max(64, int(1.2 * rate * (hi - lo)) + 16)  # refilled
            assert min(counts) > 0
    # an empty interval, or one ending before it starts, draws nothing
    for hi in (t0, t0 - 1e-13):
        rng = RngStream(70, 9)
        empty = _generate_events(n, rate, kernel, t0, hi, [rng], _events.frame_width(d))
        assert len(empty) == 0 and rng.draw_counter == 0
        assert empty.normals.shape == (0, _events.frame_width(d))


def test_snapshot_intervals_are_drawn_and_played_in_turn(monkeypatch):
    # one interval is held at a time: each is drawn just before it is played
    calls = []
    generate, play = elastic._generate_events, _events.play_segment

    def traced_generate(*args):
        calls.append("generate")
        return generate(*args)

    def traced_play(*args):
        calls.append("play")
        return play(*args)

    monkeypatch.setattr(elastic, "_generate_events", traced_generate)
    monkeypatch.setattr(_events, "play_segment", traced_play)
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 20, RngStream(73, 0))
    snaps = np.linspace(0.25, 5.0, 20)
    out = simulate_kac(st0, AngularKernel.isotropic(3), 5.0, snaps, [RngStream(73, 1)])
    assert len(out) == 20
    assert calls == ["generate", "play"] * 20


def test_generate_events_refuses_stacks_past_int32_indices():
    # pair indices are int32 rows of the stack; no event is drawn before the refusal
    rngs = [RngStream(72, 0), RngStream(72, 1)]
    with pytest.raises(SimulationError, match="2\\*\\*31 - 1 particles"):
        _generate_events(2**30, 1.0, AngularKernel.isotropic(1), 0.0, 1.0, rngs, 0)
    assert [s.draw_counter for s in rngs] == [0, 0]


@pytest.mark.parametrize(
    "n, d, frozen_pair",
    [(2, 3, False), (2, 3, True), (9, 3, True), (2, 1, False), (7, 1, True), (16, 2, False),
     (40, 3, False)],
)
def test_simulate_kac_replicas_equal_separate_runs(monkeypatch, n, d, frozen_pair):
    kern = AngularKernel.two_point(0.3, 0.7) if d == 1 else AngularKernel.isotropic(d)
    inits = [gaussian_sample_state(np.zeros(d), np.ones(d), n, RngStream(61, 2 * r))
             for r in range(5)]
    if frozen_pair:  # a pair at zero relative velocity
        inits[1].coords[1] = inits[1].coords[0]
    stack = ParticleState(np.concatenate([s.coords for s in inits]))
    snaps = [0.0, 0.7, 2.0]
    stacked = simulate_kac(stack, kern, 2.5, snaps, [RngStream(61, 2 * r + 1) for r in range(5)])
    monkeypatch.setattr(_events, "CHUNK_EVENTS", 3)  # chunks cut through replicas
    chunked = simulate_kac(stack, kern, 2.5, snaps, [RngStream(61, 2 * r + 1) for r in range(5)])
    monkeypatch.undo()
    assert [s.coords.shape for s in stacked] == [(5 * n, d)] * len(snaps)
    for r, init in enumerate(inits):
        alone = simulate_kac(init, kern, 2.5, snaps, [RngStream(61, 2 * r + 1)])
        assert [s.time for s in stacked] == [s.time for s in alone] == snaps
        for a, b, c in zip(stacked, alone, chunked):
            np.testing.assert_array_equal(a.coords[r * n:(r + 1) * n], b.coords)
            np.testing.assert_array_equal(c.coords[r * n:(r + 1) * n], b.coords)
    if frozen_pair and n == 2:
        for s in stacked:
            np.testing.assert_array_equal(s.coords[n:2 * n], inits[1].coords)


def test_simulate_kac_replicas_validation():
    # a stack needs one stream per replica: rows a multiple of the streams
    kern = AngularKernel.isotropic(3)
    a = gaussian_sample_state(np.zeros(3), np.ones(3), 9, RngStream(0, 0))
    for rngs in ([RngStream(0, 2), RngStream(0, 3)], []):
        with pytest.raises(ValueError, match="divisible by the stream count"):
            simulate_kac(a, kern, 1.0, [1.0], rngs)


def test_simulate_kac_coupled_refuses_kernel_of_other_dimension():
    a = gaussian_sample_state(np.zeros(3), np.ones(3), 8, RngStream(0, 0))
    with pytest.raises(ValueError, match="kernel dimension"):
        simulate_kac_coupled(a, a.copy(), AngularKernel.isotropic(2), 1.0, [1.0],
                             [RngStream(0, 1)])
    # the coupled state is 2 d wide, and a kernel of that width is refused too
    with pytest.raises(ValueError, match="kernel dimension"):
        simulate_kac_coupled(a, a.copy(), AngularKernel.isotropic(6), 1.0, [1.0],
                             [RngStream(0, 1)])


@pytest.mark.parametrize("simulate", ["kac", "thermostat"])
def test_simulators_refuse_kernel_of_other_dimension(simulate):
    a = gaussian_sample_state(np.zeros(3), np.ones(3), 8, RngStream(0, 0))
    kern = AngularKernel.isotropic(2)
    with pytest.raises(ValueError, match="kernel dimension must match the state"):
        if simulate == "kac":
            simulate_kac(a, kern, 1.0, [1.0], [RngStream(0, 1)])
        else:  # the bath's dimension agrees with the kernel, not with the state
            simulate_thermostat(a, kern, RestitutionParams(alpha=0.5, dim=2), 1.0, [1.0],
                                [RngStream(0, 1)])


def test_simulate_kac_coupled_refuses_unmatched_systems():
    a = gaussian_sample_state(np.zeros(3), np.ones(3), 8, RngStream(0, 0))
    kern = AngularKernel.isotropic(3)
    for b in (ParticleState(a.coords[:6]), ParticleState(a.coords[:, :2])):
        with pytest.raises(ValueError, match="matching shapes"):
            simulate_kac_coupled(a, b, kern, 1.0, [1.0], [RngStream(0, 1)])
    with pytest.raises(ValueError, match="equal start times"):
        simulate_kac_coupled(a, ParticleState(a.coords, time=0.5), kern, 1.0, [1.0],
                             [RngStream(0, 1)])


@pytest.mark.parametrize("d", [1, 3])
def test_simulate_kac_coupled_stack_equals_lone_runs(d):
    # three stacked replicas, each bitwise its lone run; replica 1 starts
    # from identical systems and its coupling keeps them identical
    kern = AngularKernel.two_point(0.3, 0.7) if d == 1 else AngularKernel.isotropic(d)
    a = gaussian_sample_state(np.zeros(d), np.ones(d), 10,
                              [RngStream(53, 10 + r) for r in range(3)])
    b = ParticleState(a.coords * np.linspace(2.0, 1.0, d) - 0.25)
    b.coords[10:20] = a.coords[10:20]
    snaps = [0.0, 0.7, 2.5]
    out_a, out_b = simulate_kac_coupled(a, b, kern, 2.5, snaps,
                                        [RngStream(53, r) for r in range(3)])
    for r in range(3):
        rows = slice(10 * r, 10 * r + 10)
        lone_a, lone_b = simulate_kac_coupled(ParticleState(a.coords[rows]),
                                              ParticleState(b.coords[rows]), kern, 2.5, snaps,
                                              [RngStream(53, r)])
        for sa, sb, la, lb in zip(out_a, out_b, lone_a, lone_b):
            assert sa.time == la.time and sb.time == lb.time
            assert sa.coords[rows].tobytes() == la.coords.tobytes()
            assert sb.coords[rows].tobytes() == lb.coords.tobytes()
    np.testing.assert_array_equal(out_a[-1].coords[10:20], out_b[-1].coords[10:20])
    assert not np.array_equal(out_a[-1].coords, a.coords)


def test_replay_coupled_identical_streams():
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 32, RngStream(4, 0))
    snaps = [1.0, 2.0]
    kern = AngularKernel.isotropic(3)
    dyn = RngStream(4, 1)
    out1 = simulate_kac(st0, kern, 2.0, snaps, [dyn])
    # the same events, drawn again interval by interval from a stream with
    # the same key and played on the same initial state
    rng, x, t = RngStream(4, 1), st0.coords.T.copy(), 0.0
    for s, a in zip(snaps, out1):
        _events.play_segment(x, _generate_events(32, 15.5, kern, t, s, [rng], 3), 3,
                             _events.apply_pair_collisions)
        t = s
        np.testing.assert_array_equal(a.coords, x.T)
    assert dyn.draw_counter == rng.draw_counter
    assert not np.array_equal(out1[-1].coords, st0.coords)


@pytest.mark.parametrize("n, reps", [(4, 8192), (64, 1024), (1024, 64)])
def test_directional_temperature_relaxes_at_rate_one_half(n, reps):
    # the exact conditional mean of S_x = Σ v_x² (oracles) against the
    # engine on C4's data: a noise-free law that sees the clock's rate, the
    # cosine law and the azimuth frames, which conservation does not.  z of
    # the replica mean of (S_x - E[S_x | V_0]) / N; this seed reads |z| <= 1.8
    times = [0.5, 1.5, 3.0, 6.0]
    init = gaussian_sample_state(np.zeros(3), [4.0, 0.25, 0.25], n,
                                 [RngStream(74, r) for r in range(reps)])
    out = simulate_kac(init, AngularKernel.isotropic(3), times[-1], times,
                       [RngStream(75, r) for r in range(reps)])
    want = directional_temperature_flow(init.coords, n, times)
    for k, state in enumerate(out):
        got = np.sum(state.coords.reshape(reps, n, 3)[..., 0] ** 2, axis=1)
        gap = (got - want[:, k]) / n
        assert abs(gap.mean()) < 4.0 * gap.std(ddof=1) / np.sqrt(reps)


@pytest.mark.slow
def test_exchangeability_two_sample_ks():
    # marginal of particle 1 vs particle N over replicas
    kern = AngularKernel.isotropic(3)
    first, last = [], []
    for r in range(1500):
        st0 = gaussian_sample_state(np.zeros(3), [2.0, 0.5, 1.0], 8, RngStream(600, 2 * r))
        out = simulate_kac(st0, kern, 1.0, [1.0], [RngStream(600, 2 * r + 1)])
        first.append(out[0].coords[0, 0])
        last.append(out[0].coords[-1, 0])
    ks = stats.ks_2samp(first, last)
    assert ks.pvalue > 1e-3


@pytest.mark.slow
def test_gaussian_equilibrium_variance_constant():
    # centered Gaussian is stationary for elastic Maxwell molecules
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 2000, RngStream(71, 0))
    out = simulate_kac(st0, AngularKernel.isotropic(3), 3.0, [1.0, 2.0, 3.0],
                       [RngStream(71, 1)])
    for s in out:
        v = s.coords.var(axis=0).mean()
        assert abs(v - 1.0) < 4.0 / np.sqrt(2000)
