import numpy as np
import pytest
from scipy import stats

from meanfield import _events
from meanfield.core import ParticleState, RngStream, gaussian_sample_state
from meanfield.elastic import (
    AngularKernel,
    collide_elastic,
    replay_collisions,
    sample_sigma,
    simulate_kac,
    simulate_kac_replicas,
)


def test_kernel_normalization_witness():
    for d in (2, 3, 4):
        k = AngularKernel.isotropic(d)
        assert abs(k.normalization - 1.0) < 1e-10
    k1 = AngularKernel.two_point(0.3, 0.9)
    assert abs(sum(k1.weights) - 1.0) < 1e-15
    assert k1.b1() == pytest.approx((0.3 - 0.9) / 1.2)


def test_kernel_rejects_negative_density():
    with pytest.raises(ValueError):
        AngularKernel(dim=3, density=lambda c: c)  # negative on [-1, 0)


def test_isotropic_b1_zero():
    assert AngularKernel.isotropic(3).b1() == pytest.approx(0.0, abs=1e-12)
    assert AngularKernel.isotropic(2).b1() == pytest.approx(0.0, abs=1e-10)


def test_sample_sigma_unit_norm_and_validation():
    k = AngularKernel.isotropic(3)
    rng = RngStream(1, 0)
    for _ in range(50):
        s = sample_sigma(k, np.array([0.0, 0.0, 1.0]), rng)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sample_sigma(k, np.array([0.0, 0.0, 1.1]), rng)


def test_sample_sigma_isotropic_costheta_uniform_ks():
    k = AngularKernel.isotropic(3)
    rng = RngStream(42, 0)
    uhat = np.array([1.0, 0.0, 0.0])
    c = k.sample_costheta(100_000, rng)
    ks = stats.kstest(c, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert ks.statistic < 0.01
    # the assembled sigma has the same cosine against uhat
    g = np.atleast_2d(rng.normal(size=(5000, 3)))
    sig = _events.deviation_vectors(np.tile(uhat, (5000, 1)), np.ones(5000), c[:5000], g)
    np.testing.assert_allclose(sig @ uhat, c[:5000], atol=1e-12)


def test_sample_sigma_spiked_kernel_aligns():
    spike = AngularKernel(dim=3, density=lambda c: np.exp(400.0 * (c - 1.0)), name="spike")
    rng = RngStream(7, 0)
    uhat = np.array([0.0, 1.0, 0.0])
    draws = np.array([sample_sigma(spike, uhat, rng) for _ in range(64)])
    assert np.all(draws @ uhat > 0.97)


def test_sample_costheta_tabulated_matches_density():
    # non-isotropic smooth kernel; empirical CDF vs quadrature CDF
    dens = lambda c: 1.0 + 0.5 * c
    k = AngularKernel(dim=3, density=dens, name="tilted")
    c = k.sample_costheta(200_000, RngStream(9, 0))
    # d=3 cosine marginal is density/norm with flat surface factor:
    # pdf (1 + c/2)/2 on [-1,1], CDF (x^2 + 4x + 3)/8
    cdf = lambda x: (x**2 + 4.0 * x + 3.0) / 8.0
    ks = stats.kstest(c, cdf)
    assert ks.statistic < 0.01


def test_collide_elastic_headon():
    vi, vj = collide_elastic(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(vi, [0.0, 1.0], atol=0)
    np.testing.assert_allclose(vj, [0.0, -1.0], atol=0)


def test_collide_elastic_identity_when_sigma_parallel():
    vi0 = np.array([2.0, 1.0, -1.0])
    vj0 = np.array([0.5, 1.0, 3.0])
    u = vi0 - vj0
    sigma = u / np.linalg.norm(u)
    vi, vj = collide_elastic(vi0, vj0, sigma)
    np.testing.assert_allclose(vi, vi0, atol=1e-14)
    np.testing.assert_allclose(vj, vj0, atol=1e-14)


def test_collide_elastic_zero_relative_velocity():
    v = np.array([1.0, 2.0])
    vi, vj = collide_elastic(v, v, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(vi, v)
    np.testing.assert_array_equal(vj, v)


def test_collide_elastic_conservation_random():
    rng = RngStream(13, 0)
    k = AngularKernel.isotropic(3)
    for _ in range(200):
        vi0 = np.atleast_1d(rng.normal(size=3))
        vj0 = np.atleast_1d(rng.normal(size=3))
        u = vi0 - vj0
        sigma = sample_sigma(k, u / np.linalg.norm(u), rng)
        vi, vj = collide_elastic(vi0, vj0, sigma)
        p0, p1 = vi0 + vj0, vi + vj
        e0 = np.sum(vi0**2) + np.sum(vj0**2)
        e1 = np.sum(vi**2) + np.sum(vj**2)
        assert np.linalg.norm(p1 - p0) <= 1e-12 * max(1.0, np.linalg.norm(p0))
        assert abs(e1 - e0) <= 1e-12 * e0


def test_next_collision_rate_and_mean_wait():
    # N=2 -> rate (N-1)/2 = 1/2: about 100,000 waits of mean 2
    times = _events.sample_event_times(0.5, 0.0, 200_000.0, RngStream(21, 0))
    waits = np.diff(times, prepend=0.0)
    assert len(waits) > 99_000
    assert 1.98 <= waits.mean() <= 2.02

    # N=100 -> rate 49.5: check via expected number of events in simulate
    st100 = gaussian_sample_state(np.zeros(3), np.ones(3), 100, RngStream(3, 1))
    _, rec = simulate_kac(st100, AngularKernel.isotropic(3), 10.0, [10.0], RngStream(3, 2),
                          record_events=True)
    assert abs(len(rec) / 10.0 - 49.5) < 3.0 * np.sqrt(495.0) / 10.0 * 3


@pytest.mark.slow
def test_pair_marginal_uniform():
    n = 10
    rng = RngStream(5, 0)
    pi, pj = _events.sample_pairs(n, 1_000_000, rng)
    counts = np.zeros((n, n))
    np.add.at(counts, (pi, pj), 1)
    p = 2.0 / (n * (n - 1))
    expect = 1_000_000 * p
    sd = np.sqrt(1_000_000 * p * (1 - p))
    upper = np.array([counts[i, j] for i in range(n) for j in range(i + 1, n)])
    assert np.all(np.abs(upper - expect) < 3.0 * sd)


def test_simulate_t_end_zero_returns_initial():
    st0 = gaussian_sample_state(np.zeros(2), np.ones(2), 8, RngStream(0, 0))
    out = simulate_kac(st0, AngularKernel.isotropic(2), 0.0, [0.0], RngStream(0, 1))
    np.testing.assert_array_equal(out[0].coords, st0.coords)
    assert out[0].time == 0.0


def test_simulate_identical_velocities_frozen():
    coords = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
    out = simulate_kac(ParticleState(coords), AngularKernel.isotropic(3), 5.0,
                       [1.0, 5.0], RngStream(8, 0))
    for s in out:
        np.testing.assert_array_equal(s.coords, coords)


def test_simulate_conservation_and_snapshots():
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 200, RngStream(17, 0))
    p0 = st0.coords.sum(axis=0)
    e0 = np.sum(st0.coords**2)
    snaps = [0.5, 1.0, 1.5, 2.0]
    out = simulate_kac(st0, AngularKernel.isotropic(3), 2.0, snaps, RngStream(17, 1))
    assert [s.time for s in out] == snaps
    for s in out:
        assert np.linalg.norm(s.coords.sum(axis=0) - p0) <= 1e-8 * np.sqrt(e0)
        assert abs(np.sum(s.coords**2) - e0) <= 1e-8 * e0


def test_simulate_rejects_unsorted_snapshots():
    st0 = gaussian_sample_state(np.zeros(2), np.ones(2), 4, RngStream(0, 0))
    with pytest.raises(ValueError, match="sorted"):
        simulate_kac(st0, AngularKernel.isotropic(2), 2.0, [1.5, 0.5], RngStream(0, 1))


def test_batched_apply_equals_sequential_oracle():
    # the level schedule must reproduce one-event-at-a-time application
    rng = RngStream(33, 0)
    n, d, k = 12, 3, 400
    coords0 = np.atleast_2d(rng.normal(size=(n, d)))
    pi, pj = _events.sample_pairs(n, k, rng)
    costh = AngularKernel.isotropic(3).sample_costheta(k, rng)
    frames = np.atleast_2d(rng.normal(size=(k, d)))

    a = coords0.copy()
    order, batches = _events.level_schedule(pi, pj)
    assert len(batches) < k // 2  # the schedule really batches
    _events.apply_pair_collisions(a, pi[order], pj[order], costh[order], frames[order], None,
                                  batches)

    b = coords0.copy()
    one_by_one = [(e, e + 1) for e in range(k)]
    _events.apply_pair_collisions(b, pi, pj, costh, frames, None, one_by_one)

    np.testing.assert_array_equal(a, b)


def test_level_schedule_properties():
    rng = RngStream(2, 0)
    n, k = 30, 500
    pi, pj = _events.sample_pairs(n, k, rng)
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
    snaps = [0.0, 0.7, 2.0]
    stacked = simulate_kac_replicas(inits, kern, 2.5, snaps,
                                    [RngStream(61, 2 * r + 1) for r in range(5)])
    monkeypatch.setattr(_events, "CHUNK_EVENTS", 3)  # chunks cut through replicas
    chunked = simulate_kac_replicas(inits, kern, 2.5, snaps,
                                    [RngStream(61, 2 * r + 1) for r in range(5)])
    monkeypatch.undo()
    assert len(stacked) == 5
    for r, init in enumerate(inits):
        alone = simulate_kac(init, kern, 2.5, snaps, RngStream(61, 2 * r + 1))
        assert [s.time for s in stacked[r]] == [s.time for s in alone] == snaps
        for a, b, c in zip(stacked[r], alone, chunked[r]):
            np.testing.assert_array_equal(a.coords, b.coords)
            np.testing.assert_array_equal(c.coords, b.coords)
    if frozen_pair and n == 2:
        for s in stacked[1]:
            np.testing.assert_array_equal(s.coords, inits[1].coords)


def test_simulate_kac_replicas_validation():
    kern = AngularKernel.isotropic(3)
    a = gaussian_sample_state(np.zeros(3), np.ones(3), 4, RngStream(0, 0))
    b = gaussian_sample_state(np.zeros(3), np.ones(3), 5, RngStream(0, 1))
    with pytest.raises(ValueError, match="matching"):
        simulate_kac_replicas([a, b], kern, 1.0, [1.0], [RngStream(0, 2), RngStream(0, 3)])
    with pytest.raises(ValueError, match="one dynamics stream"):
        simulate_kac_replicas([a, a], kern, 1.0, [1.0], [RngStream(0, 2)])


def test_replay_coupled_identical_streams():
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 32, RngStream(4, 0))
    snaps = [1.0, 2.0]
    out1, rec = simulate_kac(st0, AngularKernel.isotropic(3), 2.0, snaps, RngStream(4, 1),
                             record_events=True)
    out2 = replay_collisions(st0, rec, snaps, 2.0)
    for a, b in zip(out1, out2):
        np.testing.assert_array_equal(a.coords, b.coords)


@pytest.mark.slow
def test_exchangeability_two_sample_ks():
    # marginal of particle 1 vs particle N over replicas
    kern = AngularKernel.isotropic(3)
    first, last = [], []
    for r in range(1500):
        st0 = gaussian_sample_state(np.zeros(3), [2.0, 0.5, 1.0], 8, RngStream(600, 2 * r))
        out = simulate_kac(st0, kern, 1.0, [1.0], RngStream(600, 2 * r + 1))
        first.append(out[0].coords[0, 0])
        last.append(out[0].coords[-1, 0])
    ks = stats.ks_2samp(first, last)
    assert ks.pvalue > 1e-3


@pytest.mark.slow
def test_gaussian_equilibrium_variance_constant():
    # centered Gaussian is stationary for elastic Maxwell molecules
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 2000, RngStream(71, 0))
    out = simulate_kac(st0, AngularKernel.isotropic(3), 3.0, [1.0, 2.0, 3.0], RngStream(71, 1))
    for s in out:
        v = s.coords.var(axis=0).mean()
        assert abs(v - 1.0) < 4.0 / np.sqrt(2000)
