import math

import numpy as np
import pytest

from meanfield import _events
from meanfield.core import ParticleState, RngStream, gaussian_sample_state
from meanfield.elastic import AngularKernel, collide_elastic, sample_sigma, simulate_kac
from meanfield.thermostat import (
    RestitutionParams,
    collide_inelastic,
    mean_collision_energy_loss_rate,
    simulate_thermostat,
    steady_temperature,
    temperature,
)


def test_restitution_validation():
    with pytest.raises(ValueError):
        RestitutionParams(alpha=0.0)
    with pytest.raises(ValueError):
        RestitutionParams(alpha=1.0)
    with pytest.raises(ValueError):
        RestitutionParams(alpha=0.5, nu=-1.0)
    RestitutionParams(alpha=0.5, nu=0.0, dim=1)  # bath-off limit allowed


def test_collide_inelastic_sigma_parallel_identity():
    vi, vj = collide_inelastic(np.array([1.0]), np.array([-1.0]), np.array([1.0]), 0.5)
    assert vi[0] == 1.0 and vj[0] == -1.0


def test_collide_inelastic_hand_example():
    # d=1, v=(1,-1), sigma=-1, alpha=1/2: u*=-1, outputs -1/2 and +1/2
    vi, vj = collide_inelastic(np.array([1.0]), np.array([-1.0]), np.array([-1.0]), 0.5)
    assert vi[0] == pytest.approx(-0.5, abs=1e-15)
    assert vj[0] == pytest.approx(0.5, abs=1e-15)
    assert vi[0] ** 2 + vj[0] ** 2 == pytest.approx(0.5, abs=1e-15)  # 2 -> 1/2


def test_collide_inelastic_alpha_one_matches_elastic():
    rng = RngStream(3, 0)
    k = AngularKernel.isotropic(3)
    for _ in range(100):
        vi0 = np.atleast_1d(rng.normal(size=3))
        vj0 = np.atleast_1d(rng.normal(size=3))
        u = vi0 - vj0
        sigma = sample_sigma(k, u / np.linalg.norm(u), rng)
        a = collide_inelastic(vi0, vj0, sigma, 1.0)
        b = collide_elastic(vi0, vj0, sigma)
        np.testing.assert_allclose(a[0], b[0], atol=1e-12)
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)


def test_collide_inelastic_contraction_and_momentum():
    rng = RngStream(5, 0)
    k = AngularKernel.isotropic(3)
    for _ in range(300):
        alpha = float(0.05 + 0.9 * rng.uniform())
        vi0 = np.atleast_1d(rng.normal(size=3))
        vj0 = np.atleast_1d(rng.normal(size=3))
        u0 = vi0 - vj0
        sigma = sample_sigma(k, u0 / np.linalg.norm(u0), rng)
        vi, vj = collide_inelastic(vi0, vj0, sigma, alpha)
        assert np.linalg.norm((vi + vj) - (vi0 + vj0)) < 1e-12
        assert np.linalg.norm(vi - vj) <= np.linalg.norm(u0) * (1 + 1e-12)
        e0 = np.sum(vi0**2) + np.sum(vj0**2)
        e1 = np.sum(vi**2) + np.sum(vj**2)
        assert e1 <= e0 * (1 + 1e-12)


def test_mean_energy_loss_single_collision_mc():
    # Monte Carlo validation of the committed per-collision balance
    alpha = 0.8
    k = AngularKernel.isotropic(3)
    rng = RngStream(11, 0)
    n = 200_000
    c = k.sample_costheta(n, rng)
    # |u|=2 head-on pair: dE = -(1-a^2)|u|^2 (1-c)/4
    de = -(1 - alpha**2) * 4.0 * (1 - c) / 4.0
    predicted = mean_collision_energy_loss_rate(alpha, k.b1()) * 4.0
    assert de.mean() == pytest.approx(predicted, rel=0.01)


def test_steady_temperature_values_and_limits():
    k = AngularKernel.isotropic(3)
    p = RestitutionParams(alpha=0.8, nu=1.0, dim=3)
    # ordered-pair convention: 4 nu / ((1-a^2)(1-b1)) = 4/0.36
    assert steady_temperature(p, k) == pytest.approx(4.0 / 0.36, rel=1e-12)
    assert steady_temperature(p, k, "unordered-pairs") == pytest.approx(8.0 / 0.36, rel=1e-12)
    assert steady_temperature(RestitutionParams(0.5, 0.0, 3), k) == 0.0
    near_elastic = RestitutionParams(alpha=1.0 - 1e-13, nu=1.0, dim=3)
    assert steady_temperature(near_elastic, k) > 1e10  # divergence as alpha -> 1
    with pytest.raises(ValueError):
        steady_temperature(p, k, "bogus")


def test_bath_off_energy_nonincreasing_pathwise():
    p = RestitutionParams(alpha=0.6, nu=0.0, dim=2)
    st0 = gaussian_sample_state(np.zeros(2), np.ones(2), 64, RngStream(8, 0))
    snaps = np.linspace(0.25, 4.0, 16)
    out = simulate_thermostat(st0, AngularKernel.isotropic(2), p, 4.0, snaps, RngStream(8, 1))
    temps = [temperature(st0)] + [temperature(s) for s in out]
    assert all(b <= a + 1e-12 for a, b in zip(temps[:-1], temps[1:]))
    assert temps[-1] < 0.5 * temps[0]  # actually cools


def test_pure_bath_variance_growth():
    # collisions disabled: per-coordinate variance grows by 2 nu t
    p = RestitutionParams(alpha=0.9, nu=1.0, dim=2)
    st0 = ParticleState(np.zeros((30_000, 2)))
    out = simulate_thermostat(
        st0, AngularKernel.isotropic(2), p, 0.5, [0.5], RngStream(12, 0),
        collisions_enabled=False,
    )
    var = out[0].coords.var(axis=0)
    np.testing.assert_allclose(var, 1.0, rtol=0.03)  # 2*nu*t = 1


def test_momentum_random_walk_variance():
    # sum of velocities per coordinate has variance 2 nu N t
    p = RestitutionParams(alpha=0.7, nu=1.0, dim=1)
    n, t = 100, 1.0
    kern = AngularKernel.two_point(0.5, 0.5)
    sums = []
    for r in range(1024):
        st0 = ParticleState(np.zeros((n, 1)))
        out = simulate_thermostat(st0, kern, p, t, [t], RngStream(1002, r))
        sums.append(out[0].coords.sum())
    var = np.var(sums, ddof=1)
    assert var == pytest.approx(2.0 * p.nu * n * t, rel=0.10)


def test_momentum_martingale_band():
    p = RestitutionParams(alpha=0.7, nu=1.0, dim=2)
    kern = AngularKernel.isotropic(2)
    n = 64
    means = []
    for r in range(64):
        st0 = gaussian_sample_state([1.0, -2.0], [1.0, 1.0], n, RngStream(41, 2 * r))
        p0 = st0.coords.sum(axis=0)
        out = simulate_thermostat(st0, kern, p, 1.0, [1.0], RngStream(41, 2 * r + 1))
        means.append(out[0].coords.sum(axis=0) - p0)
    drift = np.mean(means, axis=0)
    se = np.std(means, axis=0, ddof=1) / math.sqrt(len(means))
    assert np.all(np.abs(drift) < 3.5 * se + 1e-12)


@pytest.mark.parametrize("nu", [1.0, 0.0])
def test_trajectory_independent_of_batching(monkeypatch, nu):
    # bath normals are drawn in event order, so the level schedule, small
    # chunks and one event per batch realize the same trajectory bit for bit
    p = RestitutionParams(alpha=0.7, nu=nu, dim=3)
    kern = AngularKernel.isotropic(3)
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 50, RngStream(19, 0))
    snaps = [0.0, 0.5, 1.5, 2.0]

    def run():
        rng = RngStream(19, 1)
        out = simulate_thermostat(st0, kern, p, 2.5, snaps, rng)
        return out, rng.draw_counter

    levels, draws = run()
    monkeypatch.setattr(_events, "CHUNK_EVENTS", 7)
    chunked, draws_chunked = run()
    monkeypatch.setattr(_events, "level_schedule",
                        lambda pi, pj: (np.arange(len(pi)), [(e, e + 1) for e in range(len(pi))]))
    singles, draws_single = run()
    assert draws == draws_chunked == draws_single
    for a, b, c in zip(levels, singles, chunked):
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.coords, c.coords)


def test_step_mixed_rejects_past():
    # the mixed jump-diffusion run refuses a t_end before its start time
    p = RestitutionParams(alpha=0.5, nu=1.0, dim=1)
    kern = AngularKernel.two_point(0.5, 0.5)
    st0 = ParticleState(np.zeros((4, 1)), time=2.0)
    with pytest.raises(ValueError, match="t_end must not precede"):
        simulate_thermostat(st0, kern, p, 1.5, [], RngStream(0, 0))
    with pytest.raises(ValueError, match="t_end must not precede"):
        simulate_kac(st0, kern, 1.5, [], RngStream(0, 0))
    assert simulate_thermostat(st0, kern, p, 2.0, [], RngStream(0, 0)) == []


def test_simulate_t_end_zero():
    p = RestitutionParams(alpha=0.5, nu=1.0, dim=1)
    st0 = ParticleState(np.ones((4, 1)))
    out = simulate_thermostat(st0, AngularKernel.two_point(0.5, 0.5), p, 0.0, [0.0],
                              RngStream(0, 0))
    np.testing.assert_array_equal(out[0].coords, st0.coords)


@pytest.mark.slow
def test_stationary_plateau_matches_balance_small():
    # small-scale version of the acceptance balance check
    p = RestitutionParams(alpha=0.8, nu=1.0, dim=3)
    kern = AngularKernel.isotropic(3)
    target = steady_temperature(p, kern, n_particles=2000)
    st0 = gaussian_sample_state(np.zeros(3), np.full(3, target), 2000, RngStream(55, 0))
    snaps = np.linspace(5.0, 30.0, 11)
    out = simulate_thermostat(st0, kern, p, 30.0, snaps, RngStream(55, 1))
    temps = np.array([temperature(s) for s in out])
    plateau = temps[len(temps) // 2 :].mean()
    assert plateau == pytest.approx(target, rel=0.08)
