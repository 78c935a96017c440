import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from meanfield import limits, metrics
from meanfield.core import EmpiricalMeasure, ParticleState, RngStream, gaussian_sample_state
from meanfield.elastic import AngularKernel, simulate_kac
from meanfield.limits import (
    GridSpectrum,
    OracleEstimate,
    SpectralInstability,
    gaussian_spectrum,
    make_xi_grid,
    spectral_evolve,
)
from meanfield.mckean import VlasovSpec, gradient_catalog, simulate_vlasov
from meanfield.thermostat import RestitutionParams, steady_temperature
from oracles import second_moment

XI = make_xi_grid(8.0, 512)


def char_from_empirical(mu, xi):
    """The empirical characteristic function of the Fourier-side norms, as a spectrum."""
    return GridSpectrum(xi, metrics._char_values(mu, xi))


def bobylev_rhs(spectrum, alpha, with_diffusion):
    """Full-grid time derivative of one spectrum under the spectral operator."""
    mid = spectrum.zero_index
    op = limits._BobylevOperator(spectrum.xi_nodes[mid:], alpha, with_diffusion)
    return limits._mirror(op(spectrum.values[mid:, None]))[:, 0]


def test_make_xi_grid_has_zero_node_and_symmetry():
    assert len(XI) % 2 == 1
    assert XI[len(XI) // 2] == 0.0
    np.testing.assert_array_equal(XI, -XI[::-1])


def test_char_from_empirical_diracs():
    f = char_from_empirical(EmpiricalMeasure(np.zeros((3, 1))), XI)
    np.testing.assert_array_equal(f.values, np.ones_like(XI, dtype=complex))

    g = char_from_empirical(EmpiricalMeasure(np.full((2, 1), 0.7)), XI)
    np.testing.assert_allclose(g.values, np.exp(-1j * 0.7 * XI), atol=1e-14)
    np.testing.assert_allclose(np.abs(g.values), 1.0, atol=1e-14)

    h = char_from_empirical(EmpiricalMeasure(np.array([[-1.0], [1.0]])), XI)
    np.testing.assert_allclose(h.values, np.cos(XI), atol=1e-14)
    assert np.max(np.abs(h.values.imag)) < 1e-15


def test_grid_spectrum_invariant_validation():
    with pytest.raises(SpectralInstability):
        GridSpectrum(XI, np.full_like(XI, 2.0, dtype=complex))  # |F|>1, F(0)!=1
    bad = np.exp(-0.5 * XI**2).astype(complex)
    bad[10] = bad[10] + 0.1j  # break Hermitian symmetry
    with pytest.raises(SpectralInstability):
        GridSpectrum(XI, bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_grid_spectrum_rejects_non_finite_pair(value):
    # a pair at +-xi keeps Hermitian symmetry; each `>` test alone lets NaN through
    mid = len(XI) // 2
    bad = np.exp(-0.5 * XI**2).astype(complex)
    bad[mid - 5] = bad[mid + 5] = value
    with pytest.raises(SpectralInstability, match="non-finite"):
        GridSpectrum(XI, bad)
    g = gaussian_spectrum(XI, 1.0)
    g.values[[mid - 5, mid + 5]] = value
    with pytest.raises(SpectralInstability, match="non-finite"):
        g.check_invariants()


def test_gaussian_spectrum_second_moment():
    for v in (0.5, 1.0, 3.0):
        g = gaussian_spectrum(XI, variance=v)
        assert second_moment(g) == pytest.approx(v, rel=1e-5)


def test_bobylev_rhs_fixed_point_and_mass_node():
    dirac = GridSpectrum(XI, np.ones_like(XI, dtype=complex))
    rhs = bobylev_rhs(dirac, alpha=0.8, with_diffusion=False)
    np.testing.assert_allclose(rhs, 0.0, atol=1e-14)
    rhs_d = bobylev_rhs(dirac, alpha=0.8, with_diffusion=True)
    np.testing.assert_allclose(rhs_d, -(XI**2), atol=1e-12)
    assert rhs_d[len(XI) // 2] == 0.0  # mass node, exactly


def test_bobylev_rhs_elastic_is_null_in_1d():
    # d=1 elastic collisions only relabel velocities: the generator vanishes
    g = gaussian_spectrum(XI, 1.3)
    rhs = bobylev_rhs(g, alpha=1.0, with_diffusion=False)
    np.testing.assert_allclose(rhs, 0.0, atol=1e-9)


def test_bobylev_energy_derivative_matches_balance():
    # d/dt (-F''(0)) = -(1-a^2)/4 m2 + 2 nu for centered data, b1 = 0
    alpha, v = 0.6, 2.0
    g = gaussian_spectrum(XI, v)
    rhs = bobylev_rhs(g, alpha=alpha, with_diffusion=True)
    mid = len(XI) // 2
    h = XI[mid + 1] - XI[mid]
    d2 = (-rhs[mid + 2] + 16 * rhs[mid + 1] - 30 * rhs[mid] + 16 * rhs[mid - 1] - rhs[mid - 2]) / (
        12 * h * h
    )
    got = float(-d2.real)
    expect = -(1 - alpha**2) / 4.0 * v + 2.0
    assert got == pytest.approx(expect, rel=5e-3)


def test_spectral_evolve_zero_time_and_stability_guard():
    g = gaussian_spectrum(XI, 1.0)
    [(_, [out])] = spectral_evolve([g], 0.8, True, 0.0, dt=1e-2)
    np.testing.assert_array_equal(out.values, g.values)
    with pytest.raises(ValueError, match="stability"):
        spectral_evolve([g], 0.8, True, 1.0, dt=1.0)


def test_spectral_evolve_pure_diffusion_heat_multiplier():
    g = gaussian_spectrum(XI, 1.0)
    t = 0.5
    [(_, [out])] = spectral_evolve([g], 0.8, True, t, dt=5e-3, rate_factor=0.0)
    expect = g.values * np.exp(-XI**2 * t)
    keep = np.abs(expect) > 1e-12
    np.testing.assert_allclose(out.values[keep], expect[keep], rtol=1e-6, atol=1e-12)
    out.check_invariants(atol=1e-8)


def test_spectral_evolve_cooling_without_bath():
    g = gaussian_spectrum(XI, 1.5)
    snaps = spectral_evolve([g], 0.5, False, 2.0, dt=5e-3,
                            snapshot_times=[0.5, 1.0, 1.5, 2.0])
    energies = [second_moment(s) for _, [s] in snaps]
    assert all(b < a for a, b in zip(energies[:-1], energies[1:]))
    # exact decay rate (1-a^2)/4 for b1=0: m2(t) = m2(0) exp(-0.1875 t)
    np.testing.assert_allclose(
        energies, 1.5 * np.exp(-0.1875 * np.array([0.5, 1.0, 1.5, 2.0])), rtol=1e-3
    )


@pytest.mark.slow
def test_spectral_equilibrium_matches_unordered_balance():
    # long bath run: -F''(0) -> steady temperature in the limit-equation
    # (unordered-pair) convention
    params = RestitutionParams(alpha=0.8, nu=1.0, dim=1)
    kern = AngularKernel.two_point(0.5, 0.5)
    target = steady_temperature(params, kern, rate_convention="unordered-pairs")
    assert target == pytest.approx(8.0 / 0.36, rel=1e-12)
    grid = make_xi_grid(8.0, 2048)
    g = gaussian_spectrum(grid, 15.0)
    [(_, [out])] = spectral_evolve([g], 0.8, True, 40.0, dt=0.02)
    assert second_moment(out) == pytest.approx(target, rel=0.02)


def test_spectral_evolve_refuses_dt_beyond_rk4_budget():
    # lam * dt = 4.76 exceeds the RK4 budget 2.78: refused before any step
    # (an unstable column inside the budget is test_spectral_evolve_unstable_column_raises)
    g = gaussian_spectrum(make_xi_grid(40.0, 64), 1.0)
    with pytest.raises(ValueError, match="stability budget"):
        spectral_evolve([g], 0.8, True, 5.0, dt=1.7e-3, rate_factor=600.0)


def test_boundary_truncation_warning():
    narrow = make_xi_grid(2.0, 64)
    g = gaussian_spectrum(narrow, 0.25)  # F(2) = e^{-0.5} far above 1e-6
    with pytest.warns(RuntimeWarning, match="boundary"):
        spectral_evolve([g], 0.8, True, 0.01, dt=1e-3)


@pytest.mark.parametrize("n_nodes", [129, 2049])
def test_query_spline_matches_scipy_cubic_spline(n_nodes):
    xi = make_xi_grid(6.0, n_nodes)
    half = xi[len(xi) // 2:]
    rng = np.random.default_rng(n_nodes)
    f = rng.normal(size=(len(half), 3)) + 1j * rng.normal(size=(len(half), 3))
    f[0] = 1.0
    full = np.concatenate([np.conj(f[:0:-1]), f])  # Hermitian data
    # contracted queries of two restitutions, node queries, both grid ends
    q = np.concatenate([0.1 * half, 0.9 * half, half, rng.uniform(-6.0, 6.0, 50), [-6.0, 6.0]])
    got = limits._QuerySpline(xi, q)(full)
    want = CubicSpline(xi, full, extrapolate=False)(q)
    assert got.shape == want.shape and np.all(np.isfinite(want))
    assert np.max(np.abs(got - want)) <= 1e-14
    with pytest.raises(ValueError, match="outside"):
        limits._QuerySpline(xi, [6.0 + 1e-9])


@pytest.mark.parametrize("n_nodes", [129, 2049])
def test_query_spline_matches_scipy_on_nonuniform_grids(n_nodes):
    rng = np.random.default_rng(n_nodes + 1)
    for _ in range(5):
        x = np.cumsum(rng.uniform(0.5, 1.5, n_nodes))
        x = -6.0 + 12.0 * (x - x[0]) / (x[-1] - x[0])
        y = rng.normal(size=(n_nodes, 3)) + 1j * rng.normal(size=(n_nodes, 3))
        q = np.concatenate([rng.uniform(x[0], x[-1], 300), x])
        got = limits._QuerySpline(x, q)(y)
        assert np.max(np.abs(got - CubicSpline(x, y, extrapolate=False)(q))) <= 1e-14


@pytest.mark.parametrize("n_nodes", [4, 5, 33])
def test_query_spline_reproduces_cubics(n_nodes):
    # a cubic has no jump in its third derivative, so not-a-knot returns it
    rng = np.random.default_rng(n_nodes)
    x = np.cumsum(rng.uniform(0.5, 1.5, n_nodes))
    q = np.concatenate([rng.uniform(x[0], x[-1], 200), x])
    cubic = np.polynomial.Polynomial([0.3, -1.2, 0.7, -0.25])
    y = np.stack([cubic(x), 1j * cubic.deriv()(x)], axis=1)
    want = np.stack([cubic(q), 1j * cubic.deriv()(q)], axis=1)
    got = limits._QuerySpline(x, q)(y)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_query_spline_of_complex_data_is_its_parts_bitwise():
    # real and imaginary parts are separate rows of one real array
    x = make_xi_grid(6.0, 65)
    rng = np.random.default_rng(7)
    y = rng.normal(size=(65, 3)) + 1j * rng.normal(size=(65, 3))
    spline = limits._QuerySpline(x, rng.uniform(-6.0, 6.0, 40))
    both = spline(y)
    re, im = spline(y.real + 0j), spline(y.imag + 0j)
    assert not re.imag.any() and not im.imag.any()
    assert both.real.tobytes() == re.real.tobytes()
    assert both.imag.tobytes() == im.real.tobytes()
    for j in range(3):
        assert spline(y[:, j:j + 1]).tobytes() == both[:, j:j + 1].copy().tobytes()


def test_spectral_evolve_batch_equals_separate_runs():
    a, b = gaussian_spectrum(XI, 0.7), gaussian_spectrum(XI, 1.9, mean=0.3)
    times = [0.05, 0.1]
    batch = spectral_evolve([a, b], 0.8, True, 0.1, dt=5e-3, snapshot_times=times)
    for j, g in enumerate((a, b)):
        alone = spectral_evolve([g], 0.8, True, 0.1, dt=5e-3, snapshot_times=times)
        for (tb, gb), (ta, [ga]) in zip(batch, alone):
            assert tb == ta
            np.testing.assert_array_equal(gb[j].values, ga.values)
    [(_, finals)] = spectral_evolve([a, b], 0.6, False, 0.1, dt=5e-3, rate_factor=2.0)
    for g, fin in zip((a, b), finals):
        [(_, [alone])] = spectral_evolve([g], 0.6, False, 0.1, dt=5e-3, rate_factor=2.0)
        np.testing.assert_array_equal(fin.values, alone.values)


@pytest.mark.parametrize("times, message", [
    ([0.05, 0.5], r"must lie in \[start, t_end\]"),
    ([0.1, 0.05], "sorted ascending"),
    ([0.0525], "not a multiple of dt"),
])
def test_spectral_evolve_refuses_snapshots_as_particle_integrators_do(times, message):
    free = VlasovSpec(1, gradient_catalog("zero"))
    with pytest.raises(ValueError, match=message):
        simulate_vlasov(ParticleState(np.zeros((2, 2))), free, 0.1, 5e-3, times)
    with pytest.raises(ValueError, match=message):
        spectral_evolve([gaussian_spectrum(XI, 1.0)], 0.8, True, 0.1, dt=5e-3,
                        snapshot_times=times)


def test_spectral_evolve_repeats_snapshots_and_stops_at_the_last():
    g = gaussian_spectrum(XI, 1.0)
    twice = spectral_evolve([g], 0.8, True, 0.1, dt=5e-3, snapshot_times=[0.05, 0.05])
    assert [t for t, _ in twice] == [10 * 5e-3] * 2
    np.testing.assert_array_equal(twice[0][1][0].values, twice[1][1][0].values)
    # t_end bounds the snapshots; the flow ends at the last one
    [(_, [at_end])] = spectral_evolve([g], 0.8, True, 0.05, dt=5e-3)
    np.testing.assert_array_equal(at_end.values, twice[0][1][0].values)


def test_spectral_evolve_batch_validation():
    with pytest.raises(ValueError, match="share a grid"):
        spectral_evolve([gaussian_spectrum(XI, 1.0), gaussian_spectrum(make_xi_grid(8.0, 256), 1.0)],
                        0.8, True, 0.01, dt=1e-3)
    with pytest.raises(ValueError, match="at least one"):
        spectral_evolve([], 0.8, True, 0.01, dt=1e-3)


@pytest.mark.parametrize("blowup", ["growth", "nan"])
def test_spectral_evolve_unstable_column_raises(monkeypatch, blowup):
    # within the step budget the scheme stays in the unit ball, so the
    # unstable column is made by the operator: column 1 grows or turns NaN
    real_call = limits._BobylevOperator.__call__

    def call(self, f):
        rhs = real_call(self, f)
        rhs[1:, 1] = 1e3 * f[1:, 1] if blowup == "growth" else np.nan
        return rhs

    monkeypatch.setattr(limits._BobylevOperator, "__call__", call)
    a, b = gaussian_spectrum(XI, 1.0), gaussian_spectrum(XI, 2.0)
    with pytest.raises(SpectralInstability, match="in spectrum 1"):
        spectral_evolve([a, b], 0.8, True, 0.1, dt=5e-3)


# ----------------------------------------------------------- particle oracles


def test_particle_oracle_mass_and_energy():
    kern = AngularKernel.isotropic(3)
    times = [0.5, 1.0]

    def oracle(fn, replicas, seed):
        streams = [RngStream(seed, r) for r in range(replicas)]
        init = ParticleState(np.concatenate(
            [gaussian_sample_state(np.zeros(3), np.ones(3), 256, s).coords for s in streams]))
        states = simulate_kac(init, kern, 1.0, times, streams)
        runs = [s.coords.reshape(replicas, 256, 3) for s in states]
        return OracleEstimate.from_replicas(times, [[fn(ParticleState(c[r])) for c in runs]
                                                    for r in range(replicas)])

    mass = oracle(lambda s: 1.0, 8, 70)
    np.testing.assert_array_equal(mass.mean, [1.0, 1.0])
    np.testing.assert_array_equal(mass.standard_error, [0.0, 0.0])

    energy = oracle(lambda s: float((s.coords**2).sum(axis=1).mean()), 16, 71)
    assert energy.per_replica.shape == (16, 2)
    np.testing.assert_array_equal(energy.standard_error,
                                  energy.per_replica.std(axis=0, ddof=1) / 4.0)
    for m, se in zip(energy.mean, energy.standard_error):
        assert abs(m - 3.0) < 4 * se + 1e-12

    odd = oracle(lambda s: float(s.coords[:, 0].mean()), 16, 72)
    assert np.all(np.abs(odd.mean) < 4 * odd.standard_error + 1e-3)

    one = OracleEstimate.from_replicas(times, odd.per_replica[:1])
    np.testing.assert_array_equal(one.mean, odd.per_replica[0])
    np.testing.assert_array_equal(one.standard_error, [0.0, 0.0])
    for bad in (odd.per_replica[:, :1], odd.per_replica[0], np.empty((0, 2))):
        with pytest.raises(ValueError, match="replicas, n_times"):
            OracleEstimate.from_replicas(times, bad)
