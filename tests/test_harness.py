import math
from itertools import permutations

import numpy as np
import pytest

from meanfield.core import EmpiricalMeasure, ParticleState, RngStream, gaussian_sample_state
from meanfield.elastic import AngularKernel, simulate_kac
from meanfield.harness import (
    DegenerateFit,
    chaos_error_curve,
    fourier_contraction_check,
    rate_fit,
    symmetrization_gap,
    tanaka_contraction_check,
    u_statistic,
)
from meanfield.limits import OracleEstimate, gaussian_spectrum, make_xi_grid
from meanfield.observables import (
    Observable,
    ObservableProduct,
    marginal_observable,
    observable_catalog,
    poly_observable,
)

CONST_ONE = Observable("one", lambda a: np.ones(a.shape[0]), 1.0, 0.0)
IDENTITY = Observable("id01", lambda a: a[:, 0], 1.0, 1.0)


def test_catalog_norms_at_most_one():
    for name, kw in (
        ("gauss_bump", {"center": [0.5], "width": 0.4}),
        ("gauss_bump", {"center": [0.0, 0.0, 0.0], "width": 2.0}),
        ("tanh_coord", {"axis": 1, "scale": 0.5}),
        ("tanh_square", {"scale": 2.0}),
    ):
        f = observable_catalog(name, **kw)
        assert f.sup_norm <= 1.0 + 1e-12 and f.lip_const <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        observable_catalog("fourier_mode")


def test_catalog_lipschitz_certificates_hold_empirically():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(400, 2)) * 2.0
    w = z + rng.normal(size=(400, 2)) * 0.01
    for name, kw in (
        ("gauss_bump", {"center": [0.3, -0.2], "width": 0.7}),
        ("tanh_coord", {"axis": 0, "scale": 0.8}),
        ("tanh_square", {"axis": 1, "scale": 1.0}),
    ):
        f = observable_catalog(name, **kw)
        num = np.abs(f(z) - f(w))
        den = np.linalg.norm(z - w, axis=1)
        assert np.all(num <= f.lip_const * den + 1e-12)
        assert np.max(np.abs(f(z))) <= f.sup_norm + 1e-12


def test_poly_observable_product_of_means():
    mu = EmpiricalMeasure(np.array([[0.0], [1.0]]))
    obs = ObservableProduct((CONST_ONE, CONST_ONE, CONST_ONE))
    assert poly_observable(mu, obs) == 1.0
    obs2 = ObservableProduct((IDENTITY, IDENTITY))
    assert poly_observable(mu, obs2) == pytest.approx(0.25, abs=1e-15)


def test_poly_observable_permutation_invariant_bitwise():
    rng = np.random.default_rng(1)
    atoms = rng.normal(size=(23, 2))
    obs = ObservableProduct((
        observable_catalog("gauss_bump", center=[0.0, 0.0], width=1.0),
        observable_catalog("tanh_coord", axis=1),
    ))
    a = poly_observable(EmpiricalMeasure(atoms), obs)
    b = poly_observable(EmpiricalMeasure(atoms[rng.permutation(23)]), obs)
    assert a == b


def test_poly_observable_multiplicative_over_concatenation():
    rng = np.random.default_rng(2)
    mu = EmpiricalMeasure(rng.normal(size=(17, 1)))
    f = observable_catalog("gauss_bump", center=[0.0], width=1.0)
    g = observable_catalog("tanh_coord", axis=0, scale=2.0)
    lhs = poly_observable(mu, ObservableProduct((f, g)))
    rhs = poly_observable(mu, ObservableProduct((f,))) * poly_observable(
        mu, ObservableProduct((g,))
    )
    assert lhs == pytest.approx(rhs, rel=1e-15)


def test_u_statistic_matches_enumeration():
    rng = np.random.default_rng(3)
    atoms = rng.normal(size=(7, 1))
    fs = [
        observable_catalog("gauss_bump", center=[0.0], width=1.0),
        observable_catalog("tanh_coord", axis=0),
        observable_catalog("tanh_square", axis=0, scale=1.5),
    ]
    for ell in (2, 3):
        obs = ObservableProduct(tuple(fs[:ell]))
        got = u_statistic(atoms, obs)
        vals = [f(atoms) for f in fs[:ell]]
        total = 0.0
        cnt = 0
        for tup in permutations(range(7), ell):
            prod = 1.0
            for j, i in enumerate(tup):
                prod *= vals[j][i]
            total += prod
            cnt += 1
        assert got == pytest.approx(total / cnt, rel=1e-12)


def test_symmetrization_gap_ell_one_zero():
    state = ParticleState(np.random.default_rng(4).normal(size=(6, 1)))
    obs = ObservableProduct((observable_catalog("tanh_coord", axis=0),))
    gap, bound = symmetrization_gap(state, obs)
    assert gap == 0.0
    assert bound == pytest.approx(2.0 / 6.0)


def test_symmetrization_gap_equal_atoms_zero():
    state = ParticleState(np.full((8, 1), 0.37))
    obs = ObservableProduct((
        observable_catalog("tanh_coord", axis=0),
        observable_catalog("gauss_bump", center=[0.0], width=1.0),
    ))
    gap, bound = symmetrization_gap(state, obs)
    assert gap <= 1e-15


def test_symmetrization_gap_bound_random_instances():
    rng = np.random.default_rng(5)
    fs = [
        observable_catalog("gauss_bump", center=[0.0], width=1.0),
        observable_catalog("tanh_coord", axis=0),
        observable_catalog("tanh_square", axis=0),
    ]
    for _ in range(200):
        ell = int(rng.integers(1, 4))
        n = int(rng.integers(2 * ell, 11))
        state = ParticleState(rng.normal(size=(n, 1)) * 2.0)
        obs = ObservableProduct(tuple(rng.permutation(fs)[:ell]))
        gap, bound = symmetrization_gap(state, obs)
        assert gap <= bound + 1e-15


def test_symmetrization_gap_rejects_small_n():
    state = ParticleState(np.zeros((3, 1)))
    obs = ObservableProduct((IDENTITY, IDENTITY))
    with pytest.raises(ValueError, match="2\\*ell"):
        symmetrization_gap(state, obs)


def test_marginal_observable_uses_leading_particles():
    state = ParticleState(np.array([[1.0], [2.0], [3.0]]))
    obs = ObservableProduct((IDENTITY, IDENTITY))
    assert marginal_observable(state, obs) == pytest.approx(2.0)


# ------------------------------------------------------------------ rate fit


def test_rate_fit_recovers_planted_slopes():
    n = np.array([16, 64, 256, 1024, 4096])
    for target in (-1.0, -2.0 / 7.0):
        errs = 3.0 * n.astype(float) ** target
        slope, _, ci = rate_fit(n, errs, np.full(5, 1e-9))
        assert slope == pytest.approx(target, abs=1e-2)
        assert ci[0] <= target <= ci[1]


def test_rate_fit_guards():
    n = np.array([16, 64, 256, 1024])
    errs = 1.0 / n.astype(float)
    with pytest.raises(ValueError, match="decades"):
        rate_fit(np.array([16, 20, 24, 28]), np.ones(4) * 0.1, np.zeros(4))
    with pytest.raises(ValueError, match="at least 4"):
        rate_fit(n[:3], errs[:3], np.zeros(3))
    with pytest.raises(DegenerateFit):
        rate_fit(n, errs, errs)  # se == err: indistinguishable from zero


# ------------------------------------------------------- chaos error curves


def _kac_simulator(kern, init_var, times):
    def simulate(n: int, stream: RngStream):
        init = gaussian_sample_state(np.zeros(3), np.full(3, init_var), n, stream)
        return simulate_kac(init, kern, float(max(times)), times, stream)

    return simulate


def test_chaos_curve_self_comparison_zero():
    kern = AngularKernel.isotropic(3)
    times = [0.5, 1.0]
    obs = ObservableProduct((observable_catalog("gauss_bump", center=[0.0, 0.0, 0.0]),))
    sim = _kac_simulator(kern, 1.0, times)

    # oracle built from the same (N, streams) runs: gap is exactly zero
    vals = []
    for r in range(4):
        states = sim(64, RngStream(123, 1000 + r))
        vals.append([u_statistic(s.coords, obs) for s in states])
    vals = np.array(vals)
    oracle = OracleEstimate(
        times=np.asarray(times), mean=vals.mean(axis=0),
        standard_error=vals.std(axis=0, ddof=1) / 2.0, per_replica=vals,
    )
    curve = chaos_error_curve(
        "elastic", sim, obs, [64], times, replicas=4, oracle=oracle,
        rng_factory=lambda k, r: RngStream(123, 1000 + r), fit=False,
    )
    assert curve.errors[0] <= 1e-14


def test_chaos_curve_oracle_resolution_warning():
    times = [0.25]
    obs = ObservableProduct((observable_catalog("gauss_bump", center=[0.0, 0.0, 0.0]),))
    kern = AngularKernel.isotropic(3)
    sim = _kac_simulator(kern, 1.0, times)
    noisy = OracleEstimate(
        times=np.asarray(times), mean=np.array([0.35]),
        standard_error=np.array([0.3]), per_replica=np.array([[0.05], [0.65]]),
    )
    with pytest.warns(RuntimeWarning, match="not resolved"):
        chaos_error_curve(
            "elastic", sim, obs, [16], times, replicas=3, oracle=noisy,
            rng_factory=lambda k, r: RngStream(5, r), fit=False,
        )


def test_chaos_curve_fit_keeps_intercept():
    # planted err(N) = 3/N with zero spread: the fit is log err = log 3 - log N
    obs = ObservableProduct((IDENTITY,))
    curve = chaos_error_curve(
        "planted", lambda n, stream: [ParticleState(np.full((n, 1), 3.0 / n))],
        obs, [10, 100, 1000, 10_000], [1.0], replicas=2, oracle=np.zeros(1),
        rng_factory=lambda k, r: RngStream(0, r), fit=True,
    )
    assert curve.fitted_slope == pytest.approx(-1.0, abs=1e-9)
    assert curve.fit_intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert curve.fit_intercept == rate_fit(curve)[1]


def test_chaos_curve_marginal_vs_ustat_consistency():
    # both estimators target the same expectation; with many replicas the
    # marginal mean lands within a few SE of the u-stat mean
    kern = AngularKernel.isotropic(3)
    times = [0.5]
    obs = ObservableProduct((observable_catalog("tanh_square", axis=0),))
    sim = _kac_simulator(kern, 1.0, times)
    oracle = np.array([0.0])  # exact-zero placeholder; compare raw means
    a = chaos_error_curve("elastic", sim, obs, [32], times, 400, oracle,
                          lambda k, r: RngStream(9, r), estimator="marginal", fit=False)
    b = chaos_error_curve("elastic", sim, obs, [32], times, 50, oracle,
                          lambda k, r: RngStream(10, r), estimator="empirical-mean",
                          fit=False)
    se = math.sqrt(a.std_errors[0] ** 2 + b.std_errors[0] ** 2)
    assert abs(a.errors[0] - b.errors[0]) < 4 * se


# ------------------------------------------------------------- contractions


def test_tanaka_identical_initial_data_zero():
    kern = AngularKernel.isotropic(3)

    def sampler(stream):
        st = gaussian_sample_state(np.zeros(3), np.ones(3), 32, stream)
        return st, st.copy()

    res = tanaka_contraction_check(sampler, kern, [0.0, 0.5, 1.0], 4,
                                   lambda r: RngStream(31, r))
    np.testing.assert_array_equal(res.w2_mean, 0.0)
    assert res.contraction_holds


def test_tanaka_shifted_gaussians_contract():
    kern = AngularKernel.isotropic(3)
    shift = np.array([1.0, 0.0, 0.0])

    def sampler(stream):
        st = gaussian_sample_state(np.zeros(3), np.ones(3), 256, stream)
        return st, ParticleState(st.coords + shift)

    res = tanaka_contraction_check(sampler, kern, [0.0, 0.5, 1.0, 2.0], 8,
                                   lambda r: RngStream(37, r))
    assert res.w2_mean[0] == pytest.approx(1.0, abs=1e-12)  # exact at t = 0
    assert np.all(np.diff(res.w2_mean) <= 1e-12)  # pathwise non-increase
    assert res.contraction_holds


def test_fourier_contraction_identical_flagged():
    xi = make_xi_grid(8.0, 128)
    a = gaussian_spectrum(xi, 1.0)
    res = fourier_contraction_check(a, a.copy(), 0.8, 3.0, 0.05, dt=0.01)
    assert res.identical_inputs and res.max_ratio == 0.0


def test_fourier_contraction_gaussian_pair_under_envelope():
    xi = make_xi_grid(8.0, 256)
    a = gaussian_spectrum(xi, 0.8)
    b = gaussian_spectrum(xi, 1.6)
    res = fourier_contraction_check(a, b, 0.8, 3.0, 1.0, dt=2e-3)
    assert not res.identical_inputs
    assert res.max_ratio <= 1.01
