import math
import time
from itertools import permutations

import numpy as np
import pytest

from meanfield.core import (
    EmpiricalMeasure,
    ParticleState,
    RngStream,
    canonical_atom_order,
    gaussian_sample_state,
)
from meanfield.elastic import AngularKernel, simulate_kac
from meanfield import cli, harness
from meanfield.harness import (
    DegenerateFit,
    chaos_error_curve,
    fourier_contraction_check,
    observable_series,
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
)
from oracles import tanaka_per_replica

CONST_ONE = Observable("one", lambda a: np.ones(a.shape[:-1]), 1.0, 0.0)
IDENTITY = Observable("id01", lambda a: a[..., 0], 1.0, 1.0)


def poly_observable(mu: EmpiricalMeasure, obs: ObservableProduct) -> float:
    """Oracle: the product of atom averages Π_j ⟨phi_j, mu⟩ over canonical atoms."""
    atoms = canonical_atom_order(mu.atoms)
    out = 1.0
    for f in obs.factors:
        out *= float(np.mean(f(atoms)))
    return out


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
    # the oracle is the polynomial side of the symmetrization gap, bit for bit
    gap, _ = symmetrization_gap(ParticleState(atoms), obs)
    assert gap == abs(a - u_statistic(atoms, obs))


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


def closed_form_u_statistic(atoms: np.ndarray, obs: ObservableProduct) -> float:
    """Oracle: inclusion-exclusion over coincident indices, written out for ell <= 3."""
    n = atoms.shape[0]
    a = canonical_atom_order(atoms)
    vals = [f(a) for f in obs.factors]
    sums = [float(v.sum()) for v in vals]
    if obs.ell == 1:
        return sums[0] / n
    if obs.ell == 2:
        s12 = float((vals[0] * vals[1]).sum())
        return (sums[0] * sums[1] - s12) / (n * (n - 1))
    s12 = float((vals[0] * vals[1]).sum())
    s13 = float((vals[0] * vals[2]).sum())
    s23 = float((vals[1] * vals[2]).sum())
    s123 = float((vals[0] * vals[1] * vals[2]).sum())
    total = (
        sums[0] * sums[1] * sums[2]
        - s12 * sums[2] - s13 * sums[1] - s23 * sums[0]
        + 2.0 * s123
    )
    return total / (n * (n - 1) * (n - 2))


def test_u_statistic_matches_enumeration():
    rng = np.random.default_rng(3)
    atoms = rng.normal(size=(7, 1))
    fs = [
        observable_catalog("gauss_bump", center=[0.0], width=1.0),
        observable_catalog("tanh_coord", axis=0),
        observable_catalog("tanh_square", axis=0, scale=1.5),
        observable_catalog("gauss_bump", center=[0.7], width=0.5),
        observable_catalog("tanh_coord", axis=0, scale=0.4),
    ]
    for ell in range(1, 6):
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


def test_u_statistic_bitwise_equals_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(400):
        ell = int(rng.integers(1, 4))
        n = int(rng.integers(3, 1001))
        d = int(rng.integers(1, 3))
        fs = tuple(
            observable_catalog("gauss_bump", center=list(rng.normal(size=d)),
                               width=float(rng.uniform(0.3, 2.0)))
            if rng.random() < 0.5
            else observable_catalog(str(rng.choice(["tanh_coord", "tanh_square"])),
                                    axis=int(rng.integers(0, d)),
                                    scale=float(rng.uniform(0.3, 2.0)))
            for _ in range(ell)
        )
        atoms = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
        obs = ObservableProduct(fs)
        assert u_statistic(atoms, obs) == closed_form_u_statistic(atoms, obs)
    # the sign of a zero survives: 0 * (-2) - 0 is -0.0 in both
    zero = Observable("zero", lambda a: np.zeros(a.shape[0]), 1.0, 0.0)
    neg = Observable("neg", lambda a: -np.ones(a.shape[0]), 1.0, 0.0)
    got = u_statistic(np.zeros((2, 1)), ObservableProduct((zero, neg)))
    want = closed_form_u_statistic(np.zeros((2, 1)), ObservableProduct((zero, neg)))
    assert got == want == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, want) == -1.0


def test_u_statistic_large_n_high_ell_constant_one():
    atoms = np.random.default_rng(12).normal(size=(4096, 1))
    for ell, tol in ((4, 0.0), (6, 1e-14)):
        t0 = time.perf_counter()
        got = u_statistic(atoms, ObservableProduct((CONST_ONE,) * ell))
        assert time.perf_counter() - t0 < 1.0
        assert abs(got - 1.0) <= tol


def test_u_statistic_refuses_ell_above_eight():
    atoms = np.random.default_rng(13).normal(size=(16, 1))
    t0 = time.perf_counter()
    got = u_statistic(atoms, ObservableProduct((CONST_ONE,) * 8))
    assert time.perf_counter() - t0 < 5.0  # Bell(8) = 4140 partitions
    assert abs(got - 1.0) <= 1e-12
    for ell in (9, 12):
        with pytest.raises(ValueError, match=f"Bell\\({ell}\\)"):
            u_statistic(atoms, ObservableProduct((CONST_ONE,) * ell))


def test_observable_series_stack_equals_single_configurations():
    # a (R, N, m) stack per snapshot gives, bit for bit, each configuration's
    # own value: leading-coordinate ties, repeated atoms, every catalog factor
    rng = np.random.default_rng(21)
    for trial in range(120):
        d = int(rng.integers(1, 4))
        reps = int(rng.integers(1, 6))
        n = int(rng.choice([2, 3, 7, 64, 300]))
        stacks = [rng.normal(size=(reps, n, d)) for _ in range(2)]
        if trial % 3 == 0:
            stacks[0][..., 0] = np.round(stacks[0][..., 0], 1)
        if trial % 4 == 0:
            stacks[1][0, 1] = stacks[1][0, 0]
        factors = [
            observable_catalog("gauss_bump", center=rng.normal(size=d), width=1.3),
            observable_catalog("tanh_coord", axis=int(rng.integers(0, d))),
            observable_catalog("tanh_square", axis=0, scale=0.7),
        ]
        ell = int(rng.integers(1, min(3, n) + 1))
        obs = ObservableProduct(tuple(factors[i] for i in rng.integers(0, 3, size=ell)))
        for estimator, single in (("empirical-mean", u_statistic),
                                  ("marginal", marginal_observable)):
            got = observable_series(stacks, obs, estimator)
            want = [[single(stack[r], obs) for stack in stacks] for r in range(reps)]
            assert got.shape == (reps, 2)
            assert got.tolist() == want


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
    assert marginal_observable(state.coords, obs) == pytest.approx(2.0)


# ------------------------------------------------------------------ rate fit


def test_rate_fit_recovers_planted_slopes():
    n = np.array([16, 64, 256, 1024, 4096])
    for target in (-1.0, -2.0 / 7.0):
        errs = 3.0 * n.astype(float) ** target
        slope, _, ci = rate_fit(n, errs, np.full(5, 1e-9))
        assert slope == pytest.approx(target, abs=1e-2)
        assert ci[0] <= target <= ci[1]


def _rate_fit_reference(n_values, errors, std_errors, n_bootstrap=400, seed=7):
    """The fit as first written: np.polyfit, one normal draw and one fit per resample."""
    x, y = np.log(n_values), np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    if np.all(std_errors == 0.0):
        return float(slope), float(intercept), (float(slope), float(slope))
    rng = RngStream(seed, 1331)
    slopes = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        noise = np.atleast_1d(rng.normal(size=len(errors)))
        pert = np.maximum(errors + std_errors * noise, 1e-300)
        slopes[b] = np.polyfit(x, np.log(pert), 1)[0]
    lo, hi = np.quantile(slopes, [0.025, 0.975])
    return float(slope), float(intercept), (float(lo), float(hi))


def test_rate_fit_equals_per_resample_reference_bitwise():
    # 4-8 values of N over 1.5-4 decades, standard errors up to 45 % of the
    # errors (some resamples clip at 1e-300), and all-zero standard errors;
    # a many-column least-squares solve differs from these in a last bit
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = np.unique((10 ** rng.uniform(0.0, 4.0, int(rng.integers(4, 9)))).astype(int) + 1)
        if len(n) < 4 or np.log10(n.max() / n.min()) < 1.5:
            continue
        err = 3.0 / n * np.exp(rng.normal(0.0, 0.3, len(n)))
        se = err * rng.uniform(0.01, 0.45, len(n))
        seed = int(rng.integers(0, 50))
        assert rate_fit(n, err, se, seed=seed) == _rate_fit_reference(n, err, se, seed=seed)
    n = np.array([16, 64, 256, 1024])
    assert rate_fit(n, 2.0 / n, np.zeros(4)) == _rate_fit_reference(n, 2.0 / n, np.zeros(4))


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


def _kac_values(obs, times, n, replicas, seed, estimator="empirical-mean"):
    """(replicas, n_times) observable values of elastic-gas replica runs."""
    kern = AngularKernel.isotropic(3)
    rows = []
    for r in range(replicas):
        stream = RngStream(seed, r)
        init = gaussian_sample_state(np.zeros(3), np.ones(3), n, stream)
        states = simulate_kac(init, kern, float(max(times)), times, [stream])
        rows.append(observable_series([s.coords[None] for s in states], obs, estimator)[0])
    return np.stack(rows)


def _bootstrap_reference(values, oracle_values, seed):
    """The chaos-curve bootstrap loop as the CLI ran it before the harness owned it."""
    replicas_ref = len(oracle_values)
    o_mean = oracle_values.mean(axis=0)
    errors = np.empty(len(values))
    std_errors = np.empty(len(values))
    boot_rng = RngStream(seed, 977)
    for k, vals in enumerate(values):
        replicas = len(vals)
        gaps = np.abs(vals.mean(axis=0) - o_mean)
        errors[k] = float(gaps.max())
        if replicas > 1:
            bs = np.empty(200)
            for bi in range(200):
                pick = np.asarray(boot_rng.integers(0, replicas, size=replicas))
                mean_b = vals[pick].mean(axis=0)
                if replicas_ref > 1:
                    opick = np.asarray(boot_rng.integers(0, replicas_ref, size=replicas_ref))
                    om = oracle_values[opick].mean(axis=0)
                else:
                    om = o_mean
                bs[bi] = float(np.abs(mean_b - om).max())
            std_errors[k] = float(bs.std(ddof=1))
        else:
            std_errors[k] = 0.0
    return errors, std_errors


@pytest.mark.filterwarnings("ignore:oracle standard error:RuntimeWarning")
def test_chaos_curve_equals_cli_bootstrap_bitwise():
    rng = np.random.default_rng(2024)
    times = np.array([0.5, 1.0, 1.5])
    n_values = [4, 16, 64]
    values = [rng.normal(size=(reps, 3)) for reps in (7, 2, 5)]
    oracle_values = rng.normal(size=(4, 3))
    cases = [
        ("multi-replica oracle", values, OracleEstimate.from_replicas(times, oracle_values),
         oracle_values),
        ("one-replica oracle", values, OracleEstimate.from_replicas(times, oracle_values[:1]),
         oracle_values[:1]),
        ("one replica per N", [v[:1] for v in values],
         OracleEstimate.from_replicas(times, oracle_values), oracle_values),
    ]
    for label, vals, oracle, reference_oracle in cases:
        curve = chaos_error_curve(n_values, vals, oracle, seed=13)
        errors, std_errors = _bootstrap_reference(vals, reference_oracle, 13)
        assert curve.errors.tobytes() == errors.tobytes(), label
        assert curve.std_errors.tobytes() == std_errors.tobytes(), label
        np.testing.assert_array_equal(curve.n_values, n_values)
        assert curve.oracle_se_max == float(np.max(oracle.standard_error))
    assert np.all(curve.std_errors == 0.0)  # one replica per N: no spread
    # one snapshot time makes every replica mean a reduction along memory,
    # which numpy sums pairwise from 8 terms on: 200 and 33 replicas
    vals = [rng.normal(size=(reps, 1)) for reps in (200, 33, 9)]
    for o_vals in (rng.normal(size=(17, 1)), rng.normal(size=(1, 1))):
        curve = chaos_error_curve(n_values, vals, OracleEstimate.from_replicas(times[:1], o_vals),
                                  seed=14)
        errors, std_errors = _bootstrap_reference(vals, o_vals, 14)
        assert curve.errors.tobytes() == errors.tobytes()
        assert curve.std_errors.tobytes() == std_errors.tobytes()
    exact = OracleEstimate.from_replicas(times, oracle_values[:1])
    with pytest.raises(ValueError, match="one value array per N"):
        chaos_error_curve(n_values, values[:2], exact, seed=13)
    with pytest.raises(ValueError, match="matching the oracle"):
        chaos_error_curve(n_values, [v[:, :2] for v in values], exact, seed=13)


def test_chaos_curve_self_comparison_zero():
    times = [0.5, 1.0]
    obs = ObservableProduct((observable_catalog("gauss_bump", center=[0.0, 0.0, 0.0]),))
    # oracle built from the same (N, streams) runs: gap is exactly zero
    oracle = OracleEstimate.from_replicas(times, _kac_values(obs, times, 64, 4, 123))
    curve = chaos_error_curve([64], [_kac_values(obs, times, 64, 4, 123)], oracle, seed=1)
    assert curve.errors[0] <= 1e-14


def test_chaos_curve_oracle_resolution_warning():
    times = [0.25]
    obs = ObservableProduct((observable_catalog("gauss_bump", center=[0.0, 0.0, 0.0]),))
    noisy = OracleEstimate(
        times=np.asarray(times), mean=np.array([0.35]),
        standard_error=np.array([0.3]), per_replica=np.array([[0.05], [0.65]]),
    )
    with pytest.warns(RuntimeWarning, match="not resolved"):
        chaos_error_curve([16], [_kac_values(obs, times, 16, 3, 5)], noisy, seed=1)


def test_chaos_curve_fit_keeps_intercept():
    # planted err(N) = 3/N with zero spread: the fit is log err = log 3 - log N
    n_values = [10, 100, 1000, 10_000]
    values = [np.full((1, 1), 3.0 / n) for n in n_values]
    exact_zero = OracleEstimate.from_replicas([1.0], np.zeros((1, 1)))
    curve = chaos_error_curve(n_values, values, exact_zero, seed=0)
    np.testing.assert_array_equal(curve.std_errors, 0.0)
    footers = dict(cli._fit_footers(n_values, curve.errors, curve.std_errors))
    assert footers["fitted_slope"] == pytest.approx(-1.0, abs=1e-9)
    assert footers["fit_intercept"] == pytest.approx(math.log(3.0), abs=1e-9)
    assert footers["fit_intercept"] == rate_fit(n_values, curve.errors, curve.std_errors)[1]
    refused = dict(cli._fit_footers(n_values[:3], curve.errors[:3], curve.std_errors[:3]))
    assert refused == {"fit_refused": "rate fits need at least 4 values of N"}


def test_chaos_curve_marginal_vs_ustat_consistency():
    # both estimators target the same expectation; with many replicas the
    # marginal mean lands within a few SE of the u-stat mean
    times = [0.5]
    obs = ObservableProduct((observable_catalog("tanh_square", axis=0),))
    oracle = OracleEstimate.from_replicas(times, np.zeros((1, 1)))  # exact zero: raw means
    a = chaos_error_curve([32], [_kac_values(obs, times, 32, 400, 9, "marginal")], oracle, 1)
    b = chaos_error_curve([32], [_kac_values(obs, times, 32, 50, 10)], oracle, 1)
    se = math.sqrt(a.std_errors[0] ** 2 + b.std_errors[0] ** 2)
    assert abs(a.errors[0] - b.errors[0]) < 4 * se
    # the marginal reads particle 1 only, the U-statistic averages all
    stack = np.array([[[2.0], [0.0], [1.0]]])
    ident = ObservableProduct((IDENTITY,))
    np.testing.assert_array_equal(observable_series([stack], ident, "marginal"), [[2.0]])
    np.testing.assert_array_equal(observable_series([stack], ident, "empirical-mean"), [[1.0]])
    with pytest.raises(ValueError, match="estimator must be"):
        observable_series([stack], obs, "marginall")


# ------------------------------------------------------------- contractions


def test_tanaka_identical_initial_data_zero():
    kern = AngularKernel.isotropic(3)

    def sampler(stream):
        st = gaussian_sample_state(np.zeros(3), np.ones(3), 32, stream)
        return st, st.copy()

    res = tanaka_contraction_check(sampler, kern, [0.0, 0.5, 1.0],
                                   [RngStream(31, r) for r in range(4)])
    np.testing.assert_array_equal(res.w2_mean, 0.0)
    assert res.contraction_holds


def test_tanaka_shifted_gaussians_contract():
    kern = AngularKernel.isotropic(3)
    shift = np.array([1.0, 0.0, 0.0])

    def sampler(stream):
        st = gaussian_sample_state(np.zeros(3), np.ones(3), 256, stream)
        return st, ParticleState(st.coords + shift)

    res = tanaka_contraction_check(sampler, kern, [0.0, 0.5, 1.0, 2.0],
                                   [RngStream(37, r) for r in range(8)])
    assert res.w2_mean[0] == pytest.approx(1.0, abs=1e-12)  # exact at t = 0
    assert np.all(np.diff(res.w2_mean) <= 1e-12)  # pathwise non-increase
    assert res.contraction_holds


def test_tanaka_equals_per_replica_loop_bitwise():
    # the stacked check against one coupled run per replica, each replica
    # drawing its initial data and then its events from its stream
    kern = AngularKernel.isotropic(3)
    times = [0.0, 0.5, 1.0, 2.0]

    def sampler(stream):
        st = gaussian_sample_state(np.zeros(3), np.ones(3), 40, stream)
        return st, ParticleState(st.coords * np.array([2.0, 1.0, 1.0]))

    res = tanaka_contraction_check(sampler, kern, times, [RngStream(41, r) for r in range(9)])
    want = OracleEstimate.from_replicas(
        times, tanaka_per_replica(sampler, kern, times, [RngStream(41, r) for r in range(9)]))
    assert res.w2_mean.tobytes() == want.mean.tobytes()
    assert res.contraction_holds
    assert res.w2_mean[-1] < res.w2_mean[0]


def test_tanaka_refuses_empty_grid_mixed_particle_counts_and_no_streams():
    kern = AngularKernel.isotropic(3)

    def sampler(stream):  # the particle count depends on the stream
        st = gaussian_sample_state(np.zeros(3), np.ones(3), 8 + 2 * stream.stream_id, stream)
        return st, st.copy()

    with pytest.raises(ValueError, match="must start at 0"):
        tanaka_contraction_check(sampler, kern, [], [RngStream(3, 0)])
    with pytest.raises(ValueError, match="of one N, dimension and start time"):
        tanaka_contraction_check(sampler, kern, [0.0, 1.0], [RngStream(3, r) for r in range(2)])
    with pytest.raises(ValueError, match="need a stream"):
        tanaka_contraction_check(sampler, kern, [0.0, 1.0], [])


def test_fourier_contraction_identical_flagged():
    xi = make_xi_grid(8.0, 128)
    a = gaussian_spectrum(xi, 1.0)
    res = fourier_contraction_check(a, a.copy(), 0.8, 3.0, 0.05, dt=0.01)
    assert res.identical_inputs and res.max_ratio == 0.0


@pytest.mark.parametrize("t_end", [0.0, 0.0004, 0.2506])
def test_fourier_contraction_refuses_t_end_off_the_step_grid(t_end, monkeypatch):
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolved before refusing t_end")

    monkeypatch.setattr(harness, "spectral_evolve", no_evolve)
    xi = make_xi_grid(8.0, 128)
    a, b = gaussian_spectrum(xi, 0.8), gaussian_spectrum(xi, 1.6)
    with pytest.raises(ValueError, match=rf"t_end={t_end}.*dt=0\.001"):
        fourier_contraction_check(a, b, 0.8, 3.0, t_end, dt=1e-3)


def test_fourier_contraction_reads_t_end_within_the_grid_tolerance():
    # 1e-7 steps short of 5 steps: run_fixed_steps reads it as step 5
    xi = make_xi_grid(8.0, 128)
    a, b = gaussian_spectrum(xi, 0.8), gaussian_spectrum(xi, 1.6)
    res = fourier_contraction_check(a, b, 0.8, 3.0, 0.05 - 1e-9, dt=0.01)
    assert res.times[-1] == 5 * 0.01 and not res.identical_inputs


def test_fourier_contraction_gaussian_pair_under_envelope():
    xi = make_xi_grid(8.0, 256)
    a = gaussian_spectrum(xi, 0.8)
    b = gaussian_spectrum(xi, 1.6)
    res = fourier_contraction_check(a, b, 0.8, 3.0, 1.0, dt=2e-3)
    assert not res.identical_inputs
    assert res.max_ratio <= 1.01
