import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfield.core import EmpiricalMeasure, RngStream
from meanfield.metrics import (
    empirical_sampling_error,
    h_neg_sobolev_norm,
    toscani_norm,
    tv_histogram,
    w1_exact_1d,
    w2_exact_matching,
    w2_sliced,
)

E = lambda a: EmpiricalMeasure(np.asarray(a, dtype=float))


def w2_exact_1d(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Oracle: W2 between equal-size 1-D empirical measures, sorted coupling."""
    assert a.n_atoms == b.n_atoms and a.dim == b.dim == 1
    diff = np.sort(a.atoms[:, 0]) - np.sort(b.atoms[:, 0])
    return math.sqrt(float(np.mean(diff**2)))


# ------------------------------------------------------------------ W1 / W2


def test_w1_two_diracs_and_identity():
    assert w1_exact_1d(E([0.0]), E([1.0])) == 1.0
    assert w1_exact_1d(E([0.3, -2.0]), E([-2.0, 0.3])) == 0.0


def test_w1_sorted_coupling():
    # sorted coupling 0->1, 2->3
    assert w1_exact_1d(E([0.0, 2.0]), E([1.0, 3.0])) == pytest.approx(1.0, abs=1e-15)


def test_w1_unequal_counts_quantile_coupling():
    # {0} vs {0,1}: Q_b jumps at u=1/2; integral of |0 - Q_b| = 1/2
    assert w1_exact_1d(E([0.0]), E([0.0, 1.0])) == pytest.approx(0.5, abs=1e-15)
    # non-nested sizes exercise the general refinement
    got = w1_exact_1d(E([0.0, 1.0]), E([0.0, 0.5, 1.0]))
    # refinement cells: Qa=0 on (0,1/2), 1 on (1/2,1); Qb=0,(1/3) .5,(2/3) 1
    # |diff|: (0,1/3):0, (1/3,1/2):.5, (1/2,2/3):.5, (2/3,1):0 -> 1/6*... = 1/6
    assert got == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_w2_matching_identity_and_1d():
    res = w2_exact_matching(E([[0.0, 1.0], [2.0, 2.0]]), E([[0.0, 1.0], [2.0, 2.0]]))
    assert res.cost == 0.0
    res = w2_exact_matching(E([0.0, 2.0]), E([1.0, 3.0]))
    assert res.cost == pytest.approx(1.0, abs=1e-15)
    assert math.sqrt(res.cost) == pytest.approx(w2_exact_1d(E([0.0, 2.0]), E([1.0, 3.0])))


def _brute_force_w2sq(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        c = np.sum((a - b[list(perm)]) ** 2) / n
        best = min(best, c)
    return best


def test_w2_matching_equals_bruteforce_n6():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 2))
        res = w2_exact_matching(E(a), E(b))
        assert res.cost == pytest.approx(_brute_force_w2sq(a, b), rel=1e-12)


@given(n=st.integers(2, 7), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_w2_matching_bruteforce_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3, 3, size=(n, 2))
    b = rng.uniform(-3, 3, size=(n, 2))
    res = w2_exact_matching(E(a), E(b))
    assert res.cost <= _brute_force_w2sq(a, b) + 1e-12
    assert res.cost >= _brute_force_w2sq(a, b) - 1e-12
    # returned permutation reproduces the cost and beats identity
    by_perm = np.sum((a - b[res.assignment]) ** 2) / n
    ident = np.sum((a - b) ** 2) / n
    assert res.cost == pytest.approx(by_perm, rel=1e-12)
    assert res.cost <= ident + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_w2_matching_cost_matrix_bitwise(d):
    # the cost matrix is built a coordinate at a time; cost and assignment
    # must be those of the (N, N, d) difference-tensor formula, bit for bit
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(70 + d)
    a = rng.normal(size=(96, d)) * 10.0 ** rng.uniform(-3, 3, size=(1, d))
    b = 0.5 + rng.normal(size=(96, d))
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(d2)
    res = w2_exact_matching(E(a), E(b))
    assert res.cost == math.fsum(d2[rows, cols].tolist()) / 96
    np.testing.assert_array_equal(res.assignment[rows], cols)


def test_w2_matching_rejections():
    with pytest.raises(ValueError):
        w2_exact_matching(E([0.0]), E([0.0, 1.0]))
    big = np.zeros((4097, 1))
    with pytest.raises(ValueError, match="sliced"):
        w2_exact_matching(E(big), E(big))


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (rng.normal(size=(8, 1)) for _ in range(3))
        ea, eb, ec = E(a), E(b), E(c)
        for dist in (w1_exact_1d, w2_exact_1d):
            dab, dba = dist(ea, eb), dist(eb, ea)
            assert dab == dba  # symmetry, exact
            assert dist(ea, ea) == 0.0
            assert dab <= dist(ea, ec) + dist(ec, eb) + 1e-10
        mab = math.sqrt(w2_exact_matching(ea, eb).cost)
        mba = math.sqrt(w2_exact_matching(eb, ea).cost)
        assert mab == pytest.approx(mba, abs=1e-14)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_w1_below_w2(seed):
    rng = np.random.default_rng(seed)
    a, b = E(rng.normal(size=9)), E(rng.normal(size=9))
    assert w1_exact_1d(a, b) <= w2_exact_1d(a, b) + 1e-12


# ------------------------------------------------------------------ sliced


def test_sliced_identical_and_1d_exact():
    a = E(np.arange(5.0))
    v, se = w2_sliced(a, a, 16, RngStream(0, 0))
    assert v == 0.0 and se == 0.0
    b = E(np.arange(5.0) + 0.7)
    v, _ = w2_sliced(a, b, 8, RngStream(0, 1))
    assert v == pytest.approx(w2_exact_1d(a, b), rel=1e-12)


def test_sliced_translated_gaussians_vs_exact():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(512, 2))
    shift = np.array([1.5, 0.0])
    a, b = E(base), E(base + shift)
    # identical clouds translated: exact matching cost = |shift|^2
    exact = w2_exact_matching(a, b)
    assert math.sqrt(exact.cost) == pytest.approx(np.linalg.norm(shift), rel=1e-9)
    # sliced picks up the expected |cos| projection factor: SW2 = |s|/sqrt(2)
    v, se = w2_sliced(a, b, 256, RngStream(77, 0))
    assert v == pytest.approx(np.linalg.norm(shift) / math.sqrt(2.0), rel=0.10)
    assert se < 0.1 * v


def test_sliced_reproducible():
    rng = np.random.default_rng(5)
    a, b = E(rng.normal(size=(64, 3))), E(rng.normal(size=(64, 3)))
    v1 = w2_sliced(a, b, 32, RngStream(9, 3))
    v2 = w2_sliced(a, b, 32, RngStream(9, 3))
    assert v1 == v2


# ------------------------------------------------------------------ Fourier norms

XI = np.linspace(-40.0, 40.0, 4096)


def test_toscani_zero_on_equal():
    a = E([0.0, 1.0, -0.5])
    v, _ = toscani_norm(a, a, 3.0, XI)
    assert v == 0.0
    v, _ = toscani_norm(E([0.0]), E([0.0]), 2.0, XI)
    assert v == 0.0


def test_toscani_dirac_pair_reference_value():
    # sup over xi of 2|sin(xi/2)| / (1+xi^2)^{3/2}; dense-scan oracle
    v, arg = toscani_norm(E([0.0]), E([1.0]), 3.0, XI)
    assert v == pytest.approx(0.3771678905281846, rel=2e-3)
    assert abs(abs(arg) - 0.6862287) < 0.05
    assert abs(arg) < 39.0  # supremum not attained at the boundary


def test_toscani_nodewise_vanishing():
    rng = np.random.default_rng(1)
    a, b = E(rng.normal(size=12)), E(rng.normal(size=12))
    v, _ = toscani_norm(a, b, 3.0, XI)
    assert v > 0


def test_hneg_zero_equal_and_homogeneous():
    a = E([0.0, 2.0])
    assert h_neg_sobolev_norm(a, a, 1.0, XI) == 0.0
    delta = np.exp(-(XI**2)) * (1 + 0.3j)
    one = h_neg_sobolev_norm(delta, np.zeros_like(delta), 1.0, XI)
    two = h_neg_sobolev_norm(2 * delta, np.zeros_like(delta), 1.0, XI)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_hneg_dirac_pair_grid_refinement():
    # truncated-integral oracle: ∫_{-40}^{40} (2-2cos xi)/(1+xi^2) dxi = 3.869814048765295
    coarse = h_neg_sobolev_norm(E([0.0]), E([1.0]), 1.0, XI)
    fine = h_neg_sobolev_norm(E([0.0]), E([1.0]), 1.0, np.linspace(-40, 40, 16384))
    oracle = math.sqrt(3.869814048765295)
    assert fine == pytest.approx(oracle, rel=1e-6)
    # Richardson-style: coarse within the refinement gap of the oracle
    assert abs(coarse - oracle) < 1e-3
    assert abs(coarse - fine) < 1e-3


def test_hneg_boundary_warning():
    xi = np.linspace(-2, 2, 64)  # far too narrow for a Dirac pair
    with pytest.warns(RuntimeWarning, match="boundary"):
        h_neg_sobolev_norm(E([0.0]), E([1.0]), 1.0, xi)


# ------------------------------------------------------------------ TV histogram


def test_tv_histogram_cases():
    edges = np.array([0.0, 1.0, 2.0])
    a = E([0.0, 0.0, 1.0, 1.0])
    assert tv_histogram(a, a, edges) == 0.0
    b = E([0.0, 1.0, 1.0, 1.0])
    assert tv_histogram(a, b, edges) == pytest.approx(0.5, abs=1e-15)
    c, d = E([-5.0, -6.0]), E([7.0, 8.0])
    assert tv_histogram(c, d, edges) == 2.0  # disjoint supports, overflow bins


# ------------------------------------------------------------------ sampling error


def test_sampling_error_dirac_zero():
    sampler = lambda n, rng: np.zeros((n, 1))
    res = empirical_sampling_error(sampler, 8, 4, 512, lambda sid: RngStream(1, sid))
    assert res.mean == 0.0 and res.estimator == "exact-1d"


def test_sampling_error_self_reference_zero():
    # the reference repeats each sample atom 64 times: every sorted block of
    # 64 reference atoms sits on its sample atom, so the coupling cost is 0
    base = np.linspace(-1, 1, 256)
    sampler = lambda n, rng: np.repeat(base, n // 256)[:, None]
    res = empirical_sampling_error(sampler, 256, 2, 64 * 256, lambda sid: RngStream(2, sid))
    assert res.mean == 0.0 and res.estimator == "exact-1d"


def test_sampling_error_gaussian_1d_decay():
    def sampler(n, rng):
        return rng.normal(size=(n, 1))

    res_small = empirical_sampling_error(
        sampler, 16, 32, 16 * 64, lambda sid: RngStream(3, sid)
    )
    res_big = empirical_sampling_error(
        sampler, 256, 32, 256 * 64, lambda sid: RngStream(4, sid)
    )
    assert res_small.mean > res_big.mean > 0
    assert res_small.standard_error > 0


def test_sampling_error_validations():
    sampler = lambda n, rng: np.zeros((n, 1))
    with pytest.raises(ValueError, match="64"):
        empirical_sampling_error(sampler, 16, 2, 100, lambda sid: RngStream(0, sid))
    # no projections is refused before any stream is made, let alone drawn from
    streams = []

    def factory(sid):
        streams.append(sid)
        return RngStream(0, sid)

    plane = lambda n, rng: rng.normal(size=(n, 2))
    for estimator in ("sliced", "auto"):
        with pytest.raises(ValueError, match="n_projections must be >= 1"):
            empirical_sampling_error(plane, 4, 2, 256, factory, estimator=estimator,
                                     n_projections=0)
    assert streams == []


def _block_tensor_sampling_error(f_sampler, n, replicas, reference_size, rng_factory,
                                 n_projections):
    """The sliced estimate formed from the full (n, M/n, P) block tensor."""
    ref = np.asarray(f_sampler(reference_size, rng_factory(0)), dtype=np.float64)
    ref = ref.reshape(reference_size, -1)
    dirs = rng_factory(1).unit_vectors(ref.shape[1], n_projections)
    blocks = np.sort(ref @ dirs.T, axis=0).reshape(n, reference_size // n, n_projections)
    sq = np.empty(replicas)
    for r in range(replicas):
        sample = np.asarray(f_sampler(n, rng_factory(2 + r)), dtype=np.float64).reshape(n, -1)
        proj = np.sort(sample @ dirs.T, axis=0)
        sq[r] = float(np.mean((blocks - proj[:, None, :]) ** 2))
    return sq


@pytest.mark.parametrize("d", [1, 3])
def test_sampling_error_block_moments_match_block_tensor(d):
    def sampler(n, rng):
        return 2.0 + rng.normal(size=(n, d)) * np.arange(1, d + 1)

    for n in (4, 32):
        factory = lambda sid, _n=n: RngStream(40 + d, 100 * _n + sid)
        res = empirical_sampling_error(sampler, n, 6, 64 * n, factory,
                                       estimator="sliced", n_projections=16)
        oracle = _block_tensor_sampling_error(sampler, n, 6, 64 * n, factory, 16)
        assert res.estimator == "sliced"
        np.testing.assert_allclose(res.per_replica, oracle, rtol=1e-13, atol=0.0)


def _unblocked_sampling_error(f_sampler, n, replicas, reference_size, rng_factory,
                              n_projections):
    """The sliced estimate with every reference projection column reduced at once."""
    ref = np.asarray(f_sampler(reference_size, rng_factory(0)), dtype=np.float64)
    ref = ref.reshape(reference_size, -1)
    dirs = rng_factory(1).unit_vectors(ref.shape[1], n_projections)
    blocks = ref @ dirs.T
    blocks.sort(axis=0)
    blocks = blocks.reshape(n, reference_size // n, n_projections)
    block_mean = blocks.mean(axis=1)
    blocks -= block_mean[:, None, :]
    block_var = np.square(blocks, out=blocks).mean(axis=1)
    sq = np.empty(replicas)
    for r in range(replicas):
        sample = np.asarray(f_sampler(n, rng_factory(2 + r)), dtype=np.float64).reshape(n, -1)
        proj = np.sort(sample @ dirs.T, axis=0)
        sq[r] = float(np.mean(block_var + (block_mean - proj) ** 2))
    return sq, float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(replicas))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n_projections", [1, 2, 9, 64, 65])
def test_sampling_error_projection_blocks_bitwise(d, n_projections):
    # 9 and 65 end in a lone column, which joins the block before it
    def sampler(n, rng):
        return -1.0 + rng.normal(size=(n, d)) * np.arange(1, d + 1)

    factory = lambda sid: RngStream(60 + d, 1000 * n_projections + sid)
    res = empirical_sampling_error(sampler, 16, 5, 64 * 16, factory,
                                   estimator="sliced", n_projections=n_projections)
    sq, mean, se = _unblocked_sampling_error(sampler, 16, 5, 64 * 16, factory, n_projections)
    assert res.per_replica.tobytes() == sq.tobytes()
    assert (res.mean, res.standard_error) == (mean, se)


def test_sampling_error_reference_memory():
    # the sorted projections of a 64 N reference are held a column block at
    # a time: 64 projections at N = 1024 would otherwise take 32 MiB alone
    import tracemalloc

    def sampler(n, rng):
        return rng.normal(size=(n, 3))

    tracemalloc.start()
    try:
        empirical_sampling_error(sampler, 1024, 2, 64 * 1024, lambda sid: RngStream(9, sid),
                                 estimator="sliced", n_projections=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_sampling_error_rejects_unknown_estimator():
    sampler = lambda n, rng: np.zeros((n, 1))
    with pytest.raises(ValueError, match="unknown estimator 'exact'"):
        empirical_sampling_error(sampler, 8, 2, 512, lambda sid: RngStream(0, sid),
                                 estimator="exact")
