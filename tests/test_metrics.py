import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfield.core import EmpiricalMeasure, RngStream, gaussian_sample_state
from meanfield.metrics import (
    _normal_quantile_blocks,
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
    # a zero-variance law is a point mass: every atom sits on it, and so does
    # every quantile block, whatever the mean
    for mean in (0.0, 0.37):
        res = empirical_sampling_error([mean], [0.0], 8, 4, lambda sid: RngStream(1, sid))
        assert res.mean == 0.0 and res.estimator == "exact-1d"


def test_sampling_error_self_reference_zero():
    # the sliced route in d = 3: a point mass off the origin and its own
    # samples project to the same points on every direction
    res = empirical_sampling_error([0.5, -2.0, 3.0], [0.0, 0.0, 0.0], 256, 2,
                                   lambda sid: RngStream(2, sid), n_projections=16)
    assert res.mean == 0.0 and res.estimator == "sliced"
    assert res.per_replica.tolist() == [0.0, 0.0]


def test_sampling_error_gaussian_1d_decay():
    res_small = empirical_sampling_error([1.5], [4.0], 16, 32, lambda sid: RngStream(3, sid))
    res_big = empirical_sampling_error([1.5], [4.0], 256, 32, lambda sid: RngStream(4, sid))
    assert res_small.mean > res_big.mean > 0
    assert res_small.standard_error > 0


def test_sampling_error_validations():
    # bad arguments are refused before any stream is made, let alone drawn from
    streams = []

    def factory(sid):
        streams.append(sid)
        return RngStream(0, sid)

    for estimator in ("sliced", "auto"):
        with pytest.raises(ValueError, match="n_projections must be >= 1"):
            empirical_sampling_error([0.0, 0.0], [1.0, 1.0], 4, 2, factory,
                                     estimator=estimator, n_projections=0)
    bad_laws = [
        ([0.0, np.inf], [1.0, 1.0], "law_mean must be finite"),
        ([np.nan], [1.0], "law_mean must be finite"),
        ([0.0], [np.nan], "law_variance must be finite and nonnegative"),
        ([0.0], [np.inf], "law_variance must be finite and nonnegative"),
        ([0.0, 0.0], [1.0, -1.0], "law_variance must be finite and nonnegative"),
        ([0.0, 0.0], [1.0], "equal, nonzero length"),
        ([], [], "equal, nonzero length"),
    ]
    for mean, var, message in bad_laws:
        with pytest.raises(ValueError, match=message):
            empirical_sampling_error(mean, var, 4, 2, factory)
    with pytest.raises(ValueError, match="exact-1d estimator requires a 1-D law"):
        empirical_sampling_error([0.0, 0.0], [1.0, 1.0], 4, 2, factory, estimator="exact-1d")
    assert streams == []


def _mp_quantile_block(n, i):
    """Mean and variance of the standard normal on its quantile block [i/n, (i+1)/n]."""
    import mpmath as mp

    edge = lambda j: mp.sqrt(2) * mp.erfinv(2 * mp.mpf(j) / n - 1)  # the quantile at j/n
    a = -mp.inf if i == 0 else edge(i)
    b = mp.inf if i == n - 1 else edge(i + 1)
    phi = lambda z: mp.exp(-z * z / 2) / mp.sqrt(2 * mp.pi)
    mean = n * mp.quad(lambda z: z * phi(z), [a, b])
    return mean, n * mp.quad(lambda z: (z - mean) ** 2 * phi(z), [a, b])


@pytest.mark.parametrize("n", [1, 2, 3, 16, 1024, 4096])
def test_normal_quantile_blocks_match_mpmath(n):
    import mpmath as mp

    q_mean, q_var = _normal_quantile_blocks(n)
    assert q_mean.shape == q_var.shape == (n,)
    # every block up to 16; beyond, both tails, the middle and a stride of n/16
    blocks = set(range(n)) if n <= 16 else (
        {0, 1, 2, n // 2 - 1, n // 2, n - 3, n - 2, n - 1} | set(range(5, n, n // 16)))
    with mp.workdps(30):
        for i in sorted(blocks):
            mean, var = _mp_quantile_block(n, i)
            assert abs(q_mean[i] - float(mean)) <= 1e-12, i
            assert abs(q_var[i] / float(var) - 1.0) <= 1e-11, i


def test_sampling_error_exact_1d_equals_sliced_in_one_dimension():
    # in 1-D a direction is +1 or -1, and either reproduces the exact coupling
    factory = lambda sid: RngStream(5, sid)
    exact = empirical_sampling_error([0.7], [2.5], 64, 8, factory, estimator="exact-1d")
    sliced = empirical_sampling_error([0.7], [2.5], 64, 8, factory, estimator="sliced",
                                      n_projections=16)
    assert (exact.estimator, sliced.estimator) == ("exact-1d", "sliced")
    np.testing.assert_allclose(sliced.per_replica, exact.per_replica, rtol=1e-14, atol=0.0)


def _reference_sampling_error(law_mean, law_variance, n, replicas, reference_size,
                              rng_factory, n_projections):
    """The sliced estimate against a sorted i.i.d. reference sample of the law.

    The law is proxied by ``reference_size`` points from stream 0, and each
    sample atom is coupled with its block of reference_size / n sorted
    reference projections; as the reference grows this tends to the
    estimate against the exact block moments.
    """
    draw = lambda size, sid: gaussian_sample_state(law_mean, law_variance, size,
                                                   rng_factory(sid)).coords
    ref = draw(reference_size, 0)
    dirs = rng_factory(1).unit_vectors(ref.shape[1], n_projections)
    blocks = np.sort(ref @ dirs.T, axis=0).reshape(n, reference_size // n, n_projections)
    block_mean = blocks.mean(axis=1)
    block_var = ((blocks - block_mean[:, None, :]) ** 2).mean(axis=1)
    sq = np.empty(replicas)
    for r in range(replicas):
        proj = np.sort(draw(n, 2 + r) @ dirs.T, axis=0)
        sq[r] = float(np.mean(block_var + (block_mean - proj) ** 2))
    return sq


@pytest.mark.parametrize("d", [1, 3])
def test_sampling_error_block_moments_match_block_tensor(d):
    # the reference estimate's distance to the law estimate falls like
    # reference_size^(-1/2) (its sorted blocks' fluctuation): a 16-fold
    # reference should cut it about 4-fold, here averaged over 16 references
    mean, var = np.full(d, 2.0), np.arange(1.0, d + 1) ** 2
    for n in (4, 32):
        gaps = np.zeros(2)
        for seed in range(16):
            factory = lambda sid: RngStream(100 * d + seed, 1000 * n + sid)
            law = empirical_sampling_error(mean, var, n, 8, factory, estimator="sliced",
                                           n_projections=16)
            assert law.estimator == "sliced"
            for j, factor in enumerate((64, 1024)):
                ref = _reference_sampling_error(mean, var, n, 8, factor * n, factory, 16)
                gaps[j] += abs(ref.mean() / law.mean - 1.0) / 16
        assert gaps[0] < 0.1, (n, gaps)
        assert gaps[1] < 0.5 * gaps[0], (n, gaps)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n_projections", [1, 2, 9, 64, 65])
def test_sampling_error_projection_blocks_bitwise(d, n_projections):
    # each row of the (n_projections, n) array holds one projection's coupling
    # against that projection's own block moments; checked one row at a time
    mean, var = np.full(d, -1.0), np.arange(1.0, d + 1) ** 2
    factory = lambda sid: RngStream(60 + d, 1000 * n_projections + sid)
    res = empirical_sampling_error(mean, var, 16, 5, factory, estimator="sliced",
                                   n_projections=n_projections)
    dirs = factory(1).unit_vectors(d, n_projections)
    q_mean, q_var = _normal_quantile_blocks(16)
    sq = np.empty(5)
    for r in range(5):
        proj = dirs @ gaussian_sample_state(mean, var, 16, factory(2 + r)).coords.T
        costs = np.empty_like(proj)
        for k, row in enumerate(proj):
            s2 = float(np.square(dirs[k]) @ var)
            mu = float(dirs[k] @ mean)
            costs[k] = (np.sort(row) - (mu + math.sqrt(s2) * q_mean)) ** 2 + s2 * q_var
        sq[r] = costs.mean()
    assert res.per_replica.tobytes() == sq.tobytes()
    se = float(sq.std(ddof=1) / math.sqrt(5))
    assert (res.mean, res.standard_error) == (float(sq.mean()), se)


def test_sampling_error_memory():
    # a replica holds one (n_projections, N) array and the block-moment
    # tables two more: 0.5 MiB each at N = 1024 with 64 projections
    import tracemalloc

    tracemalloc.start()
    try:
        empirical_sampling_error(np.zeros(3), np.ones(3), 1024, 2, lambda sid: RngStream(9, sid),
                                 estimator="sliced", n_projections=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sampling_error_rejects_unknown_estimator():
    with pytest.raises(ValueError, match="unknown estimator 'exact'"):
        empirical_sampling_error([0.0], [1.0], 8, 2, lambda sid: RngStream(0, sid),
                                 estimator="exact")
