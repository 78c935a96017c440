import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from meanfield.core import (
    EmpiricalMeasure,
    ParticleState,
    RngStream,
    SimulationError,
    canonical_atom_order,
    empirical_from_state,
    gaussian_sample_state,
    moment,
    quantile_init_1d,
)


def test_empirical_from_state_trivial_atoms():
    st0 = ParticleState(np.zeros((2, 1)))
    mu = empirical_from_state(st0)
    assert mu.n_atoms == 2 and mu.weight == 0.5
    assert np.all(mu.atoms == 0.0)

    st1 = ParticleState(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    mu1 = empirical_from_state(st1)
    assert mu1.weight == 0.5
    np.testing.assert_array_equal(mu1.atoms, st1.coords)


def test_empirical_measure_permutation_symmetric_functionals():
    rng = np.random.default_rng(7)
    atoms = rng.normal(size=(37, 3))
    perm = rng.permutation(37)
    for q in (0.0, 1.0, 2.0, 3.7):
        a = moment(EmpiricalMeasure(atoms), q)
        b = moment(EmpiricalMeasure(atoms[perm]), q)
        assert a == b  # bitwise, by canonical reduction order


def test_canonical_atom_order_is_lexicographic():
    rng = np.random.default_rng(3)
    distinct = rng.normal(size=(300, 3))
    tied = np.round(rng.normal(size=(300, 3)), 1)  # many ties in every column
    signed_zero = np.array([[0.0, 2.0], [-0.0, 1.0], [np.nan, 0.0], [np.nan, -1.0]])
    for atoms in (distinct, tied, signed_zero, distinct[:1]):
        canonical = canonical_atom_order(atoms)
        np.testing.assert_array_equal(canonical, atoms[np.lexsort(atoms.T[::-1])])
        np.testing.assert_array_equal(canonical_atom_order(canonical), canonical)


def test_moment_values():
    assert moment(EmpiricalMeasure(np.zeros((1, 3))), 5.0) == 1.0
    assert moment(EmpiricalMeasure(np.zeros((2, 1))), 2.0) == 1.0
    # single atom at (3,4): 1 + 25 = 26
    m = moment(EmpiricalMeasure(np.array([[3.0, 4.0]])), 2.0)
    assert type(m) is float and m == 26.0


@given(q1=st.floats(0.0, 6.0), q2=st.floats(0.0, 6.0), seed=st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_moment_monotone_in_order(q1, q2, seed):
    atoms = np.random.default_rng(seed).normal(size=(11, 2))
    mu = EmpiricalMeasure(atoms)
    lo, hi = sorted((q1, q2))
    assert moment(mu, lo) <= moment(mu, hi) + 1e-12


def test_quantile_init_uniform():
    inv = lambda u: u  # uniform on [0,1]
    np.testing.assert_allclose(
        quantile_init_1d(inv, 2).coords[:, 0], [0.25, 0.75], rtol=0, atol=0
    )
    np.testing.assert_allclose(
        quantile_init_1d(inv, 4).coords[:, 0],
        [0.125, 0.375, 0.625, 0.875],
        rtol=0,
        atol=0,
    )


def test_quantile_init_gaussian_quartiles():
    state = quantile_init_1d(ndtri, 2)
    np.testing.assert_allclose(
        state.coords[:, 0], [-0.6744897501960817, 0.6744897501960817], atol=1e-15
    )


def test_quantile_init_rejects_nonfinite():
    with np.errstate(invalid="ignore"), pytest.raises(SimulationError):
        quantile_init_1d(lambda u: np.log(u - 0.5), 4)


def test_gaussian_sample_degenerate_and_reproducible():
    s = gaussian_sample_state([2.0, -1.0], [0.0, 0.0], 5, RngStream(1, 0))
    assert np.all(s.coords == np.array([2.0, -1.0]))

    a = gaussian_sample_state([0.0], [1.0], 64, RngStream(123, 4)).coords
    b = gaussian_sample_state([0.0], [1.0], 64, RngStream(123, 4)).coords
    np.testing.assert_array_equal(a, b)
    c = gaussian_sample_state([0.0], [1.0], 64, RngStream(123, 5)).coords
    assert not np.array_equal(a, c)


def test_gaussian_sample_variance_concentration():
    # chi-square concentration: sd of sample variance ~ sqrt(2/N) ~ 0.45%
    s = gaussian_sample_state([0.0], [1.0], 100_000, RngStream(2024, 0))
    v = s.coords[:, 0].var()
    assert 0.98 <= v <= 1.02


def test_gaussian_sample_rejects_negative_variance():
    with pytest.raises(ValueError):
        gaussian_sample_state([0.0], [-1.0], 3, RngStream(0, 0))


def test_rng_stream_purity_and_independence():
    x = RngStream(99, 7).uniform(size=10)
    y = RngStream(99, 7).uniform(size=10)
    np.testing.assert_array_equal(x, y)
    z = RngStream(99, 8).uniform(size=10)
    assert not np.array_equal(x, z)
    w = RngStream(100, 7).uniform(size=10)
    assert not np.array_equal(x, w)


def test_rng_stream_open_interval_and_counter():
    r = RngStream(5, 0)
    u = r.uniform(size=1000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert r.draw_counter == 1000
    r.normal(size=(3, 4))
    assert r.draw_counter == 1012
    r.integers(0, 10, size=5)
    assert r.draw_counter == 1017


def test_rng_stream_draw_counter_for_every_size_kind():
    r = RngStream(6, 0)
    sizes = [(None, 1), (7, 7), ((3, 4), 12), ((2, 0), 0), (np.int64(5), 5),
             ((np.int32(2), np.int64(3)), 6), ([2, 2], 4)]
    total = 0
    for size, count in sizes:
        for draw in (r.uniform, r.normal, lambda size: r.integers(0, 9, size=size)):
            got = draw(size=size)
            assert np.size(got) == count
            total += count
            assert r.draw_counter == total and type(r.draw_counter) is int


@pytest.mark.parametrize("size", [None, 0, 1, 7, np.int64(5), (3, 4), (2, 0)])
def test_rng_stream_uniform_and_normal_equal_bounded_integer_formula(size):
    # oracle: the documented k = integers(0, 2**53) form of the raw-word draw
    r = RngStream(21, 3)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(21, spawn_key=(3,))))

    def old_uniform():
        k = gen.integers(0, 2**53, size=size, dtype=np.uint64)
        return (k.astype(np.float64) + 0.5) * 2.0**-53

    for got, want in ((r.uniform(size=size), old_uniform()),
                      (r.normal(size=size), ndtri(old_uniform())),
                      (r.uniform(size=size), old_uniform())):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                      np.asarray(want).view(np.uint64))
    # the generator ends in the same state
    np.testing.assert_array_equal(r._gen.bit_generator.random_raw(4),
                                  gen.bit_generator.random_raw(4))


def test_rng_unit_vectors():
    v = RngStream(11, 0).unit_vectors(3, 200)
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def test_particle_state_validation():
    with pytest.raises(ValueError):
        ParticleState(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ParticleState(np.zeros((3, 2)), time=-0.1)
    s = ParticleState(np.arange(6.0).reshape(3, 2), time=1.5)
    assert s.n_particles == 3 and s.dim == 2
    t = s.copy()
    t.coords[0, 0] = 99.0
    assert s.coords[0, 0] == 0.0
