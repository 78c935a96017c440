import math
from types import SimpleNamespace

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
    gaussian_sample_state,
    open_unit,
    quantile_init_1d,
    replica_normals,
    run_fixed_steps,
    validate_snapshots,
)


def moment(mu: EmpiricalMeasure, q: float) -> float:
    """Moment of order q: (1/N) Σ_j (1 + |z_j|^2)^(q/2), summed in sorted order."""
    z2 = np.einsum("ij,ij->i", mu.atoms, mu.atoms)
    terms = np.sort((1.0 + z2) ** (q / 2.0))
    return float(terms.sum() / mu.n_atoms)


def test_empirical_from_state_trivial_atoms():
    st0 = ParticleState(np.zeros((2, 1)))
    mu = EmpiricalMeasure(st0.coords)
    assert mu.n_atoms == 2 and mu.weight == 0.5
    assert np.all(mu.atoms == 0.0)

    st1 = ParticleState(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    mu1 = EmpiricalMeasure(st1.coords)
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
    # a stack is sorted configuration by configuration, ties by every key
    stack = np.stack([distinct, tied, distinct[::-1]])
    canonical = canonical_atom_order(stack)
    for atoms, got in zip(stack, canonical):
        np.testing.assert_array_equal(got, atoms[np.lexsort(atoms.T[::-1])])
    np.testing.assert_array_equal(canonical_atom_order(canonical), canonical)
    ascending = canonical[::2]  # distinct leading coordinates, already sorted
    assert canonical_atom_order(ascending) is ascending


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


@pytest.mark.parametrize("mean, var, what", [
    ([np.inf], [1.0], "means"), ([0.0, np.nan], [1.0, 1.0], "means"),
    ([0.0], [np.nan], "variances"), ([0.0], [np.inf], "variances"),
])
def test_gaussian_sample_rejects_non_finite_parameters(mean, var, what):
    with pytest.raises(ValueError, match=what):
        gaussian_sample_state(mean, var, 3, RngStream(0, 0))


def test_gaussian_sample_stack_equals_lone_draws():
    # one stream per replica: each replica's rows and draw count are its lone draw's
    mean, var = [1.0, -2.0, 0.5], [4.0, 0.25, 1.0]
    streams = [RngStream(8, r) for r in range(3)]
    stack = gaussian_sample_state(mean, var, 5, streams)
    assert stack.coords.shape == (15, 3)
    for r, stream in enumerate(streams):
        alone = RngStream(8, r)
        want = mean + np.sqrt(var) * alone.normal(size=(5, 3))
        assert stack.coords[5 * r:5 * r + 5].tobytes() == want.tobytes()
        assert gaussian_sample_state(mean, var, 5, RngStream(8, r)).coords.tobytes() == want.tobytes()
        assert stream.draw_counter == alone.draw_counter == 15


def test_replica_normals_equal_per_owner_normal_draws():
    # uneven owners, a stream twice and one not at all: each owner's rows
    # are its stream's next normals, and each stream ends where the
    # per-owner draws leave it
    owners = [(1, 3), (0, 5), (3, 1), (1, 4)]
    got = [RngStream(12, r) for r in range(4)]
    z = replica_normals(got, owners, 2)
    want = [RngStream(12, r) for r in range(4)]
    parts = [want[r].normal(size=(k, 2)) for r, k in owners]
    assert z.shape == (13, 2)
    assert z.tobytes() == np.concatenate(parts).tobytes()
    for a, b in zip(got, want):
        assert a.draw_counter == b.draw_counter
        assert str(a._gen.bit_generator.state) == str(b._gen.bit_generator.state)
    assert [s.draw_counter for s in got] == [10, 14, 0, 2]


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


def test_rng_stream_public_methods_are_the_uniform_word_draws():
    # one draw primitive: a bounded integer is floor(u n) of a uniform
    public = {name for name, v in vars(RngStream).items() if callable(v) and name[0] != "_"}
    assert public == {"uniform", "uniform_words", "normal", "unit_vectors"}


def test_rng_stream_draw_counter_for_every_size_kind():
    r = RngStream(6, 0)
    sizes = [(None, 1), (7, 7), ((3, 4), 12), ((2, 0), 0), (np.int64(5), 5),
             ((np.int32(2), np.int64(3)), 6), ([2, 2], 4)]
    total = 0
    for size, count in sizes:
        for draw in (r.uniform, r.normal):
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


def _words_generator(words):
    """A stand-in for the stream's numpy Generator handing out the given raw words.

    ``random`` converts each word as numpy's does, ``(word >> 11) * 2**-53``,
    which ``test_rng_uniform_fill_equals_the_raw_word_formula`` checks on a
    real generator.
    """
    k = np.array(words, dtype=np.uint64) >> np.uint64(11)

    def random(size=None, out=None):
        size = size if out is None else out.shape
        if size is None:
            return float(k[-1]) * 2.0**-53
        u = k[:math.prod(np.atleast_1d(size))].astype(np.float64) * 2.0**-53
        if out is None:
            return u.reshape(size)
        out[...] = u.reshape(out.shape)
        return out

    return SimpleNamespace(random=random)


def test_rng_stream_top_words_stay_inside_the_unit_interval():
    # raw words whose top 53 bits are k = 2**52 (u = 0.5 once the + 0.5
    # rounds away) and k = 2**53 - 1 (which would round to u = 1.0)
    r = RngStream(0, 0)
    r._gen = _words_generator([2**52 << 11, (2**53 - 1) << 11])
    u = r.uniform(size=2)
    assert u[0] == 0.5 and u[1] == 1.0 - 2.0**-53
    assert r.uniform() == u[1] and type(r.uniform()) is np.float64
    assert np.all(np.isfinite(r.normal(size=2))) and np.isfinite(r.normal())
    assert r.normal(size=2)[0] == 0.0


@pytest.mark.parametrize("k", [0, 2**52 - 1, 2**52, 2**53 - 1])
def test_rng_uniform_out_equals_the_formula_at_edge_words(k):
    # (k + 0.5) 2**-53, with the one word that rounds to 1.0 clamped below it
    want = min((np.float64(k) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)
    r = RngStream(0, 0)
    r._gen = _words_generator([5 << 11, k << 11, 7 << 11])
    out = np.full(3, np.nan)
    assert open_unit(r.uniform_words(out)) is out and r.draw_counter == 3
    assert out[1] == want and out[0] == 5.5 * 2.0**-53 and out[2] == 7.5 * 2.0**-53


def test_rng_uniform_fill_equals_the_raw_word_formula():
    # the fill path against (k + 0.5) 2**-53 on the raw words of a twin
    # stream, in one call, into slices of one buffer and as scalars; both
    # generators end in the same state
    a, b = RngStream(3, 9), RngStream(3, 9)
    k = b._gen.bit_generator.random_raw(10_007) >> np.uint64(11)
    assert k.max() >= 2**52  # both halves of the grid are covered
    want = (k + 0.5) * 2.0**-53
    buf = np.empty((2, 5_000))
    open_unit(a.uniform_words(buf[0]))
    open_unit(a.uniform_words(buf[1]))
    got = np.concatenate([buf.ravel(), a.uniform(size=(2,)),
                          [a.uniform() for _ in range(5)]])
    assert got.tobytes() == want.tobytes()
    assert a.draw_counter == 10_007
    assert str(a._gen.bit_generator.state) == str(b._gen.bit_generator.state)
    # numpy's own conversion, which the stand-in generator above copies
    raw = RngStream(4, 1)._gen.bit_generator.random_raw(1000)
    np.testing.assert_array_equal(RngStream(4, 1)._gen.random(1000), (raw >> 11) * 2.0**-53)


def test_rng_unit_vectors():
    v = RngStream(11, 0).unit_vectors(3, 200)
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def test_rng_unit_vectors_redraws_zero_rows():
    # k = 2**52 rounds to u = 0.5 exactly, whose normal is exactly 0
    assert ndtri((np.float64(2**52) + 0.5) * 2.0**-53) == 0.0
    r = RngStream(11, 0)
    draws = iter([np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[0.0, -2.0]])])
    r.normal = lambda size: next(draws)
    np.testing.assert_array_equal(r.unit_vectors(2, 2), [[0.0, -1.0], [0.6, 0.8]])


def test_rng_stream_counter_is_not_an_argument():
    with pytest.raises(TypeError):
        RngStream(1, 0, 5)
    assert RngStream(1, 0).draw_counter == 0


def test_run_fixed_steps_reads_each_snapshot_and_stops_at_the_last():
    taken = []

    def step(x, k):
        taken.append(k)
        return x + 1

    out = run_fixed_steps(0, step, lambda x, k: (x, k), [0.0, 0.5, 0.5, 1.5], 0.0, 4.0, 0.5)
    assert out == [(0, 0), (1, 1), (1, 1), (3, 3)] and taken == [1, 2, 3]
    assert run_fixed_steps(0, step, lambda x, k: x, [], 0.0, 4.0, 0.5) == []
    for times, dt, message in (([0.5], 0.0, "dt must be positive"),
                               ([1.0, 0.5], 0.5, "sorted ascending"),
                               ([0.5, 4.5], 0.5, r"\[start, t_end\]"),
                               ([0.5, 0.75], 0.5, "0.75 is not a multiple of dt=0.5")):
        with pytest.raises(ValueError, match=message):
            run_fixed_steps(0, step, lambda x, k: x, times, 0.0, 4.0, dt)
    assert taken == [1, 2, 3]  # refused before any step


@pytest.mark.parametrize("times, t_end", [([0.5], np.nan), ([0.5], np.inf), ([np.nan], 1.0),
                                          ([0.25, np.nan, 0.75], 1.0), ([0.25, np.inf], 1.0)])
def test_validate_snapshots_refuses_non_finite_times(times, t_end):
    # NaN fails every comparison, so a NaN t_end or snapshot time passed the
    # order and range tests, and an infinite t_end overflowed downstream
    with pytest.raises(ValueError, match="finite"):
        validate_snapshots(times, 0.0, t_end)


@pytest.mark.parametrize("dt", [np.nan, np.inf])
def test_run_fixed_steps_refuses_non_finite_dt(dt):
    # a NaN step read every snapshot at step 0
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        run_fixed_steps(0, lambda x, k: x + 1, lambda x, k: x, [0.5], 0.0, 1.0, dt)


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
