import functools
import math
import tracemalloc

import numpy as np
import pytest

from meanfield import _events
from meanfield.core import ParticleState, RngStream, gaussian_sample_state, replica_normals
from meanfield.elastic import AngularKernel, _generate_events, simulate_kac, simulate_kac_coupled
from meanfield.thermostat import (
    RestitutionParams,
    _Bath,
    simulate_thermostat,
    steady_temperature,
    temperature,
)
from oracles import generate_events_alone, reference_apply, reference_diffuse, sample_pairs


def test_restitution_validation():
    with pytest.raises(ValueError):
        RestitutionParams(alpha=0.0)
    with pytest.raises(ValueError):
        RestitutionParams(alpha=1.0)
    with pytest.raises(ValueError):
        RestitutionParams(alpha=0.5, nu=-1.0)
    RestitutionParams(alpha=0.5, nu=0.0, dim=1)  # bath-off limit allowed


@pytest.mark.parametrize("nu", [np.nan, np.inf])
def test_restitution_refuses_non_finite_nu(nu):
    # a NaN bath strength ran as the bath-off limit, since nu > 0 is false
    with pytest.raises(ValueError, match="nu must be nonnegative and finite"):
        RestitutionParams(alpha=0.5, nu=nu)


def collide(vi, vj, costh, frames, restitution):
    """Pairs (vi[k], vj[k]) through the engine's collision rule, as one batch."""
    x = np.concatenate([vi, vj]).astype(np.float64).T.copy()  # coordinate-major
    k = len(vi)
    pairs = np.arange(k)
    costh = np.asarray(costh, dtype=np.float64)
    _events.apply_pair_collisions(x, pairs, pairs + k, costh,
                                  np.empty((0, k)) if frames is None else frames.T,
                                  _events.sine_of(costh), restitution)
    return x.T[:k], x.T[k:]


def random_pairs(rng, k):
    """k random 3-D pairs with isotropic deviation cosines and frames."""
    vi, vj, frames = (np.atleast_2d(rng.normal(size=(k, 3))) for _ in range(3))
    return vi, vj, AngularKernel.isotropic(3).sample_costheta(k, rng), frames


def test_collide_inelastic_sigma_parallel_identity():
    vi, vj = collide([[1.0]], [[-1.0]], [1.0], None, 0.5)
    assert vi[0, 0] == 1.0 and vj[0, 0] == -1.0


def test_collide_inelastic_hand_example():
    # d=1, v=(1,-1), sigma=-1, alpha=1/2: u*=-1, outputs -1/2 and +1/2
    vi, vj = collide([[1.0]], [[-1.0]], [-1.0], None, 0.5)
    assert vi[0, 0] == -0.5 and vj[0, 0] == 0.5  # energy 2 -> 1/2


def test_collide_inelastic_alpha_one_matches_elastic():
    vi0, vj0, costh, frames = random_pairs(RngStream(3, 0), 100)
    a = collide(vi0, vj0, costh, frames, 1.0)
    b = collide(vi0, vj0, costh, frames, None)
    assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def test_collide_inelastic_contraction_and_momentum():
    rng = RngStream(5, 0)
    for _ in range(10):
        alpha = float(0.05 + 0.9 * rng.uniform())
        vi0, vj0, costh, frames = random_pairs(rng, 30)
        vi, vj = collide(vi0, vj0, costh, frames, alpha)
        assert np.all(np.linalg.norm((vi + vj) - (vi0 + vj0), axis=1) < 1e-12)
        u0 = np.linalg.norm(vi0 - vj0, axis=1)
        assert np.all(np.linalg.norm(vi - vj, axis=1) <= u0 * (1 + 1e-12))
        e0 = np.sum(vi0**2 + vj0**2, axis=1)
        assert np.all(np.sum(vi**2 + vj**2, axis=1) <= e0 * (1 + 1e-12))


@pytest.mark.parametrize("d", [1, 3])
def test_inelastic_apply_with_bath_hook_equals_reference(d):
    # the bath's kick before each batch and the inelastic rule on the batch,
    # on the coordinate-major kernel and on the row-major loop as first
    # written; includes a pair at zero relative velocity and a frame
    # parallel to u-hat
    rng = RngStream(46, d)
    n, k, nu = 30, 1_500, 0.7
    coords0 = np.atleast_2d(rng.normal(size=(n, d)))
    pi, pj = sample_pairs(n, k, rng)
    kern = AngularKernel.two_point(0.4, 0.6) if d == 1 else AngularKernel.isotropic(d)
    costh = kern.sample_costheta(k, rng)
    frames = np.atleast_2d(rng.normal(size=(k, d))) if d >= 2 else None
    now = np.sort(rng.uniform(size=k)) * 3.0  # event times, in stream order
    order, batches = _events.level_schedule(pi, pj)
    pi, pj, costh = pi[order], pj[order], costh[order]
    coords0[pj[1]] = coords0[pi[1]]
    if frames is not None:
        frames = frames[order]
        frames[0] = -0.5 * (coords0[pi[0]] - coords0[pj[0]])

    # the bath's normals, drawn in event order, then taken in play order
    bath = _Bath([RngStream(47, d)], nu, ParticleState(coords0))
    z = replica_normals([RngStream(47, d)], [(0, k)], bath.width)[order]
    now = now[order]

    got = coords0.T.copy()
    sinth = _events.sine_of(costh)
    fr = np.empty((0, k)) if frames is None else frames.T.copy()
    zt = z.T  # (2 d, k), a view, as the play hands the bath its rows' tails
    for lo, hi in batches:
        ii, jj = pi[lo:hi], pj[lo:hi]
        bath.kick(got, ii, jj, now[lo:hi], zt[:, lo:hi])
        _events.apply_pair_collisions(got, ii, jj, costh[lo:hi], fr[:, lo:hi], sinth[lo:hi], 0.6)

    want, want_sync = coords0.copy(), np.zeros(n)

    def reference_hook(lo, hi, ii, jj):
        both = np.concatenate([ii, jj])
        zb = z[lo:hi]
        reference_diffuse(want, both, want_sync, np.tile(now[lo:hi], 2), nu,
                          np.concatenate([zb[:, :d], zb[:, d:]]))

    reference_apply(want, pi, pj, costh, frames, 0.6, batches, reference_hook)
    assert got.T.tobytes() == want.tobytes()
    assert bath.last_sync.tobytes() == want_sync.tobytes()


def test_mean_energy_loss_single_collision_mc():
    # Monte Carlo validation of the per-collision balance behind steady_temperature
    alpha = 0.8
    k = AngularKernel.isotropic(3)
    rng = RngStream(11, 0)
    n = 200_000
    c = k.sample_costheta(n, rng)
    # |u|=2 head-on pair: dE = -(1-a^2)|u|^2 (1-c)/4
    de = -(1 - alpha**2) * 4.0 * (1 - c) / 4.0
    # E[dE] = -(1-a^2)(1-b1)|u|^2/4, averaging sigma over the kernel (mean cosine b1)
    predicted = -(1 - alpha**2) * (1 - k.b1()) * 4.0 / 4.0
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
    out = simulate_thermostat(st0, AngularKernel.isotropic(2), p, 4.0, snaps, [RngStream(8, 1)])
    temps = [temperature(st0)] + [temperature(s) for s in out]
    assert all(b <= a + 1e-12 for a, b in zip(temps[:-1], temps[1:]))
    assert temps[-1] < 0.5 * temps[0]  # actually cools


def test_bath_off_draws_only_the_event_stream():
    # nu = 0: the dynamics stream draws exactly the event record, and the
    # run is that record played with restitution alpha
    p = RestitutionParams(alpha=0.6, nu=0.0, dim=3)
    kern = AngularKernel.isotropic(3)
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 40, RngStream(23, 0))
    snaps = [0.5, 1.0, 2.0]
    dyn, alone = RngStream(23, 1), RngStream(23, 1)
    out = simulate_thermostat(st0, kern, p, 2.0, snaps, [dyn])
    rec = _generate_events(40, 39.0, kern, 0.0, np.asarray(snaps), [alone])
    replay = _events.play_events(st0.coords.T.copy(), rec, np.asarray(snaps), [alone], 3,
                                 functools.partial(_events.apply_pair_collisions,
                                                   restitution=p.alpha))
    assert dyn.draw_counter == alone.draw_counter
    for a, b in zip(out, replay):
        np.testing.assert_array_equal(a.coords, b)


def lone_run_draws(n, d, rate, kern, t0, snaps, rng, bath):
    """Draw from one stream, alone, what one run draws, in a lone run's order.

    The events up to the last snapshot, then per snapshot each event's row
    of frame normals followed, with a ``bath``, by its 2 d bath normals,
    and with a bath each particle's d sync normals.  Returns the events
    (times, pair_i, pair_j, costh) and one (rows, sync normals or None)
    per snapshot.
    """
    t_last = snaps[-1] if len(snaps) else t0
    times, pi, pj, costh, _ = generate_events_alone(n, d, rate, kern, t0, t_last, rng,
                                                    frames=False)
    width = _events.frame_width(d) + (2 * d if bath else 0)
    segments, done = [], 0
    for s in snaps:
        upto = int(np.searchsorted(times, s, side="right"))
        rows = rng.normal(size=(upto - done, width))
        segments.append((rows, rng.normal(size=(n, d)) if bath else None))
        done = upto
    return (times, pi, pj, costh), segments


@pytest.mark.parametrize("d", [1, 2, 3])
def test_thermostat_equals_lone_stream_reference_past_the_last_snapshot(d):
    # one stream drawing alone, in a lone run's order: its events up to the
    # last snapshot, then per segment each event's row of frame and bath
    # normals and each particle's sync normals, played one event at a time
    # by the row-major rule.  t_end lies past the last snapshot, where
    # nothing is drawn, so the stream ends where the reference's ends
    n, nu, alpha, t_end, snaps = 12, 0.7, 0.6, 3.0, [0.5, 1.25]
    kern = AngularKernel.two_point(0.4, 0.6) if d == 1 else AngularKernel.isotropic(d)
    st0 = gaussian_sample_state(np.zeros(d), np.ones(d), n, RngStream(48, 0))
    dyn, rng = RngStream(48, 1), RngStream(48, 1)
    out = simulate_thermostat(st0, kern, RestitutionParams(alpha, nu, d), t_end, snaps, [dyn])
    (times, pi, pj, costh), segments = lone_run_draws(n, d, n - 1.0, kern, 0.0, snaps, rng, True)
    w = _events.frame_width(d)
    want, last_sync = st0.coords.copy(), np.zeros(n)
    done = 0
    for s, got, (rows, sync) in zip(snaps, out, segments):
        seg = slice(done, done + len(rows))

        def kick(lo, hi, ii, jj, z=rows[:, w:], now=times[seg]):
            reference_diffuse(want, np.concatenate([ii, jj]), last_sync, np.tile(now[lo:hi], 2),
                              nu, np.concatenate([z[lo:hi, :d], z[lo:hi, d:]]))

        reference_apply(want, pi[seg], pj[seg], costh[seg], rows[:, :w] if w else None, alpha,
                        [(e, e + 1) for e in range(len(rows))], kick)
        reference_diffuse(want, np.arange(n), last_sync, np.full(n, s), nu, sync)
        done += len(rows)
        assert got.coords.tobytes() == want.tobytes()
    assert done == len(times) > 0
    assert dyn.draw_counter == rng.draw_counter
    assert dyn.uniform_words(np.empty(8)).tobytes() == rng.uniform_words(np.empty(8)).tobytes()


MODELS = ["kac", "coupled", "thermostat-nu0", "thermostat"]


def run_model(model, init, init_b, kern, t_end, snaps, rngs):
    """A stack run of one of the engine's models; the coupled gas's two systems in one list."""
    if model == "kac":
        return simulate_kac(init, kern, t_end, snaps, rngs)
    if model == "coupled":
        out_a, out_b = simulate_kac_coupled(init, init_b, kern, t_end, snaps, rngs)
        return out_a + out_b
    params = RestitutionParams(alpha=0.7, nu=0.0 if model == "thermostat-nu0" else 1.0,
                               dim=init.dim)
    return simulate_thermostat(init, kern, params, t_end, snaps, rngs)


def stack_data(d, n, reps, seed):
    """A kernel, a stack of ``reps`` Gaussian replicas of n particles and a second stack for the
    coupled gas."""
    kern = AngularKernel.two_point(0.3, 0.7) if d == 1 else AngularKernel.isotropic(d)
    init = gaussian_sample_state(np.zeros(d), np.ones(d), n,
                                 [RngStream(seed, 100 + r) for r in range(reps)])
    return kern, init, ParticleState(2.0 * init.coords - 0.5)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("model", MODELS)
def test_run_past_the_last_snapshot_equals_the_run_ending_there(model, d):
    # nothing is drawn or played past the last snapshot: a stack run to
    # t_end 3 and the run to its last snapshot agree in every byte, in the
    # draw counts and in the streams' next words
    kern, init, init_b = stack_data(d, 8, 3, 49)
    snaps = [0.25, 1.0, 1.0]
    runs = []
    for t_end in (3.0, 1.0):
        rngs = [RngStream(49, r) for r in range(3)]
        out = run_model(model, init, init_b, kern, t_end, snaps, rngs)
        runs.append((b"".join(s.coords.tobytes() for s in out), [s.time for s in out],
                     [r.draw_counter for r in rngs],
                     [r.uniform_words(np.empty(8)).tobytes() for r in rngs]))
    assert runs[0] == runs[1]
    assert min(runs[0][2]) > 0


@pytest.mark.parametrize("model", MODELS)
def test_empty_snapshot_list_draws_nothing(model):
    kern, init, init_b = stack_data(3, 8, 2, 50)
    rngs = [RngStream(50, r) for r in range(2)]
    assert run_model(model, init, init_b, kern, 2.0, [], rngs) == []
    assert [r.draw_counter for r in rngs] == [0, 0]
    assert [r.uniform_words(np.empty(4)).tobytes() for r in rngs] == \
        [RngStream(50, r).uniform_words(np.empty(4)).tobytes() for r in range(2)]


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("model", MODELS)
def test_streams_end_where_the_lone_reference_ends(model, d):
    # after a stack run, each stream has drawn exactly what one stream
    # drawing alone in a lone run's order draws (lone_run_draws): the same
    # count, and the same next words.  t_end lies past the last snapshot,
    # the first snapshot is at the start, and the clocks draw more than
    # their 64-gap minimum, so a clock run past the last snapshot shows
    n, reps, t_end, snaps = 16, 3, 12.0, [0.0, 0.5, 10.0]
    kern, init, init_b = stack_data(d, n, reps, 51)
    rngs = [RngStream(51, r) for r in range(reps)]
    run_model(model, init, init_b, kern, t_end, snaps, rngs)
    rate = (n - 1.0) * (1.0 if model.startswith("thermostat") else 0.5)
    for r, rng in enumerate(rngs):
        ref = RngStream(51, r)
        lone_run_draws(n, d, rate, kern, 0.0, snaps, ref, model == "thermostat")
        assert rng.draw_counter == ref.draw_counter > 0
        assert rng.uniform_words(np.empty(8)).tobytes() == ref.uniform_words(np.empty(8)).tobytes()


def test_run_peak_memory_below_record_plus_snapshots():
    # each segment of the event record is released once played, before its
    # snapshot is copied, so a run's traced peak stays below its record and
    # all its snapshots side by side, where a record kept whole to the end
    # puts it
    n, d, t_end = 4096, 3, 10.0
    snaps = np.arange(0.5, t_end + 0.25, 0.5)
    kern = AngularKernel.isotropic(d)
    p = RestitutionParams(alpha=0.8, nu=1.0, dim=d)
    st0 = gaussian_sample_state(np.zeros(d), np.ones(d), n, RngStream(24, 0))
    rec = _generate_events(n, n - 1.0, kern, 0.0, snaps, [RngStream(24, 1)])
    record_bytes = sum(a.nbytes for s in rec for a in (s.times, s.pair_i, s.pair_j, s.costh))
    del rec
    snapshot_bytes = len(snaps) * n * d * 8
    tracemalloc.start()
    try:
        out = simulate_thermostat(st0, kern, p, t_end, snaps, [RngStream(24, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(snaps)
    assert peak < record_bytes + snapshot_bytes


def test_halved_rate_runs_collisions_at_half_speed():
    # without a bath time enters only through the collision clock, so the
    # halved convention at 2t has the law of the ordered one at t; both
    # start from the same data, and the mean temperature gap over 32
    # replicas must sit within 4 standard errors
    p = RestitutionParams(alpha=0.5, nu=0.0, dim=3)
    kern = AngularKernel.isotropic(3)
    ordered, halved = [], []
    for r in range(32):
        st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 256, RngStream(31, 2 * r))
        for rate_ordered, out in ((True, ordered), (False, halved)):
            states = simulate_thermostat(st0, kern, p, 2.0, [1.0, 2.0], [RngStream(31, 2 * r + 1)],
                                         ordered_pair_rate=rate_ordered)
            out.append([temperature(s) for s in states])
    ordered, halved = np.array(ordered), np.array(halved)

    def gap(a, b):
        d = a - b
        return abs(d.mean()) / (d.std(ddof=1) / math.sqrt(len(d)))

    assert gap(halved[:, 1], ordered[:, 0]) < 4.0  # T_halved(2) ~ T_ordered(1)
    assert gap(halved[:, 1], ordered[:, 1]) > 20.0  # the conventions do differ


def test_momentum_random_walk_variance():
    # sum of velocities per coordinate has variance 2 nu N t
    p = RestitutionParams(alpha=0.7, nu=1.0, dim=1)
    n, t = 100, 1.0
    kern = AngularKernel.two_point(0.5, 0.5)
    sums = []
    for r in range(1024):
        st0 = ParticleState(np.zeros((n, 1)))
        out = simulate_thermostat(st0, kern, p, t, [t], [RngStream(1002, r)])
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
        out = simulate_thermostat(st0, kern, p, 1.0, [1.0], [RngStream(41, 2 * r + 1)])
        means.append(out[0].coords.sum(axis=0) - p0)
    drift = np.mean(means, axis=0)
    se = np.std(means, axis=0, ddof=1) / math.sqrt(len(means))
    assert np.all(np.abs(drift) < 3.5 * se + 1e-12)


@pytest.mark.parametrize("model, nu", [("elastic", None), ("coupled", None),
                                       ("thermostat", 1.0), ("thermostat", 0.0)])
def test_trajectory_independent_of_batching(monkeypatch, model, nu):
    # every rule the engine plays, with and without the bath: bath normals
    # are drawn in event order, so the level schedule, small chunks and one
    # event per batch realize the same trajectory bit for bit
    kern = AngularKernel.isotropic(3)
    st0 = gaussian_sample_state(np.zeros(3), np.ones(3), 50, RngStream(19, 0))
    st_b = gaussian_sample_state(np.ones(3), np.full(3, 2.0), 50, RngStream(19, 2))
    snaps = [0.0, 0.5, 1.5, 2.0]

    def run():
        rng = RngStream(19, 1)
        if model == "elastic":
            out = simulate_kac(st0, kern, 2.5, snaps, [rng])
        elif model == "coupled":
            out_a, out_b = simulate_kac_coupled(st0, st_b, kern, 2.5, snaps, [rng])
            out = out_a + out_b
        else:
            out = simulate_thermostat(st0, kern, RestitutionParams(alpha=0.7, nu=nu, dim=3), 2.5,
                                      snaps, [rng])
        return out, rng.draw_counter

    levels, draws = run()
    monkeypatch.setattr(_events, "CHUNK_EVENTS", 7)
    chunked, draws_chunked = run()
    monkeypatch.setattr(_events, "level_schedule",
                        lambda pi, pj: (np.arange(len(pi)), [(e, e + 1) for e in range(len(pi))]))
    singles, draws_single = run()
    assert draws == draws_chunked == draws_single
    assert not np.array_equal(levels[-1].coords, st0.coords)
    for a, b, c in zip(levels, singles, chunked):
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.coords, c.coords)


@pytest.mark.parametrize("nu", [1.0, 0.0])
def test_simulate_thermostat_replicas_equal_separate_runs(monkeypatch, nu):
    # each replica draws its events, then its bath normals, from its own
    # stream in its own event order: stacked runs, chunks cut through
    # replicas, and lone runs agree bit for bit with equal draw counts
    p = RestitutionParams(alpha=0.7, nu=nu, dim=3)
    kern = AngularKernel.isotropic(3)
    inits = [gaussian_sample_state(np.zeros(3), np.ones(3), 9, RngStream(62, 2 * r))
             for r in range(5)]
    inits[1].coords[1] = inits[1].coords[0]  # a pair at zero relative velocity
    stack = ParticleState(np.concatenate([s.coords for s in inits]))
    snaps = [0.0, 0.7, 2.0]

    def stacked():
        rngs = [RngStream(62, 2 * r + 1) for r in range(5)]
        out = simulate_thermostat(stack, kern, p, 2.5, snaps, rngs)
        return out, [rng.draw_counter for rng in rngs]

    default, draws = stacked()
    monkeypatch.setattr(_events, "CHUNK_EVENTS", 7)
    chunked, draws_chunked = stacked()
    monkeypatch.undo()
    assert [s.coords.shape for s in default] == [(45, 3)] * len(snaps)
    assert draws == draws_chunked
    for r, init in enumerate(inits):
        rng = RngStream(62, 2 * r + 1)
        alone = simulate_thermostat(init, kern, p, 2.5, snaps, [rng])
        assert rng.draw_counter == draws[r]
        assert [s.time for s in default] == [s.time for s in alone] == snaps
        for a, b, c in zip(default, alone, chunked):
            np.testing.assert_array_equal(a.coords[9 * r:9 * r + 9], b.coords)
            np.testing.assert_array_equal(c.coords[9 * r:9 * r + 9], b.coords)


def test_simulate_thermostat_replicas_validation():
    # a stack needs one stream per replica: rows a multiple of the streams
    p = RestitutionParams(alpha=0.5, nu=1.0, dim=3)
    kern = AngularKernel.isotropic(3)
    a = gaussian_sample_state(np.zeros(3), np.ones(3), 9, RngStream(0, 0))
    for rngs in ([RngStream(0, 2), RngStream(0, 3)], []):
        with pytest.raises(ValueError, match="divisible by the stream count"):
            simulate_thermostat(a, kern, p, 2.0, [2.0], rngs)


def test_step_mixed_rejects_past():
    # the mixed jump-diffusion run refuses a t_end before its start time
    p = RestitutionParams(alpha=0.5, nu=1.0, dim=1)
    kern = AngularKernel.two_point(0.5, 0.5)
    st0 = ParticleState(np.zeros((4, 1)), time=2.0)
    with pytest.raises(ValueError, match="t_end must not precede"):
        simulate_thermostat(st0, kern, p, 1.5, [], [RngStream(0, 0)])
    with pytest.raises(ValueError, match="t_end must not precede"):
        simulate_kac(st0, kern, 1.5, [], [RngStream(0, 0)])
    assert simulate_thermostat(st0, kern, p, 2.0, [], [RngStream(0, 0)]) == []


def test_simulate_t_end_zero():
    p = RestitutionParams(alpha=0.5, nu=1.0, dim=1)
    st0 = ParticleState(np.ones((4, 1)))
    out = simulate_thermostat(st0, AngularKernel.two_point(0.5, 0.5), p, 0.0, [0.0],
                              [RngStream(0, 0)])
    np.testing.assert_array_equal(out[0].coords, st0.coords)


@pytest.mark.slow
def test_stationary_plateau_matches_balance_small():
    # small-scale version of the acceptance balance check
    p = RestitutionParams(alpha=0.8, nu=1.0, dim=3)
    kern = AngularKernel.isotropic(3)
    target = steady_temperature(p, kern, n_particles=2000)
    st0 = gaussian_sample_state(np.zeros(3), np.full(3, target), 2000, RngStream(55, 0))
    snaps = np.linspace(5.0, 30.0, 11)
    out = simulate_thermostat(st0, kern, p, 30.0, snaps, [RngStream(55, 1)])
    temps = np.array([temperature(s) for s in out])
    plateau = temps[len(temps) // 2 :].mean()
    assert plateau == pytest.approx(target, rel=0.08)
