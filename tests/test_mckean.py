import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from meanfield import mckean
from meanfield.core import ParticleState, RngStream, SimulationError, gaussian_sample_state
from meanfield.mckean import (
    DriftDiffusionSpec,
    VlasovSpec,
    em_step,
    gradient_catalog,
    interaction_catalog,
    linear_moment_flow,
    simulate_mkv,
    simulate_vlasov,
)


def _spec(dim=1, lam=0.0, sigma=0.0, interaction=None, **kw):
    return DriftDiffusionSpec(
        dim=dim,
        linear_drift=-lam * np.eye(dim),
        diffusion_matrix=sigma * np.eye(dim),
        interaction=interaction or interaction_catalog("zero", dim),
        **kw,
    )


# ------------------------------------------------------------- forces


def pairwise_force(state, spec, i):
    """Oracle: the mean-field force on particle i, (1/N) Σ_{j≠i} U(z_i - z_j)."""
    n = state.n_particles
    contrib = spec.interaction.fn(state.coords[i][None, :] - state.coords)
    contrib[i] = 0.0
    f = contrib.sum(axis=0) / n
    if spec.n_minus_one_prefactor and n > 1:
        f *= n / (n - 1.0)
    return f


def test_pairwise_force_single_particle_zero():
    s = ParticleState(np.array([[3.0]]))
    f = pairwise_force(s, _spec(interaction=interaction_catalog("linear", 1)), 0)
    assert f == pytest.approx(0.0)


def test_pairwise_force_zero_kernel():
    s = ParticleState(np.random.default_rng(0).normal(size=(5, 2)))
    f = pairwise_force(s, _spec(dim=2), 3)
    np.testing.assert_array_equal(f, np.zeros(2))


def test_pairwise_force_hand_value():
    # U(z) = z, coords {0,1,2}, i=0: (1/3)((0-1)+(0-2)) = -1
    kern = interaction_catalog("linear", 1, kappa=-1.0)  # -kappa z = z
    s = ParticleState(np.array([[0.0], [1.0], [2.0]]))
    f = pairwise_force(s, _spec(interaction=kern), 0)
    assert f[0] == pytest.approx(-1.0, abs=1e-15)


def test_fast_force_matches_direct_loop():
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(40, 2))
    spec = _spec(dim=2, interaction=interaction_catalog("linear", 2, kappa=0.7))
    st = ParticleState(coords)
    from meanfield.mckean import _mean_field_forces

    fast = _mean_field_forces(coords, spec.interaction)
    for i in range(0, 40, 7):
        np.testing.assert_allclose(fast[i], pairwise_force(st, spec, i), atol=1e-12)


def test_n_minus_one_prefactor():
    kern = interaction_catalog("linear", 1, kappa=1.0)
    s = ParticleState(np.array([[0.0], [1.0]]))
    base = pairwise_force(s, _spec(interaction=kern), 0)
    scaled = pairwise_force(s, _spec(interaction=kern, n_minus_one_prefactor=True), 0)
    assert scaled == pytest.approx(2.0 * base)


def test_catalog_kernels_vanish_at_origin():
    for name, kw in (
        ("zero", {}),
        ("linear", {"kappa": 2.0}),
        ("gaussian_derivative", {"amp": 1.5, "width": 0.8}),
        ("screened_coulomb", {"amp": 1.0, "eps": 0.3}),
    ):
        k = interaction_catalog(name, 2, **kw)
        np.testing.assert_array_equal(k.fn(np.zeros((1, 2))), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        interaction_catalog("coulomb", 2)


# ------------------------------------------------------------- EM stepping


def test_em_step_null_dynamics():
    s = ParticleState(np.array([[1.0], [2.0]]))
    out = em_step(s, _spec(), 0.1, [RngStream(0, 0)])
    np.testing.assert_array_equal(out.coords, s.coords)
    assert out.time == pytest.approx(0.1)


def test_em_step_linear_decay():
    s = ParticleState(np.array([[1.0]]))
    out = em_step(s, _spec(lam=1.0), 0.1, [RngStream(0, 0)])
    assert out.coords[0, 0] == pytest.approx(0.9, abs=1e-15)


def test_em_step_noise_variance():
    s = ParticleState(np.zeros((100_000, 1)))
    dt = 0.04
    out = em_step(s, _spec(sigma=1.0), dt, [RngStream(6, 0)])
    assert out.coords.var() == pytest.approx(dt, rel=0.03)


def test_em_step_blowup_detection():
    s = ParticleState(np.array([[1e308]]))
    spec = _spec(lam=-10.0)  # unstable drift; overflow in a step
    with np.errstate(over="ignore"), pytest.raises(SimulationError):
        em_step(s, spec, 1e6, [RngStream(0, 0)])


def test_simulate_mkv_snapshots_and_t0():
    s = ParticleState(np.ones((4, 1)))
    out = simulate_mkv(s, _spec(), 0.0, 0.1, [0.0], [RngStream(0, 0)])
    np.testing.assert_array_equal(out[0].coords, s.coords)
    with pytest.raises(ValueError, match="multiple"):
        simulate_mkv(s, _spec(), 1.0, 0.3, [0.5], [RngStream(0, 0)])


def _oracle_mkv(initial, spec, n_steps, dt, rng):
    # the Euler-Maruyama step written as one expression with matmul
    coords, out = initial.coords.copy(), []
    for _ in range(n_steps):
        drift = coords @ spec.linear_drift.T + mckean._mean_field_forces(
            coords, spec.interaction, spec.n_minus_one_prefactor)
        noise = rng.normal(size=coords.shape) @ spec.diffusion_matrix.T
        coords = coords + dt * drift + math.sqrt(dt) * noise
        out.append(coords)
    return out


@pytest.mark.parametrize("case", ["d1-linear", "d2-gaussian-derivative", "n-minus-one"])
def test_simulate_mkv_equals_matmul_oracle(case):
    rng = np.random.default_rng(8)
    if case == "d1-linear":
        spec = _spec(lam=0.5, sigma=1.0, interaction=interaction_catalog("linear", 1))
    else:
        kernel = (interaction_catalog("gaussian_derivative", 2, amp=1.5, width=0.7)
                  if case == "d2-gaussian-derivative" else interaction_catalog("linear", 2))
        spec = DriftDiffusionSpec(2, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), kernel,
                                  n_minus_one_prefactor=case == "n-minus-one")
    init = ParticleState(rng.normal(size=(300, spec.dim)))
    dt, n_steps = 0.01, 20
    got = simulate_mkv(init, spec, n_steps * dt, dt, [0.05, 0.2], [RngStream(4, 1)])
    want = _oracle_mkv(init, spec, n_steps, dt, RngStream(4, 1))
    for snap, k in zip(got, (5, 20)):
        np.testing.assert_array_equal(snap.coords.view(np.uint64), want[k - 1].view(np.uint64))


def test_simulate_mkv_blowup_names_the_time():
    spec = _spec(lam=-10.0, sigma=1.0)  # growth by 6 per step from 1e300
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SimulationError, match=r"t=5\.5\)"):
        simulate_mkv(ParticleState(np.full((3, 1), 1e300)), spec, 10.0, 0.5, [10.0],
                     [RngStream(0, 0)])


def test_simulate_mkv_snapshot_times_are_not_a_running_sum():
    spec = _spec(lam=0.5, sigma=1.0)
    times = [0.125 * k for k in range(1, 9)]
    out = simulate_mkv(ParticleState(np.zeros((2, 1))), spec, 1.0, 5e-4, times,
                       [RngStream(0, 0)])
    assert [s.time for s in out] == times  # exact: a running sum gives 0.12500000000000008


def test_simulate_mkv_ou_stationary_variance():
    # T=-I, sigma=sqrt(2): stationary variance 1
    s = gaussian_sample_state([0.0], [1.0], 50_000, RngStream(9, 0))
    spec = _spec(lam=1.0, sigma=math.sqrt(2.0))
    out = simulate_mkv(s, spec, 2.0, 1e-3, [1.0, 2.0], [RngStream(9, 1)])
    for st in out:
        assert st.coords.var() == pytest.approx(1.0, rel=0.03)



@pytest.mark.parametrize("name", ["linear", "zero", "gaussian_derivative", "screened_coulomb"])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("prefactor", [False, True])
def test_simulate_mkv_replicas_equal_separate_runs(name, dim, prefactor):
    # each system feels only its own mean field and draws its own noise, so
    # a stack is its lone runs bit for bit with equal draw counts; N exceeds
    # the per-system chunk of the pairwise sum, so a chunk ends inside one
    reps = 3
    n = mckean._FORCE_CHUNK // reps + 5
    spec = _spec(dim=dim, lam=0.3, sigma=0.8, interaction=interaction_catalog(name, dim),
                 n_minus_one_prefactor=prefactor)
    inits = [gaussian_sample_state(np.zeros(dim), np.ones(dim), n, RngStream(63, 2 * r))
             for r in range(reps)]
    stack = ParticleState(np.concatenate([s.coords for s in inits]))
    rngs = [RngStream(63, 2 * r + 1) for r in range(reps)]
    snaps = [0.0, 0.02, 0.05]
    stacked = simulate_mkv(stack, spec, 0.05, 0.01, snaps, rngs)
    assert [s.coords.shape for s in stacked] == [(reps * n, dim)] * len(snaps)
    for r, init in enumerate(inits):
        rng = RngStream(63, 2 * r + 1)
        alone = simulate_mkv(init, spec, 0.05, 0.01, snaps, [rng])
        assert rng.draw_counter == rngs[r].draw_counter
        assert [s.time for s in stacked] == [s.time for s in alone] == snaps
        for a, b in zip(stacked, alone):
            np.testing.assert_array_equal(a.coords[r * n:(r + 1) * n].view(np.uint64),
                                          b.coords.view(np.uint64))


@pytest.mark.parametrize("block_steps, reps", [(3, 2), (1, 3), (40, 1)])
def test_simulate_mkv_noise_blocks_equal_step_by_step_draws(monkeypatch, block_steps, reps):
    # the run draws each replica's normals several steps per call; a loop
    # of em_step calls, one draw per replica and step, is the oracle: equal
    # coordinates, times and draw counts, and no normal drawn past the last
    # step (11 steps: blocks of 3 leave a block of 2, and 40 covers them all)
    n, dim, dt = 6, 2, 0.01
    spec = _spec(dim=dim, lam=0.3, sigma=0.8, interaction=interaction_catalog("linear", dim))
    stack = gaussian_sample_state(np.zeros(dim), np.ones(dim), n,
                                  [RngStream(64, 2 * r) for r in range(reps)])
    monkeypatch.setattr(mckean, "_NOISE_BLOCK", block_steps * reps * n * dim + 1)
    rngs = [RngStream(64, 2 * r + 1) for r in range(reps)]
    snaps = [0.0, 0.03, 0.03, 0.11]
    got = simulate_mkv(stack, spec, 0.2, dt, snaps, rngs)
    oracle = [RngStream(64, 2 * r + 1) for r in range(reps)]
    state, want = stack, {0: stack.copy()}
    for k in range(1, 12):
        state = em_step(state, spec, dt, oracle)
        state.time = k * dt
        want[k] = state.copy()
    for s, k in zip(got, [0, 3, 3, 11]):
        assert s.time == want[k].time
        assert s.coords.tobytes() == want[k].coords.tobytes()
    assert [r.draw_counter for r in rngs] == [r.draw_counter for r in oracle] == [11 * n * dim] * reps


def test_simulate_mkv_replicas_validation():
    # a stack needs one stream per replica: rows a multiple of the streams
    s = ParticleState(np.zeros((9, 1)))
    for rngs in ([RngStream(0, 2), RngStream(0, 3)], []):
        with pytest.raises(ValueError, match="divisible by the stream count"):
            simulate_mkv(s, _spec(), 1.0, 0.5, [1.0], rngs)
        with pytest.raises(ValueError, match="divisible by the stream count"):
            em_step(s, _spec(), 0.5, rngs)

@pytest.mark.slow
def test_em_weak_self_consistency_order_one():
    # observable drift between dt and dt/2 shrinks linearly in dt
    lam, kappa, sig = 1.0, 1.0, 1.0
    spec = _spec(lam=lam, sigma=sig, interaction=interaction_catalog("linear", 1, kappa=kappa))
    n = 200_000

    def terminal_second_moment(dt, sid):
        s = gaussian_sample_state([1.0], [1.0], n, RngStream(500, sid))
        out = simulate_mkv(s, spec, 1.0, dt, [1.0], [RngStream(501, sid)])
        return float((out[0].coords**2).mean())

    m1 = terminal_second_moment(0.1, 0)
    m2 = terminal_second_moment(0.05, 1)
    m3 = terminal_second_moment(0.025, 2)
    gap12, gap23 = abs(m1 - m2), abs(m2 - m3)
    mc_noise = 3.0 / math.sqrt(n)
    c_fit = gap12 / 0.1
    assert gap23 <= 0.75 * c_fit * 0.1 + 2 * mc_noise  # halves, up to noise


# ------------------------------------------------------------- moment flow


def test_linear_moment_flow_degenerate_cases():
    t = [0.0, 0.5, 2.0]
    means, variances = linear_moment_flow(0.0, 0.0, [0.0], [1.5], [0.7], t)
    np.testing.assert_array_equal(means[:, 0], [1.5, 1.5, 1.5])
    np.testing.assert_array_equal(variances[:, 0], [0.7, 0.7, 0.7])

    means, _ = linear_moment_flow(0.0, 1.0, [0.0], [1.0], [1.0], t)
    np.testing.assert_allclose(means[:, 0], np.exp([-0.0, -0.5, -2.0]), rtol=1e-14)


def test_linear_moment_flow_stationary_fixed_point():
    # kappa=1, lam=0, sigma=sqrt(2): c_inf = 1
    _, variances = linear_moment_flow(1.0, 0.0, [math.sqrt(2.0)], [0.0], [1.0], [50.0])
    assert variances[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_moment_flow_large_n_cross_check():
    # Monte Carlo validation of the committed moment ODEs at N = 1e5
    kappa, lam, sig = 1.0, 0.0, math.sqrt(2.0)
    spec = _spec(lam=lam, sigma=sig, interaction=interaction_catalog("linear", 1, kappa=kappa))
    n = 100_000
    s = gaussian_sample_state([1.0], [0.25], n, RngStream(15, 0))
    times = [0.5, 1.0, 2.0]
    out = simulate_mkv(s, spec, 2.0, 1e-3, times, [RngStream(15, 1)])
    means, variances = linear_moment_flow(kappa, lam, [sig], [1.0], [0.25], times)
    for st, m_ref, c_ref in zip(out, means[:, 0], variances[:, 0]):
        se_m = math.sqrt(c_ref / n)
        se_c = c_ref * math.sqrt(2.0 / n)
        assert abs(st.coords.mean() - m_ref) < 4 * se_m + 2e-3
        assert abs(st.coords.var() - c_ref) < 4 * se_c + 2e-3


# ------------------------------------------------------------- Vlasov


def test_vlasov_free_transport_exact():
    spec = VlasovSpec(1, gradient_catalog("zero"))
    x0 = np.array([[0.0, 1.0], [2.0, -0.5]])  # (x, v)
    out = simulate_vlasov(ParticleState(x0), spec, 1.0, 0.125, [1.0])
    np.testing.assert_allclose(out[0].coords[:, 0], x0[:, 0] + x0[:, 1], atol=1e-14)
    np.testing.assert_allclose(out[0].coords[:, 1], x0[:, 1], atol=0)


def test_vlasov_bit_reproducible():
    spec = VlasovSpec(1, gradient_catalog("sine", amp=-0.8))
    x0 = np.random.default_rng(3).normal(size=(64, 2))
    a = simulate_vlasov(ParticleState(x0), spec, 2.0, 0.01, [1.0, 2.0])
    b = simulate_vlasov(ParticleState(x0), spec, 2.0, 0.01, [1.0, 2.0])
    for s1, s2 in zip(a, b):
        np.testing.assert_array_equal(s1.coords, s2.coords)


def test_vlasov_momentum_conservation():
    spec = VlasovSpec(1, gradient_catalog("sine", amp=1.0))
    x0 = np.random.default_rng(5).normal(size=(2, 2))
    states = simulate_vlasov(ParticleState(x0), spec, 2.0, 0.01, np.linspace(0.2, 2.0, 10))
    p0 = x0[:, 1].sum()
    for s in states:
        assert abs(s.coords[:, 1].sum() - p0) < 1e-12


def test_vlasov_sine_fast_equals_direct():
    grad = gradient_catalog("sine", amp=0.7)
    x0 = np.random.default_rng(8).normal(size=(33, 2))

    def rhs(c):
        # direct double sum (1/N) Σ_j grad(x_i - x_j) for the velocity block
        x = c[:, :1]
        force = grad.fn(x[:, None, :] - x[None, :, :]).sum(axis=1) / len(c)
        return np.concatenate([c[:, 1:], force], axis=1)

    b = x0.copy()
    for _ in range(20):
        b = b + 0.05 * rhs(b + 0.025 * rhs(b))
    a = simulate_vlasov(ParticleState(x0), VlasovSpec(1, grad), 1.0, 0.05, [1.0])[0].coords
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_vlasov_single_particle_matches_ode():
    # N=1: no interaction (odd kernel vanishes at 0); free motion
    spec = VlasovSpec(1, gradient_catalog("sine", amp=2.0))
    x0 = np.array([[0.3, 0.7]])
    out = simulate_vlasov(ParticleState(x0), spec, 1.0, 1e-3, [1.0])[0]
    sol = solve_ivp(lambda t, y: [y[1], 0.0], (0, 1.0), x0[0], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(out.coords[0], sol.y[:, -1], atol=1e-9)


def test_vlasov_two_body_matches_ode_oracle():
    # N=2 with attractive linear kernel: independent ODE solve as oracle
    kappa = -1.5
    spec = VlasovSpec(1, gradient_catalog("linear", kappa=kappa))
    x0 = np.array([[1.0, 0.0], [-1.0, 0.3]])

    def rhs(t, y):
        x1, v1, x2, v2 = y
        f1 = 0.5 * kappa * (x1 - x2)
        f2 = 0.5 * kappa * (x2 - x1)
        return [v1, f1, v2, f2]

    sol = solve_ivp(rhs, (0, 2.0), [1.0, 0.0, -1.0, 0.3], rtol=1e-11, atol=1e-12)
    out = simulate_vlasov(ParticleState(x0), spec, 2.0, 5e-4, [2.0])[0]
    np.testing.assert_allclose(
        out.coords.ravel(), sol.y[[0, 1, 2, 3], -1], atol=5e-7
    )
