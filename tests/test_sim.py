import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import h2sync.sim as sim
from h2sync.cases import case1_graph, case2_graph, triple_integrator, triple_integrator_full_state
from h2sync.closedloop import assemble_p2, assemble_stacked
from h2sync.conditions import AgentModel
from h2sync.errors import ConfigInvalid, Diverged
from h2sync.graph import CommGraph, laplacian
from h2sync.linalg import spectral_abscissa
from h2sync.protocol import ProtocolRealization, synthesize_p1, synthesize_p2
from h2sync.sim import (
    SimConfig,
    _max_pair_error,
    monte_carlo_rms,
    rms,
    rms_vs_h2_consistency,
    simulate,
    step_matrices,
    white_noise_rms,
)


def case1_p2_config(**kw):
    m = triple_integrator()
    real = synthesize_p2(m, 4.0, delta_hint=0.0004)
    defaults = dict(
        model=m, graph=case1_graph(), protocol=real, t_final=10.0, dt=1e-3
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestRms:
    def test_constant(self):
        assert rms(np.full(1000, -3.0)) == pytest.approx(3.0)

    def test_zero(self):
        assert rms(np.zeros(500)) == 0.0

    def test_sine(self):
        t = np.linspace(0.0, 200 * np.pi, 200_001)
        assert rms(np.sin(t)) == pytest.approx(1 / np.sqrt(2), rel=0.01)

    def test_vector_signal(self):
        sig = np.ones((100, 4))
        assert rms(sig) == pytest.approx(2.0)

    @pytest.mark.parametrize("T", [1, 2, 5, 6])
    def test_second_half_window(self, T):
        # the last ceil(T/2) samples are 2, every earlier one is 100
        sig = np.full(T, 100.0)
        sig[T - math.ceil(T / 2):] = 2.0
        assert rms(sig) == 2.0


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ConfigInvalid):
            case1_p2_config(dt=0.0)

    def test_short_horizon(self):
        with pytest.raises(ConfigInvalid):
            case1_p2_config(t_final=0.05, dt=1e-3)

    def test_bad_noise(self):
        with pytest.raises(ConfigInvalid):
            case1_p2_config(noise="pink")

    def test_bad_integrator(self):
        with pytest.raises(ConfigInvalid):
            case1_p2_config(integrator="euler")

    def test_bad_ic_shape(self):
        with pytest.raises(ConfigInvalid):
            case1_p2_config(initial_conditions=np.zeros((2, 3)))

    @pytest.mark.parametrize("field", ["dt", "t_final"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time(self, field, value):
        with pytest.raises(ConfigInvalid):
            case1_p2_config(**{field: value})


    @pytest.mark.parametrize("dt, t_final", [
        (math.nan, 1.0),
        (0.0, 1.0),
        (math.inf, 1.0),
        (1e-3, math.inf),
        (1e-3, math.nan),
        (1e-3, 0.0),
        (1e-3, 0.05),
    ])
    def test_white_noise_rms_time_grid(self, dt, t_final):
        with pytest.raises(ConfigInvalid):
            white_noise_rms(-1.0, 1.0, 1.0, dt, t_final, [0])

    @pytest.mark.parametrize("dt, integrator, match", [
        (0.01, "euler", "integrator"),  # once read as exact ZOH
        ("x", "rk4", "dt"),
        (math.nan, "zoh", "dt"),
    ], ids=["euler", "dt-text", "dt-nan"])
    def test_step_matrices_refused(self, dt, integrator, match):
        with pytest.raises(ConfigInvalid, match=match):
            step_matrices([[-1.0]], [[1.0]], dt, integrator)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        cfg = case1_p2_config(noise="white", seed=42, t_final=2.0)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.sync_error, b.sync_error)
        assert a.rms_sync_error == b.rms_sync_error

    def test_seed_changes_noise(self):
        a = simulate(case1_p2_config(noise="white", seed=1, t_final=2.0))
        b = simulate(case1_p2_config(noise="white", seed=2, t_final=2.0))
        assert not np.array_equal(a.states, b.states)

    def test_batched_matches_single_runs(self):
        cfg = case1_p2_config(noise="white", seed=7, t_final=3.0, dt=2e-3)
        rms_sync, _ = monte_carlo_rms(cfg, seeds=[7, 8])
        for seed, expect in zip([7, 8], rms_sync):
            single = simulate(case1_p2_config(noise="white", seed=seed,
                                              t_final=3.0, dt=2e-3))
            # same streams, different BLAS paths: equal to rounding
            # (simulate's rms includes the t=0 sample; recompute on steps)
            tail = single.sync_error[1:]
            manual = np.sqrt((tail[len(tail) - int(np.ceil(len(tail) * 0.5)):] ** 2).mean())
            assert expect == pytest.approx(manual, rel=1e-9)


class TestIntegrators:
    def test_rk4_step_matches_textbook_stages(self):
        # one affine RK4 step computed stage by stage
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        dt = 0.01
        z = rng.standard_normal(4)
        w = rng.standard_normal(2)
        f = lambda zz: A @ zz + B @ w
        k1 = f(z)
        k2 = f(z + dt / 2 * k1)
        k3 = f(z + dt / 2 * k2)
        k4 = f(z + dt * k3)
        expect = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        M, K = step_matrices(A, B, dt, "rk4")
        np.testing.assert_allclose(M @ z + K @ w, expect, rtol=1e-12)

    def test_zoh_exact_for_held_input(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        dt = 0.3
        M, K = step_matrices(A, B, dt, "zoh")
        np.testing.assert_allclose(M, sla.expm(A * dt), rtol=1e-12)
        # K = int_0^dt expm(A s) ds B via fine trapezoid quadrature
        s = np.linspace(0, dt, 4001)
        vals = np.stack([sla.expm(A * si) @ B for si in s])
        quad = (vals[:-1] + vals[1:]).sum(axis=0) * (s[1] - s[0]) / 2
        np.testing.assert_allclose(K, quad, rtol=1e-6)

    def test_rk4_fourth_order_convergence(self):
        # dt-halving against exact propagation: global error ratio ~ 16
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        g = case1_graph()
        cl = assemble_stacked(m, real, g)
        rng = np.random.default_rng(11)
        ic = rng.uniform(-1, 1, (3, 3))
        z0 = np.zeros(27)
        z0[:9] = ic.reshape(-1)
        T = 2.0
        exact = sla.expm(cl.A_cl * T) @ z0

        def final_err(dt):
            res = simulate(SimConfig(model=m, graph=g, protocol=real,
                                     t_final=T, dt=dt, initial_conditions=ic))
            # compare the plant-state part only (that is what is stored)
            return np.linalg.norm(res.states[-1].reshape(-1) - exact[:9])

        ratio = final_err(0.02) / final_err(0.01)
        assert 11.0 < ratio < 21.0


class TestSynchronization:
    def test_identical_initial_conditions_stay_synchronized(self):
        ic = np.tile(np.array([0.4, -0.2, 0.1]), (3, 1))
        res = simulate(case1_p2_config(t_final=5.0, initial_conditions=ic))
        assert res.sync_error.max() < 1e-12

    def test_noise_free_decay(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        cl = assemble_p2(m, real, laplacian(case1_graph()))
        alpha = spectral_abscissa(cl.A_cl)
        horizon = 40.0 / abs(alpha)
        res = simulate(SimConfig(model=m, graph=case1_graph(), protocol=real,
                                 t_final=horizon, dt=5e-3, seed=3,
                                 integrator="zoh"))
        assert res.sync_error[-1] < 1e-6 * res.sync_error[0]

    def test_divergence_guard(self):
        # a deliberately destabilizing "realization" (P = -1 flips the gain)
        bad = ProtocolRealization(kind="p1", rho=1.0, P=-np.eye(1))
        m = AgentModel.full_state([[0.0]], [[1.0]], [[1.0]])
        cfg = SimConfig(model=m, graph=CommGraph(np.array([[0.0, 0], [1, 0]])),
                        protocol=bad, t_final=80.0, dt=1e-2,
                        initial_conditions=np.array([[1.0], [-1.0]]))
        with pytest.raises(Diverged):
            simulate(cfg)

    def test_result_shapes_and_metadata(self):
        res = simulate(case1_p2_config(t_final=1.0, dt=1e-2, seed=9))
        assert res.states.shape == (101, 3, 3)
        assert res.t.shape == (101,)
        assert res.sync_error.shape == (101,)
        # the run's settings stay with its config; the result keeps no copy
        assert not hasattr(res, "metadata")


class TestRmsVsH2:
    def test_scalar_oracle(self):
        # dx = -x + w has H2 norm 1/sqrt(2)
        vals = white_noise_rms([[-1.0]], [[1.0]], [[1.0]], dt=1e-3,
                               t_final=200.0, seeds=range(50))
        emp = float(np.sqrt(np.mean(vals**2)))
        assert emp == pytest.approx(1 / np.sqrt(2), rel=0.05)

    def test_case1_p2_ratio(self):
        cfg = case1_p2_config(noise="white", t_final=80.0, dt=1e-3,
                              seed=100, integrator="zoh")
        res = rms_vs_h2_consistency(cfg, n_seeds=10)
        assert res.ratio == pytest.approx(1.0, abs=0.1)

    def test_exact_zero_case(self):
        m = AgentModel.full_state(
            triple_integrator().A, triple_integrator().B, np.zeros((3, 1))
        )
        real = synthesize_p1(m, 4.0)
        cfg = SimConfig(model=m, graph=case1_graph(), protocol=real,
                        t_final=2.0, dt=1e-2, noise="white",
                        initial_conditions=np.zeros((3, 3)))
        res = rms_vs_h2_consistency(cfg, n_seeds=3)
        assert res.predicted_h2 == 0.0
        assert res.ratio is None
        assert res.empirical_rms == pytest.approx(0.0, abs=1e-12)

    def test_requires_white_noise(self):
        with pytest.raises(ConfigInvalid):
            rms_vs_h2_consistency(case1_p2_config(), 2)

    @pytest.mark.parametrize("n_seeds", [1, 3])
    def test_per_seed_rms_is_monte_carlo_xbar(self, n_seeds):
        # the x-bar reduction alone gives the bits of monte_carlo_rms's
        cfg = case1_p2_config(noise="white", t_final=3.0, dt=1e-2, seed=41)
        res = rms_vs_h2_consistency(cfg, n_seeds)
        _, rms_xbar = monte_carlo_rms(cfg, [41 + i for i in range(n_seeds)])
        assert res.per_seed_rms.tobytes() == rms_xbar.tobytes()


def dense_max_pair_sq(X):
    """Reference: the full N x N broadcast of every pair difference of X
    (T, N, n[, s]), squared and summed over the component axis in
    numpy's own order -- the last, contiguous axis for one run (pairwise
    from n = 8 on), a middle axis for batched runs (sequential), as the
    Monte-Carlo step loop below sums it."""
    D = X[:, :, None] - X[:, None]
    return (D**2).sum(axis=3).max(axis=(1, 2))


def dense_max_pair_error(states):
    """Reference: the full N x N broadcast of every pair difference."""
    return np.sqrt(dense_max_pair_sq(states))


def seeded_states(shape, seed):
    """Random states with -0.0, subnormal, huge, inf and nan entries, each
    value in about one step in 20, so that most steps stay finite."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
    special = [-0.0, 5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan]
    for value in special:
        X.reshape(-1)[rng.choice(X.size, size=max(1, shape[0] // 20), replace=False)] = value
    return X


def traced_peak(fn, *args):
    """Peak bytes allocated while fn runs, less the bytes it returns."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak - result.nbytes


class TestPairError:
    # n = 8 is the first length numpy sums pairwise along a contiguous axis
    @pytest.mark.parametrize("N", [2, 20])
    @pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 17])
    def test_matches_dense_broadcast(self, N, n, monkeypatch):
        # one run (T, N, n) and three batched runs (T, N, n, s), the same
        # kind of values; every pair of each state is in the reference
        single = seeded_states((300, N, n), seed=N * 100 + n)
        batched = seeded_states((100, N, n, 3), seed=N * 100 + n + 1)
        with np.errstate(invalid="ignore", over="ignore"):
            for X in (single, batched):
                expect = dense_max_pair_sq(X)
                assert np.isnan(expect).any() and np.isinf(expect).any()
                assert np.isfinite(expect).mean() > 0.5
                # the second size puts chunk boundaries inside the array
                for block_bytes in (sim._BLOCK_BYTES, 8 * N * N * n * 7):
                    monkeypatch.setattr(sim, "_BLOCK_BYTES", block_bytes)
                    assert np.array_equal(sim._max_pair_sq(X), expect, equal_nan=True)
                    assert np.array_equal(_max_pair_error(X), np.sqrt(expect),
                                          equal_nan=True)

    @pytest.mark.parametrize("n", [129, 300])
    def test_long_states_keep_numpy_split(self, n):
        # past 128 terms numpy's pairwise sum splits in halves
        X = np.random.default_rng(n).standard_normal((40, 3, n)) * 1e3
        assert np.array_equal(_max_pair_error(X), dense_max_pair_error(X))

    def test_simulate_nine_states_matches_dense_broadcast(self):
        # a single run of n = 9 through `trajectory_blocks`, the path whose
        # component sum numpy takes pairwise: a chain of 9 integrators,
        # full state, on a 3-agent ring with a fourth agent as its tail
        A, B = np.eye(9, k=1), np.eye(9)[:, -1:]
        m = AgentModel.full_state(A, B, B)
        adj = np.zeros((4, 4))
        adj[0, 2] = adj[1, 0] = adj[2, 1] = adj[3, 2] = 1.0
        res = simulate(SimConfig(model=m, graph=CommGraph(adj), protocol=synthesize_p1(m, 4.0),
                                 t_final=2.0, dt=1e-2, noise="white", seed=3))
        assert np.array_equal(res.sync_error, dense_max_pair_error(res.states))

    def test_finite_rows_exact(self):
        X = np.random.default_rng(1).standard_normal((50, 20, 9))
        assert np.array_equal(_max_pair_error(X), dense_max_pair_error(X))

    @pytest.mark.parametrize("fn, shape", [(_max_pair_error, (20000, 20, 3)),
                                           (sim._max_pair_sq, (2000, 20, 3, 20)),
                                           (_max_pair_error, (40000, 4, 9))],
                             ids=["single", "batched", "single-pairwise"])
    def test_peak_allocation_is_a_few_chunks(self, fn, shape):
        # beyond the array it returns, the reduction holds two chunk-sized
        # buffers (the dense gather held four), however many steps it gets,
        # also where numpy sums the components pairwise (n >= 8); each
        # shape fills whole chunks at both horizons (7281 steps at N = 4,
        # n = 9)
        rng = np.random.default_rng(2)
        peaks = [traced_peak(fn, rng.standard_normal((T,) + shape[1:]))
                 for T in (shape[0] // 4, shape[0])]
        assert max(peaks) <= 2.5 * sim._BLOCK_BYTES
        assert peaks[1] <= peaks[0] + sim._BLOCK_BYTES // 4


def stacked_setup(cfg):
    cl = assemble_stacked(cfg.model, cfg.protocol, cfg.graph)
    return step_matrices(cl.A_cl, cl.B_cl, cfg.dt, cfg.integrator)


def use_block_rows(monkeypatch, rows, dim, runs=1):
    """Set _BLOCK_BYTES so that `runs` runs of a loop with `dim` states
    propagate in blocks of `rows` steps."""
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 8 * dim * runs * rows)
    assert sim._block_rows(dim, runs) == rows


def initial_state(cfg, rng, dim):
    N, n = cfg.graph.n_agents, cfg.model.n
    z = np.zeros(dim)
    z[: N * n] = rng.uniform(-1.0, 1.0, size=N * n)
    return z


def other_loop_config(loop, **kw):
    """The case-1 p2 loop of case1_p2_config, the case-2 p2 loop (rho 6)
    or the case-1 p1 loop of the full-state triple integrator (rho 4)."""
    if loop == "case1-p2":
        return case1_p2_config(**kw)
    if loop == "case2-p2":
        m = triple_integrator()
        return SimConfig(model=m, graph=case2_graph(),
                         protocol=synthesize_p2(m, 6.0, delta_hint=0.0004), **kw)
    m = triple_integrator_full_state()
    return SimConfig(model=m, graph=case1_graph(), protocol=synthesize_p1(m, 4.0), **kw)


class TestKernelBitExact:
    """The block kernel against plain per-step loops, with blocks small
    enough that the step count is not a multiple of the block length."""

    @pytest.fixture(params=[None, 7], ids=["default-block", "7-row-block"])
    def block_bytes(self, request, monkeypatch):
        """Called with a loop's state count: keeps the default budget, or
        sets one under which a single run of that loop takes 7-row blocks."""
        def use(dim):
            if request.param is not None:
                use_block_rows(monkeypatch, request.param, dim)
        return use

    @pytest.mark.parametrize("integrator", ["rk4", "zoh"])
    @pytest.mark.parametrize("noise", ["off", "white"])
    def test_simulate_matches_step_loop(self, integrator, noise, block_bytes):
        cfg = case1_p2_config(t_final=1.0, dt=1e-2, seed=4, noise=noise,
                              integrator=integrator)
        M, K = stacked_setup(cfg)
        block_bytes(M.shape[0])
        rng = np.random.default_rng(cfg.seed)
        z = initial_state(cfg, rng, M.shape[0])
        steps = 100
        W = rng.standard_normal((steps, K.shape[1])) * math.sqrt(1 / cfg.dt)
        expect = [z[:9].copy()]
        for k in range(steps):
            z = M @ z + K @ W[k] if noise == "white" else M @ z
            expect.append(z[:9].copy())
        expect = np.array(expect).reshape(-1, 3, 3)
        res = simulate(cfg)
        assert np.array_equal(res.states, expect)
        assert np.array_equal(res.sync_error, dense_max_pair_error(expect))

    @pytest.mark.parametrize("seeds", [[3], [3, 4, 5]])
    def test_monte_carlo_matches_step_loop(self, seeds, block_bytes):
        cfg = case1_p2_config(t_final=1.01, dt=1e-2, noise="white")
        M, K = stacked_setup(cfg)
        block_bytes(M.shape[0])
        N, n, s = 3, 3, len(seeds)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        Z = np.stack([initial_state(cfg, rng, M.shape[0]) for rng in rngs], axis=1)
        steps = 101
        Wn = np.stack([rng.standard_normal((steps, N)) for rng in rngs], axis=2)
        Wn = Wn * math.sqrt(1 / cfg.dt)
        acc_sync, acc_xbar = np.zeros(s), np.zeros(s)
        tail_start = steps - math.ceil(steps * 0.5)
        for k in range(steps):
            Z = M @ Z + K @ Wn[k]
            if k + 1 > tail_start:
                X = Z[: N * n].reshape(N, n, s)
                acc_xbar += ((X[: N - 1] - X[N - 1]) ** 2).sum(axis=(0, 1))
                D = X[:, None] - X[None, :]
                acc_sync += (D**2).sum(axis=2).max(axis=(0, 1))
        count = steps - tail_start
        got_sync, got_xbar = monte_carlo_rms(cfg, seeds)
        assert np.array_equal(got_sync, np.sqrt(acc_sync / count))
        assert np.array_equal(got_xbar, np.sqrt(acc_xbar / count))

    @pytest.mark.parametrize("system", ["scalar", "three-state"])
    @pytest.mark.parametrize("seeds", [[2], [2, 9, 11]])
    def test_white_noise_rms_matches_step_loop(self, system, seeds, block_bytes):
        if system == "scalar":
            A, B, C = [[-1.0]], [[1.0]], [[1.0]]
        else:
            A = [[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0], [0.0, 0.0, -0.5]]
            B = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
            C = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        A, B, C = (np.array(X, dtype=float) for X in (A, B, C))
        dt, steps = 1e-2, 157
        M, K = step_matrices(A, B, dt, "rk4")
        block_bytes(M.shape[0])
        rngs = [np.random.default_rng(seed) for seed in seeds]
        Wn = np.stack([rng.standard_normal((steps, B.shape[1])) for rng in rngs], axis=2)
        Wn = Wn * math.sqrt(1 / dt)
        Z = np.zeros((A.shape[0], len(seeds)))
        acc = np.zeros(len(seeds))
        tail_start = steps - math.ceil(steps * 0.5)
        for k in range(steps):
            Z = M @ Z + K @ Wn[k]
            if k + 1 > tail_start:
                acc += ((C @ Z) ** 2).sum(axis=0)
        got = white_noise_rms(A, B, C, dt, steps * dt, seeds)
        assert np.array_equal(got, np.sqrt(acc / (steps - tail_start)))

    # case2-p2: 20 agents, 180 states, 20 noise inputs; case1-p1: a static
    # protocol, so the agent rows are the whole state
    @pytest.mark.parametrize("loop", ["case2-p2", "case1-p1"])
    @pytest.mark.parametrize("noise", ["off", "white"])
    def test_other_loops_simulate_matches_step_loop(self, loop, noise, block_bytes):
        cfg = other_loop_config(loop, t_final=1.0, dt=1e-2, seed=4, noise=noise)
        M, K = stacked_setup(cfg)
        block_bytes(M.shape[0])
        N, n = cfg.graph.n_agents, cfg.model.n
        rng = np.random.default_rng(cfg.seed)
        z = initial_state(cfg, rng, M.shape[0])
        steps = 100
        W = rng.standard_normal((steps, K.shape[1])) * math.sqrt(1 / cfg.dt)
        expect = [z[: N * n].copy()]
        for k in range(steps):
            z = M @ z + K @ W[k] if noise == "white" else M @ z
            expect.append(z[: N * n].copy())
        expect = np.array(expect).reshape(-1, N, n)
        res = simulate(cfg)
        assert np.array_equal(res.states, expect)
        assert np.array_equal(res.sync_error, dense_max_pair_error(expect))

    # one seed runs each step as a matrix-vector product on a (dim, 1) block
    @pytest.mark.parametrize("loop, integrator, seeds", [
        ("case2-p2", "rk4", [3]), ("case2-p2", "rk4", [3, 4, 5]),
        ("case1-p1", "rk4", [3]), ("case1-p2", "zoh", [3, 4, 5]),
        ("case2-p2", "zoh", [3, 4]),
    ])
    def test_other_loops_monte_carlo_matches_step_loop(self, loop, integrator, seeds,
                                                       block_bytes):
        cfg = other_loop_config(loop, t_final=1.01, dt=1e-2, noise="white",
                                integrator=integrator)
        M, K = stacked_setup(cfg)
        block_bytes(M.shape[0])
        N, n, s = cfg.graph.n_agents, cfg.model.n, len(seeds)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        Z = np.stack([initial_state(cfg, rng, M.shape[0]) for rng in rngs], axis=1)
        steps = 101
        Wn = np.stack([rng.standard_normal((steps, K.shape[1])) for rng in rngs], axis=2)
        Wn = Wn * math.sqrt(1 / cfg.dt)
        acc_sync, acc_xbar = np.zeros(s), np.zeros(s)
        tail_start = steps - math.ceil(steps * 0.5)
        for k in range(steps):
            Z = M @ Z + K @ Wn[k]
            if k + 1 > tail_start:
                X = Z[: N * n].reshape(N, n, s)
                acc_xbar += ((X[: N - 1] - X[N - 1]) ** 2).sum(axis=(0, 1))
                D = X[:, None] - X[None, :]
                acc_sync += (D**2).sum(axis=2).max(axis=(0, 1))
        count = steps - tail_start
        got_sync, got_xbar = monte_carlo_rms(cfg, seeds)
        assert np.array_equal(got_sync, np.sqrt(acc_sync / count))
        assert np.array_equal(got_xbar, np.sqrt(acc_xbar / count))


class TestDivergenceGuard:
    """Every propagation path raises Diverged once a run's state norm
    passes DIVERGENCE_LIMIT, also while it is still finite."""

    def unstable_config(self, a=1.0, t_final=80.0, **kw):
        # scalar agents dx = a x + u + w, a > 0, the follower coupled with
        # weight 2a: their difference decays (modes -a and -sqrt(a^2 + 1)),
        # so the step check passes, while the synchronized motion grows as
        # e^(a t) until the guard stops the run
        m = AgentModel.full_state([[a]], [[1.0]], [[1.0]])
        real = ProtocolRealization(kind="p1", rho=1.0, P=[[a + math.sqrt(a * a + 1.0)]])
        return SimConfig(model=m, graph=CommGraph(np.array([[0.0, 0], [2 * a, 0]])),
                         protocol=real, t_final=t_final, dt=1e-2,
                         initial_conditions=np.array([[1.0], [-1.0]]), **kw)

    def test_simulate(self):
        with pytest.raises(Diverged, match="state norm"):
            simulate(self.unstable_config(noise="white"))

    def test_monte_carlo_rms(self):
        with pytest.raises(Diverged, match="state norm"):
            monte_carlo_rms(self.unstable_config(noise="white"), [0, 1])

    def test_white_noise_rms(self):
        with pytest.raises(Diverged):
            white_noise_rms(5.0, 1.0, 1.0, 1e-3, 20.0, [0])

    @pytest.mark.parametrize("noise", ["off", "white"])
    def test_overflow_inside_a_block_is_not_a_warning(self, noise):
        # at a = 100 the synchronized motion grows by about e a step: the
        # state overflows to inf and NaN within one block, and the guard
        # reports it instead of a numpy overflow warning
        cfg = self.unstable_config(a=100.0, t_final=20.0, noise=noise)
        with pytest.raises(Diverged, match="state norm"):
            simulate(cfg)
        if noise == "white":
            with pytest.raises(Diverged, match="state norm"):
                monte_carlo_rms(cfg, [0, 1])


def complete_graph_config(w, **kw):
    """The case-1 p2 design (rho 4) on the complete 3-agent digraph with
    every weight w: at dt = 1e-2 its fastest mode, -4 * 3w, leaves the
    RK4 stability region between w = 23.2 and w = 23.22."""
    kw = {"dt": 1e-2, "t_final": 50.0, "noise": "white", "seed": 1, **kw}
    return case1_p2_config(graph=CommGraph(w * (np.ones((3, 3)) - np.eye(3))), **kw)


class TestStepCheck:
    """A run whose step grows a mode of the error-form loop is refused
    with Diverged before its first step."""

    def test_unstable_step_refused(self):
        # the step grows by 1.00167 a step, so over 5000 steps the run
        # stays under DIVERGENCE_LIMIT and would return an RMS of about 4.9e5
        with pytest.raises(Diverged, match=r"dt / 2\^1 = 0.005"):
            monte_carlo_rms(complete_graph_config(23.22), [1, 2, 3, 4])

    def test_white_noise_rms_unstable_step_refused(self):
        # dz = -z + w (H2 = 0.707): RK4 at dt = 2.8 grows by 1.022 a step,
        # which stays under DIVERGENCE_LIMIT and would return RMS near 20
        with pytest.raises(Diverged, match=r"dt / 2\^1 = 1.4 "):
            white_noise_rms(-1.0, 1.0, 1.0, 2.8, 1000.0, [0, 1])

    def test_refused_before_the_first_step(self):
        with pytest.raises(Diverged, match="grows a mode"):
            next(sim.trajectory_blocks(complete_graph_config(23.22)))

    def test_stable_step_runs(self):
        _, rms_xbar = monte_carlo_rms(complete_graph_config(23.0), [1, 2, 3, 4])
        assert rms_xbar.mean() < 1.2  # the loop's H2 norm is 1.1525

    def test_zoh_step_of_a_hurwitz_loop_is_stable(self):
        res = simulate(complete_graph_config(23.22, integrator="zoh", t_final=1.0))
        assert np.isfinite(res.rms_sync_error)

    @pytest.mark.parametrize("integrator", ["rk4", "zoh"])
    def test_loop_not_hurwitz_has_no_stable_step(self, integrator):
        # P = -1 flips the gain: the mode 1 of A - rho B B^T P grows
        bad = ProtocolRealization(kind="p1", rho=1.0, P=-np.eye(1))
        m = AgentModel.full_state([[0.0]], [[1.0]], [[1.0]])
        cfg = SimConfig(model=m, graph=CommGraph(np.array([[0.0, 0], [1, 0]])),
                        protocol=bad, t_final=80.0, dt=1e-2, integrator=integrator)
        with pytest.raises(Diverged, match="no step is stable"):
            simulate(cfg)


class TestTrajectoryBlocks:
    def test_blocks_cover_the_run(self, monkeypatch):
        real = synthesize_p2(triple_integrator(), 6.0, delta_hint=0.0004)
        cfg = SimConfig(model=triple_integrator(), graph=case2_graph(), protocol=real,
                        t_final=0.25, dt=1e-3, noise="white", seed=8)
        use_block_rows(monkeypatch, 20, stacked_setup(cfg)[0].shape[0])
        blocks = list(sim.trajectory_blocks(cfg))
        assert len(blocks) > 2
        assert [i for i, _ in blocks] == [0, *range(1, 251, 20)]
        states = np.concatenate([b for _, b in blocks])
        assert np.array_equal(states, simulate(cfg).states)


class TestKernelMemory:
    """Propagation holds a few blocks of full loop states (the block being
    filled, the one its caller still holds, the noise of one block),
    however many steps it runs."""

    @staticmethod
    def monte_carlo(cfg):
        return np.array(monte_carlo_rms(cfg, range(20)))

    @staticmethod
    def trajectory(cfg):
        for _ in sim.trajectory_blocks(cfg):
            pass
        return np.empty(0)

    # 20 seeds take 72-step blocks, one run 1456-step blocks: each pair of
    # horizons spans at least two full blocks
    @pytest.mark.parametrize("run, horizons", [("monte_carlo", (1.0, 4.0)),
                                               ("trajectory", (4.0, 16.0))])
    def test_peak_is_a_few_blocks(self, run, horizons):
        fn = getattr(self, run)
        peaks = [traced_peak(fn, other_loop_config("case2-p2", t_final=t_final, dt=1e-3,
                                                   noise="white", seed=2))
                 for t_final in horizons]
        assert max(peaks) <= 3 * sim._BLOCK_BYTES
        assert peaks[1] <= peaks[0] + sim._BLOCK_BYTES // 4
