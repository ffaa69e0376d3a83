import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import random_spanning_tree_graph
from scipy.integrate import quad

import h2sync.closedloop as closedloop
import h2sync.linalg as linalg
import h2sync.modal as modal
from h2sync import tolerances
from h2sync.cases import (
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from h2sync.closedloop import (
    ClosedLoop,
    ModeData,
    assemble_p1,
    assemble_p2,
    assemble_stacked,
    error_h2,
    probe_to_csv,
    reduce_to_differences,
    rho_scaling_probe,
)
from h2sync.conditions import AgentModel
from h2sync.errors import DimensionMismatch, NotHurwitz, PreconditionFailed
from h2sync.graph import CommGraph, LaplacianPair, laplacian
from h2sync.linalg import h2_norm, hinf_norm, is_hurwitz, spectral_abscissa
from h2sync.protocol import design, synthesize_p1, synthesize_p2


def scalar_model_full():
    return AgentModel.full_state([[0.0]], [[1.0]], [[1.0]])


def scalar_model_partial():
    return AgentModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])


def two_agent_chain():
    return CommGraph(np.array([[0.0, 0], [1, 0]]))


def dense_only(md: ModeData) -> ClosedLoop:
    """The same loop as a dense ClosedLoop, so error_h2 takes the dense path."""
    return ClosedLoop(*md.dense())


@pytest.fixture(scope="module")
def designs():
    """(model, realization, assembler) for p1 and p2 at rho = 4."""
    full, partial = triple_integrator_full_state(), triple_integrator()
    return [
        (full, synthesize_p1(full, 4.0), assemble_p1),
        (partial, synthesize_p2(partial, 4.0, delta_hint=0.0004), assemble_p2),
    ]


class TestAssembleP1:
    def test_two_scalar_agents_hand_oracle(self):
        # P = 1 from the scalar Riccati; Lbar = [1]; hand substitution
        rho = 3.0
        real = synthesize_p1(scalar_model_full(), rho)
        cl = assemble_p1(scalar_model_full(), real, laplacian(two_agent_chain()))
        np.testing.assert_allclose(cl.A_cl, [[-rho, rho], [0, -rho]], atol=1e-12)
        np.testing.assert_allclose(cl.B_cl, [[1, -1], [1, -1]], atol=1e-12)
        np.testing.assert_allclose(cl.C_cl, [[1.0, 0.0]])

    def test_case1_dimensions_and_stability(self):
        m = triple_integrator_full_state()
        real = synthesize_p1(m, 4.0)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert cl.A_cl.shape == (12, 12)  # 2 (N-1) n
        ok, _ = is_hurwitz(cl.A_cl)
        assert ok

    @pytest.mark.parametrize("rho", [1.0, 2.0, 7.5, 40.0])
    def test_stable_for_any_rho(self, rho):
        m = triple_integrator_full_state()
        real = synthesize_p1(m, rho)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert spectral_abscissa(cl.A_cl) < 0

    def test_kind_mismatch(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        with pytest.raises(DimensionMismatch):
            assemble_p1(m, real, laplacian(case1_graph()))


class TestAssembleP2:
    def test_case1_dimensions_and_stability(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        cl = assemble_p2(m, real, laplacian(case1_graph()))
        assert cl.A_cl.shape == (18, 18)  # 3 (N-1) n
        assert spectral_abscissa(cl.A_cl) < 0

    def test_two_scalar_agents_block_structure(self):
        # exact block-triangular structure from symbolic substitution
        rho, delta = 2.0, 0.1
        m = scalar_model_partial()
        real = synthesize_p2(m, rho, delta_hint=delta)
        q = 1.0 / np.sqrt(delta**-2 - rho**2)
        assert real.Q_rho[0, 0] == pytest.approx(q, rel=1e-12)
        cl = assemble_p2(m, real, laplacian(two_agent_chain()))
        # states (xbar, e, ebar)
        expect = np.array([
            [-rho, rho, 0.0],
            [0.0, -rho, rho],
            [0.0, 0.0, -q / delta**2],
        ])
        np.testing.assert_allclose(cl.A_cl, expect, atol=1e-12)
        np.testing.assert_allclose(cl.B_cl, [[1, -1], [1, -1], [1, -1]], atol=1e-12)

    def test_zero_disturbance_gives_zero_b(self):
        m = AgentModel.full_state(
            triple_integrator().A, triple_integrator().B, np.zeros((3, 1))
        )
        real = synthesize_p1(m, 4.0)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert np.all(cl.B_cl == 0.0)

    def test_zero_disturbance_gives_zero_b_p2(self):
        # synthesis needs E != 0, but the assembled loop for an E = 0
        # variant of the model has no disturbance input at all
        base = triple_integrator()
        real = synthesize_p2(base, 4.0, delta_hint=0.0004)
        m0 = AgentModel(base.A, base.B, base.C, np.zeros((3, 1)))
        cl = assemble_p2(m0, real, laplacian(case1_graph()))
        assert np.all(cl.B_cl == 0.0)


class TestSubLoop:
    """Protocol 2 is Protocol 1 plus an observer: on one model, the p1
    loop is the leading (xbar, e) sub-loop of the p2 loop with its first
    input term, bit for bit."""

    @pytest.mark.parametrize("rho", [1.0, 4.0, 10.0])
    @pytest.mark.parametrize("graph", ["case1", "case2", "random-30"])
    def test_p1_is_the_leading_p2_sub_loop(self, graph, rho):
        g = (random_spanning_tree_graph(np.random.default_rng(30), 30)[0]
             if graph == "random-30" else oracle_graph(graph))
        model, lp = triple_integrator_full_state(), laplacian(g)  # C = I admits both
        p1 = assemble_p1(model, design(model, "p1").realize(rho), lp)
        p2 = assemble_p2(model, design(model, "p2").realize(rho), lp)
        d = 2 * model.n
        assert np.array_equal(p1.D, p2.D[:d, :d])
        assert np.array_equal(p1.M[0], p2.M[0]) and np.array_equal(p1.E[0], p2.E[0][:d])
        assert p1.M.shape[0] == 1 and p2.M.shape[0] == 2


class TestStackedCrossCheck:
    def check(self, model, real, g, expected_raw_dim=None):
        raw = assemble_stacked(model, real, g)
        if expected_raw_dim is not None:
            assert raw.A_cl.shape == (expected_raw_dim, expected_raw_dim)
            # whole network is only marginally stable (synchronized motion)
            assert abs(spectral_abscissa(raw.A_cl)) < 1e-3
            with pytest.raises(NotHurwitz):
                error_h2(raw)
        red = reduce_to_differences(raw, model, real)
        lp = laplacian(g)
        if real.kind == "p1":
            err = assemble_p1(model, real, lp)
        else:
            err = assemble_p2(model, real, lp)
        assert isinstance(err, ModeData) and isinstance(red, ClosedLoop)
        v_err = error_h2(err)
        # the modal kernel against a dense Lyapunov solve on A_cl
        assert v_err == pytest.approx(h2_norm(err.A_cl, err.B_cl, err.C_cl), rel=1e-8)
        v_raw = error_h2(red)
        assert v_raw == pytest.approx(v_err, rel=1e-6)

    def test_p1_case1(self):
        m = triple_integrator_full_state()
        self.check(m, synthesize_p1(m, 4.0), case1_graph(), 2 * 3 * 3)

    def test_p1_case2(self):
        m = triple_integrator_full_state()
        self.check(m, synthesize_p1(m, 6.0), case2_graph(), 2 * 20 * 3)

    def test_p2_case1(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        self.check(m, real, case1_graph(), 3 * 3 * 3)

    def test_p2_case2(self):
        m = triple_integrator()
        real = synthesize_p2(m, 6.0, delta_hint=0.0004)
        self.check(m, real, case2_graph(), 3 * 20 * 3)

    # sizes up to 16 keep the two dense oracles affordable; graph 0 has
    # N = 50
    @pytest.mark.parametrize("seed", range(100))
    def test_random_graph(self, designs, seed):
        rng = np.random.default_rng([7, seed])
        g, _ = random_spanning_tree_graph(rng, 50 if seed == 0 else int(rng.integers(2, 17)))
        for model, real, _ in designs:
            self.check(model, real, g)

    # graph families that stress the scale-free claim: the directed path
    # (L̄ one Jordan block) and the directed ring (smallest nonzero
    # Laplacian eigenvalue near 0 as N grows); p1, and p2 with delta searched
    @pytest.mark.parametrize("rho", [1.0, 4.0, 10.0])
    @pytest.mark.parametrize("N", [3, 10, 20, 30])
    @pytest.mark.parametrize("family", ["path", "ring"])
    def test_graph_family(self, family, N, rho):
        g = chain_graph(N) if family == "path" else ring_graph(N)
        full, partial = triple_integrator_full_state(), triple_integrator()
        self.check(full, synthesize_p1(full, rho), g)
        self.check(partial, synthesize_p2(partial, rho), g)

    def test_reduction_rejects_error_form(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        cl = assemble_p2(m, real, laplacian(case1_graph()))
        with pytest.raises(DimensionMismatch):
            reduce_to_differences(cl, m, real)

    def test_reduction_rejects_non_diffusive_loop(self):
        # absolute (non-relative) coupling leaks into the difference
        # states and must be caught
        m = scalar_model_full()
        real = synthesize_p1(m, 2.0)
        raw = assemble_stacked(m, real, two_agent_chain())
        A = raw.A_cl.copy()
        A[0, 0] -= 0.3  # absolute feedback on agent 1 only
        leaky = ClosedLoop(A, raw.B_cl, raw.C_cl)
        with pytest.raises(DimensionMismatch):
            reduce_to_differences(leaky, m, real)


def similarity_reduction(cl, model, real):
    """Reference reduction: the similarity transform
    T = blockdiag(S (x) I_n, S (x) I_nc), S = [[Pi], [e_N^T]], applied to
    the stacked loop, keeping the rows and columns of agents 1..N-1."""
    n, nc = model.n, real.controller_state_dim
    N = cl.A_cl.shape[0] // (n + nc)
    S = np.vstack([np.hstack([np.eye(N - 1), -np.ones((N - 1, 1))]), np.eye(N)[N - 1 :]])
    T = sla.block_diag(np.kron(S, np.eye(n)), np.kron(S, np.eye(nc)))
    Tinv = np.linalg.inv(T)
    keep = np.concatenate([np.arange((N - 1) * n), N * n + np.arange((N - 1) * nc)])
    return ((T @ cl.A_cl @ Tinv)[np.ix_(keep, keep)], (T @ cl.B_cl)[keep],
            (cl.C_cl @ Tinv)[:, keep])


class TestReductionIsExact:
    """Subtracting agent N's rows is the similarity transform, bit for
    bit: T's rows are one 1 and one -1, and T^-1's kept columns unit
    vectors, so every product is one exact subtraction or a copy."""

    @pytest.mark.parametrize("graph", ["case1", "case2", "random-30"])
    def test_equals_similarity_transform(self, designs, graph):
        g = (random_spanning_tree_graph(np.random.default_rng(30), 30)[0]
             if graph == "random-30" else oracle_graph(graph))
        for model, real, _ in designs:
            raw = assemble_stacked(model, real, g)
            red = reduce_to_differences(raw, model, real)
            for got, want in zip((red.A_cl, red.B_cl, red.C_cl),
                                 similarity_reduction(raw, model, real)):
                assert got.shape == want.shape and np.array_equal(got, want)


def frequency_response(cl, omega):
    """C (j omega I - A)^-1 B of a loop."""
    n = cl.A_cl.shape[0]
    return cl.C_cl @ np.linalg.solve(1j * omega * np.eye(n) - cl.A_cl, cl.B_cl)


# case 1, case 2 and 20 seeded random spanning-tree digraphs (N = 2-16)
ORACLE_GRAPHS = ["case1", "case2"] + [f"random{seed}" for seed in range(20)]


def oracle_graph(name):
    if name == "case1":
        return case1_graph()
    if name == "case2":
        return case2_graph()
    rng = np.random.default_rng([11, int(name[6:])])
    return random_spanning_tree_graph(rng, int(rng.integers(2, 17)))[0]


class TestDenseForm:
    @pytest.mark.parametrize("graph", ORACLE_GRAPHS)
    def test_frequency_response_matches_stacked(self, designs, graph):
        # every entry of the dense matrices against the independent
        # stacked derivation, through the transfer function they realize
        g = oracle_graph(graph)
        for model, real, assemble in designs:
            err = assemble(model, real, laplacian(g))
            red = reduce_to_differences(assemble_stacked(model, real, g), model, real)
            for omega in (0.0, 0.3, 3.0, 30.0):
                G, G_ref = frequency_response(err, omega), frequency_response(red, omega)
                assert np.linalg.norm(G - G_ref) <= 1e-9 * np.linalg.norm(G_ref)

    @pytest.mark.parametrize("graph", ["case1", "random3"])
    def test_dense_is_block_permutation_of_mode_formula(self, designs, graph):
        # the ModeData docstring, agent by agent: I (x) D - rho Lbar (x) S,
        # sum_a M[a] (x) E[a] and I (x) C_out
        lp = laplacian(oracle_graph(graph))
        for model, real, assemble in designs:
            md = assemble(model, real, lp)
            m, n, d = lp.L_reduced.shape[0], md.n, md.D.shape[0]
            S = np.zeros((d, d))
            S[md.block(md.coupled), md.block(md.coupled)] = np.eye(n)
            A = np.kron(np.eye(m), md.D) - md.rho * np.kron(md.L_reduced, S)
            B = sum(np.kron(Ma, Ea) for Ma, Ea in zip(md.M, md.E))
            C = np.kron(np.eye(m), np.eye(d)[md.block(md.output)])
            np.testing.assert_array_equal(md.A_cl, A)
            np.testing.assert_array_equal(md.B_cl, B)
            np.testing.assert_array_equal(md.C_cl, C)

    def test_triple_is_derived_from_modes_and_not_kept(self, designs):
        # every read derives the triple afresh; the loop stores none of it
        lp = laplacian(case2_graph())
        for model, real, assemble in designs:
            cl = assemble(model, real, lp)
            for _ in range(2):
                for got, want in zip((cl.A_cl, cl.B_cl, cl.C_cl), cl.dense()):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not {"A_cl", "B_cl", "C_cl"} & set(vars(cl))

    def test_assemblers_form_no_dense_loop(self, designs, monkeypatch):
        def refuse(self):
            raise AssertionError("dense loop formed")

        monkeypatch.setattr(closedloop.ModeData, "dense", refuse)
        lp = laplacian(case2_graph())
        for model, real, assemble in designs:
            assert error_h2(assemble(model, real, lp)) > 0
        for kind, model in (("p1", triple_integrator_full_state()), ("p2", triple_integrator())):
            assert len(rho_scaling_probe(model, case2_graph(), kind, [1.0, 4.0])) == 2


class TestOneRepresentation:
    """An error-form loop is its ModeData; a ClosedLoop is a dense loop
    and nothing else, so no loop carries two copies that could disagree."""

    def test_closed_loop_holds_only_the_dense_triple(self):
        fields = [f.name for f in dataclasses.fields(ClosedLoop)]
        assert fields == ["A_cl", "B_cl", "C_cl"]
        assert "__getattr__" not in vars(ClosedLoop)

    def test_laplacian_pair_holds_only_its_matrices(self):
        assert [f.name for f in dataclasses.fields(LaplacianPair)] == ["L", "L_reduced", "Pi"]

    def test_mode_data_is_set_by_its_blocks_alone(self):
        # the input factors M are derived from Lbar, and the coupled and
        # output blocks are the same for every loop
        assert [f.name for f in dataclasses.fields(ModeData) if f.init] == [
            "D", "n", "rho", "L_reduced", "E"]
        assert (ModeData.coupled, ModeData.output) == (1, 0)

    @pytest.mark.parametrize("graph", ["case1", "case2", "random-30"])
    def test_input_factors_are_pi_and_lbar_pi(self, designs, graph):
        g = (random_spanning_tree_graph(np.random.default_rng(30), 30)[0]
             if graph == "random-30" else oracle_graph(graph))
        lp = laplacian(g)
        factors = np.stack([lp.Pi, lp.L_reduced @ lp.Pi])
        for (model, real, assemble), terms in zip(designs, (1, 2)):
            assert np.array_equal(assemble(model, real, lp).M, factors[:terms])

    def test_assemblers_return_mode_data(self, designs):
        lp = laplacian(case1_graph())
        for model, real, assemble in designs:
            md = assemble(model, real, lp)
            assert type(md) is ModeData and md.n_agents == 3

    def test_one_assembler_builds_mode_data(self):
        # p1 and p2 share one error-form assembler, not two near-copies
        tree = ast.parse(inspect.getsource(closedloop))
        builders = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                    for c in ast.walk(f) if isinstance(c, ast.Call)
                    and getattr(c.func, "id", None) == "ModeData"}
        assert builders == {"_assemble"}
        assert inspect.getsource(closedloop).count("ModeData(") == 1

    def test_no_loop_with_two_disagreeing_copies(self, designs):
        # a dense triple with B doubled next to the modes it came from
        model, real, assemble = designs[1]
        md = assemble(model, real, laplacian(case1_graph()))
        with pytest.raises(TypeError):
            ClosedLoop(md.A_cl, 2 * md.B_cl, md.C_cl, md)


class TestErrorH2:
    def test_stacked_form_refused(self, designs):
        # marginal along the synchronized motion: the dense Hurwitz gate refuses it
        model, real, _ = designs[1]
        raw = assemble_stacked(model, real, case1_graph())
        with pytest.raises(NotHurwitz, match="not Hurwitz"):
            error_h2(raw)

    @pytest.mark.parametrize("graph", ["case1", "case2", "random3"])
    def test_stacked_loop_of_hurwitz_agents(self, graph):
        # with A = -1 the synchronized motion decays, so the raw stacked
        # loop is Hurwitz and has the H2 of its reduction and of its modes
        m = AgentModel.full_state([[-1.0]], [[1.0]], [[1.0]])
        real, g = synthesize_p1(m, 2.0), oracle_graph(graph)
        raw = assemble_stacked(m, real, g)
        h2 = error_h2(assemble_p1(m, real, laplacian(g)))
        for loop in (raw, reduce_to_differences(raw, m, real)):
            assert error_h2(loop) == pytest.approx(h2, rel=1e-8)

    def test_zero_disturbance(self):
        m = AgentModel.full_state(
            triple_integrator().A, triple_integrator().B, np.zeros((3, 1))
        )
        real = synthesize_p1(m, 4.0)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert error_h2(cl) == 0.0

    def test_zero_disturbance_p2(self):
        base = triple_integrator()
        real = synthesize_p2(base, 4.0, delta_hint=0.0004)
        m0 = AgentModel(base.A, base.B, base.C, np.zeros((3, 1)))
        h2 = error_h2(assemble_p2(m0, real, laplacian(case1_graph())))
        assert h2 == 0.0 and math.copysign(1.0, h2) == 1.0

    def test_dense_path_checks_hurwitz_once(self, designs, monkeypatch):
        calls = []
        original = linalg.is_hurwitz

        def counting(A):
            calls.append(A.shape)
            return original(A)

        # error_h2 reaches is_hurwitz through both module bindings
        monkeypatch.setattr(linalg, "is_hurwitz", counting)
        monkeypatch.setattr(closedloop, "is_hurwitz", counting, raising=False)
        model, real, assemble = designs[1]
        cl = assemble(model, real, laplacian(case2_graph()))
        dense = error_h2(dense_only(cl))
        assert calls == [cl.A_cl.shape]
        calls.clear()
        # the modal path needs no eigendecomposition of A_cl
        assert error_h2(cl) == pytest.approx(dense, rel=1e-8)
        assert calls == []

    @pytest.mark.parametrize("path", ["modal", "dense"])
    def test_no_spanning_tree_has_zero_mode(self, designs, path):
        # agents 0 and 2 are both roots: Lbar has a zero eigenvalue
        adj = np.zeros((4, 4))
        adj[1, 0] = adj[3, 2] = 1.0
        for model, real, assemble in designs:
            cl = assemble(model, real, laplacian(CommGraph(adj)))
            with pytest.raises(NotHurwitz):
                error_h2(cl if path == "modal" else dense_only(cl))

    @pytest.mark.parametrize("path", ["modal", "dense"])
    def test_unstable_design(self, designs, path):
        # P of the wrong sign turns the feedback A - rho BB^T P unstable
        for model, real, assemble in designs:
            bad = dataclasses.replace(real, P=-real.P)
            cl = assemble(model, bad, laplacian(case1_graph()))
            with pytest.raises(NotHurwitz, match="closed loop is not Hurwitz"):
                error_h2(cl if path == "modal" else dense_only(cl))

    @pytest.mark.parametrize("path", ["modal", "dense"])
    def test_checks_follow_tolerances(self, designs, path):
        base = tolerances.DEFAULT
        for model, real, assemble in designs:
            cl = assemble(model, real, laplacian(case1_graph()))
            cl = cl if path == "modal" else dense_only(cl)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tolerances, "DEFAULT", dataclasses.replace(base, hurwitz_margin=1e3))
                with pytest.raises(NotHurwitz, match="spectral abscissa"):
                    error_h2(cl)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tolerances, "DEFAULT", dataclasses.replace(base, lyapunov_residual=0.0))
                with pytest.raises(NotHurwitz, match="Lyapunov residual"):
                    error_h2(cl)

    def test_mode_data_must_be_block_triangular(self, designs):
        model, real, assemble = designs[1]
        modes = assemble(model, real, laplacian(case1_graph()))
        D = modes.D.copy()
        D[-1, 0] = 1.0
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(modes, D=D)

    def test_case1_p2_impulse_energy_oracle(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        cl = assemble_p2(m, real, laplacian(case1_graph()))
        v4 = error_h2(cl)
        assert v4 > 0
        T = 30.0 / abs(spectral_abscissa(cl.A_cl))
        f = lambda t: np.sum((cl.C_cl @ sla.expm(cl.A_cl * t) @ cl.B_cl) ** 2)
        energy, _ = quad(f, 0.0, T, limit=400)
        assert f(T) < 1e-10
        assert v4**2 == pytest.approx(energy, rel=1e-6)

    def test_larger_rho_attenuates(self):
        m = triple_integrator()
        lp = laplacian(case1_graph())
        v4 = error_h2(assemble_p2(m, synthesize_p2(m, 4.0, delta_hint=0.0004), lp))
        v10 = error_h2(assemble_p2(m, synthesize_p2(m, 10.0, delta_hint=0.0004), lp))
        assert v10 < v4


def chain_graph(n_agents):
    """A directed path 0 -> 1 -> ... : its reduced Laplacian is defective."""
    adj = np.zeros((n_agents, n_agents))
    adj[np.arange(1, n_agents), np.arange(n_agents - 1)] = 1.0
    return CommGraph(adj)


def ring_graph(n_agents):
    """A directed ring 0 -> 1 -> ... -> N-1 -> 0: its nonzero Laplacian
    eigenvalues 1 - exp(2 pi i k / N) approach 0 as N grows."""
    adj = np.zeros((n_agents, n_agents))
    adj[np.arange(n_agents), np.arange(n_agents) - 1] = 1.0
    return CommGraph(adj)


def hand_built_modes(rng, lp, b, n, rho=3.0, w=2):
    """A ModeData loop with b random blocks of size n: Hurwitz diagonal
    blocks (so every mode is Hurwitz for any Lbar with a spanning tree),
    random blocks above them and zeros below, and two input channels
    through Pi and Lbar Pi."""
    d = b * n
    D = np.kron(np.triu(np.ones((b, b))), np.ones((n, n))) * rng.standard_normal((d, d))
    for p in range(b):
        blk = slice(p * n, (p + 1) * n)
        X = rng.standard_normal((n, n))
        D[blk, blk] = X - (np.abs(np.linalg.eigvals(X)).max() + 0.5) * np.eye(n)
    return closedloop.ModeData(D=D, n=n, rho=rho, L_reduced=lp.L_reduced,
                               E=rng.standard_normal((2, d, w)))


# (b, n): two, three and four blocks, so the coupled block 1 is last, in
# the middle and with two blocks after it
HAND_BUILT = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2)]


class TestModalKernel:
    """The sub-block kernel against the dense Lyapunov solve on loops the
    assemblers never build."""

    @pytest.mark.parametrize("graph", ["chain5", "random4", "random7"])
    @pytest.mark.parametrize("b, n", HAND_BUILT)
    def test_hand_built_matches_dense(self, graph, b, n):
        g = chain_graph(5) if graph == "chain5" else oracle_graph(graph)
        lp = laplacian(g)
        rng = np.random.default_rng([b, n, int(graph[-1])])
        md = hand_built_modes(rng, lp, b, n)
        A, B, C = md.dense()
        h2, spectrum = modal.modal_h2(md)
        assert h2 == pytest.approx(h2_norm(A, B, C), rel=1e-8)
        assert spectrum.real.max() == pytest.approx(spectral_abscissa(A), rel=1e-3)
        assert error_h2(md) == h2

    def test_chain_is_defective(self):
        # Lbar - I is nilpotent of index N - 1: one Jordan block, so Lbar
        # has no eigendecomposition to solve by
        N = laplacian(chain_graph(5)).L_reduced - np.eye(4)
        assert np.linalg.matrix_power(N, 3).any() and not np.linalg.matrix_power(N, 4).any()

    @staticmethod
    def lapack_solves(designs, monkeypatch):
        """{N: [LAPACK solves of one error_h2 call for p1, for p2]} on
        random digraphs with N = 10 and 40."""
        calls = []

        def counting(solver):
            def solve(*args, **kw):
                calls.append(solver)
                return solver(*args, **kw)
            return solve

        monkeypatch.setattr(modal, "_trtrs", counting(modal._trtrs))
        monkeypatch.setattr(modal, "_trsyl", counting(modal._trsyl))
        counts = {}
        for n_agents in (10, 40):
            rng = np.random.default_rng([5, n_agents])
            lp = laplacian(random_spanning_tree_graph(rng, n_agents)[0])
            counts[n_agents] = []
            for model, real, assemble in designs:
                calls.clear()
                error_h2(assemble(model, real, lp))
                counts[n_agents].append(len(calls))
        return counts

    def test_lapack_solves_grow_linearly_in_n(self, designs, monkeypatch):
        # one solve per tile entry of each coupled pair, whatever the
        # number of modes; a sweep over mode pairs would make m (m + 1) / 2
        # Sylvester solves, 45 and 780 here
        counts = self.lapack_solves(designs, monkeypatch)
        for small, large in zip(counts[10], counts[40]):
            assert 0 < large <= 4 * small

    def test_lapack_solves_do_not_grow_with_n(self, designs, monkeypatch):
        # each pair solves its n x n tile entries, each for all modes at once
        counts = self.lapack_solves(designs, monkeypatch)
        assert counts[10] == counts[40]


class TestScalingProbe:
    def test_case1_p1_bounded_product(self):
        m = triple_integrator_full_state()
        rows = rho_scaling_probe(m, case1_graph(), "p1", [1, 2, 4, 8, 16])
        rho_h2 = {r: rh2 for r, _, rh2, _ in rows}
        assert all(v <= 1.05 * rho_h2[1] for v in rho_h2.values())
        h2s = [h2 for _, h2, _, _ in rows]
        assert all(a > b for a, b in zip(h2s, h2s[1:]))
        assert all(absc < 0 for *_, absc in rows)

    @pytest.mark.parametrize("graph", [case1_graph, case2_graph])
    def test_p2_h2_decreases_up_to_rho_128(self, graph):
        rows = rho_scaling_probe(triple_integrator(), graph(), "p2",
                                 [2.0**k for k in range(8)])
        h2s = [h2 for _, h2, _, _ in rows]
        assert all(a > b for a, b in zip(h2s, h2s[1:]))

    @pytest.mark.parametrize("kind,model,letter", [
        ("p1", triple_integrator_full_state, "(c)"),
        ("p2", triple_integrator, "(d)"),
    ])
    def test_no_spanning_tree_refused(self, kind, model, letter):
        disconnected = CommGraph(np.array([[0, 0, 0, 0], [1.0, 0, 0, 0],
                                           [0, 0, 0, 0], [0, 0, 1.0, 0]]))
        with pytest.raises(PreconditionFailed) as exc:
            rho_scaling_probe(model(), disconnected, kind, [4.0])
        assert exc.value.condition == letter

    @pytest.mark.parametrize("graph", ORACLE_GRAPHS)
    def test_abscissa_matches_dense_spectrum(self, graph):
        # the abscissa comes from the mode spectra, not an eigensolve of
        # A_cl.  The triple integrator's eigenvalue of multiplicity 3 is
        # accurate to only about eps^(1/3) in either, hence 1e-3 and not
        # 1e-8 (worst seen 9.0e-5)
        g = oracle_graph(graph)
        lp = laplacian(g)
        for kind, model, assemble in (("p1", triple_integrator_full_state(), assemble_p1),
                                      ("p2", triple_integrator(), assemble_p2)):
            des = design(model, kind, g)
            for rho, _, _, absc in rho_scaling_probe(model, g, kind, [1.0, 4.0, 10.0]):
                dense = spectral_abscissa(assemble(model, des.realize(rho), lp).A_cl)
                assert absc == pytest.approx(dense, rel=1e-3)

    def test_two_agent_scalar_closed_form(self):
        # hand Lyapunov solve gives H2 = sqrt(5 / (2 rho))
        rows = rho_scaling_probe(
            scalar_model_full(), two_agent_chain(), "p1", [1.0, 4.0, 9.0]
        )
        for rho, h2, _, _ in rows:
            assert h2 == pytest.approx(np.sqrt(5.0 / (2.0 * rho)), rel=1e-9)

    def test_zero_disturbance_all_zero(self):
        m = AgentModel.full_state(
            triple_integrator().A, triple_integrator().B, np.zeros((3, 1))
        )
        rows = rho_scaling_probe(m, case1_graph(), "p1", [1, 2, 4])
        assert all(h2 == 0.0 for _, h2, _, _ in rows)

    def test_csv_format(self):
        rows = rho_scaling_probe(
            scalar_model_full(), two_agent_chain(), "p1", [1.0, 2.0]
        )
        csv = probe_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "rho,h2,rho_times_h2,spectral_abscissa"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == pytest.approx(float(first[0]) * float(first[1]))


class TestHinfSideBounds:
    def test_rho_scaled_resolvent_bounded(self):
        # subsystem de = (I (x) A - rho Lbar (x) I) e with B = C = I
        m = triple_integrator()
        lp = laplacian(case1_graph())
        products = []
        for rho in (1.0, 4.0, 16.0):
            Ae = np.kron(np.eye(2), m.A) - rho * np.kron(lp.L_reduced, np.eye(3))
            products.append(rho * hinf_norm(Ae, np.eye(6), np.eye(6)))
        assert max(products) <= 1.05 * products[0]

    def test_observer_error_hinf_bound(self):
        # ||T_{w -> ebar}||_inf <= ||Lbar|| ||Pi|| / rho
        m = triple_integrator()
        lp = laplacian(case1_graph())
        bound_const = np.linalg.norm(lp.L_reduced, 2) * np.linalg.norm(lp.Pi, 2)
        for rho in (4.0, 10.0):
            real = synthesize_p2(m, rho, delta_hint=0.0004)
            filt = m.A - (real.Q_rho @ m.C.T @ m.C) / real.delta**2
            Ae = np.kron(np.eye(2), filt)
            Be = np.kron(lp.L_reduced @ lp.Pi, m.E)
            val = hinf_norm(Ae, Be, np.eye(6))
            assert val <= bound_const / rho + 1e-6
