import numpy as np
import pytest

from h2sync.cases import case1_graph, triple_integrator
from h2sync.conditions import (
    AgentModel,
    check_clhp,
    check_detectable,
    check_disturbance_match,
    check_minphase_leftinv,
    check_stabilizable,
    full_report,
    invariant_zeros,
    model_to_text,
    parse_model,
)
from h2sync.errors import (
    DimensionMismatch,
    ParseError,
    PreconditionFailed,
    RankDeficientEverywhere,
)
from h2sync.graph import CommGraph
from h2sync.linalg import solve_care_standard


def ctrb_rank(A, B):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks))


class TestAgentModel:
    def test_full_state_requires_identity_c(self):
        m = AgentModel(np.zeros((2, 2)), np.eye(2), np.array([[1.0, 0]]), np.eye(2))
        with pytest.raises(DimensionMismatch):
            full_report(m, kind="p1")

    def test_dims(self):
        m = triple_integrator()
        assert (m.n, m.m, m.p, m.w) == (3, 1, 1, 1)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AgentModel(np.zeros((2, 2)), np.zeros((3, 1)), np.eye(2), np.zeros((2, 1)))


class TestStabilizable:
    def test_trivial(self):
        assert check_stabilizable([[1.0]], [[1.0]])
        assert not check_stabilizable([[1.0]], [[0.0]])

    def test_reference_model(self):
        m = triple_integrator()
        assert ctrb_rank(m.A, m.B) == 3  # controllability-matrix oracle
        assert check_stabilizable(m.A, m.B)

    def test_stable_uncontrollable_is_stabilizable(self):
        # uncontrollable mode at -2 is already stable
        A = np.diag([-2.0, 1.0])
        B = np.array([[0.0], [1.0]])
        assert check_stabilizable(A, B)


class TestDetectable:
    def test_trivial(self):
        assert check_detectable([[1.0]], [[1.0]])
        assert not check_detectable([[1.0]], [[0.0]])

    def test_reference_model(self):
        m = triple_integrator()
        assert ctrb_rank(m.A.T, m.C.T) == 3  # observability oracle (dual)
        assert check_detectable(m.A, m.C)


class TestClhp:
    def test_cases(self):
        assert check_clhp(np.zeros((3, 3)))
        assert not check_clhp([[1.0]])
        assert check_clhp(triple_integrator().A)  # nilpotent, eigs {0,0,0}


class TestDisturbanceMatch:
    def test_e_equals_b(self):
        ok, X = check_disturbance_match([[0.0], [1.0]], [[0.0], [1.0]])
        assert ok
        np.testing.assert_allclose(X, [[1.0]], atol=1e-12)

    def test_orthogonal_columns(self):
        ok, _ = check_disturbance_match(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert not ok

    def test_constructive_membership(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n, m, w = rng.integers(2, 6), rng.integers(1, 4), rng.integers(1, 4)
            B = rng.standard_normal((n, m))
            R = rng.standard_normal((m, w))
            ok, X = check_disturbance_match(B, B @ R)
            assert ok
            assert np.linalg.norm(B @ X - B @ R) < 1e-9


class TestMinphaseLeftinv:
    def test_reference_model_no_zeros(self):
        # transfer 1/s^3: zero polynomial is 1, so no finite zeros
        m = triple_integrator()
        ok, zeros = check_minphase_leftinv(m.A, m.E, m.C)
        assert ok and zeros == []

    def test_right_half_plane_zero(self):
        # C (sI - A)^-1 E = (1 - s)/s^2: invariant zero at +1
        A = np.array([[0.0, 1], [0, 0]])
        E = np.array([[0.0], [1]])
        C = np.array([[1.0, -1]])
        zeros = invariant_zeros(A, E, C)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(1.0, abs=1e-9)
        ok, _ = check_minphase_leftinv(A, E, C)
        assert not ok

    def test_left_half_plane_zero_is_minphase(self):
        # C (sI - A)^-1 E = (1 + s)/s^2: zero at -1
        A = np.array([[0.0, 1], [0, 0]])
        E = np.array([[0.0], [1]])
        C = np.array([[1.0, 1]])
        ok, zeros = check_minphase_leftinv(A, E, C)
        assert ok
        assert zeros[0] == pytest.approx(-1.0, abs=1e-9)

    def test_zero_disturbance_map(self):
        m = triple_integrator()
        with pytest.raises(RankDeficientEverywhere):
            invariant_zeros(m.A, np.zeros((3, 1)), m.C)
        ok, zeros = check_minphase_leftinv(m.A, np.zeros((3, 1)), m.C)
        assert not ok and zeros is None

    def test_tall_channel(self):
        # two outputs, one disturbance; generically no finite zeros
        rng = np.random.default_rng(47)
        A = rng.standard_normal((3, 3))
        E = rng.standard_normal((3, 1))
        C = rng.standard_normal((2, 3))
        ok, zeros = check_minphase_leftinv(A, E, C)
        assert ok and zeros == []


class TestFullReport:
    def test_reference_case(self):
        rep = full_report(triple_integrator(), case1_graph())
        assert rep.overall
        assert rep.failed_conditions() == []

    def test_disconnected_graph(self):
        adj = np.zeros((4, 4))
        adj[1, 0] = adj[3, 2] = 1.0
        rep = full_report(triple_integrator(), CommGraph(adj))
        assert not rep.overall
        assert [letter for letter, _ in rep.failed_conditions()] == ["(d)"]

    def test_unstable_agent(self):
        m = AgentModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        rep = full_report(m, CommGraph(np.array([[0.0, 0], [1, 0]])))
        assert not rep.overall
        assert ("(b)", "clhp_eigs") in rep.failed_conditions()

    def test_full_state_condition_letters(self):
        m = triple_integrator()
        mf = AgentModel.full_state(m.A, m.B, m.E)
        rep = full_report(mf, case1_graph())
        assert rep.coupling_kind == "full-state"
        assert rep.overall
        letters = [letter for letter, _, _ in rep.condition_values()]
        assert letters == ["(a)", "(b)", "(c)", "(d)"]

    def test_partial_state_condition_letters(self):
        rep = full_report(triple_integrator(), case1_graph())
        letters = [letter for letter, _, _ in rep.condition_values()]
        assert letters == ["(a)", "(b)", "(c)", "(d)", "(e)"]

    def test_to_text_keys(self):
        text = full_report(triple_integrator(), case1_graph()).to_text()
        for key in (
            "coupling_kind=", "stabilizable=", "detectable=", "clhp_eigs=",
            "spanning_tree=", "disturbance_matched=", "minphase_leftinv=",
            "overall=true",
        ):
            assert key in text

    @pytest.mark.parametrize("full_state", [False, True])
    def test_without_graph_leaves_out_spanning_tree(self, full_state):
        m = triple_integrator()
        if full_state:
            m = AgentModel.full_state(m.A, m.B, m.E)
        rep = full_report(m)
        assert rep.spanning_tree is None
        assert all(name != "spanning_tree" for _, name, _ in rep.condition_values())
        assert rep.overall
        rep.require()

    def test_require_names_every_failed_condition(self):
        m = AgentModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        rep = full_report(m, CommGraph(np.zeros((3, 3))), kind="p2")
        with pytest.raises(PreconditionFailed) as exc:
            rep.require()
        assert exc.value.condition == "(b)"
        assert "(b) clhp_eigs" in str(exc.value)
        assert "(d) spanning_tree" in str(exc.value)


class TestRobustness:
    def test_rank_thresholds_stable_under_tiny_perturbations(self):
        # rank-based decisions must not flip at the 1e-12 level; the
        # clhp check is excluded on purpose (a defective eigenvalue
        # moves by O(eps^(1/3)) under an eps-perturbation)
        rng = np.random.default_rng(53)
        m = triple_integrator()
        base = (
            check_stabilizable(m.A, m.B),
            check_detectable(m.A, m.C),
            check_disturbance_match(m.B, m.E)[0],
            check_minphase_leftinv(m.A, m.E, m.C)[0],
        )
        for _ in range(10):
            dA = 1e-12 * rng.standard_normal(m.A.shape)
            dB = 1e-12 * rng.standard_normal(m.B.shape)
            dC = 1e-12 * rng.standard_normal(m.C.shape)
            dE = 1e-12 * rng.standard_normal(m.E.shape)
            perturbed = (
                check_stabilizable(m.A + dA, m.B + dB),
                check_detectable(m.A + dA, m.C + dC),
                check_disturbance_match(m.B + dB, m.E + dE)[0],
                check_minphase_leftinv(m.A + dA, m.E + dE, m.C + dC)[0],
            )
            assert perturbed == base

    def test_stabilizable_models_admit_care_solution(self):
        rng = np.random.default_rng(59)
        solved = 0
        while solved < 50:
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, int(rng.integers(1, 3))))
            if not check_stabilizable(A, B):
                continue
            res = solve_care_standard(A, B)
            assert np.linalg.eigvalsh(res.solution).min() > 0
            solved += 1


class TestModelFormat:
    def test_round_trip(self):
        m = triple_integrator()
        m2 = parse_model(model_to_text(m))
        np.testing.assert_array_equal(m.A, m2.A)
        np.testing.assert_array_equal(m.B, m2.B)
        np.testing.assert_array_equal(m.C, m2.C)
        np.testing.assert_array_equal(m.E, m2.E)
        assert full_report(m2).coupling_kind == "partial-state"

    def test_full_state_inferred(self):
        m = AgentModel.full_state(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert full_report(parse_model(model_to_text(m))).coupling_kind == "full-state"

    def test_report_survives_round_trip(self):
        # a C = I model built by the constructor gets the same conditions
        # as its text round trip
        m = AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), [[0.0], [1.0]])
        text = full_report(m, case1_graph()).to_text()
        assert full_report(parse_model(model_to_text(m)), case1_graph()).to_text() == text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3 1 1\n",
            "2 1 1 1\n0 1\n0 0\n1\n",  # wrong entry count
            "2 1 1 1\n" + "x " * 9,
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_model(text)
