import numpy as np
import pytest

from h2sync.cases import case1_graph, case2_graph, triple_integrator, triple_integrator_full_state
from h2sync.conditions import AgentModel
from h2sync.errors import (
    DeltaSearchExhausted,
    DimensionMismatch,
    ParseError,
    PreconditionFailed,
    RhoOutOfRange,
)
from h2sync.linalg import spectral_abscissa
from h2sync.protocol import (
    ProtocolRealization,
    controller_matrices,
    parse_realization,
    realization_to_text,
    synthesize_p1,
    synthesize_p2,
)


def scalar_model_full():
    return AgentModel.full_state([[0.0]], [[1.0]], [[1.0]])


def clhp_stabilizable_model(rng, n):
    """Controllable companion form with closed-left-half-plane poles."""
    k0 = int(rng.integers(0, n + 1))  # poles at the origin
    roots = [0.0] * k0
    while len(roots) < n:
        if n - len(roots) >= 2 and rng.random() < 0.5:
            re, im = -rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(-rng.uniform(0.1, 2.0))
    coeffs = np.real(np.poly(roots))
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -coeffs[:0:-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    return AgentModel.full_state(A, B, B.copy())


def assert_filter_certificates(m, real):
    """Success of a p2 synthesis is defined by the returned certificates:
    the filter Riccati residual under its cap, Q > 0 and a Hurwitz filter."""
    delta, Q = real.delta, real.Q_rho
    resid = (
        Q @ m.A.T + m.A @ Q + m.E @ m.E.T
        - (Q @ m.C.T @ m.C @ Q) / delta**2 + real.rho**2 * Q @ Q
    )
    assert np.linalg.norm(resid, 2) < 1e-8 * (1 + np.linalg.norm(m.A, 2)) ** 2
    assert np.linalg.eigvalsh(Q).min() > 0
    assert spectral_abscissa(m.A - (Q @ m.C.T @ m.C) / delta**2) < 0


class TestSynthesizeP1:
    def test_scalar(self):
        real = synthesize_p1(scalar_model_full(), 1.0)
        assert real.kind == "p1"
        assert real.P == pytest.approx(np.array([[1.0]]))
        Ac, Bc, Cc, Fc, Hc = controller_matrices(real, scalar_model_full())
        np.testing.assert_allclose(Ac, [[-1.0]])
        np.testing.assert_allclose(Bc, [[1.0]])
        np.testing.assert_allclose(Cc, [[-1.0]])
        np.testing.assert_allclose(Fc, [[-1.0]])
        np.testing.assert_allclose(Hc, [[1.0]])

    def test_reference_model_gain(self):
        m = triple_integrator_full_state()
        real = synthesize_p1(m, 4.0)
        P = real.P
        resid = m.A.T @ P + P @ m.A - P @ m.B @ m.B.T @ P + np.eye(3)
        assert np.linalg.norm(resid, 2) < 1e-10 * (1 + np.linalg.norm(m.A, 2)) ** 2
        _, _, _, Fc, _ = controller_matrices(real, m)
        np.testing.assert_allclose(Fc, -4.0 * m.B.T @ P)
        assert spectral_abscissa(m.A - 4.0 * m.B @ m.B.T @ P) < 0

    def test_rho_out_of_range(self):
        with pytest.raises(RhoOutOfRange):
            synthesize_p1(scalar_model_full(), 0.5)

    def test_requires_full_state(self):
        with pytest.raises(PreconditionFailed):
            synthesize_p1(triple_integrator(), 2.0)

    def test_precondition_b_named(self):
        m = AgentModel.full_state([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(PreconditionFailed) as exc:
            synthesize_p1(m, 2.0)
        assert exc.value.condition == "(b)"

    def test_precondition_d_named(self):
        m = AgentModel.full_state(
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0], [1.0]]),
            np.array([[1.0], [0.0]]),
        )
        with pytest.raises(PreconditionFailed) as exc:
            synthesize_p1(m, 2.0)
        assert exc.value.condition == "(d)"


class TestSynthesizeP2:
    def test_reference_delta(self):
        real = synthesize_p2(triple_integrator(), 4.0, delta_hint=0.0004)
        assert real.kind == "p2" and real.delta == 0.0004
        assert np.linalg.eigvalsh(real.Q_rho).min() > 0

    def test_auto_delta(self):
        m = triple_integrator()
        assert_filter_certificates(m, synthesize_p2(m, 10.0))

    # rho <= 32 pins the searched delta.  At rho = 64 and 128, ||H|| ~
    # delta^-2 is near 1e14, so a Riccati axis pre-check with a band
    # scaled by ||H|| rejects these delta before any certificate
    @pytest.mark.parametrize("rho", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    def test_auto_delta_is_largest_passing_halving(self, rho):
        m = triple_integrator()
        real = synthesize_p2(m, rho)
        k = 3 * int(np.log2(rho)) + 2
        assert real.delta == 2.0**-k  # first passing value halving from 1
        assert_filter_certificates(m, real)
        # the next-larger candidate in the sequence must fail
        with pytest.raises(DeltaSearchExhausted):
            synthesize_p2(m, rho, delta_hint=2.0 ** (1 - k))

    def test_nonminphase_rejected(self):
        A = np.array([[0.0, 1], [0, 0]])
        E = np.array([[0.0], [1]])
        C = np.array([[1.0, -1]])  # zero at +1
        m = AgentModel(A, E.copy(), C, E)
        with pytest.raises(PreconditionFailed) as exc:
            synthesize_p2(m, 4.0)
        assert exc.value.condition == "(c)"

    @pytest.mark.parametrize("full_state", [False, True])
    def test_every_failed_condition_named(self, full_state):
        # unstable A fails (b), E outside im B fails (e); the partial-state
        # letters apply to a model labelled full-state as well
        A, B, E = np.diag([1.0, -1.0]), [[1.0], [0.0]], [[0.0], [1.0]]
        m = AgentModel.full_state(A, B, E) if full_state else AgentModel(A, B, np.eye(2), E)
        with pytest.raises(PreconditionFailed) as exc:
            synthesize_p2(m, 4.0)
        assert exc.value.condition == "(b)"
        assert "(b) clhp_eigs" in str(exc.value)
        assert "(e) disturbance_matched" in str(exc.value)

    def test_delta_hint_failure_diagnostics(self):
        with pytest.raises(DeltaSearchExhausted) as exc:
            synthesize_p2(triple_integrator(), 4.0, delta_hint=0.5)
        assert len(exc.value.diagnostics) == 1
        assert exc.value.diagnostics[0][0] == 0.5

    def test_rho_out_of_range(self):
        with pytest.raises(RhoOutOfRange):
            synthesize_p2(triple_integrator(), 0.99)


class TestControllerMatrices:
    def test_p1_self_consistency(self):
        # the chi dynamics must satisfy Ac = A + B Fc
        m = triple_integrator_full_state()
        real = synthesize_p1(m, 6.0)
        Ac, Bc, Cc, Fc, Hc = controller_matrices(real, m)
        np.testing.assert_allclose(Ac, m.A + m.B @ Fc, atol=1e-12)
        np.testing.assert_allclose(Bc, 6.0 * np.eye(3))
        np.testing.assert_allclose(Cc, -6.0 * np.eye(3))
        np.testing.assert_allclose(Hc, np.eye(3))

    def test_p2_block_structure(self):
        # rebuild the 6x6 controller from the protocol equations and diff
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        Ac, Bc, Cc, Fc, Hc = controller_matrices(real, m)
        assert Ac.shape == (6, 6)
        rho, delta, P, Q = real.rho, real.delta, real.P, real.Q_rho
        n = 3
        filt = m.A - (Q @ m.C.T @ m.C) / delta**2
        Ac_ref = np.zeros((6, 6))
        Ac_ref[:n, :n] = filt
        Ac_ref[n:, :n] = rho * np.eye(n)
        Ac_ref[n:, n:] = m.A - rho * m.B @ m.B.T @ P
        np.testing.assert_allclose(Ac, Ac_ref, atol=1e-12)
        np.testing.assert_allclose(Bc, np.vstack([(Q @ m.C.T) / delta**2, np.zeros((3, 1))]))
        np.testing.assert_allclose(Cc, np.vstack([-rho * m.B @ m.B.T @ P, -rho * np.eye(3)]))
        np.testing.assert_allclose(Fc, np.hstack([np.zeros((1, 3)), -rho * m.B.T @ P]))
        np.testing.assert_allclose(Hc, np.hstack([np.zeros((3, 3)), np.eye(3)]))
        assert real.controller_state_dim == 6


class TestClosedLoopStabilityProperties:
    @pytest.mark.parametrize("rho", [1.0, 2.0, 10.0, 100.0])
    def test_state_feedback_stable_for_all_rho(self, rho):
        rng = np.random.default_rng(61)
        for _ in range(10):
            m = clhp_stabilizable_model(rng, int(rng.integers(1, 6)))
            real = synthesize_p1(m, rho)
            assert spectral_abscissa(m.A - rho * m.B @ m.B.T @ real.P) < 0

    def test_filter_matrix_stable(self):
        m = triple_integrator()
        for rho in (1.0, 4.0, 16.0):
            real = synthesize_p2(m, rho)
            filt = m.A - (real.Q_rho @ m.C.T @ m.C) / real.delta**2
            assert spectral_abscissa(filt) < 0


class TestScaleFree:
    def test_matrices_independent_of_graph(self):
        # synthesizing "for" different graphs must give identical bits;
        # the graph never enters the synthesis
        m = triple_integrator()
        for g in (case1_graph(), case2_graph()):
            _ = g  # a graph is in scope, but synthesis cannot see it
            real = synthesize_p2(m, 6.0, delta_hint=0.0004)
            text = realization_to_text(real)
            if g.n_agents == 3:
                first = text
        assert text == first

    def test_resynthesis_bitwise_stable(self):
        m = triple_integrator_full_state()
        a = realization_to_text(synthesize_p1(m, 4.0))
        b = realization_to_text(synthesize_p1(m, 4.0))
        assert a == b

    def test_resynthesis_with_delta_search_bitwise_stable(self):
        m = triple_integrator()
        a = realization_to_text(synthesize_p2(m, 4.0))
        b = realization_to_text(synthesize_p2(m, 4.0))
        assert a == b


class TestDeltaMonotonicityProbe:
    def test_record_auto_delta_trend(self):
        # observational only: monotonicity of the feasible delta in rho is
        # not a guaranteed property, so record the outcome without asserting
        m = triple_integrator()
        deltas = [synthesize_p2(m, rho).delta for rho in (1.0, 2.0, 4.0, 8.0)]
        observed_nonincreasing = all(d2 <= d1 for d1, d2 in zip(deltas, deltas[1:]))
        assert all(d > 0 for d in deltas)
        print(f"auto-delta by rho: {deltas} nonincreasing={observed_nonincreasing}")


class TestSerialization:
    def test_p1_round_trip_bit_exact(self):
        real = synthesize_p1(triple_integrator_full_state(), 4.0)
        back = parse_realization(realization_to_text(real))
        assert back.kind == "p1" and back.rho == real.rho and back.delta is None
        assert np.array_equal(back.P, real.P)

    def test_p2_round_trip_bit_exact(self):
        real = synthesize_p2(triple_integrator(), 10.0, delta_hint=0.0004)
        back = parse_realization(realization_to_text(real))
        assert back.delta == real.delta and back.rho == real.rho
        assert np.array_equal(back.P, real.P)
        assert np.array_equal(back.Q_rho, real.Q_rho)

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_realization("kind p9\nn 1\nrho 1\nP\n1\n")
        with pytest.raises(ParseError):
            parse_realization("nonsense")

    P1 = "kind p1\nn 2\nrho 2\nP\n2 1\n1 3\n"
    P2 = "kind p2\nn 1\nrho 2\ndelta 0.5\nP\n1\nQ_rho\n2\n"

    @pytest.mark.parametrize("text", [
        P1.replace("rho 2", "rho 0.5"),
        P1.replace("rho 2", "rho inf"),
        P1.replace("rho 2", "rho nan"),
        P2.replace("delta 0.5", "delta -1"),
        P2.replace("delta 0.5", "delta 0"),
        P2.replace("delta 0.5", "delta inf"),
        P2.replace("delta 0.5", "delta nan"),
        P1.replace("1 3", "1.5 3"),  # not symmetric
        P1.replace("2 1\n", "2 1 0\n").replace("1 3", "1 3 0"),  # 2 x 3
        P1.replace("1 3", "1 nan"),
        P2.replace("Q_rho\n2", "Q_rho\n2 1"),
        P1 + "garbage here\n",
        P2 + "P\n1\n",
        "kind p2\nn 1\nrho 0.5\ndelta -1\nP\n1\nQ_rho\n1\ngarbage here\n",
        "kind p1\nn 1\nrho 2\nrho 5\nP\n1\n",  # repeated key
        "kind p1\nn 1\nrho 2\nbogus 1\nP\n1\n",  # unknown key
        P1.replace("rho 2\n", "rho 2\ndelta 0.5\n"),  # delta in a p1 file
        P2.replace("kind p2\n", "kind p2\nkind p2\n"),
    ])
    def test_rejects_data_no_synthesis_returns(self, text):
        with pytest.raises(ParseError):
            parse_realization(text)

    @pytest.mark.parametrize("fields, error", [
        (dict(kind="p3"), DimensionMismatch),
        (dict(rho=0.5), RhoOutOfRange),
        (dict(rho=np.inf), RhoOutOfRange),
        (dict(rho=np.nan), RhoOutOfRange),
        (dict(delta=0.0), DimensionMismatch),
        (dict(delta=np.nan), DimensionMismatch),
        (dict(delta=None), DimensionMismatch),
        (dict(Q_rho=None), DimensionMismatch),
        (dict(P=np.array([[1.0, 2.0], [0.0, 1.0]])), DimensionMismatch),
        (dict(P=np.array([[1.0, np.inf], [np.inf, 1.0]])), DimensionMismatch),
        (dict(Q_rho=np.eye(3)), DimensionMismatch),
        (dict(kind="p1"), DimensionMismatch),  # a p1 realization with delta and Q_rho
    ])
    def test_realization_built_in_code_is_checked(self, fields, error):
        good = dict(kind="p2", rho=2.0, P=np.eye(2), delta=0.5, Q_rho=np.eye(2))
        ProtocolRealization(**good)
        with pytest.raises(error):
            ProtocolRealization(**{**good, **fields})

    @pytest.mark.parametrize("text, n", [(P1, 2), (P2, 1)])
    def test_valid_samples_parse(self, text, n):
        assert parse_realization(text).n == n
