import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from conftest import defect_a_model, random_spanning_tree_graph

import h2sync.linalg as linalg
from h2sync import tolerances
from h2sync.cases import (
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from h2sync.closedloop import assemble_p1, assemble_p2
from h2sync.errors import (
    DimensionMismatch,
    H2SyncError,
    NoStabilizingSolution,
    NotHurwitz,
    NotPositiveDefinite,
    RhoOutOfRange,
)
from h2sync.linalg import (
    h2_norm,
    hinf_norm,
    is_hurwitz,
    solve_care_standard,
    solve_filter_riccati,
    solve_lyapunov,
    spectral_abscissa,
)
from h2sync.graph import laplacian
from h2sync.protocol import synthesize_p1, synthesize_p2

TRIPLE_A = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
TRIPLE_B = np.array([[0.0], [0], [1]])
TRIPLE_C = np.array([[1.0, 0, 0]])


def lyapunov_kron(A, W):
    """Direct Kronecker-product solve of A X + X A^T + W = 0, the
    independent reference for solve_lyapunov; O(n^6), small n only."""
    n = A.shape[0]
    K = np.kron(np.eye(n), A) + np.kron(A, np.eye(n))
    x = np.linalg.solve(K, -W.reshape(-1, order="F"))
    X = x.reshape((n, n), order="F")
    return 0.5 * (X + X.T)


def hinf_bisection(A, B, C, tol=1e-6, imag_axis=1e-9):
    """Bisection on gamma, the independent reference for hinf_norm:
    gamma exceeds the norm iff [[A, B B^T / gamma^2], [-C^T C, -A^T]]
    has no eigenvalue within imag_axis (1 + ||H||_2) of the imaginary
    axis.  The bracket is seeded from a 120-point log sweep plus DC and
    the pole frequencies and doubled until it holds the norm; returns
    its midpoint, within tol / 2 relative.  About 22 Hamiltonian
    eigensolves and 120 + n frequency responses per call."""
    n = A.shape[0]

    def gain(omega):
        G = C @ np.linalg.solve(1j * omega * np.eye(n) - A, B)
        return np.linalg.svd(G, compute_uv=False)[0]

    omegas = np.concatenate(
        [[0.0], np.logspace(-4, 4, 120), np.abs(np.linalg.eigvals(A).imag)]
    )
    lo = max(gain(w) for w in omegas)
    assert lo > 0.0

    def no_axis_crossing(gamma):
        H = np.block([[A, B @ B.T / gamma**2], [-C.T @ C, -A.T]])
        band = imag_axis * (1.0 + np.linalg.norm(H, 2))
        return not np.any(np.abs(np.linalg.eigvals(H).real) < band)

    hi = 2.0 * lo
    while not no_axis_crossing(hi):
        hi *= 2.0
        assert hi < 1e15 * lo
    while (hi - lo) > tol * lo:
        mid = 0.5 * (lo + hi)
        if no_axis_crossing(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def random_stable(rng, n, margin=0.5):
    A = rng.standard_normal((n, n))
    return A - (np.linalg.eigvals(A).real.max() + margin) * np.eye(n)


def care_eigenvector_oracle(A, B):
    """Independent Hamiltonian solve via eigenvectors (not Schur)."""
    n = A.shape[0]
    H = np.block([[A, -B @ B.T], [-np.eye(n), -A.T]])
    w, V = np.linalg.eig(H)
    stable = V[:, w.real < 0]
    assert stable.shape[1] == n
    P = np.real(stable[n:] @ np.linalg.inv(stable[:n]))
    return 0.5 * (P + P.T)


class TestCareStandard:
    def test_scalar(self):
        res = solve_care_standard([[0.0]], [[1.0]])
        assert res.solution == pytest.approx(np.array([[1.0]]))
        assert res.closed_loop_spectrum.real.max() < 0

    def test_double_integrator_closed_form(self):
        # hand-solved: p12 = 1, p22 = sqrt(3), p11 = p12 * p22
        A = np.array([[0.0, 1], [0, 0]])
        B = np.array([[0.0], [1]])
        res = solve_care_standard(A, B)
        s3 = np.sqrt(3.0)
        np.testing.assert_allclose(res.solution, [[s3, 1.0], [1.0, s3]], atol=1e-12)
        assert res.residual_norm < 1e-12

    def test_triple_integrator(self):
        res = solve_care_standard(TRIPLE_A, TRIPLE_B)
        P = res.solution
        cap = 1e-10 * (1 + np.linalg.norm(TRIPLE_A, 2)) ** 2
        resid = TRIPLE_A.T @ P + P @ TRIPLE_A - P @ TRIPLE_B @ TRIPLE_B.T @ P + np.eye(3)
        assert np.linalg.norm(resid, 2) < cap
        assert np.linalg.eigvalsh(P).min() > 0
        assert spectral_abscissa(TRIPLE_A - TRIPLE_B @ TRIPLE_B.T @ P) < 0
        P_oracle = care_eigenvector_oracle(TRIPLE_A, TRIPLE_B)
        np.testing.assert_allclose(P, P_oracle, rtol=1e-10)

    def test_not_stabilizable(self):
        with pytest.raises(NoStabilizingSolution):
            solve_care_standard([[1.0]], [[0.0]])

    def test_solution_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(2, 7)
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, max(1, n // 2)))
            res = solve_care_standard(A, B)
            P = res.solution
            sym_err = np.linalg.norm(P - P.T, 2) / max(1.0, np.linalg.norm(P, 2))
            assert sym_err <= 1e-12
            assert np.linalg.eigvalsh(P).min() > 0
            assert res.residual_norm <= 1e-10 * (1 + np.linalg.norm(A, 2)) ** 2
            assert spectral_abscissa(A - B @ B.T @ P) < 0


class TestFilterRiccati:
    def test_scalar_zero_disturbance_not_pd(self):
        # E = 0 forces the stabilizing solution Q = 0 for any delta
        for delta in (0.5, 1.0, 2.0):
            with pytest.raises(NotPositiveDefinite):
                solve_filter_riccati([[-1.0]], [[0.0]], [[1.0]], 1.0, delta)

    def test_scalar_feasibility_boundary(self):
        # rho = 1, delta = 1: 1 - Q^2 + Q^2 = 1 = 0 has no solution
        with pytest.raises(NoStabilizingSolution):
            solve_filter_riccati([[0.0]], [[1.0]], [[1.0]], 1.0, 1.0)

    def test_axis_message_counts_and_payload_keeps_eigenvalues(self):
        # the message is built on every refused delta of a search, so it
        # names a count; the eigenvalues ride on the exception
        with pytest.raises(NoStabilizingSolution,
                           match=r"Hamiltonian has 2 eigenvalues on the imaginary axis$") as exc:
            solve_filter_riccati([[0.0]], [[1.0]], [[1.0]], 1.0, 1.0)
        np.testing.assert_allclose(exc.value.offending_eigenvalues, [0.0, 0.0], atol=1e-12)

    def test_failed_ordered_schur_is_typed(self):
        # four rounded-zero Hamiltonian eigenvalues pass the relative axis
        # test, so the sort miscounts; the failure carries every eigenvalue
        m = defect_a_model()
        with pytest.raises(NoStabilizingSolution, match="ordered Schur form") as exc:
            solve_filter_riccati(m.A, m.E, m.C, 1.0, 1.0)
        assert exc.value.offending_eigenvalues.shape == (6,)

    def test_refusal_is_the_kernels_own_exception(self, monkeypatch):
        # the caller passed delta and rho, so the refusal reaches it unwrapped
        prepared = NoStabilizingSolution("prepared")

        def refuse(*args):
            raise prepared

        monkeypatch.setattr(linalg, "_solve_care", refuse)
        m = triple_integrator()
        with pytest.raises(NoStabilizingSolution) as exc:
            solve_filter_riccati(m.A, m.E, m.C, 4.0, 1.0)
        assert exc.value is prepared

    def test_refusal_names_neither_delta_nor_rho(self):
        m = triple_integrator()
        with pytest.raises(NoStabilizingSolution) as exc:
            solve_filter_riccati(m.A, m.E, m.C, 4.0, 1.0)
        assert str(exc.value) == "Hamiltonian has 2 eigenvalues on the imaginary axis"

    @pytest.mark.parametrize("call", [
        lambda: solve_care_standard(TRIPLE_A, 1e200 * TRIPLE_B),  # B B^T overflows
        lambda: solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, 1e300, 1.0),  # rho**2
        lambda: solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, 10 ** 400, 1.0),
        lambda: solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, 4.0, 1e300),  # delta**2
        lambda: solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, 4.0, 1e-300),  # delta**2 = 0
        lambda: solve_filter_riccati(TRIPLE_A, 1e200 * TRIPLE_B, TRIPLE_C, 4.0, 1.0),  # E E^T
    ], ids=["care-B", "filter-rho", "filter-rho-int", "filter-delta-large",
            "filter-delta-small", "filter-E"])
    def test_overflow_refused(self, call):
        # refused before the eigensolve, with no numpy warning (the
        # suite turns warnings into errors) and naming neither delta nor rho
        with pytest.raises(NoStabilizingSolution, match="^Hamiltonian has a non-finite entry$"):
            call()

    def test_scalar_closed_form(self):
        # A=0, E=C=1: Q^2 (delta^-2 - rho^2) = 1
        rho, delta = 1.0, 0.5
        res = solve_filter_riccati([[0.0]], [[1.0]], [[1.0]], rho, delta)
        expect = 1.0 / np.sqrt(delta**-2 - rho**2)
        assert res.solution[0, 0] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("rho", [4.0, 6.0, 10.0])
    def test_reference_model(self, rho):
        delta = 0.0004
        res = solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, rho, delta)
        Q = res.solution
        assert np.linalg.eigvalsh(Q).min() > 0
        cap = 1e-8 * (1 + np.linalg.norm(TRIPLE_A, 2)) ** 2
        resid = (
            Q @ TRIPLE_A.T + TRIPLE_A @ Q + TRIPLE_B @ TRIPLE_B.T
            - (Q @ TRIPLE_C.T @ TRIPLE_C @ Q) / delta**2 + rho**2 * Q @ Q
        )
        assert np.linalg.norm(resid, 2) < cap
        filt = TRIPLE_A - (Q @ TRIPLE_C.T @ TRIPLE_C) / delta**2
        assert spectral_abscissa(filt) < 0

    def test_rho_below_one_rejected(self):
        with pytest.raises(RhoOutOfRange):
            solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, 0.5, 0.01)

    @pytest.mark.parametrize("rho", [np.nan, np.inf])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(RhoOutOfRange):
            solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, rho, 0.01)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -1.0])
    def test_delta_outside_open_half_line_rejected(self, delta):
        with pytest.raises(DimensionMismatch, match="delta"):
            solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, 4.0, delta)

    def test_scipy_pencil_cross_check(self):
        # independent route: scipy solves the transposed standard form
        # with b = I, r = Rt^-1 via a different (QZ pencil) algorithm
        rho, delta = 6.0, 0.0004
        res = solve_filter_riccati(TRIPLE_A, TRIPLE_B, TRIPLE_C, rho, delta)
        Rt = TRIPLE_C.T @ TRIPLE_C / delta**2 - rho**2 * np.eye(3)
        Q_ref = sla.solve_continuous_are(
            TRIPLE_A.T, np.eye(3), TRIPLE_B @ TRIPLE_B.T, np.linalg.inv(Rt)
        )
        np.testing.assert_allclose(res.solution, Q_ref, rtol=1e-7, atol=1e-12)


class TestLyapunov:
    def test_scalar(self):
        X = solve_lyapunov([[-1.0]], [[2.0]])
        assert X == pytest.approx(np.array([[1.0]]))

    def test_diagonal(self):
        X = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(X, np.diag([0.5, 0.25]), atol=1e-14)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov([[0.0]], [[1.0]])

    def test_perturbed_equation_refused(self):
        # Hurwitz with margin, but the eigenvalue pair -1e-11 + -1e-11 is
        # below what the Schur solver can resolve next to -1e6: scipy
        # perturbs the equation (X_22 = -4.5e9, true 5e10) and only warns
        with pytest.raises(NotHurwitz, match="too close to the imaginary axis"):
            solve_lyapunov(np.diag([-1e6, -1e-11]), np.eye(2))

    def test_quadrature_oracle_random(self):
        # X = integral of e^{At} W e^{A^T t}; adaptive quadrature per entry
        rng = np.random.default_rng(11)
        A = random_stable(rng, 5)
        W0 = rng.standard_normal((5, 5))
        W = W0 @ W0.T
        X = solve_lyapunov(A, W)
        T = 80.0 / abs(spectral_abscissa(A))
        oracle = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                f = lambda t: (sla.expm(A * t) @ W @ sla.expm(A.T * t))[i, j]
                val, _ = quad(f, 0.0, T, limit=200)
                oracle[i, j] = val
        tail = np.linalg.norm(sla.expm(A * T) @ W @ sla.expm(A.T * T), 2)
        assert tail < 1e-12
        np.testing.assert_allclose(X, oracle, rtol=1e-8, atol=1e-8)

    def test_kronecker_cross_check(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = rng.integers(2, 8)
            A = random_stable(rng, n)
            W0 = rng.standard_normal((n, n))
            W = W0 + W0.T
            np.testing.assert_allclose(
                solve_lyapunov(A, W), lyapunov_kron(A, W), rtol=1e-10, atol=1e-12
            )

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = rng.integers(2, 7)
            A = random_stable(rng, n)
            W1 = rng.standard_normal((n, n))
            W1 = W1 + W1.T
            W2 = rng.standard_normal((n, n))
            W2 = W2 + W2.T
            lhs = solve_lyapunov(A, W1 + W2)
            rhs = solve_lyapunov(A, W1) + solve_lyapunov(A, W2)
            scale = max(1.0, np.linalg.norm(lhs, 2))
            assert np.linalg.norm(lhs - rhs, 2) / scale < 1e-10

    def test_residual_contract(self):
        rng = np.random.default_rng(9)
        A = random_stable(rng, 6)
        W0 = rng.standard_normal((6, 6))
        W = W0 @ W0.T
        X = solve_lyapunov(A, W)
        res = np.linalg.norm(A @ X + X @ A.T + W, 2)
        assert res <= 1e-10 * (1 + np.linalg.norm(A, 2)) * (1 + np.linalg.norm(X, 2))


class TestH2Norm:
    def test_scalar(self):
        assert h2_norm([[-1.0]], [[1.0]], [[1.0]]) == pytest.approx(1 / np.sqrt(2))

    def test_scaling(self):
        assert h2_norm([[-1.0]], [[np.sqrt(2.0)]], [[1.0]]) == pytest.approx(1.0)

    def test_not_hurwitz_propagates(self):
        with pytest.raises(NotHurwitz):
            h2_norm([[0.0]], [[1.0]], [[1.0]])

    @pytest.mark.parametrize("B, C", [
        ([[1.0], [0.0]], [[1.0, 0.0, 0.0]]),  # C has a column too many
        ([[1.0]], [[1.0, 0.0]]),  # B has a row too few
    ])
    def test_shape_mismatch(self, B, C):
        with pytest.raises(DimensionMismatch):
            h2_norm(-np.eye(2), B, C)

    def test_impulse_energy_oracle(self):
        # ||G||_H2^2 = integral of ||C e^{At} B||_F^2
        rng = np.random.default_rng(13)
        for _ in range(6):
            n = rng.integers(2, 9)
            A = random_stable(rng, n)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((2, n))
            val = h2_norm(A, B, C)
            T = 60.0 / abs(spectral_abscissa(A))
            f = lambda t: np.sum((C @ sla.expm(A * t) @ B) ** 2)
            energy, _ = quad(f, 0.0, T, limit=300)
            assert f(T) < 1e-10
            assert val**2 == pytest.approx(energy, rel=1e-6)


def use_hinf_rel(monkeypatch, value):
    """Run the rest of the test with tolerances.DEFAULT.hinf_rel = value."""
    monkeypatch.setattr(tolerances, "DEFAULT",
                        dataclasses.replace(tolerances.DEFAULT, hinf_rel=value))


class TestHinfNorm:
    def test_scalar_dc_peak(self, monkeypatch):
        use_hinf_rel(monkeypatch, 1e-9)
        val = hinf_norm([[-1.0]], [[1.0]], [[1.0]])
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_gain_scaling(self, monkeypatch):
        use_hinf_rel(monkeypatch, 1e-9)
        val = hinf_norm([[-1.0]], [[2.0]], [[3.0]])
        assert val == pytest.approx(6.0, rel=1e-8)

    def test_resonant_system_vs_dense_sweep(self, monkeypatch):
        # G(s) = 1 / (s^2 + 0.1 s + 1): |G(jw)|^2 = 1/((1-w^2)^2 + 0.01 w^2)
        A = np.array([[0.0, 1], [-1, -0.1]])
        B = np.array([[0.0], [1]])
        C = np.array([[1.0, 0]])
        tol = 1e-6
        use_hinf_rel(monkeypatch, tol)
        val = hinf_norm(A, B, C)
        w = np.logspace(-3, 3, 1_000_000)
        sweep = 1.0 / np.sqrt((1 - w**2) ** 2 + 0.01 * w**2)
        assert val == pytest.approx(sweep.max(), rel=10 * tol)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            hinf_norm([[1.0]], [[1.0]], [[1.0]])

    @pytest.mark.parametrize("big", ["B", "C"])
    @pytest.mark.parametrize("A", [TRIPLE_A - np.eye(3), -np.eye(3)],
                             ids=["triple-shifted", "minus-identity"])
    def test_overflow_refused(self, A, big):
        # B B^T or C^T C beyond the float range is refused before any
        # eigensolve, with no numpy warning (the suite turns warnings
        # into errors) and with H2SyncError itself, not a subclass
        B, C = (1e200 * TRIPLE_B, TRIPLE_C) if big == "B" else (TRIPLE_B, 1e200 * TRIPLE_C)
        with pytest.raises(H2SyncError, match="non-finite") as exc:
            hinf_norm(A, B, C)
        assert type(exc.value) is H2SyncError

    def test_hurwitz_margin(self):
        # stable, but inside the margin every Lyapunov solve also refuses
        with pytest.raises(NotHurwitz, match="spectral abscissa"):
            hinf_norm([[-1e-13]], [[1.0]], [[1.0]])

    def test_sup_property(self, monkeypatch):
        use_hinf_rel(monkeypatch, 1e-8)
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = rng.integers(2, 6)
            A = random_stable(rng, n)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((1, n))
            val = hinf_norm(A, B, C)
            for omega in rng.uniform(0, 50, size=12):
                G = C @ np.linalg.solve(1j * omega * np.eye(n) - A, B)
                assert val >= np.linalg.svd(G, compute_uv=False)[0] - 1e-9

    def test_submultiplicative(self, monkeypatch):
        use_hinf_rel(monkeypatch, 1e-8)
        rng = np.random.default_rng(19)
        for _ in range(8):
            n1, n2 = rng.integers(2, 5, size=2)
            A1, A2 = random_stable(rng, n1), random_stable(rng, n2)
            B1 = rng.standard_normal((n1, 2))
            C1 = rng.standard_normal((2, n1))
            B2 = rng.standard_normal((n2, 2))
            C2 = rng.standard_normal((2, n2))
            # series interconnection u -> G2 -> G1
            A = np.block([[A1, B1 @ C2], [np.zeros((n2, n1)), A2]])
            B = np.vstack([np.zeros((n1, 2)), B2])
            C = np.hstack([C1, np.zeros((2, n2))])
            cascade = hinf_norm(A, B, C)
            product = hinf_norm(A1, B1, C1) * hinf_norm(A2, B2, C2)
            assert cascade <= product + 1e-9


def two_resonances():
    """1/(s^2 + 0.1 s + 1) + 300/(s^2 + s + 100): both modes have damping
    0.05, so the start frequency is the lower resonance (gain about 10.5),
    while the norm (about 30.0) sits at the upper one."""
    A = sla.block_diag([[0.0, 1], [-1, -0.1]], [[0.0, 1], [-100, -1]])
    B = np.array([[0.0], [1], [0], [300]])
    C = np.array([[1.0, 0, 1, 0]])
    return A, B, C


@pytest.fixture
def eig_shapes(monkeypatch):
    """Shapes of the matrices np.linalg.eigvals is called on."""
    shapes = []
    original = np.linalg.eigvals

    def counting(M):
        shapes.append(np.shape(M))
        return original(M)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return shapes


class TestHinfLevelSet:
    """hinf_norm against the bisection oracle: the level set returns
    (1 + tol) lo with the norm in [lo, (1 + 2 tol) lo], and the oracle is
    within tol / 2, so the two agree to 1.5 hinf_rel."""

    AGREE = 1.5 * tolerances.DEFAULT.hinf_rel

    @pytest.fixture(scope="class")
    def designs(self):
        full, partial = triple_integrator_full_state(), triple_integrator()
        return [
            (full, synthesize_p1(full, 4.0), assemble_p1),
            (partial, synthesize_p2(partial, 4.0, delta_hint=0.0004), assemble_p2),
        ]

    def assert_matches_oracle(self, A, B, C):
        val = hinf_norm(A, B, C)
        assert val == pytest.approx(hinf_bisection(A, B, C), rel=self.AGREE)

    @pytest.mark.parametrize("graph", [case1_graph, case2_graph])
    def test_case_loops(self, designs, graph):
        lp = laplacian(graph())
        for model, real, assemble in designs:
            cl = assemble(model, real, lp)
            self.assert_matches_oracle(cl.A_cl, cl.B_cl, cl.C_cl)

    def test_random_digraph_loops(self, designs):
        rng = np.random.default_rng(23)
        for _ in range(6):
            g, _ = random_spanning_tree_graph(rng, int(rng.integers(2, 13)))
            lp = laplacian(g)
            for model, real, assemble in designs:
                cl = assemble(model, real, lp)
                self.assert_matches_oracle(cl.A_cl, cl.B_cl, cl.C_cl)

    @pytest.mark.parametrize("margin", [0.5, 1e-3])
    def test_random_systems(self, margin):
        # margin 1e-3 gives peaks near 1e4: in the unscaled Hamiltonian
        # [[A, B B^T / gamma^2], [-C^T C, -A^T]] their crossings drift
        # off the axis by more than imag_axis relative
        rng = np.random.default_rng(49)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            A = random_stable(rng, n, margin)
            self.assert_matches_oracle(
                A, rng.standard_normal((n, 2)), rng.standard_normal((2, n))
            )

    def test_two_resonances_take_several_steps(self, eig_shapes):
        A, B, C = two_resonances()
        val = hinf_norm(A, B, C)
        assert eig_shapes.count((8, 8)) >= 2
        assert val == pytest.approx(hinf_bisection(A, B, C), rel=self.AGREE)
        assert val > 30.0

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_HINF_MAX_STEPS", 1)
        with pytest.raises(H2SyncError, match="did not stop"):
            hinf_norm(*two_resonances())

    def test_case2_p2_eigensolve_count(self, designs, eig_shapes):
        # bisection needed about 22 Hamiltonian eigensolves here
        model, real, assemble = designs[1]
        cl = assemble(model, real, laplacian(case2_graph()))
        hinf_norm(cl.A_cl, cl.B_cl, cl.C_cl)
        dim = 2 * cl.A_cl.shape[0]
        assert 1 <= eig_shapes.count((dim, dim)) <= 6

    @staticmethod
    def s_over_s1_s2():
        """s / ((s + 1)(s + 2)): zero DC gain, peak 1/3 at omega = sqrt(2)."""
        return np.array([[0.0, 1], [-2, -3]]), np.array([[0.0], [1]]), np.array([[0.0, 1]])

    def test_vanishing_at_dc(self):
        assert hinf_norm(*self.s_over_s1_s2()) == pytest.approx(1.0 / 3.0, rel=self.AGREE)

    def test_vanishing_at_both_start_frequencies(self, monkeypatch):
        # start at DC twice, where the gain is exactly zero: the level
        # comes from the Hankel norm instead
        A, B, C = self.s_over_s1_s2()
        assert linalg._gain_at(A, B, C, 0.0) == 0.0
        monkeypatch.setattr(linalg, "_resonant_frequency", lambda spectrum: 0.0)
        assert hinf_norm(A, B, C) == pytest.approx(1.0 / 3.0, rel=self.AGREE)

    @pytest.mark.parametrize("A", [
        np.diag([-1.0, -2.0]),  # uncontrollable second state
        np.array([[-1.0, 1], [0, -2]]),  # x2 is observed, never driven
    ])
    def test_identically_zero_map(self, A):
        assert hinf_norm(A, [[1.0], [0.0]], [[0.0, 1.0]]) == 0.0

    @pytest.mark.parametrize("A, B, C", [
        (-np.eye(2), [[1.0]], [[1.0, 0.0]]),
        (-np.eye(2), [[1.0], [0.0]], [[1.0]]),
        ([[-1.0, 0.0]], [[1.0]], [[1.0, 0.0]]),
    ])
    def test_shape_mismatch(self, A, B, C):
        with pytest.raises(DimensionMismatch):
            hinf_norm(A, B, C)


class TestHurwitz:
    def test_trivial(self):
        ok, spectrum = is_hurwitz([[-1.0]])
        assert ok and spectrum == pytest.approx([-1.0])
        ok, _ = is_hurwitz([[0.0]])
        assert not ok

    def test_companion_cubic(self):
        # s^3 + 2 s^2 + 2 s + 1; oracle: roots of the polynomial
        comp = np.array([[0.0, 1, 0], [0, 0, 1], [-1, -2, -2]])
        roots = np.roots([1.0, 2, 2, 1])
        assert roots.real.max() < 0
        ok, spectrum = is_hurwitz(comp)
        assert ok
        np.testing.assert_allclose(
            np.sort_complex(spectrum), np.sort_complex(roots), atol=1e-10
        )

    def test_abscissa(self):
        assert spectral_abscissa(np.diag([-3.0, -1.0])) == pytest.approx(-1.0)
