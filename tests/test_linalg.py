import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from h2sync.errors import (
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


class TestHinfNorm:
    def test_scalar_dc_peak(self):
        assert hinf_norm([[-1.0]], [[1.0]], [[1.0]], tol=1e-9) == pytest.approx(
            1.0, rel=1e-8
        )

    def test_gain_scaling(self):
        assert hinf_norm([[-1.0]], [[2.0]], [[3.0]], tol=1e-9) == pytest.approx(
            6.0, rel=1e-8
        )

    def test_resonant_system_vs_dense_sweep(self):
        # G(s) = 1 / (s^2 + 0.1 s + 1): |G(jw)|^2 = 1/((1-w^2)^2 + 0.01 w^2)
        A = np.array([[0.0, 1], [-1, -0.1]])
        B = np.array([[0.0], [1]])
        C = np.array([[1.0, 0]])
        tol = 1e-6
        val = hinf_norm(A, B, C, tol=tol)
        w = np.logspace(-3, 3, 1_000_000)
        sweep = 1.0 / np.sqrt((1 - w**2) ** 2 + 0.01 * w**2)
        assert val == pytest.approx(sweep.max(), rel=10 * tol)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            hinf_norm([[1.0]], [[1.0]], [[1.0]])

    def test_sup_property(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = rng.integers(2, 6)
            A = random_stable(rng, n)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((1, n))
            val = hinf_norm(A, B, C, tol=1e-8)
            for omega in rng.uniform(0, 50, size=12):
                G = C @ np.linalg.solve(1j * omega * np.eye(n) - A, B)
                assert val >= np.linalg.svd(G, compute_uv=False)[0] - 1e-9

    def test_submultiplicative(self):
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
            cascade = hinf_norm(A, B, C, tol=1e-8)
            product = hinf_norm(A1, B1, C1, tol=1e-8) * hinf_norm(A2, B2, C2, tol=1e-8)
            assert cascade <= product + 1e-9


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
