"""Dense linear-algebra kernels.

Continuous algebraic Riccati equations are solved by ordered real Schur
decomposition of the associated Hamiltonian matrix, with Newton defect
correction when the residual is above tolerance.  Lyapunov equations
go through Bartels-Stewart.  H2 norms use the controllability
Gramian; H-infinity norms use bisection with the Hamiltonian
imaginary-axis eigenvalue test.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    H2SyncError,
    NoStabilizingSolution,
    NotHurwitz,
    NotPositiveDefinite,
    RhoOutOfRange,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "StableSubspaceResult",
    "solve_care_standard",
    "solve_filter_riccati",
    "solve_lyapunov",
    "h2_norm",
    "hinf_norm",
    "spectral_abscissa",
    "is_hurwitz",
]


@dataclass
class StableSubspaceResult:
    """Riccati solution extracted from the stable Hamiltonian subspace.

    solution : symmetric matrix (P or Q_rho)
    residual_norm : induced 2-norm of the Riccati residual
    closed_loop_spectrum : eigenvalues of the closed-loop matrix
        (A - BB^T P for the control equation, A - delta^-2 Q C^T C for
        the filter equation)
    """

    solution: np.ndarray
    residual_norm: float
    closed_loop_spectrum: np.ndarray


def _as_matrix(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise DimensionMismatch(f"{name} contains NaN or Inf entries")
    return M


def spectral_abscissa(A):
    """Largest real part over the eigenvalues of A."""
    A = _as_matrix(A, "A")
    return float(np.linalg.eigvals(A).real.max())


def is_hurwitz(A):
    """Return (all eigenvalues in the open left half plane, spectrum)."""
    A = _as_matrix(A, "A")
    spectrum = np.linalg.eigvals(A)
    return bool(spectrum.real.max() < 0.0), spectrum


def _solve_care(A, mid, Q, residual_cap, tols):
    """Stabilizing solution of A^T X + X A - X mid X + Q = 0.

    `mid` and `Q` must be symmetric.  The Hamiltonian
    H = [[A, -mid], [-Q, -A^T]] is reduced by ordered real Schur; X is
    recovered from the basis of the n-dimensional stable invariant
    subspace.  Newton steps (Lyapunov solves on the closed loop) refine
    X while the residual exceeds `residual_cap`.
    """
    n = A.shape[0]
    H = np.block([[A, -mid], [-Q, -A.T]])
    h_scale = 1.0 + np.linalg.norm(H, 2)

    ham_eigs = np.linalg.eigvals(H)
    on_axis = ham_eigs[np.abs(ham_eigs.real) < tols.imag_axis * h_scale]
    if on_axis.size:
        raise NoStabilizingSolution(
            "Hamiltonian has eigenvalues on the imaginary axis: "
            f"{np.sort_complex(on_axis)}",
            offending_eigenvalues=on_axis,
        )

    _, Z, sdim = sla.schur(H, output="real", sort="lhp")
    if sdim != n:
        raise NoStabilizingSolution(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    sv = np.linalg.svd(U1, compute_uv=False)
    if sv[-1] <= n * np.finfo(float).eps * sv[0]:
        raise NoStabilizingSolution(
            "stable invariant subspace is not complementary "
            "(leading block numerically singular)"
        )
    X = np.linalg.solve(U1.T, U2.T).T
    X = 0.5 * (X + X.T)

    def residual(Xc):
        return A.T @ Xc + Xc @ A - Xc @ mid @ Xc + Q

    res_norm = np.linalg.norm(residual(X), 2)
    # Newton defect correction: (A - mid X)^T D + D (A - mid X) = -residual.
    # Usually zero or one step; badly scaled problems (nearly
    # unstabilizable, ||X|| huge) can need a second.
    for _ in range(3):
        if res_norm <= residual_cap:
            break
        try:
            Acl = A - mid @ X
            D = solve_lyapunov(Acl.T, residual(X), tols)
        except NotHurwitz:
            break
        X = 0.5 * ((X + D) + (X + D).T)
        new_norm = np.linalg.norm(residual(X), 2)
        if new_norm >= res_norm:
            res_norm = new_norm
            break
        res_norm = new_norm
    if res_norm > residual_cap:
        raise NoStabilizingSolution(
            f"Riccati residual {res_norm:.3e} exceeds tolerance "
            f"{residual_cap:.3e} even after Newton refinement"
        )
    return X, res_norm


def solve_care_standard(A, B, tols: Tolerances = DEFAULT):
    """Solve A^T P + P A - P B B^T P + I = 0 for the stabilizing P > 0.

    Returns a StableSubspaceResult whose closed_loop_spectrum contains
    the eigenvalues of A - B B^T P (all in the open left half plane).
    Requires (A, B) stabilizable; otherwise NoStabilizingSolution.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise DimensionMismatch(f"B must have {n} rows, got {B.shape[0]}")

    cap = tols.care_residual * (1.0 + np.linalg.norm(A, 2)) ** 2
    P, res_norm = _solve_care(A, B @ B.T, np.eye(n), cap, tols)

    if np.linalg.eigvalsh(P).min() <= 0.0:
        raise NotPositiveDefinite(
            "stabilizing Riccati solution is not positive definite"
        )
    spectrum = np.linalg.eigvals(A - B @ B.T @ P)
    return StableSubspaceResult(P, res_norm, spectrum)


def solve_filter_riccati(A, E, C, rho, delta, tols: Tolerances = DEFAULT):
    """Solve Q A^T + A Q + E E^T - delta^-2 Q C^T C Q + rho^2 Q^2 = 0.

    The quadratic term is Q (delta^-2 C^T C - rho^2 I) Q, so the
    equation is the standard form with indefinite middle matrix
    Rt = delta^-2 C^T C - rho^2 I applied to the transposed data.
    Returns Q > 0 with A - delta^-2 Q C^T C Hurwitz; raises
    NoStabilizingSolution when delta is too large for this rho (shrink
    delta and retry) and NotPositiveDefinite when the stabilizing
    solution exists but is only semidefinite.
    """
    A = _as_matrix(A, "A")
    E = _as_matrix(E, "E")
    C = _as_matrix(C, "C")
    n = A.shape[0]
    if A.shape[1] != n or E.shape[0] != n or C.shape[1] != n:
        raise DimensionMismatch("inconsistent (A, E, C) dimensions")
    if rho < 1.0:
        raise RhoOutOfRange(f"rho must be >= 1, got {rho}")
    if delta <= 0.0:
        raise DimensionMismatch(f"delta must be positive, got {delta}")

    mid = C.T @ C / delta**2 - rho**2 * np.eye(n)
    cap = tols.filter_residual * (1.0 + np.linalg.norm(A, 2)) ** 2
    try:
        Q, res_norm = _solve_care(A.T, mid, E @ E.T, cap, tols)
    except NoStabilizingSolution as exc:
        raise NoStabilizingSolution(
            f"no stabilizing solution at delta={delta} "
            f"(delta too large for rho={rho}; shrink delta): {exc}",
            offending_eigenvalues=exc.offending_eigenvalues,
        ) from exc

    q_scale = max(1.0, np.linalg.norm(Q, 2))
    if np.linalg.eigvalsh(Q).min() <= tols.symmetry * q_scale:
        raise NotPositiveDefinite(
            f"filter Riccati solution is not positive definite at "
            f"delta={delta}, rho={rho}"
        )
    filt = A - (Q @ C.T @ C) / delta**2
    spectrum = np.linalg.eigvals(filt)
    if spectrum.real.max() >= 0.0:
        raise NoStabilizingSolution(
            f"filter matrix A - delta^-2 Q C^T C is not Hurwitz at "
            f"delta={delta}, rho={rho}",
            offending_eigenvalues=spectrum[spectrum.real >= 0.0],
        )
    return StableSubspaceResult(Q, res_norm, spectrum)


def solve_lyapunov(A, W, tols: Tolerances = DEFAULT, spectrum=None):
    """Solve A X + X A^T + W = 0 for Hurwitz A and symmetric W.

    Bartels-Stewart via the real Schur form (scipy's
    solve_continuous_lyapunov).  Raises NotHurwitz when the spectral
    abscissa of A is >= -hurwitz_margin.  spectrum, the eigenvalues of
    A, is computed here unless the caller already has it.
    """
    A = _as_matrix(A, "A")
    W = _as_matrix(W, "W")
    if A.shape[0] != A.shape[1] or A.shape != W.shape:
        raise DimensionMismatch(
            f"need square A and matching W, got {A.shape} and {W.shape}"
        )
    if spectrum is None:
        _, spectrum = is_hurwitz(A)
    if not spectrum.real.max() < -tols.hurwitz_margin:
        raise NotHurwitz(
            f"A has spectral abscissa {spectrum.real.max():.3e}", spectrum
        )
    X = sla.solve_continuous_lyapunov(A, -W)
    X = 0.5 * (X + X.T)
    res = np.linalg.norm(A @ X + X @ A.T + W, 2)
    cap = (
        tols.lyapunov_residual
        * (1.0 + np.linalg.norm(A, 2))
        * (1.0 + np.linalg.norm(X, 2))
    )
    if res > cap:
        raise NotHurwitz(
            f"Lyapunov residual {res:.3e} exceeds tolerance {cap:.3e} "
            "(A is too close to the imaginary axis)",
            spectrum,
        )
    return X


def h2_norm(A, B, C, tols: Tolerances = DEFAULT, spectrum=None):
    """H2 norm of the strictly proper system (A, B, C).

    sqrt(trace(C X C^T)) with the controllability Gramian X solving
    A X + X A^T + B B^T = 0.  A must be Hurwitz; spectrum is passed on
    to solve_lyapunov.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    C = _as_matrix(C, "C")
    X = solve_lyapunov(A, B @ B.T, tols, spectrum)
    val = np.trace(C @ X @ C.T)
    return float(np.sqrt(max(val, 0.0)))


def _gain_at(A, B, C, omega):
    n = A.shape[0]
    G = C @ np.linalg.solve(1j * omega * np.eye(n) - A, B)
    return np.linalg.svd(G, compute_uv=False)[0]


def hinf_norm(A, B, C, tol=None, tols: Tolerances = DEFAULT):
    """H-infinity norm of the stable strictly proper system (A, B, C).

    Bisection on gamma: gamma exceeds the norm iff the Hamiltonian
    [[A, B B^T / gamma^2], [-C^T C, -A^T]] has no imaginary-axis
    eigenvalues.  Result is accurate to relative `tol` (default
    tols.hinf_rel).
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    C = _as_matrix(C, "C")
    if tol is None:
        tol = tols.hinf_rel
    hurwitz, spectrum = is_hurwitz(A)
    if not hurwitz:
        raise NotHurwitz(
            f"A has spectral abscissa {spectrum.real.max():.3e}", spectrum
        )
    if np.linalg.norm(B) == 0.0 or np.linalg.norm(C) == 0.0:
        return 0.0

    # seed the bracket from a frequency sweep (DC, log grid, pole frequencies)
    omegas = np.concatenate(
        [[0.0], np.logspace(-4, 4, 120), np.abs(spectrum.imag)]
    )
    lo = max(_gain_at(A, B, C, w) for w in omegas)
    if lo == 0.0:
        # entries of G are rational of bounded degree; vanishing on the
        # whole sample grid means the map is identically zero
        return 0.0

    BBt = B @ B.T
    CtC = C.T @ C

    def no_axis_crossing(gamma):
        H = np.block([[A, BBt / gamma**2], [-CtC, -A.T]])
        eigs = np.linalg.eigvals(H)
        band = tols.imag_axis * (1.0 + np.linalg.norm(H, 2))
        return not np.any(np.abs(eigs.real) < band)

    hi = 2.0 * lo
    while not no_axis_crossing(hi):
        hi *= 2.0
        if hi > 1e15 * lo:
            raise H2SyncError("H-infinity bisection failed to bracket the norm")
    while (hi - lo) > tol * lo:
        mid = 0.5 * (lo + hi)
        if no_axis_crossing(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
