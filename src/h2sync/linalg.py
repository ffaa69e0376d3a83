"""Dense linear-algebra kernels.

Continuous algebraic Riccati equations are solved by ordered real Schur
decomposition of the associated Hamiltonian matrix, with Newton defect
correction when the residual is above tolerance.  Lyapunov equations
go through Bartels-Stewart.  H2 norms use the controllability
Gramian.  H-infinity norms use the level-set iteration of Bruinsma and
Steinbuch: the imaginary-axis eigenvalues of a Hamiltonian give the
frequencies where the gain crosses a level, and the gains between them
raise the level until no gain above it is left.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import tolerances
from .errors import (
    DimensionMismatch,
    H2SyncError,
    NoStabilizingSolution,
    NotHurwitz,
    NotPositiveDefinite,
    RhoOutOfRange,
)

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


def _as_matrix(M, name, rows=None, cols=None, ndim=2):
    """M as a finite float matrix (a stack of them for ndim=3) with `rows`
    rows and `cols` columns where given; DimensionMismatch naming it
    otherwise.  A scalar or vector is a one-row matrix."""
    try:
        M = np.asarray(M)
    except ValueError as exc:  # ragged nesting
        raise DimensionMismatch(f"{name} is not a rectangular array: {exc}") from None
    M = np.atleast_2d(M) if ndim == 2 else M
    if M.dtype.kind not in "biuf":  # a cast would drop imaginary parts or parse text
        raise DimensionMismatch(f"{name} must hold real numbers, got dtype {M.dtype}")
    M = M.astype(float, copy=False)
    shape = (rows, cols) + (None,) * (ndim - 2)
    if M.ndim != ndim or any(k not in (None, m) for k, m in zip(shape, M.shape)):
        want = ", ".join("*" if k is None else str(k) for k in shape)
        raise DimensionMismatch(f"{name} must have shape ({want}), got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionMismatch(f"{name} contains NaN or Inf entries")
    return M


_OMITTED = object()  # an argument not passed, told apart from an explicit None


def _as_system(A, B=_OMITTED, C=_OMITTED, names="ABC"):
    """The one input gate for state-space data: (A, B, C) as finite float
    matrices, A square with n >= 1, B with n rows and C with n columns
    (zero columns of B or rows of C are legal); B or C not passed is
    None.  A matrix passed as None is refused like any other non-matrix.
    `names`, one letter per matrix, label DimensionMismatch."""
    A = _as_matrix(A, names[0])
    n = A.shape[0]
    if n == 0 or A.shape[1] != n:
        raise DimensionMismatch(f"{names[0]} must be square with n >= 1, got {A.shape}")
    return (A,
            None if B is _OMITTED else _as_matrix(B, names[1], rows=n),
            None if C is _OMITTED else _as_matrix(C, names[2], cols=n))


def spectral_abscissa(A):
    """Largest real part over the eigenvalues of A."""
    return float(np.linalg.eigvals(_as_system(A)[0]).real.max())


def is_hurwitz(A):
    """Return (all eigenvalues in the open left half plane, spectrum)."""
    spectrum = np.linalg.eigvals(_as_system(A)[0])
    return bool(spectrum.real.max() < 0.0), spectrum


def require_hurwitz(spectrum):
    """Raise NotHurwitz unless the spectral abscissa of `spectrum` is
    below -hurwitz_margin, the margin every Lyapunov solve needs."""
    abscissa, margin = spectrum.real.max(), tolerances.DEFAULT.hurwitz_margin
    if not abscissa < -margin:
        raise NotHurwitz(f"closed loop is not Hurwitz: spectral abscissa {abscissa:.3e} "
                         f"is not below -{margin:.1e}", spectrum)


def require_rho(rho):
    """Raise RhoOutOfRange unless the coupling gain is a real number
    with 1 <= rho < inf; NaN fails."""
    if not (isinstance(rho, numbers.Real) and 1.0 <= rho < np.inf):
        raise RhoOutOfRange(f"rho must be finite and >= 1, got {rho!r}")


def require_delta(delta):
    """Raise DimensionMismatch unless the low-gain parameter is a real
    number with 0 < delta < inf; NaN fails."""
    if not (isinstance(delta, numbers.Real) and 0.0 < delta < np.inf):
        raise DimensionMismatch(f"delta must be finite and positive, got {delta!r}")


def require_lyapunov_residual(res, a_norm, x_norm, spectrum):
    """Raise NotHurwitz unless the residual norm of A X + X A^T + W = 0
    is at most lyapunov_residual (1 + ||A||) (1 + ||X||); NaN fails."""
    cap = tolerances.DEFAULT.lyapunov_residual * (1.0 + a_norm) * (1.0 + x_norm)
    if not res <= cap:
        raise NotHurwitz(f"Lyapunov residual {res:.3e} exceeds tolerance {cap:.3e} "
                         "(A is too close to the imaginary axis)", spectrum)


def _solve_care(A, mid, Q, residual_cap):
    """Stabilizing solution of A^T X + X A - X mid X + Q = 0.

    `mid` and `Q` must be symmetric; a non-finite entry of the
    Hamiltonian H = [[A, -mid], [-Q, -A^T]] (an overflow forming them)
    is NoStabilizingSolution.  H is reduced by ordered real Schur; X is
    recovered from the basis of the n-dimensional stable invariant
    subspace.  Newton steps (Lyapunov solves on the closed loop) refine
    X while the residual exceeds `residual_cap`.
    """
    n = A.shape[0]
    H = np.block([[A, -mid], [-Q, -A.T]])
    if not np.isfinite(H).all():
        raise NoStabilizingSolution("Hamiltonian has a non-finite entry")
    ham_eigs = np.linalg.eigvals(H)
    on_axis = ham_eigs[_on_imag_axis(ham_eigs)]
    if on_axis.size:
        raise NoStabilizingSolution(
            f"Hamiltonian has {on_axis.size} eigenvalues on the imaginary axis",
            offending_eigenvalues=on_axis,
        )

    try:
        _, Z, sdim = sla.schur(H, output="real", sort="lhp")
    except np.linalg.LinAlgError as exc:  # eigenvalues reordered across the axis
        raise NoStabilizingSolution(
            f"ordered Schur form of the Hamiltonian failed: {exc}",
            offending_eigenvalues=ham_eigs,
        ) from None
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
            D = solve_lyapunov(Acl.T, residual(X))
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


def solve_care_standard(A, B):
    """Solve A^T P + P A - P B B^T P + I = 0 for the stabilizing P > 0.

    Returns a StableSubspaceResult whose closed_loop_spectrum contains
    the eigenvalues of A - B B^T P (all in the open left half plane).
    Requires (A, B) stabilizable; otherwise NoStabilizingSolution, as
    for a B B^T that overflows.
    """
    A, B, _ = _as_system(A, B)
    n = A.shape[0]
    cap = tolerances.DEFAULT.care_residual * (1.0 + np.linalg.norm(A, 2)) ** 2
    with np.errstate(all="ignore"):  # an overflow is refused by _solve_care
        BBt = B @ B.T
    P, res_norm = _solve_care(A, BBt, np.eye(n), cap)

    if np.linalg.eigvalsh(P).min() <= 0.0:
        raise NotPositiveDefinite(
            "stabilizing Riccati solution is not positive definite"
        )
    spectrum = np.linalg.eigvals(A - B @ B.T @ P)
    return StableSubspaceResult(P, res_norm, spectrum)


def solve_filter_riccati(A, E, C, rho, delta):
    """Solve Q A^T + A Q + E E^T - delta^-2 Q C^T C Q + rho^2 Q^2 = 0.

    The quadratic term is Q (delta^-2 C^T C - rho^2 I) Q, so the
    equation is the standard form with indefinite middle matrix
    Rt = delta^-2 C^T C - rho^2 I applied to the transposed data.
    Returns Q > 0 with A - delta^-2 Q C^T C Hurwitz.  A delta too large
    for rho fails one of three checks, which raises with its own message
    (naming neither value): `_solve_care` and the Hurwitz test of the
    filter matrix raise NoStabilizingSolution, Q > 0 NotPositiveDefinite.
    Data whose middle matrix or E E^T overflows (delta**2 and rho**2
    included, or delta**2 rounding to 0) is NoStabilizingSolution too.
    rho must pass `require_rho` and delta `require_delta`.
    """
    A, E, C = _as_system(A, E, C, names="AEC")
    n = A.shape[0]
    require_rho(rho)
    require_delta(delta)

    with np.errstate(all="ignore"):  # an overflow is refused by _solve_care
        EEt = E @ E.T
        try:
            mid = C.T @ C / delta**2 - rho**2 * np.eye(n)
        except OverflowError:  # delta**2 or rho**2 beyond the float range
            mid = np.full((n, n), np.inf)
    cap = tolerances.DEFAULT.filter_residual * (1.0 + np.linalg.norm(A, 2)) ** 2
    Q, res_norm = _solve_care(A.T, mid, EEt, cap)

    q_scale = max(1.0, np.linalg.norm(Q, 2))
    if np.linalg.eigvalsh(Q).min() <= tolerances.DEFAULT.symmetry * q_scale:
        raise NotPositiveDefinite("filter Riccati solution is not positive definite")
    filt = A - (Q @ C.T @ C) / delta**2
    spectrum = np.linalg.eigvals(filt)
    if spectrum.real.max() >= 0.0:
        raise NoStabilizingSolution(
            "filter matrix A - delta^-2 Q C^T C is not Hurwitz",
            offending_eigenvalues=spectrum[spectrum.real >= 0.0],
        )
    return StableSubspaceResult(Q, res_norm, spectrum)


def solve_lyapunov(A, W):
    """Solve A X + X A^T + W = 0 for Hurwitz A and symmetric W.

    Bartels-Stewart via the real Schur form (scipy's
    solve_continuous_lyapunov).  Raises NotHurwitz when the spectral
    abscissa of A is >= -hurwitz_margin, two eigenvalues of A nearly
    cancel or the residual is above tolerance.
    """
    A, W, _ = _as_system(A, W, W, names="AWW")  # W: n rows and n columns
    _, spectrum = is_hurwitz(A)
    require_hurwitz(spectrum)
    with warnings.catch_warnings():
        # scipy only warns when it has to perturb the equation
        warnings.filterwarnings("error", 'Input "a" has an eigenvalue pair', RuntimeWarning)
        try:
            X = sla.solve_continuous_lyapunov(A, -W)
        except RuntimeWarning as exc:
            raise NotHurwitz("Lyapunov equation near singular: two eigenvalues of A "
                             "nearly cancel (A is too close to the imaginary axis)",
                             spectrum) from exc
    X = 0.5 * (X + X.T)
    res = np.linalg.norm(A @ X + X @ A.T + W, 2)
    require_lyapunov_residual(res, np.linalg.norm(A, 2), np.linalg.norm(X, 2), spectrum)
    return X


def h2_norm(A, B, C):
    """H2 norm of the strictly proper system (A, B, C).

    sqrt(trace(C X C^T)) with the controllability Gramian X solving
    A X + X A^T + B B^T = 0.  A must be Hurwitz.
    """
    A, B, C = _as_system(A, B, C)
    X = solve_lyapunov(A, B @ B.T)
    val = np.trace(C @ X @ C.T)
    return float(np.sqrt(max(val, 0.0)))


def _gain_at(A, B, C, omega):
    n = A.shape[0]
    G = C @ np.linalg.solve(1j * omega * np.eye(n) - A, B)
    return np.linalg.svd(G, compute_uv=False).max(initial=0.0)  # 0 with no input or output


def _on_imag_axis(eigs):
    """Mask of the eigenvalues whose real part is at most imag_axis
    times their own modulus.  A band set by ||H|| instead would swallow
    every eigenvalue that is small next to the largest one."""
    return np.abs(eigs.real) <= tolerances.DEFAULT.imag_axis * np.abs(eigs)


def _resonant_frequency(spectrum):
    """Start frequency of the level-set iteration (Bruinsma & Steinbuch
    1990): |lambda| of the pole maximizing |Im| / (|Re| |lambda|), the
    most lightly damped one relative to its size; the smallest |lambda|
    when every pole is real.  Needs Re lambda < 0."""
    modulus = np.abs(spectrum)
    resonance = np.abs(spectrum.imag) / (np.abs(spectrum.real) * modulus)
    if resonance.max() > 0.0:
        return modulus[np.argmax(resonance)]
    return modulus.min()


# level-set steps before hinf_norm gives up; the iteration converges
# quadratically and usually stops within five steps
_HINF_MAX_STEPS = 30


def hinf_norm(A, B, C):
    """H-infinity norm of the stable strictly proper system (A, B, C).

    Level-set iteration (Bruinsma & Steinbuch 1990; Boyd & Balakrishnan
    1990).  gamma is a singular value of G(j omega) iff j omega is an
    eigenvalue of H(gamma) = [[A, B B^T / gamma^2], [-C^T C, -A^T]].
    Starting from lo, the larger gain at DC and at the most resonant
    pole frequency, each step reads the crossing frequencies of
    gamma = (1 + 2 tol) lo from the imaginary-axis eigenvalues of
    H(gamma) and raises lo to the largest gain at the midpoints between
    consecutive crossings.  It stops when H(gamma) has no crossings or
    no midpoint gain exceeds lo, and returns (1 + tol) lo: within
    relative tol = `tolerances.DEFAULT.hinf_rel` of the norm, and
    (1 + tol) times a measured gain.  A must pass `require_hurwitz`.
    Raises H2SyncError if B B^T or C^T C overflows, or if the iteration
    has not stopped after _HINF_MAX_STEPS steps.
    """
    A, B, C = _as_system(A, B, C)
    with np.errstate(all="ignore"):  # an overflow is refused below
        BBt, CtC = B @ B.T, C.T @ C
    if not (np.isfinite(BBt).all() and np.isfinite(CtC).all()):
        raise H2SyncError("B B^T or C^T C has a non-finite entry (an overflow)")
    tol = tolerances.DEFAULT.hinf_rel
    _, spectrum = is_hurwitz(A)
    require_hurwitz(spectrum)
    lo = max(_gain_at(A, B, C, 0.0), _gain_at(A, B, C, _resonant_frequency(spectrum)))

    gamma = (1.0 + 2.0 * tol) * lo
    if lo == 0.0:
        # G vanishes at both start frequencies.  Its largest Hankel
        # singular value is zero iff G is identically zero, and lies
        # below ||G||_inf otherwise, so half of it is a level G crosses.
        X = solve_lyapunov(A, BBt)
        Y = solve_lyapunov(A.T, CtC)
        gamma = 0.5 * np.sqrt(max(np.linalg.eigvals(X @ Y).real.max(), 0.0))
        if gamma == 0.0:
            return 0.0
    # H(gamma) is similar to [[A, s BB^T / gamma], [-C^T C / (s gamma), -A^T]]
    # with s = ||C|| / ||B||, whose off-diagonal blocks have equal norms.
    # At lightly damped peaks this form computes the crossings about
    # 1e-12 relative off the axis, the unscaled one 2-4e-9: beyond
    # imag_axis, so they would be missed
    s = np.linalg.norm(C, 2) / np.linalg.norm(B, 2)
    R, Q = s * BBt, CtC / s
    for _ in range(_HINF_MAX_STEPS):
        eigs = np.linalg.eigvals(np.block([[A, R / gamma], [-Q / gamma, -A.T]]))
        omegas = np.unique(np.abs(eigs[_on_imag_axis(eigs)].imag))
        midpoints = 0.5 * (omegas[:-1] + omegas[1:])
        peak = max((_gain_at(A, B, C, w) for w in midpoints), default=0.0)
        if peak <= lo:
            return (1.0 + tol) * lo
        lo = peak
        gamma = (1.0 + 2.0 * tol) * lo
    raise H2SyncError(
        f"H-infinity level-set iteration did not stop in {_HINF_MAX_STEPS} steps "
        f"(last lower bound {lo:.6e})"
    )
