"""Networked closed-loop assembly and disturbance-to-error norms.

Two independent assembly paths are provided on purpose:

* `assemble_p1` / `assemble_p2` build the system in synchronization-
  error coordinates (the compact Hurwitz form the analysis works on);
* `assemble_stacked` builds the raw network of N plants plus their
  controllers straight from the protocol's canonical (Ac, Bc, Cc, Fc,
  Hc) form and the full Laplacian; `reduce_to_differences` then
  removes the marginally stable synchronized motion by the similarity
  transform [[Pi], [e_N^T]] (x) I.

The error-coordinate derivation is the bug-prone step, so tests diff
the two paths against each other.

`error_h2` analyzes error-form loops per graph mode.  Ordered agent by
agent, an error-form A_cl is I (x) D - rho Lbar (x) S: one block D of
size d (2n for p1, 3n for p2) per agent, coupled through the graph on
the e block only (S selects it).  The complex Schur form
Lbar = U T U^H turns this into a block upper-triangular matrix with
diagonal blocks D - rho t_kk S, one per Laplacian eigenvalue, so the
Hurwitz test is N-1 small eigenproblems and the Lyapunov equation is
solved by block back-substitution (Bartels-Stewart at the mode level).
The assemblers attach that structure as `ModeData`; the dense A_cl and
the stacked assembly stay the reference paths, and loops without mode
data (reduced stacked loops, hand-built loops) go through the dense
Lyapunov solve.
"""

import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zgees as _gees, ztrsyl as _trsyl

from .conditions import AgentModel
from .errors import DimensionMismatch, NotHurwitz
from .graph import CommGraph, LaplacianPair, laplacian
from .linalg import h2_norm, is_hurwitz, spectral_abscissa
from .protocol import ProtocolRealization, controller_matrices, synthesize_p1, synthesize_p2
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ClosedLoop",
    "ModeData",
    "assemble_p1",
    "assemble_p2",
    "assemble_stacked",
    "reduce_to_differences",
    "error_h2",
    "rho_scaling_probe",
    "probe_to_csv",
]


@dataclass
class ModeData:
    """An error-form loop in agent-major order, the form the modal H2
    kernel works on.

    With z_k the d = b n states of agent k (k < N-1), the loop is

        dz = [I (x) D - rho Lbar (x) S] z + sum_a (M[a] (x) E[a]) w,
        y  = (I (x) C_out) z,

    where D is block upper triangular in n x n blocks, S is the
    identity on block `coupled` and zero elsewhere, and C_out selects
    block `output`.  M stacks the graph-side input factors (each
    (N-1) x N) and E the matching agent-side blocks (each d x w).
    """

    D: np.ndarray
    n: int
    coupled: int
    output: int
    rho: float
    L_reduced: np.ndarray
    M: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        b, rem = divmod(self.D.shape[0], self.n)
        if rem or self.D.shape != (b * self.n, b * self.n):
            raise DimensionMismatch(
                f"mode block of shape {self.D.shape} is not made of "
                f"{self.n} x {self.n} blocks"
            )
        if np.tril(self.D.reshape(b, self.n, b, self.n).any(axis=(1, 3)), -1).any():
            raise DimensionMismatch("mode block is not block upper triangular")

    def block(self, i):
        """Slice of the states of block i within an agent."""
        return slice(i * self.n, (i + 1) * self.n)


@dataclass
class ClosedLoop:
    """State-space map from stacked disturbances to synchronization errors.

    coordinates is "error-form" (difference coordinates, Hurwitz when
    the design conditions hold) or "stacked-form" (raw network,
    marginally stable along the synchronized motion).  labels describes
    the state blocks.  modes, set by the error-form assemblers, is the
    same system in the per-agent form of `ModeData`; it must describe
    the same system as A_cl, B_cl and C_cl.
    """

    A_cl: np.ndarray
    B_cl: np.ndarray
    C_cl: np.ndarray
    n_agents: int
    coordinates: str
    labels: str
    modes: ModeData | None = None


def _check_dims(model: AgentModel, real: ProtocolRealization, kind: str):
    if real.kind != kind:
        raise DimensionMismatch(
            f"realization kind {real.kind!r} does not match assembler {kind!r}"
        )
    if real.n != model.n:
        raise DimensionMismatch(
            f"realization built for n={real.n}, model has n={model.n}"
        )


def assemble_p1(model: AgentModel, real: ProtocolRealization, lp: LaplacianPair):
    """Error-form closed loop for Protocol 1: states (xbar, e), each of
    dimension (N-1)n, with e = xbar - chibar.

        dxbar = [I (x) (A - rho BB^T P)] xbar + rho [I (x) BB^T P] e + (Pi (x) E) w
        de    = [I (x) A - rho Lbar (x) I] e + (Pi (x) E) w
    """
    _check_dims(model, real, "p1")
    n, N = model.n, lp.n_agents
    rho = real.rho
    I1 = np.eye(N - 1)
    BBtP = model.B @ model.B.T @ real.P
    Axx = np.kron(I1, model.A - rho * BBtP)
    Axe = rho * np.kron(I1, BBtP)
    Aee = np.kron(I1, model.A) - rho * np.kron(lp.L_reduced, np.eye(n))
    A_cl = np.block([[Axx, Axe], [np.zeros_like(Axe), Aee]])
    PiE = np.kron(lp.Pi, model.E)
    B_cl = np.vstack([PiE, PiE])
    C_cl = np.hstack([np.eye((N - 1) * n), np.zeros(((N - 1) * n, (N - 1) * n))])
    # per agent (xbar, e)
    modes = ModeData(
        D=np.block([[model.A - rho * BBtP, rho * BBtP],
                    [np.zeros((n, n)), model.A]]),
        n=n, coupled=1, output=0, rho=rho, L_reduced=lp.L_reduced,
        M=lp.Pi[None], E=np.vstack([model.E, model.E])[None],
    )
    return ClosedLoop(A_cl, B_cl, C_cl, N, "error-form", "xbar | e = xbar - chibar",
                      modes)


def assemble_p2(model: AgentModel, real: ProtocolRealization, lp: LaplacianPair):
    """Error-form closed loop for Protocol 2: states (xbar, ebar, e),
    each of dimension (N-1)n, with e = xbar - chibar and
    ebar = (Lbar (x) I) xbar - xtilde.

        dxbar = [I (x) (A - rho BB^T P)] xbar + rho [I (x) BB^T P] e + (Pi (x) E) w
        debar = [I (x) (A - delta^-2 Q C^T C)] ebar + (Lbar Pi (x) E) w
        de    = [I (x) A - rho Lbar (x) I] e + rho ebar + (Pi (x) E) w
    """
    _check_dims(model, real, "p2")
    n, N = model.n, lp.n_agents
    rho, delta, Q = real.rho, real.delta, real.Q_rho
    I1 = np.eye(N - 1)
    blk = (N - 1) * n
    Z = np.zeros((blk, blk))
    BBtP = model.B @ model.B.T @ real.P
    filt = model.A - (Q @ model.C.T @ model.C) / delta**2
    A_cl = np.block([
        [np.kron(I1, model.A - rho * BBtP), Z, rho * np.kron(I1, BBtP)],
        [Z, np.kron(I1, filt), Z],
        [Z, rho * np.eye(blk),
         np.kron(I1, model.A) - rho * np.kron(lp.L_reduced, np.eye(n))],
    ])
    PiE = np.kron(lp.Pi, model.E)
    B_cl = np.vstack([PiE, np.kron(lp.L_reduced @ lp.Pi, model.E), PiE])
    C_cl = np.hstack([np.eye(blk), Z, Z])
    # per agent (xbar, e, ebar), the order that makes D block triangular
    zn, zE = np.zeros((n, n)), np.zeros_like(model.E)
    modes = ModeData(
        D=np.block([[model.A - rho * BBtP, rho * BBtP, zn],
                    [zn, model.A, rho * np.eye(n)],
                    [zn, zn, filt]]),
        n=n, coupled=1, output=0, rho=rho, L_reduced=lp.L_reduced,
        M=np.stack([lp.Pi, lp.L_reduced @ lp.Pi]),
        E=np.stack([np.vstack([model.E, model.E, zE]), np.vstack([zE, zE, model.E])]),
    )
    return ClosedLoop(
        A_cl, B_cl, C_cl, N, "error-form",
        "xbar | ebar = (Lbar (x) I) xbar - xtilde | e = xbar - chibar",
        modes,
    )


def assemble_stacked(model: AgentModel, real: ProtocolRealization, g: CommGraph):
    """Raw stacked network (x_1..x_N, x_c1..x_cN) built from the
    protocol canonical form and the full Laplacian; output is
    xbar = (Pi (x) I) x.  Marginally stable along synchronized motion.
    """
    if real.n != model.n:
        raise DimensionMismatch(
            f"realization built for n={real.n}, model has n={model.n}"
        )
    Ac, Bc, Cc, Fc, Hc = controller_matrices(real, model)
    lp = laplacian(g)
    N = g.n_agents
    n, nc = model.n, Ac.shape[0]
    IN = np.eye(N)
    A_cl = np.block([
        [np.kron(IN, model.A), np.kron(IN, model.B @ Fc)],
        [np.kron(lp.L, Bc @ model.C), np.kron(IN, Ac) + np.kron(lp.L, Cc @ Hc)],
    ])
    B_cl = np.vstack([
        np.kron(IN, model.E),
        np.zeros((N * nc, N * model.w)),
    ])
    C_cl = np.hstack([
        np.kron(lp.Pi, np.eye(n)),
        np.zeros(((N - 1) * n, N * nc)),
    ])
    return ClosedLoop(
        A_cl, B_cl, C_cl, N, "stacked-form",
        f"x (N blocks of {n}) | x_c (N blocks of {nc})",
    )


def reduce_to_differences(cl: ClosedLoop, model: AgentModel,
                          real: ProtocolRealization):
    """Similarity-transform a stacked-form loop to difference coordinates
    and drop the synchronized (marginal) motion.

    With S = [[Pi], [e_N^T]] applied blockwise, the difference states
    (x_i - x_N, x_ci - x_cN) close on themselves; the retained
    subsystem realizes the same disturbance-to-xbar map and is Hurwitz
    when the design conditions hold.
    """
    if cl.coordinates != "stacked-form":
        raise DimensionMismatch("reduce_to_differences expects a stacked-form loop")
    N = cl.n_agents
    n, nc = model.n, real.controller_state_dim
    S = np.vstack([np.hstack([np.eye(N - 1), -np.ones((N - 1, 1))]),
                   np.eye(N)[N - 1 :]])
    T = sla.block_diag(np.kron(S, np.eye(n)), np.kron(S, np.eye(nc)))
    Tinv = np.linalg.inv(T)
    A_t = T @ cl.A_cl @ Tinv
    B_t = T @ cl.B_cl
    C_t = cl.C_cl @ Tinv
    keep = np.concatenate([
        np.arange((N - 1) * n),
        N * n + np.arange((N - 1) * nc),
    ])
    drop = np.setdiff1d(np.arange(A_t.shape[0]), keep)
    # the difference states must close on themselves; leakage from the
    # absolute states means the loop was not built from a diffusive protocol
    leak = np.abs(A_t[np.ix_(keep, drop)]).max()
    if leak > 1e-9 * (1.0 + np.linalg.norm(cl.A_cl, 2)):
        raise DimensionMismatch(
            f"difference states do not decouple (leakage {leak:.2e}); "
            "is this a diffusively coupled network?"
        )
    A_red = A_t[np.ix_(keep, keep)]
    B_red = B_t[keep]
    C_red = C_t[:, keep]
    return ClosedLoop(
        A_red, B_red, C_red, N, "error-form",
        "xbar | controller-state differences",
    )


def _require_hurwitz(spectrum, tols):
    """error_h2's Hurwitz checks on a loop spectrum: the margin of
    solve_lyapunov, with error_h2's own message when the loop is not
    stable at all."""
    abscissa = spectrum.real.max()
    if not abscissa < 0.0:
        raise NotHurwitz(
            f"closed loop is not Hurwitz (abscissa {abscissa:.3e}); "
            "stacked-form loops must go through reduce_to_differences first",
            spectrum,
        )
    if not abscissa < -tols.hurwitz_margin:
        raise NotHurwitz(f"A has spectral abscissa {abscissa:.3e}", spectrum)


def _herm(M):
    """Conjugate transpose of each matrix in a stack."""
    return M.conj().transpose(0, 2, 1)


def _schur(M):
    """Complex Schur form M = Z T Z^H as (T, Z), by a direct LAPACK call
    (on the small blocks here scipy's wrapper costs more than the
    factorization)."""
    T, _, _, Z, _, info = _gees(_no_sort, M)
    if info != 0:
        raise np.linalg.LinAlgError("Schur form not found")
    return T, Z


def _no_sort(_):
    return None


def _modal_h2(md: ModeData, tols: Tolerances):
    """H2 norm of a `ModeData` loop by mode-level Bartels-Stewart.

    With Lbar = U T U^H (complex Schur; Lbar may be defective, so no
    eigendecomposition) and Q the block-diagonal unitary that takes
    each diagonal block of D to Schur form, R = Q^H D Q is upper
    triangular and Q^H S Q = S.  In the coordinates U^H (x) Q^H the
    state matrix is I (x) R - rho T (x) S: block upper triangular with
    triangular diagonal blocks R_k = R - rho t_kk S, one per Laplacian
    eigenvalue, and off-diagonal blocks -rho t_kl S (k < l).  The
    Gramian blocks Y_kl then satisfy

        R_k Y_kl + Y_kl R_l^H + C_kl = 0,
        C_kl = W_kl - rho S sum_{j>k} t_kj Y_jl - rho sum_{j>l} conj(t_lj) Y_kj S,

    which involve only blocks with a larger k + l, so each anti-diagonal
    k + l = s is one batch, solved from the bottom right.  Y is
    Hermitian: only k <= l is solved.  The coupling needs just the
    coupled rows of each block, Z_jl = S Y_jl, which is all that is
    kept of the off-diagonal blocks.  Neither U nor Q mixes the output
    block with others, so the norm is the sum of the traces of the
    output blocks of Y_kk.

    The Hurwitz test runs on the union of the mode spectra.  The
    residual is checked in these unitarily similar coordinates: its
    Frobenius norm against a cap from max_k ||R_k||_2 and
    max_k ||Y_kk||_2, lower bounds of ||A||_2 and ||X||_2, which is
    stricter than the dense path's test.
    """
    if not np.isfinite(md.D).all():
        raise DimensionMismatch("mode block contains NaN or Inf entries")
    T, U = _schur(md.L_reduced)
    m, d = T.shape[0], md.D.shape[0]
    e, out, rho = md.block(md.coupled), md.block(md.output), md.rho
    ne = e.stop - e.start
    Q = np.zeros((d, d), dtype=complex)
    for i in range(d // md.n):
        blk = md.block(i)
        Q[blk, blk] = _schur(md.D[blk, blk])[1]
    Qh = Q.conj().T
    S = np.zeros(d)
    S[e] = 1.0
    Rk = np.triu(Qh @ md.D @ Q) - (rho * T.diagonal())[:, None, None] * np.diag(S)
    spectrum = Rk.diagonal(axis1=1, axis2=2).ravel()
    _require_hurwitz(spectrum, tols)

    # W_kl = sum_ab (G_a G_b^H)_kl (Q^H E_a)(Q^H E_b)^H with G_a = U^H M_a,
    # kept as m x m weights (Gam) of d x d outer products (outer).  The
    # sweep builds -C_kl, the right-hand side ztrsyl takes.
    G = U.conj().T @ md.M
    QE = Qh @ md.E
    Gam = np.einsum("akn,bln->klab", G, G.conj()).reshape(m, m, -1)
    outer = -np.einsum("aiw,bjw->abij", QE, QE.conj()).reshape(-1, d * d)
    rTu = rho * np.triu(T, 1)
    RkH = _herm(Rk)
    # Zt[l, j] holds Z_jl = S Y_jl (the coupled rows of Y_jl), flattened
    Zt = np.zeros((m, m, ne * d), dtype=complex)
    Ykk = np.empty_like(Rk)
    res_sq = 0.0
    for s in range(2 * m - 2, -1, -1):
        K = np.arange(max(0, s - m + 1), s // 2 + 1)
        L = s - K
        B = len(K)
        C = (Gam[K, L] @ outer).reshape(B, d, d)
        # t_kj = 0 for j <= k: only later modes couple in
        j = K[0] + 1
        if j < m:
            C[:, e, :] += (rTu[K, None, j:] @ Zt[L, j:]).reshape(B, ne, d)
        j = L[-1] + 1
        if j < m:
            C[:, :, e] += _herm((rTu[L, None, j:] @ Zt[K, j:]).reshape(B, ne, d))
        Y = np.empty_like(C)
        for b in range(B):
            Y[b], scale, _ = _trsyl(Rk[K[b]], Rk[L[b]], C[b], tranb="C")
            if scale != 1.0:
                Y[b] /= scale
        weight = np.full(B, 2.0)
        if K[-1] == L[-1]:
            Y[-1] = 0.5 * (Y[-1] + Y[-1].conj().T)
            Ykk[K[-1]] = Y[-1]
            weight[-1] = 1.0
        res = (Rk[K] @ Y + Y @ RkH[L] - C).reshape(B, -1).view(float)
        res_sq += np.einsum("b,bi,bi->", weight, res, res)
        Zt[L, K] = Y[:, e, :].reshape(B, -1)
        Zt[K, L] = _herm(Y[:, :, e]).reshape(B, -1)

    # largest eigenvalues of the Hermitian Y_kk and R_k^H R_k in one call
    top = np.linalg.eigvalsh(np.concatenate([Ykk, RkH @ Rk]))[:, -1]
    y_norm, r_norm = top[:m].max(), np.sqrt(top[m:].max())
    cap = tols.lyapunov_residual * (1.0 + r_norm) * (1.0 + y_norm)
    res = np.sqrt(res_sq)
    if not res <= cap:
        raise NotHurwitz(
            f"Lyapunov residual {res:.3e} exceeds tolerance {cap:.3e} "
            "(A is too close to the imaginary axis)",
            spectrum,
        )
    h2sq = np.trace(Ykk[:, out, out], axis1=1, axis2=2).real.sum()
    return float(np.sqrt(max(0.0, h2sq)))


def error_h2(cl: ClosedLoop, tols: Tolerances = DEFAULT):
    """H2 norm of the disturbance-to-xbar map; requires A_cl Hurwitz.

    Loops with mode data are solved per graph mode (see `_modal_h2`);
    others by a dense Lyapunov solve on A_cl.
    """
    if cl.modes is not None:
        return _modal_h2(cl.modes, tols)
    _, spectrum = is_hurwitz(cl.A_cl)
    _require_hurwitz(spectrum, tols)
    return h2_norm(cl.A_cl, cl.B_cl, cl.C_cl, tols, spectrum=spectrum)


def rho_scaling_probe(model: AgentModel, g: CommGraph, kind: str, rho_list,
                      delta=None, tols: Tolerances = DEFAULT):
    """Synthesize + assemble + measure for each rho.

    Returns a list of (rho, h2, rho*h2, spectral_abscissa) rows,
    ordered by rho.  For p2, `delta` fixes the low-gain parameter;
    None means the halving search runs per rho.
    """
    lp = laplacian(g)
    rows = []
    for rho in sorted(rho_list):
        if kind == "p1":
            real = synthesize_p1(model, rho, tols)
            cl = assemble_p1(model, real, lp)
        elif kind == "p2":
            real = synthesize_p2(model, rho, delta_hint=delta, tols=tols)
            cl = assemble_p2(model, real, lp)
        else:
            raise DimensionMismatch(f"unknown protocol kind {kind!r}")
        h2 = error_h2(cl, tols)
        rows.append((rho, h2, rho * h2, spectral_abscissa(cl.A_cl)))
    return rows


def probe_to_csv(rows) -> str:
    """CSV with columns rho,h2,rho_times_h2,spectral_abscissa."""
    buf = io.StringIO()
    buf.write("rho,h2,rho_times_h2,spectral_abscissa\n")
    for rho, h2, rh2, absc in rows:
        buf.write(f"{rho:.17g},{h2:.17g},{rh2:.17g},{absc:.17g}\n")
    return buf.getvalue()
