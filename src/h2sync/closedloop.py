"""Networked closed-loop assembly and disturbance-to-error norms.

Two independent assembly paths are provided on purpose:

* `assemble_p1` / `assemble_p2` write the system in synchronization-
  error coordinates (the compact Hurwitz form the analysis works on)
  once, as `ModeData`; the dense A_cl, B_cl, C_cl are derived from it
  (`ModeData.dense`, agent by agent) only when read;
* `assemble_stacked` builds the raw network of N plants plus their
  controllers straight from the protocol's canonical (Ac, Bc, Cc, Fc,
  Hc) form and the full Laplacian; `reduce_to_differences` then
  removes the marginally stable synchronized motion by the similarity
  transform [[Pi], [e_N^T]] (x) I.

The error-coordinate derivation is the bug-prone step, so tests diff
the two paths against each other, entry by entry through the transfer
function as well as through the H2 norm.

`error_h2` analyzes error-form loops per graph mode.  Ordered agent by
agent, an error-form A_cl is I (x) D - rho Lbar (x) S: one block D of
size d (2n for p1, 3n for p2) per agent, coupled through the graph on
the e block only (S selects it).  The complex Schur form
Lbar = U T U^H turns this into a block upper-triangular matrix with
diagonal blocks D - rho t_kk S, one per Laplacian eigenvalue, so the
Hurwitz test is N-1 small eigenproblems and the Lyapunov equation is
solved by block back-substitution (Bartels-Stewart at the mode level).
The dense Lyapunov solve on A_cl and the stacked assembly stay the
reference paths; loops without mode data (reduced stacked loops,
hand-built loops) go through the dense solve.  Both paths take their
Hurwitz-margin and Lyapunov-residual decisions from `linalg`
(`require_hurwitz`, `require_lyapunov_residual`).
"""

import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zgees as _gees, ztrsyl as _trsyl

from .conditions import AgentModel
from .errors import DimensionMismatch, NotHurwitz
from .graph import CommGraph, LaplacianPair, laplacian
from .linalg import h2_norm, require_hurwitz, require_lyapunov_residual
from .protocol import ProtocolRealization, controller_matrices, design
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
    """An error-form loop in agent-major order: the one definition of
    the loop, which the modal H2 kernel solves and `dense` lays out.

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

    def dense(self):
        """The loop as dense (A_cl, B_cl, C_cl), agent by agent, exactly
        as the class docstring writes it."""
        m, d = self.L_reduced.shape[0], self.D.shape[0]
        S = np.zeros((d, d))
        S[self.block(self.coupled), self.block(self.coupled)] = np.eye(self.n)
        A = np.kron(np.eye(m), self.D)  # in place below: one A-sized temporary
        A -= np.kron(self.rho * self.L_reduced, S)  # = rho (Lbar (x) S): S is 0 or 1
        B = sum(np.kron(M, E) for M, E in zip(self.M, self.E))
        C = np.kron(np.eye(m), np.eye(d)[self.block(self.output)])
        return A, B, C


@dataclass
class ClosedLoop:
    """State-space map from stacked disturbances to synchronization errors.

    coordinates is "error-form" (difference coordinates, Hurwitz when
    the design conditions hold) or "stacked-form" (raw network,
    marginally stable along the synchronized motion).  A loop holds its
    dense A_cl, B_cl, C_cl, or (from the error-form assemblers) only
    modes, the `ModeData` they are derived from on first read and kept.
    """

    A_cl: np.ndarray | None
    B_cl: np.ndarray | None
    C_cl: np.ndarray | None
    n_agents: int
    coordinates: str
    modes: ModeData | None = None

    def __post_init__(self):
        given = [M is not None for M in (self.A_cl, self.B_cl, self.C_cl)]
        if self.modes is not None and not any(given):
            del self.A_cl, self.B_cl, self.C_cl  # see __getattr__
        elif not all(given):
            raise DimensionMismatch("a loop needs its ModeData or all of A_cl, B_cl, C_cl")

    def __getattr__(self, name):  # reached only for a triple left to the modes
        if name not in ("A_cl", "B_cl", "C_cl"):
            raise AttributeError(name)
        self.A_cl, self.B_cl, self.C_cl = self.modes.dense()
        return getattr(self, name)


def _check_dims(model: AgentModel, real: ProtocolRealization, kind: str):
    if real.kind != kind:
        raise DimensionMismatch(
            f"realization kind {real.kind!r} does not match assembler {kind!r}"
        )
    real.require_fits(model)


def assemble_p1(model: AgentModel, real: ProtocolRealization, lp: LaplacianPair):
    """Error-form closed loop for Protocol 1, as `ModeData`: per agent
    the states (xbar, e), each of dimension n, with e = xbar - chibar.

        dxbar = [I (x) (A - rho BB^T P)] xbar + rho [I (x) BB^T P] e + (Pi (x) E) w
        de    = [I (x) A - rho Lbar (x) I] e + (Pi (x) E) w
    """
    _check_dims(model, real, "p1")
    n, rho = model.n, real.rho
    BBtP = model.B @ model.B.T @ real.P
    modes = ModeData(
        D=np.block([[model.A - rho * BBtP, rho * BBtP],
                    [np.zeros((n, n)), model.A]]),
        n=n, coupled=1, output=0, rho=rho, L_reduced=lp.L_reduced,
        M=lp.Pi[None], E=np.vstack([model.E, model.E])[None],
    )
    return ClosedLoop(None, None, None, lp.n_agents, "error-form", modes)


def assemble_p2(model: AgentModel, real: ProtocolRealization, lp: LaplacianPair):
    """Error-form closed loop for Protocol 2, as `ModeData`: per agent
    the states (xbar, e, ebar), each of dimension n, with
    e = xbar - chibar and ebar = (Lbar (x) I) xbar - xtilde; this order
    makes D block upper triangular.

        dxbar = [I (x) (A - rho BB^T P)] xbar + rho [I (x) BB^T P] e + (Pi (x) E) w
        debar = [I (x) (A - delta^-2 Q C^T C)] ebar + (Lbar Pi (x) E) w
        de    = [I (x) A - rho Lbar (x) I] e + rho ebar + (Pi (x) E) w
    """
    _check_dims(model, real, "p2")
    n, rho = model.n, real.rho
    BBtP = model.B @ model.B.T @ real.P
    filt = model.A - (real.Q_rho @ model.C.T @ model.C) / real.delta**2
    zn, zE = np.zeros((n, n)), np.zeros_like(model.E)
    modes = ModeData(
        D=np.block([[model.A - rho * BBtP, rho * BBtP, zn],
                    [zn, model.A, rho * np.eye(n)],
                    [zn, zn, filt]]),
        n=n, coupled=1, output=0, rho=rho, L_reduced=lp.L_reduced,
        M=np.stack([lp.Pi, lp.L_reduced @ lp.Pi]),
        E=np.stack([np.vstack([model.E, model.E, zE]), np.vstack([zE, zE, model.E])]),
    )
    return ClosedLoop(None, None, None, lp.n_agents, "error-form", modes)


def assemble_stacked(model: AgentModel, real: ProtocolRealization, g: CommGraph):
    """Raw stacked network (x_1..x_N, x_c1..x_cN) built from the
    protocol canonical form and the full Laplacian; output is
    xbar = (Pi (x) I) x.  Marginally stable along synchronized motion.
    """
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
    return ClosedLoop(A_cl, B_cl, C_cl, N, "stacked-form")


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
    return ClosedLoop(A_red, B_red, C_red, N, "error-form")


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
    """(H2 norm, spectrum) of a `ModeData` loop by mode-level
    Bartels-Stewart; the spectrum is the union of the mode spectra.

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
    require_hurwitz(spectrum, tols)

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
    require_lyapunov_residual(np.sqrt(res_sq), np.sqrt(top[m:].max()), top[:m].max(),
                              spectrum, tols)
    h2sq = np.trace(Ykk[:, out, out], axis1=1, axis2=2).real.sum()
    return float(np.sqrt(max(0.0, h2sq))), spectrum


def error_h2(cl: ClosedLoop, tols: Tolerances = DEFAULT):
    """H2 norm of the disturbance-to-xbar map; requires A_cl Hurwitz.

    Loops with mode data are solved per graph mode (see `_modal_h2`);
    others by a dense Lyapunov solve on A_cl.  Stacked-form loops are
    only marginally stable and are refused up front.
    """
    if cl.coordinates == "stacked-form":
        raise NotHurwitz(
            "a stacked-form loop is marginally stable along the synchronized "
            "motion; use reduce_to_differences first"
        )
    if cl.modes is not None:
        return _modal_h2(cl.modes, tols)[0]
    return h2_norm(cl.A_cl, cl.B_cl, cl.C_cl, tols)


def rho_scaling_probe(model: AgentModel, g: CommGraph, kind: str, rho_list,
                      delta=None, tols: Tolerances = DEFAULT):
    """Design once, then realize + assemble + measure for each rho.

    Returns a list of (rho, h2, rho*h2, spectral_abscissa) rows,
    ordered by rho, the abscissa read off the mode spectra (no dense
    loop is formed).  For p2, `delta` fixes the low-gain parameter;
    None means the halving search runs per rho.
    """
    des = design(model, kind, g, tols)
    assemble = assemble_p1 if kind == "p1" else assemble_p2
    lp = laplacian(g)
    rows = []
    for rho in sorted(rho_list):
        cl = assemble(model, des.realize(rho, delta), lp)
        h2, spectrum = _modal_h2(cl.modes, tols)
        rows.append((rho, h2, rho * h2, float(spectrum.real.max())))
    return rows


def probe_to_csv(rows) -> str:
    """CSV with columns rho,h2,rho_times_h2,spectral_abscissa."""
    buf = io.StringIO()
    buf.write("rho,h2,rho_times_h2,spectral_abscissa\n")
    for rho, h2, rh2, absc in rows:
        buf.write(f"{rho:.17g},{h2:.17g},{rh2:.17g},{absc:.17g}\n")
    return buf.getvalue()
