"""The modal H2 kernel: the disturbance-to-error H2 norm and the mode
spectrum of an error-form loop given as `closedloop.ModeData`, without
forming the dense loop.

The loop is I (x) D - rho Lbar (x) S per agent.  In the complex Schur
form of Lbar and of the diagonal blocks of D it is block upper
triangular twice over: by graph mode and by agent sub-block.  The
Hurwitz test reads the mode spectra off the diagonal, and the Lyapunov
equation is solved by Bartels-Stewart over the Gramian's agent
sub-blocks, each pair of sub-blocks one set of triangular solves for all
mode pairs at once (`modal_h2`).  The number of LAPACK calls grows
linearly in the number of agents.  The dense Lyapunov solve on
`ModeData.dense` is the reference the tests compare it against.
"""

import numpy as np
from scipy.linalg.lapack import zgees as _gees, ztrsyl as _trsyl, ztrtrs as _trtrs

from .errors import DimensionMismatch
from .linalg import require_hurwitz, require_lyapunov_residual


def _adj(X):
    """Hermitian transpose of a Gramian sub-block kept as an m x m array
    of n x n tiles, shape (m, m, n, n)."""
    return X.conj().transpose(1, 0, 3, 2)


def _tiles_times(X, M):
    """Each n x n tile of X times M, i.e. X (I (x) M)."""
    return (X.reshape(-1, M.shape[0]) @ M).reshape(X.shape)


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


_MODE_BLOCK = 32  # modes per block of the one-sided back-substitution


def _sweep_plan(b, nonzero):
    """The sub-block pairs (p, q), p <= q, in solve order (from the bottom
    right), and for each the sub-blocks no later pair needs once it is
    solved.  Y_pr and Y_qr feed C_pq through R_qr and R_pr, where
    nonzero[p][r] says whether R_pr is nonzero."""
    pairs = [(p, q) for p in range(b - 1, -1, -1) for q in range(b - 1, p - 1, -1)]
    last = {pq: i for i, pq in enumerate(pairs)}
    for i, (p, q) in enumerate(pairs):
        for r in range(q + 1, b):
            if nonzero[q][r]:
                last[p, r] = i
        for r in range(p + 1, b):
            if nonzero[p][r]:
                last[min(q, r), max(q, r)] = i
    return pairs, [[pq for pq in pairs if last[pq] == i] for i in range(len(pairs))]


def _solve_uncoupled(K, C, hermitian):
    """Solve R_pp Y_kl + Y_kl R_qq^H = C_kl for every mode tile at once,
    one triangular solve with K = R_pp (x) I + I (x) conj(R_qq); return
    Y (Hermitian-averaged for a diagonal pair) and ||residual||_F^2."""
    m, nn = C.shape[0], K.shape[0]
    rows = C.reshape(m * m, nn)
    Y = _trtrs(K, rows.T)[0].T.reshape(C.shape)
    if hermitian:
        Y += _adj(Y)
        Y *= 0.5
    res = Y.reshape(m * m, nn) @ K.T
    res -= rows
    return Y, np.vdot(res, res).real


def _solve_one_coupled(K, T, rho, C):
    """Solve (I (x) R_cc - rho T (x) I) Y + Y (I (x) R_qq^H) = C by
    back-substitution over the modes k, each step one triangular solve
    with K - rho t_kk I (K = R_cc (x) I + I (x) conj(R_qq)) for the m
    tiles of row k; return Y and ||residual||_F^2.  C is overwritten.

    The modes go in blocks of _MODE_BLOCK: within a block each row takes
    the coupling of the rows below it in the block, and a finished block
    updates all rows above it in one matrix product."""
    m, nn = C.shape[0], K.shape[0]
    rT, I = rho * T, np.eye(nn)
    B = C.reshape(m, m, nn)
    Y = np.empty_like(B)
    Bf, Yf = B.reshape(m, -1), Y.reshape(m, -1)
    for hi in range(m, 0, -_MODE_BLOCK):
        lo = max(hi - _MODE_BLOCK, 0)
        for k in range(hi - 1, lo - 1, -1):
            Bf[k] += rT[k, k + 1:hi] @ Yf[k + 1:hi]
            Y[k] = _trtrs(K - rT[k, k] * I, B[k].T)[0].T
        Bf[:lo] += rT[:lo, lo:hi] @ Yf[lo:hi]
    B -= Y @ K.T
    B += rT.diagonal()[:, None, None] * Y
    return Y.reshape(C.shape), np.vdot(B, B).real


def _solve_both_coupled(Rc, T, rho, C):
    """Solve A Y + Y A^H = C for A = I (x) Rc - rho T (x) I, one tile
    entry (i, j), i <= j, at a time: a triangular Sylvester equation
    ((Rc_ii + conj(Rc_jj)) I - rho T) X + X (-rho T)^H = C_ij less the
    entries already solved; entries j < i follow by symmetry.  Return
    Y and ||residual||_F^2."""
    m, n = C.shape[0], Rc.shape[0]
    mT = -rho * T
    r = Rc.diagonal()
    lhs = mT + (r[:, None] + r.conj())[:, :, None, None] * np.eye(m)
    Rl, Ct = Rc.tolist(), C.transpose(2, 3, 0, 1)
    Yt = np.empty_like(Ct)  # Yt[i, j] = Y[:, :, i, j]
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i - 1, -1):
            rhs = Ct[i, j]
            for k in range(i + 1, n):
                rhs = rhs - Rl[i][k] * Yt[k, j]
            for k in range(j + 1, n):
                rhs = rhs - Rl[j][k].conjugate() * Yt[i, k]
            x, scale, _ = _trsyl(lhs[i, j], mT, rhs, tranb="C")
            if scale != 1.0:
                x /= scale
            Yt[i, j] = x
            if i != j:
                Yt[j, i] = x.conj().T
    Yt += _adj(Yt)  # the same index swap in this layout
    Yt *= 0.5
    Y = np.ascontiguousarray(Yt.transpose(2, 3, 0, 1))
    # Y A^H = Y (I (x) Rc^H) + Y ((-rho T)^H (x) I), and A Y is its adjoint
    Z = _tiles_times(Y, Rc.conj().T)
    Z += (mT.conj() @ Y.reshape(m, m, n * n)).reshape(Y.shape)
    Z += _adj(Z)
    Z -= C
    return Y, np.vdot(Z, Z).real


def modal_h2(md):
    """(H2 norm, spectrum) of an error-form loop given as
    `closedloop.ModeData`, by Bartels-Stewart over the agent sub-blocks
    of the Gramian; the spectrum is the union of the mode spectra.

    With Lbar = U T U^H (complex Schur; Lbar may be defective, so no
    eigendecomposition) and Q the block-diagonal unitary that takes
    each diagonal block of D to Schur form, R = Q^H D Q is upper
    triangular and Q^H S Q = S.  In the coordinates U^H (x) Q^H the
    state matrix is I (x) R - rho T (x) S, whose diagonal blocks
    R_k = R - rho t_kk S, one per Laplacian eigenvalue, carry the
    spectrum.  Grouped by the n x n agent blocks p, q instead of by
    mode, the state matrix is block upper triangular with blocks
    I (x) R_pq off the diagonal and A_pp = I (x) R_pp on it, except
    A_cc = I (x) R_cc - rho T (x) I for the coupled block c.  The
    Gramian's sub-block Y_pq, an m x m array of n x n tiles (one per
    mode pair), then satisfies

        A_pp Y_pq + Y_pq A_qq^H = C_pq,
        C_pq = -W_pq - sum_{r>p} (I (x) R_pr) Y_rq - sum_{r>q} Y_pr (I (x) R_qr^H),

    which involves only pairs further down or right, so the pairs are
    solved from the bottom right (`_sweep_plan`); Y is Hermitian, so
    only p <= q is solved (Y_qp = Y_pq^H), and a sub-block is kept only
    until the last pair it feeds.  Each pair is one solve for all m^2
    mode tiles at once:

    * neither block coupled: one triangular solve with
      K = R_pp (x) I + I (x) conj(R_qq) (n^2 x n^2) and m^2 right-hand
      sides;
    * one side coupled (solved as (c, q), the other orientation by
      symmetry): back-substitution over the modes, each step one
      triangular solve with K - rho t_kk I and m right-hand sides;
    * (c, c): per entry pair i <= j of the n x n tiles, one triangular
      Sylvester equation of size m, with (R_ii + conj(R_jj)) I - rho T
      on the left and -rho T on the right; tile entries j < i follow by
      symmetry.

    Neither U nor Q mixes the output block with others, so the norm is
    the sum of the traces of the output tiles of Y_kk.

    The Hurwitz test runs on the union of the mode spectra.  Each solve
    returns ||A_pp Y_pq + Y_pq A_qq^H - C_pq||_F^2 for its own solution
    and right-hand side; since C_pq carries the coupling to the pairs
    already solved, the sum over pairs (off-diagonal pairs twice) is the
    squared Frobenius residual of the whole Gramian equation.  It is
    checked in these unitarily similar coordinates against a cap from
    max_k ||R_k||_2 and max_k ||Y_kk||_2, lower bounds of ||A||_2 and
    ||X||_2, which is stricter than the dense path's test.
    """
    if not np.isfinite(md.D).all():
        raise DimensionMismatch("mode block contains NaN or Inf entries")
    T, U = _schur(md.L_reduced)
    m, d, n, rho = T.shape[0], md.D.shape[0], md.n, md.rho
    b, c = d // n, md.coupled
    Q = np.zeros((d, d), dtype=complex)
    for i in range(b):
        blk = md.block(i)
        Q[blk, blk] = _schur(md.D[blk, blk])[1]
    Qh = Q.conj().T
    S = np.zeros(d)
    S[md.block(c)] = 1.0
    R = np.triu(Qh @ md.D @ Q)
    Rk = R - (rho * T.diagonal())[:, None, None] * np.diag(S)
    spectrum = Rk.diagonal(axis1=1, axis2=2).ravel()
    require_hurwitz(spectrum)

    # W_pq[k, l] = sum_ab (G_a G_b^H)_kl (Q^H E_a)_p (Q^H E_b)_q^H with
    # G_a = U^H M_a: m^2 x a^2 weights (Gam) of n x n outer products (negW,
    # negated because the solves take -W)
    G = U.conj().T @ md.M
    a = G.shape[0]
    Gf = G.transpose(1, 0, 2).reshape(m * a, -1)
    Gam = (Gf @ Gf.conj().T).reshape(m, a, m, a).transpose(0, 2, 1, 3).reshape(m * m, a * a)
    QE = (Qh @ md.E).reshape(a * d, -1)
    negW = -(QE @ QE.conj().T).reshape(a, b, n, a, b, n).transpose(1, 4, 0, 3, 2, 5)
    negW = negW.reshape(b, b, a * a, n * n)
    Rt = R.reshape(b, n, b, n).transpose(0, 2, 1, 3)  # Rt[p, q] = R_pq
    RtH = Rt.conj().transpose(0, 1, 3, 2)  # RtH[p, q] = R_pq^H
    nonzero = Rt.any(axis=(2, 3)).tolist()
    # K[p, q] = R_pp (x) I + I (x) conj(R_qq): Y -> R_pp Y + Y R_qq^H on
    # row-major vectorized n x n tiles, upper triangular
    In = np.eye(n)
    Rd = Rt[np.arange(b), np.arange(b)]
    K = (Rd[:, None, :, None, :, None] * In[:, None, :]
         + In[:, None, :, None] * Rd.conj()[:, None, :, None, :]).reshape(b, b, n * n, n * n)

    pairs, drop = _sweep_plan(b, nonzero)
    Y = {}  # Y[p, q], p <= q: sub-block (p, q) as (m, m, n, n)
    Yd = np.empty((b, b, m, n, n), dtype=complex)  # diagonal tiles Y_pq[k, k]
    res_sq = 0.0
    for i, (p, q) in enumerate(pairs):
        # C_pq; the (I (x) R_pr) Y_rq terms as (Y_qr (I (x) R_pr^H))^H
        C = (Gam @ negW[p, q]).reshape(m, m, n, n)
        for r in range(q + 1, b):
            if nonzero[q][r]:
                C -= _tiles_times(Y[p, r], RtH[q, r])
        for r in range(p + 1, b):
            if nonzero[p][r]:
                Yqr = Y[q, r] if q <= r else _adj(Y[r, q])
                C -= _adj(_tiles_times(Yqr, RtH[p, r]))
        if p == q == c:
            Y[p, q], r2 = _solve_both_coupled(Rt[c, c], T, rho, C)
        elif p == c:
            Y[p, q], r2 = _solve_one_coupled(K[c, q], T, rho, C)
        elif q == c:  # solved as its conjugate transpose, pair (c, p)
            Ycp, r2 = _solve_one_coupled(K[c, p], T, rho, np.ascontiguousarray(_adj(C)))
            Y[p, q] = np.ascontiguousarray(_adj(Ycp))
        else:
            Y[p, q], r2 = _solve_uncoupled(K[p, q], C, p == q)
        res_sq += (1.0 if p == q else 2.0) * r2
        Yd[p, q] = Y[p, q].reshape(m * m, n, n)[::m + 1]
        for pq in drop[i]:
            del Y[pq]
    lower = np.tril(np.ones((b, b), dtype=bool), -1)
    Yd[lower] = Yd.transpose(1, 0, 2, 4, 3)[lower].conj()
    Ykk = Yd.transpose(2, 0, 3, 1, 4).reshape(m, d, d)
    # largest eigenvalues of the Hermitian Y_kk and R_k^H R_k in one call
    RkH = Rk.conj().transpose(0, 2, 1)
    top = np.linalg.eigvalsh(np.concatenate([Ykk, RkH @ Rk]))[:, -1]
    out = md.block(md.output)
    require_lyapunov_residual(np.sqrt(res_sq), np.sqrt(top[m:].max()), top[:m].max(),
                              spectrum)
    h2sq = np.trace(Ykk[:, out, out], axis1=1, axis2=2).real.sum()
    return float(np.sqrt(max(0.0, h2sq))), spectrum
