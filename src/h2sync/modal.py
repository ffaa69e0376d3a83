"""The modal H2 kernel: the disturbance-to-error H2 norm and the mode
spectrum of an error-form loop given as `closedloop.ModeData`, without
forming the dense loop.

The loop is I (x) D - rho Lbar (x) S per agent.  In the complex Schur
form of Lbar and of the diagonal blocks of D it is block upper
triangular twice over: by graph mode and by agent sub-block.  The
Hurwitz test reads the mode spectra off the diagonal, and the Lyapunov
equation is solved by Bartels-Stewart over the Gramian's agent
sub-blocks, each pair of sub-blocks entry by entry of its n x n tiles,
each entry one m x m triangular equation for all mode pairs at once
(`modal_h2`).  The number of LAPACK calls does not depend on the number
of agents.  The dense Lyapunov solve on `ModeData.dense` is the
reference the tests compare it against.
"""

import numpy as np
from scipy.linalg.lapack import zgees as _gees, ztrsyl as _trsyl, ztrtrs as _trtrs

from .linalg import require_hurwitz, require_lyapunov_residual


def _left(R, Y):
    """(I (x) R) Y for a Gramian sub-block Y kept entry-major, as an
    n x n array of m x m mode tiles, shape (n, n, m, m): entry (i, j)
    becomes sum_k R_ik Y_kj."""
    return (R @ Y.reshape(len(Y), -1)).reshape(len(R), *Y.shape[1:])


def _right(Y, R):
    """Y (I (x) R^H) for a sub-block Y kept entry-major: entry (i, j)
    becomes sum_k conj(R_jk) Y_ik."""
    return (R.conj() @ Y.reshape(*Y.shape[:2], -1)).reshape(len(Y), len(R), *Y.shape[2:])


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


def _solve_pair(Rp, Rq, cp, cq, mT, C, hermitian):
    """Solve A_p Y + Y A_q^H = C, A_p = I (x) Rp + cp mT (x) I, for one
    sub-block pair kept entry-major (C is (n, n, m, m)); return Y and
    ||residual||_F^2.

    Rp, Rq and mT are upper triangular, so the tile entries (i, j) are
    solved from the bottom right, each from its own m x m equation

        (a I + cp mT) X + X (cq mT)^H = C_ij - sum_{k>i} Rp_ik Y_kj
                                             - sum_{k>j} conj(Rq_jk) Y_ik,

    a = Rp_ii + conj(Rq_jj): by `ztrsyl` when both sides are coupled, by
    `ztrtrs` when one is, by a division when neither is.  A Hermitian
    (diagonal) pair solves only i <= j; Y_ji = Y_ij^H."""
    n = len(Rp)
    Ia, mTc = np.eye(len(mT)), mT.conj()
    Rl, Rql = Rp.tolist(), Rq.conj().tolist()
    Y = np.empty_like(C)
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, i - 1 if hermitian else -1, -1):
            rhs = C[i, j]
            for k in range(i + 1, n):
                rhs = rhs - Rl[i][k] * Y[k, j]
            for k in range(j + 1, n):
                rhs = rhs - Rql[j][k] * Y[i, k]
            a = Rl[i][i] + Rql[j][j]
            if cp and cq:
                x, scale, _ = _trsyl(a * Ia + mT, mT, rhs, tranb="C")
                if scale != 1.0:
                    x /= scale
            elif cp:
                x = _trtrs(a * Ia + mT, rhs)[0]
            elif cq:  # X (a I + mT^H) = rhs, transposed
                x = _trtrs(a * Ia + mTc, rhs.T)[0].T
            else:
                x = rhs / a
            if hermitian and i == j:
                x = 0.5 * (x + x.conj().T)
            Y[i, j] = x
            if hermitian:
                Y[j, i] = x.conj().T
    res = _left(Rp, Y)
    if cp:
        res += mT @ Y
    if hermitian:  # Y A_q^H = (A_p Y)^H
        res += res.conj().transpose(1, 0, 3, 2)
    else:
        res += _right(Y, Rq)
        if cq:
            res += Y @ mTc.T
    res -= C
    return Y, np.vdot(res, res).real


def _modes(md):
    """The Schur coordinates of an error-form loop `md` (see `modal_h2`):
    (T, U) of Lbar, the block-diagonal unitary Q, R = triu(Q^H D Q), the
    mode blocks R_k = R - rho t_kk S, and the spectrum, the union of
    their diagonals."""
    T, U = _schur(md.L_reduced)
    d = md.D.shape[0]
    Q = np.zeros((d, d), dtype=complex)
    for i in range(d // md.n):
        blk = md.block(i)
        Q[blk, blk] = _schur(md.D[blk, blk])[1]
    S = np.zeros(d)
    S[md.block(md.coupled)] = 1.0
    R = np.triu(Q.conj().T @ md.D @ Q)
    Rk = R - (md.rho * T.diagonal())[:, None, None] * np.diag(S)
    return T, U, Q, R, Rk, Rk.diagonal(axis1=1, axis2=2).ravel()


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
    until the last pair it feeds.  Each sub-block is kept entry-major,
    as an n x n array of m x m tiles (one per state pair, over all mode
    pairs), and each pair is solved by one rule (`_solve_pair`):
    entry by entry from the bottom right, each entry one triangular
    equation of size m with (R_pp,ii + conj(R_qq,jj)) I on the left,
    plus -rho T on each coupled side.  The pair's structure picks the
    leaf: a Sylvester solve when both sides are coupled, a triangular
    solve when one is, a division when neither is.

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
    T, U, Q, R, Rk, spectrum = _modes(md)
    require_hurwitz(spectrum)
    m, d, n, rho = T.shape[0], md.D.shape[0], md.n, md.rho
    b, c = d // n, md.coupled

    # W_pq[k, l] = sum_ab (G_a G_b^H)_kl (Q^H E_a)_p (Q^H E_b)_q^H with
    # G_a = U^H M_a, entry-major as negW[p, q] @ Gam: the n x n outer
    # products (n^2 x a^2, negated because the solves take -W) times the
    # mode weights (a^2 x m^2)
    G = U.conj().T @ md.M
    a = G.shape[0]
    Gf = G.transpose(1, 0, 2).reshape(m * a, -1)
    Gam = (Gf @ Gf.conj().T).reshape(m, a, m, a).transpose(1, 3, 0, 2).reshape(a * a, m * m)
    QE = (Q.conj().T @ md.E).reshape(a * d, -1)
    negW = -(QE @ QE.conj().T).reshape(a, b, n, a, b, n).transpose(1, 4, 2, 5, 0, 3)
    negW = negW.reshape(b, b, n * n, a * a)
    Rt = R.reshape(b, n, b, n).transpose(0, 2, 1, 3)  # Rt[p, q] = R_pq
    nonzero = Rt.any(axis=(2, 3)).tolist()
    mT = -rho * T

    pairs, drop = _sweep_plan(b, nonzero)
    Y = {}  # Y[p, q], p <= q: sub-block (p, q), entry-major (n, n, m, m)
    Yd = np.empty((b, b, m, n, n), dtype=complex)  # diagonal tiles Y_pq[k, k]
    res_sq = 0.0
    for i, (p, q) in enumerate(pairs):
        C = (negW[p, q] @ Gam).reshape(n, n, m, m)
        for r in range(p + 1, b):
            if nonzero[p][r]:  # (I (x) R_pr) Y_rq, for r > q as (Y_qr (I (x) R_pr^H))^H
                C -= (_left(Rt[p, r], Y[r, q]) if r <= q
                      else _right(Y[q, r], Rt[p, r]).conj().transpose(1, 0, 3, 2))
        for r in range(q + 1, b):
            if nonzero[q][r]:
                C -= _right(Y[p, r], Rt[q, r])
        Y[p, q], r2 = _solve_pair(Rt[p, p], Rt[q, q], p == c, q == c, mT, C, p == q)
        res_sq += (1.0 if p == q else 2.0) * r2
        Yd[p, q] = Y[p, q].reshape(n, n, m * m)[:, :, ::m + 1].transpose(2, 0, 1)
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
