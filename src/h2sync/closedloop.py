"""Networked closed-loop assembly and disturbance-to-error norms.

Two independent assembly paths are provided on purpose:

* `assemble_p1` / `assemble_p2` write the system in synchronization-
  error coordinates (the compact Hurwitz form the analysis works on)
  through one assembler, `_assemble`: Protocol 1's loop is the leading
  (xbar, e) sub-loop of Protocol 2's, which appends the filter error
  ebar.  Each returns a `ModeData`, whose dense A_cl, B_cl, C_cl are
  derived (`ModeData.dense`, agent by agent) on every read and not kept;
* `assemble_stacked` builds the raw network of N plants plus their
  controllers straight from the protocol's canonical (Ac, Bc, Cc, Fc,
  Hc) form and the full Laplacian, as a dense `ClosedLoop`;
  `reduce_to_differences` then removes the marginally stable
  synchronized motion: it subtracts agent N's rows from every other
  agent's and keeps the columns of agents 1..N-1.

The error-coordinate derivation is the bug-prone step, so tests diff
the two paths against each other, entry by entry through the transfer
function as well as through the H2 norm.

`error_h2` analyzes a `ModeData` per graph mode with the kernel of
`h2sync.modal`: ordered agent by agent, an error-form A_cl is
I (x) D - rho Lbar (x) S, one block D of size d (2n for p1, 3n for p2)
per agent, coupled through the graph on the e block only (S selects
it), and its input is Pi (x) E plus, for p2, Lbar Pi (x) E, whose graph
factors `ModeData` derives from Lbar and does not take.  The dense
Lyapunov solve on A_cl and the stacked assembly stay the reference
paths.  A `ClosedLoop` is only its dense triple; `error_h2` solves any
one densely, so the Hurwitz gate, not a tag, refuses a raw stacked loop
(marginal along the synchronized motion).  Both paths take their
Hurwitz-margin and Lyapunov-residual decisions from `linalg`
(`require_hurwitz`, `require_lyapunov_residual`).
"""

import io
import numbers
from dataclasses import dataclass, field

import numpy as np

from .conditions import AgentModel
from .errors import DimensionMismatch, RhoOutOfRange, _require_instance
from .graph import CommGraph, LaplacianPair, laplacian
from .linalg import _as_matrix, h2_norm, require_rho
from .modal import modal_h2
from .protocol import ProtocolRealization, _require_fits, controller_matrices, design

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


@dataclass(frozen=True)
class ModeData:
    """An error-form loop in agent-major order: the one definition of
    the loop, which the modal H2 kernel solves and `dense` lays out.

    With z_k the d = b n states of agent k (k < N-1, b >= 2), the loop is

        dz = [I (x) D - rho Lbar (x) S] z + sum_a (M[a] (x) E[a]) w,
        y  = (I (x) C_out) z,

    where D is block upper triangular in n x n blocks, S is the
    identity on block `coupled` (e, block 1) and zero elsewhere, and
    C_out selects block `output` (xbar, block 0).  E holds one or two
    agent-side input blocks (each d x w).  M, the matching graph-side
    factors (each (N-1) x N), is not set but derived from Lbar when the
    loop is built: Pi = [I, -1], then Lbar Pi.  A_cl, B_cl and C_cl read
    the dense triple afresh each time; the loop never keeps it, so it
    stays the size of its blocks.  The arrays must be finite, real and
    of these shapes, n an integer and rho a finite real number, checked
    when it is built.  Frozen: change a field with `dataclasses.replace`,
    which checks the new loop again and derives its M afresh.
    """

    coupled, output = 1, 0  # the blocks of e and xbar: constants, not fields

    D: np.ndarray
    n: int
    rho: float
    L_reduced: np.ndarray
    E: np.ndarray
    M: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise DimensionMismatch(f"n must be an integer, got {self.n!r}")
        if not (isinstance(self.rho, numbers.Real) and -np.inf < self.rho < np.inf):
            raise DimensionMismatch(f"rho must be a finite real number, got {self.rho!r}")
        D, L_reduced = _as_matrix(self.D, "D"), _as_matrix(self.L_reduced, "L_reduced")
        E = _as_matrix(self.E, "E", ndim=3)
        b = D.shape[0] // self.n if self.n >= 1 else 0
        if b < 2 or D.shape != (b * self.n, b * self.n):
            raise DimensionMismatch(
                f"mode block of shape {D.shape} is not made of two or more "
                f"{self.n} x {self.n} blocks"
            )
        m = L_reduced.shape[0]
        if m < 1 or L_reduced.shape != (m, m):
            raise DimensionMismatch(f"L_reduced must be square with N - 1 >= 1 rows, "
                                    f"got {L_reduced.shape}")
        if not 1 <= E.shape[0] <= 2 or E.shape[1] != b * self.n:
            raise DimensionMismatch(f"input blocks E {E.shape} are not one or two "
                                    f"blocks of {b * self.n} rows")
        if np.tril(D.reshape(b, self.n, b, self.n).any(axis=(1, 3)), -1).any():
            raise DimensionMismatch("mode block is not block upper triangular")
        Pi = np.hstack([np.eye(m), -np.ones((m, 1))])
        M = np.stack([Pi, L_reduced @ Pi] if len(E) == 2 else [Pi])
        for name, value in (("D", D), ("L_reduced", L_reduced), ("E", E), ("M", M)):
            object.__setattr__(self, name, value)

    @property
    def n_agents(self):
        return self.L_reduced.shape[0] + 1

    A_cl = property(lambda self: self.dense()[0])
    B_cl = property(lambda self: self.dense()[1])
    C_cl = property(lambda self: self.dense()[2])

    def block(self, i):
        """Slice of the states of block i within an agent."""
        return slice(i * self.n, (i + 1) * self.n)

    def dense(self):
        """The loop as dense (A_cl, B_cl, C_cl), agent by agent, exactly
        as the class docstring writes it."""
        m, d, n = self.L_reduced.shape[0], self.D.shape[0], self.n
        e, k, In = self.block(self.coupled), np.arange(m), np.eye(n)
        A = np.zeros((m, d, m, d))  # [agent, state, agent, state]
        A[k, :, k, :] = self.D
        A[:, e, :, e] -= self.rho * self.L_reduced[:, None, :, None] * In[:, None, :]
        B = (self.M[:, :, None, :, None] * self.E[:, None, :, None, :]).sum(axis=0)
        C = np.zeros((m, n, m, d))
        C[k, :, k, self.block(self.output)] = In
        return A.reshape(m * d, m * d), B.reshape(m * d, -1), C.reshape(m * n, m * d)


@dataclass
class ClosedLoop:
    """A dense state-space map (A_cl, B_cl, C_cl) from stacked
    disturbances to synchronization errors, and nothing else: the raw
    stacked network or its reduction.  The error-form assemblers return
    `ModeData` instead.
    """

    A_cl: np.ndarray
    B_cl: np.ndarray
    C_cl: np.ndarray


def assemble_p1(model: AgentModel, real: ProtocolRealization, lp: LaplacianPair):
    """Error-form closed loop for Protocol 1, as `ModeData`: per agent
    the states (xbar, e), each of dimension n, with e = xbar - chibar.

        dxbar = [I (x) (A - rho BB^T P)] xbar + rho [I (x) BB^T P] e + (Pi (x) E) w
        de    = [I (x) A - rho Lbar (x) I] e + (Pi (x) E) w
    """
    return _assemble(model, real, lp, "p1")


def assemble_p2(model: AgentModel, real: ProtocolRealization, lp: LaplacianPair):
    """Error-form closed loop for Protocol 2, as `ModeData`: per agent
    the states (xbar, e, ebar), each of dimension n, with
    e = xbar - chibar and ebar = (Lbar (x) I) xbar - xtilde; this order
    makes D block upper triangular.

        dxbar = [I (x) (A - rho BB^T P)] xbar + rho [I (x) BB^T P] e + (Pi (x) E) w
        debar = [I (x) (A - delta^-2 Q C^T C)] ebar + (Lbar Pi (x) E) w
        de    = [I (x) A - rho Lbar (x) I] e + rho ebar + (Pi (x) E) w
    """
    return _assemble(model, real, lp, "p2")


def _assemble(model: AgentModel, real: ProtocolRealization, lp: LaplacianPair, kind=None):
    """The error-form loop of the protocol `real` realizes, which must be
    `kind` when one is given: Protocol 1's (xbar, e) loop with its input
    Pi (x) [E; E], and for p2 that loop with the filter error ebar and its
    input Lbar Pi (x) E appended.  `ModeData` derives the factors Pi and
    Lbar Pi from Lbar."""
    _require_fits(real, model)
    _require_instance(lp, LaplacianPair)
    if kind is not None and real.kind != kind:
        raise DimensionMismatch(
            f"realization kind {real.kind!r} does not match assembler {kind!r}"
        )
    n, rho = model.n, real.rho
    b = 3 if real.kind == "p2" else 2  # blocks per agent: xbar, e (and ebar)
    x, e, f = (slice(k * n, (k + 1) * n) for k in range(3))
    BBtP = model.B @ model.B.T @ real.P
    D, E = np.zeros((b * n, b * n)), np.zeros((b - 1, b * n, model.w))
    D[x, x], D[x, e], D[e, e] = model.A - rho * BBtP, rho * BBtP, model.A
    E[0, x] = E[0, e] = model.E
    if b == 3:  # the filter error ebar: its row and column and the second input term
        D[e, f] = rho * np.eye(n)
        D[f, f] = model.A - (real.Q_rho @ model.C.T @ model.C) / real.delta**2
        E[1, f] = model.E
    return ModeData(D=D, n=n, rho=rho, L_reduced=lp.L_reduced, E=E)


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
    return ClosedLoop(A_cl, B_cl, C_cl)


def reduce_to_differences(cl: ClosedLoop, model: AgentModel,
                          real: ProtocolRealization):
    """Reduce a raw stacked loop to the differences against agent N and
    drop the synchronized (marginal) motion.

    Each agent's plant rows and controller rows lose agent N's, and the
    columns of agents 1..N-1 are kept: the difference states
    (x_i - x_N, x_ci - x_cN) close on themselves, so the kept block
    realizes the same disturbance-to-xbar map and is Hurwitz when the
    design conditions hold.  They close exactly when every differenced
    row sums to zero over the agents, plant columns and controller
    columns apart.  N is read off A_cl, as its rows over n + n_c.
    DimensionMismatch unless `cl` is a `ClosedLoop` of a whole N >= 2
    agents whose A_cl, B_cl and C_cl have the shapes `assemble_stacked`
    gives (model, real), or if its difference states do not close on
    themselves.
    """
    _require_instance(cl, ClosedLoop)
    _require_fits(real, model)
    n, nc = model.n, real.controller_state_dim
    N = (np.shape(cl.A_cl) or (0,))[0] // (n + nc)
    d = N * (n + nc)
    for name, shape in (("A_cl", (d, d)), ("B_cl", (d, N * model.w)), ("C_cl", ((N - 1) * n, d))):
        got = np.shape(getattr(cl, name))
        if N < 2 or got != shape:
            raise DimensionMismatch(f"{name} of shape {got} is not that of a stacked loop of "
                                    f"N >= 2 agents of {n} + {nc} states")

    def differences(M):  # the plant and controller rows of agents 1..N-1 less agent N's
        blocks = M[: N * n].reshape(N, n, -1), M[N * n :].reshape(N, nc, -1)
        return np.vstack([(X[:-1] - X[-1]).reshape((N - 1) * X.shape[1], -1) for X in blocks])

    A_d = differences(cl.A_cl)
    keep = np.r_[: (N - 1) * n, N * n : d - nc]
    # the difference states must close on themselves; leakage from the
    # absolute states means the loop was not built from a diffusive protocol
    # (the cap's largest column norm is at most ||A_cl||_2 and needs no SVD)
    sums = (A_d[:, : N * n].reshape(-1, N, n).sum(axis=1),
            A_d[:, N * n :].reshape(-1, N, nc).sum(axis=1))
    leak = max(np.abs(s).max() for s in sums)
    if leak > 1e-9 * (1.0 + np.linalg.norm(cl.A_cl, axis=0).max()):
        raise DimensionMismatch(
            f"difference states do not decouple (leakage {leak:.2e}); "
            "is this a diffusively coupled network?"
        )
    return ClosedLoop(A_d[:, keep], differences(cl.B_cl), cl.C_cl[:, keep])


def error_h2(cl: ModeData | ClosedLoop):
    """H2 norm of the disturbance-to-xbar map; requires A_cl Hurwitz.

    A `ModeData` is solved per graph mode (see `modal_h2`); a
    `ClosedLoop` by a Lyapunov solve on A_cl, whose Hurwitz gate refuses
    a raw stacked loop of marginal agents with NotHurwitz (reduce it
    with `reduce_to_differences` first).  DimensionMismatch for any
    other type.
    """
    if isinstance(cl, ModeData):
        return modal_h2(cl)[0]
    _require_instance(cl, (ModeData, ClosedLoop))
    return h2_norm(cl.A_cl, cl.B_cl, cl.C_cl)


def rho_scaling_probe(model: AgentModel, g: CommGraph, kind: str, rho_list, delta=None):
    """Design once, then realize + assemble + measure for each rho.

    Returns a list of (rho, h2, rho*h2, spectral_abscissa) rows,
    ordered by rho, the abscissa read off the mode spectra (no dense
    loop is formed).  For p2, `delta` fixes the low-gain parameter;
    None means the halving search runs per rho.  RhoOutOfRange, before
    any design, unless rho_list is an iterable of valid rho values.
    """
    try:
        rhos = list(rho_list)
    except TypeError:
        raise RhoOutOfRange(f"rho_list must be a list of rho values, got {rho_list!r}") from None
    for rho in rhos:
        require_rho(rho)
    des = design(model, kind, g)
    lp = laplacian(g)
    rows = []
    for rho in sorted(rhos):
        h2, spectrum = modal_h2(_assemble(model, des.realize(rho, delta), lp))
        rows.append((rho, h2, rho * h2, float(spectrum.real.max())))
    return rows


def probe_to_csv(rows) -> str:
    """CSV with columns rho,h2,rho_times_h2,spectral_abscissa."""
    buf = io.StringIO()
    buf.write("rho,h2,rho_times_h2,spectral_abscissa\n")
    for rho, h2, rh2, absc in rows:
        buf.write(f"{rho:.17g},{h2:.17g},{rh2:.17g},{absc:.17g}\n")
    return buf.getvalue()
