"""Executable solvability checks for the two protocol designs.

Full-state coupling (Protocol 1, C = I) requires: (a) (A,B)
stabilizable, (b) all eigenvalues of A in the closed left half plane,
(c) the graph contains a directed spanning tree, (d) im E within im B.

Partial-state coupling (Protocol 2) requires: (a) (A,B) stabilizable and
(C,A) detectable, (b) closed-left-half-plane A, (c) (A,E,C,0) minimum
phase and left invertible, (d) spanning tree, (e) im E within im B.
A model is its four matrices; `full_report`'s protocol kind picks the set.

Every condition but the spanning tree depends on the model alone, so
`full_report` computes that half once per model and coupling and
remembers it (a bounded memo keyed on the thresholds in force and the
bytes of A, B, C, E, so an in-place edit of a model array or a new
`tolerances.DEFAULT` is computed afresh); the graph half runs on every
call.  Each report gets its own copies of the memo's arrays.
"""

import functools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg as sla

from . import tolerances
from .errors import (
    DimensionMismatch,
    H2SyncError,
    ParseError,
    PreconditionFailed,
    RankDeficientEverywhere,
    _lines,
)
from .graph import CommGraph, has_spanning_tree
from .linalg import _as_matrix, _as_system, spectral_abscissa

__all__ = [
    "AgentModel",
    "SolvabilityReport",
    "check_stabilizable",
    "check_detectable",
    "check_clhp",
    "check_disturbance_match",
    "check_minphase_leftinv",
    "invariant_zeros",
    "full_report",
    "parse_model",
    "model_to_text",
]

# fixed seed for the randomized normal-rank probe points: rank decisions
# must be reproducible run to run
_RANK_PROBE_SEED = 1729

# distinct keys each synthesis memo keeps (`_model_conditions` here,
# `protocol._care_solution` and `protocol._filter_solution`); agent
# models are small, so an entry costs a few of its n x n matrices, and
# the filter memo's keys are (model, rho, delta): 16 hold a 13-rho grid
_MEMO_SIZE = 16


@dataclass
class AgentModel:
    """One agent of the homogeneous network: dx = Ax + Bu + Ew, y = Cx."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        self.A, self.B, self.C, self.E = _matrices(self)

    @classmethod
    def full_state(cls, A, B, E):
        A = _as_system(A)[0]
        return cls(A, B, np.eye(A.shape[0]), E)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def w(self):
        return self.E.shape[1]


def _require_model(model):
    """DimensionMismatch unless model is an AgentModel."""
    if not isinstance(model, AgentModel):
        raise DimensionMismatch(f"expected an AgentModel, got {type(model).__name__}")


def _matrices(model):
    """(A, B, C, E) of `model` through the `linalg` input gate, as they
    are now: the fields are plain attributes a caller may reassign.
    DimensionMismatch unless model is an AgentModel."""
    _require_model(model)
    A, B, C = _as_system(model.A, model.B, model.C)
    return A, B, C, _as_system(A, model.E, names="AE")[1]


@dataclass
class SolvabilityReport:
    """Outcome of every applicable solvability check."""

    coupling_kind: str
    stabilizable: bool
    detectable: bool
    clhp_eigs: bool
    spanning_tree: Optional[bool]  # None (condition left out) without a graph
    disturbance_matched: bool
    disturbance_gain: np.ndarray  # X with B X ~= E (least squares)
    minphase_leftinv: bool
    invariant_zeros: list
    overall: bool = field(init=False)

    def __post_init__(self):
        self.overall = not self.failed_conditions()

    def condition_values(self):
        """(letter, name, passed) for each condition of the coupling,
        lettered (a), (b), ... in reporting order; the spanning tree
        is left out, keeping its letter, when it is None."""
        if self.coupling_kind == "full-state":
            named = [("stabilizable", self.stabilizable), ("clhp_eigs", self.clhp_eigs)]
        else:
            named = [("stabilizable_and_detectable", self.stabilizable and self.detectable),
                     ("clhp_eigs", self.clhp_eigs),
                     ("minphase_leftinv", self.minphase_leftinv)]
        named += [("spanning_tree", self.spanning_tree),
                  ("disturbance_matched", self.disturbance_matched)]
        return [(f"({letter})", name, bool(ok))
                for letter, (name, ok) in zip("abcde", named) if ok is not None]

    def failed_conditions(self):
        return [(letter, name) for letter, name, ok in self.condition_values() if not ok]

    def require(self):
        """Raise PreconditionFailed naming every failed condition, with
        `condition` set to the first failed letter."""
        failed = self.failed_conditions()
        if failed:
            names = ", ".join(f"{letter} {name}" for letter, name in failed)
            raise PreconditionFailed(
                f"condition(s) violated: {names}", condition=failed[0][0]
            )

    def to_text(self):
        """Flat key/value serialization used by the CLI `check` command."""
        lines = [f"coupling_kind={self.coupling_kind}"]
        for key in (
            "stabilizable",
            "detectable",
            "clhp_eigs",
            "spanning_tree",
            "disturbance_matched",
            "minphase_leftinv",
        ):
            lines.append(f"{key}={str(getattr(self, key)).lower()}")
        zeros = " ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in self.invariant_zeros)
        lines.append(f"invariant_zeros={zeros}")
        failed = " ".join(
            f"{letter}:{name}" for letter, name in self.failed_conditions()
        )
        lines.append(f"failed_conditions={failed}")
        lines.append(f"overall={str(self.overall).lower()}")
        return "\n".join(lines) + "\n"


def _clhp_margin(A):
    """How far right of the imaginary axis an eigenvalue or zero of A's
    system may lie and still count as in the closed left half plane."""
    return tolerances.DEFAULT.clhp_margin * (1.0 + np.linalg.norm(A, 2))


def check_stabilizable(A, B) -> bool:
    """PBH stabilizability: rank [lI - A, B] = n at unstable eigenvalues."""
    A, B, _ = _as_system(A, B)
    n = A.shape[0]
    margin = _clhp_margin(A)
    for lam in np.linalg.eigvals(A):
        if lam.real < -margin:
            continue
        if _rank(np.hstack([lam * np.eye(n) - A, B])) < n:
            return False
    return True


def check_detectable(A, C) -> bool:
    """Dual PBH: (C, A) is detectable iff (A^T, C^T) is stabilizable."""
    A, _, C = _as_system(A, C=C)
    return check_stabilizable(A.T, C.T)


def check_clhp(A) -> bool:
    """All eigenvalues of A in the closed left half plane."""
    A = _as_system(A)[0]
    return spectral_abscissa(A) <= _clhp_margin(A)


def check_disturbance_match(B, E):
    """Test im E within im B; returns (matched, X) with X = argmin ||BX - E||."""
    B = _as_matrix(B, "B")
    if not B.shape[0]:
        raise DimensionMismatch(f"B must have n >= 1 rows, got {B.shape}")
    E = _as_matrix(E, "E", rows=B.shape[0])
    X, *_ = np.linalg.lstsq(B, E, rcond=None)
    resid = np.linalg.norm(B @ X - E, 2)
    return bool(resid <= tolerances.DEFAULT.rank_rel * (1.0 + np.linalg.norm(E, 2))), X


def _pencil(A, E, C, s):
    n = A.shape[0]
    return np.block(
        [[s * np.eye(n) - A, -E], [C.astype(complex), np.zeros((C.shape[0], E.shape[1]))]]
    )


def _rank(M):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tolerances.DEFAULT.rank_rel * sv[0]))


def invariant_zeros(A, E, C):
    """Finite invariant zeros of the channel (A, E, C, 0).

    Normal rank is certified at two random probe points with |s| in
    [1, 10], re-drawn if within 1e-3 of an eigenvalue of A.  Raises
    RankDeficientEverywhere when the normal rank is below n + w (the
    channel is not left invertible and the zero list is undefined).
    Zeros come from the generalized eigenproblem on the pencil
    (M, N) = ([[A, E], [C, 0]], diag(I, 0)); infinite eigenvalues are
    discarded, including candidates beyond the zero_infinity_radius
    trust region (the split infinite structure of rounded data).  For
    non-square pencils a random row/column compression squares the
    problem and each candidate is verified against the original pencil.
    """
    A, E, C = _as_system(A, E, C, names="AEC")
    n, w, p = A.shape[0], E.shape[1], C.shape[0]

    rng = np.random.default_rng(_RANK_PROBE_SEED)
    eigs = np.linalg.eigvals(A)

    def draw_point():
        for _ in range(100):
            s = rng.uniform(1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if np.min(np.abs(s - eigs)) > 1e-3:
                return s
        raise H2SyncError("could not draw a probe point away from the spectrum of A")

    normal_rank = max(_rank(_pencil(A, E, C, draw_point())) for _ in range(2))
    if normal_rank < n + w:
        raise RankDeficientEverywhere(
            f"system pencil has normal rank {normal_rank} < n + w = {n + w}; "
            "the disturbance channel is not left invertible"
        )

    # left invertibility forces p >= w, so the pencil is square or tall
    M = np.block([[A, E], [C, np.zeros((p, w))]])
    Npencil = sla.block_diag(np.eye(n), np.zeros((p, w)))
    if p == w:
        Mc, Nc = M, Npencil
    else:
        # square up the tall pencil by random row compression, then verify
        # candidates on the original pencil to drop compression artifacts
        T = rng.standard_normal((n + w, n + p))
        Mc, Nc = T @ M, T @ Npencil
    alpha, beta = sla.eig(Mc, Nc, right=False, homogeneous_eigvals=True)
    alpha, beta = np.ravel(alpha), np.ravel(beta)

    # rounding splits the infinite zero structure of high-relative-degree
    # channels into finite pairs of magnitude ~eps^(-1/k); anything beyond
    # the trust radius is classified as numerically infinite
    far = tolerances.DEFAULT.zero_infinity_radius * (1.0 + np.linalg.norm(A, 2))
    zeros = []
    for a, b in zip(alpha, beta):
        if np.abs(b) <= 1e-12 * max(1.0, np.abs(a)):
            continue  # infinite eigenvalue
        z = a / b
        if np.abs(z) > far:
            continue
        if p != w:
            sv = np.linalg.svd(_pencil(A, E, C, z), compute_uv=False)
            rank_floor = tolerances.DEFAULT.rank_rel * max(sv[0], 1.0) * 1e3
            if sv[min(n + p, n + w) - 1] > rank_floor:
                continue
        zeros.append(complex(z))
    return sorted(zeros, key=lambda z: (z.real, z.imag))


def check_minphase_leftinv(A, E, C):
    """Return (minimum phase and left invertible, finite invariant zeros).

    zeros is None when the channel is not left invertible.
    """
    A, E, C = _as_system(A, E, C, names="AEC")
    try:
        zeros = invariant_zeros(A, E, C)
    except RankDeficientEverywhere:
        return False, None
    margin = _clhp_margin(A)
    minphase = all(z.real < -margin for z in zeros)
    return bool(minphase), zeros


def _full_state(model):
    """Whether the agents exchange their full state, C = I."""
    return np.array_equal(model.C, np.eye(model.n))


def _coupling(model, kind):
    """The coupling whose conditions protocol `kind` has (see `full_report`)."""
    if kind not in (None, "p1", "p2"):
        raise DimensionMismatch(f"unknown protocol kind {kind!r}")
    if kind == "p1" and not _full_state(model):
        raise DimensionMismatch("full-state coupling requires C = I")
    full = kind == "p1" or kind is None and _full_state(model)
    return "full-state" if full else "partial-state"


def _memo_key(*mats):
    """Key of a model in a synthesis memo: the thresholds in force and the
    shape and bytes of each (gated, so float) matrix."""
    return (tolerances.DEFAULT,) + tuple((M.shape, M.tobytes()) for M in mats)


def _from_key(key):
    """The (read-only) matrices a `_memo_key` was made from."""
    return [np.frombuffer(data).reshape(shape) for shape, data in key[1:]]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _model_conditions(coupling, key):
    """The graph-free report of `full_report` (spanning_tree None) for
    the model in `key`; never handed out, only copies of it."""
    A, B, C, E = _from_key(key)
    stab, detect, clhp = check_stabilizable(A, B), check_detectable(A, C), check_clhp(A)
    matched, X = check_disturbance_match(B, E)
    if coupling == "partial-state":
        minphase, zeros = check_minphase_leftinv(A, E, C)
    else:
        minphase, zeros = True, []
    return SolvabilityReport(coupling, stab, detect, clhp, None, matched, X, minphase, zeros or [])


def full_report(model: AgentModel, g: Optional[CommGraph] = None, kind: Optional[str] = None):
    """Aggregate the solvability checks of protocol `kind` into one report;
    the model-only conditions when no graph is given.  "p1" checks the
    full-state conditions, "p2" the partial-state ones, None those of p1
    exactly when C = I.  DimensionMismatch for p1 with C != I, another
    kind, a model that is not an AgentModel or a g that is not a CommGraph."""
    key = _memo_key(*_matrices(model))
    half = _model_conditions(_coupling(model, kind), key)
    return replace(
        half, spanning_tree=None if g is None else has_spanning_tree(g)[0],
        disturbance_gain=half.disturbance_gain.copy(),
        invariant_zeros=list(half.invariant_zeros))


def parse_model(text: str) -> AgentModel:
    """Parse the model text format: `n m p w` header, then the entries
    of A (n rows), B (n rows), C (p rows), E (n rows), row-major."""
    tokens = []
    for ln in _lines(text, "model"):
        ln = ln.split("#", 1)[0].strip()
        if ln:
            tokens.extend(ln.split())
    if len(tokens) < 4:
        raise ParseError("model file must start with `n m p w`")
    try:
        n, m, p, w = (int(t) for t in tokens[:4])
    except ValueError:
        raise ParseError(f"bad header {' '.join(tokens[:4])!r}; expected 4 ints")
    if min(n, m, p, w) < 0:
        raise ParseError(f"header sizes must be >= 0, got {n} {m} {p} {w}")
    shapes = [(n, n), (n, m), (p, n), (n, w)]
    sizes = [rows * cols for rows, cols in shapes]
    if len(tokens) != 4 + sum(sizes):
        raise ParseError(
            f"expected {sum(sizes)} matrix entries for n={n} m={m} p={p} w={w}, "
            f"got {len(tokens) - 4}"
        )
    try:
        vals = np.array([float(t) for t in tokens[4:]])
    except ValueError as exc:
        raise ParseError(f"bad matrix entry: {exc}")
    A, B, C, E = (v.reshape(s) for v, s in zip(np.split(vals, np.cumsum(sizes)[:-1]), shapes))
    try:
        return AgentModel(A, B, C, E)
    except DimensionMismatch as exc:
        raise ParseError(str(exc))


def model_to_text(model: AgentModel) -> str:
    """Serialize a model in the `parse_model` format."""
    A, B, C, E = _matrices(model)
    out = [f"{A.shape[0]} {B.shape[1]} {C.shape[0]} {E.shape[1]}"]
    for M in (A, B, C, E):
        for row in M:
            out.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(out) + "\n"
