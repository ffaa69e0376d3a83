"""Synthesis of the two collaborative protocols.

Both protocols are parameterized by a single scalar rho >= 1 and are
built from the agent model alone; the communication graph and the
number of agents never enter the synthesis (that is what makes the
design scale-free).  Per model, `design` checks the solvability
conditions of protocol `kind` (`full_report(model, g, kind)`: p1 needs
C = I) and solves the control CARE for P, which does not depend on rho;
per rho, `ProtocolDesign.realize` solves the Protocol 2 filter Riccati
equation and searches delta.  `synthesize_p1` and `synthesize_p2` run
both steps for one rho.  All three results are remembered, each in a
bounded memo keyed on the thresholds in force and the bytes of the
gated model matrices it reads: the report's model half by
`full_report`, P by (A, B), and the filter solution (delta, Q) by
(A, C, E), rho and the given delta (None for the search).  So designing
the same model again (for another rho, kind or graph) solves no CARE,
and realizing the same (model, rho, delta) again solves no filter
Riccati.  A failed solve or search is not remembered, and each design
and realization gets its own copy of P and Q.

Protocol 1 (full-state coupling): controller state chi with
    dchi = A chi + B u + rho*zeta - rho*zetahat,   u = -rho B^T P chi
where P solves A^T P + P A - P B B^T P + I = 0.

Protocol 2 (partial-state coupling): controller state (xhat, chi) with
    dxhat = A xhat - rho B B^T P zetahat + delta^-2 Q C^T (zeta - C xhat)
    dchi  = A chi + B u + rho xhat - rho zetahat,  u = -rho B^T P chi
where Q > 0 solves the low-gain filter Riccati equation
    Q A^T + A Q + E E^T - delta^-2 Q C^T C Q + rho^2 Q^2 = 0.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tolerances
from .conditions import (
    _MEMO_SIZE,
    AgentModel,
    _from_key,
    _full_state,
    _matrices,
    _memo_key,
    _require_model,
    full_report,
)
from .errors import (
    DeltaSearchExhausted,
    DimensionMismatch,
    NoStabilizingSolution,
    NotPositiveDefinite,
    ParseError,
    RhoOutOfRange,
    _lines,
)
from .graph import CommGraph
from .linalg import (_as_matrix, _as_system, require_delta, require_rho, solve_care_standard,
                     solve_filter_riccati)

__all__ = [
    "ProtocolDesign",
    "ProtocolRealization",
    "design",
    "synthesize_p1",
    "synthesize_p2",
    "controller_matrices",
    "realization_to_text",
    "parse_realization",
]

DELTA_SEARCH_FLOOR = 1e-12
# the delta search sequence 1, 1/2, 1/4, ... above the floor, out of
# every power of two a double holds
_HALVING = tuple(2.0**-k for k in range(1075) if 2.0**-k > DELTA_SEARCH_FLOOR)


@dataclass
class ProtocolRealization:
    """Synthesized controller data for one value of rho.

    kind is "p1" or "p2"; delta and Q_rho are set for Protocol 2 only.
    Data no synthesis returns is rejected: RhoOutOfRange for rho, else
    DimensionMismatch (P and Q_rho must be finite, symmetric, n x n, and
    delta**2 a positive finite float).
    """

    kind: str
    rho: float
    P: np.ndarray
    delta: Optional[float] = None
    Q_rho: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("p1", "p2"):
            raise DimensionMismatch(f"unknown protocol kind {self.kind!r}")
        require_rho(self.rho)
        p2 = self.kind == "p2"
        if p2 != (self.delta is not None) or p2 != (self.Q_rho is not None):
            raise DimensionMismatch("delta and Q_rho are set for p2 and only for p2")
        self.P = _as_system(self.P, names="P")[0]
        if p2:
            require_delta(self.delta)
            try:
                square = float(self.delta) ** 2
            except OverflowError:
                square = np.inf
            if not 0.0 < square < np.inf:  # every consumer divides by delta**2
                raise DimensionMismatch(
                    f"delta**2 is not a positive finite float at delta={self.delta!r}")
            self.Q_rho = _as_matrix(self.Q_rho, "Q_rho", self.n, self.n)
        blocks = [("P", self.P), ("Q_rho", self.Q_rho)] if p2 else [("P", self.P)]
        for label, M in blocks:
            asym = np.linalg.norm(M - M.T)
            if asym > tolerances.DEFAULT.symmetry * max(1.0, np.linalg.norm(M)):
                raise DimensionMismatch(
                    f"{label} is not symmetric (Frobenius asymmetry {asym:.3g})")

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def controller_state_dim(self):
        return self.n if self.kind == "p1" else 2 * self.n


def _require_realization(real):
    """DimensionMismatch unless real is a ProtocolRealization."""
    if not isinstance(real, ProtocolRealization):
        raise DimensionMismatch(f"expected a ProtocolRealization, got {type(real).__name__}")


def _require_fits(real, model: AgentModel):
    """Raise DimensionMismatch unless `real` is a ProtocolRealization
    that belongs to the AgentModel `model`: the same n and, for p1,
    full-state coupling, for p2 a finite observer gain Q_rho C^T / delta**2."""
    _require_realization(real)
    _require_model(model)
    if real.n != model.n:
        raise DimensionMismatch(f"realization built for n={real.n}, model has n={model.n}")
    if real.kind == "p1" and not _full_state(model):
        raise DimensionMismatch("a p1 realization needs a full-state coupled model (C = I)")
    if real.kind == "p2":
        with np.errstate(all="ignore"):  # a tiny delta**2 overflows the gain
            gain = (real.Q_rho @ model.C.T) / real.delta**2
        if not np.all(np.isfinite(gain)):
            raise DimensionMismatch(
                f"observer gain Q_rho C^T / delta**2 is not finite at delta={real.delta!r}")


@dataclass
class ProtocolDesign:
    """A model that passed the conditions of protocol `kind`, with the
    CARE solution P; built by `design`, realized per rho by `realize`."""

    model: AgentModel
    kind: str
    P: np.ndarray

    def realize(self, rho: float, delta: Optional[float] = None):
        """The realization for one rho.  For p2, `delta` fixes the
        low-gain parameter and None takes the largest of 1, 1/2, 1/4, ...
        whose filter Riccati passes; p1 has no delta and ignores it.
        rho and a given delta are checked before the memo lookup (see
        `_filter_solution`) and solved as the floats the realization
        stores; a refusal is DeltaSearchExhausted, on every call."""
        require_rho(rho)
        rho = float(rho)
        if self.kind == "p1":
            return ProtocolRealization(kind="p1", rho=rho, P=self.P)
        if delta is not None:
            require_delta(delta)
            delta = float(delta)
        A, _, C, E = _matrices(self.model)
        d, Q = _filter_solution(_memo_key(A, C, E), rho, delta)
        return ProtocolRealization("p2", rho, self.P, d, Q.copy())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _care_solution(key):
    """P of the control CARE for the (A, B) in `key` (see `design`)."""
    return solve_care_standard(*_from_key(key)).solution


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _filter_solution(key, rho, delta):
    """(delta, Q) of the filter Riccati for the (A, C, E) in `key` at
    `rho`: at the given delta, or for None at the first of 1, 1/2,
    1/4, ... that passes (see `ProtocolDesign.realize`)."""
    A, C, E = _from_key(key)
    diagnostics = []
    for d in _HALVING if delta is None else (delta,):
        try:
            return d, solve_filter_riccati(A, E, C, rho, d).solution
        except (NoStabilizingSolution, NotPositiveDefinite) as exc:
            diagnostics.append((d, str(exc)))
    raise DeltaSearchExhausted(
        f"no feasible delta found down to {DELTA_SEARCH_FLOOR} for rho={rho}"
        if delta is None else
        f"filter Riccati failed at the given delta={delta}: {diagnostics[0][1]}",
        diagnostics=diagnostics,
    )


def design(model: AgentModel, kind: str, g: Optional[CommGraph] = None) -> ProtocolDesign:
    """Per-model half of synthesis: check the conditions of protocol
    `kind` once (with the spanning-tree condition when a graph is given)
    and solve the control CARE once per (A, B).  p1 also needs
    full-state coupling, which the report refuses with DimensionMismatch."""
    if kind not in ("p1", "p2"):  # the report also takes None
        raise DimensionMismatch(f"unknown protocol kind {kind!r}")
    full_report(model, g, kind).require()
    P = _care_solution(_memo_key(*_matrices(model)[:2])).copy()
    return ProtocolDesign(model=model, kind=kind, P=P)


def synthesize_p1(model: AgentModel, rho: float):
    """Protocol 1 synthesis for a full-state-coupling model."""
    require_rho(rho)
    return design(model, "p1").realize(rho)


def synthesize_p2(model: AgentModel, rho: float, delta_hint: Optional[float] = None):
    """Protocol 2 synthesis; searches delta by geometric halving from 1
    unless delta_hint is given."""
    require_rho(rho)
    return design(model, "p2").realize(rho, delta_hint)


def controller_matrices(real: ProtocolRealization, model: AgentModel):
    """Canonical parameterized form (Ac, Bc, Cc, Fc, Hc) of the protocol:

        dx_c = Ac x_c + Bc zeta + Cc zetahat,  u = Fc x_c,  xi = Hc x_c.

    Protocol 1: x_c = chi (n states).  Protocol 2: x_c = (xhat, chi)
    (2n states), Protocol 1's chi-controller behind the observer xhat,
    which drives chi by rho xhat where Protocol 1 drives it by rho zeta.
    The exchanged signal xi is chi in both cases.
    """
    _require_fits(real, model)
    n, nc, rho = model.n, real.controller_state_dim, real.rho
    xhat, chi = slice(0, n), slice(nc - n, nc)  # chi is the last n states
    BBtP = model.B @ model.B.T @ real.P
    Ac, Bc, Cc = np.zeros((nc, nc)), np.zeros((nc, model.p)), np.zeros((nc, n))
    Fc, Hc = np.zeros((model.m, nc)), np.zeros((n, nc))
    Ac[chi, chi], Cc[chi] = model.A - rho * BBtP, -rho * np.eye(n)
    Fc[:, chi], Hc[:, chi] = -rho * model.B.T @ real.P, np.eye(n)
    if real.kind == "p1":  # zeta is the state itself (C = I)
        Bc[chi] = rho * np.eye(n)
    else:  # the observer xhat: its dynamics, its drive of chi, its zeta and zetahat
        delta, Q = real.delta, real.Q_rho
        Ac[xhat, xhat] = model.A - (Q @ model.C.T @ model.C) / delta**2
        Ac[chi, xhat], Cc[xhat] = rho * np.eye(n), -rho * BBtP
        Bc[xhat] = (Q @ model.C.T) / delta**2
    return Ac, Bc, Cc, Fc, Hc


def _fmt_matrix(name, M, out):
    out.append(name)
    for row in np.atleast_2d(M):
        out.append(" ".join(f"{v:.17g}" for v in row))


def realization_to_text(real: ProtocolRealization) -> str:
    """Flat text serialization, bit-exact round trip (17 significant digits);
    DimensionMismatch unless real is a ProtocolRealization."""
    _require_realization(real)
    out = [f"kind {real.kind}", f"n {real.n}", f"rho {real.rho:.17g}"]
    if real.kind == "p2":
        out.append(f"delta {real.delta:.17g}")
    _fmt_matrix("P", real.P, out)
    if real.kind == "p2":
        _fmt_matrix("Q_rho", real.Q_rho, out)
    return "\n".join(out) + "\n"


def parse_realization(text: str) -> ProtocolRealization:
    """Parse the `realization_to_text` format.  Raises ParseError for a
    repeated or unknown header key, lines after the last block, and
    data that `ProtocolRealization` rejects (a delta in a p1 file)."""
    lines = [ln.strip() for ln in _lines(text, "realization") if ln.strip()]
    try:
        fields = {}
        i = 0
        while i < len(lines) and " " in lines[i]:
            key, val = lines[i].split(None, 1)
            if key in ("P", "Q_rho"):
                break
            if key in fields or key not in ("kind", "n", "rho", "delta"):
                raise ParseError(f"repeated or unknown header key {key!r}")
            fields[key] = val
            i += 1
        kind = fields["kind"]
        n = int(fields["n"])
        rho = float(fields["rho"])
        delta = float(fields["delta"]) if "delta" in fields else None

        def read_matrix(label):
            nonlocal i
            if lines[i] != label:
                raise ParseError(f"expected {label!r} block, got {lines[i]!r}")
            i += 1
            rows = []
            for _ in range(n):
                rows.append([float(v) for v in lines[i].split()])
                i += 1
            return np.array(rows)

        P = read_matrix("P")
        Q = read_matrix("Q_rho") if kind == "p2" else None
    except (KeyError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed realization file: {exc}")
    if i < len(lines):
        raise ParseError(f"unexpected line after the last block: {lines[i]!r}")
    try:
        return ProtocolRealization(kind=kind, rho=rho, P=P, delta=delta, Q_rho=Q)
    except (DimensionMismatch, RhoOutOfRange) as exc:
        raise ParseError(str(exc)) from exc
