"""Synthesis of the two collaborative protocols.

Both protocols are parameterized by a single scalar rho >= 1 and are
built from the agent model alone; the communication graph and the
number of agents never enter the synthesis (that is what makes the
design scale-free).  Per model, `design` checks the solvability
conditions and solves the control CARE for P, which does not depend on
rho; per rho, `ProtocolDesign.realize` solves the Protocol 2 filter
Riccati equation and searches delta.  `synthesize_p1` and
`synthesize_p2` run both steps for one rho.

Protocol 1 (full-state coupling): controller state chi with
    dchi = A chi + B u + rho*zeta - rho*zetahat,   u = -rho B^T P chi
where P solves A^T P + P A - P B B^T P + I = 0.

Protocol 2 (partial-state coupling): controller state (xhat, chi) with
    dxhat = A xhat - rho B B^T P zetahat + delta^-2 Q C^T (zeta - C xhat)
    dchi  = A chi + B u + rho xhat - rho zetahat,  u = -rho B^T P chi
where Q > 0 solves the low-gain filter Riccati equation
    Q A^T + A Q + E E^T - delta^-2 Q C^T C Q + rho^2 Q^2 = 0.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .conditions import AgentModel, full_report
from .errors import (
    DeltaSearchExhausted,
    DimensionMismatch,
    NoStabilizingSolution,
    NotPositiveDefinite,
    ParseError,
    PreconditionFailed,
    RhoOutOfRange,
)
from .graph import CommGraph
from .linalg import require_rho, solve_care_standard, solve_filter_riccati
from .tolerances import DEFAULT, Tolerances

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
    DimensionMismatch (P and Q_rho must be finite, symmetric, n x n).
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
        if p2 and not (0.0 < self.delta < np.inf):
            raise DimensionMismatch(f"delta must be finite and > 0, got {self.delta}")
        _check_block("P", self.P, self.n)
        if p2:
            _check_block("Q_rho", self.Q_rho, self.n)

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def controller_state_dim(self):
        return self.n if self.kind == "p1" else 2 * self.n


def _check_block(label, M, n):
    if M.shape != (n, n) or not np.all(np.isfinite(M)):
        raise DimensionMismatch(f"{label} must be a finite {n} x {n} matrix, got {M.shape}")
    asym = np.linalg.norm(M - M.T)
    if asym > DEFAULT.symmetry * max(1.0, np.linalg.norm(M)):
        raise DimensionMismatch(f"{label} is not symmetric (Frobenius asymmetry {asym:.3g})")


@dataclass
class ProtocolDesign:
    """A model that passed the conditions of protocol `kind`, with the
    CARE solution P; built by `design`, realized per rho by `realize`."""

    model: AgentModel
    kind: str
    P: np.ndarray
    tols: Tolerances

    def realize(self, rho: float, delta: Optional[float] = None):
        """The realization for one rho.  For p2, `delta` fixes the
        low-gain parameter and None takes the largest of 1, 1/2, 1/4, ...
        whose filter Riccati passes; p1 has no delta and ignores it."""
        require_rho(rho)
        if self.kind == "p1":
            return ProtocolRealization(kind="p1", rho=float(rho), P=self.P)
        m = self.model
        diagnostics = []
        for d in _HALVING if delta is None else (delta,):
            try:
                Q = solve_filter_riccati(m.A, m.E, m.C, rho, d, self.tols).solution
            except NoStabilizingSolution as exc:
                diagnostics.append((d, f"no stabilizing solution ({exc})"))
            except NotPositiveDefinite as exc:
                diagnostics.append((d, f"not positive definite ({exc})"))
            else:
                return ProtocolRealization("p2", float(rho), self.P, float(d), Q)
        raise DeltaSearchExhausted(
            f"no feasible delta found down to {DELTA_SEARCH_FLOOR} for rho={rho}"
            if delta is None else
            f"filter Riccati failed at the given delta={delta}: {diagnostics[0][1]}",
            diagnostics=diagnostics,
        )


def design(model: AgentModel, kind: str, g: Optional[CommGraph] = None,
           tols: Tolerances = DEFAULT) -> ProtocolDesign:
    """Per-model half of synthesis: check the conditions of protocol
    `kind` once (with the spanning-tree condition when a graph is given)
    and solve the control CARE once.  p1 also needs full-state coupling."""
    if kind not in ("p1", "p2"):
        raise DimensionMismatch(f"unknown protocol kind {kind!r}")
    if kind == "p1" and model.coupling_kind != "full-state":
        raise PreconditionFailed(
            "Protocol 1 requires full-state coupling (C = I)", condition="(coupling)"
        )
    # the partial-state conditions apply to C = I models as well under p2
    coupling = "full-state" if kind == "p1" else "partial-state"
    full_report(replace(model, coupling_kind=coupling), g, tols).require()
    care = solve_care_standard(model.A, model.B, tols)
    return ProtocolDesign(model=model, kind=kind, P=care.solution, tols=tols)


def synthesize_p1(model: AgentModel, rho: float, tols: Tolerances = DEFAULT):
    """Protocol 1 synthesis for a full-state-coupling model."""
    require_rho(rho)
    return design(model, "p1", tols=tols).realize(rho)


def synthesize_p2(model: AgentModel, rho: float, delta_hint: Optional[float] = None,
                  tols: Tolerances = DEFAULT):
    """Protocol 2 synthesis; searches delta by geometric halving from 1
    unless delta_hint is given."""
    require_rho(rho)
    return design(model, "p2", tols=tols).realize(rho, delta_hint)


def controller_matrices(real: ProtocolRealization, model: AgentModel):
    """Canonical parameterized form (Ac, Bc, Cc, Fc, Hc) of the protocol:

        dx_c = Ac x_c + Bc zeta + Cc zetahat,  u = Fc x_c,  xi = Hc x_c.

    Protocol 1: x_c = chi (n states).  Protocol 2: x_c = (xhat, chi)
    (2n states); the exchanged signal xi is chi in both cases.
    """
    n, m, p = model.n, model.m, model.p
    rho = real.rho
    BBtP = model.B @ model.B.T @ real.P
    F_gain = -rho * model.B.T @ real.P
    if real.kind == "p1":
        Ac = model.A - rho * BBtP
        Bc = rho * np.eye(n)
        Cc = -rho * np.eye(n)
        Fc = F_gain
        Hc = np.eye(n)
        return Ac, Bc, Cc, Fc, Hc
    delta, Q = real.delta, real.Q_rho
    filt = model.A - (Q @ model.C.T @ model.C) / delta**2
    Ac = np.block([
        [filt, np.zeros((n, n))],
        [rho * np.eye(n), model.A - rho * BBtP],
    ])
    Bc = np.vstack([(Q @ model.C.T) / delta**2, np.zeros((n, p))])
    Cc = np.vstack([-rho * BBtP, -rho * np.eye(n)])
    Fc = np.hstack([np.zeros((m, n)), F_gain])
    Hc = np.hstack([np.zeros((n, n)), np.eye(n)])
    return Ac, Bc, Cc, Fc, Hc


def _fmt_matrix(name, M, out):
    out.append(name)
    for row in np.atleast_2d(M):
        out.append(" ".join(f"{v:.17g}" for v in row))


def realization_to_text(real: ProtocolRealization) -> str:
    """Flat text serialization, bit-exact round trip (17 significant digits)."""
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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
