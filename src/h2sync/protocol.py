"""Synthesis of the two collaborative protocols.

Both protocols are parameterized by a single scalar rho >= 1 and are
built from the agent model alone; the communication graph and the
number of agents never enter the synthesis (that is what makes the
design scale-free).

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
from .linalg import require_rho, solve_care_standard, solve_filter_riccati
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ProtocolRealization",
    "synthesize_p1",
    "synthesize_p2",
    "controller_matrices",
    "realization_to_text",
    "parse_realization",
]

DELTA_SEARCH_FLOOR = 1e-12


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


def synthesize_p1(model: AgentModel, rho: float, tols: Tolerances = DEFAULT):
    """Protocol 1 synthesis for a full-state-coupling model."""
    require_rho(rho)
    if model.coupling_kind != "full-state":
        raise PreconditionFailed(
            "Protocol 1 requires full-state coupling (C = I)", condition="(coupling)"
        )
    full_report(model, tols=tols).require()
    care = solve_care_standard(model.A, model.B, tols)
    return ProtocolRealization(kind="p1", rho=float(rho), P=care.solution)


def _try_delta(model, rho, delta, tols):
    """One filter-Riccati attempt; returns (Q or None, reason)."""
    try:
        res = solve_filter_riccati(model.A, model.E, model.C, rho, delta, tols)
        return res.solution, "ok"
    except NoStabilizingSolution as exc:
        return None, f"no stabilizing solution ({exc})"
    except NotPositiveDefinite as exc:
        return None, f"not positive definite ({exc})"


def synthesize_p2(
    model: AgentModel,
    rho: float,
    delta_hint: Optional[float] = None,
    tols: Tolerances = DEFAULT,
):
    """Protocol 2 synthesis; searches delta by geometric halving from 1
    unless delta_hint is given."""
    require_rho(rho)
    # the partial-state conditions apply to C = I models as well
    full_report(replace(model, coupling_kind="partial-state"), tols=tols).require()

    care = solve_care_standard(model.A, model.B, tols)

    if delta_hint is not None:
        Q, reason = _try_delta(model, rho, delta_hint, tols)
        if Q is None:
            raise DeltaSearchExhausted(
                f"filter Riccati failed at the given delta={delta_hint}: {reason}",
                diagnostics=[(delta_hint, reason)],
            )
        return ProtocolRealization(
            kind="p2", rho=float(rho), P=care.solution,
            delta=float(delta_hint), Q_rho=Q,
        )

    # largest passing delta in the halving sequence 1, 1/2, 1/4, ...
    diagnostics = []
    delta = 1.0
    while delta > DELTA_SEARCH_FLOOR:
        Q, reason = _try_delta(model, rho, delta, tols)
        diagnostics.append((delta, reason))
        if Q is not None:
            return ProtocolRealization(
                kind="p2", rho=float(rho), P=care.solution,
                delta=float(delta), Q_rho=Q,
            )
        delta *= 0.5
    raise DeltaSearchExhausted(
        f"no feasible delta found down to {DELTA_SEARCH_FLOOR} for rho={rho}",
        diagnostics=diagnostics,
    )


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
