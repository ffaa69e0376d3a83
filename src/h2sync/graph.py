"""Weighted directed communication graphs and their Laplacians.

Edge convention: a positive weight `adjacency[i, j]` means information
flows from agent j to agent i.  Agent indices are 0-based in code; the
text file format (see `parse_graph`) is 1-based.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import DimensionMismatch, ParseError, SpectrumMismatch, _lines, _require_instance
from .linalg import _as_matrix

__all__ = [
    "CommGraph",
    "LaplacianPair",
    "laplacian",
    "has_spanning_tree",
    "reduced_spectrum_check",
    "parse_graph",
    "graph_to_text",
]


@dataclass(frozen=True)
class CommGraph:
    """Weighted directed graph on N >= 2 agents, no self-loops, checked
    when made.  Frozen: change the adjacency with `dataclasses.replace`,
    which checks it again."""

    adjacency: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.adjacency, "adjacency")
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"adjacency must be square, got {A.shape}")
        if A.shape[0] < 2:
            raise DimensionMismatch("need at least 2 agents")
        if np.any(A < 0):
            raise DimensionMismatch("adjacency weights must be nonnegative")
        if np.any(np.diag(A) != 0):
            raise DimensionMismatch("self-loops (a_ii != 0) are not allowed")
        object.__setattr__(self, "adjacency", A)

    @property
    def n_agents(self):
        return self.adjacency.shape[0]


@dataclass
class LaplacianPair:
    """Laplacian L, its reduction to agent-N-relative coordinates, and Pi.

    L_reduced[i, j] = L[i, j] - L[N-1, j] for i, j < N-1; its spectrum
    equals the nonzero spectrum of L whenever the graph has a directed
    spanning tree.  Pi = [I, -1] maps stacked agent values to
    differences against agent N.
    """

    L: np.ndarray
    L_reduced: np.ndarray
    Pi: np.ndarray


def laplacian(g: CommGraph) -> LaplacianPair:
    """Build (L, L_reduced, Pi) from the adjacency weights;
    DimensionMismatch unless g is a CommGraph."""
    _require_instance(g, CommGraph)
    A = g.adjacency
    N = g.n_agents
    L = np.diag(A.sum(axis=1)) - A
    L_reduced = L[: N - 1, : N - 1] - np.tile(L[N - 1, : N - 1], (N - 1, 1))
    Pi = np.hstack([np.eye(N - 1), -np.ones((N - 1, 1))])
    return LaplacianPair(L, L_reduced, Pi)


def has_spanning_tree(g: CommGraph):
    """Return (graph contains a directed spanning tree, list of roots).

    A root is a node from which every node is reachable along directed
    edges; a_ij > 0 is the edge j -> i.  Roots are 0-based indices in
    ascending order.  A spanning tree exists exactly when one strongly
    connected component has no edge entering it; its members are the
    roots.  One iterative depth-first pass (Kosaraju's first) finds a
    node of a component no edge enters: the one that finishes last.
    There is a tree exactly when that node reaches every node, and the
    roots are then the nodes that reach it.  O(N + E), no recursion.
    DimensionMismatch unless g is a CommGraph.
    """
    _require_instance(g, CommGraph)
    N = g.n_agents
    into, out_of = np.nonzero(g.adjacency > 0)  # the edges out_of[k] -> into[k]
    succ, pred = [[] for _ in range(N)], [[] for _ in range(N)]
    for i, j in zip(into.tolist(), out_of.tolist()):
        succ[j].append(i)
        pred[i].append(j)
    seen, last = [False] * N, 0
    for s in range(N):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(succ[s]))]
        while stack:
            u, todo = stack[-1]
            for v in todo:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(succ[v])))
                    break
            else:  # every successor of u is done: u finishes
                stack.pop()
                last = u
    if not all(_reached(last, succ)):
        return False, []
    return True, [k for k, r in enumerate(_reached(last, pred)) if r]


def _reached(start, neighbours):
    """Flags of the nodes reachable from `start` along `neighbours`."""
    seen = [False] * len(neighbours)
    seen[start] = True
    stack = [start]
    while stack:
        for v in neighbours[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def reduced_spectrum_check(lp: LaplacianPair, tol: float):
    """Match each eigenvalue of L_reduced to a nonzero eigenvalue of L.

    Uses optimal bipartite matching on complex distance.  Returns
    (True, pairing) where pairing is a list of (lambda_L, lambda_Lbar)
    pairs; raises SpectrumMismatch if any pair is further apart than
    `tol`, or if L does not have a simple zero eigenvalue (no spanning
    tree, or a construction bug); DimensionMismatch unless lp is a
    LaplacianPair and tol a real number, finite and >= 0.  The matching
    comes from scipy.sparse.csgraph, which is imported on the first call
    and by no other path of the package.
    """
    # scipy.sparse adds about 5 MiB to a process; only this check needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    _require_instance(lp, LaplacianPair)
    if not isinstance(tol, numbers.Real) or not (0.0 <= tol < np.inf):
        raise DimensionMismatch(f"tol must be finite and >= 0, got {tol}")
    ev_L = np.linalg.eigvals(lp.L)
    ev_R = np.linalg.eigvals(lp.L_reduced)
    zero_band = tolerances.DEFAULT.zero_eig * (1.0 + np.linalg.norm(lp.L, 2))
    zero_idx = np.nonzero(np.abs(ev_L) < zero_band)[0]
    if len(zero_idx) != 1:
        raise SpectrumMismatch(
            f"L has {len(zero_idx)} eigenvalues within {zero_band:.2e} of zero; "
            "expected exactly one (does the graph contain a spanning tree?)"
        )
    nonzero = np.delete(ev_L, zero_idx[0])
    if len(nonzero) != len(ev_R):
        raise SpectrumMismatch(
            f"{len(nonzero)} nonzero eigenvalues of L vs "
            f"{len(ev_R)} eigenvalues of L_reduced"
        )
    cost = np.abs(nonzero[:, None] - ev_R[None, :])
    # csgraph rather than scipy.optimize.linear_sum_assignment, whose
    # import alone adds about 20 MB of resident memory.  A sparse matrix
    # has no zero-weight edges, so every cost is shifted by 1: each full
    # matching has len(cost) edges, so the shift keeps the cheapest one.
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(cost + 1.0))
    bad = cost[rows, cols] > tol
    if np.any(bad):
        worst = cost[rows, cols].max()
        raise SpectrumMismatch(
            f"eigenvalue pairing exceeds tol={tol:.2e} (worst gap {worst:.2e})"
        )
    pairing = [(nonzero[r], ev_R[c]) for r, c in zip(rows, cols)]
    return True, pairing


def parse_graph(text: str) -> CommGraph:
    """Parse the graph text format.

    First non-comment line: N.  Then either N rows of N weights (dense)
    or lines `i j w` meaning a_ij = w with 1-based i, j; an edge line
    names each pair once, with a nonzero weight.
    """
    numbered = [
        (k, ln.strip())
        for k, ln in enumerate(_lines(text, "graph"), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not numbered:
        raise ParseError("empty graph file")
    (first_line, head), *body = numbered
    try:
        N = int(head)
    except ValueError:
        raise ParseError(f"expected agent count, got {head!r}", line=first_line)
    if N < 2:
        raise ParseError(f"need at least 2 agents, got {N}")
    rows = [ln.split() for _, ln in body]
    if len(body) == N and all(len(r) == N for r in rows):
        # dense form; an N=3 edge list also matches this shape, so a
        # failed dense read falls back to edge parsing unless the
        # diagonal is zero (an edge list's first index is >= 1)
        try:
            A = np.array([[float(v) for v in r] for r in rows])
            return CommGraph(A)
        except (ValueError, DimensionMismatch) as exc:
            try:
                edges = N == 3 and any(float(r[k]) for k, r in enumerate(rows))
            except ValueError:
                edges = True
            if not edges:
                raise ParseError(f"bad dense adjacency: {exc}")
    try:
        A = np.zeros((N, N))
    except (ValueError, MemoryError) as exc:
        raise ParseError(f"no room for {N} agents: {exc}", line=first_line) from None
    for (line, _), r in zip(body, rows):
        if len(r) != 3:
            raise ParseError(
                f"expected `i j w` edge line, got {' '.join(r)!r}", line=line
            )
        try:
            i, j, w = int(r[0]), int(r[1]), float(r[2])
        except ValueError as exc:
            raise ParseError(f"bad edge line: {exc}", line=line)
        if not (1 <= i <= N and 1 <= j <= N):
            raise ParseError(f"edge indices out of range 1..{N}", line=line)
        if w == 0.0:
            raise ParseError(f"edge {i} {j} has weight 0; omit the line", line=line)
        if A[i - 1, j - 1] != 0.0:  # set by an earlier line: weights are nonzero
            raise ParseError(f"duplicate edge {i} {j}", line=line)
        A[i - 1, j - 1] = w
    return CommGraph(A)


def graph_to_text(g: CommGraph) -> str:
    """Serialize as an edge list (1-based), round-trippable via parse_graph;
    DimensionMismatch unless g is a CommGraph."""
    _require_instance(g, CommGraph)
    out = [str(g.n_agents)]
    ii, jj = np.nonzero(g.adjacency)
    for i, j in zip(ii, jj):
        out.append(f"{i + 1} {j + 1} {g.adjacency[i, j]:.17g}")
    return "\n".join(out) + "\n"
