"""Built-in benchmark: triple-integrator agents and the two reference
communication graphs used by the `reproduce-case1/2` CLI commands and
the acceptance suite."""

import numpy as np

from .conditions import AgentModel
from .graph import CommGraph

__all__ = [
    "triple_integrator",
    "triple_integrator_full_state",
    "case1_graph",
    "case2_graph",
    "CASE_RHOS",
    "CASE_DELTA",
]

# protocol parameters the reproduce commands run with
CASE_RHOS = (4.0, 6.0, 10.0)
CASE_DELTA = 0.0004


def triple_integrator() -> AgentModel:
    """Chain of three integrators, position output, disturbance entering
    with the input (E = B)."""
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0], [0.0], [1.0]])
    C = np.array([[1.0, 0.0, 0.0]])
    return AgentModel(A, B, C, B.copy())


def triple_integrator_full_state() -> AgentModel:
    """Same agents with full state exchanged (C = I), for Protocol 1."""
    m = triple_integrator()
    return AgentModel.full_state(m.A, m.B, m.E)


def case1_graph() -> CommGraph:
    """Three agents in a directed chain: 1 -> 2 -> 3."""
    adj = np.zeros((3, 3))
    adj[1, 0] = 1.0  # a_21
    adj[2, 1] = 1.0  # a_32
    return CommGraph(adj)


def case2_graph() -> CommGraph:
    """Twenty agents: a 6-cycle feeding a chain with two shortcut edges."""
    pairs = [
        (1, 6), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (7, 6), (8, 7),
        (9, 8), (10, 9), (11, 10), (12, 11), (13, 12), (13, 20), (14, 13),
        (15, 14), (15, 6), (16, 15), (17, 16), (18, 17), (19, 18), (20, 18),
    ]
    adj = np.zeros((20, 20))
    for i, j in pairs:
        adj[i - 1, j - 1] = 1.0
    return CommGraph(adj)
