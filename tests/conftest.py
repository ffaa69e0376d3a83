import numpy as np

from h2sync.conditions import AgentModel
from h2sync.graph import CommGraph


def random_spanning_tree_graph(rng, n_agents):
    """Random weighted digraph guaranteed to contain a directed spanning
    tree: a random arborescence from a random root plus extra edges."""
    adj = np.zeros((n_agents, n_agents))
    order = rng.permutation(n_agents)
    root = order[0]
    for k in range(1, n_agents):
        parent = order[rng.integers(0, k)]
        child = order[k]
        adj[child, parent] = rng.uniform(0.1, 2.0)
    n_extra = rng.integers(0, 2 * n_agents)
    for _ in range(n_extra):
        i, j = rng.integers(0, n_agents, size=2)
        if i != j:
            adj[i, j] = rng.uniform(0.1, 2.0)
    return CommGraph(adj), root


def defect_a_model():
    """A 3-state model with A a random similarity of diag(-0.44, 0, 0),
    random B and C and no disturbance (w = 0).  Its p2 report passes,
    and four filter-Hamiltonian eigenvalues are rounded zeros that the
    relative imaginary-axis test counts as off the axis, so the ordered
    Schur form fails at delta = 1."""
    rng = np.random.default_rng(59)
    V = rng.standard_normal((3, 3))
    A = V @ np.diag([-0.44, 0.0, 0.0]) @ np.linalg.inv(V)
    m, p = rng.integers(1, 4), rng.integers(1, 4)  # input and output counts, both 3
    return AgentModel(A, rng.standard_normal((3, m)), rng.standard_normal((p, 3)),
                      np.zeros((3, 0)))


def clear_synthesis_memos():
    """Empty the synthesis memos of `full_report`, `design` and
    `ProtocolDesign.realize`, so the next call on any model computes its
    conditions, its CARE and its filter Riccati."""
    from h2sync import conditions, protocol

    conditions._model_conditions.cache_clear()
    protocol._care_solution.cache_clear()
    protocol._filter_solution.cache_clear()
