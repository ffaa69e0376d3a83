import numpy as np
import pytest
from conftest import random_spanning_tree_graph

from h2sync.cases import case1_graph, case2_graph
from h2sync.errors import DimensionMismatch, ParseError, SpectrumMismatch
from h2sync.graph import (
    CommGraph,
    graph_to_text,
    has_spanning_tree,
    laplacian,
    parse_graph,
    reduced_spectrum_check,
)


def eig_multiset_close(a, b, tol=1e-8):
    from scipy.optimize import linear_sum_assignment

    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return False
    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    return cost[r, c].max() <= tol


class TestCommGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(DimensionMismatch):
            CommGraph(np.array([[1.0, 0], [1, 0]]))

    def test_rejects_negative_weights(self):
        with pytest.raises(DimensionMismatch):
            CommGraph(np.array([[0.0, -1], [0, 0]]))

    def test_rejects_single_agent(self):
        with pytest.raises(DimensionMismatch):
            CommGraph(np.zeros((1, 1)))


class TestLaplacian:
    def test_two_agents(self):
        g = CommGraph(np.array([[0.0, 0], [1, 0]]))  # a_21 = 1
        lp = laplacian(g)
        np.testing.assert_array_equal(lp.L, [[0, 0], [-1, 1]])
        np.testing.assert_array_equal(lp.L_reduced, [[1.0]])
        np.testing.assert_array_equal(lp.Pi, [[1.0, -1.0]])

    def test_case1(self):
        lp = laplacian(case1_graph())
        np.testing.assert_array_equal(lp.L, [[0, 0, 0], [-1, 1, 0], [0, -1, 1]])
        #\bar l_ij = l_ij - l_Nj applied by hand
        np.testing.assert_array_equal(lp.L_reduced, [[0, 1], [-1, 2]])

    def test_case2_row_sums(self):
        lp = laplacian(case2_graph())
        assert lp.L.shape == (20, 20)
        assert np.abs(lp.L.sum(axis=1)).max() <= 1e-14

    def test_row_sums_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g, _ = random_spanning_tree_graph(rng, int(rng.integers(2, 12)))
            lp = laplacian(g)
            assert np.abs(lp.L.sum(axis=1)).max() <= 1e-14


def bfs_roots(adj):
    """Oracle: the nodes from which a search along the edges j -> i
    (a_ij > 0) reaches every node, in ascending order."""
    N = len(adj)
    roots = []
    for r in range(N):
        seen = {r}
        frontier = [r]
        while frontier:
            u = frontier.pop()
            for v in range(N):
                if adj[v, u] > 0 and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) == N:
            roots.append(r)
    return roots


class TestSpanningTree:
    def test_case1_chain(self):
        ok, roots = has_spanning_tree(case1_graph())
        assert ok and roots == [0]

    def test_disconnected_pairs(self):
        adj = np.zeros((4, 4))
        adj[1, 0] = 1.0  # a_21
        adj[3, 2] = 1.0  # a_43
        ok, roots = has_spanning_tree(CommGraph(adj))
        assert not ok and roots == []

    def test_case2(self):
        ok, roots = has_spanning_tree(case2_graph())
        assert ok
        assert roots == bfs_roots(case2_graph().adjacency)
        assert roots == [0, 1, 2, 3, 4, 5]  # the 6-cycle nodes reach everything

    def test_roots_match_bfs_oracle(self):
        # the tier-1 graphs, then 1000 seeded random digraphs of every
        # density, so that many have no spanning tree
        rng = np.random.default_rng(31)
        graphs = [case1_graph(), case2_graph(), CommGraph(np.zeros((4, 4)))]
        graphs += [random_spanning_tree_graph(rng, int(rng.integers(2, 15)))[0]
                   for _ in range(25)]
        for _ in range(1000):
            N = int(rng.integers(2, 13))
            adj = rng.uniform(0.1, 2.0, (N, N)) * (rng.random((N, N)) < rng.uniform(0, 0.5))
            np.fill_diagonal(adj, 0.0)
            graphs.append(CommGraph(adj))
        # then 50 larger ones, N up to 60: planted trees, and sparse
        # digraphs of which some have none
        for _ in range(25):
            graphs.append(random_spanning_tree_graph(rng, int(rng.integers(13, 61)))[0])
            N = int(rng.integers(13, 61))
            adj = rng.uniform(0.1, 2.0, (N, N)) * (rng.random((N, N)) < rng.uniform(0, 8 / N))
            np.fill_diagonal(adj, 0.0)
            graphs.append(CommGraph(adj))
        outcomes = set()
        for g in graphs:
            expected = bfs_roots(g.adjacency)
            assert has_spanning_tree(g) == (bool(expected), expected)
            outcomes.add(bool(expected))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("shape", ["path", "ring", "two-sources"])
    def test_long_chains(self, shape):
        # depth-first searches 2000 deep, past Python's recursion limit
        N = 2000
        adj = np.zeros((N, N))
        adj[np.arange(1, N), np.arange(N - 1)] = 1.0  # the path 0 -> 1 -> ... -> N-1
        expected = {"path": (True, [0]), "ring": (True, list(range(N))),
                    "two-sources": (False, [])}[shape]
        if shape == "ring":
            adj[0, N - 1] = 1.0
        elif shape == "two-sources":  # 0 -> N-1 only, and 1 -> 2 -> ... -> N-1
            adj[1, 0], adj[N - 1, 0] = 0.0, 1.0
        assert has_spanning_tree(CommGraph(adj)) == expected

    def test_planted_root_found(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g, root = random_spanning_tree_graph(rng, int(rng.integers(2, 15)))
            ok, roots = has_spanning_tree(g)
            assert ok and root in roots


class TestReducedSpectrum:
    def test_case1(self):
        lp = laplacian(case1_graph())
        # characteristic polynomial of the 2x2 reduction: l^2 - 2 l + 1
        np.testing.assert_allclose(
            np.poly(lp.L_reduced), [1.0, -2.0, 1.0], atol=1e-12
        )
        ok, pairing = reduced_spectrum_check(lp, tol=1e-10)
        assert ok and len(pairing) == 2
        for lam_L, lam_R in pairing:
            assert abs(lam_L - 1.0) < 1e-10 and abs(lam_R - 1.0) < 1e-10

    def test_two_agents(self):
        lp = laplacian(CommGraph(np.array([[0.0, 0], [1, 0]])))
        ok, pairing = reduced_spectrum_check(lp, tol=1e-12)
        assert ok and pairing == [(1.0, 1.0)]

    def test_random_graphs(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g, _ = random_spanning_tree_graph(rng, int(rng.integers(2, 15)))
            ok, _ = reduced_spectrum_check(laplacian(g), tol=1e-8)
            assert ok

    def test_mismatch_raises(self):
        lp = laplacian(case1_graph())
        lp.L_reduced = lp.L_reduced + 0.5 * np.eye(2)
        with pytest.raises(SpectrumMismatch):
            reduced_spectrum_check(lp, tol=1e-8)

    def test_no_spanning_tree_raises(self):
        adj = np.zeros((4, 4))
        adj[1, 0] = 1.0
        adj[3, 2] = 1.0
        with pytest.raises(SpectrumMismatch):
            reduced_spectrum_check(laplacian(CommGraph(adj)), tol=1e-8)

    def test_spanning_tree_spectrum_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            g, _ = random_spanning_tree_graph(rng, int(rng.integers(2, 12)))
            lp = laplacian(g)
            ev = np.linalg.eigvals(lp.L)
            band = 1e-8 * (1 + np.linalg.norm(lp.L, 2))
            near_zero = np.abs(ev) < band
            assert near_zero.sum() == 1
            assert ev[~near_zero].real.min() > 0
            assert np.linalg.eigvals(lp.L_reduced).real.min() > 0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            g, _ = random_spanning_tree_graph(rng, n)
            perm = np.concatenate([rng.permutation(n - 1), [n - 1]])
            adj_p = g.adjacency[np.ix_(perm, perm)]
            ev = np.linalg.eigvals(laplacian(g).L_reduced)
            ev_p = np.linalg.eigvals(laplacian(CommGraph(adj_p)).L_reduced)
            assert eig_multiset_close(ev, ev_p)


class TestGraphFormat:
    def test_edge_list(self):
        g = parse_graph("3\n2 1 1.0\n3 2 1.0\n")
        np.testing.assert_array_equal(g.adjacency, case1_graph().adjacency)

    def test_dense(self):
        g = parse_graph("2\n0 0.5\n2 0\n")
        np.testing.assert_array_equal(g.adjacency, [[0, 0.5], [2, 0]])

    def test_comments_and_blank_lines(self):
        g = parse_graph("# chain\n3\n\n2 1 1\n3 2 1\n")
        assert g.n_agents == 3

    def test_three_edge_lines_fall_back_to_edges(self):
        # exactly 3 edge rows for N = 3 looks dense but is not a valid
        # adjacency (self-loops), so the edge interpretation wins
        g = parse_graph("3\n1 2 1\n2 3 1\n3 1 1\n")
        assert g.adjacency[0, 1] == 1.0 and g.adjacency[2, 0] == 1.0

    def test_three_agent_dense_file_reports_its_own_error(self):
        # a zero diagonal marks the file dense: an edge list starts with
        # an index >= 1, so N = 3 fails as N = 4 does, not as edge lines
        errors = []
        for text in ("3\n0 1 -1\n0 0 0\n1 0 0\n",
                     "4\n0 1 -1 0\n0 0 0 0\n1 0 0 0\n0 0 0 0\n"):
            with pytest.raises(ParseError) as exc:
                parse_graph(text)
            errors.append(str(exc.value))
        assert errors == ["bad dense adjacency: adjacency weights must be nonnegative"] * 2

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        g, _ = random_spanning_tree_graph(rng, 7)
        g2 = parse_graph(graph_to_text(g))
        np.testing.assert_array_equal(g.adjacency, g2.adjacency)

    def test_edgeless_round_trip(self):
        g = CommGraph(np.zeros((4, 4)))
        g2 = parse_graph(graph_to_text(g))
        np.testing.assert_array_equal(g2.adjacency, np.zeros((4, 4)))
        ok, roots = has_spanning_tree(g2)
        assert not ok and roots == []

    @pytest.mark.parametrize(
        "text",
        ["", "x\n", "3\n1 2\n", "3\n0 5 1\n", "2\n1 1 nope\n", "1\n",
         "2\n2 1 1\n2 1 5\n", "2\n2 1 0\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)

    @pytest.mark.parametrize("text, line", [
        ("2\n2 1 1\n2 1 5\n", 3),  # duplicate edge
        ("# header\n4\n\n2 1 1\n3 2 -0.0\n", 5),  # zero weight; comments count
    ])
    def test_edge_line_errors_name_the_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line
