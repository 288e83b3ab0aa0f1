import itertools

import numpy as np
import pytest

from dksub.graphs import (
    BipartiteGraph,
    Graph,
    NodeSubset,
    complement_edges,
    density,
    density_identity_check,
    project_complement,
    proposed_solution,
    subgraph_density,
)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    return Graph(n, upper | upper.T)


class TestGraphValidation:
    def test_rejects_self_loops(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 1] = True
        with pytest.raises(ValueError, match="self-loops"):
            Graph(3, adj)

    def test_rejects_asymmetry(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Graph(3, adj)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Graph(4, np.zeros((3, 3), dtype=bool))

    def test_adjacency_is_immutable(self):
        g = Graph.complete(4)
        with pytest.raises(ValueError):
            g.adj[0, 1] = False

    def test_from_edges_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize(
        "build",
        [lambda edges: Graph.from_edges(10**7, edges),
         lambda edges: BipartiteGraph.from_edges(10**7, 10**7, edges)],
        ids=["graph", "bipartite"],
    )
    def test_from_edges_refuses_a_matrix_above_half_of_memory(self, build):
        with pytest.raises(ValueError, match="half of physical memory"):
            build([(0, 1)])
        # the edges are checked before the size
        with pytest.raises(ValueError, match="bad edge"):
            build([(-1, 1)])

    def test_size_guard_is_skipped_without_sysconf(self, monkeypatch):
        monkeypatch.delattr("dksub.graphs.os.sysconf")
        g = Graph.from_edges(3, (e for e in [(0, 1), (1, 2)]))
        assert g.edges() == [(0, 1), (1, 2)]
        assert BipartiteGraph.from_edges(2, 3, [(1, 2)]).edges() == [(1, 2)]


class TestNodeSubset:
    def test_sorted_and_validated(self):
        s = NodeSubset((3, 1, 2), 5)
        assert s.members == (1, 2, 3)
        assert len(s) == 3
        assert 2 in s and 0 not in s

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError):
            NodeSubset((1, 1), 4)
        with pytest.raises(ValueError):
            NodeSubset((4,), 4)

    def test_indicator(self):
        v = NodeSubset((0, 2), 4).indicator()
        assert v.tolist() == [1.0, 0.0, 1.0, 0.0]


class TestDensity:
    def test_complete_graph(self):
        assert density(Graph.complete(5)) == 2.0

    def test_edgeless(self):
        assert density(Graph(7, np.zeros((7, 7), dtype=bool))) == 0.0

    def test_five_cycle(self):
        assert density(cycle_graph(5)) == 1.0


class TestSubgraphDensity:
    def test_cycle_segment(self):
        g = cycle_graph(5)
        assert subgraph_density(g, NodeSubset((0, 1, 2), 5)) == pytest.approx(2 / 3)

    def test_single_node(self):
        assert subgraph_density(cycle_graph(5), NodeSubset((2,), 5)) == 0.0

    def test_planted_clique_block(self):
        g = random_graph(10, 0.2, seed=3)
        adj = np.array(g.adj)
        for i, j in itertools.combinations(range(4), 2):
            adj[i, j] = adj[j, i] = True
        g = Graph(10, adj)
        assert subgraph_density(g, NodeSubset((0, 1, 2, 3), 10)) == 1.5

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            subgraph_density(cycle_graph(5), NodeSubset((), 5))


class TestComplementEdges:
    def test_complete_graph_empty(self):
        assert complement_edges(Graph.complete(6)).sum() == 0

    def test_edgeless_all_ordered_pairs(self):
        g = Graph(5, np.zeros((5, 5), dtype=bool))
        assert complement_edges(g).sum() == 5 * 4

    def test_single_edge(self):
        g = Graph.from_edges(3, [(0, 1)])
        mask = complement_edges(g)
        expected = {(0, 2), (2, 0), (1, 2), (2, 1)}
        assert set(zip(*np.nonzero(mask))) == expected

    def test_count_partition(self):
        for seed in range(5):
            g = random_graph(9, 0.4, seed)
            ordered_edges = int(g.adj.sum())
            assert ordered_edges + complement_edges(g).sum() + g.n == g.n**2


class TestProjectComplement:
    def test_complete_graph_zeroes_everything(self):
        out = project_complement(Graph.complete(4), np.ones((4, 4)))
        assert np.all(out == 0)

    def test_edgeless_identity_off_diagonal(self):
        g = Graph(4, np.zeros((4, 4), dtype=bool))
        M = np.arange(16.0).reshape(4, 4)
        np.fill_diagonal(M, 0.0)
        assert np.array_equal(project_complement(g, M), M)

    def test_identity_matrix_maps_to_zero(self):
        g = random_graph(6, 0.5, seed=1)
        assert np.all(project_complement(g, np.eye(6)) == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_complement(Graph.complete(4), np.ones((3, 3)))

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_graph(7, 0.4, int(rng.integers(1 << 30)))
            A = rng.standard_normal((7, 7))
            B = rng.standard_normal((7, 7))
            PA = project_complement(g, A)
            assert np.array_equal(project_complement(g, PA), PA)
            lhs = float((PA * B).sum())
            rhs = float((A * project_complement(g, B)).sum())
            bound = 1e-12 * np.linalg.norm(A) * np.linalg.norm(B)
            assert abs(lhs - rhs) <= bound


class TestProposedSolution:
    def test_clique_subset_needs_no_correction(self):
        g = Graph.complete(6)
        X, Y = proposed_solution(g, NodeSubset((1, 2, 3), 6))
        assert np.count_nonzero(Y) == 0
        assert np.count_nonzero(X) == 9

    def test_one_missing_internal_edge(self):
        adj = ~np.eye(4, dtype=bool)
        adj[0, 1] = adj[1, 0] = False
        g = Graph(4, adj)
        _, Y = proposed_solution(g, NodeSubset((0, 1, 2, 3), 4))
        assert np.count_nonzero(Y) == 2
        assert set(np.unique(Y)) <= {-1.0, 0.0}

    def test_edgeless_k3(self):
        g = Graph(5, np.zeros((5, 5), dtype=bool))
        _, Y = proposed_solution(g, NodeSubset((0, 2, 4), 5))
        assert np.count_nonzero(Y) == 6

    def test_rank_one_with_singular_value_k(self):
        g = random_graph(8, 0.3, seed=2)
        for k in (1, 3, 5):
            X, _ = proposed_solution(g, NodeSubset(tuple(range(k)), 8))
            s = np.linalg.svd(X, compute_uv=False)
            assert s[0] == pytest.approx(k)
            assert np.all(s[1:] < 1e-12)
            assert int(X.sum()) == k * k


class TestDensityIdentity:
    def test_one_missing_edge(self):
        adj = ~np.eye(4, dtype=bool)
        adj[0, 1] = adj[1, 0] = False
        lhs, rhs = density_identity_check(Graph(4, adj), NodeSubset((0, 1, 2, 3), 4))
        assert lhs == rhs == 1.25

    def test_clique(self):
        lhs, rhs = density_identity_check(Graph.complete(6), NodeSubset(tuple(range(6)), 6))
        assert lhs == rhs == 2.5

    def test_edgeless(self):
        g = Graph(5, np.zeros((5, 5), dtype=bool))
        lhs, rhs = density_identity_check(g, NodeSubset((0, 1, 2), 5))
        assert lhs == rhs == 0.0

    def test_exhaustive_small_graphs(self):
        for seed in range(3):
            n = 8
            g = random_graph(n, 0.45, seed)
            for size in range(1, n + 1):
                for members in itertools.combinations(range(n), size):
                    lhs, rhs = density_identity_check(g, NodeSubset(members, n))
                    assert lhs == rhs


class TestBipartite:
    def test_validation(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 3, np.zeros((3, 2), dtype=bool))

    def test_edges(self):
        g = BipartiteGraph.from_edges(2, 3, [(0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]
