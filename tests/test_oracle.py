import math
from itertools import combinations

import numpy as np
import pytest

from dksub import oracle
from dksub.graphs import BipartiteGraph, Graph, NodeSubset
from dksub.models import PlantedDksParams, sample_dks
from dksub.oracle import (
    SizeGuardError,
    brute_force_dkb,
    brute_force_dks,
    restricted_relaxation_value,
)
from dksub.solver import SolverConfig, relative_error, round_to_subset, solve_dks


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    return Graph(n, upper | upper.T)


class TestBruteForceDks:
    def test_planted_clique_is_unique_optimum(self):
        inst = sample_dks(PlantedDksParams(n=14, k=6, p=0.0, q=0.0, seed=0))
        result = brute_force_dks(inst.graph, 6)
        assert result.best_edge_count == 15
        assert result.unique
        assert result.optimal_subsets[0].members == inst.planted.members

    def test_five_cycle_k3(self):
        result = brute_force_dks(cycle_graph(5), 3)
        assert result.best_edge_count == 2
        assert len(result.optimal_subsets) == 5
        assert not result.unique
        expected = {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)}
        assert {s.members for s in result.optimal_subsets} == expected

    def test_edgeless_graph_all_subsets_optimal(self):
        g = Graph(7, np.zeros((7, 7), dtype=bool))
        result = brute_force_dks(g, 3)
        assert result.best_edge_count == 0
        assert len(result.optimal_subsets) == math.comb(7, 3)
        assert not result.unique

    def test_whole_vertex_set(self):
        g = random_graph(9, 0.4, seed=1)
        result = brute_force_dks(g, 9)
        assert result.best_edge_count == g.edge_count
        assert result.optimal_subsets[0].members == tuple(range(9))

    def test_guard(self):
        g = Graph(40, np.zeros((40, 40), dtype=bool))
        with pytest.raises(SizeGuardError, match="exceeds"):
            brute_force_dks(g, 20)

    def test_matches_naive_enumeration(self):
        from itertools import combinations

        for seed in range(4):
            g = random_graph(10, 0.45, seed)
            k = 4
            best = -1
            argmax = []
            for sub in combinations(range(10), k):
                edges = sum(
                    g.adj[u, v] for i, u in enumerate(sub) for v in sub[i + 1:]
                )
                if edges > best:
                    best, argmax = edges, [sub]
                elif edges == best:
                    argmax.append(sub)
            result = brute_force_dks(g, k)
            assert result.best_edge_count == best
            assert [s.members for s in result.optimal_subsets] == argmax


class TestBruteForceDkb:
    def test_identity_biadjacency(self):
        g = BipartiteGraph(3, 3, np.eye(3, dtype=bool))
        result = brute_force_dkb(g, 2, 2)
        assert result.best_edge_count == 2

    def test_planted_biclique(self):
        biadj = np.zeros((8, 8), dtype=bool)
        biadj[:3, :4] = True
        result = brute_force_dkb(BipartiteGraph(8, 8, biadj), 3, 4)
        assert result.best_edge_count == 12
        assert result.unique
        su, sv = result.optimal_subsets[0]
        assert su.members == (0, 1, 2)
        assert sv.members == (0, 1, 2, 3)

    def test_complete_bipartite_all_pairs_optimal(self):
        g = BipartiteGraph(4, 4, np.ones((4, 4), dtype=bool))
        result = brute_force_dkb(g, 2, 2)
        assert result.best_edge_count == 4
        assert len(result.optimal_subsets) == 36
        assert not result.unique

    def test_guard(self):
        g = BipartiteGraph(30, 30, np.zeros((30, 30), dtype=bool))
        with pytest.raises(SizeGuardError):
            brute_force_dkb(g, 15, 15)

    @pytest.mark.parametrize(
        "n1,n2,k1,k2,p",
        [
            (5, 9, 2, 3, 0.4),    # C1 < C2: loops over U subsets
            (9, 5, 3, 2, 0.4),    # C1 > C2: loops over V subsets
            (7, 7, 3, 3, 0.5),    # C1 = C2
            (6, 8, 2, 4, 1.0),    # complete: every pair is optimal
            (8, 6, 4, 2, 1.0),
            (7, 7, 3, 3, 0.0),    # edgeless: every pair is optimal
            (2, 20, 1, 6, 1.0),   # the larger side spans three scored blocks
            (20, 2, 6, 1, 0.9),
        ],
    )
    def test_matches_naive_enumeration(self, n1, n2, k1, k2, p):
        rng = np.random.default_rng(n1 * 100 + n2)
        g = BipartiteGraph(n1, n2, rng.random((n1, n2)) < p)
        rows = g.biadj.tolist()
        best = -1
        argmax = []
        for vsub in combinations(range(n2), k2):
            for usub in combinations(range(n1), k1):
                edges = sum(rows[u][v] for u in usub for v in vsub)
                if edges > best:
                    best, argmax = edges, [(usub, vsub)]
                elif edges == best:
                    argmax.append((usub, vsub))
        result = brute_force_dkb(g, k1, k2)
        assert result.best_edge_count == best
        assert type(result.best_edge_count) is int
        assert result.unique == (len(argmax) == 1)
        assert [(su.members, sv.members) for su, sv in result.optimal_subsets] == argmax


class TestRestrictedRelaxationValue:
    def test_planted_clique_value_is_k(self):
        inst = sample_dks(PlantedDksParams(n=12, k=5, p=0.0, q=0.0, seed=2))
        value, argmin = restricted_relaxation_value(inst.graph, 5, gamma=0.7)
        assert value == pytest.approx(5.0)
        assert argmin[0].members == inst.planted.members

    def test_five_cycle(self):
        value, _ = restricted_relaxation_value(cycle_graph(5), 3, gamma=1.0)
        assert value == pytest.approx(5.0)  # 3 + (3*2 - 2*2)

    def test_edgeless(self):
        g = Graph(6, np.zeros((6, 6), dtype=bool))
        value, _ = restricted_relaxation_value(g, 3, gamma=2.0)
        assert value == pytest.approx(15.0)  # 3 + 2*6

    def test_argmin_matches_oracle_argmax_exhaustively(self):
        for seed in range(6):
            g = random_graph(10, 0.5, seed)
            for k in (2, 4, 6):
                oracle = brute_force_dks(g, k)
                for gamma in (0.1, 1.0, 3.7):
                    _, argmin = restricted_relaxation_value(g, k, gamma)
                    assert [s.members for s in argmin] == [
                        s.members for s in oracle.optimal_subsets
                    ]

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            restricted_relaxation_value(cycle_graph(5), 3, gamma=0.0)


class TestManyBlocks:
    def test_edgeless_graph_returns_every_subset_in_order(self):
        # 24,310 subsets: more than one scored block
        n, k = 17, 8
        assert math.comb(n, k) > oracle._BLOCK
        g = Graph(n, np.zeros((n, n), dtype=bool))
        expected = list(combinations(range(n), k))
        result = brute_force_dks(g, k)
        assert result.best_edge_count == 0
        assert [s.members for s in result.optimal_subsets] == expected
        value, argmin = restricted_relaxation_value(g, k, gamma=1.0)
        assert value == k + 2 * math.comb(k, 2)
        assert [s.members for s in argmin] == expected


class TestTrustedSubsets:
    """The oracle builds its subsets without NodeSubset's checks; they must
    equal publicly built ones, in order."""

    @staticmethod
    def assert_public(subset, n):
        assert subset == NodeSubset(subset.members, n)
        assert all(type(v) is int for v in subset.members)

    def test_tie_heavy_bipartite_result(self):
        # every one of the 59,400 pairs is optimal
        g = BipartiteGraph(12, 10, np.ones((12, 10), dtype=bool))
        result = brute_force_dkb(g, 4, 3)
        expected = [
            (NodeSubset(us, 12), NodeSubset(vs, 10))
            for vs in combinations(range(10), 3)
            for us in combinations(range(12), 4)
        ]
        assert result.optimal_subsets == expected
        for su, sv in result.optimal_subsets[:: 997]:
            self.assert_public(su, 12)
            self.assert_public(sv, 10)

    def test_tie_heavy_square_results(self):
        g = Graph(12, np.zeros((12, 12), dtype=bool))
        expected = [NodeSubset(s, 12) for s in combinations(range(12), 5)]
        result = brute_force_dks(g, 5)
        _, argmin = restricted_relaxation_value(g, 5, gamma=1.0)
        assert result.optimal_subsets == expected and argmin == expected
        for subset in result.optimal_subsets + argmin:
            self.assert_public(subset, 12)

    def test_one_object_per_distinct_subset(self, monkeypatch):
        # the 59,400 optimal pairs share 495 U and 120 V subsets
        made = []
        original = NodeSubset._trusted

        def recorded(cls, members, n):
            made.append((members, n))
            return original(members, n)

        monkeypatch.setattr(NodeSubset, "_trusted", classmethod(recorded))
        result = brute_force_dkb(BipartiteGraph(12, 10, np.ones((12, 10), dtype=bool)), 4, 3)
        assert len(result.optimal_subsets) == 59_400
        assert len(made) == len(set(made)) == 615

    def test_public_constructor_still_checks(self):
        assert NodeSubset((3, 1, 2), 4).members == (1, 2, 3)
        with pytest.raises(ValueError, match="duplicate"):
            NodeSubset((1, 1), 4)
        with pytest.raises(ValueError, match="out of range"):
            NodeSubset((0, 4), 4)

class TestSolverOracleConsistency:
    def test_near_integral_solutions_attain_oracle_optimum(self):
        rng = np.random.default_rng(20)
        checked = 0
        for trial in range(15):
            n = 15
            k = int(rng.integers(3, 7))
            p = float(rng.uniform(0.0, 0.4))
            q = float(rng.uniform(0.0, 0.4))
            inst = sample_dks(PlantedDksParams(n=n, k=k, p=p, q=q, seed=trial))
            result = solve_dks(inst.graph, k, SolverConfig(max_iter=2000))
            if not result.converged:
                continue
            rounded = round_to_subset(result.X, k)
            if relative_error(result.X, rounded) >= 1e-3:
                continue
            checked += 1
            oracle = brute_force_dks(inst.graph, k)
            rounded_edges = int(
                inst.graph.adj[np.ix_(rounded.mask(), rounded.mask())].sum() // 2
            )
            assert rounded_edges == oracle.best_edge_count
        assert checked >= 3
