import numpy as np
import pytest
import scipy.linalg

from dksub import solver
from dksub.graphs import (
    BipartiteGraph,
    Graph,
    NodeSubset,
    complement_edges,
    proposed_solution,
)
from dksub.models import PlantedDkbParams, PlantedDksParams, sample_dkb, sample_dks
from dksub.solver import (
    SolverConfig,
    recovery_check,
    relative_error,
    round_to_subset,
    solve_dkb,
    solve_dks,
)


def assert_feasible(result, g, k, tol):
    mask = complement_edges(g)
    assert np.linalg.norm(np.where(mask, result.X + result.Y, 0.0)) <= 10 * tol
    assert abs(result.X.sum() - k * k) <= 10 * tol * g.n
    assert result.X.min() >= -10 * tol
    assert result.X.max() <= 1 + 10 * tol


class TestSolveDks:
    def test_clean_planted_clique_recovers(self):
        inst = sample_dks(PlantedDksParams(n=50, k=20, p=0.0, q=0.0, seed=4))
        cfg = SolverConfig(gamma=6 / 20)
        result = solve_dks(inst.graph, 20, cfg)
        assert result.converged
        assert relative_error(result.X, inst.planted) < 1e-3
        assert_feasible(result, inst.graph, 20, cfg.tol)
        assert result.objective == pytest.approx(20.0, abs=0.05)

    def test_noisy_recovery_small(self):
        inst = sample_dks(PlantedDksParams(n=100, k=40, p=0.05, q=0.25, seed=4))
        result = solve_dks(inst.graph, 40)
        assert result.converged
        assert recovery_check(result.X, inst.planted)

    def test_complete_graph_objective(self):
        g = Graph.complete(20)
        cfg = SolverConfig(gamma=6 / 8)
        result = solve_dks(g, 8, cfg)
        assert result.converged
        assert result.objective <= 8 + cfg.tol
        assert np.abs(result.Y).max() <= 10 * cfg.tol

    def test_deterministic_residual_history(self):
        inst = sample_dks(PlantedDksParams(n=40, k=15, p=0.1, q=0.2, seed=6))
        a = solve_dks(inst.graph, 15)
        b = solve_dks(inst.graph, 15)
        assert np.array_equal(a.residual_history, b.residual_history)
        assert np.array_equal(a.X, b.X)

    def test_converged_residuals_below_tol(self):
        inst = sample_dks(PlantedDksParams(n=40, k=18, p=0.0, q=0.1, seed=8))
        result = solve_dks(inst.graph, 18)
        assert result.converged
        assert max(result.primal_residual, result.dual_residual) < 1e-4

    def test_invalid_k(self):
        g = Graph.complete(5)
        with pytest.raises(ValueError):
            solve_dks(g, 0)
        with pytest.raises(ValueError):
            solve_dks(g, 6)

    def test_nonconvergence_is_flagged_not_raised(self):
        inst = sample_dks(PlantedDksParams(n=30, k=10, p=0.3, q=0.4, seed=1))
        result = solve_dks(inst.graph, 10, SolverConfig(max_iter=5))
        assert not result.converged
        assert result.iterations == 5

    def test_paper_mode_runs_and_is_deterministic(self):
        # The verbatim update rule is not a convergent fixed-point iteration;
        # the contract is a well-formed, reproducible result, not recovery.
        inst = sample_dks(PlantedDksParams(n=30, k=12, p=0.0, q=0.0, seed=2))
        cfg = SolverConfig(mode="paper", max_iter=300)
        a = solve_dks(inst.graph, 12, cfg)
        b = solve_dks(inst.graph, 12, cfg)
        assert np.array_equal(a.residual_history, b.residual_history)
        assert a.iterations >= 1

    def test_svt_rank_is_one_at_convergence(self):
        inst = sample_dks(PlantedDksParams(n=50, k=20, p=0.0, q=0.0, seed=4))
        result = solve_dks(inst.graph, 20)
        assert result.converged
        assert result.svt_rank.dtype.kind == "i"
        assert result.svt_rank.shape == (len(result.residual_history),)
        assert result.svt_rank[-1] == 1

    def test_partial_eigensolve_follows_the_full_one(self, monkeypatch):
        # the whole solve with the SVT taken from a full eigh, as it was
        # computed before the partial eigensolve
        def svt_full_eigh(M, phi):
            w, V = scipy.linalg.eigh(M, driver="evd", check_finite=False)
            s = np.sign(w) * np.maximum(np.abs(w) - phi, 0.0)
            return (V * s) @ V.T, int(np.count_nonzero(s))

        inst = sample_dks(PlantedDksParams(n=250, k=100, p=0.05, q=0.25, seed=4))
        partial = solve_dks(inst.graph, 100)
        monkeypatch.setattr(solver, "_svt_symmetric", svt_full_eigh)
        full = solve_dks(inst.graph, 100)
        assert partial.converged and full.converged
        assert partial.iterations == full.iterations
        assert np.abs(partial.X - full.X).max() <= 1e-9
        assert np.array_equal(partial.svt_rank, full.svt_rank)

    def test_single_node(self):
        result = solve_dks(Graph.complete(1), 1)
        assert result.converged
        assert result.X.shape == (1, 1)
        assert result.X[0, 0] == pytest.approx(1.0, abs=1e-4)
        assert result.svt_rank[-1] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(tau=0.0)
        with pytest.raises(ValueError):
            SolverConfig(mode="other")


class TestSolveDkb:
    def test_clean_biclique_recovers(self):
        inst = sample_dkb(PlantedDkbParams(n1=40, n2=40, k1=15, k2=15, p=0.0, q=0.0, seed=0))
        result = solve_dkb(inst.graph, 15, 15)
        assert result.converged
        assert relative_error(result.X, (inst.planted_u, inst.planted_v)) < 1e-3

    def test_svt_rank_is_one_at_convergence(self):
        inst = sample_dkb(PlantedDkbParams(n1=40, n2=40, k1=15, k2=15, p=0.0, q=0.0, seed=0))
        result = solve_dkb(inst.graph, 15, 15)
        assert result.converged
        assert result.svt_rank.shape == (len(result.residual_history),)
        assert result.svt_rank[-1] == 1

    def test_gram_svt_follows_the_exact_one(self, monkeypatch):
        # a criterion-8 instance, solved again with gesdd's SVT in the loop
        inst = sample_dkb(PlantedDkbParams(n1=200, n2=200, k1=60, k2=60, p=0.05, q=0.25, seed=0))
        cfg = SolverConfig(gamma=6 / 60)
        gram = solve_dkb(inst.graph, 60, 60, cfg)
        monkeypatch.setattr(solver, "_svt_gram", solver._svt)
        exact = solve_dkb(inst.graph, 60, 60, cfg)
        assert gram.converged and exact.converged
        assert gram.iterations == exact.iterations
        assert np.array_equal(gram.svt_rank, exact.svt_rank)
        assert np.abs(gram.X - exact.X).max() <= 1e-9

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 5), (5, 1)])
    def test_single_row_or_column(self, n1, n2):
        result = solve_dkb(BipartiteGraph(n1, n2, np.ones((n1, n2), dtype=bool)), n1, n2)
        assert result.converged
        assert result.X.shape == (n1, n2)
        assert np.allclose(result.X, 1.0, rtol=0.0, atol=1e-4)

    def test_complete_bipartite_objective(self):
        g = BipartiteGraph(12, 10, np.ones((12, 10), dtype=bool))
        cfg = SolverConfig(gamma=6 / 6)
        result = solve_dkb(g, 6, 6, cfg)
        assert result.converged
        assert result.objective <= 6.0 + cfg.tol

    def test_full_parts_complete_graph(self):
        g = BipartiteGraph(8, 9, np.ones((8, 9), dtype=bool))
        result = solve_dkb(g, 8, 9)
        assert result.converged
        planted = (NodeSubset(tuple(range(8)), 8), NodeSubset(tuple(range(9)), 9))
        assert recovery_check(result.X, planted)

    def test_invalid_sizes(self):
        g = BipartiteGraph(4, 4, np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError):
            solve_dkb(g, 5, 2)


class TestRecoveryCheck:
    def test_exact(self):
        s = NodeSubset(tuple(range(5)), 12)
        X = np.outer(s.indicator(), s.indicator())
        assert recovery_check(X, s)
        assert relative_error(X, s) == 0.0

    def test_zero_matrix_fails(self):
        s = NodeSubset(tuple(range(5)), 12)
        assert not recovery_check(np.zeros((12, 12)), s)
        assert relative_error(np.zeros((12, 12)), s) == pytest.approx(1.0)

    def test_small_perturbation_passes(self):
        rng = np.random.default_rng(3)
        s = NodeSubset(tuple(range(20)), 100)
        X = np.outer(s.indicator(), s.indicator())
        X = X + 1e-5 * rng.choice([-1.0, 1.0], size=(100, 100))
        assert recovery_check(X, s)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((3, 3)), NodeSubset((0,), 4))


class TestRoundToSubset:
    def test_exact_rank_one(self):
        s = NodeSubset((2, 5, 7), 10)
        X = np.outer(s.indicator(), s.indicator())
        assert round_to_subset(X, 3).members == (2, 5, 7)

    def test_dominant_component_wins(self):
        a = NodeSubset((0, 1, 2), 9)
        b = NodeSubset((4, 5, 6), 9)
        X = np.outer(a.indicator(), a.indicator()) + 0.01 * np.outer(
            b.indicator(), b.indicator()
        )
        assert round_to_subset(X, 3).members == (0, 1, 2)

    def test_zero_matrix_tie_break(self):
        assert round_to_subset(np.zeros((8, 8)), 3).members == (0, 1, 2)

    def test_sign_flip_invariant(self):
        s = NodeSubset((1, 3), 6)
        X = np.outer(s.indicator(), s.indicator())
        assert round_to_subset(-X + 2 * X, 2).members == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            round_to_subset(np.zeros((3, 4)), 2)
        with pytest.raises(ValueError):
            round_to_subset(np.zeros((3, 3)), 0)
        for k in ((0, 2), (2, 5), (1, 1, 1)):
            with pytest.raises(ValueError):
                round_to_subset(np.zeros((3, 4)), k)

    def test_rectangular_pair(self):
        su, sv = NodeSubset((1, 4), 6), NodeSubset((0, 2, 3), 5)
        X = np.outer(su.indicator(), sv.indicator())
        assert round_to_subset(X, (2, 3)) == (su, sv)
        assert round_to_subset(X.T, (3, 2)) == (sv, su)

    def test_pair_matches_the_square_rounding(self):
        X = np.random.default_rng(11).random((9, 9))
        X = X + X.T
        assert round_to_subset(X, (4, 4)) == (round_to_subset(X, 4),) * 2


class TestObjectiveDominance:
    def test_converged_objective_matches_candidate_value(self):
        # In a regime where the dual certificate validates the planted pair,
        # the solver objective must land on k + gamma * ||Y*||_1.
        from dksub.certificate import build_multipliers, verify

        inst = sample_dks(PlantedDksParams(n=60, k=25, p=0.05, q=0.05, seed=12))
        mult = build_multipliers(inst)
        report = verify(mult, inst)
        assert report.valid_strict, "expected a certifiable instance for this test"
        cfg = SolverConfig()
        result = solve_dks(inst.graph, 25, cfg)
        assert result.converged
        _, Y = proposed_solution(inst.graph, inst.planted)
        expected = 25 + mult.gamma * np.abs(Y).sum()
        assert result.objective == pytest.approx(expected, abs=10 * cfg.tol)
