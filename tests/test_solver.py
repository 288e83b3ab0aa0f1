import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg

import dksub
from dksub import solver
from dksub.graphs import (
    BipartiteGraph,
    Graph,
    NodeSubset,
    bipartite_complement_edges,
    complement_edges,
    proposed_solution,
)
from dksub.models import PlantedDkbParams, PlantedDksParams, sample_dkb, sample_dks
from dksub.oracle import brute_force_dks
from dksub.solver import (
    ACCEPTED,
    PLAIN,
    REJECTED,
    SolverConfig,
    default_gamma,
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
        if result.stop == "tol":
            assert max(result.primal_residual, result.dual_residual) < 1e-4
        else:
            assert result.stop == "proof" and result.proven_distance < 1e-4

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

    def test_paper_mode_stops_at_its_first_non_finite_residual(self):
        inst = sample_dks(PlantedDksParams(n=30, k=12, p=0.0, q=0.0, seed=2))
        result = solve_dks(inst.graph, 12, SolverConfig(mode="paper", max_iter=2000))
        finite = np.isfinite(result.residual_history).all(axis=1)
        assert result.iterations == 252
        assert finite[:251].all() and not finite[251]
        assert not result.converged and not result.hit_cap

    # from order 32 on: the square iterates leave syevd's safe range (one
    # dsyevd call each), and the Gram route hands the bipartite ones to gesdd
    @pytest.mark.parametrize(
        "bipartite,routes",
        [(False, {"dsyevd": 11, "dsytrd": 239, "gesdd": 0}),
         (True, {"dsyevd": 0, "dsytrd": 6, "gesdd": 244})],
        ids=["n40", "40x36"],
    )
    def test_paper_mode_from_order_32_stops_at_its_first_non_finite_residual(
        self, monkeypatch, bipartite, routes
    ):
        cfg = SolverConfig(mode="paper")
        if bipartite:
            g = sample_dkb(PlantedDkbParams(n1=40, n2=36, k1=12, k2=10, p=0.0, q=0.0, seed=2)).graph
            run = functools.partial(solve_dkb, g, 12, 10, cfg)
        else:
            g = sample_dks(PlantedDksParams(n=40, k=12, p=0.0, q=0.0, seed=2)).graph
            run = functools.partial(solve_dks, g, 12, cfg)
        calls = []

        def spy(module, name, route):
            original = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append(route)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        spy(scipy.linalg.lapack, "dsyevd", "dsyevd")
        spy(scipy.linalg.lapack, "dsytrd", "dsytrd")
        spy(solver, "_svt", "gesdd")
        result = run()
        assert {route: calls.count(route) for route in routes} == routes
        finite = np.isfinite(result.residual_history).all(axis=1)
        assert result.iterations == 250
        assert finite[:249].all() and not finite[249]
        assert not result.converged and not result.hit_cap
        again = run()
        assert np.array_equal(result.residual_history, again.residual_history, equal_nan=True)
        assert np.array_equal(result.X, again.X, equal_nan=True)
        assert np.array_equal(result.svt_rank, again.svt_rank)

    def test_non_finite_plain_step_raises(self, monkeypatch):
        # an overflowed X in sweep 5 makes sweep 6's X-step input infinite;
        # such a solve used to stop there quietly, as not converged
        svt_symmetric, calls = solver._svt_symmetric, []

        def overflowing_once(M, phi, lead=None):
            calls.append(phi)
            X, rank, lead = svt_symmetric(M, phi, lead)
            if len(calls) == 5:
                X[0, 0] = np.inf
            return X, rank, lead

        monkeypatch.setattr(solver, "_svt_symmetric", overflowing_once)
        g, k = criterion_3_trial_0()
        with pytest.raises(solver.NumericalError, match="non-finite entries in a 14x14 matrix"):
            solve_dks(g, k)
        assert len(calls) == 6

    def test_svt_rank_is_one_at_convergence(self):
        inst = sample_dks(PlantedDksParams(n=50, k=20, p=0.0, q=0.0, seed=4))
        result = solve_dks(inst.graph, 20)
        assert result.converged
        assert result.svt_rank.dtype.kind == "i"
        assert result.svt_rank.shape == (len(result.residual_history),)
        assert result.svt_rank[-1] == 1

    def test_partial_eigensolve_follows_the_full_one(self, monkeypatch):
        # the whole solve with the SVT taken from a full eigh, as it was
        # computed before the partial eigensolve; it ignores the leading
        # vector, so the reference takes no rank-one step
        def svt_full_eigh(M, phi, lead=None):
            w, V = scipy.linalg.eigh(M, driver="evd", check_finite=False)
            s = np.sign(w) * np.maximum(np.abs(w) - phi, 0.0)
            return (V * s) @ V.T, int(np.count_nonzero(s)), None

        inst = sample_dks(PlantedDksParams(n=250, k=100, p=0.05, q=0.25, seed=4))
        partial = solve_dks(inst.graph, 100)
        monkeypatch.setattr(solver, "_svt_symmetric", svt_full_eigh)
        full = solve_dks(inst.graph, 100)
        assert partial.converged and full.converged
        assert partial.iterations == full.iterations
        assert np.abs(partial.X - full.X).max() <= 1e-9
        assert np.array_equal(partial.svt_rank, full.svt_rank)

    def test_rank_one_steps_follow_the_pipeline(self, monkeypatch, lone_pair_outcomes):
        # the same solve with every SVT from the reduction pipeline
        # with no checkpoint, so that no proof stops it early
        inst = sample_dks(PlantedDksParams(n=250, k=100, p=0.05, q=0.25, seed=4))
        fast = plain_solve(complement_edges(inst.graph), 100, 100, True)
        assert lone_pair_outcomes.count(True) >= fast.iterations // 3
        pipeline_only(monkeypatch, "_svt_symmetric")
        ref = plain_solve(complement_edges(inst.graph), 100, 100, True)
        assert fast.converged and ref.converged
        assert fast.iterations == ref.iterations
        assert np.array_equal(fast.svt_rank, ref.svt_rank)
        assert np.abs(fast.X - ref.X).max() <= 1e-12

    def test_small_solve_takes_no_rank_one_step(self, lone_pair_outcomes):
        # below order 32 every SVT is one dsyevd call
        g, k = criterion_3_trial_0()
        result = solve_dks(g, k, SolverConfig(max_iter=300))
        assert (result.svt_rank == 1).any()
        assert lone_pair_outcomes == []

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
        for field in ("gamma", "tau", "tol"):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="finite"):
                    SolverConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [10.5, 10.0, "10", True])
    def test_max_iter_must_be_an_integer(self, bad):
        # 10.5 used to run 11 sweeps and report hit_cap=False
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=bad)

    # True used to run as 1, and "1e-4" failed comparing an int with a str
    # (gamma=None is the size-based default)
    @pytest.mark.parametrize(
        "field,bad",
        [(field, bad) for field in ("gamma", "tau", "tol")
         for bad in (True, False, "1e-4", None, [0.5]) if (field, bad) != ("gamma", None)],
    )
    def test_parameters_must_be_real_numbers(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            SolverConfig(**{field: bad})

    def test_numpy_real_parameters(self):
        cfg = SolverConfig(gamma=np.float32(0.5), tau=np.float64(0.35), tol=np.int64(1))
        assert (cfg.gamma, cfg.tau, cfg.tol) == (0.5, 0.35, 1)

    def test_numpy_integer_max_iter(self):
        g, k = criterion_3_trial_0()
        result = solve_dks(g, k, SolverConfig(max_iter=np.int64(10)))
        assert (result.iterations, result.hit_cap) == (10, True)


def plain_solve(nonedge, k1, k2, symmetric):
    """The derived solve at the default gamma 6/sqrt(k1 k2) with no
    checkpoint: it stops by tol or at the cap alone."""
    gamma = 6.0 / math.sqrt(k1 * k2)
    return solver._admm(nonedge, float(k1) * float(k2), gamma, SolverConfig(), symmetric)


def pipeline_only(monkeypatch, name):
    """Make solver.<name> drop the leading vector, so that every SVT takes
    the pipeline it ran before the rank-one route."""
    original = getattr(solver, name)
    monkeypatch.setattr(solver, name, lambda M, phi, lead=None: original(M, phi))


def criterion_3_trial_0():
    """The first criterion-3 instance (n=14, k=3): a plain ADMM solve of it
    stops at the 5000-sweep cap."""
    rng = dksub.stream_rng(777)
    p, q = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))
    return sample_dks(PlantedDksParams(n=14, k=3, p=p, q=q, seed=10_000)).graph, 3


class TestAnderson:
    def test_rows_before_the_start_are_the_plain_solves(self):
        g, k = criterion_3_trial_0()
        full = solve_dks(g, k)
        capped = solve_dks(g, k, SolverConfig(max_iter=solver._ANDERSON_START))
        start = solver._ANDERSON_START
        assert full.iterations > start and capped.iterations == start
        assert np.array_equal(full.residual_history[:start], capped.residual_history)
        assert np.array_equal(full.svt_rank[:start], capped.svt_rank)
        assert (capped.sweep_kind == PLAIN).all()
        assert full.sweep_kind.shape == (full.iterations,)
        assert (full.sweep_kind[start:] == ACCEPTED).any()

    def test_no_anderson_step_before_the_start(self):
        inst = sample_dks(PlantedDksParams(n=50, k=20, p=0.0, q=0.0, seed=4))
        result = solve_dks(inst.graph, 20)
        assert result.converged and result.iterations < solver._ANDERSON_START
        assert (result.sweep_kind == PLAIN).all()
        assert result.anderson_counts() == {"anderson_accepted": 0, "anderson_rejected": 0}

    def test_bad_candidate_gives_the_plain_step_and_clears_the_memory(self, monkeypatch):
        g, k = criterion_3_trial_0()
        cfg = SolverConfig(max_iter=300)
        memory_sizes = []

        def far_off(gram, rhs):
            memory_sizes.append(rhs.size)
            return np.full(rhs.size, 1e3)

        monkeypatch.setattr(solver, "_mixing_coefficients", far_off)
        mixed = solve_dks(g, k, cfg)
        monkeypatch.setattr(solver, "_ANDERSON_START", cfg.max_iter)
        plain = solve_dks(g, k, cfg)
        kinds = mixed.sweep_kind
        assert (kinds != ACCEPTED).all() and (kinds == REJECTED).sum() == len(memory_sizes)
        # every rejection is followed by a plain sweep, from a memory that
        # then holds one secant pair only
        after = kinds[1:][kinds[:-1] == REJECTED]
        assert after.size and (after == PLAIN).all()
        assert set(memory_sizes) == {1}
        # the sweeps at the current state are those of plain ADMM
        assert np.array_equal(
            mixed.residual_history[kinds == PLAIN],
            plain.residual_history[: (kinds == PLAIN).sum()],
        )

    def test_non_finite_candidate_gives_the_plain_step_and_no_row(self, monkeypatch):
        g, k = criterion_3_trial_0()
        start = solver._ANDERSON_START
        memory_sizes = []
        mixing = solver._mixing_coefficients

        def overflowing_once(gram, rhs):
            memory_sizes.append(rhs.size)
            if len(memory_sizes) == 1:
                return np.full(rhs.size, 1e300)
            return mixing(gram, rhs)

        monkeypatch.setattr(solver, "_mixing_coefficients", overflowing_once)
        mixed = solve_dks(g, k)
        # the first candidate comes after two plain sweeps of the Anderson
        # phase; it runs no SVT, and the plain step is the next row
        monkeypatch.setattr(solver, "_ANDERSON_START", start + 3)
        plain = solve_dks(g, k, SolverConfig(max_iter=start + 3))
        assert mixed.converged and not mixed.hit_cap
        assert (mixed.sweep_kind[: start + 3] == PLAIN).all()
        assert np.array_equal(mixed.residual_history[: start + 3], plain.residual_history)
        # the memory was cleared: the next candidate mixes one secant pair
        assert memory_sizes[:2] == [1, 1]

    def test_failing_candidate_svt_gives_the_plain_step_and_no_row(self, monkeypatch):
        g, k = criterion_3_trial_0()
        start = solver._ANDERSON_START
        calls, memory_sizes = [], []
        svt_symmetric, mixing = solver._svt_symmetric, solver._mixing_coefficients

        def failing_once(M, phi, lead=None):
            calls.append(phi)
            # the first candidate is the third sweep of the Anderson phase
            if len(calls) == start + 3:
                raise solver.NumericalError("dsyevd failed on a 14x14 matrix (info=1)")
            return svt_symmetric(M, phi, lead)

        def recording(gram, rhs):
            memory_sizes.append(rhs.size)
            return mixing(gram, rhs)

        monkeypatch.setattr(solver, "_svt_symmetric", failing_once)
        monkeypatch.setattr(solver, "_mixing_coefficients", recording)
        mixed = solve_dks(g, k)
        assert mixed.converged and not mixed.hit_cap
        # every SVT call but the failed one left a row, and the next is plain
        assert mixed.iterations == len(calls) - 1
        assert (mixed.sweep_kind[: start + 3] == PLAIN).all()
        monkeypatch.setattr(solver, "_svt_symmetric", svt_symmetric)
        monkeypatch.setattr(solver, "_ANDERSON_START", start + 3)
        plain = solve_dks(g, k, SolverConfig(max_iter=start + 3))
        assert np.array_equal(mixed.residual_history[: start + 3], plain.residual_history)
        # the memory was cleared: the next candidate mixes one secant pair
        assert memory_sizes[:2] == [1, 1]

    def test_accelerated_solve_is_feasible_and_meets_the_stop_rule(self):
        g, k = criterion_3_trial_0()
        cfg = SolverConfig()
        result = solve_dks(g, k, cfg)
        assert result.converged and not result.hit_cap
        assert result.anderson_counts()["anderson_accepted"] > 0
        assert result.sweep_kind[-1] != REJECTED
        assert tuple(result.residual_history[-1]) == (
            result.primal_residual, result.dual_residual,
        )
        assert max(result.primal_residual, result.dual_residual) < cfg.tol
        assert_feasible(result, g, k, cfg.tol)

    def test_capped_criterion_3_instance_converges_and_rounds_to_a_densest_subgraph(self):
        g, k = criterion_3_trial_0()
        result = solve_dks(g, k)
        assert result.converged
        # X is fractional (relative error 0.61 to its rounding), yet the
        # rounding is a densest 3-subgraph
        mask = round_to_subset(result.X, k).mask()
        edges = int(g.adj[np.ix_(mask, mask)].sum()) // 2
        assert edges == brute_force_dks(g, k).best_edge_count


def matrix_w_sweep(s, nonedge, sum_target, gamma, tau, shrink):
    """The derived sweep as first written: W and LW as matrices, W from
    project_sum, Q masked by a copy, and the soft threshold as
    copysign(max(|x| - phi, 0), x).  s is a dict of the iterates, updated
    in place; returns (rp, rd, kept rank)."""
    norm = np.linalg.norm
    Q = s["X"] + s["Y"] + s["LQ"]
    np.copyto(Q, 0.0, where=nonedge)
    C = ((Q - s["Y"] - s["LQ"]) + (s["W"] - s["LW"]) + (s["Z"] - s["LZ"])) / 3.0
    X, rank, _ = shrink(C, 1.0 / (3.0 * tau))
    U = Q - X - s["LQ"]
    Y = np.copysign(np.maximum(np.abs(U) - gamma / tau, 0.0), U)
    W = solver.project_sum(X + s["LW"], sum_target)
    Z = np.clip(X + s["LZ"], 0.0, 1.0)
    LQ = s["LQ"] + (X + Y - Q)
    rp = max(norm(X - W), norm(X - Z), norm(X + Y - Q))
    rd = max(norm(W - s["W"]), norm(Z - s["Z"]), tau * norm(LQ - s["LQ"]))
    s.update(X=X, Y=Y, W=W, Z=Z, LQ=LQ, LW=s["LW"] + (X - W), LZ=s["LZ"] + (X - Z))
    return rp, rd, rank


def n60_square(k):
    """A derived sweep of an n=60 square instance, and the sweep's input."""
    inst = sample_dks(PlantedDksParams(n=60, k=k, p=0.05, q=0.25, seed=0))
    args = complement_edges(inst.graph), float(k * k), default_gamma(k)
    return solver._DerivedSweep(*args, 0.35, solver._svt_symmetric), args


def bipartite_30x40():
    """A derived sweep of a 30x40 bipartite instance, and the sweep's input."""
    inst = sample_dkb(PlantedDkbParams(n1=30, n2=40, k1=10, k2=12, p=0.05, q=0.25, seed=0))
    args = bipartite_complement_edges(inst.graph), 120.0, solver.default_gamma_bipartite(10, 12)
    return solver._DerivedSweep(*args, 0.35, solver._svt_gram), args


class TestDerivedSweep:
    # n=60, k=10 does not recover and keeps 24 eigenpairs (the full
    # eigensolve), k=20 recovers at kept rank 1 (the partial one), and the
    # 30x40 SVT takes the Gram route on the transpose.  After the k=20
    # solve converges its residuals fall to 1e-8, where rounding makes
    # them differ beyond rtol; atol covers those rows only.
    @pytest.mark.parametrize(
        "instance",
        [lambda: n60_square(10), lambda: n60_square(20), bipartite_30x40],
        ids=["n60-k10", "n60-k20", "30x40"],
    )
    def test_matches_the_matrix_w_sweep(self, instance):
        sweep, (nonedge, sum_target, gamma) = instance()
        p = sweep.start()
        ref = dict(X=p.X.copy(), Y=p.U - p.cu, Z=p.cv.copy(), LQ=-p.cu, LZ=p.V - p.cv)
        ref.update(W=p.X.copy(), LW=np.zeros(nonedge.shape))
        rows, ref_rows = [], []
        for _ in range(100):
            rows.append(sweep(p))
            ref_rows.append(matrix_w_sweep(ref, nonedge, sum_target, gamma, sweep.tau, sweep.shrink))
        rows, ref_rows = np.array(rows), np.array(ref_rows)
        np.testing.assert_allclose(rows[:, :2], ref_rows[:, :2], rtol=1e-9, atol=1e-12)
        assert np.array_equal(rows[:, 2], ref_rows[:, 2])
        assert np.abs(p.X - ref["X"]).max() <= 1e-12
        assert np.abs(p.X + p.ws - ref["W"]).max() <= 1e-12
        assert np.abs(p.z[-1] / np.sqrt(sweep.size) - ref["LW"]).max() <= 1e-12

    def test_non_finite_input_leaves_the_point_unchanged(self):
        sweep, _ = n60_square(20)
        p = sweep.start()
        for _ in range(30):
            sweep(p)
        lead = sweep.lead
        assert lead is not None  # the last sweep kept one pair
        p.cv[3, 4] = np.inf
        before = [p.z.copy(), p.cu.copy(), p.cv.copy(), p.ws, lead.copy()]
        with pytest.raises(solver.NumericalError, match="non-finite"):
            sweep(p)
        assert sweep.lead is lead
        for a, b in zip(before, (p.z, p.cu, p.cv, p.ws, sweep.lead)):
            assert np.array_equal(a, b)

    def test_point_rebuilt_from_its_z_sweeps_alike(self):
        g, k = criterion_3_trial_0()
        nonedge = complement_edges(g)
        sweep = solver._DerivedSweep(
            nonedge, float(k * k), default_gamma(k), 0.35, solver._svt_symmetric
        )
        p = sweep.start()
        for _ in range(120):
            sweep(p)
        rebuilt = solver._Point(sweep.shape)
        rebuilt.z[:] = p.z
        sweep.load(rebuilt)
        assert sweep(rebuilt) == sweep(p)
        assert np.linalg.norm(rebuilt.z - p.z) <= 1e-14 * np.linalg.norm(p.z)


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
        # the exact SVT takes no leading vector, so no rank-one step
        monkeypatch.setattr(
            solver, "_svt_gram", lambda M, phi, lead=None: (*solver._svt(M, phi), None)
        )
        exact = solve_dkb(inst.graph, 60, 60, cfg)
        assert gram.converged and exact.converged
        assert gram.iterations == exact.iterations
        assert np.array_equal(gram.svt_rank, exact.svt_rank)
        assert np.abs(gram.X - exact.X).max() <= 1e-9

    def test_rank_one_steps_follow_the_gram_pipeline(self, monkeypatch, lone_pair_outcomes):
        # the criterion-8 instance, with every SVT from the Gram pipeline
        # with no checkpoint, so that no proof stops it early
        inst = sample_dkb(PlantedDkbParams(n1=200, n2=200, k1=60, k2=60, p=0.05, q=0.25, seed=0))
        nonedge = bipartite_complement_edges(inst.graph)
        fast = plain_solve(nonedge, 60, 60, False)
        assert lone_pair_outcomes.count(True) >= 10
        pipeline_only(monkeypatch, "_svt_gram")
        ref = plain_solve(nonedge, 60, 60, False)
        assert fast.converged and ref.converged
        assert fast.iterations == ref.iterations
        assert np.array_equal(fast.svt_rank, ref.svt_rank)
        assert np.abs(fast.X - ref.X).max() <= 1e-12

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


class TestLazyObjective:
    @staticmethod
    def eager(result, gamma, symmetric):
        """The objective as every solve used to compute it at its end."""
        with solver._one_blas_thread():
            if not np.isfinite(result.X).all():
                return math.nan
            return solver._nuclear_norm(result.X, symmetric) + gamma * float(
                np.abs(result.Y).sum())

    @staticmethod
    def same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    def test_square_and_bipartite_match_bitwise(self):
        inst = sample_dks(PlantedDksParams(n=40, k=15, p=0.05, q=0.2, seed=3))
        result = solve_dks(inst.graph, 15)
        assert self.same(result.objective, self.eager(result, default_gamma(15), True))
        b = sample_dkb(PlantedDkbParams(n1=30, n2=24, k1=10, k2=8, p=0.05, q=0.2, seed=3))
        result = solve_dkb(b.graph, 10, 8)
        gamma = solver.default_gamma_bipartite(10, 8)
        assert self.same(result.objective, self.eager(result, gamma, False))

    def test_diverging_paper_mode_matches_bitwise(self):
        b = sample_dkb(PlantedDkbParams(n1=40, n2=36, k1=12, k2=10, p=0.0, q=0.0, seed=2))
        result = solve_dkb(b.graph, 12, 10, SolverConfig(mode="paper"))
        assert not math.isfinite(result.primal_residual)
        gamma = solver.default_gamma_bipartite(12, 10)
        assert self.same(result.objective, self.eager(result, gamma, False))
        # a non-finite X has no objective
        broken = dataclasses.replace(result, X=np.full_like(result.X, np.inf))
        assert math.isnan(broken.objective)

    def test_computed_once_on_first_read(self, monkeypatch):
        inst = sample_dks(PlantedDksParams(n=20, k=8, p=0.0, q=0.0, seed=1))
        calls = []
        original = solver._nuclear_norm
        monkeypatch.setattr(
            solver, "_nuclear_norm", lambda *a: calls.append(a) or original(*a))
        result = solve_dks(inst.graph, 8)
        assert calls == []
        assert result.objective == result.objective
        assert len(calls) == 1


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
