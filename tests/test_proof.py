"""The proofs that stop a phase-grid trial (solver._PlantedProof).

At every checkpoint the proof reads W = (C - X) / phi_x from the sweep and
projects it onto the certificate's conditions at X* = 1_S 1_S':
W' = u u' + P W P with u = 1_S / sqrt(k) and P = I - u u', and L = gamma on
every nonedge.  Its claims are tested against what they promise: the
projection keeps ||W'||_2 <= max(1, ||W||_2) and makes the bound tight at
X*, the dual bound never exceeds f at a feasible point, a proven distance
bounds the distance of the optimum that a long solve reaches, a refutation
leaves that optimum outside recovery_tol, and a proof of recovery agrees
with the exhaustive oracle.
"""

import math
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dksub
from dksub.experiments import PhaseGridConfig, run_trial
from dksub.graphs import Graph, NodeSubset, bipartite_complement_edges, complement_edges
from dksub.models import PlantedDkbParams, PlantedDksParams, child_seed, sample_dkb, sample_dks
from dksub.solver import (
    SolverConfig,
    _PlantedProof,
    _box_sum_projection,
    _solve_dks,
    relative_error,
    round_to_subset,
    solve_dkb,
    solve_dks,
    svt,
)

TOL = 1e-3  # recovery_tol, as in the phase grid


def f_block(nonedge, members, gamma):
    """f(1_T 1_T') = |T| + gamma (nonedge entries of T x T)."""
    idx = np.asarray(members)
    return len(idx) + gamma * float(nonedge[np.ix_(idx, idx)].sum())


@contextmanager
def checkpoints():
    """Yield the list of (proof, M, W, X) of every due checkpoint of the
    solves run inside: the dual M = W' + L and W' that the checkpoint would
    prove from, copied before the solve moves on."""
    seen = []
    original = _PlantedProof.__call__

    def spy(self, sweep, p, count):
        if count >= self.due:
            M, W = self._dual(sweep, p)
            seen.append((self, M.copy(), W.copy(), p.X.copy()))
        return original(self, sweep, p, count)

    with mock.patch.object(_PlantedProof, "__call__", spy):
        yield seen


def proven_distance(proof, M, W):
    """The distance the checkpoint proves from M and W, as __call__ takes it."""
    block = M[proof.block]
    outside = np.ones(M.shape, dtype=bool)
    outside[proof.block] = False
    low = float(M[outside].min()) if outside.any() else math.inf
    return proof._distance(
        float(block.max()), low, float(block.sum()), float(np.abs(block).sum()),
        proof._norm_bound(W.copy()),
    )


def dual_bound(proof, M, W, sign=1.0):
    """min <W/s + sign L, X> over the feasible set: the sum of the m
    smallest entries, with s from the proof's own bound on ||W||_2 and
    L = M - W, gamma on every nonedge."""
    L = M - W
    scaled = W / proof._norm_bound(W.copy()) + sign * L
    m = int(proof.m)
    return float(np.partition(scaled, m - 1, axis=None)[:m].sum())


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(8, 20),
    frac=st.floats(0.2, 0.6),
    p=st.floats(0.0, 0.3),
    q=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**16),
)
def test_every_checkpoint_is_sound(n, frac, p, q, seed):
    k = max(2, round(frac * n))
    inst = sample_dks(PlantedDksParams(n=n, k=k, p=p, q=q, seed=seed))
    nonedge = complement_edges(inst.graph)
    gamma = 6.0 / k
    with checkpoints() as seen:
        _solve_dks(inst.graph, k, SolverConfig(max_iter=400), inst.planted, TOL)
    # the optimum, up to the accuracy of a long solve
    long = solve_dks(inst.graph, k, SolverConfig(tol=1e-9))
    f_star = f_block(nonedge, inst.planted.members, gamma)
    for proof, M, W, X in seen:
        assert proof.f_star == pytest.approx(f_star, rel=1e-15)
        L = M - W
        # L lives on the nonedges, within gamma
        assert not L[~nonedge].any()
        assert np.abs(L).max() <= gamma * (1 + 1e-12)
        # any feasible point bounds the dual bound from above: X* and the
        # rounded answer's indicator
        lb = dual_bound(proof, M, W)
        assert lb <= f_star * (1 + 1e-12)
        rounded = round_to_subset(X, k)
        assert lb <= f_block(nonedge, rounded.members, gamma) * (1 + 1e-12)
        if long.converged:
            err = relative_error(long.X, inst.planted)
            distance = proven_distance(proof, M, W)
            assert err <= distance + 1e-5
            if proof._refutes(X, M):
                assert err >= TOL - 1e-5


def projected(proof, C, X, phi):
    """_dual on a stand-in sweep that holds C and phi_x, at the point X:
    M, W' and the raw W = (C - X)/phi (its symmetric part in the square
    case)."""
    sweep = SimpleNamespace(C=C, Q=np.empty(C.shape), T=np.empty(C.shape), phi_x=phi)
    M, W = proof._dual(sweep, SimpleNamespace(X=X))
    raw = (C - X) / phi
    if proof.symmetric:
        raw = 0.5 * (raw + raw.T)
    return M.copy(), W.copy(), raw


def spectral_norm(A):
    return float(np.linalg.norm(A, 2))


@pytest.mark.parametrize("shrink", [True, False])
def test_projection_meets_the_certificate_conditions(shrink):
    # W' = u u' + P W P: exactly symmetric, no larger in norm than
    # max(1, ||W||), W' u = u and 1_S' W' 1_S = k, and M - W' = gamma on
    # the nonedges.  With shrink, X is the SVT of C and ||W|| <= 1, as in a
    # sweep; without it ||W|| > 1.
    rng = np.random.default_rng(5)
    inst = sample_dks(PlantedDksParams(n=16, k=6, p=0.1, q=0.2, seed=4))
    nonedge = complement_edges(inst.graph)
    proof = _PlantedProof(nonedge, (inst.planted,) * 2, 1.0, 36.0, TOL, True)
    phi = 0.8
    C = rng.normal(0.2, 1.0, (16, 16))
    C = C + C.T
    X = svt(C, phi) if shrink else rng.uniform(0.0, 1.0, (16, 16))
    M, W, raw = projected(proof, C, X, phi)
    assert np.array_equal(W, W.T)
    err = 16 * np.finfo(float).eps * float(np.linalg.norm(W))
    assert spectral_norm(W) <= max(1.0, spectral_norm(raw)) + err
    assert (spectral_norm(raw) > 1.01) != shrink
    u = inst.planted.indicator() / math.sqrt(6)
    assert np.allclose(W @ u, u, rtol=0, atol=1e-14)
    assert float(W[proof.block].sum()) == pytest.approx(6.0, rel=1e-14)
    # P W' P = P W P
    P = np.eye(16) - np.outer(u, u)
    assert np.allclose(P @ W @ P, P @ raw @ P, rtol=0, atol=1e-13)
    assert np.array_equal(M - W == 0, ~nonedge)
    assert np.allclose((M - W)[nonedge], 1.0, rtol=1e-15)


def test_bipartite_projection_meets_the_certificate_conditions():
    # no caller builds the rectangular proof, so it is built here directly:
    # W' = u v' + P_u W P_v, with 1_S1' W' 1_S2 = sqrt(k1 k2)
    rng = np.random.default_rng(6)
    n1, n2, k1, k2 = 9, 13, 4, 6
    S1 = NodeSubset(tuple(sorted(rng.choice(n1, k1, replace=False).tolist())), n1)
    S2 = NodeSubset(tuple(sorted(rng.choice(n2, k2, replace=False).tolist())), n2)
    nonedge = rng.random((n1, n2)) < 0.3
    proof = _PlantedProof(nonedge, (S1, S2), 0.7, float(k1 * k2), TOL, False)
    C, phi = rng.normal(0.3, 1.0, (n1, n2)), 0.9
    M, W, raw = projected(proof, C, svt(C, phi), phi)
    err = n2 * np.finfo(float).eps * float(np.linalg.norm(W))
    assert spectral_norm(W) <= max(1.0, spectral_norm(raw)) + err
    u, v = S1.indicator() / math.sqrt(k1), S2.indicator() / math.sqrt(k2)
    assert np.allclose(W @ v, u, rtol=0, atol=1e-14)
    assert np.allclose(u @ W, v, rtol=0, atol=1e-14)
    assert float(W[proof.block].sum()) == pytest.approx(math.sqrt(k1 * k2), rel=1e-14)
    Pu, Pv = np.eye(n1) - np.outer(u, u), np.eye(n2) - np.outer(v, v)
    assert np.allclose(Pu @ W @ Pv, Pu @ raw @ Pv, rtol=0, atol=1e-13)
    assert np.allclose((M - W)[nonedge], 0.7, rtol=1e-15)
    assert not (M - W)[~nonedge].any()


def test_every_checkpoint_dual_is_projected():
    # the duals the phase-pool solves check, from sweep 1 on
    for seed in range(3):
        inst = sample_dks(PlantedDksParams(n=60, k=24, p=0.05, q=0.25, seed=seed))
        with checkpoints() as seen:
            result, proof = _solve_dks(inst.graph, 24, None, inst.planted, TOL)
        assert proof.stop == "proof_recovered"
        assert len(seen) == result.iterations
        for _, M, W, _ in seen:
            assert np.array_equal(W, W.T)
            assert float(W[proof.block].sum()) == pytest.approx(24.0, rel=1e-13)
            assert proof._norm_bound(W) <= 1.0 + 1e-12
        # the sum over the block is f(X*), up to rounding
        assert float(M[proof.block].sum()) == pytest.approx(proof.f_star, rel=1e-13)


def stop_sweep(inst, k, proof_class=_PlantedProof):
    with mock.patch.object(dksub.solver, "_PlantedProof", proof_class):
        result, proof = _solve_dks(inst.graph, k, None, inst.planted, TOL)
    return result.iterations, proof.stop


class _Unprojected(_PlantedProof):
    """The raw sweep dual W = (C - X) / phi_x, with L = gamma."""

    def _project(self, sweep, p):
        return np.subtract(sweep.C, p.X, out=sweep.Q)


class _NegativeL(_PlantedProof):
    """The projected W', with L = -gamma on every nonedge."""

    def __init__(self, *args):
        super().__init__(*args)
        self.L = -self.L


@pytest.mark.parametrize("seed", [0, 3])
def test_projection_and_the_sign_of_L_make_the_proof_fire(seed):
    # any W and L within their bounds give a valid bound, so neither the
    # projection nor L's sign can show in soundness; they show in
    # tightness.  At the sweep where the proof fires, the dual bound sits
    # at f(X*); with L's sign flipped it falls far below, and no distance
    # is proven.  Without the projection, or with L at -gamma, the proof
    # does not fire at that sweep.
    inst = sample_dks(PlantedDksParams(n=60, k=24, p=0.05, q=0.25, seed=seed))
    with checkpoints() as seen:
        fired, stop = stop_sweep(inst, 24)
    assert stop == "proof_recovered" and fired < 30
    proof, M, W, _ = seen[-1]
    assert proven_distance(proof, M, W) < TOL
    assert proof.f_star - dual_bound(proof, M, W) < 1e-9
    assert proof.f_star - dual_bound(proof, M, W, sign=-1.0) > 1.0
    L = M - W
    assert proven_distance(proof, W - L, W) >= TOL
    for mutant in (_Unprojected, _NegativeL):
        sweeps, _ = stop_sweep(inst, 24, mutant)
        assert sweeps > fired, mutant.__name__


def test_proven_distance_bounds_the_solved_optimum():
    # the recovery proof at phase-pool shape, against solves run to tol
    for seed in range(4):
        inst = sample_dks(PlantedDksParams(n=60, k=24, p=0.05, q=0.25, seed=seed))
        result, proof = _solve_dks(inst.graph, 24, None, inst.planted, TOL)
        assert proof.stop == "proof_recovered"
        assert 0.0 < proof.distance < TOL
        full = solve_dks(inst.graph, 24, SolverConfig(tol=1e-9))
        assert full.converged
        assert relative_error(full.X, inst.planted) <= proof.distance
        # the proof stops the solve early, on the same sweeps
        assert result.iterations < full.iterations
        history = full.residual_history[: result.iterations]
        assert np.array_equal(result.residual_history, history)


def test_distance_is_the_square_root_of_gap_over_half_the_margin():
    inst = sample_dks(PlantedDksParams(n=12, k=5, p=0.1, q=0.1, seed=2))
    proof = _PlantedProof(complement_edges(inst.graph), (inst.planted,) * 2, 1.2, 25.0, TOL, True)
    # M is 0.1 at most on the block and 0.5 at least off it: rho = 0.2
    lb = proof.f_star - 0.008
    assert proof._distance(0.1, 0.5, lb, 2.5, 1.0) == pytest.approx(math.sqrt(0.04) / 5, rel=1e-9)
    # the error terms only widen it, and no margin proves nothing
    assert proof._distance(0.1, 0.5, lb, 2.5, 1.0 + 1e-6) > proof._distance(0.1, 0.5, lb, 2.5, 1.0)
    assert proof._distance(0.5, 0.5, lb, 2.5, 1.0) == math.inf


@pytest.mark.parametrize("size", [7, 12])
def test_box_sum_projection_is_the_projection(size):
    rng = np.random.default_rng(size)
    X = rng.normal(0.3, 0.8, (size, size))
    for target in (1.0, 0.3 * size * size, size * size - 0.5):
        P = _box_sum_projection(X, target)
        assert P.min() >= 0.0 and P.max() <= 1.0
        assert P.sum() == pytest.approx(target, abs=1e-9 * size * size)
        # KKT: P = clip(X - theta, 0, 1) for one theta
        inside = (P > 0) & (P < 1)
        theta = (X - P)[inside]
        assert np.ptp(theta) < 1e-12
        assert (X[P == 0] <= theta[0] + 1e-12).all()
        assert (X[P == 1] >= theta[0] + 1 - 1e-12).all()


def test_refutation_stops_a_small_k_trial():
    # k=6 of n=60 at p=0.05, q=0.25: the planted set is not recovered, and
    # the proof stops the solve at sweep 300, where tol stops it at 383
    inst = sample_dks(PlantedDksParams(n=60, k=6, p=0.05, q=0.25, seed=6002))
    result, proof = _solve_dks(inst.graph, 6, None, inst.planted, TOL)
    assert proof.stop == "proof_not_recovered"
    assert math.isnan(proof.distance)
    assert result.iterations == 300 and not result.hit_cap
    assert relative_error(solve_dks(inst.graph, 6).X, inst.planted) >= TOL


def oracle_agrees(inst, k):
    oracle = dksub.brute_force_dks(inst.graph, k)
    return oracle.unique and oracle.optimal_subsets[0].members == inst.planted.members


def test_proof_of_recovery_agrees_with_the_oracle():
    # on criterion 3's n=14 instances and criterion 5's n <= 20 ones, a
    # proven recovery makes the planted set the unique densest k-subgraph:
    # any other subset T has ||X_T - X*||_1 >= 2(2k - 1), far beyond the
    # proven distance
    proven = 0
    rng = dksub.stream_rng(777)
    cases = []
    for trial in range(100):
        k = 3 + trial % 5
        p, q = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))
        cases.append(PlantedDksParams(n=14, k=k, p=p, q=q, seed=10_000 + trial))
    for n, k in [(16, 8), (18, 9), (20, 10)]:
        for p, q in [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.05, 0.05)]:
            cases += [PlantedDksParams(n=n, k=k, p=p, q=q, seed=seed) for seed in range(3)]
    for params in cases:
        inst = sample_dks(params)
        _, proof = _solve_dks(inst.graph, params.k, None, inst.planted, TOL)
        if proof.stop == "proof_recovered":
            proven += 1
            assert oracle_agrees(inst, params.k), params
    assert proven >= 20


def test_run_trial_never_computes_the_objective(monkeypatch):
    calls = []
    monkeypatch.setattr(dksub.solver, "_nuclear_norm", lambda *a: calls.append(a))
    cfg = PhaseGridConfig(n=30, q=0.0, p_values=(0.0,), k_values=(12,), trials=1)
    record = run_trial(cfg, 0, 0, 0)
    assert record.error is None and record.recovered
    assert calls == []


# The proof that stops every derived solve (solver._RecoveryProof): its
# candidate T is the k rows (and columns) of the iterate with the largest
# sums, and a solve it stops returns X_T.


def plain(g, k, cfg=None):
    """The same derived solve with no checkpoint: it stops by tol or at the
    cap alone, as every solve did before the proof."""
    cfg = cfg or SolverConfig()
    return dksub.solver._admm(complement_edges(g), float(k) ** 2, 6.0 / k, cfg, True)


def assert_proven_optimum(result, nonedge, rows, cols=None):
    """The result contract of a proof stop: X = X_T exactly, Y = -X_T on
    the nonedges and 0 elsewhere, and the last sweep's residuals."""
    cols = rows if cols is None else cols
    X_T = np.zeros(nonedge.shape)
    X_T[np.ix_(rows, cols)] = 1.0
    assert result.stop == "proof"
    assert np.array_equal(result.X, X_T)
    assert np.array_equal(result.Y, np.where(nonedge, -X_T, 0.0))
    assert (result.converged, result.hit_cap) == (True, False)
    assert 0.0 <= result.proven_distance < SolverConfig().tol
    assert (result.primal_residual, result.dual_residual) == tuple(result.residual_history[-1])


def assert_bitwise(result, ref):
    assert result.stop == ref.stop and math.isnan(result.proven_distance)
    assert result.iterations == ref.iterations
    for name in ("X", "Y", "residual_history", "svt_rank", "sweep_kind"):
        assert np.array_equal(getattr(result, name), getattr(ref, name)), name


def criterion_3_cases():
    rng = dksub.stream_rng(777)
    cases = []
    for trial in range(100):
        k = 3 + trial % 5
        p, q = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))
        cases.append(PlantedDksParams(n=14, k=k, p=p, q=q, seed=10_000 + trial))
    return cases


def criterion_5_cases():
    return [
        PlantedDksParams(n=n, k=k, p=p, q=q, seed=seed)
        for n, k in [(16, 8), (18, 9), (20, 10)]
        for p, q in [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.05, 0.05)]
        for seed in range(3)
    ]


def test_every_proof_stop_is_the_unique_densest_subgraph():
    # on criterion 3's 100 instances and criterion 5's 36, every solve the
    # proof stops returns the oracle's unique densest k-subgraph, and every
    # criterion-3 solve it does not stop is the plain solve bit for bit
    fired = 0
    for params in criterion_3_cases() + criterion_5_cases():
        g = sample_dks(params).graph
        result = solve_dks(g, params.k)
        if result.stop == "proof":
            fired += 1
            rows = np.flatnonzero(result.X.any(axis=1))
            assert_proven_optimum(result, complement_edges(g), rows)
            oracle = dksub.brute_force_dks(g, params.k)
            assert oracle.unique, params
            assert oracle.optimal_subsets[0].members == tuple(rows), params
            assert round_to_subset(result.X, params.k).members == tuple(rows)
        elif params.n == 14:
            assert_bitwise(result, plain(g, params.k))
    assert fired >= 45


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_wrong_candidate_never_fires(seed):
    # the phase-pool instances, whose planted set the proof fires on within
    # 30 sweeps; with one planted node swapped for another node, or with
    # the planted set shifted, it never fires (the non-recovery proof may)
    inst = sample_dks(PlantedDksParams(n=60, k=24, p=0.05, q=0.25, seed=seed))
    members = list(inst.planted.members)
    outside = sorted(set(range(60)) - set(members))
    cfg = SolverConfig(max_iter=300)
    _, proof = _solve_dks(inst.graph, 24, cfg, inst.planted, TOL)
    assert proof.stop == "proof_recovered"
    for wrong in (members[:-1] + outside[:1], [(v + 1) % 60 for v in members]):
        result, proof = _solve_dks(inst.graph, 24, cfg, NodeSubset(tuple(sorted(wrong)), 60), TOL)
        assert proof.stop != "proof_recovered" and result.stop != "proof"
        assert math.isnan(proof.distance)


def checks(sparse, last=250):
    due, seen = 1, []
    while due < last:
        seen.append(due)
        due = dksub.solver._next_check(due, sparse)
    return seen


def test_checkpoint_schedule():
    # every sweep up to 30, every 5 up to 100, then every tenth of the
    # count; a phase-grid trial's keeps every 5
    inst = sample_dks(PlantedDksParams(n=14, k=4, p=0.1, q=0.2, seed=1))
    _, proof = _solve_dks(inst.graph, 4)
    _, trial = _solve_dks(inst.graph, 4, None, inst.planted, TOL)
    assert checks(proof.sparse) == [
        *range(1, 31), *range(35, 101, 5), 110, 121, 134, 148, 163, 180, 198, 218, 240,
    ]
    assert checks(trial.sparse) == [*range(1, 31), *range(35, 250, 5)]


@pytest.mark.parametrize(
    "g,k",
    [
        (Graph.complete(8), 1),
        (Graph.complete(8), 3),
        (Graph(8, np.zeros((8, 8), dtype=bool)), 1),
        (Graph(8, np.zeros((8, 8), dtype=bool)), 3),
        (sample_dks(PlantedDksParams(n=12, k=1, p=0.1, q=0.3, seed=1)).graph, 1),
    ],
    ids=["complete-k1", "complete-k3", "empty-k1", "empty-k3", "planted-k1"],
)
def test_ties_never_fire(g, k):
    # these graphs have many densest k-subgraphs (the planted one-node set
    # is no denser than any other node), so no proof may fire; the solve is
    # the plain one bit for bit
    result = solve_dks(g, k)
    assert result.stop == "tol"
    assert_bitwise(result, plain(g, k))


@pytest.mark.parametrize(
    "g", [Graph.complete(8), Graph(8, np.zeros((8, 8), dtype=bool)),
          sample_dks(PlantedDksParams(n=12, k=12, p=0.1, q=0.3, seed=1)).graph],
    ids=["complete", "empty", "planted"],
)
def test_k_equal_to_n_is_proven_at_the_first_sweep(g):
    # the all-ones matrix is the only feasible point
    result = solve_dks(g, g.n)
    assert result.iterations == 1
    assert result.proven_distance == 0.0
    assert_proven_optimum(result, complement_edges(g), np.arange(g.n))


@pytest.mark.parametrize("p,q,seed", [(0.0, 0.0, 0), (0.05, 0.1, 0), (0.05, 0.1, 1)])
def test_bipartite_with_every_row_planted(p, q, seed):
    # k1 = n1: T's rows are all rows, and a proof stop returns the oracle's
    # unique densest (k1, k2)-subgraph; a solve it does not stop is the
    # plain one bit for bit
    inst = sample_dkb(PlantedDkbParams(n1=6, n2=20, k1=6, k2=8, p=p, q=q, seed=seed))
    nonedge = bipartite_complement_edges(inst.graph)
    result = solve_dkb(inst.graph, 6, 8)
    if result.stop == "proof":
        cols = np.flatnonzero(result.X.any(axis=0))
        assert_proven_optimum(result, nonedge, np.arange(6), cols)
        oracle = dksub.brute_force_dkb(inst.graph, 6, 8)
        assert oracle.unique and oracle.optimal_subsets[0][1].members == tuple(cols)
    else:
        ref = dksub.solver._admm(nonedge, 48.0, 6.0 / math.sqrt(48), SolverConfig(), False)
        assert_bitwise(result, ref)
    # the clean instance and seed 1 fire, seed 0 converges by tol
    assert result.stop == ("tol" if (q, seed) == (0.1, 0) else "proof")


def test_capped_k10_solve_is_the_plain_one():
    # the figure column's k=10 trial 0 (master seed 2024), whose proof never
    # fires: sweeps 1-300 cross every part of the schedule and Anderson's
    # start, and the solve is the plain one bit for bit
    inst = sample_dks(PlantedDksParams(n=250, k=10, p=0.05, q=0.25, seed=child_seed(2024, 0, 0, 0)))
    cfg = SolverConfig(max_iter=300)
    result = solve_dks(inst.graph, 10, cfg)
    assert (result.stop, result.hit_cap) == ("cap", True)
    assert_bitwise(result, plain(inst.graph, 10, cfg))


def test_the_gate_never_ends_a_passing_screen(monkeypatch):
    # at every checkpoint of these solves, a screen that passes was not
    # judged hopeless; the gate ends most of the others
    gated, passed = [], 0
    original = dksub.solver._RecoveryProof._recovers

    def spy(self, sweep, p):
        nonlocal passed
        if self.lift is None:
            self.lift = sweep.phi_x * self.L
        hopeless = self._hopeless(sweep, p)
        if self._screen(sweep, p) < self.tol:
            passed += 1
            assert not hopeless
        gated.append(hopeless)
        return original(self, sweep, p)

    monkeypatch.setattr(dksub.solver._RecoveryProof, "_recovers", spy)
    for params in criterion_3_cases()[:30] + criterion_5_cases():
        solve_dks(sample_dks(params).graph, params.k)
    for seed in range(3):
        inst = sample_dks(PlantedDksParams(n=60, k=24, p=0.05, q=0.25, seed=seed))
        solve_dks(inst.graph, 24)
        _solve_dks(inst.graph, 24, None, inst.planted, TOL)
    assert passed >= 40
    assert sum(gated) >= len(gated) // 2
