import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dksub.certificate
from dksub.certificate import (
    CertificateInfeasibleError,
    build_multipliers,
    check_binomial_concentration,
    check_matrix_bernstein,
    check_y_bound,
    default_epsilon,
    estimate_pq,
    spectral_norm,
    verify,
)
from dksub.graphs import Graph, NodeSubset
from dksub.models import (
    AdversarialParams,
    PlantedDksParams,
    PlantedInstance,
    corrupt_adversarial,
    degree_profile,
    sample_dks,
)
from dksub.oracle import brute_force_dks


def make_instance(n, k, p, q, seed=0):
    return sample_dks(PlantedDksParams(n=n, k=k, p=p, q=q, seed=seed))


class TestLambdaAndEpsilon:
    def test_lambda_formula(self):
        inst = make_instance(300, 100, 0.05, 0.1, seed=1)
        mult = build_multipliers(inst, gamma=0.06, epsilon_slack=0.2, q=0.1)
        assert mult.lam == pytest.approx(0.06 * (0.2 + 0.1) + 0.01)
        assert mult.lam == pytest.approx(0.028)
        assert mult.lam_tilde == pytest.approx(mult.lam - 0.01)

    def test_default_epsilon(self):
        assert default_epsilon(0.05, 0.25) == pytest.approx(0.7 / 3)
        assert default_epsilon(0.0, 0.0) == pytest.approx(1 / 3)
        assert default_epsilon(0.3, 0.3) == pytest.approx(0.4 / 3)
        with pytest.raises(ValueError):
            default_epsilon(0.6, 0.4)

    def test_p_equal_one_rejected(self):
        inst = make_instance(10, 3, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="p < 1"):
            build_multipliers(inst, epsilon_slack=0.1)

    # each used to build a certificate, or to fail later with a message
    # that named no parameter
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"p": -0.5, "q": 0.1}, "p must be at least 0"),
            ({"p": math.nan, "q": 0.1}, "p must be at least 0"),
            ({"q": -3.0}, "q must be at least 0"),
            ({"q": math.nan}, "q must be at least 0"),
            # an explicit slack used to skip the p + q < 1 rule
            ({"p": 0.1, "q": 1.5, "epsilon_slack": 0.1}, "p < 1 - q"),
            ({"p": 0.6, "q": 0.6, "epsilon_slack": 0.1}, "p < 1 - q"),
            ({"p": math.inf, "q": 0.1}, "p < 1 - q"),
            ({"gamma": 0.0}, "gamma must be positive and finite"),
            ({"gamma": math.inf}, "gamma must be positive and finite"),
            ({"gamma": math.nan}, "gamma must be positive and finite"),
            ({"epsilon_slack": 0.0}, "epsilon_slack must be positive and finite"),
            ({"epsilon_slack": -0.1}, "epsilon_slack must be positive and finite"),
            ({"epsilon_slack": math.inf}, "epsilon_slack must be positive and finite"),
            ({"epsilon_slack": math.nan}, "epsilon_slack must be positive and finite"),
        ],
    )
    def test_parameters_outside_the_construction_are_rejected(self, kwargs, message):
        inst = make_instance(20, 6, 0.1, 0.1, seed=0)
        with pytest.raises(ValueError, match=message):
            build_multipliers(inst, **kwargs)


class TestYVector:
    def test_clean_clique_constant_y_matches_direct_solve(self):
        inst = make_instance(40, 12, 0.0, 0.0, seed=2)
        k = 12
        mult = build_multipliers(inst)
        # independent check: solve (kI + ee^T) y = k*lam_tilde*e - gamma((k-1)e - n)
        nvec = degree_profile(inst)[inst.planted.mask()].astype(float)
        rhs = k * mult.lam_tilde - mult.gamma * ((k - 1) - nvec)
        A = k * np.eye(k) + np.ones((k, k))
        y_direct = np.linalg.solve(A, rhs)
        assert np.allclose(mult.y, y_direct, atol=1e-12)
        assert np.allclose(mult.y, mult.lam_tilde / 2, atol=1e-12)

    def test_noisy_y_matches_direct_solve(self):
        for seed in range(5):
            inst = make_instance(60, 20, 0.2, 0.3, seed=seed)
            mult = build_multipliers(inst, epsilon_slack=0.1)
            k = 20
            nvec = degree_profile(inst)[inst.planted.mask()].astype(float)
            rhs = k * mult.lam_tilde - mult.gamma * ((k - 1) - nvec)
            y_direct = np.linalg.solve(k * np.eye(k) + np.ones((k, k)), rhs)
            assert np.allclose(mult.y, y_direct, atol=1e-12)


class TestConstruction:
    def test_p_zero_outside_values(self):
        inst = make_instance(30, 10, 0.0, 0.2, seed=3)
        mult = build_multipliers(inst, epsilon_slack=0.2)
        mask = inst.planted.mask()
        outside = ~mask
        adj = inst.graph.adj
        nonedge = ~adj & ~np.eye(30, dtype=bool)
        oo = np.outer(outside, outside) & nonedge
        cross = (np.outer(mask, outside) | np.outer(outside, mask)) & nonedge
        assert np.all(mult.W[oo | cross] == 0.0)
        assert np.allclose(mult.F[oo | cross], -mult.lam / mult.gamma)

    def test_every_entry_class_matches_the_case_table(self):
        # planted {1, 3, 4}: planted edges 1-3 and 3-4, planted nonedge 1-4;
        # outside edges 0-2 and 5-6; cross edges 0-1, 0-3 and 2-4, so outside
        # nodes 5 and 6 have no planted neighbour
        edges = [(1, 3), (3, 4), (0, 2), (5, 6), (0, 1), (0, 3), (2, 4)]
        n, planted = 7, (1, 3, 4)
        k = len(planted)
        inst = PlantedInstance(Graph.from_edges(n, edges), NodeSubset(planted, n))
        gamma, eps, p, q = 0.5, 0.1, 0.2, 0.1
        mult = build_multipliers(inst, gamma=gamma, epsilon_slack=eps, p=p, q=q)

        lam = gamma * (eps + q) + 1 / k
        lam_tilde = lam - 1 / k
        assert (mult.lam, mult.lam_tilde) == (lam, lam_tilde)
        edge_set = {frozenset(e) for e in edges}
        planted_nbrs = [sum(frozenset((i, j)) in edge_set for j in planted) for i in range(n)]
        assert planted_nbrs == [2, 1, 1, 2, 1, 0, 0]
        # (kI + ee^T) y = k lam_tilde e - gamma ((k-1) e - n_P)
        n_p = np.array([planted_nbrs[i] for i in planted], dtype=float)
        rhs = k * lam_tilde - gamma * ((k - 1) - n_p)
        y = dict(zip(planted, np.linalg.solve(k * np.eye(k) + 1.0, rhs)))

        W = np.empty((n, n))
        F = np.empty((n, n))
        M = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                edge_or_diag = i == j or frozenset((i, j)) in edge_set
                ends_planted = (i in planted) + (j in planted)
                if ends_planted == 2:
                    M[i, j] = y[i] + y[j]
                    W[i, j] = lam_tilde - (0.0 if edge_or_diag else gamma) - M[i, j]
                    F[i, j] = 0.0
                elif edge_or_diag:
                    W[i, j], F[i, j] = lam, 0.0
                elif ends_planted == 0:
                    W[i, j], F[i, j] = -lam * p / (1 - p), -lam / (gamma * (1 - p))
                else:
                    m = planted_nbrs[i if j in planted else j]
                    W[i, j], F[i, j] = -lam * m / (k - m), -(lam / gamma) * k / (k - m)

        for got, want in [(mult.W, W), (mult.F, F), (mult.M, M)]:
            assert np.allclose(got, want, rtol=1e-14, atol=1e-15)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        # the cross nonedges of nodes 5 and 6 hold -0.0; F is +0.0 off its support
        assert np.signbit(mult.W[1, 5]) and mult.W[1, 5] == 0.0
        assert not np.signbit(mult.F[0, 1]) and mult.F[0, 1] == 0.0

    def test_support_invariants(self):
        for seed, (p, q) in enumerate([(0.1, 0.1), (0.3, 0.2), (0.0, 0.4)]):
            inst = make_instance(40, 13, p, q, seed=seed)
            mult = build_multipliers(inst, epsilon_slack=0.15)
            n = 40
            adj = inst.graph.adj
            diag = np.eye(n, dtype=bool)
            mask = inst.planted.mask()
            block = np.outer(mask, mask)
            omega = block & ~adj & ~diag
            # F vanishes on edges, the diagonal, and the whole planted block
            assert np.all(mult.F[adj | diag | block] == 0.0)
            assert np.all(mult.F[omega] == 0.0)
            # M vanishes off the planted block
            assert np.all(mult.M[~block] == 0.0)
            # both constructed multipliers are symmetric
            assert np.array_equal(mult.W, mult.W.T)
            assert np.array_equal(mult.F, mult.F.T)

    def test_stationarity_and_annihilation_scale(self):
        for seed, (n, k, p, q) in enumerate(
            [(50, 15, 0.2, 0.2), (80, 25, 0.4, 0.3), (60, 10, 0.05, 0.0)]
        ):
            inst = make_instance(n, k, p, q, seed=seed)
            mult = build_multipliers(inst, epsilon_slack=0.1)
            report = verify(mult, inst)
            assert report.stationarity_residual <= 1e-10 * (1 + mult.lam * n + mult.gamma)
            assert report.Wv_residual <= 1e-10 * mult.lam * n

    def test_adversarial_instance_certificate(self):
        base = make_instance(40, 16, 0.0, 0.0, seed=5)
        adv = AdversarialParams(r=8, s=8, delta1=0.25, delta2=0.25)
        inst = corrupt_adversarial(base, adv, seed=6)
        mult = build_multipliers(inst, epsilon_slack=0.2)
        report = verify(mult, inst)
        assert report.stationarity_residual <= 1e-10
        assert report.Wv_residual <= 1e-10

    def test_saturated_outside_node_is_infeasible(self):
        # node 4 adjacent to the whole planted set {0,1,2}
        edges = [(0, 1), (0, 2), (1, 2), (0, 4), (1, 4), (2, 4)]
        g = Graph.from_edges(6, edges)
        inst = PlantedInstance(
            g, NodeSubset((0, 1, 2), 6), PlantedDksParams(n=6, k=3, p=0.0, q=0.0, seed=0)
        )
        with pytest.raises(CertificateInfeasibleError, match="node 4"):
            build_multipliers(inst, epsilon_slack=0.1)

    def test_omega4_bound_predicate(self):
        # |F| on outside-outside nonedges is <= 1 exactly when
        # 1/(gamma k) + eps + p + q <= 1.
        for (p, q, eps, gamma, k) in [
            (0.05, 0.1, 0.2833, 0.05, 120),
            (0.45, 0.45, 0.0333, 1.2, 5),
            (0.3, 0.3, 0.3, 0.5, 10),
        ]:
            inst = make_instance(4 * k, k, p, q, seed=1)
            mult = build_multipliers(inst, gamma=gamma, epsilon_slack=eps, p=p, q=q)
            omega4_value = mult.lam / (gamma * (1 - p))
            predicate = 1 / (gamma * k) + eps + p + q <= 1
            assert (omega4_value <= 1) == predicate


class TestVerify:
    def test_in_regime_instances_are_valid(self):
        inst = make_instance(200, 60, 0.05, 0.1, seed=7)
        report = verify(build_multipliers(inst), inst)
        assert report.valid_strict

    def test_far_out_of_regime_fails(self):
        # most seeds at these parameters saturate an outside node and abort
        # construction; seed 2 builds, and the norm condition then fails
        inst = make_instance(100, 5, 0.45, 0.45, seed=2)
        report = verify(build_multipliers(inst), inst)
        assert not report.valid_strict
        assert report.W_spectral_norm >= 1.0

    def test_report_fields_consistent(self):
        inst = make_instance(80, 20, 0.05, 0.1, seed=9)
        report = verify(build_multipliers(inst), inst)
        conjuncts = (
            report.stationarity_residual <= 1e-8
            and report.Wv_residual <= 1e-8
            and report.W_spectral_norm + report.W_norm_error_bound < 1
            and report.F_inf_norm < 1
            and report.min_M_on_block >= 0
        )
        assert report.valid_strict == conjuncts

    def test_error_bound_decides_strict_norm(self, monkeypatch):
        inst = make_instance(200, 60, 0.05, 0.1, seed=7)
        mult = build_multipliers(inst)
        delta = verify(mult, inst).W_norm_error_bound
        assert 0.0 < delta < 1e-10
        monkeypatch.setattr(dksub.certificate, "spectral_norm", lambda W: 1.0 - delta / 2)
        assert not verify(mult, inst).valid_strict
        monkeypatch.setattr(dksub.certificate, "spectral_norm", lambda W: 1.0 - 2 * delta)
        assert verify(mult, inst).valid_strict

    def test_dimension_mismatch(self):
        inst_a = make_instance(30, 10, 0.1, 0.1, seed=0)
        inst_b = make_instance(40, 10, 0.1, 0.1, seed=0)
        mult = build_multipliers(inst_a)
        with pytest.raises(ValueError):
            verify(mult, inst_b)

    def test_certificate_implies_unique_oracle_optimum(self):
        confirmed = 0
        for seed in range(6):
            inst = make_instance(18, 9, 0.08, 0.05, seed=seed)
            try:
                report = verify(build_multipliers(inst), inst)
            except CertificateInfeasibleError:
                continue
            if not report.valid_strict:
                continue
            confirmed += 1
            oracle = brute_force_dks(inst.graph, 9)
            assert oracle.unique
            assert oracle.optimal_subsets[0].members == inst.planted.members
        assert confirmed >= 1


class TestEstimatePq:
    def test_recovers_extremes(self):
        inst = make_instance(40, 10, 0.0, 0.0, seed=1)
        p_hat, q_hat = estimate_pq(inst)
        assert p_hat == 0.0 and q_hat == 0.0

    def test_close_to_truth_at_scale(self):
        inst = make_instance(300, 80, 0.1, 0.3, seed=2)
        p_hat, q_hat = estimate_pq(inst)
        assert p_hat == pytest.approx(0.1, abs=0.02)
        assert q_hat == pytest.approx(0.3, abs=0.03)

    def test_certificate_from_estimates(self):
        inst = make_instance(200, 60, 0.05, 0.1, seed=3)
        p, q = estimate_pq(inst)
        mult = build_multipliers(inst, p=p, q=q)
        assert verify(mult, inst).stationarity_residual <= 1e-10


@st.composite
def norm_cases(draw):
    """Symmetric, non-symmetric and rectangular matrices from 1x1 to 40x60,
    plus zero matrices and a symmetric matrix whose top eigenvector is
    orthogonal to the all-ones vector."""
    kind = draw(st.sampled_from(("symmetric", "square", "rectangular", "zero", "orthogonal")))
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 60)) if kind in ("rectangular", "zero") else m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "orthogonal":
        m = 2 * max(m // 2, 1)
        u = np.tile([1.0, -1.0], m // 2) / np.sqrt(m)
        B = rng.standard_normal((m, m))
        return 3.0 * np.outer(u, u) + 0.1 * (B + B.T) / np.sqrt(m)
    A = rng.standard_normal((m, n))
    return A + A.T if kind == "symmetric" else A


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, 2.0])) == pytest.approx(3.0)

    def test_rank_one_ones(self):
        for n in (4, 9):
            assert spectral_norm(np.ones((n, n))) == pytest.approx(float(n))

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            M = rng.standard_normal((8, 8))
            expected = np.linalg.svd(M, compute_uv=False)[0]
            assert spectral_norm(M) == pytest.approx(expected, rel=1e-8)

    def test_rectangular(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((5, 9))
        expected = np.linalg.svd(M, compute_uv=False)[0]
        assert spectral_norm(M) == pytest.approx(expected, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_escapes_start_orthogonal_to_top_space(self):
        # top singular vector orthogonal to the all-ones start
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        M = np.outer(u, u)
        assert spectral_norm(M) == pytest.approx(1.0, rel=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(max_examples=200, deadline=None)
    @given(norm_cases())
    def test_matches_svdvals(self, M):
        assert spectral_norm(M) == pytest.approx(scipy.linalg.svdvals(M)[0], rel=1e-12, abs=0.0)


class TestYBound:
    def test_clean_clique_holds(self):
        inst = make_instance(60, 20, 0.0, 0.0, seed=1)
        mult = build_multipliers(inst)
        assert check_y_bound(inst, mult)
        assert mult.y.min() >= mult.gamma * mult.epsilon_slack / 2 - 1e-12

    def test_monte_carlo_rate(self):
        hits = sum(
            check_y_bound(
                inst := make_instance(400, 200, 0.0, 0.1, seed=seed),
                build_multipliers(inst, epsilon_slack=0.3),
            )
            for seed in range(30)
        )
        assert hits >= 28

    def test_degenerate_k2_returns_boolean(self):
        inst = make_instance(10, 2, 0.1, 0.3, seed=4)
        mult = build_multipliers(inst, epsilon_slack=0.1)
        assert check_y_bound(inst, mult) in (True, False)


class TestConcentrationChecks:
    def test_binomial_tail(self):
        assert check_binomial_concentration(100, 0.3, 10_000) == 0.0

    def test_binomial_validation(self):
        with pytest.raises(ValueError):
            check_binomial_concentration(0, 0.3, 10)

    def test_matrix_bernstein_pm_one(self):
        assert check_matrix_bernstein(50, 1.0, 1.0, trials=200) == 0.0

    def test_matrix_bernstein_n2(self):
        assert check_matrix_bernstein(2, 1.0, 1.0, trials=100) == 0.0

    def test_matrix_bernstein_zero_sigma(self):
        assert check_matrix_bernstein(20, 0.0, 0.0, trials=50) == 0.0

    def test_matrix_bernstein_validation(self):
        with pytest.raises(ValueError):
            check_matrix_bernstein(10, 2.0, 1.0, trials=10)
