"""Dual-certificate construction and verification for planted instances.

For a planted instance with known set V* and model parameters (p, q) the
builder assembles multipliers (W, F, M, lambda) that make the stationarity
equation

    X/k + W - lambda * ee^T - gamma * (Y + F) + M = 0

hold exactly at the proposed rank-one solution pair (X, Y), with W chosen
case by case over the entry classes (planted edges/diagonal, planted
nonedges, outside edges, outside nonedges, cross nonedges) and M = y e^T +
e y^T supported on the planted block.  Whether the certificate actually
proves optimality (and uniqueness) is then a numerical question about the
strict norm conditions ||W|| < 1, ||F||_inf < 1, and M >= 0, which the
verifier reports.  ||W|| is computed exactly by LAPACK (`spectral_norm`), and
the strict condition is decided with that computation's error bound added.

The module also carries the empirical concentration checks used by the test
suite: a binomial tail check and a symmetric-matrix spectral-norm bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .graphs import complement_edges, proposed_solution
from .models import PlantedInstance, degree_profile, stream_rng
from .solver import _one_blas_thread, default_gamma


class CertificateInfeasibleError(ValueError):
    """The multiplier construction is undefined for this instance."""


@dataclass(eq=False)
class Multipliers:
    W: np.ndarray
    F: np.ndarray
    M: np.ndarray
    lam: float
    lam_tilde: float
    gamma: float
    epsilon_slack: float
    y: np.ndarray = field(repr=False)


@dataclass
class CertificateReport:
    stationarity_residual: float
    Wv_residual: float
    W_spectral_norm: float
    W_norm_error_bound: float
    F_inf_norm: float
    min_M_on_block: float
    valid_strict: bool


def default_epsilon(p: float, q: float) -> float:
    """Slack (1 - p - q) / 3 used in the multiplier construction."""
    if p + q >= 1:
        raise ValueError(f"need p + q < 1, got p={p}, q={q}")
    return (1.0 - p - q) / 3.0


def estimate_pq(inst: PlantedInstance) -> tuple[float, float]:
    """Empirical edge frequencies (p_hat, q_hat) for graphs without trusted
    generative parameters."""
    k, n = inst.k, inst.graph.n
    mask = inst.planted.mask()
    block = inst.graph.adj[np.ix_(mask, mask)]
    inside_pairs = k * (k - 1) // 2
    q_hat = 1.0 - np.count_nonzero(block) / 2 / inside_pairs if inside_pairs else 0.0
    outside_pairs = n * (n - 1) // 2 - inside_pairs
    outside_edges = inst.graph.edge_count - int(np.count_nonzero(block)) // 2
    p_hat = outside_edges / outside_pairs if outside_pairs else 0.0
    return p_hat, q_hat


def build_multipliers(
    inst: PlantedInstance,
    gamma: float | None = None,
    epsilon_slack: float | None = None,
    p: float | None = None,
    q: float | None = None,
) -> Multipliers:
    """Assemble the certificate multipliers for a planted instance.

    p and q default to the instance's generative parameters (pass
    `estimate_pq(inst)` for graphs without them); gamma defaults to 6/k and
    the slack to (1 - p - q)/3.  Raises CertificateInfeasibleError when some
    outside node is adjacent to the whole planted set, and ValueError, naming
    the parameter, unless p >= 0, q >= 0 and p + q < 1 (at p = 1 the
    outside-nonedge multiplier is undefined) and gamma and the slack are
    positive and finite.  NaN fails every rule.
    """
    k = inst.k
    n = inst.graph.n
    if p is None or q is None:
        mp, mq = inst.pq()
        p = mp if p is None else p
        q = mq if q is None else q
    for name, value in (("p", p), ("q", q)):
        if not value >= 0.0:
            raise ValueError(f"{name} must be at least 0, got {value}")
    if not p + q < 1.0:
        raise ValueError(f"construction requires p < 1 - q, got p={p}, q={q}")
    gamma = default_gamma(k) if gamma is None else gamma
    epsilon = default_epsilon(p, q) if epsilon_slack is None else epsilon_slack
    for name, value in (("gamma", gamma), ("epsilon_slack", epsilon)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")

    members = np.array(inst.planted.members, dtype=np.int64)
    outside = ~inst.planted.mask()
    n_vec = degree_profile(inst)

    bad = np.nonzero(outside & (n_vec >= k))[0]
    if bad.size:
        raise CertificateInfeasibleError(
            f"outside node {int(bad[0])} is adjacent to all {k} planted nodes"
        )

    lam = gamma * (epsilon + q) + 1.0 / k
    lam_tilde = lam - 1.0 / k

    # M = y e^T + e y^T on the planted block, with y solving the planted-row
    # annihilation system (kI + ee^T) y = k*lam_tilde*e - gamma*((k-1)e - n).
    n_in = n_vec[members].astype(float)
    y = (k * lam_tilde - (k - 1) * gamma) / (2.0 * k) + (gamma / k) * (
        n_in - n_in.sum() / (2.0 * k)
    )
    block = np.ix_(members, members)
    M = np.zeros((n, n))
    M[block] = y[:, None] + y[None, :]

    # W and F by entry class: edges and the diagonal, outside nonedges, cross
    # nonedges, then the planted block.  A cross nonedge carries the value of
    # its outside end; the planted end holds -0.0, which adds without changing
    # a value or its sign.
    nonedge = complement_edges(inst.graph)
    cross = outside[:, None] != outside[None, :]
    w_end = np.where(outside, -lam * n_vec / (k - n_vec), -0.0)
    f_end = np.where(outside, -(lam / gamma) * k / (k - n_vec), -0.0)
    W = np.where(
        nonedge, np.where(cross, w_end[:, None] + w_end[None, :], -lam * p / (1.0 - p)), lam
    )
    F = np.where(
        nonedge, np.where(cross, f_end[:, None] + f_end[None, :], -lam / (gamma * (1.0 - p))), 0.0
    )
    W[block] = (lam_tilde - gamma * nonedge[block]) - M[block]
    F[block] = 0.0

    return Multipliers(
        W=W, F=F, M=M, lam=lam, lam_tilde=lam_tilde,
        gamma=gamma, epsilon_slack=epsilon, y=y,
    )


def verify(mult: Multipliers, inst: PlantedInstance, atol: float = 1e-8) -> CertificateReport:
    """Evaluate the stationarity equation and the strict norm conditions.

    ||W|| < 1 counts as met only when W_norm + delta < 1, where
    delta = max(m, n) * eps * ||W||_F bounds the error of the computed norm:
    LAPACK's eigenvalue and singular-value solvers are backward stable, so by
    Weyl's inequality the computed value is within p(n) * eps * ||W||_2 of
    the true one, with max(m, n) standing in for p(n) and ||W||_F >= ||W||_2.
    """
    n = inst.graph.n
    if mult.W.shape != (n, n):
        raise ValueError(f"multiplier shape {mult.W.shape} does not match n={n}")
    X, Y = proposed_solution(inst.graph, inst.planted)
    k = inst.k
    stat = X / k + mult.W - mult.lam - mult.gamma * (Y + mult.F) + mult.M
    stationarity_residual = float(np.abs(stat).max())

    v = inst.planted.indicator()
    wv = float(np.abs(mult.W @ v).max())
    wtv = float(np.abs(mult.W.T @ v).max())
    Wv_residual = max(wv, wtv)

    W_norm = spectral_norm(mult.W)
    W_err = max(mult.W.shape) * float(np.finfo(float).eps) * float(np.linalg.norm(mult.W))
    F_inf = float(np.abs(mult.F).max())
    members = list(inst.planted.members)
    min_M = float(mult.M[np.ix_(members, members)].min())

    valid = (
        stationarity_residual <= atol
        and Wv_residual <= atol
        and W_norm + W_err < 1.0
        and F_inf < 1.0
        and min_M >= 0.0
    )
    return CertificateReport(
        stationarity_residual=stationarity_residual,
        Wv_residual=Wv_residual,
        W_spectral_norm=W_norm,
        W_norm_error_bound=W_err,
        F_inf_norm=F_inf,
        min_M_on_block=min_M,
        valid_strict=valid,
    )


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value ||M||_2, exact to working precision.

    A symmetric square matrix (W is one by construction) takes max |lambda|
    from `scipy.linalg.eigvalsh`; any other shape takes the top value of
    `scipy.linalg.svdvals`.  Both run on one BLAS thread.  Raises ValueError
    on empty or non-finite input.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("spectral_norm expects a nonempty 2-d matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    # One BLAS thread, as in the solver: at n=500 a second thread gains ~10%
    # alone, and next to another busy process it made the call many times slower.
    with _one_blas_thread():
        if A.shape[0] == A.shape[1] and np.array_equal(A, A.T):
            eig = scipy.linalg.eigvalsh(A, check_finite=False)
            return float(max(-eig[0], eig[-1]))
        return float(scipy.linalg.svdvals(A, check_finite=False)[0])


def check_y_bound(inst: PlantedInstance, mult: Multipliers) -> bool:
    """Report whether min_i y_i clears its concentration lower bound.

    The bound holds with high probability under the planted model, so this
    returns a boolean instead of asserting.
    """
    k = inst.k
    _, q = inst.pq()
    logk = math.log(k) if k > 1 else 0.0
    dev = 12.0 * max(math.sqrt(q * (1.0 - q) * logk / k), logk / k)
    return float(mult.y.min()) >= mult.gamma * (mult.epsilon_slack / 2.0 - dev)


def check_binomial_concentration(
    m: int, p: float, draws: int, seed: int = 0
) -> float:
    """Fraction of Binomial(m, p) draws with |s - pm| above the tail bound
    6 * max(sqrt(p(1-p) m log m), log m)."""
    if m < 1 or draws < 1:
        raise ValueError("m and draws must be at least 1")
    rng = stream_rng(seed)
    s = rng.binomial(m, p, size=draws)
    logm = math.log(m)
    bound = 6.0 * max(math.sqrt(p * (1.0 - p) * m * logm), logm)
    return float(np.count_nonzero(np.abs(s - p * m) > bound)) / draws


def check_matrix_bernstein(
    n: int, sigma: float, bound: float, trials: int, seed: int = 0
) -> float:
    """Fraction of random symmetric +/-sigma matrices whose spectral norm
    exceeds 6 * max(sigma sqrt(n log n), bound log^2 n).

    Entries are i.i.d. from the symmetric two-point distribution on
    {-sigma, +sigma}, so `bound` must be at least sigma for the entrywise
    bound to hold.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be at least 1")
    if sigma < 0 or bound < sigma:
        raise ValueError("need 0 <= sigma <= bound")
    rng = stream_rng(seed)
    logn = math.log(n)
    limit = 6.0 * max(sigma * math.sqrt(n * logn), bound * logn**2)
    violations = 0
    for _ in range(trials):
        signs = np.where(rng.random((n, n)) < 0.5, -sigma, sigma)
        A = np.triu(signs) + np.triu(signs, 1).T
        norm = float(np.abs(np.linalg.eigvalsh(A)).max()) if sigma > 0 else 0.0
        if norm > limit:
            violations += 1
    return violations / trials
