"""ADMM solver for the nuclear-norm plus l1 subgraph relaxation.

The relaxation solved here is

    minimize    ||X||_* + gamma * ||Y||_1
    subject to  sum(X) = k^2          (k1*k2 in the bipartite case)
                X + Y = 0 on every nonedge
                0 <= X <= 1 entrywise

after splitting into consensus form with copies Q = X + Y (free on edges and
the diagonal, zero on nonedges), W (carrying the sum constraint), and Z
(carrying the box constraint).  Each sweep updates Q, X, Y, W, Z in
Gauss-Seidel order and then the three dual blocks.

Two update modes are shipped because the update rule this solver was built
around admits two readings that do not agree:

* ``derived`` (default): every primal update is the exact minimizer of the
  augmented Lagrangian with penalty tau.  X is a singular value thresholding
  step at 1/(3*tau) applied to the average of (Q - Y - U_Q), (W - U_W) and
  (Z - U_Z), Y is entrywise soft thresholding at gamma/tau, and the duals
  are kept in scaled form (U = Lambda/tau).
* ``paper``: the alternative printed recipe, kept verbatim for comparison:
  X via thresholding at tau of Q + 2X - Z - W - Lambda_W, Y via
  S_{tau*gamma}(Y - tau*Q), unscaled duals, and the Q/dual updates projected
  onto the nonedge mask and its complement respectively.  This variant is
  not a fixed-point iteration for the relaxation above and generally fails
  to converge; it is retained so the discrepancy can be measured.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .graphs import BipartiteGraph, Graph, NodeSubset, complement_edges, bipartite_complement_edges


class NumericalError(RuntimeError):
    """A dense linear-algebra kernel failed or did not converge."""


@dataclass
class SolverConfig:
    """ADMM parameters.  gamma=None resolves to the size-based default
    (6/k, or 6/sqrt(k1*k2) for the bipartite problem)."""

    gamma: float | None = None
    tau: float = 0.35
    tol: float = 1e-4
    max_iter: int = 5000
    mode: str = "derived"

    def __post_init__(self):
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.mode not in ("paper", "derived"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(eq=False)
class SolverResult:
    X: np.ndarray
    Y: np.ndarray
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    objective: float
    residual_history: np.ndarray = field(repr=False)
    # thread count of each bundled OpenBLAS during the solve, None for a copy
    # that was not found
    blas_threads: dict[str, int | None] = field(repr=False)


def default_gamma(k: int) -> float:
    """l1 weight 6/k, valid whenever p + q <= 1/2."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return 6.0 / k


def default_gamma_bipartite(k1: int, k2: int) -> float:
    """Bipartite analogue 6/sqrt(k1*k2)."""
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be at least 1")
    return 6.0 / math.sqrt(k1 * k2)


def soft_threshold(x: np.ndarray, phi: float) -> np.ndarray:
    """Entrywise shrink toward zero by phi."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - phi, 0.0)


def svt(M: np.ndarray, phi: float) -> np.ndarray:
    """Soft-threshold the singular values of M (the nuclear-norm prox)."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {M.shape[0]}x{M.shape[1]} matrix") from exc
    return (U * np.maximum(s - phi, 0.0)) @ Vt


def _svt_symmetric(M: np.ndarray, phi: float) -> np.ndarray:
    """svt() specialized to symmetric input via an eigendecomposition."""
    try:
        w, V = scipy.linalg.eigh(M, driver="evd", check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigh failed on a {M.shape[0]}x{M.shape[0]} matrix") from exc
    s = np.sign(w) * np.maximum(np.abs(w) - phi, 0.0)
    return (V * s) @ V.T


def project_sum(Wt: np.ndarray, target: float) -> np.ndarray:
    """Shift by a constant so the entries sum to target (projection onto the
    sum constraint)."""
    Wt = np.asarray(Wt, dtype=float)
    beta = (target - Wt.sum()) / Wt.size
    return Wt + beta


def clamp_box(M: np.ndarray) -> np.ndarray:
    """Entrywise clamp to [0, 1]."""
    return np.clip(np.asarray(M, dtype=float), 0.0, 1.0)


def _nuclear_norm(X: np.ndarray, symmetric: bool) -> float:
    if symmetric:
        return float(np.abs(scipy.linalg.eigvalsh(X, check_finite=False)).sum())
    return float(np.linalg.svd(X, compute_uv=False).sum())


def _openblas_controls(libdir: Path, suffix: str):
    """(get, set) thread-count functions of the OpenBLAS bundled in libdir,
    or None when there is none there."""
    paths = sorted(libdir.glob("libscipy_openblas*.so*"))
    if not paths:
        return None
    try:
        # the package import has loaded it already, so this is the live copy
        lib = ctypes.CDLL(str(paths[0]))
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
    except (OSError, AttributeError):
        return None
    get.argtypes = []
    get.restype = ctypes.c_int
    set_.argtypes = [ctypes.c_int]
    set_.restype = None
    return get, set_


@functools.cache
def _blas_controls() -> dict:
    """Thread controls of the OpenBLAS copies that the numpy and scipy wheels
    bundle in numpy.libs and scipy.libs.  np.linalg and scipy.linalg run on
    different copies; numpy's exports its symbols with a "64_" suffix.  A
    copy that is not found (non-wheel builds, MKL) maps to None."""
    return {
        name: _openblas_controls(
            Path(module.__file__).resolve().parent.parent / f"{name}.libs", suffix
        )
        for name, module, suffix in (("numpy", np, "64_"), ("scipy", scipy, ""))
    }


@contextmanager
def _one_blas_thread():
    """Run the body with every bundled OpenBLAS on one thread and restore the
    caller's counts on exit.  Yields the counts in effect (None for a copy
    that was not found).

    A copy that already reads 1 is left alone: in a forked worker any setter
    call, even to 1, starts OpenBLAS's thread pool.
    """
    controls = _blas_controls()
    restore = []
    for get, set_ in (c for c in controls.values() if c is not None):
        count = get()
        if count != 1:
            set_(1)
            restore.append((set_, count))
    try:
        yield {name: None if c is None else c[0]() for name, c in controls.items()}
    finally:
        for set_, count in restore:
            set_(count)


def _admm(
    nonedge: np.ndarray,
    sum_target: float,
    gamma: float,
    cfg: SolverConfig,
    symmetric: bool,
) -> SolverResult:
    shape = nonedge.shape
    size = nonedge.size
    keep = ~nonedge  # support of Q: edges (plus the diagonal in the square case)
    shrink = _svt_symmetric if symmetric else svt
    tau = cfg.tau

    X = np.full(shape, sum_target / size)
    W = X.copy()
    Y = -X
    Z = X.copy()
    Q = np.zeros(shape)
    LQ = np.zeros(shape)
    LW = np.zeros(shape)
    LZ = np.zeros(shape)

    history = []
    converged = False
    rp = rd = math.inf
    iterations = 0
    # one BLAS thread: a threaded solve measured ~3x slower at n=250 and a
    # threaded eigh+GEMM within 5% at n=1000 (see README); jobs is the axis
    # for parallelism
    with _one_blas_thread() as blas_threads:
        # divergent runs (possible in paper mode) trip the finite guard below;
        # silence the overflow that precedes it
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(cfg.max_iter):
                if cfg.mode == "paper":
                    Q = np.where(nonedge, X + Y - LQ, 0.0)
                    Xt = Q + 2.0 * X - Z - W - LW
                    if not np.isfinite(Xt).all():
                        break
                    Xn = shrink(Xt, tau)
                    Yn = soft_threshold(Y - tau * Q, tau * gamma)
                    Wn = project_sum(Xn - LW, sum_target)
                    Zn = clamp_box(Xn - LZ)
                    LQn = np.where(keep, LQ - (Xn + Yn), 0.0)
                    LWn = LW - (Xn - Wn)
                    LZn = LZ - (Xn - Zn)
                    dual_step = LQn - LQ
                else:
                    Q = np.where(keep, X + Y + LQ, 0.0)
                    C = ((Q - Y - LQ) + (W - LW) + (Z - LZ)) / 3.0
                    if not np.isfinite(C).all():
                        break
                    Xn = shrink(C, 1.0 / (3.0 * tau))
                    Yn = soft_threshold(Q - Xn - LQ, gamma / tau)
                    Wn = project_sum(Xn + LW, sum_target)
                    Zn = clamp_box(Xn + LZ)
                    LQn = LQ + (Xn + Yn - Q)
                    LWn = LW + (Xn - Wn)
                    LZn = LZ + (Xn - Zn)
                    dual_step = tau * (LQn - LQ)  # report the unscaled multiplier change
                rp = max(
                    float(np.linalg.norm(Xn - Wn)),
                    float(np.linalg.norm(Xn - Zn)),
                    float(np.linalg.norm(Xn + Yn - Q)),
                )
                rd = max(
                    float(np.linalg.norm(Wn - W)),
                    float(np.linalg.norm(Zn - Z)),
                    float(np.linalg.norm(dual_step)),
                )
                X, Y, W, Z, LQ, LW, LZ = Xn, Yn, Wn, Zn, LQn, LWn, LZn
                history.append((rp, rd))
                iterations = it + 1
                if max(rp, rd) < cfg.tol:
                    converged = True
                    break

        if np.isfinite(X).all():
            objective = _nuclear_norm(X, symmetric) + gamma * float(np.abs(Y).sum())
        else:
            objective = math.nan
    return SolverResult(
        X=X,
        Y=Y,
        iterations=iterations,
        converged=converged,
        primal_residual=float(rp),
        dual_residual=float(rd),
        objective=objective,
        residual_history=np.array(history) if history else np.zeros((0, 2)),
        blas_threads=blas_threads,
    )


def solve_dks(g: Graph, k: int, cfg: SolverConfig | None = None) -> SolverResult:
    """Run ADMM on the densest k-subgraph relaxation for graph g."""
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(k)
    return _admm(complement_edges(g), float(k) ** 2, gamma, cfg, symmetric=True)


def solve_dkb(g: BipartiteGraph, k1: int, k2: int, cfg: SolverConfig | None = None) -> SolverResult:
    """Run ADMM on the densest (k1, k2)-subgraph relaxation for bipartite g."""
    if not (1 <= k1 <= g.n1 and 1 <= k2 <= g.n2):
        raise ValueError(f"need 1 <= k1 <= n1 and 1 <= k2 <= n2, got {k1}, {k2}")
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma_bipartite(k1, k2)
    return _admm(
        bipartite_complement_edges(g), float(k1) * float(k2), gamma, cfg, symmetric=False
    )


def _target_matrix(planted) -> np.ndarray:
    if isinstance(planted, tuple):
        su, sv = planted
        return np.outer(su.indicator(), sv.indicator())
    return np.outer(planted.indicator(), planted.indicator())


def relative_error(X: np.ndarray, planted) -> float:
    """Frobenius distance to the planted rank-one matrix, relative to its norm.

    `planted` is a NodeSubset, or a (NodeSubset, NodeSubset) pair for the
    bipartite problem.
    """
    X0 = _target_matrix(planted)
    if X.shape != X0.shape:
        raise ValueError(f"matrix shape {X.shape} does not match planted {X0.shape}")
    return float(np.linalg.norm(X - X0) / np.linalg.norm(X0))


def recovery_check(X: np.ndarray, planted, tol: float = 1e-3) -> bool:
    """True when X is within relative Frobenius distance tol of the planted
    rank-one matrix."""
    return relative_error(X, planted) < tol


def round_to_subset(X: np.ndarray, k: int) -> NodeSubset:
    """Indices of the k largest entries of the dominant singular vector of X,
    ties broken toward lower indices."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if X.shape != (n, n):
        raise ValueError("round_to_subset expects a square matrix")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    try:
        U, _, _ = np.linalg.svd(X)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {n}x{n} matrix") from exc
    lead = U[:, 0]
    if lead.sum() < 0:
        lead = -lead
    order = np.argsort(-lead, kind="stable")
    return NodeSubset(tuple(int(i) for i in order[:k]), n)
