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
from scipy.linalg import lapack

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
    # eigen/singular values the SVT kept at each iteration, aligned with
    # residual_history
    svt_rank: np.ndarray = field(repr=False)
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


def soft_threshold(x: np.ndarray, phi: float, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise shrink toward zero by phi.  out, when given, receives the
    result and must not overlap x."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    shrunk = np.abs(x, out=out)
    shrunk -= phi
    np.maximum(shrunk, 0.0, out=shrunk)
    return np.copysign(shrunk, x, out=shrunk)


def svt(M: np.ndarray, phi: float) -> np.ndarray:
    """Soft-threshold the singular values of M (the nuclear-norm prox)."""
    return _svt(M, phi)[0]


def _svt(M: np.ndarray, phi: float) -> tuple[np.ndarray, int]:
    """svt() and the number of singular values it kept."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {M.shape[0]}x{M.shape[1]} matrix") from exc
    s = np.maximum(s - phi, 0.0)
    return (U * s) @ Vt, int(np.count_nonzero(s))


# syevd's safe range for the entries of the matrix it decomposes
_SCALE_MIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_SCALE_MAX = 1.0 / _SCALE_MIN
# below this order one dsyevd call beats the reduction pipeline of
# _eigenpairs_outside: per call on real iterates it was faster at n=14 and
# 20, level at 28-40 and slower at 60
_SMALL_ORDER = 32
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _lapack_ok(info: int, routine: str, n: int) -> None:
    if info != 0:
        raise NumericalError(f"{routine} failed on a {n}x{n} matrix (info={info})")


def _finite_top(M: np.ndarray) -> float:
    """The largest absolute entry of M; NumericalError if any is not finite."""
    top = max(float(M.max()), -float(M.min()))  # both are NaN if any entry is
    if not math.isfinite(top):
        raise NumericalError(f"non-finite entries in a {M.shape[0]}x{M.shape[1]} matrix")
    return top


def _power_of_two_scale(top: float, lo: float, hi: float) -> float:
    """1.0 when top is 0 or lies in [lo, hi], else the power of two that
    brings it to just inside.  Scaling by a power of two is exact; scaling
    further than needed would turn the small entries subnormal, and
    subnormal arithmetic is slow."""
    if top == 0.0 or lo <= top <= hi:
        return 1.0
    edge = 4.0 * lo if top < lo else hi / 4.0
    return math.ldexp(1.0, math.frexp(edge)[1] - math.frexp(top)[1])


def _svt_symmetric(M: np.ndarray, phi: float) -> tuple[np.ndarray, int]:
    """svt() specialized to symmetric input, and the number of eigenvalues it
    kept: the eigenpairs outside [-phi, phi], each eigenvalue shrunk toward
    zero by phi.  Only the lower triangle is read."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    w, Z = _eigenpairs_outside(np.asarray(M, dtype=float), phi)
    s = np.sign(w) * np.maximum(np.abs(w) - phi, 0.0)
    return (Z * s) @ Z.T, int(np.count_nonzero(s))


def _svt_gram(M: np.ndarray, phi: float) -> tuple[np.ndarray, int]:
    """svt() through the Gram matrix, and the number of singular values it
    kept.

    With G = M'M over the smaller side of M, the singular values of M above
    phi are the square roots of the eigenvalues w of G above phi^2, and with
    their eigenvectors V, svt(M, phi) = ((M V) diag(1 - phi/sqrt(w))) V'.
    _eigenpairs_outside finds them; G is positive semidefinite, so its
    search of the lower tail, below -phi^2, ends at an empty Sturm count.
    M is first scaled by a power of two so that G can neither overflow nor
    underflow.

    Accuracy rule: rounding G perturbs it by about eps ||M||^2, which the
    shrink factor's slope near phi^2 turns into an error of about
    eps ||M||^2 / phi in X, against gesdd's eps ||M||.  The Gram route is
    therefore taken only while phi^2 > sqrt(eps) ||M||_F^2, which bounds
    that error by about eps^(3/4) ||M|| (3.4e-13 ||M|| at most in a random
    search at the line).  The line lies far above G's eigenvalue error
    (m + n) eps ||M||_F^2, below which G cannot even tell which singular
    values pass phi; a line at that error alone let the error reach
    1.1e-9 ||M||.  At or below the line, phi = 0 included, the SVT is the
    exact svt() (gesdd on M).  The ADMM's phi = 1/(3 tau) is far above it.
    """
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    if M.shape[0] < M.shape[1]:
        X, kept = _svt_gram(M.T, phi)
        return X.T, kept
    m, n = M.shape
    # entries in [sqrt(min), sqrt(max/m)] put G's entries in syevd's safe range
    scale = _power_of_two_scale(_finite_top(M), math.sqrt(_SCALE_MIN), math.sqrt(_SCALE_MAX / m))
    Ms = M * scale if scale != 1.0 else M
    G = Ms.T @ Ms
    cut = (phi * scale) * (phi * scale)
    trace = float(np.trace(G))  # ||M||_F^2, at least the largest eigenvalue
    if cut >= trace:
        return np.zeros((m, n)), 0
    if cut <= _SQRT_EPS * trace:
        return _svt(M, phi)
    w, V = _eigenpairs_outside(G, cut)
    kept = w > cut
    w, V = w[kept], V[:, kept]
    X = ((Ms @ V) * (1.0 - (phi * scale) / np.sqrt(w))) @ V.T
    if scale != 1.0:
        X /= scale
    return X, int(w.size)


def _eigenpairs_outside(M: np.ndarray, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, Z) of the symmetric matrix M, lower triangle read, that
    include every eigenvalue outside [-phi, phi].  The paths that decompose
    M fully return all n pairs, the others only those outside.

    Below order 32 this is one dsyevd call.  Otherwise one Householder
    reduction M = Q T Q' (dsytrd) serves both tails of the spectrum: a Sturm
    count on T gives the number of eigenvalues outside [-phi, phi], bisection
    (dstebz) finds them, inverse iteration (dstein) gives their vectors, and
    only those vectors are carried back through Q.  This is LAPACK's syevx
    pipeline with the O(n^3) reduction done once.

    When more than n/5 eigenpairs are kept, it is cheaper to finish the full
    decomposition from the same reduction by divide and conquer (dstevd, then
    all n vectors through Q), which is the pipeline of eigh(driver="evd").
    The crossover measured 32-64 kept pairs at n=250 and 12-16 at n=60;
    paper mode keeps nearly all of them.  The full path also takes over when
    inverse iteration fails to converge.
    """
    n = M.shape[0]
    scale = _power_of_two_scale(_finite_top(M), _SCALE_MIN, _SCALE_MAX)
    if scale != 1.0:
        # outside syevd's safe range squares over- or underflow (divergent
        # paper-mode iterates pass 1e150)
        w, Z = _eigenpairs_outside(M * scale, phi * scale)
        return w / scale, Z
    if n < _SMALL_ORDER:
        *pairs, info = lapack.dsyevd(M, lower=1)
        _lapack_ok(info, "dsyevd", n)
        return tuple(pairs)
    c, d, e, tau, info = lapack.dsytrd(M, lower=1, lwork=int(lapack.dsytrd_lwork(n, lower=1)[0]))
    _lapack_ok(info, "dsytrd", n)
    radius, off = np.abs(d), np.abs(e)
    radius[1:] += off
    radius[:-1] += off
    bound = float(radius.max())  # Gershgorin: every eigenvalue lies in [-bound, bound]
    if phi >= bound:
        return np.zeros(0), np.zeros((n, 0))
    kept = n
    if phi > 0:
        # a tolerance wider than the interval stops the bisection at the count
        inside, *_, info = lapack.dstebz(d, e, 1, -phi, phi, 0, 0, 4.0 * bound, "B")
        _lapack_ok(info, "dstebz", n)
        kept = n - inside
    if kept == 0:
        return np.zeros(0), np.zeros((n, 0))
    pairs = _tail_pairs(d, e, phi, bound) if 5 * kept <= n else None
    if pairs is None:
        *pairs, info = lapack.dstevd(d, e)
        _lapack_ok(info, "dstevd", n)
    w, Z = pairs
    return w, _apply_q(c, tau, Z)


def _tail_pairs(d: np.ndarray, e: np.ndarray, phi: float, bound: float):
    """Eigenpairs (w, Z) of the tridiagonal (d, e) whose eigenvalues lie
    outside [-phi, phi], or None when there are none or inverse iteration
    does not converge."""
    n = d.size
    tails = []
    for lo, hi in ((-2.0 * bound, -phi), (phi, 2.0 * bound)):
        # range 1 is "V": the eigenvalues in (lo, hi]
        m, w, iblock, isplit, info = lapack.dstebz(d, e, 1, lo, hi, 0, 0, 0.0, "B")
        _lapack_ok(info, "dstebz", n)
        tails.append((w[:m], iblock[:m]))
    w, blocks = (np.concatenate(parts) for parts in zip(*tails))
    if not w.size:
        return None
    # dstein takes the eigenvalues grouped by split block, ascending in each
    order = np.lexsort((w, blocks))
    w = w[order]
    iblock[: w.size] = blocks[order]
    Z, info = lapack.dstein(d, e, w, iblock, isplit)
    if info > 0:
        return None
    _lapack_ok(info, "dstein", n)
    return w, Z


def _apply_q(c: np.ndarray, tau: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Q Z for the Q = diag(1, Q1) that dsytrd(lower=1) left in (c, tau).

    Q1 is the product of the reflectors stored below the subdiagonal, in the
    layout dormqr reads from c[1:, :-1]; this is what dormtr, which scipy
    does not wrap, does for UPLO='L'.  dormqr applies Q1' from the right to
    the rows 1: of (Q Z)' = Z' Q', which in a C-ordered copy of Z are one
    Fortran block, so it works in place there."""
    reflectors = np.asfortranarray(c[1:, :-1])
    QZ = np.ascontiguousarray(Z)
    # dormqr's optimal workspace: blocks of at most 64 reflectors, and their
    # 65x64 triangular factor
    lwork = 64 * Z.shape[1] + 65 * 64
    *_, info = lapack.dormqr("R", "T", reflectors, tau, QZ.T[:, 1:], lwork, overwrite_c=1)
    _lapack_ok(info, "dormqr", c.shape[0])
    return QZ


def project_sum(Wt: np.ndarray, target: float, out: np.ndarray | None = None) -> np.ndarray:
    """Shift by a constant so the entries sum to target (projection onto the
    sum constraint).  out may be Wt itself."""
    Wt = np.asarray(Wt, dtype=float)
    beta = (target - Wt.sum()) / Wt.size
    return np.add(Wt, beta, out=out)


def clamp_box(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise clamp to [0, 1].  out may be M itself."""
    return np.clip(np.asarray(M, dtype=float), 0.0, 1.0, out=out)


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
    shrink = _svt_symmetric if symmetric else _svt_gram
    tau = cfg.tau
    norm = np.linalg.norm

    X = np.full(shape, sum_target / size)
    W = X.copy()
    Y = -X
    Z = X.copy()
    Q = np.zeros(shape)
    LQ = np.zeros(shape)
    LW = np.zeros(shape)
    LZ = np.zeros(shape)
    if cfg.mode == "derived":
        # the next W, Z and LQ, and two temporaries, reused by every sweep
        Wn, Zn, LQn, C, T = (np.empty(shape) for _ in range(5))

    history = []
    ranks = []
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
                    Xn, rank = shrink(Xt, tau)
                    Yn = soft_threshold(Y - tau * Q, tau * gamma)
                    Wn = project_sum(Xn - LW, sum_target)
                    Zn = clamp_box(Xn - LZ)
                    LQn = np.where(keep, LQ - (Xn + Yn), 0.0)
                    LWn = LW - (Xn - Wn)
                    LZn = LZ - (Xn - Zn)
                    rp = max(
                        float(norm(Xn - Wn)),
                        float(norm(Xn - Zn)),
                        float(norm(Xn + Yn - Q)),
                    )
                    rd = max(
                        float(norm(Wn - W)),
                        float(norm(Zn - Z)),
                        float(norm(LQn - LQ)),
                    )
                    X, Y, W, Z, LQ, LW, LZ = Xn, Yn, Wn, Zn, LQn, LWn, LZn
                else:
                    # Q = X + Y + LQ on its support
                    np.add(X, Y, out=Q)
                    Q += LQ
                    np.copyto(Q, 0.0, where=nonedge)
                    # C = ((Q - Y - LQ) + (W - LW) + (Z - LZ)) / 3
                    np.subtract(Q, Y, out=C)
                    C -= LQ
                    C += np.subtract(W, LW, out=T)
                    C += np.subtract(Z, LZ, out=T)
                    C /= 3.0
                    if not np.isfinite(C).all():
                        break
                    X, rank = shrink(C, 1.0 / (3.0 * tau))
                    np.subtract(Q, X, out=T)
                    T -= LQ
                    soft_threshold(T, gamma / tau, out=Y)
                    project_sum(np.add(X, LW, out=Wn), sum_target, out=Wn)
                    clamp_box(np.add(X, LZ, out=Zn), out=Zn)
                    # each primal residual is also its scaled dual's step
                    r_w = float(norm(np.subtract(X, Wn, out=T)))
                    LW += T
                    r_z = float(norm(np.subtract(X, Zn, out=T)))
                    LZ += T
                    np.add(X, Y, out=T)
                    T -= Q
                    rp = max(r_w, r_z, float(norm(T)))
                    np.add(LQ, T, out=LQn)
                    d_w = float(norm(np.subtract(Wn, W, out=T)))
                    d_z = float(norm(np.subtract(Zn, Z, out=T)))
                    np.subtract(LQn, LQ, out=T)
                    T *= tau  # report the unscaled multiplier change
                    rd = max(d_w, d_z, float(norm(T)))
                    W, Wn = Wn, W
                    Z, Zn = Zn, Z
                    LQ, LQn = LQn, LQ
                history.append((rp, rd))
                ranks.append(rank)
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
        svt_rank=np.array(ranks, dtype=int),
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


def round_to_subset(
    X: np.ndarray, k: int | tuple[int, int]
) -> NodeSubset | tuple[NodeSubset, NodeSubset]:
    """Indices of the k largest entries of the dominant singular vector of X,
    ties broken toward lower indices.

    k is an int for a square X, or a (k1, k2) pair for the bipartite
    problem, which rounds the left and right singular vectors of a
    rectangular X and returns a (NodeSubset, NodeSubset) pair.  The pair of
    vectors is flipped together so that the left one sums to >= 0.
    """
    X = np.asarray(X, dtype=float)
    pair = isinstance(k, tuple)
    if X.ndim != 2 or not (pair or X.shape[0] == X.shape[1]):
        raise ValueError("round_to_subset expects a square matrix, or a (k1, k2) pair")
    sizes = k if pair else (k, k)
    for size, n in zip(sizes, X.shape, strict=True):
        if not 1 <= size <= n:
            raise ValueError(f"need 1 <= k <= n, got k={size}, n={n}")
    try:
        U, _, Vt = np.linalg.svd(X)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {X.shape[0]}x{X.shape[1]} matrix") from exc
    lead = U[:, 0], Vt[0]
    if lead[0].sum() < 0:
        lead = -lead[0], -lead[1]
    subsets = tuple(
        NodeSubset(tuple(int(i) for i in np.argsort(-vec, kind="stable")[:size]), vec.size)
        for vec, size in zip(lead, sizes)
    )
    return subsets if pair else subsets[0]
