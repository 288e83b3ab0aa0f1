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
  (Z - U_Z); while the previous sweep kept one pair, that step is first
  tried as a proved rank-one step (see _lone_pair).  Y is entrywise soft
  thresholding at gamma/tau, and the duals are kept in scaled form
  (U = Lambda/tau).  The projection onto the sum constraint only shifts, so
  W is X plus a constant and U_W is a constant: the sweep holds both as
  scalars (see _DerivedSweep).  A solve still unconverged after 100 sweeps
  continues under safeguarded Anderson acceleration (see _derived_loop).
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
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .graphs import BipartiteGraph, Graph, NodeSubset, complement_edges, bipartite_complement_edges


class NumericalError(RuntimeError):
    """A dense linear-algebra kernel failed or did not converge."""


def _require_int(value, name: str) -> None:
    """ValueError unless value is an int or a numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        _require_int(self.max_iter, "max_iter")
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
    # what each sweep evaluated (PLAIN, ACCEPTED or REJECTED), aligned with
    # residual_history
    sweep_kind: np.ndarray = field(repr=False)
    # stopped by max_iter rather than by tol or the finite guard
    hit_cap: bool

    def anderson_counts(self) -> dict[str, int]:
        """Anderson candidates accepted and rejected during the solve."""
        return {
            "anderson_accepted": int(np.count_nonzero(self.sweep_kind == ACCEPTED)),
            "anderson_rejected": int(np.count_nonzero(self.sweep_kind == REJECTED)),
        }


# SolverResult.sweep_kind codes: a sweep from the plain ADMM step, from an
# Anderson candidate that was accepted, or from one that was rejected
PLAIN, ACCEPTED, REJECTED = 0, 1, 2


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
    """Entrywise shrink toward zero by phi, as x - clip(x, -phi, phi).  out,
    when given, receives the result and must not overlap x."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, -phi, phi, out=out)
    return np.subtract(x, clipped, out=clipped)


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
# below this order one dsyevd call beats the reduction pipeline
# (_reduced_pairs): per call on real iterates it was faster at n=14 and
# 20, level at 28-40 and slower at 60
_SMALL_ORDER = 32
_EPS = np.finfo(float).eps
_SQRT_EPS = math.sqrt(_EPS)
# the power steps of the rank-one SVT: at most _POWER_STEPS, each cutting
# the residual by at least the factor _POWER_RATE
_POWER_STEPS = 30
_POWER_RATE = 0.5


def _lapack_ok(info: int, routine: str, n: int) -> None:
    if info != 0:
        raise NumericalError(f"{routine} failed on a {n}x{n} matrix (info={info})")


def _finite_top(M: np.ndarray) -> float:
    """The largest absolute entry of M; NumericalError if any is not finite."""
    top = max(float(M.max()), -float(M.min()))  # both are NaN if any entry is
    if not math.isfinite(top):
        raise NumericalError(f"non-finite entries in a {M.shape[0]}x{M.shape[1]} matrix")
    return top


def _svt_symmetric(
    M: np.ndarray, phi: float, lead: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """svt() specialized to symmetric input, and the number of eigenvalues it
    kept: the eigenpairs outside [-phi, phi], each eigenvalue shrunk toward
    zero by phi.  Only the lower triangle is read.  lead is the in/out warm
    vector of _eigenpairs_outside, which finds the pairs."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    w, Z = _eigenpairs_outside(np.asarray(M, dtype=float), phi, lead)
    # np.dot: bitwise equal to @, and for one column at n=250 several times faster
    return np.dot(Z * (w - np.copysign(phi, w)), Z.T), w.size


def _svt_gram(
    M: np.ndarray, phi: float, lead: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """svt() through the Gram matrix, and the number of singular values it
    kept.

    With G = M'M over the smaller side of M, the singular values of M above
    phi are the square roots of the eigenvalues w of G above phi^2, and with
    their eigenvectors V, svt(M, phi) = ((M V) diag(1 - phi/sqrt(w))) V'.
    _eigenpairs_outside finds them, with lead as its warm vector (of the
    smaller side's length); G is positive semidefinite, so its lower tail,
    below -phi^2, is empty.  G could overflow or underflow when the largest
    entry of M is nonzero and outside [sqrt(min), sqrt(max/m)], for syevd's
    safe range [min, max]; such M takes the exact svt() instead, and gesdd
    rescales it itself.

    Accuracy rule: rounding G perturbs it by about eps ||M||^2, which the
    shrink factor's slope near phi^2 turns into an error of about
    eps ||M||^2 / phi in X, against gesdd's eps ||M||.  The Gram route is
    therefore taken only while phi^2 > sqrt(eps) ||M||_F^2, which bounds
    that error by about eps^(3/4) ||M|| (3.4e-13 ||M|| at most in a random
    search at the line).  The line lies far above G's eigenvalue error
    (m + n) eps ||M||_F^2, below which G cannot even tell which singular
    values pass phi; a line at that error alone let the error reach
    1.1e-9 ||M||.  At or below the line, phi = 0 included, the SVT is the
    exact svt() (gesdd on M), which zeroes lead.  The ADMM's phi = 1/(3 tau)
    is far above it.

    On the rank-one route, _lone_pair proves that only one eigenvalue theta
    of G exceeds phi^2, with G's residual r at v.  Then, with u = Mv/||Mv||,
    (u, v) is an exact singular pair at sqrt(theta) of M - uu'M(I - vv'), a
    change of norm ||r||/sqrt(theta) whose other singular values lie below
    phi, so X = (1 - phi/sqrt(theta)) M vv' is within ||r||/sqrt(theta) <
    ||r||/phi of svt(M, phi).
    """
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    if M.shape[0] < M.shape[1]:
        X, kept = _svt_gram(M.T, phi, lead)
        return X.T, kept
    top = _finite_top(M)
    # entries in [sqrt(min), sqrt(max/m)] put G's entries in syevd's safe range
    if top == 0.0 or math.sqrt(_SCALE_MIN) <= top <= math.sqrt(_SCALE_MAX / M.shape[0]):
        G = M.T @ M
        cut = phi * phi
        if cut > _SQRT_EPS * float(np.trace(G)):  # trace(G) = ||M||_F^2
            w, V = _eigenpairs_outside(G, cut, lead, both_tails=False)
            return np.dot((M @ V) * (1.0 - phi / np.sqrt(w)), V.T), w.size
    if lead is not None:
        lead[:] = 0.0
    return _svt(M, phi)


def _eigenpairs_outside(
    M: np.ndarray, phi: float, lead: np.ndarray | None = None, both_tails: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs (w, Z) of the symmetric matrix M, lower triangle read,
    whose eigenvalues lie outside [-phi, phi]; every route returns exactly
    those.  both_tails=False is for M positive semidefinite, whose lower tail
    is empty.

    Below order _SMALL_ORDER this is one dsyevd call, and so it is when the
    largest entry of M is nonzero and outside syevd's safe range
    [_SCALE_MIN, _SCALE_MAX]: there squares over- or underflow (divergent
    paper-mode iterates pass 1e150), and dsyevd rescales such input itself.
    Otherwise a nonzero lead is first tried as the start of a rank-one step
    (_lone_pair), and the reduction pipeline (_reduced_pairs) runs when that
    step is not proved.

    lead, when given, is an in/out buffer of length n for a sequence of
    calls on slowly changing M.  From order _SMALL_ORDER on, it is left
    holding the eigenvector when exactly one pair is returned, and zeros
    otherwise; below that order it is neither read nor written.
    """
    n = M.shape[0]
    top = _finite_top(M)
    small = n < _SMALL_ORDER
    pairs = None
    if small or not (top == 0.0 or _SCALE_MIN <= top <= _SCALE_MAX):
        *pairs, info = lapack.dsyevd(M, lower=1)
        _lapack_ok(info, "dsyevd", n)
    elif lead is not None and lead.any():
        pairs = _lone_pair(M, phi, lead, both_tails)
    w, Z = pairs if pairs is not None else _reduced_pairs(M, phi)
    # a boolean index copies, so Z never aliases lead
    outside = np.abs(w) > phi
    w, Z = w[outside], Z[:, outside]
    if lead is not None and not small:
        lead[:] = Z[:, 0] if w.size == 1 else 0.0
    return w, Z


def _lone_pair(A: np.ndarray, phi: float, v: np.ndarray, both_tails: bool):
    """The eigenpair (w, Z) = ([theta], v as a column), for a unit vector v
    and theta = v'Av, when it is proved that the symmetric A (lower triangle
    read) has exactly one eigenvalue outside [-phi, phi], or above phi alone
    when both_tails is False (for A positive semidefinite); None when that
    is not shown.

    Power steps v <- Av/||Av|| run from the given unit v until the residual
    r = Av - theta v has ||r|| <= 4 eps ||A||_F.  Then dpotrf checks
    C = A - theta vv': phi I - C positive definite puts every eigenvalue of
    C below phi, and phi I + C (both tails only) every one above -phi.  Take
    theta > 0 (theta < 0 is the mirror image).  As A = C + theta vv', Cauchy
    interlacing puts every eigenvalue of A but the largest between the
    smallest and the largest eigenvalue of C, inside the interval; the
    largest is at least the Rayleigh quotient theta, which must exceed phi.

    v is an exact eigenvector of B = A - rv' - vr' = theta vv' + PCP, with
    P = I - vv', whose other eigenvalues lie within C's.  So the rank-one
    shrink sign(theta) (|theta| - phi) vv' is the exact SVT of B, and, the
    prox being nonexpansive, within ||A - B||_F = sqrt(2) ||r|| of the exact
    SVT of A.  Rounding in the factorizations blurs the proof only for an
    eigenvalue of C within rounding of -phi or phi, where the pipeline's
    Sturm count is as blurred.

    None when the step cap is hit, when a step fails to cut the residual by
    _POWER_RATE, when |theta| <= phi, or when a factorization fails.
    """
    norm = np.linalg.norm
    # A's lower triangle is the upper one of the Fortran-ordered A.T, which
    # LAPACK and BLAS take without a copy
    tol = 4.0 * _EPS * float(norm(A))
    last = math.inf
    for _ in range(_POWER_STEPS):
        w = blas.dsymv(1.0, A.T, v, lower=0)
        theta = float(v @ w)
        res = float(norm(w - theta * v))
        if res <= tol:
            break
        if not res <= _POWER_RATE * last:
            return None
        last = res
        v = w / norm(w)
    else:
        return None
    if not abs(theta) > phi:
        return None
    # H = phi I - side C, in Fortran order so that its lower triangle is
    # A's: dpotrf factors a lower triangle faster (267 against 431 us at
    # n=250, one thread)
    H = np.empty(A.shape, order="F")
    diagonal = H.T.ravel()[:: A.shape[0] + 1]
    sign = math.copysign(1.0, theta)
    for side in (sign, -sign) if both_tails else (sign,):
        np.copyto(H, A)
        if side > 0:
            np.negative(H, out=H)
        blas.dsyr(side * theta, v, lower=1, a=H, overwrite_a=1)
        diagonal += phi
        _, info = lapack.dpotrf(H, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            return None
    return np.array([theta]), v[:, None]


def _reduced_pairs(M: np.ndarray, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, Z) of the symmetric matrix M, lower triangle read, that
    include every eigenvalue outside [-phi, phi], for M in syevd's safe
    range.  The full decomposition returns all n pairs, the other paths
    only those outside.

    One Householder reduction M = Q T Q' (dsytrd) serves both tails of the
    spectrum: a Sturm count on T gives the number of eigenvalues outside
    [-phi, phi], bisection (dstebz) finds them, inverse iteration (dstein)
    gives their vectors, and only those vectors are carried back through Q.
    This is LAPACK's syevx pipeline with the O(n^3) reduction done once.

    When more than n/5 eigenpairs are kept, it is cheaper to finish the full
    decomposition from the same reduction by divide and conquer (dstevd, then
    all n vectors through Q), which is the pipeline of eigh(driver="evd").
    The crossover measured 32-64 kept pairs at n=250 and 12-16 at n=60;
    paper mode keeps nearly all of them.  The full path also takes over when
    inverse iteration fails to converge.
    """
    n = M.shape[0]
    c, d, e, tau, info = lapack.dsytrd(M, lower=1, lwork=int(lapack.dsytrd_lwork(n, lower=1)[0]))
    _lapack_ok(info, "dsytrd", n)
    radius, off = np.abs(d), np.abs(e)
    radius[1:] += off
    radius[:-1] += off
    bound = float(radius.max())  # Gershgorin: every eigenvalue lies in [-bound, bound]
    kept = 0 if phi >= bound else n
    if kept and phi > 0:
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
    return pairs[0], _apply_q(c, tau, pairs[1])


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


def project_sum(Wt: np.ndarray, target: float) -> np.ndarray:
    """Shift by a constant so the entries sum to target (projection onto the
    sum constraint)."""
    Wt = np.asarray(Wt, dtype=float)
    return Wt + (target - Wt.sum()) / Wt.size


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


# sweeps of plain ADMM before Anderson mixing starts.  Mixing from sweep 1
# cut three recovering n=250 solves from 79/83/94 to 67/60/69 sweeps, but
# each sweep cost ~45% more (3.0-3.3 against 4.6-4.8 ms), so no solve was
# faster; most recovering solves at n=250 end by sweep 100
_ANDERSON_START = 100
# secant pairs kept by Anderson mixing
_ANDERSON_MEMORY = 7
# Tikhonov weight of the mixing least squares, relative to the trace of its
# Gram matrix; the Gram matrix is summed in float32
_ANDERSON_REG = 1e-6


class _Sweeps:
    """The per-sweep rows of a solve, and the residuals of its current state:
    those of the last sweep that was not a rejected candidate."""

    def __init__(self, cfg: SolverConfig):
        self.tol = cfg.tol
        self.max_iter = cfg.max_iter
        self.rows: list[tuple[float, float]] = []
        self.ranks: list[int] = []
        self.kinds: list[int] = []
        self.rp = self.rd = math.inf
        self.converged = False

    def add(self, rp: float, rd: float, rank: int, kind: int = PLAIN) -> None:
        self.rows.append((rp, rd))
        self.ranks.append(rank)
        self.kinds.append(kind)
        if kind != REJECTED:
            self.rp, self.rd = rp, rd
            self.converged = max(rp, rd) < self.tol

    @property
    def done(self) -> bool:
        return self.converged or len(self.rows) >= self.max_iter


class _Point:
    """A state of the derived sweep.  z is flat, of length 3 n1 n2 + 1, and
    holds U = Q - X - LQ, the sweep's soft-threshold argument, V = X + LZ,
    its clamp argument (LQ and LZ from before the sweep), X, and lw sqrt(n1 n2)
    last, so that ||z|| is the Frobenius norm of (U, V, X, LW).  Unweighted,
    LW's steady drift on a plateau of the sweep hardly counted in
    ||F(z) - z||, and mixing stalled there: an n=250, k=10 solve that plain
    ADMM converges in 1339 sweeps cycled at the primal residual 0.2 until
    the cap.

    Beside z it holds what the next sweep reads: cu = -LQ, cv = Z and ws,
    the shift that brings the sum of X to its target (W = X + ws).  After a
    sweep they are clip(U, -gamma/tau, gamma/tau), clamp(V) and the shift
    of X, so Y = S(U) = U - cu and LZ = V - cv."""

    __slots__ = ("z", "U", "V", "X", "cu", "cv", "ws")

    def __init__(self, shape: tuple[int, int]):
        self.z = np.zeros(3 * math.prod(shape) + 1)
        self.U, self.V, self.X = self.z[:-1].reshape(3, *shape)
        self.cu, self.cv = np.zeros(shape), np.zeros(shape)
        self.ws = 0.0


class _DerivedSweep:
    """The derived ADMM sweep, in place on a _Point: the map z <- F(z).

    With W = X + ws and LW = lw held as scalars (the projection onto the sum
    constraint only shifts, so LW starts and stays constant), the sweep
    never forms W: W - LW enters the X-step as a shift, the new ws is
    (sum_target - sum(X)) / (n1 n2), and the sum constraint's residuals are
    |ws| sqrt(n1 n2) (primal) and ||X - X_prev + ws - ws_prev|| (dual).  The
    other iterates come from the point as Y + LQ = U - 2 cu and
    Z - LZ = 2 cv - V.  X + Y - Q is the new LQ minus the old, so
    ||cu - cu_new|| is the third primal residual and, times tau, the third
    dual one.
    """

    def __init__(self, nonedge, sum_target, gamma, tau, shrink):
        self.shape = nonedge.shape
        self.size = nonedge.size
        self.root_size = math.sqrt(nonedge.size)
        # Q's support, as a factor: a multiply costs a tenth of a masked copy
        self.keep = 1.0 - nonedge
        self.sum_target = sum_target
        self.shrink = shrink
        self.tau = tau
        self.phi_x = 1.0 / (3.0 * tau)
        self.phi_y = gamma / tau
        # Q, two temporaries and the next cu and cv, reused by every sweep
        self.Q, self.C, self.T, self.cu, self.cv = (np.empty(self.shape) for _ in range(5))
        # the shrink's leading vector, carried from sweep to sweep
        self.lead = np.zeros(min(self.shape))

    def start(self) -> _Point:
        """The start point: X = Z = sum_target / (n1 n2), Y = -X and every
        multiplier zero, so U = -X, V = X, cu = 0 and cv = X."""
        p = _Point(self.shape)
        p.X.fill(self.sum_target / self.size)
        np.negative(p.X, out=p.U)
        p.V[:] = p.cv[:] = p.X
        return p

    def load(self, p: _Point) -> None:
        """Set cu, cv and ws of p from its z."""
        np.clip(p.U, -self.phi_y, self.phi_y, out=p.cu)
        clamp_box(p.V, out=p.cv)
        p.ws = self._shift(p.X)

    def __call__(self, p: _Point) -> tuple[float, float, int] | None:
        """One sweep of p in place: (rp, rd, kept SVT rank), or None, with p
        unchanged, when the X-step input is not finite."""
        norm = np.linalg.norm
        Q, C, T = self.Q, self.C, self.T
        U, V, X_prev, cu, cv = p.U, p.V, p.X, p.cu, p.cv
        # Q = X + Y + LQ on its support, Y + LQ = U - 2 cu in T
        np.subtract(U, cu, out=T)
        T -= cu
        np.add(X_prev, T, out=Q)
        Q *= self.keep
        # C = ((Q - Y - LQ) + (W - LW) + (Z - LZ)) / 3, W - LW = X + ws - lw
        np.subtract(Q, T, out=C)
        C += X_prev
        C -= V
        C += cv
        C += cv
        C += p.ws - p.z[-1] / self.root_size
        C *= 1.0 / 3.0  # a divide pass costs about four multiply passes
        if not np.isfinite(C).all():
            return None
        X, rank = self.shrink(C, self.phi_x, self.lead)
        # the new U = Q - X - LQ and V = X + LZ, and their clip and clamp
        cu_next, cv_next = self.cu, self.cv
        np.subtract(Q, X, out=U)
        U += cu
        np.clip(U, -self.phi_y, self.phi_y, out=cu_next)
        V += X
        V -= cv
        clamp_box(V, out=cv_next)
        ws = self._shift(X)
        # each primal residual is also its scaled dual's step: X - W = -ws,
        # and X + Y - Q = cu - cu_next, whose norm times tau is also the third
        # dual residual
        r_z = float(norm(np.subtract(X, cv_next, out=T)))
        r_q = float(norm(np.subtract(cu, cu_next, out=T)))
        rp = max(abs(ws) * self.root_size, r_z, r_q)
        np.subtract(X, X_prev, out=T)
        T += ws - p.ws
        d_w = float(norm(T))
        d_z = float(norm(np.subtract(cv_next, cv, out=T)))
        rd = max(d_w, d_z, self.tau * r_q)  # the unscaled multiplier change
        np.copyto(X_prev, X)
        p.z[-1] -= ws * self.root_size
        p.ws = ws
        p.cu, self.cu = cu_next, cu
        p.cv, self.cv = cv_next, cv
        return rp, rd, rank

    def _shift(self, X: np.ndarray) -> float:
        """ws for X: the constant that brings its sum to sum_target."""
        return (self.sum_target - float(X.sum())) / self.size


def _mixing_coefficients(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The weights c minimizing ||g - dG c||^2 + reg ||c||^2, from
    gram = dG'dG and rhs = dG'g, or None when dG is zero."""
    scale = float(np.trace(gram))
    if not 0.0 < scale < math.inf:
        return None
    system = gram.copy()
    system.flat[:: rhs.size + 1] += _ANDERSON_REG * scale
    # a Cholesky solve; the float32 Gram matrix may fail to be definite
    _, c, info = lapack.dposv(system, rhs)
    return c if info == 0 else None


class _AndersonMemory:
    """The last m secant pairs (dG, dF) of type-II Anderson mixing, in
    float32, with the Gram matrix dG'dG and the products dG'g with the
    current residual g."""

    def __init__(self, length: int, m: int):
        self.dG = np.empty((m, length), dtype=np.float32)
        self.dF = np.empty((m, length), dtype=np.float32)
        self.g = np.empty(length, dtype=np.float32)
        self.gram = np.zeros((m, m))
        self.rhs = np.zeros(m)
        self.count = self.slot = 0

    def clear(self) -> None:
        self.count = self.slot = 0

    def push(self, g, g_prev, f=None, f_prev=None) -> None:
        """Add the secant pair of the step from the point with residual
        g_prev and map value f_prev to the point with g and f.  A plain step
        goes from z to F(z), so its map value moves by F(z) - z = -g, and f
        and f_prev are left out.

        One pass over the history per call: the new column of the Gram
        matrix is dG'dg for the new pair dg, and since g = g_prev + dg, the
        products with the residual follow as dG'g = dG'g_prev + dG'dg.  (At
        n=250 and m=7, one matrix product of dG with both dg and g took
        0.75 ms in OpenBLAS, one matrix-vector product 0.11 ms.)"""
        j = self.slot
        dg = self.dG[j]
        np.subtract(g, g_prev, out=dg)
        if f is None:
            np.negative(g, out=self.dF[j])
        else:
            np.subtract(f, f_prev, out=self.dF[j])
        self.slot = (j + 1) % len(self.dG)
        self.count = n = min(self.count + 1, len(self.dG))
        column = self.dG[:n] @ dg
        self.gram[j, :n] = self.gram[:n, j] = column
        self.rhs[:n] += column
        np.copyto(self.g, g, casting="same_kind")
        self.rhs[j] = dg @ self.g

    def mix(self, f: np.ndarray, out: np.ndarray) -> bool:
        """Write the mixed point f - dF c into out, with c from
        _mixing_coefficients; False, with out untouched, when there is
        none."""
        n = self.count
        c = _mixing_coefficients(self.gram[:n, :n], self.rhs[:n])
        if c is None:
            return False
        np.subtract(f, c.astype(np.float32) @ self.dF[:n], out=out)
        return True


def _derived_loop(sweep: _DerivedSweep, sweeps: _Sweeps) -> _Point:
    """Run the derived sweep from its start point; returns the current point.

    From sweep _ANDERSON_START on, the iteration z <- F(z) is accelerated by
    type-II Anderson mixing (Walker & Ni 2011) under the safeguard of Zhang,
    O'Donoghue & Boyd (2020).  The current point p holds F(z) for the last
    point z taken, whose residual is g = z - F(z).  Each candidate z~ is
    checked with one exact sweep, and accepted only if
    ||F(z~) - z~|| <= ||g||.  Otherwise, or when z~ gives a non-finite
    X-step input, the memory is cleared and the plain step from p is taken.
    Every sweep, a rejected candidate's included, is recorded and counts
    toward max_iter; the stop rule reads the sweeps at the current point
    only.
    """
    p = sweep.start()
    memory = None
    while not sweeps.done:
        if memory is not None and memory.count:
            if memory.mix(p.z, b.z):
                sweep.load(b)
                np.copyto(g_next, b.z)
                row = sweep(b)
                # a candidate whose X-step input is not finite ran no SVT and
                # gets no row, but is rejected like any other
                if row is not None:
                    g_next -= b.z
                    next_norm = math.sqrt(g_next @ g_next)
                    if next_norm <= g_norm:
                        sweeps.add(*row, ACCEPTED)
                        memory.push(g_next, g, b.z, p.z)
                        p, b = b, p
                        g, g_next, g_norm = g_next, g, next_norm
                        continue
                    sweeps.add(*row, REJECTED)
            memory.clear()
            if sweeps.done:
                break
        if memory is None and len(sweeps.rows) >= _ANDERSON_START:
            memory = _AndersonMemory(p.z.size, _ANDERSON_MEMORY)
            b = _Point(sweep.shape)
            # the residual at p and that of the next step; the point of
            # sweep _ANDERSON_START comes first, and its residual is not known
            g, g_next = np.empty(p.z.size), np.empty(p.z.size)
            g_norm = None
        if memory is not None:
            np.copyto(g_next, p.z)
        row = sweep(p)
        if row is None:
            break
        sweeps.add(*row)
        if memory is not None:
            g_next -= p.z
            if g_norm is not None:
                memory.push(g_next, g)
            g, g_next, g_norm = g_next, g, math.sqrt(g_next @ g_next)
    return p


def _admm(
    nonedge: np.ndarray,
    sum_target: float,
    gamma: float,
    cfg: SolverConfig,
    symmetric: bool,
) -> SolverResult:
    shrink = _svt_symmetric if symmetric else _svt_gram
    sweeps = _Sweeps(cfg)
    # one BLAS thread: a threaded solve measured ~3x slower at n=250 and a
    # threaded eigh+GEMM within 5% at n=1000 (see README); jobs is the axis
    # for parallelism
    with _one_blas_thread() as blas_threads:
        # divergent runs (possible in paper mode) trip the finite guard below;
        # silence the overflow that precedes it
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.mode == "paper":
                X, Y = _paper_loop(nonedge, sum_target, gamma, cfg.tau, shrink, sweeps)
            else:
                p = _derived_loop(_DerivedSweep(nonedge, sum_target, gamma, cfg.tau, shrink), sweeps)
                X, Y = p.X.copy(), p.U - p.cu

        if np.isfinite(X).all():
            objective = _nuclear_norm(X, symmetric) + gamma * float(np.abs(Y).sum())
        else:
            objective = math.nan
    return SolverResult(
        X=X,
        Y=Y,
        iterations=len(sweeps.rows),
        converged=sweeps.converged,
        primal_residual=float(sweeps.rp),
        dual_residual=float(sweeps.rd),
        objective=objective,
        residual_history=np.array(sweeps.rows) if sweeps.rows else np.zeros((0, 2)),
        svt_rank=np.array(sweeps.ranks, dtype=int),
        blas_threads=blas_threads,
        sweep_kind=np.array(sweeps.kinds, dtype=np.int8),
        hit_cap=not sweeps.converged and len(sweeps.rows) == cfg.max_iter,
    )


def _paper_loop(nonedge, sum_target, gamma, tau, shrink, sweeps: _Sweeps):
    """The verbatim `paper` sweeps; returns the final X and Y.  The loop
    stops after the first sweep whose residuals are not finite (the
    sum-constraint dual grows without bound, and at n=250 its norms overflow
    near sweep 250), or at a non-finite X-step input."""
    norm = np.linalg.norm
    keep = ~nonedge  # support of Q: edges (plus the diagonal in the square case)
    X = np.full(nonedge.shape, sum_target / nonedge.size)
    W = X.copy()
    Y = -X
    Z = X.copy()
    LQ = np.zeros(nonedge.shape)
    LW = np.zeros(nonedge.shape)
    LZ = np.zeros(nonedge.shape)
    while not sweeps.done:
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
        sweeps.add(rp, rd, rank)
        if not (math.isfinite(rp) and math.isfinite(rd)):
            break
    return X, Y


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
