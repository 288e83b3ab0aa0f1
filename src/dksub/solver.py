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
  scalars (see _DerivedSweep).  Every 10th of the first 99 sweeps
  rebalances tau against the residuals (see _DerivedSweep.balance), so
  cfg.tau is the starting penalty.  A solve still unconverged after 100
  sweeps continues under safeguarded Anderson acceleration (see
  _derived_loop).
  A checkpoint between sweeps reads the sweep's own dual, and the solve
  stops as soon as that dual proves the 0/1 matrix of the iterate's
  heaviest rows and columns optimal, and returns that matrix (see
  _RecoveryProof).
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


def _require_real(value, name: str) -> None:
    """ValueError unless value is a real number (an int, a float or a numpy
    scalar of either), and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


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
        # gamma=None is resolved per problem
        for name in ("tau", "tol") if self.gamma is None else ("gamma", "tau", "tol"):
            value = getattr(self, name)
            _require_real(value, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        _require_int(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.mode not in ("paper", "derived"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(eq=False)
class SolverResult:
    """What a solve returns.  X and Y are the final iterates, except after a
    proof (stop "proof"): then X is the proven optimum 1_T1 1_T2', exactly 0
    and 1, and Y is -X on the nonedges and 0 elsewhere.  The residual fields
    are always those of the last sweep."""

    X: np.ndarray
    Y: np.ndarray
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
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
    # stopped by max_iter rather than by tol, a proof or paper mode's finite
    # guard
    hit_cap: bool
    # what ended the solve: "tol", "cap", "diverged" (paper mode's finite
    # guard), "proof" (the dual proved X optimal, see solve_dks) or
    # "refuted" (a phase-grid trial's proof that no optimum lies near the
    # planted matrix)
    stop: str
    # the proven bound on every optimum's relative distance to X when the
    # stop is "proof", NaN otherwise
    proven_distance: float
    # the penalty in effect at the last sweep: cfg.tau, unless residual
    # balancing moved it (derived mode only, see _derived_loop)
    tau: float
    # the l1 weight and the shape, which the objective reads
    _gamma: float = field(repr=False)
    _symmetric: bool = field(repr=False)

    @functools.cached_property
    def objective(self) -> float:
        """||X||_* + gamma ||Y||_1, NaN when X is not finite.  Computed on
        first read, on one BLAS thread: the nuclear norm costs an eigensolve
        or an SVD that most callers never need."""
        if not np.isfinite(self.X).all():
            return math.nan
        with _one_blas_thread():
            return _nuclear_norm(self.X, self._symmetric) + self._gamma * float(np.abs(self.Y).sum())

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


def soft_threshold(x: np.ndarray, phi: float) -> np.ndarray:
    """Entrywise shrink toward zero by phi, as x - clip(x, -phi, phi)."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, -phi, phi)
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
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """svt() specialized to symmetric input, the number of eigenvalues it
    kept, and the next warm vector: the eigenpairs outside [-phi, phi], each
    eigenvalue shrunk toward zero by phi.  Only the lower triangle is read.
    lead is the warm vector of _eigenpairs_outside, which finds the pairs;
    the next one is the kept eigenvector when exactly one pair is kept, and
    None otherwise."""
    if phi < 0:
        raise ValueError("threshold must be nonnegative")
    w, Z = _eigenpairs_outside(np.asarray(M, dtype=float), phi, lead)
    # np.dot: bitwise equal to @, and for one column at n=250 several times faster
    return np.dot(Z * (w - np.copysign(phi, w)), Z.T), w.size, Z[:, 0] if w.size == 1 else None


def _svt_gram(
    M: np.ndarray, phi: float, lead: np.ndarray | None = None
) -> tuple[np.ndarray, int, np.ndarray | None]:
    """svt() through the Gram matrix, the number of singular values it kept,
    and the next warm vector, as _svt_symmetric returns them.

    With G = M'M over the smaller side of M, the singular values of M above
    phi are the square roots of the eigenvalues w of G above phi^2, and with
    their eigenvectors V, svt(M, phi) = ((M V) diag(1 - phi/sqrt(w))) V'.
    _eigenpairs_outside finds them, with lead as its warm vector (of the
    smaller side's length), and the next one is the kept right singular
    vector when exactly one is kept; G is positive semidefinite, so its
    lower tail, below -phi^2, is empty.  G could overflow or underflow when
    the largest entry of M is nonzero and outside [sqrt(min), sqrt(max/m)],
    for syevd's safe range [min, max]; such M takes the exact svt()
    instead, and gesdd rescales it itself.

    Accuracy rule: rounding G perturbs it by about eps ||M||^2, which the
    shrink factor's slope near phi^2 turns into an error of about
    eps ||M||^2 / phi in X, against gesdd's eps ||M||.  The Gram route is
    therefore taken only while phi^2 > sqrt(eps) ||M||_F^2, which bounds
    that error by about eps^(3/4) ||M|| (3.4e-13 ||M|| at most in a random
    search at the line).  The line lies far above G's eigenvalue error
    (m + n) eps ||M||_F^2, below which G cannot even tell which singular
    values pass phi; a line at that error alone let the error reach
    1.1e-9 ||M||.  At or below the line, phi = 0 included, the SVT is the
    exact svt() (gesdd on M), which returns no warm vector.  The ADMM's
    phi = 1/(3 tau) is far above it.

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
        X, kept, lead = _svt_gram(M.T, phi, lead)
        return X.T, kept, lead
    top = _finite_top(M)
    # entries in [sqrt(min), sqrt(max/m)] put G's entries in syevd's safe range
    if top == 0.0 or math.sqrt(_SCALE_MIN) <= top <= math.sqrt(_SCALE_MAX / M.shape[0]):
        G = M.T @ M
        cut = phi * phi
        if cut > _SQRT_EPS * float(np.trace(G)):  # trace(G) = ||M||_F^2
            w, V = _eigenpairs_outside(G, cut, lead, both_tails=False)
            X = np.dot((M @ V) * (1.0 - phi / np.sqrt(w)), V.T)
            return X, w.size, V[:, 0] if w.size == 1 else None
    return (*_svt(M, phi), None)


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
    Otherwise a given lead, a unit vector of length n (the eigenvector of
    the previous call on a slowly changing M), is first tried as the start
    of a rank-one step (_lone_pair), and the reduction pipeline
    (_reduced_pairs) runs when that step is not proved.  lead is only read.
    """
    n = M.shape[0]
    top = _finite_top(M)
    pairs = None
    if n < _SMALL_ORDER or not (top == 0.0 or _SCALE_MIN <= top <= _SCALE_MAX):
        *pairs, info = lapack.dsyevd(M, lower=1)
        _lapack_ok(info, "dsyevd", n)
    elif lead is not None:
        pairs = _lone_pair(M, phi, lead, both_tails)
    w, Z = pairs if pairs is not None else _reduced_pairs(M, phi)
    outside = np.abs(w) > phi
    return w[outside], Z[:, outside]


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


def _singular_values(X: np.ndarray, symmetric: bool) -> np.ndarray:
    """The singular values of X, unordered; symmetric X has only its lower
    triangle read, and X must be finite."""
    if symmetric:
        return np.abs(scipy.linalg.eigvalsh(X, check_finite=False))
    return np.linalg.svd(X, compute_uv=False)


def _nuclear_norm(X: np.ndarray, symmetric: bool) -> float:
    return float(_singular_values(X, symmetric).sum())


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
# residual balancing of tau: every _BALANCE_EVERY sweeps before
# _ANDERSON_START, by a factor of two when one residual exceeds
# _BALANCE_MU times the other (see _DerivedSweep.balance).  Criterion 3's
# 100 n=14 solves fell from 33,853 sweeps at fixed tau to 21,426.  mu = 1.2
# and 2 gave 20,839 and 20,446; checks every 5 sweeps gave 18,803 but took
# the benchmark's phase-pool trials from 330-381 to 352-410 sweeps
_BALANCE_EVERY = 10
_BALANCE_MU = 1.5


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
        # set when a checkpoint of the derived loop decided the solve
        self.proved = False

    def add(self, rp: float, rd: float, rank: int, kind: int = PLAIN) -> None:
        self.rows.append((rp, rd))
        self.ranks.append(rank)
        self.kinds.append(kind)
        if kind != REJECTED:
            self.rp, self.rd = rp, rd
            self.converged = max(rp, rd) < self.tol

    @property
    def done(self) -> bool:
        return self.converged or self.proved or len(self.rows) >= self.max_iter


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
        self.gamma = gamma
        self._set_tau(tau)
        # Q, two temporaries and the next cu and cv, reused by every sweep
        self.Q, self.C, self.T, self.cu, self.cv = (np.empty(self.shape) for _ in range(5))
        # the shrink's warm vector, rebound to what each shrink returns
        self.lead = None

    def start(self) -> _Point:
        """The start point: X = Z = sum_target / (n1 n2), Y = -X and every
        multiplier zero, so U = -X, V = X, cu = 0 and cv = X."""
        p = _Point(self.shape)
        p.X.fill(self.sum_target / self.size)
        np.negative(p.X, out=p.U)
        p.V[:] = p.cv[:] = p.X
        return p

    def _set_tau(self, tau: float) -> None:
        self.tau = tau
        self.phi_x = 1.0 / (3.0 * tau)
        self.phi_y = self.gamma / tau

    def load(self, p: _Point) -> None:
        """Set cu, cv and ws of p from its z."""
        np.clip(p.U, -self.phi_y, self.phi_y, out=p.cu)
        clamp_box(p.V, out=p.cv)
        p.ws = self._shift(p.X)

    def balance(self, p: _Point, rp: float, rd: float) -> None:
        """Residual balancing (Boyd et al. 2011, section 3.4.1): double tau
        when rp > _BALANCE_MU rd, halve it when rd > _BALANCE_MU rp, and
        rescale p's scaled multipliers by rho = tau_old / tau_new, so that
        X, Y, Z and the unscaled multipliers stay where they were.

        Y = U - cu and LQ = -cu give U <- (U - cu) + rho cu; LZ = V - cv
        gives V <- cv + rho (V - cv); and lw <- rho lw.  rho is a power of
        two, so every product is exact, and load then resets cu, cv and ws
        at the new thresholds: cu comes back as rho cu and cv as cv.  Only
        Y, where it is nonzero, and LZ, where Z sits at 1, can move, by a
        rounding of the sum that holds them."""
        if rp > _BALANCE_MU * rd:
            tau = 2.0 * self.tau
        elif rd > _BALANCE_MU * rp:
            tau = 0.5 * self.tau
        else:
            return
        rho = self.tau / tau
        p.U -= p.cu
        p.U += np.multiply(p.cu, rho, out=self.T)
        p.V -= p.cv
        p.V *= rho
        p.V += p.cv
        p.z[-1] *= rho
        self._set_tau(tau)
        self.load(p)

    def __call__(self, p: _Point) -> tuple[float, float, int]:
        """One sweep of p in place: (rp, rd, kept SVT rank).  NumericalError
        when the SVT fails, non-finite input included; it raises before p is
        written, so p is unchanged."""
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
        X, rank, self.lead = self.shrink(C, self.phi_x, self.lead)
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


def _derived_loop(sweep: _DerivedSweep, sweeps: _Sweeps, checkpoint=None) -> _Point:
    """Run the derived sweep from its start point; returns the current point.

    From sweep _ANDERSON_START on, the iteration z <- F(z) is accelerated by
    type-II Anderson mixing (Walker & Ni 2011) under the safeguard of Zhang,
    O'Donoghue & Boyd (2020).  The current point p holds F(z) for the last
    point z taken, whose residual is g = z - F(z).  Each candidate z~ is
    checked with one exact sweep, and accepted only if
    ||F(z~) - z~|| <= ||g||.  Otherwise, or when the SVT of that sweep fails,
    the memory is cleared and the plain step from p is taken.  Every sweep
    that ran, a rejected candidate's included, is recorded and counts toward
    max_iter; the stop rule reads the sweeps at the current point only.  A
    failing plain step raises NumericalError.

    Before that, every _BALANCE_EVERY-th sweep that did not end the solve
    rebalances tau from its own residuals (see _DerivedSweep.balance).

    checkpoint(sweep, p, count), when given, runs after every sweep that
    moved the current point (plain or accepted) and did not end the solve,
    while the sweep's buffers still belong to p and before any rebalancing,
    so that it reads them at the tau that sweep used; it only reads them,
    and the solve stops when it returns True.
    """

    def moved() -> None:
        if checkpoint is not None and not sweeps.done:
            sweeps.proved = checkpoint(sweep, p, len(sweeps.rows))

    p = sweep.start()
    memory = None
    while not sweeps.done:
        if memory is not None and memory.count:
            if memory.mix(p.z, b.z):
                sweep.load(b)
                np.copyto(g_next, b.z)
                try:
                    row = sweep(b)
                except NumericalError:
                    # the SVT failed before writing anything: no row, but
                    # rejected like any other candidate
                    pass
                else:
                    g_next -= b.z
                    next_norm = math.sqrt(g_next @ g_next)
                    if next_norm <= g_norm:
                        sweeps.add(*row, ACCEPTED)
                        memory.push(g_next, g, b.z, p.z)
                        p, b = b, p
                        g, g_next, g_norm = g_next, g, next_norm
                        moved()
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
        sweeps.add(*sweep(p))
        if memory is not None:
            g_next -= p.z
            if g_norm is not None:
                memory.push(g_next, g)
            g, g_next, g_norm = g_next, g, math.sqrt(g_next @ g_next)
        moved()
        count = len(sweeps.rows)
        if count < _ANDERSON_START and count % _BALANCE_EVERY == 0 and not sweeps.done:
            sweep.balance(p, sweeps.rp, sweeps.rd)
    return p


# the recovery proof's checkpoints: every sweep that moves the point up to
# sweep _PROOF_START, every _PROOF_EVERY sweeps up to _PROOF_SPARSE, then
# every tenth of the sweep count (see _next_check).  The non-recovery
# proof, which costs an eigensolve and a sort, is tried from sweep
# _REFUTE_START every _REFUTE_EVERY sweeps.
_PROOF_START, _PROOF_EVERY, _PROOF_SPARSE = 30, 5, 100
_REFUTE_START, _REFUTE_EVERY = 200, 100


def _next_check(due: int, sparse: float) -> int:
    """The recovery checkpoint due after the one due at sweep due, with the
    sparse part of the schedule from sweep sparse on."""
    if due < _PROOF_START:
        return due + 1
    if due < sparse:
        return due + _PROOF_EVERY
    return due + -(-due // 10)


def _top(sums: np.ndarray, size: int) -> np.ndarray:
    """The indices of the size largest sums, ties to the lower index, sorted."""
    return np.sort(np.argsort(-sums, kind="stable")[:size])


class _RecoveryProof:
    """The checkpoint of a derived solve: it proves from the sweep's own
    dual that every optimum of the relaxation lies within tol of
    X_T = 1_T1 1_T2' for a candidate T (stop "proof_recovered", with the
    bound in distance).  Here the candidate is taken from the iterate at
    each checkpoint: the rows (and columns) with the largest sums of X.
    The proof is sound for any candidate, so that choice decides only when
    it fires.  See README, "Stopping a solve by proof".

    f(X) = ||X||_* + gamma sum_nonedge |X|.  Any W with ||W||_2 <= 1 and
    any L with |L| <= gamma on the nonedges and 0 elsewhere give
    f(X) >= <W + L, X> for every X.  The sweep holds W = (C - X)/phi_x, from
    its X-step's input C and output X, with ||W||_2 <= 1 up to rounding.
    The proof projects it onto the conditions of the certificate at X_T:
    W' = u v' + P_u W P_v, with u and v the unit indicators of T's rows and
    columns and P_u = I - u u'; and it takes L = gamma on every nonedge, the
    tight value on the block and the largest allowed outside.  Then
    ||W'||_2 = max(1, ||P_u W P_v||_2) <= max(1, ||W||_2) and
    <W' + L, X_T> = f(X_T), so the proof holds as soon as every entry of
    M = W' + L on the block lies below every entry outside it.

    What belongs to the solve (the nonedge mask, L and the buffers of the
    candidate's vectors) is built once; what belongs to the candidate (its
    block, u, v, the dgemm factors and f(X_T)) only when the candidate
    changes.
    """

    # where _next_check's schedule turns sparse: at n=14 a checkpoint costs
    # about half a sweep, and a solve still running at sweep 100 seldom
    # stops by proof (see README)
    sparse = _PROOF_SPARSE

    def __init__(self, nonedge, sizes, gamma, sum_target, tol, symmetric):
        self.sizes = sizes
        self.nonedge = nonedge.astype(float)
        # the l1 multipliers, and phi_x L for _hopeless and _screen (see
        # _lift)
        self.L = gamma * self.nonedge
        self.lift = self.lift_phi = None
        self.gamma = gamma
        self.symmetric = symmetric
        self.m = sum_target
        self.root_m = math.sqrt(sum_target)
        self.tol = tol
        n1, n2 = nonedge.shape
        self.u, self.v = np.zeros(n1), np.zeros(n2)
        # the factors of _project's rank-two update, in Fortran order
        self.left = np.zeros((n2, 2), order="F")
        self.right = np.zeros((n1, 2), order="F")
        # the candidate's rows and columns, and both as bytes for _choose
        self.rows = self.cols = self.key = None
        self.due = 1
        self.stop: str | None = None
        self.distance = math.nan

    def _aim(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Take T = rows x cols as the candidate: its block as the flat
        indices cells, in row-major order (take and a flat store cost a
        third of the block's fancy indexing at n=250), u and v, the dgemm
        factors and f_star = f(X_T)."""
        self.rows, self.cols = rows, cols
        self.key = rows.tobytes() + cols.tobytes()
        self.cells = (rows[:, None] * self.v.size + cols).ravel()
        for unit, members in ((self.u, rows), (self.v, cols)):
            unit.fill(0.0)
            unit[members] = 1.0 / math.sqrt(members.size)
        self.left[:, 1], self.right[:, 0] = self.v, self.u
        # ||X_T||_* = sqrt(m), and X_T is 1 on the block's nonedges
        self.f_star = self.root_m + self.gamma * float(self.nonedge.take(self.cells).sum())

    @property
    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """T's block as an index of a matrix."""
        return np.ix_(self.rows, self.cols)

    def _choose(self, X: np.ndarray) -> None:
        """Aim at the rows, and the columns, of X with the largest sums."""
        k1, k2 = self.sizes
        rows = _top(X.sum(axis=1), k1)
        cols = rows if self.symmetric else _top(X.sum(axis=0), k2)
        if rows.tobytes() + cols.tobytes() != self.key:
            self._aim(rows, cols)

    def optimum(self) -> tuple[np.ndarray, np.ndarray]:
        """The proven optimum: X_T, and Y = -X_T on the nonedges, 0
        elsewhere."""
        X, Y = np.zeros(self.nonedge.shape), np.zeros(self.nonedge.shape)
        X.ravel()[self.cells] = 1.0
        Y.ravel()[self.cells] = 0.0 - self.nonedge.take(self.cells)
        return X, Y

    def __call__(self, sweep: _DerivedSweep, p: _Point, count: int) -> bool:
        """True once a proof decides the solve at a due checkpoint."""
        if count < self.due:
            return False
        while self.due <= count:
            self.due = _next_check(self.due, self.sparse)
        self._choose(p.X)
        return self._recovers(sweep, p)

    def _recovers(self, sweep: _DerivedSweep, p: _Point) -> bool:
        """The recovery test: True, with stop and distance set, when it
        proves every optimum within tol of X_T."""
        self._lift(sweep)
        if self._hopeless(sweep, p) or not self._screen(sweep, p) < self.tol:
            return False
        # the proof is about to fire: build the exact dual and bound ||W'||_2
        M, W = self._dual(sweep, p)
        distance = self._distance(*self._extremes(M), self._norm_bound(W))
        if distance < self.tol:
            self.stop, self.distance = "proof_recovered", distance
            return True
        return False

    def _lift(self, sweep: _DerivedSweep) -> None:
        """Build lift = phi_x L at the sweep's phi_x: at the first call, and
        again after residual balancing moved tau.  A stale one would not be
        unsound (_dual and _norm_bound check what the screen passes), but it
        would delay proofs."""
        if self.lift_phi != sweep.phi_x:
            self.lift_phi = sweep.phi_x
            self.lift = sweep.phi_x * self.L

    def _hopeless(self, sweep: _DerivedSweep, p: _Point) -> bool:
        """True when the screen cannot pass, read off the part of its matrix
        G / phi_x + L that the projection leaves alone: the entries in no
        row and no column of T, where it is (C - X) / phi_x + L.

        Those entries lie outside the block, and the screen passes only when
        every entry outside the block lies at least 2 rho above the block's
        largest, which is at least the block's mean.  A passing distance
        below tol leaves a gap below tol^2 m rho, and _distance charges the
        block sum's rounding against it, so that mean is above
        f(X_T) / m - tol^2 rho.  For tol < 1 an entry there at or below
        f(X_T) / m therefore leaves the screen nothing to prove; a larger
        tol can only see a proof delayed, never an unsound one.  This costs
        five passes, against the screen's nine, and on criterion 3's n=14
        solves it ends 84% of the checkpoints (none whose proof fired)."""
        E = np.subtract(sweep.C, p.X, out=sweep.Q)
        E += self.lift
        E[self.rows] = math.inf
        E[:, self.cols] = math.inf
        return not float(E.min()) * (1.0 / sweep.phi_x) > self.f_star / self.m

    def _project(self, sweep: _DerivedSweep, p: _Point) -> np.ndarray:
        """G in the sweep's Q, which is free until the next sweep rewrites
        it: W' is G / phi_x off the square case and (G + G') / (2 phi_x) in
        it.

        With E = C - X, so that phi_x W = E (E's symmetric part in the
        square case), a = E v and b = E'u (both their mean in the square
        case), G = E - u b' - (a - (u'a + phi_x) u) v'.  The rank-two update
        is one BLAS call on G' (G in Fortran order), in place, with the
        factors [b, v] and [u, a - (u'a + phi_x) u] in left and right."""
        G, u, v = np.subtract(sweep.C, p.X, out=sweep.Q), self.u, self.v
        b, a = self.left[:, 0], self.right[:, 1]
        np.dot(u, G, out=b)
        np.dot(G, v, out=a)
        if self.symmetric:
            a += b
            a *= 0.5
            b[:] = a
        a -= (float(u @ a) + sweep.phi_x) * u
        blas.dgemm(-1.0, self.left, self.right, beta=1.0, c=G.T, overwrite_c=True, trans_b=True)
        return G

    def _screen(self, sweep: _DerivedSweep, p: _Point) -> float:
        """The distance _distance gives with ||W'||_2 taken as 1, read off
        G / phi_x + L instead of M, which saves the transposed add.  In the
        square case M's block is the mean of that matrix's and its
        transpose's, as is the rest, so that matrix's largest block entry
        is no smaller than M's, its smallest other entry no larger, and its
        block sum the same: up to rounding, the screen passes only where
        the exact test would."""
        G = self._project(sweep, p)
        G += self.lift
        scale = 1.0 / sweep.phi_x
        return self._distance(*(x * scale for x in self._extremes(G)), 1.0)

    def _dual(self, sweep: _DerivedSweep, p: _Point) -> tuple[np.ndarray, np.ndarray]:
        """M = W' + L and W', in the sweep's Q and T, which are free until
        the next sweep rewrites them.  In the square case W' is exactly
        symmetric, so that its norm is an eigenvalue's."""
        G, W = self._project(sweep, p), sweep.T
        if self.symmetric:
            np.add(G, G.T, out=W)
            W *= 0.5 / sweep.phi_x
        else:
            np.multiply(G, 1.0 / sweep.phi_x, out=W)
        return np.add(W, self.L, out=G), W

    def _extremes(self, M: np.ndarray) -> tuple[float, float, float, float]:
        """The largest entry of M on the block, the smallest outside it, and
        the block's sum and absolute sum.  Writes +inf over M's block, for M
        C-contiguous (one of the sweep's buffers), so that ravel is a
        view."""
        block = M.take(self.cells)
        M.ravel()[self.cells] = math.inf
        return float(block.max()), float(M.min()), float(block.sum()), float(np.abs(block).sum())

    def _norm_bound(self, W: np.ndarray) -> float:
        """max(1, an upper bound of ||W||_2), by one eigensolve (an SVD off
        the square case): the computed value is within max(n1, n2) eps
        ||W||_F of the true one, as in certificate.verify."""
        err = max(W.shape) * _EPS * float(np.linalg.norm(W))
        return max(1.0, float(_singular_values(W, self.symmetric).max()) + err)

    def _distance(self, top, low, lb, mass, scale) -> float:
        """An upper bound of ||X_o - X_T||_F / ||X_T||_F over the optima
        X_o, from the computed M = W + L with ||W||_2 <= scale, or inf when
        the block's entries of M are not all below the others.

        The proof is for M' = W/scale + L, whose entries lie within
        eta = (scale - 1) + eps (scale + gamma) of the computed M's (the
        division and the rounded sum).  If max over T of M' is below its min
        outside T, by 2 rho > 0, then for every feasible X, as X sums to m,
        <M', X> - sum_T M' = sum (M' - c) (X - X_T) >= rho ||X - X_T||_1
        with c the midpoint.  With f(X_o) <= f(X_T) and f >= <M', .>,
        ||X_o - X_T||_F^2 <= ||X_o - X_T||_1 <= (f(X_T) - sum_T M') / rho.
        sum_T M' is bounded below by the computed sum, less m eta and the
        summation error 2 m eps sum_T |M|; the scalars' own rounding is
        covered by 8 eps (f(X_T) + |lb|) and the factor (1 + 8 eps)."""
        eta = (scale - 1.0) + _EPS * (scale + self.gamma)
        rho = 0.5 * (low - top) - eta
        if not rho > 0.0:
            return math.inf
        lb_low = lb - self.m * eta - 2.0 * self.m * _EPS * mass
        gap = self.f_star - lb_low + 8.0 * _EPS * (self.f_star + abs(lb))
        return (1.0 + 8.0 * _EPS) * math.sqrt(max(gap, 0.0) / rho) / self.root_m


class _PlantedProof(_RecoveryProof):
    """The checkpoint of a phase-grid trial, whose planted set S is known:
    _RecoveryProof with S as its fixed candidate, so that X_T is
    X* = 1_S 1_S', and the non-recovery proof beside it, which shows that
    no optimum lies within recovery_tol of X* (stop "proof_not_recovered").
    See README, "Stopping a trial by proof"."""

    # every _PROOF_EVERY sweeps from _PROOF_START on: at the figure column's
    # n=250 a checkpoint costs a twentieth of a sweep, and the sparse
    # schedule stopped 2 of its k=25 trials by tol, 34 sweeps later
    sparse = math.inf

    def __init__(self, nonedge, planted, gamma, sum_target, recovery_tol, symmetric):
        rows, cols = (np.array(s.members, dtype=np.intp) for s in planted)
        super().__init__(nonedge, (rows.size, cols.size), gamma, sum_target, recovery_tol, symmetric)
        self._aim(rows, cols)
        # f(X) >= f(X*) - L ||X - X*||_F for feasible X; the l1 part moves by
        # <1_N - (N/size) 1, X - X*>, as X - X* sums to 0
        count, size = float(np.count_nonzero(nonedge)), nonedge.size
        lipschitz = math.sqrt(min(nonedge.shape)) + gamma * math.sqrt(count * (1.0 - count / size))
        # the drop of f within relative distance recovery_tol of X*
        self.drop = lipschitz * recovery_tol * self.root_m
        self.refute_due = _REFUTE_START

    def _choose(self, X: np.ndarray) -> None:
        """The candidate stays the planted set."""

    def __call__(self, sweep: _DerivedSweep, p: _Point, count: int) -> bool:
        """True once the recovery proof, or the non-recovery proof on its
        own schedule, decides the solve."""
        if super().__call__(sweep, p, count):
            return True
        if count < self.refute_due:
            return False
        while self.refute_due <= count:
            self.refute_due += _REFUTE_EVERY
        if self._refutes(p.X, self._dual(sweep, p)[0]):
            self.stop = "proof_not_recovered"
            return True
        return False

    def _refutes(self, X: np.ndarray, M: np.ndarray) -> bool:
        """True when f(P) < f(X*) - drop, for P the projection of X onto the
        feasible set: then opt <= f(P) is below f at every feasible point
        within relative distance recovery_tol of X*, so no optimum lies
        there.  Tried only when the sum of the m smallest entries of M, a
        lower bound of f(P), leaves room for it.

        The error terms: the computed singular values lie within
        max(n1, n2) eps ||P||_F of P's, and their sum, the nonedge sum and
        the sum of P round by at most size eps times their value.  P lies in
        the box but its sum misses m by |m - sum P|; moving that mass within
        the box changes f by at most (1 + gamma) times it, as the nuclear
        norm is at most the entrywise l1 norm."""
        low = float(np.partition(M, int(self.m) - 1, axis=None)[: int(self.m)].sum())
        if not self.f_star - low > self.drop:
            return False
        P = _box_sum_projection(0.5 * (X + X.T) if self.symmetric else X, self.m)
        values = _singular_values(P, self.symmetric)
        nuclear, l1, total = float(values.sum()), float(np.vdot(P, self.nonedge)), float(P.sum())
        f_p = nuclear + self.gamma * l1
        delta = (
            values.size * max(P.shape) * _EPS * float(np.linalg.norm(P))
            + 2.0 * P.size * _EPS * (nuclear + self.gamma * l1)
            + (1.0 + self.gamma) * (abs(self.m - total) + 2.0 * P.size * _EPS * total)
            + 8.0 * _EPS * (self.f_star + f_p + self.drop)
        )
        return f_p + delta < self.f_star - self.drop


def _box_sum_projection(X: np.ndarray, target: float) -> np.ndarray:
    """The projection clip(X - theta, 0, 1) of X onto {0 <= X <= 1,
    sum X = target}, for 0 <= target <= X.size.

    h(theta) = sum clip(X - theta, 0, 1) falls piecewise linearly, with
    breakpoints at the entries x and at x - 1.  It is evaluated at all of
    them from the sorted entries and their prefix sums, and theta is
    interpolated on the piece where h crosses target."""
    x = np.sort(X, axis=None)
    sums = np.concatenate(([0.0], np.cumsum(x)))
    # two sorted runs, which the stable sort merges
    t = np.sort(np.concatenate((x - 1.0, x)), kind="stable")
    lo = np.searchsorted(x, t, side="right")
    hi = np.searchsorted(x, t + 1.0, side="left")
    h = (x.size - hi) + (sums[hi] - sums[lo]) - t * (hi - lo)
    j = min(int(np.searchsorted(-h, -target)), h.size - 1)
    if j == 0 or h[j] == target:
        theta = t[j]
    else:
        theta = t[j - 1] + (h[j - 1] - target) / (h[j - 1] - h[j]) * (t[j] - t[j - 1])
    return np.clip(X - theta, 0.0, 1.0)


def _admm(
    nonedge: np.ndarray,
    sum_target: float,
    gamma: float,
    cfg: SolverConfig,
    symmetric: bool,
    checkpoint: _RecoveryProof | None = None,
) -> SolverResult:
    """The solve; checkpoint is _derived_loop's, and paper mode ignores it.
    Without one, a derived solve stops by tol or at the cap alone."""
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
                tau = cfg.tau
            else:
                sweep = _DerivedSweep(nonedge, sum_target, gamma, cfg.tau, shrink)
                p = _derived_loop(sweep, sweeps, checkpoint)
                X, Y, tau = p.X.copy(), p.U - p.cu, sweep.tau
    stop = "tol" if sweeps.converged else "cap" if len(sweeps.rows) == cfg.max_iter else "diverged"
    distance = math.nan
    if sweeps.proved:
        if checkpoint.stop == "proof_recovered":
            (X, Y), stop, distance = checkpoint.optimum(), "proof", checkpoint.distance
        else:
            stop = "refuted"
    return SolverResult(
        X=X,
        Y=Y,
        iterations=len(sweeps.rows),
        converged=stop in ("tol", "proof"),
        primal_residual=float(sweeps.rp),
        dual_residual=float(sweeps.rd),
        residual_history=np.array(sweeps.rows),
        svt_rank=np.array(sweeps.ranks, dtype=int),
        blas_threads=blas_threads,
        sweep_kind=np.array(sweeps.kinds, dtype=np.int8),
        hit_cap=stop == "cap",
        stop=stop,
        proven_distance=distance,
        tau=tau,
        _gamma=gamma,
        _symmetric=symmetric,
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
        Xn, rank, _ = shrink(Xt, tau)
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
    """Run ADMM on the densest k-subgraph relaxation for graph g.  A derived
    solve stops as soon as its own dual proves that every optimum lies
    within relative distance cfg.tol of 1_T 1_T', for T the k rows of the
    iterate with the largest sums, and returns that matrix (stop "proof");
    see README, "Stopping a solve by proof"."""
    return _solve_dks(g, k, cfg)[0]


def _solve_dks(
    g: Graph, k: int, cfg: SolverConfig | None = None,
    planted: NodeSubset | None = None, recovery_tol: float = 1e-3,
) -> tuple[SolverResult, _RecoveryProof]:
    """solve_dks and its checkpoint.  With a planted set given, the
    checkpoint is the _PlantedProof that stops the derived solve once it
    proves where the optima lie against recovery_tol (its stop is None when
    no proof fired)."""
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(k)
    nonedge = complement_edges(g)
    target = float(k) ** 2
    if planted is None:
        proof = _RecoveryProof(nonedge, (k, k), gamma, target, cfg.tol, True)
    else:
        proof = _PlantedProof(nonedge, (planted, planted), gamma, target, recovery_tol, True)
    return _admm(nonedge, target, gamma, cfg, symmetric=True, checkpoint=proof), proof


def solve_dkb(g: BipartiteGraph, k1: int, k2: int, cfg: SolverConfig | None = None) -> SolverResult:
    """Run ADMM on the densest (k1, k2)-subgraph relaxation for bipartite g.
    A derived solve stops by proof as solve_dks does, with T the k1 rows
    and the k2 columns of the iterate with the largest sums."""
    if not (1 <= k1 <= g.n1 and 1 <= k2 <= g.n2):
        raise ValueError(f"need 1 <= k1 <= n1 and 1 <= k2 <= n2, got {k1}, {k2}")
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma_bipartite(k1, k2)
    nonedge = bipartite_complement_edges(g)
    target = float(k1) * float(k2)
    proof = _RecoveryProof(nonedge, (k1, k2), gamma, target, cfg.tol, False)
    return _admm(nonedge, target, gamma, cfg, symmetric=False, checkpoint=proof)


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
