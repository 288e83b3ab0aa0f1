import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, lapack

from dksub import solver
from dksub.solver import (
    NumericalError,
    _svt_gram,
    _svt_symmetric,
    clamp_box,
    default_gamma,
    default_gamma_bipartite,
    project_sum,
    soft_threshold,
    svt,
)


class TestSoftThreshold:
    def test_positive_shrink(self):
        assert soft_threshold(np.array([1.2]), 0.5)[0] == pytest.approx(0.7)

    def test_small_values_zeroed(self):
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.random.default_rng(0).standard_normal(50)
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)

    @staticmethod
    def branch_definition(x, phi):
        """x - phi above phi, x + phi below -phi, 0 between, NaN for NaN."""
        between = np.where(np.isnan(x), x, 0.0)
        return np.where(x > phi, x - phi, np.where(x < -phi, x + phi, between))

    @pytest.mark.parametrize("phi", [0.0, 0.5, 2.0])
    def test_non_finite_and_signed_zero_inputs(self, phi):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 0.5, -0.5, 3.0, -3.0, 1e300, -1e-300])
        expected = self.branch_definition(x, phi)
        assert np.array_equal(soft_threshold(x, phi), expected, equal_nan=True)

    def test_input_left_unchanged(self):
        x = np.random.default_rng(9).standard_normal((8, 8)) * 3
        kept = x.copy()
        out = soft_threshold(x, 0.7)
        assert np.array_equal(out, np.sign(x) * np.maximum(np.abs(x) - 0.7, 0.0))
        assert np.array_equal(x, kept)


class TestSvt:
    def test_diagonal(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_reproduces(self):
        M = np.random.default_rng(1).standard_normal((7, 7))
        assert np.linalg.norm(svt(M, 0.0) - M) <= 1e-10 * np.linalg.norm(M)

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        out = svt(5.0 * np.outer(u, v), 1.0)
        assert np.allclose(out, 4.0 * np.outer(u, v), atol=1e-10)

    def test_kills_everything_above_sigma_max(self):
        M = np.random.default_rng(3).standard_normal((5, 5))
        phi = np.linalg.svd(M, compute_uv=False)[0]
        assert np.allclose(svt(M, phi), 0.0, atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(3), -1.0)

    def test_symmetric_path_matches_general(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = rng.standard_normal((8, 8))
            A = A + A.T
            phi = float(rng.random() * 3)
            assert np.allclose(_svt_symmetric(A, phi)[0], svt(A, phi), atol=1e-10)

    def test_prox_optimality_against_perturbations(self):
        # svt(M, phi) minimizes ||Z||_* + (1/(2 phi)) ||Z - M||_F^2.
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6))
        phi = 0.8

        def objective(Z):
            return np.linalg.svd(Z, compute_uv=False).sum() + (
                np.linalg.norm(Z - M) ** 2 / (2 * phi)
            )

        Zstar = svt(M, phi)
        base = objective(Zstar)
        for _ in range(1000):
            step = 10.0 ** rng.uniform(-4, 0)
            cand = Zstar + step * rng.standard_normal((6, 6))
            assert objective(cand) >= base - 1e-12


# below order 32 the SVT is one dsyevd call, from 32 on the reduction pipeline
SIZES = (1, 2, 3, 14, 40, 60)


def symmetric_with_spectrum(w, seed):
    """Q diag(w) Q' for a random orthogonal Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((w.size, w.size)))
    M = (Q * w) @ Q.T
    return (M + M.T) / 2


@st.composite
def spectra(draw):
    """Eigenvalues of both signs, some of them repeated."""
    n = draw(st.sampled_from(SIZES))
    levels = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    # about a third of the eigenvalues sit on a few repeated levels
    w = np.where(np.arange(n) % 3 == 0, np.array(levels)[picks], 3 * noise)
    return w, draw(st.integers(0, 2**32 - 1))


def spy(monkeypatch, name):
    """Record the calls of lapack.<name>, which still runs."""
    calls = []
    original = getattr(lapack, name)

    def recorded(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(lapack, name, recorded)
    return calls


def fail_with_info(monkeypatch, routine):
    """Make lapack.<routine> return its results with info = -3."""
    original = getattr(lapack, routine)

    def failing(*args, **kwargs):
        return (*original(*args, **kwargs)[:-1], -3)

    monkeypatch.setattr(lapack, routine, failing)


class TestSvtSymmetric:
    @settings(max_examples=200, deadline=None)
    @given(spectra(), st.floats(0.0, 1.2))
    def test_matches_general_svt(self, spectrum, frac):
        w, seed = spectrum
        M = symmetric_with_spectrum(w, seed)
        # phi from 0 to past the spectral radius
        phi = frac * float(np.abs(w).max())
        X, kept, _ = _svt_symmetric(M, phi)
        assert np.allclose(X, svt(M, phi), rtol=0.0, atol=1e-10)
        # the kept count, away from ties at the threshold
        assume(np.abs(np.abs(w) - phi).min() > 1e-8)
        assert kept == int((np.abs(w) > phi).sum())

    @pytest.mark.parametrize("n", SIZES)
    def test_repeated_eigenvalues_beyond_phi(self, n):
        w = np.where(np.arange(n) < n // 2, 4.0, -4.0)
        w[::7] = 0.5
        M = symmetric_with_spectrum(w, n)
        X, kept, _ = _svt_symmetric(M, 1.0)
        assert np.allclose(X, svt(M, 1.0), rtol=0.0, atol=1e-10)
        assert kept == int((np.abs(w) > 1.0).sum())

    @pytest.mark.parametrize("n", [14, 60])
    def test_reads_the_lower_triangle(self, n):
        M = symmetric_with_spectrum(np.linspace(-3.0, 3.0, n), n)
        upper = np.triu(np.random.default_rng(n).standard_normal((n, n)), 1)
        X = _svt_symmetric(np.tril(M) + upper, 1.0)[0]
        assert np.allclose(X, svt(M, 1.0), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n", SIZES)
    def test_empty_kept_set_is_exact_zeros_and_silent(self, n, capfd):
        M = symmetric_with_spectrum(np.linspace(-2.0, 2.0, n), n)
        radius = float(np.abs(np.linalg.eigvalsh(M)).max())
        # just past the spectral radius (inside the Gershgorin bound), and
        # far past any bound
        for phi in (radius * (1 + 1e-9), 1e9):
            X, kept, _ = _svt_symmetric(M, phi)
            assert kept == 0
            assert np.array_equal(X, np.zeros((n, n)))
        assert np.array_equal(_svt_symmetric(np.zeros((n, n)), 0.0)[0], np.zeros((n, n)))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, n, bad):
        M = np.eye(n)
        M[n - 1, 0] = M[0, n - 1] = bad
        with pytest.raises(NumericalError):
            _svt_symmetric(M, 0.5)

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_extreme_scales(self, size):
        w = np.array([5.0, -3.0, 0.2, 0.1, -0.4, 2.5])
        M = symmetric_with_spectrum(w, 0)
        X, kept, _ = _svt_symmetric(M * size, 0.3 * size)
        assert kept == 4
        assert np.allclose(X / size, svt(M, 0.3), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [40, 250])
    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_out_of_range_input_is_one_dsyevd_call(self, monkeypatch, n, size):
        # dsyevd rescales input outside its safe range; the reduction
        # pipeline would square it
        w = np.concatenate([[5.0, -3.0, 2.5], np.linspace(-0.2, 0.2, n - 3)])
        M = symmetric_with_spectrum(w, n)
        calls = {name: spy(monkeypatch, name) for name in ("dsyevd", "dsytrd")}
        X, kept, _ = _svt_symmetric(M * size, 0.3 * size)
        assert kept == 3
        assert calls == {"dsyevd": ["dsyevd"], "dsytrd": []}
        assert np.allclose(X / size, svt(M, 0.3), rtol=0.0, atol=1e-10)

    def test_few_kept_pairs_take_inverse_iteration(self, monkeypatch):
        w = np.concatenate([[6.0, -5.0], np.linspace(-0.5, 0.5, 58)])
        M = symmetric_with_spectrum(w, 1)
        full, partial = spy(monkeypatch, "dstevd"), spy(monkeypatch, "dstein")
        X, kept, lead = _svt_symmetric(M, 1.0)
        assert (kept, full, partial, lead) == (2, [], ["dstein"], None)
        assert np.allclose(X, svt(M, 1.0), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [5, 14, 40, 60])
    def test_full_rank_input_takes_the_full_decomposition(self, monkeypatch, n):
        # one dsyevd call below order 32, dstevd on the reduction from 32 on
        M = symmetric_with_spectrum(np.linspace(1.0, 2.0, n) * (-1) ** np.arange(n), n)
        calls = {name: spy(monkeypatch, name) for name in ("dsyevd", "dstevd", "dstein")}
        X, kept, lead = _svt_symmetric(M, 0.5)
        routine = "dsyevd" if n < 32 else "dstevd"
        assert (kept, lead) == (n, None)
        assert calls == {name: [name] if name == routine else [] for name in calls}
        assert np.allclose(X, svt(M, 0.5), rtol=0.0, atol=1e-10)

    def test_small_input_is_one_dsyevd_call(self, monkeypatch):
        w = np.concatenate([[6.0, -5.0], np.linspace(-0.5, 0.5, 12)])
        M = symmetric_with_spectrum(w, 4)
        names = ("dsyevd", "dsytrd", "dstebz", "dstein", "dstevd", "dormqr")
        calls = {name: spy(monkeypatch, name) for name in names}
        X, kept, _ = _svt_symmetric(M, 1.0)
        assert kept == 2
        assert calls == {name: ["dsyevd"] if name == "dsyevd" else [] for name in names}
        assert np.allclose(X, svt(M, 1.0), rtol=0.0, atol=1e-10)

    def test_dsyevd_error_raises(self, monkeypatch):
        fail_with_info(monkeypatch, "dsyevd")
        with pytest.raises(NumericalError, match="dsyevd"):
            _svt_symmetric(symmetric_with_spectrum(np.linspace(-3.0, 3.0, 14), 5), 1.0)

    def test_inverse_iteration_failure_falls_back(self, monkeypatch):
        M = symmetric_with_spectrum(np.concatenate([[6.0], np.zeros(39)]), 2)
        monkeypatch.setattr(lapack, "dstein", lambda d, e, w, *a: (np.zeros((d.size, w.size)), 1))
        full = spy(monkeypatch, "dstevd")
        X, kept, _ = _svt_symmetric(M, 1.0)
        assert (kept, full) == (1, ["dstevd"])
        assert np.allclose(X, svt(M, 1.0), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "routine,kept",
        [("dsytrd", 2), ("dstebz", 2), ("dstein", 2), ("dormqr", 2), ("dstevd", 14), ("dormqr", 14)],
    )
    def test_lapack_error_raises(self, monkeypatch, routine, kept):
        fail_with_info(monkeypatch, routine)
        # two kept pairs of 40 take inverse iteration, fourteen the full
        # decomposition
        w = np.where(np.arange(40) < kept, 6.0, 0.0) * (-1) ** np.arange(40)
        with pytest.raises(NumericalError, match=routine):
            _svt_symmetric(symmetric_with_spectrum(w, 3), 1.0)


# 1x1, one row, one column, tall and wide; min sides below and above 32
SHAPES = ((1, 1), (1, 5), (5, 1), (14, 3), (3, 14), (40, 33), (33, 60), (60, 60))


def matrix_with_singular_values(s, shape, seed):
    """U diag(s) V' of the given shape for random orthonormal U and V."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((shape[0], s.size)))
    V, _ = np.linalg.qr(rng.standard_normal((shape[1], s.size)))
    return (U * s) @ V.T


@st.composite
def rectangular(draw):
    """A matrix with some repeated singular values, of any rank down to 0,
    and its singular values."""
    shape = draw(st.sampled_from(SHAPES))
    p = min(shape)
    levels = draw(st.lists(st.floats(0, 10), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=p, max_size=p))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(p)
    s = np.where(np.arange(p) % 3 == 0, np.array(levels)[picks], 3 * np.abs(noise))
    s[draw(st.integers(0, p)):] = 0.0
    return matrix_with_singular_values(s, shape, draw(st.integers(0, 2**32 - 1))), s


class TestSvtGram:
    @settings(max_examples=300, deadline=None)
    @given(rectangular(), st.one_of(st.floats(0.0, 1.2), st.sampled_from([0.0, 1e-12, 1e-6, 1e-3])))
    def test_matches_general_svt(self, matrix, frac):
        M, s = matrix
        top = max(1.0, float(s.max()))
        # phi from 0 to past the largest singular value
        phi = frac * top
        X, kept, _ = _svt_gram(M, phi)
        assert X.shape == M.shape
        assert np.allclose(X, svt(M, phi), rtol=0.0, atol=1e-10 * top)
        # the kept count, away from ties at the threshold
        assume(np.abs(s - phi).min() > 1e-8 * top)
        assert kept == int((s > phi).sum())

    @pytest.mark.parametrize("shape", [(40, 35), (35, 40), (5, 3)])
    @pytest.mark.parametrize("phi", [0.0, 1e-300, 1e-9, 1e-3, 0.5])
    def test_rank_deficient(self, shape, phi):
        rng = np.random.default_rng(6)
        M = rng.standard_normal(shape)
        M[1::2] = M[::2][: shape[0] // 2]  # every odd row repeats the one above
        for A in (M, M.T, np.zeros(shape)):
            top = max(1.0, np.linalg.norm(A, 2))
            X, kept, _ = _svt_gram(A, phi)
            assert np.allclose(X, svt(A, phi), rtol=0.0, atol=1e-10 * top)
            # gesdd counts the rounding-level singular values at phi = 0
            assert kept == solver._svt(A, phi)[1]
        assert np.array_equal(_svt_gram(np.zeros(shape), phi)[0], np.zeros(shape))

    def test_unresolvable_threshold_takes_the_exact_svt(self, monkeypatch):
        M = matrix_with_singular_values(np.array([4.0, 3.0, 1e-5, 0.0]), (40, 35), 7)
        edge = np.finfo(float).eps ** 0.25 * np.linalg.norm(M)  # phi^2 = sqrt(eps) ||M||_F^2
        phis = (0.0, 0.99 * edge, 1.01 * edge, 0.5)
        expected = [solver._svt(M, phi) for phi in phis]
        calls = []
        exact = solver._svt

        def recorded(A, phi):
            calls.append(phi)
            return exact(A, phi)

        monkeypatch.setattr(solver, "_svt", recorded)
        for phi, (X0, kept0) in zip(phis, expected):
            X, kept, _ = _svt_gram(M, phi)
            assert np.allclose(X, X0, rtol=0.0, atol=1e-10 * 4.0)
            assert kept == kept0
        assert calls == [0.0, 0.99 * edge]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_empty_kept_set_is_exact_zeros_and_silent(self, shape, capfd):
        s = np.linspace(2.0, 0.5, min(shape))
        M = matrix_with_singular_values(s, shape, 8)
        # just past the largest singular value, and far past any bound
        for phi in (2.0 * (1 + 1e-9), 1e9):
            X, kept, _ = _svt_gram(M, phi)
            assert kept == 0
            assert np.array_equal(X, np.zeros(shape))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (40, 33)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, shape, bad):
        M = np.ones(shape)
        M[-1, 0] = bad
        with pytest.raises(NumericalError):
            _svt_gram(M, 0.5)

    @pytest.mark.parametrize("shape", [(6, 40), (60, 40)])
    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_extreme_scales(self, shape, size):
        s = np.array([5.0, 3.0, 0.2, 0.1, 0.4, 2.5])
        M = matrix_with_singular_values(s, shape, 9)
        X, kept, _ = _svt_gram(M * size, 0.3 * size)
        assert kept == 4
        assert np.allclose(X / size, svt(M, 0.3), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(60, 40), (40, 60), (6, 40)])
    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_out_of_range_input_takes_the_exact_svt(self, monkeypatch, shape, size):
        # G would over- or underflow; gesdd rescales M itself
        s = np.array([5.0, 3.0, 0.2, 0.1, 0.4, 2.5])
        M = matrix_with_singular_values(s, shape, 12) * size
        calls = []
        exact = solver._svt

        def recorded(A, phi):
            calls.append(phi)
            return exact(A, phi)

        monkeypatch.setattr(solver, "_svt", recorded)
        eig_calls = [spy(monkeypatch, name) for name in ("dsyevd", "dsytrd")]
        X, kept, _ = _svt_gram(M, 0.3 * size)
        assert kept == 4 and calls == [0.3 * size] and eig_calls == [[], []]
        assert np.allclose(X / size, svt(M / size, 0.3), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "shape,kept,routine",
        [
            ((60, 50), 2, "dstein"),
            ((50, 60), 50, "dstevd"),
            ((60, 14), 2, "dsyevd"),
            ((14, 60), 2, "dsyevd"),
        ],
    )
    def test_routing(self, monkeypatch, shape, kept, routine):
        # few kept pairs take inverse iteration, many the full decomposition,
        # and G over a smaller side below 32, tall or wide, one dsyevd call
        p = min(shape)
        s = np.where(np.arange(p) < kept, 6.0 - np.arange(p) / p, 0.5 * np.arange(p) / p)
        M = matrix_with_singular_values(s, shape, 10)
        calls = {name: spy(monkeypatch, name) for name in ("dsyevd", "dstein", "dstevd")}
        X, got, _ = _svt_gram(M, 1.0)
        assert got == kept
        assert calls == {name: [name] if name == routine else [] for name in calls}
        assert np.allclose(X, svt(M, 1.0), rtol=0.0, atol=1e-10 * 6.0)

    @pytest.mark.parametrize(
        "routine,shape,kept",
        [
            ("dsytrd", (60, 40), 2),
            ("dstebz", (60, 40), 2),
            ("dstein", (60, 40), 2),
            ("dormqr", (60, 40), 2),
            ("dstevd", (60, 40), 14),
            ("dormqr", (60, 40), 14),
            ("dsyevd", (60, 14), 2),
        ],
    )
    def test_lapack_error_raises(self, monkeypatch, routine, shape, kept):
        fail_with_info(monkeypatch, routine)
        p = min(shape)
        M = matrix_with_singular_values(np.where(np.arange(p) < kept, 6.0, 0.0), shape, 11)
        with pytest.raises(NumericalError, match=routine):
            _svt_gram(M, 1.0)


def warm_lead(z, seed):
    """A unit vector near z, as the previous sweep would leave it."""
    lead = z + 1e-3 * np.random.default_rng(seed).standard_normal(z.size)
    return lead / np.linalg.norm(lead)


class TestRankOneSvt:
    """The rank-one route that a given warm vector opens, against svt(), and
    the warm vector that each call returns."""

    PHI = 0.95

    def spiked(self, spike, extra=(), n=60, seed=0):
        """A symmetric matrix with eigenvalue spike, the extra eigenvalues,
        and the rest spread over [-0.999 phi, 0.999 phi]; and the spike's
        eigenvector."""
        bulk = np.linspace(-0.999, 0.999, n - 1 - len(extra)) * self.PHI
        w = np.concatenate([[spike], extra, bulk])
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        M = (Q * w) @ Q.T
        return (M + M.T) / 2, Q[:, 0]

    def run(self, M, lead=None):
        X, kept, lead_next = _svt_symmetric(M, self.PHI, lead)
        assert np.allclose(X, svt(M, self.PHI), rtol=0.0, atol=1e-12 * np.abs(M).max())
        return X, kept, lead_next

    @pytest.mark.parametrize("spike", [40.0, -40.0, 4.0])
    def test_lone_spike_is_accepted(self, lone_pair_outcomes, monkeypatch, spike):
        # a negative leading eigenvalue included
        M, z = self.spiked(spike)
        calls = spy(monkeypatch, "dsytrd")
        X, kept, lead = self.run(M, warm_lead(z, 1))
        assert (kept, lone_pair_outcomes, calls) == (1, [True], [])
        assert abs(lead @ z) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("second", [1.001 * PHI, -1.001 * PHI])
    def test_a_second_pair_outside_falls_back(self, lone_pair_outcomes, second):
        # above phi the first Cholesky fails, below -phi the second
        M, z = self.spiked(40.0, [second])
        X, kept, lead = self.run(M, warm_lead(z, 2))
        assert (kept, lone_pair_outcomes) == (2, [False])
        assert lead is None

    def test_stalled_power_steps_fall_back(self, lone_pair_outcomes, monkeypatch):
        # a near tie at the top: once the bulk's share of the residual has
        # died out, it falls by about 4.999/5 per step and fails the rate,
        # well before the step cap
        M, z = self.spiked(5.0, [4.999])
        steps = []
        original = blas.dsymv

        def recorded(*args, **kwargs):
            steps.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(blas, "dsymv", recorded)
        X, kept, lead = self.run(M, warm_lead(z, 3))
        assert (kept, lone_pair_outcomes) == (2, [False])
        assert 2 <= len(steps) <= 10 < solver._POWER_STEPS
        assert lead is None

    def test_lone_pair_inside_the_interval_falls_back(self, lone_pair_outcomes):
        # the power steps converge, but theta is below phi: nothing is kept
        M, z = self.spiked(0.5 * self.PHI, n=60)
        M = M - 0.99 * (M - 0.5 * self.PHI * np.outer(z, z))  # bulk at +-0.01 phi
        X, kept, lead = self.run(M, warm_lead(z, 10))
        assert (kept, lone_pair_outcomes) == (0, [False])
        assert lead is None

    def test_pipeline_returns_the_lead_when_it_keeps_one_pair(self, lone_pair_outcomes):
        M, z = self.spiked(40.0)
        X, kept, lead = self.run(M)
        assert (kept, lone_pair_outcomes) == (1, [])
        assert abs(lead @ z) == pytest.approx(1.0, abs=1e-12)

    def test_small_order_ignores_the_lead(self, lone_pair_outcomes, monkeypatch):
        # one dsyevd call comes first; its lone eigenvector still comes back
        M, z = self.spiked(40.0, n=14)
        calls = spy(monkeypatch, "dsyevd")
        X, kept, lead = self.run(M, warm_lead(z, 4))
        assert (kept, lone_pair_outcomes, calls) == (1, [], ["dsyevd"])
        assert abs(lead @ z) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, lone_pair_outcomes, bad):
        M, z = self.spiked(40.0)
        M[5, 0] = M[0, 5] = bad
        with pytest.raises(NumericalError):
            _svt_symmetric(M, self.PHI, warm_lead(z, 5))
        assert lone_pair_outcomes == []

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_out_of_range_input_is_one_dsyevd_call(self, lone_pair_outcomes, monkeypatch, size):
        M, z = self.spiked(40.0)
        calls = {name: spy(monkeypatch, name) for name in ("dsyevd", "dpotrf")}
        X, kept, lead = _svt_symmetric(M * size, self.PHI * size, warm_lead(z, 6))
        assert (kept, lone_pair_outcomes, calls) == (1, [], {"dsyevd": ["dsyevd"], "dpotrf": []})
        assert np.allclose(X / size, svt(M, self.PHI), rtol=0.0, atol=1e-10)
        assert abs(lead @ z) == pytest.approx(1.0, abs=1e-12)

    def gram_case(self, shape, second=None):
        """A matrix with singular value 40 and the rest below phi (but for
        second), and the right singular vector at 40 of its tall form."""
        p = min(shape)
        s = np.concatenate([[40.0], np.linspace(0.999, 0.0, p - 1) * self.PHI])
        if second is not None:
            s[1] = second
        M = matrix_with_singular_values(s, shape, 13)
        return M, np.linalg.svd(M if shape[0] >= shape[1] else M.T)[2][0]

    @pytest.mark.parametrize("shape", [(60, 40), (40, 60)])
    @pytest.mark.parametrize("second", [None, 1.001 * PHI])
    def test_gram_variant(self, lone_pair_outcomes, monkeypatch, shape, second):
        # one Cholesky proves the lone singular value above phi, and a
        # second one above phi makes it fail
        M, right = self.gram_case(shape, second)
        calls = spy(monkeypatch, "dpotrf")
        X, kept, lead = _svt_gram(M, self.PHI, warm_lead(right, 7))
        assert np.allclose(X, svt(M, self.PHI), rtol=0.0, atol=1e-12 * 40.0)
        if second is None:
            assert (kept, lone_pair_outcomes, calls) == (1, [True], ["dpotrf"])
            assert abs(lead @ right) == pytest.approx(1.0, abs=1e-12)
        else:
            assert (kept, lone_pair_outcomes, calls) == (2, [False], ["dpotrf"])
            assert lead is None

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_gram_out_of_range_input_takes_the_exact_svt(self, lone_pair_outcomes, size):
        s = np.concatenate([[40.0], np.linspace(0.5, 0.0, 39)])
        M = matrix_with_singular_values(s, (60, 40), 14)
        X, kept, lead = _svt_gram(M * size, self.PHI * size, warm_lead(np.linalg.svd(M)[2][0], 8))
        assert (kept, lone_pair_outcomes) == (1, [])
        assert lead is None  # gesdd returns no warm vector
        assert np.allclose(X / size, svt(M, self.PHI), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gram_non_finite_input_raises(self, bad):
        M = matrix_with_singular_values(np.linspace(40.0, 0.0, 40), (60, 40), 15)
        M[-1, 0] = bad
        with pytest.raises(NumericalError):
            _svt_gram(M, self.PHI, warm_lead(np.eye(40)[0], 9))

    @pytest.mark.parametrize(
        "case",
        ["lone", "second", "small", "gram_tall", "gram_wide", "gram_second", "gram_gesdd"],
    )
    def test_the_lead_is_only_read(self, case):
        # the input warm vector is left as it was; the returned one is the
        # kept vector when exactly one pair is kept, and None otherwise or
        # on the gesdd exit
        if case.startswith("gram"):
            shape = (40, 60) if case == "gram_wide" else (60, 40)
            M, z = self.gram_case(shape, 1.001 * self.PHI if case == "gram_second" else None)
            phi = self.PHI
            if case == "gram_gesdd":
                M, phi = M * 1e200, phi * 1e200
            kernel = _svt_gram
        else:
            M, z = self.spiked(40.0, [1.001 * self.PHI] if case == "second" else [],
                               n=14 if case == "small" else 60)
            phi, kernel = self.PHI, _svt_symmetric
        lead = warm_lead(z, 11)
        before = lead.copy()
        M_before = M.copy()
        X, kept, lead_next = kernel(M, phi, lead)
        assert np.array_equal(lead, before) and np.array_equal(M, M_before)
        assert kept == (2 if case.endswith("second") else 1)
        if case.endswith("second") or case == "gram_gesdd":
            assert lead_next is None
        else:
            assert abs(lead_next @ z) == pytest.approx(1.0, abs=1e-12)


def route_case(name):
    """(M, phi, lead, both_tails) that take the named route of
    _eigenpairs_outside, and the LAPACK routines that route calls."""
    n = 14 if name == "small" else 40 if name in ("out_of_range", "full") else 60
    spread = np.linspace(-0.5, 0.5, n)
    both_tails = True
    if name == "small":
        # a lead, which below order 32 is not read
        M = symmetric_with_spectrum(np.concatenate([[6.0, -5.0], spread[2:]]), 1)
        return M, 1.0, np.eye(n)[0], both_tails, {"dsyevd"}
    if name == "out_of_range":
        # a lead, which outside syevd's safe range is not read
        M = symmetric_with_spectrum(np.concatenate([[5.0], spread[1:]]), 2)
        return M * 1e200, 1e200, np.eye(n)[0], both_tails, {"dsyevd"}
    if name == "partial":
        M = symmetric_with_spectrum(np.concatenate([[6.0, -5.0], spread[2:]]), 3)
        return M, 1.0, None, both_tails, {"dsytrd", "dstebz", "dstein"}
    if name == "full":
        # 14 of 40 pairs kept, more than n/5
        w = np.where(np.arange(n) < 14, 6.0, 0.5) * (-1) ** np.arange(n)
        return symmetric_with_spectrum(w, 4), 1.0, None, both_tails, {"dsytrd", "dstebz", "dstevd"}
    if name == "gershgorin_empty":
        M = symmetric_with_spectrum(spread, 5)
        return M, 1e9, np.eye(n)[0], both_tails, {"dsytrd"}
    # the rank-one route, proved, failed, and on a Gram matrix (one tail)
    extra = [1.001 * 0.95] if name == "rank_one_fallback" else []
    w = np.concatenate([[40.0], extra, np.linspace(-0.999, 0.999, n - 1 - len(extra)) * 0.95])
    Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((n, n)))
    M, phi = (Q * w) @ Q.T, 0.95
    if name == "gram_rank_one":
        M, phi, both_tails = M @ M, phi * phi, False
    calls = {"dpotrf"} | ({"dsytrd", "dstebz", "dstein"} if extra else set())
    return (M + M.T) / 2, phi, warm_lead(Q[:, 0], 7), both_tails, calls


class TestEigenpairsOutside:
    """Every route returns exactly the pairs outside [-phi, phi] and only
    reads the warm vector."""

    ROUTES = (
        "small", "out_of_range", "partial", "full", "gershgorin_empty",
        "rank_one", "rank_one_fallback", "gram_rank_one",
    )
    NAMES = ("dsyevd", "dsytrd", "dstebz", "dstein", "dstevd", "dpotrf")

    @pytest.mark.parametrize("route", ROUTES)
    def test_returns_only_the_pairs_outside(self, monkeypatch, route):
        M, phi, lead, both_tails, routines = route_case(route)
        calls = {name: spy(monkeypatch, name) for name in self.NAMES}
        w, Z = solver._eigenpairs_outside(M, phi, lead, both_tails)
        assert {name for name, made in calls.items() if made} == routines
        scale = float(np.abs(M).max())
        ref = np.linalg.eigvalsh(M / scale) * scale
        assert np.allclose(np.sort(w), ref[np.abs(ref) > phi], rtol=1e-10, atol=0.0)
        assert (np.abs(w) > phi).all() and Z.shape == (M.shape[0], w.size)
        assert np.allclose(Z.T @ Z, np.eye(w.size), rtol=0.0, atol=1e-10)
        assert np.allclose((M / scale) @ Z, Z * (w / scale), rtol=0.0, atol=1e-10)

    # the routes given a lead; partial and full take none
    @pytest.mark.parametrize("route", [r for r in ROUTES if r not in ("partial", "full")])
    def test_lead_ends_as_documented(self, route, lone_pair_outcomes):
        M, phi, lead, both_tails, routines = route_case(route)
        before = lead.copy()
        solver._eigenpairs_outside(M, phi, lead, both_tails)
        assert np.array_equal(lead, before)
        # read (a rank-one step tried) exactly on the routes from order 32
        # on, in syevd's safe range
        assert bool(lone_pair_outcomes) == (route not in ("small", "out_of_range"))


class TestProjectSum:
    def test_zero_matrix(self):
        out = project_sum(np.zeros((4, 4)), 4.0)
        assert np.allclose(out, 0.25)
        assert out.sum() == pytest.approx(4.0)

    def test_already_on_target(self):
        M = np.random.default_rng(6).random((5, 5))
        out = project_sum(M, float(M.sum()))
        assert np.allclose(out, M, atol=1e-12)

    def test_ones_to_zero(self):
        assert np.allclose(project_sum(np.ones((3, 3)), 0.0), 0.0, atol=1e-12)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            A = rng.standard_normal((6, 6))
            B = rng.standard_normal((6, 6))
            t = float(rng.standard_normal() * 10)
            PA = project_sum(A, t)
            assert np.allclose(project_sum(PA, t), PA, atol=1e-12)
            assert np.linalg.norm(project_sum(A, t) - project_sum(B, t)) <= np.linalg.norm(
                A - B
            ) * (1 + 1e-12)


class TestOutArguments:
    """The buffer forms used by the ADMM loop give the allocating forms'
    values exactly."""

    def test_clamp_box_in_place(self):
        A = np.random.default_rng(10).standard_normal((8, 8)) * 2
        expected = clamp_box(A)
        assert clamp_box(A, out=A) is A and np.array_equal(A, expected)


class TestClampBox:
    @pytest.mark.parametrize("value,expected", [(1.7, 1.0), (-0.2, 0.0), (0.4, 0.4)])
    def test_scalar_cases(self, value, expected):
        assert clamp_box(np.array([value]))[0] == expected

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            A = rng.standard_normal((6, 6)) * 2
            B = rng.standard_normal((6, 6)) * 2
            CA = clamp_box(A)
            assert np.array_equal(clamp_box(CA), CA)
            assert np.linalg.norm(clamp_box(A) - clamp_box(B)) <= np.linalg.norm(A - B) * (
                1 + 1e-12
            )


class TestDefaultGamma:
    def test_values(self):
        assert default_gamma(100) == pytest.approx(0.06)
        assert default_gamma(6) == pytest.approx(1.0)
        assert default_gamma_bipartite(36, 36) == pytest.approx(6 / 36)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            default_gamma(0)
