"""Pin BLAS to one thread before numpy loads.

Solves pin themselves to one thread whatever the caller's setting (see
solver._one_blas_thread), so this pin is not what makes solver results
reproducible.  It keeps the rest of what the tests run (rounding,
certificates, the oracle) on one thread too, so no result depends on the
machine's core count, and it gives the thread-policy tests in
test_blas_threads.py a known starting count of one."""

import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")


@pytest.fixture
def lone_pair_outcomes(monkeypatch):
    """Whether each rank-one SVT attempt during the test was proved (True)
    or fell back (False)."""
    from dksub import solver

    outcomes = []
    original = solver._lone_pair

    def recorded(*args, **kwargs):
        pair = original(*args, **kwargs)
        outcomes.append(pair is not None)
        return pair

    monkeypatch.setattr(solver, "_lone_pair", recorded)
    return outcomes
