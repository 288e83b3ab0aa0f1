"""The one-BLAS-thread policy of the solver and of the phase-diagram pool.

conftest.py starts every bundled OpenBLAS on one thread, so these tests put
the caller on two threads through the same setters the solver uses.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from dksub import solver
from dksub.experiments import PhaseGridConfig, run_phase_diagram
from dksub.models import PlantedDkbParams, PlantedDksParams, sample_dkb, sample_dks
from dksub.solver import SolverConfig, solve_dkb, solve_dks


def found_controls():
    controls = {name: c for name, c in solver._blas_controls().items() if c is not None}
    if not controls:
        pytest.skip("no bundled OpenBLAS found")
    return controls


def counts(controls):
    return {name: get() for name, (get, _) in controls.items()}


@contextmanager
def caller_threads(n):
    """Set every found OpenBLAS to n threads, and back to its count on exit."""
    controls = found_controls()
    saved = counts(controls)
    for _, set_ in controls.values():
        set_(n)
    try:
        yield controls
    finally:
        for name, (_, set_) in controls.items():
            set_(saved[name])


def test_solve_runs_on_one_thread_and_restores_the_callers_count(monkeypatch):
    seen = []
    original = solver._svt_symmetric

    def spy(M, phi):
        seen.append(counts(controls))
        return original(M, phi)

    monkeypatch.setattr(solver, "_svt_symmetric", spy)
    inst = sample_dks(PlantedDksParams(n=40, k=16, p=0.0, q=0.0, seed=1))
    with caller_threads(2) as controls:
        result = solve_dks(inst.graph, 16)
        assert counts(controls) == {name: 2 for name in controls}
    assert seen and all(c == {name: 1 for name in controls} for c in seen)
    assert {n: result.blas_threads[n] for n in controls} == {name: 1 for name in controls}


def test_bipartite_solve_restores_the_callers_count():
    inst = sample_dkb(PlantedDkbParams(n1=20, n2=24, k1=8, k2=9, p=0.0, q=0.0, seed=2))
    with caller_threads(2) as controls:
        result = solve_dkb(inst.graph, 8, 9)
        assert counts(controls) == {name: 2 for name in controls}
    assert all(result.blas_threads[name] == 1 for name in controls)


def assert_same_solve_on_one_and_two_threads(params):
    inst = sample_dks(params)
    with caller_threads(1):
        one = solve_dks(inst.graph, params.k)
    with caller_threads(2):
        two = solve_dks(inst.graph, params.k)
    assert one.iterations == two.iterations
    assert np.array_equal(one.X, two.X)
    assert np.array_equal(one.residual_history, two.residual_history)
    assert np.array_equal(one.sweep_kind, two.sweep_kind)


def test_solution_does_not_depend_on_the_callers_thread_count():
    # at n=250 a solve on two OpenBLAS threads moves X in the last digits
    assert_same_solve_on_one_and_two_threads(PlantedDksParams(n=250, k=100, p=0.05, q=0.25, seed=4))


def test_anderson_solve_does_not_depend_on_the_callers_thread_count():
    # the first criterion-3 instance (its p and q are the first draws of
    # stream_rng(777)), solved under Anderson acceleration
    assert_same_solve_on_one_and_two_threads(
        PlantedDksParams(n=14, k=3, p=0.4132411070517073, q=0.21660356948641557, seed=10_000)
    )


def test_pool_workers_never_call_a_setter(monkeypatch, tmp_path):
    log = tmp_path / "setter_calls.txt"

    def logged(set_):
        def set_and_log(n):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            set_(n)
        return set_and_log

    with caller_threads(2) as controls:
        monkeypatch.setattr(
            solver, "_blas_controls",
            lambda: {name: (get, logged(set_)) for name, (get, set_) in controls.items()},
        )
        cfg = PhaseGridConfig(
            n=30, q=0.0, p_values=(0.0,), k_values=(12,), trials=4, master_seed=5,
            solver=SolverConfig(max_iter=800),
        )
        _, records = run_phase_diagram(cfg, jobs=2)
        assert counts(controls) == {name: 2 for name in controls}
    assert all(r.error is None and r.recovered for r in records)
    # the parent pins each copy once around pool creation and restores it once
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2 * len(controls)


def test_no_setter_call_when_already_on_one_thread(monkeypatch):
    calls = []
    with caller_threads(1) as controls:
        monkeypatch.setattr(
            solver, "_blas_controls",
            lambda: {name: (get, calls.append) for name, (get, _) in controls.items()},
        )
        with solver._one_blas_thread() as inside:
            pass
    assert calls == []
    assert {n: inside[n] for n in controls} == {name: 1 for name in controls}


def test_no_op_without_bundled_openblas(monkeypatch, tmp_path):
    assert solver._openblas_controls(tmp_path, "") is None
    (tmp_path / "libscipy_openblas-0.so").write_bytes(b"not a shared library")
    assert solver._openblas_controls(tmp_path, "") is None

    monkeypatch.setattr(solver, "_blas_controls", lambda: {"numpy": None, "scipy": None})
    inst = sample_dks(PlantedDksParams(n=30, k=12, p=0.0, q=0.0, seed=3))
    result = solve_dks(inst.graph, 12)
    assert result.converged
    assert result.blas_threads == {"numpy": None, "scipy": None}
