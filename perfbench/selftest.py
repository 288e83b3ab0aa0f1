"""Self-tests of the benchmark itself (not of dksub).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They check that the seed reaches the instances, that the checks flag wrong
answers, that the exact-count self-check flags a mismatch, that the tracer
restores what it rebinds, and that the fingerprint reads both OpenBLAS
thread counts.  The file name keeps them out of the repository's own test
collection.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()

import dksub  # noqa: E402
import envinfo  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _acceptance_small(t=0):
    return dksub.models.sample_dks(
        dksub.models.PlantedDksParams(n=14, k=3, p=0.2, q=0.2, seed=10_000 + t))


def _same(a, b):
    return (a.graph.adj == b.graph.adj).all() and a.planted.members == b.planted.members


def test_seed_changes_instances():
    assert _same(wl.square_instance(1, 0), wl.square_instance(1, 0))
    assert not _same(wl.square_instance(1, 0), wl.square_instance(2, 0))
    base = _acceptance_small()
    assert _same(wl.relabel(base, 1, 0), wl.relabel(base, 1, 0))
    assert not _same(wl.relabel(base, 1, 0), wl.relabel(base, 2, 0))
    grid = [
        dksub.models.sample_dks(dksub.models.PlantedDksParams(
            k=wl.POOL_KS[0], seed=dksub.models.child_seed(wl.derive(seed, 3), 0, 0, 0),
            **wl.POOL))
        for seed in (1, 2)
    ]
    assert not _same(*grid)


def test_relabel_keeps_the_instance():
    base = _acceptance_small(3)
    moved = wl.relabel(base, 5, 3)
    assert moved.graph.edge_count == base.graph.edge_count
    assert dksub.graphs.subgraph_density(moved.graph, moved.planted) == \
        dksub.graphs.subgraph_density(base.graph, base.planted)


def _raises_check(fn, *args):
    try:
        fn(*args)
    except wl.CheckFailed:
        return True
    return False


def test_checker_flags_wrong_answers():
    inst = wl.square_instance(1, 0)
    X = dksub.graphs.proposed_solution(inst.graph, inst.planted)[0]
    wl.check_recovery(X, inst.planted, inst.planted)  # the right answer passes
    members = list(inst.planted.members)
    outside = next(v for v in range(inst.graph.n) if v not in inst.planted)
    swapped = dksub.graphs.NodeSubset(tuple(members[1:] + [outside]), inst.graph.n)
    assert _raises_check(wl.check_recovery, X, inst.planted, swapped)
    assert _raises_check(wl.check_recovery, 0.5 * X, inst.planted)

    res = wl.PassResult()
    with res.op("swapped"):
        wl.check_recovery(X, inst.planted, swapped)
    assert (res.attempted, res.failed) == (1, 1)

    small = _acceptance_small()
    out = dksub.solver.solve_dks(small.graph, 3)
    rounded = dksub.solver.round_to_subset(out.X, 3)
    oracle = dksub.oracle.brute_force_dks(small.graph, 3)
    relaxation = dksub.oracle.restricted_relaxation_value(small.graph, 3, dksub.solver.default_gamma(3))
    wl.check_exact(small.graph, 3, out, rounded, oracle, relaxation)
    value, argmin = relaxation
    assert _raises_check(wl.check_exact, small.graph, 3, out, rounded, oracle, (value + 1, argmin))
    assert _raises_check(wl.check_exact, small.graph, 3, out, rounded, oracle, (value, argmin[:0]))


def test_self_check_flags_count_mismatch():
    a, b = wl.PassResult(), wl.PassResult()
    a.solves.append(wl.Solve("square0", "square", 85, True, 1.0))
    b.solves.append(wl.Solve("square0", "square", 86, True, 1.0))
    assert run.self_check([a, a]) == 0
    assert run.self_check([a, b]) == 1


def test_tracer_restores_and_counts():
    original = dksub.solver.solve_dks
    graph = _acceptance_small().graph
    tracer = spans.Tracer()
    with tracer:
        assert dksub.solver.solve_dks is not original
        dksub.solver.solve_dks(graph, 3)
    assert dksub.solver.solve_dks is original and dksub.solve_dks is original
    assert tracer.calls("solver.solve_dks") == 1
    assert tracer.calls("solver.eigh") >= 1
    [span] = tracer.spans
    assert (span["name"], span["n"]) == ("solver.solve_dks", graph.n)
    assert span["children"]["solver.eigh"][0] == tracer.calls("solver.eigh")
    assert sum(c[1] for c in span["children"].values()) < span["end"] - span["start"]


def test_fingerprint_reads_both_openblas_thread_counts():
    env = envinfo.fingerprint(run.ROOT)
    for key in ("openblas_numpy", "openblas_scipy"):
        assert env[key]["config"].startswith("OpenBLAS"), env[key]
        assert isinstance(env[key]["threads"], int) and env[key]["threads"] >= 1, env[key]
    assert set(env["blas_env"]) == set(envinfo.BLAS_ENV_VARS)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
    print(f"{len(tests)} self-tests passed")
