"""dksub benchmark: one command, two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve-n250 --seed 1 --seconds 55 --trace 0

A run sets up the program, then repeats passes over the workload's
instances (all made from --seed) until --seconds would be exceeded, with at
least two passes so that the exact counts can be compared between them.
With --trace 0 every pass is untraced and the result holds the end-to-end
metrics; with --trace 1 passes alternate untraced and traced, and the result
holds the per-layer metrics plus the tracing overhead.

The program runs as users run it: the benchmark reads the BLAS thread
settings into the fingerprint and never sets them.

The last line of stdout is the result object; the lines before it are a
human-readable report (every metric with its unit, the timing medians with
their sample counts and tail percentiles) and the environment fingerprint.
Exit status: 0 when every output was correct, 1 when a check failed, 2 when
the program cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 7
MIN_PASSES = 2

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.warm_up()
print(repr(time.perf_counter() - start))
"""


def load_program():
    """Import dksub from this checkout's src/, and nowhere else."""
    if not (SRC / "dksub" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'dksub'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import dksub

    if Path(dksub.__file__).resolve().parent != SRC / "dksub":
        print(f"perfbench: imported dksub from {dksub.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return dksub


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest of p75/p90/p95/p99 that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        beyond = len(values) - math.ceil(pct / 100 * len(values))
        if beyond >= 10:
            out[f"p{pct}"] = ordered[math.ceil(pct / 100 * len(values)) - 1]
            break
    return out


def setup_seconds() -> list[float]:
    """Import plus first-call warm-up, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_passes(workload, seed: int, seconds: float, trace: bool, tracer, workdir: Path):
    from workloads import PassResult

    passes = []
    begin = time.perf_counter()
    while True:
        res = PassResult(traced=trace and len(passes) % 2 == 1)
        start = time.perf_counter()
        if res.traced:
            with tracer:
                workload(seed, res, workdir)
        else:
            workload(seed, res, workdir)
        res.wall = time.perf_counter() - start
        passes.append(res)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    return passes


def self_check(passes) -> int:
    """Number of passes whose exact counts differ from the first pass."""
    first = passes[0].signature()
    mismatches = 0
    for i, res in enumerate(passes[1:], start=1):
        if res.signature() != first:
            mismatches += 1
            print(f"perfbench: pass {i} iteration counts differ from pass 0", file=sys.stderr)
    return mismatches


def end_to_end(name: str, passes, setup: list[float], rss: float) -> dict:
    from workloads import OP_SAMPLE

    op = [v for p in passes for v in p.samples.get(OP_SAMPLE[name], [])]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_s": (statistics.median(op) if op else math.nan, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(tracer, passes) -> dict:
    from workloads import MAX_ITER, SMALL_N

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = passes[0]
    solves = [s for p in traced for s in p.solves]
    local = [s for s in solves if s.local]

    def iters(group, shape=None):
        return sum(s.iterations for s in group if shape is None or s.shape == shape)

    def ms_per_iter(seconds, iterations):
        return 1e3 * seconds / iterations if iterations else 0.0

    def per_call(name):
        calls = tracer.calls(name)
        return tracer.seconds(name) / calls if calls else 0.0

    def shape_ms(shape):
        group = [s for s in solves if s.shape == shape]
        return ms_per_iter(sum(s.seconds for s in group), iters(group))

    def counted(key):
        return sum(p.counts.get(key, 0) for p in traced)

    # Per-iteration kernel times are over the dense solves (n >= 60 and the
    # bipartite one), whose iterations are the ones dense linear algebra
    # dominates; the n=14 solves, with many more but far cheaper iterations,
    # are in solver.ms_per_iter.small.
    dense_spans = [s for s in tracer.spans if s["name"] == "solver.solve_dkb"
                   or (s["name"] == "solver.solve_dks" and (s["n"] or 0) > SMALL_N)]

    def under_dense(*names):
        return sum(s["children"].get(name, (0, 0.0))[1] for s in dense_spans for name in names)

    dense_iters = iters(local, "square") + iters(local, "bipartite")
    prox = under_dense("solver.soft_threshold", "solver.project_sum", "solver.clamp_box")
    # no traced call under a solve calls another traced one, so the children's
    # seconds add up without overlap
    solve_self = sum(s["end"] - s["start"] - sum(c[1] for c in s["children"].values())
                     for s in dense_spans)
    pass_iters = iters(first.solves)
    capped = [s for s in first.solves if s.iterations >= MAX_ITER and not s.converged]
    trial_s = [v for p in traced for v in p.samples.get("trial_s", [])]
    grid_s = tracer.seconds("experiments.run_phase_diagram")
    oracle_s = tracer.seconds("oracle.brute_force_dks") + tracer.seconds(
        "oracle.restricted_relaxation_value")
    certificates = counted("certificates")
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(p.wall for p in traced)

    return {
        "solver.iterations": (pass_iters, "count"),
        "solver.cap_hits": (len(capped), "count"),
        "solver.wasted_iter_frac": (iters(capped) / pass_iters if pass_iters else 0.0, "ratio"),
        "solver.eigh.ms_per_iter": (
            ms_per_iter(under_dense("solver.eigh"), iters(local, "square")), "ms"),
        "solver.svt.ms_per_iter": (
            ms_per_iter(under_dense("solver.svt"), iters(local, "bipartite")), "ms"),
        "solver.prox.ms_per_iter": (ms_per_iter(prox, dense_iters), "ms"),
        "solver.other.ms_per_iter": (ms_per_iter(solve_self, dense_iters), "ms"),
        "solver.ms_per_iter.square": (shape_ms("square"), "ms"),
        "solver.ms_per_iter.bipartite": (shape_ms("bipartite"), "ms"),
        "solver.ms_per_iter.small": (shape_ms("small"), "ms"),
        "solver.round_to_subset.s": (per_call("solver.round_to_subset"), "s"),
        "solver.relative_error.s": (per_call("solver.relative_error"), "s"),
        "experiments.trial_s": (statistics.median(trial_s) if trial_s else 0.0, "s"),
        "experiments.parallel_efficiency": (
            sum(trial_s) / (counted("jobs") / len(traced) * grid_s) if grid_s else 0.0, "ratio"),
        "experiments.emit_s": (
            (tracer.seconds("experiments.emit_csv")
             + tracer.seconds("experiments.emit_heatmap_svg")) / len(traced), "s"),
        "experiments.failed_trials": (counted("failed_trials"), "count"),
        "certificate.build_multipliers.s": (per_call("certificate.build_multipliers"), "s"),
        "certificate.verify.s": (per_call("certificate.verify"), "s"),
        "certificate.spectral_norm.s": (per_call("certificate.spectral_norm"), "s"),
        "certificate.valid_strict_frac": (
            counted("valid_strict") / certificates if certificates else 0.0, "ratio"),
        "oracle.brute_force_dks.s": (per_call("oracle.brute_force_dks"), "s"),
        "oracle.restricted_relaxation_value.s": (
            per_call("oracle.restricted_relaxation_value"), "s"),
        "oracle.subsets_per_s": (counted("subsets") / oracle_s if oracle_s else 0.0, "1/s"),
        "models.sample_dks.s": (per_call("models.sample_dks"), "s"),
        "models.sample_dkb.s": (per_call("models.sample_dkb"), "s"),
        "graphs.complement_edges.s": (per_call("graphs.complement_edges"), "s"),
        "graphs.proposed_solution.s": (per_call("graphs.proposed_solution"), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }


def report(name: str, passes, setup, rss, attempted, failed) -> None:
    """Human-readable lines: every timing of this workload, by name."""
    print(f"workload {name}: {len(passes)} passes, {attempted} operations, {failed} failed")
    print("  pass walls [s] " + " ".join(
        f"{p.wall:.4f}{'(traced)' if p.traced else ''}" for p in passes))
    rows = {"setup_s": setup, "wall_s": [p.wall for p in passes]}
    for p in passes:
        if not p.traced:
            for key, values in p.samples.items():
                rows.setdefault(key, []).extend(values)
    for key, values in rows.items():
        unit = "1/s" if key.endswith("_per_s") else "s"
        stats = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in summarize(values).items())
        print(f"  {key} [{unit}] {stats}")
    print(f"  peak_rss_mb [MB] {rss:.6g}")
    print(f"  failed_frac [ratio] {failed / attempted:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    load_program()
    import envinfo
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workloads.warm_up()
    tracer = spans.Tracer()
    WORKDIR.mkdir(parents=True, exist_ok=True)
    scratch = WORKDIR / f"{args.workload}-{args.seed}-{args.trace}"
    scratch.mkdir(exist_ok=True)
    try:
        passes = run_passes(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), tracer, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rss = peak_rss_mb()  # before any other child process runs
    env = envinfo.fingerprint(ROOT)
    setup = setup_seconds()

    mismatches = self_check(passes)
    attempted = sum(p.attempted for p in passes) + len(passes) - 1
    failed = sum(p.failed for p in passes) + mismatches
    for p in passes:
        for message in p.errors:
            print(f"perfbench: failed: {message}", file=sys.stderr)

    report(args.workload, passes, setup, rss, attempted, failed)
    print("fingerprint " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = per_layer(tracer, passes)
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(args.workload, passes, setup, rss)
    for key, (value, unit) in metrics.items():
        print(f"  {key} [{unit}] {value:.6g}")
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
