"""Command-line interface.

Subcommands: generate, solve, certify, oracle, phase, bench.
Exit codes: 0 success, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments, io, models, oracle, solver
from .certificate import build_multipliers, estimate_pq, verify
from .graphs import Graph
from .solver import NumericalError, SolverConfig


def _finite_or_null(value):
    """value with every non-finite float in it replaced by None, which JSON
    writes as null: NaN and Infinity are not JSON, and strict parsers
    reject them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _json_out(payload: dict, out: str | None) -> None:
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# generate's flags that one model alone takes, with their defaults; the
# parser leaves them None, so that a flag given to the other model shows
_MODEL_FLAGS = {
    "dks": {"n": None, "k": None, "adv_r": 0, "adv_s": 0,
            "adv_delta1": 0.0, "adv_delta2": 0.0, "adv_seed": 0},
    "dkb": {"n1": None, "n2": None, "k1": None, "k2": None},
}


def _cmd_generate(args) -> int:
    other = "dkb" if args.model == "dks" else "dks"
    foreign = ["--" + dest.replace("_", "-") for dest in _MODEL_FLAGS[other]
               if getattr(args, dest) is not None]
    if foreign:
        raise ValueError(f"the {args.model} model does not take {', '.join(foreign)}")
    for dest, default in _MODEL_FLAGS[args.model].items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if args.model == "dks":
        if args.n is None or args.k is None:
            raise ValueError("--n and --k are required for the dks model")
        params = models.PlantedDksParams(
            n=args.n, k=args.k, p=args.p, q=args.q, seed=args.seed
        )
        inst = models.sample_dks(params, permute=not args.no_permute)
        if args.adv_r or args.adv_s:
            adv = models.AdversarialParams(
                r=args.adv_r, s=args.adv_s, delta1=args.adv_delta1, delta2=args.adv_delta2
            )
            inst = models.corrupt_adversarial(inst, adv, seed=args.adv_seed)
        sizes, planted = [inst.k], inst.planted.members
    else:
        if None in (args.n1, args.n2, args.k1, args.k2):
            raise ValueError("--n1 --n2 --k1 --k2 are required for the dkb model")
        params = models.PlantedDkbParams(
            n1=args.n1, n2=args.n2, k1=args.k1, k2=args.k2,
            p=args.p, q=args.q, seed=args.seed,
        )
        inst = models.sample_dkb(params, permute=not args.no_permute)
        sizes = [params.k1, params.k2]
        planted = inst.planted_u.members + inst.planted_v.members
    io.write_graph(inst.graph, args.out)
    io.write_ground_truth(io.truth_path(args.out), sizes, planted, inst.params)
    print(f"wrote {args.out} and {io.truth_path(args.out)}")
    return 0


def _solver_flags(args) -> dict:
    """The solver flags that were given; SolverConfig supplies the rest."""
    keys = ("gamma", "tau", "tol", "max_iter", "mode")
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _find_truth(args) -> Path | None:
    if args.ground_truth:
        return Path(args.ground_truth)
    candidate = io.truth_path(args.graph)
    return candidate if candidate.exists() else None


def _read_problem(args):
    """The graph file and its size: (Graph, k), or (BipartiteGraph, (k1, k2))."""
    g = io.read_edge_list(args.graph)
    if isinstance(g, Graph):
        if args.k is None:
            raise ValueError("--k is required for a unipartite graph")
        return g, args.k
    if args.k1 is None or args.k2 is None:
        raise ValueError("--k1 and --k2 are required for a bipartite graph")
    return g, (args.k1, args.k2)


def _members(subsets) -> list | dict:
    """JSON form of a NodeSubset, or of a (u, v) pair of them."""
    if isinstance(subsets, tuple):
        return {"u": _members(subsets[0]), "v": _members(subsets[1])}
    return list(subsets.members)


def _solve_report(result: solver.SolverResult) -> dict:
    """The SolverResult fields that solve and bench both report;
    proven_distance, NaN when no proof fired, is written as null."""
    fields = ("converged", "iterations", "hit_cap", "stop", "proven_distance", "blas_threads")
    return {name: getattr(result, name) for name in fields} | result.anderson_counts()


def _cmd_solve(args) -> int:
    cfg = SolverConfig(**_solver_flags(args))
    g, k = _read_problem(args)
    pair = isinstance(k, tuple)
    result = solver.solve_dkb(g, *k, cfg) if pair else solver.solve_dks(g, k, cfg)
    payload = {"recovered_subset": _members(solver.round_to_subset(result.X, k))}
    truth_file = _find_truth(args)
    if truth_file:
        truth = io.read_ground_truth(truth_file)
        planted = truth.subsets(g) if pair else truth.subset(g)
        # a diverged paper-mode X overflows here, as in the solve
        with np.errstate(over="ignore", invalid="ignore"):
            payload["X_relative_error_vs_ground_truth"] = solver.relative_error(result.X, planted)
    payload.update(
        _solve_report(result),
        objective=result.objective,
        primal_residual=result.primal_residual,
        dual_residual=result.dual_residual,
    )
    _json_out(payload, args.out)
    return 0


def _pq_from_params(params: dict) -> tuple[float, float] | None:
    """The sidecar's p and q, or those under its "base" (an adversarial
    instance's), each checked to be a real number."""
    for prefix, source in (("", params), ("base.", params.get("base"))):
        if isinstance(source, dict) and "p" in source and "q" in source:
            for key in ("p", "q"):
                solver._require_real(source[key], f"sidecar {prefix}{key}")
            return float(source["p"]), float(source["q"])
    return None


def _cmd_certify(args) -> int:
    g = io.read_graph(args.graph)
    truth_file = _find_truth(args)
    if truth_file is None:
        raise ValueError("certify needs a ground-truth sidecar (--ground-truth)")
    truth = io.read_ground_truth(truth_file)
    inst = models.PlantedInstance(g, truth.subset(g))
    if args.estimate_pq:
        if args.p is not None or args.q is not None:
            raise ValueError("pass --p/--q or --estimate-pq, not both")
        p, q = estimate_pq(inst)
    else:
        if (args.p is None) != (args.q is None):
            raise ValueError("pass --p and --q together")
        pq = (args.p, args.q) if args.p is not None else _pq_from_params(truth.params)
        if pq is None:
            raise ValueError("no p/q in the sidecar; pass --p and --q or --estimate-pq")
        p, q = pq
    mult = build_multipliers(inst, gamma=args.gamma, epsilon_slack=args.epsilon, p=p, q=q)
    report = verify(mult, inst)
    payload = dataclasses.asdict(report)
    payload["margins"] = {
        "one_minus_W_norm": 1.0 - report.W_spectral_norm,
        "one_minus_F_inf_norm": 1.0 - report.F_inf_norm,
        "min_M_on_block": report.min_M_on_block,
    }
    payload["lambda"] = mult.lam
    payload["gamma"] = mult.gamma
    payload["epsilon_slack"] = mult.epsilon_slack
    _json_out(payload, args.out)
    return 0


def _cmd_oracle(args) -> int:
    g, k = _read_problem(args)
    pair = isinstance(k, tuple)
    result = oracle.brute_force_dkb(g, *k) if pair else oracle.brute_force_dks(g, k)
    _json_out(
        {
            "best_edge_count": result.best_edge_count,
            "num_optima": len(result.optimal_subsets),
            "first_optimum": _members(result.optimal_subsets[0]),
        },
        args.out,
    )
    return 0


def _phase_config(args) -> experiments.PhaseGridConfig:
    """The config file's object under the grid flags given; PhaseGridConfig
    supplies the rest and rejects an unknown key with a TypeError."""
    raw: dict = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: the config must be a JSON object")
    solver_raw = raw.pop("solver", {})
    if not isinstance(solver_raw, dict):
        raise ValueError(f"{args.config}: \"solver\" must be a JSON object")
    cfg = SolverConfig(**{**solver_raw, **_solver_flags(args)})
    grid = {f.name for f in dataclasses.fields(experiments.PhaseGridConfig)}
    flags = {key: v for key, v in vars(args).items() if key in grid and v is not None}
    return experiments.PhaseGridConfig(**{**raw, **flags}, solver=cfg)


def _cmd_phase(args) -> int:
    cfg = _phase_config(args)
    start = time.perf_counter()
    cells, records = experiments.run_phase_diagram(cfg, jobs=args.jobs)
    elapsed = time.perf_counter() - start
    if args.out_csv:
        experiments.emit_csv(cells, cfg.n, cfg.q, args.out_csv)
    if args.out_svg:
        experiments.emit_heatmap_svg(cells, args.out_svg)
    summary = {
        "n": cfg.n,
        "q": cfg.q,
        "wall_time_s": elapsed,
        "cells": [dataclasses.asdict(c) for c in cells],
        # trials per TrialRecord.stop value
        "stops": dict(collections.Counter(r.stop for r in records)),
    }
    _json_out(summary, args.out)
    return 0


def _cmd_bench(args) -> int:
    params = models.PlantedDksParams(n=args.n, k=args.k, p=args.p, q=args.q, seed=args.seed)
    inst = models.sample_dks(params)
    cfg = SolverConfig(**_solver_flags(args))
    start = time.perf_counter()
    result = solver.solve_dks(inst.graph, args.k, cfg)
    elapsed = time.perf_counter() - start
    _json_out(
        {
            **_solve_report(result),
            "wall_time_s": elapsed,
            "ms_per_iteration": 1000.0 * elapsed / max(result.iterations, 1),
            "relative_error": solver.relative_error(result.X, inst.planted),
        },
        args.out,
    )
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    # No defaults here: a flag left out keeps SolverConfig's default.
    p.add_argument("--gamma", type=float, help="l1 weight (default 6/k)")
    p.add_argument("--tau", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--mode", choices=("paper", "derived"))


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dksub",
        description="Densest k-subgraph recovery via a nuclear-norm + l1 relaxation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a planted instance to an edge-list file")
    gen.add_argument("--model", choices=("dks", "dkb"), default="dks")
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--n1", type=int)
    gen.add_argument("--n2", type=int)
    gen.add_argument("--k1", type=int)
    gen.add_argument("--k2", type=int)
    gen.add_argument("--p", type=float, default=0.0)
    gen.add_argument("--q", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--no-permute", action="store_true")
    # the model flags default to None; _MODEL_FLAGS holds their defaults
    gen.add_argument("--adv-r", type=int, help="adversarial edge additions")
    gen.add_argument("--adv-s", type=int, help="adversarial edge deletions")
    gen.add_argument("--adv-delta1", type=float)
    gen.add_argument("--adv-delta2", type=float)
    gen.add_argument("--adv-seed", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser("solve", help="run the ADMM solver on a graph file")
    _add_problem_flags(slv)
    slv.add_argument("--ground-truth")
    _add_solver_flags(slv)
    slv.add_argument("--out")
    slv.set_defaults(func=_cmd_solve)

    cert = sub.add_parser("certify", help="build and verify a dual certificate")
    cert.add_argument("--graph", required=True)
    cert.add_argument("--ground-truth")
    cert.add_argument("--gamma", type=float)
    cert.add_argument("--epsilon", type=float)
    cert.add_argument("--p", type=float)
    cert.add_argument("--q", type=float)
    cert.add_argument("--estimate-pq", action="store_true")
    cert.add_argument("--out")
    cert.set_defaults(func=_cmd_certify)

    orc = sub.add_parser("oracle", help="brute-force densest subgraph on a small graph")
    _add_problem_flags(orc)
    orc.add_argument("--out")
    orc.set_defaults(func=_cmd_oracle)

    ph = sub.add_parser("phase", help="run a recovery phase diagram over a (p, k) grid")
    ph.add_argument("--config", help="JSON config file; flags override its values")
    ph.add_argument("--n", type=int)
    ph.add_argument("--q", type=float)
    # dest is the PhaseGridConfig field each flag overrides
    ph.add_argument("--p-list", type=float, nargs="+", dest="p_values")
    ph.add_argument("--k-list", type=int, nargs="+", dest="k_values")
    ph.add_argument("--trials", type=int)
    ph.add_argument("--seed", type=int, dest="master_seed")
    ph.add_argument("--jobs", type=int, default=1)
    ph.add_argument("--out-csv")
    ph.add_argument("--out-svg")
    ph.add_argument("--out")
    _add_solver_flags(ph)
    ph.set_defaults(func=_cmd_phase)

    ben = sub.add_parser("bench", help="time one solve on a sampled instance")
    ben.add_argument("--n", type=int, default=250)
    ben.add_argument("--k", type=int, default=100)
    ben.add_argument("--p", type=float, default=0.05)
    ben.add_argument("--q", type=float, default=0.25)
    ben.add_argument("--seed", type=int, default=0)
    _add_solver_flags(ben)
    ben.add_argument("--out")
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # MemoryError: a graph header below the size guard that memory still cannot hold
    except (ValueError, OSError, KeyError, TypeError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
