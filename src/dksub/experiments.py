"""Phase-diagram harness: recovery probability over a (p, k) grid.

Every trial is a pure function of (master_seed, p_index, k_index, trial), so
on a fixed BLAS build (numpy/scipy wheels and their bundled OpenBLAS) grids
are reproducible bit for bit, and trials can be farmed out to a process pool
without affecting the result.  The BLAS thread count does not matter, since
every solve runs on one thread.  Failed trials count as non-recoveries and
carry an error tag; they never abort the grid.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .models import PlantedDksParams, child_seed, sample_dks
from .solver import SolverConfig, _one_blas_thread, _require_int, relative_error, solve_dks


@dataclass(frozen=True)
class PhaseGridConfig:
    """A (p, k) recovery grid.  The defaults are the desk-scale grid, whose
    axes subsample the full sweep for minutes-scale runtime."""

    n: int = 250
    q: float = 0.25
    p_values: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    k_values: tuple[int, ...] = (10, 25, 50, 75, 100, 125, 150)
    trials: int = 10
    master_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    recovery_tol: float = 1e-3

    def __post_init__(self):
        _require_int(self.n, "n")
        _require_int(self.trials, "trials")
        for k in self.k_values:
            _require_int(k, "every k")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.p_values or not self.k_values:
            raise ValueError("p and k grids must be nonempty")
        if any(not 1 <= k <= self.n for k in self.k_values):
            raise ValueError("every k must satisfy 1 <= k <= n")
        if not (0.0 <= self.q <= 1.0 and all(0.0 <= p <= 1.0 for p in self.p_values)):
            raise ValueError("p and q must lie in [0, 1]")
        if not 0.0 < self.recovery_tol < math.inf:
            raise ValueError("recovery_tol must be positive and finite")
        if any(p + self.q >= 1 for p in self.p_values):
            warnings.warn("some cells have p + q >= 1; recovery is not expected there")


@dataclass(frozen=True)
class TrialRecord:
    p: float
    k: int
    trial: int
    seed: int
    recovered: bool
    iterations: int
    converged: bool
    relative_error: float
    wall_time: float
    hit_cap: bool = False  # stopped by max_iter rather than by tol or the finite guard
    error: str | None = None


@dataclass(frozen=True)
class PhaseCell:
    p: float
    k: int
    trials: int
    recoveries: int
    mean_iterations: float
    mean_relative_error: float


def run_trial(cfg: PhaseGridConfig, p_idx: int, k_idx: int, trial: int) -> TrialRecord:
    """Run one (generate, solve, check) trial of the grid."""
    p = cfg.p_values[p_idx]
    k = cfg.k_values[k_idx]
    seed = child_seed(cfg.master_seed, p_idx, k_idx, trial)
    start = time.perf_counter()
    try:
        inst = sample_dks(PlantedDksParams(n=cfg.n, k=k, p=p, q=cfg.q, seed=seed))
        result = solve_dks(inst.graph, k, cfg.solver)
        err = relative_error(result.X, inst.planted)
        if not np.isfinite(err):
            err = float("nan")
        return TrialRecord(
            p=p, k=k, trial=trial, seed=seed,
            recovered=bool(err < cfg.recovery_tol),
            iterations=result.iterations,
            converged=result.converged,
            relative_error=float(err),
            wall_time=time.perf_counter() - start,
            hit_cap=result.hit_cap,
        )
    except Exception as exc:  # record the failure, never abort the grid
        return TrialRecord(
            p=p, k=k, trial=trial, seed=seed,
            recovered=False, iterations=0, converged=False,
            relative_error=float("nan"),
            wall_time=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


def aggregate(cfg: PhaseGridConfig, records: list[TrialRecord]) -> list[PhaseCell]:
    """Collapse trial records into per-cell counts, sorted by (p, k).

    Aggregates depend only on the multiset of records per cell, not on
    their order.
    """
    by_cell: dict[tuple[float, int], list[TrialRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.p, rec.k), []).append(rec)
    cells = []
    for (p, k) in sorted(by_cell):
        recs = by_cell[(p, k)]
        errs = np.array([r.relative_error for r in recs])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-nan cells
            mean_err = float(np.nanmean(errs)) if len(errs) else float("nan")
        cells.append(
            PhaseCell(
                p=p, k=k, trials=len(recs),
                recoveries=sum(r.recovered for r in recs),
                mean_iterations=float(np.mean([r.iterations for r in recs])),
                mean_relative_error=mean_err,
            )
        )
    return cells


def run_phase_diagram(
    cfg: PhaseGridConfig, jobs: int = 1
) -> tuple[list[PhaseCell], list[TrialRecord]]:
    """Run every (p, k, trial) cell of the grid and aggregate.

    With jobs > 1 trials are mapped over a process pool; each trial's RNG
    stream and output slot are functions of its indices, so the result does
    not depend on scheduling.  The pool is created with BLAS pinned to one
    thread, so forked workers start on one and their solves never call a
    thread setter (which would start OpenBLAS's thread pool in each worker).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [
        (p_idx, k_idx, trial)
        for p_idx in range(len(cfg.p_values))
        for k_idx in range(len(cfg.k_values))
        for trial in range(cfg.trials)
    ]
    if jobs > 1:
        with _one_blas_thread(), ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_trial, repeat(cfg), *zip(*tasks), chunksize=1))
    else:
        records = [run_trial(cfg, *t) for t in tasks]
    return aggregate(cfg, records), records


CSV_COLUMNS = ("n", "q", "p", "k", "trials", "recoveries", "mean_iterations", "mean_relative_error")


def emit_csv(cells: list[PhaseCell], n: int, q: float, path: str | Path) -> None:
    """Write one row per cell, sorted by (p, k), with a mandatory header."""
    rows = sorted(cells, key=lambda c: (c.p, c.k))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for c in rows:
                writer.writerow(
                    [n, repr(q), repr(c.p), c.k, c.trials, c.recoveries,
                     repr(c.mean_iterations), repr(c.mean_relative_error)]
                )
    except OSError as exc:
        raise OSError(f"could not write {path}: {exc}") from exc


def read_cells_csv(path: str | Path) -> tuple[int | None, float | None, list[PhaseCell]]:
    """Inverse of :func:`emit_csv`; returns (n, q, cells)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        n = q = None
        cells = []
        for row in reader:
            n = int(row[0])
            q = float(row[1])
            cells.append(
                PhaseCell(
                    p=float(row[2]), k=int(row[3]), trials=int(row[4]),
                    recoveries=int(row[5]), mean_iterations=float(row[6]),
                    mean_relative_error=float(row[7]),
                )
            )
    return n, q, cells


CELL_PX = 48
MARGIN_LEFT = 64
MARGIN_BOTTOM = 46
MARGIN_TOP = 14
MARGIN_RIGHT = 14


def emit_heatmap_svg(cells: list[PhaseCell], path: str | Path) -> None:
    """Grayscale recovery heatmap: one rect per cell, recovery fraction
    mapped linearly from black (0) to white (1); p on the x axis, k on the y
    axis.  Output bytes are deterministic for a fixed cell list."""
    ps = sorted({c.p for c in cells})
    ks = sorted({c.k for c in cells})
    table = {(c.p, c.k): c for c in cells}
    if len(table) != len(cells) or len(cells) != len(ps) * len(ks):
        raise ValueError("heatmap needs a full rectangular (p, k) grid")
    width = MARGIN_LEFT + CELL_PX * len(ps) + MARGIN_RIGHT
    height = MARGIN_TOP + CELL_PX * len(ks) + MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="#c8c8c8"/>',
    ]
    for col, p in enumerate(ps):
        for row, k in enumerate(reversed(ks)):  # larger k on top
            c = table[(p, k)]
            level = round(255 * c.recoveries / c.trials)
            fill = f"#{level:02x}{level:02x}{level:02x}"
            x = MARGIN_LEFT + col * CELL_PX
            y = MARGIN_TOP + row * CELL_PX
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" fill="{fill}"/>'
            )
    for col, p in enumerate(ps):
        x = MARGIN_LEFT + col * CELL_PX + CELL_PX // 2
        y = MARGIN_TOP + CELL_PX * len(ks) + 16
        parts.append(
            f'<text x="{x}" y="{y}" font-size="11" text-anchor="middle">{p!r}</text>'
        )
    for row, k in enumerate(reversed(ks)):
        x = MARGIN_LEFT - 6
        y = MARGIN_TOP + row * CELL_PX + CELL_PX // 2 + 4
        parts.append(
            f'<text x="{x}" y="{y}" font-size="11" text-anchor="end">{k}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + CELL_PX * len(ps) // 2}" y="{height - 10}" '
        f'font-size="12" text-anchor="middle">p</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + CELL_PX * len(ks) // 2}" '
        f'font-size="12" text-anchor="middle">k</text>'
    )
    parts.append("</svg>")
    try:
        Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
    except OSError as exc:
        raise OSError(f"could not write {path}: {exc}") from exc
