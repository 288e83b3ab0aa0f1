import math
import random

import numpy as np
import pytest

from dksub.experiments import (
    PhaseCell,
    PhaseGridConfig,
    aggregate,
    emit_csv,
    emit_heatmap_svg,
    read_cells_csv,
    run_phase_diagram,
    run_trial,
)
from dksub.solver import SolverConfig


def tiny_config(**overrides):
    defaults = dict(
        n=30,
        q=0.0,
        p_values=(0.0, 0.2),
        k_values=(5, 12),
        trials=2,
        master_seed=7,
        solver=SolverConfig(max_iter=800),
    )
    defaults.update(overrides)
    return PhaseGridConfig(**defaults)


class TestConfigValidation:
    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            tiny_config(p_values=())
        with pytest.raises(ValueError):
            tiny_config(trials=0)
        with pytest.raises(ValueError):
            tiny_config(k_values=(40,))

    @pytest.mark.parametrize(
        "field,bad",
        [("n", 30.5), ("n", 30.0), ("trials", 2.5), ("k_values", (5, 4.7)), ("k_values", (True,))],
    )
    def test_rejects_non_integer_sizes(self, field, bad):
        # a k of 4.7 used to be truncated to 4
        with pytest.raises(ValueError, match="must be an integer"):
            tiny_config(**{field: bad})

    def test_numpy_integer_sizes_become_ints(self):
        cfg = tiny_config(n=np.int64(30), k_values=np.array([5, 12]), trials=np.int32(2))
        assert (cfg.n, cfg.k_values) == (30, (5, 12))
        assert type(cfg.n) is int and all(type(k) is int for k in cfg.k_values)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_recovery_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="recovery_tol"):
            tiny_config(recovery_tol=tol)

    def test_warns_when_p_plus_q_too_big(self):
        with pytest.warns(UserWarning, match="p \\+ q"):
            tiny_config(q=0.9, p_values=(0.3,))


class TestRunPhaseDiagram:
    def test_clean_cells_recover_and_small_k_does_not(self):
        cfg = tiny_config(n=60, k_values=(2, 30), p_values=(0.0,), q=0.0, trials=3)
        cells, records = run_phase_diagram(cfg)
        by_k = {c.k: c for c in cells}
        assert by_k[30].recoveries == 3
        assert by_k[2].recoveries == 0
        assert len(records) == 6

    def test_deterministic_across_runs_and_jobs(self, tmp_path):
        cfg = tiny_config()
        cells_a, _ = run_phase_diagram(cfg, jobs=1)
        cells_b, _ = run_phase_diagram(cfg, jobs=2)
        assert cells_a == cells_b
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(cells_a, cfg.n, cfg.q, path_a)
        emit_csv(cells_b, cfg.n, cfg.q, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_trial_order_does_not_change_aggregates(self):
        cfg = tiny_config()
        _, records = run_phase_diagram(cfg)
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        assert aggregate(cfg, shuffled) == aggregate(cfg, records)

    def test_failures_are_tagged_not_raised(self, monkeypatch):
        cfg = tiny_config()

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("dksub.experiments.solve_dks", boom)
        cells, records = run_phase_diagram(cfg)
        assert all(not r.recovered for r in records)
        assert all(r.error and "synthetic failure" in r.error for r in records)
        assert sum(c.trials for c in cells) == len(records)

    def test_trial_records_have_stream_derived_seeds(self):
        cfg = tiny_config()
        rec_a = run_trial(cfg, 0, 1, 0)
        rec_b = run_trial(cfg, 0, 1, 1)
        assert rec_a.seed != rec_b.seed
        rerun = run_trial(cfg, 0, 1, 0)  # deterministic apart from timing
        assert (rerun.seed, rerun.recovered, rerun.iterations, rerun.relative_error) == (
            rec_a.seed, rec_a.recovered, rec_a.iterations, rec_a.relative_error
        )

    def test_hit_cap_only_when_stopped_by_max_iter(self):
        capped = run_trial(tiny_config(solver=SolverConfig(max_iter=3)), 0, 1, 0)
        assert (capped.converged, capped.iterations, capped.hit_cap) == (False, 3, True)
        done = run_trial(tiny_config(), 0, 1, 0)
        assert done.converged and not done.hit_cap


class TestCsv:
    def cells(self):
        return [
            PhaseCell(p=0.0, k=100, trials=10, recoveries=10,
                      mean_iterations=71.5, mean_relative_error=3.2e-07),
            PhaseCell(p=0.05, k=10, trials=10, recoveries=0,
                      mean_iterations=5000.0, mean_relative_error=0.67),
        ]

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], 250, 0.25, path)
        assert path.read_text(encoding="utf-8") == (
            "n,q,p,k,trials,recoveries,mean_iterations,mean_relative_error\n"
        )

    def test_single_cell_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(self.cells()[:1], 250, 0.25, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("250,0.25,0.0,100,10,10,")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cells.csv"
        emit_csv(self.cells(), 250, 0.25, path)
        n, q, cells = read_cells_csv(path)
        assert (n, q) == (250, 0.25)
        assert cells == self.cells()

    def test_rows_sorted_by_p_then_k(self, tmp_path):
        cells = list(reversed(self.cells()))
        path = tmp_path / "sorted.csv"
        emit_csv(cells, 250, 0.25, path)
        _, _, cells_back = read_cells_csv(path)
        assert [(c.p, c.k) for c in cells_back] == [(0.0, 100), (0.05, 10)]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(self.cells(), 250, 0.25, path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_write_error_carries_path(self, tmp_path):
        target = tmp_path / "missing_dir" / "cells.csv"
        with pytest.raises(OSError, match="cells.csv"):
            emit_csv(self.cells(), 250, 0.25, target)


class TestHeatmap:
    def grid(self, fractions):
        cells = []
        for (p, k), rec in fractions.items():
            cells.append(
                PhaseCell(p=p, k=k, trials=10, recoveries=rec,
                          mean_iterations=1.0, mean_relative_error=0.0)
            )
        return cells

    def test_all_recovered_is_white(self, tmp_path):
        path = tmp_path / "white.svg"
        emit_heatmap_svg(self.grid({(0.0, 5): 10, (0.1, 5): 10}), path)
        svg = path.read_text(encoding="utf-8")
        assert svg.count('fill="#ffffff"') == 2
        assert 'fill="#000000"' not in svg

    def test_all_failed_is_black(self, tmp_path):
        path = tmp_path / "black.svg"
        emit_heatmap_svg(self.grid({(0.0, 5): 0, (0.1, 5): 0}), path)
        assert path.read_text(encoding="utf-8").count('fill="#000000"') == 2

    def test_linear_gray_levels(self, tmp_path):
        path = tmp_path / "levels.svg"
        emit_heatmap_svg(
            self.grid({(0.0, 5): 0, (0.0, 9): 5, (0.1, 5): 10, (0.1, 9): 10}), path
        )
        svg = path.read_text(encoding="utf-8")
        assert 'fill="#000000"' in svg
        assert 'fill="#808080"' in svg  # round(255/2) = 128
        assert svg.count('fill="#ffffff"') == 2

    def test_axis_labels_present(self, tmp_path):
        path = tmp_path / "axes.svg"
        emit_heatmap_svg(self.grid({(0.0, 5): 10}), path)
        svg = path.read_text(encoding="utf-8")
        assert ">p</text>" in svg
        assert ">k</text>" in svg

    def test_ragged_grid_rejected(self, tmp_path):
        cells = self.grid({(0.0, 5): 10, (0.1, 9): 10})
        with pytest.raises(ValueError, match="rectangular"):
            emit_heatmap_svg(cells, tmp_path / "ragged.svg")

    def test_deterministic_bytes(self, tmp_path):
        cells = self.grid({(0.0, 5): 3, (0.1, 5): 7})
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_heatmap_svg(cells, a)
        emit_heatmap_svg(list(reversed(cells)), b)
        assert a.read_bytes() == b.read_bytes()
