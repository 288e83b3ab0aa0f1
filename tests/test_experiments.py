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
        [("n", 30.5), ("n", 30.0), ("trials", 2.5), ("k_values", (5, 4.7)), ("k_values", (True,)),
         ("master_seed", True), ("master_seed", 1.5)],
    )
    def test_rejects_non_integer_sizes(self, field, bad):
        # a k of 4.7 used to be truncated to 4, and a master_seed of True ran as 1
        with pytest.raises(ValueError, match="must be an integer"):
            tiny_config(**{field: bad})

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError, match="master_seed must be at least 0"):
            tiny_config(master_seed=-1)

    def test_numpy_integer_sizes_become_ints(self):
        cfg = tiny_config(n=np.int64(30), k_values=np.array([5, 12]), trials=np.int32(2))
        assert (cfg.n, cfg.k_values) == (30, (5, 12))
        assert type(cfg.n) is int and all(type(k) is int for k in cfg.k_values)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_recovery_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="recovery_tol"):
            tiny_config(recovery_tol=tol)

    # each used to run as 1 or 0, or to fail with a message that named no
    # field
    @pytest.mark.parametrize(
        "field,bad,name",
        [("q", True, "q"), ("q", None, "q"), ("q", "0.1", "q"),
         ("p_values", (False,), "every p"), ("p_values", (0.0, "0.1"), "every p"),
         ("recovery_tol", True, "recovery_tol"), ("recovery_tol", None, "recovery_tol")],
    )
    def test_rejects_values_that_are_not_real_numbers(self, field, bad, name):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            tiny_config(**{field: bad})

    # each used to fail with "'float' (or 'int') object is not iterable"
    @pytest.mark.parametrize("field,bad", [("p_values", 0.1), ("k_values", 3)])
    def test_rejects_a_grid_axis_that_is_not_a_list(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be a list, got {bad}"):
            tiny_config(**{field: bad})

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
        assert aggregate(shuffled) == aggregate(records)

    def test_cell_error_reads_the_proof_where_it_fired(self):
        # the k=5, p=0 trials stop by proof at sweep 40, where their iterates
        # were at relative error 0.98, and return the planted matrix itself;
        # their cell reads the proven bound
        cells, records = run_phase_diagram(tiny_config())
        assert all(math.isfinite(c.mean_relative_error) for c in cells)
        for cell in cells:
            recs = [r for r in records if (r.p, r.k) == (cell.p, cell.k)]
            if all(r.stop == "proof_recovered" for r in recs):
                assert cell.mean_relative_error < 1e-3
                assert cell.mean_relative_error == pytest.approx(
                    np.mean([r.proven_distance for r in recs]), rel=1e-12
                )
        (clean,) = [c for c in cells if (c.p, c.k) == (0.0, 5)]
        assert clean.recoveries == 2 and clean.mean_relative_error < 1e-3
        assert all(r.relative_error == 0.0 for r in records if r.stop == "proof_recovered")

    def test_failures_are_tagged_not_raised(self, monkeypatch):
        cfg = tiny_config()

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("dksub.experiments._solve_dks", boom)
        cells, records = run_phase_diagram(cfg)
        assert all(not r.recovered for r in records)
        assert all(r.error and "synthetic failure" in r.error for r in records)
        assert all(r.stop == "error" and math.isnan(r.proven_distance) for r in records)
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
        # the p=0.2, k=12 cell, whose proof fires at sweep 5
        capped = run_trial(tiny_config(solver=SolverConfig(max_iter=3)), 1, 1, 0)
        assert (capped.converged, capped.iterations, capped.hit_cap) == (False, 3, True)
        done = run_trial(tiny_config(), 1, 1, 0)
        assert not done.hit_cap and done.stop != "cap"

    def test_paper_mode_trials_run_without_proof(self):
        # paper mode's iterates diverge, and its finite guard ends the solve
        rec = run_trial(tiny_config(solver=SolverConfig(mode="paper")), 0, 1, 0)
        assert (rec.stop, rec.converged, rec.hit_cap) == ("diverged", False, False)
        assert math.isnan(rec.proven_distance)

    # per-trial verdicts of both grids, in record order, as the grids gave
    # them before proofs could stop a trial; the stops are this version's
    @pytest.mark.parametrize(
        "overrides,verdicts,stops",
        [
            ({}, [True, True, True, True, False, True, True, True],
             ["proof_recovered"] * 4 + ["cap"] + ["proof_recovered"] * 3),
            (dict(n=60, k_values=(2, 30), p_values=(0.0,), q=0.0, trials=3),
             [False] * 3 + [True] * 3, ["cap"] * 3 + ["proof_recovered"] * 3),
        ],
    )
    def test_verdicts_match_the_solve_to_tol(self, overrides, verdicts, stops):
        _, records = run_phase_diagram(tiny_config(**overrides))
        assert [r.recovered for r in records] == verdicts
        assert [r.stop for r in records] == stops
        for r in records:
            assert (r.stop == "proof_recovered") == (r.proven_distance < 1e-3)


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
