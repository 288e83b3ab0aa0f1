import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dksub
from dksub import graphs, io, solver
from dksub.cli import _phase_config, _solver_flags, build_parser, main
from dksub.experiments import PhaseGridConfig
from dksub.io import read_graph, truth_path


def run(args):
    return main([str(a) for a in args])


def generate_dkb(tmp_path, n1, n2, k1, k2, p, q, seed):
    out = tmp_path / "b.txt"
    rc = run(
        ["generate", "--model", "dkb", "--n1", n1, "--n2", n2, "--k1", k1, "--k2", k2,
         "--p", p, "--q", q, "--seed", seed, "--out", out]
    )
    assert rc == 0
    return out


def generate_dks(tmp_path, n=20, k=8, p=0.0, q=0.0, seed=1, extra=()):
    out = tmp_path / "g.txt"
    rc = run(
        ["generate", "--model", "dks", "--n", n, "--k", k,
         "--p", p, "--q", q, "--seed", seed, "--out", out, *extra]
    )
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_graph_and_sidecar(self, tmp_path, capsys):
        out = generate_dks(tmp_path)
        assert out.exists()
        assert truth_path(out).exists()
        g = read_graph(out)
        assert g.n == 20
        assert g.edge_count == 28  # clean 8-clique

    def test_missing_required_flags(self, tmp_path):
        assert run(["generate", "--model", "dks", "--out", tmp_path / "g.txt"]) == 2

    def test_bad_params_exit_code(self, tmp_path):
        rc = run(
            ["generate", "--model", "dks", "--n", 5, "--k", 9, "--out", tmp_path / "g.txt"]
        )
        assert rc == 2

    def test_adversarial_budget_error(self, tmp_path):
        rc = run(
            ["generate", "--model", "dks", "--n", 20, "--k", 10, "--out", tmp_path / "g.txt",
             "--adv-s", 99, "--adv-delta1", 0.2]
        )
        assert rc == 2

    def test_bipartite(self, tmp_path):
        out = tmp_path / "b.txt"
        rc = run(
            ["generate", "--model", "dkb", "--n1", 10, "--n2", 12,
             "--k1", 4, "--k2", 5, "--seed", 3, "--out", out]
        )
        assert rc == 0
        truth = truth_path(out).read_text(encoding="utf-8").splitlines()
        assert truth[0] == "4 5"
        assert len(truth[1].split()) == 9

    # each used to exit 0, the dkb graph uncorrupted
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--model", "dkb", "--n1", 12, "--n2", 10, "--k1", 4, "--k2", 3,
              "--adv-r", 5, "--adv-s", 2], "the dkb model does not take --adv-r, --adv-s"),
            (["--model", "dkb", "--n1", 12, "--n2", 10, "--k1", 4, "--k2", 3,
              "--adv-seed", 0], "the dkb model does not take --adv-seed"),
            (["--model", "dks", "--n", 20, "--k", 8, "--n1", 5],
             "the dks model does not take --n1"),
            (["--n", 20, "--k", 8, "--k1", 4, "--k2", 3],
             "the dks model does not take --k1, --k2"),
        ],
    )
    def test_flag_of_the_other_model_is_bad_input(self, tmp_path, capsys, flags, message):
        out = tmp_path / "g.txt"
        assert run(["generate", *flags, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_adversarial_flags_left_out_take_their_defaults(self, tmp_path):
        # 0 additions or deletions, delta 0 and seed 0
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        given = generate_dks(tmp_path / "a", n=20, k=10, extra=["--adv-r", 3, "--adv-delta2", 0.5])
        full = ["--adv-r", 3, "--adv-s", 0, "--adv-delta1", 0.0, "--adv-delta2", 0.5,
                "--adv-seed", 0]
        spelled = generate_dks(tmp_path / "b", n=20, k=10, extra=full)
        for a, b in ((given, spelled), (truth_path(given), truth_path(spelled))):
            assert a.read_bytes() == b.read_bytes()
        assert '"adv": {"delta1": 0.0, "delta2": 0.5, "r": 3, "s": 0}' in truth_path(
            given
        ).read_text(encoding="utf-8")


class TestSolve:
    def test_solve_with_sidecar_reports_error(self, tmp_path, capsys):
        out = generate_dks(tmp_path, n=30, k=12)
        result_file = tmp_path / "result.json"
        rc = run(["solve", "--graph", out, "--k", 12, "--out", result_file])
        assert rc == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert payload["converged"] is True
        assert payload["X_relative_error_vs_ground_truth"] < 1e-3
        assert len(payload["recovered_subset"]) == 12
        assert payload["objective"] == pytest.approx(12.0, abs=0.05)
        assert payload["hit_cap"] is False
        assert payload["blas_threads"] == {
            name: None if controls is None else 1
            for name, controls in solver._blas_controls().items()
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solve_stops_by_proof_at_the_sidecar_set(self, tmp_path, seed):
        # the phase-pool shape: the solver's own dual proves the planted set
        # optimal within a few sweeps, and the solve returns its matrix
        out = generate_dks(tmp_path, n=60, k=24, p=0.05, q=0.25, seed=seed)
        result_file = tmp_path / "result.json"
        assert run(["solve", "--graph", out, "--k", 24, "--out", result_file]) == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        truth = io.read_ground_truth(truth_path(out))
        assert payload["stop"] == "proof"
        assert 0.0 < payload["proven_distance"] < 1e-4
        assert (payload["converged"], payload["hit_cap"]) == (True, False)
        assert payload["iterations"] < 30
        assert payload["recovered_subset"] == list(truth.subset(read_graph(out)).members)
        assert payload["X_relative_error_vs_ground_truth"] == 0.0

    def test_proof_stop_takes_the_subset_from_the_support(self, tmp_path, monkeypatch):
        # a proof returns X = 1_T1 1_T2', so T is read off its support and
        # no SVD runs; it is the subset that round_to_subset gives
        generate_dks(tmp_path, n=60, k=24, p=0.05, q=0.25, seed=0)
        run(["generate", "--model", "dkb", "--n1", 16, "--n2", 16, "--k1", 6, "--k2", 6,
             "--seed", 2, "--out", tmp_path / "b.txt"])
        square, pair = read_graph(tmp_path / "g.txt"), io.read_bipartite(tmp_path / "b.txt")
        expected = [
            list(solver.round_to_subset(solver.solve_dks(square, 24).X, 24).members),
            {side: list(s.members) for side, s in zip(
                "uv", solver.round_to_subset(solver.solve_dkb(pair, 6, 6).X, (6, 6)))},
        ]

        def refuse(X, k):
            raise AssertionError("round_to_subset after a proof")

        monkeypatch.setattr(solver, "round_to_subset", refuse)
        for argv, subset in zip(
            (["--graph", tmp_path / "g.txt", "--k", 24],
             ["--graph", tmp_path / "b.txt", "--k1", 6, "--k2", 6]),
            expected,
        ):
            result_file = tmp_path / "result.json"
            assert run(["solve", *argv, "--out", result_file]) == 0
            payload = json.loads(result_file.read_text(encoding="utf-8"))
            assert (payload["stop"], payload["recovered_subset"]) == ("proof", subset)

    def test_solve_reports_the_final_penalty(self, tmp_path):
        # this solve runs to tol at sweep 190, and residual balancing
        # doubles tau on the way
        out = generate_dks(tmp_path, n=30, k=12, p=0.3, q=0.4, seed=1)
        result_file = tmp_path / "result.json"
        assert run(["solve", "--graph", out, "--k", 12, "--out", result_file]) == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert payload["tau"] == solver.solve_dks(read_graph(out), 12).tau == 0.7

    def test_solve_without_proof_writes_null_distance(self, tmp_path):
        out = generate_dks(tmp_path, n=30, k=12, p=0.3, q=0.4, seed=1)
        result_file = tmp_path / "result.json"
        assert run(["solve", "--graph", out, "--k", 12, "--max-iter", 5, "--out", result_file]) == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert (payload["stop"], payload["proven_distance"]) == ("cap", None)

    def test_solve_bipartite(self, tmp_path):
        graph_file = tmp_path / "b.txt"
        run(
            ["generate", "--model", "dkb", "--n1", 16, "--n2", 16,
             "--k1", 6, "--k2", 6, "--seed", 2, "--out", graph_file]
        )
        result_file = tmp_path / "result.json"
        rc = run(
            ["solve", "--graph", graph_file, "--k1", 6, "--k2", 6, "--out", result_file]
        )
        assert rc == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert payload["converged"] is True
        assert payload["X_relative_error_vs_ground_truth"] < 1e-3
        assert sorted(payload["recovered_subset"]) == ["u", "v"]

    @pytest.mark.parametrize(
        "n1,n2,k1,k2,u,v",
        [
            (20, 12, 8, 5, [0, 2, 5, 8, 11, 14, 15, 17], [5, 6, 8, 10, 11]),
            # not the planted v (5 6 8 9 10 13 16 18): noise moves one node
            (12, 20, 5, 8, [1, 2, 8, 9, 11], [5, 8, 9, 10, 11, 13, 16, 18]),
        ],
    )
    def test_solve_bipartite_json(self, tmp_path, n1, n2, k1, k2, u, v):
        # unequal sides, tall and wide, with noise: pinned payload keys and
        # rounded subsets
        graph_file = tmp_path / "b.txt"
        run(
            ["generate", "--model", "dkb", "--n1", n1, "--n2", n2, "--k1", k1, "--k2", k2,
             "--p", 0.1, "--q", 0.3, "--seed", 4, "--out", graph_file]
        )
        result_file = tmp_path / "result.json"
        assert run(
            ["solve", "--graph", graph_file, "--k1", k1, "--k2", k2, "--out", result_file]
        ) == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert sorted(payload) == [
            "X_relative_error_vs_ground_truth", "anderson_accepted", "anderson_rejected",
            "blas_threads", "converged", "dual_residual", "hit_cap",
            "iterations", "objective", "primal_residual", "proven_distance",
            "recovered_subset", "stop", "tau",
        ]
        assert payload["recovered_subset"] == {"u": u, "v": v}

    def test_diverging_paper_mode_writes_strict_json(self, tmp_path):
        # the diverged residuals and relative error are written as null, and
        # the overflow in relative_error is silenced as it is in the solve;
        # run as a process so that stderr is the real one
        run(["generate", "--model", "dkb", "--n1", 40, "--n2", 36, "--k1", 12, "--k2", 10,
             "--seed", 2, "--out", tmp_path / "pb.txt"])
        src = str(Path(dksub.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from dksub.cli import main; sys.exit(main())",
             "solve", "--graph", str(tmp_path / "pb.txt"), "--k1", "12", "--k2", "10",
             "--mode", "paper"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.returncode, done.stderr) == (0, "")

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(done.stdout, parse_constant=reject)
        assert payload["primal_residual"] is None
        assert payload["X_relative_error_vs_ground_truth"] is None

    def test_zero_size_sidecar_is_bad_input(self, tmp_path, capsys):
        out = generate_dks(tmp_path)
        truth_path(out).write_text("0\n\n{}\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["solve", "--graph", out, "--k", 8]) == 2
        assert "each at least 1" in capsys.readouterr().err

    def test_missing_k_is_bad_input(self, tmp_path):
        out = generate_dks(tmp_path)
        assert run(["solve", "--graph", out]) == 2

    def test_missing_file_is_bad_input(self, tmp_path):
        assert run(["solve", "--graph", tmp_path / "nope.txt", "--k", 3]) == 2

    @pytest.mark.parametrize("flag", ["--gamma", "--tau", "--tol"])
    def test_non_finite_solver_flag_is_bad_input(self, tmp_path, capsys, flag):
        out = generate_dks(tmp_path)
        capsys.readouterr()
        assert run(["solve", "--graph", out, "--k", 8, flag, "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_unallocatable_node_count_is_bad_input(self, tmp_path, capsys):
        graph_file = tmp_path / "huge.txt"
        graph_file.write_text("100000000 0\n", encoding="utf-8")
        assert run(["solve", "--graph", graph_file, "--k", 3]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        out = generate_dks(tmp_path)
        capsys.readouterr()

        def dsyevd(M, lower=0):
            return np.zeros(M.shape[0]), np.zeros(M.shape), 1

        monkeypatch.setattr(solver.lapack, "dsyevd", dsyevd)
        assert run(["solve", "--graph", out, "--k", 8]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: dsyevd failed")

    @pytest.mark.parametrize(
        "header,sizes", [("1000000 0", ["--k", 3]), ("1000000 1000000 0", ["--k1", 3, "--k2", 3])]
    )
    def test_oversized_header_is_refused_before_allocation(
        self, tmp_path, capsys, monkeypatch, header, sizes
    ):
        class NumpySpy:
            def __init__(self):
                self.zeros_calls = []

            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, *args, **kwargs):
                self.zeros_calls.append(args)
                raise MemoryError("numpy.zeros called")

        spy = NumpySpy()
        monkeypatch.setattr(graphs, "np", spy)
        graph_file = tmp_path / "huge.txt"
        graph_file.write_text(header + "\n", encoding="utf-8")
        assert run(["solve", "--graph", graph_file, *sizes]) == 2
        assert "exceeds half of physical memory" in capsys.readouterr().err
        assert spy.zeros_calls == []


class TestCertify:
    def test_valid_certificate_json(self, tmp_path):
        out = generate_dks(tmp_path, n=40, k=16)
        result_file = tmp_path / "cert.json"
        rc = run(["certify", "--graph", out, "--out", result_file])
        assert rc == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert payload["valid_strict"] is True
        assert payload["stationarity_residual"] <= 1e-10
        assert payload["margins"]["one_minus_W_norm"] > 0

    def test_explicit_pq_and_epsilon(self, tmp_path):
        out = generate_dks(tmp_path, n=40, k=16, p=0.1, q=0.1, seed=5)
        rc = run(
            ["certify", "--graph", out, "--p", 0.1, "--q", 0.1,
             "--epsilon", 0.2, "--gamma", 0.4]
        )
        assert rc == 0

    def test_estimate_pq(self, tmp_path):
        out = generate_dks(tmp_path, n=40, k=16, p=0.1, q=0.1, seed=5)
        result_file = tmp_path / "cert.json"
        assert run(["certify", "--graph", out, "--estimate-pq", "--out", result_file]) == 0
        payload = json.loads(result_file.read_text(encoding="utf-8"))
        assert payload["stationarity_residual"] <= 1e-10
        assert 0.0 < payload["W_norm_error_bound"] < 1e-10

    def test_estimate_pq_with_explicit_pq_is_bad_input(self, tmp_path, capsys):
        out = generate_dks(tmp_path, n=40, k=16)
        rc = run(["certify", "--graph", out, "--estimate-pq", "--p", 0.1, "--q", 0.1])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_requires_sidecar(self, tmp_path):
        out = generate_dks(tmp_path)
        truth_path(out).unlink()
        assert run(["certify", "--graph", out]) == 2

    def test_adversarial_sidecar_gives_its_base_pq(self, tmp_path, capsys):
        adv = ["--adv-r", 2, "--adv-s", 2, "--adv-delta1", 0.25, "--adv-delta2", 0.25]
        out = generate_dks(tmp_path, extra=adv)
        assert '"base"' in truth_path(out).read_text(encoding="utf-8")
        capsys.readouterr()
        assert run(["certify", "--graph", out]) == 0
        from_sidecar = capsys.readouterr().out
        assert run(["certify", "--graph", out, "--p", 0, "--q", 0]) == 0
        assert from_sidecar == capsys.readouterr().out

    def test_sidecar_without_pq_is_bad_input(self, tmp_path, capsys):
        out = generate_dks(tmp_path)
        lines = truth_path(out).read_text(encoding="utf-8").splitlines()
        truth_path(out).write_text(f"{lines[0]}\n{lines[1]}\n{{}}\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["certify", "--graph", out]) == 2
        assert "--estimate-pq" in capsys.readouterr().err

    # false and "0.1" used to exit 0 with a report at p=0 or q=0.1; "x" and
    # null exited 2 with a message that named no key
    @pytest.mark.parametrize("value", [False, "0.1", "x", None])
    @pytest.mark.parametrize("key", ["p", "base.q"])
    def test_sidecar_pq_that_is_not_a_real_number_is_bad_input(
        self, tmp_path, capsys, value, key
    ):
        out = generate_dks(tmp_path, n=40, k=16)
        lines = truth_path(out).read_text(encoding="utf-8").splitlines()
        pq = {"p": 0.0, "q": 0.0, key.removeprefix("base."): value}
        params = json.dumps({"base": pq} if key.startswith("base.") else pq)
        truth_path(out).write_text(f"{lines[0]}\n{lines[1]}\n{params}\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["certify", "--graph", out]) == 2
        captured = capsys.readouterr()
        assert f"sidecar {key} must be a real number" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_p_or_q_alone_is_bad_input(self, tmp_path, capsys, flag):
        out = generate_dks(tmp_path)
        capsys.readouterr()
        assert run(["certify", "--graph", out, flag, 0.1]) == 2
        assert "pass --p and --q together" in capsys.readouterr().err

    # each used to exit 0 with a report, or exit 2 naming no parameter
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--p", -0.5, "--q", 0.1], "p must be at least 0"),
            (["--p", 0.1, "--q", -3], "q must be at least 0"),
            (["--p", "nan", "--q", 0.1], "p must be at least 0"),
            (["--p", 0.1, "--q", 1.5, "--epsilon", 0.1], "p < 1 - q"),
            (["--p", 0.6, "--q", 0.6, "--epsilon", 0.1], "p < 1 - q"),
            (["--epsilon", 0], "epsilon_slack must be positive and finite"),
            (["--epsilon", "nan"], "epsilon_slack must be positive and finite"),
            (["--gamma", "inf"], "gamma must be positive and finite"),
            (["--gamma", "nan"], "gamma must be positive and finite"),
        ],
    )
    def test_parameters_outside_the_construction_are_bad_input(
        self, tmp_path, capsys, flags, message
    ):
        out = generate_dks(tmp_path, p=0.1, q=0.1)
        capsys.readouterr()
        assert run(["certify", "--graph", out, *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize("params", ["[1]", '"x"'])
    def test_sidecar_params_not_an_object_is_bad_input(self, tmp_path, capsys, command, params):
        out = generate_dks(tmp_path)
        lines = truth_path(out).read_text(encoding="utf-8").splitlines()
        truth_path(out).write_text(f"{lines[0]}\n{lines[1]}\n{params}\n", encoding="utf-8")
        capsys.readouterr()
        k = ["--k", 8] if command == "solve" else []
        assert run([command, "--graph", out, *k]) == 2
        assert "third line must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "solve"])
    def test_sidecar_sizes_of_the_other_kind_are_bad_input(self, tmp_path, capsys, command):
        out = generate_dks(tmp_path)
        truth_path(out).write_text("4 3\n0 1 2 3 4 5 6\n{}\n", encoding="utf-8")
        capsys.readouterr()
        k = ["--k", 8] if command == "solve" else []
        assert run([command, "--graph", out, *k]) == 2
        assert "sizes '4 3' do not fit a unipartite graph" in capsys.readouterr().err

    def test_single_size_sidecar_beside_a_bipartite_graph_is_bad_input(self, tmp_path, capsys):
        out = generate_dkb(tmp_path, n1=10, n2=9, k1=4, k2=3, p=0.1, q=0.3, seed=5)
        truth_path(out).write_text("7\n0 1 2 3 4 5 6\n{}\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["solve", "--graph", out, "--k1", 4, "--k2", 3]) == 2
        assert "sizes '7' do not fit a bipartite graph" in capsys.readouterr().err


class TestOracleCmd:
    def test_unipartite(self, tmp_path, capsys):
        out = generate_dks(tmp_path, n=14, k=6)
        capsys.readouterr()  # drop the generate message
        rc = run(["oracle", "--graph", out, "--k", 6])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_edge_count"] == 15
        assert payload["num_optima"] == 1

    def test_guard_is_bad_input(self, tmp_path):
        out = generate_dks(tmp_path, n=40, k=8)
        assert run(["oracle", "--graph", out, "--k", 20]) == 2

    def test_bipartite(self, tmp_path, capsys):
        out = generate_dkb(tmp_path, n1=10, n2=9, k1=4, k2=3, p=0.1, q=0.3, seed=5)
        capsys.readouterr()
        assert run(["oracle", "--graph", out, "--k1", 4, "--k2", 3]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "best_edge_count": 10,
            "num_optima": 2,
            "first_optimum": {"u": [0, 3, 7, 8], "v": [0, 4, 7]},
        }

    @pytest.mark.parametrize("command", ["oracle", "solve"])
    @pytest.mark.parametrize("sizes", [[], ["--k1", 4], ["--k2", 3], ["--k", 4]])
    def test_bipartite_without_k1_k2_is_bad_input(self, tmp_path, capsys, command, sizes):
        out = generate_dkb(tmp_path, n1=10, n2=9, k1=4, k2=3, p=0.1, q=0.3, seed=5)
        capsys.readouterr()
        assert run([command, "--graph", out, *sizes]) == 2
        assert "--k1 and --k2 are required" in capsys.readouterr().err


class TestGraphFile:
    @pytest.mark.parametrize(
        "command,sizes",
        [("solve", ["--k", 6]), ("oracle", ["--k", 6]), ("certify", []),
         ("solve", ["--k1", 4, "--k2", 3]), ("oracle", ["--k1", 4, "--k2", 3])],
    )
    def test_each_command_parses_the_graph_once(self, tmp_path, monkeypatch, command, sizes):
        # solve and oracle used to read the file once for its kind, then again
        if "--k" in sizes or command == "certify":
            out = generate_dks(tmp_path, n=14, k=6)
        else:
            out = generate_dkb(tmp_path, n1=10, n2=9, k1=4, k2=3, p=0.1, q=0.3, seed=5)
        parsed = []
        data_lines = io._data_lines
        monkeypatch.setattr(
            io, "_data_lines", lambda path: parsed.append(path) or data_lines(path)
        )
        assert run([command, "--graph", out, *sizes]) == 0
        assert parsed == [out]

    @pytest.mark.parametrize(
        "content,message",
        [("", "empty graph file"), ("# a comment\n\n", "empty graph file"),
         ("5\n", "unrecognized header '5'"),
         ("1 2 3 4\n0 1\n", "unrecognized header '1 2 3 4'")],
    )
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_header_of_no_kind_is_bad_input(self, tmp_path, capsys, command, content, message):
        graph_file = tmp_path / "bad.txt"
        graph_file.write_text(content, encoding="utf-8")
        assert run([command, "--graph", graph_file, "--k", 2]) == 2
        assert capsys.readouterr().err == f"error: {graph_file}: {message}\n"

    # each used to exit 2 with int()'s message, which names neither the file
    # nor the line
    @pytest.mark.parametrize("content,line", [("8 x\n", "8 x"), ("3 1\n0 x\n", "0 x")])
    @pytest.mark.parametrize("command", ["solve", "oracle", "certify"])
    def test_non_integer_token_is_bad_input(self, tmp_path, capsys, command, content, line):
        graph_file = tmp_path / "bad.txt"
        graph_file.write_text(content, encoding="utf-8")
        k = [] if command == "certify" else ["--k", 2]
        assert run([command, "--graph", graph_file, *k]) == 2
        assert capsys.readouterr().err == f"error: {graph_file}: non-integer token in {line!r}\n"

    # each used to exit 2 with int()'s or json's message
    @pytest.mark.parametrize(
        "index,bad,message",
        [
            (0, "8 y", "non-integer token in '8 y'"),
            (1, "0 1 z", "non-integer token in '0 1 z'"),
            (2, "{bad",
             "third line is not JSON (Expecting property name enclosed in double quotes): '{bad'"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_bad_sidecar_token_is_bad_input(self, tmp_path, capsys, command, index, bad, message):
        out = generate_dks(tmp_path)
        lines = truth_path(out).read_text(encoding="utf-8").splitlines()
        lines[index] = bad
        truth_path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        k = ["--k", 8] if command == "solve" else []
        assert run([command, "--graph", out, *k]) == 2
        assert capsys.readouterr().err == f"error: {truth_path(out)}: {message}\n"

    @pytest.mark.parametrize("header", ["2 2 0", "5", "1 2 3 4"])
    def test_certify_needs_an_n_m_header(self, tmp_path, capsys, header):
        out = generate_dks(tmp_path)
        out.write_text(header + "\n0 1 2\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["certify", "--graph", out]) == 2
        assert capsys.readouterr().err == f"error: {out}: expected header 'N M', got {header!r}\n"


class TestPhase:
    def test_tiny_grid_with_outputs(self, tmp_path, capsys):
        csv_file = tmp_path / "cells.csv"
        svg_file = tmp_path / "heat.svg"
        rc = run(
            ["phase", "--n", 30, "--q", 0.0, "--p-list", 0.0, "--k-list", 4, 14,
             "--trials", 2, "--seed", 3, "--jobs", 1, "--max-iter", 600,
             "--out-csv", csv_file, "--out-svg", svg_file]
        )
        assert rc == 0
        assert csv_file.exists() and svg_file.exists()
        lines = csv_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 2
        assert sum(payload["stops"].values()) == 4

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps(
                {
                    "n": 25, "q": 0.0, "p_values": [0.0], "k_values": [10],
                    "trials": 1, "master_seed": 1,
                    "solver": {"max_iter": 500},
                }
            ),
            encoding="utf-8",
        )
        rc = run(["phase", "--config", config, "--trials", 2])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"][0]["trials"] == 2
        assert payload["n"] == 25

    def test_bad_config_is_bad_input(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json", encoding="utf-8")
        assert run(["phase", "--config", config]) == 2

    def test_non_object_config_is_bad_input(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert run(["phase", "--config", config]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_non_object_solver_config_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"solver": [1]}), encoding="utf-8")
        assert run(["phase", "--config", config]) == 2
        assert '"solver" must be a JSON object' in capsys.readouterr().err

    # no large count: that would start real worker processes
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_bad_input(self, capsys, jobs):
        argv = ["phase", "--n", 10, "--k-list", 3, "--p-list", 0.0, "--trials", 1]
        assert run([*argv, "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err

    def test_negative_seed_is_bad_input(self, capsys):
        argv = ["phase", "--n", 10, "--k-list", 3, "--p-list", 0.0, "--trials", 1, "--jobs", 1]
        assert run([*argv, "--seed", -1]) == 2
        assert "master_seed must be at least 0" in capsys.readouterr().err

    def test_recovery_tol_out_of_range_is_bad_input(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"n": 10, "recovery_tol": -1}), encoding="utf-8")
        assert run(["phase", "--config", config, "--k-list", 3, "--jobs", 1]) == 2
        assert "recovery_tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,field",
        [
            # n=10.5 used to exit 0 with every trial's TypeError swallowed
            ({"n": 10.5}, "n"),
            ({"n": 10, "k_values": [4.7]}, "every k"),
            ({"n": 10, "solver": {"max_iter": 10.5}}, "max_iter"),
            ({"n": 10, "master_seed": True}, "master_seed"),
        ],
    )
    def test_non_integer_config_value_is_bad_input(self, tmp_path, capsys, config, field):
        path = tmp_path / "grid.json"
        grid = {"k_values": [4], "p_values": [0.0], "q": 0.0, "trials": 2, **config}
        path.write_text(json.dumps(grid), encoding="utf-8")
        assert run(["phase", "--config", path, "--jobs", 1]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,field",
        [
            # the first four used to exit 0, running as 1 or 0; the last two
            # exited 2 with a message that named no key
            ({"solver": {"tau": True}}, "tau"),
            ({"q": True}, "q"),
            ({"recovery_tol": True}, "recovery_tol"),
            ({"p_values": [False]}, "every p"),
            ({"solver": {"tol": "1e-4"}}, "tol"),
            ({"q": None}, "q"),
        ],
    )
    def test_config_value_that_is_not_a_real_number_is_bad_input(
        self, tmp_path, capsys, config, field
    ):
        path = tmp_path / "grid.json"
        grid = {"n": 10, "k_values": [4], "p_values": [0.0], "q": 0.0, "trials": 2, **config}
        path.write_text(json.dumps(grid), encoding="utf-8")
        assert run(["phase", "--config", path, "--jobs", 1]) == 2
        assert f"{field} must be a real number" in capsys.readouterr().err

    # each used to exit 2 with "'float' (or 'int') object is not iterable"
    @pytest.mark.parametrize("field,value", [("p_values", 0.1), ("k_values", 3)])
    def test_grid_axis_that_is_not_a_list_is_bad_input(self, tmp_path, capsys, field, value):
        path = tmp_path / "grid.json"
        grid = {"n": 10, "k_values": [3], "p_values": [0.1], field: value}
        path.write_text(json.dumps(grid), encoding="utf-8")
        assert run(["phase", "--config", path, "--jobs", 1]) == 2
        assert f"{field} must be a list, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--p-list", -0.5], ["--p-list", 0.0, 1.5], ["--q", 1.5], ["--q", -0.1]]
    )
    def test_probability_out_of_range_is_bad_input(self, capsys, flags):
        argv = ["phase", "--n", 10, "--k-list", 3, "--trials", 2, "--jobs", 1, *flags]
        if "--p-list" not in flags:
            argv += ["--p-list", 0.0]
        assert run(argv) == 2
        assert "must lie in [0, 1]" in capsys.readouterr().err


class TestPhaseConfig:
    CONFIG = {"n": 30, "q": 0.2, "p_values": [0.0], "k_values": [5], "trials": 2, "master_seed": 1}

    @pytest.mark.parametrize(
        "flags,field,value",
        [
            (["--n", 40], "n", 40),
            (["--q", 0.1], "q", 0.1),
            (["--p-list", 0.05, 0.1], "p_values", (0.05, 0.1)),
            (["--k-list", 6, 8], "k_values", (6, 8)),
            (["--trials", 3], "trials", 3),
            (["--seed", 9], "master_seed", 9),
        ],
    )
    def test_flag_overrides_config_key(self, tmp_path, flags, field, value):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        args = build_parser().parse_args(["phase", "--config", str(path), *map(str, flags)])
        assert _phase_config(args) == PhaseGridConfig(**{**self.CONFIG, field: value})

    def test_no_flags_and_no_file_give_the_default_grid(self):
        cfg = _phase_config(build_parser().parse_args(["phase"]))
        assert cfg == PhaseGridConfig()
        assert cfg == PhaseGridConfig(
            n=250, q=0.25, p_values=(0.0, 0.05, 0.10, 0.15, 0.20),
            k_values=(10, 25, 50, 75, 100, 125, 150), trials=10, master_seed=0,
            solver=solver.SolverConfig(), recovery_tol=1e-3,
        )

    def test_unknown_key_is_bad_input(self, tmp_path, capsys):
        # a misspelt "trials" used to run the default 10 trials and exit 0
        path = tmp_path / "grid.json"
        grid = {"n": 10, "q": 0.0, "p_values": [0.0], "k_values": [3], "trails": 1}
        path.write_text(json.dumps(grid), encoding="utf-8")
        assert run(["phase", "--config", path, "--jobs", 1]) == 2
        assert "trails" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[500], 500, "max_iter", None])
    def test_solver_that_is_not_an_object_is_bad_input(self, tmp_path, value):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"n": 10, "k_values": [3], "solver": value}), encoding="utf-8")
        assert run(["phase", "--config", path, "--jobs", 1]) == 2


class TestSolverFlags:
    @pytest.mark.parametrize("argv", [["solve", "--graph", "g.txt"], ["bench"]])
    def test_no_flags_give_solver_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert solver.SolverConfig(**_solver_flags(args)) == solver.SolverConfig()

    def test_flags_override(self):
        args = build_parser().parse_args(["bench", "--tau", "0.5", "--mode", "paper"])
        assert _solver_flags(args) == {"tau": 0.5, "mode": "paper"}


class TestBench:
    def test_bench_reports_timing(self, tmp_path, capsys):
        rc = run(["bench", "--n", 40, "--k", 16, "--p", 0.0, "--q", 0.0, "--seed", 1])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["hit_cap"] is False
        assert payload["anderson_accepted"] == payload["anderson_rejected"] == 0
        assert payload["stop"] == "proof" and payload["proven_distance"] < 1e-4
        assert payload["tau"] == 0.35
        assert payload["wall_time_s"] > 0
        assert payload["ms_per_iteration"] > 0
        expected = {
            name: None if controls is None else 1
            for name, controls in solver._blas_controls().items()
        }
        assert payload["blas_threads"] == expected
