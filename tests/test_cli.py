import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sampledlq.cli as cli
from sampledlq.oracle import cross_check


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, name="p.json", **overrides):
    doc = {
        "a": 0.0, "b": 1.0, "n": 1, "m": 1,
        "A": [[0.5]], "B": [[1.0]], "W": [[2.0]], "R": [[1.0]], "S": [[0.0]],
        "qa": [1.0],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    def test_scalar_benchmark(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--problem", "dontchev",
                                 "--grid", "uniform:1")
        assert code == 0 and err == ""
        assert "N=1" in out and "M=64" in out
        assert "-0.8471111" in out
        assert "predicted cost = 1.005286555" in out
        assert "simulated cost = 1.005286555" in out
        assert "q(b) = [0.5496432" in out

    def test_substeps_flag(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", "dontchev",
                               "--grid", "uniform:1", "--substeps", "8")
        assert code == 0
        assert "M=8" in out

    def test_duration_grid(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", "dontchev",
                               "--grid", "durations:0.5,0.5")
        assert code == 0
        assert "N=2" in out and "U[1]" in out

    def test_qa_override_zero_state(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", "dontchev",
                               "--grid", "uniform:2", "--qa", "0")
        assert code == 0
        assert "U[0] = [0]" in out and "U[1] = [0]" in out
        assert "predicted cost = 0" in out

    def test_problem_file(self, capsys, tmp_path):
        path = write_problem(tmp_path)
        code, out, _ = run_cli(capsys, "solve", "--problem", path,
                               "--grid", "uniform:1")
        assert code == 0
        assert "-0.8471111" in out

    def test_random_problem(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--random", "seed:3")
        assert code == 0
        assert "random(seed=3)" in out

    def test_csv_export_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            code, _, _ = run_cli(capsys, "solve", "--problem", "dontchev",
                                 "--grid", "uniform:3", "--out", str(path))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "i,s_i,h_i,U_1"
        assert len(lines) == 4

    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "sol.json"
        code, _, _ = run_cli(capsys, "solve", "--problem", "dontchev",
                             "--grid", "uniform:2", "--format", "json",
                             "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert set(doc) >= {"grid", "U", "q_nodes", "q_end", "predicted_cost",
                            "simulated_cost", "steps"}
        assert len(doc["U"]) == 2
        assert doc["steps"][0]["i"] == 0

    def test_debug_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", "dontchev",
                               "--grid", "uniform:2", "--debug-blocks")
        assert code == 0
        block_lines = [ln for ln in out.splitlines() if ln.startswith("{")]
        assert len(block_lines) == 2
        for ln in block_lines:
            doc = json.loads(ln)
            assert "ZB" in doc and "Rbar" in doc


class TestErrors:
    def test_unknown_problem(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "no-such-thing",
                               "--grid", "uniform:1")
        assert code == 2
        assert "error: unknown problem" in err

    def test_problem_required(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--grid", "uniform:1")
        assert code == 2
        assert "error:" in err

    def test_grid_required_for_named_problem(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "dontchev")
        assert code == 2
        assert "missing --grid" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "dontchev",
                               "--grid", "chebyshev:4")
        assert code == 2
        assert "bad grid spec" in err

    def test_bad_qa_dimension(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "dontchev",
                               "--grid", "uniform:1", "--qa", "1,2")
        assert code == 2
        assert "--qa" in err

    def test_bad_seed_spec(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--random", "3")
        assert code == 2
        assert "seed:K" in err

    @pytest.mark.parametrize("field, value", [
        ("S", [[float("nan")]]),
        ("qa", [float("nan")]),
        ("qb", [float("inf")]),
        ("a", float("-inf")),
        ("b", float("nan")),
        ("S", [[1.0, 0.0]]),
    ])
    def test_bad_problem_file_data(self, capsys, tmp_path, field, value):
        path = write_problem(tmp_path, **{field: value})
        code, _, err = run_cli(capsys, "solve", "--problem", path, "--grid", "uniform:1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag, value", [
        ("--qa", "nan"),
        ("--qa", "inf"),
        ("--grid", "durations:nan,1"),
        ("--grid", "durations:inf,1"),
    ])
    def test_nonfinite_arguments(self, capsys, flag, value):
        # a repeated --grid overrides the first
        code, _, err = run_cli(capsys, "solve", "--problem", "dontchev", "--grid", "uniform:1", flag, value)
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_problem_file(self, capsys, tmp_path):
        path = write_problem(tmp_path, R=[[0.0]])
        code, _, err = run_cli(capsys, "solve", "--problem", path,
                               "--grid", "uniform:1")
        assert code == 2
        assert "error:" in err


class TestConverge:
    def test_closed_form_reference(self, capsys, tmp_path):
        out_path = tmp_path / "conv.csv"
        code, out, _ = run_cli(capsys, "converge", "--problem", "dontchev",
                               "--grids", "2,4,8", "--out", str(out_path))
        assert code == 0
        assert "C(u*_ref)=0.8641644978" in out
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "N,norm_delta,max_node_err,cost_sampled,cost_gap,cost_averaged"
        assert len(lines) == 4
        errs = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert errs[0] > errs[1] > errs[2]
        gaps = [float(ln.split(",")[4]) for ln in lines[1:]]
        assert all(g > 0.0 for g in gaps)
        for N in (2, 4, 8):
            trace = tmp_path / f"conv_trace_N{N}.csv"
            assert trace.exists()
            trace_lines = trace.read_text().strip().splitlines()
            assert trace_lines[0] == "t,u_sampled,u_reference"
            assert len(trace_lines) > N

    def test_fine_reference(self, capsys, tmp_path):
        path = write_problem(tmp_path)
        code, out, _ = run_cli(capsys, "converge", "--problem", path,
                               "--grids", "2,4", "--reference", "fine:32")
        assert code == 0
        assert "reference: fine:32" in out

    def test_fine_reference_too_coarse(self, capsys, tmp_path):
        path = write_problem(tmp_path)
        code, _, err = run_cli(capsys, "converge", "--problem", path,
                               "--grids", "2,8", "--reference", "fine:8")
        assert code == 2
        assert "must exceed" in err

    def test_no_closed_form_for_file_problem(self, capsys, tmp_path):
        path = write_problem(tmp_path)
        code, _, err = run_cli(capsys, "converge", "--problem", path,
                               "--grids", "2,4")
        assert code == 2
        assert "no closed-form reference" in err


class TestCompareAveraged:
    def test_scalar_benchmark(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.csv"
        code, out, _ = run_cli(capsys, "compare-averaged", "--problem", "dontchev",
                               "--grid", "uniform:4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "i,s_i,U_optimal,U_averaged,diff"
        assert len(lines) == 5
        cost_sampled = float(out.split("cost_sampled  = ")[1].splitlines()[0])
        cost_averaged = float(out.split("cost_averaged = ")[1].splitlines()[0])
        assert cost_sampled <= cost_averaged + 1e-12

    def test_pure_control_penalty_matches_average(self, capsys, tmp_path):
        # With W = S = 0 and constant v the optimal coefficients equal the
        # averaged reference exactly, whatever the grid.
        path = write_problem(tmp_path, W=[[0.0]], S=[[0.0]], v=[0.7])
        code, out, _ = run_cli(capsys, "compare-averaged", "--problem", path,
                               "--grid", "uniform:3", "--reference", "fine:24")
        assert code == 0
        diff = float(out.split("max |U_averaged - U_optimal| = ")[1].splitlines()[0])
        assert diff <= 1e-9


class TestOracleCheck:
    def test_agreement(self, capsys, tmp_path):
        out_path = tmp_path / "oracle.json"
        code, out, err = run_cli(capsys, "oracle-check", "--problem", "dontchev",
                                 "--grid", "uniform:3", "--out", str(out_path))
        assert code == 0 and err == ""
        assert "max rel diff" in out
        doc = json.loads(out_path.read_text())
        assert doc["max_rel_diff"] <= 1e-10

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        real = cross_check(cli.registry.get_problem("dontchev").problem,
                           cli.uniform_grid(2, 0, 1), 16)
        fake = replace(real, max_rel_diff=1.0)
        monkeypatch.setattr(cli, "cross_check", lambda *a, **k: fake)
        code, _, err = run_cli(capsys, "oracle-check", "--problem", "dontchev",
                               "--grid", "uniform:2")
        assert code == 4
        assert "oracle disagreement" in err

    def test_random_problem(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--random", "seed:5")
        assert code == 0


class TestConsoleScript:
    def test_help_runs(self):
        # the child imports the package under test, also when only pytest's pythonpath finds it
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "sampledlq.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "oracle-check" in proc.stdout
