import argparse
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sampledlq.cli as cli
from sampledlq import simulate, transition
from sampledlq.oracle import cross_check


def child_env():
    """Environment in which a child interpreter imports the package under test, also when only pytest's pythonpath finds it."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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

    @pytest.mark.parametrize("source, m", [(("--problem", "dontchev", "--grid", "uniform:4"), 1),
                                           (("--random", "seed:1"), 2)])
    def test_rows_follow_their_intervals(self, capsys, tmp_path, source, m):
        # steps[i] and the U[i] line are interval i's, so a swapped or shifted row fails
        path = tmp_path / "sol.json"
        code, out, _ = run_cli(capsys, "solve", *source, "--substeps", "8", "--format", "json", "--out", str(path))
        assert code == 0
        problem, grid, _, _ = cli._resolve(cli.build_parser().parse_args(["solve", *source]))
        _, sweep, sol, _, _ = cli._solve(problem, grid, 8)
        steps = json.loads(path.read_text())["steps"]
        U_lines = [line for line in out.splitlines() if line.startswith("U[")]
        assert problem.m == m and len(steps) == len(U_lines) == grid.N > 1
        for i in range(grid.N):
            assert steps[i] == {"i": i, "gain": sweep.gain[i].tolist(), "offset": sweep.offset[i].tolist()}
            assert U_lines[i] == f"U[{i}] = {cli._vec_str(sol.U[i])}"

    def test_json_file_is_one_indented_document(self, capsys, tmp_path):
        path = tmp_path / "sol.json"
        code, _, _ = run_cli(capsys, "solve", "--problem", "timevarying-demo", "--grid", "uniform:3",
                             "--substeps", "8", "--format", "json", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_csv_file_bytes(self, capsys, tmp_path):
        # the header, sample times and durations are frozen bytes: 17 significant digits and
        # \r\n line ends; U comes from reductions whose last digit may differ between BLAS
        # builds, so it is checked by its spelling
        path = tmp_path / "sol.csv"
        code, _, _ = run_cli(capsys, "solve", "--problem", "dontchev", "--grid", "uniform:3",
                             "--substeps", "8", "--out", str(path))
        assert code == 0
        lines = path.read_bytes().split(b"\r\n")
        assert lines[:1] + [ln.rpartition(b",")[0] for ln in lines[1:-1]] + lines[-1:] == [
            b"i,s_i,h_i,U_1",
            b"0,0,0.33333333333333331",
            b"1,0.33333333333333331,0.33333333333333331",
            b"2,0.66666666666666663,0.33333333333333337",
            b"",
        ]
        for ln in lines[1:-1]:
            U = ln.rpartition(b",")[2].decode()
            assert cli._fmt(float(U)) == U

    def test_debug_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", "dontchev",
                               "--grid", "uniform:2", "--debug-blocks")
        assert code == 0
        block_lines = [ln for ln in out.splitlines() if ln.startswith("{")]
        assert len(block_lines) == 2
        for ln in block_lines:
            doc = json.loads(ln)
            assert "ZB" in doc and "Rbar" in doc

    def test_nodes_formed_once_per_interval(self, capsys, monkeypatch):
        # the blocks form every interval's step maps once, on the stacked half grids, and run
        # each interval's recurrence from them; the state run marches those nodes and forms none
        calls = {"_affine_maps": [], "_affine_nodes": []}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name].append(args[1].shape)
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            original = getattr(transition, name)
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "sampledlq"]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        code, _, _ = run_cli(capsys, "solve", "--problem", "timevarying-demo", "--grid", "uniform:5",
                             "--substeps", "8")
        assert code == 0
        assert calls == {"_affine_maps": [(5, 33)], "_affine_nodes": []}  # (N, 4M+1) half-grid times, once


    @pytest.mark.parametrize("problem", ["double-integrator", "timevarying-demo"])
    def test_costate_peak_within_the_solve_peak(self, problem):
        # the costate runs vectors, never a node stack, so its tracemalloc peak stays within that
        # of the solve (blocks, sweep, synthesis and state run) on the same case; N = 400, M = 32
        p = cli.registry.get_problem(problem).problem
        grid = cli.uniform_grid(400, p.a, p.b)
        tracemalloc.start()
        try:
            traj = cli._solve(p, grid, 32)[4]
            solve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            simulate.simulate_costate(traj, 32)
            costate_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert costate_peak <= solve_peak

class TestParserReuse:
    SOLVE = ["solve", "--problem", "dontchev", "--grid", "uniform:3"]

    def test_parser_built_once(self, capsys, monkeypatch):
        run_cli(capsys, *self.SOLVE)  # warm-up: builds the parser if no earlier call did
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (self.SOLVE, ["oracle-check", "--problem", "dontchev", "--grid", "uniform:2"]):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
        assert built == []

    def test_no_state_carries_between_calls(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, *self.SOLVE, "--format", "json", "--debug-blocks", "--qa", "2",
                             "--out", str(tmp_path / "a.json"))
        assert code == 0
        code, out, err = run_cli(capsys, *self.SOLVE, "--out", str(tmp_path / "b.csv"))
        assert code == 0 and err == ""
        fresh = subprocess.run([sys.executable, "-m", "sampledlq.cli", *self.SOLVE, "--out", str(tmp_path / "c.csv")],
                               capture_output=True, text=True, env=child_env())
        assert fresh.returncode == 0, fresh.stderr
        assert out == fresh.stdout
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_rejected_argv_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--grid"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        code, _, err = run_cli(capsys, *self.SOLVE)
        assert code == 0 and err == ""


class TestErrors:
    def test_overflowing_value_function(self, capsys, tmp_path):
        # the sweep is finite; the predicted cost at q_a = 1e160 is not
        path = write_problem(tmp_path, S=[[1.0]], qa=[1e160])
        code, out, err = run_cli(capsys, "solve", "--problem", path, "--grid", "uniform:2")
        assert code == 3 and out == ""
        assert "value function V_0 overflowed" in err

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

    @pytest.mark.parametrize("argv", [
        ("solve", "--problem", "nonexistent", "--random", "seed:2", "--grid", "uniform:2"),
        ("oracle-check", "--random", "seed:5", "--problem", "dontchev"),
    ])
    def test_problem_and_random_are_exclusive(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "one of --problem or --random, not both" in err

    @pytest.mark.parametrize("spec, message", [("3", "seed:K"), ("seed:-3", "non-negative")])
    def test_bad_seed_spec(self, capsys, spec, message):
        code, _, err = run_cli(capsys, "solve", "--random", spec)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("field, value", [
        ("S", [[float("nan")]]),
        ("qa", [float("nan")]),
        ("qb", [float("inf")]),
        ("a", float("-inf")),
        ("b", float("nan")),
        ("S", [[1.0, 0.0]]),
        ("A", "half"),
        ("x", [[1.0, [2.0]]]),
        ("a", "zero"),
        ("n", "one"),
        ("m", None),
        ("A", {"builtin": []}),
        ("n", 1.9),
        ("m", True),
        ("qa", ["1.5"]),
    ])
    def test_bad_problem_file_data(self, capsys, tmp_path, field, value):
        path = write_problem(tmp_path, **{field: value})
        code, _, err = run_cli(capsys, "solve", "--problem", path, "--grid", "uniform:1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("key", ["qB", "omgea"])
    def test_unknown_problem_file_key(self, capsys, tmp_path, key):
        path = write_problem(tmp_path, **{key: [5.0]})
        code, out, err = run_cli(capsys, "solve", "--problem", path, "--grid", "uniform:1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("text", ['{"a": 0.0, "b": 1.0,', "5", None])
    def test_unreadable_problem_file(self, capsys, tmp_path, text):
        # truncated JSON, a top level that is not an object, a directory
        path = tmp_path / "p.json"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        code, _, err = run_cli(capsys, "solve", "--problem", str(path), "--grid", "uniform:1")
        assert code == 2
        assert err.startswith("error:") and str(path) in err

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

    def test_subnormal_step(self, capsys):
        # h / 2M = 1e-320 / 128 is subnormal, and a solve on it is quietly wrong (U[0] = -2.4125)
        code, out, err = run_cli(capsys, "solve", "--problem", "dontchev", "--grid", "durations:1e-320,1")
        assert code == 2 and out == ""
        assert "smallest normal float" in err
        # at 1e-300 the step is normal, and U[0] is the limit K_0 of the scalar benchmark
        code, out, err = run_cli(capsys, "solve", "--problem", "dontchev", "--grid", "durations:1e-300,1")
        assert code == 0 and err == ""
        assert "U[0] = [-2.010573111]" in out

    @pytest.mark.parametrize("argv, name", [
        (["solve", "--problem", "dontchev", "--grid", f"uniform:{10**20}"], "N = "),
        (["solve", "--problem", "dontchev", "--grid", "uniform:2", "--substeps", f"{10**20}"], "M = "),
        (["converge", "--problem", "dontchev", "--grids", f"2,{10**20}", "--substeps", "8"], "N = "),
    ])
    def test_size_beyond_index_range(self, capsys, argv, name):
        # only sizes past np.intp's range, which fail before anything is allocated
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name}{10**20}") and "index range" in err

    @pytest.mark.parametrize("argv, name", [
        (["solve", "--problem", "dontchev", "--grid", f"uniform:{10**15}"], "N = "),  # 7.1 PiB of times
        (["solve", "--problem", "dontchev", "--grid", "uniform:4", "--substeps", f"{10**15}"], "M = "),  # 28.4 PiB
    ])
    def test_size_beyond_memory(self, capsys, argv, name):
        # sizes inside np.intp's range but over 2**47 bytes, more than a 64-bit
        # Linux process can map: numpy refuses them without allocating
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name}{10**15}") and "do not fit in memory" in err

    @pytest.mark.parametrize("problem", ["dontchev", "timevarying-demo"])
    def test_nodes_beyond_memory(self, capsys, monkeypatch, problem):
        # a half grid that fits but RK4 nodes that do not; a stand-in for the nodes'
        # allocation raises, on the equal-step path (dontchev) and on the scan
        def no_memory(maps):
            raise MemoryError

        monkeypatch.setattr(transition, "_run_maps", no_memory)
        code, out, err = run_cli(capsys, "solve", "--problem", problem, "--grid", "uniform:2", "--substeps", "8")
        assert code == 2 and out == ""
        assert err.startswith("error: M = 8 substeps") and "do not fit in memory" in err

    @pytest.mark.parametrize("command", ["converge", "compare-averaged"])
    def test_dense_run_beyond_memory(self, capsys, monkeypatch, command):
        # the closed-form reference's dense run: a stand-in for its nodes' allocation raises
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(simulate, "_vector_run", no_memory)
        grids = ["--grids", "2,4"] if command == "converge" else ["--grid", "uniform:2"]
        code, out, err = run_cli(capsys, command, "--problem", "dontchev", *grids)
        assert code == 2
        assert err == "error: M = 512 substeps: the dense run's 2M+1 RK4 nodes do not fit in memory\n"

    @pytest.mark.parametrize("target, name, message", [
        (np, "triu_indices", "oracle batch: 10 controls of mN = 3"),
        (simulate, "_march", "M = 8 substeps: the batch's forms for 10 controls"),
    ], ids=["controls", "forms"])
    def test_oracle_batch_beyond_memory(self, capsys, monkeypatch, target, name, message):
        # seed 5 (mN = 3): a stand-in for the control batch's allocation, or for the zero-control
        # march the batch's forms start from, raises
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(target, name, no_memory)
        code, out, err = run_cli(capsys, "oracle-check", "--random", "seed:5", "--substeps", "8")
        assert code == 2 and out == ""
        assert err == f"error: {message} do not fit in memory\n"

    @pytest.mark.parametrize("argv, target", [
        (["solve", "--problem", "dontchev", "--grid", "uniform:2", "--format", "json"], "."),
        (["solve", "--problem", "dontchev", "--grid", "uniform:2"], "missing/x.csv"),
        (["compare-averaged", "--problem", "dontchev", "--grid", "uniform:2"], "missing/x.csv"),
        (["oracle-check", "--problem", "dontchev", "--grid", "uniform:2"], "."),
        (["converge", "--problem", "dontchev", "--grids", "2"], "missing/x.csv"),
        (["converge", "--problem", "dontchev", "--grids", "2"], "c_trace_N2.csv"),
    ], ids=["json-dir", "csv-missing-dir", "compare-missing-dir", "oracle-dir", "converge-missing-dir", "trace-dir"])
    def test_unwritable_out(self, capsys, tmp_path, argv, target):
        # a directory, or a path under one that does not exist; the last case writes c.csv and
        # meets a directory where its trace file goes
        path = tmp_path / target
        if target.startswith("c_trace"):
            path.mkdir()
        out = tmp_path / "c.csv" if target.startswith("c_trace") else path
        code, _, err = run_cli(capsys, *argv, "--substeps", "8", "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: cannot write {str(path)!r}: ") and err.count("\n") == 1

    def test_overflowing_block_forms(self, capsys, tmp_path):
        # finite nodes, up to about 1e259, whose Simpson forms overflow: the error line alone, no numpy warning
        path = write_problem(tmp_path, A=[[30000.0]], W=[[1.0]], S=[[1.0]], qb=[1.0])
        code, out, err = run_cli(capsys, "solve", "--problem", path, "--grid", "uniform:4", "--substeps", "16")
        assert (code, out, err) == (3, "", "error: cost forms overflowed on interval 0\n")

    def test_invalid_problem_file(self, capsys, tmp_path):
        path = write_problem(tmp_path, R=[[0.0]])
        code, _, err = run_cli(capsys, "solve", "--problem", path,
                               "--grid", "uniform:1")
        assert code == 2
        assert "error:" in err


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                                          float("nan"), float("inf"), float("-inf")])
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_ARRAYS = hnp.arrays(np.float64, _SHAPES, elements=_FLOATS) | hnp.arrays(np.int64, _SHAPES)


@st.composite
def _records(draw):
    """cli._Records of 0-4 rows, float or integer columns of any row shape; keys may hold '%'."""
    N = draw(st.integers(0, 4))
    keys = draw(st.lists(st.text(), min_size=1, max_size=3, unique=True))
    return cli._Records({
        key: draw(hnp.arrays(draw(st.sampled_from([np.float64, np.int64])),
                             (N, *draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)))))
        for key in keys
    })


def _steps(N, m, n):
    rng = np.random.default_rng(N + 10 * m + 100 * n)
    return cli._Records(i=np.arange(N), gain=rng.normal(size=(N, m, n)), offset=rng.normal(size=(N, m)))


def _tolisted(v):
    """The document json.dumps is given: arrays as nested lists, a _Records as its list of records."""
    if isinstance(v, cli._Records):
        return [{key: a[r].tolist() for key, a in v.items()} for r in range(len(next(iter(v.values()))))]
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {key: _tolisted(x) for key, x in v.items()}
    if isinstance(v, list):
        return [_tolisted(x) for x in v]
    return v


_LEAVES = st.none() | st.booleans() | st.integers() | _FLOATS | st.text() | _ARRAYS | _records()


@settings(max_examples=200, deadline=None)
@given(st.recursive(_LEAVES, lambda inner: st.dictionaries(st.text(), inner, max_size=4) | st.lists(inner, max_size=3),
                    max_leaves=10))
@example({"steps": _steps(3, 1, 2), "U": np.zeros((3, 1)), "empty": _steps(0, 2, 2), "": {}, "é\u2603": []})
@example(_steps(5, 3, 4))
def test_json_writer_is_json_dumps_indent_2(doc):
    # the writer's text is json's with indent=2, from the arrays themselves: NaN and the
    # infinities as json spells them, -0.0, subnormals, the largest float, integers, zero-length
    # axes and non-ASCII keys and labels, which json escapes
    assert cli._json(doc) == json.dumps(_tolisted(doc), indent=2)


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

    def test_vector_control_trace_header(self, capsys, tmp_path):
        out_path = tmp_path / "conv.csv"
        code, _, _ = run_cli(capsys, "converge", "--random", "seed:5", "--grids", "1,2",
                             "--reference", "fine:4", "--substeps", "4", "--out", str(out_path))
        assert code == 0
        header = (tmp_path / "conv_trace_N1.csv").read_text().splitlines()[0]
        assert header == "t,u_sampled_1,u_sampled_2,u_sampled_3,u_reference_1,u_reference_2,u_reference_3"

    @pytest.mark.parametrize("argv", [
        ("converge", "--problem", "dontchev", "--grids", "4,8", "--substeps", "16"),
        ("compare-averaged", "--problem", "dontchev", "--grid", "uniform:4", "--substeps", "16"),
    ])
    def test_closed_form_holds_only_at_its_own_qa(self, capsys, argv):
        # dontchev's closed form is the optimum from q_a = 1; from q_a = 2 it is not a reference
        code, out, err = run_cli(capsys, *argv, "--qa", "2")
        assert code == 2 and out == ""
        assert "--reference fine:N" in err
        code, out, _ = run_cli(capsys, *argv, "--qa", "2", "--reference", "fine:16")
        assert code == 0 and "reference: fine:16" in out
        code, out, _ = run_cli(capsys, *argv, "--qa", "1")
        assert code == 0 and "reference: closed-form" in out

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

    def test_vector_control_header(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.csv"
        code, _, _ = run_cli(capsys, "compare-averaged", "--random", "seed:5", "--reference", "fine:4",
                             "--substeps", "4", "--out", str(out_path))
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "i,s_i,U_optimal_1,U_optimal_2,U_optimal_3,U_averaged_1,U_averaged_2,U_averaged_3,diff"

    def test_fine_reference_not_finer_than_grid(self, capsys):
        code, _, err = run_cli(capsys, "compare-averaged", "--problem", "dontchev",
                               "--grid", "uniform:8", "--reference", "fine:2")
        assert code == 2
        assert "must exceed" in err


class TestOracleCheck:
    def test_agreement(self, capsys, tmp_path):
        out_path = tmp_path / "oracle.json"
        code, out, err = run_cli(capsys, "oracle-check", "--problem", "dontchev",
                                 "--grid", "uniform:3", "--out", str(out_path))
        assert code == 0 and err == ""
        assert "max rel diff" in out
        doc = json.loads(out_path.read_text())
        assert doc["max_rel_diff"] <= 1e-10

    def test_json_file_bytes(self, capsys, tmp_path):
        # the file's bytes are those json.dump streams for the same document, key order kept
        path = tmp_path / "oracle.json"
        code, _, _ = run_cli(capsys, "oracle-check", "--problem", "dontchev", "--grid", "uniform:2",
                             "--substeps", "8", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert list(doc) == ["U_sweep", "U_qp", "diffs", "max_abs_diff", "max_rel_diff",
                             "cost_sweep", "cost_qp", "cost_diff", "certificate_norm"]
        streamed = io.StringIO()
        json.dump(doc, streamed, indent=2)
        streamed.write("\n")
        assert path.read_text() == streamed.getvalue()

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


# every (module, attribute) the benchmark's tracer (perfbench/tracer.py) wraps; the
# library must look each one up in its module at call time, or the wrapper sees no call
TRACED_NAMES = (
    ("sampledlq.cli", "riccati_solve"), ("sampledlq.cli", "simulate_state"), ("sampledlq.cli", "evaluate_cost"),
    ("sampledlq.cli", "simulate_costate"), ("sampledlq.cli", "pmp_residual_sampled"), ("sampledlq.cli", "cross_check"),
    ("sampledlq.registry", "random_problem"),
    ("sampledlq.riccati", "compute_all_blocks"), ("sampledlq.riccati", "backward_sweep"),
    ("sampledlq.riccati", "forward_synthesis"),
    ("sampledlq.blocks", "propagate_interval"), ("sampledlq.blocks", "compute_blocks"),
    ("sampledlq.oracle", "riccati_solve"), ("sampledlq.oracle", "assemble_qp"), ("sampledlq.oracle", "solve_qp"),
    ("sampledlq.oracle", "costs_of_control_batch"),
    ("sampledlq.problem", "CoefficientFunction.eval_many"),
)

# what the tracer's computed counts read from a call's arguments, bound by name as it binds them
COUNTER_READS = {
    ("sampledlq.blocks", "propagate_interval"): lambda a: a["M"],
    ("sampledlq.cli", "simulate_state"): lambda a: (a["u"].grid.N, a["M"]),
    ("sampledlq.cli", "simulate_costate"): lambda a: (a["traj"].grid.N, a["M"]),
    ("sampledlq.oracle", "costs_of_control_batch"): lambda a: np.shape(a["Us"]),
}


class TestTracedNames:
    def test_pipeline_calls_through_module_names(self, capsys, monkeypatch):
        calls = dict.fromkeys(TRACED_NAMES, 0)
        reads = {key: set() for key in COUNTER_READS}

        def counting(key, fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                if key in COUNTER_READS:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    reads[key].add(COUNTER_READS[key](bound.arguments))
                return fn(*args, **kwargs)
            return wrapper

        for module_name, attr in TRACED_NAMES:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, name, counting((module_name, attr), getattr(owner, name)))
        for argv in (("solve", "--problem", "dontchev", "--grid", "uniform:2"), ("oracle-check", "--random", "seed:5")):
            code, _, _ = run_cli(capsys, *argv, "--substeps", "8")
            assert code == 0
        assert all(calls.values()), [key for key, count in calls.items() if not count]
        # the solve runs uniform:2 at M = 8; oracle-check's batches are (controls, N, m)
        assert reads[("sampledlq.blocks", "propagate_interval")] == {8}
        assert reads[("sampledlq.cli", "simulate_state")] == {(2, 8)}
        assert reads[("sampledlq.cli", "simulate_costate")] == {(2, 8)}
        batches = reads[("sampledlq.oracle", "costs_of_control_batch")]
        assert batches and all(len(shape) == 3 and min(shape) > 0 for shape in batches)


class TestConsoleScript:
    def test_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "sampledlq.cli", "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "oracle-check" in proc.stdout

    def test_runs_without_scipy(self):
        # the child puts this checkout's src first itself: pytest's pythonpath does not reach it;
        # a None entry in sys.modules makes every import of scipy raise ImportError
        src = str(Path(cli.__file__).parents[1])
        script = f"""
import sys
sys.path.insert(0, {src!r})
sys.modules["scipy"] = None
import sampledlq.cli as cli
assert cli.__file__.startswith({src!r}), cli.__file__
assert cli.main(["solve", "--problem", "timevarying-demo", "--grid", "uniform:4", "--substeps", "8"]) == 0
assert cli.main(["oracle-check", "--random", "seed:5", "--substeps", "8"]) == 0
loaded = [name for name, mod in sys.modules.items() if name.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
