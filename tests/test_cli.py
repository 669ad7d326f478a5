"""Command-line interface: formats, exit codes, determinism, env override,
and the option table read against argparse."""

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fracalc
from fracalc import cli, funcspec, operators, relaxation
from fracalc.cli import main
from fracalc.funcspec import (
    Exp,
    GridFunction,
    Interval,
    Sin,
    sample_spec,
    write_grid_csv,
)
from fracalc.operators import (
    OperatorParams,
    OperatorReport,
    Side,
    j_closed_constant,
)


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernel:
    def test_e1_row(self, capsys):
        code, out, _ = run_main(["kernel", "--which", "e1", "--points", "1"],
                                capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        # E1(1) = 0.2193839343955203, correctly rounded to 15 digits
        assert lines[1] == "1,0.21938393439552"

    def test_q_multiple_points(self, capsys):
        code, out, _ = run_main(
            ["kernel", "--which", "q", "--points", "0.5,1,2"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_p_uses_shape(self, capsys):
        code, out, _ = run_main(
            ["kernel", "--which", "p", "--s", "1", "--points", "1"], capsys)
        assert code == 0
        val = float(out.strip().splitlines()[1].split(",")[1])
        assert val == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_bad_point_rejected(self, capsys):
        code, _, err = run_main(
            ["kernel", "--which", "e1", "--points", "-1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("which, scalar", [
        ("e1", lambda x: fracalc.e1(x)),
        ("s", lambda x: fracalc.volterra_s(x)),
        ("q", lambda x: fracalc.s_cumulative(x))])
    def test_many_points_match_one_point_values(self, which, scalar, capsys):
        # one array evaluation for all points prints each point's own value
        points = [1e-12, 3e-7, 0.01, 0.7, 1.0, 3.3, 12.0, 39.5, 45.0]
        code, out, _ = run_main(["kernel", "--which", which, "--points",
                                 ",".join(map(repr, points[::-1]))], capsys)
        assert code == 0
        assert out.splitlines()[1:] == [
            f"{x:.15g},{scalar(x):.15g}" for x in points[::-1]]

    @pytest.mark.parametrize("which, points", [
        ("e1", "1,0"), ("e1", "nan,2"), ("s", "1,1e-13"), ("s", "2,nan"),
        ("q", "1,-0.5")])
    def test_bad_point_among_many_rejected(self, which, points, capsys):
        code, out, err = run_main(["kernel", "--which", which, "--points",
                                   points], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("kernel evaluation failed:")


class TestApply:
    def test_constant_matches_closed_form(self, capsys):
        code, out, _ = run_main(
            ["apply", "--op", "j", "--side", "left", "--alpha", "1",
             "--spec", "const:1", "--interval", "0,2", "--n-out", "5"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value,converged,err_estimate"
        p = OperatorParams(Side.LEFT, 1.0, Interval(0.0, 2.0))
        for line in lines[1:]:
            x_s, v_s, conv, _ = line.split(",")
            assert conv == "true"
            assert float(v_s) == pytest.approx(
                j_closed_constant(1.0, p, float(x_s)), abs=1e-8)

    def test_derivative_op(self, capsys):
        code, out, _ = run_main(
            ["apply", "--op", "d", "--side", "left", "--alpha", "0.5",
             "--spec", "poly:0,1", "--interval", "0,1", "--n-out", "4"],
            capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_grid_derivative_next_to_anchor(self, tmp_path, capsys):
        # exp(-2x) sampled at n = 512, alpha 0.4: at x = 1/512 the grid
        # route must match the analytic one (11.81823); a central
        # difference of J there printed 11.82480
        write_grid_csv(tmp_path / "g.csv",
                       sample_spec(Exp(-2.0), Interval(0.0, 1.0), 512))
        args = ["apply", "--op", "d", "--side", "left", "--alpha", "0.4",
                "--interval", "0,1"]
        code, grid_out, _ = run_main(
            args + ["--spec", f"grid:{tmp_path / 'g.csv'}", "--n-out", "511"],
            capsys)
        assert code == 0
        code, exact_out, _ = run_main(
            args + ["--spec", "exp:-2", "--n-out", "511"], capsys)
        assert code == 0
        grid_row = grid_out.splitlines()[1].split(",")
        exact_row = exact_out.splitlines()[1].split(",")
        assert float(grid_row[0]) == float(exact_row[0]) == 1.0 / 512
        assert abs(float(grid_row[1]) - float(exact_row[1])) < 1e-4

    def test_grid_derivative_honours_interval_and_n_out(self, tmp_path,
                                                         capsys):
        # the nodes of the analytic route: n_out + 1 rows in (a, b] on the
        # left, none of them outside the operator interval
        write_grid_csv(tmp_path / "g.csv",
                       sample_spec(Sin(3.0), Interval(0.0, 1.0), 16))
        args = ["apply", "--op", "d", "--side", "left", "--alpha", "0.5",
                "--interval", "0.3,0.8", "--n-out", "4"]
        code, grid_out, _ = run_main(
            args + ["--spec", f"grid:{tmp_path / 'g.csv'}"], capsys)
        assert code == 0
        code, exact_out, _ = run_main(args + ["--spec", "sin:3"], capsys)
        grid_rows = [r.split(",") for r in grid_out.splitlines()[1:]]
        exact_rows = [r.split(",") for r in exact_out.splitlines()[1:]]
        assert len(grid_rows) == 5
        assert all(0.3 < float(r[0]) <= 0.8 for r in grid_rows)
        assert [r[0] for r in grid_rows] == [r[0] for r in exact_rows]

    def test_grid_output_bytes(self, tmp_path, monkeypatch, capsys):
        # the exact bytes of a grid apply: negative, tiny and subnormal
        # values, false rows, and one error estimate on every row
        write_grid_csv(tmp_path / "g.csv",
                       sample_spec(Sin(1.0), Interval(0.0, 1.0), 6))
        values = np.array([0.0, -1.5, 1e-300, -2.5e-310, 0.1 + 0.2,
                           -123456789.123456789, 1e22])
        flags = np.array([True, False, True, False, False, True, True])
        monkeypatch.setattr(cli, "apply_j", lambda f, p, n_out: OperatorReport(
            GridFunction(p.interval, values), flags, 1.0 / 3e13))
        code, out, _ = run_main(
            ["apply", "--op", "j", "--side", "left", "--alpha", "0.5",
             "--spec", f"grid:{tmp_path / 'g.csv'}", "--interval", "0,1",
             "--n-out", "6"], capsys)
        assert code == 0
        assert out == (
            "x,value,converged,err_estimate\n"
            "0,0,true,3.33333333333333e-14\n"
            "0.166666666666667,-1.5,false,3.33333333333333e-14\n"
            "0.333333333333333,1e-300,true,3.33333333333333e-14\n"
            "0.5,-2.50000000000002e-310,false,3.33333333333333e-14\n"
            "0.666666666666667,0.3,false,3.33333333333333e-14\n"
            "0.833333333333333,-123456789.123457,true,3.33333333333333e-14\n"
            "1,1e+22,true,3.33333333333333e-14\n")

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run_main(
            ["apply", "--op", "j", "--side", "left", "--alpha", "1",
             "--spec", "wat:1", "--interval", "0,1", "--n-out", "4"], capsys)
        assert code == 2
        assert "wat" in err

    def test_missing_grid_file_exits_2(self, capsys):
        code, _, err = run_main(
            ["apply", "--op", "j", "--side", "left", "--alpha", "1",
             "--spec", "grid:/nonexistent/g.csv", "--interval", "0,1",
             "--n-out", "4"], capsys)
        assert code == 2
        assert "/nonexistent/g.csv" in err

    @pytest.mark.parametrize("side, interval", [("left", "0.5,3"),
                                                 ("right", "0,2")])
    def test_grid_not_covering_interval_exits_2(self, side, interval,
                                                 tmp_path, capsys):
        # J of a grid input needs the grid on the whole operator interval;
        # it used to integrate from the grid's start, or past its end as 0
        write_grid_csv(tmp_path / "g.csv",
                       sample_spec(Sin(3.0), Interval(0.0, 1.0), 64))
        code, out, err = run_main(
            ["apply", "--op", "j", "--side", side, "--alpha", "0.5",
             "--spec", f"grid:{tmp_path / 'g.csv'}", "--interval", interval,
             "--n-out", "4"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("apply failed: grid input on [0, 1] does not "
                              "cover the operator interval")

    def test_bad_interval_exits_2(self, capsys):
        code, _, _ = run_main(
            ["apply", "--op", "j", "--side", "left", "--alpha", "1",
             "--spec", "const:1", "--interval", "3,1", "--n-out", "4"],
            capsys)
        assert code == 2


    def test_grid_file_with_a_one_column_row(self, tmp_path, capsys):
        (tmp_path / "g.csv").write_text("0,1\n0.5\n1,3\n")
        code, out, err = run_main(
            ["apply", "--op", "j", "--side", "left", "--alpha", "0.5",
             "--spec", f"grid:{tmp_path / 'g.csv'}", "--interval", "0,1",
             "--n-out", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("apply failed: ")

    @pytest.mark.parametrize("route", ["grid-lattice", "grid-off", "const"])
    @pytest.mark.parametrize("alpha", ["1e-300", "1e300", "1e308", "inf"])
    @pytest.mark.parametrize("op", ["j", "s", "d"])
    def test_extreme_alpha_exits_0_or_2(self, op, alpha, route, tmp_path,
                                        capsys, recwarn):
        # an overflow at the far ends of alpha used to escape as a
        # traceback and exit status 1, and numpy's RuntimeWarnings to
        # reach stderr ahead of the one "apply failed" line
        (tmp_path / "g.csv").write_text("0,1\n0.5,2\n1,0.5\n")
        spec = "const:1" if route == "const" else f"grid:{tmp_path / 'g.csv'}"
        n_out = "3" if route == "grid-off" else "2"
        code, out, err = run_main(
            ["apply", "--op", op, "--side", "left", "--alpha", alpha,
             "--spec", spec, "--interval", "0,1", "--n-out", n_out], capsys)
        assert [str(w.message) for w in recwarn] == []
        assert code in (0, 2)
        if code == 0:
            assert err == ""
            rows = [r.split(",") for r in out.splitlines()[1:]]
            assert len(rows) == int(n_out) + 1
            assert all(np.isfinite(float(r[1])) for r in rows)
        else:
            assert out == ""
            assert err.startswith("apply failed: ")
            assert err.count("\n") == 1 and err.endswith("\n")


def _csv_text_by_format(header, columns):
    """The emitter's text by one str.format call per field, the form the
    %-templates replaced."""
    def column(values, rows):
        if not isinstance(values, list):
            return column([values], 1) * rows
        if values and isinstance(values[0], bool):
            return ["true" if v else "false" for v in values]
        return list(map("{:.15g}".format, values))

    rows = max(len(c) for c in columns if isinstance(c, list))
    lines = map(",".join, zip(*(column(c, rows) for c in columns)))
    return "\n".join([",".join(header), *lines]) + "\n"


def _csv_text_by_row(header, columns):
    """The emitter's former text: bool values one _field call each, then
    one %-template per row."""
    fields, data = [], []
    for c in columns:
        if not isinstance(c, list):
            fields.append(funcspec._field(c))
        elif c and isinstance(c[0], bool):
            fields.append("%s")
            data.append([funcspec._field(v) for v in c])
        else:
            fields.append("%.15g")
            data.append(c)
    lines = map(",".join(fields).__mod__, zip(*data))
    return "\n".join([",".join(header), *lines]) + "\n"


_NUMBERS = st.floats(allow_nan=True, allow_infinity=True) | st.integers(
    -10 ** 20, 10 ** 20)
_CONSTANTS = st.one_of(st.floats(), st.booleans(), st.integers(-5, 5))


@st.composite
def _csv_columns(draw):
    """Columns as the commands pass them: lists of numbers, lists of bools
    (all bools, or all of one value), constants, empty lists, and lists of
    different lengths."""
    size = draw(st.integers(0, 40))
    column = st.one_of(
        st.lists(_NUMBERS, min_size=size, max_size=size),
        st.lists(st.booleans(), min_size=size, max_size=size),
        st.booleans().map(lambda b: [b] * size),
        st.lists(_NUMBERS, max_size=size + 3),
        st.lists(st.booleans(), max_size=size + 3),
        _CONSTANTS)
    return draw(st.lists(column, min_size=1, max_size=5))


class TestCsvText:
    @pytest.mark.parametrize("columns", [
        [[0.0, 0.5, 1.0], [1e-300, -0.0, 12345678.901234567], [True, False, True],
         2.5e-14],
        [[1, 2, 3], False, [float("inf"), float("nan"), -float("inf")]],
        [np.linspace(-1.0, 3.0, 4097).tolist(),
         np.random.default_rng(2).standard_normal(4097).tolist(),
         (np.arange(4097) % 3 == 0).tolist(), 0.1],
        [[], [], True],
    ], ids=["mixed", "ints-specials", "apply-sized", "empty"])
    def test_bytes_match_format(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        assert funcspec._csv_text(header, columns) == _csv_text_by_format(
            header, columns)

    @given(_csv_columns())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_the_row_templates(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        assert funcspec._csv_text(header, columns) == _csv_text_by_row(
            header, columns)


class TestVerify:
    def test_laplace_suite_passes(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "laplace"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,side,alpha,value,expected,tolerance,pass"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_deterministic_output(self, capsys):
        _, first, _ = run_main(["verify", "--suite", "laplace"], capsys)
        _, second, _ = run_main(["verify", "--suite", "laplace"], capsys)
        assert first == second

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_main(["verify", "--suite", "everything"], capsys)
        assert e.value.code == 2


class TestSweep:
    def test_infinite_alpha_exits_2(self, capsys):
        code, out, err = run_main(
            ["sweep", "--spec", "sin:1", "--alpha-list", "0.5,inf"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("sweep failed: alpha must be positive and "
                              "finite")

    def test_distances_decrease(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--spec", "sin:3", "--alpha-list", "0.2,0.1",
             "--n", "400"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        j_dist = [float(r[1]) for r in rows]
        s_dist = [float(r[2]) for r in rows]
        assert j_dist[1] < j_dist[0]
        assert s_dist[1] < s_dist[0]

    def test_grid_off_its_lattice_exits_2(self, tmp_path, capsys):
        # a grid input must cover the operator interval: the sweep's
        # first-kind pass refuses [0, 2] before S is reached
        g = sample_spec(Sin(3.0), Interval(0.0, 1.0), 64)
        write_grid_csv(tmp_path / "g.csv", g)
        spec = f"grid:{tmp_path / 'g.csv'}"
        code, out, err = run_main(
            ["sweep", "--spec", spec, "--alpha-list", "0.5",
             "--interval", "0,2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("sweep failed: grid input on [0, 1] does not "
                              "cover the operator interval [0, 2]")
        code, _, err = run_main(
            ["apply", "--op", "s", "--side", "left", "--alpha", "0.5",
             "--spec", spec, "--interval", "0,2", "--n-out", "64"], capsys)
        assert code == 2
        assert err.startswith("apply failed: grid input on [0, 1] does not "
                              "cover the operator interval [0, 2]")

    def test_grid_s_off_its_lattice(self, tmp_path, monkeypatch, capsys):
        # n_out = 64 on an n = 100 grid: off-lattice S prints a value at
        # every node, and a starved work budget changes no byte of it
        write_grid_csv(tmp_path / "g.csv",
                       sample_spec(Sin(3.0), Interval(0.0, 1.0), 100))
        args = ["apply", "--op", "s", "--side", "left", "--alpha", "0.5",
                "--spec", f"grid:{tmp_path / 'g.csv'}", "--interval", "0,1",
                "--n-out", "64"]
        code, out, _ = run_main(args, capsys)
        assert code == 0
        rows = [r.split(",") for r in out.splitlines()[1:]]
        assert len(rows) == 65
        assert all(np.isfinite(float(r[1])) and r[2] == "true" for r in rows)
        monkeypatch.setenv("FRACALC_MAX_WORK", "8")
        assert run_main(args, capsys) == (0, out, "")

    def test_missing_grid_file_exits_2(self, capsys):
        code, _, err = run_main(
            ["sweep", "--spec", "grid:/nonexistent/g.csv", "--alpha-list",
             "0.5"], capsys)
        assert code == 2
        assert "/nonexistent/g.csv" in err


class TestRelax:
    def test_solves_and_writes(self, tmp_path, capsys):
        prob = {"alpha": 0.25, "lambda": 0.5,
                "rhs": {"type": "autonomous", "g": "sin:1"},
                "grid_n": 64, "tol": 1e-8, "max_iter": 50}
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps(prob))
        sol = tmp_path / "sol.csv"
        diag = tmp_path / "diag.json"
        code, _, _ = run_main(
            ["relax", "--problem", str(ppath), "--u0", "zero",
             "--out", str(sol), "--diagnostics", str(diag)], capsys)
        assert code == 0
        lines = sol.read_text().strip().splitlines()
        assert lines[0] == "t,u"
        assert len(lines) == 66
        doc = json.loads(diag.read_text())
        assert doc["converged"] is True
        assert doc["kappa"] < 1.0

    def test_const_start(self, tmp_path, capsys):
        prob = {"alpha": 0.25, "lambda": 0.5,
                "rhs": {"type": "affine", "g": "const:1", "c": -0.1},
                "lipschitz_cf": 0.1, "grid_n": 32, "max_iter": 60}
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps(prob))
        code, out, err = run_main(
            ["relax", "--problem", str(ppath), "--u0", "const:0.5"], capsys)
        assert code == 0
        assert out.startswith("t,u")
        assert json.loads(err)["converged"] is True

    def test_missing_problem_exits_2(self, capsys):
        code, _, err = run_main(
            ["relax", "--problem", "/nope/p.json"], capsys)
        assert code == 2
        assert "/nope/p.json" in err

    def test_tiny_alpha_exits_2(self, tmp_path, capsys, recwarn):
        # S's hat weights are NaN at alpha 1e-300: the solve used to exit
        # 0 with u = 0, no iteration and "converged": false
        prob = {"alpha": 1e-300, "lambda": 0.5,
                "rhs": {"type": "autonomous", "g": "sin:1"}, "grid_n": 16}
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps(prob))
        code, out, err = run_main(["relax", "--problem", str(ppath)], capsys)
        assert [str(w.message) for w in recwarn] == []
        assert code == 2
        assert out == ""
        assert err.startswith("relax failed: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("entries", [
        '"rhs": {"type": "affine", "g": "const:1", "c": "nan"}',
        '"lambda": Infinity',
        '"rhs": {"type": "affine", "g": "const:1", "c": 0.1}, '
        '"lipschitz_cf": Infinity',
        '"tol": Infinity',
        '"grid_n": 64.9',
        '"grid_n": Infinity',
        '"max_iter": 2.5',
        '"alpha": null',
    ], ids=["c-nan", "lambda-inf", "cf-inf", "tol-inf", "grid_n-fraction",
            "grid_n-inf", "max_iter-fraction", "alpha-null"])
    def test_bad_problem_value_exits_2(self, entries, tmp_path, capsys):
        # each used to run: u = 0 after 0 sweeps with kappa NaN or inf, a
        # converged first sweep, a truncated grid_n or max_iter; or to end
        # in a traceback
        ppath = tmp_path / "p.json"
        ppath.write_text('{"alpha": 0.25, "lambda": 0.5, "rhs": {"type": '
                         '"autonomous", "g": "sin:1"}, "grid_n": 64, '
                         + entries + "}")
        code, out, err = run_main(["relax", "--problem", str(ppath)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"bad problem document {ppath}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestInterval:
    @pytest.mark.parametrize("interval", ["0,inf", "-inf,0", "-1e308,1e308"])
    @pytest.mark.parametrize("argv", [
        ["apply", "--op", "j", "--side", "left", "--alpha", "0.5",
         "--spec", "sin:1", "--n-out", "8"],
        ["sweep", "--spec", "sin:1", "--alpha-list", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_infinite_interval_exits_2(self, argv, interval, capsys,
                                       recwarn):
        # apply used to print five RuntimeWarnings, then "apply failed:
        # e1_array requires strictly positive arguments"
        code, out, err = run_main(argv + [f"--interval={interval}"], capsys)
        assert [str(w.message) for w in recwarn] == []
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid interval {interval!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def _child_env(max_work: str) -> dict[str, str]:
    # Minimal env, so no FRACALC_* variable of the caller leaks in; the
    # child imports the same fracalc as this process, installed or not.
    return {"PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(fracalc.__file__).resolve().parents[1]),
            "FRACALC_MAX_WORK": max_work}


def _same_or_flagged(out: str, ref: str) -> bool:
    """Every row of an apply's CSV out matches the same row of ref in x,
    value and converged, or is flagged converged=false with a finite
    value: a starved budget shows only as unconverged rows."""
    rows, refs = out.splitlines(), ref.splitlines()
    if rows[0] != refs[0] or len(rows) != len(refs):
        return False
    for row, want in zip(rows[1:], refs[1:]):
        x, value, conv, _ = row.split(",")
        if not np.isfinite(float(value)):
            return False
        if [x, value, conv] != want.split(",")[:3] and conv != "false":
            return False
    return True


class TestEnvOverride:
    def test_max_work_env(self):
        # S's trapezoid rule is fixed: a starved budget changes no byte
        argv = [sys.executable, "-m", "fracalc.cli", "kernel", "--which",
                "s", "--points", "0.5,1e-12"]
        starved, full = (subprocess.run(argv, capture_output=True, text=True,
                                        env=_child_env(w))
                         for w in ("8", "4096"))
        assert starved.returncode == full.returncode == 0
        assert (starved.stdout, starved.stderr) == (full.stdout, full.stderr)

    def test_max_work_env_relax(self, tmp_path):
        # relax runs fixed rules only (Q for kappa, S's lattice weights)
        problem = (Path(__file__).resolve().parents[1] / "scripts"
                   / "sample_problem.json")
        outs = []
        for w in ("8", "4096"):
            out = tmp_path / f"u{w}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "fracalc.cli", "relax", "--problem",
                 str(problem), "--out", str(out)],
                capture_output=True, text=True, env=_child_env(w),
            )
            assert proc.returncode == 0
            outs.append((out.read_text(), proc.stderr))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["apply", "--op", "s", "--side", "left", "--alpha", "0.5",
         "--spec", "sin:1", "--interval", "0,1", "--n-out", "8"],
        ["sweep", "--spec", "sin:1", "--alpha-list", "0.5"],
        ["verify", "--suite", "laplace"],
    ], ids=lambda argv: argv[0])
    def test_max_work_env_every_command(self, argv, monkeypatch, capsys):
        # a starved budget fails no command: an adaptive integral that
        # reaches it is flagged, and fixed rules ignore it
        code, ref, _ = run_main(argv, capsys)
        assert code == 0
        monkeypatch.setenv("FRACALC_MAX_WORK", "8")
        code, out, err = run_main(argv, capsys)
        assert code == 0 and err == ""
        if argv[0] == "apply":
            assert _same_or_flagged(out, ref)
        elif argv[0] == "sweep":
            assert out == ref
        else:
            assert all(np.isfinite(float(r.split(",")[3]))
                       for r in out.splitlines()[1:])

    def test_budget_contract(self, tmp_path, monkeypatch, capsys):
        # FRACALC_MAX_WORK caps adaptive panels and nothing else: at
        # budgets 8 and 64 the outputs of fixed rules and grid inputs are
        # byte-identical to the default's, and analytic applies exit 0
        # with finite values, the budget showing only as unconverged rows
        g = sample_spec(Sin(3.0), Interval(0.0, 1.0), 64)
        write_grid_csv(tmp_path / "g.csv", g)
        (tmp_path / "p.json").write_text(json.dumps(
            {"alpha": 0.3, "lambda": 0.5, "grid_n": 64,
             "rhs": {"type": "affine", "g": "cos:2", "c": -0.2}}))
        fixed = [["kernel", "--which", w, "--points", "1e-12,0.5,3"]
                 for w in ("s", "q", "e1", "p")]
        analytic = []
        for op in ("j", "s", "d"):
            apply = ["apply", "--op", op, "--side", "right", "--alpha", "0.3",
                     "--interval", "0,1"]
            analytic.append(apply + ["--spec", "sin:2", "--n-out", "6"])
            fixed += [apply + ["--spec", f"grid:{tmp_path / 'g.csv'}",
                               "--n-out", n]
                      for n in ("31" if op == "d" else "32", "10")]
        fixed += [["sweep", "--spec", "sin:1", "--alpha-list", "0.2,0.6",
                   "--n", "64"],
                  ["relax", "--problem", str(tmp_path / "p.json")]]
        verify = ["verify", "--suite", "laplace"]
        runs = {}
        for budget in ("8", "64", None):
            if budget is None:
                monkeypatch.delenv("FRACALC_MAX_WORK", raising=False)
            else:
                monkeypatch.setenv("FRACALC_MAX_WORK", budget)
            operators._hat_cache.clear()  # no run reads another's weights
            relaxation._kernel_mass.cache_clear()
            runs[budget] = [run_main(argv, capsys)
                            for argv in fixed + analytic + [verify]]
        ref = runs[None]
        assert all(code == 0 for code, _, _ in ref)
        for budget in ("8", "64"):
            got = runs[budget]
            assert got[:len(fixed)] == ref[:len(fixed)]
            for (code, out, err), (_, want, _) in zip(
                    got[len(fixed):-1], ref[len(fixed):-1]):
                assert code == 0 and err == "" and _same_or_flagged(out, want)
            code, out, err = got[-1]
            assert code == 0 and err == ""
            assert all(np.isfinite(float(r.split(",")[3]))
                       for r in out.splitlines()[1:])
        # the budget of 8 does starve the analytic applies
        assert any(",false," in out for _, out, _ in runs["8"][len(fixed):-1])

    def test_bad_env_value(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracalc.cli", "kernel", "--which", "e1",
             "--points", "1"],
            capture_output=True, text=True, env=_child_env("4"),
        )
        assert proc.returncode == 2
        assert "FRACALC_MAX_WORK" in proc.stderr


class TestOutFiles:
    def test_kernel_out(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        code, out, _ = run_main(
            ["kernel", "--which", "e1", "--points", "1,2", "--out",
             str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("x,value")


def _argparse_reference() -> argparse.ArgumentParser:
    """The argparse parser the option table replaced, kept as the
    reference reading of the same grammar."""
    ap = argparse.ArgumentParser(
        prog="fracalc",
        description="fractional integral/derivative operators of the "
                    "exponential-integral and Volterra kernels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="tabulate a kernel function")
    k.add_argument("--which", required=True, choices=["e1", "s", "p", "q"])
    k.add_argument("--points", required=True,
                   help="comma-separated evaluation points")
    k.add_argument("--s", type=float, default=1.0,
                   help="shape parameter for --which p")
    k.add_argument("--out", default=None)
    k.set_defaults(func=cli._cmd_kernel)

    a = sub.add_parser("apply", help="apply a fractional operator")
    a.add_argument("--op", required=True, choices=["j", "s", "d"])
    a.add_argument("--side", required=True, choices=["left", "right"])
    a.add_argument("--alpha", required=True, type=float)
    a.add_argument("--spec", required=True, help="function spec, e.g. const:1")
    a.add_argument("--interval", required=True, help="a,b")
    a.add_argument("--n-out", required=True, type=int, dest="n_out")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cli._cmd_apply)

    v = sub.add_parser("verify", help="run an identity verification suite")
    v.add_argument("--suite", required=True,
                   choices=["all", "integrals", "inversion", "derivatives",
                            "laplace"])
    v.add_argument("--alpha-list", default=None, dest="alpha_list")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cli._cmd_verify)

    s = sub.add_parser("sweep", help="alpha sweep of L1 convergence distances")
    s.add_argument("--spec", required=True)
    s.add_argument("--alpha-list", required=True, dest="alpha_list")
    s.add_argument("--side", default="left", choices=["left", "right"])
    s.add_argument("--interval", default="0,1")
    s.add_argument("--n", type=int, default=800)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cli._cmd_sweep)

    r = sub.add_parser("relax", help="solve a fractional relaxation problem")
    r.add_argument("--problem", required=True, help="problem JSON path")
    r.add_argument("--u0", default="zero", help="zero | const:<c>")
    r.add_argument("--out", default=None, help="solution CSV path")
    r.add_argument("--diagnostics", default=None,
                   help="diagnostics JSON path (stderr when omitted)")
    r.set_defaults(func=cli._cmd_relax)
    return ap


_APPLY = ["apply", "--op", "j", "--side", "left", "--alpha", "0.5",
          "--spec", "sin:1", "--interval", "0,1", "--n-out", "64"]

_VALID_ARGVS = [
    # the README examples
    ["kernel", "--which", "e1", "--points", "0.5,1,2"],
    _APPLY,
    ["verify", "--suite", "all"],
    ["sweep", "--spec", "sin:3", "--alpha-list", "0.2,0.1,0.05"],
    ["relax", "--problem", "scripts/sample_problem.json", "--out", "sol.csv",
     "--diagnostics", "diag.json"],
    # the benchmark's cold-CLI operations
    ["apply", "--op", "s", "--side", "right", "--alpha", "0.07312480958110023",
     "--spec", "grid:/data/grid-3.csv", "--interval", "0,1", "--n-out",
     "1024", "--out", "/data/out-3.csv"],
    ["apply", "--op", "d", "--side", "left", "--alpha", "0.9", "--spec",
     "powshift-left:2", "--interval", "0,1", "--n-out", "17", "--out",
     "/data/out-7.csv"],
    ["verify", "--suite", "all", "--out", "/data/out-0.csv"],
    # defaults
    ["kernel", "--which", "p", "--points", "1"],
    ["verify", "--suite", "laplace", "--alpha-list", "0.5,1"],
    ["relax", "--problem", "p.json"],
    ["relax", "--problem", "p.json", "--u0", "const:0.5"],
    # the = form, empty values, the last occurrence winning
    ["apply", "--op=j", "--side=left", "--alpha=0.5", "--spec=poly:1,=2",
     "--interval=0,1", "--n-out=8", "--out="],
    ["kernel", "--which", "e1", "--which", "s", "--points", "1", "--s=2",
     "--s", "3"],
    ["relax", "--problem", "", "--out", ""],
    # unique prefixes, with and without =
    ["apply", "--op", "j", "--si", "right", "--al", "1e-300", "--sp",
     "const:1", "--i", "0,1", "--n", "8"],
    ["apply", "--n=8", "--a=inf", "--sp=exp:-2", "--side", "left", "--op",
     "d", "--in", "0,2"],
    ["kernel", "--w=q", "--p", "1,2", "--ou", "k.csv"],
    ["sweep", "--sp", "sin:1", "--alpha-l", "0.5", "--si", "right", "--n",
     "16", "--i", "0,2"],
    ["relax", "--pro", "p.json", "--d", "d.json", "--u", "zero"],
    # values that start with "-": negative numbers and words with a space
    ["kernel", "--which", "e1", "--points", "-1"],
    ["kernel", "--which", "p", "--s", "-.5", "--points", "-2.5"],
    ["sweep", "--spec", "-x y", "--alpha-list", "0.5", "--n", "-16"],
    # numbers that float and int read: spaces, exponents, specials
    ["apply", "--op", "s", "--side", "left", "--alpha", " 1e3 ", "--spec",
     "const:1", "--interval", "0,1", "--n-out", " 8 "],
    ["apply", "--op", "s", "--side", "left", "--alpha", "nan", "--spec",
     "const:1", "--interval", "0,1", "--n-out", "1_000"],
]

_ERROR_ARGVS = [
    [],
    ["bogus"],
    ["--"],
    ["--bogus", "kernel", "--which", "e1", "--points", "1"],
    ["--help=x"],
    ["apply"],
    ["apply", "--op", "j"],
    ["verify", "--suite", "everything"],
    ["apply", "--op", "x"] + _APPLY[3:],
    _APPLY[:6] + ["--alpha", "x"] + _APPLY[8:],
    _APPLY[:-2] + ["--n-out", "1.5"],
    _APPLY[:-2] + ["--n-out", ""],
    _APPLY + ["--o", "out.csv"],
    _APPLY + ["--out"],
    ["kernel", "--out", "--which", "e1", "--points", "1"],
    ["kernel", "--which", "e1", "--points", "1", "--bogus", "2"],
    ["kernel", "--which", "e1", "--points", "1", "extra"],
    ["kernel", "--which", "e1", "--points", "1", "--"],
    ["kernel", "--which", "e1", "--points", "1", "-x"],
    ["kernel", "--which", "e1", "--points", "-1,2"],
    ["kernel", "--which", "e1", "--points", "1", "--out", "--"],
    ["kernel", "--which", "e1", "--points", "1", "--", "--out", "k.csv"],
    ["relax", "--", "-h"],
    ["kernel", "-hfoo"],
    ["kernel", "--help=x"],
    ["apply", "-h", "--o"],
    ["sweep", "--s=sin:1", "--alpha-list", "0.5"],
]

_HELP_ARGVS = [
    ["-h"], ["--help"], ["--he"], ["--bogus", "-h"], ["-h", "bogus"],
    ["kernel", "-h"], ["apply", "--h"], ["verify", "--help"],
    ["sweep", "--he"], ["relax", "-h"], ["apply", "--bogus", "-h"],
    ["--bogus", "relax", "-h"], ["kernel", "--which", "e1", "-h"],
]


def _outcome(parse, argv, capsys):
    """What parse makes of argv: the namespace's attributes, or the exit
    status with what went to stdout."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out


# The words the property test draws lines from: every flag of every
# command, prefixes, values of each kind (choices, numbers, negative
# numbers, words with a space, "--", -h forms) and stray words.
_FLAGS_OF = {
    "kernel": ["--which", "--points", "--s", "--out"],
    "apply": ["--op", "--side", "--alpha", "--spec", "--interval", "--n-out",
              "--out"],
    "verify": ["--suite", "--alpha-list", "--out"],
    "sweep": ["--spec", "--alpha-list", "--side", "--interval", "--n",
              "--out"],
    "relax": ["--problem", "--u0", "--out", "--diagnostics"],
}
_FLAG_WORDS = sorted({f for flags in _FLAGS_OF.values() for f in flags}) + [
    "--w", "--p", "--o", "--si", "--al", "--alpha", "--sp", "--i", "--n-",
    "--su", "--pr", "--u", "--d", "--he", "--bogus", "-h", "--help"]
_VALUE_WORDS = [
    "e1", "s", "p", "q", "j", "d", "left", "right", "all", "laplace", "0.5",
    "1e-3", "8", " 8 ", "1_000", "1.5", "nan", "inf", "x", "", "0,1",
    "const:1", "sin:1", "-1", "-.5", "-1,2", "-x y", "--", "-h", "-hfoo",
    "extra", "kernel", "apply"]


# Values each flag accepts, so that many drawn lines are complete
_GOOD = {
    "--which": ["e1", "s", "p", "q"], "--points": ["1", "0.5,1,2"],
    "--s": ["2", "1e-3"], "--out": ["o.csv", ""], "--op": ["j", "s", "d"],
    "--side": ["left", "right"], "--alpha": ["0.5", "1e-300", "nan"],
    "--spec": ["const:1", "sin:3"], "--interval": ["0,1", "0,2"],
    "--n-out": ["8", " 8 ", "1_000"], "--suite": ["all", "laplace"],
    "--alpha-list": ["0.5,1"], "--n": ["16"], "--problem": ["p.json"],
    "--u0": ["zero", "const:0.5"], "--diagnostics": ["d.json"],
}


@st.composite
def _argvs(draw):
    """A command line: a command with its own flags in full, each given
    0-2 times as "--flag value" or "--flag=value", mostly with a value it
    accepts; or a command or a stray first word, then any words."""
    commands = list(_FLAGS_OF)
    if draw(st.booleans()):
        command = draw(st.sampled_from(commands))
        words = [command]
        for flag in draw(st.permutations(_FLAGS_OF[command])):
            for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
                pool = _GOOD[flag] if draw(st.integers(0, 7)) else _VALUE_WORDS
                value = draw(st.sampled_from(pool))
                joined = draw(st.booleans())
                words += [f"{flag}={value}"] if joined else [flag, value]
        return words
    first = draw(st.sampled_from(commands + ["bogus", "-h", "--help", "--",
                                             "--bogus"]))
    word = st.one_of(
        st.sampled_from(_FLAG_WORDS), st.sampled_from(_VALUE_WORDS),
        st.builds("{}={}".format, st.sampled_from(_FLAG_WORDS),
                  st.sampled_from(_VALUE_WORDS)))
    return [first] + draw(st.lists(word, max_size=10))


def _full_outcome(parse, argv):
    """The namespace parse makes of argv, by text (nan != nan), or its exit
    status with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return repr(sorted(vars(parse(argv)).items()))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


class TestOptionTable:
    @pytest.mark.parametrize("argv", _VALID_ARGVS, ids=" ".join)
    def test_values_match_argparse(self, argv, capsys):
        got = _outcome(cli.parse_args, argv, capsys)
        want = _outcome(_argparse_reference().parse_args, argv, capsys)
        assert isinstance(want, dict)
        # by text, as nan != nan: "--alpha nan" reads the same in both
        assert repr(sorted(got.items())) == repr(sorted(want.items()))

    @pytest.mark.parametrize("argv", _ERROR_ARGVS, ids=" ".join)
    def test_errors_exit_2_as_argparse_does(self, argv, capsys):
        want = _outcome(_argparse_reference().parse_args, argv, capsys)
        assert want == (2, "")
        assert _outcome(cli.parse_args, argv, capsys) == (2, "")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: fracalc")
        assert "error: " in err

    @pytest.mark.parametrize("argv", _HELP_ARGVS, ids=" ".join)
    def test_help_exits_0_and_names_every_choice(self, argv, capsys):
        assert _outcome(_argparse_reference().parse_args, argv, capsys)[0] == 0
        code, out = _outcome(cli.parse_args, argv, capsys)
        assert code == 0
        command = next((w for w in argv if w in cli._COMMANDS), None)
        if command is None:
            names = list(cli._COMMANDS)
        else:
            names = [row[0] for row in cli._COMMANDS[command][2]]
        assert out.startswith(f"usage: fracalc {command or '[-h]'}")
        assert all(name in out for name in names + ["-h, --help"])

    @given(_argvs())
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_line_reads_as_argparse_reads_it(self, monkeypatch, argv):
        # argparse wraps usage and help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        assert (_full_outcome(cli.parse_args, argv)
                == _full_outcome(_argparse_reference().parse_args, argv))

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["fracalc", "kernel", "--which",
                                          "e1", "--points", "1"])
        assert main() == 0
        assert capsys.readouterr().out == "x,value\n1,0.21938393439552\n"

    def test_cli_imports_no_argparse(self):
        # argparse's import, and the locale and gettext lookups it makes,
        # were a quarter of a cold apply
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, fracalc.cli; fracalc.cli.main(['kernel', '--which',"
             " 'e1', '--points', '1']); print(sorted({'argparse', 'gettext',"
             " 'locale'} & set(sys.modules)))"],
            capture_output=True, text=True, env=_child_env("100000"))
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_commands_import_no_numpy_random(self, tmp_path):
        # numpy.random's import was 5 MB of a cold verify's peak memory;
        # verify draws its rough grids itself
        problem = (Path(__file__).resolve().parents[1] / "scripts"
                   / "sample_problem.json")
        argvs = [
            ["verify", "--suite", "all", "--out", str(tmp_path / "v.csv")],
            ["apply", "--op", "s", "--side", "left", "--alpha", "0.5",
             "--spec", "sin:1", "--interval", "0,1", "--n-out", "8",
             "--out", str(tmp_path / "a.csv")],
            ["relax", "--problem", str(problem), "--out",
             str(tmp_path / "u.csv"), "--diagnostics", str(tmp_path / "d.json")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, fracalc.cli; print([fracalc.cli.main(a) for a in "
             f"{argvs!r}], [m for m in sys.modules if m.startswith('numpy.random')])"],
            capture_output=True, text=True, env=_child_env("4096"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"

    def test_commands_import_no_csv(self, tmp_path):
        # funcspec._csv_text writes every CSV; the csv module is not needed
        problem = (Path(__file__).resolve().parents[1] / "scripts"
                   / "sample_problem.json")
        write_grid_csv(tmp_path / "g.csv",
                       sample_spec(Sin(3.0), Interval(0.0, 1.0), 64))
        argvs = [
            ["verify", "--suite", "all", "--out", str(tmp_path / "v.csv")],
            ["relax", "--problem", str(problem), "--out",
             str(tmp_path / "u.csv"), "--diagnostics", str(tmp_path / "d.json")],
            ["apply", "--op", "s", "--side", "left", "--alpha", "0.5",
             "--spec", f"grid:{tmp_path / 'g.csv'}", "--interval", "0,1",
             "--n-out", "64", "--out", str(tmp_path / "a.csv")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, fracalc.cli; print([fracalc.cli.main(a) for a in "
             f"{argvs!r}], sorted({{'csv', '_csv'}} & set(sys.modules)))"],
            capture_output=True, text=True, env=_child_env("4096"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
