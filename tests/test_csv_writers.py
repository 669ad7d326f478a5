"""The package's CSV files against the csv module: verify's rows, the
relaxation solution file and the grid file, byte for byte as the csv-module
writers that funcspec._csv_text replaced wrote them."""

import csv
import io

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from fracalc import verify
from fracalc.funcspec import GridFunction, Interval, write_grid_csv
from fracalc.relaxation import TIME_DOMAIN, write_solution_csv
from fracalc.verify import CheckRow, rows_to_csv


def _rows_to_csv_reference(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["check", "side", "alpha", "value", "expected",
                "tolerance", "pass"])
    for r in rows:
        w.writerow([r.check, r.side, f"{r.alpha:.15g}", f"{r.value:.15g}",
                    f"{r.expected:.15g}", f"{r.tolerance:.15g}",
                    "true" if r.passed else "false"])
    return buf.getvalue()


def _write_solution_csv_reference(path, u):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "u"])
        for t, v in zip(u.nodes(), u.values):
            w.writerow([f"{t:.15g}", f"{v:.15g}"])


def _write_grid_csv_reference(path, g):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, v in zip(g.nodes(), g.values):
            writer.writerow([f"{x:.15g}", f"{v:.15g}"])


_EDGES = (-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.0, -3.0,
          1e15, 1e16, 123456789012345.0)
_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(_EDGES)
           | st.integers(-10 ** 17, 10 ** 17).map(float))
_ANY = _FINITE | st.sampled_from((float("nan"), float("inf"), -float("inf")))


@st.composite
def _check_rows(draw):
    """Rows as the suites make them: plain names, a side, numbers as
    Python or numpy floats, passed as a Python or numpy bool."""
    number = _ANY | _ANY.map(np.float64)
    row = st.builds(
        CheckRow, st.from_regex(r"[a-z][a-z0-9_]{0,30}", fullmatch=True),
        st.sampled_from(("left", "right", "-")), number, number, number,
        number, st.booleans() | st.booleans().map(np.bool_))
    return draw(st.lists(row, max_size=30))


@st.composite
def _grids(draw):
    """Grids of 3 to 60 nodes on finite intervals, values finite."""
    a = draw(st.floats(-1e6, 1e6) | st.sampled_from((-0.0, 0.0, 1e-300)))
    width = draw(st.floats(1e-6, 1e6) | st.sampled_from((1.0, 3.0, 1e300)))
    values = draw(st.lists(_FINITE, min_size=3, max_size=60))
    return GridFunction(Interval(a, a + width), values)


_FILE_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(_check_rows())
@settings(max_examples=200, deadline=None)
def test_rows_match_the_csv_module(rows):
    assert rows_to_csv(rows) == _rows_to_csv_reference(rows)


def test_verify_all_rows_match_the_csv_module():
    rows = verify.run_suite("all")
    assert len(rows) == 115
    assert rows_to_csv(rows) == _rows_to_csv_reference(rows)


@given(_grids())
@_FILE_SETTINGS
def test_grid_file_matches_the_csv_module(tmp_path, g):
    write_grid_csv(tmp_path / "new.csv", g)
    _write_grid_csv_reference(tmp_path / "ref.csv", g)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


@given(st.lists(_FINITE, min_size=3, max_size=60))
@_FILE_SETTINGS
def test_solution_file_matches_the_csv_module(tmp_path, values):
    u = GridFunction(TIME_DOMAIN, values)
    write_solution_csv(tmp_path / "new.csv", u)
    _write_solution_csv_reference(tmp_path / "ref.csv", u)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_files_at_4097_rows_match_the_csv_module(tmp_path):
    values = np.random.default_rng(3).standard_normal(4097)
    values[:len(_EDGES)] = _EDGES
    g = GridFunction(Interval(-1.0, 3.0), values)
    u = GridFunction(TIME_DOMAIN, values)
    for write, reference, f in ((write_grid_csv, _write_grid_csv_reference, g),
                                (write_solution_csv,
                                 _write_solution_csv_reference, u)):
        write(tmp_path / "new.csv", f)
        reference(tmp_path / "ref.csv", f)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
