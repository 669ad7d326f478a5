"""Grammar round trips, evaluation semantics, and grid-file handling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracalc.funcspec import (
    Const,
    Cos,
    E1KernelLeft,
    E1KernelRight,
    Exp,
    Grid,
    GridFunction,
    Interval,
    ParseError,
    Poly,
    PowShiftLeft,
    PowShiftRight,
    Sin,
    catalog_derivative,
    eval_spec_array,
    load_grid_csv,
    parse_spec,
    render_spec,
    sample_spec,
    write_grid_csv,
)

UNIT = Interval(0.0, 1.0)


class TestParse:
    def test_const(self):
        assert parse_spec("const:2.5") == Const(2.5)

    def test_poly_identity(self):
        assert parse_spec("poly:0,1") == Poly((0.0, 1.0))

    def test_whitespace_insensitive(self):
        assert parse_spec(" poly: 0 , 1 ") == Poly((0.0, 1.0))

    def test_scientific_notation(self):
        assert parse_spec("const:1e-3") == Const(1e-3)

    def test_trig_with_amplitude(self):
        assert parse_spec("sin:2,0.5") == Sin(2.0, 0.5)
        assert parse_spec("cos:1") == Cos(1.0, 1.0)

    def test_kernels(self):
        assert parse_spec("e1kernel-left") == E1KernelLeft()
        assert parse_spec("e1kernel-right") == E1KernelRight()

    @pytest.mark.parametrize("bad", [
        "powshift-left:x",
        "poly:",
        "const:abc",
        "nosuchtag:1",
        "sin:1,2,3",
        "e1kernel-left:7",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse_spec("powshift-left:x")
        assert e.value.position == 14


SPEC_STRATEGY = st.one_of(
    st.floats(min_value=-5, max_value=5).map(Const),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=1,
             max_size=4).map(lambda c: Poly(tuple(c))),
    st.integers(min_value=0, max_value=6).map(PowShiftLeft),
    st.integers(min_value=0, max_value=6).map(PowShiftRight),
    st.tuples(st.floats(min_value=-4, max_value=4),
              st.floats(min_value=-2, max_value=2)).map(lambda t: Sin(*t)),
    st.tuples(st.floats(min_value=-4, max_value=4),
              st.floats(min_value=-2, max_value=2)).map(lambda t: Cos(*t)),
    st.tuples(st.floats(min_value=-2, max_value=2),
              st.floats(min_value=-2, max_value=2)).map(lambda t: Exp(*t)),
    st.just(E1KernelLeft()),
    st.just(E1KernelRight()),
)


@given(SPEC_STRATEGY)
@settings(max_examples=120, deadline=None)
def test_render_round_trip(spec):
    assert parse_spec(render_spec(spec)) == spec


class TestEval:
    def test_const_everywhere(self):
        assert eval_spec_array(Const(3.0), 0.7, UNIT) == 3.0

    def test_powshift(self):
        iv = Interval(2.0, 5.0)
        assert eval_spec_array(PowShiftLeft(2), 3.0, iv) == 1.0
        assert eval_spec_array(PowShiftRight(1), 3.0, iv) == 2.0

    def test_trig_amp(self):
        assert float(eval_spec_array(Sin(2.0, 0.5), 0.25, UNIT)) == \
            pytest.approx(0.5 * math.sin(0.5))

    def test_kernel_endpoint_error(self):
        with pytest.raises(ValueError):
            eval_spec_array(E1KernelLeft(), 0.0, UNIT)
        with pytest.raises(ValueError):
            eval_spec_array(E1KernelRight(), 1.0, UNIT)

    def test_kernel_uses_alpha(self):
        from fracalc.special import e1
        v = float(eval_spec_array(E1KernelLeft(), 0.5, UNIT, alpha=0.25))
        assert v == pytest.approx(e1(2.0), rel=1e-13)

    def test_array_matches_scalar(self):
        xs = np.linspace(0.1, 0.9, 7)
        for spec, fn in ((Poly((1.0, -2.0, 0.5)),
                          lambda x: 1.0 - 2.0 * x + 0.5 * x * x),
                         (Sin(3.0), lambda x: math.sin(3.0 * x)),
                         (Exp(1.0, 0.3), lambda x: 0.3 * math.exp(x)),
                         (PowShiftRight(3), lambda x: (1.0 - x) ** 3)):
            vec = eval_spec_array(spec, xs, UNIT)
            ref = [fn(float(x)) for x in xs]
            assert np.allclose(vec, ref, rtol=1e-14)


class TestGrid:
    def test_interp_exact_at_nodes(self, rng):
        values = rng.standard_normal(33)
        g = GridFunction(UNIT, values)
        assert np.array_equal(g(g.nodes()), values)

    def test_midpoint_accuracy(self):
        g = sample_spec(Sin(1.0), UNIT, 1000)
        x = 0.5005
        assert float(g(x)) == pytest.approx(math.sin(x), abs=1e-5)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            GridFunction(UNIT, [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GridFunction(UNIT, [0.0, math.inf, 1.0])

    def test_csv_round_trip(self, tmp_path, rng):
        g = GridFunction(Interval(-1.0, 3.0), rng.standard_normal(65))
        path = tmp_path / "g.csv"
        write_grid_csv(path, g)
        back = load_grid_csv(path)
        assert back.interval == g.interval
        assert np.allclose(back.values, g.values, rtol=1e-14)

    def test_csv_header_blank_rows_and_extra_columns(self, tmp_path):
        # a row whose first field is x or empty is skipped; fields past
        # the second are ignored
        path = tmp_path / "g.csv"
        path.write_text("x,value,note\n\n0,1,a\n ,9\n0.5,2,b\n\n"
                        "X ,v\n1,3,c\n")
        g = load_grid_csv(path)
        assert g.interval == UNIT
        assert np.array_equal(g.values, [1.0, 2.0, 3.0])

    def test_csv_one_column_row(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n0.5\n1,3\n")
        with pytest.raises(ValueError):
            load_grid_csv(path)

    def test_csv_rejects_nonuniform(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n0.5,2\n0.8,3\n")
        with pytest.raises(ValueError):
            load_grid_csv(path)

    def test_parse_grid_spec(self, tmp_path):
        g = sample_spec(Const(2.0), UNIT, 8)
        path = tmp_path / "c.csv"
        write_grid_csv(path, g)
        spec = parse_spec(f"grid:{path}")
        assert isinstance(spec, Grid)
        assert spec.fn == g
        assert render_spec(spec) == f"grid:{path}"


class TestCatalogDerivative:
    @pytest.mark.parametrize("spec", [
        Const(4.0),
        Poly((1.0, -1.0, 2.0)),
        PowShiftLeft(3),
        PowShiftRight(2),
        Sin(2.0, 0.7),
        Cos(1.5),
        Exp(-1.0, 2.0),
    ])
    def test_matches_finite_difference(self, spec):
        iv = Interval(0.25, 1.75)
        d = catalog_derivative(spec, iv)
        h = 1e-6
        for x in np.linspace(0.4, 1.6, 5):
            fd = (eval_spec_array(spec, x + h, iv)
                  - eval_spec_array(spec, x - h, iv)) / (2 * h)
            assert float(eval_spec_array(d, x, iv)) == pytest.approx(
                float(fd), abs=1e-6)

    def test_no_derivative_for_grid(self):
        g = Grid(sample_spec(Sin(1.0), UNIT, 16))
        with pytest.raises(ValueError):
            catalog_derivative(g, UNIT)

    def test_no_derivative_for_kernel(self):
        with pytest.raises(ValueError):
            catalog_derivative(E1KernelLeft(), UNIT)


def _load_grid_csv_reference(path):
    """The loader's former row filter: every line of the file through a
    Python test, then np.loadtxt over the kept lines."""
    with open(path) as fh:
        rows = [line for line in fh
                if line.split(",", 1)[0].strip().lower() not in ("x", "")]
    if len(rows) < 3:
        raise ValueError(f"grid file {path} needs at least 3 rows")
    x, vs = np.loadtxt(rows, delimiter=",", usecols=(0, 1), ndmin=2,
                       comments=None).T
    dx = np.diff(x)
    if np.any(dx <= 0.0):
        raise ValueError(f"grid file {path} must have strictly increasing x")
    h = (x[-1] - x[0]) / (len(x) - 1)
    if np.max(np.abs(dx - h)) > 1e-9 * max(abs(x[0]), abs(x[-1]), h):
        raise ValueError(f"grid file {path} is not uniformly spaced")
    return GridFunction(Interval(float(x[0]), float(x[-1])), vs)


# whitespace that str.strip removes, including the characters at which
# str.splitlines, but not iteration over a file, ends a line
_SPACES = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0 "
                                  " 　"), max_size=3)


@st.composite
def _grid_files(draw):
    """The text of a grid file: data rows of a uniform grid, some with
    padding or extra fields, among headers, blank and whitespace rows,
    rows starting with a comma, and now and then a one-column or
    misplaced row; each row ends in \\n, \\r\\n or \\r, the last one maybe
    in nothing."""
    n = draw(st.integers(1, 8))
    a = draw(st.sampled_from([0.0, -1.0, 0.25]))
    h = draw(st.sampled_from([0.125, 0.5, 1e-3]))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    rows = []
    for i, v in enumerate(values):
        x = f"{a + i * h:.15g}"
        row = draw(st.sampled_from([f"{x},{v!r}", f"{x},{v!r},note",
                                    f"{x},{v!r},,", f" {x} ,{v!r} ",
                                    f"{x}, {v!r}\x0b", f"\t{x},{v!r}"]))
        rows.append(draw(_SPACES) + row if draw(st.booleans()) else row)
    extras = st.sampled_from(
        ["x,value", "X ,v", "x", " x ,y,z", "X", ",", ",5", " ,9", "", "x\x0c",
         "0.5", "xy,1", "#comment", "nan,1", "1,2,3"])
    for _ in range(draw(st.integers(0, 5))):
        extra = draw(st.one_of(extras, _SPACES))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(rows),
                         max_size=len(rows)))
    text = "".join(r + e for r, e in zip(rows, ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


class TestGridCsvReader:
    @given(_grid_files())
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_the_row_filter(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("grid") / "g.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            ref = _load_grid_csv_reference(path)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                load_grid_csv(path)
            assert str(got.value) == str(exc)
            return
        g = load_grid_csv(path)
        assert g.interval == ref.interval
        assert np.array_equal(g.values, ref.values)

    @pytest.mark.parametrize("text", ["0,1\n#c,2\n#d,3\n",
                                      "0,1\n0.5,2\n#c,9\n1,3\n1.5,4\n"],
                             ids=["three-rows", "one-of-five"])
    def test_hash_row_is_malformed(self, tmp_path, text):
        # "#" starts no comment: the row fails to parse, with no warning,
        # rather than vanishing after the row count (a file of one data
        # row then failed in the spacing check) or silently
        path = tmp_path / "g.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="could not convert string "
                               "'#c' to float64"):
                load_grid_csv(path)

    def test_written_file_reads_back(self, tmp_path):
        # write_grid_csv ends its rows in \r\n
        g = GridFunction(UNIT, np.random.default_rng(8).standard_normal(33))
        path = tmp_path / "g.csv"
        write_grid_csv(path, g)
        assert path.read_bytes().count(b"\r\n") == 33
        assert load_grid_csv(path) == _load_grid_csv_reference(path)
        assert np.allclose(load_grid_csv(path).values, g.values, rtol=1e-14)
