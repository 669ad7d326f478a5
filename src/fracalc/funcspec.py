"""Closed catalog of test functions plus a tiny textual grammar.

Operators act on FunctionSpec values; the catalog covers constants,
polynomials, endpoint-shifted powers, scaled trig/exponentials, the two
endpoint-scaled E1 kernels, and sampled grid functions.  The grammar
keeps CLI invocations and test fixtures unambiguous:

    const:<c>          poly:<c0>,<c1>,...     powshift-left:<n>
    powshift-right:<n> sin:<w>[,<amp>]        cos:<w>[,<amp>]
    exp:<k>[,<amp>]    e1kernel-left          e1kernel-right
    grid:<path>

Grid files are CSV x,value rows on a strictly increasing uniform grid.
The module's _csv_text writes every CSV the package emits.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .special import e1_array


class ParseError(ValueError):
    """Malformed function-spec text; carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} (at position {position} in {text!r})")
        self.position = position


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.width):
            raise ValueError(
                f"interval requires finite ends and width, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


class GridFunction:
    """Uniform samples of a function: values at the N+1 nodes
    a + j (b-a)/N.  Evaluation between nodes is piecewise linear."""

    def __init__(self, interval: Interval, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 3:
            raise ValueError("GridFunction needs at least 3 nodes (N >= 2)")
        if not np.all(np.isfinite(values)):
            raise ValueError("GridFunction values must be finite")
        self.interval = interval
        self.values = values

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def spacing(self) -> float:
        return self.interval.width / self.n

    def nodes(self) -> np.ndarray:
        return np.linspace(self.interval.a, self.interval.b, self.values.size)

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float),
                         self.nodes(), self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return (self.interval == other.interval
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return (f"GridFunction([{self.interval.a}, {self.interval.b}], "
                f"n={self.n})")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[float, ...]  # ascending powers, c0 + c1 x + ...

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("Poly needs at least one coefficient")


@dataclass(frozen=True)
class PowShiftLeft:
    n: int  # (x - a)^n

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("PowShiftLeft needs n >= 0")


@dataclass(frozen=True)
class PowShiftRight:
    n: int  # (b - x)^n

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("PowShiftRight needs n >= 0")


@dataclass(frozen=True)
class Sin:
    w: float
    amp: float = 1.0  # amp * sin(w x)


@dataclass(frozen=True)
class Cos:
    w: float
    amp: float = 1.0  # amp * cos(w x)


@dataclass(frozen=True)
class Exp:
    k: float
    amp: float = 1.0  # amp * exp(k x)


@dataclass(frozen=True)
class E1KernelLeft:
    """E1((x - a)/alpha); unbounded at x = a."""


@dataclass(frozen=True)
class E1KernelRight:
    """E1((b - x)/alpha); unbounded at x = b."""


@dataclass(frozen=True)
class Grid:
    fn: GridFunction
    path: str | None = None


FunctionSpec = Union[Const, Poly, PowShiftLeft, PowShiftRight, Sin, Cos,
                     Exp, E1KernelLeft, E1KernelRight, Grid]


def _parse_float(tok: str, text: str, pos: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"malformed number {tok!r}", text, pos) from None


def _parse_int(tok: str, text: str, pos: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"malformed integer {tok!r}", text, pos) from None


def parse_spec(text: str) -> FunctionSpec:
    """Parse the catalog grammar; raises ParseError with a position."""
    stripped = "".join(text.split())
    tag, sep, arg = stripped.partition(":")
    arg_pos = len(tag) + 1
    if tag == "const":
        return Const(_parse_float(arg, text, arg_pos))
    if tag == "poly":
        if not sep or not arg:
            raise ParseError("poly needs a coefficient list", text, arg_pos)
        coeffs = tuple(_parse_float(t, text, arg_pos) for t in arg.split(","))
        return Poly(coeffs)
    if tag == "powshift-left":
        return PowShiftLeft(_parse_int(arg, text, arg_pos))
    if tag == "powshift-right":
        return PowShiftRight(_parse_int(arg, text, arg_pos))
    if tag in ("sin", "cos", "exp"):
        parts = arg.split(",") if arg else []
        if len(parts) not in (1, 2):
            raise ParseError(f"{tag} takes one or two numbers", text, arg_pos)
        w = _parse_float(parts[0], text, arg_pos)
        amp = _parse_float(parts[1], text, arg_pos) if len(parts) == 2 else 1.0
        return {"sin": Sin, "cos": Cos, "exp": Exp}[tag](w, amp)
    if tag == "e1kernel-left":
        if arg:
            raise ParseError("e1kernel-left takes no argument", text, arg_pos)
        return E1KernelLeft()
    if tag == "e1kernel-right":
        if arg:
            raise ParseError("e1kernel-right takes no argument", text, arg_pos)
        return E1KernelRight()
    if tag == "grid":
        if not arg:
            raise ParseError("grid needs a file path", text, arg_pos)
        return Grid(load_grid_csv(arg), path=arg)
    raise ParseError(f"unknown function tag {tag!r}", text, 0)


def render_spec(f: FunctionSpec) -> str:
    """Inverse of parse_spec up to value equality."""
    match f:
        case Const(c):
            return f"const:{c!r}"
        case Poly(coeffs):
            return "poly:" + ",".join(repr(c) for c in coeffs)
        case PowShiftLeft(n):
            return f"powshift-left:{n}"
        case PowShiftRight(n):
            return f"powshift-right:{n}"
        case Sin(w, amp):
            return f"sin:{w!r}" + (f",{amp!r}" if amp != 1.0 else "")
        case Cos(w, amp):
            return f"cos:{w!r}" + (f",{amp!r}" if amp != 1.0 else "")
        case Exp(k, amp):
            return f"exp:{k!r}" + (f",{amp!r}" if amp != 1.0 else "")
        case E1KernelLeft():
            return "e1kernel-left"
        case E1KernelRight():
            return "e1kernel-right"
        case Grid(_, path):
            if path is None:
                raise ValueError("cannot render an in-memory grid spec")
            return f"grid:{path}"
    raise TypeError(f"not a FunctionSpec: {f!r}")


# A "\n" that starts a row whose first character could start a header or
# blank row: x, X, a comma or whitespace ("\n" itself for an empty row).
_MAYBE_SKIPPED = re.compile(r"\n(?=[xX,\s])")


def _skipped(row: str) -> bool:
    """A header or blank row: its first field stripped is x, X or empty."""
    return row.split(",", 1)[0].strip().lower() in ("x", "")


def load_grid_csv(path: str | Path) -> GridFunction:
    """Read CSV x,value rows with strictly increasing uniform x; a row
    whose first field is x or empty (a header, a blank line) is skipped,
    and fields past the second are ignored.  The file is read once, and
    only rows that start like a header or a blank row are tested; rows
    end at "\n" alone, as iterating over the file ends them (str.splitlines
    would also split at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029)."""
    with open(path) as fh:
        text = fh.read()
    rows = text.split("\n")
    if not rows[-1]:
        rows.pop()  # after the last line end: no row
    skip = {0} if rows and _skipped(rows[0]) else set()
    row, at = 0, 0
    for m in _MAYBE_SKIPPED.finditer(text):
        row += text.count("\n", at, m.end())  # the row after this "\n"
        at = m.end()
        if _skipped(rows[row]):
            skip.add(row)
    if skip:
        rows = [r for i, r in enumerate(rows) if i not in skip]
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


def _field(value) -> str:
    """One value as CSV text: a bool as true/false, a number at 15
    significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.15g}"


def _csv_text(header: list[str], columns: list) -> str:
    """CSV text with "\n" line ends: the header, unless it is empty, then
    one line per row across the columns, as many as the shortest list
    column has.  A column is a list of Python values (from numpy arrays
    through .tolist(), which formats faster) or one value repeated on
    every row, formatted once into the template.  A list whose first
    value is a bool is a bool column, mapped to true/false in one pass; a
    list whose first value is a str is a text column, written as it is.
    All rows are one %-template applied once to every value in row order:
    numbers as %.15g, the same text as format's {:.15g}.  Numbers,
    true/false, the header names and the callers' texts hold no comma,
    quote or line break, so no field needs CSV quoting."""
    fields, data = [], []
    for c in columns:
        if not isinstance(c, list):
            fields.append(_field(c))
        elif c and isinstance(c[0], bool):
            fields.append("%s")
            data.append(list(map(("false", "true").__getitem__, c)))
        else:
            fields.append("%s" if c and isinstance(c[0], str) else "%.15g")
            data.append(c)
    rows = min(map(len, data)) if data else 0
    body = (",".join(fields) + "\n") * rows % tuple(
        itertools.chain.from_iterable(zip(*data)))
    return (",".join(header) + "\n" if header else "") + body


def write_grid_csv(path: str | Path, g: GridFunction) -> None:
    """g as x,value rows with "\r\n" line ends and no header."""
    with open(path, "w", newline="\r\n") as fh:
        fh.write(_csv_text([], [g.nodes().tolist(), g.values.tolist()]))


def eval_spec_array(f: FunctionSpec, x: np.ndarray, ctx: Interval,
                    alpha: float = 1.0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    match f:
        case Const(c):
            return np.full_like(x, c)
        case Poly(coeffs):
            acc = np.zeros_like(x)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc
        case PowShiftLeft(n):
            return (x - ctx.a) ** n
        case PowShiftRight(n):
            return (ctx.b - x) ** n
        case Sin(w, amp):
            return amp * np.sin(w * x)
        case Cos(w, amp):
            return amp * np.cos(w * x)
        case Exp(k, amp):
            return amp * np.exp(k * x)
        case E1KernelLeft():
            return e1_array((x - ctx.a) / alpha)
        case E1KernelRight():
            return e1_array((ctx.b - x) / alpha)
        case Grid(fn, _):
            return fn(x)
    raise TypeError(f"not a FunctionSpec: {f!r}")


def sample_spec(f: FunctionSpec, ctx: Interval, n: int,
                alpha: float = 1.0) -> GridFunction:
    """Sample a catalog function onto a uniform grid (n intervals)."""
    xs = np.linspace(ctx.a, ctx.b, n + 1)
    return GridFunction(ctx, eval_spec_array(f, xs, ctx, alpha))


def singular_endpoint(f: FunctionSpec) -> str | None:
    """Which interval endpoint, if any, the function blows up at."""
    if isinstance(f, E1KernelLeft):
        return "a"
    if isinstance(f, E1KernelRight):
        return "b"
    return None


def catalog_derivative(f: FunctionSpec, ctx: Interval) -> FunctionSpec:
    """Calculus derivative within the catalog.

    PowShift variants expand through the binomial theorem (the catalog has
    no scaled power-shift), so the result depends on the interval.  Grid
    and E1-kernel specs have no catalog derivative and raise.
    """
    match f:
        case Const(_):
            return Const(0.0)
        case Poly(coeffs):
            if len(coeffs) == 1:
                return Const(0.0)
            return Poly(tuple((i + 1) * c for i, c in enumerate(coeffs[1:])))
        case PowShiftLeft(n):
            if n == 0:
                return Const(0.0)
            # n (x-a)^(n-1) expanded in ascending powers of x
            return Poly(tuple(
                n * math.comb(n - 1, j) * (-ctx.a) ** (n - 1 - j)
                for j in range(n)
            ))
        case PowShiftRight(n):
            if n == 0:
                return Const(0.0)
            return Poly(tuple(
                -n * math.comb(n - 1, j) * ctx.b ** (n - 1 - j) * (-1.0) ** j
                for j in range(n)
            ))
        case Sin(w, amp):
            return Cos(w, amp * w)
        case Cos(w, amp):
            return Sin(w, -amp * w)
        case Exp(k, amp):
            return Exp(k, amp * k)
    raise ValueError(f"no catalog derivative for {f!r}")
