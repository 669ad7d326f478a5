"""Command-line front end.

Subcommands:

  kernel  — tabulate e1 | s | p | q at given points (CSV x,value)
  apply   — apply a fractional operator (j | s | d) to a catalog function
            on a uniform grid (CSV x,value,converged,err_estimate)
  verify  — run an identity suite; one CSV row per check, exit 3 on any
            failure (CSV check,side,alpha,value,expected,tolerance,pass)
  sweep   — L1 distances of the two integral operators from their
            small-alpha limits along an alpha list (CSV)
  relax   — solve a relaxation problem from a JSON document (CSV t,u plus
            a diagnostics JSON)

Exit codes: 0 success, 2 argument/validation errors, 3 failed checks.
Numbers are printed with 15 significant digits; output is deterministic.
The environment variable FRACALC_MAX_WORK overrides the default work
budget (quadrature panels, trapezoid nodes); every command exits 2, with
"<command> failed: ..." on stderr ("kernel evaluation failed: ..." for
kernel), when a kernel evaluation would exceed it or an operator rejects
its input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import verify
from .derivatives import AcFunction, d_frac_ac, d_frac_numeric
from .funcspec import (
    FunctionSpec,
    Grid,
    GridFunction,
    Interval,
    ParseError,
    parse_spec,
    sample_spec,
)
from .operators import (
    OperatorParams,
    Side,
    apply_j,
    apply_s,
    running_integral,
)
from .relaxation import (
    TIME_DOMAIN,
    diagnostics_to_json,
    problem_from_json,
    solve_picard,
)
from .special import (
    Accuracy,
    DEFAULT_ACCURACY,
    e1_array,
    p_regularized,
    s_moments,
    volterra_s_array,
)

_FMT = "{:.15g}"


def default_accuracy() -> Accuracy:
    max_work = os.environ.get("FRACALC_MAX_WORK")
    if max_work is None:
        return DEFAULT_ACCURACY
    try:
        return Accuracy(DEFAULT_ACCURACY.abs_tol, DEFAULT_ACCURACY.rel_tol,
                        int(max_work))
    except ValueError as exc:
        raise SystemExit(f"invalid FRACALC_MAX_WORK: {exc}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise SystemExit(f"interval must be 'a,b', got {text!r}")
    try:
        return Interval(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise SystemExit(f"invalid interval {text!r}: {exc}")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise SystemExit(f"malformed {what} list: {text!r}")
    if not vals:
        raise SystemExit(f"{what} list is empty")
    return vals


def _parse_spec_arg(text: str) -> FunctionSpec:
    try:
        return parse_spec(text)
    except FileNotFoundError as exc:
        raise SystemExit(f"unreadable grid file: {exc.filename}")
    except ParseError as exc:
        raise SystemExit(f"bad function spec: {exc}")


def _field(value) -> str:
    """One value as CSV text: a bool as true/false, a number at 15
    significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return _FMT.format(value)


def _csv_text(header: list[str], columns: list) -> str:
    """CSV text with "\n" line ends: the header, then one line per row
    across the columns.  A column is a list of Python values (from numpy
    arrays through .tolist(), which formats faster) or one value repeated
    on every row, formatted once.  Each row is one %-template: numbers as
    %.15g, the same text as format's {:.15g}.  Numbers, true/false and the
    header names hold no comma, quote or line break, so no field needs CSV
    quoting."""
    fields, data = [], []
    for c in columns:
        if not isinstance(c, list):
            fields.append(_field(c))
        elif c and isinstance(c[0], bool):
            fields.append("%s")
            data.append([_field(v) for v in c])
        else:
            fields.append("%.15g")
            data.append(c)
    lines = map(",".join(fields).__mod__, zip(*data))
    return "\n".join([",".join(header), *lines]) + "\n"


def _cmd_kernel(args: argparse.Namespace) -> int:
    acc = default_accuracy()
    points = _parse_floats(args.points, "points")
    fns = {
        "e1": e1_array,
        "s": lambda x: volterra_s_array(x, acc),
        "q": lambda x: s_moments(0.0, x, 0, acc)[0],
        "p": lambda x: [p_regularized(args.s, v, acc) for v in x.tolist()],
    }
    try:
        values = np.asarray(fns[args.which](np.array(points))).tolist()
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"kernel evaluation failed: {exc}")
    _emit(_csv_text(["x", "value"], [points, values]), args.out)
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    acc = default_accuracy()
    if args.alpha <= 0.0:
        raise SystemExit(f"alpha must be positive, got {args.alpha}")
    if args.n_out < 2:
        raise SystemExit(f"n-out must be at least 2, got {args.n_out}")
    interval = _parse_interval(args.interval)
    spec = _parse_spec_arg(args.spec)
    side = Side.LEFT if args.side == "left" else Side.RIGHT
    p = OperatorParams(side, args.alpha, interval, acc)
    if args.op == "j":
        report = apply_j(spec, p, args.n_out)
    elif args.op == "s":
        report = apply_s(spec, p, args.n_out)
    elif isinstance(spec, Grid):
        report = d_frac_numeric(spec.fn, p, args.n_out)
    else:
        ac = AcFunction.from_catalog(spec, interval, side)
        report = d_frac_ac(ac, p, args.n_out)
    out = report.outputs
    columns = [out.nodes().tolist(), out.values.tolist(),
               report.per_point_converged.tolist(), report.worst_err_estimate]
    _emit(_csv_text(["x", "value", "converged", "err_estimate"], columns),
          args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    acc = default_accuracy()
    alphas = _parse_floats(args.alpha_list, "alpha") if args.alpha_list else None
    rows = verify.run_suite(args.suite, alphas, acc)
    _emit(verify.rows_to_csv(rows), args.out)
    return 3 if any(not r.passed for r in rows) else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    acc = default_accuracy()
    alphas = _parse_floats(args.alpha_list, "alpha")
    if any(a <= 0.0 for a in alphas):
        raise SystemExit("alpha values must be positive")
    interval = _parse_interval(args.interval)
    spec = _parse_spec_arg(args.spec)
    side = Side.LEFT if args.side == "left" else Side.RIGHT
    n = args.n
    g = spec if isinstance(spec, Grid) else Grid(sample_spec(spec, interval, n))
    spacing = g.fn.spacing
    ri = running_integral(g, interval, side, g.fn.n)
    j_dist, s_dist = [], []
    for alpha in alphas:
        p = OperatorParams(side, alpha, interval, acc)
        jv = apply_j(g, p, g.fn.n).outputs.values
        sv = apply_s(g, p, g.fn.n).outputs.values
        j_dist.append(float(np.trapezoid(np.abs(jv - g.fn.values),
                                         dx=spacing)))
        s_dist.append(float(np.trapezoid(np.abs(sv - ri.values), dx=spacing)))
    _emit(_csv_text(["alpha", "j_l1_distance", "s_l1_distance"],
                    [alphas, j_dist, s_dist]), args.out)
    return 0


def _cmd_relax(args: argparse.Namespace) -> int:
    acc = default_accuracy()
    try:
        prob = problem_from_json(args.problem)
    except FileNotFoundError:
        raise SystemExit(f"unreadable problem file: {args.problem}")
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bad problem document {args.problem}: {exc}")
    if args.u0 == "zero":
        u0 = GridFunction(TIME_DOMAIN, np.zeros(prob.grid_n + 1))
    elif args.u0.startswith("const:"):
        try:
            c = float(args.u0.split(":", 1)[1])
        except ValueError:
            raise SystemExit(f"bad u0 {args.u0!r}")
        u0 = GridFunction(TIME_DOMAIN, np.full(prob.grid_n + 1, c))
    else:
        raise SystemExit(f"u0 must be 'zero' or 'const:<c>', got {args.u0!r}")
    u, diag = solve_picard(prob, u0, acc)
    _emit(_csv_text(["t", "u"], [u.nodes().tolist(), u.values.tolist()]),
          args.out)
    diag_text = json.dumps(diagnostics_to_json(diag), indent=2) + "\n"
    if args.diagnostics:
        with open(args.diagnostics, "w") as fh:
            fh.write(diag_text)
    else:
        sys.stderr.write(diag_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    k.set_defaults(func=_cmd_kernel)

    a = sub.add_parser("apply", help="apply a fractional operator")
    a.add_argument("--op", required=True, choices=["j", "s", "d"])
    a.add_argument("--side", required=True, choices=["left", "right"])
    a.add_argument("--alpha", required=True, type=float)
    a.add_argument("--spec", required=True, help="function spec, e.g. const:1")
    a.add_argument("--interval", required=True, help="a,b")
    a.add_argument("--n-out", required=True, type=int, dest="n_out")
    a.add_argument("--out", default=None)
    a.set_defaults(func=_cmd_apply)

    v = sub.add_parser("verify", help="run an identity verification suite")
    v.add_argument("--suite", required=True,
                   choices=["all", "integrals", "inversion", "derivatives",
                            "laplace"])
    v.add_argument("--alpha-list", default=None, dest="alpha_list")
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sweep", help="alpha sweep of L1 convergence distances")
    s.add_argument("--spec", required=True)
    s.add_argument("--alpha-list", required=True, dest="alpha_list")
    s.add_argument("--side", default="left", choices=["left", "right"])
    s.add_argument("--interval", default="0,1")
    s.add_argument("--n", type=int, default=800)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_sweep)

    r = sub.add_parser("relax", help="solve a fractional relaxation problem")
    r.add_argument("--problem", required=True, help="problem JSON path")
    r.add_argument("--u0", default="zero", help="zero | const:<c>")
    r.add_argument("--out", default=None, help="solution CSV path")
    r.add_argument("--diagnostics", default=None,
                   help="diagnostics JSON path (stderr when omitted)")
    r.set_defaults(func=_cmd_relax)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 2
        raise
    except (RuntimeError, ValueError) as exc:
        # a kernel evaluation exceeded the work budget, or an operator
        # rejected its input (a grid that does not cover its interval)
        sys.stderr.write(f"{args.command} failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
