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

Each command's options are rows of the table _COMMANDS, and argparse's
parser is built from it, so the grammar, -h and the usage errors are
argparse's.  A line of full flags with plain values, the form every
example and script uses, has one reading and is read from the table
without importing argparse.

Exit codes: 0 success, 2 argument/validation errors, 3 failed checks.
Numbers are printed with 15 significant digits; output is deterministic.
The environment variable FRACALC_MAX_WORK overrides the default work
budget, the panel cap of each adaptive integral: apply of a catalog
function and verify's adaptive checks.  An integral that reaches it prints
converged=false, or fails its check; the fixed rules of the kernels and of
grid inputs ignore it.  Every command exits 2 on a malformed value (not an
integer, or below 8), and with "<command> failed: ..." on stderr ("kernel
evaluation failed: ..." for kernel) when an operator or a kernel rejects
its input.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import verify
from .funcspec import (
    FunctionSpec,
    Grid,
    GridFunction,
    Interval,
    ParseError,
    _csv_text,
    parse_spec,
    sample_spec,
)
from .operators import (
    OperatorParams,
    Side,
    apply_d,
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


def _cmd_kernel(args: SimpleNamespace) -> int:
    points = _parse_floats(args.points, "points")
    fns = {
        "e1": e1_array,
        "s": volterra_s_array,
        "q": lambda x: s_moments(0.0, x, 0)[0],
        "p": lambda x: [p_regularized(args.s, v) for v in x.tolist()],
    }
    try:
        values = np.asarray(fns[args.which](np.array(points))).tolist()
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"kernel evaluation failed: {exc}")
    _emit(_csv_text(["x", "value"], [points, values]), args.out)
    return 0


def _cmd_apply(args: SimpleNamespace) -> int:
    if args.alpha <= 0.0:
        raise SystemExit(f"alpha must be positive, got {args.alpha}")
    if args.n_out < 2:
        raise SystemExit(f"n-out must be at least 2, got {args.n_out}")
    interval = _parse_interval(args.interval)
    spec = _parse_spec_arg(args.spec)
    p = OperatorParams(Side(args.side), args.alpha, interval, args.acc)
    apply = {"j": apply_j, "s": apply_s, "d": apply_d}[args.op]
    report = apply(spec, p, args.n_out)
    out = report.outputs
    columns = [out.nodes().tolist(), out.values.tolist(),
               report.per_point_converged.tolist(), report.worst_err_estimate]
    _emit(_csv_text(["x", "value", "converged", "err_estimate"], columns),
          args.out)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    alphas = _parse_floats(args.alpha_list, "alpha") if args.alpha_list else None
    rows = verify.run_suite(args.suite, alphas, args.acc)
    _emit(verify.rows_to_csv(rows), args.out)
    return 3 if any(not r.passed for r in rows) else 0


def _cmd_sweep(args: SimpleNamespace) -> int:
    alphas = _parse_floats(args.alpha_list, "alpha")
    if any(a <= 0.0 for a in alphas):
        raise SystemExit("alpha values must be positive")
    interval = _parse_interval(args.interval)
    spec = _parse_spec_arg(args.spec)
    side = Side(args.side)
    n = args.n
    g = spec if isinstance(spec, Grid) else Grid(sample_spec(spec, interval, n))
    spacing = g.fn.spacing
    ri = running_integral(g, interval, side, g.fn.n)
    j_dist, s_dist = [], []
    for alpha in alphas:
        p = OperatorParams(side, alpha, interval)
        jv = apply_j(g, p, g.fn.n).outputs.values
        sv = apply_s(g, p, g.fn.n).outputs.values
        j_dist.append(float(np.trapezoid(np.abs(jv - g.fn.values),
                                         dx=spacing)))
        s_dist.append(float(np.trapezoid(np.abs(sv - ri.values), dx=spacing)))
    _emit(_csv_text(["alpha", "j_l1_distance", "s_l1_distance"],
                    [alphas, j_dist, s_dist]), args.out)
    return 0


def _cmd_relax(args: SimpleNamespace) -> int:
    try:
        prob = problem_from_json(args.problem)
    except FileNotFoundError:
        raise SystemExit(f"unreadable problem file: {args.problem}")
    except (KeyError, TypeError, ValueError) as exc:
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
    u, diag = solve_picard(prob, u0)
    _emit(_csv_text(["t", "u"], [u.nodes().tolist(), u.values.tolist()]),
          args.out)
    diag_text = json.dumps(diagnostics_to_json(diag), indent=2) + "\n"
    if args.diagnostics:
        with open(args.diagnostics, "w") as fh:
            fh.write(diag_text)
    else:
        sys.stderr.write(diag_text)
    return 0


# The options of each command, one row per option:
#     (flag, dest, type, required, choices, default, help).
# parse_args reads a line of full flags from these rows itself, and
# _argparse builds the argparse parser of the same grammar from them.
_COMMANDS = {
    "kernel": ("tabulate a kernel function", _cmd_kernel, (
        ("--which", "which", str, True, ("e1", "s", "p", "q"), None, None),
        ("--points", "points", str, True, None, None,
         "comma-separated evaluation points"),
        ("--s", "s", float, False, None, 1.0, "shape parameter for --which p"),
        ("--out", "out", str, False, None, None, None),
    )),
    "apply": ("apply a fractional operator", _cmd_apply, (
        ("--op", "op", str, True, ("j", "s", "d"), None, None),
        ("--side", "side", str, True, ("left", "right"), None, None),
        ("--alpha", "alpha", float, True, None, None, None),
        ("--spec", "spec", str, True, None, None,
         "function spec, e.g. const:1"),
        ("--interval", "interval", str, True, None, None, "a,b"),
        ("--n-out", "n_out", int, True, None, None, None),
        ("--out", "out", str, False, None, None, None),
    )),
    "verify": ("run an identity verification suite", _cmd_verify, (
        ("--suite", "suite", str, True,
         ("all", "integrals", "inversion", "derivatives", "laplace"), None,
         None),
        ("--alpha-list", "alpha_list", str, False, None, None, None),
        ("--out", "out", str, False, None, None, None),
    )),
    "sweep": ("alpha sweep of L1 convergence distances", _cmd_sweep, (
        ("--spec", "spec", str, True, None, None, None),
        ("--alpha-list", "alpha_list", str, True, None, None, None),
        ("--side", "side", str, False, ("left", "right"), "left", None),
        ("--interval", "interval", str, False, None, "0,1", None),
        ("--n", "n", int, False, None, 800, None),
        ("--out", "out", str, False, None, None, None),
    )),
    "relax": ("solve a fractional relaxation problem", _cmd_relax, (
        ("--problem", "problem", str, True, None, None, "problem JSON path"),
        ("--u0", "u0", str, False, None, "zero", "zero | const:<c>"),
        ("--out", "out", str, False, None, None, "solution CSV path"),
        ("--diagnostics", "diagnostics", str, False, None, None,
         "diagnostics JSON path (stderr when omitted)"),
    )),
}
_DESCRIPTION = ("fractional integral/derivative operators of the "
                "exponential-integral and Volterra kernels")


def _argparse(argv: list[str]):
    """argv read by the argparse parser of _COMMANDS.  argparse is
    imported here: its import and the locale lookups of its messages cost
    a cold process more than a whole command line read by parse_args."""
    import argparse

    ap = argparse.ArgumentParser(prog="fracalc", description=_DESCRIPTION)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, func, rows) in _COMMANDS.items():
        parser = sub.add_parser(command, help=text)
        for flag, dest, kind, required, choices, default, help_ in rows:
            parser.add_argument(flag, dest=dest, type=kind, required=required,
                                choices=choices, default=default, help=help_)
        parser.set_defaults(func=func)
    return ap.parse_args(argv)


def parse_args(argv: list[str]):
    """The command line argv as the command's function, its name and one
    attribute per option of its table, as argparse reads it.

    A line argparse can read only one way is read here: a command, then
    its own flags in full as "--flag value" or "--flag=value", no value
    starting with "-", every value of its option's type and among its
    choices, every required flag given, the last occurrence winning.
    argparse reads every other line (prefixes, "--", negative numbers),
    prints -h (exit 0) and reports usage errors (exit 2)."""
    if argv and argv[0] in _COMMANDS:
        _, func, rows = _COMMANDS[argv[0]]
        by_flag = {row[0]: row for row in rows}
        values = {row[1]: row[5] for row in rows}
        given = set()
        words = iter(argv[1:])
        for word in words:
            flag, eq, text = word.partition("=")
            text = text if eq else next(words, "-")
            if flag not in by_flag or text.startswith("-"):
                break
            _, dest, kind, _, choices, _, _ = by_flag[flag]
            try:
                values[dest] = kind(text)
            except ValueError:
                break
            if choices and values[dest] not in choices:
                break
            given.add(flag)
        else:
            if all(row[0] in given for row in rows if row[3]):
                return SimpleNamespace(command=argv[0], func=func, **values)
    return _argparse(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args.acc = default_accuracy()  # a malformed value fails every command
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 2
        raise
    except (RuntimeError, ValueError) as exc:
        # an operator or a kernel rejected its input (a grid that does not
        # cover its interval, a point past a kernel's domain)
        sys.stderr.write(f"{args.command} failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
