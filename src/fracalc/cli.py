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

import json
import os
import re
import sys
from types import SimpleNamespace

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
_OUT_HELP = "output CSV path (stdout when omitted)"


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


def _cmd_kernel(args: SimpleNamespace) -> int:
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


def _cmd_apply(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    acc = default_accuracy()
    alphas = _parse_floats(args.alpha_list, "alpha") if args.alpha_list else None
    rows = verify.run_suite(args.suite, alphas, acc)
    _emit(verify.rows_to_csv(rows), args.out)
    return 3 if any(not r.passed for r in rows) else 0


def _cmd_sweep(args: SimpleNamespace) -> int:
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


def _cmd_relax(args: SimpleNamespace) -> int:
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


# The options of each command, one row per option:
#     (flag, dest, type, required, choices, default, help).
# parse_args reads these rows, and -h prints them.
_COMMANDS = {
    "kernel": ("tabulate a kernel function", _cmd_kernel, (
        ("--which", "which", str, True, ("e1", "s", "p", "q"), None,
         "kernel function"),
        ("--points", "points", str, True, None, None,
         "comma-separated evaluation points"),
        ("--s", "s", float, False, None, 1.0, "shape parameter for --which p"),
        ("--out", "out", str, False, None, None, _OUT_HELP),
    )),
    "apply": ("apply a fractional operator", _cmd_apply, (
        ("--op", "op", str, True, ("j", "s", "d"), None,
         "first-kind integral, second-kind integral or derivative"),
        ("--side", "side", str, True, ("left", "right"), None, None),
        ("--alpha", "alpha", float, True, None, None, "kernel scale, > 0"),
        ("--spec", "spec", str, True, None, None,
         "function spec, e.g. const:1"),
        ("--interval", "interval", str, True, None, None, "a,b"),
        ("--n-out", "n_out", int, True, None, None,
         "number of output intervals"),
        ("--out", "out", str, False, None, None, _OUT_HELP),
    )),
    "verify": ("run an identity verification suite", _cmd_verify, (
        ("--suite", "suite", str, True,
         ("all", "integrals", "inversion", "derivatives", "laplace"), None,
         None),
        ("--alpha-list", "alpha_list", str, False, None, None,
         "comma-separated alphas (the suite's own when omitted)"),
        ("--out", "out", str, False, None, None, _OUT_HELP),
    )),
    "sweep": ("alpha sweep of L1 convergence distances", _cmd_sweep, (
        ("--spec", "spec", str, True, None, None,
         "function spec, e.g. sin:3"),
        ("--alpha-list", "alpha_list", str, True, None, None,
         "comma-separated alphas"),
        ("--side", "side", str, False, ("left", "right"), "left", None),
        ("--interval", "interval", str, False, None, "0,1", "a,b"),
        ("--n", "n", int, False, None, 800, "grid intervals"),
        ("--out", "out", str, False, None, None, _OUT_HELP),
    )),
    "relax": ("solve a fractional relaxation problem", _cmd_relax, (
        ("--problem", "problem", str, True, None, None, "problem JSON path"),
        ("--u0", "u0", str, False, None, "zero", "zero | const:<c>"),
        ("--out", "out", str, False, None, None,
         "solution CSV path (stdout when omitted)"),
        ("--diagnostics", "diagnostics", str, False, None, None,
         "diagnostics JSON path (stderr when omitted)"),
    )),
}
_DESCRIPTION = ("fractional integral/derivative operators of the "
                "exponential-integral and Volterra kernels")
_HELP_FLAGS = ("-h", "--help")


def _metavar(row) -> str:
    _, dest, _, _, choices, _, _ = row
    return "{" + ",".join(choices) + "}" if choices else dest.upper()


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: fracalc [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = ["usage: fracalc", command, "[-h]"]
    for row in _COMMANDS[command][2]:
        word = f"{row[0]} {_metavar(row)}"
        words.append(word if row[3] else f"[{word}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    """The text of -h: usage, description and one entry per command or
    option, its help from column 25 as argparse prints it."""
    entries = [("-h, --help", "show this help and exit")]
    if command is None:
        about = _DESCRIPTION
        sections = [("commands:", [(name, text) for name, (text, _, _)
                                   in _COMMANDS.items()]),
                    ("options:", entries)]
    else:
        about = _COMMANDS[command][0]
        sections = [("options:", entries)]
        for row in _COMMANDS[command][2]:
            flag, _, _, required, _, default, text = row
            notes = [text] if text else []
            if required:
                notes.append("(required)")
            elif default is not None:
                notes.append(f"(default: {default})")
            entries.append((f"{flag} {_metavar(row)}", " ".join(notes)))
    lines = [_usage(command), "", about]
    for heading, rows in sections:
        lines += ["", heading]
        for left, text in rows:
            if len(left) > 20:
                lines += [f"  {left}", f"{'':24}{text}"]
            else:
                lines.append(f"  {left:<22}{text}")
    if command is None:
        lines += ["", "Run 'fracalc <command> -h' for the options of a "
                      "command."]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _fail(command: str | None, message: str):
    """A usage error, as argparse reports one: usage and message on
    stderr, exit status 2."""
    prog = f"fracalc {command}" if command else "fracalc"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help_exit(command: str | None, text: str | None):
    """-h: the help on stdout, exit status 0.  A value given to it, as in
    "--help=x", is a usage error."""
    if text is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument "
                       f"{text!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def _option(command: str | None, flags, token: str):
    """How argparse reads token among the flags: None for a value, else
    (flag, the value after "=" or None), flag None for an unknown option.
    A flag is named in full or by a unique prefix; "-1" and ".5"-style
    negative numbers and words with a space are values."""
    if not token.startswith("-") or token in ("-", "--"):
        return None
    if token in flags:
        return token, None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        if eq and name in flags:
            return name, value
        matches = [f for f in flags if f.startswith(name)]
        if len(matches) > 1:
            _fail(command, f"ambiguous option: {name} could match "
                           f"{', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line argv as the command's function, its name and one
    attribute per option of its table; -h prints help and exits 0, an
    argument error exits 2, as argparse would.  An option takes its value
    as "--flag value" or "--flag=value", the last occurrence wins."""
    unknown = []
    for i, token in enumerate(argv):
        option = _option(None, _HELP_FLAGS, token)
        if option is None:
            break
        if option[0] is None:
            unknown.append(token)
        else:
            _help_exit(None, option[1])
    else:
        _fail(None, "the following arguments are required: command")
    command = argv[i]
    if command not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} (choose "
                    f"from {', '.join(map(repr, _COMMANDS))})")
    _, func, rows = _COMMANDS[command]
    by_flag = {row[0]: row for row in rows}
    flags = (*by_flag, *_HELP_FLAGS)
    args = argv[i + 1:]
    # classify every word first, as argparse does: an ambiguous prefix
    # fails even after -h.  Every word after "--" is a value, and no
    # option takes "--" or a word after it as its value.
    end = args.index("--") if "--" in args else len(args)
    options = [_option(command, flags, token) for token in args[:end]]
    options += [None] * (len(args) - end)
    values = {row[1]: row[5] for row in rows}
    given = set()
    k = 0
    while k < len(args):
        option = options[k]
        k += 1
        if option is None or option[0] is None:
            unknown.append(args[k - 1])
            continue
        flag, text = option
        if flag in _HELP_FLAGS:
            _help_exit(command, text)
        if text is None:
            if k >= end or options[k] is not None:
                _fail(command, f"argument {flag}: expected one argument")
            text = args[k]
            k += 1
        _, dest, kind, _, choices, _, _ = by_flag[flag]
        try:
            value = kind(text)
        except ValueError:
            _fail(command, f"argument {flag}: invalid {kind.__name__} value: "
                           f"{text!r}")
        if choices and value not in choices:
            _fail(command, f"argument {flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
        values[dest] = value
        given.add(flag)
    missing = [row[0] for row in rows if row[3] and row[0] not in given]
    if missing:
        _fail(command, "the following arguments are required: "
                       + ", ".join(missing))
    if unknown:
        _fail(None, "unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(command=command, func=func, **values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
