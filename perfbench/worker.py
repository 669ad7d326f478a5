"""Worker process: imports fracalc, optionally fills caches, runs a list of
timed operations and writes their latencies to a JSON result file.

    python3 worker.py JOB.json

The time from process start to the end of set-up goes to setup_s; each
operation is timed alone, around fracalc.cli.main(argv) or one library
call.  Inputs are built and outputs saved outside the timed region.
"""

import time

import json
import sys
import traceback

import fracalc.cli
import numpy as np
# functions are called through their modules so that tracing wrappers,
# installed by rebinding module attributes, see every call
from fracalc import funcspec, operators, relaxation
from fracalc.funcspec import Grid, GridFunction, Interval
from fracalc.operators import OperatorParams, Side
from fracalc.relaxation import TIME_DOMAIN, Autonomous, RelaxationProblem

import gen  # benchmark module, next to this file

UNIT = Interval(0.0, 1.0)


def fixed_point_residual(prob: RelaxationProblem, u: np.ndarray) -> float:
    """sup |T(-lambda u + f(., u)) - u| with one extra apply_t call."""
    t = np.linspace(0.0, 1.0, u.size)
    h = GridFunction(TIME_DOMAIN, -prob.lam * u + prob.rhs_values(t, u))
    return float(np.max(np.abs(relaxation.apply_t(h, prob.alpha).values - u)))


def fill_caches() -> None:
    """The warm sweep's set-up: one apply_s and one Picard solve on each
    lattice it will time."""
    for alpha in gen.SWEEP_ALPHAS:
        for n in gen.SWEEP_NS:
            f = Grid(GridFunction(UNIT, np.linspace(0.0, 1.0, n + 1)))
            operators.apply_s(f, OperatorParams(Side.LEFT, alpha, UNIT), n)
            prob = RelaxationProblem(alpha, 0.5,
                                     Autonomous(funcspec.parse_spec("const:1")),
                                     grid_n=n)
            relaxation.solve_picard(prob, GridFunction(TIME_DOMAIN, np.zeros(n + 1)))


class Timed:
    """Times one operation; spans recorded meanwhile belong to operation i,
    all others (set-up, checks) to -1."""

    tracer = None

    def __init__(self, i: int):
        self.i = i

    def __enter__(self):
        if Timed.tracer:
            Timed.tracer.op = self.i
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.latency = time.perf_counter() - self.t0
        if Timed.tracer:
            Timed.tracer.op = -1


def run_cli(i: int, op: dict):
    """Times fracalc.cli.main(argv); returns the result and a follow-up
    that adds the relax checks outside the timed region."""
    with Timed(i) as clock:
        try:
            rc = fracalc.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    res = {"latency": clock.latency, "rc": rc}

    def follow_up():
        if rc == 0 and "problem" in op:
            with open(op["diag"]) as fh:
                res["converged"] = bool(json.load(fh)["converged"])
            u = np.loadtxt(op["out"], delimiter=",", skiprows=1, ndmin=2)[:, 1]
            prob = relaxation.problem_from_json(op["problem"])
            res["residual"] = fixed_point_residual(prob, u)
    return res, follow_up


def run_call(i: int, op: dict):
    """Times one warm library call; the output goes to op['out'] as .npy."""
    if op["kind"] == "picard":
        prob = relaxation.problem_from_json(op["problem"])
        u0 = GridFunction(TIME_DOMAIN, np.zeros(prob.grid_n + 1))
        with Timed(i) as clock:
            u, diag = relaxation.solve_picard(prob, u0)
        res = {"latency": clock.latency, "rc": 0, "converged": bool(diag.converged)}

        def follow_up():
            res["residual"] = fixed_point_residual(prob, u.values)
        return res, follow_up
    values = gen.grid_values(op["values"], op["n"], op["vseed"])
    f = Grid(GridFunction(UNIT, values))
    p = OperatorParams(Side(op["side"]), op["alpha"], UNIT)
    fn = getattr(operators, op["kind"])
    with Timed(i) as clock:
        report = fn(f, p, op["n_out"])
    res = {"latency": clock.latency, "rc": 0,
           "converged": bool(np.all(report.per_point_converged))}
    return res, lambda: np.save(op["out"], report.outputs.values)


def peak_rss_kb() -> int:
    """VmHWM of this process.  Not getrusage's ru_maxrss: that keeps the
    peak of the parent's memory copied by fork, before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    if job.get("trace"):
        import spans
        Timed.tracer = spans.Tracer()
        Timed.tracer.install()
    if job.get("fill_caches"):
        fill_caches()
    ready = time.perf_counter()
    results = []
    for i, op in enumerate(job["ops"]):
        try:
            res, follow_up = run_cli(i, op) if "argv" in op else run_call(i, op)
            follow_up()
        except Exception:
            traceback.print_exc()
            res = {"latency": None, "rc": 1}
        results.append(res)
    if Timed.tracer:
        Timed.tracer.write(job["spans"])
    out = {"ready": ready, "ops": results,
           "fracalc": fracalc.__file__,
           "maxrss_kb": peak_rss_kb()}
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
