"""fracalc benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload {verify,cli_cold,sweep_warm} \
        --seed N --seconds S --trace {0,1}

Run from the root of a fracalc checkout; workers import fracalc from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # fixed, and no larger than the 2 cores the ranges assume
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
BUDGET_S = 170.0          # every run ends well inside the 180 s limit
SETUP_SAMPLES = 5         # processes whose set-up is timed, verify workload
SWEEP_WORKERS = 3         # warm-sweep processes, each with its own set-up
VERIFY_ROWS = 115
RESIDUAL_FACTOR = 10.0    # Picard fixed-point residual allowed, times tol

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = [
    "special.e1_array.calls", "special.e1_array.points", "special.e1_array.self_s",
    "special.volterra_s_array.calls", "special.volterra_s_array.points",
    "special.volterra_s_array.self_s",
    "special.log_gamma_array.points", "special.log_gamma_array.self_s",
    "special.s_cumulative.calls", "special.s_cumulative.self_s",
    "special.s_first_moment.calls", "special.s_first_moment.self_s",
    "special.p_regularized_array.self_s",
    "special.e1_cumulative0_array.self_s", "special.e1_cumulative1_array.self_s",
    "special.e1.calls", "special.e1.self_s", "special.volterra_s.self_s",
    "special.e1_s_convolution.calls", "special.e1_s_convolution.self_s",
    "quadrature.integrate.calls", "quadrature.integrate.panels",
    "quadrature.integrate.unconverged", "quadrature.integrate.self_s",
    "quadrature.integrate_semi_infinite.panels",
    "quadrature.integrate_semi_infinite.self_s", "quadrature.laplace.self_s",
    "operators.apply_j.grid.calls", "operators.apply_j.grid.self_s",
    "operators.apply_j.grid_at.calls", "operators.apply_j.grid_at.self_s",
    "operators.apply_j.analytic.calls", "operators.apply_j.analytic.self_s",
    "operators.apply_s.grid.calls", "operators.apply_s.grid.self_s",
    "operators.apply_s.grid.moment_hit_ratio", "operators.apply_s.grid.lattices",
    "operators.apply_s.analytic.calls", "operators.apply_s.analytic.self_s",
    "operators.running_integral.self_s",
    "derivatives.d_frac_ac.self_s", "derivatives.d_frac_numeric.self_s",
    "derivatives.d_frac_at.self_s", "derivatives.check_inversion_ds.self_s",
    "derivatives.katr_residual.self_s", "derivatives.parts_fractional.self_s",
    "relaxation.solve_picard.calls", "relaxation.solve_picard.iterations",
    "relaxation.solve_picard.unconverged", "relaxation.solve_picard.self_s",
    "relaxation.apply_t.calls", "relaxation.apply_t.self_s",
    "relaxation.contraction_constant.self_s", "relaxation.problem_from_json.self_s",
    "verify.run_suite.self_s", "verify.suite_laplace.self_s",
    "verify.suite_integrals.self_s", "verify.suite_inversion.self_s",
    "verify.suite_derivatives.self_s", "verify.rows_to_csv.self_s",
    "funcspec.load_grid_csv.calls", "funcspec.load_grid_csv.self_s",
    "funcspec.parse_spec.self_s", "funcspec.eval_spec_array.calls",
    "funcspec.eval_spec_array.self_s", "funcspec.sample_spec.self_s",
    "cli.main.calls", "cli.main.self_s",
]


class Runner:
    """Starts worker processes one after another and collects their
    latencies, set-up times and peak memory."""

    def __init__(self, tmp: str, deadline: float, spans_dir: str | None):
        self.tmp = tmp
        self.deadline = deadline
        self.spans_dir = spans_dir
        self.setup: list[float] = []
        self.rss_kb: list[int] = []
        self.span_files: list[str] = []
        self.jobs = 0
        src = os.path.join(os.getcwd(), "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(self, ops: list[dict], fill_caches: bool = False) -> list[dict]:
        """One worker process for ops; failed or unfinished ops get rc 1."""
        k = self.jobs
        self.jobs += 1
        job = {"ops": ops, "fill_caches": fill_caches,
               "result": os.path.join(self.tmp, f"result-{k}.json")}
        if self.spans_dir:
            job.update(trace=True, spans=os.path.join(self.spans_dir, f"worker-{k}.npz"))
        job_path = os.path.join(self.tmp, f"job-{k}.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        failed = [{"latency": None, "rc": 1} for _ in ops]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return failed
        with open(os.path.join(self.tmp, f"stderr-{k}.txt"), "w") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen([sys.executable, WORKER, job_path],
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            with open(err.name) as fh:
                sys.stderr.write(fh.read()[-2000:])
            return failed
        with open(job["result"]) as fh:
            res = json.load(fh)
        if not res["fracalc"].startswith(os.path.join(os.getcwd(), "src")):
            sys.stderr.write(f"worker imported fracalc from {res['fracalc']}\n")
            return failed
        self.setup.append(res["ready"] - spawned)
        self.rss_kb.append(res["maxrss_kb"])
        if self.spans_dir:
            self.span_files.append(job["spans"])
        return res["ops"]


def execute(workload: str, ops: list[dict], runner: Runner) -> list[dict]:
    if workload == "verify":
        for _ in range(SETUP_SAMPLES - 1):
            runner.run([])
        return runner.run(ops)
    if workload == "cli_cold":
        return [runner.run([op])[0] for op in ops]
    per = -(-len(ops) // SWEEP_WORKERS)
    results = []
    for w in range(SWEEP_WORKERS):
        results += runner.run(ops[w * per:(w + 1) * per], fill_caches=True)
    return results


# --- checks ------------------------------------------------------------------

def read_report(path: str):
    """x, value, converged and err_estimate columns of an apply CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    x = np.array([float(r[0]) for r in rows])
    v = np.array([float(r[1]) for r in rows])
    conv = all(r[2] == "true" for r in rows)
    err = np.array([float(r[3]) for r in rows])
    return x, v, conv, err


def sample_rows(m: int, seed: int) -> np.ndarray:
    """Four output rows to check: the first interior one, the last, the
    middle and one drawn from the seed."""
    rng = np.random.default_rng(seed)
    return np.unique([1, m // 2, m - 1, int(rng.integers(1, m))])


class Checker:
    def __init__(self, seed: int):
        self.seed = seed
        self._tables: dict[tuple[float, int], tuple] = {}

    def tables(self, alpha: float, n: int):
        key = (alpha, n)
        if key not in self._tables:
            self._tables[key] = checks.q_m1(np.arange(n + 1) / (n * alpha))
        return self._tables[key]

    def grid(self, op: str, v: np.ndarray, alpha: float, side: str,
             out: np.ndarray, x_out: np.ndarray, i: int) -> bool:
        """Sampled points of a grid apply against the reference, plus the
        norm bounds when the output is on a sub-lattice of the input."""
        n = v.size - 1
        rows = sample_rows(out.size, self.seed + i)
        if op == "s":
            stride = n // (out.size - 1)
            ref, scale = checks.s_grid(v, alpha, side, rows * stride,
                                       self.tables(alpha, n))
        else:
            ref, scale = checks.j_grid(v, alpha, side, x_out[rows])
        if not checks.close(out[rows], ref, scale):
            return False
        aligned = n % (out.size - 1) == 0
        return not aligned or checks.norms_ok(op, v, out, alpha)

    def check(self, i: int, op: dict, res: dict) -> bool:
        """True when operation i ran, converged and matches its reference;
        an unreadable output counts as a failure, reported on stderr."""
        if res.get("rc") != 0 or res.get("latency") is None:
            return False
        try:
            return self._check(i, op, res)
        except Exception:
            traceback.print_exc()
            return False

    def _check(self, i: int, op: dict, res: dict) -> bool:
        kind = op["kind"]
        if kind == "verify":
            with open(op["out"], newline="") as fh:
                rows = list(csv.DictReader(fh))
            return len(rows) == VERIFY_ROWS and all(r["pass"] == "true" for r in rows)
        if kind.startswith("relax") or kind == "picard":
            tol = op["doc"]["tol"]
            return bool(res.get("converged")) and res.get("residual", np.inf) <= RESIDUAL_FACTOR * tol
        if kind in ("apply_s", "apply_j"):
            if not res["converged"]:
                return False
            v = gen.grid_values(op["values"], op["n"], op["vseed"])
            out = np.load(op["out"])
            x_out = np.linspace(0.0, 1.0, out.size)
            return self.grid(kind[-1], v, op["alpha"], op["side"], out, x_out, i)
        x, out, conv, err = read_report(op["out"])
        if not conv:
            return False
        if kind.startswith("grid"):
            v = np.loadtxt(op["grid"], delimiter=",", ndmin=2)[:, 1]   # as written
            return self.grid("s" if kind == "grid_s" else "j", v, op["alpha"],
                             op["side"], out, x, i)
        opname = kind[-1]
        for r in sample_rows(out.size, self.seed + i)[:3]:
            ref = checks.analytic(opname, op["fn"], op["alpha"], op["side"], x[r])
            if not checks.analytic_close(out[r], ref, err[r]):
                return False
        return True


# --- metrics -----------------------------------------------------------------

def tail(lat: list[float]):
    """Highest percentile with at least ten samples above it: (value,
    percentile), or None with fewer than eleven samples."""
    n = len(lat)
    if n < 11:
        return None
    return sorted(lat)[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS, "loadavg": os.getloadavg()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    if not os.path.isfile(os.path.join("src", "fracalc", "__init__.py")):
        sys.stderr.write("run from the root of a fracalc checkout (no src/fracalc)\n")
        return 2
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(OUT_DIR, f"tmp-{tag}-{os.getpid()}")
    spans_dir = os.path.join(OUT_DIR, "spans", tag) if args.trace else None
    for d in (tmp, spans_dir):
        if d:
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
    try:
        ops = gen.GENERATORS[args.workload](args.seed, args.seconds, tmp)
        runner = Runner(tmp, start + BUDGET_S, spans_dir)
        t0 = time.perf_counter()
        results = execute(args.workload, ops, runner)
        pass_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        checker = Checker(args.seed)
        ok = [checker.check(i, op, res) for i, (op, res) in enumerate(zip(ops, results))]
        record = run_record(args, env, runner, results, ok)
        record.update(pass_s=pass_s, check_s=time.perf_counter() - t1)
        if args.trace:
            add_trace(record, runner, start, pass_s, args.workload, ops, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, args.trace)
    return 0


def run_record(args, env, runner: Runner, results: list[dict], ok: list[bool]) -> dict:
    lat = [r["latency"] for r in results if r.get("latency") is not None]
    failed = ok.count(False)
    rec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": env, "attempted": len(ok), "failed": failed,
           "ops_failed_frac": failed / len(ok), "latencies": lat}
    e2e = {"wall_s": sum(lat)}
    if lat:
        e2e["op_p50_s"] = statistics.median(lat)
        t = tail(lat)
        if t:
            rec["op_tail_s"], rec["op_tail_percentile"] = t
    if runner.setup:
        e2e["setup_s"] = statistics.median(runner.setup)
        e2e["peak_rss_mb"] = max(runner.rss_kb) / 1024.0
    rec["setup_samples"] = runner.setup
    rec["end_to_end"] = e2e
    return rec


def add_trace(rec: dict, runner: Runner, start: float, pass_s: float,
              workload: str, ops: list[dict], tmp: str) -> None:
    totals = spans.Totals()
    for path in runner.span_files:
        totals.add_file(path)
    layer = {}
    absent = []
    for name in PER_LAYER:
        value = totals.metric(name)
        if value is None:
            absent.append(name)
        else:
            layer[name] = value
    rec.update(per_layer=layer, absent=absent, spans=totals.spans)
    # the same ops once more without tracing, if the time limit allows it
    if time.perf_counter() - start + 1.2 * pass_s < BUDGET_S:
        plain = Runner(tmp, start + BUDGET_S, None)
        lat = [r["latency"] for r in execute(workload, ops, plain)]
        if None not in lat:
            rec["untraced_wall_s"] = sum(lat)
            rec["trace_overhead_s"] = rec["end_to_end"]["wall_s"] - sum(lat)


def report(rec: dict, trace: int) -> None:
    env = rec["env"]
    print(f"# workload {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}"
          f"  trace {trace}")
    print(f"# nproc {env['nproc']} (affinity {env['affinity']})  python {env['python']}"
          f"  numpy {env['numpy']}  BLAS threads {env['blas_threads']}"
          f"  loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"# ops attempted {rec['attempted']}  failed {rec['failed']}"
          f"  ops_failed_frac {rec['ops_failed_frac']:.6g} ratio"
          f"  (workers {rec['pass_s']:.1f} s, checks {rec['check_s']:.1f} s)")
    units = dict(END_TO_END)
    for name, value in rec["end_to_end"].items():
        print(f"{'#' if trace else ' '} {name:<12} {value:.6g} {units[name]}")
    if "op_tail_s" in rec:
        print(f"{'#' if trace else ' '} {'op_tail_s':<12} {rec['op_tail_s']:.6g} s"
              f"  (p{rec['op_tail_percentile']:.1f} of {len(rec['latencies'])} ops)")
    else:
        print(f"  op_tail_s    omitted ({len(rec['latencies'])} ops, fewer than 11)")
    if trace:
        for name, value in rec["per_layer"].items():
            print(f"  {name:<46} {value:.6g} {spans.UNITS[name.rsplit('.', 1)[1]]}")
        for name in rec["absent"]:
            print(f"  {name:<46} absent (not found at this commit)")
        if "trace_overhead_s" in rec:
            print(f"# trace_overhead_s {rec['trace_overhead_s']:.6g} s (traced wall_s"
                  f" {rec['end_to_end']['wall_s']:.6g} - untraced {rec['untraced_wall_s']:.6g})")
        else:
            print("# trace_overhead_s not measured (no time left for the untraced pass)")
        metrics = {k: {"value": v, "unit": spans.UNITS[k.rsplit(".", 1)[1]]}
                   for k, v in rec["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in rec["end_to_end"].items()}
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
