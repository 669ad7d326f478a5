"""Seeded input generation for the three workloads.

The parameters that set an operation's cost (problem size, alpha, function
family) are stratified over the operations of one run: a run with k
operations of a kind takes one value from each of k equal-probability
strata, at seeded positions mirrored about the middle of the range, and the
strata of size and alpha are paired in a fixed pattern (largest size with
smallest alpha).  The discrete choices of a cold-CLI operation (side,
output stride, kind of grid values) are dealt from a balanced, seeded
shuffle, so every run has the same mix of them.
Two seeds therefore give different inputs of nearly the same cost, which
keeps a run's summed and median latency comparable across seeds; data
values and function coefficients are drawn freely.

The module needs only numpy: the worker processes import it to rebuild the
input vectors of the warm sweep from their seeds.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# --- fixed parameter ranges (mirrored in README.md) -------------------------

ALPHA_RANGE = (0.05, 1.0)          # log-uniform, every operator call
GRID_N_RANGE = (1024, 4096)        # cli_cold grid inputs, multiple of 4
GRID_AT_WORK = 2 ** 18             # cli_cold non-aligned J: n * n_out
ANALYTIC_N_OUT = (16, 32)          # cli_cold analytic j/s/d output intervals
RELAX_N_RANGE = (256, 1024)        # cli_cold relax grid_n
LAMBDA_RANGE = (0.2, 0.45)         # relax lambda; with |c| <= 0.2, kappa < 1
AFFINE_C_RANGE = (-0.2, 0.2)       # relax affine coefficient c
RELAX_TOL = 1e-9
RELAX_MAX_ITER = 200

# warm sweep: the lattices filled during set-up, and the only ones timed
SWEEP_ALPHAS = (0.1, 0.4)
SWEEP_NS = (1024, 4096)

# wall-clock seconds one round takes at the commit that defined the
# benchmark; --seconds / ROUND_S rounds make up one run's fixed op list
CLI_ROUND_S = 7.5
SWEEP_ROUND_S = 0.25
SWEEP_FILL_S = 10.0    # the three cache-filling set-ups of one sweep run

ANALYTIC_FAMILIES = ("sin", "cos", "exp", "poly", "powshift")
FORCING_FAMILIES = ("sin", "cos", "exp", "poly")


def rounds_for(seconds: float, round_s: float) -> int:
    return max(1, int(round(seconds / round_s)))


class Draw:
    """Stratified, antithetic draws for one run: the j-th of k draws of a
    key lies in stratum j of k, at a seeded position mirrored between
    strata j and k-1-j, so the draws of a run are symmetric about 1/2."""

    def __init__(self, seed: int, counts: dict[str, int]):
        self.rng = np.random.default_rng(seed)
        self._pool = {}
        self._counts = counts
        self._decks = {}
        for key, k in sorted(counts.items()):
            u = self.rng.random((k + 1) // 2)
            offset = np.concatenate([u, (1.0 - u[:k // 2])[::-1]])
            self._pool[key] = list((np.arange(k) + offset) / k)

    def unit(self, key: str) -> float:
        return float(self._pool[key].pop(0))

    def integer(self, key: str, lo: int, hi: int, step: int = 1) -> int:
        return lo + step * int(self.unit(key) * ((hi - lo) // step + 1))

    def choice(self, options):
        return options[int(self.rng.integers(len(options)))]

    def deal(self, key: str, options):
        """The next of counts[key] draws of key, dealt from the options
        repeated evenly and shuffled, so each option comes up as often as
        the count allows."""
        if key not in self._decks:
            k = self._counts[key]
            tiled = [options[i % len(options)] for i in range(k)]
            self._decks[key] = [tiled[j] for j in self.rng.permutation(k)]
        return self._decks[key].pop(0)


# --- functions: catalog specs with their derivative for the references -----

def analytic_spec(rng: np.random.Generator, family: str, side: str) -> dict:
    if family in ("sin", "cos"):
        w, amp = float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.5, 2.0))
        return {"spec": f"{family}:{w!r},{amp!r}", "family": family, "w": w, "amp": amp}
    if family == "exp":
        k, amp = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.5, 2.0))
        return {"spec": f"exp:{k!r},{amp!r}", "family": "exp", "k": k, "amp": amp}
    if family == "poly":
        coeffs = [float(c) for c in rng.normal(size=int(rng.integers(2, 5)))]
        return {"spec": "poly:" + ",".join(repr(c) for c in coeffs),
                "family": "poly", "coeffs": coeffs}
    n = int(rng.integers(1, 4))
    return {"spec": f"powshift-{side}:{n}", "family": f"powshift-{side}", "n": n}


def grid_values(kind: str, n: int, vseed: int) -> np.ndarray:
    """Input samples at the n+1 nodes of [0, 1]: standard normal noise, or
    a smooth sum of three sinusoids plus an offset."""
    rng = np.random.default_rng(vseed)
    if kind == "normal":
        return rng.standard_normal(n + 1)
    x = np.linspace(0.0, 1.0, n + 1)
    w = rng.uniform(0.5, 12.0, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    amp = rng.uniform(0.2, 1.5, 3)
    return rng.uniform(-1.0, 1.0) + np.sin(np.outer(x, w) + phase) @ amp


def write_grid_csv(path: str, values: np.ndarray) -> None:
    n = values.size - 1
    x = np.linspace(0.0, 1.0, n + 1)
    with open(path, "w") as fh:
        fh.writelines(f"{a:.15g},{b:.15g}\n" for a, b in zip(x, values))


# --- workloads --------------------------------------------------------------

def gen_verify(seed: int, seconds: float, tmp: str) -> list[dict]:
    """The verification suite is fixed (it seeds its own rng), so the seed
    changes nothing here."""
    return [{"kind": "verify",
             "argv": ["verify", "--suite", "all",
                      "--out", os.path.join(tmp, "out-0.csv")],
             "out": os.path.join(tmp, "out-0.csv")}]


_CLI_SLOTS = ("grid_s", "grid_s", "grid_j", "grid_j", "grid_at",
              "analytic_j", "analytic_s", "analytic_d",
              "relax_autonomous", "relax_affine")


def gen_cli_cold(seed: int, seconds: float, tmp: str) -> list[dict]:
    """One fresh CLI process per operation; every call has its own alpha,
    hence its own lattice, so no kernel moment is ever reused."""
    k = rounds_for(seconds, CLI_ROUND_S)
    draw = Draw(seed, {f"{s}.{p}": k * _CLI_SLOTS.count(s) for s in _CLI_SLOTS
                       for p in ("alpha", "n", "lambda", "side", "values", "stride")})
    lo, hi = (math.log(a) for a in ALPHA_RANGE)
    ops = []
    for r in range(k):
        for slot in _CLI_SLOTS:
            i = len(ops)
            out = os.path.join(tmp, f"out-{i}.csv")
            # descending alpha: the largest sizes meet the smallest alpha
            alpha = math.exp(hi - (hi - lo) * draw.unit(f"{slot}.alpha"))
            side = draw.deal(f"{slot}.side", ("left", "right"))
            op = {"kind": slot, "alpha": alpha, "side": side, "out": out}
            if slot.startswith("grid"):
                n = draw.integer(f"{slot}.n", *GRID_N_RANGE, step=4)
                vk = draw.deal(f"{slot}.values", ("normal", "smooth"))
                path = os.path.join(tmp, f"grid-{i}.csv")
                write_grid_csv(path, grid_values(vk, n, int(draw.rng.integers(2 ** 31))))
                if slot == "grid_at":
                    n_out = max(2, round(GRID_AT_WORK / n))
                    n_out += n % n_out == 0
                else:
                    n_out = n // draw.deal(f"{slot}.stride", (1, 2, 4))
                op.update(grid=path, n=n, n_out=n_out, values=vk,
                          argv=["apply", "--op", slot[-1] if slot != "grid_at" else "j",
                                "--side", side, "--alpha", repr(alpha),
                                "--spec", f"grid:{path}", "--interval", "0,1",
                                "--n-out", str(n_out), "--out", out])
            elif slot.startswith("analytic"):
                n_out = draw.integer(f"{slot}.n", *ANALYTIC_N_OUT)
                offset = {"analytic_j": 0, "analytic_s": 2, "analytic_d": 4}[slot]
                fn = analytic_spec(draw.rng, ANALYTIC_FAMILIES[(r + offset) % 5], side)
                op.update(fn=fn, n_out=n_out,
                          argv=["apply", "--op", slot[-1], "--side", side,
                                "--alpha", repr(alpha), "--spec", fn["spec"],
                                "--interval", "0,1", "--n-out", str(n_out),
                                "--out", out])
            else:
                grid_n = draw.integer(f"{slot}.n", *RELAX_N_RANGE)
                rhs_type = slot.split("_")[1]
                family = FORCING_FAMILIES[(r + 2 * (rhs_type == "affine")) % 4]
                doc = relax_doc(draw.rng, rhs_type, alpha, grid_n, family,
                                draw.unit(f"{slot}.lambda"))
                path = os.path.join(tmp, f"problem-{i}.json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                diag = os.path.join(tmp, f"diag-{i}.json")
                op.update(problem=path, diag=diag, doc=doc,
                          argv=["relax", "--problem", path, "--out", out,
                                "--diagnostics", diag])
            ops.append(op)
    return ops


def relax_doc(rng: np.random.Generator, rhs_type: str, alpha: float,
              grid_n: int, family: str, u_lambda: float | None = None) -> dict:
    """A relax problem; lambda is uniform in LAMBDA_RANGE, at u_lambda
    when the caller stratifies it."""
    g = analytic_spec(rng, family, "left")["spec"]
    if u_lambda is None:
        u_lambda = float(rng.random())
    lo, hi = LAMBDA_RANGE
    lam = lo + (hi - lo) * u_lambda
    rhs = {"type": rhs_type, "g": g}
    doc = {"alpha": alpha, "lambda": lam, "rhs": rhs, "grid_n": grid_n,
           "tol": RELAX_TOL, "max_iter": RELAX_MAX_ITER}
    if rhs_type == "affine":
        c = float(rng.uniform(*AFFINE_C_RANGE))
        rhs["c"] = c
        doc["lipschitz_cf"] = abs(c)
    return doc


def gen_sweep_warm(seed: int, seconds: float, tmp: str) -> list[dict]:
    """Library calls on the lattices filled during set-up only: fresh input
    vectors, sides and output strides for apply_j/apply_s, and Picard solves
    with fresh lambda, c and forcing.  The set-up of the worker processes
    counts toward --seconds."""
    k = rounds_for(seconds - SWEEP_FILL_S, SWEEP_ROUND_S)
    draw = Draw(seed, {})
    ops = []
    for r in range(k):
        round_ops = []
        for alpha in SWEEP_ALPHAS:
            for n in SWEEP_NS:
                for name in ("apply_s", "apply_j"):
                    round_ops.append({
                        "kind": name, "alpha": alpha, "n": n,
                        "side": draw.choice(("left", "right")),
                        "n_out": n // int(draw.choice((1, 2, 4))),
                        "values": draw.choice(("normal", "smooth")),
                        "vseed": int(draw.rng.integers(2 ** 31))})
                rhs_type = ("autonomous", "affine")[r % 2]
                round_ops.append({
                    "kind": "picard", "alpha": alpha, "n": n,
                    "doc": relax_doc(draw.rng, rhs_type, alpha, n,
                                     draw.choice(FORCING_FAMILIES))})
        for j in draw.rng.permutation(len(round_ops)):
            op = round_ops[j]
            i = len(ops)
            op["out"] = os.path.join(tmp, f"out-{i}.npy")
            if op["kind"] == "picard":
                op["problem"] = os.path.join(tmp, f"problem-{i}.json")
                with open(op["problem"], "w") as fh:
                    json.dump(op["doc"], fh)
            ops.append(op)
    return ops


GENERATORS = {"verify": gen_verify, "cli_cold": gen_cli_cold,
              "sweep_warm": gen_sweep_warm}
