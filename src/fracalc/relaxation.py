"""Picard solver for the fractional relaxation equation on [0, 1].

The problem  D^alpha u + lambda u = f(t, u),  (J^alpha u)(0) = 0  is
equivalent to the fixed point  u = T(-lambda u + f(., u))  where T is the
left second-kind integral on [0, 1] (value 0 at t = 0).  Under the
Lipschitz assumption the map contracts with constant

    kappa = alpha (lambda + C_f) Q(1/alpha),

and Picard iteration converges geometrically; when kappa >= 1 the solver
still iterates but flags that the contraction guarantee is void.

T is applied through exact product integration of the piecewise-linear
iterate against the kernel moments (same machinery as the second-kind
operator): each solve looks the lattice's hat-weight spectrum up once, and
each sweep is one forward and one inverse real FFT, O(n log n).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .funcspec import (FunctionSpec, GridFunction, Interval, _csv_text,
                       eval_spec_array, parse_spec)
from .operators import (OperatorParams, Side, _hat_weights, _lattice_apply,
                        _lattice_product, _s_weights)
from .special import s_cumulative

TIME_DOMAIN = Interval(0.0, 1.0)


@dataclass(frozen=True)
class Autonomous:
    """Right-hand side f(t, u) = g(t); Lipschitz constant 0."""

    g: FunctionSpec


@dataclass(frozen=True)
class Affine:
    """Right-hand side f(t, u) = g(t) + c u; Lipschitz constant |c|."""

    g: FunctionSpec
    c: float


RhsSpec = Union[Autonomous, Affine]


@dataclass(frozen=True)
class RelaxationProblem:
    alpha: float
    lam: float
    rhs: RhsSpec
    lipschitz_cf: float = 0.0
    grid_n: int = 256
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(
                f"lambda must be positive and finite, got {self.lam}")
        if self.grid_n < 16:
            raise ValueError(f"grid_n must be at least 16, got {self.grid_n}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if isinstance(self.rhs, Affine):
            if not math.isfinite(self.rhs.c):
                raise ValueError(f"c must be finite, got {self.rhs.c}")
            if not abs(self.rhs.c) <= self.lipschitz_cf < math.inf:
                raise ValueError(
                    f"lipschitz_cf={self.lipschitz_cf} must be finite and at "
                    f"least |c|={abs(self.rhs.c)}")
        elif self.lipschitz_cf != 0.0:
            raise ValueError("autonomous right-hand sides have lipschitz_cf = 0")

    def rhs_at(self, t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """u -> f(t, u) at fixed nodes t, with g(t) evaluated once."""
        g_t = eval_spec_array(self.rhs.g, t, TIME_DOMAIN, self.alpha)
        if isinstance(self.rhs, Autonomous):
            return lambda u: g_t
        return lambda u: g_t + self.rhs.c * u

    def rhs_values(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.rhs_at(t)(u)


@dataclass
class SolveDiagnostics:
    """kappa is the contraction constant of the continuous map; rho =
    |lambda - c| alpha W_0 the spectral radius of one sweep on the lattice,
    W_0 the lag-0 hat weight of S: a sweep maps the error e at nodes 1..n
    to -(lambda - c) alpha A e, A lower-triangular Toeplitz with diagonal
    W_0.  Picard on the lattice converges from every start exactly when
    rho < 1, and rho <= kappa."""

    iterations: int
    sup_changes: list[float]
    kappa: float
    rho: float
    converged: bool
    contraction_warning: bool = False


def contraction_constant(alpha: float, lam: float, cf: float) -> float:
    """kappa = alpha (lambda + cf) Q(1/alpha); contraction when < 1."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if lam < 0.0 or cf < 0.0:
        raise ValueError("lambda and cf must be nonnegative")
    return alpha * (lam + cf) * _kernel_mass(alpha)


@functools.lru_cache(maxsize=64)
def _kernel_mass(alpha: float) -> float:
    """Q(1/alpha), once per alpha: every solve_picard needs it for kappa."""
    return s_cumulative(1.0 / alpha)


def apply_t(h: GridFunction, alpha: float) -> GridFunction:
    """The solution operator T: left second-kind integral on [0, 1],
    pinned to 0 at t = 0, on h's own lattice (apply_s's lattice engine,
    without its report)."""
    if h.interval != TIME_DOMAIN:
        raise ValueError("apply_t expects a grid on [0, 1]")
    p = OperatorParams(Side.LEFT, alpha, TIME_DOMAIN)
    return GridFunction(TIME_DOMAIN, _lattice_apply(h, p, _s_weights, alpha))


# Growth of the sup change over its smallest value so far that stops a
# kappa >= 1 run: 2^52, beyond which the iterate keeps no significant digit
# at the scale of its best sweep.  Runs that do converge grow by far less
# on their way (5.3e6 over 58 sweeps at alpha 1, lambda 3, g = 1).
_DIVERGENCE_GROWTH = 2.0 ** 52


def solve_picard(prob: RelaxationProblem,
                 u0: GridFunction) -> tuple[GridFunction, SolveDiagnostics]:
    """Picard iteration u_{n+1} = T(-lambda u_n + f(., u_n)) from u0.

    Stops when the sup change drops below prob.tol; if kappa >= 1 the
    contraction guarantee does not apply and the diagnostics carry a
    warning instead of a convergence claim by contraction.  Such a run
    may still converge after a transient growth, so it stops early only
    once its sup change exceeds _DIVERGENCE_GROWTH times the smallest sup
    change before it, and returns that last iterate, unconverged; an
    iterate that overflows first ends the run at the last finite one.
    The diagnostics report rho, the spectral radius of one sweep on the
    lattice, next to kappa (see SolveDiagnostics).  Every kernel it
    evaluates (Q for kappa, T's lattice weights) is a fixed rule, so no
    work budget applies.
    """
    if u0.interval != TIME_DOMAIN or u0.n != prob.grid_n:
        raise ValueError(
            f"u0 must live on [0, 1] with grid_n={prob.grid_n} intervals"
        )
    kappa = contraction_constant(prob.alpha, prob.lam, prob.lipschitz_cf)
    warning = kappa >= 1.0
    rhs = prob.rhs_at(u0.nodes())
    # T's hat weights, looked up once: every sweep is one lattice product
    spectrum, far, w0 = _hat_weights(_s_weights, u0.spacing / prob.alpha,
                                     prob.grid_n)
    mu = prob.lam - (prob.rhs.c if isinstance(prob.rhs, Affine) else 0.0)
    rho = abs(mu) * prob.alpha * w0
    u = u0.values.copy()
    sup_changes: list[float] = []
    converged = False
    smallest = math.inf  # smallest sup change of the sweeps before this one
    for _ in range(prob.max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            h = -prob.lam * u + rhs(u)
            if not np.isfinite(h).all():  # the iterate overflowed
                break
            u_next = _lattice_product(h, spectrum, far, prob.alpha)
            change = float(np.max(np.abs(u_next - u)))
        if not np.isfinite(change):
            break
        sup_changes.append(change)
        u = u_next
        if change < prob.tol:
            converged = True
            break
        if warning and change > _DIVERGENCE_GROWTH * smallest:
            break
        smallest = min(smallest, change)
    return (GridFunction(TIME_DOMAIN, u),
            SolveDiagnostics(len(sup_changes), sup_changes, kappa, rho,
                             converged, warning))


# ---------------------------------------------------------------------------
# JSON problem documents and CSV/JSON outputs
# ---------------------------------------------------------------------------

def problem_from_json(path: str | Path) -> RelaxationProblem:
    """Load a problem document:

    {"alpha": 0.25, "lambda": 0.5,
     "rhs": {"type": "autonomous", "g": "sin:1"}
            | {"type": "affine", "g": "const:1", "c": -0.2},
     "lipschitz_cf": 0.2, "grid_n": 256, "tol": 1e-8, "max_iter": 200}
    """
    with open(path) as fh:
        doc = json.load(fh)
    rhs_doc = doc["rhs"]
    kind = rhs_doc["type"]
    g = parse_spec(rhs_doc["g"])
    if kind == "autonomous":
        rhs: RhsSpec = Autonomous(g)
    elif kind == "affine":
        rhs = Affine(g, float(rhs_doc["c"]))
    else:
        raise ValueError(f"unknown rhs type {kind!r}")
    for key in ("grid_n", "max_iter"):  # refused, not truncated by int()
        if isinstance(doc.get(key), float) and not doc[key].is_integer():
            raise ValueError(f"{key} must be a whole number, got {doc[key]!r}")
    return RelaxationProblem(
        alpha=float(doc["alpha"]),
        lam=float(doc["lambda"]),
        rhs=rhs,
        lipschitz_cf=float(doc.get("lipschitz_cf",
                                   abs(rhs.c) if isinstance(rhs, Affine) else 0.0)),
        grid_n=int(doc.get("grid_n", 256)),
        tol=float(doc.get("tol", 1e-8)),
        max_iter=int(doc.get("max_iter", 200)),
    )


def write_solution_csv(path: str | Path, u: GridFunction) -> None:
    """u as a t,u CSV with "\r\n" line ends."""
    with open(path, "w", newline="\r\n") as fh:
        fh.write(_csv_text(["t", "u"], [u.nodes().tolist(), u.values.tolist()]))


def diagnostics_to_json(d: SolveDiagnostics) -> dict:
    return {
        "iterations": d.iterations,
        "kappa": d.kappa,
        "rho": d.rho,
        "sup_changes": d.sup_changes,
        "converged": d.converged,
        "warning": d.contraction_warning,
    }
