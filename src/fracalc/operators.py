"""The four fractional integral operators plus closed-form references.

apply_j / apply_s evaluate the first-kind (E1 kernel) and second-kind
(S kernel) integrals of a catalog function on a uniform output grid,
after the substitution z = (x - t)/alpha:

    (J f)(x) = int_0^Z E1(z) f(x -/+ alpha z) dz
    (S f)(x) = alpha int_0^Z S(z) f(x -/+ alpha z) dz,   Z = reduced x

Analytic inputs run through the adaptive engine with the kernel's log
singularity declared; the S kernel's non-removable singularity is split
at delta = 1e-3 and its head routed through the smooth cumulative Q.
Grid inputs are integrated exactly (piecewise-linear interpolant against
closed kernel moments), which keeps the L^p norm inequalities honest at
machine precision.  Output at the collapsed endpoint (x = a for the left
side) is 0 by continuity; that convention is a choice — the operators
are only defined almost everywhere.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import quadrature
from .funcspec import (
    FunctionSpec,
    Grid,
    GridFunction,
    Interval,
    eval_spec_array,
    singular_endpoint,
)
from .quadrature import Integrand, Singularity, integrate
from .special import (
    Accuracy,
    CONSTANTS,
    DEFAULT_ACCURACY,
    e1,
    e1_array,
    e1_cumulative0_array,
    e1_cumulative1_array,
    ek,
    s_cell_moments,
    s_cumulative,
    s_first_moment,
    volterra_s_array,
)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class OperatorParams:
    side: Side
    alpha: float
    interval: Interval
    acc: Accuracy = DEFAULT_ACCURACY

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def reduced(self, x) -> np.ndarray:
        """Kernel argument Z: (x-a)/alpha on the left, (b-x)/alpha right."""
        x = np.asarray(x, dtype=float)
        if self.side == Side.LEFT:
            return (x - self.interval.a) / self.alpha
        return (self.interval.b - x) / self.alpha


@dataclass
class OperatorReport:
    outputs: GridFunction
    per_point_converged: np.ndarray
    worst_err_estimate: float


def write_report_csv(path: str | Path, report: OperatorReport,
                     errs: np.ndarray | None = None) -> None:
    """CSV rows x,value,converged,err_estimate (worst estimate reused when
    per-point errors were not kept)."""
    xs = report.outputs.nodes()
    vals = report.outputs.values
    if errs is None:
        errs = np.full_like(vals, report.worst_err_estimate)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value", "converged", "err_estimate"])
        for x, v, c, e in zip(xs, vals, report.per_point_converged, errs):
            w.writerow([f"{x:.15g}", f"{v:.15g}",
                        "true" if c else "false", f"{e:.15g}"])


# ---------------------------------------------------------------------------
# first-kind operator J
# ---------------------------------------------------------------------------

def _clip_pos(z: np.ndarray) -> np.ndarray:
    # panel nodes may round onto a singular endpoint; the kernel value
    # there is huge but its panel contribution is below machine noise
    return np.maximum(z, 1e-308)


def _far_end_singular(f: FunctionSpec, p: OperatorParams) -> bool:
    end = singular_endpoint(f)
    if end is None:
        return False
    return (end == "a") if p.side == Side.LEFT else (end == "b")


def _shifted_arg(p: OperatorParams, x: float, z: np.ndarray) -> np.ndarray:
    if p.side == Side.LEFT:
        t = x - p.alpha * z
        return np.clip(t, p.interval.a, x)
    t = x + p.alpha * z
    return np.clip(t, x, p.interval.b)


def _j_point_adaptive(f: FunctionSpec, p: OperatorParams,
                      x: float) -> tuple[float, bool, float]:
    Z = float(p.reduced(x))
    if Z <= 0.0:
        return 0.0, True, 0.0

    def integrand(z: np.ndarray) -> np.ndarray:
        t = _shifted_arg(p, x, z)
        return e1_array(_clip_pos(z)) * eval_spec_array(f, t, p.interval, p.alpha)

    marker = Singularity.LOG_BOTH if _far_end_singular(f, p) else Singularity.LOG_LEFT
    res = integrate(Integrand(integrand, marker), 0.0, Z, p.acc)
    return res.value, res.converged, res.err_estimate


def _grid_cells(g: GridFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nodes = g.nodes()
    v = g.values
    slopes = (v[1:] - v[:-1]) / g.spacing
    return nodes, v, slopes


def _j_grid_at(g: GridFunction, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact first-kind integral of the piecewise-linear interpolant."""
    nodes, v, slopes = _grid_cells(g)
    a, b = p.interval.a, p.interval.b
    alpha = p.alpha
    vals = np.zeros_like(xs)
    for i, x in enumerate(xs):
        if p.side == Side.LEFT:
            mask = nodes[:-1] < x
            if not np.any(mask):
                continue
            t_lo = nodes[:-1][mask]
            t_hi = np.minimum(nodes[1:][mask], x)
            z_lo = (x - t_hi) / alpha
            z_hi = (x - t_lo) / alpha
        else:
            mask = nodes[1:] > x
            if not np.any(mask):
                continue
            t_lo = np.maximum(nodes[:-1][mask], x)
            t_hi = nodes[1:][mask]
            z_lo = (t_lo - x) / alpha
            z_hi = (t_hi - x) / alpha
        vj = v[:-1][mask]
        sj = slopes[mask]
        base = nodes[:-1][mask]
        # f(t) = vj + sj (t - base); t = x -/+ alpha z
        sign = -1.0 if p.side == Side.LEFT else 1.0
        C = vj + sj * (x - base)
        D = sign * sj * alpha
        dm0 = e1_cumulative0_array(z_hi) - e1_cumulative0_array(z_lo)
        dm1 = e1_cumulative1_array(z_hi) - e1_cumulative1_array(z_lo)
        vals[i] = float(np.sum(C * dm0) + np.sum(D * dm1))
    err = g.spacing ** 2 * float(np.max(np.abs(v))) / 8.0 + 1e-14
    return vals, np.ones_like(xs, dtype=bool), np.full_like(xs, err)


def _aligned_output(g: GridFunction, p: OperatorParams,
                    n_out: int) -> int | None:
    """Stride into g's lattice when the output grid is a sub-lattice."""
    if g.interval != p.interval:
        return None
    if g.n % n_out != 0:
        return None
    return g.n // n_out


def _toeplitz_apply(v: np.ndarray, slopes: np.ndarray, m0: np.ndarray,
                    m1: np.ndarray, z_edges: np.ndarray) -> np.ndarray:
    """sum_k v[i-1-k] m0[k] + sum_k slopes[i-1-k] (z[k+1] m0[k] - m1[k])
    for i = 0..n, evaluated with full convolutions."""
    w2 = z_edges[1:] * m0 - m1
    conv_v = np.convolve(v[:-1], m0)
    conv_s = np.convolve(slopes, w2)
    n = v.size - 1
    out = np.zeros(n + 1)
    out[1:] = conv_v[:n] + conv_s[:n]
    return out


def _j_grid_aligned(g: GridFunction, p: OperatorParams) -> np.ndarray:
    """First-kind integral on g's own lattice via Toeplitz kernel moments."""
    dz = g.spacing / p.alpha
    n = g.n
    z_edges = dz * np.arange(n + 1)
    M0 = e1_cumulative0_array(z_edges)
    M1 = e1_cumulative1_array(z_edges)
    m0 = np.diff(M0)
    m1 = np.diff(M1)
    v = g.values if p.side == Side.LEFT else g.values[::-1]
    slopes = (v[1:] - v[:-1]) / g.spacing
    out = _toeplitz_apply(v, p.alpha * slopes, m0, m1, z_edges)
    return out if p.side == Side.LEFT else out[::-1]


def apply_j_at(f: FunctionSpec, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-kind integral at arbitrary points; returns (values,
    converged flags, error estimates)."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(f, Grid):
        return _j_grid_at(f.fn, p, xs)
    vals = np.empty_like(xs)
    conv = np.empty_like(xs, dtype=bool)
    errs = np.empty_like(xs)
    for i, x in enumerate(xs):
        vals[i], conv[i], errs[i] = _j_point_adaptive(f, p, float(x))
    return vals, conv, errs


def apply_j(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """First-kind fractional integral on a uniform grid of n_out intervals."""
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out}")
    xs = np.linspace(p.interval.a, p.interval.b, n_out + 1)
    if isinstance(f, Grid):
        stride = _aligned_output(f.fn, p, n_out)
        if stride is not None:
            vals = _j_grid_aligned(f.fn, p)[::stride]
            err = f.fn.spacing ** 2 * float(np.max(np.abs(f.fn.values))) / 8.0
            return OperatorReport(GridFunction(p.interval, vals),
                                  np.ones_like(xs, dtype=bool), err + 1e-14)
    vals, conv, errs = apply_j_at(f, p, xs)
    return OperatorReport(GridFunction(p.interval, vals), conv,
                          float(np.max(errs)))


# ---------------------------------------------------------------------------
# second-kind operator S
# ---------------------------------------------------------------------------

_S_DELTA = 1e-3  # singular-split point for the S kernel


def _s_point_adaptive(f: FunctionSpec, p: OperatorParams,
                      x: float) -> tuple[float, bool, float]:
    Z = float(p.reduced(x))
    if Z <= 0.0:
        return 0.0, True, 0.0
    alpha = p.alpha
    delta = min(Z, _S_DELTA)

    def g_vals(z: np.ndarray) -> np.ndarray:
        t = _shifted_arg(p, x, z)
        return eval_spec_array(f, t, p.interval, alpha)

    g0, gm, gd = g_vals(np.array([0.0, 0.5 * delta, delta]))
    q_head = s_cumulative(delta, p.acc)
    b_head = s_first_moment(delta, p.acc)
    # linear-in-z head; the residual is bounded by the deviation of the
    # midpoint from the chord (second-order oscillation of f)
    head = alpha * (g0 * q_head + (gd - g0) / delta * b_head)
    head_err = alpha * 2.0 * abs(gm - 0.5 * (g0 + gd)) * q_head

    if Z <= delta:
        return head, True, head_err

    def integrand(z: np.ndarray) -> np.ndarray:
        return volterra_s_array(_clip_pos(z), p.acc) * g_vals(z)

    marker = Singularity.LOG_BOTH if _far_end_singular(f, p) else Singularity.LOG_LEFT
    res = integrate(Integrand(integrand, marker), delta, Z, p.acc)
    return (head + alpha * res.value, res.converged,
            head_err + alpha * res.err_estimate)


@lru_cache(maxsize=32)
def _s_cell_moments(dz: float, n: int, acc: Accuracy) -> tuple[np.ndarray, np.ndarray]:
    """s_cell_moments of one lattice, cached read-only: sweeps and the
    Picard loop apply S on the same few lattices many times."""
    m0, m1 = s_cell_moments(dz, n, acc)
    m0.setflags(write=False)
    m1.setflags(write=False)
    return m0, m1


def _s_grid_aligned(g: GridFunction, p: OperatorParams) -> np.ndarray:
    """Second-kind integral on g's own lattice via Toeplitz S-moments."""
    dz = g.spacing / p.alpha
    n = g.n
    m0, m1 = _s_cell_moments(dz, n, p.acc)
    z_edges = dz * np.arange(n + 1)
    v = g.values if p.side == Side.LEFT else g.values[::-1]
    slopes = (v[1:] - v[:-1]) / g.spacing
    out = p.alpha * _toeplitz_apply(v, p.alpha * slopes, m0, m1, z_edges)
    return out if p.side == Side.LEFT else out[::-1]


def apply_s_at(f: FunctionSpec, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=float)
    vals = np.empty_like(xs)
    conv = np.empty_like(xs, dtype=bool)
    errs = np.empty_like(xs)
    for i, x in enumerate(xs):
        vals[i], conv[i], errs[i] = _s_point_adaptive(f, p, float(x))
    return vals, conv, errs


def apply_s(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """Second-kind fractional integral on a uniform grid of n_out intervals."""
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out}")
    xs = np.linspace(p.interval.a, p.interval.b, n_out + 1)
    if isinstance(f, Grid):
        stride = _aligned_output(f.fn, p, n_out)
        if stride is None:
            raise ValueError(
                "apply_s on a grid input needs the output lattice to divide "
                f"the input lattice (grid n={f.fn.n}, n_out={n_out})"
            )
        vals = _s_grid_aligned(f.fn, p)[::stride]
        err = f.fn.spacing ** 2 * float(np.max(np.abs(f.fn.values))) / 8.0
        return OperatorReport(GridFunction(p.interval, vals),
                              np.ones_like(xs, dtype=bool), err + 1e-14)
    vals, conv, errs = apply_s_at(f, p, xs)
    return OperatorReport(GridFunction(p.interval, vals), conv,
                          float(np.max(errs)))


# ---------------------------------------------------------------------------
# plain running integral I_a / I_b
# ---------------------------------------------------------------------------

def running_integral(f: FunctionSpec, interval: Interval, side: Side,
                     n_out: int, alpha: float = 1.0,
                     acc: Accuracy = DEFAULT_ACCURACY) -> GridFunction:
    """Cumulative integral int_a^x f (left) or int_x^b f (right)."""
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out}")
    xs = np.linspace(interval.a, interval.b, n_out + 1)
    if isinstance(f, Grid):
        g = f.fn
        nodes = g.nodes()
        cum = np.concatenate([
            [0.0],
            np.cumsum(0.5 * (g.values[1:] + g.values[:-1]) * g.spacing),
        ])
        vals = np.interp(xs, nodes, cum)
        # exact for the piecewise-linear carrier at its own nodes
    else:
        vals = np.zeros_like(xs)
        marker = Singularity.NONE
        end = singular_endpoint(f)
        acc_seg = Accuracy(acc.abs_tol / n_out, acc.rel_tol, acc.max_work)
        total = 0.0
        for i in range(1, xs.size):
            lo, hi = xs[i - 1], xs[i]
            seg_marker = marker
            if end == "a" and i == 1:
                seg_marker = Singularity.LOG_LEFT
            if end == "b" and i == xs.size - 1:
                seg_marker = Singularity.LOG_RIGHT
            res = integrate(
                Integrand(lambda t: eval_spec_array(f, t, interval, alpha),
                          seg_marker),
                lo, hi, acc_seg,
            )
            total += res.value
            vals[i] = total
    if side == Side.RIGHT:
        vals = vals[-1] - vals
    return GridFunction(interval, vals)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _bracket(k: int, r: float) -> float:
    """int_0^r z^k E1(z) dz scaled by (k+1)/k!... kept in the reference
    shape: r^(k+1) E1(r)/(k+1) - k!/(k+1) e_k(r) e^(-r) + k!/(k+1)."""
    fac = math.factorial(k) / (k + 1.0)
    if r == 0.0:
        return 0.0
    return (r ** (k + 1) * e1(r) / (k + 1.0)
            - fac * ek(k, r) * math.exp(-r) + fac)


def j_closed_constant(C: float, p: OperatorParams, x: float) -> float:
    """First-kind integral of the constant C:
    C [ r E1(r) - exp(-r) + 1 ], r the reduced coordinate."""
    r = float(p.reduced(x))
    if r <= 0.0:
        return 0.0
    return C * (r * e1(r) - math.exp(-r) + 1.0)


_MAX_CLOSED_N = 20


def j_closed_monomial(n: int, p: OperatorParams, x: float) -> float:
    """First-kind integral of t^n.

    Left: sum_k (-alpha)^k C(n,k) x^(n-k) B_k(r); right mirrors with
    +alpha^k and r = (b-x)/alpha, where B_k(r) = r^(k+1) E1(r)/(k+1)
    - k!/(k+1) e_k(r) exp(-r) + k!/(k+1).  The constant term k!/(k+1)
    is forced by B_k(0) = 0 (the k = 0 case reduces to the constant
    closed form, and every closed form must vanish at the base point).
    """
    if n < 0:
        raise ValueError(f"monomial order must be >= 0, got {n}")
    if n > _MAX_CLOSED_N:
        raise ValueError(f"monomial closed form supports n <= {_MAX_CLOSED_N}")
    r = float(p.reduced(x))
    if r <= 0.0:
        return 0.0
    sign = -1.0 if p.side == Side.LEFT else 1.0
    total = 0.0
    for k in range(n + 1):
        coeff = (sign * p.alpha) ** k * math.comb(n, k) * x ** (n - k)
        total += coeff * _bracket(k, r)
    return total


def j_closed_powshift(n: int, p: OperatorParams, x: float) -> float:
    """First-kind integral of (t-a)^n (left) or (b-t)^n (right); both
    sides carry (-alpha)^k because the shifted base tracks the kernel."""
    if n < 0:
        raise ValueError(f"power order must be >= 0, got {n}")
    if n > _MAX_CLOSED_N:
        raise ValueError(f"powshift closed form supports n <= {_MAX_CLOSED_N}")
    r = float(p.reduced(x))
    if r <= 0.0:
        return 0.0
    base = (x - p.interval.a) if p.side == Side.LEFT else (p.interval.b - x)
    total = 0.0
    for k in range(n + 1):
        coeff = (-p.alpha) ** k * math.comb(n, k) * base ** (n - k)
        total += coeff * _bracket(k, r)
    return total


def j_closed_e1kernel(p: OperatorParams, x: float) -> float:
    """First-kind integral of the matching E1 kernel (self-convolution):

    2 (g + ln r) e^(-r) + 2 (1 - g r - r ln r) E1(r)
      - r (zeta(2) + (g + ln r)^2) - 2 r sum_m (-r)^m/(m! m^2)

    with g Euler's constant.  Undefined at the collapsed endpoint (the
    logarithm diverges); the alternating series is summed to 1e-15 so the
    closed form holds to ~1e-10 for r up to ~30.
    """
    r = float(p.reduced(x))
    if r <= 0.0:
        raise ValueError("the E1-kernel closed form needs x strictly inside")
    g = CONSTANTS.euler_gamma
    lnr = math.log(r)
    series = 0.0
    term = 1.0
    for m in range(1, 400):
        term *= -r / m
        inc = term / (m * m)
        series += inc
        if abs(inc) < 1e-15 * max(1.0, abs(series)):
            break
    return (2.0 * (g + lnr) * math.exp(-r)
            + 2.0 * (1.0 - g * r - r * lnr) * e1(r)
            - r * (CONSTANTS.zeta2 + (g + lnr) ** 2)
            - 2.0 * r * series)
