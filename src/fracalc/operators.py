"""The four fractional integral operators plus closed-form references.

apply_j / apply_s evaluate the first-kind (E1 kernel) and second-kind
(S kernel) integrals of a catalog function on a uniform output grid,
after the substitution z = (x - t)/alpha:

    (J f)(x) = int_0^Z E1(z) f(x -/+ alpha z) dz
    (S f)(x) = alpha int_0^Z S(z) f(x -/+ alpha z) dz,   Z = reduced x

Analytic inputs run through the adaptive engine with the kernel's log
singularity declared; the S kernel's non-removable singularity is split
at delta = 1e-3 and its head routed through the smooth cumulative Q.
Grid inputs are integrated exactly (piecewise-linear carrier against
closed kernel moments), which keeps the L^p norm inequalities honest at
machine precision.  On the input's own lattice, or a sub-lattice of it,
both kernels run as Toeplitz convolutions, each a zero-padded real-FFT
product in O(n log n); J at other points is a blocked matrix product of
closed E1 cumulative differences; S of a grid input exists only on its
lattice.  Output at the collapsed endpoint (x = a for the left side) is
0 by continuity; that convention is a choice — the operators are only
defined almost everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

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
    e1_cumulatives_array,
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


# ---------------------------------------------------------------------------
# analytic inputs: one adaptive integral per output point
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


# ---------------------------------------------------------------------------
# lattice engine: grid inputs, integrated exactly
# ---------------------------------------------------------------------------
# Ordered away from the side's anchor (reversed on the right), cell j of
# the piecewise-linear carrier contributes
#     v_j m0_j + alpha slope_j (z_far m0_j - m1_j)
# with m0, m1 the kernel's moments over the cell's z-range and z_far the
# z of its far node t_j.

# nodes x points per off-lattice block: the E1 temporaries stay near
# 128 KiB each, so peak memory does not grow with the number of points
_BLOCK_ENTRIES = 2 ** 14


def _oriented(g: GridFunction,
              side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, values and cell slopes, ordered away from the side's anchor."""
    t, v = g.nodes(), g.values
    if side == Side.RIGHT:
        t, v = t[::-1], v[::-1]
    return t, v, (v[1:] - v[:-1]) / g.spacing


def _cell_sum(v: np.ndarray, slopes: np.ndarray, alpha: float,
              z_far: np.ndarray, m0: np.ndarray, m1: np.ndarray,
              contract: Callable) -> np.ndarray:
    """The cell weights, summed by contract(cell values, cell moments):
    _fft_convolve on the lattice, np.dot off it."""
    return contract(v[:-1], m0) + contract(alpha * slopes, z_far * m0 - m1)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first a.size terms of the linear convolution of a and b (same
    length n): a real-FFT product zero-padded to a power of two >= 2n - 1,
    so no term of the full length-(2n - 1) convolution wraps around."""
    size = 1 << (2 * a.size - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size),
                        size)[:a.size]


def _e1_cell_moments(dz: float, n: int,
                     acc: Accuracy) -> tuple[np.ndarray, np.ndarray]:
    """E1 moments of the cells [k dz, (k+1) dz], k < n (closed; no acc)."""
    c0, c1 = e1_cumulatives_array(dz * np.arange(n + 1))
    return np.diff(c0), np.diff(c1)


@lru_cache(maxsize=32)
def _s_cell_moments(dz: float, n: int, acc: Accuracy) -> tuple[np.ndarray, np.ndarray]:
    """s_cell_moments of one lattice, cached read-only: sweeps and the
    Picard loop apply S on the same few lattices many times."""
    m0, m1 = s_cell_moments(dz, n, acc)
    m0.setflags(write=False)
    m1.setflags(write=False)
    return m0, m1


def _lattice_apply(g: GridFunction, p: OperatorParams, cell_moments: Callable,
                   scale: float) -> np.ndarray:
    """scale times the integral at every node of g's own lattice, where
    the cell moments depend only on the lag: one FFT convolution per term,
    O(n log n) at every n."""
    dz = g.spacing / p.alpha
    m0, m1 = cell_moments(dz, g.n, p.acc)
    _, v, slopes = _oriented(g, p.side)
    out = np.zeros(g.n + 1)
    out[1:] = _cell_sum(v, slopes, p.alpha, dz * np.arange(1, g.n + 1),
                        m0, m1, _fft_convolve)
    out = scale * out
    return out if p.side == Side.LEFT else out[::-1]


def _j_off_lattice(g: GridFunction, p: OperatorParams,
                   xs: np.ndarray) -> np.ndarray:
    """First-kind integral at any points, all nodes against one block of
    points at a time: z = max(+/-(x - t), 0)/alpha, and the cell moments
    are differences of the closed E1 cumulatives along the node axis."""
    t, v, slopes = _oriented(g, p.side)
    sign = 1.0 if p.side == Side.LEFT else -1.0
    cols = max(1, _BLOCK_ENTRIES // t.size)
    vals = np.empty_like(xs)
    for lo in range(0, xs.size, cols):
        z = np.maximum(sign * (xs[lo:lo + cols] - t[:, None]), 0.0) / p.alpha
        c0, c1 = e1_cumulatives_array(z)
        vals[lo:lo + cols] = _cell_sum(v, slopes, p.alpha, z[:-1],
                                       c0[:-1] - c0[1:], c1[:-1] - c1[1:],
                                       np.dot)
    return vals


def _s_off_lattice(g: GridFunction, p: OperatorParams,
                   xs: np.ndarray) -> np.ndarray:
    raise ValueError(
        "apply_s on a grid input needs the output lattice to divide the "
        f"input lattice (grid n={g.n}, {xs.size} output points)")


# ---------------------------------------------------------------------------
# the public operators
# ---------------------------------------------------------------------------

def _carrier_err(g: GridFunction) -> float:
    """Interpolation bound of the piecewise-linear carrier."""
    return g.spacing ** 2 * float(np.max(np.abs(g.values))) / 8.0 + 1e-14


def _at(f: FunctionSpec, p: OperatorParams, xs: np.ndarray, point: Callable,
        off_lattice: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Body of apply_j_at/apply_s_at: the kernel's off-lattice evaluator
    for a grid input, else one adaptive integral per point."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(f, Grid):
        return (off_lattice(f.fn, p, xs), np.ones_like(xs, dtype=bool),
                np.full_like(xs, _carrier_err(f.fn)))
    vals = np.empty_like(xs)
    conv = np.empty_like(xs, dtype=bool)
    errs = np.empty_like(xs)
    for i, x in enumerate(xs):
        vals[i], conv[i], errs[i] = point(f, p, float(x))
    return vals, conv, errs


def _apply(f: FunctionSpec, p: OperatorParams, n_out: int, at: Callable,
           cell_moments: Callable, scale: float) -> OperatorReport:
    """Body of apply_j/apply_s: the lattice engine when the output grid
    is a sub-lattice of a grid input's, else `at` at the output nodes."""
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out}")
    g = f.fn if isinstance(f, Grid) else None
    if g is not None and g.interval == p.interval and g.n % n_out == 0:
        # the output grid is a sub-lattice of the input's
        vals = _lattice_apply(g, p, cell_moments, scale)[::g.n // n_out]
        return OperatorReport(GridFunction(p.interval, vals),
                              np.ones(n_out + 1, dtype=bool), _carrier_err(g))
    xs = np.linspace(p.interval.a, p.interval.b, n_out + 1)
    vals, conv, errs = at(f, p, xs)
    return OperatorReport(GridFunction(p.interval, vals), conv,
                          float(np.max(errs)))


def apply_j_at(f: FunctionSpec, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-kind integral at arbitrary points; returns (values,
    converged flags, error estimates)."""
    return _at(f, p, xs, _j_point_adaptive, _j_off_lattice)


def apply_j(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """First-kind fractional integral on a uniform grid of n_out intervals."""
    return _apply(f, p, n_out, apply_j_at, _e1_cell_moments, 1.0)


def apply_s_at(f: FunctionSpec, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-kind integral at arbitrary points of an analytic input."""
    return _at(f, p, xs, _s_point_adaptive, _s_off_lattice)


def apply_s(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """Second-kind fractional integral on a uniform grid of n_out intervals."""
    return _apply(f, p, n_out, apply_s_at, _s_cell_moments, p.alpha)


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
