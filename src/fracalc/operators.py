"""The four fractional integral operators plus closed-form references.

apply_j / apply_s evaluate the first-kind (E1 kernel) and second-kind
(S kernel) integrals of a catalog function on a uniform output grid,
after the substitution z = (x - t)/alpha:

    (J f)(x) = int_0^Z E1(z) f(x -/+ alpha z) dz
    (S f)(x) = alpha int_0^Z S(z) f(x -/+ alpha z) dz,   Z = reduced x

Analytic inputs run through the adaptive engine with the kernel's log
singularity declared, as one batch over all output points: one integrand
call per refinement round across all of them.  S takes its
non-removable singularity through special.s_weighted_batch, whose head
[0, delta] takes f as a quadratic against Q and the first two moments of
S; delta = 1e-3 in z, scaled down by width/alpha when alpha exceeds the
interval's width, so the head spans at most 1e-3 of the interval in t.
Grid inputs are integrated exactly
(piecewise-linear carrier against closed kernel moments), which keeps
the L^p norm inequalities honest at machine precision.  On the input's
own lattice, or a sub-lattice of it, J, S and the derivative D = d/dx J
(the derivatives module) each run as one Toeplitz convolution against
their own hat-function weights, a zero-padded real-FFT product in
O(n log n) whose weight spectrum is cached per lattice, so a warm apply
evaluates no kernel.  At other points J, S and D sum the same cell
terms in blocks of nodes times points, over [a, x] (left) or [x, b]
(right), so the grid must cover the operator interval: the cell moments
are differences of special.e1_moments for J and D, and special.s_moments
of the clipped cells for S.
Output at the collapsed endpoint (x = a for the left side) is 0 by
continuity; that convention is a choice — the operators are only defined
almost everywhere.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
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
from .quadrature import QuadResult, Singularity, integrate_batch
from .special import (
    Accuracy,
    DEFAULT_ACCURACY,
    EULER_GAMMA,
    ZETA2,
    e1_array,
    e1_cumulative0_array,
    e1_moments,
    s_moments,
    s_weighted_batch,
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

    @property
    def sign(self) -> float:
        """+1 on the left side, -1 on the right."""
        return 1.0 if self.side == Side.LEFT else -1.0

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
# analytic inputs: one adaptive batch over all output points
# ---------------------------------------------------------------------------

def _clip_pos(z: np.ndarray) -> np.ndarray:
    # panel nodes may round onto a singular endpoint; the kernel value
    # there is huge but its panel contribution is below machine noise
    return np.maximum(z, 1e-308)


def _marker(f: FunctionSpec, p: OperatorParams) -> Singularity:
    """The kernel's log singularity at z = 0, and at the far end too when
    f blows up there."""
    end = singular_endpoint(f)
    far = "a" if p.side == Side.LEFT else "b"
    return Singularity.LOG_BOTH if end == far else Singularity.LOG_LEFT


def _f_along(f: FunctionSpec, p: OperatorParams, x: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """f at t = x -/+ alpha z, kept inside [a, x] (left) or [x, b]."""
    if p.side == Side.LEFT:
        t = np.clip(x - p.alpha * z, p.interval.a, x)
    else:
        t = np.clip(x + p.alpha * z, x, p.interval.b)
    return eval_spec_array(f, t, p.interval, p.alpha)


def _scatter(on: np.ndarray, res: QuadResult,
             scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, converged flags and error estimates at every point, from
    the batch over the points `on` (reduced coordinate > 0), scaled: 0,
    converged and exact at the others."""
    vals, errs = np.zeros(on.size), np.zeros(on.size)
    conv = np.ones(on.size, dtype=bool)
    vals[on], errs[on] = scale * res.value, scale * res.err_estimate
    conv[on] = res.converged
    return vals, conv, errs


def _j_analytic(f: FunctionSpec, p: OperatorParams,
                xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    Z = p.reduced(xs)
    on = Z > 0.0
    x = xs[on]
    res = integrate_batch(
        lambda z, owner: e1_array(_clip_pos(z)) * _f_along(f, p, x[owner], z),
        0.0, Z[on], _marker(f, p), p.acc)
    return _scatter(on, res, 1.0)


# Width in z of the S head.  Past alpha = width it shrinks by width/alpha,
# so the head, where f is taken as a quadratic, never spans more than 1e-3
# of the interval in t.
_S_DELTA = 1e-3


def _s_analytic(f: FunctionSpec, p: OperatorParams,
                xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    Z = p.reduced(xs)
    on = Z > 0.0
    x = xs[on]
    delta = np.minimum(Z[on], _S_DELTA * min(1.0, p.interval.width / p.alpha))
    res = s_weighted_batch(lambda z, i: _f_along(f, p, x[i], z), delta,
                           Z[on], _marker(f, p), p.acc)
    return _scatter(on, res, p.alpha)


# ---------------------------------------------------------------------------
# lattice engine: grid inputs, integrated exactly
# ---------------------------------------------------------------------------
# Ordered away from the side's anchor (reversed on the right), cell j of
# the piecewise-linear carrier contributes
#     v_j m0_j + alpha slope_j (z_far m0_j - m1_j)
# with m0, m1 the kernel's moments over the cell's z-range and z_far the
# z of its far node t_j.  Regrouped by node, cell l at lag l puts
#     near_l = (z_far,l m0_l - m1_l)/dz  on its far node and
#     far_l = m0_l - near_l               on its near node,
# so on the lattice the integral at node i is
#     v_0 far_(i-1) + sum_(k=1..i) v_k W_(i-k),
# W_0 = near_0, W_L = near_L + far_(L-1): the hat-function weights.
# The derivative of the carrier (below) has the same shape with weights
# of its own, so J, S and D share one engine and one weight cache.

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


def _fft_size(n: int) -> int:
    """A power of two >= 2n - 1: a real-FFT product of two length-n
    sequences zero-padded to it wraps no term of their linear convolution
    onto the first n."""
    return 1 << (2 * n - 2).bit_length()


# The hat-weight cache holds at most this many operator-lattice pairs, and
# beyond its newest entry at most this many bytes of spectra and anchor
# weights: at n = 2^18 one entry is about 6 MiB.
_HAT_ENTRIES = 32
_HAT_BYTES = 64 * 2 ** 20
_hat_cache: OrderedDict = OrderedDict()
_hat_lock = threading.Lock()


def _hat_from_moments(dz: float, m0: np.ndarray,
                      m1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hat weights W and anchor weights far from a kernel's cell moments."""
    near = (dz * np.arange(1, m0.size + 1) * m0 - m1) / dz
    far = m0 - near
    w = near.copy()
    w[1:] += far[:-1]
    return w, far


def _j_weights(dz: float, n: int,
               acc: Accuracy) -> tuple[np.ndarray, np.ndarray]:
    """J's weights, from the closed E1 moments of the cells [k dz, (k+1)
    dz], k < n (no acc)."""
    m0, m1 = np.diff(e1_moments(dz * np.arange(n + 1), 1))
    return _hat_from_moments(dz, m0, m1)


def _s_weights(dz: float, n: int,
               acc: Accuracy) -> tuple[np.ndarray, np.ndarray]:
    """S's weights, from its cell moments (the alpha factor is the
    apply's scale)."""
    return _hat_from_moments(dz, *s_moments(dz * np.arange(n), dz, 1, acc))


def _d_weights(dz: float, n: int,
               acc: Accuracy) -> tuple[np.ndarray, np.ndarray]:
    """The derivative's weights.  Cell j adds slope_j m0_j = (v_(j+1) -
    v_j) m0_j/(alpha dz), so with the +/-1/alpha factor left to the apply's
    scale, W_0 = m0_0/dz and W_L = (m0_L - m0_(L-1))/dz by node, and the
    anchor's value adds E1(z_i) - m0_(i-1)/dz at node i."""
    z = dz * np.arange(n + 1)
    m0 = np.diff(e1_cumulative0_array(z))
    return np.diff(m0, prepend=0.0) / dz, e1_array(z[1:]) - m0 / dz


def _hat_weights(weights: Callable, dz: float, n: int,
                 acc: Accuracy) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum rfft(W, _fft_size(n)) of one operator's hat weights on
    one lattice, weights(dz, n, acc) = (W, far), and its anchor weights
    far, cached read-only and evicted least recently used first: sweeps
    and the Picard loop apply J, S and D on the same few lattices many
    times, and a warm apply then costs one rfft and one irfft."""
    key = (weights, dz, n, acc)
    with _hat_lock:
        hit = _hat_cache.get(key)
        if hit is not None:
            _hat_cache.move_to_end(key)
            return hit
    w, far = weights(dz, n, acc)
    spectrum = np.fft.rfft(w, _fft_size(n))
    spectrum.setflags(write=False)
    far.setflags(write=False)
    with _hat_lock:
        _hat_cache[key] = spectrum, far
        while len(_hat_cache) > 1 and (
                len(_hat_cache) > _HAT_ENTRIES
                or sum(s.nbytes + f.nbytes for s, f in _hat_cache.values())
                > _HAT_BYTES):
            _hat_cache.popitem(last=False)
    return spectrum, far


def _lattice_apply(g: GridFunction, p: OperatorParams, weights: Callable,
                   scale: float) -> np.ndarray:
    """scale times the integral (or derivative) at every node of g's own
    lattice, where the cell terms depend only on the lag: the anchor's
    value times the far weights plus one FFT product of the other values
    with the hat weights, O(n log n) at every n."""
    n = g.n
    spectrum, far = _hat_weights(weights, g.spacing / p.alpha, n, p.acc)
    v = g.values if p.side == Side.LEFT else g.values[::-1]
    size = _fft_size(n)
    out = np.zeros(n + 1)
    out[1:] = (np.fft.irfft(np.fft.rfft(v[1:], size) * spectrum, size)[:n]
               + v[0] * far)
    out = scale * out
    return out if p.side == Side.LEFT else out[::-1]


def _off_lattice(g: GridFunction, p: OperatorParams, xs: np.ndarray,
                 block_sum: Callable) -> np.ndarray:
    """All nodes against one block of points at a time: z = max(+/-(x -
    t), 0)/alpha, and the same clipped to the reduced coordinate of x, so
    only [a, x] (left) or [x, b] (right) counts and the anchor cell is
    partial, as is the cell at z = 0 that holds x.  block_sum(v, slopes,
    z, z_clipped) returns the block's values; its cell moments are taken
    over the cells [z_clipped[j+1], z_clipped[j]] along the node axis."""
    if not (g.interval.a <= p.interval.a and p.interval.b <= g.interval.b):
        raise ValueError(
            f"grid input on [{g.interval.a:g}, {g.interval.b:g}] does not "
            f"cover the operator interval [{p.interval.a:g}, {p.interval.b:g}]")
    t, v, slopes = _oriented(g, p.side)
    cols = max(1, _BLOCK_ENTRIES // t.size)
    vals = np.empty_like(xs)
    for lo in range(0, xs.size, cols):
        x = xs[lo:lo + cols]
        z = np.maximum(p.sign * (x - t[:, None]), 0.0) / p.alpha
        vals[lo:lo + cols] = block_sum(
            v, slopes, z, np.minimum(z, np.maximum(p.reduced(x), 0.0)))
    return vals


def _e1_cells(z: np.ndarray, acc: Accuracy) -> np.ndarray:
    """E1 moments m0, m1 of the cells between consecutive rows of z, as
    differences of the moments from 0 (no acc)."""
    c = e1_moments(z, 1)
    return c[:, :-1] - c[:, 1:]


def _s_cells(z: np.ndarray, acc: Accuracy) -> np.ndarray:
    """S moments m0, m1 of the cells between consecutive rows of z."""
    return s_moments(z[1:], z[:-1] - z[1:], 1, acc)


# The derivative D = d/dx J of the carrier is closed: with g(anchor) its
# value at the side's anchor and m0 the E1 moments of the oriented cells,
#     D g(x) = +/-[g(anchor) E1(r)/alpha + sum_j slope_j m0_j(x)],
# r the reduced coordinate of x; 0 where r <= 0, as J is.  On the lattice
# it is _lattice_apply with _d_weights and scale +/-1/alpha.

def _anchor_term(value: float, p: OperatorParams, xs) -> np.ndarray:
    """+/- value E1(r)/alpha, the anchor's term of the derivative."""
    return _closed(p, xs, lambda x, r, e: p.sign * value * (e / p.alpha))


def _d_off_lattice(g: GridFunction, p: OperatorParams,
                   xs: np.ndarray) -> np.ndarray:
    """D of the carrier at any points of the operator interval."""
    def block_sum(v, slopes, z, z_clipped):
        c0 = e1_cumulative0_array(z_clipped)
        return np.dot(slopes, c0[:-1] - c0[1:])

    anchor = p.interval.a if p.side == Side.LEFT else p.interval.b
    return (p.sign * _off_lattice(g, p, xs, block_sum)
            + _anchor_term(float(g(anchor)), p, xs))


# ---------------------------------------------------------------------------
# the public operators
# ---------------------------------------------------------------------------

def _carrier_err(g: GridFunction) -> float:
    """Interpolation bound of the piecewise-linear carrier."""
    return g.spacing ** 2 * float(np.max(np.abs(g.values))) / 8.0 + 1e-14


def _at(f: FunctionSpec, p: OperatorParams, xs: np.ndarray, analytic: Callable,
        cells: Callable, scale: float
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Body of apply_j_at/apply_s_at.  For a grid input, scale times the
    carrier's cell terms v_j m0_j + alpha slope_j (z_far m0_j - m1_j) at
    any points, with the kernel's moments cells(z_clipped, acc) = (m0,
    m1); else one adaptive batch over the points."""
    xs = np.asarray(xs, dtype=float)
    if not isinstance(f, Grid):
        return analytic(f, p, xs)

    def block_sum(v, slopes, z, z_clipped):
        m0, m1 = cells(z_clipped, p.acc)
        return (np.dot(v[:-1], m0)
                + np.dot(p.alpha * slopes, z[:-1] * m0 - m1))

    return (scale * _off_lattice(f.fn, p, xs, block_sum),
            np.ones_like(xs, dtype=bool), np.full_like(xs, _carrier_err(f.fn)))


def _apply(f: FunctionSpec, p: OperatorParams, n_out: int, at: Callable,
           weights: Callable, scale: float) -> OperatorReport:
    """Body of apply_j/apply_s: the lattice engine when the output grid
    is a sub-lattice of a grid input's, else `at` at the output nodes."""
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out}")
    g = f.fn if isinstance(f, Grid) else None
    if g is not None and g.interval == p.interval and g.n % n_out == 0:
        # the output grid is a sub-lattice of the input's
        vals = _lattice_apply(g, p, weights, scale)[::g.n // n_out]
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
    return _at(f, p, xs, _j_analytic, _e1_cells, 1.0)


def apply_j(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """First-kind fractional integral on a uniform grid of n_out intervals."""
    return _apply(f, p, n_out, apply_j_at, _j_weights, 1.0)


def apply_s_at(f: FunctionSpec, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-kind integral at arbitrary points; returns (values,
    converged flags, error estimates)."""
    return _at(f, p, xs, _s_analytic, _s_cells, p.alpha)


def apply_s(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """Second-kind fractional integral on a uniform grid of n_out intervals."""
    return _apply(f, p, n_out, apply_s_at, _s_weights, p.alpha)


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
        end = singular_endpoint(f)
        markers = [Singularity.NONE] * n_out
        if end == "a":
            markers[0] = Singularity.LOG_LEFT
        if end == "b":
            markers[-1] = Singularity.LOG_RIGHT
        acc_seg = Accuracy(acc.abs_tol / n_out, acc.rel_tol, acc.max_work)
        res = integrate_batch(
            lambda t, owner: eval_spec_array(f, t, interval, alpha),
            xs[:-1], xs[1:], markers, acc_seg)
        vals = np.concatenate([[0.0], np.cumsum(res.value)])
    if side == Side.RIGHT:
        vals = vals[-1] - vals
    return GridFunction(interval, vals)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _closed(p: OperatorParams, x, form: Callable,
            kernel: Callable = e1_array):
    """A closed form at x, a float or an array: form(x, r, kernel(r)) where
    the reduced coordinate r is positive, 0 where it is not, from one
    kernel evaluation: E1(r), or the rows of its moments."""
    x = np.asarray(x, dtype=float)
    r = p.reduced(x)
    out = np.zeros_like(r)
    pos = r > 0.0
    if np.any(pos):
        out[pos] = form(x[pos], r[pos], kernel(r[pos]))
    return float(out) if out.ndim == 0 else out


_MAX_CLOSED_N = 20


def _power_closed(n: int, p: OperatorParams, x, base: Callable,
                  step: float):
    """First-kind integral of the f with f(x -/+ alpha z) = (base(x) +
    step z)^n: sum_k C(n, k) base^(n-k) step^k B_k(r), where B_k(r) =
    int_0^r z^k E1(z) dz are the rows of one e1_moments call."""
    if not 0 <= n <= _MAX_CLOSED_N:
        raise ValueError(
            f"closed forms support orders 0..{_MAX_CLOSED_N}, got {n}")

    def form(x, r, moments):
        b = base(x)
        return sum(math.comb(n, k) * b ** (n - k) * step ** k * moments[k]
                   for k in range(n + 1))

    return _closed(p, x, form, lambda r: e1_moments(r, n))


def j_closed_constant(C: float, p: OperatorParams, x):
    """First-kind integral of the constant C: C B_0(r) = C [r E1(r) + 1 -
    exp(-r)], r the reduced coordinate."""
    return C * j_closed_monomial(0, p, x)


def j_closed_monomial(n: int, p: OperatorParams, x):
    """First-kind integral of t^n: t = x -/+ alpha z, so the sum of
    (-/+alpha)^k C(n,k) x^(n-k) B_k(r) over k, B_k(r) = int_0^r z^k E1(z)
    dz from special.e1_moments; each B_k vanishes at r = 0, as every closed
    form must at the base point."""
    return _power_closed(n, p, x, lambda x: x, -p.sign * p.alpha)


def j_closed_powshift(n: int, p: OperatorParams, x):
    """First-kind integral of (t-a)^n (left) or (b-t)^n (right); both
    sides carry (-alpha)^k because the shifted base tracks the kernel."""
    anchor = p.interval.a if p.side == Side.LEFT else p.interval.b
    return _power_closed(n, p, x, lambda x: p.sign * (x - anchor), -p.alpha)


def j_closed_e1kernel(p: OperatorParams, x):
    """First-kind integral of the matching E1 kernel (self-convolution):

    2 (g + ln r) e^(-r) + 2 (1 - g r - r ln r) E1(r)
      - r (zeta(2) + (g + ln r)^2) - 2 r sum_m (-r)^m/(m! m^2)

    with g Euler's constant.  Undefined at the collapsed endpoint (the
    logarithm diverges); the alternating series is summed to 1e-15 so the
    closed form holds to ~1e-10 for r up to ~30.
    """
    if np.any(p.reduced(x) <= 0.0):
        raise ValueError("the E1-kernel closed form needs x strictly inside")

    def form(x, r, e):
        g = EULER_GAMMA
        lnr = np.log(r)
        series = np.zeros_like(r)
        term = np.ones_like(r)
        for m in range(1, 400):
            term *= -r / m
            inc = term / (m * m)
            series += inc
            if np.all(np.abs(inc) < 1e-15 * np.maximum(1.0, np.abs(series))):
                break
        return (2.0 * (g + lnr) * np.exp(-r)
                + 2.0 * (1.0 - g * r - r * lnr) * e
                - r * (ZETA2 + (g + lnr) ** 2)
                - 2.0 * r * series)

    return _closed(p, x, form)
