"""The fractional operators J, S and D, the plain running integral, and
closed-form references.

apply_j / apply_s evaluate the first-kind (E1 kernel) and second-kind
(S kernel) integrals of a catalog function on a uniform output grid,
after the substitution z = (x - t)/alpha:

    (J f)(x) = int_0^Z E1(z) f(x -/+ alpha z) dz
    (S f)(x) = alpha int_0^Z S(z) f(x -/+ alpha z) dz,   Z = reduced x

apply_d evaluates the derivative D = d/dx J, as +/-f(anchor) E1(Z)/alpha
+ J(f'), through the same body (see _d_analytic and _d_grid); its output
grid leaves out the side's anchor, where D blows up unless f(anchor) = 0.

Analytic inputs run through the adaptive engine with the kernel's log
singularity declared, as one batch over all output points: one integrand
call per refinement round across all of them.  S takes its
non-removable singularity through special.s_weighted_batch, whose head
[0, delta] takes f as a quadratic against Q and the first two moments of
S; delta = 1e-3 in z, scaled down by width/alpha when alpha exceeds the
interval's width, so the head spans at most 1e-3 of the interval in t.
Grid inputs are integrated exactly
(piecewise-linear carrier against exact kernel cell moments, each about
its cell's low end), which keeps the L^p norm inequalities honest at
machine precision.  On the input's own lattice, or a sub-lattice of it,
J, S and D each run as one Toeplitz convolution against their own
hat-function weights, a zero-padded real-FFT product in O(n log n) whose
weight spectrum is cached per lattice, so a warm apply evaluates no
kernel.  The weights of
J, S and D past the first cell are sums over the kernel's exponential
modes (special.e1_modes, special.s_modes), by shifted power blocks.  At
other points J, S and D integrate over [a, x]
(left) or [x, b] (right), so the grid must cover the operator interval:
the few cells nearest x take exact moments, and all older cells one
history per exponential mode of the kernel, advanced from point to point
in order of x, in O((n + points) K) work for K modes.
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
    catalog_derivative,
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
    e1_moments,
    e1_modes,
    exp_moments,
    s_moments,
    s_modes,
    s_weighted_batch,
)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class OperatorParams:
    """Side, alpha and interval of an operator.  acc reaches the adaptive
    batch of catalog inputs only: grid inputs are integrated exactly, by
    fixed rules that ignore it."""

    side: Side
    alpha: float
    interval: Interval
    acc: Accuracy = DEFAULT_ACCURACY

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")

    @property
    def sign(self) -> float:
        """+1 on the left side, -1 on the right."""
        return 1.0 if self.side == Side.LEFT else -1.0

    @property
    def anchor(self) -> float:
        """The side's end of the interval: a on the left, b on the right."""
        return self.interval.a if self.side == Side.LEFT else self.interval.b

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


# E1's mass past z = 64 is below 1e-29.  A J integral out to Z > 64 runs
# as two in one batch, over [0, 64] and [64, Z]: over all of [0, Z] the
# graded seed panels are wider than E1's mass once Z is large (Z = 1e16
# at alpha 1e-16), miss it and return 0, flagged converged.
_E1_SPLIT = 64.0


def _j_analytic(f: FunctionSpec, p: OperatorParams,
                xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    Z = p.reduced(xs)
    on = Z > 0.0
    z = Z[on]
    n = z.size
    tail = np.nonzero(z > _E1_SPLIT)[0]
    owner = np.concatenate([np.arange(n), tail])
    x = xs[on][owner]
    # the log at z = 0 stays with the head, f's end singularity with Z
    marker = _marker(f, p)
    far = (Singularity.LOG_RIGHT if marker == Singularity.LOG_BOTH
           else Singularity.NONE)
    markers = ([Singularity.LOG_LEFT if v > _E1_SPLIT else marker
                for v in z.tolist()] + [far] * tail.size)
    res = integrate_batch(
        lambda t, i: e1_array(_clip_pos(t)) * _f_along(f, p, x[i], t),
        np.concatenate([np.zeros(n), np.full(tail.size, _E1_SPLIT)]),
        np.concatenate([np.minimum(z, _E1_SPLIT), z[tail]]), markers, p.acc)
    head = QuadResult(res.value[:n], res.err_estimate[:n],
                      res.panels_used[:n], res.converged[:n])
    head.value[tail] += res.value[n:]
    head.err_estimate[tail] += res.err_estimate[n:]
    head.panels_used[tail] += res.panels_used[n:]
    head.converged[tail] &= res.converged[n:]
    return _scatter(on, head, 1.0)


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
#     far_l = m1_l/dz, m1 taken about the cell's low end, on its far node
#     near_l = m0_l - far_l                                on its near node,
# so on the lattice the integral at node i is
#     v_0 far_(i-1) + sum_(k=1..i) v_k W_(i-k),
# W_0 = near_0, W_L = near_L + far_(L-1): the hat-function weights.
# The derivative of the carrier (below) has the same shape with weights
# of its own, so J, S and D share one engine and one weight cache.

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


# Lags per power block of _mode_lags, and the entries (modes x blocks) of
# one chunk of its block scales.  At 2^12 OpenBLAS runs each product on one
# thread: at 2^14 its default threads made a cold n = 4,096 lattice up to
# ten times slower than one thread, erratically (2 vCPU).
_LAG_BLOCK = 64
_LAG_ENTRIES = 2 ** 12


def _mode_lags(modes: tuple[np.ndarray, np.ndarray], dz: float, n: int,
               columns: Callable) -> np.ndarray:
    """sum_v c_v e^(-a_v l dz) X_v at the lags l = 1..n-1 over a kernel's
    modes (a, c) on the lattice dz, one row per column X of columns(a, g0,
    g1), g_j = int_0^dz y^j e^(-a y) dy; the column g_j gives the cells'
    moment j about their own low ends.  By shifted power blocks: with l = 1
    + 64 B + j, e^(-a l dz) = e^(-a j dz) e^(-a (1 + 64 B) dz), so one
    table of the columns times e^(-a j dz), j < 64, against each block's
    scale replaces the exp of every lag and mode.  Every term keeps the
    sign of its column."""
    a, c = modes
    g0, g1 = exp_moments(a, dz, 1)
    cols = c * np.stack(columns(a, g0, g1))
    blocks = -(-(n - 1) // _LAG_BLOCK)
    table = (cols[:, None, :] * np.exp(
        np.outer(-dz * np.arange(_LAG_BLOCK), a))).reshape(-1, a.size)
    out = np.empty((len(cols), blocks, _LAG_BLOCK))
    per = max(1, _LAG_ENTRIES // a.size)
    for b0 in range(0, blocks, per):
        b = np.arange(b0, min(b0 + per, blocks))
        y = table @ np.exp(np.outer(a, -dz * (1 + _LAG_BLOCK * b)))
        out[:, b] = y.reshape(len(cols), _LAG_BLOCK, b.size).transpose(0, 2, 1)
    return out.reshape(len(cols), -1)[:, :n - 1]


def _lattice_moments(head, modes: tuple[np.ndarray, np.ndarray], dz: float,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """A kernel's moments m0, m1 of the cells [l dz, (l + 1) dz], l < n,
    about their low ends: the head cell's head = (m0, m1), every other cell
    a sum of positive terms over the kernel's modes."""
    m0, m1 = np.empty(n), np.empty(n)
    m0[0], m1[0] = head
    m0[1:], m1[1:] = _mode_lags(modes, dz, n, lambda a, g0, g1: (g0, g1))
    return m0, m1


def _cell_hat(m0: np.ndarray, m1: np.ndarray,
              dz: float) -> tuple[np.ndarray, np.ndarray]:
    """Hat weights W and anchor weights far from cell moments about the
    cells' low ends: far = m1/dz, near = m0 - far, at least half of m0,
    and W_l = near_l + far_(l-1)."""
    far = m1 / dz
    w = m0 - far
    w[1:] += far[:-1]
    return w, far


def _j_weights(dz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """J's weights: E1's closed head cell and its modes."""
    return _cell_hat(*_lattice_moments(e1_moments(dz, 1), e1_modes(dz), dz, n),
                     dz)


def _s_weights(dz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """S's weights (the alpha factor is the apply's scale): the head cell
    from s_moments and S's modes, whose first, a = 0, is its constant 1."""
    return _cell_hat(*_lattice_moments(s_moments(0.0, dz, 1), s_modes(dz),
                                       dz, n), dz)


def _d_weights(dz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The derivative's weights.  Cell j adds slope_j m0_j =
    (v_(j+1) - v_j) m0_j/(alpha dz), so with the +/-1/alpha factor left to
    the apply's scale, W_0 = m0_0/dz and W_L = (m0_L - m0_(L-1))/dz by node,
    and the anchor's value adds E1(z_i) - m0_(i-1)/dz at node i.  Past the
    head cell both are sums over E1's modes of one sign: per mode, W_L =
    -e^(-a (L-1) dz) a g0^2/dz for L >= 2, and E1(z_i) - m0_(i-1)/dz =
    -e^(-a (i-1) dz) a g1/dz for i >= 2."""
    head = float(e1_moments(dz, 0)[0])
    m0, dw, dfar = _mode_lags(
        e1_modes(dz), dz, n,
        lambda a, g0, g1: (g0, a * g0 * g0 / dz, a * g1 / dz))
    w, far = np.empty(n), np.empty(n)
    w[0], far[0] = head / dz, float(e1_array(np.array([dz]))[0]) - head / dz
    w[1:2] = (m0[:1] - head) / dz
    w[2:] = -dw[:n - 2]
    far[1:] = -dfar
    return w, far


def _hat_weights(weights: Callable, dz: float,
                 n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The spectrum rfft(W, _fft_size(n)) of one operator's hat weights on
    one lattice, weights(dz, n) = (W, far), its anchor weights far and
    its lag-0 weight W_0, the diagonal of the lattice map, cached read-only
    and evicted least recently used first: sweeps and the Picard loop apply
    J, S and D on the same few lattices many times, and a warm apply then
    costs one rfft and one irfft."""
    key = (weights, dz, n)
    with _hat_lock:
        hit = _hat_cache.get(key)
        if hit is not None:
            _hat_cache.move_to_end(key)
            return hit
    w, far = weights(dz, n)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(far))):
        raise ValueError(f"hat weights are not finite at lattice step "
                         f"{dz:.6g} in the reduced coordinate")
    spectrum = np.fft.rfft(w, _fft_size(n))
    spectrum.setflags(write=False)
    far.setflags(write=False)
    entry = spectrum, far, float(w[0])
    with _hat_lock:
        _hat_cache[key] = entry
        while len(_hat_cache) > 1 and (
                len(_hat_cache) > _HAT_ENTRIES
                or sum(s.nbytes + f.nbytes for s, f, _ in _hat_cache.values())
                > _HAT_BYTES):
            _hat_cache.popitem(last=False)
    return entry


def _lattice_apply(g: GridFunction, p: OperatorParams, weights: Callable,
                   scale: float) -> np.ndarray:
    """scale times the integral (or derivative) at every node of g's own
    lattice, where the cell terms depend only on the lag: _lattice_product
    with the operator's cached hat weights, O(n log n) at every n."""
    spectrum, far, _ = _hat_weights(weights, g.spacing / p.alpha, g.n)
    return _lattice_product(g.values, spectrum, far, scale, p.side)


def _lattice_product(values: np.ndarray, spectrum: np.ndarray,
                     far: np.ndarray, scale: float,
                     side: Side = Side.LEFT) -> np.ndarray:
    """scale times the lattice sum at every node: the anchor's value times
    the far weights plus one FFT product of the other values with the hat
    weights whose spectrum _hat_weights gave; 0 at the anchor."""
    n = values.size - 1
    v = values if side == Side.LEFT else values[::-1]
    size = _fft_size(n)
    out = np.zeros(n + 1)
    out[1:] = (np.fft.irfft(np.fft.rfft(v[1:], size) * spectrum, size)[:n]
               + v[0] * far)
    out = scale * out
    return out if side == Side.LEFT else out[::-1]


# Off the lattice, a point x splits [a, x] (left) or [x, b] (right) at the
# node _NEAR_CELLS whole cells before the cell that holds x.  The cells
# after that node, the one holding x partial, take the kernel's exact cell
# moments, as does the anchor's cell, clipped, when it is among them.
# Every older cell is history: with the kernel a sum of modes c_v e^(-a_v
# z) (special.e1_modes, special.s_modes) it adds
#     sum_v c_v e^(-a_v theta) H_v(L),
# L the history's last node, theta the z of x from it, and
# H_v(L) = int e^(-a_v (z - z_L)) f dz over the history.  From node L to L'
#     H_v(L') = e^(-a_v (L' - L) dz) H_v(L)
#               + sum_(j=L..L'-1) e^(-a_v (L' - 1 - j) dz) h_v(j),
# h_v(j) cell j's own term, so the points, taken in order of x, advance one
# history by one modes x gap product each: O((n + points) K) work, not
# O(n points K).  The anchor's cell, clipped, is the history's first.
_NEAR_CELLS = 2
# modes x points (and modes x gap) per temporary of the history, so peak
# memory does not grow with the number of points
_MODE_ENTRIES = 2 ** 14


def _e1_near_moments(lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """E1 moments m0, m1 of the cells [lo, lo + width] about lo, as
    differences of special.e1_moments: near x, where lo is a few
    cells at most, they lose no more than a few bits."""
    c = e1_moments(np.stack([lo + width, lo]), 1)
    m0 = c[0, 0] - c[0, 1]
    return np.stack([m0, c[1, 0] - c[1, 1] - lo * m0])


def _s_near_moments(lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """S moments m0, m1 of the cells [lo, lo + width] about lo."""
    m0, m1 = s_moments(lo, width, 1)
    return np.stack([m0, m1 - lo * m0])


# (modes(z_min), near_moments) of each kernel
_E1 = (e1_modes, _e1_near_moments)
_S = (s_modes, _s_near_moments)


def _mode_history(g: GridFunction, p: OperatorParams, xs: np.ndarray,
                  kernel: tuple, of_slopes: bool = False) -> np.ndarray:
    """The kernel's integral of the carrier of g (of its cell slopes, a
    step function, if of_slopes) over [a, x] (left) or [x, b] (right) at
    any points xs, in any order: 0 where the reduced coordinate is not
    positive.  The grid must cover the operator interval."""
    if not (g.interval.a <= p.interval.a and p.interval.b <= g.interval.b):
        raise ValueError(
            f"grid input on [{g.interval.a:g}, {g.interval.b:g}] does not "
            f"cover the operator interval [{p.interval.a:g}, {p.interval.b:g}]")
    modes, near_moments = kernel
    t, v, slopes = _oriented(g, p.side)
    # cell j as its value at its end toward x and its slope: at distance
    # u from t_0 inside it, f = end_j - slope_j (u_(j+1) - u)
    end, slope = (slopes, 0.0 * slopes) if of_slopes else (v[1:], slopes)
    cells = np.stack([end, slope], axis=1)
    n, alpha = g.n, p.alpha
    dz = g.spacing / alpha
    u = p.sign * (t - t[0])
    ua = p.sign * (p.anchor - t[0])
    ca = int(np.clip(np.searchsorted(u, ua, "right") - 1, 0, n - 1))

    on = np.flatnonzero(p.reduced(xs) > 0.0)
    ux = p.sign * (xs[on] - t[0])
    order = np.argsort(ux, kind="stable")
    on, ux = on[order], ux[order]
    k = np.clip(np.searchsorted(u, ux, "right") - 1, 0, n - 1)
    last = np.maximum(k - _NEAR_CELLS, ca)  # the history's last node

    a, c = modes(_NEAR_CELLS * dz)
    h0, h1 = exp_moments(a, (u[ca + 1] - ua) / alpha, 1)
    hist = h0 * end[ca] - alpha * h1 * slope[ca]  # H at node ca + 1
    at = ca + 1
    gaps = np.diff(last[last > ca], prepend=at)
    span = max(1, min(int(gaps.max(initial=1)),
                      _MODE_ENTRIES // (2 * a.size)))
    decay = np.exp(np.outer(-dz * a, np.arange(span + 1)))
    # e^(-a m dz) h_v(j) = ahead[v, 2 m:2 m + 2] . cells[j]
    g0, g1 = exp_moments(a, dz, 1)
    ahead = (decay[:, :span, None] * np.stack([g0, -alpha * g1], axis=1)[
        :, None, :]).reshape(a.size, -1)

    vals = np.zeros(xs.size)
    per = max(1, _MODE_ENTRIES // a.size)
    for lo in range(0, on.size, per):
        x, kc, lc = ux[lo:lo + per], k[lo:lo + per], last[lo:lo + per]
        # the near cells j = last .. k, clipped to [ua, x]
        j = kc + np.arange(-_NEAR_CELLS, 1)[:, None]
        jc = np.maximum(j, 0)
        top = np.minimum(u[jc + 1], x)
        bot = np.maximum(u[jc], ua)
        full = (top == u[jc + 1]) & (bot == u[jc])
        width = np.where(j >= lc, np.where(full, dz, (top - bot) / alpha), 0.0)
        m0, m1 = near_moments((x - top) / alpha, width)
        f_top = end[jc] - slope[jc] * (u[jc + 1] - top)
        out = np.sum(f_top * m0 - alpha * slope[jc] * m1, axis=0)
        # the history at each point's last node, in order of the points
        cols = np.zeros((a.size, x.size))
        runs = np.flatnonzero(np.diff(lc, prepend=-1)).tolist()
        for i, i_end in zip(runs, runs[1:] + [x.size]):
            node = int(lc[i])
            while at < node:
                step = min(node - at, span)
                hist = decay[:, step] * hist + ahead[:, :2 * step] @ cells[
                    at + step - 1:at - 1:-1].ravel()
                at += step
            if node > ca:
                cols[:, i:i_end] = hist[:, None]
        e = np.exp(np.outer(-a, (x - u[lc]) / alpha))
        e *= cols
        vals[on[lo:lo + per]] = out + c @ e
    return vals


# The derivative D = d/dx J of an absolutely continuous f is
#     D f(x) = +/-[f(anchor) E1(r)/alpha] + (J f')(x),
# r the reduced coordinate of x; 0 where r <= 0, as J is.  For a catalog
# input J f' runs through J's adaptive batch.  For the carrier of a grid
# input f' is the step function of its cell slopes, so D is closed: with
# m0 the E1 moments of the oriented cells,
#     D g(x) = +/-[g(anchor) E1(r)/alpha + sum_j slope_j m0_j(x)].
# On the lattice it is _lattice_apply with _d_weights and scale +/-1/alpha.

def _anchor_term(value: float, p: OperatorParams, xs) -> np.ndarray:
    """+/- value E1(r)/alpha, the anchor's term of the derivative."""
    return _closed(p, xs, lambda x, r, e: p.sign * value * (e / p.alpha))


def _d_analytic(f: FunctionSpec, p: OperatorParams,
                xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J of f's catalog derivative, plus the anchor's term unless f is 0
    at the anchor."""
    vals, conv, errs = _j_analytic(catalog_derivative(f, p.interval), p, xs)
    value = float(eval_spec_array(f, p.anchor, p.interval))
    if value != 0.0:
        vals = vals + _anchor_term(value, p, xs)
    return vals, conv, errs


def _d_grid(g: GridFunction, p: OperatorParams, xs: np.ndarray) -> np.ndarray:
    """The closed derivative of the carrier of g: its slopes' E1 history
    plus the anchor's term of its value there."""
    return (p.sign * _mode_history(g, p, xs, _E1, of_slopes=True)
            + _anchor_term(float(g(p.anchor)), p, xs))


# ---------------------------------------------------------------------------
# the public operators
# ---------------------------------------------------------------------------

def _carrier_err(g: GridFunction) -> float:
    """Interpolation bound of the piecewise-linear carrier."""
    return g.spacing ** 2 * float(np.max(np.abs(g.values))) / 8.0 + 1e-14


def _at(f: FunctionSpec, p: OperatorParams, xs: np.ndarray, analytic: Callable,
        grid: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Body of apply_j_at/apply_s_at/apply_d_at: for a grid input,
    grid(g, p, xs) of its carrier g; else one adaptive batch over the
    points."""
    xs = np.asarray(xs, dtype=float)
    if not isinstance(f, Grid):
        return analytic(f, p, xs)
    return (grid(f.fn, p, xs), np.ones_like(xs, dtype=bool),
            np.full_like(xs, _carrier_err(f.fn)))


def _apply(f: FunctionSpec, p: OperatorParams, n_out: int, at: Callable,
           weights: Callable, scale: float) -> OperatorReport:
    """Body of apply_j/apply_s/apply_d: the lattice engine when the output
    grid is a sub-lattice of a grid input's, else `at` at the output
    nodes."""
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
    return _at(f, p, xs, _j_analytic,
               lambda g, p, xs: _mode_history(g, p, xs, _E1))


def apply_j(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """First-kind fractional integral on a uniform grid of n_out intervals."""
    return _apply(f, p, n_out, apply_j_at, _j_weights, 1.0)


def apply_s_at(f: FunctionSpec, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-kind integral at arbitrary points; returns (values,
    converged flags, error estimates)."""
    return _at(f, p, xs, _s_analytic,
               lambda g, p, xs: p.alpha * _mode_history(g, p, xs, _S))


def apply_s(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """Second-kind fractional integral on a uniform grid of n_out intervals."""
    return _apply(f, p, n_out, apply_s_at, _s_weights, p.alpha)


def apply_d_at(f: FunctionSpec, p: OperatorParams,
               xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fractional derivative D = d/dx J at arbitrary points; returns
    (values, converged flags, error estimates)."""
    return _at(f, p, xs, _d_analytic, _d_grid)


def apply_d(f: FunctionSpec, p: OperatorParams, n_out: int) -> OperatorReport:
    """Fractional derivative on a uniform grid of n_out intervals: the
    grid of n_out + 1 intervals on the operator interval less its node at
    the side's anchor, where D blows up unless f(anchor) = 0.  A grid input
    on the operator interval runs on its lattice when n_out + 1 divides its
    intervals."""
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out}")
    rep = _apply(f, p, n_out + 1, apply_d_at, _d_weights, p.sign / p.alpha)
    keep = slice(1, None) if p.side == Side.LEFT else slice(None, -1)
    xs = rep.outputs.nodes()[keep]
    return OperatorReport(
        GridFunction(Interval(float(xs[0]), float(xs[-1])),
                     rep.outputs.values[keep]),
        rep.per_point_converged[keep], rep.worst_err_estimate)


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
    return _power_closed(n, p, x, lambda x: p.sign * (x - p.anchor), -p.alpha)


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
