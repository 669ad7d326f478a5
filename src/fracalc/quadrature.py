"""Adaptive integration engine shared by all operator evaluations.

Global adaptive bisection with the embedded Gauss-Kronrod 7/15 pair
(QK15 of QUADPACK, Piessens et al. 1983): each panel makes one integrand
call on the 15 Kronrod nodes, its value is the Kronrod sum and its error
estimate |K15 - G7|, where the Gauss 7-point sum reuses the values at 7 of
those nodes.  Integrands are vector-only.  Declared singular endpoints are
seeded with geometrically graded panels (ratio 1/4, at least 12 levels).
Semi-infinite integrals map (a, inf) onto (0, 1) via t = a + u/(1-u).

Non-convergence is reported through QuadResult.converged rather than
raised: operator sweeps over many output points aggregate the flags.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .special import Accuracy, DEFAULT_ACCURACY

# QK15 on [-1, 1], from x = 1 down to the centre: the Kronrod nodes, their
# weights, and the Gauss 7-point weights of the nodes at odd positions
# (0.949..., 0.741..., 0.405..., 0)
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
# mirrored by symmetry into ascending order over all 15 nodes
_K15_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_K15_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate([_WG, _WG[-2::-1]])

_GRADE_RATIO = 0.25
_GRADE_LEVELS = 12
_GRADE_LEVELS_TAIL = 18


class Singularity(Enum):
    """Declared endpoint behaviour of an integrand (caller's contract)."""

    NONE = "none"
    LOG_LEFT = "log-at-left"
    LOG_RIGHT = "log-at-right"
    LOG_BOTH = "log-at-both"
    INTEGRABLE_LEFT = "integrable-at-left"


@dataclass
class Integrand:
    """Real-to-real integrand on an open interval.

    f maps an array of nodes to the array of its values, of the same
    shape; the engine calls it once per panel, on 15 nodes.  Integrands
    carrying the integrable-at-left marker must supply
    cumulative_from_left (the exact cumulative integral from the singular
    endpoint, anchored at 0) and first_moment_from_left; the engine cannot
    otherwise reach the mass sitting below floating-point resolution.
    """

    f: Callable[[np.ndarray], np.ndarray]
    singularity: Singularity = Singularity.NONE
    cumulative_from_left: Optional[Callable[[float], float]] = None
    first_moment_from_left: Optional[Callable[[float], float]] = None


@dataclass
class QuadResult:
    value: float
    err_estimate: float
    panels_used: int
    converged: bool


def _panel_estimate(f: Integrand, lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals = f.f(mid + half * _K15_NODES)
    k15 = half * float(vals @ _K15_WEIGHTS)
    g7 = half * float(vals @ _G7_WEIGHTS)
    return k15, abs(k15 - g7)


def _graded_edges(a: float, b: float, toward_left: bool, levels: int) -> list[float]:
    width = b - a
    offsets = [width * _GRADE_RATIO ** k for k in range(levels, 0, -1)]
    if toward_left:
        return [a] + [a + off for off in offsets] + [b]
    return [a] + [b - off for off in reversed(offsets)] + [b]


def _initial_edges(a: float, b: float, marker: Singularity, levels: int) -> list[float]:
    if marker == Singularity.LOG_LEFT:
        return _graded_edges(a, b, True, levels)
    if marker == Singularity.LOG_RIGHT:
        return _graded_edges(a, b, False, levels)
    if marker == Singularity.LOG_BOTH:
        mid = 0.5 * (a + b)
        left = _graded_edges(a, mid, True, levels)
        right = _graded_edges(mid, b, False, levels)
        return left + right[1:]
    return list(np.linspace(a, b, 9))


def _adaptive(f: Integrand, edges: list[float], acc: Accuracy) -> QuadResult:
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel_estimate(f, lo, hi)
        total_val += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    min_width = 1e-15 * max(abs(edges[0]), abs(edges[-1]), 1.0)
    while len(heap) < acc.max_work:
        if total_err <= acc.tolerance(total_val):
            break
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        if hi - lo <= min_width:
            # cannot split further; accept this panel's estimate as-is
            heapq.heappush(heap, (0.0, counter, lo, hi, val, err))
            counter += 1
            total_err -= err
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel_estimate(f, lo, mid)
        v2, e2 = _panel_estimate(f, mid, hi)
        total_val += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1

    converged = total_err <= acc.tolerance(total_val)
    return QuadResult(total_val, total_err, len(heap), converged)


def integrate(f: Integrand, a: float, b: float,
              acc: Accuracy = DEFAULT_ACCURACY) -> QuadResult:
    """Adaptive integral of f over (a, b)."""
    if not a < b:
        raise ValueError(f"integrate requires a < b, got a={a}, b={b}")

    if f.singularity == Singularity.INTEGRABLE_LEFT:
        if f.cumulative_from_left is None:
            raise ValueError(
                "integrable-at-left integrands need cumulative_from_left"
            )
        if a != 0.0:
            raise ValueError(
                "integrable-at-left cumulative hooks are anchored at 0; "
                f"got left endpoint {a}"
            )
        delta = min(0.5 * (b - a), 1e-6)
        head = f.cumulative_from_left(delta)
        body = integrate(Integrand(f.f, Singularity.LOG_LEFT), delta, b, acc)
        return QuadResult(head + body.value, body.err_estimate,
                          body.panels_used, body.converged)

    edges = _initial_edges(a, b, f.singularity, _GRADE_LEVELS)
    return _adaptive(f, edges, acc)


def integrate_semi_infinite(f: Integrand, a: float,
                            acc: Accuracy = DEFAULT_ACCURACY) -> QuadResult:
    """Integral of f over (a, inf) via t = a + u/(1-u), u in (0, 1)."""

    def g(u: np.ndarray) -> np.ndarray:
        one_m = 1.0 - u
        t = a + u / one_m
        return f.f(t) / (one_m * one_m)

    left_log = f.singularity in (Singularity.LOG_LEFT, Singularity.LOG_BOTH)
    marker = Singularity.LOG_BOTH if left_log else Singularity.LOG_RIGHT
    edges = _initial_edges(0.0, 1.0, marker, _GRADE_LEVELS_TAIL)
    return _adaptive(Integrand(g, marker), edges, acc)


def laplace(f: Integrand, lam: float,
            acc: Accuracy = DEFAULT_ACCURACY) -> QuadResult:
    """Laplace transform int_0^inf exp(-lam t) f(t) dt at lam > 0."""
    if not lam > 0.0:
        raise ValueError(f"laplace requires lambda > 0, got {lam}")

    def weighted(t: np.ndarray) -> np.ndarray:
        return np.exp(-lam * t) * f.f(t)

    if f.singularity == Singularity.INTEGRABLE_LEFT:
        if f.cumulative_from_left is None or f.first_moment_from_left is None:
            raise ValueError(
                "laplace of an integrable-at-left integrand needs both "
                "cumulative hooks"
            )
        delta = 1e-6
        # exp(-lam t) ~ 1 - lam t on [0, delta]; the quadratic remainder is
        # bounded by 0.5 lam^2 delta * first_moment(delta)
        head = f.cumulative_from_left(delta) - lam * f.first_moment_from_left(delta)
        body = integrate_semi_infinite(
            Integrand(weighted, Singularity.LOG_LEFT), delta, acc)
        return QuadResult(head + body.value, body.err_estimate,
                          body.panels_used, body.converged)

    return integrate_semi_infinite(Integrand(weighted, f.singularity), 0.0, acc)
