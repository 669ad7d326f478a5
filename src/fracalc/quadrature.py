"""Adaptive integration engine shared by all operator evaluations.

Global adaptive bisection with the embedded Gauss-Kronrod 7/15 pair
(QK15 of QUADPACK, Piessens et al. 1983): a panel's value is the Kronrod
sum on its 15 nodes and its error estimate |K15 - G7|, where the Gauss
7-point sum reuses the values at 7 of those nodes, but never less than
the rounding of the Kronrod sum itself.  integrate_batch
refines many integrals together in rounds: each round splits, in every
integral still above its tolerance, the panels whose error exceeds that
integral's share of it, and evaluates all new panels of all integrals in
one integrand call.  Every integrand is a vector function.  Declared
singular endpoints are seeded with geometrically graded panels (ratio
1/4, at least 12 levels).  Semi-infinite integrals map (a, inf) onto
(0, 1) via t = a + u/(1-u).  integrate, integrate_semi_infinite and laplace are
batches of one.  No endpoint marker reaches the mass of the S kernel
below floating-point resolution; integrals against S go through
special.s_weighted_batch.

Non-convergence is reported through QuadResult.converged rather than
raised: operator sweeps over many output points aggregate the flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

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

_EPS = np.finfo(float).eps

_GRADE_RATIO = 0.25
_GRADE_LEVELS = 12
_GRADE_LEVELS_TAIL = 18


class Singularity(Enum):
    """Declared endpoint behaviour of an integrand (caller's contract)."""

    NONE = "none"
    LOG_LEFT = "log-at-left"
    LOG_RIGHT = "log-at-right"
    LOG_BOTH = "log-at-both"


@dataclass
class QuadResult:
    """Value, error estimate, panel count and converged flag: floats from
    integrate and its relatives, one array entry per integral from
    integrate_batch."""

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    panels_used: int | np.ndarray
    converged: bool | np.ndarray


def _seed_fractions(marker: Singularity, levels: int) -> np.ndarray:
    """Seed panel edges on (0, 1): geometric grading (ratio 1/4) toward a
    declared log endpoint, from both ends to the middle for LOG_BOTH, and
    8 equal panels otherwise."""
    g = _GRADE_RATIO ** np.arange(levels, 0, -1.0)
    if marker == Singularity.LOG_LEFT:
        return np.concatenate([[0.0], g, [1.0]])
    if marker == Singularity.LOG_RIGHT:
        return np.concatenate([[0.0], 1.0 - g[::-1], [1.0]])
    if marker == Singularity.LOG_BOTH:
        return np.concatenate([[0.0], 0.5 * g, [0.5], 1.0 - 0.5 * g[::-1], [1.0]])
    return np.linspace(0.0, 1.0, 9)


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray,
            owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates of the panels [lo, hi], from one
    integrand call on all their nodes."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _K15_NODES
    vals = f(nodes.ravel(), np.repeat(owner, _K15_NODES.size))
    vals = vals.reshape(nodes.shape)
    k15 = half * (vals @ _K15_WEIGHTS)
    # no estimate below the rounding of the panel's own sum, which the
    # order of the summation alone can move by as much
    rounding = _EPS * np.abs(half) * (np.abs(vals) @ _K15_WEIGHTS)
    return k15, np.maximum(np.abs(k15 - half * (vals @ _G7_WEIGHTS)), rounding)


def _seed_panels(a: np.ndarray, b: np.ndarray, markers: list[Singularity],
                 levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seed panels of every integral: _seed_fractions mapped onto
    (a_i, b_i), with the ends kept exact."""
    lo, hi, owner = [], [], []
    for marker in dict.fromkeys(markers):
        idx = np.nonzero([m == marker for m in markers])[0]
        frac = _seed_fractions(marker, levels)
        edges = a[idx, None] + (b - a)[idx, None] * frac
        edges[:, 0], edges[:, -1] = a[idx], b[idx]
        lo.append(edges[:, :-1].ravel())
        hi.append(edges[:, 1:].ravel())
        owner.append(np.repeat(idx, frac.size - 1))
    return np.concatenate(lo), np.concatenate(hi), np.concatenate(owner)


def integrate_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    a, b, marker: Singularity | Sequence[Singularity]
                    = Singularity.NONE, acc: Accuracy = DEFAULT_ACCURACY,
                    levels: int = _GRADE_LEVELS) -> QuadResult:
    """Adaptive integrals of f over (a_i, b_i), refined together.

    f(nodes, owner) returns the integrand at nodes[k] of the integral
    owner[k].  marker is one declared endpoint behaviour for all integrals
    or one per integral.  Each round, every integral above
    acc.tolerance(value) splits the panels whose error exceeds
    tolerance/panels (at least one does), worst first up to acc.max_work
    panels; a panel too narrow to split keeps its value and leaves the
    error estimate.  The new panels of all integrals are evaluated in one
    call of f.  The decisions of one integral read only its own panels,
    so its result does not depend on the rest of the batch.  Returns
    arrays, one entry per integral.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float).ravel(),
                               np.asarray(b, dtype=float).ravel())
    if not np.all(a < b):
        raise ValueError("integrate requires a < b for every integral")
    m = a.size
    if m == 0:
        return QuadResult(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int),
                          np.ones(0, dtype=bool))
    markers = [marker] * m if isinstance(marker, Singularity) else list(marker)
    lo, hi, owner = _seed_panels(a, b, markers, levels)
    val, err = _panels(f, lo, hi, owner)
    min_width = 1e-15 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    while True:
        count = np.bincount(owner, minlength=m)
        total = np.bincount(owner, val, m)
        total_err = np.bincount(owner, err, m)
        tol = np.maximum(acc.abs_tol, acc.rel_tol * np.abs(total))
        active = (total_err > tol) & (count < acc.max_work)
        if not np.any(active):
            break
        pick = active[owner] & (err > (tol / count)[owner])
        narrow = pick & (hi - lo <= min_width[owner])
        err[narrow] = 0.0
        split = np.nonzero(pick & ~narrow)[0]
        room = acc.max_work - count
        if np.any(np.bincount(owner[split], minlength=m) > room):
            # the budget binds: worst first within each integral
            split = split[np.lexsort((-err[split], owner[split]))]
            first = np.searchsorted(owner[split], owner[split])
            split = split[np.arange(split.size) - first < room[owner[split]]]
        if split.size == 0:
            if np.any(narrow):
                continue
            break  # only rounding can leave every panel at its share
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_owner = np.concatenate([owner[split], owner[split]])
        new_val, new_err = _panels(f, new_lo, new_hi, new_owner)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        owner = np.concatenate([owner[keep], new_owner])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
    return QuadResult(total, total_err, count, total_err <= tol)


def _single(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
            marker: Singularity, acc: Accuracy, levels: int) -> QuadResult:
    """One integral as a batch of one, with plain-scalar fields."""
    r = integrate_batch(lambda x, owner: f(x), a, b, marker, acc, levels)
    return QuadResult(float(r.value[0]), float(r.err_estimate[0]),
                      int(r.panels_used[0]), bool(r.converged[0]))


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              marker: Singularity = Singularity.NONE,
              acc: Accuracy = DEFAULT_ACCURACY) -> QuadResult:
    """Adaptive integral of the vector function f over (a, b)."""
    if not a < b:
        raise ValueError(f"integrate requires a < b, got a={a}, b={b}")
    return _single(f, a, b, marker, acc, _GRADE_LEVELS)


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray], a: float,
                            marker: Singularity = Singularity.NONE,
                            acc: Accuracy = DEFAULT_ACCURACY) -> QuadResult:
    """Integral of f over (a, inf) via t = a + u/(1-u), u in (0, 1); marker
    declares f's behaviour at a."""

    def g(u: np.ndarray) -> np.ndarray:
        one_m = 1.0 - u
        t = a + u / one_m
        return f(t) / (one_m * one_m)

    left_log = marker in (Singularity.LOG_LEFT, Singularity.LOG_BOTH)
    u_marker = Singularity.LOG_BOTH if left_log else Singularity.LOG_RIGHT
    return _single(g, 0.0, 1.0, u_marker, acc, _GRADE_LEVELS_TAIL)


def laplace(f: Callable[[np.ndarray], np.ndarray], lam: float,
            marker: Singularity = Singularity.NONE,
            acc: Accuracy = DEFAULT_ACCURACY) -> QuadResult:
    """Laplace transform int_0^inf exp(-lam t) f(t) dt at lam > 0."""
    if not lam > 0.0:
        raise ValueError(f"laplace requires lambda > 0, got {lam}")
    return integrate_semi_infinite(lambda t: np.exp(-lam * t) * f(t), 0.0,
                                   marker, acc)
