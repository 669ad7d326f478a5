"""Independent brute-force evaluators used only by the test suite.

Everything here is deliberately written against different algorithms and
different primitives than the main package: pure-Python loops, math.fsum,
math.lgamma, composite Simpson refinement, logarithmic substitutions.
Values asserted in the tests were produced by these routines first and
then frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable


@dataclass(frozen=True)
class OracleConfig:
    refinement_limit: int = 24
    target: float = 1e-12

    def __post_init__(self) -> None:
        if self.refinement_limit < 4:
            raise ValueError("refinement_limit must be at least 4")


DEFAULT_CONFIG = OracleConfig()

_EULER_GAMMA = 0.57721566490153286060651209
_ZETA2 = math.pi * math.pi / 6.0
_ZETA3 = 1.2020569031595942854


def _e1_power_series(x: float, terms: int = 80) -> float:
    parts = []
    p = 1.0
    for k in range(1, terms + 1):
        p *= x / k
        parts.append(-((-1.0) ** k) * p / k)
    return -_EULER_GAMMA - math.log(x) + math.fsum(parts)


def _e1_continued_fraction(x: float, depth: int = 120) -> float:
    # bottom-up evaluation of x + 1 - 1/(x + 3 - 4/(x + 5 - ...))
    tail = 0.0
    for i in range(depth, 0, -1):
        tail = (i * i) / (x + 2.0 * i + 1.0 - tail)
    return math.exp(-x) / (x + 1.0 - tail)


@lru_cache(maxsize=200_000)
def _oracle_e1_cached(x: float, target: float) -> float:
    # the continued fraction needs depth ~ 100/x below 1; the series
    # suffers cancellation above ~7, so the windows overlap on [0.3, 7]
    if x <= 7.0:
        a = _e1_power_series(x, 140)
        b = _e1_continued_fraction(x, 640) if x >= 0.3 else _e1_power_series(x, 200)
    else:
        a = _e1_continued_fraction(x, 160)
        b = _e1_continued_fraction(x, 320)
    if abs(a - b) > target * max(1.0, abs(a)):
        raise RuntimeError(f"oracle_e1 branches disagree at x={x}: {a} vs {b}")
    return a


def oracle_e1(x: float, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """E1 by two disagreeing-by-construction routes; both must agree."""
    if not x > 0.0:
        raise ValueError(f"oracle_e1 requires x > 0, got {x}")
    return _oracle_e1_cached(x, cfg.target)


def _simpson(f: Callable[[float], float], lo: float, hi: float, n: int) -> float:
    h = (hi - lo) / n
    parts = [f(lo), f(hi)]
    for i in range(1, n):
        parts.append((4.0 if i % 2 else 2.0) * f(lo + i * h))
    return math.fsum(parts) * h / 3.0


def _simpson_refined(f: Callable[[float], float], lo: float, hi: float,
                     cfg: OracleConfig, start: int = 16) -> float:
    n = start
    prev = _simpson(f, lo, hi, n)
    for _ in range(cfg.refinement_limit):
        n *= 2
        cur = _simpson(f, lo, hi, n)
        if abs(cur - prev) < cfg.target * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise RuntimeError(f"oracle Simpson refinement stalled on [{lo}, {hi}]")


def _graded_simpson(f: Callable[[float], float], lo: float, hi: float,
                    toward: str, cfg: OracleConfig, levels: int = 40,
                    n_per_panel: int = 64) -> float:
    """Composite Simpson over dyadically graded panels toward one endpoint."""
    width = hi - lo
    edges = [width * 0.5 ** k for k in range(levels, 0, -1)]
    if toward == "left":
        cuts = [lo] + [lo + e for e in edges] + [hi]
    else:
        cuts = [lo] + [hi - e for e in reversed(edges)] + [hi]
    total = [_simpson(f, p0, p1, n_per_panel) for p0, p1 in zip(cuts[:-1], cuts[1:])]
    return math.fsum(total)


@lru_cache(maxsize=200_000)
def _oracle_s_cached(x: float, target: float, limit: int) -> float:
    cfg = OracleConfig(limit, target)
    if x < 0.02:
        # scaled variable sigma = s * |ln x|: the s-peak near 0 widens to O(1)
        L = -math.log(x)

        def g(sig: float) -> float:
            if sig <= 0.0:
                return 0.0
            return math.exp(-sig - math.lgamma(sig / L) + L - x) / L

        value = _simpson_refined(g, 0.0, 200.0, cfg, start=64)
        return value
    lnx = math.log(x)

    def h(s: float) -> float:
        if s <= 0.0:
            return 0.0
        return math.exp((s - 1.0) * lnx - math.lgamma(s) - x)

    s_max = max(60.0, 2.0 * x + 40.0 * math.sqrt(x + 1.0))
    value = _simpson_refined(h, 0.0, s_max, cfg, start=64)
    lo = s_max
    while True:
        hi = 2.0 * lo
        block = _simpson(h, lo, hi, 64)
        value += block
        if abs(block) < target:
            break
        lo = hi
    return value


def oracle_s(x: float, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """Second-kind kernel by Simpson refinement in s (vs Gauss in the main
    package); for x < 0.02 the integration runs in the scaled variable
    s |ln x| so the near-zero peak stays resolved."""
    if not x > 0.0:
        raise ValueError(f"oracle_s requires x > 0, got {x}")
    return _oracle_s_cached(x, cfg.target, cfg.refinement_limit)


def s_mass_below(d: float) -> float:
    """Asymptotic cumulative mass int_0^d S(t) dt for very small d.

    From gamma(s,d)/Gamma(s) ~ d^s/Gamma(s+1) and the Taylor coefficients
    of 1/Gamma(1+s): with L = -ln d,

        Q(d) = 1/L + g/L^2 + (g^2 - z2)/L^3 + (g^3 - 3 g z2 + 2 z3)/L^4 + ...

    (g Euler's constant, z2 = zeta(2), z3 = zeta(3)).  The omitted term is
    O(1/L^5); callers should keep d <= 1e-200 for 1e-11 accuracy.
    """
    if not 0.0 < d < 1e-100:
        raise ValueError("s_mass_below is an asymptotic for d < 1e-100")
    L = -math.log(d)
    g = _EULER_GAMMA
    c3 = g * g - _ZETA2
    c4 = g ** 3 - 3.0 * g * _ZETA2 + 2.0 * _ZETA3
    return 1.0 / L + g / L ** 2 + c3 / L ** 3 + c4 / L ** 4


def _log_sub_segment(eps: float, X: float, cfg: OracleConfig,
                     weight: Callable[[float], float] = lambda t: 1.0,
                     start: int = 32) -> float:
    """int_eps^X weight(t) S(t) dt via u = ln t (smooths the 1/(t ln^2 t)
    blow-up into ~1/u^2)."""
    # pointwise S refinement noise bounds what the outer rule can resolve
    outer = OracleConfig(cfg.refinement_limit, max(cfg.target, 3e-9))
    inner = OracleConfig(cfg.refinement_limit, max(outer.target * 0.03, 1e-10))

    def g(u: float) -> float:
        t = math.exp(u)
        return t * oracle_s(t, inner) * weight(t)

    return _simpson_refined(g, math.log(eps), math.log(X), outer, start=start)


def oracle_s_cumulative_segment(eps: float, X: float,
                                cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """int_eps^X S(t) dt, for cross-checking the smooth cumulative route.

    The mass below eps decays only like 1/|ln eps| and is unreachable by
    any direct double-precision quadrature, hence the segment form.
    """
    if not 0.0 < eps < X:
        raise ValueError("oracle_s_cumulative_segment requires 0 < eps < X")
    return _log_sub_segment(eps, X, cfg)


def _recip_log_segment(t0: float, t1: float, cfg: OracleConfig,
                       weight: Callable[[float], float] = lambda t: 1.0) -> float:
    """int_t0^t1 weight(t) S(t) dt via w = -1/ln(t), for t1 <= ~0.1.

    S(t) ~ 1/(t ln^2 t) makes the transformed integrand O(1) and slowly
    varying, which is the only way to sweep hundreds of decades cheaply.
    """
    if not 0.0 < t0 < t1 <= 0.25:
        raise ValueError("_recip_log_segment needs 0 < t0 < t1 <= 0.25")
    outer = OracleConfig(cfg.refinement_limit, max(cfg.target, 3e-9))
    inner = OracleConfig(cfg.refinement_limit, max(outer.target * 0.03, 1e-10))

    def g(w: float) -> float:
        u = -1.0 / w
        t = math.exp(u)
        return math.exp(u) * oracle_s(t, inner) * weight(t) / (w * w)

    return _simpson_refined(g, -1.0 / math.log(t0), -1.0 / math.log(t1),
                            outer, start=16)


def oracle_q(X: float, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """Cumulative S-mass int_0^X S by assembling the deep asymptotic, a
    reciprocal-log segment through the singular decades, and plain
    Simpson where S is tame."""
    if not X > 0.0:
        raise ValueError(f"oracle_q requires X > 0, got {X}")
    d0 = 1e-250
    total = s_mass_below(d0)
    t_knee = min(0.1, 0.5 * X)
    total += _recip_log_segment(d0, t_knee, cfg)
    if X > t_knee:
        total += _log_sub_segment(t_knee, min(X, 2.0), cfg)
    if X > 2.0:
        inner = OracleConfig(cfg.refinement_limit, 1e-10)
        outer = OracleConfig(cfg.refinement_limit, max(cfg.target, 3e-9))
        total += _simpson_refined(lambda t: oracle_s(t, inner), 2.0, X,
                                  outer, start=32)
    return total


def oracle_convolution(x: float, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """(E1 * S)(x) = int_0^x E1(x-z) S(z) dz with both singular ends split.

    Head [0, delta]: E1 frozen at x; the S-mass comes from the deep
    asymptotic below 1e-250 plus a reciprocal-log Simpson segment.
    Body: log substitutions at the S end and at the E1 end.
    """
    if not x > 0.0:
        raise ValueError(f"oracle_convolution requires x > 0, got {x}")
    inner = OracleConfig(cfg.refinement_limit, max(cfg.target, 1e-9))
    delta = min(0.25 * x, 1e-6)
    d0 = 1e-250
    head_mass = s_mass_below(d0) + _recip_log_segment(d0, delta, inner)
    head = oracle_e1(x, cfg) * head_mass

    mid = 0.5 * x
    t_knee = min(0.05, 0.5 * mid)
    left = _recip_log_segment(delta, t_knee, inner,
                              weight=lambda t: oracle_e1(x - t, inner))
    left += _log_sub_segment(t_knee, mid, inner,
                             weight=lambda t: oracle_e1(x - t, inner))

    # E1 end: z = x - exp(v) turns the log singularity into exp(v) E1(exp(v))
    inner_s = OracleConfig(cfg.refinement_limit, 1e-10)

    def g_right(v: float) -> float:
        w = math.exp(v)
        return w * oracle_e1(w, inner) * oracle_s(x - w, inner_s)

    right = _simpson_refined(g_right, math.log(1e-14), math.log(x - mid),
                             inner, start=32)
    return head + left + right


def oracle_operator(f: Callable[[float], float], side: str, alpha: float,
                    a: float, b: float, x: float,
                    cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """First-kind fractional integral at a single point by graded Simpson.

    side 'left':  (1/alpha) int_a^x E1((x-t)/alpha) f(t) dt
    side 'right': (1/alpha) int_x^b E1((t-x)/alpha) f(t) dt
    """
    if side == "left":
        Z = (x - a) / alpha
        if Z <= 0.0:
            return 0.0
        g = lambda z: oracle_e1(z, cfg) * f(x - alpha * z)
    elif side == "right":
        Z = (b - x) / alpha
        if Z <= 0.0:
            return 0.0
        g = lambda z: oracle_e1(z, cfg) * f(x + alpha * z)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _graded_simpson(g, 1e-14 * Z, Z, "left", cfg, levels=44)
