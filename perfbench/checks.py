"""Independent references for the operators, built on scipy.special and
scipy.integrate only; nothing here calls fracalc.

Notation: (J f)(x) = int_0^Z E1(z) f(x -/+ alpha z) dz and
(S f)(x) = alpha int_0^Z S(z) f(x -/+ alpha z) dz, Z the reduced distance
to the side's endpoint; S's cumulative moments come from
Q(X) = int_0^inf P(s, X) ds and M1(X) = int_0^X t S(t) dt
= int_0^inf s P(s+1, X) ds, with P = scipy.special.gammainc.

Grid inputs are the piecewise-linear interpolant of the samples on [0, 1],
integrated exactly cell by cell against the kernel moments.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

POINT_TOL = 1e-8      # grid references, relative to the sum of |terms|
ANALYTIC_TOL = 1e-7   # analytic references, relative to max(1, |ref|)
NORM_SLACK = 2e-3     # trapezoid norms of samples vs the continuous bound


def _s_hi(x: float) -> float:
    return x + 12.0 * math.sqrt(x + 4.0) + 30.0


def q_m1(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q(z) and M1(z) on an array of z >= 0."""
    z = np.asarray(z, dtype=float)
    top = _s_hi(float(z.max()))
    q, _ = integrate.quad_vec(
        lambda s: special.gammainc(s, z) if s > 0 else np.zeros_like(z),
        0.0, top, epsabs=1e-15, epsrel=1e-14, limit=4000)
    m1, _ = integrate.quad_vec(lambda s: s * special.gammainc(s + 1.0, z),
                               0.0, top, epsabs=1e-15, epsrel=1e-14, limit=4000)
    return q, m1


def q_scalar(x: float) -> float:
    if x <= 0.0:
        return 0.0
    val, _ = integrate.quad(lambda s: special.gammainc(s, x), 0.0, _s_hi(x),
                            epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def e1_moments(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int_0^z E1 and int_0^z t E1(t) dt, elementwise (0 at z = 0)."""
    z = np.asarray(z, dtype=float)
    ez = np.where(z > 0.0, z * special.exp1(np.where(z > 0.0, z, 1.0)), 0.0)
    m0 = ez - np.expm1(-z)
    m1 = 0.5 * (z * ez - np.expm1(-z) - z * np.exp(-z))
    return m0, m1


# --- grid inputs -------------------------------------------------------------

def _left(v: np.ndarray, side: str) -> np.ndarray:
    return v if side == "left" else v[::-1]


def j_grid(v: np.ndarray, alpha: float, side: str, xs: np.ndarray):
    """J of the interpolant of v at points xs in [0, 1]; returns values and
    the rounding scale (sum of absolute terms) of each."""
    w = _left(v, side)
    n = w.size - 1
    h = 1.0 / n
    t = np.arange(n) * h
    slope = np.diff(w) / h
    vals, scales = [], []
    for x in (xs if side == "left" else 1.0 - np.asarray(xs)):
        m = t < x
        t_lo = t[m]
        t_hi = np.minimum(t_lo + h, x)
        a0, a1 = e1_moments((x - t_lo) / alpha)
        b0, b1 = e1_moments((x - t_hi) / alpha)
        c = w[:-1][m] + slope[m] * (x - t_lo)
        terms = np.concatenate([c * (a0 - b0), -slope[m] * alpha * (a1 - b1)])
        vals.append(terms.sum())
        scales.append(np.abs(terms).sum())
    return np.array(vals), np.array(scales)


def s_grid(v: np.ndarray, alpha: float, side: str, nodes: np.ndarray,
           tables: tuple[np.ndarray, np.ndarray]):
    """S of the interpolant of v at lattice nodes (indices into v); tables
    holds Q and M1 at k dz, k = 0..n, dz = h / alpha."""
    w = _left(v, side)
    n = w.size - 1
    q, m1 = tables
    dz = 1.0 / (n * alpha)
    m0 = np.diff(q)
    w2 = dz * np.arange(1, n + 1) * m0 - np.diff(m1)
    slope = np.diff(w) * n
    vals, scales = [], []
    for i in (nodes if side == "left" else n - np.asarray(nodes)):
        vv = w[:i][::-1]
        ss = slope[:i][::-1]
        terms = np.concatenate([alpha * vv * m0[:i], alpha * alpha * ss * w2[:i]])
        vals.append(terms.sum())
        scales.append(np.abs(terms).sum())
    return np.array(vals), np.array(scales)


def close(out: np.ndarray, ref: np.ndarray, scale: np.ndarray) -> bool:
    return bool(np.all(np.abs(out - ref) <= POINT_TOL * scale + 1e-13))


def _trap(y: np.ndarray, p: float) -> float:
    a = np.abs(y)
    if p == np.inf:
        return float(a.max())
    return float(np.trapezoid(a ** p, dx=1.0 / (y.size - 1)) ** (1.0 / p))


def norms_ok(op: str, v: np.ndarray, out: np.ndarray, alpha: float) -> bool:
    """J does not increase the L1, L2 or Linf norm; ||S f||_1 is at most
    alpha Q(1/alpha) ||f||_1 on [0, 1].  Linf is exact on the samples, the
    others carry the trapezoid slack."""
    if op == "j":
        if _trap(out, np.inf) > _trap(v, np.inf) * (1 + 1e-12):
            return False
        return all(_trap(out, p) <= _trap(v, p) * (1 + NORM_SLACK) for p in (1, 2))
    bound = alpha * q_scalar(1.0 / alpha) * _trap(v, 1)
    return _trap(out, 1) <= bound * (1 + NORM_SLACK)


# --- analytic inputs ---------------------------------------------------------

def catalog(fn: dict):
    """(f, f') of a generated catalog spec on [0, 1]."""
    fam = fn["family"]
    if fam in ("sin", "cos"):
        w, amp = fn["w"], fn["amp"]
        if fam == "sin":
            return (lambda x: amp * np.sin(w * x)), (lambda x: amp * w * np.cos(w * x))
        return (lambda x: amp * np.cos(w * x)), (lambda x: -amp * w * np.sin(w * x))
    if fam == "exp":
        k, amp = fn["k"], fn["amp"]
        return (lambda x: amp * np.exp(k * x)), (lambda x: amp * k * np.exp(k * x))
    if fam == "poly":
        p = np.polynomial.Polynomial(fn["coeffs"])
        return p, p.deriv()
    n = fn["n"]
    if fam == "powshift-left":
        return (lambda x: x ** n), (lambda x: n * x ** (n - 1))
    return (lambda x: (1.0 - x) ** n), (lambda x: -n * (1.0 - x) ** (n - 1))


def _quad(g, lo: float, hi: float) -> float:
    val, _ = integrate.quad(g, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)
    return val


def analytic(op: str, fn: dict, alpha: float, side: str, x: float) -> float:
    """j, s or d of a catalog function at one point of [0, 1]."""
    f, df = catalog(fn)
    sgn = -1.0 if side == "left" else 1.0
    big_z = (x if side == "left" else 1.0 - x) / alpha
    if big_z <= 0.0:
        return 0.0
    if op == "j":
        return _quad(lambda z: special.exp1(z) * f(x + sgn * alpha * z), 0.0, big_z)
    if op == "d":
        # D = d/dx J: boundary term plus J of the derivative
        end = 0.0 if side == "left" else 1.0
        jd = _quad(lambda z: special.exp1(z) * df(x + sgn * alpha * z), 0.0, big_z)
        return -sgn * f(end) * special.exp1(big_z) / alpha + jd
    # S by parts: alpha [Q(Z) g(Z) - int_0^Z Q(z) g'(z) dz], g(z) = f(x -/+ alpha z)
    tail = _quad(lambda z: q_scalar(z) * df(x + sgn * alpha * z), 0.0, big_z)
    return alpha * (q_scalar(big_z) * f(x + sgn * alpha * big_z)
                    - sgn * alpha * tail)


def analytic_close(out: float, ref: float, err: float) -> bool:
    """Within the reference tolerance plus the row's own error estimate."""
    return abs(out - ref) <= ANALYTIC_TOL * max(1.0, abs(ref)) + err
