"""Special functions behind the two integral kernels.

Covers the exponential integral E1 (first-kind kernel) and its moments
int_0^z t^j E1(t) dt, j <= 20 (e1_moments); the singular second-kind
kernel S(x) = exp(-x) * int_0^inf x^(s-1)/Gamma(s) ds and any cell's
moments int t^k S(t) dt, k <= 2, among them the cumulative kernel mass
Q(X) = int_0^X S(t) dt; and the regularized lower incomplete gamma P(s,
x).  The E1 and S moments share one helper for the lower incomplete
gammas gamma(j + 1, b) of integer order.  On the nodes of the S rule
below, both kernels are also sums of decaying exponentials c e^(-a z),
a = 1 + e^v (e1_modes, s_modes), whose cell integrals are closed
(exp_moments): the grid operators' lattice weights and history, and the
cells of s_moments away from 0, run over these modes.

Every S quantity comes from one representation.  With u = e^v in
S(x) = 1 + exp(-x) int_0^inf exp(-xu)/(ln^2 u + pi^2) du,

    S(x) = 1 + exp(-x) int exp(-x e^v) w(v) dv,   w(v) = e^v/(v^2 + pi^2),

a smooth two-sided integral that decays like e^v on the left and
double-exponentially on the right.  Integrating in t under the v-integral
gives any cell's moments, Q among them, as integrals of the same kind with
smooth integrands in v (s_moments).  All of them are one plain trapezoid
sum in v with step 0.2, which converges exponentially on such integrands
(the discretization error is below 1e-20).  S itself evaluates that sum
with its left tail folded: on the nodes where x e^v <= 1/2, exp(-x e^v)
is its Taylor series, so those nodes add one polynomial in x with
coefficients tabulated once, and only about 30 nodes per point take an
exp (volterra_s_array).

Q is never computed by integrating S directly: S blows up like
1/(x ln^2 x) at 0+ and the mass below the smallest positive double is
about 1.4e-3, far above any useful tolerance.  The v-integrals carry that
mass exactly, and every integral against S runs through s_weighted_batch,
which takes its head near 0 from Q and the first two moments, or through
the moments of a grid input's cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .quadrature import QuadResult, Singularity

EULER_GAMMA = 0.57721566490153286060651209
ZETA2 = math.pi * math.pi / 6.0

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Bernoulli-number coefficients B_2n / (2n (2n-1)) of the Stirling series.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_LGAMMA_SHIFT = 12  # recurrence shift so the Stirling series runs at s >= 10


@dataclass(frozen=True)
class Accuracy:
    """Error budget for an adaptive evaluation.

    abs_tol / rel_tol form the target max(abs_tol, rel_tol * |value|);
    max_work caps the panels of each adaptive integral (integrate_batch).
    The fixed rules (E1, S, their moments and modes) take no Accuracy:
    their node counts follow from their arguments alone.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_work: int = 4096

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_work < 8:
            raise ValueError(f"max_work must be at least 8, got {self.max_work}")

    def tolerance(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_ACCURACY = Accuracy()


# ---------------------------------------------------------------------------
# exponential integral E1
# ---------------------------------------------------------------------------

def e1(x: float) -> float:
    """E1(x) = int_x^inf exp(-t)/t dt for x > 0, evaluated by e1_array."""
    if not x > 0.0:
        raise ValueError(f"e1 requires x > 0, got {x}")
    return _e1_float(float(x))


# (-1)^k / (k k!) for k = 22 down to 1: the power series of E1 below 1,
# whose 22nd term is under 5e-23
_E1_SERIES = tuple((-1) ** k / (k * math.factorial(k)) for k in range(22, 0, -1))


# h(x) = x e^x E1(x) on the octaves [2^k, 2^(k+1)), k = 0..5, as one
# degree-19 polynomial each in t = x 2^(1-k) - 3 in [-1, 1): monomial
# coefficients, highest degree first, of the Chebyshev interpolant at 20
# points (regenerate with scripts/compute_e1_table.py)
_E1_OCTAVES = (
    # [1, 2)
    (
        5.1508041022925595e-12, -1.7025847932825592e-11, 3.0803215241102515e-11,
        -1.0377537449060462e-10, 4.0674501625024094e-10, -1.3841785331632418e-09,
        4.685371428144805e-09, -1.6240537378571917e-08, 5.6954586196587714e-08,
        -2.0208902967153363e-07, 7.276360964909993e-07, -2.6657063330130347e-06,
        9.969588472249185e-06, -3.82276862407574e-05, 0.00015112891068722235,
        -0.0006205521421678448, 0.002672210894234232, -0.012221040518266387,
        0.06032083661447869, 0.6723850039373744,
    ),
    # [2, 4)
    (
        8.898696687825777e-12, -2.919562140680952e-11, 5.169208685895561e-11,
        -1.723500527088338e-10, 6.724123461743093e-10, -2.2597085270343483e-09,
        7.533025319561065e-09, -2.5685975949184738e-08, 8.839554690639614e-08,
        -3.0679468473469733e-07, 1.0762412040107013e-06, -3.82231599488987e-06,
        1.3769260716051317e-05, -5.042787001490753e-05, 0.00018829873306012323,
        -0.0007194029193250904, 0.0028244809960595555, -0.011457316028371464,
        0.048334961021273985, 0.7862512207659554,
    ),
    # [4, 8)
    (
        1.3711029783199789e-11, -4.446286193216408e-11, 7.607588879273467e-11,
        -2.497152562087817e-10, 9.68633983121656e-10, -3.196313891893747e-09,
        1.0423906519400384e-08, -3.474119570723151e-08, 1.1654626731322727e-07,
        -3.929254010240987e-07, 1.333565530963142e-06, -4.560067381273316e-06,
        1.5723117315090468e-05, -5.472086176116248e-05, 0.00019245316012579338,
        -0.0006849409098366222, 0.002470810065902486, -0.00905126559114465,
        0.03374680927441651, 0.8716057754033214,
    ),
    # [8, 16)
    (
        1.7818504245456016e-11, -5.6884527800670286e-11, 9.285860229337691e-11,
        -2.9876007226755017e-10, 1.1528352882672961e-09, -3.7196759106257823e-09,
        1.1810339708411616e-08, -3.832455021176079e-08, 1.248963598680765e-07,
        -4.0781533517320005e-07, 1.3361834699891535e-06, -4.39463482905169e-06,
        1.4512551688050918e-05, -4.8136671586783155e-05, 0.00016043006857704206,
        -0.0005374751552453281, 0.001810931856707197, -0.006139755107714971,
        0.02095892322379999, 0.9279135976670307,
    ),
    # [16, 32)
    (
        1.8670212026442594e-11, -5.857295695651595e-11, 9.058798193380028e-11,
        -2.853620000265067e-10, 1.0983340717157908e-09, -3.4640453494698802e-09,
        1.0705290345073024e-08, -3.385400626009925e-08, 1.0736935499428376e-07,
        -3.404772029151893e-07, 1.0812190311528403e-06, -3.4391403597308567e-06,
        1.0957307469139267e-05, -3.497138157801001e-05, 0.00011181996027070422,
        -0.00035823550706974767, 0.001150030631807377, -0.0036999374981873177,
        0.011931104768064488, 0.9614317325721677,
    ),
    # [32, 64)
    (
        1.5626786525970477e-11, -4.825460768365666e-11, 7.093475204717992e-11,
        -2.1942627732295928e-10, 8.451091247437557e-10, -2.615279142146541e-09,
        7.901747270195778e-09, -2.447813722279854e-08, 7.600574423115647e-08,
        -2.3569056079432053e-07, 7.311961174439693e-07, -2.269873016182237e-06,
        7.050459537302905e-06, -2.1912273756512325e-05, 6.814296132419391e-05,
        -0.0002120444507004902, 0.0006602590440351603, -0.002057278089674231,
        0.006414650100681807, 0.9799845704143275,
    ),
)

# the same table as columns, so one gather gives each point its octave's row
_E1_OCTAVE_COLUMNS = np.array(_E1_OCTAVES).T
# points per gather: the gathered coefficients stay near 320 KiB, so peak
# memory does not grow with the call
_E1_CHUNK = 2048
_E1_POLY_END = 64.0  # the continued fraction takes over from here ...
_E1_CF_DEPTH = 21  # ... at the depth 20 + 64/x it needs at x = 64


def e1_array(x: np.ndarray) -> np.ndarray:
    """Vectorized E1 over a positive array of any shape.

    Every branch has a fixed cost, so no convergence test runs.  Below 1
    the power series to 22 terms.  On [1, 64) the octave polynomials of
    h = x e^x E1: np.frexp gives x = m 2^e exactly, so the octave is e - 1
    and t = 4m - 3, and E1 = e^(-x) h(t)/x.  From 64 up the continued
    fraction, evaluated backward from depth 21.  Against scipy's exp1 the
    relative error is under 1e-15 on [1, 700].
    """
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return np.full(x.shape, _e1_float(x.item()))
    if not np.all(x > 0.0):  # NaN too
        raise ValueError("e1_array requires strictly positive arguments")
    out = np.empty_like(x)
    lo = x < 1.0
    xs = x[lo]
    if xs.size:
        # E1(x) = -gamma - ln x - sum_k (-x)^k / (k k!), in Horner form
        poly = np.full_like(xs, _E1_SERIES[0])
        for c in _E1_SERIES[1:]:
            poly *= xs
            poly += c
        out[lo] = -EULER_GAMMA - np.log(xs) - poly * xs
    if xs.size == x.size:
        return out
    mid = ~lo & (x < _E1_POLY_END)
    xs = x[mid]
    if xs.size:
        h = np.empty_like(xs)
        for start in range(0, xs.size, _E1_CHUNK):
            m, e = np.frexp(xs[start:start + _E1_CHUNK])
            t = 4.0 * m - 3.0
            coef = np.take(_E1_OCTAVE_COLUMNS, e - 1, axis=1)
            hc = h[start:start + _E1_CHUNK]
            hc[:] = coef[0]
            for row in coef[1:]:
                hc *= t
                hc += row
        h *= np.exp(-xs)
        h /= xs
        out[mid] = h
    far = x >= _E1_POLY_END
    xs = x[far]
    if xs.size:
        # E1(x) = exp(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
        d = xs + (2 * _E1_CF_DEPTH + 1)
        for i in range(_E1_CF_DEPTH - 1, -1, -1):
            d = xs + (2 * i + 1) - (i + 1) ** 2 / d
        out[far] = np.exp(-xs) / d
    return out


def _e1_float(x: float) -> float:
    """e1_array at one Python float, its arithmetic step for step, so the
    result is the same to the bit: numpy's ufuncs cost about a microsecond
    each on a one-element array, and a branch makes up to 45 of them.  The
    exp and log stay numpy's."""
    if not x > 0.0:  # NaN too
        raise ValueError("e1_array requires strictly positive arguments")
    if x < 1.0:
        poly = _E1_SERIES[0]
        for c in _E1_SERIES[1:]:
            poly = poly * x + c
        return -EULER_GAMMA - float(np.log(x)) - poly * x
    if x < _E1_POLY_END:
        m, e = math.frexp(x)
        t = 4.0 * m - 3.0
        coef = _E1_OCTAVES[e - 1]
        h = coef[0]
        for c in coef[1:]:
            h = h * t + c
        return h * float(np.exp(-x)) / x
    d = x + (2 * _E1_CF_DEPTH + 1)
    for i in range(_E1_CF_DEPTH - 1, -1, -1):
        d = x + (2 * i + 1) - (i + 1) ** 2 / d
    return float(np.exp(-x)) / d


def _lower_gammas(b: np.ndarray, k: int) -> np.ndarray:
    """gamma(j + 1, b) = int_0^b t^j e^(-t) dt for j = 0..k, b >= 0, as
    the k + 1 rows of an array of b's shape.

    gamma(j + 1, b) = j! R_j with R_j = e^(-b) sum_(i>j) b^i/i!, and R_j =
    R_(j+1) + t_(j+1), t_i = e^(-b) b^i/i!, so the rows are summed downward
    from R_k and every term added is positive.  R_k is -expm1(-b) - sum_(1
    <= i <= k) t_i where that keeps all but 2 bits, R_k >= (1 - e^(-b))/4;
    below that (b under about 0.55 at k = 1, 1.52 at k = 2, 17.8 at k = 20)
    it is t_(k+1) sum_(m>=0) b^m (k+1)!/(k+1+m)!, by Horner to the depth its
    largest b needs.  R_0 is -expm1(-b) itself.
    """
    b = np.asarray(b, dtype=float)
    out = np.empty((k + 1,) + b.shape)
    out[0] = -np.expm1(-b)
    if k == 0:
        return out
    e = np.exp(-b)
    t = [e, e * b]
    for i in range(2, k + 1):
        t.append(t[-1] * b / i)
    r = out[0] - (t[1] if k == 1 else sum(t[1:]))
    small = r < 0.25 * out[0]
    bs = b[small]
    if bs.size:
        b_max = float(bs.max())
        coef = [1.0]  # (k+1)!/(k+1+m)!
        while coef[-1] * b_max ** (len(coef) - 1) > 1e-17:
            coef.append(coef[-1] / (k + 1 + len(coef)))
        series = np.full_like(bs, coef[-1])
        for c in coef[-2::-1]:
            series *= bs
            series += c
        r[small] = t[k][small] * bs / (k + 1) * series
    for j in range(k, 1, -1):
        out[j] = math.factorial(j) * r
        r += t[j]
    out[1] = r
    return out


def e1_moments(z, k: int) -> np.ndarray:
    """The moments int_0^z t^j E1(t) dt, j = 0..k (k <= 20), of z >= 0 (an
    array, 0 at z = 0), as the k + 1 rows of an array of z's shape:

        (z^(j+1) E1(z) + gamma(j + 1, z))/(j + 1),

    two positive terms, from one E1 evaluation and _lower_gammas.
    """
    if not 0 <= k <= 20:
        raise ValueError(f"e1_moments requires k in 0..20, got {k}")
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.zeros((k + 1, flat.size))
    pos = flat > 0.0
    if np.any(pos):
        zp = flat[pos]
        power = zp * e1_array(zp)  # z^(j+1) E1(z)
        for j, row in enumerate(_lower_gammas(zp, k)):
            row += power
            row /= j + 1
            out[j][pos] = row  # a 1-d boolean scatter, the fast one
            power *= zp
    return out.reshape((k + 1,) + z.shape)


def e1_cumulative0_array(z: np.ndarray) -> np.ndarray:
    """int_0^z E1(t) dt, elementwise: row 0 of e1_moments."""
    return e1_moments(z, 0)[0]


def e1_cumulative1_array(z: np.ndarray) -> np.ndarray:
    """int_0^z t E1(t) dt, elementwise: row 1 of e1_moments."""
    return e1_moments(z, 1)[1]


# ---------------------------------------------------------------------------
# log-gamma and the regularized lower incomplete gamma
# ---------------------------------------------------------------------------

def _lgamma_stirling(s: np.ndarray) -> np.ndarray:
    inv = 1.0 / s
    inv2 = inv * inv
    series = np.zeros_like(s)
    p = inv
    for c in _STIRLING:
        series += c * p
        p = p * inv2
    return (s - 0.5) * np.log(s) - s + _LN_SQRT_2PI + series


def log_gamma_array(s: np.ndarray) -> np.ndarray:
    """ln Gamma(s) over an array of s > 0, by the Stirling series, shifted
    by the recurrence below s = 10."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("log_gamma_array requires strictly positive arguments")
    out = np.empty_like(s)
    hi = s >= 10.0
    if np.any(hi):
        out[hi] = _lgamma_stirling(s[hi])
    lo = ~hi
    if np.any(lo):
        sl = s[lo]
        shift = np.zeros_like(sl)
        for i in range(_LGAMMA_SHIFT):
            shift += np.log(sl + i)
        out[lo] = _lgamma_stirling(sl + _LGAMMA_SHIFT) - shift
    return out


def p_regularized(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Uses the all-positive-term series for x < s + 1 and the upper-gamma
    continued fraction otherwise (both classical).
    """
    if not s > 0.0:
        raise ValueError(f"p_regularized requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"p_regularized requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return float(p_regularized_array(np.asarray([s]), x)[0])


def p_regularized_array(s: np.ndarray, x: float) -> np.ndarray:
    """P(s, x) for an array of s > 0 at a common x >= 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("p_regularized_array requires s > 0")
    if x < 0.0:
        raise ValueError(f"p_regularized_array requires x >= 0, got {x}")
    out = np.empty_like(s)
    if x == 0.0:
        out.fill(0.0)
        return out
    lnx = math.log(x)
    lg = log_gamma_array(s)
    series_mask = x < s + 1.0
    if np.any(series_mask):
        ss = s[series_mask]
        # gamma(s,x) = x^s e^-x sum_k x^k / (s (s+1) ... (s+k)), all terms positive
        term = 1.0 / ss
        total = term.copy()
        k = 1.0
        while True:
            term = term * x / (ss + k)
            total += term
            if np.max(term / total) < 1e-17 or k > 10_000:
                break
            k += 1.0
        out[series_mask] = np.exp(ss * lnx - x - lg[series_mask]) * total
    cf_mask = ~series_mask
    if np.any(cf_mask):
        ss = s[cf_mask]
        # Lentz continued fraction for the upper gamma Q(s, x)
        tiny = 1e-300
        b = x + 1.0 - ss
        c = np.full_like(ss, 1.0 / tiny)
        d = 1.0 / np.where(b == 0.0, tiny, b)
        h = d.copy()
        for i in range(1, 1000):
            an = -i * (i - ss)
            b = b + 2.0
            d = an * d + b
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = b + an / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            delta = c * d
            h *= delta
            if np.max(np.abs(delta - 1.0)) < 1e-16:
                break
        q_upper = np.exp(ss * lnx - x - lg[cf_mask]) * h
        out[cf_mask] = 1.0 - q_upper
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the second-kind kernel S and its cumulative Q
# ---------------------------------------------------------------------------

# Trapezoid step in v.  The S-family integrands are analytic in the strip
# |Im v| < pi/2, so the discretization error is of order exp(-pi^2/h) < 1e-20.
_V_STEP = 0.2
# The weight e^v/(v^2 + pi^2) integrates to under 3e-21 below this.
_V_LO = -40.0

# S(x) - 1 = exp(-x) int_0^inf exp(-xu)/(ln^2 u + pi^2) du decays like
# exp(-x)/(x ln^2 x); beyond this cutoff the difference is under 1e-20.
_S_SATURATION = 40.0

# cells (or points) x v-nodes per chunk of s_moments and per bucket of
# volterra_s_array, so peak memory does not grow with the call.  The
# exponentials of every bucket of volterra_s_array fill one 512 KiB
# buffer: a fresh temporary per bucket, which glibc may return to the OS
# and fault in again for the next, made verify's calls 2.5 times slower
# (2 vCPU).
_S_ENTRIES = 2 ** 16


# The v-rules below end at ln(50/z) for their smallest argument z.  Their
# top rates 1 + e^v overflow from z below about 3e-307 on, and 50/z itself
# from 2.8e-307; this floor keeps them finite with room to spare.
_V_Z_MIN = 1e-300


def _v_top(z: float, name: str) -> float:
    """ln(50/z), where the v-rule of name's arguments from z on ends;
    raises ValueError for z below _V_Z_MIN, or NaN."""
    if not z >= _V_Z_MIN:
        raise ValueError(f"{name} requires arguments >= {_V_Z_MIN:g}, "
                         f"got {z:.6g}")
    return math.log(50.0 / z)


def _v_count(v_hi: float) -> int:
    """The number of trapezoid nodes on [_V_LO, v_hi]."""
    return int((max(v_hi, _V_LO) - _V_LO) / _V_STEP) + 2


def _v_grid(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first count trapezoid nodes v from _V_LO and the weights
    h/(v^2 + pi^2)."""
    # integer multiples of the step: np.arange(lo, hi, h) drifts from h
    # by ~1e-14 relative, which biases every weight by as much
    v = _V_LO + _V_STEP * np.arange(count)
    return v, _V_STEP / (v * v + math.pi ** 2)


# The fold of volterra_s_array.  Where y = x e^v <= _FOLD_TAU, exp(-y) is
# its Taylor sum to order _FOLD_ORDER, whose remainder is under
# tau^18/18! < 6e-22.  Points go in buckets by their first exact node,
# rounded down to a multiple of _FOLD_GROUP; since ln(50/tau) < 24 h, a
# bucket's _FOLD_EXACT nodes reach past ln(50/x) for every point in it.
_FOLD_TAU = 0.5
_FOLD_ORDER = 17
_FOLD_GROUP = 8
_FOLD_EXACT = _FOLD_GROUP + math.ceil(math.log(50.0 / _FOLD_TAU) / _V_STEP)


def _fold_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^v and w e^v on the nodes up to ln(50/1e-12) and one bucket more,
    and the fold's coefficients (-1)^k P_k[J]/k!, k <= _FOLD_ORDER, by J:
    with P_k[J] = sum_(j<J) w_j e^((k+1) v_j), a prefix sum of positive
    terms, the nodes j < J add sum_k (-x)^k/k! P_k[J] to S(x) e^x - 1."""
    v, w = _v_grid(_v_count(math.log(50.0 / 1e-12) + _FOLD_GROUP * _V_STEP))
    k = np.arange(_FOLD_ORDER + 1)
    prefix = np.zeros((k.size, v.size + 1))
    np.cumsum(w * np.exp(np.outer(k + 1, v)), axis=1, out=prefix[:, 1:])
    signed = np.array([(-1) ** i * math.factorial(i) for i in k], dtype=float)
    ev = np.exp(v)
    return ev, w * ev, prefix / signed[:, None]


_FOLD_EV, _FOLD_WEV, _FOLD_COEF = _fold_table()


def _sigma(v: np.ndarray) -> np.ndarray:
    """e^v/(1 + e^v), for v >= _V_LO."""
    return 1.0 / (1.0 + np.exp(-v))


def _sigma_prime(v: np.ndarray) -> np.ndarray:
    """e^v/(1 + e^v)^2, even in v; without overflow for any v."""
    u = np.exp(-np.abs(v))
    return u / ((1.0 + u) * (1.0 + u))


def _sigma_prime_over_a(v: np.ndarray) -> np.ndarray:
    """e^v/(1 + e^v)^3, sigma'(v) over a = 1 + e^v; without overflow for
    any v."""
    u = np.exp(-np.abs(v))
    return np.where(v > 0.0, u * u, u) / ((1.0 + u) ** 3)


def volterra_s(x: float) -> float:
    """The second-kind kernel S(x) = exp(-x) int_0^inf x^(s-1)/Gamma(s) ds.

    Valid for x > 0 and evaluated by volterra_s_array.  Evaluation is only
    permitted down to x = 1e-12; integrals against S must route the
    near-zero mass through s_moments.
    """
    if not x > 0.0:
        raise ValueError(f"volterra_s requires x > 0, got {x}")
    if x < 1e-12:
        raise ValueError(
            f"volterra_s is restricted to x >= 1e-12 (got {x}); "
            "route near-zero integrals through s_moments"
        )
    return float(volterra_s_array(np.array([x]))[0])


def volterra_s_array(x: np.ndarray) -> np.ndarray:
    """Vectorized S over x >= 1e-12:

        S(x) = 1 + exp(-x) h sum_v exp(-x e^v) e^v/(v^2 + pi^2)

    over v in [-40, ln(50/x)] (the right tail is under exp(-50)); S is 1
    from x = 40 on.  The nodes where y = x e^v <= _FOLD_TAU take exp(-y)
    as its Taylor sum, so together they add sum_k x^k _FOLD_COEF[k, J],
    one polynomial in x per point (see _fold_table).  Only the nodes from
    its bucket's first exact node J up to ln(50/x), _FOLD_EXACT of them,
    take an exp, and the points of one bucket share them.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1e-12):  # NaN too
        raise ValueError("volterra_s_array requires x >= 1e-12 throughout")
    flat = x.ravel()
    out = np.ones_like(flat)
    todo = np.nonzero(flat < _S_SATURATION)[0]
    if todo.size == 0:
        return out.reshape(x.shape)
    xs = flat[todo]
    # the first node with x e^v > tau, rounded down to its bucket's
    first = np.floor((np.log(_FOLD_TAU / xs) - _V_LO) / _V_STEP).astype(
        np.intp) + 1
    first -= first % _FOLD_GROUP
    # Horner, one gather per step: gathering every row at once would hold
    # _FOLD_ORDER + 1 floats per point, 1.5 MB for one of verify's calls
    s = _FOLD_COEF[-1].take(first)
    for c in _FOLD_COEF[-2::-1]:
        s *= xs
        s += c.take(first)
    order = np.argsort(first)
    buf = np.empty(_S_ENTRIES)
    for bucket in np.split(order, np.flatnonzero(np.diff(first[order])) + 1):
        j = first[bucket[0]]
        ev, wev = _FOLD_EV[j:j + _FOLD_EXACT], _FOLD_WEV[j:j + _FOLD_EXACT]
        for lo in range(0, bucket.size, _S_ENTRIES // _FOLD_EXACT):
            idx = bucket[lo:lo + _S_ENTRIES // _FOLD_EXACT]
            e = np.outer(xs[idx], -ev,
                         out=buf[:idx.size * _FOLD_EXACT].reshape(idx.size, -1))
            s[idx] += np.exp(e, out=e) @ wev
    out[todo] = 1.0 + np.exp(-xs) * s
    return out.reshape(x.shape)


def _cell_terms(b: np.ndarray, v: np.ndarray, w: np.ndarray, k: int,
                first: np.ndarray) -> list[np.ndarray]:
    """w e^v/a^(j+1) times gamma(j + 1, b) for j = 0..k, a = 1 + e^v, with
    first in place of gamma(1, b): e^v/a, e^v/a^2 and e^v/a^3 are sigma,
    sigma' and sigma'/a."""
    gammas = _lower_gammas(b, k)
    gammas[0] = first
    return [w * scale(v) * gamma for scale, gamma in
            zip((_sigma, _sigma_prime, _sigma_prime_over_a), gammas)]


def s_moments(lo, width, k: int) -> np.ndarray:
    """The moments int_lo^(lo + width) t^j S(t) dt, j = 0..k (k <= 2), of
    cells lo >= 0, width >= 0 (arrays, broadcast), as the k + 1 rows of an
    array of their shape.

    Under the v-integral S = 1 + int w e^(-t a) dv, a = 1 + e^v, and with
    t = lo + s, row j is the polynomial part int t^j dt plus
    sum_(i<=j) C(j, i) lo^(j-i) G_i, where, d the width,

        G_i = int w e^(-lo a) gamma(i + 1, d a)/a^(i+1) dv,

    free of cancellation.  A head cell (lo = 0) holds the singularity: its
    G_0 is 1/2 - int sigma e^(-d a)/(v^2 + pi^2) dv (the complement of Q),
    and past v = ln(1/d) its G_1, G_2 integrands decay only like e^(-v), so
    it takes v up to 40 - ln d, leaving a tail under 1e-17 relative.  Other
    cells take G_i as sums of positive terms over S's modes from their
    smallest lo on (s_modes, the trapezoid rule up to ln(50/lo)), the cells
    of one width sharing their moment columns, so a cell costs one exp per
    mode; cells from lo = 40 on have S = 1 and are exact.  The operators'
    lattice weights take S's modes by shifted power blocks instead, and
    call this for their head cell.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"s_moments requires k in 0..2, got {k}")
    lo, d = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                np.asarray(width, dtype=float))
    shape = lo.shape
    lo, d = lo.ravel(), d.ravel()
    if np.any(lo < 0.0) or np.any(d < 0.0):
        raise ValueError("s_moments requires lo >= 0 and width >= 0")
    g = np.zeros((k + 1, lo.size))
    head = (lo == 0.0) & (d > 0.0)
    heads = np.nonzero(head)[0]
    ln_d = np.zeros(lo.size)
    ln_d[heads] = [math.log(x) for x in d[heads].tolist()]
    # heads with the same node count and the same cut of G_0 share one
    # matrix of terms, in chunks of at most _S_ENTRIES entries
    groups: dict = {}
    for i in heads.tolist():
        key = (_v_count(40.0 - ln_d[i]),
               _v_count(math.log(40.0) - ln_d[i]))
        groups.setdefault(key, []).append(i)
    for (count, cut), members in groups.items():
        v, w = _v_grid(count)
        rows = max(1, _S_ENTRIES // count)
        for start in range(0, len(members), rows):
            idx = np.array(members[start:start + rows])
            # e^v alone overflows for d < ~1e-306
            b = d[idx, None] + np.exp(v + ln_d[idx, None])
            terms = _cell_terms(b, v, w, k, np.exp(-b))
            # G_0 - 1/2, whose integrand is under exp(-40) past v = ln(40/d)
            terms[0] = -terms[0][:, :cut]
            g[:, idx] = [t.sum(axis=1) for t in terms]
    body = np.nonzero((lo > 0.0) & (lo < _S_SATURATION) & (d > 0.0))[0]
    if body.size:
        # sum_v c_v e^(-a_v lo) int_0^d y^i e^(-a_v y) dy over S's modes
        # past its constant one (the polynomial part), all terms positive;
        # the cells of one width share their columns c int_0^d y^i e^(-a y)
        a, c = (m[1:] for m in s_modes(float(lo[body].min())))
        body = body[np.argsort(d[body], kind="stable")]
        per = max(1, _S_ENTRIES // a.size)
        for cells in np.split(body, np.flatnonzero(np.diff(d[body])) + 1):
            cols = c * exp_moments(a, float(d[cells[0]]), k)
            for start in range(0, cells.size, per):
                idx = cells[start:start + per]
                g[:, idx] = cols @ np.exp(np.outer(-a, lo[idx]))
    out = np.empty((k + 1, lo.size))
    out[0] = (d + 0.5 * head) + g[0]  # a head's 1/2 first, as in Q
    # a moment past 1e308 is inf, for the caller's finiteness check
    with np.errstate(over="ignore"):
        if k >= 1:
            out[1] = d * (lo + 0.5 * d) + (lo * g[0] + g[1])
        if k == 2:
            out[2] = (d * (lo * (lo + d) + d * d / 3.0)
                      + (lo * (lo * g[0] + 2.0 * g[1]) + g[2]))
    return out.reshape((k + 1,) + shape)


# ---------------------------------------------------------------------------
# both kernels as sums of decaying exponentials
# ---------------------------------------------------------------------------

def e1_modes(z_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Rates a and weights c with E1(z) = sum c e^(-a z) for z >= z_min
    (the sum being the trapezoid rule of E1 = int sigma(v) e^(-z a) dv,
    a = 1 + e^v, c = h sigma(v)), on the nodes of the S rule from -40 to
    ln(50/z_min).  A fixed rule, like e1_array's: its node count follows
    from z_min alone.  Raises ValueError for z_min below 1e-300, where the
    top rates overflow."""
    v, _ = _v_grid(_v_count(_v_top(z_min, "e1_modes")))
    return 1.0 + np.exp(v), _V_STEP * _sigma(v)


def s_modes(z_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Rates a and weights c with S(z) = sum c e^(-a z) for z >= z_min:
    the mode a = 0, c = 1 first (S's constant 1), then the nodes of
    volterra_s_array's sum, a = 1 + e^v, c = h e^v/(v^2 + pi^2), on
    [-40, ln(50/z_min)].  A fixed rule, as e1_modes is.  Raises ValueError
    for z_min below 1e-300."""
    v, w = _v_grid(_v_count(_v_top(z_min, "s_modes")))
    ev = np.exp(v)
    return np.concatenate([[0.0], 1.0 + ev]), np.concatenate([[1.0], w * ev])


def exp_moments(a: np.ndarray, width: float, k: int) -> np.ndarray:
    """int_0^width y^j e^(-a y) dy, j = 0..k, for rates a >= 0 (a
    1-d array), as k + 1 rows: gamma(j + 1, a width)/a^(j + 1), and
    width^(j + 1)/(j + 1) where a = 0.  Every term is positive.  Raises
    ValueError where a = 0 and width^(k + 1) overflows."""
    a = np.asarray(a, dtype=float)
    out = _lower_gammas(a * width, k)
    # a = 0 gives 0/0 here, and a^(j + 1) = inf a term of 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(k + 1):
            out[j] /= a ** (j + 1)
    zero = a == 0.0
    if zero.any():
        for j in range(k + 1):
            try:  # a float's power raises where numpy's only warns
                out[j][zero] = float(width) ** (j + 1) / (j + 1)
            except OverflowError:
                raise ValueError(f"exp_moments: width^{j + 1} overflows at "
                                 f"width {width:g}") from None
    return out


def s_cumulative(X: float) -> float:
    """Q(X) = int_0^X S(t) dt, X >= 0: row 0 of the head [0, X]."""
    return float(s_moments(0.0, X, 0)[0])


def s_first_moment(delta: float) -> float:
    """int_0^delta t S(t) dt, delta >= 0: row 1 of the head [0, delta]."""
    return float(s_moments(0.0, delta, 1)[1])


def s_weighted_batch(phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     delta, b, marker: Singularity,
                     acc: Accuracy = DEFAULT_ACCURACY) -> QuadResult:
    """int_0^(b_i) S(z) phi(z, i) dz for every i: the one rule for an
    integral against S.

    phi(z, i) returns the weight at z[k] for the integral i[k].  On the head
    [0, delta_i] phi is taken as the quadratic through its values at 0,
    delta_i/2 and delta_i, integrated against Q and the first two moments
    of S; the quadratic's change from the chord through 0 and delta_i
    bounds the head's error.  Where delta_i^2 is below the smallest normal
    double (delta_i < 1.5e-154) the moments cannot carry the quadratic, so
    phi is taken as its value at 0 and the quadratic's largest change on
    the head bounds the error.  The body (delta_i, b_i), where b_i >
    delta_i, is one adaptive batch under marker.  Returns arrays, one entry
    per integral; converged reports the body (true where there is none).
    Raises ValueError where a value or an error estimate is not finite.
    """
    from .quadrature import QuadResult, integrate_batch  # layering one-way

    delta, b = np.broadcast_arrays(np.asarray(delta, dtype=float).ravel(),
                                   np.asarray(b, dtype=float).ravel())
    m = delta.size
    g0, gm, gd = phi(np.concatenate([0.0 * delta, 0.5 * delta, delta]),
                     np.tile(np.arange(m), 3)).reshape(3, m)
    heads, inverse = np.unique(delta, return_inverse=True)
    q_head, m1_head, m2_head = s_moments(0.0, heads, 2)[:, inverse]
    # phi = g0 + (gd - g0 - c) u + c u^2 on the head, u = z/delta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = 2.0 * (g0 - 2.0 * gm + gd)
        curv = c / (delta * delta)
        slope = (gd - g0) / delta - curv * delta
        value = g0 * q_head + slope * m1_head + curv * m2_head
        err = np.abs(curv) * (delta * m1_head - m2_head)
        flat = delta * delta < np.finfo(float).tiny
        value[flat] = (g0 * q_head)[flat]
        err[flat] = ((np.abs(gd - g0 - c) + np.abs(c)) * q_head)[flat]
    panels, conv = np.zeros(m, dtype=int), np.ones(m, dtype=bool)
    body = np.nonzero(b > delta)[0]
    res = integrate_batch(
        lambda z, owner: volterra_s_array(z) * phi(z, body[owner]),
        delta[body], b[body], marker, acc)
    value[body] += res.value
    err[body] += res.err_estimate
    panels[body], conv[body] = res.panels_used, res.converged
    bad = np.flatnonzero(~(np.isfinite(value) & np.isfinite(err)))
    if bad.size:
        raise ValueError(f"the integral against S over [0, {b[bad[0]]:.6g}] "
                         f"is not finite")
    return QuadResult(value, err, panels, conv)


def e1_s_convolution_array(x: np.ndarray,
                           acc: Accuracy = DEFAULT_ACCURACY) -> np.ndarray:
    """(E1 * S)(x) = int_0^x E1(x - z) S(z) dz, identically 1 for x > 0,
    at a 1-D array of points: one s_weighted_batch for all of them, with
    the head on [0, min(x/4, 1e-6)] and the body graded toward both ends.
    Used as a pipeline check that the two kernel evaluations are mutually
    consistent.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(x > 0.0):
        raise ValueError("e1_s_convolution requires x > 0")
    from .quadrature import Singularity

    return s_weighted_batch(lambda z, i: e1_array(x[i] - z),
                            np.minimum(0.25 * x, 1e-6), x,
                            Singularity.LOG_BOTH, acc).value


def e1_s_convolution(x: float, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """(E1 * S)(x) at one point x > 0, by e1_s_convolution_array."""
    return float(e1_s_convolution_array(np.array([x]), acc)[0])
