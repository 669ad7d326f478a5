"""Grid inputs against 30-digit mpmath references: the lattice hat weights
of J, S and D, and J, S and D of a carrier at points off its lattice."""

import math
import tracemalloc

import numpy as np
import pytest

from fracalc.derivatives import d_frac_at
from fracalc.funcspec import Grid, GridFunction, Interval
from fracalc.operators import (
    OperatorParams,
    Side,
    _d_weights,
    _j_weights,
    _s_weights,
    apply_j,
    apply_j_at,
    apply_s_at,
)
from fracalc.special import Accuracy

mp = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
UNIT = Interval(0.0, 1.0)


def _e1_antiderivatives(z):
    """int_0^z E1 and int_0^z t E1 at an mpf z >= 0."""
    if z == 0:
        return mp.mpf(0), mp.mpf(0)
    e = mp.e1(z)
    return (z * e - mp.expm1(-z),
            (z * z * e + 1 - mp.exp(-z) * (1 + z)) / 2)


def _mp_lattice_weights(dz, n):
    """J's and D's hat weights W and anchor weights far at 50 digits, from
    the closed antiderivatives of E1 at the nodes l dz."""
    with mp.workdps(50):
        dz = mp.mpf(dz)
        c = [_e1_antiderivatives(dz * l) for l in range(n + 1)]
        m0 = [c[l + 1][0] - c[l][0] for l in range(n)]
        m1 = [c[l + 1][1] - c[l][1] - dz * l * m0[l] for l in range(n)]
        near = [m0[l] - m1[l] / dz for l in range(n)]
        far = [m1[l] / dz for l in range(n)]
        w = [near[0]] + [near[l] + far[l - 1] for l in range(1, n)]
        wd = [m0[0] / dz] + [(m0[l] - m0[l - 1]) / dz for l in range(1, n)]
        fard = [mp.e1(dz * (l + 1)) - m0[l] / dz for l in range(n)]
        return [np.array([float(x) for x in arr])
                for arr in (w, far, wd, fard)]


# n, alpha: the first two reach z = 25.6 and 22.8 at their far lags
LATTICES = [(1024, 0.04), (2048, 0.045), (512, 2.0)]


@pytest.fixture(scope="module")
def mp_weights():
    return {key: _mp_lattice_weights((1.0 / key[0]) / key[1], key[0])
            for key in LATTICES}


class TestLatticeWeights:
    # Sum |dW| <= n eps Sum |W| / 8, for W and far alike.  Measured on
    # these lattices: at most 0.002 n eps Sum |W| for J and D; the moments
    # differenced about 0 that they replace, 140 to 460 for J, 2 to 55 for
    # D, and 13 to 20 on the alternating input
    MULTIPLE = 1.0 / 8.0

    @pytest.mark.parametrize("n, alpha", LATTICES)
    @pytest.mark.parametrize("kernel", ["j", "d"])
    def test_weights_against_mpmath(self, n, alpha, kernel, mp_weights):
        dz = (1.0 / n) / alpha
        w_ref, far_ref, wd_ref, fard_ref = mp_weights[(n, alpha)]
        if kernel == "j":
            (w, far), refs = _j_weights(dz, n), (w_ref, far_ref)
        else:
            (w, far), refs = _d_weights(dz, n), (wd_ref, fard_ref)
        for got, ref in zip((w, far), refs):
            assert np.sum(np.abs(got - ref)) <= (
                self.MULTIPLE * n * EPS * np.sum(np.abs(ref)))

    @pytest.mark.parametrize("n, alpha", LATTICES[:2])
    def test_alternating_input(self, n, alpha, mp_weights):
        # J of +-1 on its lattice against the convolution with the mpmath
        # weights: the terms alternate, so no error of W cancels
        v = (-1.0) ** np.arange(n + 1)
        w_ref, far_ref, _, _ = mp_weights[(n, alpha)]
        ref = np.zeros(n + 1)
        ref[1:] = np.convolve(v[1:], w_ref)[:n] + v[0] * far_ref
        out = apply_j(Grid(GridFunction(UNIT, v)),
                      OperatorParams(Side.LEFT, alpha, UNIT), n).outputs.values
        assert np.max(np.abs(out - ref)) <= (
            self.MULTIPLE * n * EPS * np.sum(np.abs(w_ref)))


def _mp_s_cells(dz, lags):
    """S moments m0, m1 of the cells [l dz, (l + 1) dz] about their low
    ends at 30 digits.  Cell 0 from the definitions Q(d) = int_0^inf P(s,
    d) ds and M1(d) = int_0^inf s P(s + 1, d) ds; every other cell from the
    v-trapezoid of S's modes, S = 1 + h sum_v e^v/(v^2 + pi^2) e^(-a z), a =
    1 + e^v, on the nodes v = -40 + 0.2 i up to ln(50/dz), each mode's cell
    integral closed."""
    with mp.workdps(30):
        count = int((math.log(50.0 / dz) + 40.0) / 0.2) + 2
        v = [mp.mpf(-40.0 + 0.2 * i) for i in range(count)]
        a = [1 + mp.exp(x) for x in v]
        c = [mp.mpf(0.2) * mp.exp(x) / (x * x + mp.pi ** 2) for x in v]
        d = mp.mpf(dz)
        g0 = [-mp.expm1(-ai * d) / ai for ai in a]
        g1 = [(1 - mp.exp(-ai * d) * (1 + ai * d)) / ai ** 2 for ai in a]
        out = {}
        for l in lags:
            if l == 0:
                out[0] = tuple(mp.quad(
                    lambda s: s ** j * mp.gammainc(s + j, 0, d,
                                                   regularized=True),
                    [0, 1, 10, mp.inf]) for j in (0, 1))
                continue
            e = [mp.exp(-ai * l * d) for ai in a]
            out[l] = (d + mp.fsum(x * y * z for x, y, z in zip(c, e, g0)),
                      d * d / 2 + mp.fsum(x * y * z for x, y, z in zip(c, e, g1)))
        return out


class TestSWeights:
    # S's weights past the head cell are sums of positive mode terms, each
    # about its cell's low end: at most 1.5e-15 relative at every sampled
    # lag on these lattices.  Cell moments about 0, differenced, reached
    # 5.0e-13 for far at lag 1,999 of (2000, 0.3) and 8.3e-13 on (4096, 1)
    BOUND = 1e-14

    @pytest.mark.parametrize("n, alpha", [(2000, 0.3), (4096, 1.0),
                                          (1024, 0.05)])
    def test_weights_against_mpmath(self, n, alpha):
        dz = (1.0 / n) / alpha
        lags = sorted({0, 1, 2, n - 1}
                      | set(np.geomspace(1, n - 1, 30).astype(int).tolist()))
        cells = _mp_s_cells(dz, sorted(set(lags) | {l - 1 for l in lags[1:]}))
        w, far = _s_weights(dz, n)
        with mp.workdps(30):
            far_ref = {l: cells[l][1] / dz for l in cells}
            w_ref = {l: cells[l][0] - far_ref[l] + (far_ref[l - 1] if l else 0)
                     for l in lags}
            for l in lags:
                assert abs(far[l] - float(far_ref[l])) <= (
                    self.BOUND * float(far_ref[l])), l
                assert abs(w[l] - float(w_ref[l])) <= (
                    self.BOUND * float(w_ref[l])), l


def _cells(g, p, x):
    """The carrier's cells inside [a, x] (left) or [x, b] (right) as mpf
    z-ranges (lo, hi) with f = A + B z, z = |x - t|/alpha, and the cell
    slopes in t."""
    t, v = g.nodes(), g.values
    a, b = p.interval.a, p.interval.b
    x, alpha = mp.mpf(x), mp.mpf(p.alpha)
    out = []
    for j in range(g.n):
        t0, t1 = mp.mpf(t[j]), mp.mpf(t[j + 1])
        s = (mp.mpf(v[j + 1]) - mp.mpf(v[j])) / (t1 - t0)
        lo_t, hi_t = (max(t0, a), min(t1, x)) if p.side == Side.LEFT else (
            max(t0, x), min(t1, b))
        if lo_t >= hi_t:
            continue
        A = mp.mpf(v[j]) + s * (x - t0)
        z = sorted([abs(x - lo_t) / alpha, abs(x - hi_t) / alpha])
        out.append((z[0], z[1], A, p.sign * -alpha * s, s))
    return out


def _mp_j_d(g, p, x):
    """J and D of the carrier at x, cell by cell from the closed E1
    antiderivatives."""
    j = d = mp.mpf(0)
    for lo, hi, A, B, s in _cells(g, p, x):
        (c0h, c1h), (c0l, c1l) = _e1_antiderivatives(hi), _e1_antiderivatives(lo)
        j += A * (c0h - c0l) + B * (c1h - c1l)
        d += s * (c0h - c0l)
    anchor = p.interval.a if p.side == Side.LEFT else p.interval.b
    r = abs(mp.mpf(x) - anchor) / p.alpha
    d += p.sign * mp.mpf(float(g(anchor))) * mp.e1(r) / p.alpha
    return j, d


def _mp_s(g, p, x):
    """S of the carrier at x: alpha int S(z) f dz with S = 1 + int w(v)
    e^(-a z) dv, a = 1 + e^v, w = e^v/(v^2 + pi^2).  For each v the cells
    are closed; the term of z = 0, which decays in v only like 1/v^2, is
    integrated apart, and mpmath's tanh-sinh rule takes both v-integrals."""
    cells = _cells(g, p, x)
    _, _, A0, B0, _ = next(c for c in cells if c[0] == 0)

    def rest(v):
        a = 1 + mp.exp(v)
        total = -(A0 / a + B0 / a ** 2)
        for lo, hi, A, B, _ in cells:
            for z, sign in ((hi, 1), (lo, -1)):
                total -= sign * mp.exp(-a * z) * ((A + B * z) / a + B / a ** 2)
        return mp.exp(v) / (v * v + mp.pi ** 2) * total

    def at_zero(v):
        sigma = 1 / (1 + mp.exp(-v))
        return (A0 + B0 / (1 + mp.exp(v))) * sigma / (v * v + mp.pi ** 2)

    ones = sum((hi - lo) * (A + B * (hi + lo) / 2) for lo, hi, A, B, _ in cells)
    # past v = ln(200/z) every other term is under e^(-200)
    v_hi = mp.log(200 / min(c[0] for c in cells if c[0] > 0))
    return p.alpha * (ones + mp.quad(rest, [-60, -20, 0, v_hi])
                      + mp.quad(at_zero, [-mp.inf, 0, mp.inf]))


class TestOffLattice:
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 50.0])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT],
                             ids=["left", "right"])
    def test_against_mpmath(self, side, alpha):
        # a grid wider than the operator interval, so the anchor's cell is
        # partial; points on a node, just past one, beside the anchor and
        # deep in the interval, where the history holds many cells
        g = GridFunction(UNIT, np.random.default_rng(4).standard_normal(17))
        p = OperatorParams(side, alpha, Interval(0.1, 0.93))
        node = g.nodes()[9]
        xs = np.array([node, np.nextafter(node, 2.0), 0.11, 0.89, 0.5]
                      if side == Side.LEFT else
                      [node, np.nextafter(node, -1.0), 0.92, 0.14, 0.5])
        with mp.workdps(30):
            ref = np.array([[float(r) for r in _mp_j_d(g, p, x)] for x in xs])
        with mp.workdps(20):
            ref_s = np.array([float(_mp_s(g, p, x)) for x in xs[[1, 3, 4]]])
        got = (apply_j_at(Grid(g), p, xs)[0], d_frac_at(g, p, xs))
        for k in range(2):
            assert np.max(np.abs(got[k] - ref[:, k])) <= (
                1e-14 * np.max(np.abs(ref[:, k])))
        s = apply_s_at(Grid(g), p, xs[[1, 3, 4]])[0]
        assert np.max(np.abs(s - ref_s)) <= 1e-14 * np.max(np.abs(ref_s))

    def test_budget(self):
        # the work budget caps adaptive panels only: the mode rules of J,
        # D and S off the lattice are fixed rules and ignore it
        g = GridFunction(UNIT, np.random.default_rng(5).standard_normal(101))
        xs = np.linspace(0.0, 1.0, 17)
        p = OperatorParams(Side.LEFT, 0.3, UNIT)
        starved = OperatorParams(Side.LEFT, 0.3, UNIT, Accuracy(max_work=8))
        assert np.array_equal(apply_j_at(Grid(g), starved, xs)[0],
                              apply_j_at(Grid(g), p, xs)[0])
        assert np.array_equal(d_frac_at(g, starved, xs), d_frac_at(g, p, xs))
        assert np.array_equal(apply_s_at(Grid(g), starved, xs)[0],
                              apply_s_at(Grid(g), p, xs)[0])

    def test_memory_does_not_grow_with_points(self):
        # 20,000 points on n = 4,096: the history's temporaries are
        # chunked to 2^14 entries, so the peak (2.1 MiB measured, against
        # 1.7 and 2.1 MiB for J and D by node-by-point blocks) stays far
        # below the 40 MB of one modes x points array
        g = GridFunction(UNIT, np.random.default_rng(6).standard_normal(4097))
        xs = np.random.default_rng(7).uniform(0.0, 1.0, 20_000)
        p = OperatorParams(Side.RIGHT, 0.2, UNIT)
        tracemalloc.start()
        try:
            apply_j_at(Grid(g), p, xs)
            d_frac_at(g, p, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
