"""Special-function evaluations against frozen oracle values and
classical identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracalc.special import (
    Accuracy,
    EULER_GAMMA,
    ZETA2,
    e1,
    _lower_gammas,
    e1_array,
    e1_moments,
    e1_s_convolution,
    log_gamma_array,
    p_regularized,
    p_regularized_array,
    s_cumulative,
    s_first_moment,
    s_moments,
    s_weighted_batch,
    volterra_s,
    volterra_s_array,
)

# frozen from the dual-route refinement oracle (power series vs Lentz)
E1_AT_1 = 0.21938393439552029
E1_AT_10 = 4.156968929685325e-06

# frozen from the nested-refinement oracle at target 1e-12
S_AT_1 = 1.0329209475752628
S_AT_HALF = 1.1091030263630675
S_AT_2 = 1.0056557399686876

# frozen segment integrals of the kernel (graded Simpson, log substitution)
SEG_BELOW = 1e-3
SEG_FROZEN = {0.5: 0.7975419470685482, 1.0: 1.3282468082733068,
              2.0: 2.343150903427683}

# independent cumulative-route ladder; sup sits at alpha = 1
AUX_BOUND = 1.4813


class TestE1:
    def test_value_at_one(self):
        assert e1(1.0) == pytest.approx(E1_AT_1, abs=5e-14)

    def test_value_at_ten(self):
        assert e1(10.0) == pytest.approx(E1_AT_10, rel=1e-11)

    def test_log_singularity_constant(self):
        # e1(x) + ln(x) -> -gamma as x -> 0+
        x = 1e-8
        assert e1(x) + math.log(x) == pytest.approx(-EULER_GAMMA, abs=1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            e1(0.0)
        with pytest.raises(ValueError):
            e1(-2.0)

    @given(st.floats(min_value=-6.0, max_value=math.log10(50.0)))
    @settings(max_examples=60, deadline=None)
    def test_positive_and_decreasing(self, exponent):
        x1 = 10.0 ** exponent
        x2 = x1 * 1.7
        v1, v2 = e1(x1), e1(x2)
        assert v1 > v2 > 0.0


class TestE1Array:
    # the power series below 1, frozen bit for bit from the evaluator that
    # preceded the octave polynomials above 1
    SERIES_POINTS = ["0x1.56e1fc2f8f359p-997", "0x1.19799812dea11p-40",
                     "0x1.0624dd2f1a9fcp-10", "0x1.999999999999ap-4",
                     "0x1.0000000000000p-2", "0x1.0000000000000p-1",
                     "0x1.8000000000000p-1", "0x1.ccccccccccccdp-1",
                     "0x1.ff7ced916872bp-1", "0x1.fffffffffffffp-1"]
    SERIES_VALUES = ["0x1.5919624b963c7p+9", "0x1.b0dc631ac8308p+4",
                     "0x1.9537f0e1934a1p+2", "0x1.d2ab25008192dp+0",
                     "0x1.0b561b52b771bp+0", "0x1.1e9aa50574b82p-1",
                     "0x1.5c824d53ca88cp-2", "0x1.0a6da8996601dp-2",
                     "0x1.c20d6e981b014p-3", "0x1.c14c5d3bf8f94p-3"]

    def test_series_branch_bit_identical(self):
        x = np.array([float.fromhex(h) for h in self.SERIES_POINTS])
        want = np.array([float.fromhex(h) for h in self.SERIES_VALUES])
        assert np.array_equal(e1_array(x), want)
        # the same points inside a call that also reaches the other branches
        mixed = np.concatenate([x, [1.0, 3.5, 63.0, 64.0, 500.0]])
        assert np.array_equal(e1_array(mixed)[:x.size], want)

    def test_empty(self):
        out = e1_array(np.array([]))
        assert out.shape == (0,)

    @pytest.mark.parametrize("x", [0.5, 3.5, 100.0])
    def test_zero_dimensional(self, x):
        out = e1_array(np.float64(x))
        assert out.shape == ()
        assert float(out) == e1_array(np.array([x]))[0]

    def test_one_point_is_bit_identical(self):
        # one point runs the branch in Python floats (numpy's ufuncs cost
        # about a microsecond each on one element); it must give the
        # array path's bits in every branch and at every octave edge
        edges = [2.0 ** k for k in range(7)]
        x = np.concatenate([
            np.geomspace(1e-300, 700.0, 1500),
            edges, [np.nextafter(e, 0.0) for e in edges], [800.0, 1e300]])
        want = e1_array(x)
        got = np.array([e1_array(np.array([v]))[0] for v in x])
        assert np.array_equal(got, want)
        assert [e1(v) for v in x[::50].tolist()] == want[::50].tolist()
        assert e1_array(np.array([[0.5]])).shape == (1, 1)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                e1_array(np.array([bad]))

    def test_nan_rejected(self):
        # NaN fails every branch's test, so it must raise rather than leave
        # its entry of the output unset
        with pytest.raises(ValueError):
            e1_array(np.array([2.0, np.nan]))
        with pytest.raises(ValueError):
            volterra_s_array(np.array([0.5, np.nan]))

    def test_two_dimensional(self):
        # nodes x points blocks, as the off-lattice J evaluator passes them
        x = np.geomspace(1e-3, 200.0, 60).reshape(6, 10)
        out = e1_array(x)
        assert out.shape == (6, 10)
        assert np.array_equal(out.ravel(), e1_array(x.ravel()))
        assert np.array_equal(out[:, ::-1], e1_array(x[:, ::-1]))

    def test_frozen_octave_table(self):
        pytest.importorskip("mpmath")
        import importlib.util
        from pathlib import Path

        from fracalc.special import _E1_OCTAVES

        path = Path(__file__).resolve().parents[1] / "scripts" / "compute_e1_table.py"
        spec = importlib.util.spec_from_file_location("compute_e1_table", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.octave_table() == _E1_OCTAVES


class TestEkAndMoments:
    """The E1 moments int_0^x t^k E1(t) dt = (x^(k+1) E1(x) + gamma(k + 1,
    x))/(k + 1), and the lower incomplete gammas gamma(k + 1, x) = k! (1 -
    e^(-x) e_k(x)), e_k the exponential partial sums, behind them."""

    def test_moment_limit_at_zero(self):
        assert e1_moments(1e-10, 0)[0] == pytest.approx(0.0, abs=1e-8)
        assert np.array_equal(e1_moments(np.zeros(3), 4), np.zeros((5, 3)))

    def test_moment_at_one(self):
        expected = E1_AT_1 - math.exp(-1.0)
        assert e1_moments(1.0, 0)[0] - 1.0 == pytest.approx(expected,
                                                             abs=1e-12)
        assert expected == pytest.approx(-0.1484955, abs=5e-8)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_moment_is_antiderivative(self, n, x):
        h = 1e-5
        fd = (e1_moments(x + h, 2)[n] - e1_moments(x - h, 2)[n]) / (2 * h)
        assert fd == pytest.approx(x ** n * e1(x), abs=1e-6)

    def test_moment_domain(self):
        for k in (-1, 21):
            with pytest.raises(ValueError):
                e1_moments(1.0, k)

    def test_moments_shape(self):
        z = np.geomspace(1e-3, 50.0, 12).reshape(3, 4)
        rows = e1_moments(z, 3)
        assert rows.shape == (4, 3, 4)
        assert np.array_equal(rows.reshape(4, -1), e1_moments(z.ravel(), 3))

    def test_lower_gammas_against_mpmath(self):
        # 1e-300 to 1e300, and dense where the rows switch between the
        # partial-sum and series forms, which depends on k; values that
        # underflow are skipped, and past b = 1e4 gamma(j + 1, b) is j!
        # within e^(-9000)
        mp = pytest.importorskip("mpmath")
        b = np.concatenate([np.geomspace(1e-300, 1e300, 61),
                            np.linspace(0.05, 30.0, 120)])
        with mp.workdps(30):
            ref = [[mp.factorial(j) if x > 1e4
                    else mp.gammainc(j + 1, 0, mp.mpf(x)) for x in b]
                   for j in range(21)]
        for k in (0, 1, 2, 5, 20):
            rows = _lower_gammas(b, k)
            assert rows.shape == (k + 1, b.size)
            for j in range(k + 1):
                for got, want in zip(rows[j], ref[j]):
                    if want > 1e-290:
                        assert abs(got - want) <= 4e-15 * want

    def test_moments_against_mpmath(self):
        # the rows of every j against the gamma identity evaluated in
        # mpmath, and some, independently of it, against quadrature
        mp = pytest.importorskip("mpmath")
        z = np.array([1e-8, 1e-3, 0.5, 5.0, 50.0, 800.0])
        rows = e1_moments(z, 20)
        with mp.workdps(30):
            for zi, col in zip(z, rows.T):
                x = mp.mpf(zi)
                for j in range(21):
                    ref = (x ** (j + 1) * mp.e1(x)
                           + mp.gammainc(j + 1, 0, x)) / (j + 1)
                    assert col[j] == pytest.approx(float(ref), rel=1e-14)
                # t = s u, s = min(z, 1), so the integral is of order 1
                s = min(x, 1)
                cuts = [0] + [c for c in (1, 4, 16, 64, 256) if c < x] + [x]
                for j in (0, 1, 2, 7, 20):
                    ref = s ** (j + 1) * mp.quad(
                        lambda u: u ** j * mp.e1(s * u), [c / s for c in cuts])
                    assert col[j] == pytest.approx(float(ref), rel=1e-14)


class TestLogGamma:
    def test_exact_points(self):
        one, half, five = log_gamma_array(np.array([1.0, 0.5, 5.0]))
        assert one == pytest.approx(0.0, abs=1e-14)
        assert half == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert five == pytest.approx(math.log(24.0), rel=1e-13)

    def test_against_stdlib(self):
        s = np.geomspace(1e-3, 1e4, 200)
        ref = [math.lgamma(float(v)) for v in s]
        assert log_gamma_array(s) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_array_route(self):
        s = np.geomspace(1e-2, 500.0, 64)
        vec = log_gamma_array(s)
        ref = np.array([math.lgamma(float(v)) for v in s])
        assert np.allclose(vec, ref, rtol=1e-13, atol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_array(np.array([1.0, 0.0]))


class TestRegularizedGamma:
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_exponential_case(self, x):
        assert p_regularized(1.0, x) == pytest.approx(1.0 - math.exp(-x),
                                                      abs=1e-12)

    def test_zero(self):
        assert p_regularized(0.5, 0.0) == 0.0
        assert p_regularized(7.0, 0.0) == 0.0

    def test_erf_point(self):
        # gamma(1/2, 1)/Gamma(1/2) = erf(1); series-oracle value
        assert p_regularized(0.5, 1.0) == pytest.approx(0.8427007929497149,
                                                        abs=1e-12)

    def test_against_scipy(self):
        from scipy.special import gammainc
        s = np.geomspace(0.05, 40.0, 24)
        for x in (0.1, 1.0, 5.0, 30.0):
            mine = p_regularized_array(s, x)
            assert np.allclose(mine, gammainc(s, x), atol=5e-13)

    @given(st.floats(min_value=1e-3, max_value=50.0),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, s, x):
        assert 0.0 <= p_regularized(s, x) <= 1.0

    def test_nondecreasing_in_x(self):
        xs = np.linspace(0.0, 10.0, 40)
        vals = [p_regularized(1.7, float(x)) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_derivative_in_x(self, s, x):
        h = 1e-5
        fd = (p_regularized(s, x + h) - p_regularized(s, x - h)) / (2 * h)
        expected = x ** (s - 1.0) * math.exp(-x - math.lgamma(s))
        assert fd == pytest.approx(expected, abs=1e-6)


class TestVolterraKernel:
    def test_frozen_values(self):
        assert volterra_s(1.0) == pytest.approx(S_AT_1, abs=1e-10)
        assert volterra_s(0.5) == pytest.approx(S_AT_HALF, abs=1e-10)
        assert volterra_s(2.0) == pytest.approx(S_AT_2, abs=1e-10)

    def test_positive(self):
        for x in (1e-10, 1e-3, 0.1, 1.0, 10.0, 100.0):
            assert volterra_s(x) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            volterra_s(0.0)
        with pytest.raises(ValueError):
            volterra_s(1e-13)

    def test_saturates_to_one(self):
        assert volterra_s(50.0) == 1.0
        assert volterra_s(39.0) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def unfolded(x):
        """S by the plain trapezoid sum, one per point: nodes v_j = -40 +
        0.2 j up to the first past ln(50/x), weights 0.2 e^v/(v^2 + pi^2),
        every exp(-x e^v) taken; 1 from x = 40 on."""
        out = np.ones_like(x)
        for i, xi in enumerate(x):
            if xi < 40.0:
                v = -40.0 + 0.2 * np.arange(int((math.log(50.0 / xi) + 40.0)
                                                / 0.2) + 2)
                terms = 0.2 * np.exp(v) / (v * v + math.pi ** 2)
                out[i] = 1.0 + math.exp(-xi) * np.sum(terms * np.exp(-xi * np.exp(v)))
        return out

    def test_fold_against_unfolded_sum(self):
        # log-spaced points, and the points where x e^(v_j) = 1/2: the fold
        # threshold of every node that can hold it, the bucket edges
        # among them, and a neighbour to either side
        v = -40.0 + 0.2 * np.arange(400)
        edge = 0.5 * np.exp(-v)
        edge = edge[(edge >= 1e-12) & (edge < 40.0)]
        x = np.concatenate([np.geomspace(1e-12, 40.0, 401)[:-1], edge,
                            np.nextafter(edge, 0.0), np.nextafter(edge, 40.0)])
        ref = self.unfolded(x)
        assert np.max(np.abs(volterra_s_array(x) / ref - 1.0)) < 2e-15

    def test_fold_batches(self):
        # a point's value agrees whatever its batch, and every shape
        # passes through
        x = np.array([50.0, 1e-12, 40.0, 39.999, 0.3, 1e300, 2.5e-7])
        one = np.array([volterra_s_array(np.array([xi]))[0] for xi in x])
        assert np.max(np.abs(volterra_s_array(x) / self.unfolded(x) - 1.0)) < 2e-15
        assert np.max(np.abs(one / self.unfolded(x) - 1.0)) < 2e-15
        assert volterra_s_array(np.float64(0.3)).shape == ()
        assert float(volterra_s_array(np.float64(0.3))) == pytest.approx(
            one[4], rel=2e-15, abs=0.0)
        grid = volterra_s_array(x[:6].reshape(2, 3))
        assert grid.shape == (2, 3)
        assert np.allclose(grid.ravel(), one[:6], rtol=2e-15, atol=0.0)
        assert volterra_s_array(np.array([])).shape == (0,)
        assert volterra_s_array(np.empty((0, 3))).shape == (0, 3)
        assert np.array_equal(volterra_s_array(np.array([40.0, 41.5, 1e300])),
                              np.ones(3))


class TestCumulative:
    def test_zero(self):
        assert s_cumulative(0.0) == 0.0

    def test_strictly_increasing(self):
        pts = [0.5, 1.0, 2.0, 5.0]
        vals = [s_cumulative(x) for x in pts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cross_route_against_segment_oracle(self):
        # the smooth route must reproduce the frozen graded-Simpson
        # segments; the mass below the cut is differenced away
        base = s_cumulative(SEG_BELOW)
        for X, seg in SEG_FROZEN.items():
            assert s_cumulative(X) - base == pytest.approx(seg, abs=1e-8)

    def test_aux_ladder_bounded(self):
        for alpha in (1.0, 0.5, 0.1, 0.02, 0.005):
            assert alpha * s_cumulative(1.0 / alpha) <= AUX_BOUND

    def test_asymptotic_shift(self):
        # Q(X) - X -> 1/2 (the integrable excess of the kernel over 1)
        assert s_cumulative(30.0) - 30.0 == pytest.approx(0.5, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            s_cumulative(-1.0)

    def test_first_moment_small(self):
        b = s_first_moment(1e-3)
        assert 0.0 < b < 1e-3 * s_cumulative(1e-3)

    def test_first_moment_against_scipy(self):
        # int_0^d t S(t) dt = int_0^inf s P(s+1, d) ds
        integrate = pytest.importorskip("scipy.integrate")
        gammainc = pytest.importorskip("scipy.special").gammainc
        d = 1e-3
        ref, _ = integrate.quad(lambda s: s * gammainc(s + 1.0, d), 0.0,
                                np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert s_moments(0.0, d, 1)[1] == pytest.approx(ref, rel=1e-13,
                                                        abs=0.0)
        assert s_first_moment(d) == s_moments(0.0, d, 1)[1]

    def test_second_moment_against_scipy(self):
        # int_0^d t^2 S(t) dt = int_0^inf s (s+1) P(s+2, d) ds
        integrate = pytest.importorskip("scipy.integrate")
        gammainc = pytest.importorskip("scipy.special").gammainc
        for d in (1e-6, 1e-3, 0.5):
            ref, _ = integrate.quad(
                lambda s: s * (s + 1.0) * gammainc(s + 2.0, d), 0.0, np.inf,
                epsabs=0.0, epsrel=1e-13, limit=200)
            assert s_moments(0.0, d, 2)[2] == pytest.approx(ref, rel=1e-12,
                                                            abs=0.0)

    def test_head_moments_rows(self):
        # a head's rows do not depend on k, on the other cells of the call,
        # or on repeats; the wrappers read rows 0 and 1
        delta = np.array([1e-3, 0.25, 1e-3])
        q, m1, m2 = s_moments(0.0, delta, 2)
        assert np.array_equal(q, [s_cumulative(d) for d in delta])
        assert np.array_equal(m1, [s_first_moment(d) for d in delta])
        assert np.array_equal(m2, [s_moments(0.0, d, 2)[2] for d in delta])
        assert np.array_equal(s_moments(0.0, delta, 1), [q, m1])
        assert np.all(m2 < delta * m1)
        assert s_moments(0.0, 0.0, 2).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            s_moments(0.0, 0.5, 3)
        with pytest.raises(ValueError):
            s_moments(-0.5, 0.5, 1)

    def test_weighted_batch_head_is_exact_on_quadratics(self):
        from fracalc.quadrature import Singularity
        delta = np.array([1e-6, 1e-3, 0.25])
        c = np.array([1.0, -2.0, 3.0])
        r = s_weighted_batch(lambda z, i: c[0] + c[1] * z + c[2] * z * z,
                             delta, delta, Singularity.LOG_LEFT)
        q, m1, m2 = s_moments(0.0, delta, 2)
        assert np.allclose(r.value, c[0] * q + c[1] * m1 + c[2] * m2,
                           rtol=1e-14, atol=0.0)
        # head only: no panels, converged, and the chord's change as the
        # estimate (its curvature, read off the samples, cancels at 1e-6)
        assert np.all(r.panels_used == 0) and np.all(r.converged)
        assert np.allclose(r.err_estimate, c[2] * (delta * m1 - m2),
                           rtol=1e-3, atol=0.0)

    def test_weighted_batch_split_does_not_move_q(self):
        from fracalc.quadrature import Singularity
        delta = np.array([1e-6, 1e-3, 0.1])
        r = s_weighted_batch(lambda z, i: np.ones_like(z), delta, 0.5,
                             Singularity.LOG_LEFT)
        assert np.all(r.converged) and np.all(r.panels_used > 0)
        assert np.max(np.abs(r.value - s_cumulative(0.5))) < 1e-12

    def test_weighted_batch_heads_below_delta_squared(self):
        # delta^2 underflows below delta = 1.5e-154: phi is its value at 0
        # there, and the quadratic's largest change bounds the error
        from fracalc.quadrature import Singularity
        delta = np.array([1e-300, 5e-324])
        r = s_weighted_batch(lambda z, i: 2.0 + np.sin(z), delta, delta,
                             Singularity.LOG_LEFT)
        q = [s_cumulative(d) for d in delta]
        assert np.array_equal(r.value, 2.0 * np.array(q))
        assert np.all(np.isfinite(r.err_estimate))
        assert np.all(r.err_estimate <= 2.0 * delta * np.array(q))

    def test_weighted_batch_raises_where_not_finite(self):
        from fracalc.quadrature import Singularity
        with pytest.raises(ValueError, match="not finite"):
            s_weighted_batch(lambda z, i: np.where(z > 0.0, 1.0, np.inf),
                             np.array([1e-3]), 0.5, Singularity.LOG_LEFT)


class TestIndependentSpotChecks:
    """The S family and E1 against mpmath/scipy evaluations of their
    definitions, sharing no algorithm with the evaluators."""

    @pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5,
                                   1.7, 3.0, 8.0, 20.0, 35.0, 39.0])
    def test_s_against_mpmath(self, x):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            lnx = mp.log(mp.mpf(x))
            body = mp.quad(lambda s: mp.exp((s - 1) * lnx) * mp.rgamma(s),
                           [0, 0.01, 0.1, 1, 10, 100, mp.inf])
            ref = float(mp.exp(-mp.mpf(x)) * body)
        assert volterra_s(x) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("X", [1e-6, 1e-3, 1.0, 10.0])
    def test_q_against_scipy(self, X):
        # Q(X) = int_0^inf P(s, X) ds
        integrate = pytest.importorskip("scipy.integrate")
        gammainc = pytest.importorskip("scipy.special").gammainc
        ref, _ = integrate.quad(lambda s: gammainc(s, X), 0.0, np.inf,
                                epsabs=0.0, epsrel=1e-13, limit=200)
        assert s_cumulative(X) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_cell_moments_against_scipy(self):
        # m0, m1 as differences of Q(z) and M1(z) = int_0^inf s P(s+1, z) ds
        integrate = pytest.importorskip("scipy.integrate")
        gammainc = pytest.importorskip("scipy.special").gammainc
        dz, n = 0.25, 12
        z = dz * np.arange(n + 1)
        top = z[-1] + 12.0 * math.sqrt(z[-1] + 4.0) + 30.0
        q, _ = integrate.quad_vec(lambda s: gammainc(s, z), 0.0, top,
                                  epsabs=1e-15, epsrel=1e-14, limit=4000)
        b, _ = integrate.quad_vec(lambda s: s * gammainc(s + 1.0, z), 0.0, top,
                                  epsabs=1e-15, epsrel=1e-14, limit=4000)
        m0, m1 = s_moments(dz * np.arange(n), dz, 1)
        assert np.allclose(m0, np.diff(q), rtol=1e-12, atol=0.0)
        assert np.allclose(m1, np.diff(b), rtol=1e-12, atol=0.0)

    def test_s_moments_against_scipy(self):
        # m0, m1, m2 of cells of different widths in one call: a head, a
        # 1e-15 sliver, interior cells, one across 40 and one past it, as
        # differences of M_j(z) = int_0^z t^j S(t) dt = int_0^inf
        # s (s+1)...(s+j-1) P(s+j, z) ds; the sliver, where that
        # difference cancels, against its midpoint rule w mid^j S(mid),
        # S(mid) = e^(-mid) int_0^inf mid^(s-1)/Gamma(s) ds
        integrate = pytest.importorskip("scipy.integrate")
        sp = pytest.importorskip("scipy.special")
        lo = np.array([0.0, 0.3, 0.3, 1.1, 2.5, 7.0, 39.5, 41.0])
        width = np.array([0.3, 1e-15, 0.8, 0.05, 4.5, 0.125, 1.0, 2.0])
        z = np.concatenate([lo, lo + width])
        top = z.max() + 12.0 * math.sqrt(z.max() + 4.0) + 30.0
        rising = (lambda s: 1.0, lambda s: s, lambda s: s * (s + 1.0))
        got = s_moments(lo, width, 2)
        for j, pre in enumerate(rising):
            cum, _ = integrate.quad_vec(
                lambda s: pre(s) * sp.gammainc(s + j, z) if s + j > 0.0
                else np.zeros_like(z), 0.0, top, epsabs=1e-15, epsrel=1e-14,
                limit=4000)
            ref = cum[lo.size:] - cum[:lo.size]
            cells = width > 1e-12
            assert np.allclose(got[j][cells], ref[cells], rtol=1e-12,
                               atol=0.0)
        mid = 0.3 + 0.5e-15
        s_mid = math.exp(-mid) * integrate.quad(
            lambda s: mid ** (s - 1.0) * sp.rgamma(s), 0.0, np.inf,
            epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for j in range(3):
            assert got[j][1] == pytest.approx(1e-15 * mid ** j * s_mid,
                                              rel=1e-12, abs=0.0)
        # past 40 S is 1: the polynomial part, exactly
        assert got[:2, -1].tolist() == [2.0, 84.0]
        assert got[2, -1] == pytest.approx((43.0 ** 3 - 41.0 ** 3) / 3.0,
                                           rel=1e-15, abs=0.0)

    def test_e1_array_against_scipy(self):
        exp1 = pytest.importorskip("scipy.special").exp1
        # ranges from below 1, from each octave edge of the polynomial
        # branch and its predecessor, and across the switch to the
        # continued fraction at 64; the last one spans several gathers
        edges = [2.0 ** k for k in range(7)]
        starts = [1e-300, 0.999] + edges + [np.nextafter(e, 0.0) for e in edges]
        ranges = [np.geomspace(lo, 700.0, 3000) for lo in starts]
        for x in ranges + [np.linspace(1.0, 64.0, 7000)]:
            got, ref = e1_array(x), exp1(x)
            above = x >= 1.0
            assert np.allclose(got[above], ref[above], rtol=2e-15, atol=0.0)
            assert np.allclose(got[~above], ref[~above], rtol=1e-14, atol=0.0)
        for x in (0.6, 0.9, 0.99, 2.0, 5.0):
            assert e1(x) == pytest.approx(exp1(x), rel=1e-14, abs=0.0)


class TestKernelIdentities:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_convolution_is_one(self, x):
        assert e1_s_convolution(x) == pytest.approx(1.0, abs=1e-6)

    def test_laplace_identities(self):
        from fracalc.quadrature import Singularity, laplace
        lams = np.array([0.5, 1.0, 2.0, math.e - 1.0])
        # S against exp(-lam z) up to 40, where S saturates at 1, plus
        # the closed tail exp(-40 lam)/lam
        s_hat = s_weighted_batch(lambda z, i: np.exp(-lams[i] * z), 1e-6,
                                 40.0 * np.ones(lams.size),
                                 Singularity.LOG_LEFT).value
        s_hat += np.exp(-40.0 * lams) / lams
        for lam, s_lam in zip(lams, s_hat):
            e1_hat = laplace(lambda t: e1_array(np.maximum(t, 1e-300)), lam,
                             Singularity.LOG_LEFT).value
            assert e1_hat == pytest.approx(math.log1p(lam) / lam, abs=1e-6)
            assert s_lam == pytest.approx(1.0 / math.log1p(lam), abs=1e-6)
        assert s_hat[-1] == pytest.approx(1.0, abs=1e-6)


class TestConstants:
    def test_zeta2_construction(self):
        assert ZETA2 == math.pi ** 2 / 6.0

    def test_euler_gamma_window(self):
        assert 0.577 < EULER_GAMMA < 0.578


class TestAccuracy:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Accuracy(abs_tol=0.0)
        with pytest.raises(ValueError):
            Accuracy(rel_tol=-1.0)
        with pytest.raises(ValueError):
            Accuracy(max_work=7)

    def test_tolerance_combines(self):
        a = Accuracy(1e-10, 1e-6)
        assert a.tolerance(1.0) == 1e-6
        assert a.tolerance(0.0) == 1e-10
