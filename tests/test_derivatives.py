"""Derivative routes, inversion/correction identities, and the
integration-by-parts rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracalc.derivatives import (
    AcFunction,
    check_inversion_ds,
    d_frac_ac,
    d_frac_at,
    d_frac_numeric,
    katr_residual,
    parts_fractional,
)
from fracalc.funcspec import (
    Const,
    Cos,
    Exp,
    Grid,
    GridFunction,
    Interval,
    Poly,
    PowShiftLeft,
    PowShiftRight,
    Sin,
    catalog_derivative,
    eval_spec_array,
    sample_spec,
)
from fracalc.operators import OperatorParams, Side, apply_j, j_closed_constant
from fracalc.special import e1_array

UNIT = Interval(0.0, 1.0)


def left(alpha):
    return OperatorParams(Side.LEFT, alpha, UNIT)


def right(alpha):
    return OperatorParams(Side.RIGHT, alpha, UNIT)


class TestAcRepresentation:
    def test_constant_kernel_term(self):
        p = left(0.4)
        ac = AcFunction.from_catalog(Const(2.0), UNIT)
        rep = d_frac_ac(ac, p, 16)
        xs = rep.outputs.nodes()
        expect = 2.0 * e1_array(xs / 0.4) / 0.4
        assert np.max(np.abs(rep.outputs.values - expect)) < 1e-9

    def test_powshift_reduces_to_constant_closed_form(self):
        # f(x) = x - a has f(a) = 0 and f' = 1
        p = left(0.4)
        ac = AcFunction.from_catalog(PowShiftLeft(1), UNIT)
        assert ac.boundary_value == 0.0
        rep = d_frac_ac(ac, p, 16)
        ref = [j_closed_constant(1.0, p, float(x))
               for x in rep.outputs.nodes()]
        assert np.max(np.abs(rep.outputs.values - ref)) < 1e-8

    def test_right_side_sign(self):
        p = right(0.5)
        ac = AcFunction.from_catalog(Const(1.0), UNIT, Side.RIGHT)
        rep = d_frac_ac(ac, p, 16)
        xs = rep.outputs.nodes()
        expect = -e1_array((1.0 - xs) / 0.5) / 0.5
        assert np.max(np.abs(rep.outputs.values - expect)) < 1e-9

    def test_ac_and_numeric_routes_agree(self):
        # zero boundary value: both derivative routes must coincide
        p = left(0.4)
        f = Poly((0.0, 1.0, 1.0))  # x + x^2, vanishes at the anchor
        ac = AcFunction.from_catalog(f, UNIT)
        assert ac.boundary_value == 0.0
        g = sample_spec(f, UNIT, 1024)
        dnum = d_frac_numeric(g, p, 1023).outputs
        nodes = dnum.nodes()
        # the comparison is an interior-point one: the AC output is read
        # off its own grid by linear interpolation
        keep = (nodes >= 0.1) & (nodes <= 0.9)
        rep = d_frac_ac(ac, p, 62)
        ac_on = rep.outputs(nodes[keep])
        assert np.max(np.abs(ac_on - dnum.values[keep])) < 1e-3

    def test_convergence_to_classical_derivative(self):
        # zero boundary value: L1 distance of the fractional derivative
        # from the classical one shrinks with ratio <= 0.9
        n = 1024
        spacing = 1.0 / n
        target = sample_spec(Sin(1.0), UNIT, n)
        norms = []
        for alpha in (0.2, 0.1, 0.05):
            rep = apply_j(Grid(target), left(alpha), n)
            norms.append(float(np.trapezoid(
                np.abs(rep.outputs.values - target.values), dx=spacing)))
        assert norms[1] / norms[0] <= 0.9
        assert norms[2] / norms[1] <= 0.9


    def test_tiny_alpha_gives_the_classical_derivative(self):
        # D runs through J's adaptive batch, which returned 0 at alpha
        # 1e-16 where D sin -> cos
        ac = AcFunction.from_catalog(Sin(1.0), UNIT, Side.LEFT)
        rep = d_frac_ac(ac, left(1e-16), 4)
        assert np.all(rep.per_point_converged)
        assert np.max(np.abs(rep.outputs.values
                             - np.cos(rep.outputs.nodes()))) < 1e-9


_COEFF = st.floats(-10.0, 10.0)
_FREQ = st.floats(0.1, 20.0)

# one strategy per catalog family with a derivative
_AC_SPECS = st.one_of(
    st.builds(Const, _COEFF),
    st.builds(lambda c: Poly(tuple(c)), st.lists(_COEFF, min_size=1,
                                                 max_size=5)),
    st.builds(PowShiftLeft, st.integers(0, 6)),
    st.builds(PowShiftRight, st.integers(0, 6)),
    st.builds(Sin, _FREQ, _COEFF),
    st.builds(Cos, _FREQ, _COEFF),
    st.builds(Exp, st.floats(-5.0, 5.0), _COEFF),
)


class TestCatalogDerivativeProperty:
    """What apply_d takes from a catalog input, its catalog derivative and
    its value at the side's anchor, for every family with random
    parameters, intervals and sides."""

    @given(f=_AC_SPECS, a=st.floats(-2.0, 2.0), width=st.floats(0.1, 3.0),
           side=st.sampled_from(Side))
    @settings(max_examples=300, deadline=None)
    def test_derivative_and_anchor_value(self, f, a, width, side):
        iv = Interval(a, a + width)
        p = OperatorParams(side, 1.0, iv)
        d = catalog_derivative(f, iv)

        def ev(spec, x):
            return eval_spec_array(spec, x, iv)

        # central differences at interior points; the bound covers the
        # rounding of f's values over 2h and the O(h^2) truncation
        xs = iv.a + width * np.linspace(0.15, 0.85, 5)
        h = 1e-6 * width
        fd = (ev(f, xs + h) - ev(f, xs - h)) / (2.0 * h)
        dv = ev(d, xs)
        scale = 1.0 + np.max(np.abs(dv)) + np.max(np.abs(ev(f, xs))) / width
        assert np.max(np.abs(fd - dv)) <= 1e-6 * scale
        # the anchor is the side's end, and f there with the derivative
        # gives f at the other end: f(far) = f(anchor) +/- int f'
        anchor, far = (iv.a, iv.b) if side == Side.LEFT else (iv.b, iv.a)
        assert p.anchor == anchor
        f_anchor, f_far = float(ev(f, anchor)), float(ev(f, far))
        t, w = np.polynomial.legendre.leggauss(64)
        d_nodes = ev(d, iv.a + 0.5 * width * (t + 1.0))
        integral = 0.5 * width * np.sum(w * d_nodes)
        recovered = f_anchor + (integral if side == Side.LEFT else -integral)
        assert abs(recovered - f_far) <= 1e-9 * (
            1.0 + abs(f_far) + abs(f_anchor) + width * np.max(np.abs(d_nodes)))
        # the public AC representation holds the same two
        assert AcFunction.from_catalog(f, iv, side) == AcFunction(f, d,
                                                                  f_anchor)


class TestNumericRoute:
    def test_matches_kernel_term_for_constant(self):
        p = left(0.4)
        g = sample_spec(Const(1.0), UNIT, 512)
        dnum = d_frac_numeric(g, p, 511).outputs
        nodes = dnum.nodes()
        keep = (nodes >= 0.1) & (nodes <= 0.9)
        expect = e1_array(nodes[keep] / 0.4) / 0.4
        assert np.max(np.abs(dnum.values[keep] - expect)) < 1e-4

    def test_zero_input(self):
        g = sample_spec(Const(0.0), UNIT, 64)
        dnum = d_frac_numeric(g, left(0.7), 63).outputs
        assert np.max(np.abs(dnum.values)) == 0.0

    @pytest.mark.parametrize("p", [left(0.3), right(0.7)],
                             ids=["left", "right"])
    def test_is_d_frac_at_on_interior_nodes(self, p, rng):
        # the lattice engine's hat weights and the off-lattice blocks' slope
        # form sum the same terms regrouped (observed under 1e-15 at
        # n = 1024); from alpha ~ 7 on the off-lattice blocks drift from
        # the lattice by ~1e-12, so no larger alpha is held to this bound
        for n, alpha in ((128, p.alpha), (1024, 0.01), (1024, 1.0)):
            q = OperatorParams(p.side, alpha, UNIT)
            g = GridFunction(UNIT, rng.standard_normal(n + 1))
            dnum = d_frac_numeric(g, q, n - 1).outputs
            dat = d_frac_at(g, q, dnum.nodes())
            assert np.max(np.abs(dnum.values - dat)) <= 1e-13 * np.max(
                np.abs(dat))

    @pytest.mark.parametrize("p", [left(0.3), right(0.7)],
                             ids=["left", "right"])
    @pytest.mark.parametrize("n_out", [31, 20], ids=["sub-lattice", "off"])
    def test_output_nodes_are_those_of_d_frac_ac(self, p, n_out, rng):
        # every 4th lattice value at n_out = 31; off the lattice at 20
        g = GridFunction(UNIT, rng.standard_normal(129))
        rep = d_frac_numeric(g, p, n_out)
        ac = d_frac_ac(AcFunction.from_catalog(Const(1.0), UNIT, p.side),
                       p, n_out)
        assert rep.outputs.interval == ac.outputs.interval
        assert rep.outputs.n == n_out and np.all(rep.per_point_converged)
        dat = d_frac_at(g, p, rep.outputs.nodes())
        assert np.max(np.abs(rep.outputs.values - dat)) <= 1e-13 * np.max(
            np.abs(dat))

    def test_recovers_integrand_of_second_kind(self):
        rep = check_inversion_ds(Sin(1.0), left(0.5))
        assert rep.residual < 1e-3


def carrier_d_reference(g, p, xs):
    """D of the carrier of g by its closed form, cell by cell with scipy's
    exp1: +/- g(anchor) E1(r)/alpha plus J of the cell slopes, whose cell
    moments are differences of int_0^z E1 = z E1(z) - expm1(-z)."""
    from scipy.special import exp1

    def c0(z):
        ze = np.where(z > 0, z * exp1(np.maximum(z, 1e-300)), 0.0)
        return ze - np.expm1(-z)

    t, v = g.nodes(), g.values
    s = np.diff(v) / g.spacing
    a, b = p.interval.a, p.interval.b
    ref = np.empty_like(xs)
    for i, x in enumerate(xs):
        if p.side == Side.LEFT:
            lo = np.clip(t[:-1], a, x)
            hi = np.clip(t[1:], a, x)
            moments = c0((x - lo) / p.alpha) - c0((x - hi) / p.alpha)
            ref[i] = (np.interp(a, t, v) * exp1((x - a) / p.alpha) / p.alpha
                      + np.sum(s * moments))
        else:
            lo = np.clip(t[:-1], x, b)
            hi = np.clip(t[1:], x, b)
            moments = c0((hi - x) / p.alpha) - c0((lo - x) / p.alpha)
            ref[i] = (-np.interp(b, t, v) * exp1((b - x) / p.alpha) / p.alpha
                      + np.sum(s * moments))
    return ref


class TestExactCarrierDerivative:
    @pytest.mark.parametrize("p", [left(0.3), right(0.7)],
                             ids=["left", "right"])
    def test_lattice_against_scipy(self, p, rng):
        g = GridFunction(UNIT, rng.standard_normal(97))
        dnum = d_frac_numeric(g, p, 95).outputs
        ref = carrier_d_reference(g, p, dnum.nodes())
        assert np.max(np.abs(dnum.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT],
                             ids=["left", "right"])
    def test_off_lattice_against_scipy(self, side, rng):
        iv = Interval(2.0, 3.5)
        p = OperatorParams(side, 0.4, iv)
        g = GridFunction(iv, rng.standard_normal(65))
        xs = np.concatenate([rng.uniform(iv.a, iv.b, 30),
                             g.nodes()[1:-1:8]])
        dat = d_frac_at(g, p, xs)
        ref = carrier_d_reference(g, p, xs)
        assert np.max(np.abs(dat - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT],
                             ids=["left", "right"])
    def test_grid_wider_than_interval(self, side):
        # the anchor's term takes the carrier's value at the anchor,
        # not the grid's first or last value
        g = sample_spec(Sin(3.0), UNIT, 64)
        iv = Interval(0.3, 0.8)
        p = OperatorParams(side, 0.5, iv)
        xs = np.linspace(iv.a, iv.b, 13)[1:-1]
        dat = d_frac_at(g, p, xs)
        ref = carrier_d_reference(g, p, xs)
        assert np.max(np.abs(dat - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the same via d_frac_numeric, whose output nodes lie in iv
        dnum = d_frac_numeric(g, p, 12).outputs
        assert iv.a <= dnum.interval.a and dnum.interval.b <= iv.b
        ref = carrier_d_reference(g, p, dnum.nodes())
        assert np.max(np.abs(dnum.values - ref)) <= 1e-12 * np.max(
            np.abs(ref))

    def test_zero_at_and_beyond_the_anchor(self):
        # 0 where the reduced coordinate is not positive, as for J
        g = sample_spec(Const(1.0), UNIT, 16)
        assert np.all(d_frac_at(g, left(0.5), [0.0]) == 0.0)
        assert np.all(d_frac_at(g, right(0.5), [1.0]) == 0.0)

    def test_grid_not_covering_interval_rejected(self):
        g = sample_spec(Sin(1.0), Interval(0.0, 0.5), 16)
        with pytest.raises(ValueError, match="does not cover"):
            d_frac_at(g, left(0.5), [0.25])


class TestInversion:
    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    @pytest.mark.parametrize("name,phi", [
        ("const", Const(1.0)),
        ("sin", Sin(2.0)),
        ("poly", Poly((1.0, 0.0, 1.0))),
    ])
    def test_left_recovers_phi(self, alpha, name, phi):
        rep = check_inversion_ds(phi, left(alpha))
        assert rep.passed, f"{name}: residual {rep.residual}"

    def test_right_recovers_minus_phi(self):
        rep = check_inversion_ds(Sin(2.0), right(0.5))
        assert rep.residual < 1e-3

    def test_zero_input_noise_floor(self):
        rep = check_inversion_ds(Const(0.0), left(0.5))
        assert rep.residual < 1e-9


class TestCorrectionIdentity:
    def test_constant_left(self):
        rep = katr_residual(Const(1.0), left(0.5))
        assert rep.passed

    def test_constant_right(self):
        rep = katr_residual(Const(1.5), right(0.5))
        assert rep.passed

    def test_zero_function(self):
        rep = katr_residual(Const(0.0), left(0.3))
        assert rep.residual < 1e-9

    def test_affine_poly(self):
        rep = katr_residual(Poly((1.0, 1.0)), left(0.4))
        assert rep.residual < 1e-3

    def test_shared_convolution(self, monkeypatch):
        # calls sharing a memo compute the E1*S reference once per
        # operator, with the residuals of separate calls bit for bit
        import fracalc.derivatives as derivatives

        specs = (Const(1.0), Poly((1.0, 1.0)))
        alone = [katr_residual(f, q).residual
                 for q in (left(0.4), right(0.4)) for f in specs]
        calls = []
        convolution = derivatives.e1_s_convolution_array
        monkeypatch.setattr(derivatives, "e1_s_convolution_array",
                            lambda *a: calls.append(a) or convolution(*a))
        memo = {}
        shared = [katr_residual(f, q, conv_memo=memo).residual
                  for q in (left(0.4), right(0.4)) for f in specs]
        assert shared == alone
        assert len(calls) == 2

    def test_rejects_unbounded(self):
        from fracalc.funcspec import E1KernelLeft
        with pytest.raises(ValueError):
            katr_residual(E1KernelLeft(), left(0.5))


class TestPartsRule:
    def test_constants(self):
        lhs, rhs = parts_fractional(Const(1.0), Const(1.0), left(0.3))
        assert abs(lhs - rhs) / abs(lhs) < 1e-5

    def test_zero_rhs_argument(self):
        lhs, rhs = parts_fractional(Const(1.0), Const(0.0), left(0.3))
        assert abs(lhs) < 1e-12
        assert abs(rhs) < 1e-12

    def test_sine_times_identity(self):
        lhs, rhs = parts_fractional(Sin(1.0), Poly((0.0, 1.0)), left(0.3))
        assert abs(lhs - rhs) / abs(lhs) < 1e-4
