"""Fractional derivatives: d/dx of the first-kind integral, and the
identities that tie them to the integral operators.

The derivative itself is the third operator of the operators module,
apply_d / apply_d_at, beside J and S and through the same body.  The
functions here keep their names as thin wrappers over it:

  * d_frac_ac      — apply_d of an absolutely continuous catalog input
                     (an AcFunction: a spec, its catalog derivative and
                     its value at the anchor);
  * d_frac_numeric — apply_d of a grid input, taken as its
                     piecewise-linear carrier;
  * d_frac_at      — the carrier's derivative at arbitrary points.

No derivative is a difference quotient; verify keeps one, of J itself, as
the independent check.  The module also packages the inversion and
correction identities as runnable residual checks (sup-norm over interior
points), each returned as a ResidualReport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcspec import (
    FunctionSpec,
    Grid,
    GridFunction,
    Interval,
    catalog_derivative,
    eval_spec_array,
    sample_spec,
    singular_endpoint,
)
from .operators import (
    OperatorParams,
    OperatorReport,
    Side,
    _d_weights,
    _lattice_apply,
    apply_d,
    apply_d_at,
    apply_j,
    apply_s,
)
from .special import e1_s_convolution_array

# The checks' fixed settings: the check points, lattice intervals and pass
# tolerance of the two residual checks, and parts_fractional's lattice
# intervals (even, for Simpson's weights).
_INVERSION_POINTS, _INVERSION_N, _INVERSION_TOL = 25, 8192, 1e-3
_KATR_POINTS, _KATR_N, _KATR_TOL = 21, 2048, 1e-3
_PARTS_N = 4096


@dataclass(frozen=True)
class AcFunction:
    """An absolutely continuous function: value at the anchor endpoint
    plus its integrable derivative, both as catalog specs."""

    spec: FunctionSpec
    derivative_spec: FunctionSpec
    boundary_value: float

    @classmethod
    def from_catalog(cls, f: FunctionSpec, interval: Interval,
                     side: Side = Side.LEFT) -> "AcFunction":
        d = catalog_derivative(f, interval)
        anchor = interval.a if side == Side.LEFT else interval.b
        return cls(f, d, float(eval_spec_array(f, anchor, interval)))


@dataclass
class ResidualReport:
    check: str
    side: Side
    alpha: float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def d_frac_ac(f: AcFunction, p: OperatorParams, n_out: int) -> OperatorReport:
    """apply_d of f.spec, which takes f' and f(anchor) from the spec."""
    return apply_d(f.spec, p, n_out)


def d_frac_numeric(g: GridFunction, p: OperatorParams,
                   n_out: int) -> OperatorReport:
    """apply_d of the carrier of g, at the nodes d_frac_ac uses."""
    return apply_d(Grid(g), p, n_out)


def d_frac_at(g: GridFunction, p: OperatorParams,
              xs: np.ndarray) -> np.ndarray:
    """Derivative of the carrier of g at arbitrary points (apply_d_at's
    values); the grid must cover the operator interval."""
    return apply_d_at(Grid(g), p, xs)[0]


def check_inversion_ds(phi: FunctionSpec, p: OperatorParams) -> ResidualReport:
    """Residual of the right-inverse identity: the derivative of the
    second-kind integral recovers phi on the left side and -phi on the
    right side.  Fully numeric pipeline: phi sampled, S through the exact
    lattice route, then the carrier's derivative on the same lattice, at
    the nodes nearest _INVERSION_POINTS evenly spaced points.
    The lattice must be fine: the piecewise-linear carrier misses the
    kernel's logarithmic curvature in the first cells and that deficit is
    what limits the differentiated composition.
    """
    if not isinstance(phi, Grid):
        phi = Grid(sample_spec(phi, p.interval, _INVERSION_N, p.alpha))
    s_phi = apply_s(phi, p, phi.fn.n).outputs
    margin = 0.0205 * p.interval.width
    xs = np.linspace(p.interval.a + margin, p.interval.b - margin,
                     _INVERSION_POINTS)
    idx = np.rint((xs - p.interval.a) / s_phi.spacing).astype(int)
    dvals = _lattice_apply(s_phi, p, _d_weights, p.sign / p.alpha)[idx]
    target = phi.fn(s_phi.nodes()[idx])
    if p.side == Side.RIGHT:
        target = -target
    residual = float(np.max(np.abs(dvals - target)))
    return ResidualReport("inversion_ds", p.side, p.alpha, residual,
                          _INVERSION_TOL)


def katr_residual(f: FunctionSpec, p: OperatorParams,
                  conv_memo: dict | None = None) -> ResidualReport:
    """Residual of the correction identity for S applied to the
    fractional derivative:

        left:  S(D f) = f - (J f)(a) * S_kernel((x-a)/alpha)
        right: S(D f) = -f + (J f)(b) * S_kernel((b-x)/alpha)

    For bounded catalog f the correction coefficient (J f at the anchor)
    is 0, so the residual reduces to |S(D f) -/+ f|.  The derivative is
    split through its absolutely continuous representation: the boundary
    kernel term contributes boundary * (E1*S)(reduced) — evaluated by
    convolution quadrature, not assumed to be 1 — while the J(f') part
    runs through the grid pipeline.  That convolution depends on p only:
    calls that share a conv_memo dict compute it once per p.
    """
    if singular_endpoint(f) is not None:
        raise ValueError("correction-identity check needs a bounded input")
    ac = AcFunction.from_catalog(f, p.interval, p.side)
    # S(J f') through the pipeline (derivative sampled onto the lattice)
    jd = apply_j(Grid(sample_spec(ac.derivative_spec, p.interval, _KATR_N,
                                  p.alpha)), p, _KATR_N)
    sjd = apply_s(Grid(jd.outputs), p, _KATR_N)
    lo = p.interval.a + 0.05 * p.interval.width
    hi = p.interval.b - 0.05 * p.interval.width
    xs = np.linspace(lo, hi, _KATR_POINTS)
    pipeline = sjd.outputs(xs)
    if ac.boundary_value != 0.0:
        # the boundary kernel term of the derivative turns into the
        # E1*S convolution under S; sign follows the derivative's
        conv = None if conv_memo is None else conv_memo.get(p)
        if conv is None:
            conv = e1_s_convolution_array(p.reduced(xs), p.acc)
            if conv_memo is not None:
                conv_memo[p] = conv
        pipeline = pipeline + p.sign * ac.boundary_value * conv
    target = eval_spec_array(f, xs, p.interval, p.alpha)
    if p.side == Side.RIGHT:
        target = -target
    residual = float(np.max(np.abs(pipeline - target)))
    return ResidualReport("katr_correction", p.side, p.alpha, residual,
                          _KATR_TOL)


def parts_fractional(phi_f: FunctionSpec, phi_g: FunctionSpec,
                     p: OperatorParams) -> tuple[float, float]:
    """Both sides of the fractional integration-by-parts rule

        int f (D_left g) dx  =  - int (D_right f) g dx

    for f the right-side second-kind integral of phi_f and g the left-side
    second-kind integral of phi_g.  Everything is evaluated numerically
    (S on the lattice, D by lattice differences of J, the outer integrals
    by Simpson); returns the (lhs, rhs) pair.
    """
    left_p = OperatorParams(Side.LEFT, p.alpha, p.interval, p.acc)
    right_p = OperatorParams(Side.RIGHT, p.alpha, p.interval, p.acc)
    f_s = Grid(sample_spec(phi_f, p.interval, _PARTS_N, p.alpha))
    g_s = Grid(sample_spec(phi_g, p.interval, _PARTS_N, p.alpha))
    f_grid = apply_s(f_s, right_p, _PARTS_N).outputs
    g_grid = apply_s(g_s, left_p, _PARTS_N).outputs

    # derivatives on the evaluation lattice itself: the lattice J values
    # are exact closed-moment integrals of the carriers, so second-order
    # differences (one-sided at the ends) stay O(spacing^2) throughout
    step = f_grid.spacing
    j_g = apply_j(Grid(g_grid), left_p, _PARTS_N).outputs.values
    d_g = np.gradient(j_g, step, edge_order=2)
    lhs_vals = f_grid.values * d_g
    j_f = apply_j(Grid(f_grid), right_p, _PARTS_N).outputs.values
    d_f = np.gradient(j_f, step, edge_order=2)
    rhs_vals = -d_f * g_grid.values

    w = np.full(_PARTS_N + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    lhs = float(np.sum(w * lhs_vals) * step / 3.0)
    rhs = float(np.sum(w * rhs_vals) * step / 3.0)
    return lhs, rhs
