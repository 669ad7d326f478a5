"""Verification suites: every identity the operators satisfy, as
machine-checkable rows.

Each check produces a CheckRow with the measured value, the expected
value (or bound), the tolerance pinned for that check, and a pass flag.
Suites: integrals, laplace, inversion, derivatives; "all" concatenates
them.  Everything is deterministic, so repeated runs emit byte-identical
CSV: the rough grids of the norm-bound checks are normal draws from a
fixed seed, made here with numpy alone (_normal_draws), not numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .derivatives import (
    check_inversion_ds,
    katr_residual,
    parts_fractional,
)
from .funcspec import (
    Const,
    E1KernelLeft,
    E1KernelRight,
    Grid,
    GridFunction,
    Interval,
    Poly,
    PowShiftLeft,
    PowShiftRight,
    Sin,
    _csv_text,
    catalog_derivative,
    eval_spec_array,
    sample_spec,
)
from .operators import (
    OperatorParams,
    Side,
    apply_d,
    apply_j,
    apply_j_at,
    apply_s,
    j_closed_constant,
    j_closed_e1kernel,
    j_closed_monomial,
    j_closed_powshift,
    running_integral,
)
from .special import (
    Accuracy,
    DEFAULT_ACCURACY,
    _S_SATURATION,
    e1_array,
    e1_s_convolution_array,
    s_cumulative,
    s_weighted_batch,
)

UNIT = Interval(0.0, 1.0)

# bound recorded from an independent cumulative-route run of the
# boundedness lemma ladder (sup over the alpha ladder is at alpha = 1)
AUX_LEDGE_BOUND = 1.4813

# frozen from the brute-force nested-operator run at alpha = beta = 0.3
SEMIGROUP_GAP_THRESHOLD = 1e-3

CONVERGENCE_LADDER = (0.2, 0.1, 0.05, 0.025)


@dataclass
class CheckRow:
    check: str
    side: str
    alpha: float
    value: float
    expected: float
    tolerance: float
    passed: bool


def rows_to_csv(rows: list[CheckRow]) -> str:
    """The rows as CSV with "\n" line ends; pass is true/false (a row's
    passed may be a numpy bool)."""
    return _csv_text(
        ["check", "side", "alpha", "value", "expected", "tolerance", "pass"],
        [[r.check for r in rows], [r.side for r in rows],
         [r.alpha for r in rows], [r.value for r in rows],
         [r.expected for r in rows], [r.tolerance for r in rows],
         [bool(r.passed) for r in rows]])


def _diff_row(check: str, side: str, alpha: float, value: float,
              expected: float, tol: float) -> CheckRow:
    return CheckRow(check, side, alpha, value, expected, tol,
                    abs(value - expected) <= tol)


def _below_row(check: str, side: str, alpha: float, value: float,
               bound: float, slack: float) -> CheckRow:
    return CheckRow(check, side, alpha, value, bound, slack,
                    value <= bound + slack)


def _above_row(check: str, side: str, alpha: float, value: float,
               threshold: float) -> CheckRow:
    return CheckRow(check, side, alpha, value, threshold, 0.0,
                    value > threshold)


def _trapz_norm(values: np.ndarray, spacing: float, p: float) -> float:
    a = np.abs(values)
    if p == math.inf:
        return float(np.max(a))
    return float(np.trapezoid(a ** p, dx=spacing) ** (1.0 / p))


# ---------------------------------------------------------------------------
# laplace suite
# ---------------------------------------------------------------------------

def _e1_positive(t: np.ndarray) -> np.ndarray:
    """E1 on (0, inf); the clip keeps every node inside e1_array's domain."""
    return e1_array(np.maximum(t, 1e-300))


def suite_laplace(alphas=None, acc: Accuracy = DEFAULT_ACCURACY) -> list[CheckRow]:
    rows = []
    for lam in (0.5, 1.0, 2.0):
        val = quadrature.laplace(_e1_positive, lam,
                                 quadrature.Singularity.LOG_LEFT, acc).value
        rows.append(_diff_row("laplace_e1", "-", lam, val,
                              math.log1p(lam) / lam, 1e-6))
    # S against exp(-lam z) on [0, 40], and the closed tail of S = 1 past it
    lam = math.e - 1.0
    res = s_weighted_batch(lambda z, i: np.exp(-lam * z), 1e-6,
                           _S_SATURATION, quadrature.Singularity.LOG_LEFT, acc)
    val = float(res.value[0]) + math.exp(-_S_SATURATION * lam) / lam
    rows.append(_diff_row("laplace_s", "-", lam, val, 1.0, 1e-5))
    xs = (0.1, 0.5, 1.0, 2.0)
    for x, val in zip(xs, e1_s_convolution_array(np.array(xs), acc)):
        rows.append(_diff_row("convolution_e1_s", "-", x, float(val), 1.0,
                              1e-5))
    return rows


# ---------------------------------------------------------------------------
# integrals suite
# ---------------------------------------------------------------------------

def _closed_form_rows(alphas, acc: Accuracy) -> list[CheckRow]:
    rows = []
    xs = np.linspace(UNIT.a, UNIT.b, 11)
    for alpha in alphas:
        for side in (Side.LEFT, Side.RIGHT):
            p = OperatorParams(side, alpha, UNIT, acc)
            vals, _, _ = apply_j_at(Const(1.0), p, xs)
            ref = j_closed_constant(1.0, p, xs)
            rows.append(_diff_row("closed_constant", side.value, alpha,
                                  float(np.max(np.abs(vals - ref))), 0.0, 1e-7))
            for n in (1, 2, 3):
                coeffs = tuple(0.0 for _ in range(n)) + (1.0,)
                vals, _, _ = apply_j_at(Poly(coeffs), p, xs)
                ref = j_closed_monomial(n, p, xs)
                rows.append(_diff_row(f"closed_monomial_n{n}", side.value,
                                      alpha,
                                      float(np.max(np.abs(vals - ref))),
                                      0.0, 1e-7))
                shifted = (PowShiftLeft(n) if side == Side.LEFT
                           else PowShiftRight(n))
                vals, _, _ = apply_j_at(shifted, p, xs)
                ref = j_closed_powshift(n, p, xs)
                rows.append(_diff_row(f"closed_powshift_n{n}", side.value,
                                      alpha,
                                      float(np.max(np.abs(vals - ref))),
                                      0.0, 1e-7))
            # self-convolution closed form at interior points
            kern = E1KernelLeft() if side == Side.LEFT else E1KernelRight()
            interior = np.linspace(UNIT.a, UNIT.b, 7)[1:-1]
            vals, _, _ = apply_j_at(kern, p, interior)
            ref = j_closed_e1kernel(p, interior)
            rows.append(_diff_row("closed_e1kernel", side.value, alpha,
                                  float(np.max(np.abs(vals - ref))),
                                  0.0, 1e-6))
    return rows


def _normal_draws(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws of the given shape, fixed by seed, without
    numpy.random: the uniforms are the top 53 bits of the SplitMix64
    finaliser (Steele, Lea & Flood, OOPSLA 2014) of seed + i in wrapping
    uint64, times 2^-53, and Box-Muller turns each pair into two normals,
    with the log of 1 - u, never of 0."""
    count = math.prod(shape)
    pairs = -(-count // 2)
    z = np.arange(2 * pairs, dtype=np.uint64) + np.uint64(seed)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    u = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
    u = u.astype(float).reshape(pairs, 2) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    angle = 2.0 * math.pi * u[:, 1]
    out = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
    return out.ravel()[:count].reshape(shape)


def _norm_bound_rows(alphas, acc: Accuracy) -> list[CheckRow]:
    rows = []
    n = 2000
    grids = [GridFunction(UNIT, v) for v in _normal_draws(171717, (10, n + 1))]
    spacing = UNIT.width / n
    for alpha in alphas:
        for side in (Side.LEFT, Side.RIGHT):
            p = OperatorParams(side, alpha, UNIT, acc)
            worst_j = {1.0: 0.0, 2.0: 0.0, math.inf: 0.0}
            worst_s = 0.0
            s_bound = alpha * s_cumulative(UNIT.width / alpha)
            for g in grids:
                jv = apply_j(Grid(g), p, n).outputs.values
                sv = apply_s(Grid(g), p, n).outputs.values
                for pn in worst_j:
                    ratio = (_trapz_norm(jv, spacing, pn)
                             / _trapz_norm(g.values, spacing, pn))
                    worst_j[pn] = max(worst_j[pn], ratio)
                worst_s = max(worst_s,
                              _trapz_norm(sv, spacing, 1.0)
                              / _trapz_norm(g.values, spacing, 1.0))
            for pn, label in ((1.0, "l1"), (2.0, "l2"), (math.inf, "linf")):
                rows.append(_below_row(f"j_norm_{label}", side.value, alpha,
                                       worst_j[pn], 1.0, 1e-8))
            rows.append(_below_row("s_norm_l1", side.value, alpha,
                                   worst_s, s_bound, 1e-8 * s_bound))
    return rows


def _parts_rows(alphas, acc: Accuracy) -> list[CheckRow]:
    """Two-sided integral symmetry for both operator kinds:
    int (Op_left f) g = int (Op_right g) f for f = sin 2x, g = 1 - x."""
    rows = []
    n = 4096
    f = Sin(2.0)
    g = Poly((1.0, -1.0))
    spacing = UNIT.width / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    xs = np.linspace(UNIT.a, UNIT.b, n + 1)
    fv = eval_spec_array(f, xs, UNIT)
    gv = eval_spec_array(g, xs, UNIT)
    for alpha in alphas:
        pl = OperatorParams(Side.LEFT, alpha, UNIT, acc)
        pr = OperatorParams(Side.RIGHT, alpha, UNIT, acc)
        for op, name in ((apply_j, "parts_j"), (apply_s, "parts_s")):
            lhs_vals = op(Grid(GridFunction(UNIT, fv)), pl, n).outputs.values * gv
            rhs_vals = op(Grid(GridFunction(UNIT, gv)), pr, n).outputs.values * fv
            lhs = float(np.sum(w * lhs_vals) * spacing / 3.0)
            rhs = float(np.sum(w * rhs_vals) * spacing / 3.0)
            gap = abs(lhs - rhs) / max(abs(lhs), 1e-300)
            rows.append(_diff_row(name, "-", alpha, gap, 0.0, 1e-6))
    return rows


def _ladder_row(name: str, side: Side, op, fg: GridFunction,
                ref: np.ndarray, acc: Accuracy) -> CheckRow:
    """The worst ratio of successive L1 distances of op(fg) from ref along
    CONVERGENCE_LADDER, held below 0.9."""
    norms = []
    for alpha in CONVERGENCE_LADDER:
        p = OperatorParams(side, alpha, UNIT, acc)
        values = op(Grid(fg), p, fg.n).outputs.values
        norms.append(_trapz_norm(values - ref, fg.spacing, 1.0))
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    return _below_row(name, side.value, 0.0, max(ratios), 0.9, 0.0)


def _approx_identity_rows(acc: Accuracy) -> list[CheckRow]:
    """First-kind convergence to the identity and second-kind convergence
    to the running integral along the fixed alpha ladder."""
    rows = []
    fg = sample_spec(Sin(3.0), UNIT, 2000)
    for side in (Side.LEFT, Side.RIGHT):
        ri = running_integral(Grid(fg), UNIT, side, fg.n)
        rows.append(_ladder_row("approx_identity_j", side, apply_j, fg,
                                fg.values, acc))
        rows.append(_ladder_row("approx_identity_s", side, apply_s, fg,
                                ri.values, acc))
    return rows


def _aux_bound_rows() -> list[CheckRow]:
    rows = []
    for alpha in (1.0, 0.5, 0.1, 0.02, 0.005):
        val = alpha * s_cumulative(1.0 / alpha)
        rows.append(_below_row("aux_bounded", "-", alpha, val,
                               AUX_LEDGE_BOUND, 0.0))
    return rows


def _semigroup_rows(acc: Accuracy) -> list[CheckRow]:
    """The kernel family fails the semigroup property: composing two
    integrals of order 0.3 is measurably different from order 0.6."""
    n = 2048
    xs = np.linspace(UNIT.a, UNIT.b, n + 1)

    def closed_const(alpha: float) -> np.ndarray:
        p = OperatorParams(Side.LEFT, alpha, UNIT, acc)
        return j_closed_constant(1.0, p, xs)

    inner = GridFunction(UNIT, closed_const(0.3))
    p = OperatorParams(Side.LEFT, 0.3, UNIT, acc)
    nested = apply_j(Grid(inner), p, n).outputs.values
    direct = closed_const(0.6)
    gap = float(np.max(np.abs(nested - direct)))
    return [_above_row("semigroup_failure_gap", "left", 0.3, gap,
                       SEMIGROUP_GAP_THRESHOLD)]


def suite_integrals(alphas=None, acc: Accuracy = DEFAULT_ACCURACY) -> list[CheckRow]:
    alphas = tuple(alphas) if alphas else (0.3, 1.0)
    rows = []
    norm_res = quadrature.integrate_semi_infinite(
        _e1_positive, 0.0, quadrature.Singularity.LOG_LEFT, acc)
    rows.append(_diff_row("e1_normalization", "-", 0.0, norm_res.value,
                          1.0, 1e-8))
    rows.extend(_closed_form_rows(alphas, acc))
    rows.extend(_norm_bound_rows(alphas, acc))
    rows.extend(_parts_rows(alphas, acc))
    rows.extend(_approx_identity_rows(acc))
    rows.extend(_aux_bound_rows())
    rows.extend(_semigroup_rows(acc))
    return rows


# ---------------------------------------------------------------------------
# inversion suite
# ---------------------------------------------------------------------------

def _thaya_rows(alphas, acc: Accuracy) -> list[CheckRow]:
    """Composing the two operator kinds gives the plain running integral.

    The test functions vanish at the operator's anchor endpoint (as the
    reference pair sin x, x does on the left); otherwise the second-kind
    output carries a log-steep ramp at the anchor that a uniform
    piecewise-linear carrier cannot hold to 1e-5.
    """
    rows = []
    n = 2048
    left_specs = (("sin1", Sin(1.0)), ("poly_x", Poly((0.0, 1.0))))
    right_specs = (("sin_pi", Sin(math.pi)), ("poly_1mx", Poly((1.0, -1.0))))
    for alpha in alphas:
        for side in (Side.LEFT, Side.RIGHT):
            p = OperatorParams(side, alpha, UNIT, acc)
            for name, f in (left_specs if side == Side.LEFT else right_specs):
                fg = Grid(sample_spec(f, UNIT, n))
                ri = running_integral(fg, UNIT, side, n).values
                js = apply_j(Grid(apply_s(fg, p, n).outputs), p, n).outputs.values
                rows.append(_diff_row(f"thaya_js_{name}", side.value, alpha,
                                      float(np.max(np.abs(js - ri))), 0.0,
                                      1e-5))
                sj = apply_s(Grid(apply_j(fg, p, n).outputs), p, n).outputs.values
                rows.append(_diff_row(f"thaya_sj_{name}", side.value, alpha,
                                      float(np.max(np.abs(sj - ri))), 0.0,
                                      1e-5))
    return rows


def suite_inversion(alphas=None, acc: Accuracy = DEFAULT_ACCURACY) -> list[CheckRow]:
    alphas = tuple(alphas) if alphas else (0.2, 0.5)
    rows = _thaya_rows(alphas, acc)
    tinv_specs = (("const1", Const(1.0)), ("sin2", Sin(2.0)),
                  ("poly_sq", Poly((1.0, 0.0, 1.0))))
    conv_memo: dict = {}  # katr's E1*S reference, one per alpha and side
    for alpha in alphas:
        for side in (Side.LEFT, Side.RIGHT):
            p = OperatorParams(side, alpha, UNIT, acc)
            for name, phi in tinv_specs:
                rep = check_inversion_ds(phi, p)
                rows.append(CheckRow(f"inversion_ds_{name}", side.value,
                                     alpha, rep.residual, 0.0, rep.tolerance,
                                     rep.passed))
            for name, f in (("const1", Const(1.0)), ("poly_1px", Poly((1.0, 1.0)))):
                rep = katr_residual(f, p, conv_memo=conv_memo)
                rows.append(CheckRow(f"katr_{name}", side.value, alpha,
                                     rep.residual, 0.0, rep.tolerance,
                                     rep.passed))
    return rows


# ---------------------------------------------------------------------------
# derivatives suite
# ---------------------------------------------------------------------------

def _d_ladder_rows(acc: Accuracy) -> list[CheckRow]:
    """Fractional-derivative convergence to the classical derivative.

    With zero boundary value the derivative representation reduces to the
    first-kind integral of f', so the ladder tracks |J f' - f'| in L1: for
    the V-space function x^2 (1 - x)^2, which vanishes with its derivative
    at both ends, and for the boundary-zero AC functions 1 - cos x (left
    anchor) and cos x - cos 1 (right anchor).
    """
    vspace = catalog_derivative(Poly((0.0, 0.0, 1.0, -2.0, 1.0)), UNIT)
    rows = []
    for name, side, dspec in (
            ("d_ladder_vspace", Side.LEFT, vspace),
            ("d_ladder_vspace", Side.RIGHT, vspace),
            ("d_ladder_boundary_zero", Side.LEFT, Sin(1.0)),
            ("d_ladder_boundary_zero", Side.RIGHT, Sin(1.0, -1.0))):
        dgrid = sample_spec(dspec, UNIT, 2000)
        rows.append(_ladder_row(name, side, apply_j, dgrid, dgrid.values, acc))
    return rows


def suite_derivatives(alphas=None, acc: Accuracy = DEFAULT_ACCURACY) -> list[CheckRow]:
    alphas = tuple(alphas) if alphas else (0.4,)
    rows = []
    for alpha in alphas:
        p = OperatorParams(Side.LEFT, alpha, UNIT, acc)
        # representation for a constant: the kernel term alone
        rep = apply_d(Const(2.0), p, 16)
        xs = rep.outputs.nodes()
        expect = 2.0 * e1_array((xs - UNIT.a) / alpha) / alpha
        rows.append(_diff_row("tyyr_constant", "left", alpha,
                              float(np.max(np.abs(rep.outputs.values - expect))),
                              0.0, 1e-9))
        # cross-route agreement away from the endpoints: the kernel term
        # against D by its definition, central differences of J of the
        # sampled constant, independent of the carrier's closed D
        g = Grid(sample_spec(Const(1.0), UNIT, 512))
        nodes = g.fn.nodes()
        nodes = nodes[(nodes >= 0.1) & (nodes <= 0.9)]
        h = UNIT.width / 4096
        jv, _, _ = apply_j_at(g, p, np.concatenate([nodes + h, nodes - h]))
        dnum = (jv[:nodes.size] - jv[nodes.size:]) / (2.0 * h)
        expect = e1_array(nodes / alpha) / alpha
        rows.append(_diff_row("ac_numeric_agreement", "left", alpha,
                              float(np.max(np.abs(dnum - expect))),
                              0.0, 1e-4))
        lhs, rhs = parts_fractional(Const(1.0), Const(1.0), p)
        rows.append(_diff_row("parts_fractional_const", "-", alpha,
                              abs(lhs - rhs) / abs(lhs), 0.0, 1e-5))
        lhs, rhs = parts_fractional(Sin(1.0), Poly((0.0, 1.0)), p)
        rows.append(_diff_row("parts_fractional_sinpoly", "-", alpha,
                              abs(lhs - rhs) / abs(lhs), 0.0, 1e-4))
    rows.extend(_d_ladder_rows(acc))
    return rows


SUITES = {
    "integrals": suite_integrals,
    "laplace": suite_laplace,
    "inversion": suite_inversion,
    "derivatives": suite_derivatives,
}


def run_suite(name: str, alphas=None,
              acc: Accuracy = DEFAULT_ACCURACY) -> list[CheckRow]:
    if name == "all":
        rows = []
        for key in ("integrals", "laplace", "inversion", "derivatives"):
            rows.extend(SUITES[key](alphas, acc))
        return rows
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from all, {', '.join(SUITES)}")
    return SUITES[name](alphas, acc)
