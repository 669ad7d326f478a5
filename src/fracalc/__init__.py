"""Numerical toolkit for the exponential-integral and Volterra-kernel
fractional integral operators, the derived fractional derivatives, and
the fractional relaxation solver built on them."""

from .special import (
    Accuracy,
    DEFAULT_ACCURACY,
    EULER_GAMMA,
    ZETA2,
    e1,
    p_regularized,
    volterra_s,
    s_cumulative,
    e1_s_convolution,
)
from .quadrature import (
    QuadResult,
    Singularity,
    integrate,
    integrate_semi_infinite,
    laplace,
)
from .funcspec import (
    FunctionSpec,
    GridFunction,
    Interval,
    ParseError,
    parse_spec,
    render_spec,
    sample_spec,
)
from .operators import (
    OperatorParams,
    OperatorReport,
    Side,
    apply_d,
    apply_d_at,
    apply_j,
    apply_s,
    running_integral,
    j_closed_constant,
    j_closed_monomial,
    j_closed_powshift,
    j_closed_e1kernel,
)
from .derivatives import (
    AcFunction,
    d_frac_ac,
    d_frac_numeric,
    check_inversion_ds,
    katr_residual,
    parts_fractional,
)
from .relaxation import (
    Affine,
    Autonomous,
    RelaxationProblem,
    SolveDiagnostics,
    apply_t,
    contraction_constant,
    solve_picard,
)

__all__ = [
    "Accuracy", "DEFAULT_ACCURACY", "EULER_GAMMA", "ZETA2",
    "e1", "p_regularized", "volterra_s",
    "s_cumulative", "e1_s_convolution",
    "QuadResult", "Singularity", "integrate",
    "integrate_semi_infinite", "laplace",
    "FunctionSpec", "GridFunction", "Interval", "ParseError", "parse_spec",
    "render_spec", "sample_spec",
    "OperatorParams", "OperatorReport", "Side", "apply_d", "apply_d_at",
    "apply_j", "apply_s", "running_integral", "j_closed_constant",
    "j_closed_monomial", "j_closed_powshift", "j_closed_e1kernel",
    "AcFunction", "d_frac_ac", "d_frac_numeric", "check_inversion_ds",
    "katr_residual", "parts_fractional",
    "Affine", "Autonomous", "RelaxationProblem", "SolveDiagnostics",
    "apply_t", "contraction_constant", "solve_picard",
]
