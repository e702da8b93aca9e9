"""Gauss-Newton solver for linear inverse problems encoded by shallow networks.

The package discretizes the image space by quadrature (:mod:`~gncoder.grids`),
synthesizes candidate solutions with a shallow network whose derivatives are
hand-coded closed forms (:mod:`~gncoder.network`), composes them with
ill-posed linear forward operators (:mod:`~gncoder.operators`), and solves
the resulting nonlinear equation with an undamped Gauss-Newton iteration
built on an explicitly constructed Moore-Penrose pseudoinverse
(:mod:`~gncoder.pseudoinverse`, :mod:`~gncoder.solver`).  The
:mod:`~gncoder.diagnostics` module numerically probes the hypotheses behind
the method: linear independence of the derivative columns, the
order-reversed tangential cone condition, and the Newton-Mysovskii bound.
"""

from .activations import Activation, parse_activation
from .diagnostics import (
    ConeReport,
    IndependenceReport,
    MysovskiiReport,
    cone_check,
    derivative_check,
    independence_report,
    independence_reports,
    independence_trial,
    manifold_demo,
    manifold_sweep,
    merge_duplicate,
    merge_mirrored,
    mysovskii_check,
    mysovskii_reports,
)
from .grids import (
    Grid,
    GridFunction,
    constant,
    inner_product,
    make_grid,
    norm,
    sample_function,
)
from .network import (
    ConvergenceConstants,
    Params,
    directional_derivative,
    directional_derivatives,
    eval_psi,
    eval_psis,
    jacobian,
    jacobian_rows,
    lipschitz_constants,
    second_derivative_bilinear,
)
from .operators import (
    LinearOperator,
    make_convolution,
    make_identity,
    make_integration,
    parse_operator,
)
from .pseudoinverse import (
    QRFactors,
    full_rank,
    pinv_apply,
    pinv_apply_columns,
    weighted_qr,
    weighted_qr_stack,
)
from .sampling import sample_in_ball, sample_params, unit_direction
from .solver import (
    IterationTrace,
    SolveConfig,
    TikhonovObjective,
    convergence_order,
    gauss_newton_step,
    gradient_step,
    misfit_value_grad,
    radius_check,
    solve,
    tikhonov_value_grad,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "ConeReport",
    "ConvergenceConstants",
    "Grid",
    "GridFunction",
    "IndependenceReport",
    "IterationTrace",
    "LinearOperator",
    "MysovskiiReport",
    "Params",
    "QRFactors",
    "SolveConfig",
    "TikhonovObjective",
    "cone_check",
    "derivative_check",
    "constant",
    "convergence_order",
    "directional_derivative",
    "directional_derivatives",
    "eval_psi",
    "eval_psis",
    "full_rank",
    "gauss_newton_step",
    "gradient_step",
    "independence_report",
    "independence_reports",
    "independence_trial",
    "inner_product",
    "jacobian",
    "jacobian_rows",
    "lipschitz_constants",
    "make_convolution",
    "make_grid",
    "make_identity",
    "make_integration",
    "manifold_demo",
    "manifold_sweep",
    "merge_duplicate",
    "merge_mirrored",
    "misfit_value_grad",
    "mysovskii_check",
    "mysovskii_reports",
    "norm",
    "parse_activation",
    "parse_operator",
    "pinv_apply",
    "pinv_apply_columns",
    "radius_check",
    "sample_function",
    "sample_in_ball",
    "sample_params",
    "second_derivative_bilinear",
    "solve",
    "tikhonov_value_grad",
    "unit_direction",
    "weighted_qr",
    "weighted_qr_stack",
]
