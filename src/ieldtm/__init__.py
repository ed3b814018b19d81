"""Arbitrary-order implicit-explicit local differential transform method
(IELDTM) for stiff initial value problems, with adaptive step control and a
stability-analysis toolkit."""

__version__ = "0.1.0"

from .errors import (
    IeldtmError,
    InvalidConfigurationError,
    NewtonFailureError,
    NonFiniteStateError,
    PoleError,
    SingularMatrixError,
)
from .nonlinear import NewtonConfig, lu_solve, newton_solve
from .problems import (
    ProblemDefinition,
    SeirParams,
    dahlquist,
    duffing,
    linear_system,
    make_problem,
    robertson_modified,
    seir,
    van_der_pol,
)
from .stability import (
    StabilityGrid,
    contraction_certificate,
    is_A_stable,
    is_L_stable,
    log_norm_euclid,
    matrix_R,
    sample_region,
    scalar_R,
    unstable_fraction,
)
from .stepper import (
    AdaptiveStep,
    FixedStep,
    SchemeConfig,
    SolutionTrace,
    StepRecord,
    adaptive_dt_case1,
    adaptive_dt_case2,
    build_coeff_table,
    explicit_step,
    implicit_residual,
    implicit_step,
    integrate,
    integrate_adaptive,
    integrate_fixed,
)
from .taylor import CoeffTable, cauchy_product, horner_eval, triple_product
