"""Arbitrary-order implicit-explicit local differential transform method
(IELDTM) for stiff initial value problems, with adaptive step control and a
stability-analysis toolkit."""

__version__ = "0.1.0"

from .errors import (
    IeldtmError,
    NewtonFailureError,
    NonFiniteStateError,
    PoleError,
    SingularMatrixError,
)
from .problems import (
    ProblemDefinition,
    Series,
    dahlquist,
    declare,
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
    build_coeff_table,
    integrate,
)
