"""Bessel-Struve kernel functions and geometric class-membership criteria.

The package evaluates the kernel S_nu and its normalized unit-disk variants,
decides the starlike-type / convex-type membership criteria as closed forms
of the kernel derivative values at 1, locates critical orders by guarded
false position, and cross-checks everything through independent oracles
(disk sampling, differential-equation residual, 50-digit summation).

Numeric inner loops live in one pure-Python kernel module, ``_pykernels``;
``besselstruve.backend_name()`` names it.
"""

from ._pykernels import backend_name
from .criteria import (ClassParams, ConditionForm, DixitPalParams,
                       MembershipVerdict, convex_condition, critical_nu,
                       jnu_condition, l_condition, qnu_condition,
                       starlike_condition, t_condition)
from .errors import (BesselStruveError, BracketError, DenominatorDegeneracyError,
                     DomainError, InconclusiveError, MonotonicityError,
                     ParameterError, SeriesFormatError)
from .operators import (NormalizedSeries, Outcome, SignConvention, WeightedSum,
                        bessel_struve_transform, coefficient_sum_L,
                        coefficient_sum_T, hadamard, kernel_series, phi_series,
                        q_operator, read_series, rtab_extremal_sequence,
                        write_series)
from .series import (CoefficientSequence, KernelOrder, MomentSet,
                     coefficient_sequence, eval_kernel, eval_normalized,
                     eval_phi, kernel_coefficient, log_kernel_coefficient,
                     moments)
from .verifier import (CheckResult, DiskSampling, highprec_sum_oracle,
                       min_real_part_L, min_real_part_T, ode_residual,
                       ratio_real_part, run_suites)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    # series
    "KernelOrder", "CoefficientSequence", "MomentSet",
    "kernel_coefficient", "log_kernel_coefficient", "coefficient_sequence",
    "eval_kernel", "eval_normalized", "eval_phi", "moments",
    # criteria
    "ClassParams", "DixitPalParams", "ConditionForm", "MembershipVerdict",
    "t_condition", "l_condition", "starlike_condition", "convex_condition",
    "jnu_condition", "qnu_condition", "critical_nu",
    # operators
    "NormalizedSeries", "SignConvention", "Outcome", "WeightedSum",
    "hadamard", "kernel_series", "phi_series", "bessel_struve_transform",
    "q_operator", "coefficient_sum_T", "coefficient_sum_L",
    "rtab_extremal_sequence", "write_series", "read_series",
    # verifier
    "DiskSampling", "min_real_part_T", "min_real_part_L", "ratio_real_part",
    "ode_residual", "highprec_sum_oracle", "CheckResult", "run_suites",
    # errors
    "BesselStruveError", "DomainError", "ParameterError", "BracketError",
    "MonotonicityError", "DenominatorDegeneracyError", "InconclusiveError",
    "SeriesFormatError",
]
