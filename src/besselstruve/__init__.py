"""Bessel-Struve kernel functions and geometric class-membership criteria.

The package evaluates the kernel S_nu and its normalized unit-disk variants,
decides the starlike-type / convex-type membership criteria as closed forms
of the kernel derivative values at 1, locates critical orders by guarded
false position, and cross-checks everything through independent oracles
(disk sampling, differential-equation residual, 50-digit summation).

Numeric inner loops live in one pure-Python kernel module, ``_pykernels``;
``besselstruve.backend_name()`` names it.

``import besselstruve`` loads only the kernel, series and criteria layers.
The operator and verifier layers load on first use of one of their names
or of ``besselstruve.operators`` / ``besselstruve.verifier``; mpmath loads
only when the 50-digit oracle runs.
"""

import importlib as _importlib

from ._pykernels import backend_name
from .criteria import (ClassParams, ConditionForm, DixitPalParams,
                       MembershipVerdict, convex_condition, critical_nu,
                       jnu_condition, l_condition, qnu_condition,
                       starlike_condition, t_condition)
from .errors import (BesselStruveError, BracketError, DenominatorDegeneracyError,
                     DomainError, InconclusiveError, MonotonicityError,
                     ParameterError, SeriesFormatError)
from .series import (CoefficientSequence, KernelOrder, MomentSet,
                     coefficient_sequence, eval_kernel, eval_normalized,
                     eval_phi, kernel_coefficient, log_kernel_coefficient,
                     moments)

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

_LAZY_LAYERS = ("operators", "verifier")


def __getattr__(name):
    """Load a lazy layer, or a name of ``__all__`` from the layer defining it
    (PEP 562): ``operators`` if it exports the name, else ``verifier``.
    The name is then bound here, so this runs once per name."""
    if name in _LAZY_LAYERS:
        return _importlib.import_module(f".{name}", __name__)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    operators = _importlib.import_module(".operators", __name__)
    home = (operators if name in operators.__all__
            else _importlib.import_module(".verifier", __name__))
    value = globals()[name] = getattr(home, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
