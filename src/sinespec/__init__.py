"""Sine-basis spectral laboratory for self-adjoint second- and fourth-order
operators on the unit interval: exact Galerkin assembly over trigonometric
coefficients, dense symmetric eigensolves with error-estimated trust
annotations, regularized trace identities with tail acceleration, and
recovery of coefficient functions from shifted-family spectra."""

from .coeffs import ZERO, Coefficient, Functionals, big_P, build_V
from .errors import CoefficientFileError, NumericError, PreconditionError
from .eigensolve import Spectrum, spectrum, trust_scale
from .inverse import SweepResult, fit_trig, recover_Q, recover_V, recover_q, sweep
from .linalg import factored_eigvalsh, graded_eigvalsh
from .operators import (
    KIND_FOURTH_ORDER,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    assemble_H,
    assemble_h,
    assemble_h2_plus_Q,
    assemble_spec,
    multiplication_matrix,
)
from .traces import (
    DEFAULT_K,
    DEFAULT_N,
    DEFAULT_TOLERANCES,
    AsymptoticsReport,
    CoefficientSet,
    DisputeReport,
    DisputeVariant,
    FormulaId,
    LocalizationReport,
    TraceReport,
    asym_residuals,
    check_preconditions,
    dispute,
    localization,
    partial_sums,
    rhs,
    spectra_for,
    summand,
    tail_accelerate,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Coefficient",
    "Functionals",
    "ZERO",
    "big_P",
    "build_V",
    "PreconditionError",
    "NumericError",
    "CoefficientFileError",
    "OperatorSpec",
    "KIND_SECOND_ORDER",
    "KIND_FOURTH_ORDER",
    "KIND_SQUARE_PLUS_Q",
    "assemble_h",
    "assemble_H",
    "assemble_h2_plus_Q",
    "assemble_spec",
    "multiplication_matrix",
    "Spectrum",
    "spectrum",
    "trust_scale",
    "graded_eigvalsh",
    "factored_eigvalsh",
    "FormulaId",
    "CoefficientSet",
    "TraceReport",
    "DisputeVariant",
    "DisputeReport",
    "AsymptoticsReport",
    "LocalizationReport",
    "DEFAULT_TOLERANCES",
    "DEFAULT_N",
    "DEFAULT_K",
    "check_preconditions",
    "spectra_for",
    "summand",
    "partial_sums",
    "rhs",
    "tail_accelerate",
    "verify",
    "asym_residuals",
    "localization",
    "dispute",
    "SweepResult",
    "sweep",
    "recover_V",
    "recover_q",
    "recover_Q",
    "fit_trig",
    "__version__",
]
