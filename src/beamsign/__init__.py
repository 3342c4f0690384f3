"""Sign analysis and finite-difference solves for u'''' - p u'' + c(t) u = h.

The operator acts on [a, b] with hinged ends: u(a) = u(b) = 0 and prescribed
nonpositive end moments u''(a) = d1, u''(b) = d2 (zero in the homogeneous
case).  The package computes its spectral thresholds, checks the sufficient
conditions under which solutions are unique and sign-definite, builds Green's
kernels, solves the boundary value problem three ways, and certifies solution
signs numerically.

Each name below, and each submodule, is imported at its first access (PEP
562), so ``from beamsign import Grid`` loads ``beamsign.fields`` alone.
"""

import importlib

__version__ = "0.1.0"

# the names each submodule exports, as its own __all__ lists them
_EXPORTS = {
    "errors": ("NumericalError", "ResonanceError", "RootSearchError", "ConvergenceError"),
    "expressions": ("ExpressionError", "Expression", "parse_expression"),
    "fields": (
        "Interval", "Grid", "ScalarField", "ProblemSpec", "extrema", "split_signs",
        "integrate", "sup_norm", "diff",
    ),
    "greens": (
        "GreensMatrix", "GreensSignReport", "greens_constant",
        "greens_discrete", "y_boundary", "sign_scan",
    ),
    "principles": (
        "InequalityRecord", "Verdict", "check_corollary", "check_thm_positive",
        "check_thm_negative", "check_amp_positive_h", "check_amp_negative_h", "verdict",
    ),
    "solver": (
        "OperatorMatrix", "SolutionField", "FixedPointRun", "SignCertificate", "assemble",
        "direct_solve", "superposition_solve", "fixed_point_solve", "sign_certificate",
        "operator_norm_bound", "rhs_norm_bound", "smallest_eigenvalue",
    ),
    "spectrum": (
        "SpectralData", "lambda_k", "lambda2", "lambda3", "delta1", "delta2", "nearest_mode",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
