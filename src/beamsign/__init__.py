"""Sign analysis and finite-difference solves for u'''' - p u'' + c(t) u = h.

The operator acts on [a, b] with hinged ends: u(a) = u(b) = 0 and prescribed
nonpositive end moments u''(a) = d1, u''(b) = d2 (zero in the homogeneous
case).  The package computes its spectral thresholds, checks the sufficient
conditions under which solutions are unique and sign-definite, builds Green's
kernels, solves the boundary value problem three ways, and certifies solution
signs numerically.
"""

from .errors import ConvergenceError, NumericalError, ResonanceError, RootSearchError
from .expressions import Expression, ExpressionError, parse_expression
from .fields import (
    Grid,
    Interval,
    ProblemSpec,
    ScalarField,
    diff,
    energy_norm,
    extrema,
    integrate,
    l2_norm,
    split_signs,
    sup_norm,
)
from .greens import (
    GreensMatrix,
    GreensSignReport,
    char_roots,
    greens_constant,
    greens_discrete,
    sign_scan,
    y_boundary,
)
from .principles import (
    InequalityRecord,
    Verdict,
    check_amp_negative_h,
    check_amp_positive_h,
    check_corollary,
    check_thm_negative,
    check_thm_positive,
    verdict,
)
from .solver import (
    FixedPointRun,
    OperatorMatrix,
    SignCertificate,
    SolutionField,
    assemble,
    direct_solve,
    fixed_point_solve,
    operator_norm_bound,
    rhs_norm_bound,
    sign_certificate,
    smallest_eigenvalue,
    superposition_solve,
)
from .spectrum import (
    SpectralData,
    delta1,
    delta1_alt,
    delta2,
    lambda2,
    lambda3,
    lambda_k,
    nearest_mode,
    resonance_check,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "NumericalError",
    "ResonanceError",
    "RootSearchError",
    "Expression",
    "ExpressionError",
    "parse_expression",
    "Grid",
    "Interval",
    "ProblemSpec",
    "ScalarField",
    "diff",
    "energy_norm",
    "extrema",
    "integrate",
    "l2_norm",
    "split_signs",
    "sup_norm",
    "GreensMatrix",
    "GreensSignReport",
    "char_roots",
    "greens_constant",
    "greens_discrete",
    "sign_scan",
    "y_boundary",
    "InequalityRecord",
    "Verdict",
    "check_amp_negative_h",
    "check_amp_positive_h",
    "check_corollary",
    "check_thm_negative",
    "check_thm_positive",
    "verdict",
    "FixedPointRun",
    "OperatorMatrix",
    "SignCertificate",
    "SolutionField",
    "assemble",
    "direct_solve",
    "fixed_point_solve",
    "operator_norm_bound",
    "rhs_norm_bound",
    "sign_certificate",
    "smallest_eigenvalue",
    "superposition_solve",
    "SpectralData",
    "delta1",
    "delta1_alt",
    "delta2",
    "lambda2",
    "lambda3",
    "lambda_k",
    "nearest_mode",
    "resonance_check",
    "__version__",
]
