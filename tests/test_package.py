import beamsign

# the names the package exported when __all__ was still written out by hand
EXPORTED = {
    "ConvergenceError", "Expression", "ExpressionError", "FixedPointRun", "GreensMatrix",
    "GreensSignReport", "Grid", "InequalityRecord", "Interval", "NumericalError",
    "OperatorMatrix", "ProblemSpec", "ResonanceError", "RootSearchError", "ScalarField",
    "SignCertificate", "SolutionField", "SpectralData", "Verdict", "__version__", "assemble",
    "char_roots", "check_amp_negative_h", "check_amp_positive_h", "check_corollary",
    "check_thm_negative", "check_thm_positive", "delta1", "delta1_alt", "delta2", "diff",
    "direct_solve", "energy_norm", "extrema", "fixed_point_solve", "greens_constant",
    "greens_discrete", "integrate", "l2_norm", "lambda2", "lambda3", "lambda_k", "nearest_mode",
    "operator_norm_bound", "parse_expression", "resonance_check", "rhs_norm_bound",
    "sign_certificate", "sign_scan", "smallest_eigenvalue", "split_signs", "sup_norm",
    "superposition_solve", "verdict", "y_boundary",
}


def test_package_exports_are_pinned_and_resolve():
    assert len(EXPORTED) == 55
    assert len(beamsign.__all__) == len(set(beamsign.__all__))
    assert set(beamsign.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(beamsign, name) is not None
    namespace = {}
    exec("from beamsign import *", namespace)
    assert EXPORTED <= namespace.keys()
