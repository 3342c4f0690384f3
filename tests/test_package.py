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


def _modules_loaded_by(code):
    # the beamsign modules a fresh interpreter holds after running ``code``
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(beamsign.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = code + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('beamsign'))))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_imports_load_only_what_a_call_uses():
    loaded = _modules_loaded_by("import beamsign\nfrom beamsign import Grid, Interval, ScalarField")
    assert loaded == ["beamsign", "beamsign.fields"]
    loaded = _modules_loaded_by("import beamsign.cli")
    assert loaded == [
        "beamsign", "beamsign.cli", "beamsign.errors", "beamsign.expressions", "beamsign.fields",
    ]


def test_the_lazy_name_table_matches_each_module():
    import importlib
    from pathlib import Path

    package = Path(beamsign.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "cli"}
    assert set(beamsign._EXPORTS) == modules
    for module, names in beamsign._EXPORTS.items():
        assert names == tuple(importlib.import_module(f"beamsign.{module}").__all__)
    # submodules resolve as attributes, as they did when the package imported them all
    assert beamsign.solver is importlib.import_module("beamsign.solver")
    assert "verdict" in dir(beamsign)
