import beamsign

# the names the package exported when __all__ was still written out by hand
EXPORTED = {
    "ConvergenceError", "Expression", "ExpressionError", "FixedPointRun", "GreensMatrix",
    "GreensSignReport", "Grid", "InequalityRecord", "Interval", "NumericalError",
    "OperatorMatrix", "ProblemSpec", "ResonanceError", "RootSearchError", "ScalarField",
    "SignCertificate", "SolutionField", "SpectralData", "Verdict", "__version__", "assemble",
    "check_amp_negative_h", "check_amp_positive_h", "check_corollary",
    "check_thm_negative", "check_thm_positive", "delta1", "delta2", "diff",
    "direct_solve", "extrema", "fixed_point_solve", "greens_constant",
    "greens_discrete", "integrate", "lambda2", "lambda3", "lambda_k", "nearest_mode",
    "operator_norm_bound", "parse_expression", "rhs_norm_bound",
    "sign_certificate", "sign_scan", "smallest_eigenvalue", "split_signs", "sup_norm",
    "superposition_solve", "verdict", "y_boundary",
}


def test_package_exports_are_pinned_and_resolve():
    assert len(EXPORTED) == 50
    assert len(beamsign.__all__) == len(set(beamsign.__all__))
    assert set(beamsign.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(beamsign, name) is not None
    namespace = {}
    exec("from beamsign import *", namespace)
    assert EXPORTED <= namespace.keys()


def _parameters(fn):
    import inspect

    return [
        p.name if p.default is inspect.Parameter.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(fn).parameters.values()
    ]


def test_signatures_take_only_what_callers_set():
    # the grid that the problem or kernel carries, the fixed sign tolerances
    # and series length, and the eigenvalue iteration's stopping rule are
    # not arguments
    assert _parameters(beamsign.direct_solve) == ["problem"]
    assert _parameters(beamsign.superposition_solve) == ["problem"]
    assert _parameters(beamsign.fixed_point_solve) == [
        "problem", "mode='positive'", "tol=1e-10", "max_iter=200", "check_hypotheses=True",
    ]
    assert _parameters(beamsign.sign_scan) == ["G"]
    assert _parameters(beamsign.sign_certificate) == ["u"]
    assert _parameters(beamsign.smallest_eigenvalue) == ["op"]
    assert _parameters(beamsign.greens_constant) == ["p", "m", "grid"]
    assert not hasattr(beamsign.OperatorMatrix, "apply")
    assert not hasattr(beamsign.OperatorMatrix, "band")


def test_readme_library_api_names_every_export():
    import os
    import re

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme.split("## Library API\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)[`(.]", section))
    assert set(beamsign.__all__) <= named
    for removed in ("char_roots", "l2_norm", "OperatorMatrix.apply", "OperatorMatrix.band"):
        assert removed not in section


def _modules_loaded_by(code, package="beamsign"):
    # the modules of ``package`` a fresh interpreter holds after running ``code``
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(beamsign.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = code + (
        "\nimport sys\n"
        f"print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1].split()  # the last line: what the code prints comes first


def test_imports_load_only_what_a_call_uses():
    loaded = _modules_loaded_by("import beamsign\nfrom beamsign import Grid, Interval, ScalarField")
    assert loaded == ["beamsign", "beamsign.fields"]
    loaded = _modules_loaded_by("import beamsign.cli")
    assert loaded == [
        "beamsign", "beamsign.cli", "beamsign.errors", "beamsign.expressions", "beamsign.fields",
    ]


def test_the_sine_transform_sits_below_the_solver():
    # beamsign._sine is a leaf that the solver and greens import, and the
    # spectral thresholds load neither it nor numpy.fft
    loaded = _modules_loaded_by("import beamsign._sine")
    assert "beamsign.solver" not in loaded
    assert "beamsign.greens" not in loaded
    assert "beamsign._sine" not in _modules_loaded_by("import beamsign.spectrum")
    assert "numpy.fft" not in _modules_loaded_by("import beamsign.spectrum", "numpy")


def test_the_lazy_name_table_matches_each_module():
    import importlib
    from pathlib import Path

    # every public module but the command line; private modules, such as
    # _sine, export nothing
    package = Path(beamsign.__file__).parent
    modules = {path.stem for path in package.glob("*.py") if not path.stem.startswith("_")}
    assert set(beamsign._EXPORTS) == modules - {"cli"}
    for module, names in beamsign._EXPORTS.items():
        assert names == tuple(importlib.import_module(f"beamsign.{module}").__all__)
    # submodules resolve as attributes, as they did when the package imported them all
    assert beamsign.solver is importlib.import_module("beamsign.solver")
    assert "verdict" in dir(beamsign)


def test_only_a_factorization_loads_lapack(tmp_path):
    # a constant-c sweep solves by the sine transform and loads no scipy at
    # all; a variable-c verify factors the split system, which loads LAPACK
    problem = tmp_path / "problem.txt"
    text = "interval.a = 0\ninterval.b = 1\np = 0\nh.kind = constant\nh.value = 1\ngrid.n = 200\n"
    problem.write_text(text + "c.kind = constant\nc.value = 0\n")
    sweep = ["sweep", str(problem), "--param", "c", "--from", "-500", "--to", "500", "--steps", "5",
             "--out", str(tmp_path / "sweep.csv")]
    loaded = _modules_loaded_by(f"from beamsign.cli import run\nassert run({sweep!r}) == 0", "scipy")
    assert loaded == []
    varying = tmp_path / "varying.txt"
    varying.write_text(text + "c.kind = expression\nc.expr = 40 + 30*sin(pi*t)\n")
    verify = ["verify", str(varying)]
    loaded = _modules_loaded_by(f"from beamsign.cli import run\nassert run({verify!r}) == 0", "scipy")
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded
