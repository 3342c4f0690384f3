import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamsign
from beamsign import cli, expressions
from beamsign.cli import (
    ProblemFile,
    dump_config,
    load_problem_file,
    parse_problem_text,
    run,
    to_problem,
)

BASE = """
interval.a = 0
interval.b = 1
p = 0
c.kind = constant
c.value = {c}
h.kind = constant
h.value = 1
"""


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_spectrum_prints_the_thresholds(capsys):
    assert run(["spectrum", "--p", "0", "--a", "0", "--b", "1"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    assert abs(float(values["lambda1"]) - np.pi**4) < 1e-9
    assert abs(float(values["lambda1_prime"]) - 16.0 * np.pi**4) < 1e-8
    assert abs(float(values["lambda2"]) + 950.8842701244664) < 1e-6
    assert abs(float(values["lambda3"]) - 237.72106753111677) < 1e-6
    assert abs(float(values["delta1"]) - 4.0 * np.pi**2) < 1e-12
    assert list(values) == [
        "p", "interval", "lambda1", "lambda1_prime", "lambda2", "lambda3", "delta1",
    ]


def test_spectrum_prints_one_delta1_reading_on_every_interval(capsys):
    assert run(["spectrum", "--p", "0", "--a", "0", "--b", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("delta1") == 1
    assert f"delta1         = {4.0 * np.pi**2 / 8.0!r}\n" in out


def test_check_reports_the_rule(tmp_path, capsys):
    path = write_problem(tmp_path, BASE.format(c=-900))
    assert run(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rule = Thm5_2_unique" in out
    assert "predicted_sign = unique_only" in out
    assert "transfers_to_nonhomogeneous = true" in out


def test_solve_writes_deterministic_csv(tmp_path, capsys):
    path = write_problem(tmp_path, BASE.format(c=0))
    out1 = tmp_path / "sol1.csv"
    out2 = tmp_path / "sol2.csv"
    assert run(["solve", str(path), "--out", str(out1)]) == 0
    assert run(["solve", str(path), "--out", str(out2)]) == 0
    capsys.readouterr()
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,u,du,d2u"
    assert lines[-1].startswith("# forward_error_bound = ")
    assert "method = direct" in lines[-1]
    row = lines[201].split(",")
    assert float(row[0]) == 0.5
    assert abs(float(row[1]) - 5.0 / 384.0) < 1e-7


def test_solve_superposition_method(tmp_path, capsys):
    text = BASE.format(c=0) + "bc.d1 = -1\nbc.d2 = -1\nsolver.method = superposition\ngrid.n = 200\n"
    path = write_problem(tmp_path, text)
    out = tmp_path / "sol.csv"
    assert run(["solve", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert "method = superposition" in lines[-1]
    assert abs(float(lines[101].split(",")[1]) - 53.0 / 384.0) < 1e-5


def test_solve_fixed_point_method(tmp_path, capsys):
    text = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        "c.kind = expression\nc.expr = 1000*sin(pi*t)^2\n"
        "h.kind = constant\nh.value = 1\n"
        "grid.n = 200\nsolver.method = fixed-point\n"
    )
    path = write_problem(tmp_path, text)
    out = tmp_path / "sol.csv"
    assert run(["solve", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    footer = out.read_text().splitlines()[-1]
    assert "method = fixed_point" in footer
    assert "iterations = " in footer


def test_solve_fixed_point_needs_a_sign_verdict(tmp_path, capsys):
    text = BASE.format(c=-900) + "solver.method = fixed-point\n"
    path = write_problem(tmp_path, text)
    assert run(["solve", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input:")


def test_verify_passes_on_the_textbook_problem(tmp_path, capsys):
    path = write_problem(tmp_path, BASE.format(c=0))
    assert run(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS, observed strongly_positive" in out
    assert "bound" in out


def test_verify_without_sign_verdict_still_reports(tmp_path, capsys):
    path = write_problem(tmp_path, BASE.format(c=-900))
    assert run(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "no sign verdict" in out


def test_exit_codes_for_input_errors(tmp_path, capsys):
    assert run(["check", str(tmp_path / "missing.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: input:")
    bad_expr = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        "c.kind = expression\nc.expr = 2*(3+\n"
        "h.kind = constant\nh.value = 1\n"
    )
    path = write_problem(tmp_path, bad_expr)
    assert run(["check", str(path)]) == 1
    assert "at offset 5" in capsys.readouterr().err
    dup = BASE.format(c=0) + "p = 1\n"
    assert run(["check", str(write_problem(tmp_path, dup, "dup.txt"))]) == 1
    assert "duplicate" in capsys.readouterr().err
    unknown = BASE.format(c=0) + "solver.ethod = direct\n"
    assert run(["check", str(write_problem(tmp_path, unknown, "unknown.txt"))]) == 1
    assert "unknown keys" in capsys.readouterr().err
    assert run(["sweep", str(write_problem(tmp_path, BASE.format(c=0), "s.txt")),
                "--param", "x", "--from", "0", "--to", "1", "--steps", "2",
                "--out", str(tmp_path / "s.csv")]) == 1
    assert "only --param c" in capsys.readouterr().err


def test_exit_code_for_usage_errors(capsys):
    assert run([]) == 1
    assert capsys.readouterr().err.startswith("error: input:")
    assert run(["solve"]) == 1
    capsys.readouterr()


def test_exit_code_for_resonance(tmp_path, capsys):
    # c on the discrete eigenvalue -beta_1 of the default grid, n = 400; the
    # continuous -pi^4 lies 1e-3 from it and solves
    from beamsign.spectrum import _discrete_beta

    beta = _discrete_beta(0.0, beamsign.Grid(beamsign.Interval(0.0, 1.0), 400))[1]
    path = write_problem(tmp_path, BASE.format(c=repr(-float(beta[0]))))
    assert run(["solve", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:")
    assert "lambda_1" in err


def test_exit_code_for_nonconvergence(tmp_path, capsys):
    text = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        "c.kind = expression\nc.expr = 1000*sin(pi*t)^2\n"
        "h.kind = constant\nh.value = 1\n"
        "grid.n = 200\nsolver.method = fixed-point\n"
        "solver.tol = 1e-14\nsolver.max_iter = 2\n"
    )
    path = write_problem(tmp_path, text)
    assert run(["solve", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: numerical:")


def test_greens_command_writes_the_kernel(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run(["greens", "--p", "0", "--m", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# a = 0.0 b = 1.0 n = 200")
    matrix = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert matrix.shape == (201, 201)
    assert abs(matrix[100, 100] - 1.0 / 48.0) < 2e-4
    assert np.max(np.abs(matrix - matrix.T)) < 1e-8 * np.max(np.abs(matrix))


@pytest.mark.parametrize("n", [8, 50, 200])
def test_greens_csv_is_the_repr_of_every_entry(tmp_path, capsys, n):
    # the file holds the repr of every kernel entry, row by row, so it reads
    # back bit for bit
    for p, m in (("0", "0"), ("5", "-80"), ("50", "3000")):
        out = tmp_path / "g.csv"
        assert run(["greens", "--p", p, "--m", m, "--n", str(n), "--out", str(out)]) == 0
        capsys.readouterr()
        grid = beamsign.Grid(beamsign.Interval(0.0, 1.0), n)
        G = beamsign.greens_discrete(float(p), beamsign.ScalarField.constant(grid, float(m)), grid)
        body = [",".join(repr(float(x)) for x in row) for row in G.values]
        assert out.read_text().splitlines()[1:] == body


def test_negative_numbers_in_scientific_notation(tmp_path, capsys):
    # "--m -5e2" once failed with "expected one argument" while "--m -500" and
    # "--m=-5e2" worked: argparse's negative-number pattern had no exponent
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run(["greens", "--m", "-5e2", "--n", "16", "--out", str(spaced)]) == 0
    assert run(["greens", "--m=-5e2", "--n", "16", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert run(["spectrum", "--a", "-1.5E0", "--b", "-2.5e-1"]) == 0
    assert "interval       = [-1.5, -0.25]" in capsys.readouterr().out
    path = write_problem(tmp_path, BASE.format(c=0))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", str(path), "--param", "c", "--from", "-1e2", "--to", "-3e2",
                "--steps", "3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [-300.0, -200.0, -100.0]
    capsys.readouterr()


def test_sweep_predictions_match_observations(tmp_path, capsys):
    path = write_problem(tmp_path, BASE.format(c=0))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", str(path), "--param", "c", "--from", "0", "--to", "-300",
                "--steps", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "c,rule,predicted_sign,observed_sign"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [-300.0, -200.0, -100.0, 0.0]
    assert rows[0][1] == "Thm5_2_unique"
    assert rows[1][1] == "Cor2_1_neg"
    assert rows[2][1] == "Cor2_1_neg"
    assert rows[3][1] == "Cor2_1_pos"
    for _, _, predicted, observed in rows:
        if predicted == "positive":
            assert observed == "strongly_positive"
        elif predicted == "negative":
            assert observed == "strongly_negative"


def test_dump_config_round_trips(tmp_path, capsys):
    text = BASE.format(c=-250) + "grid.n = 200\nsolver.method = superposition\n"
    path = write_problem(tmp_path, text)
    dump1 = tmp_path / "canon1.txt"
    assert run(["check", str(path), "--dump-config", str(dump1)]) == 0
    capsys.readouterr()
    pf1 = load_problem_file(dump1)
    canon1 = dump_config(pf1)
    pf2 = parse_problem_text(canon1, tmp_path)
    assert dump_config(pf2) == canon1
    p1 = to_problem(pf1)
    p2 = to_problem(pf2)
    assert p1.interval == p2.interval
    assert p1.p == p2.p
    assert np.array_equal(p1.c.values, p2.c.values)
    assert np.array_equal(p1.h.values, p2.h.values)
    assert (p1.d1, p1.d2) == (p2.d1, p2.d2)


def test_samples_kind_reads_matching_csv(tmp_path, capsys):
    nodes = np.linspace(0.0, 1.0, 9)
    rows = ["t,value"] + [f"{repr(float(t))},{repr(float(-200.0))}" for t in nodes]
    (tmp_path / "cfield.csv").write_text("\n".join(rows) + "\n")
    text = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        "c.kind = samples\nc.path = cfield.csv\n"
        "h.kind = constant\nh.value = 1\n"
        "grid.n = 8\n"
    )
    path = write_problem(tmp_path, text)
    assert run(["check", str(path)]) == 0
    assert "rule = Cor2_1_neg" in capsys.readouterr().out


def test_samples_kind_rejects_mismatched_nodes(tmp_path, capsys):
    nodes = np.linspace(0.0, 1.0, 9)
    nodes[3] += 0.01
    rows = [f"{repr(float(t))},1.0" for t in nodes]
    (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
    text = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        "c.kind = samples\nc.path = bad.csv\n"
        "h.kind = constant\nh.value = 1\n"
        "grid.n = 8\n"
    )
    path = write_problem(tmp_path, text)
    assert run(["check", str(path)]) == 1
    assert "do not match the grid nodes" in capsys.readouterr().err


def test_problem_file_validation_messages():
    with pytest.raises(ValueError, match="missing required key interval.a"):
        parse_problem_text("p = 0\n", None)
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_problem_text("interval.a\n", None)
    with pytest.raises(ValueError, match="c.value conflicts"):
        parse_problem_text(
            "interval.a = 0\ninterval.b = 1\np = 0\n"
            "c.kind = expression\nc.expr = t\nc.value = 3\n"
            "h.kind = constant\nh.value = 1\n",
            None,
        )
    with pytest.raises(ValueError, match="not a number"):
        parse_problem_text(BASE.format(c="fast"), None)
    with pytest.raises(ValueError, match="solver.method"):
        parse_problem_text(BASE.format(c=0) + "solver.method = magic\n", None)


def test_cli_import_leaves_out_scipy_integrate_and_optimize():
    # scipy.integrate and scipy.optimize each cost hundreds of milliseconds on
    # every command line start, so no scipy module loads at import: the solver
    # loads scipy's LAPACK extension at its first factorization, and the sine
    # transform numpy.fft at its first call
    src = str(Path(beamsign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, beamsign.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_module_form_runs_the_command_line(capsys):
    # python -m beamsign.cli did nothing and exited 0 without a __main__ block
    src = str(Path(beamsign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["spectrum", "--p", "0"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    done = subprocess.run([sys.executable, "-m", "beamsign.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
    done = subprocess.run([sys.executable, "-m", "beamsign.cli", "solve"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: input:")


def test_commands_leave_out_scipy_linalg(tmp_path):
    # the solver loads scipy's LAPACK extension on its own, so no command pays
    # the few hundred milliseconds of importing scipy.linalg and what it pulls in
    src = str(Path(beamsign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = write_problem(tmp_path, BASE.format(c=-900))
    positive = write_problem(tmp_path, BASE.format(c=0), "positive.txt")
    for argv in (
        ["spectrum", "--p", "5", "--a", "0", "--b", "2"],
        ["check", str(path)],
        ["verify", str(positive)],
        ["solve", str(positive), "--out", str(tmp_path / "u.csv")],
        ["sweep", str(positive), "--param", "c", "--from", "0", "--to", "-300",
         "--steps", "3", "--out", str(tmp_path / "sweep.csv")],
        ["greens", "--m", "0", "--n", "50", "--out", str(tmp_path / "g.csv")],
    ):
        code = (
            "import sys, beamsign, beamsign.cli; "
            f"code = beamsign.cli.run({argv!r}); "
            "print(code, [m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing') "
            "if m in sys.modules], file=sys.stderr)"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.strip().splitlines()[-1] == "0 []", (argv[0], done.stderr)


def test_nonfinite_p_is_an_input_error(tmp_path, capsys):
    # NaN slipped past every p < 0 check and surfaced as a numerical failure
    for p in ("nan", "inf"):
        assert run(["spectrum", "--p", p]) == 1
        assert capsys.readouterr().err == f"error: input: p must be finite and nonnegative, got {p}\n"
        assert run(["greens", "--m", "0", "--p", p, "--out", str(tmp_path / "g.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: input: p must be finite")
        path = write_problem(tmp_path, BASE.format(c=0).replace("p = 0", f"p = {p}"), f"{p}.txt")
        assert run(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: input: p must be finite")
    assert not (tmp_path / "g.csv").exists()


def test_lambda2_overflow_is_an_input_error(tmp_path, capsys):
    assert run(["spectrum", "--p", "1e150"]) == 0
    assert "lambda2        = -2.4999999999999998e+299\n" in capsys.readouterr().out
    assert run(["spectrum", "--p", "1e160"]) == 1
    assert capsys.readouterr().err == "error: input: lambda2 overflows float64 at p = 1e+160\n"
    path = write_problem(tmp_path, BASE.format(c=0).replace("p = 0", "p = 1e160"))
    assert run(["check", str(path)]) == 1
    assert "lambda2 overflows float64 at p = 1e+160" in capsys.readouterr().err


def test_tiny_interval_is_an_input_error(tmp_path, capsys):
    # the thresholds scale like L**-4 and leave float64 below L ~ 1e-77
    for b in ("1e-80", "1e-110", "1e-170"):
        assert run(["spectrum", "--b", b]) == 1
        assert capsys.readouterr().err == (
            f"error: input: lambda_1 overflows float64 at p = 0.0 on an interval of length L = {b}\n"
        )
        path = write_problem(tmp_path, BASE.format(c=0).replace("interval.b = 1", f"interval.b = {b}"))
        assert run(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input: ") and f"on an interval of length L = {b}\n" in err
    # the discrete operator, (2/h)^2 ((2/h)^2 + p), leaves float64 first; the
    # Thm5_1 bound r = L^4 / (2 pi^3) of c = 0 is still representable there
    path = write_problem(
        tmp_path, BASE.format(c=0).replace("interval.b = 1", "interval.b = 1e-76") + "grid.n = 200\n"
    )
    assert run(["solve", str(path), "--out", str(tmp_path / "u.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: input: the discrete operator overflows float64 at p = 0.0 on an interval of length L = 1e-76\n"
    )
    assert run(["check", str(path)]) == 0
    assert _r_bound(capsys.readouterr().out) == pytest.approx(1e-76**4 / (2.0 * np.pi**3), rel=1e-12)
    for m in ("0", "-3"):
        assert run(["greens", "--m", m, "--b", "1e-75", "--out", str(tmp_path / "g.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: input: the discrete operator overflows float64 at p = 0.0 on an interval of length L = 1e-75\n"
        )
    grid = beamsign.Grid(beamsign.Interval(0.0, 1e-75), 200)
    for cv in (np.zeros(201), np.linspace(0.0, 1.0, 201)):  # the closed form and the split path
        with pytest.raises(ValueError, match="the discrete operator overflows float64"):
            beamsign.greens_discrete(0.0, beamsign.ScalarField(grid, cv), grid)
    assert not (tmp_path / "u.csv").exists() and not (tmp_path / "g.csv").exists()
    assert run(["spectrum", "--b", "1e-60"]) == 0
    assert capsys.readouterr().out == (
        "p              = 0.0\n"
        "interval       = [0.0, 1e-60]\n"
        "lambda1        = 9.740909103400241e+241\n"
        "lambda1_prime  = 1.5585454565440386e+243\n"
        "lambda2        = -9.50884270124467e+242\n"
        "lambda3        = 2.3772106753111673e+242\n"
        "delta1         = 3.947841760435744e+181\n"
    )


def _r_bound(out):
    return float(out.split("r_bound = ", 1)[1].split("\n", 1)[0])


def _threshold(out, rule, inequality):
    # the right-hand side of one row of the check table
    for line in out.splitlines():
        if line.startswith(rule) and line.endswith(inequality):
            return float(line.split()[4])
    raise AssertionError(f"no row {rule} ... {inequality}")


@pytest.mark.parametrize("b", ["1e-20", "1e-50"])
def test_check_keeps_the_thm6_1_threshold_finite_for_a_huge_coefficient(tmp_path, capsys, b):
    # (delta1 - int c_minus) sqrt(lambda1) overflowed float64 before the
    # division by sqrt(delta1), although the threshold, about
    # -(pi / 2) 2e306 sqrt(L), is representable
    text = BASE.format(c="-2e306").replace("interval.b = 1", f"interval.b = {b}") + "grid.n = 200\n"
    path = write_problem(tmp_path, text)
    assert run(["check", str(path)]) == 0
    threshold = _threshold(capsys.readouterr().out, "Thm6_1_pos_h", "/ sqrt(delta1)")
    assert threshold == pytest.approx(-np.pi * 1e306 * np.sqrt(float(b)), rel=1e-6)


def test_check_gives_the_thm5_1_bound_on_a_short_interval(tmp_path, capsys):
    # with c = 0 the bound is r = sqrt(L / (delta1 lambda1)) = L^4 / (2 pi^3);
    # the product (delta1 - int c_minus) sqrt(lambda1), about 4 pi^4 L^-5,
    # overflowed float64 from about L = 7e-62 down
    path = write_problem(tmp_path, BASE.format(c=0).replace("interval.b = 1", "interval.b = 1e-62"))
    assert run(["check", str(path)]) == 0
    assert _r_bound(capsys.readouterr().out) == pytest.approx(1e-62**4 / (2.0 * np.pi**3), rel=1e-12)


def test_check_integrates_a_huge_coefficient_without_overflow(tmp_path, capsys):
    # the Simpson sum of c_minus = 2e306 on 200 panels overflowed float64 and
    # the Thm6_1_pos_h threshold guard then reported an input error, although
    # int c_minus = 2e306 is representable
    path = write_problem(tmp_path, BASE.format(c="-2e306") + "grid.n = 200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Thm5_1_unique    no   2e+306                   <" in out
    assert "rule = Prop4_2_unique\n" in out


def test_nan_fixed_point_tolerance_is_an_input_error(tmp_path, capsys):
    text = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        "c.kind = expression\nc.expr = -250 + 20*sin(pi*t)\n"
        "h.kind = constant\nh.value = 1\n"
        "grid.n = 200\nsolver.method = fixed-point\nsolver.tol = nan\n"
    )
    path = write_problem(tmp_path, text)
    assert run(["solve", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "error: input: tol must be positive, got nan\n"


@pytest.mark.parametrize("command", ["check", "solve", "verify"])
@pytest.mark.parametrize("moment", ["nan", "-inf"])
def test_nonfinite_end_moment_is_an_input_error(tmp_path, capsys, command, moment):
    path = write_problem(tmp_path, BASE.format(c=-250) + f"bc.d1 = {moment}\n")
    extra = ["--out", str(tmp_path / "u.csv")] if command == "solve" else []
    assert run([command, str(path)] + extra) == 1
    assert capsys.readouterr().err == (
        f"error: input: end moments must be finite, got d1 = {moment}, d2 = 0.0\n"
    )


def test_samples_header_is_the_first_row_not_blank_or_a_comment(tmp_path, capsys):
    nodes = np.linspace(0.0, 1.0, 9)
    rows = [f"{repr(float(t))},-200.0" for t in nodes]
    text = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        "c.kind = samples\nc.path = cfield.csv\n"
        "h.kind = constant\nh.value = 1\n"
        "grid.n = 8\n"
    )
    path = write_problem(tmp_path, text)
    (tmp_path / "cfield.csv").write_text("\n".join(["# c at the grid nodes", "", "t,value"] + rows))
    assert run(["check", str(path)]) == 0
    assert "rule = Cor2_1_neg" in capsys.readouterr().out
    (tmp_path / "cfield.csv").write_text("\n".join(["t,value", "t,value"] + rows))
    assert run(["check", str(path)]) == 1
    assert capsys.readouterr().err.endswith("cfield.csv:2: non-numeric row 't,value'\n")


def test_to_problem_tokenizes_each_expression_once(monkeypatch):
    # expression texts that no other test parses, so no earlier parse is reused
    c_expr = "-0.40625*t + 3.078125"
    h_expr = "1 + 0.0390625*sin(pi*t)"
    tokenized = []
    tokenize = expressions._tokenize
    monkeypatch.setattr(
        expressions, "_tokenize", lambda source: tokenized.append(source) or tokenize(source)
    )
    text = (
        "interval.a = 0\ninterval.b = 1\np = 0\n"
        f"c.kind = expression\nc.expr = {c_expr}\n"
        f"h.kind = expression\nh.expr = {h_expr}\n"
    )
    to_problem(parse_problem_text(text, None))
    assert sorted(tokenized) == sorted([c_expr, h_expr])


def test_every_scalar_key_is_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Problem files", 1)[1].split("\n## ", 1)[0]
    for key in [*cli._REQUIRED, *cli._OPTIONAL]:
        assert key in cli.__doc__
        assert f"\n{key} = " in block


_FIELD_PAYLOADS = {
    "constant": st.floats().map(repr),
    "expression": st.sampled_from(
        ["t", "1000*sin(pi*t)^2", "-250 + 20*sin(pi*t)", "exp(-t)/(1 + t^2)", "abs(t - 0.5)"]
    ),
    "samples": st.text(alphabet="abcxyz019._/-", min_size=1, max_size=12),
}
_OPTIONAL_VALUES = {
    float: st.floats().map(repr),
    int: st.integers().map(str),
    cli._METHODS: st.sampled_from(cli._METHODS),
}


@st.composite
def _problem_texts(draw):
    lines = [f"{key} = {draw(st.floats().map(repr))}" for key in cli._REQUIRED]
    for name in ("c", "h"):
        kind = draw(st.sampled_from(sorted(_FIELD_PAYLOADS)))
        lines.append(f"{name}.kind = {kind}")
        lines.append(f"{name}.{cli._KIND_PAYLOAD[kind]} = {draw(_FIELD_PAYLOADS[kind])}")
    present = {}
    for key, (_, kind) in cli._OPTIONAL.items():
        if draw(st.booleans()):
            present[key] = draw(_OPTIONAL_VALUES[kind])
            lines.append(f"{key} = {present[key]}")
    order = draw(st.permutations(lines))
    return "\n".join(order) + "\n", present


@settings(max_examples=200, deadline=None)
@given(_problem_texts())
def test_dump_config_round_trips_every_key(case):
    text, present = case
    pf = parse_problem_text(text, Path("."))
    canon = dump_config(pf)
    assert dump_config(parse_problem_text(canon, Path("."))) == canon
    defaults = ProblemFile(a=0.0, b=1.0, p=0.0, c_kind="constant", c_payload="0",
                           h_kind="constant", h_payload="0")
    for key, (field, kind) in cli._OPTIONAL.items():
        expected = getattr(defaults, field) if key not in present else (
            present[key] if isinstance(kind, tuple) else kind(present[key]))
        assert repr(getattr(pf, field)) == repr(expected)
