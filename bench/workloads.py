"""One op of each workload, with its correctness checks.

An op times only the calls into the package; the benchmark's own checks run
after the clock stops.  An op fails when a call raises, a child exits
nonzero, or a check fails, and the failure is tagged with one cause.  Spans
are opened around each call into a layer's public function.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracle

import beamsign
from beamsign import (
    ConvergenceError,
    ProblemSpec,
    ResonanceError,
    RootSearchError,
    SpectralData,
    assemble,
    direct_solve,
    fixed_point_solve,
    greens_constant,
    greens_discrete,
    parse_expression,
    sign_certificate,
    sign_scan,
    smallest_eigenvalue,
    superposition_solve,
    verdict,
)

# kernel checks: relative agreement required
SYMMETRY_RTOL = 1e-9
SUPERPOSITION_RTOL = 1e-8
EIGENVALUE_RTOL = 1e-8
SERIES_RTOL = 4.0


@dataclass
class Outcome:
    seconds: float             # timed wall of the package calls
    cause: str | None = None   # None when the op passed every check
    detail: str = ""
    counts: dict = field(default_factory=dict)   # per-layer counters of this op


def _layer_of(exc: BaseException) -> str:
    """Module of the package that raised ``exc`` (innermost package frame)."""
    layer = "package"
    tb = exc.__traceback__
    pkg = os.path.dirname(beamsign.__file__)
    while tb is not None:
        fname = tb.tb_frame.f_code.co_filename
        if os.path.dirname(fname) == pkg:
            layer = os.path.splitext(os.path.basename(fname))[0]
        tb = tb.tb_next
    return layer


def classify(exc: BaseException) -> str:
    """Failure cause of an exception raised by a package call."""
    if isinstance(exc, ResonanceError):
        return "resonance." + _layer_of(exc)
    if isinstance(exc, RootSearchError):
        return "root_search"
    if isinstance(exc, ConvergenceError):
        return "convergence"
    if isinstance(exc, ValueError):
        return "input"
    return "error." + type(exc).__name__


# ---------------------------------------------------------------------------
# corpus: verify one problem, the way ``beamsign verify`` does


def corpus_op(prob, tr, work: Path, thresholds: dict) -> Outcome:
    """``thresholds`` memoises the threshold check per (p, a, b) when tracing is off."""
    counts: dict = {}
    t0 = perf_counter()
    try:
        with tr.span("op.corpus"):
            with tr.span("cli.parse"):
                pf, problem = inputs.problem_inputs(prob.text, work)
            with tr.span("principles.verdict"):
                v = verdict(problem)
            if pf.method == "direct":
                with tr.span("solver.direct_solve"):
                    sol = direct_solve(problem)
            elif pf.method == "superposition":
                with tr.span("greens.superposition"):
                    sol = superposition_solve(problem)
            else:
                if v.predicted_sign not in ("positive", "negative"):
                    raise ValueError("fixed-point needs a sign verdict to pick its mode")
                with tr.span("solver.fixed_point_solve"):
                    run = fixed_point_solve(problem, mode=v.predicted_sign, tol=pf.tol,
                                            max_iter=pf.max_iter)
                sol = run.solution
                counts["fixed_point_iterations"] = sol.iterations
            with tr.span("solver.sign_certificate"):
                cert = sign_certificate(sol)
    except Exception as exc:  # every failure of a package call is counted, by cause
        return Outcome(perf_counter() - t0, classify(exc), str(exc)[:200], counts)
    seconds = perf_counter() - t0
    counts["predicted"] = v.predicted_sign in ("positive", "negative")

    # checks: thresholds against the oracle, backward error, sign, a-priori bound
    pair = prob.pair
    key = (pair.p, pair.a, pair.length)
    if tr.enabled or key not in thresholds:
        with tr.span("spectrum.compute"):
            sd = SpectralData.compute(problem.p, problem.interval)
        thresholds[key] = oracle.threshold_mismatch(pair, sd.lambda2, sd.lambda3)
    if thresholds[key]:
        return Outcome(seconds, "misroot", thresholds[key], counts)
    if tr.enabled and pf.c_kind == "expression":
        with tr.span("expressions.eval"):
            parse_expression(pf.c_payload)(problem.grid.nodes)
    ab = oracle.band(problem.p, problem.c.values, pair.length, pf.n)
    b = oracle.rhs(problem.h.values, problem.d1, problem.d2, pair.length, pf.n)
    eta = oracle.backward_error(ab, sol.u.values, b)
    counts["backward_error"] = eta
    limit = oracle.solve_tolerance(pf.n)
    if not eta <= limit:
        return Outcome(seconds, "backward_error", f"eta = {eta:.3e} > {limit:.3e}", counts)
    if v.predicted_sign in ("positive", "negative"):
        if cert.verdict != f"strongly_{v.predicted_sign}":
            return Outcome(seconds, "unsound", f"{v.rule} predicts {v.predicted_sign}, "
                           f"certificate {cert.verdict}", counts)
    if v.r_bound is not None:
        observed = float(np.max(np.abs(np.asarray(sol.u.values, dtype=np.float64))))
        bound = v.r_bound * float(np.max(np.abs(problem.h.values)))
        if not observed <= bound * 1.01:
            return Outcome(seconds, "bound", f"sup|u| = {observed:.6g} > {bound:.6g}", counts)
    return Outcome(seconds, None, "", counts)


# ---------------------------------------------------------------------------
# kernels: one dense kernel task


def kernel_op(task, tr) -> Outcome:
    counts: dict = {}
    grid, c, h = inputs.kernel_inputs(task)
    problem = ProblemSpec(interval=grid.interval, p=task.p, c=c, h=h)
    t0 = perf_counter()
    try:
        with tr.span("op.kernels"):
            with tr.span("greens.discrete"):
                G = greens_discrete(task.p, c, grid)
            with tr.span("greens.sign_scan"):
                sign_scan(G)
            with tr.span("greens.superposition"):
                sup = superposition_solve(problem)
            with tr.span("solver.direct_solve"):
                sol = direct_solve(problem)
            with tr.span("solver.sign_certificate"):
                sign_certificate(sol)
            Gc = None
            if task.c_kind == "constant":
                with tr.span("greens.constant"):
                    Gc = greens_constant(task.p, task.m, grid)
            op = assemble(task.p, c, grid)
            with tr.span("solver.smallest_eigenvalue"):
                lam_min = smallest_eigenvalue(op)
    except Exception as exc:  # every failure of a package call is counted, by cause
        return Outcome(perf_counter() - t0, classify(exc), str(exc)[:200], counts)
    seconds = perf_counter() - t0
    counts["kernel_bytes"] = sum(np.asarray(K.values).nbytes for K in (G, Gc) if K is not None)

    g = np.asarray(G.values, dtype=np.float64)
    scale = float(np.max(np.abs(g)))
    asym = float(np.max(np.abs(g - g.T)))
    if not asym <= SYMMETRY_RTOL * scale:
        return Outcome(seconds, "kernel_symmetry", f"max|G - G^T| = {asym:.3e}", counts)
    ud = np.asarray(sol.u.values, dtype=np.float64)
    us = np.asarray(sup.u.values, dtype=np.float64)
    gap = float(np.max(np.abs(us - ud)))
    if not gap <= SUPERPOSITION_RTOL * float(np.max(np.abs(ud))):
        return Outcome(seconds, "superposition", f"max|u_sup - u_direct| = {gap:.3e}", counts)
    ab = oracle.band(task.p, c.values, task.length, task.n)
    eta = oracle.backward_error(ab, ud, oracle.rhs(h.values, 0.0, 0.0, task.length, task.n))
    counts["backward_error"] = eta
    if not eta <= oracle.solve_tolerance(task.n):
        return Outcome(seconds, "backward_error", f"eta = {eta:.3e}", counts)
    if Gc is not None:
        # the series kernel is the continuous one: the two differ by O(spacing^2)
        dev = float(np.max(np.abs(np.asarray(Gc.values, dtype=np.float64) - g)))
        if not dev <= SERIES_RTOL * (np.pi / task.n) ** 2 * scale + Gc.tail_bound:
            return Outcome(seconds, "series", f"max|G_series - G| = {dev:.3e}", counts)
    ref, accuracy = oracle.smallest_eigenvalue(task.p, c.values, task.length, task.n)
    if not abs(lam_min - ref) <= max(EIGENVALUE_RTOL * abs(ref), accuracy):
        return Outcome(seconds, "eigenvalue", f"{lam_min!r} vs {ref!r}", counts)
    return Outcome(seconds, None, "", counts)


# ---------------------------------------------------------------------------
# cli: one call of the console entry point in a fresh interpreter

# what the ``beamsign`` console script runs
ENTRY = "import sys; from beamsign.cli import main; sys.exit(main())"


@dataclass
class Child:
    seconds: float
    code: int
    out: str
    err: str
    maxrss_kb: int


def spawn(argv: list[str], work: Path, importtime: bool = False) -> Child:
    """Run the entry point with ``argv``; stdout and stderr go to files in ``work``."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", ENTRY] + argv
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = perf_counter() - t0
    return Child(seconds, os.waitstatus_to_exitcode(status), out_path.read_text(),
                 err_path.read_text(), usage.ru_maxrss)


def call_argv(call, work: Path) -> list[str]:
    return [call.command] + [a.replace("{work}", str(work)) for a in call.args]


def csv_path(call, work: Path) -> Path:
    """The CSV file a solve, sweep or greens call writes."""
    return Path(call.args[call.args.index("--out") + 1].replace("{work}", str(work)))


_ERROR_CAUSES = (
    ("singular or near resonance", "resonance"),
    ("sign change", "root_search"),
    ("root residual", "root_search"),
    ("contradicts predicted sign", "unsound"),
    ("bound violated", "bound"),
    ("did not reach tol", "convergence"),
)


def cli_cause(call, code: int, out: str, err: str, work: Path) -> tuple[str | None, str]:
    """Failure cause of one CLI call from its exit status and outputs."""
    if code != 0:
        line = next((ln for ln in err.splitlines() if ln.startswith("error: ")), f"exit {code}")
        for needle, cause in _ERROR_CAUSES:
            if needle in line:
                if cause == "resonance":
                    cause += ".greens" if call.command == "greens" else ".solver"
                return cause, line[:200]
        return ("input" if line.startswith("error: input") else f"exit.{code}"), line[:200]
    if call.pair is not None and call.command in ("spectrum", "check", "verify"):
        lam2, lam3 = _printed_thresholds(call.command, out)
        if lam2 is None:
            return "output", "thresholds missing from the output"
        mismatch = oracle.threshold_mismatch(call.pair, lam2, lam3)
        if mismatch:
            return "misroot", mismatch
    if call.rows:
        lines = csv_path(call, work).read_text().splitlines()
        if len(lines) != call.rows:
            return "csv_rows", f"{len(lines)} lines, expected {call.rows}"
        if call.command == "sweep":
            for row in lines[1:]:
                _, _, predicted, observed = row.split(",")
                if observed == "error":
                    return "resonance.solver", row
                if predicted in ("positive", "negative") and observed != f"strongly_{predicted}":
                    return "unsound", row
    return None, ""


def _printed_thresholds(command: str, out: str):
    """lambda2 and lambda3 as printed by spectrum, or as -rhs of the Cor2_1 rows of check."""
    lam2 = lam3 = None
    for line in out.splitlines():
        parts = line.split()
        if command == "spectrum" and len(parts) == 3 and parts[1] == "=":
            if parts[0] == "lambda2":
                lam2 = float(parts[2])
            elif parts[0] == "lambda3":
                lam3 = float(parts[2])
        elif len(parts) >= 6 and parts[0].startswith("Cor2_1"):
            label = " ".join(parts[5:])
            if label == "c_max <= -lambda2":
                lam2 = -float(parts[4])
            elif label == "c_min >= -lambda3":
                lam3 = -float(parts[4])
    return (lam2, lam3) if lam2 is not None and lam3 is not None else (None, None)


def cli_op(call, work: Path, importtime: bool = False) -> tuple[Outcome, Child]:
    child = spawn(call_argv(call, work), work, importtime)
    cause, detail = cli_cause(call, child.code, child.out, child.err, work)
    counts = {"maxrss_kb": child.maxrss_kb}
    if call.rows and child.code == 0:
        counts["csv_bytes"] = csv_path(call, work).stat().st_size
    return Outcome(child.seconds, cause, detail, counts), child
