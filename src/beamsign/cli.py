"""Command line front end.

Problem files are flat ``key = value`` text; ``#`` starts a comment.  Keys:

    interval.a, interval.b   endpoints (required)
    p                        second-order coefficient, p >= 0 (required)
    c.kind                   constant | expression | samples (required)
    c.value | c.expr | c.path   payload matching the kind (required)
    h.kind, h.value | h.expr | h.path   the load, same scheme (required)
    bc.d1, bc.d2             end moments, <= 0 (default 0)
    grid.n                   subinterval count, even, >= 8 (default 400)
    solver.method            direct | superposition | fixed-point (default direct)
    solver.tol               fixed-point tolerance (default 1e-10)
    solver.max_iter          fixed-point step limit (default 200)

Unknown or duplicate keys are rejected.  Sample files are CSV rows ``t,value``
whose t column must match the grid nodes; relative paths are resolved against
the directory of the problem file.

Exit status: 0 on success, 1 on input errors, 2 on numerical failures; every
nonzero exit prints one ``error: <class>: <reason>`` line to stderr.  Floats
in CSV outputs use shortest round-trip formatting, so outputs are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .expressions import ExpressionError, parse_expression
from .fields import Grid, Interval, ProblemSpec, ScalarField, diff, sup_norm
from .greens import greens_discrete
from .principles import verdict
from .solver import direct_solve, fixed_point_solve, sign_certificate, superposition_solve
from .spectrum import SpectralData, delta1_alt

__all__ = ["ProblemFile", "load_problem_file", "dump_config", "run", "main"]


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# problem files


_KIND_PAYLOAD = {"constant": "value", "expression": "expr", "samples": "path"}
_METHODS = ("direct", "superposition", "fixed-point")


@dataclass(eq=False)
class ProblemFile:
    """Parsed problem file, prior to sampling anything on a grid."""

    a: float
    b: float
    p: float
    c_kind: str
    c_payload: str
    h_kind: str
    h_payload: str
    d1: float = 0.0
    d2: float = 0.0
    n: int = 400
    method: str = "direct"
    tol: float = 1e-10
    max_iter: int = 200
    base_dir: Path = Path(".")


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key}: {raw!r} is not a number") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key}: {raw!r} is not an integer") from None


def _field_spec(pairs: dict, name: str) -> tuple[str, str]:
    kind_key = f"{name}.kind"
    if kind_key not in pairs:
        raise ValueError(f"missing required key {kind_key}")
    kind = pairs.pop(kind_key)
    if kind not in _KIND_PAYLOAD:
        raise ValueError(f"{kind_key}: expected constant, expression, or samples, got {kind!r}")
    payload_key = f"{name}.{_KIND_PAYLOAD[kind]}"
    for suffix in _KIND_PAYLOAD.values():
        key = f"{name}.{suffix}"
        if key != payload_key and key in pairs:
            raise ValueError(f"{key} conflicts with {kind_key} = {kind}")
    if payload_key not in pairs:
        raise ValueError(f"missing required key {payload_key}")
    payload = pairs.pop(payload_key)
    if kind == "constant":
        _parse_float(payload_key, payload)
    elif kind == "expression":
        parse_expression(payload)  # syntax-check now; offsets refer to the value text
    return kind, payload


def parse_problem_text(text: str, base_dir: Path) -> ProblemFile:
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key}")
        pairs[key] = value

    for required in ("interval.a", "interval.b", "p"):
        if required not in pairs:
            raise ValueError(f"missing required key {required}")
    a = _parse_float("interval.a", pairs.pop("interval.a"))
    b = _parse_float("interval.b", pairs.pop("interval.b"))
    p = _parse_float("p", pairs.pop("p"))
    c_kind, c_payload = _field_spec(pairs, "c")
    h_kind, h_payload = _field_spec(pairs, "h")
    d1 = _parse_float("bc.d1", pairs.pop("bc.d1")) if "bc.d1" in pairs else 0.0
    d2 = _parse_float("bc.d2", pairs.pop("bc.d2")) if "bc.d2" in pairs else 0.0
    n = _parse_int("grid.n", pairs.pop("grid.n")) if "grid.n" in pairs else 400
    method = pairs.pop("solver.method", "direct")
    if method not in _METHODS:
        raise ValueError(f"solver.method: expected one of {', '.join(_METHODS)}, got {method!r}")
    tol = _parse_float("solver.tol", pairs.pop("solver.tol")) if "solver.tol" in pairs else 1e-10
    max_iter = (
        _parse_int("solver.max_iter", pairs.pop("solver.max_iter"))
        if "solver.max_iter" in pairs
        else 200
    )
    if pairs:
        raise ValueError(f"unknown keys: {', '.join(sorted(pairs))}")
    return ProblemFile(
        a=a, b=b, p=p,
        c_kind=c_kind, c_payload=c_payload,
        h_kind=h_kind, h_payload=h_payload,
        d1=d1, d2=d2, n=n, method=method, tol=tol, max_iter=max_iter,
        base_dir=base_dir,
    )


def load_problem_file(path) -> ProblemFile:
    path = Path(path)
    return parse_problem_text(path.read_text(), path.parent)


def _read_samples(path: Path, grid: Grid, key: str) -> np.ndarray:
    rows = []
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{key}: {path}:{lineno}: expected 't,value', got {line!r}")
        if lineno == 1 and not _is_number(parts[0]):
            continue  # header row
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"{key}: {path}:{lineno}: non-numeric row {line!r}") from None
    if len(rows) != grid.n + 1:
        raise ValueError(f"{key}: {path} has {len(rows)} samples, the grid needs {grid.n + 1}")
    ts = np.array([t for t, _ in rows])
    nodes = grid.nodes
    if not np.all(np.abs(ts - nodes) <= 1e-9 * np.maximum(1.0, np.abs(nodes))):
        raise ValueError(f"{key}: {path}: sample abscissae do not match the grid nodes")
    return np.array([v for _, v in rows])


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _build_field(grid: Grid, kind: str, payload: str, base_dir: Path, key: str) -> ScalarField:
    if kind == "constant":
        return ScalarField.constant(grid, float(payload))
    if kind == "expression":
        return ScalarField(grid, parse_expression(payload)(grid.nodes))
    return ScalarField(grid, _read_samples(base_dir / payload, grid, key))


def to_problem(pf: ProblemFile) -> ProblemSpec:
    interval = Interval(pf.a, pf.b)
    grid = Grid(interval, pf.n)
    c = _build_field(grid, pf.c_kind, pf.c_payload, pf.base_dir, "c")
    h = _build_field(grid, pf.h_kind, pf.h_payload, pf.base_dir, "h")
    return ProblemSpec(interval=interval, p=pf.p, c=c, h=h, d1=pf.d1, d2=pf.d2)


def dump_config(pf: ProblemFile) -> str:
    lines = [
        f"interval.a = {_fmt(pf.a)}",
        f"interval.b = {_fmt(pf.b)}",
        f"p = {_fmt(pf.p)}",
        f"c.kind = {pf.c_kind}",
    ]
    payload = pf.c_payload if pf.c_kind != "constant" else _fmt(float(pf.c_payload))
    lines.append(f"c.{_KIND_PAYLOAD[pf.c_kind]} = {payload}")
    lines.append(f"h.kind = {pf.h_kind}")
    payload = pf.h_payload if pf.h_kind != "constant" else _fmt(float(pf.h_payload))
    lines.append(f"h.{_KIND_PAYLOAD[pf.h_kind]} = {payload}")
    lines += [
        f"bc.d1 = {_fmt(pf.d1)}",
        f"bc.d2 = {_fmt(pf.d2)}",
        f"grid.n = {pf.n}",
        f"solver.method = {pf.method}",
        f"solver.tol = {_fmt(pf.tol)}",
        f"solver.max_iter = {pf.max_iter}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _maybe_dump(args, pf: ProblemFile) -> None:
    if getattr(args, "dump_config", None):
        Path(args.dump_config).write_text(dump_config(pf))


def _solve_by_method(pf: ProblemFile, problem: ProblemSpec):
    if pf.method == "direct":
        return direct_solve(problem)
    if pf.method == "superposition":
        return superposition_solve(problem)
    v = verdict(problem)
    if v.predicted_sign == "positive":
        mode = "positive"
    elif v.predicted_sign == "negative":
        mode = "negative"
    else:
        raise ValueError(
            "fixed-point needs a sign verdict to pick its mode; this problem has none"
        )
    run = fixed_point_solve(problem, mode=mode, tol=pf.tol, max_iter=pf.max_iter)
    return run.solution


def cmd_spectrum(args) -> int:
    interval = Interval(args.a, args.b)
    sd = SpectralData.compute(args.p, interval)
    print(f"p              = {_fmt(sd.p)}")
    print(f"interval       = [{_fmt(interval.a)}, {_fmt(interval.b)}]")
    print(f"lambda1        = {_fmt(sd.lambda1)}")
    print(f"lambda1_prime  = {_fmt(sd.lambda1_prime)}")
    print(f"lambda2        = {_fmt(sd.lambda2)}")
    print(f"lambda3        = {_fmt(sd.lambda3)}")
    print(f"delta1         = {_fmt(sd.delta1)}")
    alt = delta1_alt(args.p, interval)
    if alt != sd.delta1:
        print(f"delta1_alt     = {_fmt(alt)}  # variant reading with (b-a)^(3/2) scaling")
    return 0


def _print_verdict(v) -> None:
    header = f"{'rule':<16} {'ok':<4} {'lhs':<24} {'rel':<3} {'rhs':<24} inequality"
    print(header)
    for rec in v.details:
        ok = "yes" if rec.satisfied else "no"
        print(
            f"{rec.rule:<16} {ok:<4} {_fmt(rec.lhs):<24} {rec.relation:<3}"
            f" {_fmt(rec.rhs):<24} {rec.label}"
        )
    print(f"rule = {v.rule}")
    print(f"predicted_sign = {v.predicted_sign}")
    print(f"transfers_to_nonhomogeneous = {'true' if v.transfers_to_nonhomogeneous else 'false'}")
    print(f"r_bound = {_fmt(v.r_bound) if v.r_bound is not None else 'none'}")
    for note in v.notes:
        print(f"note: {note}")


def cmd_check(args) -> int:
    pf = load_problem_file(args.file)
    _maybe_dump(args, pf)
    v = verdict(to_problem(pf))
    _print_verdict(v)
    return 0


def cmd_solve(args) -> int:
    pf = load_problem_file(args.file)
    _maybe_dump(args, pf)
    problem = to_problem(pf)
    sol = _solve_by_method(pf, problem)
    nodes = problem.grid.nodes
    du = diff(sol.u, 1).values
    d2u = diff(sol.u, 2).values
    lines = ["t,u,du,d2u"]
    for i in range(problem.grid.n + 1):
        lines.append(f"{_fmt(nodes[i])},{_fmt(sol.u.values[i])},{_fmt(du[i])},{_fmt(d2u[i])}")
    lines.append(
        f"# residual_norm = {_fmt(sol.residual_norm)} method = {sol.method}"
        f" iterations = {sol.iterations}"
    )
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} (method = {sol.method}, residual_norm = {_fmt(sol.residual_norm)})")
    return 0


def cmd_verify(args) -> int:
    pf = load_problem_file(args.file)
    _maybe_dump(args, pf)
    problem = to_problem(pf)
    v = verdict(problem)
    sol = direct_solve(problem)
    cert = sign_certificate(sol)
    _print_verdict(v)
    print(f"method = {sol.method}")
    print(f"residual_norm = {_fmt(sol.residual_norm)}")
    print(
        f"certificate: interior_sign = {cert.interior_sign}"
        f" min_abs_interior = {_fmt(cert.min_abs_interior)}"
        f" slope_a = {_fmt(cert.slope_a)} slope_b = {_fmt(cert.slope_b)}"
        f" verdict = {cert.verdict}"
    )
    observed_max = sup_norm(sol.u)
    bound_ok = True
    bound_part = ""
    if v.r_bound is not None:
        bound = v.r_bound * sup_norm(problem.h)
        bound_ok = observed_max <= bound * 1.01
        bound_part = f", bound {_fmt(bound)} >= observed max {_fmt(observed_max)}"
    if v.predicted_sign not in ("positive", "negative"):
        print(f"no sign verdict; observed {cert.verdict}{bound_part}")
        if not bound_ok:
            print("FAIL, a-priori bound violated", file=sys.stderr)
            raise NumericalError("a-priori solution bound violated by the computed solution")
        return 0
    expected = "strongly_positive" if v.predicted_sign == "positive" else "strongly_negative"
    if cert.verdict == expected and bound_ok:
        print(f"PASS, observed {cert.verdict}{bound_part}")
        return 0
    print(f"FAIL, observed {cert.verdict}{bound_part}")
    raise NumericalError(
        f"certificate {cert.verdict} contradicts predicted sign {v.predicted_sign}"
        if cert.verdict != expected
        else "a-priori solution bound violated by the computed solution"
    )


def cmd_greens(args) -> int:
    grid = Grid(Interval(args.a, args.b), args.n)
    c = ScalarField.constant(grid, args.m)
    G = greens_discrete(args.p, c, grid)
    lines = [
        f"# a = {_fmt(args.a)} b = {_fmt(args.b)} n = {args.n}"
        f" p = {_fmt(args.p)} m = {_fmt(args.m)}"
    ]
    for row in np.asarray(G.values, dtype=np.float64):
        lines.append(",".join(_fmt(x) for x in row))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({grid.n + 1} x {grid.n + 1})")
    return 0


def cmd_sweep(args) -> int:
    pf = load_problem_file(args.file)
    if args.param != "c":
        raise ValueError(f"only --param c sweeps are supported, got {args.param!r}")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    values = sorted(float(x) for x in np.linspace(args.start, args.stop, args.steps))
    interval = Interval(pf.a, pf.b)
    grid = Grid(interval, pf.n)
    h = _build_field(grid, pf.h_kind, pf.h_payload, pf.base_dir, "h")
    lines = ["c,rule,predicted_sign,observed_sign"]
    for value in values:
        problem = ProblemSpec(
            interval=interval,
            p=pf.p,
            c=ScalarField.constant(grid, value),
            h=h,
            d1=pf.d1,
            d2=pf.d2,
        )
        v = verdict(problem)
        try:
            cert = sign_certificate(direct_solve(problem))
            observed = cert.verdict
        except NumericalError:
            observed = "error"
        lines.append(f"{_fmt(value)},{v.rule},{v.predicted_sign},{observed}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(values)} rows)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamsign", description="Sign analysis of hinged fourth-order problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print the spectral thresholds for (p, [a, b])")
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=1.0)

    for name, helptext in [
        ("check", "evaluate every rule on a problem file"),
        ("verify", "solve, certify the sign, and check the a-priori bound"),
    ]:
        cp = sub.add_parser(name, help=helptext)
        cp.add_argument("file")
        cp.add_argument("--dump-config", metavar="PATH")

    so = sub.add_parser("solve", help="solve a problem file and write t,u,du,d2u CSV")
    so.add_argument("file")
    so.add_argument("--out", required=True)
    so.add_argument("--dump-config", metavar="PATH")

    gr = sub.add_parser("greens", help="write the discrete kernel matrix for constant c = m")
    gr.add_argument("--p", type=float, default=0.0)
    gr.add_argument("--m", type=float, required=True)
    gr.add_argument("--a", type=float, default=0.0)
    gr.add_argument("--b", type=float, default=1.0)
    gr.add_argument("--n", type=int, default=200)
    gr.add_argument("--out", required=True)

    sw = sub.add_parser("sweep", help="sweep constant c and compare predictions to certificates")
    sw.add_argument("file")
    sw.add_argument("--param", required=True)
    sw.add_argument("--from", dest="start", type=float, required=True)
    sw.add_argument("--to", dest="stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "check": cmd_check,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "greens": cmd_greens,
    "sweep": cmd_sweep,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except ExpressionError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
