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
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .expressions import parse_expression
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


# The scalar keys: each maps to its ProblemFile field and its kind, which is
# float, int, or the tuple of words the key accepts.  Required keys are read
# before c and h, optional ones after, in table order; an absent optional key
# keeps the field's default.
_REQUIRED = {"interval.a": ("a", float), "interval.b": ("b", float), "p": ("p", float)}
_OPTIONAL = {
    "bc.d1": ("d1", float),
    "bc.d2": ("d2", float),
    "grid.n": ("n", int),
    "solver.method": ("method", _METHODS),
    "solver.tol": ("tol", float),
    "solver.max_iter": ("max_iter", int),
}


def _parse_value(key: str, raw: str, kind):
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError(f"{key}: expected one of {', '.join(kind)}, got {raw!r}")
        return raw
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key}: {raw!r} is not {noun}") from None


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
        _parse_value(payload_key, payload, float)
    elif kind == "expression":
        # syntax-check now, so offsets refer to the value text; the parse is
        # memoised, and to_problem reuses it
        parse_expression(payload)
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

    for key in _REQUIRED:
        if key not in pairs:
            raise ValueError(f"missing required key {key}")
    fields = {field: _parse_value(key, pairs.pop(key), kind)
              for key, (field, kind) in _REQUIRED.items()}
    fields["c_kind"], fields["c_payload"] = _field_spec(pairs, "c")
    fields["h_kind"], fields["h_payload"] = _field_spec(pairs, "h")
    for key, (field, kind) in _OPTIONAL.items():
        if key in pairs:
            fields[field] = _parse_value(key, pairs.pop(key), kind)
    if pairs:
        raise ValueError(f"unknown keys: {', '.join(sorted(pairs))}")
    return ProblemFile(**fields, base_dir=base_dir)


def load_problem_file(path) -> ProblemFile:
    path = Path(path)
    return parse_problem_text(path.read_text(), path.parent)


def _read_samples(path: Path, grid: Grid, key: str) -> np.ndarray:
    rows = []
    first = True
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{key}: {path}:{lineno}: expected 't,value', got {line!r}")
        if first:
            first = False
            if not _is_number(parts[0]):
                continue  # header row: the first row that is neither blank nor a comment
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
    def scalars(table):
        return [f"{key} = {_fmt(getattr(pf, field)) if kind is float else getattr(pf, field)}"
                for key, (field, kind) in table.items()]

    lines = scalars(_REQUIRED)
    for name in ("c", "h"):
        kind, payload = getattr(pf, f"{name}_kind"), getattr(pf, f"{name}_payload")
        if kind == "constant":
            payload = _fmt(float(payload))
        lines += [f"{name}.kind = {kind}", f"{name}.{_KIND_PAYLOAD[kind]} = {payload}"]
    lines += scalars(_OPTIONAL)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load(args) -> tuple[ProblemFile, ProblemSpec]:
    """Load the problem file of a check, solve or verify call; write --dump-config first."""
    pf = load_problem_file(args.file)
    if args.dump_config:
        Path(args.dump_config).write_text(dump_config(pf))
    return pf, to_problem(pf)


def _solve_by_method(pf: ProblemFile, problem: ProblemSpec):
    if pf.method == "direct":
        return direct_solve(problem)
    if pf.method == "superposition":
        return superposition_solve(problem)
    mode = verdict(problem).predicted_sign
    if mode not in ("positive", "negative"):
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
    _, problem = _load(args)
    _print_verdict(verdict(problem))
    return 0


def cmd_solve(args) -> int:
    pf, problem = _load(args)
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
    _, problem = _load(args)
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token that starts with "-" for an option unless it
        # looks like a negative number, and its pattern has no exponent: it
        # would read "--m -5e2" (also --a, --b, --from, --to) as a missing value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamsign", description="Sign analysis of hinged fourth-order problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print the spectral thresholds for (p, [a, b])")
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.set_defaults(func=cmd_spectrum)

    for name, func, helptext in [
        ("check", cmd_check, "evaluate every rule on a problem file"),
        ("verify", cmd_verify, "solve, certify the sign, and check the a-priori bound"),
        ("solve", cmd_solve, "solve a problem file and write t,u,du,d2u CSV"),
    ]:
        cp = sub.add_parser(name, help=helptext)
        cp.add_argument("file")
        if name == "solve":
            cp.add_argument("--out", required=True)
        cp.add_argument("--dump-config", metavar="PATH")
        cp.set_defaults(func=func)

    gr = sub.add_parser("greens", help="write the discrete kernel matrix for constant c = m")
    gr.add_argument("--p", type=float, default=0.0)
    gr.add_argument("--m", type=float, required=True)
    gr.add_argument("--a", type=float, default=0.0)
    gr.add_argument("--b", type=float, default=1.0)
    gr.add_argument("--n", type=int, default=200)
    gr.add_argument("--out", required=True)
    gr.set_defaults(func=cmd_greens)

    sw = sub.add_parser("sweep", help="sweep constant c and compare predictions to certificates")
    sw.add_argument("file")
    sw.add_argument("--param", required=True)
    sw.add_argument("--from", dest="start", type=float, required=True)
    sw.add_argument("--to", dest="stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
