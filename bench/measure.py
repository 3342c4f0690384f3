"""Drive one run: set-up probes, warm-up, the timed loop, metrics, result line."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

import problems
import workloads
from spans import Tracer

import beamsign
import beamsign.cli

SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_LADDER = (99, 95, 90, 75, 50)
# op_ms.tail percentile per workload, with >= 10 ops beyond it in a 30 s run
# (about 3400-4100, 500 and 36-48 ops).  Fixed, so a faster commit is compared at
# the same percentile as its parent.
OP_TAIL = {"corpus": 99, "kernels": 90, "cli": 65}
# modules whose cumulative -X importtime is reported, by metric name
IMPORT_MODULES = {
    "import.beamsign_ms": "beamsign",
    "import.cli_ms": "beamsign.cli",
    "import.fields_ms": "beamsign.fields",
    "import.solver_ms": "beamsign.solver",
}

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("ok_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("import.beamsign_ms", "ms"),
    ("import.cli_ms", "ms"),
    ("import.fields_ms", "ms"),
    ("import.solver_ms", "ms"),
    ("import.scipy_ms", "ms"),
    ("cli.run_ms.spectrum", "ms"),
    ("cli.run_ms.check", "ms"),
    ("cli.run_ms.verify", "ms"),
    ("cli.run_ms.solve", "ms"),
    ("cli.run_ms.sweep", "ms"),
    ("cli.run_ms.greens", "ms"),
    ("cli.csv_bytes", "bytes"),
    ("cli.parse_ms.p50", "ms"),
    ("expressions.eval_ms.p50", "ms"),
    ("spectrum.compute_ms.p50", "ms"),
    ("spectrum.compute_ms.tail", "ms"),
    ("spectrum.misroots", "count"),
    ("spectrum.root_errors", "count"),
    ("principles.verdict_ms.p50", "ms"),
    ("principles.verdict_ms.tail", "ms"),
    ("principles.unsound", "count"),
    ("principles.predicted_share", "1"),
    ("solver.direct_solve_ms.p50", "ms"),
    ("solver.direct_solve_ms.tail", "ms"),
    ("solver.fixed_point_ms.p50", "ms"),
    ("solver.fixed_point_iterations", "count"),
    ("solver.resonance_errors", "count"),
    ("solver.eigenvalue_errors", "count"),
    ("solver.backward_error.max", "1"),
    ("solver.sign_certificate_ms.p50", "ms"),
    ("solver.smallest_eigenvalue_ms.p50", "ms"),
    ("greens.discrete_ms.p50", "ms"),
    ("greens.discrete_ms.tail", "ms"),
    ("greens.superposition_ms.p50", "ms"),
    ("greens.constant_ms.p50", "ms"),
    ("greens.sign_scan_ms.p50", "ms"),
    ("greens.kernel_mb", "MB"),
    ("greens.resonance_errors", "count"),
    ("domain.failed_share", "1"),
    ("trace.overhead_ratio", "1"),
)


# ---------------------------------------------------------------------------
# statistics


def tail(samples) -> tuple[int, float, int]:
    """(q, value, beyond): the highest q in TAIL_LADDER with >= 10 samples above its percentile."""
    xs = np.asarray(samples, dtype=np.float64)
    for q in TAIL_LADDER:
        v = float(np.percentile(xs, q))
        beyond = int(np.sum(xs > v))
        if beyond >= 10:
            return q, v, beyond
    return 100, float(xs.max()), 0


def environment(root: Path) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    ld = np.finfo(np.longdouble)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "beamsign": beamsign.__version__,
        "git_sha": _git_sha(root),
        "longdouble": f"{ld.dtype.name}, {ld.nmant} mantissa bits, eps {float(ld.eps):.3g}",
    }


def _git_sha(root: Path) -> str:
    # read .git directly: the benchmark may run in an export without git
    head = root / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------
# child-process probes


def setup_probe(root: Path, workload: str, input_path: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "setup_probe.py"), workload, str(input_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms per module, plus the scipy total under key 'scipy*'.

    ``-X importtime`` prints each module after the modules it imported,
    indented by depth.  The scipy total sums the scipy modules that no other
    scipy module imported.
    """
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1)) / 1e3))
    parent = [None] * len(entries)
    waiting: list[int] = []
    for idx, (depth, _, _) in enumerate(entries):
        while waiting and entries[waiting[-1]][0] > depth:
            parent[waiting.pop()] = idx
        waiting.append(idx)

    def is_scipy(idx):
        name = entries[idx][1]
        return name == "scipy" or name.startswith("scipy.")

    def top_scipy(idx):
        up = parent[idx]
        while up is not None:
            if is_scipy(up):
                return False
            up = parent[up]
        return True

    out = {name: cum for _, name, cum in entries}
    out["scipy*"] = sum(entries[i][2] for i in range(len(entries)) if is_scipy(i) and top_scipy(i))
    return out


def import_probe() -> dict[str, float]:
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import beamsign.cli"],
                         capture_output=True, text=True, check=True, timeout=120)
    return parse_importtime(out.stderr)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Items of one workload and how to run one of them as an op."""

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name, self.seed, self.root, self.work = name, seed, root, work
        self.thresholds: dict = {}
        if name == "corpus":
            self.items = problems.corpus(seed)
            self.round = len(problems.P_VALUES) * problems.L_STRATA
            self.warmup = self.items[: self.round]
        elif name == "kernels":
            self.items = problems.kernels(seed)
            self.round = problems.KERNEL_ROUND
            self.warmup = self.items[:2]
        else:
            self.items = problems.cli_calls(seed)
            self.round = len(problems.CLI_COMMANDS)
            self.warmup = self.items[:1]
            write_problem_files(self.items, work)

    def op(self, item, tr) -> workloads.Outcome:
        if self.name == "corpus":
            return workloads.corpus_op(item, tr, self.work, self.thresholds)
        if self.name == "kernels":
            return workloads.kernel_op(item, tr)
        outcome, _ = workloads.cli_op(item, self.work)
        return outcome

    def probe_input(self) -> Path:
        """First op's input as a file, for the set-up probe."""
        path = self.work / "first_input.txt"
        first = self.items[0]
        if self.name == "kernels":
            path.write_text(json.dumps(dataclasses.asdict(first)))
        else:
            prob = first.problem if self.name == "cli" else first
            if prob is None:  # cli rounds may open with a subcommand that takes no file
                prob = next(c.problem for c in self.items if c.problem is not None)
            path.write_text(prob.text)
        return path


def write_problem_files(calls, work: Path) -> None:
    for call in calls:
        if call.problem is not None:
            Path(call.args[0].replace("{work}", str(work))).write_text(call.problem.text)


def timed_loop(wl: Workload, seconds: float, body) -> None:
    """Run ``body(item)`` over the items, cycling, until ``seconds`` pass; whole rounds only."""
    deadline = perf_counter() + seconds
    i = 0
    while not (i % wl.round == 0 and perf_counter() >= deadline):
        body(wl.items[i % len(wl.items)], i)
        i += 1


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    base = root / ".bench_work"
    work = base / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(workload, seed, root, work)
        print("env:", json.dumps(environment(root)))
        print(f"workload: {workload} seed: {seed} seconds: {seconds:g} trace: {int(traced)}"
              f" items: {len(wl.items)} round: {wl.round}")
        if traced:
            result = traced_run(wl, seconds, base)
        else:
            result = untraced_run(wl, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _report(outcomes) -> tuple[int, int, dict]:
    causes: dict[str, int] = {}
    example: dict[str, str] = {}
    for o in outcomes:
        if o.cause:
            causes[o.cause] = causes.get(o.cause, 0) + 1
            example.setdefault(o.cause, o.detail)
    failed = sum(causes.values())
    print(f"ops: attempted {len(outcomes)}, failed {failed}"
          f" (failed_ratio {failed / max(len(outcomes), 1):.4f})")
    for cause, k in sorted(causes.items(), key=lambda kv: -kv[1]):
        print(f"  failed by {cause}: {k} ({k / len(outcomes):.4f})")
        print(f"    first: {example[cause]}")
    return len(outcomes), failed, causes


def untraced_run(wl: Workload, seconds: float) -> dict:
    probe_input = wl.probe_input()
    setups = [setup_probe(wl.root, wl.name, probe_input) for _ in range(SETUP_PROBES)]
    tr = Tracer(False)
    for item in wl.warmup:  # lazy imports and first-use costs; not counted
        wl.op(item, tr)
    outcomes = []
    timed_loop(wl, seconds, lambda item, i: outcomes.append(wl.op(item, tr)))

    attempted, failed, _ = _report(outcomes)
    times = [o.seconds for o in outcomes]
    ok = attempted - failed
    q = OP_TAIL[wl.name]
    tail_v = float(np.percentile(times, q))
    beyond = sum(1 for t in times if t > tail_v)
    if wl.name == "cli":
        peak_kb = max(o.counts["maxrss_kb"] for o in outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": median(setups),
        "op_ms.p50": 1e3 * median(times),
        "op_ms.tail": 1e3 * tail_v,
        "ok_ops_per_s": ok / sum(times),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(f"setup_s: {SETUP_PROBES} fresh interpreters, median of "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"op_ms.tail is p{q} over {attempted} ops ({beyond} beyond it"
          f"{'' if beyond >= 10 else ', fewer than 10'});"
          f" timed wall {sum(times):.3f} s")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {values[name]:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def complement(wl: Workload, tr: Tracer) -> list:
    """A few traced ops of the other workloads, for the layers this one never calls."""
    outcomes = []
    thresholds: dict = {}
    if wl.name != "corpus":
        for prob in problems.corpus(wl.seed)[: len(problems.PROFILES)]:
            tr.op = "complement:corpus"
            outcomes.append(workloads.corpus_op(prob, tr, wl.work, thresholds))
    if wl.name != "kernels":
        for task in problems.kernels(wl.seed)[:2]:
            tr.op = "complement:kernels"
            outcomes.append(workloads.kernel_op(task, tr))
    if wl.name != "cli":
        calls = problems.cli_calls(wl.seed)[: len(problems.CLI_COMMANDS)]
        write_problem_files(calls, wl.work)
        for call in calls:
            tr.op = "complement:cli"
            outcomes.append(run_in_process(call, wl.work, tr))
    return outcomes


def defect_round(wl: Workload) -> list:
    """One untraced round over the whole input domain, where the seed's defects show.

    Its ops are checked like the timed ones and counted by cause in the
    per-layer metrics; they are not part of the workload's own ops.
    """
    off = Tracer(False)
    thresholds: dict = {}
    outcomes = [workloads.corpus_op(prob, off, wl.work, thresholds)
                for prob in problems.domain_corpus(wl.seed)]
    outcomes += [workloads.kernel_op(task, off) for task in problems.domain_kernels(wl.seed)]
    print("defect round over the whole input domain:")
    _report(outcomes)
    return outcomes


def run_in_process(call, work: Path, tr: Tracer) -> workloads.Outcome:
    """Warm in-process ``beamsign.cli.run(argv)``, as the console script would call it."""
    argv = workloads.call_argv(call, work)
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with tr.span("cli.run." + call.command), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = beamsign.cli.run(argv)
    seconds = perf_counter() - t0
    cause, detail = workloads.cli_cause(call, code, out.getvalue(), err.getvalue(), work)
    counts = {}
    if call.rows and code == 0:
        counts["csv_bytes"] = workloads.csv_path(call, work).stat().st_size
    return workloads.Outcome(seconds, cause, detail, counts)


def traced_run(wl: Workload, seconds: float, base: Path) -> dict:
    tr, off = Tracer(True), Tracer(False)
    imports: list[dict] = []
    if wl.name != "cli":
        for k in range(IMPORT_PROBES):
            tr.op = f"import:{k}"
            with tr.span("import.probe"):
                imports.append(import_probe())
    for item in wl.warmup:
        wl.op(item, off)
    layer_outcomes = complement(wl, tr)
    domain = defect_round(wl)
    all_outcomes = []
    wall = {False: 0.0, True: 0.0}

    def body(item, i):
        # each item runs untraced and traced, in alternating order, for the overhead ratio
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tr.op = f"{wl.name}:{i}" if traced else None
            if wl.name == "cli":
                with (tr if traced else off).span("op.cli") as span:
                    outcome, child = workloads.cli_op(item, wl.work, importtime=traced)
                    if traced:
                        # the child's import of the entry module, as a span inside the op
                        imports.append(parse_importtime(child.err))
                        cum = imports[-1].get("beamsign.cli", 0.0) / 1e3
                        tr.add("import.child", span.start, span.start + cum)
                if traced:
                    layer_outcomes.append(outcome)
                    layer_outcomes.append(run_in_process(item, wl.work, tr))
            else:
                outcome = wl.op(item, tr if traced else off)
                if traced:
                    layer_outcomes.append(outcome)
            wall[traced] += outcome.seconds
            all_outcomes.append(outcome)

    timed_loop(wl, seconds, body)
    attempted, failed, _ = _report(all_outcomes)
    spans_path = base / f"spans-{wl.name}-{wl.seed}.jsonl"
    tr.write(spans_path)
    ops = {s.op for s in tr.spans if s.op and s.op.startswith(wl.name + ":")}
    print(f"spans: {len(tr.spans)} in {spans_path.relative_to(base.parent)},"
          f" covering {len(ops)} traced ops of {attempted // 2}")
    values = layer_metrics(tr, layer_outcomes, domain, imports)
    values["domain.failed_share"] = sum(1 for o in domain if o.cause) / len(domain)
    values["trace.overhead_ratio"] = wall[True] / wall[False]
    print("self time by span, s:")
    for name, t in sorted(tr.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {t:10.4f}")
    for name, unit in PER_LAYER:
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    return {
        "correct": failed == 0 and len(ops) == attempted // 2,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }


def layer_metrics(tr: Tracer, outcomes, domain, imports) -> dict:
    """Timings and sizes from the traced ``outcomes``; failure counts also from ``domain``."""
    def ms(name, stat="p50"):
        d = tr.durations(name)
        if not d:
            return 0.0
        return 1e3 * (median(d) if stat == "p50" else tail(d)[1])

    def count(cause):
        return sum(1 for o in outcomes + domain if o.cause == cause)

    def counted(key):
        return [o.counts[key] for o in outcomes if key in o.counts]

    v = {}
    for metric, module in IMPORT_MODULES.items():
        v[metric] = median(i.get(module, 0.0) for i in imports)
    v["import.scipy_ms"] = median(i["scipy*"] for i in imports)
    for cmd in problems.CLI_COMMANDS:
        v[f"cli.run_ms.{cmd}"] = ms(f"cli.run.{cmd}")
    v["cli.csv_bytes"] = float(median(counted("csv_bytes") or [0]))
    v["cli.parse_ms.p50"] = ms("cli.parse")
    v["expressions.eval_ms.p50"] = ms("expressions.eval")
    v["spectrum.compute_ms.p50"] = ms("spectrum.compute")
    v["spectrum.compute_ms.tail"] = ms("spectrum.compute", "tail")
    v["spectrum.misroots"] = count("misroot")
    v["spectrum.root_errors"] = count("root_search")
    v["principles.verdict_ms.p50"] = ms("principles.verdict")
    v["principles.verdict_ms.tail"] = ms("principles.verdict", "tail")
    v["principles.unsound"] = count("unsound") + count("bound")
    predicted = counted("predicted")
    v["principles.predicted_share"] = sum(predicted) / max(len(predicted), 1)
    v["solver.direct_solve_ms.p50"] = ms("solver.direct_solve")
    v["solver.direct_solve_ms.tail"] = ms("solver.direct_solve", "tail")
    v["solver.fixed_point_ms.p50"] = ms("solver.fixed_point_solve")
    v["solver.fixed_point_iterations"] = float(median(counted("fixed_point_iterations") or [0]))
    v["solver.resonance_errors"] = count("resonance.solver")
    v["solver.eigenvalue_errors"] = count("eigenvalue")
    v["solver.backward_error.max"] = max(counted("backward_error") or [0.0])
    v["solver.sign_certificate_ms.p50"] = ms("solver.sign_certificate")
    v["solver.smallest_eigenvalue_ms.p50"] = ms("solver.smallest_eigenvalue")
    v["greens.discrete_ms.p50"] = ms("greens.discrete")
    v["greens.discrete_ms.tail"] = ms("greens.discrete", "tail")
    v["greens.superposition_ms.p50"] = ms("greens.superposition")
    v["greens.constant_ms.p50"] = ms("greens.constant")
    v["greens.sign_scan_ms.p50"] = ms("greens.sign_scan")
    v["greens.kernel_mb"] = max(counted("kernel_bytes") or [0]) / 2**20
    v["greens.resonance_errors"] = count("resonance.greens")
    return v
