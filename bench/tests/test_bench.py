"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
import oracle
import problems
import workloads
from spans import Tracer

from beamsign import Interval, RootSearchError, lambda2, lambda3

ROOT = Path(__file__).resolve().parents[2]


def test_generator_is_deterministic_per_seed(tmp_path):
    assert [p.text for p in problems.corpus(3)] == [p.text for p in problems.corpus(3)]
    assert [p.text for p in problems.corpus(3)] != [p.text for p in problems.corpus(4)]
    assert problems.kernels(3) == problems.kernels(3)
    assert problems.cli_calls(3) == problems.cli_calls(3)
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        measure.write_problem_files(problems.cli_calls(3), tmp_path / d)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_timed_inputs_stay_in_the_clean_domain_and_the_defect_round_leaves_it():
    timed = problems.corpus(3)
    assert max(p.pair.p * p.pair.length**2 for p in timed) <= problems.CLEAN_PL2 * (1 + 1e-5)
    assert {p.n for p in timed} == {200, 250}
    assert {t.n for t in problems.kernels(3)} == {200, 250}
    domain = problems.domain_corpus(3)
    assert max(p.pair.p * p.pair.length**2 for p in domain) > 2 * problems.CLEAN_PL2
    assert 2000 in {p.n for p in domain}
    assert {t.n for t in problems.domain_kernels(3)} == set(problems.DOMAIN_KERNEL_CYCLE)


def test_oracle_flags_known_misroot_and_accepts_unit_interval():
    ref2, ref3 = oracle.thresholds(5.0, 25.0)
    assert ref2 == pytest.approx(-6.4173, abs=5e-5)
    pair = problems.Pair(5.0, 0.0, 25.0, 0.0, 0.0, ref2, ref3)
    interval = Interval(0.0, 25.0)
    assert "lambda2" in oracle.threshold_mismatch(pair, lambda2(5.0, interval), lambda3(5.0, interval))

    ref2, ref3 = oracle.thresholds(0.0, 1.0)
    unit = Interval(0.0, 1.0)
    assert lambda2(0.0, unit) == pytest.approx(ref2, rel=1e-14)
    assert lambda3(0.0, unit) == pytest.approx(ref3, rel=1e-14)
    pair = problems.Pair(0.0, 0.0, 1.0, 0.0, 0.0, ref2, ref3)
    assert oracle.threshold_mismatch(pair, lambda2(0.0, unit), lambda3(0.0, unit)) is None


def test_generated_coefficients_avoid_resonance():
    for prob in problems.corpus(5)[:120]:
        _, problem = workloads.inputs.problem_inputs(prob.text, Path("."))
        c = np.asarray(problem.c.values)
        gap = oracle.nearest_resonance_gap(problem.p, prob.pair.length, c.min(), c.max())
        assert gap > 0.0, prob.text


def test_raising_op_is_counted_not_dropped(monkeypatch, capsys):
    prob = problems.corpus(1)[0]

    def boom(problem):
        raise RootSearchError("no sign change")

    monkeypatch.setattr(workloads, "verdict", boom)
    out = workloads.corpus_op(prob, Tracer(False), Path("."), {})
    assert out.cause == "root_search"
    monkeypatch.setattr(workloads, "verdict", lambda problem: 1 / 0)
    out2 = workloads.corpus_op(prob, Tracer(False), Path("."), {})
    assert out2.cause == "error.ZeroDivisionError"
    attempted, failed, causes = measure._report([out, out2, workloads.Outcome(0.1)])
    assert (attempted, failed) == (3, 2)
    assert causes == {"root_search": 1, "error.ZeroDivisionError": 1}


def test_importtime_parser_nests_scipy():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |     scipy.linalg",
        "import time:       500 |        900 |   scipy.integrate",
        "import time:        50 |       1250 | beamsign.fields",
    ])
    got = measure.parse_importtime(stderr)
    assert got["beamsign.fields"] == pytest.approx(1.25)
    assert got["scipy*"] == pytest.approx(1.2)


def test_self_time_subtracts_children():
    tr = Tracer(True)
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    totals = tr.self_times()
    outer = tr.spans[0].end - tr.spans[0].start
    inner = tr.spans[1].end - tr.spans[1].start
    assert totals["outer"] == pytest.approx(outer - inner)
    assert totals["inner"] == pytest.approx(inner)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in measure.END_TO_END]
    assert [m["name"] for m in declared["per_layer"]] == [n for n, _ in measure.PER_LAYER]
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "corpus", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
