"""Tests of the benchmark itself: input generators, metric names, failure accounting.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORK = harness.WORK_DIR / "tests"
SMALL = {
    "simulate": {"n": 2000, "prefix": 200, "warm_n": 100},
    "calibrate": {"per_kind": 4, "tables": 1},
    "sweep": {"rows": 60},
    "cli": {"sweep_rows": 20, "draws": 200},
}
COUNT_METRICS = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def small_run(name: str, seed: int, trace: bool) -> dict:
    result, _ = harness.run(name, seed, 0.0, trace, sizes=SMALL[name])
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name](**SMALL[name])
    first = workload.generate(11, WORK)
    files = {p: p.read_bytes() for p in WORK.rglob("*.csv")}
    again = workload.generate(11, WORK)
    assert again == first
    assert {p: p.read_bytes() for p in WORK.rglob("*.csv")} == files
    assert workload.generate(12, WORK)["record"] != first["record"]


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_run_prints_exactly_the_declared_metrics(name):
    result = small_run(name, 5, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_print_the_declared_metrics_and_repeat_their_counts():
    first = small_run("sweep", 1, trace=True)
    second = small_run("sweep", 2, trace=True)
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == declared("per_layer")
    assert COUNT_METRICS
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["montecarlo.quantile_calls_per_draw"]["value"] > 0


def test_wrapper_residual_comes_off_once_per_call_child_and_descendant():
    tracer = tracing.Tracer("test")
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    top = tracer.wrap("top", lambda: [mid() for _ in range(2)])
    top()
    assert tracer.stats[("top", "ok")][4:] == [2, 8]
    assert tracer.stats[("mid", "ok")][4:] == [6, 6]
    raw = tracing._total([tracer], "top")
    calls, inclusive, self_ns, _ = tracing._total([tracer], "top", residual=(10.0, 100.0))
    assert calls == 1
    assert inclusive == raw[1] - 10 - 8 * 110
    assert self_ns == raw[2] - 10 - 2 * 100


def _simulate_ops(lib):
    workload = workloads.Simulate(**SMALL["simulate"])
    return workload, workload.prepare(lib, workload.generate(3, WORK))


def test_count_off_by_one_in_one_repeat_is_one_failed_op():
    lib = harness.import_library()
    _, ops = _simulate_ops(lib)
    calls = []
    original = ops[0].run

    def off_by_one_on_second_call(lib):
        report = original(lib)
        calls.append(1)
        if len(calls) == 2:
            return dataclasses.replace(report, rejections=report.rejections + 1)
        return report

    ops[0] = dataclasses.replace(ops[0], run=off_by_one_on_second_call)
    verdict = harness.judge(ops, lib, [harness.run_pass(ops, lib, 0.0, 3)])
    assert verdict["attempted"] == 3 * len(ops)
    assert (verdict["failed"], verdict["wrong"]) == (1, 1)


def test_count_off_by_one_in_first_output_fails_every_repeat():
    lib = harness.import_library()
    _, ops = _simulate_ops(lib)
    original = ops[0].run

    def off_by_one(lib):
        report = original(lib)
        return dataclasses.replace(report, rejections=report.rejections + 1)

    ops[0] = dataclasses.replace(ops[0], run=off_by_one)
    verdict = harness.judge(ops, lib, [harness.run_pass(ops, lib, 0.0, 2)])
    assert (verdict["failed"], verdict["wrong"]) == (2, 2)


def test_prefix_recount_rejects_a_count_off_by_one():
    lib = harness.import_library()
    workload, _ = _simulate_ops(lib)
    plan = lib.SimulationPlan(workload.prefix, 99, 1.5, 2.0, 0.05, lib.KLSelfInformationPrior())
    count = lib.simulate_power(plan).rejections
    assert workload.recount_problem(lib, plan, count) is None
    assert workload.recount_problem(lib, plan, count + 1) is not None


def test_sweep_check_rejects_a_perturbed_posterior():
    lib = harness.import_library()
    workload = workloads.Sweep(**SMALL["sweep"])
    ops = workload.prepare(lib, workload.generate(4, WORK))
    op = next(op for op in ops if op.label == "paradox:robert")
    rows = op.run(lib)
    assert op.check(lib, rows) is None
    bad = rows[:5] + [rows[5]._replace(posterior_h0=rows[5].posterior_h0 * (1 + 1e-9))] + rows[6:]
    assert op.check(lib, bad) is not None


def test_raised_calibrations_count_as_failed_but_not_wrong():
    lib = harness.import_library()
    workload = workloads.Calibrate(**SMALL["calibrate"])
    ops = workload.prepare(lib, workload.generate(6, WORK))
    p = harness.run_pass(ops, lib, 0.0, 2)
    verdict = harness.judge(ops, lib, [p])
    raised = [out for out in p.firsts if isinstance(out, harness.Raised)]
    assert verdict["wrong"] == 0
    assert verdict["failed"] == 2 * len(raised)


def test_run_without_library_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
