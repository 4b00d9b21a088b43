"""Closed-loop passes over a workload, output checks, and the reported metrics.

One client, no threads: each operation starts when the previous one has
returned. A pass runs whole rounds of the workload's operation list until
its operations have been busy for the requested seconds and the workload's
minimum number of rounds is done. Every output is checked, outside the
operation's timer: the first output of each operation against the
workload's own check, and every later output for equality with the first,
since the inputs of a round never change.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Callable

import tracing
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK_DIR = ROOT / "bench" / ".work"
SETUP_REPS = 15
CANONICAL_SEED = 0
CLI_TIMING_REPS = 5
MAIN_REPS = 3
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MiB",
}

# Smaller sizes for the canonical phase of a traced run. Its inputs come from
# a fixed seed, so the count metrics it yields are identical in every run.
CANONICAL_SIZES = {
    "simulate": {"n": 20_000, "prefix": 500},
    "calibrate": {"per_kind": 6, "tables": 1},
    "sweep": {"rows": 250},
}


# The machine is shared, and its speed swings by up to 2x within seconds.
# A fixed reference task that never touches pointnull is timed between
# operations, and every reported time is scaled to the speed at which the
# task takes its nominal time. Library calls are scaled by a pure-Python
# kernel; CLI children by a bare interpreter start, which tracks process
# start-up where the kernel does not. Raw times stay in the run record.
PROBE_EVERY_NS = 25_000_000
_MASK64 = (1 << 64) - 1


class _Line:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def at(self, x: float) -> float:
        return self.a * x + self.b


def _reference_kernel() -> float:
    acc = 0.0
    line = _Line(0.5, 0.25)
    for i in range(400):
        z = ((i + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        u = ((z >> 11) + 0.5) * 2.0**-53
        acc += math.erfc(line.at(u)) + math.log1p(u)
    return acc


def kernel_ns() -> int:
    """Median of three timings of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        _reference_kernel()
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[1]


def child_ns(code: str = "pass") -> int:
    """Wall time of one ``python -c code`` child run from the checkout."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, check=True,
                   timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter_ns() - start


@dataclasses.dataclass(frozen=True)
class Probe:
    measure: Callable[[], int]
    nominal_ns: float

    def scale(self, before: int, after: int) -> float:
        """Factor taking a time measured between two probes to nominal speed."""
        return 2.0 * self.nominal_ns / (before + after)


PROBES = {"kernel": Probe(kernel_ns, 250_000), "interpreter": Probe(child_ns, 50_000_000)}
KERNEL = PROBES["kernel"]


class LibraryMissing(RuntimeError):
    """The checkout holds no pointnull sources to measure."""


@dataclasses.dataclass(frozen=True)
class Raised:
    """An exception an operation let escape, kept as a comparable value."""

    kind: str
    message: str


@dataclasses.dataclass
class Pass:
    firsts: list
    latencies: list  # per op: ns of each occurrence, at nominal speed
    mismatched: list  # per op: indices of occurrences unequal to the first
    busy_ns: float  # at nominal speed
    raw_busy_ns: int
    rounds: int
    probes: list


def import_library() -> types.SimpleNamespace:
    """Import pointnull afresh from the checkout's src/ and return its namespace."""
    if not (SRC / "pointnull" / "__init__.py").is_file():
        raise LibraryMissing(f"no pointnull package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pointnull" or m.startswith("pointnull.")]:
        del sys.modules[name]
    package = importlib.import_module("pointnull")
    cli = importlib.import_module("pointnull.cli")
    if Path(package.__file__).resolve().parent != SRC / "pointnull":
        raise LibraryMissing(f"pointnull imported from {package.__file__}, not {SRC}")
    names = {n: getattr(package, n) for n in dir(package) if not n.startswith("_")}
    montecarlo = sys.modules["pointnull.montecarlo"]
    return types.SimpleNamespace(**names, main=cli.main, uniform_unit=montecarlo.uniform_unit)


def setup(workload, inputs: dict, reps: int):
    """Import, prepare and warm up ``reps`` times; keep the last, time each."""
    samples, raw = [], []
    for _ in range(reps):
        before = KERNEL.measure()
        start = time.perf_counter()
        lib = import_library()
        ops = workload.prepare(lib, inputs)
        raw.append(time.perf_counter() - start)
        samples.append(raw[-1] * KERNEL.scale(before, KERNEL.measure()))
    return lib, ops, samples, raw


def run_pass(ops, lib, seconds: float, min_rounds: int, probe: Probe = KERNEL,
             wrap=None) -> Pass:
    runs = [op.run if wrap is None else wrap(op.run) for op in ops]
    firsts = [None] * len(ops)
    latencies = [[] for _ in ops]
    mismatched = [[] for _ in ops]
    after_probe = [[] for _ in ops]  # index of the probe preceding each occurrence
    probes = [probe.measure()]
    since_probe = busy = rounds = 0
    clock = time.perf_counter_ns
    while rounds < min_rounds or busy < seconds * 1e9:
        for i, run in enumerate(runs):
            start = clock()
            try:
                out = run(lib)
            except Exception as exc:  # an op's failure is counted, never fatal
                out = Raised(type(exc).__name__, str(exc))
            elapsed = clock() - start
            busy += elapsed
            since_probe += elapsed
            latencies[i].append(elapsed)
            after_probe[i].append(len(probes) - 1)
            if rounds == 0:
                firsts[i] = out
            elif out != firsts[i]:
                mismatched[i].append(rounds)
            if since_probe >= PROBE_EVERY_NS:
                probes.append(probe.measure())
                since_probe = 0
        rounds += 1
    probes.append(probe.measure())
    scales = [probe.scale(a, b) for a, b in zip(probes, probes[1:])]
    scaled = [[ns * scales[j] for ns, j in zip(lat, where)]
              for lat, where in zip(latencies, after_probe)]
    return Pass(firsts, scaled, mismatched, sum(map(sum, scaled)), busy, rounds, probes)


def judge(ops, lib, passes) -> dict:
    """Check every output; returns counts, the successful latencies and problems.

    An op fails if it raised (no op lets an allowed exception escape), if its
    check finds a refusal the contract does not allow, if its output check
    fails, or if a repeat differs from its first output. Only the last two
    are wrong outputs.
    """
    attempted = failed = wrong = 0
    ok_ns = []
    problems = []
    for p in passes:
        for i, op in enumerate(ops):
            out = p.firsts[i]
            if isinstance(out, Raised):
                status, problem = "error", f"{out.kind}: {out.message}"
            else:
                problem = op.check(lib, out)
                status = "error" if isinstance(problem, workloads.Refusal) else (
                    "wrong" if problem else "ok")
            n = len(p.latencies[i])
            attempted += n
            if status != "ok":
                failed += n
                wrong += n if status == "wrong" else 0
                problems.append(f"{op.label}: {problem}")
                continue
            bad = set(p.mismatched[i])
            failed += len(bad)
            wrong += len(bad)
            if bad:
                problems.append(f"{op.label}: {len(bad)} repeats differ from the first output")
            ok_ns += [ns for r, ns in enumerate(p.latencies[i]) if r not in bad]
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "ok_ns": ok_ns,
            "problems": problems}


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def attempted_latency(verdict: dict, tail: float) -> dict:
    """Percentiles over every attempted op, each failed op counted as +inf (null)."""
    attempted_ns = verdict["ok_ns"] + [math.inf] * verdict["failed"]

    def ms(ns: float):
        return None if math.isinf(ns) else ns / 1e6

    return {"failed_as": "+inf", "n": len(attempted_ns),
            "p50": ms(statistics.median_high(attempted_ns)),
            f"p{tail:g}": ms(percentile(attempted_ns, tail))}


def end_to_end(workload, verdict: dict, p: Pass, setup_samples: list,
               raw_setup: list) -> tuple[dict, dict]:
    ok_ns = verdict["ok_ns"] or [ns for lat in p.latencies for ns in lat]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(verdict["ok_ns"]) / (p.busy_ns / 1e9),
        "latency_p50_ms": statistics.median(ok_ns) / 1e6,
        "latency_tail_ms": percentile(ok_ns, workload.tail_percentile) / 1e6,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail = {
        "tail_percentile": workload.tail_percentile, "latency_samples": len(ok_ns),
        "setup_samples_s": setup_samples, "raw_setup_samples_s": raw_setup,
        "rounds": p.rounds, "busy_s": p.busy_ns / 1e9, "raw_busy_s": p.raw_busy_ns / 1e9,
        "probe_ns": {"median": statistics.median(p.probes), "min": min(p.probes),
                     "max": max(p.probes), "n": len(p.probes)},
        "error_rate": verdict["failed"] / verdict["attempted"],
        "attempted_latency_ms": attempted_latency(verdict, workload.tail_percentile),
    }
    if workload.name == "simulate":
        detail["draws_per_s"] = values["ops_per_s"] * workload.n
    elif workload.name == "sweep":
        detail["rows_per_s"] = values["ops_per_s"] * workload.rows
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, detail


def canonical_phase(tracer: tracing.Tracer, lib, kernel: list) -> tuple[dict, dict]:
    """Fixed-input traced calls into every layer, whatever the run's workload.

    The output checks run traced too: the simulate recount is what calls
    uniform_unit, which the simulation's own loop inlines. Each step's
    kernel probes are appended to ``kernel``.
    """
    checked = {"wrong": 0, "problems": []}
    traced = tracing.traced_lib(lib, tracer)
    for name, sizes in CANONICAL_SIZES.items():
        workload = workloads.WORKLOADS[name](**sizes)
        ops = workload.prepare(lib, workload.generate(CANONICAL_SEED, WORK_DIR / "canonical"))
        with tracing.instrument(tracer):
            p = run_pass(ops, traced, 0.0, 1)
            verdict = judge(ops, traced, [p])
        kernel += p.probes
        checked["wrong"] += verdict["wrong"]
        checked["problems"] += [f"canonical {problem}" for problem in verdict["problems"]]
    cli = workloads.Cli()
    argvs = cli.generate(CANONICAL_SEED, WORK_DIR / "canonical")["argvs"]
    with tracing.instrument(tracer, modules=("pointnull.cli",)):
        for _ in range(MAIN_REPS):
            for argv in argvs:
                cli.in_process(traced, argv)
            kernel.append(KERNEL.measure())
    interpreter, imports = [], []
    for _ in range(CLI_TIMING_REPS):
        interpreter.append(child_ns() / 1e6)
        imports.append(child_ns("import pointnull.cli") / 1e6)
    times = {"interpreter_ms": statistics.median(interpreter),
             "import_ms": statistics.median(imports)}
    return times, checked


def nominal_residual() -> tuple[float, float]:
    """tracing.wrapper_residual at nominal speed, scaled by kernel probes around it."""
    before = KERNEL.measure()
    inside, outside = tracing.wrapper_residual()
    factor = KERNEL.scale(before, KERNEL.measure())
    return inside * factor, outside * factor


def traced_run(workload, ops, lib, seconds: float, seed: int) -> tuple[dict, dict, list]:
    probe = PROBES[workload.speed_probe]
    untraced = run_pass(ops, lib, seconds / 2.0, 1, probe)
    residuals = [nominal_residual()]
    tracer = tracing.Tracer("workload")
    with tracing.instrument(tracer):
        traced = run_pass(ops, tracing.traced_lib(lib, tracer), seconds / 2.0, 1, probe,
                          wrap=lambda run: tracer.wrap(f"op.{workload.name}", run))
    kernel = list(traced.probes) if probe is KERNEL else [KERNEL.measure()]
    residuals.append(nominal_residual())
    canonical = tracing.Tracer("canonical")
    cli_times, checked = canonical_phase(canonical, lib, kernel)
    # Span times are scaled by one factor, the median kernel probe of the
    # traced phases, and lose the wrapper residual at that speed. The
    # overhead compares two passes, each scaled by its own probes;
    # child-process times are left as measured.
    scale = KERNEL.nominal_ns / statistics.median(kernel)
    residual = tuple(statistics.mean(part) / scale for part in zip(*residuals))

    def ms_per_op(p):
        return p.busy_ns / 1e6 / sum(len(lat) for lat in p.latencies)

    overhead = {"ms_per_op": ms_per_op(traced) - ms_per_op(untraced),
                "share": ms_per_op(traced) / ms_per_op(untraced) - 1.0}
    layer = tracing.layer_metrics(tracer, canonical, cli_times, overhead, residual)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = WORK_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        tracer.write_spans(handle)
        canonical.write_spans(handle)
    unscaled = ("trace.overhead_ms_per_op", "cli.import_ms", "cli.interpreter_ms")
    metrics = {k: {"value": v * scale if unit in ("ns", "us", "ms") and k not in unscaled
                   else v, "unit": unit} for k, (v, unit) in layer.items()}
    detail = {"spans_file": str(spans_path.relative_to(ROOT)), "time_scale": scale,
              "bookkeeping_s": {"workload": tracer.bookkeeping_ns / 1e9,
                                "canonical": canonical.bookkeeping_ns / 1e9},
              "wrapper_residual_nominal_ns": residuals,
              "untraced_rounds": untraced.rounds, "traced_rounds": traced.rounds,
              "canonical_wrong": checked["wrong"], "canonical_problems": checked["problems"]}
    return metrics, detail, [untraced, traced]


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the run record."""
    workload = workloads.WORKLOADS[name](**(sizes or {}))
    inputs = workload.generate(seed, WORK_DIR)
    lib, ops, setup_samples, raw_setup = setup(workload, inputs, SETUP_REPS)
    if trace:
        metrics, detail, passes = traced_run(workload, ops, lib, seconds, seed)
        verdict = judge(ops, lib, passes)
    else:
        passes = [run_pass(ops, lib, seconds, workload.min_rounds, PROBES[workload.speed_probe])]
        verdict = judge(ops, lib, passes)
        metrics, detail = end_to_end(workload, verdict, passes[0], setup_samples, raw_setup)
    wrong = verdict["wrong"] + detail.get("canonical_wrong", 0)
    result = {"correct": wrong == 0, "attempted": verdict["attempted"],
              "failed": verdict["failed"], "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "machine": platform.machine(),
        "inputs": inputs["record"], "ops_per_round": len(ops), **detail,
        "wrong": verdict["wrong"], "problems": verdict["problems"][:20],
    }
    return result, record


def write_record(record: dict) -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"run-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path
