"""In-memory spans around calls into pointnull's layers, and the per-layer metrics.

Nothing in the library is edited. The traced run wraps the public functions
the benchmark calls itself (a traced copy of the library namespace), and
rebinds the public names one library module imports from another -- for
example ``pointnull.calibration.type_i_error`` or
``pointnull.montecarlo.std_normal_quantile`` -- for as long as an
``instrument`` block is open. Each span has a name, start, end, parent and op
id. Every span is aggregated (calls, inclusive and self time, size, outcome);
the first ``SPAN_CAP`` spans of each name are also kept whole and written out
as JSON lines, because the hot leaves run millions of times per run.

A wrapper costs time of its own, and most of it falls outside its span's
window: the label, the stack push and the aggregation. Each wrapped call
therefore also reads the clock on entry and just before it returns, and its
whole call, bookkeeping included, counts as its parent's child time. So a
span's self time holds none of its children's bookkeeping, and its
inclusive time has all of its descendants' bookkeeping taken out. What
stays in the windows is the wrapper's call and return around those two
clock reads and the calls inside the span's own window. ``wrapper_residual``
measures that on an empty wrapped call, and ``layer_metrics`` takes it out
too: from a span's own times, for each child from its parent's self time,
and for each descendant from its inclusive time. The span file keeps the
raw start and end times.
"""

from __future__ import annotations

import json
import sys
import time
import types
from contextlib import contextmanager

SPAN_CAP = 1000

_SCHEME_KIND = {
    "FixedPrior": "fixed",
    "RobertPrior": "robert",
    "KLSelfInformationPrior": "kl",
    "CustomTablePrior": "table",
}


def _scheme_kind(scheme, *_args) -> str:
    return _SCHEME_KIND.get(type(scheme).__name__, "other")


def _plan_draws(args) -> int:
    return args[0].n


def _grid_rows(args) -> int:
    return len(args[2])


def _subcommand(argv, *_args) -> str:
    return argv[0]


# Library functions the workloads call directly: lib attribute -> (span, options).
HARNESS_CALLS = {
    "solve_sigma": ("calibration.solve_sigma", {"counting": True}),
    "positivity_bound": ("calibration.positivity_bound", {}),
    "psi": ("calibration.psi", {}),
    "type_i_error": ("calibration.type_i_error", {}),
    "decide": ("calibration.decide", {}),
    "paradox_sweep": ("priors.paradox_sweep", {"size": _grid_rows}),
    "simulate_type_i": ("montecarlo.simulate_type_i", {"size": _plan_draws, "counting": True}),
    "simulate_power": ("montecarlo.simulate_power", {"size": _plan_draws, "counting": True}),
    "draw_standard_normal": ("montecarlo.draw_standard_normal", {}),
    "posterior_h0": ("model.posterior_h0", {}),
    "main": ("cli.main", {"label": _subcommand}),
}

# Names one library module imports from another: (module, attribute, span, options).
INNER_CALLS = (
    ("pointnull.montecarlo", "std_normal_quantile", "numerics.std_normal_quantile", {}),
    ("pointnull.montecarlo", "uniform_unit", "montecarlo.uniform_unit", {}),
    ("pointnull.calibration", "std_normal_cdf", "numerics.std_normal_cdf", {}),
    ("pointnull.calibration", "find_root_bracketed", "numerics.find_root_bracketed",
     {"counting": True}),
    ("pointnull.calibration", "type_i_error", "calibration.type_i_error", {}),
    ("pointnull.calibration", "log_m_of_sigma", "priors.log_m_of_sigma",
     {"label": _scheme_kind}),
    ("pointnull.calibration", "posterior_h0", "model.posterior_h0", {}),
    ("pointnull.priors", "posterior_h0", "model.posterior_h0", {}),
    ("pointnull.cli", "bayes_factor", "model.bayes_factor", {}),
    ("pointnull.cli", "classify_regime", "priors.classify_regime", {}),
)

LIBRARY_MODULES = tuple(sorted({module for module, *_ in INNER_CALLS}))


class Tracer:
    """Span recorder for one phase of a traced run.

    ``stats[(name, outcome)]`` is ``[calls, inclusive_ns, self_ns, size,
    children, descendants]``, both times without the wrappers' bookkeeping,
    which is summed into ``bookkeeping_ns`` instead. A counting span also
    tallies the calls made beneath it, by name, into
    ``counts[(name, outcome)]``. ``evaluations`` counts the objective calls
    made by ``numerics.find_root_bracketed``.
    """

    def __init__(self, phase: str):
        self.phase = phase
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[tuple[str, str], dict[str, int]] = {}
        self.evaluations = 0
        self.bookkeeping_ns = 0
        self.spans: list[tuple] = []
        self._kept: dict[str, int] = {}
        self._stack: list[list] = []
        self._counting: list[list] = []
        self._next_id = 0
        self._op = -1

    def wrap(self, name, fn, label=None, size=None, counting=False):
        """Return fn wrapped in a span named ``name`` (plus ``.label(*args)``)."""

        def traced(*args, **kwargs):
            entered = time.perf_counter_ns()
            span = name if label is None else f"{name}.{label(*args)}"
            self._begin(span, counting, entered)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._end(type(exc).__name__, size(args) if size else 0)
                raise
            self._end("ok", size(args) if size else 0)
            return result

        return traced

    def _begin(self, span: str, counting: bool, entered: int) -> None:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [span, 0, 0, self._next_id, parent, {} if counting else None, entered, 0, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        if counting:
            self._counting.append(frame)
        frame[1] = time.perf_counter_ns()

    def _end(self, outcome: str, size: int) -> None:
        end = time.perf_counter_ns()
        frame = self._stack.pop()
        span, start, child_ns, span_id, parent, below, entered, hidden_ns, children, under = frame
        duration = end - start
        key = (span, outcome)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0, 0, 0, 0, 0]
        stat[0] += 1
        stat[1] += duration - hidden_ns
        stat[2] += duration - child_ns
        stat[3] += size
        stat[4] += children
        stat[5] += under
        if below is not None:
            self._counting.pop()
            tally = self.counts.setdefault(key, {})
            for child, n in below.items():
                tally[child] = tally.get(child, 0) + n
        for frame_above in self._counting:
            frame_above[5][span] = frame_above[5].get(span, 0) + 1
        kept = self._kept.get(span, 0)
        if kept < SPAN_CAP:
            self._kept[span] = kept + 1
            self.spans.append((span_id, span, start, end, parent, self._op, outcome))
        whole = time.perf_counter_ns() - entered
        self.bookkeeping_ns += whole - duration
        if self._stack:
            above = self._stack[-1]
            above[2] += whole
            above[7] += hidden_ns + whole - duration
            above[8] += 1
            above[9] += 1 + under

    def counting_root_finder(self, find_root):
        """find_root_bracketed that adds its objective evaluations to ``evaluations``."""

        def counted_find_root(f, *args, **kwargs):
            def objective(x):
                self.evaluations += 1
                return f(x)

            return find_root(objective, *args, **kwargs)

        return counted_find_root

    def write_spans(self, handle) -> None:
        for span_id, span, start, end, parent, op, outcome in self.spans:
            handle.write(json.dumps({
                "phase": self.phase, "id": span_id, "name": span, "start_ns": start,
                "end_ns": end, "parent": parent, "op": op, "outcome": outcome,
            }) + "\n")


def _noop(_a, _b):
    return None


def wrapper_residual() -> tuple[float, float]:
    """Median ns a wrapped call still leaves (inside, outside) its own window.

    An empty function of two arguments is called ``calls`` times wrapped,
    beneath a counting span as most inner calls are, and bare. ``inside``
    is its span time beyond the bare call; ``outside`` is its parent's self
    time beyond the bare loop's.
    """
    calls, batches = 2000, 5
    inside, outside = [], []
    for _ in range(batches):
        probe = Tracer("wrapper-residual")
        noop = probe.wrap("noop", _noop)
        probe.wrap("loop", lambda: [noop(1, 2.0) for _ in range(calls)], counting=True)()
        start = time.perf_counter_ns()
        [_noop(1, 2.0) for _ in range(calls)]
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        [None for _ in range(calls)]
        empty = time.perf_counter_ns() - start
        inside.append((probe.stats[("noop", "ok")][1] - bare + empty) / calls)
        outside.append((probe.stats[("loop", "ok")][2] - empty) / calls)
    return sorted(inside)[batches // 2], sorted(outside)[batches // 2]


def traced_lib(lib: types.SimpleNamespace, tracer: Tracer) -> types.SimpleNamespace:
    """Copy of the library namespace whose directly called functions record spans."""
    traced = types.SimpleNamespace(**vars(lib))
    for attr, (span, options) in HARNESS_CALLS.items():
        setattr(traced, attr, tracer.wrap(span, getattr(lib, attr), **options))
    return traced


@contextmanager
def instrument(tracer: Tracer, modules=LIBRARY_MODULES):
    """Rebind the cross-module calls of ``modules`` to traced wrappers, then restore."""
    saved = []
    try:
        for module_name, attr, span, options in INNER_CALLS:
            if module_name not in modules:
                continue
            module = sys.modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            target = original
            if attr == "find_root_bracketed":
                target = tracer.counting_root_finder(original)
            setattr(module, attr, tracer.wrap(span, target, **options))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _total(tracers, span, outcome=None, residual=(0.0, 0.0)):
    """Summed [calls, inclusive_ns, self_ns, size] of a span over tracers.

    The times lose the wrapper ``residual`` (inside, outside): inside once
    per call, outside once per child from self time, and both once per
    descendant from inclusive time.
    """
    inside, outside = residual
    out = [0, 0, 0, 0]
    for tracer in tracers:
        for (name, result), stat in tracer.stats.items():
            if name == span and (outcome is None or result == outcome):
                calls, inclusive, self_ns, size, children, under = stat
                out[0] += calls
                out[1] += inclusive - calls * inside - under * (inside + outside)
                out[2] += self_ns - calls * inside - children * outside
                out[3] += size
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the run made no such call."""
    return num / den if den else 0.0


def _below(tracer, span, outcome, child):
    return sum(tally.get(child, 0) for (name, result), tally in tracer.counts.items()
               if name == span and (outcome is None or result == outcome))


def layer_metrics(workload_tracer: Tracer, canonical_tracer: Tracer, cli_times: dict,
                  overhead: dict, residual: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Times come from both phases, less the wrapper ``residual``; counts come
    from the canonical phase only, whose inputs are fixed, so they repeat
    exactly across runs and seeds.
    """
    both = (workload_tracer, canonical_tracer)
    canon = canonical_tracer

    def timed(span, outcome=None):
        return _total(both, span, outcome, residual)

    def per_call(span, scale, outcome=None):
        calls, inclusive, _, _ = timed(span, outcome)
        return _ratio(inclusive, calls) / scale

    metrics = {
        "numerics.std_normal_quantile.ns_per_call": (per_call("numerics.std_normal_quantile", 1), "ns"),
        "numerics.std_normal_cdf.ns_per_call": (per_call("numerics.std_normal_cdf", 1), "ns"),
        "numerics.find_root_bracketed.evals_per_call": (
            _ratio(canon.evaluations, _total([canon], "numerics.find_root_bracketed")[0]), "count"),
        "model.posterior_h0.ns_per_call": (per_call("model.posterior_h0", 1), "ns"),
        "model.bayes_factor.ns_per_call": (per_call("model.bayes_factor", 1), "ns"),
    }
    for kind in ("fixed", "robert", "kl", "table"):
        metrics[f"priors.log_m_of_sigma.ns_per_call.{kind}"] = (
            per_call(f"priors.log_m_of_sigma.{kind}", 1), "ns")
    _, paradox_ns, _, paradox_rows = timed("priors.paradox_sweep")
    metrics["priors.paradox_sweep.us_per_row"] = (_ratio(paradox_ns, paradox_rows) / 1e3, "us")
    metrics["priors.classify_regime.us_per_call"] = (per_call("priors.classify_regime", 1e3), "us")
    metrics["calibration.type_i_error.ns_per_call"] = (per_call("calibration.type_i_error", 1), "ns")
    solve = "calibration.solve_sigma"
    for label, outcome in (("feasible", "ok"), ("infeasible", "InfeasibleAlphaError")):
        solves = _total([canon], solve, outcome)[0]
        metrics[f"calibration.type_i_error.calls_per_solve.{label}"] = (
            _ratio(_below(canon, solve, outcome, "calibration.type_i_error"), solves), "count")
    in_solve = _below(canon, solve, None, "calibration.type_i_error")
    in_root = _below(canon, "numerics.find_root_bracketed", None, "calibration.type_i_error")
    metrics["calibration.solve_sigma.scan_share"] = (_ratio(in_solve - in_root, in_solve), "ratio")
    for label, outcome in (("feasible", "ok"), ("infeasible", "InfeasibleAlphaError")):
        calls, _, self_ns, _ = timed(solve, outcome)
        metrics[f"calibration.solve_sigma.self_ms.{label}"] = (_ratio(self_ns, calls) / 1e6, "ms")
    metrics["calibration.positivity_bound.us_per_call"] = (
        per_call("calibration.positivity_bound", 1e3), "us")
    metrics["calibration.decide.ns_per_call"] = (per_call("calibration.decide", 1), "ns")
    simulate_spans = ("montecarlo.simulate_type_i", "montecarlo.simulate_power")
    sim_ns = sum(timed(s)[1] for s in simulate_spans)
    sim_draws = sum(timed(s)[3] for s in simulate_spans)
    metrics["montecarlo.ns_per_draw"] = (_ratio(sim_ns, sim_draws), "ns")
    metrics["montecarlo.uniform_unit.ns_per_call"] = (per_call("montecarlo.uniform_unit", 1), "ns")
    canon_draws = sum(_total([canon], s)[3] for s in simulate_spans)
    canon_quantiles = sum(_below(canon, s, None, "numerics.std_normal_quantile")
                          for s in simulate_spans)
    metrics["montecarlo.quantile_calls_per_draw"] = (_ratio(canon_quantiles, canon_draws), "count")
    metrics["cli.import_ms"] = (cli_times["import_ms"] - cli_times["interpreter_ms"], "ms")
    for command in ("posterior", "bf", "calibrate", "sweep", "simulate", "regime"):
        metrics[f"cli.main_ms.{command}"] = (per_call(f"cli.main.{command}", 1e6), "ms")
    metrics["cli.interpreter_ms"] = (cli_times["interpreter_ms"], "ms")
    metrics["trace.overhead_ms_per_op"] = (overhead["ms_per_op"], "ms")
    metrics["trace.overhead_share"] = (overhead["share"], "ratio")
    return metrics
