"""The benchmark's four seeded workloads: simulate, calibrate, sweep and cli.

A workload is made in three steps:

* ``generate(seed, work_dir)`` draws plain-data inputs from the seed alone and
  never calls the library; the calibrate tables are written as CSV files
  under ``work_dir``. The returned ``record`` is what a later run needs to
  replay the same inputs: seed, sizes and mix shares.
* ``prepare(lib, inputs)`` builds library objects from those inputs -- parsed
  schemes, loaded tables, validated specs and plans, expected CLI output --
  and warms up. The harness times it as set-up.
* The prepared ``Op`` list is one round. ``Op.run(lib)`` is the timed call;
  ``Op.check(lib, output)`` verifies its output afterwards, against values
  the benchmark computes itself, and returns a problem or None.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
ALPHA_BS = (0.01, 0.05, 0.1)
ALPHA_RANGE = (1e-4, 0.2)
DBL_MIN = sys.float_info.min

# kl at alpha = alpha_b = 0.05, with the tolerances of the acceptance tests.
SIGMA_STAR_KL_05 = 2.10897339437208
BOUND_KL_05 = 2.845487786545588

CLI_CODE = "import sys; from pointnull.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]


class Refusal(str):
    """A check's finding that the library refused an op its contract allows.

    The op counts as failed, like one that raised; it is not a wrong output.
    """


@dataclasses.dataclass(frozen=True)
class Infeasible:
    """solve_sigma's allowed refusal, kept as a comparable value."""

    requested: float
    achievable_lo: float
    achievable_hi: float


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"pointnull-bench:{workload}:{seed}")


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """n draws, one inside each of n equal strata of [lo, hi], in shuffled order.

    Stratifying keeps a round's mix the same from seed to seed, so that runs
    on different seeds measure the same amount of work.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (b - a) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def _cycle(rng: random.Random, choices, n: int) -> list:
    values = [choices[k % len(choices)] for k in range(n)]
    rng.shuffle(values)
    return values


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(k * step) for k in range(n - 1)] + [hi]


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference) if reference else abs(value)


# Closed forms, computed here from scheme.log_prior_odds rather than rho0.

def ref_log_m(scheme, sigma: float) -> float:
    return scheme.log_prior_odds(sigma) - 0.5 * math.log1p(sigma * sigma)


def ref_posterior(scheme, x: float, sigma: float) -> float:
    t = ref_log_m(scheme, sigma) + 0.5 * x * x * sigma * sigma / (1.0 + sigma * sigma)
    if t >= 0.0:
        u = math.exp(-t)
        return u / (1.0 + u)
    return 1.0 / (1.0 + math.exp(t))


def ref_psi(scheme, sigma: float, alpha_b: float) -> float:
    gap = math.log((1.0 - alpha_b) / alpha_b) - ref_log_m(scheme, sigma)
    return 2.0 * gap * (1.0 + sigma * sigma) / (sigma * sigma)


def ref_type_i(scheme, sigma: float, alpha_b: float) -> float:
    p = ref_psi(scheme, sigma, alpha_b)
    return 1.0 if p <= 0.0 else math.erfc(math.sqrt(0.5 * p))


def robert_type_i_range(alpha_b: float) -> tuple[float, float, float]:
    """(min, coarse max, max) of robert's Type I error over sigma.

    It rises from 0 to its sigma -> inf limit, which the solver's coarse
    scan reaches at sigma = 1e3 to well within the 1.25x margins.
    """
    gap = math.log((1.0 - alpha_b) / alpha_b) - 0.5 * math.log(2.0 * math.pi)
    sup = math.erfc(math.sqrt(gap)) if gap > 0.0 else 1.0
    return 0.0, sup, sup


def fixed_type_i_range(rho0: float, alpha_b: float) -> tuple[float, float, float]:
    """(min, coarse max, max) of fixed:rho0's Type I error on solve_sigma's scan.

    The scan covers sigma in [1e-3, 1e3]; its first, coarse pass looks only
    at the decades 10^k.
    """
    c = math.log((1.0 - alpha_b) / alpha_b) - math.log((1.0 - rho0) / rho0)

    def type_i(s):
        psi = 2.0 * (1.0 + s * s) / (s * s) * (c + 0.5 * math.log1p(s * s))
        return 1.0 if psi <= 0.0 else math.erfc(math.sqrt(0.5 * psi))

    values = [type_i(s) for s in log_grid(1e-3, 1e3, 2001)]
    return min(values), max(type_i(10.0**k) for k in range(-3, 4)), max(values)


def alpha_zones(t_min: float, t_coarse: float, t_max: float) -> dict[str, tuple[float, float]]:
    """Where a target alpha can sit against a Type I range, by 1.25x margins.

    A feasible alpha below the coarse maximum is bracketed by the solver's
    first pass; above it, only by a finer pass. Above the range no sigma
    reaches alpha; below it the root lies beyond the end of the scan.
    """
    lo, hi = ALPHA_RANGE
    return {"feasible": (max(lo, 1.25 * t_min), min(hi, 0.8 * t_coarse)),
            "fine_scan": (1.25 * t_coarse, min(hi, 0.8 * t_max)),
            "infeasible": (1.25 * t_max, hi),
            "beyond_scan": (lo, 0.8 * t_min)}


def ref_bound_problem(kind: str, alpha_b: float, bound) -> str | None:
    """Check positivity_bound against its closed forms; None when it holds."""
    level = math.log((1.0 - alpha_b) / alpha_b)
    if kind == "fixed":
        expected_none = True
    elif kind == "robert":
        expected_none = math.exp(2.0 * level) >= 2.0 * math.pi
        if not expected_none:
            exact = math.exp(level) / math.sqrt(2.0 * math.pi - math.exp(2.0 * level))
            if bound is None or _rel_err(bound, exact) > 1e-9:
                return f"robert bound {bound!r}, closed form {exact!r}"
            return None
    else:  # kl: s - log s = 2L + 1 with s = 1 + sigma^2
        expected_none = False
        if bound is not None:
            s = 1.0 + bound * bound
            if _rel_err(s - math.log(s), 2.0 * level + 1.0) > 1e-9:
                return f"kl bound {bound!r} misses s - log s = 2L + 1"
    if expected_none != (bound is None):
        return f"{kind} bound {bound!r} at alpha_b={alpha_b}"
    return None


# ---------------------------------------------------------------------------
# simulate


class Simulate:
    """simulate_type_i at sigma* for kl and robert, simulate_power on 3 schemes x 3 thetas."""

    name = "simulate"
    speed_probe = "kernel"
    tail_percentile = 75.0  # 11 plans a round, at least 8 rounds: 88 samples, 22 beyond
    min_rounds = 8
    ALPHA_B = 0.05
    THETAS = (0.5, 1.5, 3.0)

    def __init__(self, n: int = 50_000, prefix: int = 2000, warm_n: int = 1000):
        self.n, self.prefix, self.warm_n = n, prefix, warm_n

    def generate(self, seed: int, work_dir: Path) -> dict:
        rng = _rng(self.name, seed)
        alphas = _strata(rng, 2, 0.005, 0.04, log=True)
        rho = rng.uniform(0.05, 0.95)
        sigma_fixed = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        plans = [("type_i", "kl", 0.0), ("type_i", "robert", 0.0)]
        plans += [("power", s, t) for s in ("fixed", "robert", "kl") for t in self.THETAS]
        plans = [(kind, scheme, theta, rng.getrandbits(64)) for kind, scheme, theta in plans]
        record = {
            "n_per_plan": self.n, "prefix_n": self.prefix, "alpha_b": self.ALPHA_B,
            "alpha": {"kl": alphas[0], "robert": alphas[1]}, "fixed_rho0": rho,
            "fixed_sigma": sigma_fixed, "plans": plans,
        }
        return {"record": record, "plans": plans, "alphas": alphas, "rho": rho,
                "sigma_fixed": sigma_fixed}

    def prepare(self, lib, inputs: dict) -> list[Op]:
        schemes = {s: lib.scheme_from_string(s) for s in ("kl", "robert")}
        schemes["fixed"] = lib.scheme_from_string(f"fixed:{inputs['rho']!r}")
        sigma = {"fixed": inputs["sigma_fixed"]}
        for scheme, alpha in zip(("kl", "robert"), inputs["alphas"]):
            spec = lib.CalibrationSpec(alpha, self.ALPHA_B, schemes[scheme])
            sigma[scheme] = lib.solve_sigma(spec).sigma_star
        ops = []
        for kind, scheme, theta, seed in inputs["plans"]:
            plan = lib.SimulationPlan(self.n, seed, theta, sigma[scheme], self.ALPHA_B,
                                      schemes[scheme])
            function = "simulate_type_i" if kind == "type_i" else "simulate_power"
            getattr(lib, function)(dataclasses.replace(plan, n=self.warm_n))
            ops.append(Op(f"{kind}:{scheme}:theta={theta}",
                          lambda lib, f=function, p=plan: getattr(lib, f)(p),
                          lambda lib, out, f=function, p=plan: self.check(lib, f, p, out)))
        return ops

    def check(self, lib, function: str, plan, report) -> str | None:
        if report.n != plan.n or report.estimate != report.rejections / plan.n:
            return f"report of n={report.n} does not match its own count {report.rejections}"
        # The SE of a binomial share at the analytic rate: the report's own SE
        # is 0 when no draw, or every draw, rejects.
        a = report.analytic_value
        se = math.sqrt(a * (1.0 - a) / plan.n)
        if abs(report.estimate - a) > 5.0 * se:
            return f"estimate {report.estimate} is more than 5 SE ({se}) from {a}"
        prefix = getattr(lib, function)(dataclasses.replace(plan, n=self.prefix))
        return self.recount_problem(lib, plan, prefix.rejections)

    def recount_problem(self, lib, plan, rejections: int) -> str | None:
        """Recount the first draws through draw_standard_normal and posterior_h0."""
        spread = lib.AlternativeSpread(plan.sigma)
        rho = plan.scheme.rho0(plan.sigma)
        recount = sum(
            lib.posterior_h0(lib.Observation(plan.theta + lib.draw_standard_normal(plan.seed, i)),
                             spread, rho) < plan.alpha_b
            for i in range(self.prefix))
        if recount != rejections:
            return f"prefix n={self.prefix} counted {rejections}, public route {recount}"
        return None


# ---------------------------------------------------------------------------
# calibrate


class Calibrate:
    """solve_sigma (and positivity_bound) over kl, robert, fixed:rho and table schemes."""

    name = "calibrate"
    speed_probe = "kernel"
    # p90 falls in the middle of the infeasible solves (24 of about 90
    # successes a round); above it the samples measure machine jitter.
    tail_percentile = 90.0
    min_rounds = 2
    KINDS = ("kl", "robert", "fixed", "table")
    # An infeasible request, and a beyond-scan one that solve_sigma refuses
    # after the same full scan, costs about 25 feasible ones; a feasible one
    # that needs a finer scan pass costs several. So each outcome's count per
    # round is fixed, near the share that a log-uniform alpha gives, to keep
    # rounds of different seeds equally heavy.
    OUTCOME_SHARES = {"robert": {"infeasible": 0.24},
                      "fixed": {"beyond_scan": 1 / 30, "fine_scan": 0.1, "infeasible": 0.56}}

    def __init__(self, per_kind: int = 30, tables: int = 3):
        self.per_kind, self.tables = per_kind, tables

    def generate(self, seed: int, work_dir: Path) -> dict:
        rng = _rng(self.name, seed)
        table_dir = Path(work_dir) / "tables" / f"seed-{seed}"
        table_dir.mkdir(parents=True, exist_ok=True)
        table_specs, table_paths = [], []
        for k in range(self.tables):
            # kl-shaped tables: Type I error is below 1e-4 at the low end and 1
            # at the high end for every alpha_b used, so each requested alpha
            # has its root inside the table.
            lo, hi = rng.uniform(0.2, 0.5), rng.uniform(4.0, 6.0)
            rows = rng.randrange(40, 61)
            path = table_dir / f"table-{k}.csv"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("sigma,rho0\n")
                for s in (lo + (hi - lo) * j / (rows - 1) for j in range(rows)):
                    handle.write(f"{s!r},{1.0 / (1.0 + math.exp(0.5 * s * s))!r}\n")
            table_specs.append({"lo": lo, "hi": hi, "rows": rows})
            table_paths.append(str(path))
        requests = []
        n = self.per_kind
        for kind in self.KINDS:
            alpha_bs = _cycle(rng, ALPHA_BS, n)
            if kind == "fixed":
                rhos = _strata(rng, n, 0.05, 0.95)
                # The smallest rho0 (below 0.08) gets alpha_b = 0.1, so that a
                # beyond-scan request exists in every round.
                low, other = rhos.index(min(rhos)), alpha_bs.index(0.1)
                alpha_bs[low], alpha_bs[other] = alpha_bs[other], alpha_bs[low]
                texts = [f"fixed:{rho!r}" for rho in rhos]
                ranges = [fixed_type_i_range(rho, b) for rho, b in zip(rhos, alpha_bs)]
            elif kind == "robert":
                texts = [kind] * n
                ranges = [robert_type_i_range(b) for b in alpha_bs]
            elif kind == "kl":
                texts = [kind] * n
            else:
                texts = [f"table:{table_paths[j % self.tables]}" for j in range(n)]
            if kind in self.OUTCOME_SHARES:
                alphas = self.draw_alphas(rng, ranges, self.outcome_counts(kind))
            else:
                alphas = _strata(rng, n, *ALPHA_RANGE, log=True)
            requests += [(kind, t, a, b) for t, a, b in zip(texts, alphas, alpha_bs)]
        requests[0] = ("kl", "kl", 0.05, 0.05)  # spot values, one kl request
        rng.shuffle(requests)
        record = {
            "requests_per_round": len(requests),
            "mix_shares": {k: self.per_kind / len(requests) for k in self.KINDS},
            "alpha": "log-uniform on [1e-4, 0.2]; for robert and fixed, inside the zone of the "
                     "request's outcome, with 1.25x margins around its Type I range on the scan",
            "outcomes_per_round": {k: self.outcome_counts(k) for k in self.OUTCOME_SHARES},
            "alpha_b": list(ALPHA_BS),
            "fixed_rho0": "stratified uniform on [0.05, 0.95]", "tables": table_specs,
            "spot_request": "kl alpha = alpha_b = 0.05",
        }
        return {"record": record, "requests": requests}

    def prepare(self, lib, inputs: dict) -> list[Op]:
        schemes = {}
        ops = []
        for kind, text, alpha, alpha_b in inputs["requests"]:
            if text not in schemes:
                schemes[text] = lib.scheme_from_string(text)
            spec = lib.CalibrationSpec(alpha, alpha_b, schemes[text])
            ops.append(Op(f"{kind}:alpha={alpha!r}:alpha_b={alpha_b}",
                          lambda lib, s=spec, k=kind: self.solve(lib, s, k),
                          lambda lib, out, s=spec, k=kind: self.check(lib, s, k, out)))
        warmed = set()
        for op in ops:
            kind = op.label.split(":")[0]
            if kind not in warmed and kind != "table":
                warmed.add(kind)
                op.run(lib)
        return ops

    def outcome_counts(self, kind: str) -> dict[str, int]:
        return {o: round(share * self.per_kind) for o, share in self.OUTCOME_SHARES[kind].items()}

    @staticmethod
    def draw_alphas(rng, ranges, counts: dict[str, int]) -> list[float]:
        """One alpha per request, log-uniform inside the zone of its outcome.

        Requests whose feasible zone is empty are infeasible; then ``counts``
        requests are picked for each outcome among those whose zone is not
        empty; the rest are feasible.
        """
        zones = [alpha_zones(*r) for r in ranges]
        outcome = ["infeasible" if z["feasible"][0] >= z["feasible"][1] else "feasible"
                   for z in zones]
        for name, count in counts.items():
            count -= outcome.count(name)
            eligible = [k for k, z in enumerate(zones)
                        if outcome[k] == "feasible" and z[name][0] < z[name][1]]
            for k in rng.sample(eligible, max(0, min(count, len(eligible)))):
                outcome[k] = name
        return [_log_uniform(rng, *z[o]) for z, o in zip(zones, outcome)]

    @staticmethod
    def solve(lib, spec, kind: str):
        try:
            result = lib.solve_sigma(spec)
        except lib.InfeasibleAlphaError as exc:
            result = Infeasible(exc.requested, exc.achievable_lo, exc.achievable_hi)
        bound = None if kind == "table" else lib.positivity_bound(spec.alpha_b, spec.scheme)
        return result, bound

    @staticmethod
    def check(lib, spec, kind: str, output) -> str | None:
        result, bound = output
        if kind != "table":
            problem = ref_bound_problem(kind, spec.alpha_b, bound)
            if problem:
                return problem
        if isinstance(result, Infeasible):
            if result.achievable_lo <= spec.alpha <= result.achievable_hi:
                # Type I error is continuous in sigma, so a root exists.
                return Refusal(f"refused alpha={spec.alpha}, inside its own achievable "
                               f"range ({result.achievable_lo!r}, {result.achievable_hi!r})")
            return None
        s = result.sigma_star
        if not abs(result.residual) <= 1e-10:
            return f"residual {result.residual} above 1e-10"
        if not result.bracket_used.lo <= s <= result.bracket_used.hi:
            return f"sigma_star {s} outside bracket {result.bracket_used}"
        if abs(ref_type_i(spec.scheme, s, spec.alpha_b) - spec.alpha) > 1e-9:
            return f"closed-form Type I error at sigma_star {s} misses alpha={spec.alpha}"
        if (kind, spec.alpha, spec.alpha_b) == ("kl", 0.05, 0.05):
            if _rel_err(s, SIGMA_STAR_KL_05) > 1e-8 or abs(bound - BOUND_KL_05) > 1e-10:
                return f"spot values moved: sigma_star {s!r}, bound {bound!r}"
        return None


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """Paradox tables, psi / Type I curves cut at the positivity bound, decide per row."""

    name = "sweep"
    speed_probe = "kernel"
    # p95 falls in the middle of the slowest of 9 tables; 23 rounds give
    # at least 10 samples beyond it.
    tail_percentile = 95.0
    min_rounds = 23
    # (kind, scheme, alpha_b). alpha_b sets where kl's positivity bound cuts
    # the grid, and so how many decide rows take the psi-domain branch; it
    # is fixed per op so that rounds of different seeds cost the same.
    LAYOUT = (
        ("paradox", "fixed", None), ("paradox", "robert", None), ("paradox", "kl", None),
        ("psi", "robert", 0.05), ("psi", "kl", 0.01), ("psi", "kl", 0.1),
        ("decide", "fixed", 0.01), ("decide", "robert", 0.1), ("decide", "kl", 0.05),
    )
    SIGMA_MAX = 1e4
    POSTERIOR_RTOL = 1e-11
    PSI_RTOL = 1e-9

    def __init__(self, rows: int = 1000):
        self.rows = rows

    def generate(self, seed: int, work_dir: Path) -> dict:
        rng = _rng(self.name, seed)
        rho = rng.uniform(0.05, 0.95)
        xs = _strata(rng, len(self.LAYOUT), 0.5, 3.5)
        lows = _strata(rng, len(self.LAYOUT), 1e-3, 2e-3, log=True)
        ops = [{"kind": k, "scheme": s, "alpha_b": b, "x": x, "sigma_min": lo}
               for (k, s, b), x, lo in zip(self.LAYOUT, xs, lows)]
        record = {"rows_per_op": self.rows, "sigma_max": self.SIGMA_MAX, "fixed_rho0": rho,
                  "ops": ops}
        return {"record": record, "ops": ops, "rho": rho}

    def prepare(self, lib, inputs: dict) -> list[Op]:
        texts = {"fixed": f"fixed:{inputs['rho']!r}", "robert": "robert", "kl": "kl"}
        schemes = {k: lib.scheme_from_string(t) for k, t in texts.items()}
        ops = []
        for spec in inputs["ops"]:
            scheme = schemes[spec["scheme"]]
            grid = log_grid(spec["sigma_min"], self.SIGMA_MAX, self.rows)
            run = getattr(self, f"run_{spec['kind']}")
            check = getattr(self, f"check_{spec['kind']}")
            ops.append(Op(f"{spec['kind']}:{spec['scheme']}",
                          lambda lib, r=run, sc=scheme, sp=spec, g=grid: r(lib, sc, sp, g),
                          lambda lib, out, c=check, sc=scheme, sp=spec, g=grid: c(sc, sp, g, out)))
        for kind in ("paradox", "psi", "decide"):
            next(op for op in ops if op.label.startswith(kind)).run(lib)
        return ops

    @staticmethod
    def run_paradox(lib, scheme, spec, grid):
        return lib.paradox_sweep(scheme, spec["x"], grid)

    def run_psi(self, lib, scheme, spec, grid):
        alpha_b = spec["alpha_b"]
        bound = lib.positivity_bound(alpha_b, scheme)
        hi = self.SIGMA_MAX if bound is None else bound * (1.0 - 1e-6)
        rows = [(s, lib.psi(s, alpha_b, scheme), lib.type_i_error(s, alpha_b, scheme))
                for s in log_grid(spec["sigma_min"], hi, self.rows)]
        return bound, rows

    @staticmethod
    def run_decide(lib, scheme, spec, grid):
        obs = lib.Observation(spec["x"])
        return [lib.decide(obs, s, spec["alpha_b"], scheme) for s in grid]

    def posterior_problem(self, scheme, x, sigma, posterior) -> str | None:
        """Posteriors below the smallest normal double are compared absolutely."""
        reference = ref_posterior(scheme, x, sigma)
        if abs(posterior - reference) > self.POSTERIOR_RTOL * reference + DBL_MIN:
            return f"posterior {posterior!r} at sigma={sigma!r}, closed form {reference!r}"
        return None

    def check_paradox(self, scheme, spec, grid, rows) -> str | None:
        if [row.sigma for row in rows] != grid:
            return "paradox rows do not follow the grid"
        for row in rows:
            problem = self.posterior_problem(scheme, spec["x"], row.sigma, row.posterior_h0)
            if problem:
                return problem
        return None

    def check_psi(self, scheme, spec, grid, output) -> str | None:
        bound, rows = output
        problem = ref_bound_problem(spec["scheme"], spec["alpha_b"], bound)
        if problem:
            return problem
        if len(rows) != self.rows:
            return f"{len(rows)} psi rows, expected {self.rows}"
        for (_, p_lo, t_lo), (s, p_hi, t_hi) in zip(rows, rows[1:]):
            if not p_hi < p_lo or t_hi < t_lo:
                return f"psi or Type I error not monotone at sigma={s!r}"
        for s, p, t in rows:
            reference = ref_psi(scheme, s, spec["alpha_b"])
            if _rel_err(p, reference) > self.PSI_RTOL:
                return f"psi {p!r} at sigma={s!r}, closed form {reference!r}"
            expected = math.erfc(math.sqrt(0.5 * p))
            if abs(t - expected) > 1e-10 * expected + DBL_MIN:
                return f"Type I error {t!r} at sigma={s!r}, from psi {expected!r}"
        return None

    def check_decide(self, scheme, spec, grid, decisions) -> str | None:
        alpha_b = spec["alpha_b"]
        for s, d in zip(grid, decisions):
            reference = ref_posterior(scheme, spec["x"], s)
            if d.reject != d.via_posterior:
                return f"decision at sigma={s!r} does not follow the posterior route"
            if abs(reference - alpha_b) > 1e-9 and d.reject != (reference < alpha_b):
                return f"decision {d.reject} at sigma={s!r}, closed-form posterior {reference!r}"
        return None


# ---------------------------------------------------------------------------
# cli


class Cli:
    """Cold subprocess runs of all six subcommands, one child at a time."""

    name = "cli"
    speed_probe = "interpreter"
    tail_percentile = 75.0  # 7 invocations a round, at least 6 rounds: 42 samples, 10 beyond
    min_rounds = 6

    def __init__(self, sweep_rows: int = 1000, draws: int = 10_000):
        self.sweep_rows, self.draws = sweep_rows, draws

    def generate(self, seed: int, work_dir: Path) -> dict:
        rng = _rng(self.name, seed)
        scheme = rng.choice(("kl", "robert", f"fixed:{rng.uniform(0.05, 0.95)!r}"))
        x = repr(rng.uniform(-4.0, 4.0))
        sigma = repr(math.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        alpha_b = repr(rng.choice(ALPHA_BS))

        def calibrate():
            alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.04)))
            return ["calibrate", "--alpha", repr(alpha), "--alpha-b", "0.05",
                    "--scheme", rng.choice(("kl", "robert"))]

        argvs = [
            ["posterior", "--x", x, "--sigma", sigma, "--scheme", scheme, "--alpha-b", alpha_b],
            ["bf", "--x", repr(rng.uniform(-4.0, 4.0)), "--sigma", sigma],
            calibrate(),
            calibrate() + ["--compare-paper"],
            ["regime", "--scheme", rng.choice(("kl", "robert", "fixed:0.5"))],
            ["sweep", "--kind", "paradox", "--scheme", scheme, "--x", x,
             "--sigma-min", repr(rng.uniform(0.01, 0.1)), "--sigma-max", repr(rng.uniform(10.0, 100.0)),
             "--steps", str(self.sweep_rows)],
            ["simulate", "--sigma", repr(rng.uniform(0.5, 3.0)), "--scheme", "kl",
             "--n", str(self.draws), "--seed", str(rng.getrandbits(32)),
             "--theta", rng.choice(("0.0", "1.5"))],
        ]
        record = {"argv": argvs, "sweep_rows": self.sweep_rows, "simulate_draws": self.draws}
        return {"record": record, "argvs": argvs}

    def prepare(self, lib, inputs: dict) -> list[Op]:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        ops = []
        for argv in inputs["argvs"]:
            expected = self.in_process(lib, argv)
            ops.append(Op(argv[0],
                          lambda lib, a=argv: self.spawn(a, env),
                          lambda lib, out, e=expected: None if out == e else
                          f"exit {out[0]} and {len(out[1])} bytes, in-process {e[0]} and {len(e[1])} bytes"))
        return ops

    @staticmethod
    def in_process(lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.main(list(argv))
        return code, out.getvalue().encode()

    @staticmethod
    def spawn(argv, env):
        done = subprocess.run([sys.executable, "-c", CLI_CODE, *argv], env=env, cwd=ROOT,
                              capture_output=True, timeout=60)
        return done.returncode, done.stdout


WORKLOADS = {w.name: w for w in (Simulate, Calibrate, Sweep, Cli)}
