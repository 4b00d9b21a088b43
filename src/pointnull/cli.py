"""Command-line front end.

Subcommands: posterior, bf, calibrate, sweep, simulate, regime. Human
output is `key = value` lines; sweeps emit CSV with `# key=value` comment
lines so a plot is one tool away. Exit codes are stable: 0 success, 2
argument problems, 3 domain/infeasibility problems, 4 I/O problems.

Each subcommand's options are declared once, in _COMMANDS, and each flag's
argparse type checks it. Options may also come from a key=value config file
(--config): its values become the subparser's defaults and pass through the
same types, explicit flags win over the file, and the file wins over
built-in defaults.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable, TextIO

from .calibration import CalibrationSpec, PsiDomainError, positivity_bound, psi, solve_sigma
from .model import (
    AlternativeSpread,
    Observation,
    bayes_factor,
    marginal_alt,
    posterior_report,
)
from .montecarlo import SimulationPlan, simulate_power, simulate_type_i
from .numerics import DomainError
from .priors import (
    SchemeParseError,
    classify_regime,
    paradox_sweep,
    scheme_from_string,
)

__all__ = ["OutputTable", "console_entry", "fmt_float", "main"]


def fmt_float(value: float) -> str:
    """Shortest decimal that parses back to exactly this float.

    Python's repr is round-trip exact and uses up to 17 significant digits,
    so every table and report can be re-read without losing a bit.
    """
    return repr(float(value))


@dataclass(frozen=True)
class OutputTable:
    """CSV carrier: one header row, float rows, and # key=value comments."""

    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    comments: tuple[str, ...] = ()
    trailing_comments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError(
                    f"row arity {len(row)} does not match header arity {len(self.header)}"
                )

    def render(self) -> str:
        lines = [f"# {c}" for c in self.comments]
        lines.append(",".join(self.header))
        lines.extend(",".join(fmt_float(v) for v in row) for row in self.rows)
        lines.extend(f"# {c}" for c in self.trailing_comments)
        return "\n".join(lines) + "\n"


class ConfigError(ValueError):
    """The --config file is unreadable as key=value lines."""


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _typed(convert: Callable[[str], float], noun: str, check: Callable, expect: str) -> Callable:
    """An argparse type: convert raw, then check it, else a usage error (exit 2)."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {noun}, got {raw!r}") from None
        if not check(value):
            raise argparse.ArgumentTypeError(f"must be {expect}, got {raw}")
        return value

    return parse


def _at_least(minimum: int) -> Callable[[str], int]:
    return _typed(int, "an integer", lambda v: v >= minimum, f">= {minimum}")


def _kind(raw: str) -> str:
    if raw not in ("psi", "paradox"):
        raise argparse.ArgumentTypeError(f"must be psi or paradox, got {raw!r}")
    return raw


_finite = _typed(float, "a number", math.isfinite, "a finite number")
_positive = _typed(float, "a number", lambda v: 0.0 < v < math.inf, "positive")
_probability = _typed(float, "a number", lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")

#: The type of each flag in every command that takes it; the rest stay strings.
_TYPES: dict[str, Callable[[str], object]] = {
    "x": _finite, "theta": _finite, "sigma": _positive, "sigma-min": _positive,
    "sigma-max": _positive, "alpha": _probability, "alpha-b": _probability,
    "n": _at_least(1), "seed": _at_least(0), "steps": _at_least(2), "kind": _kind,
}


def _emit(pairs: list[tuple[str, object]], stream: TextIO) -> None:
    for key, value in pairs:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = fmt_float(value)
        else:
            text = str(value)
        print(f"{key} = {text}", file=stream)


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [hi]


def _cmd_posterior(args: argparse.Namespace) -> int:
    scheme = scheme_from_string(args.scheme)
    rho = scheme.rho0(args.sigma)
    report = posterior_report(Observation(args.x), AlternativeSpread(args.sigma), args.alpha_b,
                              scheme.scheme_id, log_odds=scheme.log_prior_odds(args.sigma))
    _emit(
        [
            ("x", report.x),
            ("sigma", report.sigma),
            ("scheme", report.scheme),
            ("alpha_b", report.alpha_b),
            ("rho0", rho),
            ("m", report.m_value),
            ("bayes_factor", report.bayes_factor),
            ("posterior_h0", report.posterior_h0),
            ("decision", "reject" if report.rejected else "retain"),
        ],
        sys.stdout,
    )
    return 0


def _cmd_bf(args: argparse.Namespace) -> int:
    obs, spread = Observation(args.x), AlternativeSpread(args.sigma)
    _emit([("bayes_factor", bayes_factor(obs, spread)),
           ("marginal_alt", marginal_alt(obs, spread))], sys.stdout)
    return 0


def _compare_block(stream: TextIO) -> None:
    """Published reference values next to what the formulas actually give."""
    solved = solve_sigma(CalibrationSpec(0.05, 0.05, scheme_from_string("kl")))
    bound = positivity_bound(0.05, scheme_from_string("kl"))
    lines = [
        "# reference-comparison",
        "# published: alpha = alpha_b = 0.05 is quoted as giving sigma = 0.44",
        f"# computed:  scheme kl solves sigma_star = {fmt_float(solved.sigma_star)} "
        "at alpha = alpha_b = 0.05",
        "# published: positivity bound quoted as sigma = 1.2930 (text) and 1.2933 (caption)",
        f"# computed:  scheme kl bound at alpha_b = 0.05 is sigma_max = {fmt_float(bound)}",
        "# no built-in scheme reproduces the published values from the stated formulas; "
        "shown for comparison only",
    ]
    print("\n".join(lines), file=stream)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    scheme = scheme_from_string(args.scheme)
    result = solve_sigma(CalibrationSpec(args.alpha, args.alpha_b, scheme))
    _emit(
        [
            ("scheme", scheme.scheme_id),
            ("alpha", args.alpha),
            ("alpha_b", args.alpha_b),
            ("sigma_star", result.sigma_star),
            ("psi_at_sigma", result.psi_at_sigma),
            ("achieved_alpha", result.achieved_alpha),
            ("residual", result.residual),
            ("bracket_lo", result.bracket_used.lo),
            ("bracket_hi", result.bracket_used.hi),
            ("evaluations", result.evaluations),
        ],
        sys.stdout,
    )
    if args.compare_paper:
        _compare_block(sys.stdout)
    return 0


def _psi_table(scheme, alpha_b: float, grid: list[float]) -> OutputTable:
    rows: list[tuple[float, float, float]] = []
    truncated = False
    for sigma in grid:
        try:
            value = psi(sigma, alpha_b, scheme)
        except PsiDomainError:
            if rows:
                truncated = True
                break
            continue  # infeasible region before the usable one: skip forward
        rows.append((sigma, value, math.log(value)))
    comments = ("kind=psi", f"scheme={scheme.scheme_id}", f"alpha_b={fmt_float(alpha_b)}")
    trailing: tuple[str, ...] = ()
    if truncated:
        try:
            bound = positivity_bound(alpha_b, scheme)
        except DomainError:
            bound = None
        edge = bound if bound is not None else rows[-1][0]
        trailing = (f"domain_end sigma={fmt_float(edge)}",)
    return OutputTable(("sigma", "psi", "log_psi"), tuple(rows), comments, trailing)


def _paradox_table(scheme, x: float, grid: list[float]) -> OutputTable:
    rows = tuple(tuple(r) for r in paradox_sweep(scheme, x, grid))
    comments = ("kind=paradox", f"scheme={scheme.scheme_id}", f"x={fmt_float(x)}")
    return OutputTable(("sigma", "rho0", "m", "posterior_h0"), rows, comments)


def _cmd_sweep(args: argparse.Namespace) -> int:
    scheme = scheme_from_string(args.scheme)
    if not args.sigma_min < args.sigma_max:
        raise argparse.ArgumentTypeError(
            f"--sigma-min must be below --sigma-max, got {args.sigma_min} and {args.sigma_max}"
        )
    grid = _linspace(args.sigma_min, args.sigma_max, args.steps)
    if args.kind == "psi":
        table = _psi_table(scheme, args.alpha_b, grid)
    elif args.x is None:
        raise argparse.ArgumentTypeError("missing required option --x")
    else:
        table = _paradox_table(scheme, args.x, grid)
    if args.out is None:
        sys.stdout.write(table.render())
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table.render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    plan = SimulationPlan(n=args.n, seed=args.seed, theta=args.theta, sigma=args.sigma,
                          alpha_b=args.alpha_b, scheme=scheme_from_string(args.scheme))
    report = simulate_type_i(plan) if plan.theta == 0.0 else simulate_power(plan)
    _emit(
        [
            ("n", report.n),
            ("seed", plan.seed),
            ("theta", plan.theta),
            ("sigma", plan.sigma),
            ("alpha_b", plan.alpha_b),
            ("scheme", plan.scheme.scheme_id),
            ("rejections", report.rejections),
            ("estimate", report.estimate),
            ("std_error", report.std_error),
            ("ci95_lo", report.ci95[0]),
            ("ci95_hi", report.ci95[1]),
            ("analytic_value", report.analytic_value),
            ("within_3se", report.within_3se),
        ],
        sys.stdout,
    )
    return 0


def _cmd_regime(args: argparse.Namespace) -> int:
    scheme = scheme_from_string(args.scheme)
    classified = classify_regime(scheme)
    pairs: list[tuple[str, object]] = [
        ("scheme", scheme.scheme_id),
        ("case", classified.regime.case_label),
        ("regime", classified.regime.kind),
    ]
    if classified.regime.limit is not None:
        pairs.append(("limit", classified.regime.limit))
    ev = classified.evidence
    for probe, m_val, log_m in zip(ev.sigma_probes, ev.m_values, ev.log_m_values):
        tag = f"{probe:.0e}".replace("e+0", "e").replace("e+", "e")
        pairs.append((f"m_at_{tag}", m_val))
        pairs.append((f"log_m_at_{tag}", log_m))
    _emit(pairs, sys.stdout)
    return 0


_REQUIRED = object()  # no default: a flag or the config file must supply it

#: Each subcommand's handler, help line, and options in help order with their defaults.
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, dict[str, object]]] = {
    "posterior": (_cmd_posterior, "posterior null probability and decision for one observation",
                  {"x": _REQUIRED, "sigma": _REQUIRED, "scheme": "fixed:0.5", "alpha-b": "0.05"}),
    "bf": (_cmd_bf, "Bayes factor and marginal density for one observation",
           {"x": _REQUIRED, "sigma": _REQUIRED}),
    "calibrate": (_cmd_calibrate, "solve for the spread sigma matching a target Type I error",
                  {"alpha": _REQUIRED, "alpha-b": "0.05", "scheme": "kl", "compare-paper": False}),
    "sweep": (_cmd_sweep, "emit a CSV table over a sigma grid (kind: psi or paradox)",
              {"kind": _REQUIRED, "scheme": _REQUIRED, "alpha-b": "0.05", "x": None,
               "sigma-min": _REQUIRED, "sigma-max": _REQUIRED, "steps": "100", "out": None}),
    "simulate": (_cmd_simulate, "seeded Monte Carlo check of the rejection rate",
                 {"sigma": _REQUIRED, "alpha-b": "0.05", "scheme": "kl", "n": "1000000",
                  "seed": "0", "theta": "0.0"}),
    "regime": (_cmd_regime, "classify a scheme's large-sigma regime with numeric evidence",
               {"scheme": _REQUIRED}),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="pointnull",
        description="Point-null Bayesian testing: posteriors, calibration, simulation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, options) in _COMMANDS.items():
        sub = commands[name] = subparsers.add_parser(name, help=help_text)
        for flag, default in options.items():
            if flag == "compare-paper":
                sub.add_argument("--compare-paper", action="store_true")
            else:
                default = None if default is _REQUIRED else default
                sub.add_argument(f"--{flag}", type=_TYPES.get(flag), default=default)
        sub.add_argument("--config", help="key=value file supplying defaults for flags")
    return parser, commands


def _parse(argv: list[str] | None) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    """Flags over --config values over defaults, each checked by its flag's type."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    sub = commands[args.command]
    options = {flag.replace("-", "_"): value for flag, value in _COMMANDS[args.command][2].items()}
    if args.config:
        config = {k: v for k, v in _read_config(args.config).items() if k in options}
        if "compare_paper" in config:
            config["compare_paper"] = config["compare_paper"].lower() in ("1", "true", "yes", "on")
        sub.set_defaults(**config)
        args = parser.parse_args(argv)  # argparse runs string defaults through each type
    for dest, default in options.items():
        if default is _REQUIRED and getattr(args, dest) is None:
            sub.error(f"missing required option --{dest.replace('_', '-')}")
    return args, sub


def main(argv: list[str] | None = None) -> int:
    try:
        args, sub = _parse(argv)
        try:
            return _COMMANDS[args.command][0](args)
        except argparse.ArgumentTypeError as exc:  # options that do not fit together
            sub.error(str(exc))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except (SchemeParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    sys.exit(main())
