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
from typing import Callable

from .model import AlternativeSpread, Observation, bayes_factor, marginal_alt
from .numerics import DomainError
from .priors import SchemeParseError, classify_regime, paradox_sweep, scheme_from_string

__all__ = ["console_entry", "fmt_float", "main"]


def fmt_float(value: float) -> str:
    """Shortest decimal that parses back to exactly this float.

    Python's repr is round-trip exact and uses up to 17 significant digits,
    so every table and report can be re-read without losing a bit.
    """
    return repr(float(value))


class ConfigError(ValueError):
    """The --config file is unreadable as key=value lines."""


def _read_config(path: str) -> dict[str, str]:
    """The file's key=value lines. A key of another subcommand is kept; one of none is refused."""
    options = {flag.replace("-", "_") for *_, flags in _COMMANDS.values() for flag in flags}
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a leading byte-order mark is dropped
            lines = handle.readlines()
    except UnicodeDecodeError as error:
        raise ConfigError(f"{path}: not UTF-8 text ({error.reason})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        if (name := key.strip().replace("-", "_")) not in options:
            raise ConfigError(f"{path}:{lineno}: no subcommand takes the key {key.strip()!r}")
        values[name] = value = value.strip()
        if name == "compare_paper" and value.lower() not in _SWITCHES.split("/"):
            raise ConfigError(f"{path}:{lineno}: compare_paper takes {_SWITCHES}, got {value!r}")
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


_finite = _typed(float, "a number", math.isfinite, "a finite number")
_positive = _typed(float, "a number", lambda v: 0.0 < v < math.inf, "positive")
_probability = _typed(float, "a number", lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")

#: The type of each flag in every command that takes it; the rest stay strings.
_TYPES: dict[str, Callable[[str], object]] = {
    "x": _finite, "theta": _finite, "sigma": _positive, "sigma-min": _positive,
    "sigma-max": _positive, "alpha": _probability, "alpha-b": _probability,
    "n": _at_least(1), "steps": _at_least(2),
    "seed": _typed(int, "an integer", lambda v: 0 <= v < 1 << 64, "a 64-bit unsigned integer"),
    "kind": _typed(str, "psi or paradox", ("psi", "paradox").__contains__, "psi or paradox"),
}


def _kv(pairs: list[tuple[str, object]]) -> str:
    lines = []
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = fmt_float(value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def _csv(header: tuple[str, ...], rows, comments: tuple[str, ...],
         trailing: tuple[str, ...] = ()) -> str:
    """A header row, float rows and `# key=value` comments before and after them."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(fmt_float(v) for v in row) for row in rows)
    lines.extend(f"# {c}" for c in trailing)
    return "\n".join(lines) + "\n"


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [hi]


def _cmd_posterior(args: argparse.Namespace) -> str:
    from .calibration import decide  # loaded on use, like montecarlo
    scheme, sigma = scheme_from_string(args.scheme), args.sigma
    row = paradox_sweep(scheme, args.x, [sigma])[0]  # the row `sweep --kind paradox` prints
    obs, spread = Observation(args.x), AlternativeSpread(sigma)
    return _kv(
        [
            ("x", args.x),
            ("sigma", sigma),
            ("scheme", scheme.scheme_id),
            ("alpha_b", args.alpha_b),
            ("rho0", row.rho0),
            ("m", row.m),
            ("bayes_factor", bayes_factor(obs, spread)),
            ("posterior_h0", row.posterior_h0),
            ("decision", "reject" if decide(obs, sigma, args.alpha_b, scheme).reject else "retain"),
        ]
    )


def _cmd_bf(args: argparse.Namespace) -> str:
    obs, spread = Observation(args.x), AlternativeSpread(args.sigma)
    return _kv([("bayes_factor", bayes_factor(obs, spread)),
                ("marginal_alt", marginal_alt(obs, spread))])


def _compare_block() -> str:
    """Published reference values next to what the formulas actually give."""
    from .calibration import CalibrationSpec, positivity_bound, solve_sigma
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
    return "\n".join(lines) + "\n"


def _cmd_calibrate(args: argparse.Namespace) -> str:
    from .calibration import CalibrationSpec, solve_sigma
    scheme = scheme_from_string(args.scheme)
    result = solve_sigma(CalibrationSpec(args.alpha, args.alpha_b, scheme))
    text = _kv(
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
        ]
    )
    return text + _compare_block() if args.compare_paper else text


def _psi_table(scheme, alpha_b: float, grid: list[float]) -> str:
    from .calibration import psi_sweep
    rows, end = psi_sweep(scheme, alpha_b, grid)
    comments = ("kind=psi", f"scheme={scheme.scheme_id}", f"alpha_b={fmt_float(alpha_b)}")
    trailing = () if end is None else (f"domain_end sigma={fmt_float(end)}",)
    table = [(sigma, value, math.log(value)) for sigma, value in rows]
    return _csv(("sigma", "psi", "log_psi"), table, comments, trailing)


def _paradox_table(scheme, x: float, grid: list[float]) -> str:
    comments = ("kind=paradox", f"scheme={scheme.scheme_id}", f"x={fmt_float(x)}")
    return _csv(("sigma", "rho0", "m", "posterior_h0"), paradox_sweep(scheme, x, grid), comments)


def _cmd_sweep(args: argparse.Namespace) -> str:
    scheme = scheme_from_string(args.scheme)
    grid = _linspace(args.sigma_min, args.sigma_max, args.steps)
    if any(a >= b for a, b in zip(grid, grid[1:])):  # too narrow a range repeats a sigma
        raise argparse.ArgumentTypeError(
            f"--sigma-min must be below --sigma-max with room for --steps distinct sigmas, "
            f"got {args.sigma_min}, {args.sigma_max} and {args.steps}")
    if args.kind == "psi":
        table = _psi_table(scheme, args.alpha_b, grid)
    elif args.x is None:
        raise argparse.ArgumentTypeError("missing required option --x")
    else:
        table = _paradox_table(scheme, args.x, grid)
    if args.out is None:
        return table
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(table)
    return ""


def _cmd_simulate(args: argparse.Namespace) -> str:
    from .montecarlo import SimulationPlan, simulate_power  # loaded on use
    plan = SimulationPlan(n=args.n, seed=args.seed, theta=args.theta, sigma=args.sigma,
                          alpha_b=args.alpha_b, scheme=scheme_from_string(args.scheme))
    report = simulate_power(plan)
    return _kv(
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
        ]
    )


def _cmd_regime(args: argparse.Namespace) -> str:
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
    return _kv(pairs)


_REQUIRED = object()  # no default: a flag or the config file must supply it
_SWITCHES = "1/true/yes/on/0/false/no/off"  # compare_paper's values in a file: on, then off

#: Each subcommand's handler, help line, and options in help order with their defaults.
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], str], str, dict[str, object]]] = {
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


def _build_parser(argv: list[str]
                  ) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """Every command's name and help line, but options only for the command argv names."""
    invoked = next((arg for arg in argv if arg in _COMMANDS), None)  # argparse's pick
    parser = argparse.ArgumentParser(
        prog="pointnull",
        description="Point-null Bayesian testing: posteriors, calibration, simulation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, options) in _COMMANDS.items():
        sub = commands[name] = subparsers.add_parser(name, help=help_text)
        if name != invoked:  # the rest need only the name and help line that `-h` lists
            continue
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
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser(argv)
    args = parser.parse_args(argv)
    sub = commands[args.command]
    options = {flag.replace("-", "_"): value for flag, value in _COMMANDS[args.command][2].items()}
    if args.config:
        config = {k: v for k, v in _read_config(args.config).items() if k in options}
        if "compare_paper" in config:
            config["compare_paper"] = config["compare_paper"].lower() in _SWITCHES.split("/")[:4]
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
            text = _COMMANDS[args.command][0](args)
        except argparse.ArgumentTypeError as exc:  # options that do not fit together
            sub.error(str(exc))
        sys.stdout.write(text)
        return 0
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


if __name__ == "__main__":
    console_entry()
