"""Command-line surface: parsing, key=value output, CSV sweeps, exit codes."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pointnull
from pointnull.calibration import power_analytic, type_i_error
from pointnull.cli import fmt_float, main
from pointnull.priors import KLSelfInformationPrior, ParadoxRow, paradox_sweep, scheme_from_string

SIGMA_STAR_005_KL = "2.1089733943720829818"
BOUND_KL_05 = 2.8454877865455884127
README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_CSV = Path(__file__).resolve().parent / "golden" / "table.csv"
COMMANDS = ("posterior", "bf", "calibrate", "sweep", "simulate", "regime")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def parse_csv(out):
    comments, header, rows = [], None, []
    for line in out.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


# ---------------------------------------------------------------------------
# posterior / bf


def test_posterior_known_case(capsys):
    code, out, _ = run(
        capsys, "posterior", "--x", "0", "--sigma", "1.7320508075688772",
        "--scheme", "fixed:0.5",
    )
    assert code == 0
    values = parse_kv(out)
    assert float(values["posterior_h0"]) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert float(values["bayes_factor"]) == pytest.approx(2.0, rel=1e-12)
    assert values["decision"] == "retain"


def test_posterior_large_sigma_favours_null(capsys):
    code, out, _ = run(
        capsys, "posterior", "--x", "1.96", "--sigma", "1e4", "--scheme", "fixed:0.5",
    )
    assert code == 0
    assert float(parse_kv(out)["posterior_h0"]) > 0.999


def test_posterior_rejects_bad_inputs(capsys):
    assert run(capsys, "posterior", "--x", "0", "--sigma", "-1", "--scheme", "kl")[0] == 2
    assert run(capsys, "posterior", "--sigma", "1", "--scheme", "kl")[0] == 2
    assert run(capsys, "posterior", "--x", "0", "--sigma", "1", "--scheme", "kl",
               "--alpha-b", "1.5")[0] == 2
    assert run(capsys, "posterior", "--x", "0", "--sigma", "1", "--scheme", "banana")[0] == 2


def test_posterior_ties_retain(capsys):
    tie = 0.5998209101916216  # posterior_h0 at x = 1, sigma = 2, rho0 = 1/2
    for alpha_b, decision in ((tie, "retain"), (math.nextafter(tie, 1.0), "reject")):
        code, out, _ = run(capsys, "posterior", "--x", "1", "--sigma", "2",
                           "--scheme", "fixed:0.5", "--alpha-b", repr(alpha_b))
        assert code == 0
        values = parse_kv(out)
        assert (values["posterior_h0"], values["decision"]) == (repr(tie), decision)


def test_bf_reports_exactly_two_quantities(capsys):
    code, out, _ = run(capsys, "bf", "--x", "2", "--sigma", "1")
    assert code == 0
    values = parse_kv(out)
    assert sorted(values) == ["bayes_factor", "marginal_alt"]
    assert float(values["bayes_factor"]) == pytest.approx(0.52026009502288889636, rel=1e-12)


def test_posterior_past_kl_underflow_uses_the_exact_odds(capsys):
    code, out, _ = run(capsys, "posterior", "--x", "0", "--sigma", "40", "--scheme", "kl")
    assert code == 0
    values = parse_kv(out)
    assert values["rho0"] == "0.0"
    assert values["posterior_h0"] == "0.0"
    assert values["m"] == "inf"
    assert values["decision"] == "reject"
    code, out, _ = run(capsys, "posterior", "--x", "0", "--sigma", "38.5", "--scheme", "kl")
    assert code == 0
    assert parse_kv(out)["m"] == "inf"


@pytest.mark.parametrize(
    "scheme, x, sigma",
    (
        ("kl", "0.23802577210235576", "0.6064502263930358"),
        ("kl", "1.5", "2.0"),
        ("kl", "0", "38.5"),
        ("kl", "0", "40"),  # past rho0's underflow
        ("robert", "1.5", "0.5"),
        ("robert", "-2.5", "7.3"),
        ("fixed:0.5", "1.96", "2"),
        pytest.param(f"table:{TABLE_CSV}", "1.5", "3", id="table-1.5-3"),
        ("fixed:0.5", "1e200", "1e-200"),  # the x^2 term's overflow route
    ),
)
def test_posterior_matches_the_paradox_sweep_row(capsys, scheme, x, sigma):
    """posterior prints the row of paradox_sweep, which sweep --kind paradox prints too."""
    code, out, _ = run(capsys, "posterior", "--x", x, "--sigma", sigma, "--scheme", scheme)
    assert code == 0
    values = parse_kv(out)
    sigma_max = "8" if scheme.startswith("table:") else "100"  # the table ends at 8
    code, table, _ = run(capsys, "sweep", "--kind", "paradox", "--scheme", scheme, "--x", x,
                         "--sigma-min", sigma, "--sigma-max", sigma_max, "--steps", "2")
    assert code == 0
    _, header, rows = parse_csv(table)
    row = dict(zip(header, rows[0]))
    assert row["sigma"] == values["sigma"]
    library = paradox_sweep(scheme_from_string(scheme), float(x), [float(sigma)])[0]
    assert type(library) is ParadoxRow  # the record paradox_sweep builds without _make
    assert library._fields == ("sigma", "rho0", "m", "posterior_h0")
    assert library == ParadoxRow._make(tuple(library))
    for key in ("rho0", "m", "posterior_h0"):
        assert row[key] == values[key] == fmt_float(getattr(library, key)), key


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_solves_the_kl_target(capsys):
    code, out, _ = run(capsys, "calibrate", "--alpha", "0.05", "--alpha-b", "0.05",
                       "--scheme", "kl")
    assert code == 0
    values = parse_kv(out)
    assert float(values["sigma_star"]) == pytest.approx(float(SIGMA_STAR_005_KL), rel=1e-8)
    assert abs(float(values["achieved_alpha"]) - 0.05) <= 1e-10
    assert float(values["evaluations"]) > 0


def test_calibrate_infeasible_target_exits_3(capsys):
    code, _, err = run(capsys, "calibrate", "--alpha", "0.05", "--alpha-b", "0.05",
                       "--scheme", "robert")
    assert code == 3
    assert "achievable range is approximately" in err


def test_calibrate_robert_low_target_succeeds(capsys):
    code, out, _ = run(capsys, "calibrate", "--alpha", "0.01", "--alpha-b", "0.05",
                       "--scheme", "robert")
    assert code == 0
    assert float(parse_kv(out)["sigma_star"]) == pytest.approx(1.4273082827389831827, rel=1e-8)


@pytest.mark.parametrize("scheme,alpha,alpha_b,achievable", [
    # The error rounds to 1 at sigma*, in kl's cell and on the scan's [10, 100], so the range is
    # the scan's least error and its greatest below 1, at 10.
    ("kl", "0.9999999999999999", "5e-324", "(0.0, 5.103053780903845e-308)"),
    # c_alpha is about 1.9e-32, below psi's resolution: sigma* lands where psi rounds to <= 0.
    ("fixed:0.0009", "0.9999999999999999", "0.05", "(0.2998199050658802, 0.2998199050658802)"),
])
def test_calibrate_refuses_targets_next_to_one_in_one_line(capsys, scheme, alpha, alpha_b,
                                                           achievable):
    code, out, err = run(capsys, "calibrate", "--alpha", alpha, "--alpha-b", alpha_b,
                         "--scheme", scheme)
    assert (code, out) == (3, "")
    assert err == (f"error: no sigma achieves Type I error {alpha}; achievable range is "
                   f"approximately {achievable}\n")


def test_calibrate_answers_a_kl_target_above_the_error_at_its_rounded_bound(capsys):
    """The error at kl's rounded bound is 0.999999964355479 and 1 one float above it. For
    alpha = 0.99999999 h_c does not change sign on [lo, bound]; at the bound it is about 9e-16,
    within its rounding bound, so the bound answers and the residual is the error's step."""
    code, out, _ = run(capsys, "calibrate", "--alpha", "0.99999999", "--alpha-b", "0.05",
                       "--scheme", "kl")
    values = parse_kv(out)
    assert code == 0
    assert (values["sigma_star"], values["bracket_hi"]) == ("2.845487786545588",) * 2
    assert (values["achieved_alpha"], values["evaluations"]) == ("0.999999964355479", "2")


def test_calibrate_meets_a_kl_target_just_above_the_error_at_its_rounded_bound(capsys):
    """h_c does not change sign on kl's bracket: the end nearer its root, the bound, answers."""
    bound = 2.845487786545588
    alpha = type_i_error(bound, 0.05, KLSelfInformationPrior()) * (1.0 + 2e-12)
    code, out, _ = run(capsys, "calibrate", "--alpha", repr(alpha), "--alpha-b", "0.05",
                       "--scheme", "kl")
    values = parse_kv(out)
    assert code == 0
    assert (float(values["sigma_star"]), float(values["bracket_hi"])) == (bound, bound)
    assert -float(values["residual"]) <= 5e-12 * alpha


def test_calibrate_compare_block_quotes_published_numbers(capsys):
    code, out, _ = run(capsys, "calibrate", "--alpha", "0.05", "--alpha-b", "0.05",
                       "--scheme", "kl", "--compare-paper")
    assert code == 0
    assert "sigma = 0.44" in out
    assert "1.2930 (text) and 1.2933 (caption)" in out
    assert "sigma_max = 2.845487786545588" in out


# ---------------------------------------------------------------------------
# sweep


def test_psi_sweep_inside_domain(capsys):
    code, out, _ = run(capsys, "sweep", "--kind", "psi", "--scheme", "kl",
                       "--sigma-min", "0.2", "--sigma-max", "2.8", "--steps", "100")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["sigma", "psi", "log_psi"]
    assert len(rows) == 100
    log_psi = [float(row[2]) for row in rows]
    assert all(b < a for a, b in zip(log_psi, log_psi[1:]))
    assert not any("domain_end" in c for c in comments)


def test_psi_sweep_truncates_at_the_positivity_bound(capsys):
    code, out, _ = run(capsys, "sweep", "--kind", "psi", "--scheme", "kl",
                       "--sigma-min", "0.2", "--sigma-max", "3.2", "--steps", "50")
    assert code == 0
    comments, _, rows = parse_csv(out)
    trailer = [c for c in comments if "domain_end" in c]
    assert len(trailer) == 1
    reported = float(trailer[0].split("sigma=")[1])
    assert reported == pytest.approx(BOUND_KL_05, abs=1e-9)
    assert float(rows[-1][0]) < BOUND_KL_05


def test_sweep_cells_round_trip_exactly(capsys):
    _, out, _ = run(capsys, "sweep", "--kind", "psi", "--scheme", "kl",
                    "--sigma-min", "0.3", "--sigma-max", "2.5", "--steps", "20")
    _, _, rows = parse_csv(out)
    for row in rows:
        for cell in row:
            assert fmt_float(float(cell)) == cell


def test_paradox_sweep(capsys):
    code, out, _ = run(capsys, "sweep", "--kind", "paradox", "--scheme", "fixed:0.5",
                       "--x", "1.96", "--sigma-min", "1", "--sigma-max", "1e4",
                       "--steps", "5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["sigma", "rho0", "m", "posterior_h0"]
    assert len(rows) == 5
    assert float(rows[-1][3]) > 0.999


def test_sweep_writes_identical_csv_to_file(capsys, tmp_path):
    args = ("sweep", "--kind", "paradox", "--scheme", "robert", "--x", "0",
            "--sigma-min", "0.5", "--sigma-max", "8", "--steps", "12")
    _, stdout_version, _ = run(capsys, *args)
    out_file = tmp_path / "rows.csv"
    code, out, _ = run(capsys, *args, "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_text() == stdout_version


def test_sweep_unwritable_out_exits_4(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--kind", "psi", "--scheme", "kl",
                       "--sigma-min", "0.5", "--sigma-max", "2", "--steps", "5",
                       "--out", str(tmp_path / "nope" / "rows.csv"))
    assert code == 4
    assert "error:" in err


def test_sweep_argument_validation(capsys):
    base = ("sweep", "--kind", "psi", "--scheme", "kl")
    assert run(capsys, *base, "--sigma-min", "2", "--sigma-max", "1")[0] == 2
    assert run(capsys, *base, "--sigma-min", "1", "--sigma-max", "2", "--steps", "1")[0] == 2
    assert run(capsys, "sweep", "--kind", "spiral", "--scheme", "kl",
               "--sigma-min", "1", "--sigma-max", "2")[0] == 2
    assert run(capsys, "sweep", "--kind", "paradox", "--scheme", "kl",
               "--sigma-min", "1", "--sigma-max", "2")[0] == 2  # paradox needs --x


@pytest.mark.parametrize("kind", [("--kind", "paradox", "--x", "1"), ("--kind", "psi")])
def test_sweep_refuses_a_range_too_narrow_for_its_steps_as_a_usage_error(capsys, kind):
    """One ulp apart, three steps would repeat a sigma: the options do not fit together."""
    narrow = ("--sigma-min", "1", "--sigma-max", "1.0000000000000002", "--steps", "3")
    code, out, err = run(capsys, "sweep", "--scheme", "kl", *kind, *narrow)
    assert (code, out) == (2, "")
    assert ("pointnull sweep: error: --sigma-min must be below --sigma-max with room for --steps "
            "distinct sigmas, got 1.0, 1.0000000000000002 and 3") in err
    code, out, _ = run(capsys, "sweep", "--scheme", "kl", *kind, *narrow[:3],
                       "1.0000000000000004", "--steps", "3")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines() if line[0].isdigit()] == [
        "1.0", "1.0000000000000002", "1.0000000000000004"]


def test_sweep_rejects_a_malformed_option_its_kind_does_not_use(capsys):
    grid = ("--scheme", "kl", "--sigma-min", "1", "--sigma-max", "2", "--steps", "3")
    code, out, err = run(capsys, "sweep", "--kind", "psi", *grid, "--x", "abc")
    assert (code, out) == (2, "")
    assert "pointnull sweep: error: argument --x: expects a number, got 'abc'" in err
    code, out, err = run(capsys, "sweep", "--kind", "paradox", "--x", "1", *grid,
                         "--alpha-b", "abc")
    assert (code, out) == (2, "")
    assert "argument --alpha-b: expects a number, got 'abc'" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_echoes_plan_and_reproduces(capsys):
    args = ("simulate", "--n", "3000", "--seed", "11", "--sigma", SIGMA_STAR_005_KL,
            "--scheme", "kl", "--alpha-b", "0.05")
    code, first, _ = run(capsys, *args)
    assert code == 0
    values = parse_kv(first)
    assert values["n"] == "3000"
    assert values["seed"] == "11"
    assert values["scheme"] == "kl"
    assert values["within_3se"] in ("true", "false")
    assert float(values["analytic_value"]) == pytest.approx(
        type_i_error(float(SIGMA_STAR_005_KL), 0.05, KLSelfInformationPrior()), rel=1e-12
    )
    _, second, _ = run(capsys, *args)
    assert second == first


def test_simulate_single_draw_keeps_interval_in_bounds(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "1", "--seed", "0",
                       "--sigma", "1", "--scheme", "kl")
    assert code == 0
    values = parse_kv(out)
    assert 0.0 <= float(values["ci95_lo"]) <= float(values["ci95_hi"]) <= 1.0


def test_simulate_nonzero_theta_reports_power(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "2000", "--seed", "3",
                       "--theta", "1.5", "--sigma", SIGMA_STAR_005_KL, "--scheme", "kl")
    assert code == 0
    values = parse_kv(out)
    assert float(values["analytic_value"]) == pytest.approx(
        power_analytic(1.5, float(SIGMA_STAR_005_KL), 0.05, KLSelfInformationPrior()),
        rel=1e-12,
    )


def test_kl_past_the_float_range_of_sigma_squared_answers(capsys):
    code, out, _ = run(capsys, "posterior", "--x", "0", "--sigma", "1e200", "--scheme", "kl")
    assert code == 0
    values = parse_kv(out)
    assert (values["rho0"], values["m"], values["posterior_h0"]) == ("0.0", "inf", "0.0")
    assert values["decision"] == "reject"
    code, out, _ = run(capsys, "simulate", "--n", "200", "--sigma", "1e200", "--scheme", "kl")
    assert code == 0
    values = parse_kv(out)
    assert (values["rejections"], values["analytic_value"]) == ("200", "1.0")


def test_underflowing_sigma_squared_never_rejects(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "200", "--sigma", "1e-200", "--scheme", "kl")
    assert code == 0
    values = parse_kv(out)
    assert (values["rejections"], values["analytic_value"]) == ("0", "0.0")
    code, out, _ = run(capsys, "sweep", "--kind", "psi", "--scheme", "kl",
                       "--sigma-min", "1e-300", "--sigma-max", "1", "--steps", "3")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert rows[0][header.index("psi")] == "inf"


def test_simulate_argument_validation(capsys):
    assert run(capsys, "simulate", "--n", "0", "--sigma", "1", "--scheme", "kl")[0] == 2
    assert run(capsys, "simulate", "--n", "10", "--scheme", "kl")[0] == 2  # sigma required


@pytest.mark.parametrize("seed", ("-1", str(2 ** 64)))
def test_simulate_seed_outside_64_bits_is_a_usage_error(capsys, tmp_path, seed):
    message = f"argument --seed: must be a 64-bit unsigned integer, got {seed}\n"
    code, out, err = run(capsys, "simulate", "--n", "1", "--sigma", "1", "--seed", seed)
    assert (code, out) == (2, "") and err.endswith(message)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"seed = {seed}\n")
    code, out, err = run(capsys, "simulate", "--n", "1", "--sigma", "1", "--config", str(cfg))
    assert (code, out) == (2, "") and err.endswith(message)


def test_simulate_takes_the_largest_64_bit_seed(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "3", "--sigma", "1", "--seed", str(2 ** 64 - 1))
    assert code == 0
    assert parse_kv(out)["seed"] == str(2 ** 64 - 1)


# ---------------------------------------------------------------------------
# regime


def test_regime_classifications(capsys):
    code, out, _ = run(capsys, "regime", "--scheme", "fixed:0.5")
    assert code == 0
    assert parse_kv(out)["case"] == "i"

    code, out, _ = run(capsys, "regime", "--scheme", "robert")
    assert code == 0
    values = parse_kv(out)
    assert values["case"] == "ii"
    assert float(values["limit"]) == pytest.approx(2.5066282746310005024, rel=1e-12)

    code, out, _ = run(capsys, "regime", "--scheme", "kl")
    assert code == 0
    assert parse_kv(out)["case"] == "iii"

    # A fixed mass vanishes by definition, however slowly m(1e6) falls.
    for scheme in ("fixed:0.0009", "fixed:1e-300"):
        code, out, _ = run(capsys, "regime", "--scheme", scheme)
        assert code == 0
        assert parse_kv(out)["regime"] == "vanishing"


def test_regime_refuses_tables(capsys, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("sigma,rho0\n1.0,0.5\n2.0,0.4\n")
    code, _, err = run(capsys, "regime", "--scheme", f"table:{path}")
    assert code == 3
    assert "error:" in err


# ---------------------------------------------------------------------------
# table schemes and config files


def test_table_scheme_end_to_end(capsys, tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("sigma,rho0\n0.5,0.6\n4.0,0.2\n")
    code, out, _ = run(capsys, "posterior", "--x", "1", "--sigma", "2",
                       "--scheme", f"table:{path}")
    assert code == 0
    assert parse_kv(out)["rho0"]  # interpolated value echoed back
    code, _, _ = run(capsys, "posterior", "--x", "1", "--sigma", "9",
                     "--scheme", f"table:{path}")
    assert code == 3  # outside the tabulated range


def test_calibrate_solves_inside_a_table_range(capsys, tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("sigma,rho0\n0.5,0.6\n2.0,0.3\n5.0,0.05\n")
    code, out, _ = run(capsys, "calibrate", "--alpha", "0.01", "--alpha-b", "0.05",
                       "--scheme", f"table:{path}")
    assert code == 0
    values = parse_kv(out)
    assert 0.5 <= float(values["sigma_star"]) <= 5.0
    assert abs(float(values["residual"])) <= 1e-10


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nsigma = 2.5\nalpha-b = 0.1\nscheme = fixed:0.5\n")
    code, out, _ = run(capsys, "posterior", "--config", str(cfg), "--x", "0")
    assert code == 0
    values = parse_kv(out)
    assert values["sigma"] == "2.5"
    assert values["alpha_b"] == "0.1"


def test_cli_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 2.5\nscheme = fixed:0.5\n")
    code, out, _ = run(capsys, "posterior", "--config", str(cfg), "--x", "0",
                       "--sigma", "1.0")
    assert code == 0
    assert parse_kv(out)["sigma"] == "1.0"


def test_config_switches_compare_paper(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    for text, shown in (("compare-paper = yes\n", True), ("compare_paper = no\n", False)):
        cfg.write_text(text)
        code, out, _ = run(capsys, "calibrate", "--config", str(cfg), "--alpha", "0.05",
                           "--scheme", "kl")
        assert code == 0
        assert ("# reference-comparison" in out) == shown


def test_config_refuses_a_compare_paper_that_is_neither_on_nor_off(capsys, tmp_path):
    """1, true, yes and on switch the block on, 0, false, no and off leave it off, in any case;
    any other value exits 2, naming the file, its line and the value, where it once meant off."""
    cfg = tmp_path / "run.cfg"
    args = ("calibrate", "--alpha", "0.05", "--config", str(cfg))
    for word in ("1", "true", "yes", "on", "0", "false", "no", "off", "TRUE", "Off"):
        cfg.write_text(f"compare_paper = {word}\n")
        code, out, _ = run(capsys, *args)
        assert code == 0, word
        assert ("# reference-comparison" in out) == (word.lower() in ("1", "true", "yes", "on"))
    cfg.write_text("# the comparison\ncompare_paper = ture\n")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == (f"error: {cfg}:2: compare_paper takes 1/true/yes/on/0/false/no/off, "
                   "got 'ture'\n")


def test_config_values_are_checked_like_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha-b = 1.5\n")
    code, out, _ = run(capsys, "posterior", "--config", str(cfg), "--x", "0", "--sigma", "1")
    assert (code, out) == (2, "")


def test_config_grid_matches_flags_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("sigma_min = 0.2\nsigma-max = 2.8\nsteps = 7\n")
    base = ("sweep", "--kind", "psi", "--scheme", "kl")
    code, from_config, _ = run(capsys, *base, "--config", str(cfg))
    _, from_flags, _ = run(capsys, *base, "--sigma-min", "0.2", "--sigma-max", "2.8",
                           "--steps", "7")
    assert code == 0
    assert from_config == from_flags
    code, out, _ = run(capsys, *base, "--config", str(cfg), "--steps", "4")
    assert code == 0
    assert len(parse_csv(out)[2]) == 4


def test_config_errors(capsys, tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("sigma 2.5\n")
    assert run(capsys, "posterior", "--config", str(cfg), "--x", "0")[0] == 2
    assert run(capsys, "posterior", "--config", str(tmp_path / "absent.cfg"),
               "--x", "0")[0] == 4


def test_config_refuses_a_key_that_no_subcommand_takes(capsys, tmp_path):
    """A misspelt key exits 2, naming the file, its line and the key, where it was once dropped.

    A key of another subcommand stays accepted, so that one file serves several commands.
    """
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("# alpha_b misspelt\nalphab = 0.2\nalpha = 0.05\n")
    code, out, err = run(capsys, "calibrate", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:2: no subcommand takes the key 'alphab'\n"
    cfg.write_text("alpha = 0.05\nalpha-b = 0.1\nx = 1.5\nsigma = 2.0\nseed = 7\n")
    code, out, _ = run(capsys, "calibrate", "--config", str(cfg))
    assert code == 0 and (parse_kv(out)["alpha"], parse_kv(out)["alpha_b"]) == ("0.05", "0.1")
    code, out, _ = run(capsys, "posterior", "--config", str(cfg))
    assert code == 0 and (parse_kv(out)["x"], parse_kv(out)["sigma"]) == ("1.5", "2.0")


def test_files_that_are_not_utf8_are_refused_like_other_malformed_files(capsys, tmp_path):
    """A byte that is not UTF-8 exits 3 in a table and 2 in a config file, never 1."""
    table = tmp_path / "t.csv"
    table.write_bytes(b"sigma,rho0\n1.0,0.5\n2.0,\xff0.4\n")
    code, out, err = run(capsys, "posterior", "--x", "1", "--sigma", "1.5",
                         "--scheme", f"table:{table}")
    assert (code, out) == (3, "")
    assert err == f"error: prior table {str(table)!r} is not UTF-8 text (invalid start byte)\n"
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"sigma = 1\n\xff\n")
    code, out, err = run(capsys, "posterior", "--x", "1", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}: not UTF-8 text (invalid start byte)\n"


def test_config_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfalpha-b=0.3\n")
    code, out, _ = run(capsys, "posterior", "--x", "1", "--sigma", "1", "--config", str(cfg))
    assert code == 0
    assert parse_kv(out)["alpha_b"] == "0.3"


def test_prior_table_may_start_with_a_byte_order_mark(capsys, tmp_path):
    text = b"# a comment\nsigma,rho0\n1.0,0.5\n2.0,0.4\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    outputs = []
    for table in (plain, marked):
        code, out, err = run(capsys, "posterior", "--x", "1", "--sigma", "1.5",
                             "--scheme", f"table:{table}")
        assert (code, err) == (0, "")
        outputs.append(out.replace(str(table), "TABLE"))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# README


def readme_commands():
    """Every `pointnull ...` line in the code blocks of the README's Command line section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = "\n".join(section.split("```")[1::2]).splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("pointnull ")]


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(COMMANDS)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv


# ---------------------------------------------------------------------------
# extreme arguments

EXTREME_SCHEMES = ("kl", "robert", "fixed:0.5", "fixed:0.0009", "fixed:1e-300",
                   f"table:{TABLE_CSV}")
EXTREME_SIGMAS = ("5e-324", "1e-300", "1e154", "1.7e308", "0.5")
EXTREME_PROBS = ("5e-324", "0.05", "0.5", "0.9999999999999999")


def extreme_argvs():
    """Every subcommand over the extreme schemes, sigmas and probabilities."""
    ranges = [(lo, hi) for lo in EXTREME_SIGMAS for hi in EXTREME_SIGMAS if float(lo) < float(hi)]
    for scheme in EXTREME_SCHEMES:
        yield ["regime", "--scheme", scheme]
        for a in EXTREME_PROBS:
            for ab in EXTREME_PROBS:
                yield ["calibrate", "--alpha", a, "--alpha-b", ab, "--scheme", scheme]
        for ab in EXTREME_PROBS:
            for sigma in EXTREME_SIGMAS:
                yield ["posterior", "--x", "1.96", "--sigma", sigma, "--alpha-b", ab,
                       "--scheme", scheme]
                yield ["simulate", "--n", "50", "--sigma", sigma, "--alpha-b", ab,
                       "--scheme", scheme]
            for lo, hi in ranges:
                yield ["sweep", "--kind", "psi", "--scheme", scheme, "--alpha-b", ab,
                       "--sigma-min", lo, "--sigma-max", hi, "--steps", "3"]
        for lo, hi in ranges:
            yield ["sweep", "--kind", "paradox", "--scheme", scheme, "--x", "1.96",
                   "--sigma-min", lo, "--sigma-max", hi, "--steps", "3"]
    for sigma in EXTREME_SIGMAS:
        for x in ("0", "1.96", "1e200"):
            yield ["bf", "--x", x, "--sigma", sigma]


def test_extreme_arguments_never_escape_main(capsys):
    """Exit 0, 2, 3 or 4, never an uncaught exception (exit 1)."""
    failures = []
    for argv in extreme_argvs():
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is the failure being tested
            failures.append((argv, repr(exc)))
            continue
        if code not in (0, 2, 3, 4):
            failures.append((argv, code))
    capsys.readouterr()
    assert not failures


#: SHA-256 over (argv, exit code, stdout, stderr) of every extreme argv and the usage cases below.
CLI_DIGEST = "678921f8a73f85cdc6bee40d2ed2912c49a7c98fffe9380d525736135d6c0e35"


def cli_lines(tmp_path):
    """One JSON line per argv: [argv, exit code, stdout, stderr], paths scrubbed.

    The argvs are every extreme argv and the usage cases below; tmp_path receives bad.cfg.
    Help text wraps to the terminal's width, so the caller fixes COLUMNS.
    """
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha-b = 1.5\n")
    usage = [[], ["-h"], ["--help", "bf"], *([name, "-h"] for name in COMMANDS),
             ["nope"], ["--", "calibrate", "--alpha", "0.1"], ["calibrate", "--alp", "0.1"],
             ["calibrate", "--alpha", "0.1", "--bogus", "1"],
             ["--bogus", "calibrate", "--alpha", "0.1"],
             ["bf", "--x", "1", "--sigma", "2", "extra"], ["bf", "--x", "1"],
             ["posterior", "--x", "0", "--sigma", "1", "--alpha-b", "1.5"],
             ["posterior", "--x", "0", "--sigma", "1", "--config", str(bad)]]

    def scrub(text):  # the digest must not depend on where the checkout lives
        return text.replace(str(TABLE_CSV), "<table.csv>").replace(str(bad), "<bad.cfg>")

    for argv in [*extreme_argvs(), *usage]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield json.dumps([[scrub(a) for a in argv], code, scrub(out.getvalue()),
                          scrub(err.getvalue())])


def test_cli_text_is_pinned(monkeypatch, tmp_path):
    """Every answer, refusal, usage line and help text, byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    digest = hashlib.sha256()
    for line in cli_lines(tmp_path):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CLI_DIGEST


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_is_installed():
    exe = shutil.which("pointnull")
    assert exe, "console script not on PATH"
    done = subprocess.run(
        [exe, "bf", "--x", "2", "--sigma", "1"], capture_output=True, text=True
    )
    assert done.returncode == 0
    assert "bayes_factor = " in done.stdout


@pytest.mark.parametrize(
    "argv",
    (["calibrate", "--alpha", "0.05", "--alpha-b", "0.05", "--scheme", "kl"],
     ["bf", "--x", "1", "--sigma", "-1"]),
)
def test_python_dash_m_runs_main(capsys, argv):
    code, out, _ = run(capsys, *argv)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "pointnull.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (done.returncode, done.stdout) == (code, out)


# ---------------------------------------------------------------------------
# cold start

MONTE_CARLO_NAMES = {"MonteCarloReport", "SimulationPlan", "draw_standard_normal",
                     "simulate_power", "simulate_type_i", "splitmix64"}

#: What `from pointnull import *` binds: the public names and the library's submodules.
STAR_NAMES = MONTE_CARLO_NAMES | {
    "AlternativeSpread", "Bracket", "BracketError", "CalibrationResult", "CalibrationSpec",
    "ClassifiedRegime", "CustomTablePrior", "Decision", "DomainError",
    "EvaluationError", "FixedPrior", "InfeasibleAlphaError", "KLSelfInformationPrior",
    "Observation", "ParadoxRow", "PriorScheme", "PsiDomainError", "Regime", "RegimeEvidence",
    "RobertPrior", "SQRT_TWO_PI", "SchemeParseError", "TableRangeError", "UnsupportedSchemeError",
    "bayes_factor", "classical_threshold", "classify_regime", "decide", "find_root_bracketed",
    "log_m_of_sigma", "log_marginal_variance", "m_of_sigma", "marginal_alt",
    "paradox_sweep", "positivity_bound", "posterior_from_log_odds", "posterior_h0",
    "power_analytic", "psi", "psi_sweep", "scheme_from_string", "solve_sigma",
    "std_normal_cdf", "std_normal_pdf", "std_normal_quantile", "type_i_error", "variance_ratio",
    "calibration", "model", "montecarlo", "numerics", "priors",
}

COLD_START = """
import contextlib, io, json, sys
heavy = ("csv", "dataclasses", "inspect", "statistics", "pointnull.calibration",
         "pointnull.montecarlo")
seen = {}
import pointnull.cli
seen["after_import"] = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()) as out:
    seen["bf_exit"] = pointnull.cli.main(["bf", "--x", "1.5", "--sigma", "2"])
seen["bf_out"] = out.getvalue()
seen["after_bf"] = [m for m in heavy if m in sys.modules]
import pointnull
seen["dir"] = dir(pointnull)
seen["after_dir"] = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()) as out:
    seen["calibrate_exit"] = pointnull.cli.main(
        ["calibrate", "--alpha", "0.01", "--alpha-b", "0.05", "--scheme", "kl"])
seen["calibrate_out"] = out.getvalue()
seen["after_calibrate"] = [m for m in heavy if m in sys.modules]
seen["resolves"] = pointnull.simulate_type_i is sys.modules["pointnull.montecarlo"].simulate_type_i
namespace = {}
exec("from pointnull import *", namespace)
seen["star"] = sorted(n for n in namespace if n != "__builtins__")
print(json.dumps(seen))
"""


def test_cold_start_loads_no_dataclass_machinery_and_no_monte_carlo():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["after_import"] == []
    assert seen["bf_exit"] == 0 and seen["bf_out"].startswith("bayes_factor = ")
    assert seen["after_bf"] == []
    assert MONTE_CARLO_NAMES <= set(seen["dir"])
    assert seen["after_dir"] == []
    assert seen["calibrate_exit"] == 0 and "sigma_star = " in seen["calibrate_out"]
    assert seen["after_calibrate"] == ["pointnull.calibration"]  # c_alpha's quantile: no statistics
    assert seen["resolves"]
    assert set(seen["star"]) == STAR_NAMES


def fresh_modules(code):
    """The pointnull modules a new interpreter holds after running code."""
    loaded = "sorted(m for m in sys.modules if m.startswith('pointnull'))"
    script = f"{code}\nimport json, sys\nprint(json.dumps({loaded}))"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_each_module_loads_on_first_use():
    assert fresh_modules("import pointnull") == ["pointnull"]
    assert fresh_modules("import pointnull.model") == [
        "pointnull", "pointnull.model", "pointnull.numerics"]
    assert fresh_modules("import pointnull\n"
                         "assert pointnull.psi is pointnull.calibration.psi\n"
                         "assert 'psi' in vars(pointnull)") == [
        "pointnull", "pointnull.calibration", "pointnull.model", "pointnull.numerics",
        "pointnull.priors"]


CLI_MODULES = ("pointnull", "pointnull.cli", "pointnull.model", "pointnull.numerics",
               "pointnull.priors")
GRID = ("--sigma-min", "0.5", "--sigma-max", "2", "--steps", "3")


@pytest.mark.parametrize(
    "argv, also",
    (
        (None, ()),  # the import alone
        (["bf", "--x", "1", "--sigma", "2"], ()),
        (["regime", "--scheme", "kl"], ()),
        (["sweep", "--kind", "paradox", "--scheme", "kl", "--x", "1", *GRID], ()),
        (["posterior", "--x", "1", "--sigma", "2"], ("calibration",)),
        (["calibrate", "--alpha", "0.01"], ("calibration",)),
        (["sweep", "--kind", "psi", "--scheme", "kl", *GRID], ("calibration",)),
        (["simulate", "--sigma", "1", "--n", "10"], ("calibration", "montecarlo")),
    ),
    ids=("import", "bf", "regime", "sweep-paradox", "posterior", "calibrate", "sweep-psi",
         "simulate"),
)
def test_each_command_loads_only_the_modules_it_runs(argv, also):
    code = "import contextlib, io, pointnull.cli"
    if argv is not None:
        code += ("\nwith contextlib.redirect_stdout(io.StringIO()):"
                 f"\n    assert pointnull.cli.main({argv!r}) == 0")
    expected = sorted((*CLI_MODULES, *(f"pointnull.{name}" for name in also)))
    assert fresh_modules(code) == expected


def test_the_export_map_lists_public_names_only():
    with pytest.raises(AttributeError, match="module 'pointnull' has no attribute 'no_such_name'"):
        pointnull.no_such_name  # noqa: B018
    for module, names in pointnull._EXPORTS.items():  # the one list of each module's names
        assert importlib.import_module(f"pointnull.{module}").__all__ == names, module


# ---------------------------------------------------------------------------
# x * x past float range


@pytest.mark.parametrize(
    "x, sigma, bayes_factor, posterior",
    (
        # 40-digit mpmath at the parsed floats; the x^2 term is 1/2 and 5e-11.
        ("1e200", "1e-200", 0.6065306597126334, 0.3775406687981454),
        ("1e155", "1e-160", 0.99999999995, 0.4999999999875),
    ),
)
def test_posterior_where_x_squared_overflows(capsys, x, sigma, bayes_factor, posterior):
    code, out, _ = run(capsys, "posterior", "--x", x, "--sigma", sigma, "--scheme", "fixed:0.5")
    values = parse_kv(out)
    assert code == 0
    assert float(values["bayes_factor"]) == bayes_factor
    # The logistic rounds 1 / (1 + e^0.5) one ulp high, as it does for a finite x^2.
    assert float(values["posterior_h0"]) == pytest.approx(posterior, rel=2.3e-16, abs=0.0)
    assert values["decision"] == "retain"
