"""Byte-for-byte CLI output, pinned against files in tests/golden/.

Each case runs one argv through cli.main, from inside tests/golden/ so that
table:table.csv resolves, and compares the exit code and stdout with
tests/golden/<name>.txt, whose first line is `exit = <code>`. After an
intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

import pytest

from pointnull.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = GOLDEN.parents[1] / "README.md"

CASES = {
    # The README's commands.
    "readme_posterior": "posterior --x 1.96 --sigma 10 --scheme fixed:0.5",
    "readme_bf": "bf --x 2 --sigma 1",
    "readme_calibrate": "calibrate --alpha 0.05 --alpha-b 0.05 --scheme kl",
    "readme_sweep_psi_kl": "sweep --kind psi --scheme kl --sigma-min 0.2 --sigma-max 3.2 --steps 100",
    "readme_sweep_paradox_fixed": "sweep --kind paradox --scheme fixed:0.5 --x 1.96 "
                                  "--sigma-min 1 --sigma-max 1e4 --steps 40",
    "readme_simulate": "simulate --n 1000000 --seed 0 --sigma 2.10897339437208 --scheme kl",
    "readme_regime_robert": "regime --scheme robert",
    "readme_regime_fixed": "regime --scheme fixed:0.5",
    "readme_regime_kl": "regime --scheme kl",
    "readme_sweep_paradox_robert": "sweep --kind paradox --scheme robert --x 1.96 "
                                   "--sigma-min 0.1 --sigma-max 1e4 --steps 5",
    "readme_posterior_kl": "posterior --x 1.96 --sigma 1e4 --scheme kl",
    "readme_sweep_psi_fixed": "sweep --kind psi --scheme fixed:0.5 --sigma-min 0.01 "
                              "--sigma-max 1000 --steps 200",
    # Each scheme, kl past its rho0 underflow.
    "posterior_robert": "posterior --x 1.96 --sigma 2 --scheme robert",
    "posterior_kl_40": "posterior --x 0 --sigma 40 --scheme kl",
    "posterior_table": "posterior --x 1.5 --sigma 3 --scheme table:table.csv",
    "regime_table": "regime --scheme table:table.csv",
    "calibrate_table": "calibrate --alpha 0.01 --scheme table:table.csv",
    "sweep_paradox_kl_underflow": "sweep --kind paradox --scheme kl --x 1.96 "
                                  "--sigma-min 35 --sigma-max 45 --steps 21",
    "calibrate_compare_paper": "calibrate --alpha 0.05 --compare-paper",
    "simulate_seed7_null": "simulate --n 100000 --seed 7 --sigma 2.10897339437208 --scheme kl",
    "simulate_seed7_theta": "simulate --n 100000 --seed 7 --theta 1.5 --sigma 2.10897339437208 "
                            "--scheme kl",
    "simulate_past_bound": "simulate --n 20000 --sigma 3 --scheme kl",
    # x * x overflows while sigma^2 underflows.
    "overflow_posterior_1e200": "posterior --x 1e200 --sigma 1e-200 --scheme fixed:0.5",
    "overflow_posterior_1e155": "posterior --x 1e155 --sigma 1e-160 --scheme fixed:0.5",
    "overflow_bf_1e200": "bf --x 1e200 --sigma 1e-200",
    "overflow_simulate": "simulate --sigma 1e-160 --theta 1e155 --scheme fixed:0.5 --n 5000",
}


def run_case(argv: str) -> str:
    """`exit = <code>` and then the stdout of main(argv), run from tests/golden/."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(argv))
    finally:
        os.chdir(cwd)
    return f"exit = {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[name]) == expected


def test_every_readme_command_is_a_case():
    text = README.read_text(encoding="utf-8")
    commands = [line.split("#")[0].split(None, 1)[1].strip()
                for line in text.splitlines() if line.startswith("pointnull ")]
    assert commands
    assert set(commands) <= {argv for argv in CASES.values()}


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run_case(argv), encoding="utf-8")
    sys.exit(0)
