"""The experiment scripts in scripts/ run end to end against the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_psi_sweep_script():
    done = run_script("psi_sweep.py", "--steps", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines.count("sigma,psi,type_i_error") == 3
    assert "# domain_end=2.8454877865455885" in lines


def test_regime_demo_script():
    done = run_script("regime_demo.py")
    assert done.returncode == 0, done.stderr
    cases = [line for line in done.stdout.splitlines() if "case (" in line]
    assert cases == [
        "fixed:0.5: case (i), m(sigma) vanishing",
        "robert: case (ii), m(sigma) finite -> 2.5066282746310002",
        "kl: case (iii), m(sigma) divergent",
    ]
