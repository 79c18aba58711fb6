"""The demos run end to end against the library in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_compile_moment_equations_demo():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "compile_moment_equations.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "affine step map: A is" in result.stdout
    assert result.stdout.rstrip().endswith("round-trips losslessly")


@pytest.mark.parametrize(
    "demo, expected",
    [
        ("propagation_vs_oracles.py", "  x^2       2718.3358    2717.0216   22207.1344       2348"),
        ("risk_bounded_planning.py", "tree: 128 nodes, plan found: True"),
    ],
)
def test_oracle_and_planning_demos(demo, expected, tmp_path):
    """Each exits 0 and prints the expected line; a plot, if matplotlib is present, lands in a scratch directory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout.splitlines()
