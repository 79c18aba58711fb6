"""The demos, and the README's Python examples, run end to end against the library in this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """`python *args` with this checkout's `src` first on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300, env=env, cwd=cwd)


def test_compile_moment_equations_demo():
    result = run_python(str(ROOT / "demos" / "compile_moment_equations.py"))
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
    """Each exits 0 and prints the expected line, having computed every plotted series before it imports matplotlib;
    a plot, if matplotlib is present, lands in a scratch directory."""
    result = run_python(str(ROOT / "demos" / demo), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout.splitlines()


def test_readme_python_examples(tmp_path):
    """Every ```python block of the README runs as written and exits 0."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        result = run_python("-c", block, cwd=tmp_path)
        assert result.returncode == 0, f"{result.stderr}\nin the README block:\n{block}"
