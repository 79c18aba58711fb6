import hashlib
import inspect
import os
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentprop import _kernels, cli, compiler, distmoments, oracle, planner, presets, propagator, sysspec
from momentprop.cli import EXIT_INPUT, EXIT_NO_PLAN, EXIT_OK, EXIT_RUNTIME
from momentprop.polyring import MultiIndex
from conftest import unbind_kernels
from test_planner import NOT_A_VEHICLE


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "dubins.spec").write_text(presets.DUBINS_SPEC)
    (tmp_path / "init.csv").write_text("x,y,v,theta\n0,0,1,0\n")
    planner_spec = presets.DUBINS_SPEC.replace(
        "dist wv = beta(10, 1000)", "dist wv = gaussian(0, 1e-8)"
    ).replace("dist wt = gaussian(0.04, 0.03)", "dist wt = gaussian(0, 1e-8)")
    (tmp_path / "planner.spec").write_text(planner_spec)
    (tmp_path / "env.txt").write_text(presets.PLANNER_ENV)
    return tmp_path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestCompile:
    def test_writes_system_and_listing(self, workdir, capsys):
        out = workdir / "dubins.msys"
        code = run("compile", workdir / "dubins.spec", "-o", out)
        assert code == EXIT_OK
        listing = capsys.readouterr().out
        assert len(listing.strip().splitlines()) == 20
        msys = compiler.load(out)
        assert len(msys.basis) == 20 and msys.reduced

    def test_unreduced_flag(self, workdir, capsys):
        out = workdir / "dubins_u.msys"
        code = run("compile", workdir / "dubins.spec", "--unreduced", "-o", out)
        assert code == EXIT_OK
        msys = compiler.load(out)
        assert not msys.reduced
        assert len(msys.basis) > 20

    def test_malformed_spec_exits_2(self, workdir, capsys):
        bad = workdir / "bad.spec"
        bad.write_text("state x\ndisturbance w\ndyn x' = x + * w\n")
        code = run("compile", bad, "-o", workdir / "nope.msys")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_deeply_nested_spec_exits_2(self, workdir, capsys):
        deep = workdir / "deep.spec"
        deep.write_text(f"state x\ndisturbance w\ndyn x' = {'(' * 3000}x{')' * 3000} + w\n")
        assert run("compile", deep, "-o", workdir / "nope.msys") == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 3")


    def test_literal_beyond_float_range_exits_2(self, workdir, capsys):
        spec = workdir / "huge.spec"
        spec.write_text("state x\ndisturbance w\ndyn x' = 1e400*x + w\n")
        assert run("compile", spec, "-o", workdir / "nope.msys") == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 3, column 10")

    @pytest.mark.parametrize(
        "update, message",
        [
            ("(x+w)^2000", "line 3, column 16: exponent exceeds"),
            ("1e-5000*x + w", "line 3, column 10: numeric"),
            ("((x+w)^16)^16", "line 3, column 20: power exceeds the degree limit 32"),
        ],
    )
    def test_oversized_spec_token_exits_2(self, workdir, capsys, update, message):
        spec = workdir / "big.spec"
        spec.write_text(f"state x\ndisturbance w\ndyn x' = {update}\nmoments x\n")
        assert run("compile", spec, "-o", workdir / "nope.msys") == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    def test_coefficient_too_long_to_write_exits_2(self, workdir, capsys):
        """(10^-400)^11 in the update of E[x^11] has more digits than Python writes as text."""
        spec = workdir / "long.spec"
        spec.write_text("state x\ndisturbance w\ndyn x' = 1e-400*x + w\nmoments x^11\n")
        assert run("compile", spec, "-o", workdir / "nope.msys") == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the update of E[x^11] has an exact coefficient too long to write"]
        assert not (workdir / "nope.msys").exists()

    def test_output_and_errors_follow_source_order_under_any_hash_seed(self, tmp_path):
        """The encoded layout, the .msys text and the first offender named do not depend on PYTHONHASHSEED."""
        specs = {
            "two.spec": "state x\ndisturbance uu qq\ndyn x' = x + cos(uu) + sin(qq)\nmoments x x^2\n",
            "undeclared.spec": "state x\ndisturbance w\ndyn x' = x + zz + w + aa\n",
            "non_angle.spec": "state x y z\ndyn x' = x + cos(z) + sin(y)\ndyn y' = y\ndyn z' = z\n",
        }
        for name, text in specs.items():
            (tmp_path / name).write_text(text)
        compile_each = (
            "import sys\nfrom momentprop import cli\n"
            "for spec in sys.argv[1:]:\n    cli.main(['compile', spec, '-o', spec + '.msys', '--listing', spec + '.txt'])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        msys_texts = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            result = subprocess.run(
                [sys.executable, "-c", compile_each, *specs],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.stderr.splitlines() == [
                "compiled 2 moment equations (reduced) -> two.spec.msys",
                "error: line 3: undeclared symbol 'zz' in update of 'x'",
                "error: line 2: sin/cos applied to non-angle state variable 'z'",
            ], f"PYTHONHASHSEED={seed}"
            msys_texts.add((tmp_path / "two.spec.msys").read_text())
        (text,) = msys_texts
        assert compiler.loads(text).dist_vars == ("c_uu", "s_uu", "c_qq", "s_qq")


LONG_LINES = {
    "sum": " + ".join(["0.0002*x"] * 5000) + " + w",
    "product": "*".join(["x"] + ["1"] * 4999) + " + w",
}


@pytest.mark.parametrize("kind", sorted(LONG_LINES))
def test_long_update_line_runs_every_command(workdir, kind):
    """Sums and products have no length limit: only parenthesis nesting is capped."""
    spec = workdir / "long.spec"
    spec.write_text(
        f"state x\ndisturbance w\ndyn x' = {LONG_LINES[kind]}\nmoments x x^2\ndist w = gaussian(0, 0.01)\n"
    )
    (workdir / "init.csv").write_text("x\n0.5\n")
    common = ("--init", workdir / "init.csv", "-T", 3)
    assert run("compile", spec, "-o", workdir / "long.msys", "--listing", workdir / "eq.txt") == EXIT_OK
    assert run("mc", spec, *common, "-N", 100, "-o", workdir / "mc.csv") == EXIT_OK
    assert run("linearize", spec, *common, "-o", workdir / "lin.csv") == EXIT_OK


@pytest.mark.parametrize("command", ["propagate", "mc", "linearize", "plan"])
def test_spec_without_dist_lines_exits_2(workdir, capsys, command):
    bare = workdir / "bare.spec"
    bare.write_text("".join(line for line in presets.DUBINS_SPEC.splitlines(True) if not line.startswith("dist ")))
    assert run("compile", bare, "-o", workdir / "bare.msys", "--listing", workdir / "eq.txt") == EXIT_OK
    capsys.readouterr()
    out = workdir / "out.csv"
    common = ("--init", workdir / "init.csv", "-T", 3, "-o", out)
    argv = {
        "propagate": ("propagate", workdir / "bare.msys", "--dist", bare, *common),
        "mc": ("mc", bare, "-N", 10, *common),
        "linearize": ("linearize", bare, *common),
        "plan": ("plan", bare, "--env", workdir / "env.txt", "--eps", 0.1, "-o", out),
    }[command]
    assert run(*argv) == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == ["error: no distribution given for disturbance 'wv'"]
    assert not out.exists()


def test_disturbance_free_spec_runs_every_command(workdir, capsys):
    """A spec without disturbances is deterministic: every engine gives x_t = 2 - 2 * 0.5^t exactly."""
    spec = workdir / "free.spec"
    spec.write_text("state x\ndyn x' = 0.5*x + 1\nmoments x x^2\n")
    (workdir / "init.csv").write_text("x\n0\n")
    common = ("--init", workdir / "init.csv", "-T", 30)
    assert run("compile", spec, "-o", workdir / "free.msys", "--listing", workdir / "eq.txt") == EXIT_OK
    assert run("propagate", workdir / "free.msys", "--dist", spec, *common, "-o", workdir / "exact.csv") == EXIT_OK
    assert run("mc", spec, *common, "-N", 100, "-o", workdir / "mc.csv") == EXIT_OK
    assert run("linearize", spec, *common, "-o", workdir / "lin.csv") == EXIT_OK
    capsys.readouterr()
    assert run("compare", *(workdir / name for name in ("exact.csv", "mc.csv", "lin.csv")),
               "-o", workdir / "report.csv") == EXIT_OK
    assert capsys.readouterr().err.splitlines() == ["max |z| exact vs MC: 0.000; flagged rows: 0"]

    def columns(name):
        header, values, _ = cli._read_csv(str(workdir / f"{name}.csv"))
        return dict(zip(header, values.T))

    exact, mc, lin = map(columns, ("exact", "mc", "lin"))
    mean = 2.0 - 2.0 * 0.5 ** np.arange(31)
    for table in exact, mc:
        np.testing.assert_array_equal(table["x"], mean)
        np.testing.assert_array_equal(table["x^2"], mean * mean)
    np.testing.assert_array_equal(mc["x_se"], 0.0)
    np.testing.assert_array_equal(mc["x^2_se"], 0.0)
    np.testing.assert_array_equal(lin["mu_x"], mean)
    np.testing.assert_array_equal(lin["sigma_x_x"], 0.0)


@pytest.mark.parametrize("command", ["compile", "mc", "plan"])
def test_every_compiling_command_warns_of_broken_independence(workdir, capsys, monkeypatch, command):
    """compile, mc and plan print the same independence warnings, and otherwise do what they do without them."""
    spec = workdir / "xtheta.spec"
    planner_spec = (workdir / "planner.spec").read_text()
    spec.write_text(planner_spec.replace("independent {v} {theta}", "independent {x} {theta}"))
    argv = {
        "compile": ("compile", spec, "-o", workdir / "out.msys"),
        "mc": ("mc", spec, "--init", workdir / "init.csv", "-T", 5, "-N", 100, "-o", workdir / "out.csv"),
        "plan": ("plan", spec, "--env", workdir / "env.txt", "--eps", 0.1, "--seed", 11, "--iterations", 100,
                 "-o", workdir / "out.csv", "--tree", workdir / "tree.csv"),
    }[command]
    runs = []
    for check in sysspec.validate_independence, lambda spec: []:
        monkeypatch.setattr(sysspec, "validate_independence", check)
        code = run(*argv)
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in workdir.iterdir() if path.name.startswith(("out", "tree"))}
        runs.append((code, captured.out, captured.err.splitlines(), files))
        for path in files:
            (workdir / path).unlink()
    (code, out, err, files), quiet = runs
    assert err[:2] == [
        "warning: {x} vs {theta}: updates reference across groups via ['theta']",
        "warning: {x} vs {theta}: groups share disturbance symbols ['wt']",
    ]
    assert (code, out, err[2:], files) == quiet
    assert files


@pytest.mark.parametrize("command", ["mc", "linearize"])
def test_disturbance_without_a_dist_line_is_named(workdir, capsys, command):
    """A declared disturbance that no update uses and no 'dist' line gives: mc and linearize name it alike."""
    spec = workdir / "wq.spec"
    spec.write_text(presets.DUBINS_SPEC.replace("disturbance wv wt\n", "disturbance wv wt wq\n"))
    out = workdir / "out.csv"
    samples = ("-N", 10) if command == "mc" else ()
    assert run(command, spec, "--init", workdir / "init.csv", "-T", 3, *samples, "-o", out) == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == ["error: no distribution given for disturbance 'wq'"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        ("propagate", "moment E[x^2] became non-finite at step 16"),
        ("mc", "the standard error of moment E[x^2] became non-finite at step 9"),
        ("linearize", "moment Var[x] became non-finite at step 17"),
    ],
)
def test_non_finite_result_exits_1_with_one_line(workdir, capsys, command, message):
    """Every engine stops at the first non-finite moment, writes nothing and warns nothing."""
    spec = workdir / "blowup.spec"
    spec.write_text("state x\ndisturbance w\ndyn x' = 1e10*x + w\nmoments x x^2\ndist w = gaussian(0, 1)\n")
    (workdir / "init.csv").write_text("x\n10\n")
    assert run("compile", spec, "-o", workdir / "blowup.msys", "--listing", workdir / "eq.txt") == EXIT_OK
    capsys.readouterr()
    out = workdir / "out.csv"
    common = ("--init", workdir / "init.csv", "-T", 40, "-o", out)
    argv = {
        "propagate": ("propagate", workdir / "blowup.msys", "--dist", spec, *common),
        "mc": ("mc", spec, "-N", 100, *common),
        "linearize": ("linearize", spec, *common),
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv) == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines() == [f"runtime error: {message}"]
    assert caught == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["propagate", "mc", "plan"])
def test_initial_moment_overflow_exits_1_with_one_line(workdir, capsys, command):
    """A finite start at x = 1e200 overflows E[x^2] before the first step: every engine names it alike."""
    spec = workdir / "dubins.spec"
    assert run("compile", spec, "-o", workdir / "dubins.msys", "--listing", workdir / "eq.txt") == EXIT_OK
    (workdir / "init.csv").write_text("x,y,v,theta\n1e200,0.3,1,0\n")
    (workdir / "env.txt").write_text(presets.PLANNER_ENV.replace("start 0.3 0.3 0", "start 1e200 0.3 0"))
    capsys.readouterr()
    out = workdir / "out.csv"
    common = ("--init", workdir / "init.csv", "-T", 3, "-o", out)
    argv = {
        "propagate": ("propagate", workdir / "dubins.msys", "--dist", spec, *common),
        "mc": ("mc", spec, "-N", 10, *common),
        "plan": ("plan", workdir / "planner.spec", "--env", workdir / "env.txt", "--eps", 0.1, "-o", out),
    }[command]
    assert run(*argv) == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines() == ["runtime error: moment E[x^2] became non-finite at step 0"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc", "plan"])
def test_negative_seed_is_rejected_by_name(workdir, capsys, command):
    argv = {
        "mc": ("mc", workdir / "dubins.spec", "--init", workdir / "init.csv", "-T", 3, "-N", 10),
        "plan": ("plan", workdir / "planner.spec", "--env", workdir / "env.txt", "--eps", 0.1),
    }[command]
    with pytest.raises(SystemExit) as caught:
        run(*argv, "--seed", -1, "-o", workdir / "out.csv")
    assert caught.value.code == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"momentprop {command}: error: argument --seed: must be a nonnegative integer, got -1"
    assert not (workdir / "out.csv").exists()


def _propagate_argv(workdir):
    """A compiled Dubins system and the propagate command line that needs the C kernel for it."""
    code = run("compile", workdir / "dubins.spec", "-o", workdir / "dubins.msys", "--listing", workdir / "eq.txt")
    assert code == EXIT_OK
    return ["propagate", str(workdir / "dubins.msys"), "--dist", str(workdir / "dubins.spec"),
            "--init", str(workdir / "init.csv"), "-T", "3", "-o", str(workdir / "out.csv")]


def _run_with_only_bin(workdir, argv):
    """`python -m momentprop argv` with only workdir/bin on PATH and an empty kernel cache."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PATH=str(workdir / "bin"), XDG_CACHE_HOME=str(workdir / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "momentprop", *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def test_no_c_compiler_exits_2_with_one_line(workdir):
    """No cc or gcc on PATH and an empty kernel cache: the first kernel call ends the command with one line."""
    argv = _propagate_argv(workdir)
    (workdir / "bin").mkdir()
    result = _run_with_only_bin(workdir, argv)
    assert result.returncode == EXIT_INPUT
    assert result.stderr.splitlines() == ["error: C kernel module unavailable: no C compiler (cc or gcc) on PATH"]
    assert not (workdir / "out.csv").exists()


def test_failing_c_compiler_exits_2_with_one_line(workdir):
    """A cc that prints two lines and fails: the error keeps the first and counts the other."""
    argv = _propagate_argv(workdir)
    (workdir / "bin").mkdir()
    cc = workdir / "bin" / "cc"
    cc.write_text("#!/bin/sh\necho 'first: broken' >&2\necho 'second: also broken' >&2\nexit 1\n")
    cc.chmod(0o755)
    result = _run_with_only_bin(workdir, argv)
    assert result.returncode == EXIT_INPUT
    assert result.stderr.splitlines() == [
        f"error: C kernel module unavailable: {cc} failed: first: broken "
        "(and 1 more line in the momentprop._kernels log)"
    ]
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("command", ["propagate", "linearize", "plan"])
def test_count_too_large_to_allocate_exits_1_with_one_line(workdir, capsys, command):
    """10^16 steps or iterations exceed any 64-bit address space, so the allocation fails before it is touched."""
    _propagate_argv(workdir)  # compiles dubins.msys
    out = workdir / "out.csv"
    common = ("--init", workdir / "init.csv", "-T", 10**16, "-o", out)
    argv = {
        "propagate": ("propagate", workdir / "dubins.msys", "--dist", workdir / "dubins.spec", *common),
        "linearize": ("linearize", workdir / "dubins.spec", *common),
        "plan": ("plan", workdir / "planner.spec", "--env", workdir / "env.txt", "--eps", 0.1,
                 "--iterations", 10**16, "-o", out),
    }[command]
    capsys.readouterr()
    assert run(*argv) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: Unable to allocate ")
    assert not out.exists()


def test_no_python_headers_exits_2_with_one_line(workdir, capsys, monkeypatch):
    """No Python.h and an empty kernel cache: the line names the header and where it was looked for."""
    argv = _propagate_argv(workdir)
    capsys.readouterr()
    include = workdir / "include"
    include.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(workdir / "cache"))
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(include)})
    unbind_kernels()
    try:
        code = run(*argv)
    finally:
        monkeypatch.undo()
        unbind_kernels()
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        f"error: C kernel module unavailable: the Python header Python.h is not in {include} "
        "(install python3-dev or the like)"
    ]
    assert not (workdir / "out.csv").exists()
    assert _kernels.BACKEND == "c"


class TestPropagate:
    def test_zero_steps_single_row(self, workdir):
        msys_path = workdir / "dubins.msys"
        run("compile", workdir / "dubins.spec", "-o", msys_path, "--listing", workdir / "eq.txt")
        out = workdir / "traj.csv"
        code = run(
            "propagate", msys_path, "--init", workdir / "init.csv",
            "--dist", workdir / "dubins.spec", "-T", 0, "-o", out,
        )
        assert code == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 2  # header + t=0

    def test_round_trip_bit_exact(self, workdir):
        """compile -> save -> load -> propagate must equal in-process results."""
        msys_path = workdir / "dubins.msys"
        run("compile", workdir / "dubins.spec", "-o", msys_path, "--listing", workdir / "eq.txt")
        loaded = compiler.load(msys_path)
        spec = presets.dubins_spec()
        in_process = presets.compile_dubins()
        model_a = distmoments.DisturbanceModel(in_process, spec.distributions)
        model_b = distmoments.DisturbanceModel(loaded, spec.distributions)
        x0 = {"x": 0.0, "y": 0.0, "v": 1.0, "theta": 0.0}
        traj_a = propagator.propagate(
            in_process, propagator.init_deterministic(in_process, x0), model_a, 50
        )
        traj_b = propagator.propagate(
            loaded, propagator.init_deterministic(loaded, x0), model_b, 50
        )
        assert traj_a.system.moment_names() == traj_b.system.moment_names()
        assert np.array_equal(traj_a.values, traj_b.values)

    def test_truncated_system_exit_2(self, workdir, capsys):
        msys_path = workdir / "dubins.msys"
        run("compile", workdir / "dubins.spec", "-o", msys_path)
        lines = msys_path.read_text().splitlines(keepends=True)
        msys_path.write_text("".join(lines[: len(lines) // 2]))
        capsys.readouterr()
        code = run(
            "propagate", msys_path, "--init", workdir / "init.csv",
            "--dist", workdir / "dubins.spec", "-T", 3, "-o", workdir / "traj.csv",
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestPipeline:
    def test_mc_compare_linearize(self, workdir, capsys):
        msys_path = workdir / "dubins.msys"
        run("compile", workdir / "dubins.spec", "-o", msys_path, "--listing", workdir / "eq.txt")
        exact_csv = workdir / "exact.csv"
        run(
            "propagate", msys_path, "--init", workdir / "init.csv",
            "--dist", workdir / "dubins.spec", "-T", 5, "-o", exact_csv,
        )
        mc_csv = workdir / "mc.csv"
        assert (
            run(
                "mc", workdir / "dubins.spec", "--init", workdir / "init.csv",
                "-T", 5, "-N", 20000, "--seed", 3, "-o", mc_csv,
            )
            == EXIT_OK
        )
        lin_csv = workdir / "lin.csv"
        assert (
            run(
                "linearize", workdir / "dubins.spec", "--init", workdir / "init.csv",
                "-T", 5, "-o", lin_csv,
            )
            == EXIT_OK
        )
        report = workdir / "report.csv"
        plot = workdir / "plot.csv"
        assert (
            run("compare", exact_csv, mc_csv, lin_csv, "-o", report, "--plot-data", plot)
            == EXIT_OK
        )
        body = report.read_text()
        assert "t,moment,exact,mc_mean,mc_se,z_exact,lin_value,z_lin" in body
        # exact tracks MC at small T
        data_rows = [ln for ln in body.splitlines() if ln and not ln.startswith(("#", "t,"))]
        zs = [abs(float(row.split(",")[5])) for row in data_rows]
        assert max(zs) <= 5.0
        assert plot.read_text().startswith("series,t,moment,value")

    def test_compare_matches_library_report(self, workdir):
        """The CLI pipeline's report equals oracle.compare on the same inputs, row by row."""
        msys_path, exact_csv, mc_csv, lin_csv = (
            workdir / name for name in ("dubins.msys", "exact.csv", "mc.csv", "lin.csv")
        )
        init = workdir / "init.csv"
        run("compile", workdir / "dubins.spec", "-o", msys_path, "--listing", workdir / "eq.txt")
        run("propagate", msys_path, "--init", init, "--dist", workdir / "dubins.spec", "-T", 5, "-o", exact_csv)
        run("mc", workdir / "dubins.spec", "--init", init, "-T", 5, "-N", 20000, "--seed", 3, "-o", mc_csv)
        run("linearize", workdir / "dubins.spec", "--init", init, "-T", 5, "-o", lin_csv)
        report_csv = workdir / "report.csv"
        assert run("compare", exact_csv, mc_csv, lin_csv, "-o", report_csv) == EXIT_OK

        spec, system, msys = presets.dubins_spec(), presets.dubins_system(), presets.compile_dubins()
        x0 = {"x": 0.0, "y": 0.0, "v": 1.0, "theta": 0.0}
        model = distmoments.DisturbanceModel(msys, spec.distributions)
        traj = propagator.propagate(msys, propagator.init_deterministic(msys, x0), model, 5)
        mc = oracle.mc_simulate(spec, system, model, x0, 5, 20000, 3, moments=tuple(msys.basis))
        w_star = {w: distmoments.mean(d) for w, d in spec.distributions.items()}
        lin = oracle.linearize(spec, x0, w_star)
        mu0 = np.array([x0[v] for v in spec.state_vars])
        pred = oracle.linear_propagate(lin, mu0, np.zeros((4, 4)), model, 5)
        report = oracle.compare(traj, mc, pred)
        assert sum(r.lin_value is not None for r in report.rows) > 0

        def table(text):
            lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
            return [ln.split(",") for ln in lines]

        assert table(report_csv.read_text()) == table(report.to_csv())

    def test_linearized_missing_sigma_exit_2(self, workdir, capsys):
        exact = workdir / "exact.csv"
        mc = workdir / "mc.csv"
        lin = workdir / "lin.csv"
        exact.write_text("t,x,x^2\n0,0,0\n1,1,1\n")
        mc.write_text("t,x,x_se,x^2,x^2_se\n0,0,0,0,0\n1,1,0.1,1,0.1\n")
        lin.write_text("t,mu_x,mu_y,sigma_x_y,sigma_y_y\n0,0,0,0,0\n1,1,0,0,0\n")
        capsys.readouterr()
        assert run("compare", exact, mc, lin, "-o", workdir / "r.csv") == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("dt", ["nan", "inf", "0", "-1"])
    def test_linearize_bad_dt_exit_2(self, workdir, capsys, dt):
        out = workdir / "lin.csv"
        code = run("linearize", workdir / "dubins.spec", "--init", workdir / "init.csv", "-T", 5,
                   f"--dt={dt}", "-o", out)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: dt must be positive and finite")
        assert not out.exists()

    def test_linearize_unknown_shift_column_exit_2(self, workdir, capsys):
        shifts = workdir / "shifts.csv"
        shifts.write_text("wt,nope\n" + "0,0\n" * 5)
        capsys.readouterr()
        for argv in (("mc", "-N", 100), ("linearize",)):
            code = run(
                argv[0], workdir / "dubins.spec", "--init", workdir / "init.csv", "-T", 5,
                "--shifts", shifts, *argv[1:], "-o", workdir / "out.csv",
            )
            assert code == EXIT_INPUT
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "nope" in err[0]

    @pytest.mark.parametrize(
        "argv, init, message",
        [
            (("-T", 3, "--batch-size", 0), "x,y,v,theta\n0,0,1,0\n", "batch size"),
            (("-T", -1), "x,y,v,theta\n0,0,1,0\n", "step count"),
            (("-T", 3), "x,y,v,theta\n0,0,1\n", "init.csv, line 2: 3 values for 4 columns"),
            (("-T", 3, "--init", "."), "x,y,v,theta\n0,0,1,0\n", "Is a directory: '.'"),
            (("-T", 3, "-o", "init.csv/mc.csv"), "x,y,v,theta\n0,0,1,0\n", "Not a directory"),
        ],
        ids=["zero-batch-size", "negative-steps", "ragged-init-row", "init-is-a-directory", "output-under-a-file"],
    )
    def test_mc_bad_input_exit_2(self, workdir, capsys, monkeypatch, argv, init, message):
        """Bad values and unusable paths (relative to the working directory) exit 2 with one line."""
        (workdir / "init.csv").write_text(init)
        monkeypatch.chdir(workdir)
        capsys.readouterr()
        code = run("mc", workdir / "dubins.spec", "--init", workdir / "init.csv", "-N", 100,
                   "-o", workdir / "mc.csv", *argv)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

    @pytest.mark.parametrize("command", ["propagate", "mc", "linearize"])
    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("init.csv", "x,y,v,theta\n0,,1,0\n", "line 2, column 2 (y): expected a finite number, got ''"),
            ("init.csv", "x,y,v,theta\n0,0,1,inf\n", "line 2, column 4 (theta): expected a finite number, got 'inf'"),
            ("shifts.csv", "wt\n0\nnan\n0\n", "line 3, column 1 (wt): expected a finite number, got 'nan'"),
        ],
        ids=["empty-init-cell", "inf-init-cell", "nan-shift"],
    )
    def test_non_finite_csv_cell_exit_2(self, workdir, capsys, command, name, text, message):
        """--init and --shifts cells must be finite numbers; compare still reads NaN cells."""
        (workdir / "shifts.csv").write_text("wt\n0\n0\n0\n")
        (workdir / name).write_text(text)
        run("compile", workdir / "dubins.spec", "-o", workdir / "dubins.msys", "--listing", workdir / "eq.txt")
        capsys.readouterr()
        out = workdir / "out.csv"
        common = ("--init", workdir / "init.csv", "--shifts", workdir / "shifts.csv", "-T", 3, "-o", out)
        argv = {
            "propagate": ("propagate", workdir / "dubins.msys", "--dist", workdir / "dubins.spec", *common),
            "mc": ("mc", workdir / "dubins.spec", "-N", 100, *common),
            "linearize": ("linearize", workdir / "dubins.spec", *common),
        }[command]
        assert run(*argv) == EXIT_INPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {workdir / name}, {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["propagate", "mc", "linearize"])
    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("init.csv", "x,y,v,theta,x\n5,0,1,0,0\n", "line 1: column 'x' appears more than once"),
            ("shifts.csv", "# schedule\nwt,wt\n0,0\n0,0\n0,0\n", "line 2: column 'wt' appears more than once"),
        ],
        ids=["init", "shifts"],
    )
    def test_repeated_csv_column_exit_2(self, workdir, capsys, command, name, text, message):
        """A header that names a column twice is an input error on its line, not a silent last-column-wins."""
        (workdir / "shifts.csv").write_text("wt\n0\n0\n0\n")
        (workdir / name).write_text(text)
        run("compile", workdir / "dubins.spec", "-o", workdir / "dubins.msys", "--listing", workdir / "eq.txt")
        capsys.readouterr()
        out = workdir / "out.csv"
        common = ("--init", workdir / "init.csv", "--shifts", workdir / "shifts.csv", "-T", 3, "-o", out)
        argv = {
            "propagate": ("propagate", workdir / "dubins.msys", "--dist", workdir / "dubins.spec", *common),
            "mc": ("mc", workdir / "dubins.spec", "-N", 100, *common),
            "linearize": ("linearize", workdir / "dubins.spec", *common),
        }[command]
        assert run(*argv) == EXIT_INPUT
        assert capsys.readouterr().err.splitlines() == [f"error: {workdir / name}, {message}"]
        assert not out.exists()

    def test_read_csv_header_only(self, workdir):
        path = workdir / "empty.csv"
        path.write_text("# note: none\nt,x,x^2\n")
        header, values, rows = cli._read_csv(str(path))
        assert header == ["t", "x", "x^2"]
        assert values.shape == (0, 3)
        assert rows == []

    @pytest.mark.parametrize("exact", ["t,x,y\n0,,0\n1,0,0\n", "t,x,y\n0,0,0\n1,0,\n"], ids=["nan-first", "nan-last"])
    def test_compare_empty_cell_flagged(self, workdir, capsys, exact):
        (workdir / "exact.csv").write_text(exact)
        (workdir / "mc.csv").write_text("t,x,x_se,y,y_se\n0,0,1,0,1\n1,7,1,0,1\n")
        capsys.readouterr()
        assert run("compare", workdir / "exact.csv", workdir / "mc.csv", "-o", workdir / "r.csv") == EXIT_OK
        assert capsys.readouterr().err == "max |z| exact vs MC: inf; flagged rows: 2\n"
        header = workdir.joinpath("r.csv").read_text()
        assert "# max |z| exact vs MC: inf\n# flagged rows (|z| > 5 or NaN): 2\n" in header

    @pytest.mark.parametrize("case", ["no-common-moment", "horizon-mismatch"])
    def test_compare_errors_match_library(self, workdir, capsys, case):
        """`compare` and oracle.compare align the same tables and fail with the same message."""
        system = sysspec.trig_encode(sysspec.parse_spec("state x\ndisturbance w\ndyn x' = x + w\nmoments x x^2\n"))
        msys = compiler.compile_moment_system(system, system.target_moments)
        traj = propagator.MomentTrajectory(msys, np.zeros((3, len(msys.basis))))
        moments = (MultiIndex((3,)),) if case == "no-common-moment" else tuple(msys.basis)
        rows = np.ones((3 if case == "no-common-moment" else 4, len(moments)))
        mc = oracle.McEstimate(msys.state_vars, moments, rows, rows, 100, 0, np.stack([rows, rows]))
        (workdir / "exact.csv").write_text(propagator.trajectory_to_csv(traj))
        (workdir / "mc.csv").write_text(cli._mc_csv(mc, {}))
        with pytest.raises(ValueError, match="no common moments|horizon mismatch") as library:
            oracle.compare(traj, mc)
        capsys.readouterr()
        assert run("compare", workdir / "exact.csv", workdir / "mc.csv", "-o", workdir / "r.csv") == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {library.value}\n"

    @pytest.mark.parametrize("command", ["propagate", "mc", "linearize"])
    @pytest.mark.parametrize(
        "init, missing",
        [("x,y,theta\n0,0,0\n", "v"), ("x,y,v,c_theta,s_theta\n0,0,1,1,0\n", "theta")],
        ids=["no-speed", "angle-as-pair"],
    )
    def test_missing_initial_value_named(self, workdir, capsys, command, init, missing):
        """Every command names a missing initial value alike; only `propagate` takes an angle's cos/sin pair."""
        (workdir / "init.csv").write_text(init)
        run("compile", workdir / "dubins.spec", "-o", workdir / "dubins.msys", "--listing", workdir / "eq.txt")
        capsys.readouterr()
        common = ("--init", workdir / "init.csv", "-T", 3, "-o", workdir / "out.csv")
        argv = {
            "propagate": ("propagate", workdir / "dubins.msys", "--dist", workdir / "dubins.spec", *common),
            "mc": ("mc", workdir / "dubins.spec", "-N", 100, *common),
            "linearize": ("linearize", workdir / "dubins.spec", *common),
        }[command]
        if command == "propagate" and missing == "theta":
            assert run(*argv) == EXIT_OK
        else:
            assert run(*argv) == EXIT_INPUT
            assert capsys.readouterr().err == f"error: initial state value missing for '{missing}'\n"

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("exact.csv", "s,x\n0,0\n", "trajectory CSVs must start with a 't' column"),
            ("mc.csv", "x,x_se\n0,1\n", "trajectory CSVs must start with a 't' column"),
            ("lin.csv", "t,x\n0,0\n", "linearized table has no 'mu_*' columns"),
            ("lin.csv", "t,mu_x,mu_y,sigma_x_x,sigma_y_y\n0,0,0,0,0\n", "linearized table has no 'sigma_x_y' column"),
        ],
        ids=["exact-without-t", "mc-without-t", "lin-without-mu", "lin-without-covariance"],
    )
    def test_compare_table_error_names_its_file(self, workdir, capsys, name, text, message):
        (workdir / "exact.csv").write_text("t,x\n0,0\n")
        (workdir / "mc.csv").write_text("t,x,x_se\n0,0,1\n")
        (workdir / "lin.csv").write_text("t,mu_x,sigma_x_x\n0,0,0\n")
        (workdir / name).write_text(text)
        capsys.readouterr()
        files = (workdir / f for f in ("exact.csv", "mc.csv", "lin.csv"))
        assert run("compare", *files, "-o", workdir / "r.csv") == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {workdir / name}: {message}\n"
        assert not (workdir / "r.csv").exists()

    def test_compare_horizon_mismatch_exit_2(self, workdir):
        a = workdir / "a.csv"
        b = workdir / "b.csv"
        a.write_text("t,x,x_se\n0,0,0\n1,0,0\n")
        b.write_text("t,x,x_se\n0,0,0\n")
        assert run("compare", a, b, "-o", workdir / "r.csv") == EXIT_INPUT


# sha256 of every file the pipeline in test_cli_outputs_are_byte_stable writes.
PIPELINE_DIGESTS = {
    "dubins.msys": "ee799860be9e39859526e4060908fd64bb66cd8f706a19820e56a25c67a9a31a",
    "eq.txt": "fefe57e7bafb0161d3d020eb3a154e9ffff40c0fa7cb81b2307671dd78efe798",
    "exact.csv": "f4ddfe99ee7e6f8b3dc5d101ecd5f436a890ab915239b4fa215b5361293ae945",
    "exact_shifted.csv": "b30b482e859bd001b1d4ae13c2fed1bb8ebdfb586dd5ab2befc32387f4f89214",
    "mc.csv": "b744feb22cf7eb36bf46fe76e48a086b5ec44263807d5a1a594e85294e658320",
    "mc_shifted.csv": "1e8ffbd9c40e2300d64bd54413d7437b977927f332fe4d3707bd4516551fec06",
    "lin.csv": "f143471a9e203a316426066fac2ac2d55f3508807793b1571a3d5a9598181414",
    "lin_shifted.csv": "e32c0a99de2f6e019a12aa6e759911f5b8b76dfa84d67e10d37135de33b8e0ee",
    "report.csv": "b9edea33721df3087ad022febf073619402622a28113dc1e55e6e7a17773f956",
    "plot.csv": "ae384dacc04770779ebfb4810b6dc767d52be43b41389c70d5f85154afd5ff7b",
    "plan.csv": "e8f65ef797f83edb05dd937818b49373e8d42679359ddb11bd1a87c107f13d07",
    "tree.csv": "38edf3719a228b8f87852f1ed34ca46615cff9832a67268becd9cd61a59c2508",
}


def test_parser_defaults_are_the_library_defaults():
    """`plan`'s steering options and `mc`'s batch size default to what the library defaults to."""
    parser = cli.build_parser()
    plan = parser.parse_args(["plan", "s.spec", "--env", "env.txt", "--eps", "0.1", "-o", "out.csv"])
    config = planner.PlannerConfig()
    assert (plan.speed, plan.turn_radius, plan.max_edge_steps) == (
        config.speed, config.turn_radius, config.max_edge_steps)
    mc = parser.parse_args(["mc", "s.spec", "--init", "init.csv", "-T", "3", "-N", "100", "-o", "out.csv"])
    for function in (oracle.mc_simulate, planner.estimate_plan_collision):
        assert inspect.signature(function).parameters["batch_size"].default == mc.batch_size, function.__name__


def test_cli_outputs_are_byte_stable(workdir, monkeypatch):
    """Every file the CLI writes, pinned byte for byte: metadata lines, header, cells and newlines."""
    monkeypatch.chdir(workdir)  # relative paths: `propagate` echoes its compiled path into the metadata
    rows = [f"{0.002 * (k % 7):.3f},{0.01 * (k % 5 - 2):.2f}" for k in range(50)]
    Path("shifts.csv").write_text("wv,wt\n" + "\n".join(rows) + "\n")
    common = ("--init", "init.csv", "-T", 50)
    for shifts, suffix in ((), ""), (("--shifts", "shifts.csv"), "_shifted"):
        if not suffix:
            assert run("compile", "dubins.spec", "-o", "dubins.msys", "--listing", "eq.txt") == EXIT_OK
        assert run("propagate", "dubins.msys", "--dist", "dubins.spec", *common, *shifts,
                   "-o", f"exact{suffix}.csv") == EXIT_OK
        assert run("mc", "dubins.spec", *common, "-N", 4000, "--seed", 3, *shifts,
                   "-o", f"mc{suffix}.csv") == EXIT_OK
        assert run("linearize", "dubins.spec", *common, *shifts, "-o", f"lin{suffix}.csv") == EXIT_OK
    assert run("compare", "exact.csv", "mc.csv", "lin.csv", "-o", "report.csv",
               "--plot-data", "plot.csv") == EXIT_OK
    assert run("plan", "planner.spec", "--env", "env.txt", "--eps", 0.1, "--seed", 11,
               "--iterations", 400, "-o", "plan.csv", "--tree", "tree.csv") == EXIT_OK
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in PIPELINE_DIGESTS}
    assert digests == PIPELINE_DIGESTS


class TestPlan:
    def test_plan_success_and_outputs(self, workdir, capsys):
        plan_csv = workdir / "plan.csv"
        tree_csv = workdir / "tree.csv"
        code = run(
            "plan", workdir / "planner.spec", "--env", workdir / "env.txt",
            "--eps", 0.1, "--seed", 11, "--iterations", 400,
            "-o", plan_csv, "--tree", tree_csv,
        )
        assert code == EXIT_OK
        rows = [ln for ln in plan_csv.read_text().splitlines() if not ln.startswith("#")]
        header = rows[0].split(",")
        assert header[:5] == ["node", "x", "y", "heading", "risk_to_node"]
        risks = [float(r.split(",")[4]) for r in rows[1:]]
        assert all(r <= 0.1 for r in risks)
        assert tree_csv.exists()

    def test_no_plan_exit_3(self, workdir):
        code = run(
            "plan", workdir / "planner.spec", "--env", workdir / "env.txt",
            "--eps", 0.0001, "--seed", 11, "--iterations", 30,
            "-o", workdir / "plan.csv",
        )
        assert code == EXIT_NO_PLAN

    @pytest.mark.parametrize("requirement", NOT_A_VEHICLE)
    def test_other_vehicle_exits_2(self, workdir, capsys, requirement):
        spec = workdir / "other.spec"
        spec.write_text(NOT_A_VEHICLE[requirement])
        code = run("plan", spec, "--env", workdir / "env.txt", "--eps", 0.1, "-o", workdir / "plan.csv")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: the planner ") and requirement in err[0]

    @pytest.mark.parametrize(
        "env, line",
        [
            ("bounds 0 0 inf 2.5\nstart 0.3 0.3 0\ngoal 2.1 2.1 0.25\n", 1),
            ("bounds 0 0 2.5 2.5\nstart 0.3 0.3 nan\ngoal 2.1 2.1 0.25\n", 2),
        ],
        ids=["inf-bounds", "nan-start"],
    )
    def test_non_finite_environment_exits_2(self, workdir, capsys, env, line):
        (workdir / "env.txt").write_text(env)
        code = run("plan", workdir / "planner.spec", "--env", workdir / "env.txt", "--eps", 0.1,
                   "-o", workdir / "plan.csv")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: environment line {line}: non-finite value"]

    def test_clockwise_obstacle_exits_2(self, workdir, capsys):
        (workdir / "env.txt").write_text(presets.PLANNER_ENV + "obstacle 1.6 0.2  1.6 0.6  2.0 0.6  2.0 0.2\n")
        code = run("plan", workdir / "planner.spec", "--env", workdir / "env.txt", "--eps", 0.1,
                   "-o", workdir / "plan.csv")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: environment line 8: obstacle vertices must go")
        assert not (workdir / "plan.csv").exists()

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--speed", "0"), ("--speed", "-0.05"), ("--speed", "nan"),
            ("--turn-radius", "0"), ("--turn-radius", "nan"),
            ("--max-edge-steps", "0"), ("--max-edge-steps", "-5"),
            ("--iterations", "-1"),
        ],
    )
    def test_invalid_setting_exits_2(self, workdir, capsys, option, value):
        code = run("plan", workdir / "planner.spec", "--env", workdir / "env.txt", "--eps", 0.1,
                   f"{option}={value}", "-o", workdir / "plan.csv")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (workdir / "plan.csv").exists()

    def test_missing_env_exit_2(self, workdir):
        code = run(
            "plan", workdir / "planner.spec", "--env", workdir / "missing.txt",
            "--eps", 0.1, "-o", workdir / "plan.csv",
        )
        assert code == EXIT_INPUT


def _noted(text: str) -> str:
    """`text` with a trailing comment on every line, commas and all."""
    return "".join(f"{line}  # note, 1,2\n" for line in text.splitlines())


class TestTrailingComment:
    """One comment rule for every text input: a trailing '# note' has no effect on any line."""

    def test_spec_line(self):
        assert sysspec.parse_spec(_noted(presets.DUBINS_SPEC)) == sysspec.parse_spec(presets.DUBINS_SPEC)

    def test_environment_line(self):
        assert planner.parse_environment(_noted(presets.PLANNER_ENV)) == planner.parse_environment(presets.PLANNER_ENV)

    @pytest.mark.parametrize("line", [1, 2], ids=["header", "data-row"])
    def test_csv_line(self, workdir, line):
        plain = "# tool: test\nt,x,x^2\n0,1.5,\n1,2,4\n"
        lines = plain.splitlines()
        lines[line] += " # note, 1,2"
        (workdir / "plain.csv").write_text(plain)
        (workdir / "noted.csv").write_text("\n".join(lines) + "\n")
        header, values, rows = cli._read_csv(str(workdir / "noted.csv"))
        assert header == ["t", "x", "x^2"]
        np.testing.assert_array_equal(values, np.array([[0.0, 1.5, np.nan], [1.0, 2.0, 4.0]]))
        assert (header, rows) == cli._read_csv(str(workdir / "plain.csv"))[::2]

    def test_init_csv_row(self, workdir):
        """An --init row with a trailing comment gives the same trajectory as without it."""
        run("compile", workdir / "dubins.spec", "-o", workdir / "dubins.msys", "--listing", workdir / "eq.txt")
        (workdir / "noted.csv").write_text(_noted("x,y,v,theta\n0,0,1,0\n"))
        for init in "init.csv", "noted.csv":
            argv = ("propagate", workdir / "dubins.msys", "--dist", workdir / "dubins.spec", "--init", workdir / init)
            assert run(*argv, "-T", 3, "-o", workdir / f"out_{init}") == EXIT_OK
        assert (workdir / "out_init.csv").read_text() == (workdir / "out_noted.csv").read_text()


class TestReadCsvFuzz:
    """Any file ends in (header, values, rows) or a ValueError, so commands exit 2."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "in.csv"

    @staticmethod
    def _check(path, data: bytes):
        path.write_bytes(data)
        try:
            header, values, rows = cli._read_csv(str(path))
        except ValueError:
            return
        assert header and all(isinstance(name, str) for name in header)
        assert values.dtype == np.float64 and values.ndim == 2 and values.shape[1] == len(header)
        assert len(rows) == len(values) and all(len(cells) == len(header) for _, cells in rows)
        assert [line_no for line_no, _ in rows] == sorted({line_no for line_no, _ in rows})

    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, path, data):
        self._check(path, data)

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, path, text):
        self._check(path, text.encode("utf-8", "surrogatepass"))

    @given(st.text(alphabet="#:, \t\n\r.0123456789e-+naifNx_", max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_csv_alphabet(self, path, text):
        self._check(path, text.encode())
