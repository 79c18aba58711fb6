import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentprop import cli, compiler, distmoments, oracle, presets, propagator, sysspec
from momentprop.cli import EXIT_INPUT, EXIT_NO_PLAN, EXIT_OK, EXIT_RUNTIME
from momentprop.polyring import MultiIndex
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
    assert capsys.readouterr().err.splitlines() == ["error: spec declares no 'dist' lines for the disturbances"]
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
        ],
        ids=["zero-batch-size", "negative-steps", "ragged-init-row"],
    )
    def test_mc_bad_input_exit_2(self, workdir, capsys, argv, init, message):
        (workdir / "init.csv").write_text(init)
        capsys.readouterr()
        code = run("mc", workdir / "dubins.spec", "--init", workdir / "init.csv", "-N", 100,
                   *argv, "-o", workdir / "mc.csv")
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

    def test_read_csv_header_only(self, workdir):
        path = workdir / "empty.csv"
        path.write_text("# note: none\nt,x,x^2\n")
        header, values = cli._read_csv(str(path))
        assert header == ["t", "x", "x^2"]
        assert values.shape == (0, 3)

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


class TestReadCsvFuzz:
    """Any file ends in (header, values) or a ValueError, so commands exit 2."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "in.csv"

    @staticmethod
    def _check(path, data: bytes):
        path.write_bytes(data)
        try:
            header, values = cli._read_csv(str(path))
        except ValueError:
            return
        assert header and all(isinstance(name, str) for name in header)
        assert values.dtype == np.float64 and values.ndim == 2 and values.shape[1] == len(header)

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
