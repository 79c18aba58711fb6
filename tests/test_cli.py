import numpy as np
import pytest

from momentprop import cli, compiler, distmoments, oracle, presets, propagator
from momentprop.cli import EXIT_INPUT, EXIT_NO_PLAN, EXIT_OK


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

    def test_read_csv_header_only(self, workdir):
        path = workdir / "empty.csv"
        path.write_text("# note: none\nt,x,x^2\n")
        meta, header, values = cli._read_csv(str(path))
        assert meta == {"note": "none"} and header == ["t", "x", "x^2"]
        assert values.shape == (0, 3)

    def test_compare_horizon_mismatch_exit_2(self, workdir):
        a = workdir / "a.csv"
        b = workdir / "b.csv"
        a.write_text("t,x,x_se\n0,0,0\n1,0,0\n")
        b.write_text("t,x,x_se\n0,0,0\n")
        assert run("compare", a, b, "-o", workdir / "r.csv") == EXIT_INPUT


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

    def test_missing_env_exit_2(self, workdir):
        code = run(
            "plan", workdir / "planner.spec", "--env", workdir / "missing.txt",
            "--eps", 0.1, "-o", workdir / "plan.csv",
        )
        assert code == EXIT_INPUT
