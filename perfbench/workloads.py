"""The four benchmark workloads: seeded inputs, set-up, one op, and its checks.

Every workload is driven the same way by `run.py`: `setup()` once, then a
closed loop of `op(inputs(i))` calls, each followed by an untimed
`check(inp, out)`, and one untimed `final_check()` after the loop.

`inputs(i)` is a pure function of (workload seed, op index) built with the
standard library only, so the program receives nothing but the generated
values.  The output checks compare against references computed here from
the distribution parameters, never from `momentprop.distmoments`.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import random

import numpy as np

from momentprop import cli, compiler, distmoments, planner, presets, propagator, sysspec

# Parameters of the benchmark noise in presets.DUBINS_SPEC; the closed-form
# references below use these, and set-up fails if the spec disagrees.
BETA_WV = (10.0, 1000.0)  # speed noise Beta(a, b)
GAUSS_WT = (0.04, 0.03)  # heading noise N(mean, variance)

# The paper's 20-moment reduced basis of the Dubins system (position
# moments up to degree 2), as monomials over (x, y, v, c_theta, s_theta).
PAPER_BASIS_20 = frozenset(
    {
        "x", "y", "v", "c_theta", "s_theta",
        "x^2", "y^2", "x*y", "v^2", "c_theta^2", "s_theta^2", "c_theta*s_theta",
        "x*c_theta", "x*s_theta", "y*c_theta", "y*s_theta",
        "x*v*c_theta", "x*v*s_theta", "y*v*c_theta", "y*v*s_theta",
    }
)

CHECK_RTOL = 1e-9


def _rng(workload: str, seed: int, i: int) -> random.Random:
    # String seeds are hashed with SHA-512, so this is stable across processes.
    return random.Random(f"{workload}/{seed}/{i}")


def _initial_state(r: random.Random) -> dict[str, float]:
    return {
        "x": r.uniform(-1.0, 1.0),
        "y": r.uniform(-1.0, 1.0),
        "v": r.uniform(0.5, 1.5),
        "theta": r.uniform(-math.pi, math.pi),
    }


class Workload:
    """Defaults shared by the workloads; `span` is replaced by the tracer's in traced runs."""

    name = ""
    COUNT_OPS = 3  # traced ops over which per-op counts are taken

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir

    def span(self, name: str):
        return contextlib.nullcontext()

    def final_check(self) -> list[str]:
        """Untimed check made once per run, after the loop."""
        return []


def _check_noise(spec) -> None:
    dists = spec.distributions
    wv, wt = dists["wv"], dists["wt"]
    if (wv.a, wv.b) != BETA_WV or (wt.mean, wt.variance) != GAUSS_WT:
        raise ValueError(f"benchmark noise changed: {dists}; update BETA_WV/GAUSS_WT")


def reference_moments(x0, n_steps: int, ax: float = 1.0, ay: float = 1.0) -> dict[str, np.ndarray]:
    """Closed-form E[.] over t = 0..n_steps for x' = x + ax*v*cos, y' = y + ay*v*sin.

    Speed moments come from the Beta raw moments, heading moments from the
    Gaussian characteristic function at 1 and 2; E[x], E[y] are cumulative
    sums of E[v]E[cos], E[v]E[sin] because v and theta are independent.
    """
    a, b = BETA_WV
    mu, var = GAUSS_WT
    m1 = a / (a + b)
    m2 = a * (a + 1) / ((a + b) * (a + b + 1))
    t = np.arange(n_steps + 1, dtype=float)
    v0, th0 = x0["v"], x0["theta"]
    ev = v0 + t * m1
    ev2 = v0 * v0 + 2 * v0 * t * m1 + t * m2 + t * (t - 1) * m1 * m1
    z1 = cmath.exp(1j * th0) * np.power(cmath.exp(1j * mu - var / 2), t)
    z2 = cmath.exp(2j * th0) * np.power(cmath.exp(2j * mu - 2 * var), t)
    ec, es = z1.real, z1.imag

    def cumulative(start: float, rate: np.ndarray) -> np.ndarray:
        return start + np.concatenate(([0.0], np.cumsum(rate)[:-1]))

    return {
        "v": ev,
        "v^2": ev2,
        "c_theta": ec,
        "s_theta": es,
        "c_theta^2": (1 + z2.real) / 2,
        "s_theta^2": (1 - z2.real) / 2,
        "c_theta*s_theta": z2.imag / 2,
        "x": cumulative(x0["x"], ax * ev * ec),
        "y": cumulative(x0["y"], ay * ev * es),
    }


def closed_form_failures(traj, x0, ax: float = 1.0, ay: float = 1.0, label: str = "") -> list[str]:
    ref = reference_moments(x0, traj.n_steps, ax, ay)
    out = []
    for name, expected in ref.items():
        got = traj.moment_series(name)
        scale = max(1.0, float(np.max(np.abs(expected))))
        err = np.abs(got - expected)
        if not np.all(err <= CHECK_RTOL * scale):
            t = int(np.argmax(err))
            out.append(f"{label}E[{name}] at t={t}: {got[t]!r} vs closed form {expected[t]!r}")
    return out


class Horizon(Workload):
    """One op: a 1,000-step propagate of the reduced 20-moment Dubins system."""

    name = "horizon"
    STEPS = 1000
    COUNT_OPS = 10

    def inputs(self, i: int) -> dict[str, float]:
        return _initial_state(_rng(self.name, self.seed, i))

    def setup(self) -> None:
        self.spec = sysspec.parse_spec(presets.DUBINS_SPEC)
        _check_noise(self.spec)
        self.system = sysspec.trig_encode(self.spec)
        self.msys = compiler.compile_moment_system(self.system, self.system.target_moments)
        self.model = distmoments.DisturbanceModel(self.msys, self.spec.distributions)

    def op(self, x0):
        init = propagator.init_deterministic(self.msys, x0)
        return propagator.propagate(self.msys, init, self.model, self.STEPS)

    def check(self, x0, traj) -> tuple[list[str], dict[str, float]]:
        return closed_form_failures(traj, x0), {}

    def final_check(self) -> list[str]:
        """Criterion 9: reduced and un-reduced agree on their shared moments."""
        full = compiler.compile_moment_system(self.system, self.system.target_moments, reduced=False)
        x0 = self.inputs(0)
        a = self.op(x0)
        with self.span("bench.unreduced"):
            b = propagator.propagate(
                full,
                propagator.init_deterministic(full, x0),
                distmoments.DisturbanceModel(full, self.spec.distributions),
                self.STEPS,
            )
        out = []
        for name in set(self.msys.moment_names()) & set(full.moment_names()):
            x, y = a.moment_series(name), b.moment_series(name)
            if not np.allclose(x, y, rtol=CHECK_RTOL, atol=CHECK_RTOL):
                out.append(f"reduced vs un-reduced E[{name}] differ by {np.max(np.abs(x - y))!r}")
        return out


class Planner(Workload):
    """One op: a 100-iteration risk-bounded RRT on presets.PLANNER_ENV."""

    name = "planner"
    ITERATIONS = 100
    EPSILON = 0.1
    ROLLOUTS = 2000
    COUNT_OPS = 5

    def inputs(self, i: int) -> dict[str, int]:
        r = _rng(self.name, self.seed, i)
        return {"rrt_seed": r.getrandbits(32), "rollout_seed": r.getrandbits(32)}

    def setup(self) -> None:
        self.spec = sysspec.parse_spec(presets.DUBINS_SPEC)
        system = sysspec.trig_encode(self.spec)
        self.msys = compiler.compile_moment_system(system, system.target_moments)
        self.env = planner.parse_environment(presets.PLANNER_ENV)
        self.noise = presets.planner_noise()

    def op(self, inp):
        return planner.build_rrt(
            self.env, self.msys, self.noise, self.EPSILON, self.ITERATIONS, inp["rrt_seed"]
        )

    def check(self, inp, result) -> tuple[list[str], dict[str, float]]:
        counts = {"found": float(result.found), "edges_accepted": float(len(result.nodes) - 1)}
        if not result.found:
            return [], counts
        out = []
        risk = result.nodes[result.goal_node].risk_to_node
        if not risk <= self.EPSILON:
            out.append(f"goal risk bound {risk!r} exceeds epsilon {self.EPSILON}")
        freq = planner.estimate_plan_collision(
            self.spec,
            self.noise,
            self.env,
            result.path_controls(),
            self.ROLLOUTS,
            inp["rollout_seed"],
            "wt",
            planner.PlannerConfig().speed,
        )
        if not freq <= self.EPSILON:
            out.append(f"plan collision frequency {freq!r} exceeds epsilon {self.EPSILON}")
        return out, counts


class Validate(Workload):
    """One op: the README pipeline compile -> propagate -> mc -> linearize -> compare."""

    name = "validate"
    STEPS = 100
    SAMPLES = 50_000
    Z_LIMIT = 5.0
    # A row whose MC standard error is below the float resolution of its
    # mean is a constant column (the state at t = 0, x and y at t = 1): its z
    # is rounding noise over rounding noise, so there the exact value must
    # instead equal the MC mean.
    SE_RESOLUTION = 4 * float(np.finfo(float).eps)
    CONSTANT_ATOL = 1e-12
    COMMANDS = ("compile", "propagate", "mc", "linearize", "compare")

    def inputs(self, i: int) -> dict:
        r = _rng(self.name, self.seed, i)
        return {"x0": _initial_state(r), "mc_seed": r.getrandbits(32)}

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        with open(self._path("dubins.spec"), "w", encoding="utf-8") as fh:
            fh.write(presets.DUBINS_SPEC)

    def op(self, inp):
        x0 = inp["x0"]
        with open(self._path("init.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(x0) + "\n" + ",".join(repr(v) for v in x0.values()) + "\n")
        p, T = self._path, str(self.STEPS)
        argvs = {
            "compile": ["compile", p("dubins.spec"), "-o", p("dubins.msys"), "--listing", p("listing.txt")],
            "propagate": ["propagate", p("dubins.msys"), "--init", p("init.csv"), "--dist", p("dubins.spec"),
                          "-T", T, "-o", p("exact.csv")],
            "mc": ["mc", p("dubins.spec"), "--init", p("init.csv"), "-T", T, "-N", str(self.SAMPLES),
                   "--seed", str(inp["mc_seed"]), "-o", p("mc.csv")],
            "linearize": ["linearize", p("dubins.spec"), "--init", p("init.csv"), "-T", T, "-o", p("lin.csv")],
            "compare": ["compare", p("exact.csv"), p("mc.csv"), p("lin.csv"), "-o", p("report.csv")],
        }
        codes = {}
        messages = io.StringIO()
        with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
            for command in self.COMMANDS:
                with self.span(f"cli.{command}"):
                    codes[command] = cli.main(argvs[command])
        return codes, messages.getvalue()

    def check(self, inp, out) -> tuple[list[str], dict[str, float]]:
        codes, messages = out
        bad = {c: rc for c, rc in codes.items() if rc != 0}
        if bad:
            return [f"exit codes {bad}: {messages.strip()[-300:]}"], {}
        with open(self._path("report.csv"), encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        col = {k: header.index(k) for k in ("t", "moment", "exact", "mc_mean", "mc_se", "z_exact")}
        out, flagged, constant_flagged = [], 0, 0
        for line in lines[1:]:
            cells = line.split(",")
            t, m = int(cells[col["t"]]), cells[col["moment"]]
            exact, mean, se, z = (float(cells[col[k]]) for k in ("exact", "mc_mean", "mc_se", "z_exact"))
            reported = not abs(z) <= self.Z_LIMIT
            flagged += reported
            if se <= self.SE_RESOLUTION * max(abs(exact), abs(mean)):
                # The report's z here is ROADMAP item 5's degenerate-SE defect;
                # it is counted, and the row is checked by agreement instead.
                constant_flagged += reported
                if not abs(exact - mean) <= self.CONSTANT_ATOL * max(1.0, abs(exact)):
                    out.append(f"constant E[{m}] at t={t}: exact {exact!r} vs MC mean {mean!r}")
            elif not abs((exact - mean) / se) <= self.Z_LIMIT:
                out.append(f"E[{m}] at t={t}: exact {exact!r}, MC {mean!r} +- {se!r}")
            elif reported:
                out.append(f"report gives z={z:.4g} for E[{m}] at t={t}, recomputed {(exact - mean) / se:.4g}")
        return out, {"flagged_rows": float(flagged), "constant_flagged_rows": float(constant_flagged)}


class Compile(Workload):
    """One op: the ladder k = 2..5, each rung parse -> encode -> compile -> dumps -> loads -> propagate."""

    name = "compile"
    LADDER = (2, 3, 4, 5)
    STEPS = 10

    def inputs(self, i: int) -> dict:
        r = _rng(self.name, self.seed, i)
        ax = round(r.uniform(0.9, 1.1), 3)
        ay = round(r.uniform(0.9, 1.1), 3)
        return {"ax": ax, "ay": ay, "x0": _initial_state(r)}

    @staticmethod
    def spec_text(k: int, ax: float, ay: float) -> str:
        """The Dubins spec with coefficients ax, ay and targets x^a y^b, 1 <= a + b <= k."""

        def power(var: str, e: int) -> list[str]:
            return [] if e == 0 else [var] if e == 1 else [f"{var}^{e}"]

        targets = [
            "*".join(power("x", a) + power("y", d - a)) for d in range(1, k + 1) for a in range(d, -1, -1)
        ]
        text = presets.DUBINS_SPEC
        for old, new in (
            ("moments x y x*y x^2 y^2", "moments " + " ".join(targets)),
            ("x + v*cos(theta)", f"x + {ax!r}*v*cos(theta)"),
            ("y + v*sin(theta)", f"y + {ay!r}*v*sin(theta)"),
        ):
            if old not in text:
                raise ValueError(f"presets.DUBINS_SPEC no longer contains {old!r}")
            text = text.replace(old, new)
        return text

    def setup(self) -> None:
        _check_noise(sysspec.parse_spec(presets.DUBINS_SPEC))

    def op(self, inp):
        rungs = []
        for k in self.LADDER:
            with self.span(f"bench.rung.k{k}"):
                spec = sysspec.parse_spec(self.spec_text(k, inp["ax"], inp["ay"]))
                system = sysspec.trig_encode(spec)
                msys = compiler.compile_moment_system(system, system.target_moments)
                text = compiler.dumps(msys)
                loaded = compiler.loads(text)
                model = distmoments.DisturbanceModel(loaded, spec.distributions)
                init = propagator.init_deterministic(loaded, inp["x0"])
                traj = propagator.propagate(loaded, init, model, self.STEPS)
            rungs.append((k, msys, text, loaded, traj))
        return rungs

    def check(self, inp, rungs) -> tuple[list[str], dict[str, float]]:
        out, counts = [], {}
        for k, msys, text, loaded, traj in rungs:
            counts[f"basis_size.k{k}"] = float(len(msys.basis))
            counts[f"terms.k{k}"] = float(sum(len(form.terms) for form in msys.forms))
            if loaded != msys or compiler.dumps(loaded) != text:
                out.append(f"k={k}: .msys round trip does not reproduce the system")
            if k == 2 and set(msys.moment_names()) != PAPER_BASIS_20:
                out.append(f"k=2 basis is not the paper's 20-moment set: {sorted(msys.moment_names())}")
            out.extend(closed_form_failures(traj, inp["x0"], inp["ax"], inp["ay"], label=f"k={k}: "))
        return out, counts


WORKLOADS = {cls.name: cls for cls in (Horizon, Planner, Validate, Compile)}
