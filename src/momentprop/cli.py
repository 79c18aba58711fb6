"""Command-line surface: compile, propagate, mc, linearize, compare, plan.

Exit codes: 0 success, 1 runtime failure, 2 input error, 3 no plan found.
All outputs are CSV (written atomically via temp file + rename) with run
metadata echoed as '#' comment lines.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import __version__, compiler, distmoments, oracle, planner, propagator, sysspec
from .compiler import BasisExplosionError
from .polyring import MultiIndex
from .propagator import PropagationError
from .sysspec import SpecError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2
EXIT_NO_PLAN = 3


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_csv(path: str) -> tuple[dict[str, str], list[str], np.ndarray]:
    """Read a CSV with '#'-comment metadata; returns (metadata, header, values).

    `values` has one row per data line and one column per header name.
    """
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    rows = []
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                metadata[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = [c.strip() for c in cells]
            continue
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {line_no}: {len(cells)} values for {len(header)} columns")
        try:
            rows.append([float(c) if c else np.nan for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}, line {line_no}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: no CSV header found")
    return metadata, header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def _read_init(path: str) -> dict[str, float]:
    _, header, values = _read_csv(path)
    if values.shape[0] != 1:
        raise ValueError(f"{path}: initial-state CSV needs exactly one data row")
    return dict(zip(header, map(float, values[0])))


def _read_shifts(path: str) -> dict[str, np.ndarray]:
    _, header, values = _read_csv(path)
    return {name: values[:, j] for j, name in enumerate(header)}


def _metadata(args: argparse.Namespace, **extra: str) -> dict[str, str]:
    meta = {"tool": f"momentprop {__version__}", "command": args.command}
    meta.update(extra)
    return meta


def _parse_spec_file(path: str) -> sysspec.SystemSpec:
    return sysspec.parse_spec(_read_text(path))


def _target_moments(system: sysspec.PolynomialSystem) -> tuple[MultiIndex, ...]:
    if not system.target_moments:
        raise SpecError("spec declares no 'moments' line to seed the compilation")
    return system.target_moments


def _cmd_compile(args) -> int:
    spec = _parse_spec_file(args.spec)
    system = sysspec.trig_encode(spec)
    for warning in sysspec.validate_independence(spec):
        print(f"warning: {warning}", file=sys.stderr)
    msys = compiler.compile_moment_system(
        system, _target_moments(system), reduced=not args.unreduced
    )
    _write_atomic(args.output, compiler.dumps(msys))
    listing = compiler.render_equations(msys)
    if args.listing:
        _write_atomic(args.listing, listing + "\n")
    else:
        print(listing)
    print(
        f"compiled {len(msys.basis)} moment equations "
        f"({'un-reduced' if args.unreduced else 'reduced'}) -> {args.output}",
        file=sys.stderr,
    )
    return EXIT_OK


def _model_from_spec(
    system, spec: sysspec.SystemSpec, shifts: Mapping[str, np.ndarray] | None
) -> distmoments.DisturbanceModel:
    if not spec.distributions:
        raise SpecError("spec declares no 'dist' lines for the disturbances")
    return distmoments.DisturbanceModel(system, spec.distributions, shifts)


def _cmd_propagate(args) -> int:
    msys = compiler.load(args.compiled)
    spec = _parse_spec_file(args.dist)
    shifts = _read_shifts(args.shifts) if args.shifts else None
    model = _model_from_spec(msys, spec, shifts)
    init = propagator.init_deterministic(msys, _read_init(args.init))
    traj = propagator.propagate(msys, init, model, args.steps)
    meta = _metadata(args, steps=str(args.steps), compiled=args.compiled)
    _write_atomic(args.output, propagator.trajectory_to_csv(traj, meta))
    return EXIT_OK


def _mc_csv(mc: oracle.McEstimate, meta: Mapping[str, str]) -> str:
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(f"# n_samples: {mc.n_samples}")
    header = ["t"]
    for name in mc.names:
        header.extend([name, f"{name}_se"])
    lines.append(",".join(header))
    for t in range(mc.n_steps + 1):
        row = [str(t)]
        for j in range(len(mc.names)):
            row.append(format(mc.means[t, j], ".17g"))
            row.append(format(mc.ses[t, j], ".17g"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_mc(args) -> int:
    spec = _parse_spec_file(args.spec)
    system = sysspec.trig_encode(spec)
    msys = compiler.compile_moment_system(system, _target_moments(system))
    shifts = _read_shifts(args.shifts) if args.shifts else None
    model = _model_from_spec(msys, spec, shifts)
    mc = oracle.mc_simulate(
        spec,
        system,
        model,
        _read_init(args.init),
        args.steps,
        args.samples,
        args.seed,
        moments=tuple(msys.basis),
        batch_size=args.batch_size,
    )
    meta = _metadata(args, steps=str(args.steps), seed=str(args.seed))
    _write_atomic(args.output, _mc_csv(mc, meta))
    return EXIT_OK


def _lin_csv(pred: oracle.LinearPrediction, meta: Mapping[str, str]) -> str:
    names = pred.state_vars
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    header = ["t"] + [f"mu_{v}" for v in names]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if j >= i:
                header.append(f"sigma_{a}_{b}")
    lines.append(",".join(header))
    for t in range(pred.n_steps + 1):
        row = [str(t)] + [format(v, ".17g") for v in pred.means[t]]
        for i in range(len(names)):
            for j in range(len(names)):
                if j >= i:
                    row.append(format(pred.covs[t, i, j], ".17g"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_linearize(args) -> int:
    spec = _parse_spec_file(args.spec)
    shifts = _read_shifts(args.shifts) if args.shifts else None
    model = _model_from_spec(sysspec.trig_encode(spec), spec, shifts)
    x0 = _read_init(args.init)
    w_star = {w: distmoments.mean(d) for w, d in spec.distributions.items()}
    lin = oracle.linearize(spec, x0, w_star, dt=args.dt)
    mu0 = np.array([float(x0[v]) for v in spec.state_vars])
    pred = oracle.linear_propagate(lin, mu0, np.zeros((len(mu0), len(mu0))), model, args.steps)
    meta = _metadata(args, steps=str(args.steps), dt=str(args.dt))
    _write_atomic(args.output, _lin_csv(pred, meta))
    return EXIT_OK


def _lin_prediction(header: Sequence[str], values: np.ndarray) -> oracle.LinearPrediction:
    """The linearized prediction written by `linearize` (see _lin_csv)."""
    cols = {name: j for j, name in enumerate(header)}
    names = tuple(name[3:] for name in header if name.startswith("mu_"))
    if not names:
        raise ValueError("linearized table has no 'mu_*' columns")
    covs = np.empty((values.shape[0], len(names), len(names)))
    for i, a in enumerate(names):
        for j in range(i, len(names)):
            key = f"sigma_{a}_{names[j]}"
            if key not in cols:
                raise ValueError(f"linearized table has no {key!r} column")
            covs[:, i, j] = covs[:, j, i] = values[:, cols[key]]
    means = np.stack([values[:, cols[f"mu_{v}"]] for v in names], axis=1)
    return oracle.LinearPrediction(names, means, covs)


def _cmd_compare(args) -> int:
    _, ex_header, ex_values = _read_csv(args.exact)
    _, mc_header, mc_values = _read_csv(args.mc)
    if ex_header[0] != "t" or mc_header[0] != "t":
        raise ValueError("trajectory CSVs must start with a 't' column")
    names = ex_header[1:]
    mc_cols = {name: j for j, name in enumerate(mc_header)}
    missing = [n for n in names if n not in mc_cols or f"{n}_se" not in mc_cols]
    kept = [n for n in names if n not in missing]
    if not kept:
        raise ValueError("no common moments between the exact and MC tables")
    if ex_values.shape[0] != mc_values.shape[0]:
        raise ValueError(
            f"horizon mismatch: exact has {ex_values.shape[0]} rows, MC has {mc_values.shape[0]}"
        )
    exact_tbl = np.stack([ex_values[:, ex_header.index(n)] for n in kept], axis=1)
    mc_means = np.stack([mc_values[:, mc_cols[n]] for n in kept], axis=1)
    mc_ses = np.stack([mc_values[:, mc_cols[f"{n}_se"]] for n in kept], axis=1)
    lin_map = None
    if args.linearized:
        _, lin_header, lin_values = _read_csv(args.linearized)
        if lin_values.shape[0] != ex_values.shape[0]:
            raise ValueError("horizon mismatch between exact and linearized tables")
        pred = _lin_prediction(lin_header, lin_values)
        moments = {}
        for name in kept:
            try:
                moments[name] = sysspec.parse_monomial(name, pred.state_vars)
            except SpecError:
                continue  # a variable the linear model does not track
        lin_map = oracle.linear_series(pred, pred.state_vars, moments)
    report = oracle.compare_tables(kept, exact_tbl, mc_means, mc_ses, lin_map)
    _write_atomic(args.output, report.to_csv(_metadata(args)))
    if args.plot_data:
        _write_atomic(args.plot_data, report.plot_data_csv())
    worst = max((abs(r.z_exact) for r in report.rows), default=0.0)
    print(f"max |z| exact vs MC: {worst:.3f}; flagged rows: {len(report.flagged)}", file=sys.stderr)
    return EXIT_OK


def _cmd_plan(args) -> int:
    spec = _parse_spec_file(args.spec)
    if not spec.distributions:
        raise SpecError("spec declares no 'dist' lines for the disturbances")
    system = sysspec.trig_encode(spec)
    msys = compiler.compile_moment_system(system, _target_moments(system))
    env = planner.parse_environment(_read_text(args.env))
    config = planner.PlannerConfig(
        speed=args.speed,
        turn_radius=args.turn_radius,
        max_edge_steps=args.max_edge_steps,
    )
    result = planner.build_rrt(
        env,
        msys,
        spec.distributions,
        epsilon=args.eps,
        iterations=args.iterations,
        seed=args.seed,
        config=config,
    )
    meta = _metadata(
        args,
        seed=str(args.seed),
        eps=str(args.eps),
        iterations=str(args.iterations),
        speed=str(args.speed),
        turn_radius=str(args.turn_radius),
        nodes=str(len(result.nodes)),
    )
    if args.tree:
        _write_atomic(args.tree, planner.tree_to_csv(result))
    if not result.found:
        print("no plan found within the iteration budget", file=sys.stderr)
        return EXIT_NO_PLAN
    _write_atomic(args.output, planner.plan_to_csv(result, meta))
    goal = result.nodes[result.goal_node]
    print(
        f"plan with {len(result.path_indices())} nodes, risk bound {goal.risk_to_node:.4g}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentprop",
        description="Exact moment propagation for stochastic trigonometric-polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a system spec into moment equations")
    p.add_argument("spec")
    p.add_argument("--unreduced", action="store_true", help="skip independence factorization")
    p.add_argument("-o", "--output", required=True, help="compiled-system file")
    p.add_argument("--listing", help="write the equation listing here instead of stdout")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("propagate", help="evaluate a compiled system over a horizon")
    p.add_argument("compiled")
    p.add_argument("--init", required=True, help="CSV with one row of initial state values")
    p.add_argument("--dist", required=True, help="spec file providing 'dist' declarations")
    p.add_argument("-T", "--steps", type=int, required=True)
    p.add_argument("--shifts", help="CSV of per-step control shifts, one column per disturbance")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_propagate)

    p = sub.add_parser("mc", help="Monte Carlo moments of the original system")
    p.add_argument("spec")
    p.add_argument("--init", required=True)
    p.add_argument("-T", "--steps", type=int, required=True)
    p.add_argument("-N", "--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shifts")
    p.add_argument("--batch-size", type=int, default=100_000)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("linearize", help="first-order mean/covariance baseline")
    p.add_argument("spec")
    p.add_argument("--init", required=True)
    p.add_argument("-T", "--steps", type=int, required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--shifts")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_linearize)

    p = sub.add_parser("compare", help="z-score table: exact vs MC (vs linearized)")
    p.add_argument("exact")
    p.add_argument("mc")
    p.add_argument("linearized", nargs="?", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--plot-data", help="also write per-moment series for plotting")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("plan", help="risk-bounded RRT over the stochastic system")
    p.add_argument("spec")
    p.add_argument("--env", required=True, help="environment file")
    p.add_argument("--eps", type=float, required=True, help="chance constraint in (0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--speed", type=float, default=0.05)
    p.add_argument("--turn-radius", type=float, default=0.3)
    p.add_argument("--max-edge-steps", type=int, default=40)
    p.add_argument("--tree", help="also dump the full tree as an edge list")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_plan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, FileNotFoundError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PropagationError, BasisExplosionError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
