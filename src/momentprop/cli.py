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
from typing import Mapping, Sequence

import numpy as np

from . import __version__, compiler, distmoments, oracle, planner, propagator, sysspec, tables
from .compiler import BasisExplosionError
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


def _read_csv(path: str) -> tuple[list[str], np.ndarray, list[tuple[int, list[str]]]]:
    """Read a CSV's `tables.text_lines`; returns (header, values, rows).

    `values` has one row per data line and one column per header name, and
    `rows` each data line's number and cells, for messages.
    """
    header: list[str] | None = None
    values, rows = [], []
    for line_no, line in tables.text_lines(_read_text(path)):
        cells = line.lstrip().split(",")
        if header is None:
            header = [c.strip() for c in cells]
            if repeated := [name for i, name in enumerate(header) if name in header[:i]]:
                raise ValueError(f"{path}, line {line_no}: column {repeated[0]!r} appears more than once")
            continue
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {line_no}: {len(cells)} values for {len(header)} columns")
        try:
            values.append([float(c) if c else np.nan for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}, line {line_no}: {exc}") from None
        rows.append((line_no, cells))
    if header is None:
        raise ValueError(f"{path}: no CSV header found")
    return header, np.asarray(values, dtype=float).reshape(len(values), len(header)), rows


def _read_columns(path: str) -> dict[str, np.ndarray]:
    """Each column of a CSV of finite numbers (`--shifts`, `--init`); the first other cell is an input error."""
    header, values, rows = _read_csv(path)
    if (bad := np.argwhere(~np.isfinite(values))).size:
        row, col = bad[0]
        line_no, cells = rows[row]
        raise ValueError(f"{path}, line {line_no}, column {col + 1} ({header[col]}): "
                         f"expected a finite number, got {cells[col].strip()!r}")
    return {name: values[:, j] for j, name in enumerate(header)}


def _read_init(path: str) -> dict[str, float]:
    columns = _read_columns(path)
    if any(len(column) != 1 for column in columns.values()):
        raise ValueError(f"{path}: initial-state CSV needs exactly one data row")
    return {name: float(column[0]) for name, column in columns.items()}


def _metadata(args: argparse.Namespace, **extra: str) -> dict[str, str]:
    return {"tool": f"momentprop {__version__}", "command": args.command, **extra}


def _compiled(path: str, reduced: bool = True) -> tuple:
    """(spec, trig-encoded system, compiled moment system) of a spec file, after its independence warnings."""
    spec = sysspec.parse_spec(_read_text(path))
    system = sysspec.trig_encode(spec)
    for warning in sysspec.validate_independence(spec):
        print(f"warning: {warning}", file=sys.stderr)
    if not system.target_moments:
        raise SpecError("spec declares no 'moments' line to seed the compilation")
    return spec, system, compiler.compile_moment_system(system, system.target_moments, reduced=reduced)


def _model(system, spec: sysspec.SystemSpec, shifts: str | None) -> distmoments.DisturbanceModel:
    """The spec's disturbance model over `system`'s layout, on the `--shifts` schedule when one is given."""
    return distmoments.DisturbanceModel(system, spec.distributions, _read_columns(shifts) if shifts else None)


def _cmd_compile(args) -> int:
    _, _, msys = _compiled(args.spec, reduced=not args.unreduced)
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


def _cmd_propagate(args) -> int:
    msys = compiler.load(args.compiled)
    model = _model(msys, sysspec.parse_spec(_read_text(args.dist)), args.shifts)
    init = propagator.init_deterministic(msys, _read_init(args.init))
    traj = propagator.propagate(msys, init, model, args.steps)
    meta = _metadata(args, steps=str(args.steps), compiled=args.compiled)
    _write_atomic(args.output, propagator.trajectory_to_csv(traj, meta))
    return EXIT_OK


def _mc_csv(mc: oracle.McEstimate, meta: Mapping[str, str]) -> str:
    header = ["t", *(col for name in mc.names for col in (name, f"{name}_se"))]
    cells = np.stack([mc.means, mc.ses], axis=2).reshape(mc.n_steps + 1, -1)  # each mean, then its SE
    rows = ([t, *row] for t, row in enumerate(cells))
    return tables.csv_text(header, rows, {**meta, "n_samples": mc.n_samples})


def _cmd_mc(args) -> int:
    spec, system, msys = _compiled(args.spec)
    mc = oracle.mc_simulate(
        spec,
        system,
        _model(msys, spec, args.shifts),
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
    upper = [(i, j) for i in range(len(names)) for j in range(i, len(names))]
    header = ["t"] + [f"mu_{v}" for v in names] + [f"sigma_{names[i]}_{names[j]}" for i, j in upper]
    rows = [[t, *pred.means[t], *(pred.covs[t, i, j] for i, j in upper)] for t in range(pred.n_steps + 1)]
    return tables.csv_text(header, rows, meta)


def _cmd_linearize(args) -> int:
    spec = sysspec.parse_spec(_read_text(args.spec))
    model = _model(sysspec.trig_encode(spec), spec, args.shifts)
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
    ex_header, ex_values, _ = _read_csv(args.exact)
    mc_header, mc_values, _ = _read_csv(args.mc)
    for path, header in (args.exact, ex_header), (args.mc, mc_header):
        if header[0] != "t":
            raise ValueError(f"{path}: trajectory CSVs must start with a 't' column")
    # The MC table (see _mc_csv) holds each moment's mean and then its standard error, `<name>_se`.
    mc_cols = {name: j for j, name in enumerate(mc_header)}
    mc_names = [name for name in mc_header[1:] if name + "_se" in mc_cols]
    mc_means, mc_ses = (mc_values[:, [mc_cols[name + suffix] for name in mc_names]] for suffix in ("", "_se"))
    lin = None
    if args.linearized:
        lin_header, lin_values, _ = _read_csv(args.linearized)
        try:
            lin = _lin_prediction(lin_header, lin_values)
        except ValueError as exc:
            raise ValueError(f"{args.linearized}: {exc}") from None
    report = oracle.compare_columns(ex_header[1:], ex_values[:, 1:], mc_names, mc_means, mc_ses, lin)
    _write_atomic(args.output, report.to_csv(_metadata(args)))
    if args.plot_data:
        _write_atomic(args.plot_data, report.plot_data_csv())
    print(f"max |z| exact vs MC: {report.max_abs_z_exact:.3f}; flagged rows: {len(report.flagged)}", file=sys.stderr)
    return EXIT_OK


def _cmd_plan(args) -> int:
    spec, _, msys = _compiled(args.spec)
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
    options = ("seed", "eps", "iterations", "speed", "turn_radius")
    meta = _metadata(args, **{name: str(getattr(args, name)) for name in options}, nodes=str(len(result.nodes)))
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


def _seed(text: str) -> int:
    """A --seed value: numpy seeds only with nonnegative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--shifts")
    p.add_argument("--batch-size", type=int, default=oracle.BATCH_SIZE)
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--speed", type=float, default=planner.PlannerConfig.speed)
    p.add_argument("--turn-radius", type=float, default=planner.PlannerConfig.turn_radius)
    p.add_argument("--max-edge-steps", type=int, default=planner.PlannerConfig.max_edge_steps)
    p.add_argument("--tree", help="also dump the full tree as an edge list")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_plan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, OSError, ValueError, KeyError, IndexError) as exc:
        # str() of a KeyError is the repr of its message; print the message itself.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PropagationError, BasisExplosionError, ArithmeticError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
