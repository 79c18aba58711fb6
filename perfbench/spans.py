"""Spans around the library's layer functions, and the per-layer metrics derived from them.

Tracing is done from outside `src/`: for the traced phase of a run, each
function in TARGETS is replaced by a recording wrapper on the module or
class attribute that its callers look it up on (a module that imported a
function by name gets its own entry).  Spans are kept in memory as
[name, start, end, parent, op, info] and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time


def _term_steps(args, kwargs, result):
    table, target = args[1], args[2]
    return {"term_steps": int(table.shape[0]) * int(target.shape[0])}


def _compiled(args, kwargs, result):
    return {"basis": len(result.basis), "terms": sum(len(f.terms) for f in result.forms)}


def _sample_steps(args, kwargs, result):
    return {"sample_steps": int(result.n_steps) * int(result.n_samples)}


# (module, attribute, span name, fold recursive calls, info from the call)
TARGETS = (
    ("momentprop.sysspec", "parse_spec", "sysspec.parse_spec", False, None),
    ("momentprop.sysspec", "trig_encode", "sysspec.trig_encode", False, None),
    ("momentprop.sysspec", "evaluate", "sysspec.evaluate", True, None),
    ("momentprop.compiler", "compile_moment_system", "compiler.compile_moment_system", False, _compiled),
    ("momentprop.compiler", "dumps", "compiler.dumps", False, None),
    ("momentprop.compiler", "loads", "compiler.loads", False, None),
    ("momentprop.distmoments", "DisturbanceModel.moment_table", "distmoments.moment_table", False, None),
    ("momentprop.distmoments", "sample", "distmoments.sample", False, None),
    ("momentprop.propagator", "propagate", "propagator.propagate", False, None),
    ("momentprop.planner", "propagate", "propagator.propagate", False, None),
    ("momentprop._kernels", "run_steps", "propagator.run_steps", False, _term_steps),
    ("momentprop.oracle", "mc_simulate", "oracle.mc_simulate", False, _sample_steps),
    ("momentprop.planner", "build_rrt", "planner.build_rrt", False, None),
    ("momentprop.planner", "dubins_steer", "planner.dubins_steer", False, None),
    ("momentprop.planner", "stochastic_steer", "planner.stochastic_steer", False, None),
    ("momentprop.planner", "trajectory_risk", "planner.trajectory_risk", False, None),
    # File and text I/O of the CLI: .msys and CSV reading, writing and formatting.
    ("momentprop.cli", "_read_text", "io.read_text", False, None),
    ("momentprop.cli", "_read_csv", "io.read_csv", False, None),
    ("momentprop.cli", "_write_atomic", "io.write_atomic", False, None),
    ("momentprop.cli", "_mc_csv", "io.mc_csv", False, None),
    ("momentprop.cli", "_lin_csv", "io.lin_csv", False, None),
    ("momentprop.compiler", "load", "io.load_msys", False, None),
    ("momentprop.propagator", "trajectory_to_csv", "io.trajectory_csv", False, None),
    ("momentprop.oracle", "ComparisonReport.to_csv", "io.report_csv", False, None),
)

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # op index, or "setup" / "check"
        self.missing: list[str] = []
        self._open: list[int] = []
        self._folding: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _start(self, name: str, info=None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, info])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        i = self._start(name, info)
        try:
            yield self.spans[i]
        finally:
            self._end(i)

    def _wrap(self, fn, name: str, fold: bool, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in tracer._folding:
                return fn(*args, **kwargs)
            i = tracer._start(name)
            if fold:
                tracer._folding.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._folding.discard(name)
                tracer._end(i)
            if info is not None:
                tracer.spans[i][INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, fold, info in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, fold, info))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "info"), s))) + "\n")


# Per-layer metrics reported in the traced run's result line, with units.
# Times are measured on every workload (set-up included); shares and counts
# read 0 where a workload's ops never reach that layer.
PER_LAYER = {
    "propagator.kernel_ns_per_term_step": "ns",
    "propagator.kernel_share": "ratio",
    "propagator.kernel_term_steps": "count",
    "propagator.propagate_overhead_us": "us",
    "propagator.propagate_calls": "count",
    "distmoments.moment_table_us": "us",
    "distmoments.moment_table_share": "ratio",
    "distmoments.sample_share": "ratio",
    "planner.build_rrt_self_share": "ratio",
    "planner.dubins_steer_share": "ratio",
    "planner.stochastic_steer_share": "ratio",
    "planner.trajectory_risk_share": "ratio",
    "planner.edges_attempted": "count",
    "planner.edges_accepted": "count",
    "planner.edge_accept_ratio": "ratio",
    "planner.found_ratio": "ratio",
    "oracle.mc_self_share": "ratio",
    "oracle.flagged_rows": "count",
    "sysspec.evaluate_share": "ratio",
    "sysspec.parse_spec_ms": "ms",
    "sysspec.trig_encode_ms": "ms",
    "compiler.compile_ms.k2": "ms",
    "compiler.basis_size.k2": "count",
    "compiler.basis_size.k3": "count",
    "compiler.basis_size.k4": "count",
    "compiler.basis_size.k5": "count",
    "compiler.terms.k2": "count",
    "compiler.terms.k3": "count",
    "compiler.terms.k4": "count",
    "compiler.terms.k5": "count",
    "cli.io_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _self_times(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _ancestor(spans, i: int, prefix: str) -> str | None:
    """Rest of the name of the nearest enclosing span whose name starts with `prefix`."""
    while i >= 0:
        if spans[i][NAME].startswith(prefix):
            return spans[i][NAME][len(prefix):]
        i = spans[i][PARENT]
    return None


def _rung(spans, i: int) -> int | None:
    k = _ancestor(spans, i, "bench.rung.k")
    return None if k is None else int(k)


def layer_metrics(spans, count_ops: int, op_counts: dict[int, dict[str, float]]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced phase.

    Shares and per-call times use every traced op; counts use the first
    `count_ops` ops only, so they are exact for a given seed.  `op_counts`
    holds the exact per-op counts that the workload's check read off each
    result.  Returns (the PER_LAYER metrics, further ones printed only).
    """
    selfs = _self_times(spans)
    in_op = [isinstance(s[OP], int) for s in spans]
    counted = [in_op[i] and spans[i][OP] < count_ops for i in range(len(spans))]
    op_time = sum(s[END] - s[START] for s, o in zip(spans, in_op) if o and s[NAME] == "op")

    def select(name, where=in_op):
        return [i for i, s in enumerate(spans) if s[NAME] == name and where[i]]

    def share(*names):
        return sum(selfs[i] for n in names for i in select(n)) / op_time

    def per_call(name, scale, use_self=False):
        idx = select(name)
        if not idx:
            return 0.0
        total = sum(selfs[i] if use_self else spans[i][END] - spans[i][START] for i in idx)
        return total / len(idx) * scale

    def median_ms(idx):
        return statistics.median(spans[i][END] - spans[i][START] for i in idx) * 1e3 if idx else 0.0

    def kernel_ns(idx):
        steps = sum(spans[i][INFO]["term_steps"] for i in idx)
        return sum(spans[i][END] - spans[i][START] for i in idx) / steps * 1e9 if steps else 0.0

    def per_op_count(values):
        return sum(values) / count_ops

    def result_count(key):
        return per_op_count(c.get(key, 0.0) for op, c in op_counts.items() if op < count_ops)

    not_check = [s[OP] != "check" for s in spans]
    kernel = select("propagator.run_steps")
    compiles = select("compiler.compile_moment_system", not_check)
    by_rung: dict[int, list[int]] = {}
    for i in compiles:
        by_rung.setdefault(_rung(spans, i) or 2, []).append(i)
    attempted = len(select("planner.stochastic_steer", counted))
    accepted = result_count("edges_accepted")

    m = {
        "propagator.kernel_ns_per_term_step": kernel_ns(kernel),
        "propagator.kernel_share": share("propagator.run_steps"),
        "propagator.kernel_term_steps": per_op_count(
            spans[i][INFO]["term_steps"] for i in select("propagator.run_steps", counted)
        ),
        "propagator.propagate_overhead_us": per_call("propagator.propagate", 1e6, use_self=True),
        "propagator.propagate_calls": per_op_count(1 for _ in select("propagator.propagate", counted)),
        "distmoments.moment_table_us": per_call("distmoments.moment_table", 1e6),
        "distmoments.moment_table_share": share("distmoments.moment_table"),
        "distmoments.sample_share": share("distmoments.sample"),
        "planner.build_rrt_self_share": share("planner.build_rrt"),
        "planner.dubins_steer_share": share("planner.dubins_steer"),
        "planner.stochastic_steer_share": share("planner.stochastic_steer"),
        "planner.trajectory_risk_share": share("planner.trajectory_risk"),
        "planner.edges_attempted": attempted / count_ops,
        "planner.edges_accepted": accepted,
        "planner.edge_accept_ratio": accepted * count_ops / attempted if attempted else 0.0,
        "planner.found_ratio": result_count("found"),
        "oracle.mc_self_share": share("oracle.mc_simulate"),
        "oracle.flagged_rows": result_count("flagged_rows"),
        "sysspec.evaluate_share": share("sysspec.evaluate"),
        "sysspec.parse_spec_ms": median_ms(select("sysspec.parse_spec", not_check)),
        "sysspec.trig_encode_ms": median_ms(select("sysspec.trig_encode", not_check)),
        "compiler.compile_ms.k2": median_ms(by_rung.get(2, [])),
        "cli.io_share": share(*{t[2] for t in TARGETS if t[2].startswith("io.")}),
    }
    first = op_counts.get(0, {})
    for k in (2, 3, 4, 5):
        m[f"compiler.basis_size.k{k}"] = first.get(f"basis_size.k{k}", 0.0)
        m[f"compiler.terms.k{k}"] = first.get(f"terms.k{k}", 0.0)
    if not m["compiler.basis_size.k2"] and compiles:
        m["compiler.basis_size.k2"] = float(spans[compiles[0]][INFO]["basis"])
        m["compiler.terms.k2"] = float(spans[compiles[0]][INFO]["terms"])

    # Layer numbers that only some workloads produce: printed and written
    # to the result file, but not part of the result line.
    extra = {}
    for k in (3, 4, 5):
        if k in by_rung:
            extra[f"compiler.compile_ms.k{k}"] = median_ms(by_rung[k])
    for name in ("compiler.dumps", "compiler.loads"):
        if select(name):
            extra[name + "_ms"] = median_ms(select(name))
    for command in ("compile", "propagate", "mc", "linearize", "compare"):
        idx = select(f"cli.{command}")
        if idx:
            key = "cli.mc_s" if command == "mc" else f"cli.{command}_ms"
            extra[key] = median_ms(idx) / (1e3 if command == "mc" else 1.0)
    mc = select("oracle.mc_simulate")
    if mc:
        extra["oracle.mc_sample_steps_per_s"] = sum(spans[i][INFO]["sample_steps"] for i in mc) / sum(
            spans[i][END] - spans[i][START] for i in mc
        )
    k5 = [i for i in kernel if _rung(spans, i) == 5]
    if k5:
        extra["propagator.kernel_ns_per_term_step.k5"] = kernel_ns(k5)
    unreduced = [
        i for i, s in enumerate(spans)
        if s[NAME] == "propagator.run_steps" and _ancestor(spans, i, "bench.unreduced") is not None
    ]
    if unreduced:
        extra["propagator.kernel_ns_per_term_step.unreduced"] = kernel_ns(unreduced)
    return m, extra
