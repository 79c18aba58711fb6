"""momentprop benchmark: one workload per run, a closed loop with one caller.

Run from a momentprop checkout:

    python3 perfbench/run.py --workload horizon --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` runs the same ops
with the same seed, first plainly and then traced, and reports the
per-layer metrics.  Every op's output is checked against an independent
reference.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Full results (and, when traced, the spans) are written to
`.bench_out/` at the root of the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: pinned before numpy is first imported.
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
from fractions import Fraction  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("horizon", "planner", "validate", "compile")
WARMUP_OP = -1  # input index of the untimed warm-up op
SETUP_REPEATS = 3  # set-ups measured per run: this process plus fresh ones

# End-to-end metrics, reported by every workload.
E2E = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Workload-specific names for the op latency metrics (name: metric, scale).
ALIASES = {
    "horizon": {"call_p50_ms": ("op_p50_ms", 1.0), "call_tail_ms": ("op_tail_ms", 1.0)},
    "planner": {"plan_p50_s": ("op_p50_ms", 1e-3), "plan_tail_s": ("op_tail_ms", 1e-3)},
    "validate": {"pipeline_p50_s": ("op_p50_ms", 1e-3), "pipeline_tail_s": ("op_tail_ms", 1e-3)},
    "compile": {"ladder_p50_s": ("op_p50_ms", 1e-3), "ladder_tail_s": ("op_tail_ms", 1e-3)},
}

REF_OP_SECONDS = 0.4  # one more reference pass per this much op time
REF_MAX_PASSES = 4
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it
CRITERION_4_STEPS = 100_000  # acceptance criterion 4: steps per 100 ms


def import_workloads():
    """Import momentprop from this checkout's src/ (never an installed copy)."""
    package = SRC / "momentprop"
    sys.path.insert(0, str(SRC))
    import momentprop

    if Path(momentprop.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported momentprop from {momentprop.__file__}, not {package}")
    import workloads

    return workloads


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples above it, but not below the median."""
    s = sorted(samples)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(s), (f"p50 of {n}: with at most {2 * TAIL_BEYOND} samples "
                                      f"no higher percentile has {TAIL_BEYOND} above it")
    return s[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f} of {n}, {TAIL_BEYOND} samples above"


class Loop:
    """Results of one closed loop: per-op latency, failures and per-op counts."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []  # host slowdown before op i (and one after the last op)
        self.ref_parts: list[dict[str, float]] = []  # every reference pass, for inspection
        self.failures: dict[int, list[str]] = {}
        self.counts: dict[int, dict[str, float]] = {}

    def normalized(self) -> list[float]:
        """Op times rescaled to nominal speed by the slowdowns measured on either side."""
        return [t * 2 / (a + b) for t, a, b in zip(self.times, self.refs, self.refs[1:])]


_REF_LIST = [float(k) for k in range(1024)]


def _ref_interp():  # interpreter loop over floats, as in the pure-Python kernel
    acc = 0.0
    for k in range(84_000):
        acc += _REF_LIST[k & 1023] * 1.0000001


def _ref_scalar():  # numpy scalar reads and writes, as in the kernel's table access
    import numpy as np

    b = np.linspace(0.0, 1.0, 64)
    for k in range(14_000):
        b[k & 63] = b[(k + 1) & 63] * 0.5


def _ref_vector():  # vector arithmetic, as in Monte Carlo rollouts
    import numpy as np

    a = np.linspace(0.0, 1.0, 50_000)
    for _ in range(84):
        a = a * 1.0000001 + 1e-9


def _ref_dict():  # dict traffic, as in basis bookkeeping
    counts: dict[int, int] = {}
    for k in range(28_000):
        counts[k & 255] = counts.get((k * 7) & 255, 0) + 1


def _ref_fraction():  # exact rationals, as in the compiler
    x = Fraction(1, 3)
    for k in range(170):
        x = (x * Fraction(7, 5) + Fraction(1, k + 1)) % 1000


# The parts of the reference pass, with the seconds each takes at nominal
# speed (about the median on a 2-vCPU Intel Xeon virtual machine).
REF_PARTS = {
    "interp": (_ref_interp, 0.0075),
    "scalar": (_ref_scalar, 0.0050),
    "vector": (_ref_vector, 0.0035),
    "dict": (_ref_dict, 0.0050),
    "fraction": (_ref_fraction, 0.0024),
}


def reference_pass() -> dict[str, float]:
    """Seconds taken by each part of a fixed CPU-bound mix shaped like momentprop's work.

    The host's speed drifts by tens of percent between runs and within them
    (other tenants share its cores), and these parts slow down with it.
    Dividing op times by the slowdown measured around them cancels most of
    that drift.  The mix does not call momentprop, so a faster program
    never makes the pass faster.
    """
    parts = {}
    for name, (run_part, _) in REF_PARTS.items():
        start = time.perf_counter()
        run_part()
        parts[name] = time.perf_counter() - start
    return parts


def slowdown(passes: int, log: list) -> float:
    """Median over `passes` reference passes of the mean part time relative to nominal."""
    factors = []
    for _ in range(passes):
        parts = reference_pass()
        log.append(parts)
        factors.append(statistics.fmean(parts[p] / nominal for p, (_, nominal) in REF_PARTS.items()))
    return statistics.median(factors)


def run_loop(wl, seconds: float, min_ops: int, tracer=None) -> Loop:
    """Start op i+1 only when op i has returned, until `seconds` have passed.

    Before each op the loop takes the median of a few reference passes: one
    more per REF_OP_SECONDS of the previous op, since a single short pass is
    a noisy snapshot next to a long op.
    """
    loop = Loop()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    passes = 1
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        inp = wl.inputs(i)
        loop.refs.append(slowdown(passes, loop.ref_parts))
        if tracer:
            tracer.op = i
        out, problems = None, []
        t = time.perf_counter()
        try:
            with span("op"):
                out = wl.op(inp)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            problems = [f"op raised {type(exc).__name__}: {exc}"]
        loop.times.append(time.perf_counter() - t)
        passes = min(REF_MAX_PASSES, 1 + int(loop.times[-1] / REF_OP_SECONDS))
        if tracer:
            tracer.op = "check"
        if out is not None:
            try:
                problems, loop.counts[i] = wl.check(inp, out)
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            loop.failures[i] = problems
        i += 1
    loop.refs.append(slowdown(passes, loop.ref_parts))
    return loop


def final_check(wl) -> list[str]:
    try:
        return wl.final_check()
    except Exception as exc:  # a once-per-run check that cannot run has failed
        return [f"once-per-run check raised {type(exc).__name__}: {exc}"]


def fresh_setup(args) -> tuple[float, float]:
    """(wall, nominal) set-up seconds measured in a new interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def metadata(seed: int) -> dict:
    import numpy
    from momentprop import _kernels

    sources = sorted((SRC / "momentprop").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "kernel_backend": "numba" if _kernels.HAVE_NUMBA else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "blas_pin": BLAS_PIN,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="momentprop benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time of the op loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentprop" / "__init__.py").is_file():
        raise SystemExit(f"error: no momentprop package under {SRC}; run from a momentprop checkout")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    t0 = time.perf_counter()
    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.op = "setup"
        wl.span = tracer.span
        tracer.install()
    wl.setup()
    wl.op(wl.inputs(WARMUP_OP))
    setup_wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    setup = (setup_wall, setup_wall / slowdown(REF_MAX_PASSES, []))
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    report: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                    "reference_nominal_s": {p: nominal for p, (_, nominal) in REF_PARTS.items()},
                    "metadata": metadata(args.seed)}
    if not args.trace:
        loop = run_loop(wl, args.seconds, min_ops=1)
        rss = peak_rss_mb()
        final = final_check(wl)
        setups = [setup] + [fresh_setup(args) for _ in range(SETUP_REPEATS - 1)]
        values, wall = {}, {}
        for out, times, setup_s in ((values, loop.normalized(), [n for _, n in setups]),
                                    (wall, loop.times, [w for w, _ in setups])):
            op_tail, tail_label = tail(times)
            out.update(op_p50_ms=statistics.median(times) * 1e3, op_tail_ms=op_tail * 1e3,
                       ops_per_s=len(times) / sum(times), peak_rss_mb=rss,
                       setup_s=statistics.median(setup_s))
        units = E2E
        notes = {"op_tail_ms": tail_label, "setup_s": f"median of {SETUP_REPEATS} set-ups in fresh processes"}
        extra = {alias: wall[metric] * scale for alias, (metric, scale) in ALIASES[args.workload].items()}
        extra["fail_ratio"] = len(loop.failures) / len(loop.times)
        if args.workload == "horizon":
            extra["steps_per_s"] = wl.STEPS * wall["ops_per_s"]
            extra["criterion_4.steps_per_100ms"] = extra["steps_per_s"] / 10
        if args.workload == "planner":
            extra["found_ratio"] = sum(c.get("found", 0.0) for c in loop.counts.values()) / len(loop.times)
        if args.workload == "validate":
            extra["report_constant_flags_per_op"] = (
                sum(c.get("constant_flagged_rows", 0.0) for c in loop.counts.values()) / len(loop.times))
        extra["host_slowdown"] = statistics.median(loop.refs)
        report.update(wall_clock=wall, op_times_s=loop.times, slowdowns=loop.refs,
                      reference_parts_s=loop.ref_parts, setup_samples_s=setups)
    else:
        plain = run_loop(wl, args.seconds / 2, min_ops=wl.COUNT_OPS)
        tracer.install()
        try:
            loop = run_loop(wl, args.seconds / 2, min_ops=wl.COUNT_OPS, tracer=tracer)
            tracer.op = "check"
            final = final_check(wl)
        finally:
            tracer.uninstall()
        values, extra = spans.layer_metrics(tracer.spans, wl.COUNT_OPS, loop.counts)
        common = min(len(plain.times), len(loop.times))
        values["trace.overhead_ratio"] = sum(loop.normalized()[:common]) / sum(plain.normalized()[:common])
        units = spans.PER_LAYER
        notes = wall = {}
        report.update(untraced_op_times_s=plain.times, traced_op_times_s=loop.times,
                      untraced_failures=plain.failures, missing_trace_targets=tracer.missing)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")

    loops = [plain, loop] if args.trace else [loop]
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(len(lp.failures) for lp in loops)
    correct = failed == 0 and not final
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report.update(metrics=metrics, workload_metrics=extra, notes=notes, attempted=attempted, failed=failed,
                  failures=dict(list(loop.failures.items())[:20]), final_check_failures=final)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# momentprop benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in report["metadata"].items() if k != "blas_pin")
          + " blas_pin=" + ",".join(f"{k}={v}" for k, v in BLAS_PIN.items()))
    if wall:
        print(f"{'metric':40s} {'nominal':>14s} {'unit':5s} {'wall clock':>14s}  "
              "(nominal = rescaled by the host slowdown that the reference passes measure)")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        measured = f" {wall[name]:14.6g}" if name in wall else ""
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:5s}{measured}{note}")
    for name, value in extra.items():
        print(f"{name:40s} {value:14.6g}")
    if args.workload == "horizon" and not args.trace:
        print(f"criterion 4: {extra['criterion_4.steps_per_100ms']:.0f} steps of the 20-moment system "
              f"per 100 ms (target {CRITERION_4_STEPS}; not gated)")
    print(f"checks: {attempted} ops attempted, {failed} failed"
          + (f"; once-per-run check failed: {final}" if final else ""))
    for i, problems in list(loop.failures.items())[:3]:
        print(f"  op {i}: {problems[0]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
