"""Compiled inner loops: the propagation horizon, the planner's risk bound, geometry and noise moments, and MC moments.

Per-step Python/numpy dispatch overhead alone would dwarf the
sub-microsecond step budget of small compiled systems, and numpy calls on
arrays of a few dozen entries would dwarf the arithmetic of each candidate
edge, so these run compiled.  One CPython extension module, built from
``_kernels.c`` next to this file, has six entry points, which read the
arrays through the buffer protocol.  On first use the module is built with
the system C compiler (``cc`` or ``gcc``, about 0.7 s, once) and the Python
headers (``Python.h``, from ``python3-dev`` or the like) into
``$XDG_CACHE_HOME/momentprop`` (default ``~/.cache/momentprop``), named
``run_steps-<hash><EXT_SUFFIX>``: the hash covers the source, the flags, the
machine and the ABI tag, so each interpreter loads only its own build, and a
changed source is built once per cache.  If that directory cannot be
written, the module is built and loaded from a temporary directory instead.
Superseded ``run_steps-*`` files are never removed, since another checkout
or interpreter may still load them; they are safe to delete.  Without a
compiler or the headers, or if the build fails, the first use raises one
OSError that names the cause.

The entry points (the README's kernel table gives each one's cost per
call); each matches its reference in the tests' ``reference`` module bit
for bit:

- `run_steps`: the moment recursion over a horizon.
- `risk_bound`: the planner's per-edge risk bound.
- `dubins_steer`: the shortest Dubins word between two poses and its
  per-step heading increments.
- `grow_tree`: the planner's whole risk-bounded tree: per sample, the
  nearest node, the Dubins controls, and the moment recursion with each
  step's disturbance moments (`DisturbanceModel.steering_plan`) and risk
  bound, stopped where the bound passes the chance constraint.  A step's
  disturbance moments depend only on its heading increment, so each
  distinct increment's row is built once per call and copied after that
  (straight steps are all 0.0 and arc steps repeat bit for bit).
- `trig_moments`: the trigonometric moments of a Gaussian, degenerate or
  uniform angle at each step of a shift schedule, written into the
  caller's (steps, pairs) view.
- `record_moments`: one Monte Carlo step's sample mean and sum of squared
  deviations of each moment, summed in `np.sum`'s pairwise order.

Two of Python's operations are not the C library's.  Python's float ``%``
is ``fmod`` followed by a sign fix, which the C code repeats.
`math.hypot` is CPython's own algorithm, so the C code calls it: for each
edge's distance, in the one function through which `dubins_steer` and
`grow_tree` steer, and to settle a near tie of `grow_tree`'s libm-``hypot``
nearest-node scores.  Of numpy's operations, complex ``exp`` is the C
library's ``cexp``, which `trig_moments` calls on the same arguments, and
the complex product is fused where the CPU has FMA: `trig_moments` rounds
as it does without an FMA instruction, which is exact only because each
Laurent coefficient is purely real or purely imaginary (see the C source).

`BACKEND` names the backend in use; its one value is ``"c"``.  It and the
six entry points are bound as attributes of this module on first use:
reading any of them builds or loads the module and binds all seven, so each
entry point is the extension module's function itself.  Each one raises
TypeError for an array of another dtype or layout than it reads (see the C
source); the callers in this package pass them as the kernels read them.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import platform
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

# Always False: there is no numba backend.  Kept because the benchmark
# harness (perfbench/run.py) reads it when it labels a run.
HAVE_NUMBA = False

log = logging.getLogger(__name__)

_C_PATH = Path(__file__).with_name("_kernels.c")
# No fused multiply-add: the C loops must round exactly as their references in numpy and Python do.
_C_FLAGS = ("-O2", "-funroll-loops", "-shared", "-fPIC", "-ffp-contract=off")
# No jump across or ending on a 32-byte boundary, so that the kernel's speed does not depend on where its loops fall:
# tried on x86-64 only, where an assembler older than GNU as 2.34 rejects it and the module is built without it.
_ALIGN_FLAGS = ("-Wa,-mbranches-within-32B-boundaries",) if platform.machine().lower() in ("x86_64", "amd64") else ()
_built_flags = None  # the flags of the module loaded last


def _import(path) -> object:
    """The extension module built from _kernels.c at path."""
    loader = importlib.machinery.ExtensionFileLoader("run_steps", str(path))
    return importlib.util.module_from_spec(importlib.util.spec_from_loader("run_steps", loader))


def _build_c(cc: str, lib_path: Path, flags: tuple[str, ...]) -> object:
    """Compile _kernels.c with `flags` and import it.

    The module is cached at lib_path, where it appears atomically.  If that
    directory cannot be written, it is built in a temporary directory instead
    and imported from there before the directory is removed.
    """
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        raise OSError(f"the Python header Python.h is not in {include} (install python3-dev or the like)")
    try:
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        build_dir = tempfile.TemporaryDirectory(dir=lib_path.parent)
    except OSError as exc:
        log.info("cannot write the kernel cache %s (%s); building in a temporary directory", lib_path.parent, exc)
        build_dir, lib_path = tempfile.TemporaryDirectory(prefix="momentprop-"), None
    with build_dir as tmp:
        built = Path(tmp) / "run_steps.so"
        proc = subprocess.run(
            [cc, *flags, "-I", include, "-o", str(built), str(_C_PATH)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            # One line for the error: the first that says "error:" (the first line is often only
            # "In function ..."), else the first; the whole output goes to this module's logger.
            log.info("%s failed with exit status %d:\n%s", cc, proc.returncode, proc.stderr)
            lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
            shown = next((line for line in lines if "error:" in line), lines[0])
            rest = len(lines) - 1
            more = f" (and {rest} more line{'s' * (rest > 1)} in the {log.name} log)" if rest else ""
            raise OSError(f"{cc} failed: {shown}{more}")
        if lib_path is None:
            return _import(built)
        os.replace(built, lib_path)
    log.info("built the C kernel module at %s", lib_path)
    return _import(lib_path)


def _load_c():
    """The extension module built from _kernels.c if not cached, with `_ALIGN_FLAGS` unless the compiler rejects one."""
    global _built_flags
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    suffix, source = sysconfig.get_config_var("EXT_SUFFIX"), _C_PATH.read_bytes()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "momentprop"
    builds = {}  # flags -> cached module path; the hash covers the source, the flags, the machine and the ABI tag
    for flags in (_C_FLAGS + _ALIGN_FLAGS, _C_FLAGS):
        key = hashlib.sha256(b"\0".join((source, *map(str.encode, (*flags, platform.machine(), suffix)))))
        builds[flags] = cache / f"run_steps-{key.hexdigest()[:16]}{suffix}"
    cached = [(flags, path) for flags, path in builds.items() if path.exists()]
    for flags, lib_path in cached[:1] or builds.items():
        try:
            module = _import(lib_path) if cached else _build_c(cc, lib_path, flags)
        except OSError as exc:
            # GNU as says "unrecognized option '-mbranches-...'"; any other failure would fail without the flags too.
            if cached or flags == _C_FLAGS or not any(flag.removeprefix("-Wa,") in str(exc) for flag in _ALIGN_FLAGS):
                raise
            log.info("building with %s failed (%s); building without them", " ".join(_ALIGN_FLAGS), exc)
        else:
            _built_flags = flags
            return module


# The names __getattr__ binds on first use: BACKEND, then the extension module's functions of the same names.
_BOUND = ("BACKEND", "run_steps", "risk_bound", "dubins_steer", "grow_tree", "trig_moments", "record_moments")


def __getattr__(name):
    """Bind BACKEND and the entry points on the first read of any (PEP 562); OSError if the module is unavailable."""
    if name not in _BOUND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        module = _load_c()
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        raise OSError(f"C kernel module unavailable: {exc}") from exc
    globals().update(BACKEND="c", **{entry: getattr(module, entry) for entry in _BOUND[1:]})
    return globals()[name]
