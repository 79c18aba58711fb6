"""Inner propagation loop: one call runs the whole horizon.

Per-step Python/numpy dispatch overhead alone would dwarf the
sub-microsecond step budget of small compiled systems, so the loop runs
compiled.  `run_steps` uses the first of two backends that loads:

- ``"c"``: the loop in C (`_C_SOURCE`).  On first use it is built with the
  system C compiler (``cc`` or ``gcc``, about 0.1 s, once) into a shared
  library in ``$XDG_CACHE_HOME/momentprop`` (default ``~/.cache/momentprop``),
  named by a hash of the source and flags, and loaded with ctypes.
- ``"python"``: `run_steps_python`, about 200 us per step on the 20-moment
  Dubins system.  It is the fallback when no C compiler is found, and the
  reference that the C loop must match bit for bit.

`BACKEND` names the backend in use; reading it, or the first call of
`run_steps`, makes the choice.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

# Always False: there is no numba backend.  Kept because the benchmark
# harness (perfbench/run.py) reads it when it labels a run.
HAVE_NUMBA = False

log = logging.getLogger(__name__)


def run_steps_python(values0, table, target, coeff, req, fact, out):
    """Evaluate the moment recursion for table.shape[0] steps.

    out[t] is the moment state at step t; fact holds per-term factor indices
    padded with -1.  Returns (step, moment index) of the first non-finite
    value, or (-1, -1) on success.
    """
    n = values0.shape[0]
    n_steps = table.shape[0]
    n_terms = target.shape[0]
    max_f = fact.shape[1]
    for j in range(n):
        out[0, j] = values0[j]
    # A non-finite value is reported through the return value, as the C loop
    # does, so numpy's overflow and invalid-value warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_steps):
            for j in range(n):
                out[t + 1, j] = 0.0
            for k in range(n_terms):
                v = coeff[k] * table[t, req[k]]
                for fi in range(max_f):
                    idx = fact[k, fi]
                    if idx >= 0:
                        v *= out[t, idx]
                out[t + 1, target[k]] += v
            for j in range(n):
                if not np.isfinite(out[t + 1, j]):
                    return t + 1, j
    return -1, -1


# The loop of run_steps_python, operation for operation.  Table rows are
# `table_stride` doubles apart, so a stride of 0 serves one row to every step.
# Returns 1 if an index is out of range, else 0 with the first non-finite
# (step, moment) or (-1, -1) in bad.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

int run_steps(int64_t n, int64_t n_steps, int64_t n_terms, int64_t max_f,
              int64_t n_req, const double *values0, const double *table,
              int64_t table_stride, const int64_t *target, const double *coeff,
              const int64_t *req, const int64_t *fact, double *out, int64_t *bad)
{
    for (int64_t k = 0; k < n_terms; k++) {
        if (target[k] < 0 || target[k] >= n || req[k] < 0 || req[k] >= n_req)
            return 1;
        for (int64_t i = 0; i < max_f; i++)
            if (fact[k * max_f + i] < -1 || fact[k * max_f + i] >= n)
                return 1;
    }
    bad[0] = -1;
    bad[1] = -1;
    for (int64_t j = 0; j < n; j++)
        out[j] = values0[j];
    for (int64_t t = 0; t < n_steps; t++) {
        const double *row = table + t * table_stride;
        const double *cur = out + t * n;
        double *next = out + (t + 1) * n;
        for (int64_t j = 0; j < n; j++)
            next[j] = 0.0;
        for (int64_t k = 0; k < n_terms; k++) {
            double v = coeff[k] * row[req[k]];
            const int64_t *f = fact + k * max_f;
            for (int64_t i = 0; i < max_f; i++)
                if (f[i] >= 0)
                    v *= cur[f[i]];
            next[target[k]] += v;
        }
        for (int64_t j = 0; j < n; j++) {
            if (!isfinite(next[j])) {
                bad[0] = t + 1;
                bad[1] = j;
                return 0;
            }
        }
    }
    return 0;
}
"""
# No fused multiply-add: the C loop must round exactly as the Python loop does.
_C_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _build_c(cc: str, lib_path: Path) -> None:
    """Compile _C_SOURCE to lib_path; the finished library appears atomically."""
    lib_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=lib_path.parent) as tmp:
        src = Path(tmp) / "run_steps.c"
        src.write_text(_C_SOURCE)
        built = Path(tmp) / lib_path.name
        proc = subprocess.run(
            [cc, *_C_FLAGS, "-o", str(built), str(src)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            raise OSError(f"{cc} failed: {proc.stderr.strip()}")
        os.replace(built, lib_path)


def _load_c():
    """run_steps backed by the C loop, building the library if not cached."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    key = hashlib.sha256("\0".join((_C_SOURCE, *_C_FLAGS, platform.machine())).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "momentprop"
    lib_path = cache / f"run_steps-{key.hexdigest()[:16]}.so"
    if not lib_path.exists():
        _build_c(cc, lib_path)
        log.info("built the C propagation kernel at %s", lib_path)
    fn = ctypes.CDLL(str(lib_path)).run_steps
    fn.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 6
    fn.restype = ctypes.c_int

    last_terms = [()]  # (arrays passed, checked_terms result) for the last term table that needed no copy

    def checked_terms(*passed):
        """(n_terms, max_f, data pointers, arrays) of the term arrays, made contiguous; checked once
        per table, since the kernel itself range-checks every entry on every call."""
        last = last_terms[0]  # read once: another thread may replace it
        if last and all(a is b for a, b in zip(last[0], passed)):
            return last[1]
        target, coeff, req, fact = arrays = [np.ascontiguousarray(arr, dtype=np.float64 if i == 1 else np.int64)
                                             for i, arr in enumerate(passed)]
        n_terms = target.shape[0]
        if fact.ndim != 2 or (target.shape, coeff.shape, req.shape, fact.shape[0]) != ((n_terms,),) * 3 + (n_terms,):
            raise ValueError("run_steps: target, coeff, req and fact must have one entry per term, fact 2-d")
        checked = (n_terms, fact.shape[1], [arr.ctypes.data for arr in arrays], arrays)
        if all(a is b for a, b in zip(arrays, passed)):
            last_terms[0] = (passed, checked)
        return checked

    def run_steps_c(values0, table, target, coeff, req, fact, out):
        values0 = np.ascontiguousarray(values0, dtype=np.float64)
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2 or values0.ndim != 1:
            raise ValueError("run_steps: table must be 2-d and values0 1-d")
        n_terms, max_f, term_pointers, _ = checked_terms(target, coeff, req, fact)
        if table.strides[0] % 8 or (table.shape[1] > 1 and table.strides[1] != 8):
            table = np.ascontiguousarray(table)
        (n,), (n_steps, n_req) = values0.shape, table.shape
        if out.shape != (n_steps + 1, n) or out.dtype != np.float64 \
                or not (out.flags.c_contiguous and out.flags.writeable):
            raise ValueError("run_steps: out must be a writable C-ordered float64 (steps + 1, n) array")
        bad = (ctypes.c_int64 * 2)()
        if fn(n, n_steps, n_terms, max_f, n_req, values0.ctypes.data, table.ctypes.data, table.strides[0] // 8,
              *term_pointers, out.ctypes.data, bad):
            raise IndexError("run_steps: a term's target, requirement or factor index is out of range")
        return bad[0], bad[1]

    return run_steps_c


@functools.cache
def _backend():
    """(name, function) of the first backend that loads."""
    try:
        return "c", _load_c()
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        log.warning("C propagation kernel unavailable (%s); using the Python loop", exc)
        return "python", run_steps_python


def run_steps(values0, table, target, coeff, req, fact, out):
    """run_steps_python on the chosen backend; see its docstring."""
    return _backend()[1](values0, table, target, coeff, req, fact, out)


def __getattr__(name):
    if name == "BACKEND":
        return _backend()[0]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
