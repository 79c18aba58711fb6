"""Inner propagation loop: one call runs the whole horizon.

Per-step Python/numpy dispatch overhead alone would dwarf the
sub-microsecond step budget of small compiled systems, so the loop runs
compiled.  `run_steps` uses the first of two backends that loads:

- ``"c"``: the loop in C (`_C_SOURCE`).  On first use it is built with the
  system C compiler (``cc`` or ``gcc``, about 0.1 s, once) into a shared
  library in ``$XDG_CACHE_HOME/momentprop`` (default ``~/.cache/momentprop``),
  named by a hash of the source and flags, and loaded with ctypes.  If that
  directory cannot be written, the library is built and loaded from a
  temporary directory instead.
- ``"python"``: `run_steps_python`, about 200 us per step on the 20-moment
  Dubins system.  It is the fallback when no C compiler is found or the
  build fails, and the reference that the C loop must match bit for bit.

`BACKEND` names the backend in use; reading it, or the first call of
`run_steps`, makes the choice.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import operator
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


# The loop of run_steps_python in two phases per step.  Phase 1 computes every
# term's product: coeff * row[req], then times each factor in factor order.  The
# terms are grouped by factor count, so no -1 pad is multiplied.  Phase 2 sums
# each target's run of terms in table order, in a register that starts from the
# target's current value, so a target split over several runs adds in the same
# order too.  Each product and each sum is the reference's, operand for operand;
# only the order in which different terms and targets are evaluated changes, and
# no value depends on that.  With a table stride of 0 (one row serves every step)
# coeff * row[req] is taken once per call, the same product every step.  The
# grouped index arrays are built once per call, in O(terms), after the range
# checks, so int32 holds every index.  Returns 1 if an index is out of range, 2
# if the index arrays cannot be allocated, else 0 with the first non-finite
# (step, moment) or (-1, -1) in bad.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Phase 1 for terms lo..hi-1, each with c factors; base is coeff, or coeff * row[req] when stationary. */
static inline __attribute__((always_inline)) void
products(int64_t c, int stationary, int64_t lo, int64_t hi, const double *base, const int32_t *req,
         const double *row, const int32_t *f, const double *cur, const int32_t *slot, double *prod)
{
    for (int64_t g = lo; g < hi; g++, f += c) {
        double v = stationary ? base[g] : base[g] * row[req[g]];
        for (int64_t i = 0; i < c; i++)
            v *= cur[f[i]];
        prod[slot[g]] = v;
    }
}

/* Phase 1 for every group; the common factor counts get a loop with a constant trip count. */
static inline __attribute__((always_inline)) void
all_products(int stationary, int64_t max_f, const int64_t *first, const double *base, const int32_t *req,
             const double *row, const int32_t *f, const double *cur, const int32_t *slot, double *prod)
{
    for (int64_t c = 0; c <= max_f; f += c * (first[c + 1] - first[c]), c++) {
        switch (c) {
        case 0: products(0, stationary, first[0], first[1], base, req, row, f, cur, slot, prod); break;
        case 1: products(1, stationary, first[1], first[2], base, req, row, f, cur, slot, prod); break;
        case 2: products(2, stationary, first[2], first[3], base, req, row, f, cur, slot, prod); break;
        case 3: products(3, stationary, first[3], first[4], base, req, row, f, cur, slot, prod); break;
        default: products(c, stationary, first[c], first[c + 1], base, req, row, f, cur, slot, prod);
        }
    }
}

int run_steps(int64_t n, int64_t n_steps, int64_t n_terms, int64_t max_f,
              int64_t n_req, const double *values0, const double *table,
              int64_t table_stride, const int64_t *target, const double *coeff,
              const int64_t *req, const int64_t *fact, double *out, int64_t *bad)
{
    if (n > INT32_MAX || n_req > INT32_MAX || n_terms > INT32_MAX / (max_f + 5))
        return 2;
    /* Group c holds the terms with c factors, in table order, at first[c] .. first[c + 1] - 1. */
    int64_t *first = calloc(3 * max_f + 4, sizeof *first);
    double *base = malloc(2 * n_terms * sizeof *base + (5 + max_f) * n_terms * sizeof(int32_t) + 1);
    if (!first || !base) {
        free(first);
        free(base);
        return 2;
    }
    int64_t *fill = first + max_f + 2, *fill_f = fill + max_f + 1;
    double *prod = base + n_terms;
    int32_t *slot = (int32_t *)(prod + n_terms), *greq = slot + n_terms, *count = greq + n_terms;
    int32_t *run_target = count + n_terms, *run_end = run_target + n_terms, *gfact = run_end + n_terms;
    int stationary = table_stride == 0 && n_steps > 0, status = 1;
    int64_t n_runs = 0;
    for (int64_t k = 0; k < n_terms; k++) {
        if (target[k] < 0 || target[k] >= n || req[k] < 0 || req[k] >= n_req)
            goto done;
        int32_t c = 0;
        for (int64_t i = 0; i < max_f; i++) {
            if (fact[k * max_f + i] < -1 || fact[k * max_f + i] >= n)
                goto done;
            c += fact[k * max_f + i] >= 0;
        }
        count[k] = c;
        first[c + 1]++;
    }
    for (int64_t c = 0; c <= max_f; c++) {
        first[c + 1] += first[c];
        fill[c] = first[c];
        fill_f[c] = c ? fill_f[c - 1] + (c - 1) * (first[c] - first[c - 1]) : 0;
    }
    for (int64_t k = 0; k < n_terms; k++) {
        const int64_t *f = fact + k * max_f;
        int64_t g = fill[count[k]]++;
        slot[g] = (int32_t)k;
        greq[g] = (int32_t)req[k];
        base[g] = stationary ? coeff[k] * table[req[k]] : coeff[k];
        for (int64_t i = 0; i < max_f; i++)
            if (f[i] >= 0)
                gfact[fill_f[count[k]]++] = (int32_t)f[i];
        if (k == 0 || target[k] != target[k - 1])
            run_target[n_runs++] = (int32_t)target[k];
        run_end[n_runs - 1] = (int32_t)(k + 1);
    }
    status = 0;
    bad[0] = -1;
    bad[1] = -1;
    for (int64_t j = 0; j < n; j++)
        out[j] = values0[j];
    for (int64_t t = 0; t < n_steps; t++) {
        const double *cur = out + t * n;
        double *next = out + (t + 1) * n;
        if (stationary)
            all_products(1, max_f, first, base, greq, table, gfact, cur, slot, prod);
        else
            all_products(0, max_f, first, base, greq, table + t * table_stride, gfact, cur, slot, prod);
        for (int64_t j = 0; j < n; j++)
            next[j] = 0.0;
        for (int64_t r = 0, k = 0; r < n_runs; r++) {
            double sum = next[run_target[r]];
            for (; k < run_end[r]; k++)
                sum += prod[k];
            next[run_target[r]] = sum;
        }
        for (int64_t j = 0; j < n; j++) {
            if (!isfinite(next[j])) {
                bad[0] = t + 1;
                bad[1] = j;
                goto done;
            }
        }
    }
done:
    free(first);
    free(base);
    return status;
}
"""
# No fused multiply-add: the C loop must round exactly as the Python loop does.
_C_FLAGS = ("-O2", "-funroll-loops", "-shared", "-fPIC", "-ffp-contract=off")


def _build_c(cc: str, lib_path: Path) -> ctypes.CDLL:
    """Compile _C_SOURCE and load it.

    The library is cached at lib_path, where it appears atomically.  If that
    directory cannot be written, it is built in a temporary directory instead
    and loaded from there before the directory is removed.
    """
    try:
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        build_dir = tempfile.TemporaryDirectory(dir=lib_path.parent)
    except OSError as exc:
        log.info("cannot write the kernel cache %s (%s); building in a temporary directory", lib_path.parent, exc)
        build_dir, lib_path = tempfile.TemporaryDirectory(prefix="momentprop-"), None
    with build_dir as tmp:
        src = Path(tmp) / "run_steps.c"
        src.write_text(_C_SOURCE)
        built = Path(tmp) / "run_steps.so"
        proc = subprocess.run(
            [cc, *_C_FLAGS, "-o", str(built), str(src)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            raise OSError(f"{cc} failed: {proc.stderr.strip()}")
        if lib_path is None:
            return ctypes.CDLL(str(built))
        os.replace(built, lib_path)
    log.info("built the C propagation kernel at %s", lib_path)
    return ctypes.CDLL(str(lib_path))


def _load_c():
    """run_steps backed by the C loop, building the library if not cached."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    key = hashlib.sha256("\0".join((_C_SOURCE, *_C_FLAGS, platform.machine())).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "momentprop"
    lib_path = cache / f"run_steps-{key.hexdigest()[:16]}.so"
    fn = (ctypes.CDLL(str(lib_path)) if lib_path.exists() else _build_c(cc, lib_path)).run_steps
    fn.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 6
    fn.restype = ctypes.c_int
    bad_pair = ctypes.c_int64 * 2  # the (step, moment) the kernel reports

    last = [((None,) * 4, None)]  # the last term arrays that needed no copy, and their checked form

    def checked_terms(passed):
        """(n_terms, max_f, data pointers, arrays) of the term arrays, made contiguous; checked once
        per table, since the kernel itself range-checks every entry on every call."""
        last_passed, checked = last[0]  # read once: another thread may replace it
        if all(map(operator.is_, last_passed, passed)):
            return checked
        target, coeff, req, fact = arrays = [np.ascontiguousarray(arr, dtype=np.float64 if i == 1 else np.int64)
                                             for i, arr in enumerate(passed)]
        n_terms = target.shape[0]
        if fact.ndim != 2 or (target.shape, coeff.shape, req.shape, fact.shape[0]) != ((n_terms,),) * 3 + (n_terms,):
            raise ValueError("run_steps: target, coeff, req and fact must have one entry per term, fact 2-d")
        checked = (n_terms, fact.shape[1], [arr.ctypes.data for arr in arrays], arrays)
        if all(map(operator.is_, arrays, passed)):
            last[0] = (passed, checked)
        return checked

    def run_steps_c(values0, table, target, coeff, req, fact, out):
        n_terms, max_f, term_pointers, _ = checked_terms((target, coeff, req, fact))
        values0 = np.ascontiguousarray(values0, dtype=np.float64)
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2 or values0.ndim != 1:
            raise ValueError("run_steps: table must be 2-d and values0 1-d")
        (n,), (n_steps, n_req) = values0.shape, table.shape
        if table.strides[0] % 8 or (n_req > 1 and table.strides[1] != 8):
            table = np.ascontiguousarray(table)
        flags = out.flags
        if out.shape != (n_steps + 1, n) or out.dtype != np.float64 or not (flags.c_contiguous and flags.writeable):
            raise ValueError("run_steps: out must be a writable C-ordered float64 (steps + 1, n) array")
        bad = bad_pair()
        status = fn(n, n_steps, n_terms, max_f, n_req, values0.ctypes.data, table.ctypes.data, table.strides[0] // 8,
                    *term_pointers, out.ctypes.data, bad)
        if status == 1:
            raise IndexError("run_steps: a term's target, requirement or factor index is out of range")
        if status:
            raise MemoryError("run_steps: the kernel's index arrays cannot be allocated")
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
