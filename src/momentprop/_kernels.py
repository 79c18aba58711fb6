"""Compiled inner loops: the propagation horizon and the planner's risk bound.

Per-step Python/numpy dispatch overhead alone would dwarf the
sub-microsecond step budget of small compiled systems, and about 25 numpy
calls per candidate edge would dwarf the arithmetic of its risk bound, so
both run compiled.  One extension module has two entry points, `run_steps`
and `risk_bound`, and both use the first of two backends that loads:

- ``"c"``: both loops in C (`_C_SOURCE`), one CPython extension module that
  reads the arrays through the buffer protocol.  On first use it is built
  with the system C compiler (``cc`` or ``gcc``, about 0.6 s, once) and the
  Python headers (``Python.h``, from ``python3-dev`` or the like) into
  ``$XDG_CACHE_HOME/momentprop`` (default ``~/.cache/momentprop``), named
  ``run_steps-<hash><EXT_SUFFIX>``: the hash covers the source, the flags,
  the machine and the ABI tag, so each interpreter loads only its own build.
  If that directory cannot be written, the module is built and loaded from a
  temporary directory instead.  Superseded ``run_steps-*`` files are never
  removed, since another checkout or interpreter may still load them; they
  are safe to delete.  A `run_steps` call costs about 5 us warm and 55 us
  right after other work has evicted the caches, besides the loop itself.
- ``"python"``: `run_steps_python`, about 200 us per step on the 20-moment
  Dubins system, and `risk_bound_python`, numpy over all steps and faces at
  once.  They are the fallback when there is no C compiler or no
  ``Python.h``, or the build fails, and the references that the C loops must
  match bit for bit.

`BACKEND` names the backend in use; reading it, or the first call of
`run_steps` or `risk_bound`, makes the choice.
"""

from __future__ import annotations

import functools
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


def risk_bound(values, positions, faces, starts):
    """risk_bound_python on the chosen backend; see its docstring."""
    return _backend()[2](values, positions, faces, starts)


def risk_bound_python(values, positions, faces, starts):
    """Union bound on P(the position is inside an obstacle) over steps 1..T, obstacles and faces.

    values[t] is the moment state at step t; `positions` index E[x], E[y],
    E[x^2], E[x*y] and E[y^2] in it.  Columns of the (6, F) `faces` table are
    the obstacles' half-spaces ax*x + ay*y + b <= 0, as rows ax, ay, b, ax*ax,
    2*ax*ay, ay*ay; obstacle i's faces start at column starts[i].  A face's
    Cantelli bound is 0 where its variance is 0 and 1 where its mean is
    negative; an obstacle's is its least risky face's (fmin, so NaN is
    skipped), at most 1; the total is summed left to right, step by step and
    then obstacle by obstacle.  May exceed 1.
    """
    from .propagator import central_second_moments  # propagator imports this module

    # Non-finite moments give a bound, not a warning, as in the C loop.
    with np.errstate(over="ignore", invalid="ignore"):
        mu0, mu1, s00, s11, s01 = central_second_moments(values[1:], positions)
        ax, ay, b, axx, axy2, ayy = faces[:, :, None]
        mean = ax * mu0 + ay * mu1 + b
        var = np.maximum(axx * s00 + axy2 * s01 + ayy * s11, 0.0)
        bound = np.divide(var, var + mean * mean, out=np.zeros(var.shape), where=var != 0.0)
        np.copyto(bound, 1.0, where=mean < 0)
        risks = np.fmin(np.fmin.reduceat(bound, starts, axis=0), 1.0)
    return float(risks.T.cumsum()[-1]) if risks.size else 0.0


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
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

/* risk_bound_python's bound, operation for operation: the same products, sums and quotients in the same order.
   Obstacle o's faces run from starts[o] to the next start, or to the last face, as np.fmin.reduceat takes them. */
static double risk_bound(int64_t n_rows, int64_t n, const double *values, const int64_t *pos, int64_t n_faces,
                         const double *faces, int64_t n_obs, const int64_t *starts)
{
    const double *ax = faces, *ay = ax + n_faces, *b = ay + n_faces;
    const double *axx = b + n_faces, *axy2 = axx + n_faces, *ayy = axy2 + n_faces;
    double total = 0.0;
    for (int64_t t = 1; t < n_rows; t++) {
        const double *v = values + t * n;
        double mu0 = v[pos[0]], mu1 = v[pos[1]];
        double s00 = v[pos[2]] - mu0 * mu0, s11 = v[pos[4]] - mu1 * mu1, s01 = v[pos[3]] - mu0 * mu1;
        for (int64_t o = 0; o < n_obs; o++) {
            int64_t end = o + 1 == n_obs ? n_faces : starts[o + 1] > starts[o] ? starts[o + 1] : starts[o] + 1;
            double best = NAN;
            for (int64_t f = starts[o]; f < end; f++) {
                double mean = ax[f] * mu0 + ay[f] * mu1 + b[f];
                double var = axx[f] * s00 + axy2[f] * s01 + ayy[f] * s11;
                var = var < 0.0 ? 0.0 : var; /* np.maximum(var, 0.0): NaN and -0.0 stay */
                double bound = var != 0.0 ? var / (var + mean * mean) : 0.0;
                best = fmin(best, mean < 0.0 ? 1.0 : bound);
            }
            total += fmin(best, 1.0);
        }
    }
    return total;
}

static int f8(const Py_buffer *b) { return b->itemsize == 8 && !strcmp(b->format, "d"); }
static int i8(const Py_buffer *b) { return b->itemsize == 8 && (!strcmp(b->format, "l") || !strcmp(b->format, "q")); }
static int dense(Py_buffer *b) { return PyBuffer_IsContiguous(b, 'C'); }
#define FAIL(exc, msg) do { PyErr_SetString(exc, "run_steps: " msg); goto release; } while (0)

/* run_steps(values0, table, target, coeff, req, fact, out) -> (bad_t, bad_j), on the arrays' buffers.  TypeError
   means an input is not float64 (int64 for target, req and fact) or not laid out as the loop reads it. */
static PyObject *py_run_steps(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[7], *v = b, *tab = b + 1, *tg = b + 2, *co = b + 3, *rq = b + 4, *fa = b + 5, *out = b + 6;
    PyObject *result = NULL;
    int got = 0, status;
    int64_t bad[2];
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "run_steps takes 7 arguments (%zd given)", nargs);
    for (; got < 7; got++)
        if (PyObject_GetBuffer(args[got], b + got, PyBUF_RECORDS_RO))
            goto release;
    if (!(f8(v) && f8(tab) && i8(tg) && f8(co) && i8(rq) && i8(fa)))
        FAIL(PyExc_TypeError, "values0, table and coeff must be float64, target, req and fact int64");
    if (tg->ndim != 1 || co->ndim != 1 || rq->ndim != 1 || fa->ndim != 2 || co->shape[0] != tg->shape[0]
        || rq->shape[0] != tg->shape[0] || fa->shape[0] != tg->shape[0])
        FAIL(PyExc_ValueError, "target, coeff, req and fact must have one entry per term, fact 2-d");
    if (tab->ndim != 2 || v->ndim != 1)
        FAIL(PyExc_ValueError, "table must be 2-d and values0 1-d");
    if (!f8(out) || out->readonly || out->ndim != 2 || out->shape[0] != tab->shape[0] + 1
        || out->shape[1] != v->shape[0] || !dense(out))
        FAIL(PyExc_ValueError, "out must be a writable C-ordered float64 (steps + 1, n) array");
    if (!(dense(v) && dense(tg) && dense(co) && dense(rq) && dense(fa)) || tab->strides[0] % 8
        || (tab->shape[1] > 1 && tab->strides[1] != 8))
        FAIL(PyExc_TypeError, "the arrays must be contiguous, the table's rows 8-byte aligned and its columns 8 bytes apart");
    Py_BEGIN_ALLOW_THREADS
    status = run_steps(v->shape[0], tab->shape[0], tg->shape[0], fa->shape[1], tab->shape[1], v->buf, tab->buf,
                       tab->strides[0] / 8, tg->buf, co->buf, rq->buf, fa->buf, out->buf, bad);
    Py_END_ALLOW_THREADS
    if (status == 1)
        FAIL(PyExc_IndexError, "a term's target, requirement or factor index is out of range");
    if (status)
        FAIL(PyExc_MemoryError, "the kernel's index arrays cannot be allocated");
    result = Py_BuildValue("(LL)", (long long)bad[0], (long long)bad[1]);
release:
    while (got--)
        PyBuffer_Release(b + got);
    return result;
}

#undef FAIL
#define FAIL(exc, msg) do { PyErr_SetString(exc, "risk_bound: " msg); goto release; } while (0)

/* risk_bound(values, positions, faces, starts) -> float, on the arrays' buffers.  TypeError means an input is not
   float64 (int64 for positions and starts) or not C-contiguous; IndexError, a position or start out of range. */
static PyObject *py_risk_bound(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4], *v = b, *pos = b + 1, *fc = b + 2, *st = b + 3;
    PyObject *result = NULL;
    int got = 0;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "risk_bound takes 4 arguments (%zd given)", nargs);
    for (; got < 4; got++)
        if (PyObject_GetBuffer(args[got], b + got, PyBUF_RECORDS_RO))
            goto release;
    if (!(f8(v) && i8(pos) && f8(fc) && i8(st)))
        FAIL(PyExc_TypeError, "values and faces must be float64, positions and starts int64");
    if (!(dense(v) && dense(pos) && dense(fc) && dense(st)))
        FAIL(PyExc_TypeError, "the arrays must be C-contiguous");
    if (v->ndim != 2 || pos->ndim != 1 || pos->shape[0] != 5 || fc->ndim != 2 || fc->shape[0] != 6 || st->ndim != 1)
        FAIL(PyExc_ValueError, "values must be 2-d, positions hold 5 entries, faces 6 rows and starts 1-d");
    const int64_t *p = pos->buf, *s = st->buf;
    for (int i = 0; i < 5; i++)
        if (p[i] < 0 || p[i] >= v->shape[1])
            FAIL(PyExc_IndexError, "a position is out of range");
    for (Py_ssize_t i = 0; i < st->shape[0]; i++)
        if (s[i] < 0 || s[i] >= fc->shape[1])
            FAIL(PyExc_IndexError, "an obstacle's first face is out of range");
    result = PyFloat_FromDouble(
        risk_bound(v->shape[0], v->shape[1], v->buf, p, fc->shape[1], fc->buf, st->shape[0], s));
release:
    while (got--)
        PyBuffer_Release(b + got);
    return result;
}

static PyMethodDef methods[] = {{"run_steps", (PyCFunction)(void (*)(void))py_run_steps, METH_FASTCALL, NULL},
                                {"risk_bound", (PyCFunction)(void (*)(void))py_risk_bound, METH_FASTCALL, NULL}, {0}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "run_steps", NULL, -1, methods};
PyMODINIT_FUNC PyInit_run_steps(void) { return PyModule_Create(&module); }
"""
# No fused multiply-add: the C loop must round exactly as the Python loop does.
_C_FLAGS = ("-O2", "-funroll-loops", "-shared", "-fPIC", "-ffp-contract=off")


def _import(path) -> object:
    """The extension module built from _C_SOURCE at path."""
    loader = importlib.machinery.ExtensionFileLoader("run_steps", str(path))
    return importlib.util.module_from_spec(importlib.util.spec_from_loader("run_steps", loader))


def _build_c(cc: str, lib_path: Path) -> object:
    """Compile _C_SOURCE and import it.

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
        src = Path(tmp) / "run_steps.c"
        src.write_text(_C_SOURCE)
        built = Path(tmp) / "run_steps.so"
        proc = subprocess.run(
            [cc, *_C_FLAGS, "-I", include, "-o", str(built), str(src)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            raise OSError(f"{cc} failed: {proc.stderr.strip()}")
        if lib_path is None:
            return _import(built)
        os.replace(built, lib_path)
    log.info("built the C propagation kernel at %s", lib_path)
    return _import(lib_path)


def _load_c():
    """(run_steps, risk_bound) backed by the C loops, building the extension module if not cached."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256("\0".join((_C_SOURCE, *_C_FLAGS, platform.machine(), suffix)).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "momentprop"
    lib_path = cache / f"run_steps-{key.hexdigest()[:16]}{suffix}"
    module = _import(lib_path) if lib_path.exists() else _build_c(cc, lib_path)
    kernel = module.run_steps

    def run_steps_c(values0, table, target, coeff, req, fact, out):
        try:
            return kernel(values0, table, target, coeff, req, fact, out)
        except TypeError:  # an odd dtype or layout: made contiguous once, then passed in again
            f8, i8 = (functools.partial(np.ascontiguousarray, dtype=dtype) for dtype in (np.float64, np.int64))
            return kernel(f8(values0), f8(table), i8(target), f8(coeff), i8(req), i8(fact), out)

    return run_steps_c, module.risk_bound


@functools.cache
def _backend():
    """(name, run_steps, risk_bound) of the first backend that loads."""
    try:
        return "c", *_load_c()
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        log.warning("C propagation kernel unavailable (%s); using the Python loop", exc)
        return "python", run_steps_python, risk_bound_python


def run_steps(values0, table, target, coeff, req, fact, out):
    """run_steps_python on the chosen backend; see its docstring."""
    return _backend()[1](values0, table, target, coeff, req, fact, out)


def __getattr__(name):
    if name == "BACKEND":
        return _backend()[0]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
