/* The compiled kernels of momentprop: one CPython extension module, `run_steps`, with six entry points (run_steps,
   risk_bound, dubins_steer, nearest, trig_moments, record_moments).  momentprop._kernels builds it on first use
   with the flags in _kernels._C_FLAGS; -ffp-contract=off keeps every product and sum rounded on its own, as numpy
   and Python round them.  Each entry point computes what its twin in tests/reference.py computes, bit for bit, and
   the tests hold it to that.

   run_steps evaluates the loop of reference.run_steps_python in two phases per step.  Phase 1 computes every
   term's product: coeff * row[req], then times each factor in factor order.  The terms are grouped by factor
   count, so no -1 pad is multiplied.  Phase 2 sums each target's run of terms in table order, in a register that
   starts from the target's current value, so a target split over several runs adds in the same order too.  Each
   product and each sum is the reference's, operand for operand; only the order in which different terms and
   targets are evaluated changes, and no value depends on that.  With a table stride of 0 (one row serves every
   step) coeff * row[req] is taken once per call, the same product every step.  The grouped index arrays are
   built once per call, in O(terms), after the range checks, so int32 holds every index.  Returns 1 if an index
   is out of range, 2 if the index arrays cannot be allocated, else 0 with the first non-finite (step, moment) or
   (-1, -1) in bad.  With a budget, each finite row's risk bound is added up, and the loop stops once the parent's
   risk plus that sum passes epsilon: each obstacle adds a value in [0, 1], never NaN, and rounded addition is
   monotone, so an edge stopped early would pass epsilon had it run every step.  With a moment plan too, each table
   row is written just before its step (moment_row): a stopped edge takes no trig moments for steps it does not run. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <complex.h>
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

/* The FMA trap.  numpy's SIMD complex product is fused (fmaddsub) on a CPU with FMA: its real part is
   fma(ar, br, -(ai * bi)) and its imaginary part fma(ar, bi, ai * br).  An unfused a * b + c rounds the same where
   a * b is exact (ar = 0: a purely imaginary coefficient), and where c is a zero or NaN (ai = 0: a purely real
   coefficient) in every case but one: a nonzero a * b that rounds to zero keeps its sign when fused, while the
   unfused -0.0 + +0.0 is +0.0.  fused() repeats that case, so on the Laurent coefficients, each purely real or
   purely imaginary, it gives fma's bits (and differs from numpy without FMA only in that zero's sign).  It is not
   libm's fma, which is a slow software loop on a CPU without the instruction. */
static inline double fused(double a, double b, double c)
{
    double p = a * b;
    return p == 0.0 && a != 0.0 && b != 0.0 && c == 0.0 ? p : p + c;
}

/* reference.trig_moments_python, operation for operation.  Each step's characteristic function values are numpy's
   exp(1j * t * (loc + (base + s)) - variance * t * t / 2.0) at every frequency t: 1j * t is the complex product
   (0 + 1i)(t + 0i), its product with the real argument is a complex product with (x + 0i), and the subtraction is a
   complex one with (g + 0i); numpy's complex exp is the C library's cexp.  Each Laurent sum then starts from the first
   frequency's product and adds the others in frequency order.  Returns the largest |imaginary part| of the sums, NaN
   if one is NaN, as np.maximum.reduce takes it. */
static double trig_moments(Py_ssize_t n_steps, const char *s, Py_ssize_t s_stride, double base, double loc,
                           double var, Py_ssize_t n_freqs, const double *freqs, Py_ssize_t n_pairs,
                           const double *coef, char *out, Py_ssize_t row_stride, Py_ssize_t col_stride,
                           double complex *v)
{
    double residue = 0.0;
    for (Py_ssize_t k = 0; k < n_steps; k++) {
        double x = loc + (base + *(const double *)(s + k * s_stride));
        for (Py_ssize_t f = 0; f < n_freqs; f++) {
            double t = freqs[f], r = 0.0 * t - 1.0 * 0.0;
            double re = r * x - t * 0.0, im = r * 0.0 + t * x, g = var * t * t / 2.0;
            v[f] = cexp(CMPLX(re - g, im - 0.0));
        }
        for (Py_ssize_t p = 0; p < n_pairs; p++) {
            double sr = 0.0, si = 0.0;
            for (Py_ssize_t f = 0; f < n_freqs; f++) {
                const double *c = coef + 2 * (f * n_pairs + p);
                double vr = creal(v[f]), vi = cimag(v[f]);
                double pr = fused(c[0], vr, -(c[1] * vi)), pi = fused(c[0], vi, c[1] * vr);
                sr = f ? sr + pr : pr;
                si = f ? si + pi : pi;
            }
            *(double *)(out + k * row_stride + p * col_stride) = sr;
            double a = fabs(si);
            residue = isnan(a) || a > residue ? a : residue;
        }
    }
    return residue;
}

/* run_steps' moment plan (DisturbanceModel.steering_plan): the steered slot's schedule, base, loc, var, freqs, coef
   and n_pairs columns from first in a copy of the slot row (column 0 is 1.0), each requirement's (n_factors, n_req)
   slot columns, the table whose rows it writes, and the residue of a row that failed. */
struct plan {
    const double *schedule, *freqs, *coef; const int64_t *factors; double *slots, *table; double complex *v;
    int64_t n_req, n_freqs, n_pairs, first, n_factors; double base, loc, var, residue;
};

/* Row t of the table: step t's trig moments into the slot row, then each requirement's product of its slot columns,
   left to right, as distmoments._products forms it.  1 if the residue passes the tolerance, else 0. */
static int moment_row(struct plan *p, int64_t t)
{
    double *slots = p->slots, *row = p->table + t * p->n_req;
    double residue = trig_moments(1, (const char *)(p->schedule + t), 0, p->base, p->loc, p->var, p->n_freqs,
                                  p->freqs, p->n_pairs, p->coef, (char *)(slots + p->first), 0, sizeof *slots, p->v);
    if (residue > 1e-12) /* distmoments._IMAG_RESIDUE_TOL */
        return p->residue = residue, 1;
    for (int64_t j = 0; j < p->n_req; j++) {
        double v = slots[p->factors[j]];
        for (int64_t i = 1; i < p->n_factors; i++)
            v *= slots[p->factors[i * p->n_req + j]];
        row[j] = v;
    }
    return 0;
}

/* risk_bound's obstacles; run_steps' budget in (parent, epsilon, plan or NULL) and out (steps, total). */
struct budget {
    const int64_t *pos, *starts; const double *faces; int64_t n_faces, n_obs, steps; double parent, epsilon, total;
    struct plan *plan;
};

/* Adds row v's bound to *total, obstacle by obstacle, with reference.risk_bound_python's operations in its order.
   Obstacle o's faces run from starts[o] to the next start, or to the last face, as np.fmin.reduceat takes them. */
static void row_risk(const double *v, const struct budget *ob, double *total)
{
    const int64_t *pos = ob->pos, *starts = ob->starts, n_faces = ob->n_faces, n_obs = ob->n_obs;
    const double *ax = ob->faces, *ay = ax + n_faces, *b = ay + n_faces;
    const double *axx = b + n_faces, *axy2 = axx + n_faces, *ayy = axy2 + n_faces;
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
        *total += fmin(best, 1.0); /* fmin drops a NaN best: the term lies in [0, 1] */
    }
}

int run_steps(int64_t n, int64_t n_steps, int64_t n_terms, int64_t max_f,
              int64_t n_req, const double *values0, const double *table,
              int64_t table_stride, const int64_t *target, const double *coeff,
              const int64_t *req, const int64_t *fact, double *out, int64_t *bad, struct budget *bud)
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
        if (__builtin_expect(bud != NULL, 0)) { /* out of line, so the loop without a budget is laid out as before */
            row_risk(next, bud, &bud->total);
            bud->steps = t + 1;
            if (!(bud->parent + bud->total <= bud->epsilon)
                || (bud->plan && t + 1 < n_steps && moment_row(bud->plan, t + 1))) /* row t + 1, within budget */
                break;
        }
    }
done:
    free(first);
    free(base);
    return status;
}

static int f8(const Py_buffer *b) { return b->itemsize == 8 && !strcmp(b->format, "d"); }
static int i8(const Py_buffer *b) { return b->itemsize == 8 && (!strcmp(b->format, "l") || !strcmp(b->format, "q")); }
static int dense(Py_buffer *b) { return PyBuffer_IsContiguous(b, 'C'); }

static void release_buffers(Py_buffer *b, Py_ssize_t n)
{
    while (n--)
        PyBuffer_Release(b + n);
}

/* The buffers of args[0 .. n - 1] in b, with their formats, shapes and strides: 0, or -1 with none held. */
static int get_buffers(Py_buffer *b, PyObject *const *args, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (PyObject_GetBuffer(args[i], b + i, PyBUF_RECORDS_RO)) {
            release_buffers(b, i);
            return -1;
        }
    return 0;
}

/* Raise exc with "<entry point>: msg", the entry point named after its py_ function, and go to its release. */
#define FAIL(exc, msg) do { PyErr_Format(exc, "%s: %s", __func__ + 3, msg); goto release; } while (0)

/* positions, faces and starts (b[0 .. 2]) in ob, as obstacles for rows of n moments: 0, or -1 with TypeError (a
   dtype or layout), ValueError (a shape) or IndexError (a position or first face out of range) raised for entry. */
static int get_obstacles(const char *entry, Py_buffer *b, Py_ssize_t n, struct budget *ob)
{
#define REJECT(exc, msg) return PyErr_Format(exc, "%s: %s", entry, msg), -1 /* FAIL, returning -1 */
    Py_buffer *pos = b, *fc = b + 1, *st = b + 2;
    const int64_t *p = pos->buf, *s = st->buf;
    if (!(i8(pos) && f8(fc) && i8(st) && dense(pos) && dense(fc) && dense(st)))
        REJECT(PyExc_TypeError, "positions and starts must be C-contiguous int64, faces C-contiguous float64");
    if (pos->ndim != 1 || pos->shape[0] != 5 || fc->ndim != 2 || fc->shape[0] != 6 || st->ndim != 1)
        REJECT(PyExc_ValueError, "positions must hold 5 entries, faces 6 rows and starts 1-d");
    for (int i = 0; i < 5; i++)
        if (p[i] < 0 || p[i] >= n)
            REJECT(PyExc_IndexError, "a position is out of range");
    for (Py_ssize_t i = 0; i < st->shape[0]; i++)
        if (s[i] < 0 || s[i] >= fc->shape[1])
            REJECT(PyExc_IndexError, "an obstacle's first face is out of range");
    *ob = (struct budget){.pos = p, .starts = s, .faces = fc->buf, .n_faces = fc->shape[1], .n_obs = st->shape[0]};
    return 0;
}

/* run_steps(values0, table, target, coeff, req, fact, out) -> (bad_t, bad_j), on the arrays' buffers; with a budget,
   run_steps(..., out, positions, faces, starts, parent_risk, epsilon) -> (bad_t, bad_j, steps_run, risk), risk being
   parent_risk plus the bound of rows 1 .. steps_run; with a budget and a moment plan, run_steps(..., epsilon,
   schedule, slots, factors, freqs, coefficients, base, loc, variance, first) also writes the table's rows.
   TypeError means an input is not float64 (int64 for target, req, fact and factors, complex128 for coefficients)
   or not laid out as the loop reads it. */
static PyObject *py_run_steps(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[15], *v = b, *tab = b + 1, *tg = b + 2, *co = b + 3, *rq = b + 4, *fa = b + 5, *out = b + 6;
    Py_buffer *sch = b + 10, *sl = b + 11, *fs = b + 12, *fr = b + 13, *lc = b + 14;
    PyObject *result = NULL, *arrays[15];
    struct budget bud = {0};
    struct plan plan = {0};
    int status;
    int64_t bad[2];
    Py_ssize_t n_buffers = nargs == 21 ? 15 : nargs == 12 ? 10 : 7;
    if (nargs != 7 && nargs != 12 && nargs != 21)
        return PyErr_Format(PyExc_TypeError, "run_steps takes 7 or 12 arguments, or 21 with a plan (%zd given)", nargs);
    for (Py_ssize_t i = 0; i < n_buffers; i++)
        arrays[i] = args[i < 10 ? i : i + 2]; /* parent_risk and epsilon are floats */
    if (get_buffers(b, arrays, n_buffers))
        return NULL;
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
    if (nargs >= 12 && get_obstacles("run_steps", b + 7, v->shape[0], &bud))
        goto release;
    bud.parent = nargs >= 12 ? PyFloat_AsDouble(args[10]) : 0.0;
    bud.epsilon = nargs >= 12 ? PyFloat_AsDouble(args[11]) : 0.0;
    if (nargs == 21) { /* the moment plan */
        if (!(f8(sch) && f8(sl) && i8(fs) && f8(fr) && lc->itemsize == 16 && !strcmp(lc->format, "Zd") && dense(tab)
              && dense(sch) && dense(sl) && dense(fs) && dense(fr) && dense(lc)))
            FAIL(PyExc_TypeError, "the table and plan must be C-contiguous, factors int64, coefficients complex128");
        if (tab->readonly || sch->ndim != 1 || sl->ndim != 1 || fs->ndim != 2 || fs->shape[0] < 1
            || fs->shape[1] != tab->shape[1] || fr->ndim != 1 || lc->ndim != 2 || lc->shape[0] != fr->shape[0])
            FAIL(PyExc_ValueError, "table must be writable, factors (n >= 1, requirements), coefficients (freqs, m)");
        plan = (struct plan){.schedule = sch->buf, .freqs = fr->buf, .coef = lc->buf, .factors = fs->buf,
                             .table = tab->buf, .n_req = tab->shape[1], .n_freqs = fr->shape[0],
                             .n_pairs = lc->shape[1], .n_factors = fs->shape[0], .first = PyLong_AsLongLong(args[20]),
                             .base = PyFloat_AsDouble(args[17]), .loc = PyFloat_AsDouble(args[18]),
                             .var = PyFloat_AsDouble(args[19])};
        if (PyErr_Occurred())
            goto release;
        for (Py_ssize_t i = 0; i < fs->shape[0] * fs->shape[1]; i++)
            if (plan.factors[i] < 0 || plan.factors[i] >= sl->shape[0])
                FAIL(PyExc_IndexError, "a factor's slot column is out of range");
        if (sch->shape[0] < tab->shape[0] || plan.first < 0 || plan.first > sl->shape[0] - plan.n_pairs)
            FAIL(PyExc_IndexError, "the schedule is shorter than the steps, or a steered column out of range");
        if (!(plan.slots = PyMem_Malloc(sl->len + plan.n_freqs * sizeof *plan.v + 1)))
            FAIL(PyExc_MemoryError, "out of memory");
        memcpy(plan.slots, sl->buf, sl->len);
        plan.v = (double complex *)(plan.slots + sl->shape[0]);
        bud.plan = &plan;
    }
    if (PyErr_Occurred())
        goto release;
    Py_BEGIN_ALLOW_THREADS
    status = bud.plan && tab->shape[0] && moment_row(&plan, 0) ? 0 /* each later row once its step is within budget */
           : run_steps(v->shape[0], tab->shape[0], tg->shape[0], fa->shape[1], tab->shape[1], v->buf, tab->buf,
                       bud.plan ? plan.n_req : tab->strides[0] / 8, tg->buf, co->buf, rq->buf, fa->buf, out->buf, bad,
                       nargs >= 12 ? &bud : NULL);
    Py_END_ALLOW_THREADS
    PyMem_Free(plan.slots);
    if (status == 1)
        FAIL(PyExc_IndexError, "a term's target, requirement or factor index is out of range");
    if (!status && plan.residue) {
        char *residue = PyOS_double_to_string(plan.residue, 'g', 6, 0, NULL);
        if (residue)
            PyErr_Format(PyExc_ArithmeticError, "trig moment has non-real residue %s", residue);
        PyMem_Free(residue);
        goto release;
    }
    if (status)
        FAIL(PyExc_MemoryError, "the kernel's index arrays cannot be allocated");
    result = nargs == 7 ? Py_BuildValue("(LL)", (long long)bad[0], (long long)bad[1])
                        : Py_BuildValue("(LLLd)", (long long)bad[0], (long long)bad[1], (long long)bud.steps,
                                        bud.parent + bud.total);
release:
    release_buffers(b, n_buffers);
    return result;
}

/* risk_bound(values, positions, faces, starts) -> float, on the arrays' buffers: rows 1 .. T of values bounded, the
   obstacles as get_obstacles reads them.  TypeError also means values is not C-contiguous float64. */
static PyObject *py_risk_bound(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4], *v = b;
    PyObject *result = NULL;
    struct budget ob;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "risk_bound takes 4 arguments (%zd given)", nargs);
    if (get_buffers(b, args, 4))
        return NULL;
    if (!f8(v) || !dense(v))
        FAIL(PyExc_TypeError, "values must be C-contiguous float64");
    if (v->ndim != 2)
        FAIL(PyExc_ValueError, "values must be 2-d");
    if (get_obstacles("risk_bound", b + 1, v->shape[1], &ob))
        goto release;
    double total = 0.0;
    for (Py_ssize_t t = 1; t < v->shape[0]; t++)
        row_risk((const double *)v->buf + t * v->shape[1], &ob, &total);
    result = PyFloat_FromDouble(total);
release:
    release_buffers(b, 4);
    return result;
}

/* The planner's geometry, as reference.shortest_path, reference.steer_python and reference.nearest_python compute it:
   every libm call, product, sum and comparison in the same order.  Python's float % is fmod with the divisor's
   sign; math.sin, cos, atan2, acos and sqrt are libm's for these arguments; math.hypot is not, so it is an input. */
static const double PI = 3.141592653589793, TWO_PI = 2.0 * 3.141592653589793, EPS = 1e-9;

static double mod2pi(double a)
{
    double m = fmod(a, TWO_PI);
    return m ? (m < 0.0 ? m + TWO_PI : m) : 0.0;
}

static double max0(double a) { return 0.0 > a ? 0.0 : a; } /* Python's max(a, 0.0) */

/* Word w (t, p, q) replaces the best so far if it is the first feasible word or strictly shorter. */
static void consider(double t, double p, double q, const char *w, int *found, double best[4], const char **word)
{
    double cost = t + p + q;
    if (!*found || cost < best[0]) {
        *found = 1;
        best[0] = cost, best[1] = t, best[2] = p, best[3] = q;
        *word = w;
    }
}

/* reference.dubins_words and the first shortest of them; 0 if none is feasible.  The library's only word search. */
static int shortest_word(double alpha, double beta, double d, double best[4], const char **word)
{
    double sa = sin(alpha), ca = cos(alpha), sb = sin(beta), cb = cos(beta), c_ab = cos(alpha - beta);
    double p_sq, p, tmp, t;
    int found = 0;
    p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sa - sb);
    if (p_sq >= -EPS) {
        tmp = atan2(cb - ca, d + sa - sb);
        consider(mod2pi(-alpha + tmp), sqrt(max0(p_sq)), mod2pi(beta - tmp), "LSL", &found, best, word);
    }
    p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sb - sa);
    if (p_sq >= -EPS) {
        tmp = atan2(ca - cb, d - sa + sb);
        consider(mod2pi(alpha - tmp), sqrt(max0(p_sq)), mod2pi(-beta + tmp), "RSR", &found, best, word);
    }
    p_sq = -2.0 + d * d + 2.0 * c_ab + 2.0 * d * (sa + sb);
    if (p_sq >= -EPS) {
        p = sqrt(max0(p_sq));
        tmp = atan2(-ca - cb, d + sa + sb) - atan2(-2.0, p);
        consider(mod2pi(-alpha + tmp), p, mod2pi(-mod2pi(beta) + tmp), "LSR", &found, best, word);
    }
    p_sq = d * d - 2.0 + 2.0 * c_ab - 2.0 * d * (sa + sb);
    if (p_sq >= -EPS) {
        p = sqrt(max0(p_sq));
        tmp = atan2(ca + cb, d - sa - sb) - atan2(2.0, p);
        consider(mod2pi(alpha - tmp), p, mod2pi(beta - tmp), "RSL", &found, best, word);
    }
    tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sa - sb)) / 8.0;
    if (fabs(tmp) <= 1.0) {
        p = mod2pi(2.0 * PI - acos(tmp));
        t = mod2pi(alpha - atan2(ca - cb, d - sa + sb) + p / 2.0);
        consider(t, p, mod2pi(alpha - beta - t + p), "RLR", &found, best, word);
    }
    tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sb - sa)) / 8.0;
    if (fabs(tmp) <= 1.0) {
        p = mod2pi(2.0 * PI - acos(tmp));
        t = mod2pi(-alpha + atan2(-ca + cb, d + sa - sb) + p / 2.0);
        consider(t, p, mod2pi(mod2pi(beta) - alpha - t + p), "LRL", &found, best, word);
    }
    return found;
}

/* The heading after arc length s along the segments, as the numpy steps do it element by element. */
static double heading_at(double s, double h, int n_seg, const double *seg, const char *mode, double radius)
{
    for (int i = 0; i < n_seg; i++) {
        double take = s < seg[i] ? s : seg[i];
        if (mode[i] == 'L')
            h = h + take / radius;
        else if (mode[i] == 'R')
            h = h - take / radius;
        s = s - take;
    }
    return h;
}

static PyObject *empty; /* numpy.empty, which makes dubins_steer's result */

/* NULL with a ValueError whose format shows a and b as Python floats. */
static PyObject *value_error(const char *format, double a, double b)
{
    PyObject *x = PyFloat_FromDouble(a), *y = PyFloat_FromDouble(b);
    if (x && y)
        PyErr_Format(PyExc_ValueError, format, x, y);
    Py_XDECREF(x);
    Py_XDECREF(y);
    return NULL;
}

/* dubins_steer(dx, dy, dist, h0, h1, speed, radius, max_steps) -> float64 array, or None if no word is feasible:
   reference.steer_python.  The arguments are read as floats; max_steps may be inf. */
static PyObject *py_dubins_steer(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[8], best[4] = {0.0}, seg[3], length = 0.0;
    const char *word;
    char mode[3];
    int n_seg = 0;
    if (nargs != 8)
        return PyErr_Format(PyExc_TypeError, "dubins_steer takes 8 arguments (%zd given)", nargs);
    for (int i = 0; i < 8; i++)
        if ((a[i] = PyFloat_AsDouble(args[i])) == -1.0 && PyErr_Occurred())
            return NULL;
    double dx = a[0], dy = a[1], dist = a[2], h0 = a[3], h1 = a[4], speed = a[5], radius = a[6], cap = a[7];
    double theta = dist > 1e-12 ? atan2(dy, dx) : 0.0;
    if (!shortest_word(mod2pi(h0 - theta), mod2pi(h1 - theta), dist / radius, best, &word))
        Py_RETURN_NONE;
    for (int i = 0; i < 3; i++) {
        double len = best[i + 1] * radius;
        if (isinf(len))
            return value_error("path segment length must be finite, got %R * %R", best[i + 1], radius);
        if (len > 1e-12) {
            seg[n_seg] = len;
            mode[n_seg++] = word[i];
            length += len;
        }
    }
    double n = 0.0;
    if (length > 1e-12) {
        double q = length / speed;
        q = cap < q ? cap : q; /* capped before the count becomes an integer */
        if (isnan(q))
            return PyErr_Format(PyExc_ValueError, "cannot convert float NaN to integer");
        if (isinf(q))
            return value_error("step count must be finite, got length %R / speed %R", length, speed);
        n = ceil(q) < 1.0 ? 1.0 : ceil(q);
    }
    PyObject *count = PyLong_FromDouble(n), *out = count ? PyObject_CallOneArg(empty, count) : NULL;
    Py_XDECREF(count);
    Py_buffer b;
    if (!out || PyObject_GetBuffer(out, &b, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS)) {
        Py_XDECREF(out);
        return NULL;
    }
    double *controls = b.buf, prev = heading_at(0.0, h0, n_seg, seg, mode, radius);
    for (Py_ssize_t k = 1, steps = b.len / 8; k <= steps; k++) {
        double s = (double)k * speed;
        double h = heading_at(s < length ? s : length, h0, n_seg, seg, mode, radius);
        controls[k - 1] = h - prev;
        prev = h;
    }
    PyBuffer_Release(&b);
    return out;
}

/* nearest(poses, x, y, h, radius) -> int or list: reference.nearest_python on a C-contiguous float64 (n, 3) array.
   Each row scores hypot(x - px, y - py) + radius * min(a, 2 pi - a), a = |fmod(h - ph, 2 pi)|; the rows within
   1e-9 of the least score (NaN propagating, as in numpy's min) form the band.  A band of one row is returned as its
   index, any other band as a list. */
static PyObject *py_nearest(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double q[4];
    Py_buffer b;
    PyObject *result = NULL;
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "nearest takes 5 arguments (%zd given)", nargs);
    for (int i = 0; i < 4; i++)
        if ((q[i] = PyFloat_AsDouble(args[i + 1])) == -1.0 && PyErr_Occurred())
            return NULL;
    if (get_buffers(&b, args, 1))
        return NULL;
    if (!f8(&b) || !dense(&b) || b.ndim != 2 || b.shape[1] != 3)
        FAIL(PyExc_TypeError, "poses must be a C-contiguous float64 (n, 3) array");
    Py_ssize_t n = b.shape[0], count = 0, first = -1;
    const double *pose = b.buf;
    double *score = PyMem_Malloc((n ? n : 1) * sizeof *score), least = INFINITY;
    if (!score) {
        PyErr_NoMemory();
        goto release;
    }
    for (Py_ssize_t i = 0; i < n; i++, pose += 3) {
        double a = fabs(fmod(q[2] - pose[2], TWO_PI)), other = TWO_PI - a;
        score[i] = hypot(q[0] - pose[0], q[1] - pose[1]) + q[3] * (a <= other ? a : other);
        least = isnan(score[i]) || score[i] < least ? score[i] : least;
        if (isnan(least))
            break;
    }
    double band = least * (1.0 + 1e-9);
    for (Py_ssize_t i = 0; i < n && !isnan(least); i++)
        if (score[i] <= band && !count++)
            first = i;
    if (count == 1) {
        result = PyLong_FromSsize_t(first);
    } else if ((result = PyList_New(count))) {
        for (Py_ssize_t i = first, j = 0; j < count; i++) {
            PyObject *index = score[i] <= band ? PyLong_FromSsize_t(i) : NULL;
            if (index)
                PyList_SET_ITEM(result, j++, index);
            else if (PyErr_Occurred()) {
                Py_CLEAR(result);
                break;
            }
        }
    }
    PyMem_Free(score);
release:
    release_buffers(&b, 1);
    return result;
}

/* trig_moments(shifts, base, loc, variance, freqs, coefficients, out) -> float, on the arrays' buffers: shifts and
   out may be strided, freqs (F,) and the complex (F, P) coefficients, each purely real or purely imaginary (as
   distmoments._laurent_matrix makes them), must be C-contiguous, and out is (steps, P). */
static PyObject *py_trig_moments(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4], *sh = b, *fr = b + 1, *co = b + 2, *out = b + 3;
    PyObject *result = NULL;
    double p[3];
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "trig_moments takes 7 arguments (%zd given)", nargs);
    for (int i = 0; i < 3; i++)
        if ((p[i] = PyFloat_AsDouble(args[i + 1])) == -1.0 && PyErr_Occurred())
            return NULL;
    PyObject *arrays[4] = {args[0], args[4], args[5], args[6]};
    if (get_buffers(b, arrays, 4))
        return NULL;
    if (!(f8(sh) && f8(fr) && f8(out) && co->itemsize == 16 && !strcmp(co->format, "Zd")))
        FAIL(PyExc_TypeError, "shifts, freqs and out must be float64, coefficients complex128");
    if (sh->ndim != 1 || fr->ndim != 1 || co->ndim != 2 || co->shape[0] != fr->shape[0] || out->ndim != 2
        || out->shape[0] != sh->shape[0] || out->shape[1] != co->shape[1])
        FAIL(PyExc_ValueError, "shifts and freqs must be 1-d, coefficients (freqs, pairs) and out (shifts, pairs)");
    if (out->readonly)
        FAIL(PyExc_ValueError, "out must be writable");
    if (!(dense(fr) && dense(co)) || sh->strides[0] % 8 || out->strides[0] % 8 || out->strides[1] % 8)
        FAIL(PyExc_TypeError, "freqs and coefficients must be C-contiguous, shifts and out 8-byte aligned");
    double complex *v = PyMem_Malloc((fr->shape[0] ? fr->shape[0] : 1) * sizeof *v);
    if (!v) {
        PyErr_NoMemory();
        goto release;
    }
    result = PyFloat_FromDouble(trig_moments(sh->shape[0], sh->buf, sh->strides[0], p[0], p[1], p[2], fr->shape[0],
                                             fr->buf, co->shape[1], co->buf, out->buf, out->strides[0],
                                             out->strides[1], v));
    PyMem_Free(v);
release:
    release_buffers(b, 4);
    return result;
}

/* record_moments(factors, out, *columns) -> None: reference.record_moments_python, the Monte Carlo recorder.  Row j
   of the int64 (moments, max factors) factors holds moment j's codes: 2 * c for column c, 2 * c + 1 for it squared as
   x * x (np.square), ending at the first -1.  Per sample it forms the product in code order, its difference d from
   sample 0's (Chan, Golub & LeVeque 1983: identical samples give their value exactly and m2 = 0) and d * d; with s
   and q their sums, out[0, j] = shift + s / n and out[1, j] = max(q - s * s / n, 0.0).  np.sum adds n values
   pairwise: below 8 in sequence from -0.0, up to LEAF in 8 accumulators combined as below and then the rest, above
   LEAF as two halves split at n / 2 rounded down to a multiple of 8, and then adds the result to 0.0.  TypeError
   means that factors or a column is not C-contiguous int64, or 1-d float64 of one length n >= 1. */
#define LEAF 128

/* sums[2 j] and sums[2 j + 1]: moment j's pairwise sums of d and d * d over samples lo .. lo + n - 1, for all moments
   in one walk of the tree; the first leaf sets the shifts, and the levels below use sums + 2 * n_mom on. */
static void pairwise_sums(const Py_buffer *col, const int64_t *fact, int64_t n_mom, int64_t max_f, double *shift,
                          int64_t lo, int64_t n, double *sums)
{
    double *right = sums + 2 * n_mom, p[LEAF];
    if (n > LEAF) {
        int64_t half = n / 2 - n / 2 % 8;
        pairwise_sums(col, fact, n_mom, max_f, shift, lo, half, sums);
        pairwise_sums(col, fact, n_mom, max_f, shift, lo + half, n - half, right);
        for (int64_t j = 0; j < 2 * n_mom; j++)
            sums[j] = sums[j] + right[j];
        return;
    }
    for (int64_t j = 0, i, c; j < n_mom; j++) {
        const int64_t *f = fact + j * max_f;
        double s[8], q[8], a, b;
        for (c = 0; c < max_f && f[c] >= 0; c++) {
            const double *x = (const double *)col[f[c] >> 1].buf + lo;
            switch ((c > 0) << 1 | (f[c] & 1)) {
            case 0: for (i = 0; i < n; i++) p[i] = x[i]; break;
            case 1: for (i = 0; i < n; i++) p[i] = x[i] * x[i]; break;
            case 2: for (i = 0; i < n; i++) p[i] = p[i] * x[i]; break;
            default: for (i = 0; i < n; i++) p[i] = p[i] * (x[i] * x[i]);
            }
        }
        for (i = 0; !c && i < n; i++) p[i] = 1.0; /* a moment without factors */
        shift[j] = lo ? shift[j] : p[0];
        for (i = 0; i < 8 && n >= 8; i++) {
            s[i] = p[i] - shift[j];
            q[i] = s[i] * s[i];
        }
        for (; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++) {
                double d = p[i + k] - shift[j];
                s[k] = s[k] + d;
                q[k] = q[k] + d * d;
            }
        a = n < 8 ? -0.0 : ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
        b = n < 8 ? -0.0 : ((q[0] + q[1]) + (q[2] + q[3])) + ((q[4] + q[5]) + (q[6] + q[7]));
        for (; i < n; i++) {
            double d = p[i] - shift[j];
            a = a + d;
            b = b + d * d;
        }
        sums[2 * j] = a;
        sums[2 * j + 1] = b;
    }
}

static PyObject *py_record_moments(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 3)
        return PyErr_Format(PyExc_TypeError, "record_moments takes at least 3 arguments (%zd given)", nargs);
    Py_buffer *b = PyMem_Malloc(nargs * sizeof *b);
    if (!b)
        return PyErr_NoMemory();
    Py_buffer *fa = b, *out = b + 1, *col = b + 2;
    Py_ssize_t n_cols = nargs - 2;
    PyObject *result = NULL;
    if (get_buffers(b, args, nargs)) {
        PyMem_Free(b);
        return NULL;
    }
    if (!i8(fa) || !dense(fa) || fa->ndim != 2)
        FAIL(PyExc_TypeError, "factors must be a C-contiguous 2-d int64 array");
    for (Py_ssize_t c = 0; c < n_cols; c++)
        if (!f8(col + c) || !dense(col + c) || col[c].ndim != 1 || col[c].shape[0] != col[0].shape[0] || !col[0].len)
            FAIL(PyExc_TypeError, "columns must be C-contiguous 1-d float64 arrays of one length n >= 1");
    if (!f8(out) || out->readonly || !dense(out) || out->ndim != 2 || out->shape[0] != 2
        || out->shape[1] != fa->shape[0])
        FAIL(PyExc_ValueError, "out must be a writable C-contiguous float64 (2, moments) array");
    int64_t n = col[0].shape[0], n_mom = fa->shape[0], max_f = fa->shape[1], *fact = fa->buf;
    for (int64_t i = 0; i < n_mom * max_f; i++)
        if (fact[i] < -1 || fact[i] >= 2 * (int64_t)n_cols)
            FAIL(PyExc_IndexError, "a factor code is out of range");
    /* Each level of the tree about halves n, so bit_width(n) levels hold every level's sums. */
    double *sums = PyMem_Malloc(2 * n_mom * (64 - __builtin_clzll(n)) * sizeof *sums + 1), *mean = out->buf;
    if (!sums)
        FAIL(PyExc_MemoryError, "out of memory");
    Py_BEGIN_ALLOW_THREADS
    pairwise_sums(col, fact, n_mom, max_f, mean, 0, n, sums); /* mean holds the shifts until the means replace them */
    for (int64_t j = 0; j < n_mom; j++) {
        double s = 0.0 + sums[2 * j], q = 0.0 + sums[2 * j + 1] - s * s / (double)n;
        mean[j] = mean[j] + s / (double)n;
        mean[n_mom + j] = 0.0 > q ? 0.0 : q; /* Python's max(q, 0.0): NaN and -0.0 stay */
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(sums);
    result = Py_NewRef(Py_None);
release:
    release_buffers(b, nargs);
    PyMem_Free(b);
    return result;
}

static PyMethodDef methods[] = {{"run_steps", (PyCFunction)(void (*)(void))py_run_steps, METH_FASTCALL, NULL},
                                {"risk_bound", (PyCFunction)(void (*)(void))py_risk_bound, METH_FASTCALL, NULL},
                                {"dubins_steer", (PyCFunction)(void (*)(void))py_dubins_steer, METH_FASTCALL, NULL},
                                {"nearest", (PyCFunction)(void (*)(void))py_nearest, METH_FASTCALL, NULL},
                                {"trig_moments", (PyCFunction)(void (*)(void))py_trig_moments, METH_FASTCALL, NULL},
                                {"record_moments", (PyCFunction)(void (*)(void))py_record_moments, METH_FASTCALL,
                                 NULL},
                                {0}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "run_steps", NULL, -1, methods};

PyMODINIT_FUNC PyInit_run_steps(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (numpy && !empty)
        empty = PyObject_GetAttrString(numpy, "empty");
    Py_XDECREF(numpy);
    return empty ? PyModule_Create(&module) : NULL;
}
