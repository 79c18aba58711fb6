/* The compiled kernels of momentprop: one CPython extension module, `run_steps`, with seven entry points (run_steps,
   risk_bound, dubins_steer, grow_tree, trig_moments, record_moments, uniform_samples).  momentprop._kernels builds it
   on first use with the flags in _kernels._C_FLAGS; -ffp-contract=off keeps every product and sum rounded on its
   own, as numpy and Python round them.  Each entry point computes its twin's values in tests/reference.py, bit for bit.

   run_steps evaluates the loop of reference.run_steps_python in two phases per step.  Phase 1 computes every
   term's product: coeff * row[req], then times each factor in factor order.  The terms are grouped by factor
   count, so no -1 pad is multiplied.  Phase 2 sums each target's run of terms in table order, in a register that
   starts from the target's current value, so a target split over several runs adds in the same order too.  Each
   product and each sum is the reference's, operand for operand; only the order in which different terms and
   targets are evaluated changes, and no value depends on that.  With a table stride of 0 (one row serves every
   step) coeff * row[req] is taken once, the same product every step.  The grouped index arrays (group_terms) are
   built in O(terms), after the range checks, so int32 holds every index: once per run_steps call, once per tree in
   grow_tree.  The loop leaves the first non-finite (step, moment), or (-1, -1), in bad.  grow_tree runs it with a
   budget: each finite row's risk bound is added up, and the loop stops once the parent's risk plus that sum passes
   epsilon: each obstacle adds a value in [0, 1], never NaN, and rounded addition is monotone, so an edge stopped
   early would pass epsilon had it run every step.  It also writes each table row just before its step from the
   tree's moment plan (moment_row): a stopped edge takes no trig moments for steps it does not run, and a row is
   built once per distinct shift (bit pattern) per call, then copied from a direct-mapped table that the call frees.
   dubins_steer and grow_tree steer through one function, edge_path, which checks the two poses, takes their distance
   from CPython's math.hypot and finds the path. */

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

/* reference.trig_moments_python, operation for operation.  Each step's characteristic function values are numpy's,
   with shift = base + s, at every frequency t: a Gaussian's (p, q = mean, variance) exp(1j * t * (p + shift) -
   q * t * t / 2.0), a Uniform's (p, q = lower, upper) (exp(1j * t * b) - exp(1j * t * a)) / (1j * t * (q - p)) with
   a = p + shift, b = q + shift, and 1 + 0i at t = 0.  1j * t is the complex product (0 + 1i)(t + 0i), its product
   with a real x is a complex product with (x + 0i), a real subtracted is (g + 0i); numpy's complex exp is the C
   library's cexp, and its complex division is Smith's method, whose branch for |real| < |imaginary| serves the
   Uniform's denominator: its real part is +-0 and its imaginary part t * (q - p) is not.  Each Laurent sum then
   starts from the first frequency's product and adds the others in frequency order.  Returns the largest |imaginary
   part| of the sums, NaN if one is NaN, as np.maximum.reduce takes it. */
static double trig_moments(Py_ssize_t n_steps, const char *s, Py_ssize_t s_stride, double base, double p, double q,
                           int uniform, Py_ssize_t n_freqs, const double *freqs, Py_ssize_t n_pairs,
                           const double *coef, char *out, Py_ssize_t row_stride, Py_ssize_t col_stride,
                           double complex *v)
{
    double residue = 0.0;
    for (Py_ssize_t k = 0; k < n_steps; k++) {
        double shift = base + *(const double *)(s + k * s_stride), x = p + shift, y = q + shift;
        for (Py_ssize_t f = 0; f < n_freqs; f++) {
            double t = freqs[f], r = 0.0 * t - 1.0 * 0.0;
            if (!uniform) {
                double re = r * x - t * 0.0, im = r * 0.0 + t * x, g = q * t * t / 2.0;
                v[f] = cexp(CMPLX(re - g, im - 0.0));
            } else if (t == 0.0) {
                v[f] = CMPLX(1.0, 0.0);
            } else {
                double complex eb = cexp(CMPLX(r * y - t * 0.0, r * 0.0 + t * y));
                double complex ea = cexp(CMPLX(r * x - t * 0.0, r * 0.0 + t * x));
                double nr = creal(eb) - creal(ea), ni = cimag(eb) - cimag(ea), w = q - p;
                double dr = r * w - t * 0.0, di = r * 0.0 + t * w, rat = dr / di, scl = 1.0 / (di + dr * rat);
                v[f] = CMPLX((nr * rat + ni) * scl, (ni * rat - nr) * scl);
            }
        }
        for (Py_ssize_t j = 0; j < n_pairs; j++) {
            double sr = 0.0, si = 0.0;
            for (Py_ssize_t f = 0; f < n_freqs; f++) {
                const double *c = coef + 2 * (f * n_pairs + j);
                double vr = creal(v[f]), vi = cimag(v[f]);
                double pr = fused(c[0], vr, -(c[1] * vi)), pi = fused(c[0], vi, c[1] * vr);
                sr = f ? sr + pr : pr;
                si = f ? si + pi : pi;
            }
            *(double *)(out + k * row_stride + j * col_stride) = sr;
            double a = fabs(si);
            residue = isnan(a) || a > residue ? a : residue;
        }
    }
    return residue;
}

/* log2 of the slot count of grow_tree's row cache: 512 slots of a key and n_req doubles, about 45 KB for the planner's
   ten requirements, hold the distinct shifts of most trees, whose straight steps are all 0.0 and arc steps repeat. */
#define ROW_CACHE_BITS 9

/* grow_tree's moment plan (DisturbanceModel.steering_plan): the steered slot's schedule, base, p, q, uniform, freqs,
   coef and n_pairs columns from first in a copy of the slot row (column 0 is 1.0), each requirement's (n_factors,
   n_req) slot columns, the table whose rows it writes, and the residue of a row that failed.  keys, valid and rows
   are the row cache: slot h holds, if valid[h], the finished row of the shift whose bits are keys[h]. */
struct plan {
    const double *schedule, *freqs, *coef; const int64_t *factors; double *slots, *table, *rows; double complex *v;
    uint64_t *keys; unsigned char *valid;
    int64_t n_req, n_freqs, n_pairs, first, n_factors; double base, p, q, residue; int uniform;
};

/* Row t of the table: step t's trig moments into the slot row, then each requirement's product of its slot columns,
   left to right, as distmoments._products forms it.  1 if the residue passes the tolerance, else 0.  A row depends on
   nothing but step t's shift within one call, so it is taken from the row cache when a slot holds the shift's bits
   (the Fibonacci hash picks the slot), and a row that passes is stored there. */
static int moment_row(struct plan *p, int64_t t)
{
    double *slots = p->slots, *row = p->table + t * p->n_req;
    uint64_t key;
    memcpy(&key, p->schedule + t, sizeof key);
    size_t h = (size_t)((key * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - ROW_CACHE_BITS));
    double *cached = p->rows + h * p->n_req;
    if (p->valid[h] && p->keys[h] == key)
        return memcpy(row, cached, p->n_req * sizeof *row), 0;
    double residue = trig_moments(1, (const char *)(p->schedule + t), 0, p->base, p->p, p->q, p->uniform, p->n_freqs,
                                  p->freqs, p->n_pairs, p->coef, (char *)(slots + p->first), 0, sizeof *slots, p->v);
    if (residue > 1e-12) /* distmoments._IMAG_RESIDUE_TOL */
        return p->residue = residue, 1;
    for (int64_t j = 0; j < p->n_req; j++) {
        double v = slots[p->factors[j]];
        for (int64_t i = 1; i < p->n_factors; i++)
            v *= slots[p->factors[i * p->n_req + j]];
        row[j] = v;
    }
    memcpy(cached, row, p->n_req * sizeof *row);
    p->keys[h] = key, p->valid[h] = 1;
    return 0;
}

/* risk_bound's obstacles; run_steps' budget in (parent, epsilon, plan) and out (steps, total). */
struct budget {
    const int64_t *pos, *starts; const double *faces; int64_t n_faces, n_obs, steps; double parent, epsilon, total;
    struct plan *plan;
};

static inline double fmin_(double x, double y) { return isless(x, y) || isnan(y) ? x : y; } /* glibc's fmin, inline */

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
            best = fmin_(best, mean < 0.0 ? 1.0 : bound);
        }
        *total += fmin_(best, 1.0); /* fmin_ drops a NaN best: the term lies in [0, 1] */
    }
}

/* The term table grouped by factor count: group c holds the terms with c factors, in table order, at first[c] ..
   first[c + 1] - 1.  With a stationary table row, base holds coeff * row[req], else coeff. */
struct terms {
    int64_t n, max_f, n_runs, *first;
    double *base, *prod;
    int32_t *slot, *greq, *run_target, *run_end, *gfact;
};

/* Groups the n_terms terms: 0, 1 if an index is out of range, 2 if the arrays cannot be allocated.  free(g->first)
   and free(g->base) release them on every path. */
static int group_terms(struct terms *g, int64_t n, int64_t n_terms, int64_t max_f, int64_t n_req,
                       const int64_t *target, const double *coeff, const int64_t *req, const int64_t *fact,
                       const double *stationary)
{
    *g = (struct terms){.n = n, .max_f = max_f};
    if (n > INT32_MAX || n_req > INT32_MAX || n_terms > INT32_MAX / (max_f + 5))
        return 2;
    int64_t *first = g->first = calloc(3 * max_f + 4, sizeof *first);
    double *base = g->base = malloc(2 * n_terms * sizeof *base + (5 + max_f) * n_terms * sizeof(int32_t) + 1);
    if (!first || !base)
        return 2;
    int64_t *fill = first + max_f + 2, *fill_f = fill + max_f + 1, n_runs = 0;
    int32_t *slot = g->slot = (int32_t *)((g->prod = base + n_terms) + n_terms), *greq = g->greq = slot + n_terms;
    int32_t *count = greq + n_terms, *run_target = g->run_target = count + n_terms;
    int32_t *run_end = g->run_end = run_target + n_terms, *gfact = g->gfact = run_end + n_terms;
    for (int64_t k = 0; k < n_terms; k++) {
        if (target[k] < 0 || target[k] >= n || req[k] < 0 || req[k] >= n_req)
            return 1;
        int32_t c = 0;
        for (int64_t i = 0; i < max_f; i++) {
            if (fact[k * max_f + i] < -1 || fact[k * max_f + i] >= n)
                return 1;
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
        base[g] = stationary ? coeff[k] * stationary[req[k]] : coeff[k];
        for (int64_t i = 0; i < max_f; i++)
            if (f[i] >= 0)
                gfact[fill_f[count[k]]++] = (int32_t)f[i];
        if (k == 0 || target[k] != target[k - 1])
            run_target[n_runs++] = (int32_t)target[k];
        run_end[n_runs - 1] = (int32_t)(k + 1);
    }
    g->n_runs = n_runs;
    return 0;
}

/* n_steps steps from values0 into out; a NULL table is the stationary row folded into base. */
static void run_steps(const struct terms *g, int64_t n_steps, const double *table, int64_t table_stride,
                      const double *values0, double *out, int64_t *bad, struct budget *bud)
{
    const int64_t n = g->n, max_f = g->max_f, n_runs = g->n_runs, *first = g->first;
    const double *base = g->base;
    double *prod = g->prod;
    const int32_t *slot = g->slot, *greq = g->greq, *run_target = g->run_target, *run_end = g->run_end;
    const int32_t *gfact = g->gfact;
    bad[0] = -1;
    bad[1] = -1;
    for (int64_t j = 0; j < n; j++)
        out[j] = values0[j];
    for (int64_t t = 0; t < n_steps; t++) {
        const double *cur = out + t * n;
        double *next = out + (t + 1) * n;
        if (!table)
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
                return;
            }
        }
        if (__builtin_expect(bud != NULL, 0)) { /* out of line, so the loop without a budget is laid out as before */
            row_risk(next, bud, &bud->total);
            bud->steps = t + 1;
            if (!(bud->parent + bud->total <= bud->epsilon)
                || (t + 1 < n_steps && moment_row(bud->plan, t + 1))) /* row t + 1, within budget */
                break;
        }
    }
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

/* positions, faces and starts (b[0 .. 2]) in ob, as obstacles for rows of n moments, with n_pos positions: 0, or -1
   with TypeError (a dtype or layout), ValueError (a shape) or IndexError (a position or first face out of range)
   raised for entry. */
static int get_obstacles(const char *entry, Py_buffer *b, Py_ssize_t n, int n_pos, struct budget *ob)
{
#define REJECT(exc, msg) return PyErr_Format(exc, "%s: %s", entry, msg), -1 /* FAIL, returning -1 */
    Py_buffer *pos = b, *fc = b + 1, *st = b + 2;
    const int64_t *p = pos->buf, *s = st->buf;
    if (!(i8(pos) && f8(fc) && i8(st) && dense(pos) && dense(fc) && dense(st)))
        REJECT(PyExc_TypeError, "positions and starts must be C-contiguous int64, faces C-contiguous float64");
    if (pos->ndim != 1 || pos->shape[0] != n_pos || fc->ndim != 2 || fc->shape[0] != 6 || st->ndim != 1)
        REJECT(PyExc_ValueError, "positions must hold 5 entries (7 for grow_tree), faces 6 rows and starts 1-d");
    for (int i = 0; i < n_pos; i++)
        if (p[i] < 0 || p[i] >= n)
            REJECT(PyExc_IndexError, "a position is out of range");
    for (Py_ssize_t i = 0; i < st->shape[0]; i++)
        if (s[i] < 0 || s[i] >= fc->shape[1])
            REJECT(PyExc_IndexError, "an obstacle's first face is out of range");
    *ob = (struct budget){.pos = p, .starts = s, .faces = fc->buf, .n_faces = fc->shape[1], .n_obs = st->shape[0]};
    return 0;
}

/* run_steps(values0, table, target, coeff, req, fact, out) -> (bad_t, bad_j), on the arrays' buffers.  TypeError means
   an input is not float64 (int64 for target, req and fact) or not laid out as the loop reads it. */
static PyObject *py_run_steps(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[7], *v = b, *tab = b + 1, *tg = b + 2, *co = b + 3, *rq = b + 4, *fa = b + 5, *out = b + 6;
    PyObject *result = NULL;
    struct terms g;
    int64_t bad[2];
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError, "run_steps takes 7 arguments (%zd given)", nargs);
    if (get_buffers(b, args, 7))
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
    const double *stationary = tab->strides[0] == 0 && tab->shape[0] ? tab->buf : NULL;
    int status = group_terms(&g, v->shape[0], tg->shape[0], fa->shape[1], tab->shape[1], tg->buf, co->buf, rq->buf,
                             fa->buf, stationary);
    if (!status) {
        Py_BEGIN_ALLOW_THREADS
        run_steps(&g, tab->shape[0], stationary ? NULL : tab->buf, tab->strides[0] / 8, v->buf, out->buf, bad, NULL);
        Py_END_ALLOW_THREADS
    }
    free(g.first);
    free(g.base);
    if (status == 1)
        FAIL(PyExc_IndexError, "a term's target, requirement or factor index is out of range");
    if (status)
        FAIL(PyExc_MemoryError, "the kernel's index arrays cannot be allocated");
    result = Py_BuildValue("(LL)", (long long)bad[0], (long long)bad[1]);
release:
    release_buffers(b, 7);
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
    if (get_obstacles("risk_bound", b + 1, v->shape[1], 5, &ob))
        goto release;
    double total = 0.0;
    for (Py_ssize_t t = 1; t < v->shape[0]; t++)
        row_risk((const double *)v->buf + t * v->shape[1], &ob, &total);
    result = PyFloat_FromDouble(total);
release:
    release_buffers(b, 4);
    return result;
}

/* The planner's geometry, as reference.shortest_path, reference.steer_python and reference.nearest_node compute it:
   every libm call, product, sum and comparison in the same order.  Python's float % is fmod with the divisor's
   sign; math.sin, cos, atan2, acos and sqrt are libm's for these arguments; math.hypot is not, so hypot_py calls
   CPython's. */
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

/* The shortest word's kept segments (longer than 1e-12), its length and dubins_steer's other arguments. */
struct path {
    double seg[3], length, h0, speed, radius;
    char mode[3];
    int n_seg;
};

/* The heading after arc length s along the path, as the numpy steps do it element by element. */
static double heading_at(double s, const struct path *path)
{
    double h = path->h0;
    for (int i = 0; i < path->n_seg; i++) {
        double take = s < path->seg[i] ? s : path->seg[i];
        if (path->mode[i] == 'L')
            h = h + take / path->radius;
        else if (path->mode[i] == 'R')
            h = h - take / path->radius;
        s = s - take;
    }
    return h;
}

static PyObject *empty, *math_hypot; /* numpy.empty, which makes the controls arrays, and CPython's math.hypot */

/* NULL with a ValueError whose format shows the new references a and b (b may be NULL if format has one %R). */
static void *value_error(const char *format, PyObject *a, PyObject *b)
{
    if (a && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, format, a, b);
    Py_XDECREF(a);
    Py_XDECREF(b);
    return NULL;
}

static PyObject *floats(double a) { return PyFloat_FromDouble(a); }
static PyObject *pose_tuple(const double *p) { return Py_BuildValue("(ddd)", p[0], p[1], p[2]); }

/* math.hypot(a, b), CPython's own algorithm (libm's hypot may differ from it by an ulp, and it differs between CPython
   versions), or -1.0 with an exception raised. */
static double hypot_py(double a, double b)
{
    PyObject *r = PyObject_CallFunction(math_hypot, "dd", a, b);
    double d = r ? PyFloat_AsDouble(r) : -1.0;
    Py_XDECREF(r);
    return d;
}

/* reference.steer_python's path and step count from pose a to pose b, each (x, y, heading): the count (0 for
   coincident poses), -2 if no word is feasible, or -1 with an exception raised, a ValueError naming the values for an
   infinite coordinate or a distance (math.hypot's) that overflows in turning radii.  A NaN passes and finds no word.
   cap may be inf. */
static double edge_path(const double *a, const double *b, double speed, double radius, double cap, struct path *path)
{
    double dx = b[0] - a[0], dy = b[1] - a[1], dist, best[4] = {0.0};
    const char *word;
    if (isinf(a[0]) || isinf(a[1]) || isinf(a[2]) || isinf(b[0]) || isinf(b[1]) || isinf(b[2]))
        return value_error("pose coordinates must not be infinite, got %R and %R", pose_tuple(a), pose_tuple(b)), -1.0;
    if ((dist = hypot_py(dx, dy)) < 0.0)
        return -1.0;
    if (isinf(dist / radius))
        return value_error("distance / radius must be finite, got %R / %R", floats(dist), floats(radius)), -1.0;
    double theta = dist > 1e-12 ? atan2(dy, dx) : 0.0;
    *path = (struct path){.h0 = a[2], .speed = speed, .radius = radius};
    if (!shortest_word(mod2pi(a[2] - theta), mod2pi(b[2] - theta), dist / radius, best, &word))
        return -2.0;
    for (int i = 0; i < 3; i++) {
        double len = best[i + 1] * radius;
        if (isinf(len))
            return value_error("path segment length must be finite, got %R * %R", floats(best[i + 1]), floats(radius)),
                   -1.0;
        if (len > 1e-12) {
            path->seg[path->n_seg] = len;
            path->mode[path->n_seg++] = word[i];
            path->length += len;
        }
    }
    if (!(path->length > 1e-12))
        return 0.0;
    double q = path->length / speed;
    q = cap < q ? cap : q; /* capped before the count becomes an integer */
    if (isnan(q))
        return PyErr_SetString(PyExc_ValueError, "cannot convert float NaN to integer"), -1.0;
    if (isinf(q))
        return value_error("step count must be finite, got length %R / speed %R", floats(path->length), floats(speed)),
               -1.0;
    return ceil(q) < 1.0 ? 1.0 : ceil(q);
}

/* The per-step heading increments of the first `steps` steps along the path. */
static void fill_controls(const struct path *path, double *controls, Py_ssize_t steps)
{
    double prev = heading_at(0.0, path);
    for (Py_ssize_t k = 1; k <= steps; k++) {
        double s = (double)k * path->speed;
        double h = heading_at(s < path->length ? s : path->length, path);
        controls[k - 1] = h - prev;
        prev = h;
    }
}

/* A new float64 array of n entries (numpy.empty), its buffer held in b; NULL with an exception on failure. */
static PyObject *new_array(double n, Py_buffer *b)
{
    PyObject *count = PyLong_FromDouble(n), *out = count ? PyObject_CallOneArg(empty, count) : NULL;
    Py_XDECREF(count);
    if (out && PyObject_GetBuffer(out, b, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS))
        Py_CLEAR(out);
    return out;
}

/* dubins_steer(x0, y0, h0, x1, y1, h1, speed, radius, max_steps) -> float64 array, or None if no word is feasible:
   reference.steer_python.  The arguments are read as floats; max_steps may be inf. */
static PyObject *py_dubins_steer(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double a[9];
    struct path path;
    Py_buffer b;
    if (nargs != 9)
        return PyErr_Format(PyExc_TypeError, "dubins_steer takes 9 arguments (%zd given)", nargs);
    for (int i = 0; i < 9; i++)
        if ((a[i] = PyFloat_AsDouble(args[i])) == -1.0 && PyErr_Occurred())
            return NULL;
    double steps = edge_path(a, a + 3, a[6], a[7], a[8], &path);
    if (steps == -2.0)
        Py_RETURN_NONE;
    PyObject *out = steps < 0.0 ? NULL : new_array(steps, &b);
    if (out) {
        fill_controls(&path, b.buf, b.len / 8);
        PyBuffer_Release(&b);
    }
    return out;
}

/* The first of the n poses (rows `width` apart) that minimizes hypot(dx, dy) + radius * |remainder(dh, 2 pi)| to q,
   as reference.nearest_node picks it: every pose scored with libm's hypot and fmod, as np.hypot and np.fmod score it
   (|fmod| folded onto [0, pi] is that remainder exactly), and the poses within 1e-9 of the least score (NaN
   propagating, as in numpy's min) settled by the key with CPython's math.hypot, in order.  n >= 1.  -1 with ValueError
   for a NaN score, naming the radius or else the first non-finite pose, q first. */
static Py_ssize_t nearest(const double *pose, Py_ssize_t width, Py_ssize_t n, const double *q, double radius,
                          double *score)
{
    double least = INFINITY, best_key = 0.0;
    Py_ssize_t best = -1, tied = 0;
    for (Py_ssize_t i = 0; i < n && !isnan(least); i++) {
        const double *p = pose + i * width;
        double a = fabs(fmod(q[2] - p[2], TWO_PI)), other = TWO_PI - a;
        score[i] = hypot(q[0] - p[0], q[1] - p[1]) + radius * (a <= other ? a : other);
        least = isnan(score[i]) || score[i] < least ? score[i] : least;
    }
    if (isnan(least) && !isfinite(radius))
        return value_error("nearest-node radius must be finite, got %R", floats(radius), NULL), -1;
    for (Py_ssize_t i = -1; isnan(least) && i < n; i++) {
        const double *p = i < 0 ? q : pose + i * width;
        if (!(isfinite(p[0]) && isfinite(p[1]) && isfinite(p[2])))
            return value_error("nearest-node poses must be finite, got %R", pose_tuple(p), NULL), -1;
    }
    double band = least * (1.0 + 1e-9);
    for (Py_ssize_t i = 0; i < n; i++)
        if (score[i] <= band && !tied++)
            best = i;
    for (Py_ssize_t i = best, first = 1; tied > 1 && i < n; i++) { /* a near tie: the first least key */
        const double *p = pose + i * width;
        if (!(score[i] <= band))
            continue;
        double key = hypot_py(q[0] - p[0], q[1] - p[1]);
        if (key < 0.0)
            return -1;
        key = key + radius * fabs(remainder(q[2] - p[2], TWO_PI));
        if (first || key < best_key)
            best = i, best_key = key, first = 0;
    }
    return best;
}

/* grow_tree(samples, nodes, target, coeff, req, fact, positions, faces, starts, epsilon, speed, radius, max_steps,
             slots, factors, freqs, coefficients, base, p, q, uniform, first, outcomes) -> list: planner.build_rrt's
   loop over the (iterations, 3) samples, reference.grow_tree_python.  Row 0 of nodes, (iterations + 1, 5 + n), is
   the root: pose (x, y, heading), risk, parent, n moments.  Per sample: the nearest node, its Dubins controls, then
   the budgeted step loop with the table rows built from the moment plan (slots ... first, steering_plan's).  An edge
   whose rows stay finite and whose risk (the parent's plus its bound) is at most epsilon fills the next row of
   nodes, with the arrival's (E[x], E[y], atan2(E[sin], E[cos])) and its parent's index as a float, and adds its
   controls to the list returned.  positions holds risk_bound's five, then the heading's cos and sin.  Row i of
   outcomes, (iterations, 2), gets sample i's cause (planner.OUTCOMES) and the steps run.  The caller checks speed,
   radius and max_steps.  The call holds the GIL: the distance and a near tie's key are math.hypot's. */
static PyObject *py_grow_tree(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[14], *sm = b, *nd = b + 1, *tg = b + 2, *co = b + 3, *rq = b + 4, *fa = b + 5, *sl = b + 9;
    Py_buffer *fs = b + 10, *fr = b + 11, *lc = b + 12, *oc = b + 13;
    PyObject *arrays[14], *result = NULL;
    double *scratch = NULL;
    Py_ssize_t capacity = 0, count = 1;
    struct terms g = {0};
    struct budget bud;
    if (nargs != 23)
        return PyErr_Format(PyExc_TypeError, "grow_tree takes 23 arguments (%zd given)", nargs);
    double epsilon = PyFloat_AsDouble(args[9]), speed = PyFloat_AsDouble(args[10]), radius = PyFloat_AsDouble(args[11]);
    double cap = PyFloat_AsDouble(args[12]);
    struct plan plan = {.base = PyFloat_AsDouble(args[17]), .p = PyFloat_AsDouble(args[18]),
                        .q = PyFloat_AsDouble(args[19]), .uniform = PyObject_IsTrue(args[20]),
                        .first = PyLong_AsLongLong(args[21])};
    if (PyErr_Occurred())
        return NULL;
    for (int i = 0; i < 14; i++)
        arrays[i] = args[i < 9 ? i : i < 13 ? i + 4 : 22]; /* the arrays, not the numbers */
    if (get_buffers(b, arrays, 14))
        return NULL;
    if (!(f8(sm) && f8(nd) && i8(tg) && f8(co) && i8(rq) && i8(fa) && f8(sl) && i8(fs) && f8(fr) && i8(oc)
          && lc->itemsize == 16 && !strcmp(lc->format, "Zd")))
        FAIL(PyExc_TypeError, "samples, nodes, coeff, slots and freqs must be float64, coefficients complex128, the "
                              "other arrays int64");
    for (int i = 0; i < 14; i++)
        if (!dense(b + i))
            FAIL(PyExc_TypeError, "the arrays must be C-contiguous");
    if (sm->ndim != 2 || sm->shape[1] != 3 || nd->ndim != 2 || nd->readonly || nd->shape[0] != sm->shape[0] + 1
        || nd->shape[1] < 5 || oc->ndim != 2 || oc->readonly || oc->shape[0] != sm->shape[0] || oc->shape[1] != 2)
        FAIL(PyExc_ValueError, "samples must be (iterations, 3), nodes writable (iterations + 1, 5 + moments) and "
                               "outcomes writable (iterations, 2)");
    if (tg->ndim != 1 || co->ndim != 1 || rq->ndim != 1 || fa->ndim != 2 || co->shape[0] != tg->shape[0]
        || rq->shape[0] != tg->shape[0] || fa->shape[0] != tg->shape[0] || sl->ndim != 1 || fs->ndim != 2
        || fs->shape[0] < 1 || fr->ndim != 1 || lc->ndim != 2 || lc->shape[0] != fr->shape[0])
        FAIL(PyExc_ValueError, "target, coeff, req and fact must have one entry per term, fact 2-d; slots and freqs "
                               "must be 1-d, factors (n >= 1, requirements) and coefficients (freqs, m)");
    Py_ssize_t width = nd->shape[1], n = width - 5, n_req = fs->shape[1];
    if (get_obstacles("grow_tree", b + 6, n, 7, &bud))
        goto release;
    plan.freqs = fr->buf, plan.coef = lc->buf, plan.factors = fs->buf, plan.n_req = n_req;
    plan.n_freqs = fr->shape[0], plan.n_pairs = lc->shape[1], plan.n_factors = fs->shape[0];
    for (Py_ssize_t i = 0; i < fs->shape[0] * n_req; i++)
        if (plan.factors[i] < 0 || plan.factors[i] >= sl->shape[0])
            FAIL(PyExc_IndexError, "a factor's slot column is out of range");
    if (plan.first < 0 || plan.first > sl->shape[0] - plan.n_pairs)
        FAIL(PyExc_IndexError, "the steered columns are out of range");
    int status = group_terms(&g, n, tg->shape[0], fa->shape[1], n_req, tg->buf, co->buf, rq->buf, fa->buf, NULL);
    if (status == 1)
        FAIL(PyExc_IndexError, "a term's target, requirement or factor index is out of range");
    /* The characteristic function values, the slot row's copy, the nodes' scores and the row cache, for this call */
    size_t cache_slots = (size_t)1 << ROW_CACHE_BITS, row_bytes = n_req * sizeof *plan.rows + sizeof *plan.keys + 1;
    plan.v = PyMem_Malloc(plan.n_freqs * sizeof *plan.v + sl->len + nd->shape[0] * sizeof *plan.slots
                          + cache_slots * row_bytes);
    if (status || !plan.v || !(result = PyList_New(0)))
        FAIL(PyExc_MemoryError, "out of memory");
    memcpy(plan.slots = (double *)(plan.v + plan.n_freqs), sl->buf, sl->len);
    double *nodes = nd->buf, *score = plan.slots + sl->shape[0];
    plan.rows = score + nd->shape[0];
    plan.keys = (uint64_t *)(plan.rows + cache_slots * n_req);
    memset(plan.valid = (unsigned char *)(plan.keys + cache_slots), 0, cache_slots);
    bud.epsilon = epsilon, bud.plan = &plan;
    for (Py_ssize_t i = 0; i < sm->shape[0]; i++) {
        const double *s = (const double *)sm->buf + 3 * i;
        int64_t *outcome = (int64_t *)oc->buf + 2 * i, bad[2] = {-1, -1};
        Py_ssize_t near = nearest(nodes, width, count, s, radius, score);
        if (near < 0)
            goto release;
        const double *parent = nodes + near * width;
        struct path path;
        double steps = edge_path(parent, s, speed, radius, cap, &path);
        if (steps == -1.0)
            goto release;
        outcome[0] = steps < 0.0 ? 1 : 2;
        outcome[1] = 0;
        if (steps <= 0.0)
            continue;
        if (!(steps * (2 + n + n_req) < 1e15))
            FAIL(PyExc_MemoryError, "out of memory");
        Py_ssize_t m = (Py_ssize_t)steps, need = m * (1 + n + n_req) + n;
        if (need > capacity) { /* room for the controls, the edge's moments and its table rows */
            double *grown = PyMem_Realloc(scratch, need * sizeof *scratch);
            if (!grown)
                FAIL(PyExc_MemoryError, "out of memory");
            scratch = grown, capacity = need;
        }
        double *controls = scratch, *out = controls + m;
        fill_controls(&path, controls, m);
        plan.schedule = controls;
        plan.table = out + (m + 1) * n;
        bud.parent = parent[3], bud.total = 0.0, bud.steps = 0;
        if (!moment_row(&plan, 0))
            run_steps(&g, m, plan.table, n_req, parent + 5, out, bad, &bud);
        if (plan.residue) { /* distmoments._slot_moments' error */
            char *text = PyOS_double_to_string(plan.residue, 'g', 6, 0, NULL);
            if (text)
                PyErr_Format(PyExc_ArithmeticError, "trig moment has non-real residue %s", text);
            PyMem_Free(text);
            goto release;
        }
        double risk = bud.parent + bud.total, *row = out + m * n, *node = nodes + count * width;
        outcome[0] = bad[0] >= 0 ? 3 : risk <= epsilon ? 0 : 4;
        outcome[1] = bad[0] >= 0 ? bad[0] : bud.steps;
        if (outcome[0])
            continue;
        node[0] = row[bud.pos[0]], node[1] = row[bud.pos[1]], node[2] = atan2(row[bud.pos[6]], row[bud.pos[5]]);
        node[3] = risk, node[4] = (double)near;
        memcpy(node + 5, row, n * sizeof *row);
        Py_buffer kept;
        PyObject *edge = new_array(steps, &kept);
        if (!edge)
            goto release;
        memcpy(kept.buf, controls, m * sizeof *controls);
        PyBuffer_Release(&kept);
        status = PyList_Append(result, edge);
        Py_DECREF(edge);
        if (status)
            goto release;
        count++;
    }
release:
    if (PyErr_Occurred())
        Py_CLEAR(result);
    free(g.first);
    free(g.base);
    PyMem_Free(plan.v);
    PyMem_Free(scratch);
    release_buffers(b, 14);
    return result;
}

/* trig_moments(shifts, base, p, q, freqs, coefficients, out, uniform) -> float, on the arrays' buffers: the trig
   moments of Gaussian(p, q), or of Uniform(p, q) if uniform is true, at base + each shift.  shifts and out may be
   strided, freqs (F,) and the complex (F, P) coefficients, each purely real or purely imaginary (as
   distmoments._laurent_matrix makes them), must be C-contiguous, and out is (steps, P). */
static PyObject *py_trig_moments(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4], *sh = b, *fr = b + 1, *co = b + 2, *out = b + 3;
    PyObject *result = NULL;
    double p[3];
    if (nargs != 8)
        return PyErr_Format(PyExc_TypeError, "trig_moments takes 8 arguments (%zd given)", nargs);
    for (int i = 0; i < 3; i++)
        if ((p[i] = PyFloat_AsDouble(args[i + 1])) == -1.0 && PyErr_Occurred())
            return NULL;
    int uniform = PyObject_IsTrue(args[7]);
    PyObject *arrays[4] = {args[0], args[4], args[5], args[6]};
    if (uniform < 0 || get_buffers(b, arrays, 4))
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
    result = PyFloat_FromDouble(trig_moments(sh->shape[0], sh->buf, sh->strides[0], p[0], p[1], p[2], uniform,
                                             fr->shape[0], fr->buf, co->shape[1], co->buf, out->buf, out->strides[0],
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
   and q their sums, out[0, j] = shift + s / n and out[1, j] = max(q - s * s / n, 0.0), each NaN written as NAN.
   np.sum adds n values pairwise: below 8 in sequence from -0.0, up to LEAF in 8 accumulators combined as below and
   then the rest, above LEAF as two halves split at n / 2 rounded down to a multiple of 8, and then adds the result to
   0.0.  TypeError means that factors or a column is not C-contiguous int64, or 1-d float64 of one length n >= 1. */
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
        double s = 0.0 + sums[2 * j], q = 0.0 + sums[2 * j + 1] - s * s / (double)n, m = mean[j] + s / (double)n;
        /* A NaN's sign depends on the operand order the compiler picks, so each NaN is written as the quiet NaN. */
        mean[j] = isnan(m) ? NAN : m;
        mean[n_mom + j] = isnan(q) ? NAN : 0.0 > q ? 0.0 : q; /* Python's max(q, 0.0): -0.0 stays */
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(sums);
    result = Py_NewRef(Py_None);
release:
    release_buffers(b, nargs);
    PyMem_Free(b);
    return result;
}

/* numpy's SeedSequence hashmix, whose running constant *h advances by mult, and its mix of a pool word x with y. */
static uint32_t hashmix(uint32_t v, uint32_t *h, uint32_t mult) { v ^= *h; v *= *h *= mult; return v ^ v >> 16; }
static uint32_t mix(uint32_t x, uint32_t y) { x = 0xca01f9ddu * x - 0x4973f715u * y; return x ^ x >> 16; }

/* uniform_samples(entropy, low, high, out): np.random.Generator(np.random.PCG64(seed)).uniform(low, high, out.shape)
   into out, bit for bit: out (n, k), low and high (k,), C-contiguous float64, each high - low finite and non-negative,
   entropy the seed's little-endian uint32 words (0 as one word).  numpy's SeedSequence mixes them into a pool of four,
   whose generate_state(4, uint64) seeds PCG64; each XSL-RR output x gives low + (high - low) * ((x >> 11) * 2^-53). */
static PyObject *py_uniform_samples(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[4], *en = b, *lo = b + 1, *hi = b + 2, *out = b + 3;
    PyObject *result = NULL;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "uniform_samples takes 4 arguments (%zd given)", nargs);
    if (get_buffers(b, args, 4))
        return NULL;
    if (!(dense(en) && f8(lo) && f8(hi) && f8(out) && dense(lo) && dense(hi) && dense(out)))
        FAIL(PyExc_TypeError, "entropy must be contiguous, low, high and out C-contiguous float64");
    Py_ssize_t n_words = en->len / 4, k = lo->ndim == 1 ? lo->shape[0] : -1;
    if (!n_words || en->len % 4 || hi->ndim != 1 || hi->shape[0] != k || out->readonly || out->ndim != 2
        || out->shape[1] != k)
        FAIL(PyExc_ValueError, "entropy must hold one or more 32-bit words, low and high (k,) and out writable (n, k)");
    double *l = lo->buf, *u = hi->buf, *o = out->buf;
    for (Py_ssize_t j = 0; j < k; j++)
        if (!(u[j] - l[j] >= 0.0 && u[j] - l[j] < INFINITY))
            FAIL(PyExc_ValueError, "high - low must be finite and non-negative");
    const unsigned char *e = en->buf;
#define WORD(i) (e[4 * (i)] | e[4 * (i) + 1] << 8 | e[4 * (i) + 2] << 16 | (uint32_t)e[4 * (i) + 3] << 24)
    uint32_t pool[4], h = 0x43b0d7e5u;
    uint64_t q[4] = {0};
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n_words ? WORD(i) : 0, &h, 0x931e8875u);
    for (int i = 0; i < 16; i++) /* each pool word i / 4 into each other one, i % 4 */
        if (i / 4 != i % 4)
            pool[i % 4] = mix(pool[i % 4], hashmix(pool[i / 4], &h, 0x931e8875u));
    for (Py_ssize_t i = 16; i < 4 * n_words; i++) /* each word past the fourth into each pool word */
        pool[i % 4] = mix(pool[i % 4], hashmix(WORD(i / 4), &h, 0x931e8875u));
    h = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++)
        q[i / 2] |= (uint64_t)hashmix(pool[i % 4], &h, 0x58f38dedu) << 32 * (i % 2);
    typedef unsigned __int128 u128; /* PCG64's seeding: state 0, a step, the seed added, a step */
    const u128 mult = (u128)2549297995355413924u << 64 | 4865540595714422341u;
    u128 inc = ((u128)q[2] << 64 | q[3]) << 1 | 1, state = (inc + ((u128)q[0] << 64 | q[1])) * mult + inc;
    for (Py_ssize_t i = 0; i < out->shape[0] * k; i++) {
        state = state * mult + inc;
        uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state, r = state >> 122;
        x = x >> r | x << (-r & 63);
        o[i] = l[i % k] + (u[i % k] - l[i % k]) * ((double)(x >> 11) * 0x1.0p-53);
    }
    result = Py_NewRef(Py_None);
release:
    release_buffers(b, 4);
    return result;
}

static PyMethodDef methods[] = {{"run_steps", (PyCFunction)(void (*)(void))py_run_steps, METH_FASTCALL, NULL},
                                {"risk_bound", (PyCFunction)(void (*)(void))py_risk_bound, METH_FASTCALL, NULL},
                                {"dubins_steer", (PyCFunction)(void (*)(void))py_dubins_steer, METH_FASTCALL, NULL},
                                {"grow_tree", (PyCFunction)(void (*)(void))py_grow_tree, METH_FASTCALL, NULL},
                                {"trig_moments", (PyCFunction)(void (*)(void))py_trig_moments, METH_FASTCALL, NULL},
                                {"record_moments", (PyCFunction)(void (*)(void))py_record_moments, METH_FASTCALL,
                                 NULL},
                                {"uniform_samples", (PyCFunction)(void (*)(void))py_uniform_samples, METH_FASTCALL,
                                 NULL},
                                {0}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "run_steps", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit_run_steps(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy"), *math = PyImport_ImportModule("math");
    if (numpy && !empty)
        empty = PyObject_GetAttrString(numpy, "empty");
    if (math && !math_hypot)
        math_hypot = PyObject_GetAttrString(math, "hypot");
    Py_XDECREF(numpy);
    Py_XDECREF(math);
    return empty && math_hypot ? PyModule_Create(&module) : NULL;
}
