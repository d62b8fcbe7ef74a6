/* Compiled hot paths for the repro counter tables and ingest kernel.
 *
 * Every routine in this file is a line-for-line port of an interpreted
 * loop elsewhere in the package, constrained to be *bit-identical* to
 * it: same IEEE-754 operation sequence, same xoroshiro128++ word
 * sequence, same table layouts, same probe accounting as the scalar
 * call sequence.  The Python sources remain the executable
 * specification — the golden-hash and differential-fuzz suites run
 * against both paths and must agree exactly.
 *
 * Ported loops:
 *   - repro.hashing.mixers.fmix64 / hash_u64        -> fmix64, hash_seeded
 *   - repro.prng.xoroshiro.Xoroshiro128PlusPlus     -> xoro_next (randrange
 *     over a power-of-two table length accepts every draw)
 *   - repro.table.probing scalar get/add_to/insert  -> lp_find/lp_insert_absent
 *   - LinearProbingTable adjust_all + purge         -> decrement_purge (the
 *     placement rule of _purge_rebuild, run in place in O(L); both NumPy
 *     purge strategies are layout-identical to it)
 *   - SampleQuantilePolicy.decrement_value          -> sq_decrement (the
 *     order statistic by selection, as the paper does, where the Python
 *     "auto" selector sorts; one rank has one value)
 *   - SketchKernel.ingest (the scalar loop the segmented batch path is
 *     defined to be per-update-equivalent to)        -> py_ingest_batch
 *   - BatchGrouper.group                            -> py_group
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------------------------------------------------------------------
 * array access helpers
 * ------------------------------------------------------------------------- */

static void *
arr_data(PyObject *obj, int typenum, int writeable, const char *name)
{
    PyArrayObject *arr;
    if (!PyArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a numpy array", name);
        return NULL;
    }
    arr = (PyArrayObject *)obj;
    if (PyArray_TYPE(arr) != typenum || PyArray_NDIM(arr) != 1 ||
        !(writeable ? PyArray_ISCARRAY(arr) : PyArray_ISCARRAY_RO(arr))) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a 1-D C-contiguous array of the expected "
                     "dtype", name);
        return NULL;
    }
    return PyArray_DATA(arr);
}

static npy_intp
arr_len(PyObject *obj)
{
    return PyArray_DIM((PyArrayObject *)obj, 0);
}

/* ---------------------------------------------------------------------------
 * hashing (repro.hashing.mixers, bit-identical)
 * ------------------------------------------------------------------------- */

static inline uint64_t
fmix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

/* hash_u64(key, seed) with the seed already folded to
 * (seed * GOLDEN) & MASK64 on the Python side. */
static inline uint64_t
hash_seeded(uint64_t key, uint64_t seedmix)
{
    return fmix64(fmix64(key) ^ seedmix);
}

/* ---------------------------------------------------------------------------
 * xoroshiro128++ (repro.prng.xoroshiro, bit-identical word sequence)
 * ------------------------------------------------------------------------- */

typedef struct {
    uint64_t s0;
    uint64_t s1;
} xoro_t;

static inline uint64_t
rotl64(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

static inline uint64_t
xoro_next(xoro_t *rng)
{
    uint64_t s0 = rng->s0;
    uint64_t s1 = rng->s1;
    uint64_t result = rotl64(s0 + s1, 17) + s0;
    s1 ^= s0;
    rng->s0 = rotl64(s0, 49) ^ s1 ^ (s1 << 21);
    rng->s1 = rotl64(s1, 28);
    return result;
}

/* ---------------------------------------------------------------------------
 * scalar probe walks (ports of the Python scalar methods, including the
 * exact probe_count accounting of the scalar call sequence)
 * ------------------------------------------------------------------------- */

/* Linear-probing lookup; returns 1 and *slot_out when found.  Charges
 * probes exactly like LinearProbingTable.get / add_to. */
static inline int
lp_find(const uint64_t *tk, const int64_t *ts, uint64_t mask, uint64_t seedmix,
        uint64_t key, uint64_t *slot_out, int64_t *probe_total)
{
    uint64_t slot = hash_seeded(key, seedmix) & mask;
    int64_t probes = 0;
    while (ts[slot] != 0) {
        probes += 1;
        if (tk[slot] == key) {
            *probe_total += probes;
            *slot_out = slot;
            return 1;
        }
        slot = (slot + 1) & mask;
    }
    *probe_total += probes + 1;
    return 0;
}

/* FCFS insert of a key known to be absent (the ingest path guarantees
 * it: add_to just missed).  Charges probes like the scalar insert. */
static inline void
lp_insert_absent(uint64_t *tk, double *tv, int64_t *ts, uint64_t mask,
                 uint64_t seedmix, uint64_t key, double value,
                 int64_t *probe_total)
{
    uint64_t home = hash_seeded(key, seedmix) & mask;
    uint64_t slot = home;
    int64_t probes = 0;
    while (ts[slot] != 0) {
        probes += 1;
        slot = (slot + 1) & mask;
    }
    tk[slot] = key;
    tv[slot] = value;
    ts[slot] = (int64_t)((slot - home) & mask) + 1;
    *probe_total += probes + 1;
}

/* ---------------------------------------------------------------------------
 * decrement + purge in place (port of LinearProbingTable._purge_rebuild)
 * ------------------------------------------------------------------------- */

/* Add `neg` to every live counter and free those that end up
 * non-positive.  The decrement pass passes -c*; a plain purge passes
 * -0.0, which leaves every value's bits unchanged.
 *
 * A branch-free sweep subtracts and frees: half the counters die in a
 * decrement pass, so a branch on each would mispredict half the time
 * (the bit masks keep the compiler from emitting one).
 * A second walk then visits slots in cyclic run order, from just past
 * a cell that was empty before the sweep, so every probe run is walked
 * start to end even when it wraps.  Each survivor moves to the first
 * free slot of its probe sequence: the placement _purge_rebuild replays
 * into an emptied table, and the layout the backward-shift sweep
 * leaves.  That slot lies between the survivor's home and its own cell,
 * which the walk has already settled, so the pass runs in place; a
 * survivor at its home stays.  Returns the number of counters freed,
 * or -1 when no cell is empty (the load factor rules that out). */
static int64_t
decrement_purge(uint64_t *tk, double *tv, int64_t *ts, uint64_t mask,
                double neg)
{
    uint64_t start = 0;
    while (ts[start] != 0) {
        if (start == mask) {
            return -1;
        }
        start += 1;
    }
    int64_t freed = 0;
    for (uint64_t slot = 0; slot <= mask; slot++) {
        int64_t state = ts[slot];
        double value = tv[slot] + neg;
        int64_t live = -(int64_t)(state != 0);
        int64_t keep = -(int64_t)(value > 0.0);
        uint64_t old_bits, new_bits;
        memcpy(&old_bits, &tv[slot], sizeof old_bits);
        memcpy(&new_bits, &value, sizeof new_bits);
        new_bits = (new_bits & (uint64_t)live) | (old_bits & ~(uint64_t)live);
        memcpy(&tv[slot], &new_bits, sizeof new_bits);
        ts[slot] = state & keep;
        freed += live & ~keep & 1;
    }
    for (uint64_t step = 1; step <= mask; step++) {
        uint64_t slot = (start + step) & mask;
        int64_t state = ts[slot];
        if (state <= 1) {
            continue;
        }
        uint64_t home = (slot - (uint64_t)(state - 1)) & mask;
        uint64_t dest = home;
        while (dest != slot && ts[dest] != 0) {
            dest = (dest + 1) & mask;
        }
        if (dest != slot) {
            tk[dest] = tk[slot];
            tv[dest] = tv[slot];
            ts[dest] = (int64_t)((dest - home) & mask) + 1;
            ts[slot] = 0;
        }
    }
    return freed;
}

/* ---------------------------------------------------------------------------
 * SampleQuantilePolicy.decrement_value (selector="auto"), bit-identical
 * ------------------------------------------------------------------------- */

static int
cmp_double(const void *pa, const void *pb)
{
    double a = *(const double *)pa;
    double b = *(const double *)pb;
    return (a > b) - (a < b);
}

static inline void
swap_double(double *a, double *b)
{
    double t = *a;
    *a = *b;
    *b = t;
}

/* sorted(a[:n])[rank] by in-place selection (the paper's Quickselect):
 * Hoare partitions around a median-of-three pivot, which draws no PRNG
 * words, keeping the side that holds `rank`.  A range still open after
 * ~2*log2(n) rounds is sorted outright, which bounds the worst case at
 * O(n log n).  An order statistic has one value, so the result is the
 * one the sort returns. */
static double
select_rank(double *a, int64_t n, int64_t rank)
{
    int64_t lo = 0;
    int64_t hi = n - 1;
    int rounds_left = 2;
    for (int64_t m = n; m > 1; m >>= 1) {
        rounds_left += 2;
    }
    while (lo < hi) {
        if (rounds_left-- == 0) {
            qsort(a + lo, (size_t)(hi - lo + 1), sizeof(double), cmp_double);
            break;
        }
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < a[lo]) {
            swap_double(&a[mid], &a[lo]);
        }
        if (a[hi] < a[lo]) {
            swap_double(&a[hi], &a[lo]);
        }
        if (a[hi] < a[mid]) {
            swap_double(&a[hi], &a[mid]);
        }
        double pivot = a[mid];
        int64_t i = lo;
        int64_t j = hi;
        do {
            while (i < hi && a[i] < pivot) {
                i++;
            }
            while (j > lo && pivot < a[j]) {
                j--;
            }
            if (i <= j) {
                swap_double(&a[i], &a[j]);
                i++;
                j--;
            }
        } while (i <= j);
        /* Now a[lo..j] <= pivot <= a[i..hi], and any cell between the
         * two ranges holds the pivot itself. */
        if (j < rank) {
            lo = i;
        }
        if (rank < i) {
            hi = j;
        }
    }
    return a[rank];
}

static double
sq_decrement(const double *tv, const int64_t *ts, int64_t length,
             int64_t size, int64_t sample_size, double quantile,
             xoro_t *rng, double *scratch)
{
    int64_t n;
    if (size <= sample_size) {
        /* values_list(): live values in ascending slot order. */
        n = 0;
        for (int64_t slot = 0; slot < length; slot++) {
            if (ts[slot] != 0) {
                scratch[n++] = tv[slot];
            }
        }
    }
    else {
        /* sample_values(): rejection-sample physical slots.  The length
         * is a power of two, so randrange(length) accepts every draw and
         * reduces to its low bits: the Python draw sequence exactly. */
        uint64_t mask = (uint64_t)length - 1;
        n = sample_size;
        for (int64_t j = 0; j < n; j++) {
            uint64_t slot;
            do {
                slot = xoro_next(rng) & mask;
            } while (ts[slot] == 0);
            scratch[j] = tv[slot];
        }
    }
    /* sample_quantile(..., selector="auto"): min/max at the extremes,
     * the order statistic of rank int(quantile * (n - 1)) otherwise. */
    if (quantile == 0.0) {
        double minimum = scratch[0];
        for (int64_t j = 1; j < n; j++) {
            if (scratch[j] < minimum) {
                minimum = scratch[j];
            }
        }
        return minimum;
    }
    if (quantile == 1.0) {
        double maximum = scratch[0];
        for (int64_t j = 1; j < n; j++) {
            if (scratch[j] > maximum) {
                maximum = scratch[j];
            }
        }
        return maximum;
    }
    return select_rank(scratch, n, (int64_t)(quantile * (double)(n - 1)));
}

/* ---------------------------------------------------------------------------
 * get_many / add_many / insert_many / purge_nonpositive entry points
 * ------------------------------------------------------------------------- */

static PyObject *
py_get_many(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *keys_o, *tk_o, *tv_o, *ts_o;
    unsigned long long seedmix_ull;
    if (!PyArg_ParseTuple(args, "OOOOK", &keys_o, &tk_o, &tv_o, &ts_o,
                          &seedmix_ull)) {
        return NULL;
    }
    const uint64_t *keys = arr_data(keys_o, NPY_UINT64, 0, "keys");
    const uint64_t *tk = arr_data(tk_o, NPY_UINT64, 0, "table keys");
    const double *tv = arr_data(tv_o, NPY_DOUBLE, 0, "table values");
    const int64_t *ts = arr_data(ts_o, NPY_INT64, 0, "table states");
    if (!keys || !tk || !tv || !ts) {
        return NULL;
    }
    npy_intp n = arr_len(keys_o);
    uint64_t mask = (uint64_t)arr_len(ts_o) - 1;
    uint64_t seedmix = (uint64_t)seedmix_ull;

    npy_intp dims[1] = {n};
    PyObject *out_o = PyArray_SimpleNew(1, dims, NPY_DOUBLE);
    if (out_o == NULL) {
        return NULL;
    }
    double *out = PyArray_DATA((PyArrayObject *)out_o);
    int64_t probes = 0;

    Py_BEGIN_ALLOW_THREADS
    for (npy_intp i = 0; i < n; i++) {
        uint64_t slot;
        int found = lp_find(tk, ts, mask, seedmix, keys[i], &slot, &probes);
        out[i] = found ? tv[slot] : (double)NAN;
    }
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(NL)", out_o, (long long)probes);
}

static PyObject *
py_add_many(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *keys_o, *deltas_o, *tk_o, *tv_o, *ts_o;
    unsigned long long seedmix_ull;
    if (!PyArg_ParseTuple(args, "OOOOOK", &keys_o, &deltas_o, &tk_o, &tv_o,
                          &ts_o, &seedmix_ull)) {
        return NULL;
    }
    const uint64_t *keys = arr_data(keys_o, NPY_UINT64, 0, "keys");
    const double *deltas = arr_data(deltas_o, NPY_DOUBLE, 0, "deltas");
    const uint64_t *tk = arr_data(tk_o, NPY_UINT64, 0, "table keys");
    double *tv = arr_data(tv_o, NPY_DOUBLE, 1, "table values");
    const int64_t *ts = arr_data(ts_o, NPY_INT64, 0, "table states");
    if (!keys || !deltas || !tk || !tv || !ts) {
        return NULL;
    }
    npy_intp n = arr_len(keys_o);
    uint64_t mask = (uint64_t)arr_len(ts_o) - 1;
    uint64_t seedmix = (uint64_t)seedmix_ull;

    uint64_t *slots = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(uint64_t));
    if (slots == NULL) {
        return PyErr_NoMemory();
    }
    int64_t probes = 0;
    npy_intp missing = -1;

    Py_BEGIN_ALLOW_THREADS
    /* Locate every key first (charging probes for all of them, as the
     * vectorized walk does), then scatter — the table is untouched when
     * any key is missing. */
    for (npy_intp i = 0; i < n; i++) {
        int found = lp_find(tk, ts, mask, seedmix, keys[i], &slots[i], &probes);
        if (!found && missing < 0) {
            missing = i;
        }
    }
    if (missing < 0) {
        for (npy_intp i = 0; i < n; i++) {
            tv[slots[i]] += deltas[i];
        }
    }
    Py_END_ALLOW_THREADS

    PyMem_Free(slots);
    return Py_BuildValue("(Ln)", (long long)probes, (Py_ssize_t)missing);
}

static PyObject *
py_insert_many(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *keys_o, *values_o, *tk_o, *tv_o, *ts_o;
    unsigned long long seedmix_ull;
    if (!PyArg_ParseTuple(args, "OOOOOK", &keys_o, &values_o, &tk_o, &tv_o,
                          &ts_o, &seedmix_ull)) {
        return NULL;
    }
    const uint64_t *keys = arr_data(keys_o, NPY_UINT64, 0, "keys");
    const double *values = arr_data(values_o, NPY_DOUBLE, 0, "values");
    uint64_t *tk = arr_data(tk_o, NPY_UINT64, 1, "table keys");
    double *tv = arr_data(tv_o, NPY_DOUBLE, 1, "table values");
    int64_t *ts = arr_data(ts_o, NPY_INT64, 1, "table states");
    if (!keys || !values || !tk || !tv || !ts) {
        return NULL;
    }
    npy_intp n = arr_len(keys_o);
    int64_t length = (int64_t)arr_len(ts_o);
    uint64_t mask = (uint64_t)length - 1;
    uint64_t seedmix = (uint64_t)seedmix_ull;
    int64_t probes = 0;
    uint64_t duplicate_key = 0;
    int duplicate = 0;

    /* FCFS placement depends only on occupancy: walk an occupancy
     * overlay, record the placements, scatter on success. */
    char *occ = PyMem_Malloc((size_t)length);
    uint64_t *kcopy = PyMem_Malloc((size_t)length * sizeof(uint64_t));
    uint64_t *pos = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(uint64_t));
    int64_t *dist = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (occ == NULL || kcopy == NULL || pos == NULL || dist == NULL) {
        PyMem_Free(occ);
        PyMem_Free(kcopy);
        PyMem_Free(pos);
        PyMem_Free(dist);
        return PyErr_NoMemory();
    }
    Py_BEGIN_ALLOW_THREADS
    for (int64_t slot = 0; slot < length; slot++) {
        occ[slot] = ts[slot] != 0;
    }
    memcpy(kcopy, tk, (size_t)length * sizeof(uint64_t));
    for (npy_intp j = 0; j < n && !duplicate; j++) {
        uint64_t key = keys[j];
        uint64_t home = hash_seeded(key, seedmix) & mask;
        uint64_t slot = home;
        while (occ[slot]) {
            if (kcopy[slot] == key) {
                duplicate = 1;
                duplicate_key = key;
                break;
            }
            slot = (slot + 1) & mask;
        }
        if (duplicate) {
            break;
        }
        occ[slot] = 1;
        kcopy[slot] = key;
        pos[j] = slot;
        dist[j] = (int64_t)((slot - home) & mask);
    }
    if (!duplicate) {
        for (npy_intp j = 0; j < n; j++) {
            tk[pos[j]] = keys[j];
            tv[pos[j]] = values[j];
            ts[pos[j]] = dist[j] + 1;
            probes += dist[j] + 1;
        }
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(occ);
    PyMem_Free(kcopy);
    PyMem_Free(pos);
    PyMem_Free(dist);

    if (duplicate) {
        PyErr_Format(PyExc_ValueError,
                     "key %llu is already assigned a counter",
                     (unsigned long long)duplicate_key);
        return NULL;
    }
    return PyLong_FromLongLong((long long)probes);
}

static PyObject *
py_purge_nonpositive(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *tk_o, *tv_o, *ts_o;
    if (!PyArg_ParseTuple(args, "OOO", &tk_o, &tv_o, &ts_o)) {
        return NULL;
    }
    uint64_t *tk = arr_data(tk_o, NPY_UINT64, 1, "table keys");
    double *tv = arr_data(tv_o, NPY_DOUBLE, 1, "table values");
    int64_t *ts = arr_data(ts_o, NPY_INT64, 1, "table states");
    if (!tk || !tv || !ts) {
        return NULL;
    }
    uint64_t mask = (uint64_t)arr_len(ts_o) - 1;
    int64_t freed;

    Py_BEGIN_ALLOW_THREADS
    freed = decrement_purge(tk, tv, ts, mask, -0.0);
    Py_END_ALLOW_THREADS

    if (freed < 0) {
        PyErr_SetString(PyExc_ValueError, "table has no empty slot");
        return NULL;
    }
    return PyLong_FromLongLong((long long)freed);
}

/* ---------------------------------------------------------------------------
 * the ingest kernel (scalar SketchKernel.ingest loop over a batch)
 * ------------------------------------------------------------------------- */

static PyObject *
py_ingest_batch(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *items_o, *weights_o, *tk_o, *tv_o, *ts_o;
    long long size_ll, capacity_ll, sample_size_ll;
    unsigned long long seedmix_ull, s0_ull, s1_ull;
    double offset, quantile;
    if (!PyArg_ParseTuple(args, "OOOOOLLKKKddL", &items_o, &weights_o, &tk_o,
                          &tv_o, &ts_o, &size_ll, &capacity_ll, &seedmix_ull,
                          &s0_ull, &s1_ull, &offset, &quantile,
                          &sample_size_ll)) {
        return NULL;
    }
    const uint64_t *items = arr_data(items_o, NPY_UINT64, 0, "items");
    const double *weights = arr_data(weights_o, NPY_DOUBLE, 0, "weights");
    uint64_t *tk = arr_data(tk_o, NPY_UINT64, 1, "table keys");
    double *tv = arr_data(tv_o, NPY_DOUBLE, 1, "table values");
    int64_t *ts = arr_data(ts_o, NPY_INT64, 1, "table states");
    if (!items || !weights || !tk || !tv || !ts) {
        return NULL;
    }
    npy_intp n = arr_len(items_o);
    int64_t length = (int64_t)arr_len(ts_o);
    uint64_t mask = (uint64_t)length - 1;
    uint64_t seedmix = (uint64_t)seedmix_ull;
    int64_t size = (int64_t)size_ll;
    int64_t capacity = (int64_t)capacity_ll;
    int64_t sample_size = (int64_t)sample_size_ll;
    xoro_t rng = {(uint64_t)s0_ull, (uint64_t)s1_ull};

    int64_t scratch_len = capacity > sample_size ? capacity : sample_size;
    double *scratch = PyMem_Malloc((size_t)scratch_len * sizeof(double));
    if (scratch == NULL) {
        return PyErr_NoMemory();
    }

    int64_t probes = 0;
    int64_t hits = 0;
    int64_t inserts = 0;
    int64_t decrements = 0;
    int64_t scanned = 0;
    int64_t freed_total = 0;

    Py_BEGIN_ALLOW_THREADS
    for (npy_intp i = 0; i < n; i++) {
        uint64_t key = items[i];
        double weight = weights[i];
        uint64_t slot;
        if (lp_find(tk, ts, mask, seedmix, key, &slot, &probes)) {
            tv[slot] += weight;
            hits += 1;
            continue;
        }
        if (size < capacity) {
            lp_insert_absent(tk, tv, ts, mask, seedmix, key, weight, &probes);
            size += 1;
            inserts += 1;
            continue;
        }
        /* Table full: DecrementCounters(), scalar code path verbatim. */
        double c_star = sq_decrement(tv, ts, length, size, sample_size,
                                     quantile, &rng, scratch);
        scanned += size;
        /* size <= capacity < length: an empty cell always exists. */
        int64_t freed = decrement_purge(tk, tv, ts, mask, -c_star);
        size -= freed;
        freed_total += freed;
        decrements += 1;
        offset += c_star;
        if (weight > c_star) {
            lp_insert_absent(tk, tv, ts, mask, seedmix, key, weight - c_star,
                             &probes);
            size += 1;
            inserts += 1;
        }
    }
    Py_END_ALLOW_THREADS

    PyMem_Free(scratch);
    return Py_BuildValue("(LKKdLLLLLL)",
                         (long long)size,
                         (unsigned long long)rng.s0,
                         (unsigned long long)rng.s1,
                         offset,
                         (long long)probes,
                         (long long)hits,
                         (long long)inserts,
                         (long long)decrements,
                         (long long)scanned,
                         (long long)freed_total);
}

/* ---------------------------------------------------------------------------
 * BatchGrouper.group (scalar claim walk; identical outputs)
 * ------------------------------------------------------------------------- */

static PyObject *
py_group(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *items_o, *gk_o, *stamps_o, *gid_o, *inverse_o, *uniq_o;
    long long epoch_ll;
    if (!PyArg_ParseTuple(args, "OOOOOOL", &items_o, &gk_o, &stamps_o, &gid_o,
                          &inverse_o, &uniq_o, &epoch_ll)) {
        return NULL;
    }
    const uint64_t *items = arr_data(items_o, NPY_UINT64, 0, "items");
    uint64_t *gk = arr_data(gk_o, NPY_UINT64, 1, "group table keys");
    int64_t *stamps = arr_data(stamps_o, NPY_INT64, 1, "stamps");
    int64_t *gid = arr_data(gid_o, NPY_INT64, 1, "group ids");
    int64_t *inverse = arr_data(inverse_o, NPY_INT64, 1, "inverse");
    uint64_t *uniq = arr_data(uniq_o, NPY_UINT64, 1, "uniq");
    if (!items || !gk || !stamps || !gid || !inverse || !uniq) {
        return NULL;
    }
    npy_intp n = arr_len(items_o);
    uint64_t mask = (uint64_t)arr_len(stamps_o) - 1;
    int64_t epoch = (int64_t)epoch_ll;
    int64_t num_groups = 0;

    Py_BEGIN_ALLOW_THREADS
    for (npy_intp i = 0; i < n; i++) {
        uint64_t key = items[i];
        uint64_t slot = fmix64(key) & mask;
        for (;;) {
            if (stamps[slot] != epoch) {
                stamps[slot] = epoch;
                gk[slot] = key;
                gid[slot] = num_groups;
                uniq[num_groups] = key;
                inverse[i] = num_groups;
                num_groups += 1;
                break;
            }
            if (gk[slot] == key) {
                inverse[i] = gid[slot];
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    Py_END_ALLOW_THREADS

    return PyLong_FromLongLong((long long)num_groups);
}

/* ---------------------------------------------------------------------------
 * module definition
 * ------------------------------------------------------------------------- */

static PyMethodDef kernel_methods[] = {
    {"get_many", py_get_many, METH_VARARGS,
     "Scalar-equivalent batched lookup on a probing table."},
    {"add_many", py_add_many, METH_VARARGS,
     "Scalar-equivalent batched increment on a probing table."},
    {"insert_many", py_insert_many, METH_VARARGS,
     "Scalar-equivalent batched insert on a probing table."},
    {"purge_nonpositive", py_purge_nonpositive, METH_VARARGS,
     "In-place purge of non-positive counters."},
    {"ingest_batch", py_ingest_batch, METH_VARARGS,
     "The scalar SketchKernel.ingest loop over a whole batch."},
    {"group", py_group, METH_VARARGS,
     "BatchGrouper.group claim walk (first-occurrence order)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native._kernels",
    "Compiled probe/decrement kernels, bit-identical to the NumPy paths.",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *module;
    import_array();
    module = PyModule_Create(&kernels_module);
    if (module == NULL) {
        return NULL;
    }
#if defined(__clang__)
    PyModule_AddStringConstant(module, "COMPILER", "clang " __VERSION__);
#elif defined(__GNUC__)
    PyModule_AddStringConstant(module, "COMPILER", "gcc " __VERSION__);
#else
    PyModule_AddStringConstant(module, "COMPILER", "unknown");
#endif
    return module;
}
