/* repro._native — the compiled propagation kernel behind the "native" backend.
 *
 * One NativeCore object holds the matrix-derived state of a single solving
 * session in flat C arrays: a literal-indexed value array (the mirror of
 * Trail.lit_val), per-record satisfaction counters, occurrence lists as
 * growable int vectors, the occ_unsat / cube_count pure-literal sidecar and
 * the propagation trail itself.  The Python wrapper
 * (repro.core.engine.native.NativeBackend) forwards every assign/backtrack,
 * and each propagate_into() call replays the kernel's push log onto the
 * Python Trail's lists, so the Python-visible search state stays identical.
 *
 * THE CONTRACT: this file is a line-for-line port of the eager
 * counter-backend semantics (repro/core/engine/counters.py and the shared
 * _examine / apply_pure_literals in backend.py).  It must produce the same
 * events on the same records in the same order — decision-for-decision
 * identity with the counters reference is enforced by the cross-engine
 * property tests and the `repro bench` identity gate.  Any behavioural
 * change here must be mirrored in the pure-Python backends and vice versa.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

/* version stamp surfaced as repro._native.KERNEL_VERSION; bump on any
 * change to the kernel semantics or the wrapper-facing API. */
#define KERNEL_VERSION 5

/* propagate_into() event codes (wrapper maps them to the backend protocol) */
#define EV_NONE 0
#define EV_CONFLICT 1
#define EV_SOLUTION 2
#define EV_MODEL 3

/* push-log reason tags */
#define TAG_REC 0
#define TAG_PURE 1

/* ---------------------------------------------------------------- vectors */

typedef struct {
    int *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} IntVec;

static int
vec_push(IntVec *v, int value)
{
    if (v->len == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 4;
        int *data = (int *)realloc(v->data, (size_t)cap * sizeof(int));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->len++] = value;
    return 0;
}

static void
vec_free(IntVec *v)
{
    free(v->data);
    v->data = NULL;
    v->len = v->cap = 0;
}

/* ---------------------------------------------------------------- records */

typedef struct {
    int lits_off, lits_len; /* offsets into the shared literal pool */
    int prim_off, prim_len;
    int sec_off, sec_len;
    int n_true;  /* clauses only: a satisfied clause is skipped */
    int n_false; /* cubes only: a dead cube is skipped */
    unsigned char is_cube;
    unsigned char original;
} RecC;

/* ------------------------------------------------------------------- core */

typedef struct {
    PyObject_HEAD

    int num_slots; /* nv + 1: arrays indexed by variable */
    int base;      /* literal arrays are indexed by base + lit  */
    int track_pure;

    /* prefix tables (per variable) */
    int *level;
    int *din;
    int *dout;
    unsigned char *is_exist;

    /* assignment mirror: 1 true / -1 false / 0 open, literal-indexed */
    signed char *lit_val;

    /* record store + shared literal pool */
    RecC *recs;
    Py_ssize_t n_recs, cap_recs;
    IntVec pool;

    /* occurrence lists and the pure-literal sidecar, literal-indexed */
    IntVec *clause_occ;
    IntVec *cube_occ;
    int *occ_unsat;
    int *cube_count;
    int n_unsat_orig;

    /* the native trail mirror + per-variable trail positions */
    IntVec trail;
    int *pos;
    long long max_trail;

    /* pure-literal candidate flags (per variable) + iteration scratch */
    unsigned char *pure_cand;
    IntVec scratch_cand;

    /* per-examine scratch: unassigned primaries / secondaries */
    IntVec scratch_p;
    IntVec scratch_s;

    /* reduce() / build_model_cube() scratch */
    IntVec scratch_anchor;
    IntVec scratch_kept;
    unsigned char *chosen; /* literal-indexed, model-cube construction */

    /* push log of one propagate_into() call: (lit, tag, rec_id) triples */
    IntVec push_log;

    /* per-propagate stat deltas */
    long long d_propagations;
    long long d_pure_literals;
    long long d_clause_visits;
    long long d_cube_visits;
} NativeCore;

/* -------------------------------------------------------- sidecar helpers */

/* The clause-satisfied step of CounterBackend.assign: first satisfying
   literal arrived. */
static void
on_clause_sat(NativeCore *c, RecC *rec)
{
    int i;
    const int *lits = c->pool.data + rec->lits_off;
    if (rec->original)
        c->n_unsat_orig -= 1;
    for (i = 0; i < rec->lits_len; i++) {
        int lit = lits[i];
        int n = --c->occ_unsat[c->base + lit];
        if (n == 0)
            c->pure_cand[lit > 0 ? lit : -lit] = 1;
    }
}

/* The clause-unsatisfied step of CounterBackend.backtrack: the last
   satisfying literal left. */
static void
on_clause_unsat(NativeCore *c, RecC *rec)
{
    int i;
    const int *lits = c->pool.data + rec->lits_off;
    if (rec->original)
        c->n_unsat_orig += 1;
    for (i = 0; i < rec->lits_len; i++)
        c->occ_unsat[c->base + lits[i]] += 1;
}

/* CounterBackend.assign minus the Python Trail push (the wrapper owns it):
 * set lit_val, append to the native trail, walk the two occurrence lists
 * whose counters the engine reads (clause n_true, cube n_false).  Returns
 * -1 on allocation failure only. */
static int
core_assign(NativeCore *c, int lit)
{
    Py_ssize_t i;
    IntVec *occ;

    c->lit_val[c->base + lit] = 1;
    c->lit_val[c->base - lit] = -1;
    c->pos[lit > 0 ? lit : -lit] = (int)c->trail.len;
    if (vec_push(&c->trail, lit) < 0)
        return -1;
    if (c->trail.len > c->max_trail)
        c->max_trail = c->trail.len;

    occ = &c->clause_occ[c->base + lit];
    for (i = 0; i < occ->len; i++) {
        RecC *rec = &c->recs[occ->data[i]];
        if (++rec->n_true == 1)
            on_clause_sat(c, rec);
    }
    occ = &c->cube_occ[c->base - lit];
    for (i = 0; i < occ->len; i++)
        c->recs[occ->data[i]].n_false += 1;
    return 0;
}

/* ---------------------------------------------------------------- examine */

/* PropagationBackend._examine, counter-backend flavour.
 * Returns EV_NONE / EV_CONFLICT / EV_SOLUTION; a unit assignment goes
 * through core_assign and is appended to the push log. */
static int
examine(NativeCore *c, int rid, int is_cube)
{
    RecC *rec = &c->recs[rid];
    const int *pool = c->pool.data;
    const signed char *lit_val = c->lit_val;
    int base = c->base;
    int defused, i;

    if (is_cube) {
        c->d_cube_visits += 1;
        defused = -1; /* a false literal kills a cube */
    }
    else {
        c->d_clause_visits += 1;
        defused = 1; /* a true literal satisfies a clause */
    }

    c->scratch_p.len = 0;
    for (i = 0; i < rec->prim_len; i++) {
        int lit = pool[rec->prim_off + i];
        int val = lit_val[base + lit];
        if (val == 0) {
            if (vec_push(&c->scratch_p, lit) < 0)
                return -1;
        }
        else if (val == defused)
            return EV_NONE;
    }
    c->scratch_s.len = 0;
    for (i = 0; i < rec->sec_len; i++) {
        int lit = pool[rec->sec_off + i];
        int val = lit_val[base + lit];
        if (val == 0) {
            if (vec_push(&c->scratch_s, lit) < 0)
                return -1;
        }
        else if (val == defused)
            return EV_NONE;
    }
    if (c->scratch_p.len == 0)
        return is_cube ? EV_SOLUTION : EV_CONFLICT;
    if (c->scratch_p.len == 1) {
        int p = c->scratch_p.data[0];
        int pv = p > 0 ? p : -p;
        int p_level = c->level[pv];
        int p_din = c->din[pv];
        int blocked = 0;
        for (i = 0; i < c->scratch_s.len; i++) {
            int s = c->scratch_s.data[i];
            int sv = s > 0 ? s : -s;
            if (c->level[sv] < p_level && c->din[sv] <= p_din
                && p_din <= c->dout[sv]) {
                blocked = 1; /* an unassigned secondary precedes p: not unit */
                break;
            }
        }
        if (!blocked) {
            int alit = is_cube ? -p : p;
            c->d_propagations += 1;
            if (core_assign(c, alit) < 0)
                return -1;
            if (vec_push(&c->push_log, alit) < 0
                || vec_push(&c->push_log, TAG_REC) < 0
                || vec_push(&c->push_log, rid) < 0)
                return -1;
        }
    }
    return EV_NONE;
}

/* ------------------------------------------------------------ pure rule */

/* PropagationBackend.apply_pure_literals.  The candidate set is snapshotted
 * and cleared first (Python: sorted(...) + clear()) so candidates flagged
 * by assignments made during this sweep are only seen by the NEXT sweep —
 * processing them early would reorder the trail against the reference.
 * Returns 1 when anything was assigned, 0 otherwise, -1 on error. */
static int
apply_pure(NativeCore *c)
{
    int assigned = 0;
    int v;
    Py_ssize_t i;

    c->scratch_cand.len = 0;
    for (v = 1; v < c->num_slots; v++) {
        if (c->pure_cand[v]) {
            c->pure_cand[v] = 0;
            if (vec_push(&c->scratch_cand, v) < 0)
                return -1;
        }
    }
    for (i = 0; i < c->scratch_cand.len; i++) {
        int cand = c->scratch_cand.data[i];
        int lit, k, pick = 0;
        if (c->lit_val[c->base + cand] != 0)
            continue;
        /* options in (v, -v) order, exactly like the Python comprehension */
        for (k = 0; k < 2 && !pick; k++) {
            lit = k == 0 ? cand : -cand;
            /* existential: opposite literal absent from unsatisfied clauses;
             * universal: the literal itself absent. */
            if (c->is_exist[cand]) {
                if (c->occ_unsat[c->base - lit] != 0)
                    continue;
            }
            else {
                if (c->occ_unsat[c->base + lit] != 0)
                    continue;
            }
            /* the [24] guard: no LIVE learned cube may contain the literal */
            if (c->cube_count[c->base + lit] != 0) {
                IntVec *occ = &c->cube_occ[c->base + lit];
                Py_ssize_t j;
                int all_dead = 1;
                for (j = 0; j < occ->len; j++) {
                    if (c->recs[occ->data[j]].n_false == 0) {
                        all_dead = 0;
                        break;
                    }
                }
                if (!all_dead)
                    continue;
            }
            pick = 1;
        }
        if (pick) {
            c->d_pure_literals += 1;
            if (core_assign(c, lit) < 0)
                return -1;
            if (vec_push(&c->push_log, lit) < 0
                || vec_push(&c->push_log, TAG_PURE) < 0
                || vec_push(&c->push_log, 0) < 0)
                return -1;
            assigned = 1;
        }
    }
    return assigned;
}

/* ---------------------------------------------------------- type plumbing */

static void
NativeCore_dealloc(NativeCore *self)
{
    int i;
    free(self->level);
    free(self->din);
    free(self->dout);
    free(self->is_exist);
    free(self->lit_val);
    free(self->recs);
    vec_free(&self->pool);
    if (self->clause_occ != NULL) {
        for (i = 0; i < 2 * self->num_slots; i++)
            vec_free(&self->clause_occ[i]);
        free(self->clause_occ);
    }
    if (self->cube_occ != NULL) {
        for (i = 0; i < 2 * self->num_slots; i++)
            vec_free(&self->cube_occ[i]);
        free(self->cube_occ);
    }
    free(self->occ_unsat);
    free(self->cube_count);
    vec_free(&self->trail);
    free(self->pure_cand);
    vec_free(&self->scratch_cand);
    vec_free(&self->scratch_p);
    vec_free(&self->scratch_s);
    vec_free(&self->scratch_anchor);
    vec_free(&self->scratch_kept);
    free(self->chosen);
    free(self->pos);
    vec_free(&self->push_log);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* read a Python sequence of ints of exactly `n` entries into a fresh array */
static int *
read_int_array(PyObject *seq, Py_ssize_t n, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    Py_ssize_t i, len;
    int *out;
    if (fast == NULL)
        return NULL;
    len = PySequence_Fast_GET_SIZE(fast);
    if (len != n) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd entries, got %zd",
                     what, n, len);
        Py_DECREF(fast);
        return NULL;
    }
    out = (int *)calloc((size_t)(n > 0 ? n : 1), sizeof(int));
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < len; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            free(out);
            return NULL;
        }
        out[i] = (int)v;
    }
    Py_DECREF(fast);
    return out;
}

static int
NativeCore_init(NativeCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"num_slots", "level", "is_exist",
                             "din",       "dout",  "track_pure", NULL};
    PyObject *level_o, *is_exist_o, *din_o, *dout_o;
    int num_slots, track_pure, i;
    int *is_exist_tmp;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOOOOi", kwlist, &num_slots,
                                     &level_o, &is_exist_o, &din_o, &dout_o,
                                     &track_pure))
        return -1;
    if (num_slots < 1) {
        PyErr_SetString(PyExc_ValueError, "num_slots must be >= 1");
        return -1;
    }
    self->num_slots = num_slots;
    self->base = num_slots;
    self->track_pure = track_pure;

    self->level = read_int_array(level_o, num_slots, "level");
    self->din = read_int_array(din_o, num_slots, "din");
    self->dout = read_int_array(dout_o, num_slots, "dout");
    is_exist_tmp = read_int_array(is_exist_o, num_slots, "is_exist");
    if (self->level == NULL || self->din == NULL || self->dout == NULL
        || is_exist_tmp == NULL) {
        free(is_exist_tmp);
        return -1;
    }
    self->is_exist = (unsigned char *)calloc((size_t)num_slots, 1);
    self->lit_val = (signed char *)calloc((size_t)(2 * num_slots), 1);
    self->clause_occ = (IntVec *)calloc((size_t)(2 * num_slots), sizeof(IntVec));
    self->cube_occ = (IntVec *)calloc((size_t)(2 * num_slots), sizeof(IntVec));
    self->occ_unsat = (int *)calloc((size_t)(2 * num_slots), sizeof(int));
    self->cube_count = (int *)calloc((size_t)(2 * num_slots), sizeof(int));
    self->pure_cand = (unsigned char *)calloc((size_t)num_slots, 1);
    self->pos = (int *)calloc((size_t)num_slots, sizeof(int));
    self->chosen = (unsigned char *)calloc((size_t)(2 * num_slots), 1);
    if (self->is_exist == NULL || self->lit_val == NULL
        || self->clause_occ == NULL || self->cube_occ == NULL
        || self->occ_unsat == NULL || self->cube_count == NULL
        || self->pure_cand == NULL || self->pos == NULL
        || self->chosen == NULL) {
        free(is_exist_tmp);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < num_slots; i++)
        self->is_exist[i] = is_exist_tmp[i] != 0;
    free(is_exist_tmp);
    return 0;
}

/* -------------------------------------------------------------- methods */

/* append one literal tuple to the pool, returning its offset */
static int
pool_extend(NativeCore *self, PyObject *lits, int *off, int *len)
{
    PyObject *fast = PySequence_Fast(lits, "expected a literal sequence");
    Py_ssize_t i, n;
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    *off = (int)self->pool.len;
    *len = (int)n;
    for (i = 0; i < n; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (v == 0 || v >= self->num_slots || v <= -self->num_slots) {
            PyErr_Format(PyExc_ValueError, "literal %ld out of range", v);
            Py_DECREF(fast);
            return -1;
        }
        if (vec_push(&self->pool, (int)v) < 0) {
            Py_DECREF(fast);
            PyErr_NoMemory();
            return -1;
        }
    }
    Py_DECREF(fast);
    return 0;
}

/* add_record(is_cube, original, learned, lits, prim, sec) -> rec id
 *
 * learned=0 installs at the empty assignment (matrix setup: occurrence
 * lists + occ_unsat, n_unsat_orig for original clauses).  learned=1 is the
 * trail-aware install of CounterBackend._install_learned_clause/_cube. */
static PyObject *
NativeCore_add_record(NativeCore *self, PyObject *args)
{
    int is_cube, original, learned;
    PyObject *lits, *prim, *sec;
    RecC rec;
    int rid, i, sat;

    if (!PyArg_ParseTuple(args, "iiiOOO", &is_cube, &original, &learned,
                          &lits, &prim, &sec))
        return NULL;
    memset(&rec, 0, sizeof(rec));
    rec.is_cube = (unsigned char)is_cube;
    rec.original = (unsigned char)original;
    if (pool_extend(self, lits, &rec.lits_off, &rec.lits_len) < 0
        || pool_extend(self, prim, &rec.prim_off, &rec.prim_len) < 0
        || pool_extend(self, sec, &rec.sec_off, &rec.sec_len) < 0)
        return NULL;

    if (self->n_recs == self->cap_recs) {
        Py_ssize_t cap = self->cap_recs ? self->cap_recs * 2 : 16;
        RecC *recs = (RecC *)realloc(self->recs, (size_t)cap * sizeof(RecC));
        if (recs == NULL)
            return PyErr_NoMemory();
        self->recs = recs;
        self->cap_recs = cap;
    }
    rid = (int)self->n_recs;

    if (!is_cube) {
        sat = 0;
        for (i = 0; i < rec.lits_len; i++) {
            int lit = self->pool.data[rec.lits_off + i];
            if (vec_push(&self->clause_occ[self->base + lit], rid) < 0)
                return PyErr_NoMemory();
            if (learned && self->lit_val[self->base + lit] == 1) {
                rec.n_true += 1;
                sat = 1;
            }
        }
        if (!learned || !sat) {
            for (i = 0; i < rec.lits_len; i++)
                self->occ_unsat[self->base + self->pool.data[rec.lits_off + i]] += 1;
        }
        if (original)
            self->n_unsat_orig += 1;
    }
    else {
        for (i = 0; i < rec.lits_len; i++) {
            int lit = self->pool.data[rec.lits_off + i];
            if (vec_push(&self->cube_occ[self->base + lit], rid) < 0)
                return PyErr_NoMemory();
            self->cube_count[self->base + lit] += 1;
            if (learned && self->lit_val[self->base + lit] == -1)
                rec.n_false += 1;
        }
    }
    self->recs[self->n_recs++] = rec;
    return PyLong_FromLong(rid);
}

static PyObject *
NativeCore_assign(NativeCore *self, PyObject *args)
{
    int lit;
    if (!PyArg_ParseTuple(args, "i", &lit))
        return NULL;
    if (lit == 0 || lit >= self->num_slots || lit <= -self->num_slots) {
        PyErr_Format(PyExc_ValueError, "literal %d out of range", lit);
        return NULL;
    }
    if (core_assign(self, lit) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

/* backtrack(target_len): pop the native trail down to target_len, reversing
 * the eager counters exactly like CounterBackend.backtrack. */
static PyObject *
NativeCore_backtrack(NativeCore *self, PyObject *args)
{
    Py_ssize_t target, i;
    if (!PyArg_ParseTuple(args, "n", &target))
        return NULL;
    if (target < 0 || target > self->trail.len) {
        PyErr_Format(PyExc_ValueError, "backtrack target %zd out of range",
                     target);
        return NULL;
    }
    while (self->trail.len > target) {
        int lit = self->trail.data[--self->trail.len];
        int v = lit > 0 ? lit : -lit;
        IntVec *occ;
        self->pure_cand[v] = 1;
        occ = &self->clause_occ[self->base + lit];
        for (i = 0; i < occ->len; i++) {
            RecC *rec = &self->recs[occ->data[i]];
            if (--rec->n_true == 0)
                on_clause_unsat(self, rec);
        }
        occ = &self->cube_occ[self->base - lit];
        for (i = 0; i < occ->len; i++)
            self->recs[occ->data[i]].n_false -= 1;
        self->lit_val[self->base + lit] = 0;
        self->lit_val[self->base - lit] = 0;
    }
    Py_RETURN_NONE;
}

/* propagate_into(queue_head, value, lit_val, level, pos, reason, lits,
 *                level_no, block_index, block_unassigned, block_blockers,
 *                deeper_desc, recs, pure_sentinel)
 *   -> (event, rec_id, new_queue_head,
 *       max_trail, propagations, pure_literals, clause_visits, cube_visits)
 *
 * The dequeue loop of CounterBackend.propagate, then the replay of every
 * assignment it made onto the engine's own Python lists: the kernel
 * performs Trail._push_fast itself on the values, levels, positions,
 * reasons, the literal stack and the incremental frontier counters.  All
 * pushes of one propagate call share the current decision level
 * (propagation never opens levels), passed in as `level_no`.  `recs` maps
 * the kernel's record ids back to the wrapper's Rec objects for the reason
 * column; `pure_sentinel` is the PURE reason marker.  Stats are deltas for
 * this call; max_trail is the running peak.
 *
 * replay_push refuses a variable the Python trail already holds, on every
 * run, as Trail's checked push does: the two trails disagreeing is an
 * engine bug, never a property of the input. */
static int
replay_push(NativeCore *self, int lit, PyObject *reason_obj, PyObject *value,
            PyObject *lit_val, PyObject *level, PyObject *pos,
            PyObject *reason, PyObject *lits, long level_no, PyObject *bidx,
            PyObject *bun, PyObject *bblk, PyObject *ddesc)
{
    long v = lit > 0 ? lit : -lit;
    long bi, n;
    PyObject *num;

    num = PyList_GetItem(value, v);
    if (num == NULL)
        return -1;
    n = PyLong_AsLong(num);
    if (n == -1 && PyErr_Occurred())
        return -1;
    if (n != 0) {
        PyErr_Format(PyExc_AssertionError, "double assignment of %ld", v);
        return -1;
    }
    if (PyList_SetItem(value, v, PyLong_FromLong(lit > 0 ? 1 : -1)) < 0)
        return -1;
    if (PyList_SetItem(lit_val, self->base + lit, PyLong_FromLong(1)) < 0)
        return -1;
    if (PyList_SetItem(lit_val, self->base - lit, PyLong_FromLong(-1)) < 0)
        return -1;
    if (PyList_SetItem(level, v, PyLong_FromLong(level_no)) < 0)
        return -1;
    if (PyList_SetItem(pos, v, PyLong_FromSsize_t(PyList_GET_SIZE(lits))) < 0)
        return -1;
    Py_INCREF(reason_obj);
    if (PyList_SetItem(reason, v, reason_obj) < 0)
        return -1;
    num = PyLong_FromLong(lit);
    if (num == NULL || PyList_Append(lits, num) < 0) {
        Py_XDECREF(num);
        return -1;
    }
    Py_DECREF(num);

    bi = PyLong_AsLong(PyList_GET_ITEM(bidx, v));
    if (bi == -1 && PyErr_Occurred())
        return -1;
    n = PyLong_AsLong(PyList_GET_ITEM(bun, bi)) - 1;
    if (PyList_SetItem(bun, bi, PyLong_FromLong(n)) < 0)
        return -1;
    if (n == 0) {
        PyObject *ds = PySequence_Fast(PySequence_Fast_GET_ITEM(ddesc, bi),
                                       "deeper_desc entry");
        Py_ssize_t k, nd;
        if (ds == NULL)
            return -1;
        nd = PySequence_Fast_GET_SIZE(ds);
        for (k = 0; k < nd; k++) {
            long d = PyLong_AsLong(PySequence_Fast_GET_ITEM(ds, k));
            long b = PyLong_AsLong(PyList_GET_ITEM(bblk, d)) - 1;
            if (PyErr_Occurred()
                || PyList_SetItem(bblk, d, PyLong_FromLong(b)) < 0) {
                Py_DECREF(ds);
                return -1;
            }
        }
        Py_DECREF(ds);
    }
    return 0;
}

static PyObject *
NativeCore_propagate_into(NativeCore *self, PyObject *args)
{
    Py_ssize_t qh, i;
    long level_no;
    int event = EV_NONE;
    int event_rid = -1;
    PyObject *value, *lit_val, *level, *pos, *reason, *lits;
    PyObject *bidx, *bun, *bblk, *ddesc, *recs, *pure_sentinel;

    if (!PyArg_ParseTuple(args, "nO!O!O!O!O!O!lO!O!O!OO!O", &qh,
                          &PyList_Type, &value, &PyList_Type, &lit_val,
                          &PyList_Type, &level, &PyList_Type, &pos,
                          &PyList_Type, &reason, &PyList_Type, &lits,
                          &level_no, &PyList_Type, &bidx, &PyList_Type, &bun,
                          &PyList_Type, &bblk, &ddesc, &PyList_Type, &recs,
                          &pure_sentinel))
        return NULL;
    if (qh < 0 || qh > self->trail.len) {
        PyErr_Format(PyExc_ValueError, "queue head %zd out of range", qh);
        return NULL;
    }
    self->push_log.len = 0;
    self->d_propagations = 0;
    self->d_pure_literals = 0;
    self->d_clause_visits = 0;
    self->d_cube_visits = 0;

    for (;;) {
        /* the replay onto the Python lists is deferred to the end:
         * nothing in the loop reads them */
        while (qh < self->trail.len) {
            int lit = self->trail.data[qh++];
            IntVec *occ = &self->clause_occ[self->base - lit];
            for (i = 0; i < occ->len; i++) {
                int rid = occ->data[i];
                if (self->recs[rid].n_true == 0) {
                    event = examine(self, rid, 0);
                    if (event < 0)
                        return PyErr_NoMemory();
                    if (event != EV_NONE) {
                        event_rid = rid;
                        goto done;
                    }
                }
            }
            occ = &self->cube_occ[self->base + lit];
            for (i = 0; i < occ->len; i++) {
                int rid = occ->data[i];
                if (self->recs[rid].n_false == 0) {
                    event = examine(self, rid, 1);
                    if (event < 0)
                        return PyErr_NoMemory();
                    if (event != EV_NONE) {
                        event_rid = rid;
                        goto done;
                    }
                }
            }
        }
        if (self->n_unsat_orig == 0) {
            event = EV_MODEL;
            goto done;
        }
        if (self->track_pure) {
            int assigned = apply_pure(self);
            if (assigned < 0)
                return PyErr_NoMemory();
            if (assigned)
                continue;
        }
        event = EV_NONE;
        goto done;
    }

done:
    for (i = 0; i < self->push_log.len / 3; i++) {
        int lit = self->push_log.data[3 * i];
        int tag = self->push_log.data[3 * i + 1];
        int rid = self->push_log.data[3 * i + 2];
        PyObject *reason_obj;
        if (tag == TAG_PURE)
            reason_obj = pure_sentinel;
        else {
            if (rid < 0 || rid >= PyList_GET_SIZE(recs)) {
                PyErr_Format(PyExc_ValueError, "record id %d out of range",
                             rid);
                return NULL;
            }
            reason_obj = PyList_GET_ITEM(recs, rid);
        }
        if (replay_push(self, lit, reason_obj, value, lit_val, level, pos,
                        reason, lits, level_no, bidx, bun, bblk, ddesc) < 0)
            return NULL;
    }
    return Py_BuildValue("(iinLLLLL)", event, event_rid, qh, self->max_trail,
                         self->d_propagations, self->d_pure_literals,
                         self->d_clause_visits, self->d_cube_visits);
}

/* ---- pure-candidate hand-off (install time) ----------------------------- */

static PyObject *
NativeCore_set_candidates(NativeCore *self, PyObject *arg)
{
    PyObject *fast;
    Py_ssize_t i, n;
    memset(self->pure_cand, 0, (size_t)self->num_slots);
    fast = PySequence_Fast(arg, "expected a sequence of variables");
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    for (i = 0; i < n; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return NULL;
        }
        if (v <= 0 || v >= self->num_slots) {
            PyErr_Format(PyExc_ValueError, "variable %ld out of range", v);
            Py_DECREF(fast);
            return NULL;
        }
        self->pure_cand[v] = 1;
    }
    Py_DECREF(fast);
    Py_RETURN_NONE;
}

static PyObject *
NativeCore_trail_len(NativeCore *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->trail.len);
}

/* ------------------------------------------ learning-layer fast paths */

/* reduce(lits, is_cube) -> tuple
 *
 * Exact port of constraints.universal_reduce (is_cube=0) and
 * constraints.existential_reduce (is_cube=1) over the core's prefix
 * tables.  A droppable literal (universal in a clause, existential in a
 * cube) survives only if some anchor literal of the other kind lies in
 * its scope: level[v] < level[a] and din[v] <= din[a] <= dout[v]. */
static PyObject *
NativeCore_reduce(NativeCore *self, PyObject *args)
{
    PyObject *lits_o, *fast, *out;
    int is_cube, anchor_exist;
    Py_ssize_t i, j, n;
    IntVec *anchors = &self->scratch_anchor;
    IntVec *kept = &self->scratch_kept;
    int has_droppable = 0;

    if (!PyArg_ParseTuple(args, "Oi", &lits_o, &is_cube))
        return NULL;
    fast = PySequence_Fast(lits_o, "expected a literal sequence");
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    anchor_exist = is_cube ? 0 : 1; /* clause: ∃ anchors; cube: ∀ anchors */

    anchors->len = 0;
    for (i = 0; i < n; i++) {
        long lit = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        long v = lit > 0 ? lit : -lit;
        if (lit == 0 || v >= self->num_slots) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "literal %ld out of range", lit);
            Py_DECREF(fast);
            return NULL;
        }
        if (self->is_exist[v] == anchor_exist) {
            if (vec_push(anchors, (int)v) < 0) {
                Py_DECREF(fast);
                return PyErr_NoMemory();
            }
        }
        else
            has_droppable = 1;
    }
    if (!has_droppable) {
        /* Python returns tuple(lits) unchanged */
        out = PySequence_Tuple(fast);
        Py_DECREF(fast);
        return out;
    }
    kept->len = 0;
    for (i = 0; i < n; i++) {
        long lit = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        long v = lit > 0 ? lit : -lit;
        int keep = 0;
        if (self->is_exist[v] == anchor_exist)
            keep = 1;
        else {
            int v_level = self->level[v];
            int v_din = self->din[v];
            int v_dout = self->dout[v];
            for (j = 0; j < anchors->len; j++) {
                int a = anchors->data[j];
                if (v_level < self->level[a] && v_din <= self->din[a]
                    && self->din[a] <= v_dout) {
                    keep = 1;
                    break;
                }
            }
        }
        if (keep && vec_push(kept, (int)lit) < 0) {
            Py_DECREF(fast);
            return PyErr_NoMemory();
        }
    }
    Py_DECREF(fast);
    out = PyTuple_New(kept->len);
    if (out == NULL)
        return NULL;
    for (i = 0; i < kept->len; i++) {
        PyObject *num = PyLong_FromLong(kept->data[i]);
        if (num == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, num);
    }
    return out;
}

/* (var, lit) ordering for the model-cube result */
static int
cmp_var_lit(const void *pa, const void *pb)
{
    int a = *(const int *)pa, b = *(const int *)pb;
    int av = a > 0 ? a : -a, bv = b > 0 ? b : -b;
    if (av != bv)
        return av < bv ? -1 : 1;
    return a < b ? -1 : (a > b ? 1 : 0);
}

/* build_model_cube() -> tuple
 *
 * Exact port of learning.build_model_cube's flat-array path over the
 * original matrix clauses: for every clause, in installation order, pick
 * one satisfying literal — skip the clause if an already-chosen literal
 * satisfies it (first such hit in literal order wins), else take the
 * earliest-assigned satisfying literal; the result is sorted by
 * (variable, literal).  Raises ValueError when some original clause is
 * not satisfied by the current assignment (an engine bug). */
static PyObject *
NativeCore_build_model_cube(NativeCore *self, PyObject *Py_UNUSED(ignored))
{
    IntVec *out = &self->scratch_kept;
    Py_ssize_t r, i;
    PyObject *result;

    memset(self->chosen, 0, (size_t)(2 * self->num_slots));
    out->len = 0;
    for (r = 0; r < self->n_recs; r++) {
        RecC *rec = &self->recs[r];
        const int *lits;
        int best = 0, best_pos = -1, already = 0;
        if (rec->is_cube || !rec->original)
            continue;
        lits = self->pool.data + rec->lits_off;
        for (i = 0; i < rec->lits_len; i++) {
            int l = lits[i];
            if (self->lit_val[self->base + l] == 1) {
                if (self->chosen[self->base + l]) {
                    already = 1;
                    break;
                }
                else {
                    int p = self->pos[l > 0 ? l : -l];
                    if (best_pos < 0 || p < best_pos) {
                        best = l;
                        best_pos = p;
                    }
                }
            }
        }
        if (already)
            continue;
        if (best_pos < 0) {
            PyErr_Format(PyExc_ValueError,
                         "matrix clause not satisfied (record %zd)", r);
            return NULL;
        }
        self->chosen[self->base + best] = 1;
        if (vec_push(out, best) < 0)
            return PyErr_NoMemory();
    }
    qsort(out->data, (size_t)out->len, sizeof(int), cmp_var_lit);
    result = PyTuple_New(out->len);
    if (result == NULL)
        return NULL;
    for (i = 0; i < out->len; i++) {
        PyObject *num = PyLong_FromLong(out->data[i]);
        if (num == NULL) {
            Py_DECREF(result);
            return NULL;
        }
        PyTuple_SET_ITEM(result, i, num);
    }
    return result;
}

static PyMethodDef NativeCore_methods[] = {
    {"add_record", (PyCFunction)NativeCore_add_record, METH_VARARGS,
     "add_record(is_cube, original, learned, lits, prim, sec) -> rec id"},
    {"assign", (PyCFunction)NativeCore_assign, METH_VARARGS,
     "assign(lit): push a literal, updating the eager counters"},
    {"backtrack", (PyCFunction)NativeCore_backtrack, METH_VARARGS,
     "backtrack(target_len): pop the trail to target_len, reversing counters"},
    {"propagate_into", (PyCFunction)NativeCore_propagate_into, METH_VARARGS,
     "propagate_into(queue_head, <trail lists>, recs, PURE): propagate and "
     "replay the pushes; returns (event, rid, qh, max_trail, stats...)"},
    {"set_candidates", (PyCFunction)NativeCore_set_candidates, METH_O,
     "replace the pure-literal candidate set"},
    {"trail_len", (PyCFunction)NativeCore_trail_len, METH_NOARGS,
     "length of the native trail mirror (debugging aid)"},
    {"reduce", (PyCFunction)NativeCore_reduce, METH_VARARGS,
     "reduce(lits, is_cube) -> tuple: universal/existential reduction"},
    {"build_model_cube", (PyCFunction)NativeCore_build_model_cube, METH_NOARGS,
     "build_model_cube() -> tuple: one satisfying literal per matrix clause"},
    {NULL, NULL, 0, NULL},
};

/* ------------------------------------------------- branching fast path */

/* pick_frontier_levelsub(block_vars, block_unassigned, block_blockers,
 *                        value, level, score_pos, score_neg, child_max,
 *                        block_index) -> literal | None
 *
 * Exact port of heuristics.make_picker's fused "levelsub" picker: rank by
 * the key (-level[v], max(eff(v), eff(-v)), -v) where eff(±v) =
 * score_±[v] + child_max[block_index[v]], then phase by
 * score_pos[v] >= score_neg[v]; the caller runs the keeper's dirty
 * recompute first.  Trail.available_vars is fused with that ranking: walk
 * the trail's incremental frontier counters (a block is open when it still has
 * unassigned variables and no unassigned ≺-predecessor block) and rank
 * its unassigned variables without materializing the candidate list.
 * Safe fusion: the ranking's trailing -v component is a strict tiebreak,
 * so the result is independent of enumeration order — and the scan runs
 * in the exact block/variable order available_vars() produces anyway. */
static PyObject *
native_pick_frontier_levelsub(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *bvars_o, *bun_o, *bblk_o, *value_o, *level_o, *spos_o,
        *sneg_o, *cmax_o, *bidx_o;
    PyObject *bvars, *bun, *bblk, *value, *level, *spos, *sneg, *cmax, *bidx;
    Py_ssize_t bi, nb, nvars, nblocks;
    long best_v = 0, best_lv = 0;
    double best_m = 0.0, sp, sn;
    int have = 0;

    if (!PyArg_ParseTuple(args, "OOOOOOOOO", &bvars_o, &bun_o, &bblk_o,
                          &value_o, &level_o, &spos_o, &sneg_o, &cmax_o,
                          &bidx_o))
        return NULL;
    bvars = PySequence_Fast(bvars_o, "block_vars: expected a sequence");
    bun = PySequence_Fast(bun_o, "block_unassigned: expected a sequence");
    bblk = PySequence_Fast(bblk_o, "block_blockers: expected a sequence");
    value = PySequence_Fast(value_o, "value: expected a sequence");
    level = PySequence_Fast(level_o, "level: expected a sequence");
    spos = PySequence_Fast(spos_o, "score_pos: expected a sequence");
    sneg = PySequence_Fast(sneg_o, "score_neg: expected a sequence");
    cmax = PySequence_Fast(cmax_o, "child_max: expected a sequence");
    bidx = PySequence_Fast(bidx_o, "block_index: expected a sequence");
    if (bvars == NULL || bun == NULL || bblk == NULL || value == NULL
        || level == NULL || spos == NULL || sneg == NULL || cmax == NULL
        || bidx == NULL)
        goto fail;

    nb = PySequence_Fast_GET_SIZE(bvars);
    nvars = PySequence_Fast_GET_SIZE(value);
    nblocks = PySequence_Fast_GET_SIZE(cmax);
    if (PySequence_Fast_GET_SIZE(bun) < nb || PySequence_Fast_GET_SIZE(bblk) < nb) {
        PyErr_SetString(PyExc_ValueError, "frontier counter arrays too short");
        goto fail;
    }
    for (bi = 0; bi < nb; bi++) {
        long un = PyLong_AsLong(PySequence_Fast_GET_ITEM(bun, bi));
        long bl = PyLong_AsLong(PySequence_Fast_GET_ITEM(bblk, bi));
        PyObject *vs;
        Py_ssize_t j, nv;
        if (PyErr_Occurred())
            goto fail;
        if (!un || bl)
            continue;
        vs = PySequence_Fast(PySequence_Fast_GET_ITEM(bvars, bi),
                             "block_vars entry: expected a sequence");
        if (vs == NULL)
            goto fail;
        nv = PySequence_Fast_GET_SIZE(vs);
        for (j = 0; j < nv; j++) {
            long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(vs, j));
            long val, lv, bix;
            double cm, a, b, m;
            int better;
            if (v <= 0 || v >= nvars || v >= PySequence_Fast_GET_SIZE(level)
                || v >= PySequence_Fast_GET_SIZE(bidx)
                || v >= PySequence_Fast_GET_SIZE(spos)
                || v >= PySequence_Fast_GET_SIZE(sneg)) {
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError, "variable %ld out of range",
                                 v);
                Py_DECREF(vs);
                goto fail;
            }
            val = PyLong_AsLong(PySequence_Fast_GET_ITEM(value, v));
            if (val != 0)
                continue;
            lv = PyLong_AsLong(PySequence_Fast_GET_ITEM(level, v));
            bix = PyLong_AsLong(PySequence_Fast_GET_ITEM(bidx, v));
            if (bix < 0 || bix >= nblocks) {
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError,
                                 "block index %ld out of range", bix);
                Py_DECREF(vs);
                goto fail;
            }
            cm = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(cmax, bix));
            a = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(spos, v)) + cm;
            b = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(sneg, v)) + cm;
            if (PyErr_Occurred()) {
                Py_DECREF(vs);
                goto fail;
            }
            m = a >= b ? a : b;
            if (!have)
                better = 1;
            else if (lv != best_lv)
                better = lv < best_lv;
            else if (m != best_m)
                better = m > best_m;
            else
                better = v < best_v;
            if (better) {
                best_v = v;
                best_lv = lv;
                best_m = m;
                have = 1;
            }
        }
        Py_DECREF(vs);
    }
    if (!have) {
        Py_DECREF(bvars); Py_DECREF(bun); Py_DECREF(bblk); Py_DECREF(value);
        Py_DECREF(level); Py_DECREF(spos); Py_DECREF(sneg); Py_DECREF(cmax);
        Py_DECREF(bidx);
        Py_RETURN_NONE;
    }
    sp = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(spos, best_v));
    sn = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(sneg, best_v));
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(bvars); Py_DECREF(bun); Py_DECREF(bblk); Py_DECREF(value);
    Py_DECREF(level); Py_DECREF(spos); Py_DECREF(sneg); Py_DECREF(cmax);
    Py_DECREF(bidx);
    return PyLong_FromLong(sp >= sn ? best_v : -best_v);

fail:
    Py_XDECREF(bvars); Py_XDECREF(bun); Py_XDECREF(bblk); Py_XDECREF(value);
    Py_XDECREF(level); Py_XDECREF(spos); Py_XDECREF(sneg); Py_XDECREF(cmax);
    Py_XDECREF(bidx);
    return NULL;
}

static PyMethodDef native_module_methods[] = {
    {"pick_frontier_levelsub", (PyCFunction)native_pick_frontier_levelsub,
     METH_VARARGS,
     "pick_frontier_levelsub(block_vars, block_unassigned, block_blockers, "
     "value, level, score_pos, score_neg, child_max, block_index) "
     "-> literal | None"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject NativeCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native.NativeCore",
    .tp_basicsize = sizeof(NativeCore),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)NativeCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled propagation kernel (eager-counter semantics)",
    .tp_methods = NativeCore_methods,
    .tp_init = (initproc)NativeCore_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef nativemodule = {
    PyModuleDef_HEAD_INIT,
    "repro._native",
    "Compiled propagation kernel behind SolverConfig.engine == 'native'.",
    -1,
    native_module_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *m;
    if (PyType_Ready(&NativeCoreType) < 0)
        return NULL;
    m = PyModule_Create(&nativemodule);
    if (m == NULL)
        return NULL;
    Py_INCREF(&NativeCoreType);
    if (PyModule_AddObject(m, "NativeCore", (PyObject *)&NativeCoreType) < 0) {
        Py_DECREF(&NativeCoreType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "KERNEL_VERSION", KERNEL_VERSION) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
