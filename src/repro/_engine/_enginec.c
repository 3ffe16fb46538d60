/* _enginec — the compiled engine tier: the simulator's loops and the
 * served stepping core.
 *
 * This module is a line-for-line transcription of
 * ``repro.sim.scheduler.Scheduler._run_fast`` (the fused DES stint loop)
 * into a hand-written CPython extension.  It is NOT a new engine: the
 * pure-Python ``_run_fast`` remains the reference implementation and the
 * single source of truth for semantics; this file must produce the exact
 * same op streams, clocks, jitter-LCG states, and heap layouts, pinned by
 * the 16 golden configs in ``tests/data/golden_engine.json`` running under
 * both tiers.
 *
 * What is compiled here (the PR-3 fast-lane inventory):
 *   - the stint loop itself: pop the earliest runnable task, resume its
 *     generator one op at a time while the DES policy allows, requeue via
 *     a wide ``(clock, tid, task, steps, value, exc)`` heap entry;
 *   - the type-keyed op apply/charge dispatch (the compiled analogue of
 *     ``MEMORY_OP_APPLIERS`` + ``CostModel._charge_table``), fused per op
 *     type with the cache-coherence cost arithmetic;
 *   - the heap discipline (heappush/heappop/heappushpop exactly as
 *     ``heapq`` implements them, with the ``(clock, tid)`` comparison
 *     falling back to full-tuple rich comparison on ties so even the
 *     pathological cases match CPython bit for bit);
 *   - the bit-exact jitter LCG (the scalar recurrence; the numpy batch in
 *     ``costmodel.lcg_batch`` generates the identical state stream).
 *
 * ``run_observed`` is the second executor (the PR-9 observed-path
 * core): a transcription of ``Scheduler._run_general`` +
 * ``_step_task`` + ``DesPolicy`` that keeps heap scheduling, generator
 * resumption, and the exact-type charge/op-apply dispatch native while
 * calling out to Python at every observation point — scheduler hooks,
 * the ``CostModel`` audit tap (filled natively when it is exactly
 * ``OpCostAudit``, delegated to ``cost.charge`` for custom taps), and
 * the ``alloc_stats`` collector.  Unlike the fast lane it writes task
 * state (clock, steps, pending value/exc) and the global step counter
 * through to the Python attributes after every op, so hooks observe
 * exactly the state the pure-Python loop would show them.
 *
 * ``step`` is the one entry point outside the simulator: the asyncio
 * adapter's stepping core (``repro.aio.channel._step``, the reference).
 * It resumes a channel operation with a value or an exception and runs
 * it until it returns or parks, returning the result or the ParkTask
 * op; every served operation runs through it on the c tier, parked
 * ones included, and steps the algorithm kernels below directly.  It
 * applies the exact-type memory ops with the same ``mem_apply`` value
 * effects the two loops use after they charge, and hands every other
 * op to a Python fallback; the permit protocol, the park future and
 * cancellation stay in Python, and so does ``repro.threads``.
 *
 * What is NOT compiled: the algorithms themselves (channel/baseline
 * generators stay pure Python and are resumed via ``gen.send``), every
 * non-default scheduling policy, the processors binding logic
 * (delegated back to ``Scheduler._bind`` / ``_unbind`` /
 * ``_make_runnable``), and the unknown-op fallback (which round-trips
 * through ``CostModel.charge`` + ``Scheduler._dispatch`` exactly like
 * the Python loops do).
 *
 * Object access: every hot attribute lives in a ``__slots__`` member.
 * ``configure()`` resolves each slot's member-descriptor offset once and
 * validates it is a plain ``T_OBJECT_EX`` member; reads/writes are then a
 * single pointer indirection.  If any layout assumption fails, configure()
 * raises and the Python side silently stays on the reference tier.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <math.h>

#if PY_VERSION_HEX >= 0x030c0000
/* 3.12 renamed the member-type constants; the legacy names remain as
 * aliases via structmember.h, but be explicit about what we accept. */
#ifndef T_OBJECT_EX
#define T_OBJECT_EX Py_T_OBJECT_EX
#endif
#endif

#define LCG_A 6364136223846793005ULL
#define LCG_C 1442695040888963407ULL

/* ------------------------------------------------------------------ */
/* configured state                                                    */
/* ------------------------------------------------------------------ */

typedef struct {
    /* op types (exact-type dispatch, like ``type(op) is Read``) */
    PyObject *tp_read, *tp_write, *tp_cas, *tp_faa, *tp_gas;
    PyObject *tp_work, *tp_yield, *tp_spin, *tp_park, *tp_unpark;
    PyObject *tp_current, *tp_alloc, *tp_label, *tp_sampledwork;
    /* cell types for CAS comparison semantics */
    PyObject *tp_refcell, *tp_intcell;
    /* the canonical sampler type (native draw) and the audit tap type */
    PyObject *tp_geowork, *tp_audit;
    /* TaskState members (enum singletons, compared by identity) */
    PyObject *st_runnable, *st_parked, *st_done, *st_failed;
    /* exception classes */
    PyObject *exc_interrupted, *exc_retry, *exc_deadlock, *exc_steplimit;

    /* slot offsets */
    Py_ssize_t t_tid, t_name, t_gen, t_send_fn, t_state, t_clock, t_steps;
    Py_ssize_t t_pending_value, t_pending_exc;
    Py_ssize_t t_unpark_pending, t_interrupt_pending, t_retry_pending;
    Py_ssize_t t_value, t_error, t_cache, t_park_count;
    Py_ssize_t c_value, c_line;
    Py_ssize_t l_loc_id, l_last_writer, l_write_time, l_avail_time;
    Py_ssize_t op_read_cell;
    Py_ssize_t op_write_cell, op_write_value;
    Py_ssize_t op_cas_cell, op_cas_expected, op_cas_update;
    Py_ssize_t op_faa_cell, op_faa_delta;
    Py_ssize_t op_gas_cell, op_gas_value;
    Py_ssize_t op_work_cycles;
    Py_ssize_t op_unpark_task, op_unpark_interrupt, op_unpark_retry;
    Py_ssize_t op_sw_sampler;
    Py_ssize_t op_alloc_tag, op_alloc_units;
    Py_ssize_t gw_mean, gw_randf, gw_log1mp;
    Py_ssize_t a_cell, a_stall, a_miss, a_base;
    Py_ssize_t cm_audit;

    /* --- algorithm kernels (PR 10) --------------------------------- */
    /* cell-state sentinels (identity-compared singletons) */
    PyObject *cs_buffered, *cs_in_buffer, *cs_done, *cs_done_rcv, *cs_broken;
    PyObject *cs_cancelled, *cs_int_send, *cs_int_rcv, *cs_sr_rcv, *cs_sr_eb;
    /* waiter life-cycle sentinels */
    PyObject *ws_init, *ws_parked, *ws_permit, *ws_resumed;
    /* waiter kinds (isinstance: select-linked instances are subclasses) */
    PyObject *cls_sender, *cls_receiver;
    PyObject *exc_closed_send, *exc_closed_recv;
    PyObject *faaq_broken;     /* the FAA queue's poison sentinel */
    PyObject *cur_task_op;     /* the CURRENT_TASK singleton op */
    PyObject *fn_acquire_kit, *fn_release_kit;
    /* Segment / _QSegment / Waiter slot offsets */
    Py_ssize_t sg_id, sg_cnt, sg_states, sg_elems, sg_prev;
    Py_ssize_t qs_id, qs_cells;
    Py_ssize_t w_task, w_state;
    Py_ssize_t op_spin_reason;
    /* bumped on every successful configure(); stamps pooled kernels */
    uint64_t kcfg_gen;

    int ready;
} engine_state;

static engine_state S;

/* interned attribute-name strings */
static PyObject *s_live, *s_heap, *s_cost, *s_policy, *s_p, *s_lcg;
static PyObject *s_processors, *s_unbound, *s_max_steps, *s_total_steps;
static PyObject *s_tasks, *s_bind, *s_unbind, *s_make_runnable, *s_dispatch;
static PyObject *s_charge, *s_popleft, *s_throw, *s_value, *s_compare;
static PyObject *s_read_hit, *s_write, *s_rmw, *s_remote_miss, *s_read_miss;
static PyObject *s_park, *s_unpark, *s_wake_latency, *s_spin, *s_yield_;
static PyObject *s_alloc, *s_jitter, *s_clock, *s_pending_value_str;
static PyObject *s_hooks, *s_alloc_stats, *s_record, *s_forget, *s_sample;
/* algorithm-kernel strings (PR 10) */
static PyObject *s_of, *s_send, *s_close, *s_try_unpark, *s_famf;
static PyObject *s_find_segment, *s_mark_closed, *s_mark_cancelled;
static PyObject *s_park_sender, *s_park_receiver, *s_close_recheck;
static PyObject *s_on_interrupted, *s_expand_buffer;
static PyObject *s_seg_size, *s_stats, *s_segm_s, *s_segm_r, *s_segm_b;
static PyObject *s_cap_s, *s_cap_r, *s_cap_b, *s_ulist;
static PyObject *s_head_attr, *s_tail_attr, *s_enq_idx, *s_deq_idx;
static PyObject *s_cells_processed, *s_send_restarts, *s_rcv_restarts;
static PyObject *s_sends, *s_receives, *s_eliminations, *s_poisoned;
static PyObject *s_rcv_wait_eb;

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Read a slot that the reference implementation guarantees is set. */
static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off)
{
    PyObject *v = SLOT(obj, off);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "engine: unset __slots__ member");
    }
    return v; /* borrowed */
}

static inline void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(v);
    SLOT(obj, off) = v;
    Py_XDECREF(old);
}

static inline int
as_i64(PyObject *o, int64_t *out)
{
    long long v = PyLong_AsLongLong(o);
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    *out = (int64_t)v;
    return 0;
}

static inline int
set_slot_i64(PyObject *obj, Py_ssize_t off, int64_t v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL) {
        return -1;
    }
    slot_set(obj, off, o);
    Py_DECREF(o);
    return 0;
}

static inline int
set_attr_i64(PyObject *obj, PyObject *name, int64_t v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL) {
        return -1;
    }
    int rc = PyObject_SetAttr(obj, name, o);
    Py_DECREF(o);
    return rc;
}

/* ------------------------------------------------------------------ */
/* heapq transcription                                                 */
/* ------------------------------------------------------------------ */

/* Entries are ``(clock, tid, task)`` or the wide stint form
 * ``(clock, tid, task, steps, value, exc)``.  Comparison never reaches
 * past ``tid`` in practice (tids are unique); if it ever would — equal
 * clock AND tid — we delegate to full-tuple rich comparison so the
 * result (including a TypeError on comparing Task objects) is exactly
 * what the pure-Python heapq would produce. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
        && PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        int64_t ac, bc;
        if (as_i64(PyTuple_GET_ITEM(a, 0), &ac) == 0
            && as_i64(PyTuple_GET_ITEM(b, 0), &bc) == 0) {
            if (ac != bc) {
                return ac < bc;
            }
            int64_t at, bt;
            if (as_i64(PyTuple_GET_ITEM(a, 1), &at) == 0
                && as_i64(PyTuple_GET_ITEM(b, 1), &bt) == 0) {
                if (at != bt) {
                    return at < bt;
                }
            }
            else {
                PyErr_Clear();
            }
        }
        else {
            PyErr_Clear();
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heapq._siftdown: move heap[pos] toward the root. */
static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int lt = entry_lt(newitem, parent);
        if (lt < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        if (!lt) {
            break;
        }
        Py_INCREF(parent);
        PyList_SetItem(heap, pos, parent); /* steals parent ref */
        pos = parentpos;
    }
    PyList_SetItem(heap, pos, newitem); /* steals newitem ref */
    return 0;
}

/* heapq._siftup: move the hole at pos down to a leaf, then sift down. */
static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            int lt = entry_lt(PyList_GET_ITEM(heap, childpos),
                              PyList_GET_ITEM(heap, rightpos));
            if (lt < 0) {
                Py_DECREF(newitem);
                return -1;
            }
            if (!lt) {
                childpos = rightpos;
            }
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        PyList_SetItem(heap, pos, child);
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyList_SetItem(heap, pos, newitem);
    return heap_siftdown(heap, startpos, pos);
}

/* Returns a new reference, or NULL on error (heap must be non-empty). */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    if (PyList_GET_SIZE(heap) == 0) {
        return lastelt;
    }
    PyObject *returnitem = PyList_GET_ITEM(heap, 0);
    Py_INCREF(returnitem);
    PyList_SetItem(heap, 0, lastelt); /* steals lastelt */
    if (heap_siftup(heap, 0) < 0) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

/* heappushpop(heap, item): new reference to the resulting minimum. */
static PyObject *
heap_pushpop(PyObject *heap, PyObject *item)
{
    if (PyList_GET_SIZE(heap) > 0) {
        PyObject *top = PyList_GET_ITEM(heap, 0);
        int lt = entry_lt(top, item);
        if (lt < 0) {
            return NULL;
        }
        if (lt) {
            Py_INCREF(top);
            Py_INCREF(item);
            PyList_SetItem(heap, 0, item); /* steals item copy */
            if (heap_siftup(heap, 0) < 0) {
                Py_DECREF(top);
                return NULL;
            }
            return top;
        }
    }
    Py_INCREF(item);
    return item;
}

/* heappush(heap, item). */
static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0) {
        return -1;
    }
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* ------------------------------------------------------------------ */
/* configure()                                                         */
/* ------------------------------------------------------------------ */

static int
resolve_slot(PyObject *cls, const char *name, Py_ssize_t *out)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    if (descr == NULL) {
        return -1;
    }
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_RuntimeError,
                     "engine layout mismatch: %s.%s is not a __slots__ member",
                     ((PyTypeObject *)cls)->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
    if (def->type != T_OBJECT_EX || def->flags != 0) {
        PyErr_Format(PyExc_RuntimeError,
                     "engine layout mismatch: %s.%s has unexpected member kind",
                     ((PyTypeObject *)cls)->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    *out = def->offset;
    Py_DECREF(descr);
    return 0;
}

static PyObject *
grab(PyObject *cfg, const char *key)
{
    PyObject *v = PyDict_GetItemString(cfg, key); /* borrowed */
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "engine configure: missing %s", key);
        return NULL;
    }
    Py_INCREF(v);
    return v;
}

static PyObject *
engine_configure(PyObject *self, PyObject *cfg)
{
    (void)self;
    if (!PyDict_Check(cfg)) {
        PyErr_SetString(PyExc_TypeError, "configure() expects a dict");
        return NULL;
    }
    S.ready = 0;

#define GRAB(field, key)                          \
    do {                                          \
        Py_XDECREF(S.field);                      \
        S.field = grab(cfg, key);                 \
        if (S.field == NULL) return NULL;         \
    } while (0)

    GRAB(tp_read, "Read");
    GRAB(tp_write, "Write");
    GRAB(tp_cas, "Cas");
    GRAB(tp_faa, "Faa");
    GRAB(tp_gas, "GetAndSet");
    GRAB(tp_work, "Work");
    GRAB(tp_yield, "Yield");
    GRAB(tp_spin, "Spin");
    GRAB(tp_park, "ParkTask");
    GRAB(tp_unpark, "UnparkTask");
    GRAB(tp_current, "CurrentTask");
    GRAB(tp_alloc, "Alloc");
    GRAB(tp_label, "Label");
    GRAB(tp_sampledwork, "SampledWork");
    GRAB(tp_refcell, "RefCell");
    GRAB(tp_intcell, "IntCell");
    GRAB(tp_geowork, "GeometricWork");
    GRAB(tp_audit, "OpCostAudit");
    GRAB(st_runnable, "RUNNABLE");
    GRAB(st_parked, "PARKED");
    GRAB(st_done, "DONE");
    GRAB(st_failed, "FAILED");
    GRAB(exc_interrupted, "Interrupted");
    GRAB(exc_retry, "RetryWakeup");
    GRAB(exc_deadlock, "DeadlockError");
    GRAB(exc_steplimit, "StepLimitExceeded");
    GRAB(cs_buffered, "C_BUFFERED");
    GRAB(cs_in_buffer, "C_IN_BUFFER");
    GRAB(cs_done, "C_DONE");
    GRAB(cs_done_rcv, "C_DONE_RCV");
    GRAB(cs_broken, "C_BROKEN");
    GRAB(cs_cancelled, "C_CANCELLED");
    GRAB(cs_int_send, "C_INTERRUPTED_SEND");
    GRAB(cs_int_rcv, "C_INTERRUPTED_RCV");
    GRAB(cs_sr_rcv, "C_S_RESUMING_RCV");
    GRAB(cs_sr_eb, "C_S_RESUMING_EB");
    GRAB(ws_init, "W_INIT");
    GRAB(ws_parked, "W_PARKED");
    GRAB(ws_permit, "W_PERMIT");
    GRAB(ws_resumed, "W_RESUMED");
    GRAB(cls_sender, "SenderWaiter");
    GRAB(cls_receiver, "ReceiverWaiter");
    GRAB(exc_closed_send, "ChannelClosedForSend");
    GRAB(exc_closed_recv, "ChannelClosedForReceive");
    GRAB(faaq_broken, "FAAQ_BROKEN");
    GRAB(cur_task_op, "CURRENT_TASK");
    GRAB(fn_acquire_kit, "acquire_kit");
    GRAB(fn_release_kit, "release_kit");
#undef GRAB

    PyObject *task_cls = PyDict_GetItemString(cfg, "Task");
    PyObject *cell_cls = PyDict_GetItemString(cfg, "Cell");
    PyObject *line_cls = PyDict_GetItemString(cfg, "CacheLine");
    PyObject *cm_cls = PyDict_GetItemString(cfg, "CostModel");
    PyObject *waiter_cls = PyDict_GetItemString(cfg, "Waiter");
    PyObject *segment_cls = PyDict_GetItemString(cfg, "Segment");
    PyObject *qsegment_cls = PyDict_GetItemString(cfg, "QSegment");
    if (task_cls == NULL || cell_cls == NULL || line_cls == NULL
        || cm_cls == NULL || waiter_cls == NULL || segment_cls == NULL
        || qsegment_cls == NULL) {
        PyErr_SetString(PyExc_KeyError,
                        "engine configure: missing Task/Cell/CacheLine/CostModel"
                        "/Waiter/Segment/QSegment");
        return NULL;
    }

#define RS(cls, name, field)                              \
    if (resolve_slot(cls, name, &S.field) < 0) return NULL
    RS(task_cls, "tid", t_tid);
    RS(task_cls, "name", t_name);
    RS(task_cls, "gen", t_gen);
    RS(task_cls, "send_fn", t_send_fn);
    RS(task_cls, "state", t_state);
    RS(task_cls, "clock", t_clock);
    RS(task_cls, "steps", t_steps);
    RS(task_cls, "pending_value", t_pending_value);
    RS(task_cls, "pending_exc", t_pending_exc);
    RS(task_cls, "unpark_pending", t_unpark_pending);
    RS(task_cls, "interrupt_pending", t_interrupt_pending);
    RS(task_cls, "retry_pending", t_retry_pending);
    RS(task_cls, "value", t_value);
    RS(task_cls, "error", t_error);
    RS(task_cls, "cache", t_cache);
    RS(task_cls, "park_count", t_park_count);
    RS(cell_cls, "value", c_value);
    RS(cell_cls, "line", c_line);
    RS(line_cls, "loc_id", l_loc_id);
    RS(line_cls, "last_writer", l_last_writer);
    RS(line_cls, "write_time", l_write_time);
    RS(line_cls, "avail_time", l_avail_time);
    RS(S.tp_read, "cell", op_read_cell);
    RS(S.tp_write, "cell", op_write_cell);
    RS(S.tp_write, "value", op_write_value);
    RS(S.tp_cas, "cell", op_cas_cell);
    RS(S.tp_cas, "expected", op_cas_expected);
    RS(S.tp_cas, "update", op_cas_update);
    RS(S.tp_faa, "cell", op_faa_cell);
    RS(S.tp_faa, "delta", op_faa_delta);
    RS(S.tp_gas, "cell", op_gas_cell);
    RS(S.tp_gas, "value", op_gas_value);
    RS(S.tp_work, "cycles", op_work_cycles);
    RS(S.tp_unpark, "task", op_unpark_task);
    RS(S.tp_unpark, "interrupt", op_unpark_interrupt);
    RS(S.tp_unpark, "retry", op_unpark_retry);
    RS(S.tp_sampledwork, "sampler", op_sw_sampler);
    RS(S.tp_alloc, "tag", op_alloc_tag);
    RS(S.tp_alloc, "units", op_alloc_units);
    RS(S.tp_geowork, "mean", gw_mean);
    RS(S.tp_geowork, "_randf", gw_randf);
    RS(S.tp_geowork, "_log1mp", gw_log1mp);
    RS(S.tp_audit, "cell", a_cell);
    RS(S.tp_audit, "stall", a_stall);
    RS(S.tp_audit, "miss", a_miss);
    RS(S.tp_audit, "base", a_base);
    RS(cm_cls, "_audit", cm_audit);
    RS(waiter_cls, "task", w_task);
    RS(waiter_cls, "_state", w_state);
    RS(segment_cls, "id", sg_id);
    RS(segment_cls, "_cnt", sg_cnt);
    RS(segment_cls, "states", sg_states);
    RS(segment_cls, "elems", sg_elems);
    RS(segment_cls, "_prev", sg_prev);
    RS(qsegment_cls, "id", qs_id);
    RS(qsegment_cls, "cells", qs_cells);
    RS(S.tp_spin, "reason", op_spin_reason);
#undef RS

    S.kcfg_gen += 1;   /* invalidate pooled kernels from the old config */
    S.ready = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* run_fast()                                                          */
/* ------------------------------------------------------------------ */

/* Read an int attribute (through normal attribute lookup — cold path). */
static int
attr_i64(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        return -1;
    }
    int rc = as_i64(v, out);
    Py_DECREF(v);
    return rc;
}

static int
live_count(PyObject *sched, int64_t *out)
{
    return attr_i64(sched, s_live, out);
}

static int
live_add(PyObject *sched, long delta)
{
    int64_t live;
    if (live_count(sched, &live) < 0) {
        return -1;
    }
    PyObject *nv = PyLong_FromLongLong(live + delta);
    if (nv == NULL) {
        return -1;
    }
    int rc = PyObject_SetAttr(sched, s_live, nv);
    Py_DECREF(nv);
    return rc;
}

/* Call ``self.<meth>(arg)`` discarding the result (vectorcall). */
static int
call_method1(PyObject *obj, PyObject *meth, PyObject *arg)
{
    PyObject *args[2] = {obj, arg};
    PyObject *r = PyObject_VectorcallMethod(
        meth, args, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (r == NULL) {
        return -1;
    }
    Py_DECREF(r);
    return 0;
}

/* Draw one cycle count from ``op.sampler``, bit-exact to
 * ``GeometricWork.sample()``: for the canonical sampler the uniform
 * variate comes from the cached ``rng.random`` bound method (the same
 * Mersenne-Twister stream Python would consume) and the inverse-CDF
 * transform runs in libm — CPython's ``math.log`` is the same ``log``,
 * so the doubles (and the truncation to int) are identical.  Foreign
 * samplers fall back to calling ``sample()``. */
static int
sampled_work_draw(PyObject *op, int64_t *out)
{
    PyObject *sampler = slot_get(op, S.op_sw_sampler);
    if (sampler == NULL) {
        return -1;
    }
    if ((PyObject *)Py_TYPE(sampler) == S.tp_geowork) {
        PyObject *mean_obj = slot_get(sampler, S.gw_mean);
        int64_t mean;
        if (mean_obj == NULL || as_i64(mean_obj, &mean) < 0) {
            return -1;
        }
        if (mean == 0) {
            *out = 0;
            return 0;
        }
        PyObject *randf = slot_get(sampler, S.gw_randf);
        if (randf == NULL) {
            return -1;
        }
        PyObject *u_obj = PyObject_CallNoArgs(randf);
        if (u_obj == NULL) {
            return -1;
        }
        double u = PyFloat_AsDouble(u_obj);
        Py_DECREF(u_obj);
        if (u == -1.0 && PyErr_Occurred()) {
            return -1;
        }
        PyObject *l_obj = slot_get(sampler, S.gw_log1mp);
        if (l_obj == NULL) {
            return -1;
        }
        double log1mp = PyFloat_AsDouble(l_obj);
        if (log1mp == -1.0 && PyErr_Occurred()) {
            return -1;
        }
        if (u < 1e-12) {
            u = 1e-12;
        }
        *out = (int64_t)(log(u) / log1mp);
        return 0;
    }
    PyObject *r = PyObject_VectorcallMethod(
        s_sample, &sampler, 1 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (r == NULL) {
        return -1;
    }
    int rc = as_i64(r, out);
    Py_DECREF(r);
    return rc;
}

/* Fill the attached OpCostAudit exactly like the audited handlers do. */
static int
audit_fill(PyObject *audit, PyObject *cell, int64_t stall, int64_t miss,
           int64_t base)
{
    slot_set(audit, S.a_cell, cell);
    if (set_slot_i64(audit, S.a_stall, stall) < 0) {
        return -1;
    }
    if (set_slot_i64(audit, S.a_miss, miss) < 0) {
        return -1;
    }
    return set_slot_i64(audit, S.a_base, base);
}

/* The cost-model jitter draw: advance the LCG, return a bounded sample. */
static inline int64_t
jitter_draw(uint64_t *lcg, int64_t bound_plus1)
{
    *lcg = *lcg * LCG_A + LCG_C;
    return (int64_t)((*lcg >> 33) % (uint64_t)bound_plus1);
}

/* Mark the running task finished (DONE/FAILED bookkeeping shared path). */
static int
finish_task(PyObject *sched, PyObject *task, PyObject *state,
            int64_t tclock, int64_t tsteps, int procs_enabled)
{
    slot_set(task, S.t_state, state);
    PyObject *c = PyLong_FromLongLong(tclock);
    PyObject *st = PyLong_FromLongLong(tsteps);
    if (c == NULL || st == NULL) {
        Py_XDECREF(c);
        Py_XDECREF(st);
        return -1;
    }
    slot_set(task, S.t_clock, c);
    slot_set(task, S.t_steps, st);
    Py_DECREF(c);
    Py_DECREF(st);
    slot_set(task, S.t_pending_value, Py_None);
    slot_set(task, S.t_pending_exc, Py_None);
    if (live_add(sched, -1) < 0) {
        return -1;
    }
    if (procs_enabled && call_method1(sched, s_unbind, task) < 0) {
        return -1;
    }
    return 0;
}

static void
raise_step_limit(int64_t limit)
{
    PyObject *lim = PyLong_FromLongLong(limit);
    if (lim != NULL) {
        PyErr_SetObject(S.exc_steplimit, lim);
        Py_DECREF(lim);
    }
}

/* ------------------------------------------------------------------ */
/* shared-memory value effects                                         */
/* ------------------------------------------------------------------ */

/* The ``cell`` slot of a Faa / Cas / GetAndSet / Write op. */
static inline Py_ssize_t
store_cell_off(PyObject *tp)
{
    return tp == S.tp_faa ? S.op_faa_cell :
           tp == S.tp_cas ? S.op_cas_cell :
           tp == S.tp_gas ? S.op_gas_cell : S.op_write_cell;
}

/* The one compiled copy of ``MEMORY_OP_APPLIERS`` for the storing ops:
 * apply a Faa / Cas / GetAndSet / Write (exact type ``tp``) to ``cell``
 * and return the value the generator resumes with, as a new reference —
 * the old value for Faa and GetAndSet, the CAS outcome, None for Write —
 * or NULL with an exception set.  CAS compares by identity on a RefCell,
 * by ``==`` on an IntCell, and through ``cell.compare`` on any other
 * cell type.  Both engine loops call this after they charge the op; the
 * sync driver calls it with nothing to charge. */
static inline PyObject *
mem_apply(PyObject *tp, PyObject *op, PyObject *cell)
{
    if (tp == S.tp_faa) {
        PyObject *old = slot_get(cell, S.c_value);
        PyObject *delta = old ? slot_get(op, S.op_faa_delta) : NULL;
        if (delta == NULL) {
            return NULL;
        }
        Py_INCREF(old);
        PyObject *nv = PyNumber_Add(old, delta);
        if (nv == NULL) {
            Py_DECREF(old);
            return NULL;
        }
        slot_set(cell, S.c_value, nv);
        Py_DECREF(nv);
        return old;
    }
    if (tp == S.tp_cas) {
        PyObject *cur = slot_get(cell, S.c_value);
        PyObject *expected = cur ? slot_get(op, S.op_cas_expected) : NULL;
        if (expected == NULL) {
            return NULL;
        }
        int eq;
        PyObject *cell_tp = (PyObject *)Py_TYPE(cell);
        /* __eq__ or a custom compare() may run Python code that rebinds
         * the cell or the op: hold what is read after the comparison. */
        Py_INCREF(cell);
        if (cell_tp == S.tp_refcell) {
            eq = (cur == expected);
        }
        else {
            Py_INCREF(cur);
            Py_INCREF(expected);
            PyObject *r;
            if (cell_tp == S.tp_intcell) {
                r = PyObject_RichCompare(cur, expected, Py_EQ);
            }
            else {
                PyObject *cmpargs[3] = {cell, cur, expected};
                r = PyObject_VectorcallMethod(
                    s_compare, cmpargs, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
            }
            Py_DECREF(cur);
            Py_DECREF(expected);
            eq = r == NULL ? -1 : PyObject_IsTrue(r);
            Py_XDECREF(r);
        }
        PyObject *res = NULL;
        if (eq > 0) {
            PyObject *update = slot_get(op, S.op_cas_update);
            if (update != NULL) {
                slot_set(cell, S.c_value, update);
                res = Py_NewRef(Py_True);
            }
        }
        else if (eq == 0) {
            res = Py_NewRef(Py_False);
        }
        Py_DECREF(cell);
        return res;
    }
    if (tp == S.tp_write) {
        PyObject *nv = slot_get(op, S.op_write_value);
        if (nv == NULL) {
            return NULL;
        }
        slot_set(cell, S.c_value, nv);
        return Py_NewRef(Py_None);
    }
    /* GetAndSet */
    PyObject *old = slot_get(cell, S.c_value);
    PyObject *nv = old ? slot_get(op, S.op_gas_value) : NULL;
    if (nv == NULL) {
        return NULL;
    }
    Py_INCREF(old);
    slot_set(cell, S.c_value, nv);
    return old;
}

static PyObject *
engine_run_fast(PyObject *self, PyObject *sched)
{
    (void)self;
    if (!S.ready) {
        PyErr_SetString(PyExc_RuntimeError, "engine not configured");
        return NULL;
    }

    PyObject *cost = NULL, *policy = NULL, *heap = NULL, *params = NULL;
    PyObject *unbound = NULL, *procs_obj = NULL, *tasks_list = NULL;
    PyObject *pending = NULL;
    PyObject *result = NULL;
    int failed = 1;
    int engaged = 0; /* set once steps/lcg are loaded; gates the finally-sync */

    cost = PyObject_GetAttr(sched, s_cost);
    if (cost == NULL) goto cleanup;
    policy = PyObject_GetAttr(sched, s_policy);
    if (policy == NULL) goto cleanup;
    heap = PyObject_GetAttr(policy, s_heap);
    if (heap == NULL || !PyList_CheckExact(heap)) {
        if (heap != NULL) {
            PyErr_SetString(PyExc_TypeError, "engine: policy._heap is not a list");
        }
        goto cleanup;
    }
    params = PyObject_GetAttr(cost, s_p);
    if (params == NULL) goto cleanup;
    unbound = PyObject_GetAttr(sched, s_unbound);
    if (unbound == NULL) goto cleanup;
    procs_obj = PyObject_GetAttr(sched, s_processors);
    if (procs_obj == NULL) goto cleanup;
    tasks_list = PyObject_GetAttr(sched, s_tasks);
    if (tasks_list == NULL) goto cleanup;
    if (!PyList_CheckExact(tasks_list)) {
        PyErr_SetString(PyExc_TypeError, "engine: scheduler.tasks is not a list");
        goto cleanup;
    }
    int procs_enabled = (procs_obj != Py_None);

    int64_t read_hit, write_cost, rmw_cost, remote_miss, read_miss;
    int64_t park_cost, unpark_cost, wake_latency, spin_cost, yield_cost;
    int64_t alloc_cost, jit, limit, steps;
    if (attr_i64(params, s_read_hit, &read_hit) < 0) goto cleanup;
    if (attr_i64(params, s_write, &write_cost) < 0) goto cleanup;
    if (attr_i64(params, s_rmw, &rmw_cost) < 0) goto cleanup;
    if (attr_i64(params, s_remote_miss, &remote_miss) < 0) goto cleanup;
    if (attr_i64(params, s_read_miss, &read_miss) < 0) goto cleanup;
    if (attr_i64(params, s_park, &park_cost) < 0) goto cleanup;
    if (attr_i64(params, s_unpark, &unpark_cost) < 0) goto cleanup;
    if (attr_i64(params, s_wake_latency, &wake_latency) < 0) goto cleanup;
    if (attr_i64(params, s_spin, &spin_cost) < 0) goto cleanup;
    if (attr_i64(params, s_yield_, &yield_cost) < 0) goto cleanup;
    if (attr_i64(params, s_alloc, &alloc_cost) < 0) goto cleanup;
    if (attr_i64(params, s_jitter, &jit) < 0) goto cleanup;
    if (attr_i64(sched, s_max_steps, &limit) < 0) goto cleanup;
    if (attr_i64(sched, s_total_steps, &steps) < 0) goto cleanup;
    int64_t jit1 = jit + 1, rm1 = remote_miss + 1, rd1 = read_miss + 1;

    uint64_t lcg = 0;
    {
        PyObject *l = PyObject_GetAttr(cost, s_lcg);
        if (l == NULL) goto cleanup;
        lcg = PyLong_AsUnsignedLongLong(l);
        Py_DECREF(l);
        if (lcg == (uint64_t)-1 && PyErr_Occurred()) goto cleanup;
    }
    engaged = 1;

    /* ---------------- outer loop: one stint per iteration ------------ */
    for (;;) {
        int64_t live;
        if (live_count(sched, &live) < 0) goto cleanup;
        if (live <= 0) break;

        /* -- policy.next(), inlined ----------------------------------- */
        PyObject *entry = NULL;
        if (pending != NULL) {
            PyObject *e;
            if (PyList_GET_SIZE(heap) > 0) {
                e = heap_pushpop(heap, pending);
            }
            else {
                e = pending;
                Py_INCREF(e);
            }
            Py_CLEAR(pending);
            if (e == NULL) goto cleanup;
            PyObject *t = PyTuple_GET_ITEM(e, 2);
            int64_t tc, ec;
            PyObject *tco = slot_get(t, S.t_clock);
            if (tco == NULL) { Py_DECREF(e); goto cleanup; }
            if (as_i64(tco, &tc) < 0 || as_i64(PyTuple_GET_ITEM(e, 0), &ec) < 0) {
                Py_DECREF(e);
                goto cleanup;
            }
            if (SLOT(t, S.t_state) == S.st_runnable && tc == ec) {
                entry = e;
            }
            else {
                Py_DECREF(e);
            }
        }
        if (entry == NULL) {
            while (PyList_GET_SIZE(heap) > 0) {
                PyObject *e = heap_pop(heap);
                if (e == NULL) goto cleanup;
                PyObject *t = PyTuple_GET_ITEM(e, 2);
                int64_t tc, ec;
                PyObject *tco = slot_get(t, S.t_clock);
                if (tco == NULL) { Py_DECREF(e); goto cleanup; }
                if (as_i64(tco, &tc) < 0 || as_i64(PyTuple_GET_ITEM(e, 0), &ec) < 0) {
                    Py_DECREF(e);
                    goto cleanup;
                }
                if (SLOT(t, S.t_state) != S.st_runnable || tc != ec) {
                    Py_DECREF(e); /* stale entry; a fresher one exists */
                    continue;
                }
                entry = e;
                break;
            }
        }
        if (entry == NULL) {
            int has_unbound = PyObject_IsTrue(unbound);
            if (has_unbound < 0) goto cleanup;
            if (has_unbound) { /* defensive: bind and keep going */
                PyObject *t = PyObject_CallMethodObjArgs(unbound, s_popleft, NULL);
                if (t == NULL) goto cleanup;
                int rc = call_method1(sched, s_bind, t);
                Py_DECREF(t);
                if (rc < 0) goto cleanup;
                continue;
            }
            /* deadlock check over all tasks */
            PyObject *parked = PyList_New(0);
            if (parked == NULL) goto cleanup;
            Py_ssize_t ntasks = PyList_GET_SIZE(tasks_list);
            for (Py_ssize_t i = 0; i < ntasks; i++) {
                PyObject *t = PyList_GET_ITEM(tasks_list, i);
                if (SLOT(t, S.t_state) == S.st_parked) {
                    PyObject *nm = slot_get(t, S.t_name);
                    if (nm == NULL || PyList_Append(parked, nm) < 0) {
                        Py_DECREF(parked);
                        goto cleanup;
                    }
                }
            }
            if (PyList_GET_SIZE(parked) > 0) {
                PyErr_SetObject(S.exc_deadlock, parked);
                Py_DECREF(parked);
                goto cleanup;
            }
            Py_DECREF(parked);
            break; /* spawned nothing / all finished */
        }

        /* -- stint setup ---------------------------------------------- */
        PyObject *task = PyTuple_GET_ITEM(entry, 2);
        Py_INCREF(task);
        PyObject *gen = slot_get(task, S.t_gen);           /* borrowed */
        PyObject *send = slot_get(task, S.t_send_fn);      /* borrowed */
        PyObject *tid_obj = slot_get(task, S.t_tid);       /* borrowed */
        PyObject *tcache = slot_get(task, S.t_cache);      /* borrowed */
        if (gen == NULL || send == NULL || tid_obj == NULL || tcache == NULL) {
            Py_DECREF(task);
            Py_DECREF(entry);
            goto cleanup;
        }
        int64_t ttid, tclock, tsteps;
        PyObject *send_value = NULL; /* owned or NULL (= None) */
        PyObject *throw_exc = NULL;  /* owned or NULL (= no exception) */
        {
            PyObject *tco = slot_get(task, S.t_clock);
            if (tco == NULL || as_i64(tid_obj, &ttid) < 0 || as_i64(tco, &tclock) < 0) {
                Py_DECREF(task);
                Py_DECREF(entry);
                goto cleanup;
            }
        }
        if (PyTuple_GET_SIZE(entry) == 6) {
            if (as_i64(PyTuple_GET_ITEM(entry, 3), &tsteps) < 0) {
                Py_DECREF(task);
                Py_DECREF(entry);
                goto cleanup;
            }
            send_value = PyTuple_GET_ITEM(entry, 4);
            Py_INCREF(send_value);
            PyObject *e5 = PyTuple_GET_ITEM(entry, 5);
            if (e5 != Py_None) {
                throw_exc = e5;
                Py_INCREF(throw_exc);
            }
        }
        else {
            PyObject *ts = slot_get(task, S.t_steps);
            if (ts == NULL || as_i64(ts, &tsteps) < 0) {
                Py_DECREF(task);
                Py_DECREF(entry);
                goto cleanup;
            }
            send_value = slot_get(task, S.t_pending_value);
            if (send_value == NULL) {
                Py_DECREF(task);
                Py_DECREF(entry);
                goto cleanup;
            }
            Py_INCREF(send_value);
            PyObject *pe = SLOT(task, S.t_pending_exc);
            if (pe != NULL && pe != Py_None) {
                throw_exc = pe;
                Py_INCREF(throw_exc);
            }
        }
        Py_DECREF(entry);

        int64_t next_clock = INT64_MAX;
        if (PyList_GET_SIZE(heap) > 0) {
            if (as_i64(PyTuple_GET_ITEM(PyList_GET_ITEM(heap, 0), 0), &next_clock) < 0) {
                Py_XDECREF(send_value);
                Py_XDECREF(throw_exc);
                Py_DECREF(task);
                goto cleanup;
            }
        }

        /* -- inner loop: one op per iteration ------------------------- */
        int stint_error = 0;
        for (;;) {
            steps += 1;
            PyObject *op;
            if (throw_exc != NULL) {
                PyObject *exc = throw_exc;
                PyObject *targs[2] = {gen, exc};
                throw_exc = NULL;
                op = PyObject_VectorcallMethod(
                    s_throw, targs, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
                Py_DECREF(exc);
            }
            else {
                PyObject *value = send_value; /* may be NULL = None */
                send_value = NULL;
                op = PyObject_CallOneArg(send, value ? value : Py_None);
                Py_XDECREF(value);
            }
            if (op == NULL) {
                /* task completed or failed */
                PyObject *ptype, *pvalue, *ptb;
                PyErr_Fetch(&ptype, &pvalue, &ptb);
                PyErr_NormalizeException(&ptype, &pvalue, &ptb);
                if (ptb != NULL && pvalue != NULL) {
                    PyException_SetTraceback(pvalue, ptb);
                }
                int is_stop = (ptype != NULL
                               && PyErr_GivenExceptionMatches(ptype, PyExc_StopIteration));
                if (is_stop) {
                    PyObject *retval = pvalue
                        ? PyObject_GetAttr(pvalue, s_value)
                        : Py_NewRef(Py_None);
                    Py_XDECREF(ptype);
                    Py_XDECREF(pvalue);
                    Py_XDECREF(ptb);
                    if (retval == NULL) {
                        stint_error = 1;
                        break;
                    }
                    slot_set(task, S.t_value, retval);
                    Py_DECREF(retval);
                    if (finish_task(sched, task, S.st_done, tclock, tsteps,
                                    procs_enabled) < 0) {
                        stint_error = 1;
                        break;
                    }
                }
                else if (pvalue != NULL) {
                    slot_set(task, S.t_error, pvalue);
                    Py_XDECREF(ptype);
                    Py_XDECREF(pvalue);
                    Py_XDECREF(ptb);
                    if (finish_task(sched, task, S.st_failed, tclock, tsteps,
                                    procs_enabled) < 0) {
                        stint_error = 1;
                        break;
                    }
                }
                else {
                    /* send() returned NULL without an exception set */
                    PyErr_Restore(ptype, pvalue, ptb);
                    if (!PyErr_Occurred()) {
                        PyErr_SetString(PyExc_SystemError,
                                        "engine: generator returned NULL without error");
                    }
                    stint_error = 1;
                    break;
                }
                if (steps > limit) {
                    raise_step_limit(limit);
                    stint_error = 1;
                }
                break;
            }
            tsteps += 1;
            PyObject *tp = (PyObject *)Py_TYPE(op);

            /* -- cost.charge + apply_memory_op, fused ----------------- */
            if (tp == S.tp_read) {
                PyObject *cell = slot_get(op, S.op_read_cell);
                PyObject *line = cell ? slot_get(cell, S.c_line) : NULL;
                if (line == NULL) goto op_error;
                int64_t base = jit ? read_hit + jitter_draw(&lcg, jit1) : read_hit;
                PyObject *lw = SLOT(line, S.l_last_writer);
                int64_t lwv = -1;
                if (lw != NULL && lw != Py_None && as_i64(lw, &lwv) < 0) goto op_error;
                if (lw != NULL && lw != Py_None && lwv != ttid) {
                    PyObject *loc = slot_get(line, S.l_loc_id);
                    PyObject *wt_obj = loc ? slot_get(line, S.l_write_time) : NULL;
                    if (wt_obj == NULL) goto op_error;
                    int64_t wt, seen = -1;
                    if (as_i64(wt_obj, &wt) < 0) goto op_error;
                    PyObject *seen_obj = PyDict_GetItemWithError(tcache, loc);
                    if (seen_obj == NULL && PyErr_Occurred()) goto op_error;
                    if (seen_obj != NULL && as_i64(seen_obj, &seen) < 0) goto op_error;
                    if (wt > seen) {
                        int64_t miss = read_miss;
                        if (jit && read_miss) {
                            miss += jitter_draw(&lcg, rd1);
                        }
                        if (PyDict_SetItem(tcache, loc, wt_obj) < 0) goto op_error;
                        /* A read cannot complete before the owning
                         * writer's store retires. */
                        PyObject *av_obj = slot_get(line, S.l_avail_time);
                        int64_t avail;
                        if (av_obj == NULL || as_i64(av_obj, &avail) < 0) goto op_error;
                        if (avail > tclock) {
                            tclock = avail;
                        }
                        tclock += base + miss;
                    }
                    else {
                        tclock += base;
                    }
                }
                else {
                    tclock += base;
                }
                send_value = slot_get(cell, S.c_value);
                if (send_value == NULL) goto op_error;
                Py_INCREF(send_value);
            }
            else if (tp == S.tp_faa || tp == S.tp_cas || tp == S.tp_gas
                     || tp == S.tp_write) {
                PyObject *cell = slot_get(op, store_cell_off(tp));
                PyObject *line = cell ? slot_get(cell, S.c_line) : NULL;
                if (line == NULL) goto op_error;
                int64_t start = tclock;
                {
                    PyObject *at_obj = slot_get(line, S.l_avail_time);
                    int64_t at;
                    if (at_obj == NULL || as_i64(at_obj, &at) < 0) goto op_error;
                    if (at > start) {
                        start = at;
                    }
                }
                int64_t base = jit ? jitter_draw(&lcg, jit1) : 0;
                base += (tp == S.tp_write) ? write_cost : rmw_cost;
                PyObject *lw = SLOT(line, S.l_last_writer);
                int64_t end, lwv = -1;
                if (lw != NULL && lw != Py_None && as_i64(lw, &lwv) < 0) goto op_error;
                if (lw != NULL && lw != Py_None && lwv != ttid) {
                    int64_t miss = remote_miss;
                    if (jit && remote_miss) {
                        miss += jitter_draw(&lcg, rm1);
                    }
                    end = start + base + miss;
                }
                else {
                    end = start + base;
                }
                tclock = end;
                {
                    PyObject *end_obj = PyLong_FromLongLong(end);
                    if (end_obj == NULL) goto op_error;
                    slot_set(line, S.l_avail_time, end_obj);
                    slot_set(line, S.l_last_writer, tid_obj);
                    slot_set(line, S.l_write_time, end_obj);
                    PyObject *loc = slot_get(line, S.l_loc_id);
                    if (loc == NULL
                        || PyDict_SetItem(tcache, loc, end_obj) < 0) {
                        Py_DECREF(end_obj);
                        goto op_error;
                    }
                    Py_DECREF(end_obj);
                }
                send_value = mem_apply(tp, op, cell);
                if (send_value == NULL) goto op_error;
            }
            else if (tp == S.tp_work) {
                PyObject *cyc = slot_get(op, S.op_work_cycles);
                int64_t cycles;
                if (cyc == NULL || as_i64(cyc, &cycles) < 0) goto op_error;
                tclock += cycles;
            }
            else if (tp == S.tp_sampledwork) {
                /* Drawn from the sampler's own RNG stream, not the
                 * jitter LCG; zero draws charge zero cycles. */
                int64_t k;
                if (sampled_work_draw(op, &k) < 0) goto op_error;
                tclock += k;
            }
            else if (tp == S.tp_yield) {
                tclock += yield_cost;
            }
            else if (tp == S.tp_spin) {
                /* DesPolicy.on_voluntary_yield is the base-class no-op */
                tclock += spin_cost;
            }
            else if (tp == S.tp_park) {
                tclock += park_cost;
                PyObject *ip = SLOT(task, S.t_interrupt_pending);
                PyObject *rp = SLOT(task, S.t_retry_pending);
                PyObject *up = SLOT(task, S.t_unpark_pending);
                int ipt = ip ? PyObject_IsTrue(ip) : 0;
                int rpt = rp ? PyObject_IsTrue(rp) : 0;
                int upt = up ? PyObject_IsTrue(up) : 0;
                if (ipt < 0 || rpt < 0 || upt < 0) goto op_error;
                if (ipt) {
                    slot_set(task, S.t_interrupt_pending, Py_False);
                    throw_exc = PyObject_CallNoArgs(S.exc_interrupted);
                    if (throw_exc == NULL) goto op_error;
                }
                else if (rpt) {
                    slot_set(task, S.t_retry_pending, Py_False);
                    throw_exc = PyObject_CallNoArgs(S.exc_retry);
                    if (throw_exc == NULL) goto op_error;
                }
                else if (upt) {
                    slot_set(task, S.t_unpark_pending, Py_False); /* permit consumed */
                }
                else {
                    slot_set(task, S.t_state, S.st_parked);
                    {
                        PyObject *pc = slot_get(task, S.t_park_count);
                        int64_t pcv;
                        if (pc == NULL || as_i64(pc, &pcv) < 0) goto op_error;
                        PyObject *npc = PyLong_FromLongLong(pcv + 1);
                        if (npc == NULL) goto op_error;
                        slot_set(task, S.t_park_count, npc);
                        Py_DECREF(npc);
                    }
                    PyObject *c = PyLong_FromLongLong(tclock);
                    PyObject *st = PyLong_FromLongLong(tsteps);
                    if (c == NULL || st == NULL) {
                        Py_XDECREF(c);
                        Py_XDECREF(st);
                        goto op_error;
                    }
                    slot_set(task, S.t_clock, c);
                    slot_set(task, S.t_steps, st);
                    Py_DECREF(c);
                    Py_DECREF(st);
                    slot_set(task, S.t_pending_value,
                             send_value ? send_value : Py_None);
                    slot_set(task, S.t_pending_exc,
                             throw_exc ? throw_exc : Py_None);
                    Py_DECREF(op);
                    if (procs_enabled && call_method1(sched, s_unbind, task) < 0) {
                        stint_error = 1;
                        break;
                    }
                    if (steps > limit) {
                        raise_step_limit(limit);
                        stint_error = 1;
                    }
                    break;
                }
            }
            else if (tp == S.tp_unpark) {
                tclock += unpark_cost;
                PyObject *target = slot_get(op, S.op_unpark_task);
                if (target == NULL) goto op_error;
                PyObject *oi = slot_get(op, S.op_unpark_interrupt);
                PyObject *orr = oi ? slot_get(op, S.op_unpark_retry) : NULL;
                if (orr == NULL) goto op_error;
                int interrupt = PyObject_IsTrue(oi);
                int retry = PyObject_IsTrue(orr);
                if (interrupt < 0 || retry < 0) goto op_error;
                if (SLOT(target, S.t_state) == S.st_parked) {
                    if (interrupt) {
                        PyObject *e = PyObject_CallNoArgs(S.exc_interrupted);
                        if (e == NULL) goto op_error;
                        slot_set(target, S.t_pending_exc, e);
                        Py_DECREF(e);
                    }
                    else if (retry) {
                        PyObject *e = PyObject_CallNoArgs(S.exc_retry);
                        if (e == NULL) goto op_error;
                        slot_set(target, S.t_pending_exc, e);
                        Py_DECREF(e);
                    }
                    slot_set(target, S.t_state, S.st_runnable);
                    /* cost.wake, inlined */
                    PyObject *tc_obj = slot_get(target, S.t_clock);
                    int64_t wbase;
                    if (tc_obj == NULL || as_i64(tc_obj, &wbase) < 0) goto op_error;
                    if (tclock > wbase) {
                        wbase = tclock;
                    }
                    PyObject *nc = PyLong_FromLongLong(wbase + wake_latency);
                    if (nc == NULL) goto op_error;
                    slot_set(target, S.t_clock, nc);
                    Py_DECREF(nc);
                    if (call_method1(sched, s_make_runnable, target) < 0) goto op_error;
                    /* The fresh entry may now be the earliest. */
                    next_clock = INT64_MAX;
                    if (PyList_GET_SIZE(heap) > 0
                        && as_i64(PyTuple_GET_ITEM(PyList_GET_ITEM(heap, 0), 0),
                                  &next_clock) < 0) goto op_error;
                }
                else if (interrupt) {
                    slot_set(target, S.t_interrupt_pending, Py_True);
                }
                else if (retry) {
                    slot_set(target, S.t_retry_pending, Py_True);
                }
                else {
                    slot_set(target, S.t_unpark_pending, Py_True);
                }
            }
            else if (tp == S.tp_current) {
                send_value = Py_NewRef(task);
            }
            else if (tp == S.tp_alloc) {
                tclock += alloc_cost;
            }
            else if (tp == S.tp_label) {
                /* no effect */
            }
            else {
                /* Unknown op subtype: fall back to the general handlers
                 * (sync task + LCG state around the call), exactly like
                 * the Python fast lane. */
                PyObject *c = PyLong_FromLongLong(tclock);
                if (c == NULL) goto op_error;
                slot_set(task, S.t_clock, c);
                Py_DECREF(c);
                slot_set(task, S.t_pending_value,
                         send_value ? send_value : Py_None);
                Py_CLEAR(send_value);
                PyObject *l = PyLong_FromUnsignedLongLong(lcg);
                if (l == NULL || PyObject_SetAttr(cost, s_lcg, l) < 0) {
                    Py_XDECREF(l);
                    goto op_error;
                }
                Py_DECREF(l);
                PyObject *r;
                {
                    PyObject *fargs[3] = {cost, task, op};
                    r = PyObject_VectorcallMethod(
                        s_charge, fargs, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
                }
                if (r == NULL) goto op_error;
                Py_DECREF(r);
                {
                    PyObject *fargs[3] = {sched, task, op};
                    r = PyObject_VectorcallMethod(
                        s_dispatch, fargs, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
                }
                if (r == NULL) goto op_error;
                Py_DECREF(r);
                l = PyObject_GetAttr(cost, s_lcg);
                if (l == NULL) goto op_error;
                lcg = PyLong_AsUnsignedLongLong(l);
                Py_DECREF(l);
                if (lcg == (uint64_t)-1 && PyErr_Occurred()) goto op_error;
                PyObject *tc_obj = slot_get(task, S.t_clock);
                if (tc_obj == NULL || as_i64(tc_obj, &tclock) < 0) goto op_error;
                send_value = slot_get(task, S.t_pending_value);
                if (send_value == NULL) goto op_error;
                Py_INCREF(send_value);
                next_clock = INT64_MAX;
                if (PyList_GET_SIZE(heap) > 0
                    && as_i64(PyTuple_GET_ITEM(PyList_GET_ITEM(heap, 0), 0),
                              &next_clock) < 0) goto op_error;
            }

            if (steps > limit) {
                PyObject *c = PyLong_FromLongLong(tclock);
                PyObject *st = PyLong_FromLongLong(tsteps);
                if (c != NULL && st != NULL) {
                    slot_set(task, S.t_clock, c);
                    slot_set(task, S.t_steps, st);
                    slot_set(task, S.t_pending_value,
                             send_value ? send_value : Py_None);
                    slot_set(task, S.t_pending_exc,
                             throw_exc ? throw_exc : Py_None);
                    raise_step_limit(limit);
                }
                Py_XDECREF(c);
                Py_XDECREF(st);
                Py_DECREF(op);
                stint_error = 1;
                break;
            }

            /* -- keep_running + requeue, inlined ---------------------- */
            if (tclock > next_clock) {
                /* Wide entry: resume state rides in the heap entry. */
                PyObject *c = PyLong_FromLongLong(tclock);
                PyObject *st = PyLong_FromLongLong(tsteps);
                if (c == NULL || st == NULL) {
                    Py_XDECREF(c);
                    Py_XDECREF(st);
                    Py_DECREF(op);
                    stint_error = 1;
                    break;
                }
                slot_set(task, S.t_clock, c);
                PyObject *wide = PyTuple_New(6);
                if (wide == NULL) {
                    Py_DECREF(c);
                    Py_DECREF(st);
                    Py_DECREF(op);
                    stint_error = 1;
                    break;
                }
                PyTuple_SET_ITEM(wide, 0, c);                       /* steals */
                PyTuple_SET_ITEM(wide, 1, Py_NewRef(tid_obj));
                PyTuple_SET_ITEM(wide, 2, Py_NewRef(task));
                PyTuple_SET_ITEM(wide, 3, st);                      /* steals */
                PyTuple_SET_ITEM(wide, 4,
                                 send_value ? send_value : Py_NewRef(Py_None));
                send_value = NULL;                                  /* moved */
                PyTuple_SET_ITEM(wide, 5,
                                 throw_exc ? throw_exc : Py_NewRef(Py_None));
                throw_exc = NULL;                                   /* moved */
                pending = wide;
                Py_DECREF(op);
                break;
            }
            Py_DECREF(op);
            continue;

        op_error:
            Py_DECREF(op);
            stint_error = 1;
            break;
        }

        Py_XDECREF(send_value);
        Py_XDECREF(throw_exc);
        Py_DECREF(task);
        if (stint_error) goto cleanup;
    }

    failed = 0;
    result = Py_NewRef(Py_None);

cleanup:
    /* ``finally:`` — restore global engine state exactly. */
    {
        PyObject *etype = NULL, *evalue = NULL, *etb = NULL;
        if (failed) {
            PyErr_Fetch(&etype, &evalue, &etb);
        }
        if (engaged) {
            PyObject *steps_obj = PyLong_FromLongLong(steps);
            if (steps_obj != NULL) {
                PyObject_SetAttr(sched, s_total_steps, steps_obj);
                Py_DECREF(steps_obj);
            }
            PyObject *lcg_obj = PyLong_FromUnsignedLongLong(lcg);
            if (lcg_obj != NULL) {
                PyObject_SetAttr(cost, s_lcg, lcg_obj);
                Py_DECREF(lcg_obj);
            }
            if (PyErr_Occurred()) {
                /* a sync failure must not mask the original error */
                if (etype != NULL) {
                    PyErr_Clear();
                }
            }
        }
        if (etype != NULL || evalue != NULL || etb != NULL) {
            PyErr_Restore(etype, evalue, etb);
        }
    }
    Py_XDECREF(pending);
    Py_XDECREF(cost);
    Py_XDECREF(policy);
    Py_XDECREF(heap);
    Py_XDECREF(params);
    Py_XDECREF(unbound);
    Py_XDECREF(procs_obj);
    Py_XDECREF(tasks_list);
    return result;
}

/* NOTE: the fused loop intentionally skips ``steps`` sync until the
 * cleanup block above, exactly mirroring the Python fast lane's
 * ``finally`` — observers attach only between runs, never during. */

/* ------------------------------------------------------------------ */
/* run_observed()                                                      */
/* ------------------------------------------------------------------ */

/* The observed-path core: ``_run_general`` + ``_step_task`` +
 * ``DesPolicy`` transcribed, with Python callouts at observation
 * points.  Parity contract (pinned by the hooked-golden tests):
 *
 *   - per-op write-through: ``sched.total_steps`` is stored *before*
 *     the generator resumes (the resumed task can read it, exactly as
 *     in Python), and ``task.clock`` / ``task.steps`` / pending
 *     value/exc are stored before any hook runs;
 *   - the resume clears exactly one of pending_exc / pending_value,
 *     like ``_step_task`` (the other may legitimately stay stale);
 *   - the audit tap is re-read from ``cost._audit`` every op (hooks
 *     may attach or clear it mid-run); a tap that is exactly
 *     ``OpCostAudit`` is filled natively, any other type routes the
 *     whole charge through ``cost.charge`` so duck-typed taps keep
 *     working;
 *   - the jitter LCG lives in a C local but is synced into
 *     ``cost._lcg`` before every Python callout that could read it
 *     (hooks, charge fallback) and re-read afterwards;
 *   - completion calls ``policy.forget(task)`` and does NOT bump
 *     ``task.steps`` or run hooks, exactly like ``_step_task``.
 */
static PyObject *
engine_run_observed(PyObject *self, PyObject *sched)
{
    (void)self;
    if (!S.ready) {
        PyErr_SetString(PyExc_RuntimeError, "engine not configured");
        return NULL;
    }

    PyObject *cost = NULL, *policy = NULL, *heap = NULL, *params = NULL;
    PyObject *unbound = NULL, *procs_obj = NULL, *tasks_list = NULL;
    PyObject *charge_fn = NULL, *dispatch_fn = NULL;
    PyObject *result = NULL;
    int failed = 1;
    int engaged = 0;

    cost = PyObject_GetAttr(sched, s_cost);
    if (cost == NULL) goto cleanup;
    policy = PyObject_GetAttr(sched, s_policy);
    if (policy == NULL) goto cleanup;
    heap = PyObject_GetAttr(policy, s_heap);
    if (heap == NULL || !PyList_CheckExact(heap)) {
        if (heap != NULL) {
            PyErr_SetString(PyExc_TypeError, "engine: policy._heap is not a list");
        }
        goto cleanup;
    }
    params = PyObject_GetAttr(cost, s_p);
    if (params == NULL) goto cleanup;
    unbound = PyObject_GetAttr(sched, s_unbound);
    if (unbound == NULL) goto cleanup;
    procs_obj = PyObject_GetAttr(sched, s_processors);
    if (procs_obj == NULL) goto cleanup;
    tasks_list = PyObject_GetAttr(sched, s_tasks);
    if (tasks_list == NULL) goto cleanup;
    if (!PyList_CheckExact(tasks_list)) {
        PyErr_SetString(PyExc_TypeError, "engine: scheduler.tasks is not a list");
        goto cleanup;
    }
    /* Cached callables for the per-op Python fallback (unknown op types
     * and custom audit taps); the bound methods never change mid-run. */
    charge_fn = PyObject_GetAttr(cost, s_charge);
    if (charge_fn == NULL) goto cleanup;
    dispatch_fn = PyObject_GetAttr(sched, s_dispatch);
    if (dispatch_fn == NULL) goto cleanup;
    int procs_enabled = (procs_obj != Py_None);

    int64_t read_hit, write_cost, rmw_cost, remote_miss, read_miss;
    int64_t park_cost, unpark_cost, wake_latency, spin_cost, yield_cost;
    int64_t alloc_cost, jit, limit, steps;
    if (attr_i64(params, s_read_hit, &read_hit) < 0) goto cleanup;
    if (attr_i64(params, s_write, &write_cost) < 0) goto cleanup;
    if (attr_i64(params, s_rmw, &rmw_cost) < 0) goto cleanup;
    if (attr_i64(params, s_remote_miss, &remote_miss) < 0) goto cleanup;
    if (attr_i64(params, s_read_miss, &read_miss) < 0) goto cleanup;
    if (attr_i64(params, s_park, &park_cost) < 0) goto cleanup;
    if (attr_i64(params, s_unpark, &unpark_cost) < 0) goto cleanup;
    if (attr_i64(params, s_wake_latency, &wake_latency) < 0) goto cleanup;
    if (attr_i64(params, s_spin, &spin_cost) < 0) goto cleanup;
    if (attr_i64(params, s_yield_, &yield_cost) < 0) goto cleanup;
    if (attr_i64(params, s_alloc, &alloc_cost) < 0) goto cleanup;
    if (attr_i64(params, s_jitter, &jit) < 0) goto cleanup;
    if (attr_i64(sched, s_max_steps, &limit) < 0) goto cleanup;
    if (attr_i64(sched, s_total_steps, &steps) < 0) goto cleanup;
    int64_t jit1 = jit + 1, rm1 = remote_miss + 1, rd1 = read_miss + 1;

    uint64_t lcg = 0;
    {
        PyObject *l = PyObject_GetAttr(cost, s_lcg);
        if (l == NULL) goto cleanup;
        lcg = PyLong_AsUnsignedLongLong(l);
        Py_DECREF(l);
        if (lcg == (uint64_t)-1 && PyErr_Occurred()) goto cleanup;
    }
    int lcg_synced = 1; /* cost._lcg currently equals the local */
    engaged = 1;

    /* ---------------- outer loop: one stint per iteration ------------ */
    for (;;) {
        int64_t live;
        if (live_count(sched, &live) < 0) goto cleanup;
        if (live <= 0) break;

        /* -- policy.next(), transcribed ------------------------------- */
        PyObject *task = NULL;
        while (PyList_GET_SIZE(heap) > 0) {
            PyObject *e = heap_pop(heap);
            if (e == NULL) goto cleanup;
            PyObject *t = PyTuple_GET_ITEM(e, 2);
            int64_t tc, ec;
            PyObject *tco = slot_get(t, S.t_clock);
            if (tco == NULL || as_i64(tco, &tc) < 0
                || as_i64(PyTuple_GET_ITEM(e, 0), &ec) < 0) {
                Py_DECREF(e);
                goto cleanup;
            }
            if (SLOT(t, S.t_state) != S.st_runnable || tc != ec) {
                Py_DECREF(e); /* stale entry; a fresher one exists */
                continue;
            }
            if (PyTuple_GET_SIZE(e) == 6) {
                /* Wide stint entry: restore the resume state the fast
                 * lane parked in the entry. */
                slot_set(t, S.t_steps, PyTuple_GET_ITEM(e, 3));
                slot_set(t, S.t_pending_value, PyTuple_GET_ITEM(e, 4));
                slot_set(t, S.t_pending_exc, PyTuple_GET_ITEM(e, 5));
            }
            task = Py_NewRef(t);
            Py_DECREF(e);
            break;
        }
        if (task == NULL) {
            int has_unbound = PyObject_IsTrue(unbound);
            if (has_unbound < 0) goto cleanup;
            if (has_unbound) { /* defensive: bind and keep going */
                PyObject *t = PyObject_CallMethodObjArgs(unbound, s_popleft, NULL);
                if (t == NULL) goto cleanup;
                int rc = call_method1(sched, s_bind, t);
                Py_DECREF(t);
                if (rc < 0) goto cleanup;
                continue;
            }
            /* deadlock check over all tasks */
            PyObject *parked = PyList_New(0);
            if (parked == NULL) goto cleanup;
            Py_ssize_t ntasks = PyList_GET_SIZE(tasks_list);
            for (Py_ssize_t i = 0; i < ntasks; i++) {
                PyObject *t = PyList_GET_ITEM(tasks_list, i);
                if (SLOT(t, S.t_state) == S.st_parked) {
                    PyObject *nm = slot_get(t, S.t_name);
                    if (nm == NULL || PyList_Append(parked, nm) < 0) {
                        Py_DECREF(parked);
                        goto cleanup;
                    }
                }
            }
            if (PyList_GET_SIZE(parked) > 0) {
                PyErr_SetObject(S.exc_deadlock, parked);
                Py_DECREF(parked);
                goto cleanup;
            }
            Py_DECREF(parked);
            break; /* spawned nothing / all finished */
        }

        /* -- stint setup ---------------------------------------------- */
        PyObject *gen = slot_get(task, S.t_gen);           /* borrowed */
        PyObject *send = slot_get(task, S.t_send_fn);      /* borrowed */
        PyObject *tid_obj = slot_get(task, S.t_tid);       /* borrowed */
        PyObject *tcache = slot_get(task, S.t_cache);      /* borrowed */
        int64_t ttid, tclock;
        if (gen == NULL || send == NULL || tid_obj == NULL || tcache == NULL) {
            Py_DECREF(task);
            goto cleanup;
        }
        {
            PyObject *tco = slot_get(task, S.t_clock);
            if (tco == NULL || as_i64(tid_obj, &ttid) < 0
                || as_i64(tco, &tclock) < 0) {
                Py_DECREF(task);
                goto cleanup;
            }
        }

        /* -- inner loop: one _step_task per iteration ----------------- */
        int stint_error = 0;
        while (!stint_error) {
            steps += 1;
            if (set_attr_i64(sched, s_total_steps, steps) < 0) {
                stint_error = 1;
                break;
            }
            PyObject *op = NULL;
            PyObject *pe = SLOT(task, S.t_pending_exc);
            if (pe != NULL && pe != Py_None) {
                Py_INCREF(pe);
                slot_set(task, S.t_pending_exc, Py_None);
                PyObject *targs[2] = {gen, pe};
                op = PyObject_VectorcallMethod(
                    s_throw, targs, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
                Py_DECREF(pe);
            }
            else {
                PyObject *val = slot_get(task, S.t_pending_value);
                if (val == NULL) {
                    stint_error = 1;
                    break;
                }
                Py_INCREF(val);
                slot_set(task, S.t_pending_value, Py_None);
                op = PyObject_CallOneArg(send, val);
                Py_DECREF(val);
            }
            if (op == NULL) {
                /* task completed or failed */
                PyObject *ptype, *pvalue, *ptb;
                PyErr_Fetch(&ptype, &pvalue, &ptb);
                PyErr_NormalizeException(&ptype, &pvalue, &ptb);
                if (ptb != NULL && pvalue != NULL) {
                    PyException_SetTraceback(pvalue, ptb);
                }
                int is_stop = (ptype != NULL
                               && PyErr_GivenExceptionMatches(ptype, PyExc_StopIteration));
                if (is_stop) {
                    PyObject *retval = pvalue
                        ? PyObject_GetAttr(pvalue, s_value)
                        : Py_NewRef(Py_None);
                    Py_XDECREF(ptype);
                    Py_XDECREF(pvalue);
                    Py_XDECREF(ptb);
                    if (retval == NULL) {
                        stint_error = 1;
                        break;
                    }
                    slot_set(task, S.t_state, S.st_done);
                    slot_set(task, S.t_value, retval);
                    Py_DECREF(retval);
                }
                else if (pvalue != NULL) {
                    slot_set(task, S.t_state, S.st_failed);
                    slot_set(task, S.t_error, pvalue);
                    Py_XDECREF(ptype);
                    Py_XDECREF(pvalue);
                    Py_XDECREF(ptb);
                }
                else {
                    PyErr_Restore(ptype, pvalue, ptb);
                    if (!PyErr_Occurred()) {
                        PyErr_SetString(PyExc_SystemError,
                                        "engine: generator returned NULL without error");
                    }
                    stint_error = 1;
                    break;
                }
                if (live_add(sched, -1) < 0
                    || call_method1(policy, s_forget, task) < 0
                    || (procs_enabled
                        && call_method1(sched, s_unbind, task) < 0)) {
                    stint_error = 1;
                    break;
                }
                if (steps > limit) {
                    raise_step_limit(limit);
                    stint_error = 1;
                }
                break;
            }

            /* task.steps += 1 (write-through; hooks read it) */
            {
                PyObject *ts = slot_get(task, S.t_steps);
                int64_t tsv;
                if (ts == NULL || as_i64(ts, &tsv) < 0) goto op_error;
                if (set_slot_i64(task, S.t_steps, tsv + 1) < 0) goto op_error;
            }

            PyObject *tp = (PyObject *)Py_TYPE(op);
            /* Re-read the audit tap every op: hooks attach/clear it. */
            PyObject *audit = SLOT(cost, S.cm_audit); /* borrowed */
            int audited = 0;
            if (audit != NULL && audit != Py_None) {
                audited = ((PyObject *)Py_TYPE(audit) == S.tp_audit) ? 1 : -1;
            }
            int known = (tp == S.tp_read || tp == S.tp_faa || tp == S.tp_cas
                         || tp == S.tp_gas || tp == S.tp_write
                         || tp == S.tp_work || tp == S.tp_sampledwork
                         || tp == S.tp_yield || tp == S.tp_spin
                         || tp == S.tp_park || tp == S.tp_unpark
                         || tp == S.tp_current || tp == S.tp_alloc
                         || tp == S.tp_label);

            if (!known || audited < 0) {
                /* -- cost.charge + _dispatch via Python --------------- */
                /* task.clock/pending_* attributes are already current
                 * (write-through), so the round-trip is exact. */
                if (!lcg_synced) {
                    PyObject *l = PyLong_FromUnsignedLongLong(lcg);
                    if (l == NULL || PyObject_SetAttr(cost, s_lcg, l) < 0) {
                        Py_XDECREF(l);
                        goto op_error;
                    }
                    Py_DECREF(l);
                    lcg_synced = 1;
                }
                PyObject *r;
                {
                    PyObject *fargs[2] = {task, op};
                    r = PyObject_Vectorcall(charge_fn, fargs, 2, NULL);
                }
                if (r == NULL) goto op_error;
                Py_DECREF(r);
                {
                    PyObject *fargs[2] = {task, op};
                    r = PyObject_Vectorcall(dispatch_fn, fargs, 2, NULL);
                }
                if (r == NULL) goto op_error;
                Py_DECREF(r);
                {
                    PyObject *l = PyObject_GetAttr(cost, s_lcg);
                    if (l == NULL) goto op_error;
                    lcg = PyLong_AsUnsignedLongLong(l);
                    Py_DECREF(l);
                    if (lcg == (uint64_t)-1 && PyErr_Occurred()) goto op_error;
                }
                PyObject *tco = slot_get(task, S.t_clock);
                if (tco == NULL || as_i64(tco, &tclock) < 0) goto op_error;
            }
            else {
                /* -- native fused charge + apply ---------------------- */
                if (audited
                    && !(tp == S.tp_read || tp == S.tp_faa || tp == S.tp_cas
                         || tp == S.tp_gas || tp == S.tp_write)) {
                    /* no-shared-memory op: the _audited wrapper reset */
                    if (audit_fill(audit, Py_None, 0, 0, 0) < 0) goto op_error;
                }
                if (tp == S.tp_read) {
                    PyObject *cell = slot_get(op, S.op_read_cell);
                    PyObject *line = cell ? slot_get(cell, S.c_line) : NULL;
                    if (line == NULL) goto op_error;
                    int64_t base = read_hit;
                    if (jit) {
                        base += jitter_draw(&lcg, jit1);
                        lcg_synced = 0;
                    }
                    int64_t miss = 0, stall = 0;
                    PyObject *lw = SLOT(line, S.l_last_writer);
                    int64_t lwv = -1;
                    if (lw != NULL && lw != Py_None && as_i64(lw, &lwv) < 0)
                        goto op_error;
                    if (lw != NULL && lw != Py_None && lwv != ttid) {
                        PyObject *loc = slot_get(line, S.l_loc_id);
                        PyObject *wt_obj = loc ? slot_get(line, S.l_write_time) : NULL;
                        if (wt_obj == NULL) goto op_error;
                        int64_t wt, seen = -1;
                        if (as_i64(wt_obj, &wt) < 0) goto op_error;
                        PyObject *seen_obj = PyDict_GetItemWithError(tcache, loc);
                        if (seen_obj == NULL && PyErr_Occurred()) goto op_error;
                        if (seen_obj != NULL && as_i64(seen_obj, &seen) < 0)
                            goto op_error;
                        if (wt > seen) {
                            miss = read_miss;
                            if (jit && read_miss) {
                                miss += jitter_draw(&lcg, rd1);
                                lcg_synced = 0;
                            }
                            if (PyDict_SetItem(tcache, loc, wt_obj) < 0)
                                goto op_error;
                            PyObject *av_obj = slot_get(line, S.l_avail_time);
                            int64_t avail;
                            if (av_obj == NULL || as_i64(av_obj, &avail) < 0)
                                goto op_error;
                            if (avail > tclock) {
                                stall = avail - tclock;
                                tclock = avail;
                            }
                        }
                    }
                    tclock += base + miss;
                    PyObject *v = slot_get(cell, S.c_value);
                    if (v == NULL) goto op_error;
                    slot_set(task, S.t_pending_value, v);
                    if (audited
                        && audit_fill(audit, cell, stall, miss, base) < 0)
                        goto op_error;
                }
                else if (tp == S.tp_faa || tp == S.tp_cas || tp == S.tp_gas
                         || tp == S.tp_write) {
                    PyObject *cell = slot_get(op, store_cell_off(tp));
                    PyObject *line = cell ? slot_get(cell, S.c_line) : NULL;
                    if (line == NULL) goto op_error;
                    int64_t start = tclock, stall = 0;
                    {
                        PyObject *at_obj = slot_get(line, S.l_avail_time);
                        int64_t at;
                        if (at_obj == NULL || as_i64(at_obj, &at) < 0)
                            goto op_error;
                        if (at > start) {
                            stall = at - start;
                            start = at;
                        }
                    }
                    int64_t basec = 0;
                    if (jit) {
                        basec = jitter_draw(&lcg, jit1);
                        lcg_synced = 0;
                    }
                    basec += (tp == S.tp_write) ? write_cost : rmw_cost;
                    PyObject *lw = SLOT(line, S.l_last_writer);
                    int64_t end, lwv = -1, miss = 0;
                    if (lw != NULL && lw != Py_None && as_i64(lw, &lwv) < 0)
                        goto op_error;
                    if (lw != NULL && lw != Py_None && lwv != ttid) {
                        miss = remote_miss;
                        if (jit && remote_miss) {
                            miss += jitter_draw(&lcg, rm1);
                            lcg_synced = 0;
                        }
                    }
                    end = start + basec + miss;
                    tclock = end;
                    {
                        PyObject *end_obj = PyLong_FromLongLong(end);
                        if (end_obj == NULL) goto op_error;
                        slot_set(line, S.l_avail_time, end_obj);
                        slot_set(line, S.l_last_writer, tid_obj);
                        slot_set(line, S.l_write_time, end_obj);
                        PyObject *loc = slot_get(line, S.l_loc_id);
                        if (loc == NULL
                            || PyDict_SetItem(tcache, loc, end_obj) < 0) {
                            Py_DECREF(end_obj);
                            goto op_error;
                        }
                        Py_DECREF(end_obj);
                    }
                    if (audited
                        && audit_fill(audit, cell, stall, miss, basec) < 0)
                        goto op_error;
                    PyObject *v = mem_apply(tp, op, cell);
                    if (v == NULL) goto op_error;
                    slot_set(task, S.t_pending_value, v);
                    Py_DECREF(v);
                }
                else if (tp == S.tp_work) {
                    PyObject *cyc = slot_get(op, S.op_work_cycles);
                    int64_t cycles;
                    if (cyc == NULL || as_i64(cyc, &cycles) < 0) goto op_error;
                    tclock += cycles;
                }
                else if (tp == S.tp_sampledwork) {
                    int64_t k;
                    if (sampled_work_draw(op, &k) < 0) goto op_error;
                    tclock += k;
                }
                else if (tp == S.tp_yield) {
                    tclock += yield_cost;
                }
                else if (tp == S.tp_spin) {
                    /* DesPolicy.on_voluntary_yield is the base no-op */
                    tclock += spin_cost;
                }
                else if (tp == S.tp_park) {
                    tclock += park_cost;
                    PyObject *ip = SLOT(task, S.t_interrupt_pending);
                    PyObject *rp = SLOT(task, S.t_retry_pending);
                    PyObject *up = SLOT(task, S.t_unpark_pending);
                    int ipt = ip ? PyObject_IsTrue(ip) : 0;
                    int rpt = rp ? PyObject_IsTrue(rp) : 0;
                    int upt = up ? PyObject_IsTrue(up) : 0;
                    if (ipt < 0 || rpt < 0 || upt < 0) goto op_error;
                    if (ipt) {
                        slot_set(task, S.t_interrupt_pending, Py_False);
                        PyObject *e = PyObject_CallNoArgs(S.exc_interrupted);
                        if (e == NULL) goto op_error;
                        slot_set(task, S.t_pending_exc, e);
                        Py_DECREF(e);
                    }
                    else if (rpt) {
                        slot_set(task, S.t_retry_pending, Py_False);
                        PyObject *e = PyObject_CallNoArgs(S.exc_retry);
                        if (e == NULL) goto op_error;
                        slot_set(task, S.t_pending_exc, e);
                        Py_DECREF(e);
                    }
                    else if (upt) {
                        slot_set(task, S.t_unpark_pending, Py_False);
                    }
                    else {
                        slot_set(task, S.t_state, S.st_parked);
                        PyObject *pc = slot_get(task, S.t_park_count);
                        int64_t pcv;
                        if (pc == NULL || as_i64(pc, &pcv) < 0) goto op_error;
                        if (set_slot_i64(task, S.t_park_count, pcv + 1) < 0)
                            goto op_error;
                    }
                }
                else if (tp == S.tp_unpark) {
                    tclock += unpark_cost;
                    PyObject *target = slot_get(op, S.op_unpark_task);
                    if (target == NULL) goto op_error;
                    PyObject *oi = slot_get(op, S.op_unpark_interrupt);
                    PyObject *orr = oi ? slot_get(op, S.op_unpark_retry) : NULL;
                    if (orr == NULL) goto op_error;
                    int interrupt = PyObject_IsTrue(oi);
                    int retry = PyObject_IsTrue(orr);
                    if (interrupt < 0 || retry < 0) goto op_error;
                    if (SLOT(target, S.t_state) == S.st_parked) {
                        if (interrupt) {
                            PyObject *e = PyObject_CallNoArgs(S.exc_interrupted);
                            if (e == NULL) goto op_error;
                            slot_set(target, S.t_pending_exc, e);
                            Py_DECREF(e);
                        }
                        else if (retry) {
                            PyObject *e = PyObject_CallNoArgs(S.exc_retry);
                            if (e == NULL) goto op_error;
                            slot_set(target, S.t_pending_exc, e);
                            Py_DECREF(e);
                        }
                        slot_set(target, S.t_state, S.st_runnable);
                        /* cost.wake with the *charged* clock, like
                         * _dispatch (charge ran first there too) */
                        PyObject *tc_obj = slot_get(target, S.t_clock);
                        int64_t wbase;
                        if (tc_obj == NULL || as_i64(tc_obj, &wbase) < 0)
                            goto op_error;
                        if (tclock > wbase) {
                            wbase = tclock;
                        }
                        if (set_slot_i64(target, S.t_clock,
                                         wbase + wake_latency) < 0)
                            goto op_error;
                        if (call_method1(sched, s_make_runnable, target) < 0)
                            goto op_error;
                    }
                    else if (interrupt) {
                        slot_set(target, S.t_interrupt_pending, Py_True);
                    }
                    else if (retry) {
                        slot_set(target, S.t_retry_pending, Py_True);
                    }
                    else {
                        slot_set(target, S.t_unpark_pending, Py_True);
                    }
                }
                else if (tp == S.tp_current) {
                    slot_set(task, S.t_pending_value, task);
                }
                else if (tp == S.tp_alloc) {
                    tclock += alloc_cost;
                    PyObject *stats = PyObject_GetAttr(sched, s_alloc_stats);
                    if (stats == NULL) goto op_error;
                    if (stats != Py_None) {
                        PyObject *tag = slot_get(op, S.op_alloc_tag);
                        PyObject *units = tag ? slot_get(op, S.op_alloc_units) : NULL;
                        if (units == NULL) {
                            Py_DECREF(stats);
                            goto op_error;
                        }
                        PyObject *rargs[3] = {stats, tag, units};
                        PyObject *r = PyObject_VectorcallMethod(
                            s_record, rargs,
                            3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
                        if (r == NULL) {
                            Py_DECREF(stats);
                            goto op_error;
                        }
                        Py_DECREF(r);
                    }
                    Py_DECREF(stats);
                }
                else { /* Label: no effect */
                }
                /* write the charged clock through before any hook runs */
                if (set_slot_i64(task, S.t_clock, tclock) < 0) goto op_error;
            }

            if (procs_enabled && SLOT(task, S.t_state) != S.st_runnable) {
                if (call_method1(sched, s_unbind, task) < 0) goto op_error;
            }

            /* -- hook callouts ------------------------------------------ */
            {
                PyObject *hooks = PyObject_GetAttr(sched, s_hooks);
                if (hooks == NULL) goto op_error;
                if (!PyList_Check(hooks)) {
                    Py_DECREF(hooks);
                    PyErr_SetString(PyExc_TypeError,
                                    "engine: scheduler._hooks is not a list");
                    goto op_error;
                }
                if (PyList_GET_SIZE(hooks) > 0) {
                    if (!lcg_synced) {
                        PyObject *l = PyLong_FromUnsignedLongLong(lcg);
                        if (l == NULL || PyObject_SetAttr(cost, s_lcg, l) < 0) {
                            Py_XDECREF(l);
                            Py_DECREF(hooks);
                            goto op_error;
                        }
                        Py_DECREF(l);
                        lcg_synced = 1;
                    }
                    PyObject *hargs[3] = {sched, task, op};
                    int hook_error = 0;
                    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(hooks); i++) {
                        PyObject *h = PyList_GET_ITEM(hooks, i);
                        Py_INCREF(h);
                        PyObject *hr = PyObject_Vectorcall(h, hargs, 3, NULL);
                        Py_DECREF(h);
                        if (hr == NULL) {
                            hook_error = 1;
                            break;
                        }
                        Py_DECREF(hr);
                    }
                    Py_DECREF(hooks);
                    if (hook_error) goto op_error;
                    /* hooks may legitimately mutate what they observe */
                    {
                        PyObject *l = PyObject_GetAttr(cost, s_lcg);
                        if (l == NULL) goto op_error;
                        lcg = PyLong_AsUnsignedLongLong(l);
                        Py_DECREF(l);
                        if (lcg == (uint64_t)-1 && PyErr_Occurred())
                            goto op_error;
                        lcg_synced = 1;
                    }
                    PyObject *tco = slot_get(task, S.t_clock);
                    if (tco == NULL || as_i64(tco, &tclock) < 0) goto op_error;
                }
                else {
                    Py_DECREF(hooks);
                }
            }
            Py_DECREF(op);
            op = NULL;

            /* -- _run_general post-step checks -------------------------- */
            if (steps > limit) {
                raise_step_limit(limit);
                stint_error = 1;
                break;
            }
            if (SLOT(task, S.t_state) != S.st_runnable) {
                break;
            }
            /* -- policy.keep_running, transcribed ----------------------- */
            int kr = 1;
            for (;;) {
                if (PyList_GET_SIZE(heap) == 0) {
                    kr = 1;
                    break;
                }
                PyObject *top = PyList_GET_ITEM(heap, 0);
                PyObject *other = PyTuple_GET_ITEM(top, 2);
                int64_t eclock, oclock;
                if (as_i64(PyTuple_GET_ITEM(top, 0), &eclock) < 0) {
                    stint_error = 1;
                    break;
                }
                PyObject *oc = slot_get(other, S.t_clock);
                if (oc == NULL || as_i64(oc, &oclock) < 0) {
                    stint_error = 1;
                    break;
                }
                if (SLOT(other, S.t_state) != S.st_runnable
                    || oclock != eclock || other == task) {
                    PyObject *junk = heap_pop(heap);
                    if (junk == NULL) {
                        stint_error = 1;
                        break;
                    }
                    Py_DECREF(junk);
                    continue;
                }
                kr = (tclock <= eclock);
                break;
            }
            if (stint_error) break;
            if (!kr) {
                /* policy.requeue(task): narrow (clock, tid, task) entry */
                PyObject *c_obj = slot_get(task, S.t_clock);
                if (c_obj == NULL) {
                    stint_error = 1;
                    break;
                }
                PyObject *entry = PyTuple_Pack(3, c_obj, tid_obj, task);
                if (entry == NULL) {
                    stint_error = 1;
                    break;
                }
                int rc = heap_push(heap, entry);
                Py_DECREF(entry);
                if (rc < 0) {
                    stint_error = 1;
                }
                break;
            }
            continue;

        op_error:
            Py_XDECREF(op);
            stint_error = 1;
            break;
        }

        Py_DECREF(task);
        if (stint_error) goto cleanup;
    }

    failed = 0;
    result = Py_NewRef(Py_None);

cleanup:
    /* ``finally:`` — restore global engine state exactly. */
    {
        PyObject *etype = NULL, *evalue = NULL, *etb = NULL;
        if (failed) {
            PyErr_Fetch(&etype, &evalue, &etb);
        }
        if (engaged) {
            PyObject *steps_obj = PyLong_FromLongLong(steps);
            if (steps_obj != NULL) {
                PyObject_SetAttr(sched, s_total_steps, steps_obj);
                Py_DECREF(steps_obj);
            }
            PyObject *lcg_obj = PyLong_FromUnsignedLongLong(lcg);
            if (lcg_obj != NULL) {
                PyObject_SetAttr(cost, s_lcg, lcg_obj);
                Py_DECREF(lcg_obj);
            }
            if (PyErr_Occurred()) {
                if (etype != NULL) {
                    PyErr_Clear();
                }
            }
        }
        if (etype != NULL || evalue != NULL || etb != NULL) {
            PyErr_Restore(etype, evalue, etb);
        }
    }
    Py_XDECREF(cost);
    Py_XDECREF(policy);
    Py_XDECREF(heap);
    Py_XDECREF(params);
    Py_XDECREF(unbound);
    Py_XDECREF(procs_obj);
    Py_XDECREF(tasks_list);
    Py_XDECREF(charge_fn);
    Py_XDECREF(dispatch_fn);
    return result;
}

/* ------------------------------------------------------------------ */
/* algorithm kernels (PR 10)                                           */
/* ------------------------------------------------------------------ */
/*
 * Each kernel is an iterator object transcribing one fused PARK-mode
 * fast path (RendezvousChannel / BufferedChannel send/receive, FAAQueue
 * enqueue/dequeue) into a C state machine.  The dispatch wrappers return
 * it in place of the fused generator; the caller's ``yield from`` (or
 * the stint loop directly) drives it through the normal generator
 * protocol: tp_iternext / send() step the machine, throw() / close()
 * forward to the active Python delegate or unwind.  Every step returns
 * the next op object, so the existing charge/dispatch code executes and
 * prices the IDENTICAL op stream — one yielded op per outer resume.
 *
 * Off-fast-path work (segment walks, parking, close/cancel marking,
 * expand_buffer) runs as Python sub-generators ("delegates"), exactly
 * the frames the fused generators delegate to with ``yield from``.
 */

#define KERN_POOL_CAP 64

enum {
    K_RZ_SEND, K_RZ_RECV, K_BUF_SEND, K_BUF_RECV, K_FAAQ_ENQ, K_FAAQ_DEQ
};

/* updCell outcome (mirrors base.RESTART / SUCCESS / CLOSED) */
enum { KO_RESTART = 0, KO_SUCCESS = 1, KO_CLOSED = 2 };

typedef struct {
    PyObject_HEAD
    int kind;
    int pc;            /* resume point: the pc stored before each yield */
    int done;
    int outcome;
    int ok;            /* unpark-dance result, crosses yields */
    int cache_kind;    /* kind the pooled channel registers were cut for */
    uint64_t cfg_gen;  /* the configure() generation the ops belong to */
    int64_t kseg;      /* segment size K */
    int64_t idx;       /* reserved counter value s / r / i */
    int64_t raw;       /* raw reserved counter value (close flag kept) */
    int64_t aux;       /* buffered send: r across the B read */
    int64_t sid;       /* target segment id */
    int64_t ci;        /* in-segment cell index */
    /* object registers (owned) */
    PyObject *chan;    /* channel / queue */
    PyObject *elem;    /* outgoing element, or the claimed value */
    PyObject *list;    /* chan._list */
    PyObject *stats;
    PyObject *anchor;  /* _segm_s / _segm_r / _tail / _head */
    PyObject *ctr;     /* reservation counter: S / R / enqIdx / deqIdx */
    PyObject *ctr2;    /* the opposite counter */
    PyObject *bcell;   /* B (buffered send) */
    PyObject *segm;
    PyObject *state_cell;
    PyObject *elem_cell;
    PyObject *state;
    PyObject *wcell;
    PyObject *waiter;
    PyObject *kit;     /* Python OpKit handed to expand_buffer delegates */
    PyObject *deleg;   /* active Python delegate generator */
    PyObject *dres;    /* last delegate return value */
    /* owned reusable op instances (the OpKit flyweight discipline) */
    PyObject *op_read, *op_write, *op_cas, *op_faa, *op_gas;
    PyObject *op_unpark, *op_spin;
} KernelObject;

static PyTypeObject KernelType;

static KernelObject *kern_pool[KERN_POOL_CAP];
static int kern_pool_len = 0;

#define KCLOSE_BIT (((int64_t)1) << 60)
#define KCOUNTER_OF(raw) ((raw) & (KCLOSE_BIT - 1))
#define KIS_FLAGGED(raw) (((raw) & KCLOSE_BIT) != 0)

#define KSET(reg, v) Py_XSETREF(k->reg, Py_NewRef(v))
#define KY(pc_, expr)                               \
    do {                                            \
        PyObject *_o = (expr);                      \
        if (_o == NULL) goto fail;                  \
        k->pc = (pc_);                              \
        return _o;                                  \
    } while (0)
#define KDELEG(pc_)                                 \
    do {                                            \
        int _rc = deleg_resume(k, sv, &op);         \
        if (_rc < 0) goto fail;                     \
        if (_rc == 1) { k->pc = (pc_); return op; } \
    } while (0)

/* Allocate a bare op instance, skipping __init__ (slots start NULL). */
static PyObject *
blank_op(PyObject *tp_obj)
{
    if (!PyType_Check(tp_obj)) {
        PyErr_SetString(PyExc_TypeError, "engine kernel: op class expected");
        return NULL;
    }
    PyTypeObject *tp = (PyTypeObject *)tp_obj;
    return tp->tp_alloc(tp, 0);
}

static void
op_slot_clear(PyObject *op, Py_ssize_t off)
{
    if (op == NULL) {
        return;
    }
    PyObject *old = SLOT(op, off);
    SLOT(op, off) = NULL;
    Py_XDECREF(old);
}

/* Drop the per-step payloads the ops hold.  The preset slots — faa
 * cell/delta, unpark interrupt/retry, spin reason — ride along with the
 * pooled kernel's cached channel registers (kern_dealloc keeps chan/
 * ctr/... alive), so a same-channel reuse skips kern_preset entirely;
 * a cache miss re-stamps them. */
static void
kern_ops_release_payload(KernelObject *k)
{
    op_slot_clear(k->op_read, S.op_read_cell);
    op_slot_clear(k->op_write, S.op_write_cell);
    op_slot_clear(k->op_write, S.op_write_value);
    op_slot_clear(k->op_cas, S.op_cas_cell);
    op_slot_clear(k->op_cas, S.op_cas_expected);
    op_slot_clear(k->op_cas, S.op_cas_update);
    op_slot_clear(k->op_gas, S.op_gas_cell);
    op_slot_clear(k->op_gas, S.op_gas_value);
    op_slot_clear(k->op_unpark, S.op_unpark_task);
}

/* Terminal transition: release the kit and the transient registers.
 * Idempotent; preserves any exception currently being raised. */
static void
kern_finalize(KernelObject *k)
{
    k->done = 1;
    if (k->kit != NULL) {
        PyObject *t, *v, *tb;
        PyErr_Fetch(&t, &v, &tb);
        if (S.fn_release_kit != NULL) {
            PyObject *r = PyObject_CallOneArg(S.fn_release_kit, k->kit);
            if (r == NULL) {
                PyErr_Clear();
            }
            else {
                Py_DECREF(r);
            }
        }
        PyErr_Restore(t, v, tb);
        Py_CLEAR(k->kit);
    }
    Py_CLEAR(k->deleg);
    Py_CLEAR(k->dres);
    Py_CLEAR(k->segm);
    Py_CLEAR(k->state_cell);
    Py_CLEAR(k->elem_cell);
    Py_CLEAR(k->state);
    Py_CLEAR(k->wcell);
    Py_CLEAR(k->waiter);
    Py_CLEAR(k->elem);
}

/* Finish the iterator: StopIteration carrying ``value`` (NULL = None).
 * The instance is built explicitly so tuple values survive normalize. */
static PyObject *
kern_ret(KernelObject *k, PyObject *value)
{
    PyObject *v = Py_NewRef(value != NULL ? value : Py_None);
    kern_finalize(k);
    if (v == Py_None) {
        Py_DECREF(v);
        PyErr_SetNone(PyExc_StopIteration);
        return NULL;
    }
    PyObject *si = PyObject_CallOneArg(PyExc_StopIteration, v);
    Py_DECREF(v);
    if (si == NULL) {
        return NULL;
    }
    PyErr_SetObject(PyExc_StopIteration, si);
    Py_DECREF(si);
    return NULL;
}

static PyObject *
kern_raise_closed(KernelObject *k, PyObject *exc_class)
{
    kern_finalize(k);
    PyErr_SetNone(exc_class);
    return NULL;
}

/* The fused paths' AssertionError, message-identical. */
static PyObject *
kern_impossible(KernelObject *k, const char *side)
{
    PyErr_Format(PyExc_AssertionError,
                 "%s found impossible cell state %R at %lld:%lld",
                 side, k->state, (long long)k->sid, (long long)k->ci);
    kern_finalize(k);
    return NULL;
}

static int
kstat_inc(KernelObject *k, PyObject *name)
{
    int64_t v;
    if (attr_i64(k->stats, name, &v) < 0) {
        return -1;
    }
    return set_attr_i64(k->stats, name, v + 1);
}

static int
k_slot_i64(PyObject *obj, Py_ssize_t off, int64_t *out)
{
    PyObject *v = slot_get(obj, off);
    if (v == NULL) {
        return -1;
    }
    return as_i64(v, out);
}

/* segm.states[i] / segm.elems[i] / qseg.cells[i] — borrowed. */
static PyObject *
kseg_cell(PyObject *segm, Py_ssize_t list_off, int64_t i)
{
    PyObject *lst = slot_get(segm, list_off);
    if (lst == NULL) {
        return NULL;
    }
    if (!PyList_Check(lst) || i < 0 || i >= PyList_GET_SIZE(lst)) {
        PyErr_SetString(PyExc_IndexError,
                        "engine kernel: segment cell index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(lst, i);
}

/* -- op builders: mutate the owned instance, return a new ref ------- */

static PyObject *
k_read(KernelObject *k, PyObject *cell)
{
    slot_set(k->op_read, S.op_read_cell, cell);
    return Py_NewRef(k->op_read);
}

static PyObject *
k_write(KernelObject *k, PyObject *cell, PyObject *value)
{
    slot_set(k->op_write, S.op_write_cell, cell);
    slot_set(k->op_write, S.op_write_value, value);
    return Py_NewRef(k->op_write);
}

static PyObject *
k_cas(KernelObject *k, PyObject *cell, PyObject *expected, PyObject *update)
{
    slot_set(k->op_cas, S.op_cas_cell, cell);
    slot_set(k->op_cas, S.op_cas_expected, expected);
    slot_set(k->op_cas, S.op_cas_update, update);
    return Py_NewRef(k->op_cas);
}

/* The counter-fix CAS: both operands are fresh ints. */
static PyObject *
k_cas_ii(KernelObject *k, PyObject *cell, int64_t expected, int64_t update)
{
    PyObject *e = PyLong_FromLongLong(expected);
    if (e == NULL) {
        return NULL;
    }
    PyObject *u = PyLong_FromLongLong(update);
    if (u == NULL) {
        Py_DECREF(e);
        return NULL;
    }
    PyObject *op = k_cas(k, cell, e, u);
    Py_DECREF(e);
    Py_DECREF(u);
    return op;
}

static PyObject *
k_gas(KernelObject *k, PyObject *cell, PyObject *value)
{
    slot_set(k->op_gas, S.op_gas_cell, cell);
    slot_set(k->op_gas, S.op_gas_value, value);
    return Py_NewRef(k->op_gas);
}

static PyObject *
k_unpark(KernelObject *k, PyObject *task)
{
    slot_set(k->op_unpark, S.op_unpark_task, task);
    return Py_NewRef(k->op_unpark);
}

/* -- delegates: the off-fast-path Python sub-generators ------------- */

/* Capture a StopIteration's payload.  1 = captured (*out new ref),
 * 0 = a different exception is (still) set. */
static int
k_fetch_stop(PyObject **out)
{
    if (!PyErr_ExceptionMatches(PyExc_StopIteration)) {
        return 0;
    }
    PyObject *t, *v, *tb;
    PyErr_Fetch(&t, &v, &tb);
    PyErr_NormalizeException(&t, &v, &tb);
    PyObject *val;
    if (v != NULL) {
        val = PyObject_GetAttr(v, s_value);
    }
    else {
        val = Py_NewRef(Py_None);
    }
    Py_XDECREF(t);
    Py_XDECREF(v);
    Py_XDECREF(tb);
    if (val == NULL) {
        return 0;
    }
    *out = val;
    return 1;
}

static int
deleg_begin(KernelObject *k, PyObject *gen)
{
    if (gen == NULL) {
        return -1;
    }
    Py_XSETREF(k->deleg, gen);
    Py_CLEAR(k->dres);
    return 0;
}

/* Step the active delegate.  1 = it yielded an op (*op_out new ref),
 * 0 = it returned (k->dres holds the value), -1 = it raised.  A NULL
 * delegate means throw() already completed it and parked the result. */
static int
deleg_resume(KernelObject *k, PyObject *sv, PyObject **op_out)
{
    if (k->deleg == NULL) {
        return 0;
    }
    /* PyIter_Send hits the generator's am_send slot directly: no
     * ``send`` attribute lookup, and a completing delegate hands its
     * return value back without raising StopIteration at all. */
    PyObject *res = NULL;
    PySendResult sr = PyIter_Send(k->deleg, sv != NULL ? sv : Py_None, &res);
    if (sr == PYGEN_NEXT) {
        *op_out = res;
        return 1;
    }
    if (sr == PYGEN_RETURN) {
        Py_CLEAR(k->deleg);
        Py_XSETREF(k->dres, res);
        return 0;
    }
    PyObject *val;
    if (k_fetch_stop(&val)) {
        /* Non-generator iterators surface completion as StopIteration. */
        Py_CLEAR(k->deleg);
        Py_XSETREF(k->dres, val);
        return 0;
    }
    return -1;
}

static int
k_dres_true(KernelObject *k)
{
    return PyObject_IsTrue(k->dres != NULL ? k->dres : Py_None);
}

/* find_and_move_forward(anchor, segm, sid[, checked_start][, cur]) */
static int
k_begin_famf(KernelObject *k, int checked, PyObject *cur)
{
    PyObject *sid_o = PyLong_FromLongLong(k->sid);
    if (sid_o == NULL) {
        return -1;
    }
    PyObject *g;
    if (cur != NULL) {
        g = PyObject_CallMethodObjArgs(k->list, s_famf, k->anchor, k->segm,
                                       sid_o, Py_False, cur, NULL);
    }
    else if (checked) {
        g = PyObject_CallMethodObjArgs(k->list, s_famf, k->anchor, k->segm,
                                       sid_o, Py_True, NULL);
    }
    else {
        g = PyObject_CallMethodObjArgs(k->list, s_famf, k->anchor, k->segm,
                                       sid_o, NULL);
    }
    Py_DECREF(sid_o);
    return deleg_begin(k, g);
}

/* _mark_closed_send_cell / _mark_cancelled_rcv_cell (segm, sid, i) */
static int
k_begin_mark(KernelObject *k, PyObject *meth_name)
{
    PyObject *sid_o = PyLong_FromLongLong(k->sid);
    if (sid_o == NULL) {
        return -1;
    }
    PyObject *ci_o = PyLong_FromLongLong(k->ci);
    PyObject *g = NULL;
    if (ci_o != NULL) {
        g = PyObject_CallMethodObjArgs(k->chan, meth_name, k->segm, sid_o,
                                       ci_o, NULL);
    }
    Py_DECREF(sid_o);
    Py_XDECREF(ci_o);
    return deleg_begin(k, g);
}

/* _park_sender / _park_receiver (w, segm, i) */
static int
k_begin_park(KernelObject *k, PyObject *meth_name)
{
    PyObject *ci_o = PyLong_FromLongLong(k->ci);
    PyObject *g = NULL;
    if (ci_o != NULL) {
        g = PyObject_CallMethodObjArgs(k->chan, meth_name, k->waiter, k->segm,
                                       ci_o, NULL);
    }
    Py_XDECREF(ci_o);
    return deleg_begin(k, g);
}

/* _close_recheck_receiver(w, r) */
static int
k_begin_recheck(KernelObject *k)
{
    PyObject *r_o = PyLong_FromLongLong(k->idx);
    PyObject *g = NULL;
    if (r_o != NULL) {
        g = PyObject_CallMethodObjArgs(k->chan, s_close_recheck, k->waiter,
                                       r_o, NULL);
    }
    Py_XDECREF(r_o);
    return deleg_begin(k, g);
}

/* segm.on_interrupted_cell() / state.try_unpark() */
static int
k_begin_meth0(KernelObject *k, PyObject *obj, PyObject *name)
{
    return deleg_begin(k, PyObject_CallMethodNoArgs(obj, name));
}

/* expand_buffer(kit) — always a Python delegate (DESIGN.md §14) */
static int
k_begin_expand(KernelObject *k)
{
    return deleg_begin(k, PyObject_CallMethodOneArg(k->chan, s_expand_buffer,
                                                    k->kit));
}

/* FAAQueue._find_segment(anchor, seg_id, cur) */
static int
k_begin_findseg(KernelObject *k)
{
    PyObject *sid_o = PyLong_FromLongLong(k->sid);
    PyObject *g = NULL;
    if (sid_o != NULL) {
        g = PyObject_CallMethodObjArgs(k->chan, s_find_segment, k->anchor,
                                       sid_o, k->segm, NULL);
    }
    Py_XDECREF(sid_o);
    return deleg_begin(k, g);
}

/* SenderWaiter.of(task) / ReceiverWaiter.of(task) — runs in Python so
 * waiter-id allocation and task.current_waiter publication match. */
static int
k_make_waiter(KernelObject *k, PyObject *cls, PyObject *task)
{
    PyObject *w = PyObject_CallMethodOneArg(cls, s_of, task);
    if (w == NULL) {
        return -1;
    }
    Py_XSETREF(k->waiter, w);
    return 0;
}

/* -- RendezvousChannel._send_fused, transcribed --------------------- */

static PyObject *
rz_send_step(KernelObject *k, PyObject *sv)
{
    PyObject *op = NULL;
    int rc;
    switch (k->pc) {
    case 0:
restart:
        KY(1, k_read(k, k->anchor));
    case 1:
        KSET(segm, sv);
        KY(2, Py_NewRef(k->op_faa));
    case 2: {
        if (as_i64(sv, &k->raw) < 0) {
            goto fail;
        }
        if (kstat_inc(k, s_cells_processed) < 0) {
            goto fail;
        }
        k->idx = KCOUNTER_OF(k->raw);
        k->sid = k->idx / k->kseg;
        k->ci = k->idx % k->kseg;
        if (KIS_FLAGGED(k->raw)) {
            if (k_begin_mark(k, s_mark_closed) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg3;
        }
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id >= k->sid) {
            PyObject *cnt_cell = slot_get(k->segm, S.sg_cnt);
            if (cnt_cell == NULL) {
                goto fail;
            }
            KY(4, k_read(k, cnt_cell));
        }
        if (k_begin_famf(k, 0, NULL) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg8;
    }
    case 3:
deleg3:
        KDELEG(3);
        return kern_raise_closed(k, S.exc_closed_send);
    case 4: {
        int64_t cnt;
        if (as_i64(sv, &cnt) < 0) {
            goto fail;
        }
        if (cnt % (k->kseg + 1) == k->kseg && cnt / (k->kseg + 1) == 0) {
            if (k_begin_famf(k, 1, NULL) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg5;
        }
        KY(6, k_read(k, k->anchor));
    }
    case 5:
deleg5:
        KDELEG(5);
        KSET(segm, k->dres);
        goto moved;
    case 6: {
        int64_t cur_id, seg_id;
        if (k_slot_i64(sv, S.sg_id, &cur_id) < 0) {
            goto fail;
        }
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (cur_id < seg_id) {
            if (k_begin_famf(k, 0, sv) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg7;
        }
        goto moved;
    }
    case 7:
deleg7:
        KDELEG(7);
        KSET(segm, k->dres);
        goto moved;
    case 8:
deleg8:
        KDELEG(8);
        KSET(segm, k->dres);
moved: {
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id != k->sid) {
            KY(9, k_cas_ii(k, k->ctr, k->raw + 1,
                           (k->raw - k->idx) + seg_id * k->kseg));
        }
        PyObject *sc = kseg_cell(k->segm, S.sg_states, k->ci);
        if (sc == NULL) {
            goto fail;
        }
        KSET(state_cell, sc);
        PyObject *ec = kseg_cell(k->segm, S.sg_elems, k->ci);
        if (ec == NULL) {
            goto fail;
        }
        KSET(elem_cell, ec);
        KY(10, k_write(k, k->elem_cell, k->elem));
    }
    case 9:
        if (kstat_inc(k, s_send_restarts) < 0) {
            goto fail;
        }
        goto restart;
    case 10:
updcell:
        KY(11, k_read(k, k->state_cell));
    case 11:
        KSET(state, sv);
        KY(12, k_read(k, k->ctr2));
    case 12: {
        int64_t r_raw;
        if (as_i64(sv, &r_raw) < 0) {
            goto fail;
        }
        int64_t r = KCOUNTER_OF(r_raw);
        if (k->state == Py_None && k->idx >= r) {
            /* EMPTY and no receiver is coming => suspend. */
            KY(13, Py_NewRef(S.cur_task_op));
        }
        rc = PyObject_IsInstance(k->state, S.cls_receiver);
        if (rc < 0) {
            goto fail;
        }
        if (rc) {
            /* Waiting receiver => try to resume it. */
            PyObject *wc = slot_get(k->state, S.w_state);
            if (wc == NULL) {
                goto fail;
            }
            KSET(wcell, wc);
            KY(19, k_read(k, k->wcell));
        }
        if (k->state == Py_None) {
            /* EMPTY but a receiver is incoming => eliminate. */
            KY(26, k_cas(k, k->state_cell, Py_None, S.cs_buffered));
        }
        if (k->state == S.cs_int_rcv || k->state == S.cs_broken
            || k->state == S.cs_cancelled) {
            KY(27, k_write(k, k->elem_cell, Py_None));
        }
        return kern_impossible(k, "send");
    }
    case 13:
        if (k_make_waiter(k, S.cls_sender, sv) < 0) {
            goto fail;
        }
        KY(14, k_cas(k, k->state_cell, Py_None, k->waiter));
    case 14:
        if (sv == Py_True) {
            if (k_begin_park(k, s_park_sender) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg15;
        }
        goto updcell;
    case 15:
deleg15:
        KDELEG(15);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->outcome = rc ? KO_SUCCESS : KO_RESTART;
        goto post;
    case 19:
        if (sv == S.ws_init) {
            KY(20, k_cas(k, k->wcell, S.ws_init, S.ws_permit));
        }
        if (sv == S.ws_parked) {
            KY(22, k_cas(k, k->wcell, S.ws_parked, S.ws_resumed));
        }
        k->ok = 0;
        goto unparked;
    case 20:
        if (sv == Py_True) {
            k->ok = 1;
            goto unparked;
        }
        if (k_begin_meth0(k, k->state, s_try_unpark) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg21;
    case 21:
deleg21:
        KDELEG(21);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->ok = rc;
        goto unparked;
    case 22:
        if (sv == Py_True) {
            PyObject *wt = slot_get(k->state, S.w_task);
            if (wt == NULL) {
                goto fail;
            }
            k->ok = 1;
            KY(23, k_unpark(k, wt));
        }
        if (k_begin_meth0(k, k->state, s_try_unpark) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg24;
    case 23:
        goto unparked;
    case 24:
deleg24:
        KDELEG(24);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->ok = rc;
unparked:
        if (k->ok) {
            KY(25, k_write(k, k->state_cell, S.cs_done));
        }
        /* Interrupted receiver: clean our element, retry. */
        KY(27, k_write(k, k->elem_cell, Py_None));
    case 25:
        k->outcome = KO_SUCCESS;
        goto post;
    case 26:
        if (sv == Py_True) {
            if (kstat_inc(k, s_eliminations) < 0) {
                goto fail;
            }
            k->outcome = KO_SUCCESS;
            goto post;
        }
        goto updcell;
    case 27:
        k->outcome = KO_RESTART;
post:
        if (k->outcome == KO_SUCCESS) {
            PyObject *prev_cell = slot_get(k->segm, S.sg_prev);
            if (prev_cell == NULL) {
                goto fail;
            }
            KY(29, k_write(k, prev_cell, Py_None));
        }
        if (kstat_inc(k, s_send_restarts) < 0) {
            goto fail;
        }
        goto restart;
    case 29:
        if (kstat_inc(k, s_sends) < 0) {
            goto fail;
        }
        return kern_ret(k, NULL);
    default:
        break;
    }
    PyErr_SetString(PyExc_SystemError, "engine kernel: corrupt pc (rz_send)");
fail:
    kern_finalize(k);
    return NULL;
}

/* -- RendezvousChannel._receive_fused, transcribed ------------------ */

static PyObject *
rz_recv_step(KernelObject *k, PyObject *sv)
{
    PyObject *op = NULL;
    int rc;
    switch (k->pc) {
    case 0:
restart:
        KY(1, k_read(k, k->anchor));
    case 1:
        KSET(segm, sv);
        KY(2, Py_NewRef(k->op_faa));
    case 2: {
        if (as_i64(sv, &k->raw) < 0) {
            goto fail;
        }
        if (kstat_inc(k, s_cells_processed) < 0) {
            goto fail;
        }
        k->idx = KCOUNTER_OF(k->raw);
        k->sid = k->idx / k->kseg;
        k->ci = k->idx % k->kseg;
        if (KIS_FLAGGED(k->raw)) { /* the channel was cancelled */
            if (k_begin_mark(k, s_mark_cancelled) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg3;
        }
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id >= k->sid) {
            PyObject *cnt_cell = slot_get(k->segm, S.sg_cnt);
            if (cnt_cell == NULL) {
                goto fail;
            }
            KY(4, k_read(k, cnt_cell));
        }
        if (k_begin_famf(k, 0, NULL) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg8;
    }
    case 3:
deleg3:
        KDELEG(3);
        return kern_raise_closed(k, S.exc_closed_recv);
    case 4: {
        int64_t cnt;
        if (as_i64(sv, &cnt) < 0) {
            goto fail;
        }
        if (cnt % (k->kseg + 1) == k->kseg && cnt / (k->kseg + 1) == 0) {
            if (k_begin_famf(k, 1, NULL) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg5;
        }
        KY(6, k_read(k, k->anchor));
    }
    case 5:
deleg5:
        KDELEG(5);
        KSET(segm, k->dres);
        goto moved;
    case 6: {
        int64_t cur_id, seg_id;
        if (k_slot_i64(sv, S.sg_id, &cur_id) < 0) {
            goto fail;
        }
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (cur_id < seg_id) {
            if (k_begin_famf(k, 0, sv) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg7;
        }
        goto moved;
    }
    case 7:
deleg7:
        KDELEG(7);
        KSET(segm, k->dres);
        goto moved;
    case 8:
deleg8:
        KDELEG(8);
        KSET(segm, k->dres);
moved: {
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id != k->sid) {
            KY(9, k_cas_ii(k, k->ctr, k->raw + 1,
                           (k->raw - k->idx) + seg_id * k->kseg));
        }
        PyObject *sc = kseg_cell(k->segm, S.sg_states, k->ci);
        if (sc == NULL) {
            goto fail;
        }
        KSET(state_cell, sc);
        goto updcell;
    }
    case 9:
        if (kstat_inc(k, s_rcv_restarts) < 0) {
            goto fail;
        }
        goto restart;
updcell:
        KY(11, k_read(k, k->state_cell));
    case 11:
        KSET(state, sv);
        KY(12, k_read(k, k->ctr2));
    case 12: {
        int64_t s_raw;
        if (as_i64(sv, &s_raw) < 0) {
            goto fail;
        }
        int64_t s = KCOUNTER_OF(s_raw);
        if (k->state == Py_None && k->idx >= s) {
            /* EMPTY and no sender is coming => suspend (or give up). */
            if (KIS_FLAGGED(s_raw)) {
                /* Closed and drained: S can never cover r. */
                KY(13, k_cas(k, k->state_cell, Py_None, S.cs_int_rcv));
            }
            KY(15, Py_NewRef(S.cur_task_op));
        }
        rc = PyObject_IsInstance(k->state, S.cls_sender);
        if (rc < 0) {
            goto fail;
        }
        if (rc) {
            /* Waiting sender => try to resume it. */
            PyObject *wc = slot_get(k->state, S.w_state);
            if (wc == NULL) {
                goto fail;
            }
            KSET(wcell, wc);
            KY(19, k_read(k, k->wcell));
        }
        if (k->state == Py_None) {
            /* A sender is incoming => poison the cell. */
            KY(26, k_cas(k, k->state_cell, Py_None, S.cs_broken));
        }
        if (k->state == S.cs_buffered) {
            k->outcome = KO_SUCCESS; /* the sender eliminated */
            goto post;
        }
        if (k->state == S.cs_int_send || k->state == S.cs_cancelled) {
            k->outcome = KO_RESTART;
            goto post;
        }
        return kern_impossible(k, "receive");
    }
    case 13:
        if (sv == Py_True) {
            if (k_begin_meth0(k, k->segm, s_on_interrupted) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg14;
        }
        goto updcell;
    case 14:
deleg14:
        KDELEG(14);
        k->outcome = KO_CLOSED;
        goto post;
    case 15:
        if (k_make_waiter(k, S.cls_receiver, sv) < 0) {
            goto fail;
        }
        KY(16, k_cas(k, k->state_cell, Py_None, k->waiter));
    case 16:
        if (sv == Py_True) {
            if (k_begin_recheck(k) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg17;
        }
        goto updcell;
    case 17:
deleg17:
        KDELEG(17);
        if (k_begin_park(k, s_park_receiver) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg18;
    case 18:
deleg18:
        KDELEG(18);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->outcome = rc ? KO_SUCCESS : KO_RESTART;
        goto post;
    case 19:
        if (sv == S.ws_init) {
            KY(20, k_cas(k, k->wcell, S.ws_init, S.ws_permit));
        }
        if (sv == S.ws_parked) {
            KY(22, k_cas(k, k->wcell, S.ws_parked, S.ws_resumed));
        }
        k->ok = 0;
        goto unparked;
    case 20:
        if (sv == Py_True) {
            k->ok = 1;
            goto unparked;
        }
        if (k_begin_meth0(k, k->state, s_try_unpark) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg21;
    case 21:
deleg21:
        KDELEG(21);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->ok = rc;
        goto unparked;
    case 22:
        if (sv == Py_True) {
            PyObject *wt = slot_get(k->state, S.w_task);
            if (wt == NULL) {
                goto fail;
            }
            k->ok = 1;
            KY(23, k_unpark(k, wt));
        }
        if (k_begin_meth0(k, k->state, s_try_unpark) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg24;
    case 23:
        goto unparked;
    case 24:
deleg24:
        KDELEG(24);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->ok = rc;
unparked:
        if (k->ok) {
            KY(25, k_write(k, k->state_cell, S.cs_done));
        }
        k->outcome = KO_RESTART; /* its handler cleans the cell */
        goto post;
    case 25:
        k->outcome = KO_SUCCESS;
        goto post;
    case 26:
        if (sv == Py_True) {
            if (kstat_inc(k, s_poisoned) < 0) {
                goto fail;
            }
            k->outcome = KO_RESTART;
            goto post;
        }
        goto updcell;
post:
        if (k->outcome == KO_SUCCESS) {
            /* Claim the element atomically vs. a racing cancel(). */
            PyObject *ec = kseg_cell(k->segm, S.sg_elems, k->ci);
            if (ec == NULL) {
                goto fail;
            }
            KY(27, k_gas(k, ec, Py_None));
        }
        if (k->outcome == KO_CLOSED) {
            return kern_raise_closed(k, S.exc_closed_recv);
        }
        if (kstat_inc(k, s_rcv_restarts) < 0) {
            goto fail;
        }
        goto restart;
    case 27: {
        KSET(elem, sv);
        PyObject *prev_cell = slot_get(k->segm, S.sg_prev);
        if (prev_cell == NULL) {
            goto fail;
        }
        KY(28, k_write(k, prev_cell, Py_None));
    }
    case 28:
        if (k->elem == Py_None) {
            return kern_raise_closed(k, S.exc_closed_recv); /* lost to cancel() */
        }
        if (kstat_inc(k, s_receives) < 0) {
            goto fail;
        }
        return kern_ret(k, k->elem);
    default:
        break;
    }
    PyErr_SetString(PyExc_SystemError, "engine kernel: corrupt pc (rz_recv)");
fail:
    kern_finalize(k);
    return NULL;
}

/* -- BufferedChannel._send_fused, transcribed ----------------------- */

static PyObject *
buf_send_step(KernelObject *k, PyObject *sv)
{
    PyObject *op = NULL;
    int rc;
    switch (k->pc) {
    case 0:
restart:
        KY(1, k_read(k, k->anchor));
    case 1:
        KSET(segm, sv);
        KY(2, Py_NewRef(k->op_faa));
    case 2: {
        if (as_i64(sv, &k->raw) < 0) {
            goto fail;
        }
        if (kstat_inc(k, s_cells_processed) < 0) {
            goto fail;
        }
        k->idx = KCOUNTER_OF(k->raw);
        k->sid = k->idx / k->kseg;
        k->ci = k->idx % k->kseg;
        if (KIS_FLAGGED(k->raw)) {
            if (k_begin_mark(k, s_mark_closed) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg3;
        }
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id >= k->sid) {
            PyObject *cnt_cell = slot_get(k->segm, S.sg_cnt);
            if (cnt_cell == NULL) {
                goto fail;
            }
            KY(4, k_read(k, cnt_cell));
        }
        if (k_begin_famf(k, 0, NULL) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg8;
    }
    case 3:
deleg3:
        KDELEG(3);
        return kern_raise_closed(k, S.exc_closed_send);
    case 4: {
        int64_t cnt;
        if (as_i64(sv, &cnt) < 0) {
            goto fail;
        }
        if (cnt % (k->kseg + 1) == k->kseg && cnt / (k->kseg + 1) == 0) {
            if (k_begin_famf(k, 1, NULL) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg5;
        }
        KY(6, k_read(k, k->anchor));
    }
    case 5:
deleg5:
        KDELEG(5);
        KSET(segm, k->dres);
        goto moved;
    case 6: {
        int64_t cur_id, seg_id;
        if (k_slot_i64(sv, S.sg_id, &cur_id) < 0) {
            goto fail;
        }
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (cur_id < seg_id) {
            if (k_begin_famf(k, 0, sv) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg7;
        }
        goto moved;
    }
    case 7:
deleg7:
        KDELEG(7);
        KSET(segm, k->dres);
        goto moved;
    case 8:
deleg8:
        KDELEG(8);
        KSET(segm, k->dres);
moved: {
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id != k->sid) {
            KY(9, k_cas_ii(k, k->ctr, k->raw + 1,
                           (k->raw - k->idx) + seg_id * k->kseg));
        }
        PyObject *sc = kseg_cell(k->segm, S.sg_states, k->ci);
        if (sc == NULL) {
            goto fail;
        }
        KSET(state_cell, sc);
        PyObject *ec = kseg_cell(k->segm, S.sg_elems, k->ci);
        if (ec == NULL) {
            goto fail;
        }
        KSET(elem_cell, ec);
        KY(10, k_write(k, k->elem_cell, k->elem));
    }
    case 9:
        if (kstat_inc(k, s_send_restarts) < 0) {
            goto fail;
        }
        goto restart;
    case 10:
updcell:
        KY(11, k_read(k, k->state_cell));
    case 11:
        KSET(state, sv);
        KY(12, k_read(k, k->ctr2));
    case 12: {
        int64_t r_raw;
        if (as_i64(sv, &r_raw) < 0) {
            goto fail;
        }
        k->aux = KCOUNTER_OF(r_raw); /* r, carried across the B read */
        KY(13, k_read(k, k->bcell));
    }
    case 13: {
        int64_t b;
        if (as_i64(sv, &b) < 0) {
            goto fail;
        }
        int64_t r = k->aux;
        if ((k->state == Py_None && (k->idx < r || k->idx < b))
            || k->state == S.cs_in_buffer) {
            /* In the buffer, or a receiver is incoming: deposit. */
            KY(14, k_cas(k, k->state_cell, k->state, S.cs_buffered));
        }
        if (k->state == Py_None && k->idx >= b && k->idx >= r) {
            /* EMPTY, outside the buffer, no receiver. */
            KY(15, Py_NewRef(S.cur_task_op));
        }
        rc = PyObject_IsInstance(k->state, S.cls_receiver);
        if (rc < 0) {
            goto fail;
        }
        if (rc) {
            /* Waiting receiver => rendezvous. */
            PyObject *wc = slot_get(k->state, S.w_state);
            if (wc == NULL) {
                goto fail;
            }
            KSET(wcell, wc);
            KY(19, k_read(k, k->wcell));
        }
        if (k->state == S.cs_int_rcv || k->state == S.cs_broken
            || k->state == S.cs_cancelled) {
            KY(27, k_write(k, k->elem_cell, Py_None));
        }
        return kern_impossible(k, "send");
    }
    case 14:
        if (sv == Py_True) {
            k->outcome = KO_SUCCESS;
            goto post;
        }
        goto updcell;
    case 15:
        if (k_make_waiter(k, S.cls_sender, sv) < 0) {
            goto fail;
        }
        KY(16, k_cas(k, k->state_cell, Py_None, k->waiter));
    case 16:
        if (sv == Py_True) {
            if (k_begin_park(k, s_park_sender) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg17;
        }
        goto updcell;
    case 17:
deleg17:
        KDELEG(17);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->outcome = rc ? KO_SUCCESS : KO_RESTART;
        goto post;
    case 19:
        if (sv == S.ws_init) {
            KY(20, k_cas(k, k->wcell, S.ws_init, S.ws_permit));
        }
        if (sv == S.ws_parked) {
            KY(22, k_cas(k, k->wcell, S.ws_parked, S.ws_resumed));
        }
        k->ok = 0;
        goto unparked;
    case 20:
        if (sv == Py_True) {
            k->ok = 1;
            goto unparked;
        }
        if (k_begin_meth0(k, k->state, s_try_unpark) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg21;
    case 21:
deleg21:
        KDELEG(21);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->ok = rc;
        goto unparked;
    case 22:
        if (sv == Py_True) {
            PyObject *wt = slot_get(k->state, S.w_task);
            if (wt == NULL) {
                goto fail;
            }
            k->ok = 1;
            KY(23, k_unpark(k, wt));
        }
        if (k_begin_meth0(k, k->state, s_try_unpark) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg24;
    case 23:
        goto unparked;
    case 24:
deleg24:
        KDELEG(24);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->ok = rc;
unparked:
        if (k->ok) {
            KY(25, k_write(k, k->state_cell, S.cs_done_rcv));
        }
        KY(27, k_write(k, k->elem_cell, Py_None));
    case 25:
        k->outcome = KO_SUCCESS;
        goto post;
    case 27:
        k->outcome = KO_RESTART;
post:
        if (k->outcome == KO_SUCCESS) {
            PyObject *prev_cell = slot_get(k->segm, S.sg_prev);
            if (prev_cell == NULL) {
                goto fail;
            }
            KY(29, k_write(k, prev_cell, Py_None));
        }
        if (kstat_inc(k, s_send_restarts) < 0) {
            goto fail;
        }
        goto restart;
    case 29:
        if (kstat_inc(k, s_sends) < 0) {
            goto fail;
        }
        return kern_ret(k, NULL);
    default:
        break;
    }
    PyErr_SetString(PyExc_SystemError, "engine kernel: corrupt pc (buf_send)");
fail:
    kern_finalize(k);
    return NULL;
}

/* -- BufferedChannel._receive_fused, transcribed -------------------- */

static PyObject *
buf_recv_step(KernelObject *k, PyObject *sv)
{
    PyObject *op = NULL;
    int rc;
    switch (k->pc) {
    case 0:
restart:
        KY(1, k_read(k, k->anchor));
    case 1:
        KSET(segm, sv);
        KY(2, Py_NewRef(k->op_faa));
    case 2: {
        if (as_i64(sv, &k->raw) < 0) {
            goto fail;
        }
        if (kstat_inc(k, s_cells_processed) < 0) {
            goto fail;
        }
        k->idx = KCOUNTER_OF(k->raw);
        k->sid = k->idx / k->kseg;
        k->ci = k->idx % k->kseg;
        if (KIS_FLAGGED(k->raw)) { /* the channel was cancelled */
            if (k_begin_mark(k, s_mark_cancelled) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg3;
        }
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id >= k->sid) {
            PyObject *cnt_cell = slot_get(k->segm, S.sg_cnt);
            if (cnt_cell == NULL) {
                goto fail;
            }
            KY(4, k_read(k, cnt_cell));
        }
        if (k_begin_famf(k, 0, NULL) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg8;
    }
    case 3:
deleg3:
        KDELEG(3);
        return kern_raise_closed(k, S.exc_closed_recv);
    case 4: {
        int64_t cnt;
        if (as_i64(sv, &cnt) < 0) {
            goto fail;
        }
        if (cnt % (k->kseg + 1) == k->kseg && cnt / (k->kseg + 1) == 0) {
            if (k_begin_famf(k, 1, NULL) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg5;
        }
        KY(6, k_read(k, k->anchor));
    }
    case 5:
deleg5:
        KDELEG(5);
        KSET(segm, k->dres);
        goto moved;
    case 6: {
        int64_t cur_id, seg_id;
        if (k_slot_i64(sv, S.sg_id, &cur_id) < 0) {
            goto fail;
        }
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (cur_id < seg_id) {
            if (k_begin_famf(k, 0, sv) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg7;
        }
        goto moved;
    }
    case 7:
deleg7:
        KDELEG(7);
        KSET(segm, k->dres);
        goto moved;
    case 8:
deleg8:
        KDELEG(8);
        KSET(segm, k->dres);
moved: {
        int64_t seg_id;
        if (k_slot_i64(k->segm, S.sg_id, &seg_id) < 0) {
            goto fail;
        }
        if (seg_id != k->sid) {
            KY(9, k_cas_ii(k, k->ctr, k->raw + 1,
                           (k->raw - k->idx) + seg_id * k->kseg));
        }
        PyObject *sc = kseg_cell(k->segm, S.sg_states, k->ci);
        if (sc == NULL) {
            goto fail;
        }
        KSET(state_cell, sc);
        goto updcell;
    }
    case 9:
        if (kstat_inc(k, s_rcv_restarts) < 0) {
            goto fail;
        }
        goto restart;
updcell:
        KY(11, k_read(k, k->state_cell));
    case 11:
        KSET(state, sv);
        KY(12, k_read(k, k->ctr2));
    case 12: {
        int64_t s_raw;
        if (as_i64(sv, &s_raw) < 0) {
            goto fail;
        }
        int64_t s = KCOUNTER_OF(s_raw);
        int emptyish = (k->state == Py_None || k->state == S.cs_in_buffer);
        if (emptyish && k->idx >= s) {
            /* EMPTY (or pre-marked buffer cell), no sender. */
            if (KIS_FLAGGED(s_raw)) {
                /* Closed and drained. */
                KY(13, k_cas(k, k->state_cell, k->state, S.cs_int_rcv));
            }
            KY(15, Py_NewRef(S.cur_task_op));
        }
        if (emptyish) {
            /* A sender is incoming => poison the cell. */
            KY(26, k_cas(k, k->state_cell, k->state, S.cs_broken));
        }
        if (k->state == S.cs_buffered) {
            if (k_begin_expand(k) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg25;
        }
        if (k->state == S.cs_int_send) {
            k->outcome = KO_RESTART; /* expandBuffer owns the accounting */
            goto post;
        }
        if (k->state == S.cs_cancelled) {
            k->outcome = KO_RESTART;
            goto post;
        }
        rc = PyObject_IsInstance(k->state, S.cls_sender);
        if (rc < 0) {
            goto fail;
        }
        if (rc) {
            /* Suspended sender: help via the S_RESUMING_RCV lock. */
            KY(30, k_cas(k, k->state_cell, k->state, S.cs_sr_rcv));
        }
        if (k->state == S.cs_sr_eb) {
            /* expandBuffer is resuming the sender => wait. */
            KY(34, Py_NewRef(k->op_spin));
        }
        return kern_impossible(k, "receive");
    }
    case 13:
        if (sv == Py_True) {
            if (k_begin_meth0(k, k->segm, s_on_interrupted) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg14;
        }
        goto updcell;
    case 14:
deleg14:
        KDELEG(14);
        if (k_begin_expand(k) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg22;
    case 15:
        if (k_make_waiter(k, S.cls_receiver, sv) < 0) {
            goto fail;
        }
        KY(16, k_cas(k, k->state_cell, k->state, k->waiter));
    case 16:
        if (sv == Py_True) {
            /* Restore the consumed capacity *before* suspending. */
            if (k_begin_expand(k) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg17;
        }
        goto updcell;
    case 17:
deleg17:
        KDELEG(17);
        if (k_begin_recheck(k) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg18;
    case 18:
deleg18:
        KDELEG(18);
        if (k_begin_park(k, s_park_receiver) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg19;
    case 19:
deleg19:
        KDELEG(19);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        k->outcome = rc ? KO_SUCCESS : KO_RESTART;
        goto post;
    case 22:
deleg22:
        KDELEG(22);
        k->outcome = KO_CLOSED;
        goto post;
    case 25:
deleg25:
        KDELEG(25);
        k->outcome = KO_SUCCESS;
        goto post;
    case 26:
        if (sv == Py_True) {
            if (kstat_inc(k, s_poisoned) < 0) {
                goto fail;
            }
            if (k_begin_expand(k) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg27;
        }
        goto updcell;
    case 27:
deleg27:
        KDELEG(27);
        k->outcome = KO_RESTART;
        goto post;
    case 30:
        if (sv == Py_True) {
            if (k_begin_meth0(k, k->state, s_try_unpark) < 0) {
                goto fail;
            }
            sv = NULL;
            goto deleg31;
        }
        goto updcell;
    case 31:
deleg31:
        KDELEG(31);
        rc = k_dres_true(k);
        if (rc < 0) {
            goto fail;
        }
        if (rc) {
            KY(32, k_write(k, k->state_cell, S.cs_buffered));
        }
        KY(33, k_write(k, k->state_cell, S.cs_int_send));
    case 32:
        goto updcell;
    case 33:
        goto updcell;
    case 34:
        goto updcell;
post:
        if (k->outcome == KO_SUCCESS) {
            /* Claim the element atomically vs. a racing cancel(). */
            PyObject *ec = kseg_cell(k->segm, S.sg_elems, k->ci);
            if (ec == NULL) {
                goto fail;
            }
            KY(36, k_gas(k, ec, Py_None));
        }
        if (k->outcome == KO_CLOSED) {
            return kern_raise_closed(k, S.exc_closed_recv);
        }
        if (kstat_inc(k, s_rcv_restarts) < 0) {
            goto fail;
        }
        goto restart;
    case 36: {
        KSET(elem, sv);
        PyObject *prev_cell = slot_get(k->segm, S.sg_prev);
        if (prev_cell == NULL) {
            goto fail;
        }
        KY(37, k_write(k, prev_cell, Py_None));
    }
    case 37:
        if (k->elem == Py_None) {
            return kern_raise_closed(k, S.exc_closed_recv); /* lost to cancel() */
        }
        if (kstat_inc(k, s_receives) < 0) {
            goto fail;
        }
        return kern_ret(k, k->elem);
    default:
        break;
    }
    PyErr_SetString(PyExc_SystemError, "engine kernel: corrupt pc (buf_recv)");
fail:
    kern_finalize(k);
    return NULL;
}

/* -- FAAQueue._enqueue_fused / _dequeue_fused, transcribed ---------- */

static PyObject *
faaq_enq_step(KernelObject *k, PyObject *sv)
{
    PyObject *op = NULL;
    switch (k->pc) {
    case 0:
restart:
        KY(1, Py_NewRef(k->op_faa));
    case 1:
        if (as_i64(sv, &k->idx) < 0) {
            goto fail;
        }
        k->sid = k->idx / k->kseg;
        k->ci = k->idx % k->kseg;
        KY(2, k_read(k, k->anchor));
    case 2: {
        /* Inlined _find_segment fast case: tail already covers us. */
        KSET(segm, sv);
        int64_t cur_id;
        if (k_slot_i64(k->segm, S.qs_id, &cur_id) < 0) {
            goto fail;
        }
        if (cur_id == k->sid) {
            KY(3, k_read(k, k->anchor));
        }
        if (k_begin_findseg(k) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg5;
    }
    case 3: {
        int64_t seen_id, cur_id;
        if (k_slot_i64(sv, S.qs_id, &seen_id) < 0) {
            goto fail;
        }
        if (k_slot_i64(k->segm, S.qs_id, &cur_id) < 0) {
            goto fail;
        }
        if (seen_id < cur_id) {
            KY(4, k_cas(k, k->anchor, sv, k->segm));
        }
        goto gotseg;
    }
    case 4:
        goto gotseg;
    case 5:
deleg5:
        KDELEG(5);
        KSET(segm, k->dres);
gotseg: {
        PyObject *cell = kseg_cell(k->segm, S.qs_cells, k->ci);
        if (cell == NULL) {
            goto fail;
        }
        KY(6, k_cas(k, cell, Py_None, k->elem));
    }
    case 6:
        if (sv == Py_True) {
            return kern_ret(k, NULL);
        }
        /* The cell was poisoned by a hasty dequeuer; take the next one. */
        goto restart;
    default:
        break;
    }
    PyErr_SetString(PyExc_SystemError, "engine kernel: corrupt pc (faaq_enq)");
fail:
    kern_finalize(k);
    return NULL;
}

static PyObject *
faaq_deq_step(KernelObject *k, PyObject *sv)
{
    PyObject *op = NULL;
    switch (k->pc) {
    case 0:
restart:
        KY(1, k_read(k, k->ctr));
    case 1:
        if (as_i64(sv, &k->raw) < 0) { /* deq */
            goto fail;
        }
        KY(2, k_read(k, k->ctr2));
    case 2: {
        int64_t enq;
        if (as_i64(sv, &enq) < 0) {
            goto fail;
        }
        if (k->raw >= enq) {
            return kern_ret(k, NULL); /* observed empty */
        }
        KY(3, Py_NewRef(k->op_faa));
    }
    case 3:
        if (as_i64(sv, &k->idx) < 0) {
            goto fail;
        }
        k->sid = k->idx / k->kseg;
        k->ci = k->idx % k->kseg;
        KY(4, k_read(k, k->anchor));
    case 4: {
        /* Inlined _find_segment fast case (see enqueue). */
        KSET(segm, sv);
        int64_t cur_id;
        if (k_slot_i64(k->segm, S.qs_id, &cur_id) < 0) {
            goto fail;
        }
        if (cur_id == k->sid) {
            KY(5, k_read(k, k->anchor));
        }
        if (k_begin_findseg(k) < 0) {
            goto fail;
        }
        sv = NULL;
        goto deleg7;
    }
    case 5: {
        int64_t seen_id, cur_id;
        if (k_slot_i64(sv, S.qs_id, &seen_id) < 0) {
            goto fail;
        }
        if (k_slot_i64(k->segm, S.qs_id, &cur_id) < 0) {
            goto fail;
        }
        if (seen_id < cur_id) {
            KY(6, k_cas(k, k->anchor, sv, k->segm));
        }
        goto gotseg;
    }
    case 6:
        goto gotseg;
    case 7:
deleg7:
        KDELEG(7);
        KSET(segm, k->dres);
gotseg: {
        PyObject *cell = kseg_cell(k->segm, S.qs_cells, k->ci);
        if (cell == NULL) {
            goto fail;
        }
        KY(8, k_gas(k, cell, S.faaq_broken));
    }
    case 8:
        if (sv != Py_None) {
            return kern_ret(k, sv);
        }
        /* Poisoned an empty cell; its enqueuer will skip it. */
        goto restart;
    default:
        break;
    }
    PyErr_SetString(PyExc_SystemError, "engine kernel: corrupt pc (faaq_deq)");
fail:
    kern_finalize(k);
    return NULL;
}

/* -- generator protocol over the machines --------------------------- */

static PyObject *
kern_resume(KernelObject *k, PyObject *sv)
{
    if (k->done) {
        PyErr_SetNone(PyExc_StopIteration);
        return NULL;
    }
    switch (k->kind) {
    case K_RZ_SEND:
        return rz_send_step(k, sv);
    case K_RZ_RECV:
        return rz_recv_step(k, sv);
    case K_BUF_SEND:
        return buf_send_step(k, sv);
    case K_BUF_RECV:
        return buf_recv_step(k, sv);
    case K_FAAQ_ENQ:
        return faaq_enq_step(k, sv);
    case K_FAAQ_DEQ:
        return faaq_deq_step(k, sv);
    default:
        PyErr_SetString(PyExc_SystemError, "engine kernel: unknown kind");
        return NULL;
    }
}

static PyObject *
kern_next(PyObject *self)
{
    return kern_resume((KernelObject *)self, Py_None);
}

static PyObject *
kern_send_meth(PyObject *self, PyObject *value)
{
    return kern_resume((KernelObject *)self, value);
}

/* throw(typ[, val[, tb]]) — the yield-from forwarding contract. */
static PyObject *
kern_throw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    KernelObject *k = (KernelObject *)self;
    if (nargs < 1 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError, "throw() takes 1-3 arguments");
        return NULL;
    }
    PyObject *typ = args[0];
    PyObject *val = nargs > 1 ? args[1] : NULL;
    PyObject *tb = nargs > 2 ? args[2] : NULL;
    if (tb == Py_None) {
        tb = NULL;
    }
    if (!k->done && k->deleg != NULL
        && !PyErr_GivenExceptionMatches(typ, PyExc_GeneratorExit)) {
        /* Forward into the active delegate, exactly as the suspended
         * ``yield from`` would. */
        PyObject *res = PyObject_CallMethodObjArgs(k->deleg, s_throw, typ,
                                                   val, tb, NULL);
        if (res != NULL) {
            return res; /* the delegate yielded again; pc is unchanged */
        }
        PyObject *sval;
        if (k_fetch_stop(&sval)) {
            /* The delegate caught the throw and returned (e.g. a parked
             * waiter turning RetryWakeup into False): continue the
             * machine after the delegation point. */
            Py_CLEAR(k->deleg);
            Py_XSETREF(k->dres, sval);
            return kern_resume(k, NULL);
        }
        kern_finalize(k);
        return NULL;
    }
    if (!k->done && k->deleg != NULL) {
        /* GeneratorExit: close the delegate, then unwind ourselves. */
        PyObject *r = PyObject_CallMethodNoArgs(k->deleg, s_close);
        if (r == NULL) {
            kern_finalize(k);
            return NULL;
        }
        Py_DECREF(r);
    }
    kern_finalize(k);
    if (PyExceptionClass_Check(typ)) {
        PyErr_SetObject(typ, val);
    }
    else if (PyExceptionInstance_Check(typ)) {
        if (val != NULL && val != Py_None) {
            PyErr_SetString(PyExc_TypeError,
                            "instance exception may not have a separate value");
            return NULL;
        }
        PyErr_SetObject((PyObject *)Py_TYPE(typ), typ);
    }
    else {
        PyErr_SetString(PyExc_TypeError,
                        "exceptions must be classes or instances deriving "
                        "from BaseException");
        return NULL;
    }
    return NULL;
}

static PyObject *
kern_close_meth(PyObject *self, PyObject *noargs)
{
    (void)noargs;
    KernelObject *k = (KernelObject *)self;
    if (k->deleg != NULL) {
        PyObject *r = PyObject_CallMethodNoArgs(k->deleg, s_close);
        if (r == NULL) {
            kern_finalize(k);
            return NULL;
        }
        Py_DECREF(r);
    }
    kern_finalize(k);
    Py_RETURN_NONE;
}

static PyMethodDef kern_methods[] = {
    {"send", kern_send_meth, METH_O,
     "Resume the kernel with a value; returns the next op."},
    {"throw", (PyCFunction)(void (*)(void))kern_throw, METH_FASTCALL,
     "Raise an exception at the kernel's suspension point."},
    {"close", kern_close_meth, METH_NOARGS,
     "Unwind the kernel (releases its kit and delegate)."},
    {NULL, NULL, 0, NULL},
};

static int
kern_traverse(KernelObject *k, visitproc visit, void *arg)
{
    Py_VISIT(k->chan);
    Py_VISIT(k->elem);
    Py_VISIT(k->list);
    Py_VISIT(k->stats);
    Py_VISIT(k->anchor);
    Py_VISIT(k->ctr);
    Py_VISIT(k->ctr2);
    Py_VISIT(k->bcell);
    Py_VISIT(k->segm);
    Py_VISIT(k->state_cell);
    Py_VISIT(k->elem_cell);
    Py_VISIT(k->state);
    Py_VISIT(k->wcell);
    Py_VISIT(k->waiter);
    Py_VISIT(k->kit);
    Py_VISIT(k->deleg);
    Py_VISIT(k->dres);
    Py_VISIT(k->op_read);
    Py_VISIT(k->op_write);
    Py_VISIT(k->op_cas);
    Py_VISIT(k->op_faa);
    Py_VISIT(k->op_gas);
    Py_VISIT(k->op_unpark);
    Py_VISIT(k->op_spin);
    return 0;
}

static int
kern_clear(KernelObject *k)
{
    Py_CLEAR(k->chan);
    Py_CLEAR(k->elem);
    Py_CLEAR(k->list);
    Py_CLEAR(k->stats);
    Py_CLEAR(k->anchor);
    Py_CLEAR(k->ctr);
    Py_CLEAR(k->ctr2);
    Py_CLEAR(k->bcell);
    Py_CLEAR(k->segm);
    Py_CLEAR(k->state_cell);
    Py_CLEAR(k->elem_cell);
    Py_CLEAR(k->state);
    Py_CLEAR(k->wcell);
    Py_CLEAR(k->waiter);
    Py_CLEAR(k->kit);
    Py_CLEAR(k->deleg);
    Py_CLEAR(k->dres);
    Py_CLEAR(k->op_read);
    Py_CLEAR(k->op_write);
    Py_CLEAR(k->op_cas);
    Py_CLEAR(k->op_faa);
    Py_CLEAR(k->op_gas);
    Py_CLEAR(k->op_unpark);
    Py_CLEAR(k->op_spin);
    return 0;
}

static void
kern_dealloc(KernelObject *k)
{
    PyObject_GC_UnTrack(k);
    if (!k->done) {
        /* Abandoned mid-operation (e.g. its worker was collected):
         * run the finally-equivalent without clobbering an exception
         * in flight. */
        PyObject *t, *v, *tb;
        PyErr_Fetch(&t, &v, &tb);
        kern_finalize(k);
        PyErr_Restore(t, v, tb);
    }
    /* kern_finalize (run above, or earlier at normal completion)
     * already cleared every transient register; the channel-derived
     * ones — chan/list/stats/anchor/ctr/ctr2/bcell plus kseg and the
     * op presets — stay with a pooled kernel, so the next operation on
     * the same channel skips refetching them (the cache check in
     * kern_channel_new / kern_faaq_new, keyed on (kind, chan)). */
    if (kern_pool_len < KERN_POOL_CAP && S.ready
        && k->cfg_gen == S.kcfg_gen && k->op_read != NULL) {
        /* cache_kind is NOT stamped here: the factories set it only
         * after a fully successful construction, so a kernel pooled
         * off a mid-construction failure can never present its
         * partial registers as a valid cache. */
        kern_ops_release_payload(k);
        kern_pool[kern_pool_len++] = k;
        return;
    }
    Py_CLEAR(k->chan);
    Py_CLEAR(k->elem);
    Py_CLEAR(k->list);
    Py_CLEAR(k->stats);
    Py_CLEAR(k->anchor);
    Py_CLEAR(k->ctr);
    Py_CLEAR(k->ctr2);
    Py_CLEAR(k->bcell);
    Py_CLEAR(k->segm);
    Py_CLEAR(k->state_cell);
    Py_CLEAR(k->elem_cell);
    Py_CLEAR(k->state);
    Py_CLEAR(k->wcell);
    Py_CLEAR(k->waiter);
    Py_CLEAR(k->kit);
    Py_CLEAR(k->deleg);
    Py_CLEAR(k->dres);
    Py_CLEAR(k->op_read);
    Py_CLEAR(k->op_write);
    Py_CLEAR(k->op_cas);
    Py_CLEAR(k->op_faa);
    Py_CLEAR(k->op_gas);
    Py_CLEAR(k->op_unpark);
    Py_CLEAR(k->op_spin);
    PyObject_GC_Del(k);
}

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._engine._enginec.OpKernel",
    .tp_basicsize = sizeof(KernelObject),
    .tp_dealloc = (destructor)kern_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native transcription of one fused channel/queue fast path.",
    .tp_traverse = (traverseproc)kern_traverse,
    .tp_clear = (inquiry)kern_clear,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = kern_next,
    .tp_methods = kern_methods,
};

/* -- construction --------------------------------------------------- */

static KernelObject *
kern_new(int kind)
{
    KernelObject *k = NULL;
    while (kern_pool_len > 0) {
        k = kern_pool[--kern_pool_len];
        if (k->cfg_gen == S.kcfg_gen) {
            Py_SET_REFCNT((PyObject *)k, 1);
            break;
        }
        /* Stale configure generation: its ops bind old classes. */
        Py_CLEAR(k->chan);
        Py_CLEAR(k->list);
        Py_CLEAR(k->stats);
        Py_CLEAR(k->anchor);
        Py_CLEAR(k->ctr);
        Py_CLEAR(k->ctr2);
        Py_CLEAR(k->bcell);
        Py_CLEAR(k->op_read);
        Py_CLEAR(k->op_write);
        Py_CLEAR(k->op_cas);
        Py_CLEAR(k->op_faa);
        Py_CLEAR(k->op_gas);
        Py_CLEAR(k->op_unpark);
        Py_CLEAR(k->op_spin);
        PyObject_GC_Del(k);
        k = NULL;
    }
    if (k == NULL) {
        k = PyObject_GC_New(KernelObject, &KernelType);
        if (k == NULL) {
            return NULL;
        }
        memset((char *)k + sizeof(PyObject), 0,
               sizeof(KernelObject) - sizeof(PyObject));
    }
    k->kind = kind;
    k->pc = 0;
    k->done = 0;
    k->outcome = KO_RESTART;
    k->ok = 0;
    /* k->kseg is NOT reset: it belongs to the cached channel registers
     * and survives pool reuse (factories overwrite it on a miss). */
    k->idx = 0;
    k->raw = 0;
    k->aux = 0;
    k->sid = 0;
    k->ci = 0;
    if (k->op_read == NULL) {
        k->op_read = blank_op(S.tp_read);
        k->op_write = k->op_read != NULL ? blank_op(S.tp_write) : NULL;
        k->op_cas = k->op_write != NULL ? blank_op(S.tp_cas) : NULL;
        k->op_faa = k->op_cas != NULL ? blank_op(S.tp_faa) : NULL;
        k->op_gas = k->op_faa != NULL ? blank_op(S.tp_gas) : NULL;
        k->op_unpark = k->op_gas != NULL ? blank_op(S.tp_unpark) : NULL;
        k->op_spin = k->op_unpark != NULL ? blank_op(S.tp_spin) : NULL;
        if (k->op_spin == NULL) {
            Py_DECREF(k);
            return NULL;
        }
        k->cfg_gen = S.kcfg_gen;
    }
    return k;
}

/* Per-construction op presets (pooled kernels had payloads cleared). */
static int
kern_preset(KernelObject *k)
{
    PyObject *one = PyLong_FromLong(1);
    if (one == NULL) {
        return -1;
    }
    slot_set(k->op_faa, S.op_faa_cell, k->ctr);
    slot_set(k->op_faa, S.op_faa_delta, one);
    Py_DECREF(one);
    slot_set(k->op_unpark, S.op_unpark_interrupt, Py_False);
    slot_set(k->op_unpark, S.op_unpark_retry, Py_False);
    return 0;
}

static PyObject *
kern_channel_new(int kind, PyObject *chan, PyObject *elem)
{
    if (!S.ready) {
        Py_RETURN_NONE; /* decline: dispatch falls back to the generator */
    }
    KernelObject *k = kern_new(kind);
    if (k == NULL) {
        return NULL;
    }
    int send_side = (kind == K_RZ_SEND || kind == K_BUF_SEND);
    if (elem != NULL) {
        k->elem = Py_NewRef(elem);
    }
    if (k->cache_kind == kind && k->chan == chan) {
        /* Pool cache hit: the channel-derived registers (and the op
         * presets cut from them) are already in place. */
        goto ready;
    }
    k->cache_kind = -1; /* invalid until the rebuild below completes */
    Py_XSETREF(k->chan, Py_NewRef(chan));
    Py_CLEAR(k->list);
    Py_CLEAR(k->stats);
    Py_CLEAR(k->anchor);
    Py_CLEAR(k->ctr);
    Py_CLEAR(k->ctr2);
    Py_CLEAR(k->bcell);
    {
        PyObject *v = PyObject_GetAttr(chan, s_seg_size);
        if (v == NULL) {
            goto fail;
        }
        int rc = as_i64(v, &k->kseg);
        Py_DECREF(v);
        if (rc < 0) {
            goto fail;
        }
    }
    if ((k->stats = PyObject_GetAttr(chan, s_stats)) == NULL
        || (k->list = PyObject_GetAttr(chan, s_ulist)) == NULL
        || (k->anchor = PyObject_GetAttr(chan, send_side ? s_segm_s
                                                         : s_segm_r)) == NULL
        || (k->ctr = PyObject_GetAttr(chan, send_side ? s_cap_s
                                                      : s_cap_r)) == NULL
        || (k->ctr2 = PyObject_GetAttr(chan, send_side ? s_cap_r
                                                       : s_cap_s)) == NULL) {
        goto fail;
    }
    if (kind == K_BUF_SEND
        && (k->bcell = PyObject_GetAttr(chan, s_cap_b)) == NULL) {
        goto fail;
    }
    if (kind == K_BUF_RECV) {
        slot_set(k->op_spin, S.op_spin_reason, s_rcv_wait_eb);
    }
    if (kern_preset(k) < 0) {
        goto fail;
    }
    k->cache_kind = kind;
ready:
    if (kind == K_BUF_RECV) {
        /* expand_buffer delegates need a real OpKit, acquired and
         * released on the same pool the fused generator would use. */
        k->kit = PyObject_CallNoArgs(S.fn_acquire_kit);
        if (k->kit == NULL) {
            goto fail;
        }
    }
    PyObject_GC_Track((PyObject *)k);
    return (PyObject *)k;
fail:
    k->done = 1; /* nothing simulated yet; plain teardown */
    PyObject_GC_Track((PyObject *)k);
    Py_DECREF(k);
    return NULL;
}

static PyObject *
kern_faaq_new(int kind, PyObject *q, PyObject *value)
{
    if (!S.ready) {
        Py_RETURN_NONE;
    }
    KernelObject *k = kern_new(kind);
    if (k == NULL) {
        return NULL;
    }
    int enq = (kind == K_FAAQ_ENQ);
    if (value != NULL) {
        k->elem = Py_NewRef(value);
    }
    if (k->cache_kind == kind && k->chan == q) {
        PyObject_GC_Track((PyObject *)k);
        return (PyObject *)k;
    }
    k->cache_kind = -1; /* invalid until the rebuild below completes */
    Py_XSETREF(k->chan, Py_NewRef(q));
    Py_CLEAR(k->list);
    Py_CLEAR(k->stats);
    Py_CLEAR(k->bcell);
    Py_CLEAR(k->anchor);
    Py_CLEAR(k->ctr);
    Py_CLEAR(k->ctr2);
    k->kseg = 16; /* faa_queue._SEG */
    if ((k->anchor = PyObject_GetAttr(q, enq ? s_tail_attr
                                             : s_head_attr)) == NULL
        || (k->ctr = PyObject_GetAttr(q, enq ? s_enq_idx
                                             : s_deq_idx)) == NULL) {
        goto fail;
    }
    if (!enq && (k->ctr2 = PyObject_GetAttr(q, s_enq_idx)) == NULL) {
        goto fail;
    }
    if (kern_preset(k) < 0) {
        goto fail;
    }
    k->cache_kind = kind;
    PyObject_GC_Track((PyObject *)k);
    return (PyObject *)k;
fail:
    k->done = 1;
    PyObject_GC_Track((PyObject *)k);
    Py_DECREF(k);
    return NULL;
}

#define KERN_FACTORY2(fname, kindconst, maker)                          \
    static PyObject *                                                   \
    fname(PyObject *self, PyObject *const *args, Py_ssize_t nargs)      \
    {                                                                   \
        (void)self;                                                     \
        if (nargs != 2) {                                               \
            PyErr_SetString(PyExc_TypeError, #fname "(obj, element)");  \
            return NULL;                                                \
        }                                                               \
        return maker(kindconst, args[0], args[1]);                      \
    }
#define KERN_FACTORY1(fname, kindconst, maker)                          \
    static PyObject *                                                   \
    fname(PyObject *self, PyObject *const *args, Py_ssize_t nargs)      \
    {                                                                   \
        (void)self;                                                     \
        if (nargs != 1) {                                               \
            PyErr_SetString(PyExc_TypeError, #fname "(obj)");           \
            return NULL;                                                \
        }                                                               \
        return maker(kindconst, args[0], NULL);                         \
    }

KERN_FACTORY2(engine_kernel_rz_send, K_RZ_SEND, kern_channel_new)
KERN_FACTORY1(engine_kernel_rz_recv, K_RZ_RECV, kern_channel_new)
KERN_FACTORY2(engine_kernel_buf_send, K_BUF_SEND, kern_channel_new)
KERN_FACTORY1(engine_kernel_buf_recv, K_BUF_RECV, kern_channel_new)
KERN_FACTORY2(engine_kernel_faaq_enq, K_FAAQ_ENQ, kern_faaq_new)
KERN_FACTORY1(engine_kernel_faaq_deq, K_FAAQ_DEQ, kern_faaq_new)

#undef KERN_FACTORY2
#undef KERN_FACTORY1

/* ------------------------------------------------------------------ */
/* step() — the real-time drivers' stepping core                       */
/* ------------------------------------------------------------------ */

/* Resume ``it`` once: throw ``exc`` in when it is not None, else send
 * ``value``.  Kernels are stepped directly; anything else goes through
 * the generator protocol.  Returns 1 with the yielded op in ``*out``, 0
 * with the return value in ``*out``, or -1 with an exception set. */
static int
step_resume(PyObject *it, PyObject *value, PyObject *exc, PyObject **out)
{
    PyObject *op;
    if (Py_IS_TYPE(it, &KernelType)) {
        op = exc != Py_None ? kern_throw(it, &exc, 1)
                            : kern_resume((KernelObject *)it, value);
    }
    else if (exc == Py_None) {
        PySendResult r = PyIter_Send(it, value, out);
        return r == PYGEN_NEXT ? 1 : r == PYGEN_RETURN ? 0 : -1;
    }
    else {
        op = PyObject_CallMethodOneArg(it, s_throw, exc);
    }
    if (op != NULL) {
        *out = op;
        return 1;
    }
    return k_fetch_stop(out) ? 0 : -1;
}

/* ``repro.aio.channel._step`` without an event bus: resume ``gen`` with
 * ``value`` (or throw ``exc`` into it) and run it until it returns or
 * parks.  Read, Write, Cas, Faa and GetAndSet — matched by exact type,
 * like ``MEMORY_OP_APPLIERS`` — are applied here; every other op except
 * ParkTask goes to ``fallback(op, handle)``, whose result resumes the
 * generator and whose exception propagates unchanged.  Returns the
 * operation's result, or the ParkTask op it stopped at (no channel
 * operation returns one).  There is nothing to charge: the event loop
 * runs one operation's steps back to back. */
static PyObject *
engine_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "step(gen, handle, fallback, value, exc) takes 5 "
                        "arguments");
        return NULL;
    }
    if (!S.ready) {
        PyErr_SetString(PyExc_RuntimeError, "engine not configured");
        return NULL;
    }
    PyObject *gen = args[0], *fallback = args[2];
    PyObject *op;
    int rc = step_resume(gen, args[3], args[4], &op);
    while (rc == 1) {
        PyObject *tp = (PyObject *)Py_TYPE(op);
        PyObject *value;
        if (tp == S.tp_park) {
            return op;
        }
        if (tp == S.tp_read) {
            PyObject *cell = slot_get(op, S.op_read_cell);
            value = cell ? slot_get(cell, S.c_value) : NULL;
            Py_XINCREF(value);
        }
        else if (tp == S.tp_faa || tp == S.tp_cas || tp == S.tp_gas
                 || tp == S.tp_write) {
            PyObject *cell = slot_get(op, store_cell_off(tp));
            value = cell ? mem_apply(tp, op, cell) : NULL;
        }
        else {
            PyObject *fargs[2] = {op, args[1]};
            value = PyObject_Vectorcall(fallback, fargs, 2, NULL);
        }
        Py_DECREF(op);
        if (value == NULL) {
            return NULL;
        }
        rc = step_resume(gen, value, Py_None, &op);
        Py_DECREF(value);
    }
    return rc == 0 ? op : NULL;
}

static PyObject *
engine_configured(PyObject *self, PyObject *noargs)
{
    (void)self;
    (void)noargs;
    return PyBool_FromLong(S.ready);
}

static PyMethodDef engine_methods[] = {
    {"configure", engine_configure, METH_O,
     "Bind the engine to the repro classes; validates __slots__ layouts."},
    {"run_fast", engine_run_fast, METH_O,
     "Run a Scheduler's fused DES loop natively (bit-identical to _run_fast)."},
    {"run_observed", engine_run_observed, METH_O,
     "Run a Scheduler's observed general loop natively (bit-identical to "
     "_run_general)."},
    {"configured", engine_configured, METH_NOARGS,
     "True once configure() has validated the object layouts."},
    {"step", (PyCFunction)(void (*)(void))engine_step, METH_FASTCALL,
     "step(gen, handle, fallback, value, exc): run a channel operation "
     "until it returns or parks, applying memory ops natively."},
    {"kernel_rz_send", (PyCFunction)(void (*)(void))engine_kernel_rz_send,
     METH_FASTCALL, "Native RendezvousChannel._send_fused kernel."},
    {"kernel_rz_recv", (PyCFunction)(void (*)(void))engine_kernel_rz_recv,
     METH_FASTCALL, "Native RendezvousChannel._receive_fused kernel."},
    {"kernel_buf_send", (PyCFunction)(void (*)(void))engine_kernel_buf_send,
     METH_FASTCALL, "Native BufferedChannel._send_fused kernel."},
    {"kernel_buf_recv", (PyCFunction)(void (*)(void))engine_kernel_buf_recv,
     METH_FASTCALL, "Native BufferedChannel._receive_fused kernel."},
    {"kernel_faaq_enq", (PyCFunction)(void (*)(void))engine_kernel_faaq_enq,
     METH_FASTCALL, "Native FAAQueue._enqueue_fused kernel."},
    {"kernel_faaq_deq", (PyCFunction)(void (*)(void))engine_kernel_faaq_deq,
     METH_FASTCALL, "Native FAAQueue._dequeue_fused kernel."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef engine_module = {
    PyModuleDef_HEAD_INIT,
    "repro._engine._enginec",
    "Compiled engine tier: the simulator's engine loops and algorithm "
    "kernels, and the asyncio adapter's sync-lane driver, in C.",
    -1,
    engine_methods,
    NULL, /* m_slots */
    NULL, /* m_traverse */
    NULL, /* m_clear */
    NULL, /* m_free */
};

PyMODINIT_FUNC
PyInit__enginec(void)
{
#define INTERN(var, text)                        \
    do {                                         \
        var = PyUnicode_InternFromString(text);  \
        if (var == NULL) return NULL;            \
    } while (0)
    INTERN(s_live, "_live");
    INTERN(s_heap, "_heap");
    INTERN(s_cost, "cost");
    INTERN(s_policy, "policy");
    INTERN(s_p, "p");
    INTERN(s_lcg, "_lcg");
    INTERN(s_processors, "processors");
    INTERN(s_unbound, "_unbound");
    INTERN(s_max_steps, "max_steps");
    INTERN(s_total_steps, "total_steps");
    INTERN(s_tasks, "tasks");
    INTERN(s_bind, "_bind");
    INTERN(s_unbind, "_unbind");
    INTERN(s_make_runnable, "_make_runnable");
    INTERN(s_dispatch, "_dispatch");
    INTERN(s_charge, "charge");
    INTERN(s_popleft, "popleft");
    INTERN(s_throw, "throw");
    INTERN(s_value, "value");
    INTERN(s_compare, "compare");
    INTERN(s_read_hit, "read_hit");
    INTERN(s_write, "write");
    INTERN(s_rmw, "rmw");
    INTERN(s_remote_miss, "remote_miss");
    INTERN(s_read_miss, "read_miss");
    INTERN(s_park, "park");
    INTERN(s_unpark, "unpark");
    INTERN(s_wake_latency, "wake_latency");
    INTERN(s_spin, "spin");
    INTERN(s_yield_, "yield_");
    INTERN(s_alloc, "alloc");
    INTERN(s_jitter, "jitter");
    INTERN(s_clock, "clock");
    INTERN(s_pending_value_str, "pending_value");
    INTERN(s_hooks, "_hooks");
    INTERN(s_alloc_stats, "alloc_stats");
    INTERN(s_record, "record");
    INTERN(s_forget, "forget");
    INTERN(s_sample, "sample");
    INTERN(s_of, "of");
    INTERN(s_send, "send");
    INTERN(s_close, "close");
    INTERN(s_try_unpark, "try_unpark");
    INTERN(s_famf, "find_and_move_forward");
    INTERN(s_find_segment, "_find_segment");
    INTERN(s_mark_closed, "_mark_closed_send_cell");
    INTERN(s_mark_cancelled, "_mark_cancelled_rcv_cell");
    INTERN(s_park_sender, "_park_sender");
    INTERN(s_park_receiver, "_park_receiver");
    INTERN(s_close_recheck, "_close_recheck_receiver");
    INTERN(s_on_interrupted, "on_interrupted_cell");
    INTERN(s_expand_buffer, "expand_buffer");
    INTERN(s_seg_size, "seg_size");
    INTERN(s_stats, "stats");
    INTERN(s_segm_s, "_segm_s");
    INTERN(s_segm_r, "_segm_r");
    INTERN(s_segm_b, "_segm_b");
    INTERN(s_cap_s, "S");
    INTERN(s_cap_r, "R");
    INTERN(s_cap_b, "B");
    INTERN(s_ulist, "_list");
    INTERN(s_head_attr, "_head");
    INTERN(s_tail_attr, "_tail");
    INTERN(s_enq_idx, "enq_idx");
    INTERN(s_deq_idx, "deq_idx");
    INTERN(s_cells_processed, "cells_processed");
    INTERN(s_send_restarts, "send_restarts");
    INTERN(s_rcv_restarts, "rcv_restarts");
    INTERN(s_sends, "sends");
    INTERN(s_receives, "receives");
    INTERN(s_eliminations, "eliminations");
    INTERN(s_poisoned, "poisoned");
    INTERN(s_rcv_wait_eb, "rcv-wait-eb");
#undef INTERN
    if (PyType_Ready(&KernelType) < 0) {
        return NULL;
    }
    memset(&S, 0, sizeof(S));
    PyObject *mod = PyModule_Create(&engine_module);
    if (mod == NULL) {
        return NULL;
    }
    if (PyModule_AddObjectRef(mod, "OpKernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
