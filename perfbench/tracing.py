"""Span recording and layer wrappers for the traced benchmark run.

Every layer is timed from outside: :func:`install` replaces the public
entry points of each layer *where their callers look them up* (for
example ``repro.session.finalize_mpds``, because ``session.py`` imports
the name) with thin wrappers that record one span per call.  The
program itself is never edited, and :meth:`Patches.undo` restores the
original objects.

A span is ``[id, layer, op, start, end, parent, request, counts]``.
Spans are held in memory and written out when the run ends.
Recording is per thread and switched on per request
(:meth:`Recorder.begin` / :meth:`Recorder.end`), so a wrapper outside a
traced request costs one attribute lookup.  Times come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and is
therefore comparable between the benchmark and the daemon process.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

#: request header carrying ``"<request id>:<parent span id>"`` into the
#: daemon; its presence switches tracing on for that request
TRACE_HEADER = "X-Bench-Trace"

#: every layer a span can belong to (``request`` is the benchmark's own
#: per-request root span in in-process workloads and is not a layer)
LAYERS = (
    "sampling", "store", "bound", "exact", "finalize", "serialize",
    "session", "serve", "http", "delta",
)

ID, LAYER, OP, START, END, PARENT, REQUEST, COUNTS = range(8)


class Recorder:
    """In-memory span store with a per-thread span stack."""

    def __init__(self, id_base: int = 1) -> None:
        self.spans: list = []
        self._ids = itertools.count(id_base)
        self._local = threading.local()

    def begin(self, request, parent=None) -> None:
        """Start recording on this thread for one request."""
        local = self._local
        local.active = True
        local.request = request
        local.root_parent = parent
        local.stack = []

    def end(self) -> None:
        """Stop recording on this thread."""
        self._local.active = False

    def active(self) -> bool:
        return getattr(self._local, "active", False)

    def open(self, layer: str, op: str) -> list:
        local = self._local
        stack = local.stack
        parent = stack[-1] if stack else local.root_parent
        span = [next(self._ids), layer, op, 0.0, 0.0, parent,
                local.request, None]
        stack.append(span[ID])
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._local.stack.pop()
        self.spans.append(span)


def root(rec: Recorder, request, layer: str, op: str, fn):
    """Run ``fn(span)`` inside the root span of one traced request."""
    rec.begin(request)
    span = rec.open(layer, op)
    try:
        return fn(span)
    finally:
        rec.close(span)
        rec.end()


def _wrap(rec, layer, op, fn, pre=None, post=None):
    """Wrap a plain callable; ``post(args, result, state)`` returns the
    span's counts, ``pre(args)`` the state it compares against."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active():
            return fn(*args, **kwargs)
        state = pre(args) if pre is not None else None
        span = rec.open(layer, op)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if post is not None:
            span[COUNTS] = post(args, result, state)
        return result

    return wrapper


def _traced_next(rec, layer, op, iterator):
    """Re-yield ``iterator``, one span around each ``next()``."""
    while True:
        span = rec.open(layer, op)
        try:
            item = next(iterator)
        except StopIteration:
            rec.close(span)
            return
        except BaseException:
            rec.close(span)
            raise
        rec.close(span)
        span[COUNTS] = {"worlds": 1}
        yield item


def _wrap_iter(rec, layer, op, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        if not rec.active():
            return iterator
        return _traced_next(rec, layer, op, iter(iterator))

    return wrapper


class _JsonShim:
    """Stands in for the ``json`` module inside ``repro.serve`` so the
    daemon's response encoding is timed as the serialize layer."""

    def __init__(self, real, dumps) -> None:
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Patches:
    """The replaced attributes, restorable with :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, owner, name, make) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            self.set(owner, name, classmethod(make(original.__func__)))
        else:
            self.set(owner, name, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _store_counts(args, store, state):
    return {"draws": 1, "mask_bytes": int(store.mask_nbytes)}


def _exact_pre(args):
    measure = args[0]
    return measure.worlds_filtered, measure.replayed_worlds


def _exact_post(args, result, state):
    measure = args[0]
    filtered = measure.worlds_filtered - state[0]
    return {
        "worlds": 1 - filtered,
        "filtered": filtered,
        "replayed": measure.replayed_worlds - state[1],
    }


def _delta_post(args, summary, state):
    return {
        "columns_redrawn": summary.get("columns_redrawn", 0),
        "worlds_flipped": summary.get("worlds_flipped", 0),
    }


def install(rec: Recorder, serve: bool = False) -> Patches:
    """Wrap every layer's public entry points; ``serve`` adds the
    daemon-side HTTP, handler and JSON-encode wrappers."""
    import repro.core.nds as nds
    import repro.delta as delta
    import repro.session as session
    from repro.core.results import MPDSResult, NDSResult, SerializableResult
    from repro.engine.estimators import EngineMeasure
    from repro.engine.indexed import IndexedGraph
    from repro.engine.lazy import VectorizedLazyPropagationSampler
    from repro.engine.sampler import VectorizedMonteCarloSampler
    from repro.engine.worldstore import WorldStore

    patches = Patches()

    def plain(layer, op, **hooks):
        return lambda fn: _wrap(rec, layer, op, fn, **hooks)

    def iterating(layer, op):
        return lambda fn: _wrap_iter(rec, layer, op, fn)

    for sampler in (VectorizedMonteCarloSampler,
                    VectorizedLazyPropagationSampler):
        patches.method(sampler, "mask_worlds", iterating("sampling", "draw"))
    patches.method(WorldStore, "from_vectorized",
                   plain("store", "draw", post=_store_counts))
    patches.method(delta, "draw_dynamic_store",
                   plain("store", "draw", post=_store_counts))
    patches.method(WorldStore, "mask_worlds", iterating("store", "replay"))
    patches.method(IndexedGraph, "from_uncertain", plain("store", "index"))
    patches.method(EngineMeasure, "prime_batch", plain(
        "bound", "prime",
        post=lambda args, result, state: {"worlds": len(args[1])},
    ))
    for name in ("all_densest", "maximum_sized_densest"):
        patches.method(EngineMeasure, name, plain(
            "exact", name, pre=_exact_pre, post=_exact_post,
        ))
    patches.method(session, "finalize_mpds", plain("finalize", "mpds"))
    patches.method(session, "finalize_nds", plain("finalize", "nds"))
    patches.method(nds, "top_k_closed_itemsets", plain("finalize", "mining"))
    for result_type in (MPDSResult, NDSResult):
        patches.method(result_type, "to_dict", plain("serialize", "to_dict"))
    patches.method(SerializableResult, "to_json", plain(
        "serialize", "to_json",
        post=lambda args, text, state: {"bytes": len(text)},
    ))
    patches.method(session.Query, "mpds", plain("session", "mpds"))
    patches.method(session.Query, "nds", plain("session", "nds"))
    patches.method(session.Session, "update",
                   plain("delta", "update", post=_delta_post))
    if serve:
        _install_serve(rec, patches)
    return patches


def _install_serve(rec: Recorder, patches: Patches) -> None:
    import repro.serve as serve

    patches.method(serve.ReproServer, "handle", lambda fn: _wrap(
        rec, "serve", "handle", fn,
        post=lambda args, result, state: {"errors": int(result[0] >= 400)},
    ))
    dumps = _wrap(
        rec, "serialize", "json", json.dumps,
        post=lambda args, text, state: {"bytes": len(text)},
    )
    patches.set(serve, "json", _JsonShim(json, dumps))
    dispatch = serve._Handler.__dict__["_dispatch"]

    @functools.wraps(dispatch)
    def traced_dispatch(handler, method):
        tag = handler.headers.get(TRACE_HEADER)
        if not tag:
            return dispatch(handler, method)
        request, _sep, parent = tag.partition(":")
        rec.begin(int(request), int(parent))
        try:
            span = rec.open("http", "server")
            try:
                return dispatch(handler, method)
            finally:
                rec.close(span)
        finally:
            rec.end()

    patches.set(serve._Handler, "_dispatch", traced_dispatch)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]
    return {
        span[ID]: max(0.0, span[END] - span[START] - children[span[ID]])
        for span in spans
    }


def summarize(spans: list) -> dict:
    """Per layer: self time, calls, summed counts, and per op the calls
    and summed span durations."""
    own = self_times(spans)
    layers = {
        layer: {"self_s": 0.0, "calls": 0, "counts": defaultdict(int),
                "op_calls": defaultdict(int), "op_s": defaultdict(float)}
        for layer in LAYERS
    }
    for span in spans:
        entry = layers.get(span[LAYER])
        if entry is None:
            continue
        entry["self_s"] += own[span[ID]]
        entry["calls"] += 1
        entry["op_calls"][span[OP]] += 1
        entry["op_s"][span[OP]] += span[END] - span[START]
        for key, value in (span[COUNTS] or {}).items():
            entry["counts"][key] += value
    return layers
