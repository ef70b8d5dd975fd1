"""Outside-in layer tracer for the end-to-end benchmark.

The tracer changes nothing under ``src/``: it replaces the public entry
points of each layer with timing wrappers while it is installed and puts
every original back in :meth:`Tracer.restore`. Each wrapper records a span
(name, parent span, duration) and keeps per-thread aggregates in memory:
calls, total seconds and the seconds covered by child spans, so a layer's
self time is ``total - child``. Coarse spans (one per solver run, task,
certificate check or request) are also kept as events that carry the run
id the benchmark set for the operation in flight.

Processes write their spans as one JSON file into a spool directory:

* the benchmark process when the traced pass ends (:meth:`Tracer.flush`);
* forked pool workers after every task, through the wrapped
  ``repro.evalx.parallel.execute_task`` (``run_tasks`` looks that name up
  at call time, so the wrapper reaches the workers without any hook);
* the serve daemon at exit, when started through ``daemon.py``.

:func:`merge` reads the spool back into one aggregate table.

Wrapped entry points (span name → what it wraps):

=========================  ===============================================
``core.engine.setup``       ``SearchEngine.__init__`` (matrix install)
``core.engine.loop``        ``SearchEngine.solve``
``core.engine.propagate``   backend ``propagate``
``core.engine.assign``      backend ``assign`` (pure-rule occ walks inside)
``core.engine.backtrack``   backend ``backtrack``
``core.engine.pure``        backend ``apply_pure_literals``
``core.learning.install``   backend ``add_learned_clause``/``_cube``
``core.learning.analyze``   ``analyze_conflict``/``analyze_solution``
``core.learning.model_cube``  ``build_model_cube``
``core.heuristics.pick``    the picker ``make_picker`` returns
``core.heuristics.frontier``  ``Trail.available_vars``
``certify.check``           ``check_certificate``
``prenexing.prenex``        ``prenex``
``prenexing.miniscope``     ``miniscope``
``evalx.parallel.run_tasks``  ``run_tasks``
``evalx.parallel.execute``  ``execute_task``
``incremental.solve``       ``IncrementalSolver.solve``
``serve.dispatch.<kind>``   ``ServeDaemon.dispatch`` (async, event only)
=========================  ===============================================

The learning functions and ``make_picker`` are wrapped where
``repro.core.engine.search`` binds them, the other functions wherever a
loaded ``repro`` module binds them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "<root>"

#: (span name, defining module, attribute): coarse spans wrapped in every
#: loaded repro module that binds the function.
_FUNCTIONS = (
    ("prenexing.prenex", "repro.prenexing.strategies", "prenex"),
    ("prenexing.miniscope", "repro.prenexing.miniscoping", "miniscope"),
    ("evalx.parallel.run_tasks", "repro.evalx.parallel", "run_tasks"),
)

#: (span name, attribute) bound in repro.core.engine.search only.
_SEARCH_BINDINGS = (
    ("core.learning.analyze", "analyze_conflict"),
    ("core.learning.analyze", "analyze_solution"),
    ("core.learning.model_cube", "build_model_cube"),
)

#: backend methods: (span name, attribute); wrapped on every backend class
#: that defines the attribute itself, so no call is counted twice.
_BACKEND_METHODS = (
    ("core.engine.propagate", "propagate"),
    ("core.engine.assign", "assign"),
    ("core.engine.backtrack", "backtrack"),
    ("core.engine.pure", "apply_pure_literals"),
    ("core.learning.install", "add_learned_clause"),
    ("core.learning.install", "add_learned_cube"),
)


_MARK = "__e2e_trace_wrapper__"


def _mark(wrapper: Callable) -> Callable:
    setattr(wrapper, _MARK, True)
    return wrapper


def leftover_wrappers() -> List[str]:
    """Every tracer wrapper still reachable from a loaded repro module or
    one of its classes; empty once :meth:`Tracer.restore` has run."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                found.append("%s.%s" % (mod_name, attr))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for name, member in list(vars(value).items()):
                    if getattr(member, _MARK, False):
                        found.append("%s.%s.%s" % (mod_name, attr, name))
    return found


class _Spans:
    """One thread's open-span stack and its aggregates."""

    __slots__ = ("names", "child", "agg", "run_id")

    def __init__(self) -> None:
        self.names: List[str] = [ROOT_SPAN]
        #: seconds the open spans' children have taken so far
        self.child: List[float] = [0.0]
        #: (name, parent) -> [calls, total seconds, child seconds]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        self.run_id: Optional[str] = None


class Tracer:
    """Wraps layer entry points while installed; see the module docstring.

    ``spool_dir`` receives one JSON file per flushing process. Every thread
    keeps its own span stack (the serve daemon runs family solves on
    executor threads). Use: :meth:`install`, run the traced work,
    :meth:`flush`, :meth:`restore`.
    """

    def __init__(self, spool_dir: str, role: str = "bench"):
        self.spool_dir = spool_dir
        self.role = role
        self.pid = os.getpid()
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_Spans] = []
        self._events: List[list] = []
        #: counts read off return values, e.g. ``certify.steps``.
        self.counters: Dict[str, int] = {}
        self._flushes = 0
        self._owner_pid = self.pid
        #: (owner, attribute, original, wrapper) for every patched slot.
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _spans(self) -> _Spans:
        """This thread's span stack, made on first use."""
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _Spans()
            with self._lock:
                self._threads.append(spans)
            return spans

    def set_run_id(self, run_id: Optional[str]) -> None:
        """Tag the coarse spans this thread records next with ``run_id``."""
        self._spans().run_id = run_id

    def _after_fork(self) -> None:
        # A forked worker starts empty: the parent's spans are the parent's
        # to report, and the spans open at the fork never close in the child.
        if not self.active:
            return
        self.pid = os.getpid()
        self.role = "worker"
        self._lock = threading.Lock()
        for spans in self._threads:
            del spans.names[1:]
            spans.child[:] = [0.0]
            spans.agg.clear()
        self._events = []
        self.counters = {}
        self._flushes = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, coarse: bool = False) -> Callable:
        """``fn`` recording a ``name`` span per call; a ``coarse`` span is
        also kept as an event tagged with the thread's run id."""
        local = self._local
        spans_of = self._spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = local.spans
            except AttributeError:
                st = spans_of()
            names = st.names
            child = st.child
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                names.pop()
                inner = child.pop()
                child[-1] += dur
                key = (name, names[-1])
                rec = st.agg.get(key)
                if rec is None:
                    rec = st.agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += inner
                if coarse:
                    tracer._events.append([st.run_id, name, key[1], t0, dur, os.getpid()])

        return _mark(traced)

    def _wrap_picker_factory(self, make_picker: Callable) -> Callable:
        wrap = self._wrap

        @functools.wraps(make_picker)
        def traced_make_picker(*args, **kwargs):
            return wrap("core.heuristics.pick", make_picker(*args, **kwargs))

        return _mark(traced_make_picker)

    def _wrap_check(self, check: Callable) -> Callable:
        traced = self._wrap("certify.check", check, coarse=True)
        tracer = self

        @functools.wraps(check)
        def traced_check(*args, **kwargs):
            report = traced(*args, **kwargs)
            tracer.counters["certify.steps"] = (
                tracer.counters.get("certify.steps", 0) + report.steps
            )
            return report

        return _mark(traced_check)

    def _wrap_execute(self, execute: Callable) -> Callable:
        traced = self._wrap("evalx.parallel.execute", execute, coarse=True)
        tracer = self

        @functools.wraps(execute)
        def traced_execute(task):
            in_worker = os.getpid() != tracer._owner_pid
            tracer.set_run_id("%s|%s" % (task.instance, task.solver))
            try:
                return traced(task)
            finally:
                if in_worker:
                    tracer.flush()

        return _mark(traced_execute)

    def _wrap_dispatch(self, dispatch: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(dispatch)
        async def traced_dispatch(daemon, req):
            # Concurrent requests interleave on the event loop, so dispatch
            # spans are events only: no stack, no parent/child accounting.
            t0 = clock()
            try:
                return await dispatch(daemon, req)
            finally:
                kind = req.get("kind", "solve") if isinstance(req, dict) else "?"
                run_id = req.get("id") if isinstance(req, dict) else None
                tracer._events.append([
                    run_id, "serve.dispatch.%s" % kind, ROOT_SPAN, t0,
                    clock() - t0, os.getpid(),
                ])

        return _mark(traced_dispatch)

    # -- install / restore --------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Import the wrapped layers and patch their entry points."""
        import importlib

        from repro.certify import checker
        from repro.core.engine import search
        from repro.core.engine.backend import PropagationBackend
        from repro.core.engine.trail import Trail
        from repro.evalx import parallel
        from repro.incremental.solver import IncrementalSolver
        from repro.serve.daemon import ServeDaemon

        if self.active:
            raise RuntimeError("tracer already installed")
        self._owner_pid = os.getpid()
        self.active = True
        os.register_at_fork(after_in_child=self._after_fork)
        wrap = self._wrap

        self._patch(search.SearchEngine, "__init__",
                    wrap("core.engine.setup", search.SearchEngine.__init__, True))
        self._patch(search.SearchEngine, "solve",
                    wrap("core.engine.loop", search.SearchEngine.solve, True))
        for cls in {PropagationBackend, *search.BACKENDS.values()}:
            for name, attr in _BACKEND_METHODS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, wrap(name, cls.__dict__[attr]))
        for name, attr in _SEARCH_BINDINGS:
            self._patch(search, attr, wrap(name, getattr(search, attr)))
        self._patch(search, "make_picker", self._wrap_picker_factory(search.make_picker))
        self._patch(Trail, "available_vars",
                    wrap("core.heuristics.frontier", Trail.available_vars))
        self._patch(IncrementalSolver, "solve",
                    wrap("incremental.solve", IncrementalSolver.solve, True))
        self._patch(ServeDaemon, "dispatch", self._wrap_dispatch(ServeDaemon.dispatch))
        self._patch(parallel, "execute_task", self._wrap_execute(parallel.execute_task))
        self._patch_everywhere(checker.check_certificate,
                               self._wrap_check(checker.check_certificate))
        for name, module_name, attr in _FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            self._patch_everywhere(original, wrap(name, original, coarse=True))
        return self

    def restore(self) -> None:
        """Put every original back, including bindings made after install."""
        originals = {}
        for owner, attr, original, wrapper in reversed(self._patches):
            setattr(owner, attr, original)
            originals[id(wrapper)] = original
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                original = originals.get(id(value))
                if original is not None:
                    setattr(module, attr, original)
        self._patches = []
        self.active = False

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        """This process's aggregates and events, JSON-ready."""
        with self._lock:
            threads = list(self._threads)
        agg: Dict[Tuple[str, str], List[float]] = {}
        for spans in threads:
            for key, (calls, total, inner) in list(spans.agg.items()):
                rec = agg.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += inner
        return {
            "pid": self.pid,
            "role": self.role,
            "aggregates": [[n, p, c, t, i] for (n, p), (c, t, i) in sorted(agg.items())],
            "events": list(self._events),
            "counters": dict(self.counters),
        }

    def flush(self) -> str:
        """Write this process's spans to the spool and start afresh."""
        data = self.snapshot()
        self._flushes += 1
        path = os.path.join(
            self.spool_dir, "%s-%d-%d.json" % (self.role, self.pid, self._flushes)
        )
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(data, handle)
        os.replace(tmp, path)
        with self._lock:
            for spans in self._threads:
                spans.agg.clear()
        self._events = []
        self.counters = {}
        return path


def merge(spool_dir: str) -> dict:
    """Fold every spool file into per-span and per-edge aggregates.

    Returns ``{"spans": {name: {calls, total_s, self_s}}, "edges":
    {"parent>name": {...}}, "events": [...], "counters": {...}, "files": n}``.
    """
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    edges: Dict[str, Dict[str, float]] = {}
    events: List[list] = []
    files = 0
    for entry in sorted(os.listdir(spool_dir)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(spool_dir, entry)) as handle:
            data = json.load(handle)
        files += 1
        for name, parent, calls, total, inner in data["aggregates"]:
            for table, key in ((spans, name), (edges, "%s>%s" % (parent, name))):
                rec = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                rec["calls"] += calls
                rec["total_s"] += total
                rec["self_s"] += total - inner
        events.extend(data["events"])
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "edges": edges, "events": events, "counters": counters,
            "files": files}
