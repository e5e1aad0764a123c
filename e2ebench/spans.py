"""Spans around the program's layer calls, recorded from outside.

:func:`install` wraps the public functions the program itself calls --
the MET frontend, TDL raising, the lowerings, the optimizer, the IR
printer and parser, the code generator, the cache loads and stores,
the compiled kernel call and the serving unit -- so that each call
records one span: layer name, start, end, the span that caused it and
the operation it belongs to.  :meth:`Tracer.detach` takes every wrapper
out again (kernel entry points included) and :meth:`Tracer.attach`
puts them back, so a traced run alternates traced rounds with untraced
rounds that run the same code as an untraced run, and prices the
tracing itself, wrappers and all.

Spans live in memory; :meth:`Tracer.chrome_events` turns them into
Chrome trace-event JSON (``chrome://tracing``, Perfetto).
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    """One call into a layer, recorded by a :class:`Tracer`."""

    __slots__ = ("id", "parent", "op", "layer", "start", "end", "tid")

    def __init__(self, id, parent, op, layer, start, tid):
        self.id = id
        self.parent = parent
        self.op = op
        self.layer = layer
        self.start = start
        self.end = start
        self.tid = tid


class Tracer:
    """Spans and counts of one run, kept in memory."""

    def __init__(self):
        self.active = False
        self.installed = False
        self.spans: List[Span] = []
        #: op id -> (unit name, counted in the report?)
        self.ops: Dict[int, tuple] = {}
        #: op id -> counter name -> total
        self.counts: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2ebench_span", default=None
        )
        #: Serve requests in flight: (kernel or source, pipeline, seed)
        #: -> [(op id, client span id)], matched by the server-side unit.
        self._pending: Dict[tuple, list] = defaultdict(list)
        self._lock = threading.Lock()
        self.origin = time.perf_counter()
        #: (owner, attribute, original, wrapper) of every patched entry
        self._patches: List[tuple] = []
        #: id -> compiled module whose entry points have traced versions
        self._kernels: "weakref.WeakValueDictionary" = (
            weakref.WeakValueDictionary()
        )

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str, op: Optional[int] = None, parent=None):
        """Record one span; yields it, or ``None`` while inactive."""
        if not self.active:
            yield None
            return
        outer = self._current.get()
        if op is None:
            op = outer.op if outer is not None else 0
            parent = outer.id if outer is not None else None
        span = Span(
            next(self._ids), parent, op, layer, time.perf_counter(),
            threading.get_ident(),
        )
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own checks)."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def op(self, unit: str, report: bool = True):
        """Root span of one benchmark operation on ``unit``."""
        op_id = next(self._ids)
        self.ops[op_id] = (unit, report)
        return self.span("op", op=op_id)

    @contextlib.contextmanager
    def recording(self, unit: str):
        """Trace set-up work for ``unit`` outside the report; yields
        the counts it records (empty when the run is untraced)."""
        if not self.installed:
            yield {}
            return
        self.active = True
        try:
            with self.op(unit, report=False) as span:
                yield self.counts[span.op]
        finally:
            self.active = False

    def count(self, name: str, value: float) -> None:
        if not self.active:
            return
        span = self._current.get()
        self.counts[span.op if span is not None else 0][name] += value

    def expect_request(self, key: tuple, span: Optional[Span]) -> None:
        """A client is about to send the request ``key`` inside ``span``."""
        if span is not None:
            with self._lock:
                self._pending[key].append((span.op, span.id))

    def _claim_request(self, spec: dict):
        key = (spec.get("kernel") or spec.get("source"),
               spec.get("pipeline"), spec.get("seed"))
        with self._lock:
            waiting = self._pending.get(key)
            return waiting.pop(0) if waiting else (0, None)

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, after=None,
             kernels: bool = False) -> Callable:
        """``fn`` recording a ``layer`` span; ``after(self, args,
        result)`` adds counts once the span has closed.  With
        ``kernels``, the compiled module ``fn`` returns gets traced
        entry points even while inactive, since it may be pinned and
        called in a later, traced round."""

        def traced(*args, **kwargs):
            if not self.active:
                result = fn(*args, **kwargs)
            else:
                with self.span(layer):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
            if kernels:
                self.wrap_kernels(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_serve_unit(self, fn: Callable) -> Callable:
        """The server's unit call, parented on the client request."""

        def traced(spec):
            if not self.active:
                return fn(spec)
            op, parent = self._claim_request(spec)
            with self.span("serving.unit", op=op, parent=parent):
                return fn(spec)

        return traced

    def wrap_kernels(self, compiled) -> None:
        """Make every entry point of a compiled module record ``exec``."""
        if compiled is None or hasattr(compiled, "_e2e_traced"):
            return
        compiled._e2e_plain = compiled.functions
        compiled._e2e_traced = {
            name: self.wrap(fn, "exec")
            for name, fn in compiled.functions.items()
        }
        compiled.functions = compiled._e2e_traced
        self._kernels[id(compiled)] = compiled

    def attach(self) -> None:
        """Put every wrapper in place (``install`` starts attached)."""
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        for compiled in list(self._kernels.values()):
            compiled.functions = compiled._e2e_traced

    def detach(self) -> None:
        """Restore the program's own functions and entry points."""
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        for compiled in list(self._kernels.values()):
            compiled.functions = compiled._e2e_plain

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """op id -> layer -> self seconds (span minus its children)."""
        children = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        per_op: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span in self.spans:
            own = span.end - span.start - children.get(span.id, 0.0)
            per_op[span.op][span.layer] += own
        return per_op

    def chrome_events(self) -> dict:
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            unit = self.ops.get(span.op, ("setup",))[0]
            events.append({
                "name": span.layer,
                "cat": unit,
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": span.tid,
                "args": {"op": span.op, "span": span.id,
                         "parent": span.parent, "unit": unit},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------


def _ir_ops(tracer, args, module):
    tracer.count("met.ir_ops", sum(1 for _ in module.walk()))


def _raised(tracer, args, stats):
    tracer.count("tactics.raised_ops", stats.total)


def _printed(tracer, args, text):
    tracer.count("ir.text_kb", len(text) / 1024)


def _parsed(tracer, args, module):
    tracer.count("ir.text_kb", len(args[0]) / 1024)


def _generated(tracer, args, compiled):
    tracer.count("codegen.source_kb", len(compiled.source) / 1024)
    stats = compiled.vectorize_stats or {}
    tracer.count("codegen.scalar_nests", stats.get("nests_bailed", 0))


def _loaded(tracer, args, result):
    tracer.count("cache.hits" if result is not None else "cache.misses", 1)
    if result is not None and hasattr(result, "source"):
        tracer.count("codegen.source_kb", len(result.source) / 1024)


#: (module, attribute, layer, counts, returns a compiled module); a
#: "Class.method" attribute patches the method on the class.
TARGETS = (
    ("repro.met", "compile_c", "met", _ir_ops, False),
    ("repro.evaluation.pipelines", "compile_c", "met", _ir_ops, False),
    ("repro.tactics", "raise_affine_to_linalg", "tactics", _raised,
     False),
    ("repro.evaluation.pipelines", "raise_affine_to_linalg", "tactics",
     _raised, False),
    ("repro.evaluation.pipelines", "lower_linalg_op_to_affine",
     "transforms.lower", None, False),
    ("repro.evaluation.pipelines", "tile_perfect_nest",
     "transforms.lower", None, False),
    ("repro.transforms.lowering", "LinalgToBlasPass.run",
     "transforms.lower", None, False),
    ("repro.transforms", "lower_to_llvm", "transforms.llvm", None, False),
    ("repro.execution.engine.optimizer", "run_optimizer", "optimizer",
     None, False),
    ("repro.ir", "print_module", "ir.print", _printed, False),
    ("repro.ir.parser", "parse_module", "ir.parse", _parsed, False),
    ("repro.execution.engine.codegen", "compile_module", "codegen",
     _generated, True),
    ("repro.execution.engine.engine", "compile_module", "codegen",
     _generated, True),
    ("repro.execution.engine.disk_cache", "DiskKernelCache.load",
     "cache.load", _loaded, True),
    ("repro.execution.engine.disk_cache", "DiskKernelCache.load_text",
     "cache.load", _loaded, False),
    ("repro.execution.engine.disk_cache", "DiskKernelCache.store",
     "cache.store", None, False),
    ("repro.execution.engine.disk_cache", "DiskKernelCache.store_text",
     "cache.store", None, False),
    ("repro.ir.pass_cache", "PassResultCache.get", "cache.load", _loaded,
     False),
    ("repro.ir.pass_cache", "PassResultCache.put", "cache.store", None,
     False),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; :meth:`Tracer.detach` undoes it."""
    for module_name, attr, layer, after, kernels in TARGETS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        tracer._patches.append((owner, name, original,
                                tracer.wrap(original, layer, after, kernels)))
    server = importlib.import_module("repro.serving.server")
    tracer._patches.append((server, "serve_unit", server.serve_unit,
                            tracer.wrap_serve_unit(server.serve_unit)))
    tracer.attach()
    tracer.installed = True
