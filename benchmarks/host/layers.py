"""Host-time attribution to the system's layers.

:class:`SpanTracer` wraps the public entry points of every layer (the
list is :data:`ENTRY_POINTS`, plus every compiler pass's ``run``,
``repro.sim.decode.decode_module`` and each interpreter intrinsic) in
timing spans.  Nothing under ``src/`` changes: the wrappers are
installed on the classes for one rep and removed afterwards.

A span records its name, start, end, parent span and op id (the first
``event_limit`` spans row by row, every span in per-name totals).  It is
attributed to the layer of the *instance's* class (so the adaptive
hybrid runtime's inherited ``access`` counts as ``hybrid``), and its
self time is its duration minus the part its child spans cover.  Time
inside the rep that no span covers is the harness's own.

:func:`count_calls` is the separate, exact pass: it runs a rep under
``cProfile`` and reads only ``ncalls`` of a few named hot helpers,
which are machine-independent counts, unlike profiled times.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import operator
import pstats
from array import array
from pathlib import PurePath
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Layers, named after the repo's modules, in pipeline order.
LAYERS = ("compiler", "sim", "irrun", "trackfm", "aifm", "net", "fastswap", "hybrid", "serve")

#: Module prefix -> layer; the first match wins.
_MODULE_LAYERS = (
    ("repro.sim.irrun", "irrun"),
    ("repro.sim", "sim"),
    ("repro.compiler", "compiler"),
    ("repro.analysis", "compiler"),
    ("repro.ir", "compiler"),
    ("repro.trackfm", "trackfm"),
    ("repro.aifm", "aifm"),
    ("repro.net", "net"),
    ("repro.fastswap", "fastswap"),
    ("repro.hybrid", "hybrid"),
    ("repro.serve", "serve"),
)

#: (module, class, methods) wrapped in spans.  ``FastswapRuntime._touch_page``
#: is the page tier's entry point from the adaptive hybrid runtime, which
#: never calls ``FastswapRuntime.access``.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.compiler.pipeline", "TrackFMCompiler", ("compile",)),
    ("repro.sim.interpreter", "Interpreter", ("run",)),
    ("repro.trackfm.runtime", "TrackFMRuntime",
     ("access", "chunk_access", "chunk_begin", "chunk_end")),
    ("repro.trackfm.guards", "GuardEngine", ("guard",)),
    ("repro.aifm.pool", "ObjectPool", ("ensure_local", "prefetch", "expel")),
    ("repro.net.backends", "RemoteBackend", ("fetch", "evict", "admit")),
    ("repro.fastswap.runtime", "FastswapRuntime", ("access", "_touch_page")),
    ("repro.hybrid.runtime", "AdaptiveHybridRuntime", ("rebalance",)),
    ("repro.serve.simulation", "ServingSimulation", ("run",)),
    ("repro.serve.cluster", "ShardedCluster",
     ("serve", "tick", "failover", "anti_entropy", "rebalance")),
    ("repro.serve.cluster", "Shard", ("service",)),
    ("repro.serve.ring", "HashRing", ("place", "place_n")),
)

#: Spans that start a new op: a kernel (its compile, then its run), a
#: request, or one access of the hybrid replay.
OP_STARTS = frozenset({
    "TrackFMCompiler.compile", "ShardedCluster.serve", "AdaptiveHybridRuntime.access",
})

#: Hot helpers whose exact call counts the count pass reads:
#: label -> (defining file, function name).
HOT_HELPERS: Dict[str, Tuple[str, str]] = {
    "is_tfm_pointer": ("repro/trackfm/pointer.py", "is_tfm_pointer"),
    "decode_tfm_pointer": ("repro/trackfm/pointer.py", "decode_tfm_pointer"),
    "object_id_of": ("repro/trackfm/pointer.py", "object_id_of"),
    "log2_exact": ("repro/units.py", "log2_exact"),
    "is_power_of_two": ("repro/units.py", "is_power_of_two"),
    "ObjectPool.is_safe": ("repro/aifm/pool.py", "is_safe"),
    # The fast-path test the guard itself calls.
    "ObjectStateTable.is_safe": ("repro/trackfm/state_table.py", "is_safe"),
}
POINTER_HELPERS = ("is_tfm_pointer", "decode_tfm_pointer", "object_id_of")
LOG2_HELPERS = ("log2_exact", "is_power_of_two")


def layer_of(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    raise ValueError(f"module {module} belongs to no layer")


class SpanTracer:
    """In-memory spans around layer entry points; a context manager.

    Every span adds to its name's calls, self and inclusive seconds; only
    the first ``event_limit`` spans are also kept row by row, for the
    Chrome trace.
    """

    def __init__(self, event_limit: int) -> None:
        self.event_limit = event_limit
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self._op_start_ids: set = set()
        # One row per kept span, in start order.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Per name id: calls, self seconds, inclusive seconds.
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        self.op = -1
        # Open spans: (name id, row or -1 when not kept, start).
        self._stack: List[Tuple[int, int, float]] = []
        self._child: List[float] = []
        self._undo: List[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------------

    def intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            if name in OP_STARTS:
                self._op_start_ids.add(nid)
        return nid

    def enter(self, nid: int) -> None:
        if nid in self._op_start_ids:
            self.op += 1
        stack = self._stack
        row = len(self.span_name)
        if row < self.event_limit:
            # Rows are in start order, so a kept span's parent is kept too.
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            row = -1
        self._child.append(0.0)
        stack.append((nid, row, perf_counter()))

    def exit(self) -> None:
        end = perf_counter()
        nid, row, start = self._stack.pop()
        child = self._child.pop()
        if row >= 0:
            self.span_start[row] = start
            self.span_end[row] = end
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.incl_s[nid] += dur
        if self._child:
            self._child[-1] += dur

    def _traced(self, fn: Callable, name: str, layer: str) -> Callable:
        nid = self.intern(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def _traced_method(self, fn: Callable, key: Callable, describe: Callable) -> Callable:
        """Wrap a method whose span name depends on the instance:
        ``describe(obj)`` gives ``(name, layer)``, cached by ``key(obj)``."""
        ids: Dict[object, int] = {}

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            k = key(obj)
            nid = ids.get(k)
            if nid is None:
                nid = ids[k] = self.intern(*describe(obj))
            self.enter(nid)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self.exit()

        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def __enter__(self) -> "SpanTracer":
        for module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._patch(cls, method, self._traced_method(
                    cls.__dict__[method], type,
                    lambda obj, m=method: (
                        f"{type(obj).__name__}.{m}", layer_of(type(obj).__module__)),
                ))
        for cls in _pass_classes():
            self._patch(cls, "run", self._traced_method(
                cls.__dict__["run"], operator.attrgetter("name"),
                lambda p: (f"pass:{p.name}", "compiler"),
            ))
        decode = importlib.import_module("repro.sim.decode")
        self._patch(decode, "decode_module",
                    self._traced(decode.decode_module, "decode_module", "sim"))
        interp_cls = importlib.import_module("repro.sim.interpreter").Interpreter
        register = interp_cls.__dict__["register_intrinsic"]

        def register_intrinsic(interp, name, fn):
            register(interp, name, self._traced(fn, f"intrinsic:{name}", layer_of(fn.__module__)))

        self._patch(interp_cls, "register_intrinsic", register_intrinsic)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, layer in enumerate(self.layers):
            out[layer] += self.self_s[nid]
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for nid, layer in enumerate(self.layers):
            out[layer] += self.calls[nid]
        return out

    def span_table(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {
                "layer": self.layers[nid],
                "calls": self.calls[nid],
                "self_s": self.self_s[nid],
                "incl_s": self.incl_s[nid],
            }
            for nid, name in enumerate(self.names)
        }

    def chrome_events(self, tid: int, thread_name: str) -> List[Dict[str, object]]:
        """Complete ("X") events for the kept spans, in µs."""
        events: List[Dict[str, object]] = [
            {"name": "thread_name", "ph": "M", "pid": 3, "tid": tid,
             "args": {"name": thread_name}},
        ]
        if not len(self.span_start):
            return events
        t0 = self.span_start[0]
        for idx in range(len(self.span_start)):
            nid = self.span_name[idx]
            events.append({
                "name": self.names[nid],
                "cat": self.layers[nid],
                "ph": "X",
                "pid": 3,
                "tid": tid,
                "ts": (self.span_start[idx] - t0) * 1e6,
                "dur": (self.span_end[idx] - self.span_start[idx]) * 1e6,
                "args": {"op": self.span_op[idx], "parent": self.span_parent[idx]},
            })
        return events


def _pass_classes() -> List[type]:
    """Every compiler pass class that defines its own ``run``."""
    importlib.import_module("repro.compiler")
    base = importlib.import_module("repro.compiler.pass_manager").Pass
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "run" in cls.__dict__ and cls not in found:
            found.append(cls)
    return found


def count_calls(fn: Callable[[], object]) -> Dict[str, int]:
    """Run ``fn`` under cProfile; return ``ncalls`` of each hot helper."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    counts = dict.fromkeys(HOT_HELPERS, 0)
    for (filename, _line, func), row in pstats.Stats(profile).stats.items():
        path = PurePath(filename).as_posix()
        for label, (suffix, name) in HOT_HELPERS.items():
            if func == name and path.endswith(suffix):
                counts[label] += row[1]
    return counts
