"""Outside-in span tracing for the benchmark's traced runs.

The benchmark never edits the program.  Instead, a traced run replaces
each layer's public entry points with thin wrappers that record one span
per call: a name, a start and an end (``time.perf_counter``, which is
CLOCK_MONOTONIC and therefore comparable across processes on Linux), the
index of the enclosing span, and a query id where the call has one.

Spans live in flat in-memory arrays and are written out once, when the
process ends (:meth:`SpanRecorder.dump`).  Fork-started pool workers
inherit the installed wrappers; an after-fork hook clears their copy of
the parent's spans and registers a finaliser, so every worker writes its
own file when it exits.

:func:`install` returns an :class:`Installation` whose ``uninstall()``
puts every original object back exactly.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from typing import Callable, Dict, List, Tuple

import numpy as np

#: The traced entry points: (span name, "module:Class" or "module", attribute,
#: kind).  The layer of a span is the part of its name before the first dot.
#: ``kind`` is "call" (one span per call), "items" (a generator function:
#: one span per item it yields) or "count" (no span; the call is counted in
#: :attr:`SpanRecorder.counts` under the span name).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("zones.build", "repro.sim.driver", "build_authority_world", "call"),
    ("zones.lookup", "repro.zones.zone:Zone", "lookup", "call"),
    ("clouds.build", "repro.clouds.fleets", "build_all_fleets", "call"),
    ("workload.generate", "repro.workload.generators:WorkloadGenerator", "generate", "items"),
    ("resolver.resolve", "repro.resolver.engine:SimResolver", "resolve", "call"),
    ("resolver.cache_get", "repro.resolver.cache:ResolverCache", "get", "call"),
    ("server.rtt", "repro.server.authoritative:ServerSet", "rtt_ms", "call"),
    ("server.handle", "repro.server.authoritative:AuthoritativeServer", "handle_query", "call"),
    ("dnscore.encode", "repro.dnscore.message:Message", "to_wire", "call"),
    ("dnscore.decode", "repro.dnscore.message:Message", "from_wire", "call"),
    ("dnscore.make_query", "repro.dnscore.message:Message", "make_query", "call"),
    ("capture.append", "repro.capture.store:CaptureStore", "append_row", "call"),
    ("capture.sort", "repro.capture.store:CaptureStore", "sort_canonical", "call"),
    ("capture.spool_write", "repro.capture.spool:CaptureSpool", "write_view", "call"),
    ("analysis.attribute", "repro.analysis.attribution:Attributor", "attribute", "call"),
    ("analysis.fold", "repro.analysis.streaming:AggregateSet", "feed", "call"),
    ("analysis.merge", "repro.analysis.streaming:AggregateSet", "merge", "call"),
    ("runtime.submit", "repro.runtime.executor:ShardExecutor", "submit", "call"),
    ("runtime.collect", "repro.runtime.executor:ShardExecutor", "collect", "call"),
    ("runtime.shard", "repro.sim.driver", "simulate_shard", "call"),
    ("experiments.report", "repro.experiments.render_all", "instrumented", "call"),
    ("telemetry.publish_fleet", "repro.sim.driver", "publish_fleet_metrics", "call"),
    ("telemetry.publish_server", "repro.sim.driver", "publish_server_metrics", "call"),
    ("telemetry.snapshot", "repro.telemetry.registry:MetricsRegistry", "snapshot", "call"),
    ("telemetry.merge", "repro.telemetry.registry:MetricsRegistry", "merge_snapshot", "call"),
    ("service.classify", "repro.service.endpoints", "classify_datagram", "call"),
    ("service.admit", "repro.service.resilience:TokenBucket", "try_take", "call"),
    ("service.dispatch", "repro.service.dispatch:QueryDispatcher", "dispatch", "call"),
    ("service.handle", "repro.service.app:DnsService", "handle_datagram", "call"),
    # Counted, not spanned: how many dataset simulations ran, and how many
    # runs the experiment reports asked their context for.
    ("experiments.sim_runs", "repro.sim.driver", "run_dataset", "count"),
    ("experiments.run_requests", "repro.experiments.context:ExperimentContext", "run", "count"),
    ("experiments.run_requests", "repro.experiments.context:ExperimentContext", "monthly", "count"),
)

#: Modules imported before patching, so that every module-level binding of
#: a traced function exists when :func:`install` looks for it.
_PRELOAD = (
    "repro.sim", "repro.experiments.render_all", "repro.service",
    "repro.service.app", "repro.service.endpoints", "repro.runtime.executor",
    "repro.analysis", "repro.capture",
)


def _wire_qid(wire) -> int:
    """The DNS message id of a raw datagram (-1 when too short)."""
    if isinstance(wire, (bytes, bytearray, memoryview)) and len(wire) >= 2:
        return (wire[0] << 8) | wire[1]
    return -1


#: Query-id extractors by span name: the DNS message id on the serve path.
_QID_OF: Dict[str, Callable[[tuple], int]] = {
    "service.classify": lambda args: _wire_qid(args[0]),
    "service.handle": lambda args: _wire_qid(args[2]),
    "service.dispatch": lambda args: int(args[3].msg_id),
}


class SpanRecorder:
    """Flat, append-only span storage for one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.qid = array("q")
        #: Open-span stack; the -1 sentinel is the parent of a root span.
        self.stack: List[int] = [-1]
        self.counts: Counter = Counter()
        #: False once uninstalled: later forks then record and dump nothing.
        self.active = True

    def name_index(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def clear(self) -> None:
        """Drop every recorded span in place (wrappers keep their handles)."""
        for column in (self.name_id, self.start, self.end, self.parent, self.qid):
            del column[:]
        del self.stack[1:]
        self.counts.clear()

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own calls."""
        name_id = self.name_index(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.qid.append(-1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self.stack.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "qid": np.frombuffer(self.qid, dtype=np.int64).copy(),
        }

    def dump(self) -> str:
        """Write this process's spans to ``<out_dir>/spans-<pid>.npz``."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.npz")
        counts = sorted(self.counts.items())
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            count_keys=np.array([k for k, _ in counts], dtype=str),
            count_values=np.array([v for _, v in counts], dtype=np.int64),
            pid=np.array([os.getpid()]),
            **self.arrays(),
        )
        return path

    def _after_fork(self) -> None:
        # Runs in a freshly forked multiprocessing child: forget the
        # parent's spans and write this process's own when it exits.
        if not self.active:
            return
        self.clear()
        mp_util.Finalize(self, SpanRecorder.dump, args=(self,), exitpriority=100)


def _call_wrapper(recorder: SpanRecorder, name: str, fn):
    name_id = recorder.name_index(name)
    names, parents, qids = recorder.name_id, recorder.parent, recorder.qid
    starts, ends, stack = recorder.start, recorder.end, recorder.stack
    perf = time.perf_counter
    qid_of = _QID_OF.get(name)

    if qid_of is None:
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            qids.append(-1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
    else:
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            qids.append(qid_of(args))
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
    return wrapper


def _items_wrapper(recorder: SpanRecorder, name: str, fn):
    """Wrap a generator function so each ``next()`` is one span."""
    name_id = recorder.name_index(name)
    names, parents, qids = recorder.name_id, recorder.parent, recorder.qid
    starts, ends, stack = recorder.start, recorder.end, recorder.stack
    perf = time.perf_counter

    def timed(iterator):
        step = iterator.__next__
        while True:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            qids.append(-1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                item = step()
            except StopIteration:
                return
            finally:
                ends[index] = perf()
                stack.pop()
            yield item

    def wrapper(*args, **kwargs):
        return timed(fn(*args, **kwargs))
    return wrapper


def _count_wrapper(recorder: SpanRecorder, name: str, fn):
    counts = recorder.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


_WRAPPERS = {"call": _call_wrapper, "items": _items_wrapper, "count": _count_wrapper}


@dataclass
class Installation:
    """Every binding :func:`install` replaced, for exact restoration."""

    recorder: SpanRecorder
    #: (namespace object, attribute, original value as found in __dict__).
    patches: List[Tuple[object, str, object]] = field(default_factory=list)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        self.recorder.active = False


def _patch_class(install: Installation, cls, attr: str, name: str, kind: str) -> None:
    raw = cls.__dict__[attr]
    make = _WRAPPERS[kind]
    if isinstance(raw, classmethod):
        wrapped = classmethod(make(install.recorder, name, raw.__func__))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(make(install.recorder, name, raw.__func__))
    else:
        wrapped = make(install.recorder, name, raw)
    install.patches.append((cls, attr, raw))
    setattr(cls, attr, wrapped)


def _patch_function(install: Installation, module_name: str, attr: str, name: str, kind: str) -> None:
    """Rebind a module-level function in every ``repro`` module holding it,
    so callers that imported it by name see the wrapper too."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = _WRAPPERS[kind](install.recorder, name, original)
    wrapped.__name__ = original.__name__
    wrapped.__qualname__ = original.__qualname__
    wrapped.__module__ = original.__module__
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if module.__dict__.get(attr) is original:
            install.patches.append((module, attr, original))
            setattr(module, attr, wrapped)


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS`, recording into
    ``recorder``; also arrange for fork-started workers to dump spans."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    installation = Installation(recorder)
    for name, target, attr, kind in ENTRY_POINTS:
        module_name, _, class_name = target.partition(":")
        if class_name:
            cls = getattr(importlib.import_module(module_name), class_name)
            _patch_class(installation, cls, attr, name, kind)
        else:
            _patch_function(installation, module_name, attr, name, kind)
    mp_util.register_after_fork(recorder, SpanRecorder._after_fork)
    return installation
