"""Span tracing around the program's public layer entry points.

The benchmark never edits the program: :class:`Tracer` wraps public
methods of the program's classes in place (``install``) and restores the
originals (``uninstall``), so an untraced run executes exactly the
program's own code.  Each call of a wrapped method records one span:

``(name, start, end, parent, query_id, n)``

``parent`` is the index of the enclosing span in the same thread (a
thread-local stack tracks it), ``query_id`` is inherited from the
enclosing span (``service.place`` spans open a new one, numbered in
call order, which is the batcher's FIFO order), and ``n`` is the work
count the layer reports at that boundary (rows predicted, VMs packed,
migrations applied).  Spans stay in memory until :meth:`Tracer.dump`.

A span's *self time* is its duration minus the durations of its direct
children; summing self time by layer prefix (``core``, ``ml``, ``sim``,
``service``, ``workload``) splits the traced wall time by layer.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "SpanStats", "default_targets", "LAYERS"]

#: Layer prefixes of span names, in report order.
LAYERS = ("workload", "ml", "core", "sim", "service")

# Span record fields (lists, so ``end`` can be filled in on exit).
_NAME, _START, _END, _PARENT, _QID, _N = range(6)


def _len_arg(index: int, key: str) -> Callable:
    def count(args, kwargs, result) -> int:
        value = kwargs[key] if key in kwargs else args[index]
        return len(value)
    return count


def _pack_count(args, kwargs, result) -> int:
    problem = kwargs["problem"] if "problem" in kwargs else args[1]
    return len(problem.requests)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def default_targets() -> List[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, work counter)`` for every traced layer.

    Imported lazily: the program is only importable once ``src`` is on
    the path, which the runner arranges.
    """
    from repro.core.bestfit import SchedulingRound
    from repro.core.hierarchical import HierarchicalScheduler
    from repro.core.model import RoundScorer
    from repro.experiments.engine import FleetSpec, WorkloadSpec
    from repro.ml.predictors import TrainedPredictor
    from repro.service.state import ModelRegistry, Session
    from repro.sim.metrics import MetricsSink
    from repro.sim.multidc import MultiDCSystem
    from repro.sim.sharding import ShardedFleet

    return [
        (FleetSpec, "build", "workload.trace_build", None),
        (WorkloadSpec, "build", "workload.trace_build", None),
        (ModelRegistry, "get_or_train", "ml.train", None),
        (TrainedPredictor, "predict", "ml.predict", _len_arg(1, "X")),
        (SchedulingRound, "__init__", "core.round_build", None),
        (SchedulingRound, "best_fit", "core.best_fit", None),
        (SchedulingRound, "pack", "core.pack", _pack_count),
        (SchedulingRound, "pack_each", "core.pack_each",
         _len_arg(1, "vm_ids")),
        (RoundScorer, "evaluate", "core.evaluate", None),
        (RoundScorer, "evaluate_released", "core.evaluate", None),
        (HierarchicalScheduler, "__call__", "core.sched_round", None),
        (MultiDCSystem, "apply_schedule", "sim.apply_schedule",
         _result_len),
        (MultiDCSystem, "step", "sim.step", None),
        (ShardedFleet, "step_metrics", "sim.step", None),
        (MetricsSink, "on_metrics", "sim.sink", None),
        (Session, "place", "service.place", None),
        (Session, "step", "service.step", None),
    ]


class Tracer:
    """In-memory span recorder over monkeypatched layer boundaries."""

    def __init__(self, targets: Sequence[Tuple[type, str, str,
                                               Optional[Callable]]]) -> None:
        self._targets = list(targets)
        self._saved: List[Tuple[type, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One span list per thread that recorded anything.
        self._threads: List[List[list]] = []
        self._next_qid = 0

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, attr, name, counter in self._targets:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append(spans)
        return spans, local.stack

    def _wrap(self, fn: Callable, name: str,
              counter: Optional[Callable]) -> Callable:
        opens_query = name == "service.place"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            parent = stack[-1] if stack else -1
            if opens_query:
                with self._lock:
                    qid = self._next_qid
                    self._next_qid += 1
            else:
                qid = spans[parent][_QID] if parent >= 0 else -1
            span = [name, 0.0, 0.0, parent, qid, 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[_START] = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[_END] = perf_counter()
                stack.pop()
                if counter is not None and result is not None:
                    span[_N] = counter(args, kwargs, result)

        return traced

    # -- output ----------------------------------------------------------------
    def spans(self) -> List[List[list]]:
        with self._lock:
            return [list(s) for s in self._threads]

    def stats(self) -> "SpanStats":
        return SpanStats(self.spans())

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        n = 0
        with open(path, "w") as fh:
            for tid, spans in enumerate(self.spans()):
                for s in spans:
                    fh.write(json.dumps({
                        "thread": tid, "name": s[_NAME],
                        "start": s[_START], "end": s[_END],
                        "parent": s[_PARENT], "query": s[_QID],
                        "n": s[_N]}) + "\n")
                    n += 1
        return n


class SpanStats:
    """Per-name totals over recorded spans (self time, calls, work)."""

    def __init__(self, threads: List[List[list]]) -> None:
        self.self_s: Dict[str, float] = {}
        #: Inclusive time (children counted) per span name.
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.work: Dict[str, int] = {}
        #: ``service.place`` start times in call order (= query order).
        self.place_starts: List[float] = []
        for spans in threads:
            child = [0.0] * len(spans)
            for s in spans:
                if s[_PARENT] >= 0:
                    child[s[_PARENT]] += s[_END] - s[_START]
            for s, c in zip(spans, child):
                name, dur = s[_NAME], s[_END] - s[_START]
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - c
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.work[name] = self.work.get(name, 0) + s[_N]
                if name == "service.place":
                    self.place_starts.append((s[_QID], s[_START]))
        self.place_starts = [t for _q, t in sorted(self.place_starts)]

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def work_done(self, *names: str) -> int:
        return sum(self.work.get(n, 0) for n in names)

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))
