"""Open-loop Poisson load generator for placement queries.

Queries arrive on a schedule drawn up front from the seed, phase by
phase (each phase: a name, a rate and a duration), and are sent when
due whatever the state of earlier queries — independent users, not
callers waiting on replies — so a stalled server builds a backlog
instead of silently receiving less load.  Latency is timed from each
query's *due* time to its completion, which charges a stall to every
query queued behind it; how late the generator itself sent queries is
reported separately (``late_ms``) to validate the open loop.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Phase", "Query", "OpenLoop", "Ticker"]


@dataclass(frozen=True)
class Phase:
    name: str
    rate_qps: float
    duration_s: float


@dataclass
class Query:
    """One scheduled query and what happened to it (times are absolute)."""

    qid: int
    phase: int
    vm_id: str
    due: float = 0.0
    sent: float = float("nan")
    #: Accepted by ``submit`` (a refused query never reaches the server).
    queued: bool = False
    done: float = float("nan")
    result: Optional[dict] = None
    error: Optional[BaseException] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class OpenLoop:
    """A seeded Poisson schedule over ``phases``, sent from one thread."""

    phases: Sequence[Phase]
    vm_ids: Sequence[str]
    rng: np.random.Generator
    queries: List[Query] = field(default_factory=list)
    #: Phase boundaries in s from the run start (one more than phases).
    phase_starts: List[float] = field(default_factory=list)
    #: ``perf_counter()`` reading when :meth:`run` started sending.
    start: float = 0.0
    #: ``process_time()`` reading when each phase's first query was due.
    phase_cpu: List[float] = field(default_factory=list)
    _resolved: int = field(default=0, repr=False)
    _expected: float = field(default=float("inf"), repr=False)
    _resolved_cv: threading.Condition = field(
        default_factory=threading.Condition, repr=False)

    def __post_init__(self) -> None:
        offset = 0.0
        for p, phase in enumerate(self.phases):
            self.phase_starts.append(offset)
            # A Poisson process conditioned on its count: exactly
            # rate x duration arrivals at sorted uniform times, so every
            # seed offers the same load.
            count = int(round(phase.rate_qps * phase.duration_s))
            due = offset + np.sort(self.rng.uniform(0.0, phase.duration_s,
                                                    size=count))
            picks = self.rng.integers(0, len(self.vm_ids), size=len(due))
            for d, k in zip(due, picks):
                self.queries.append(Query(qid=len(self.queries), phase=p,
                                          vm_id=self.vm_ids[k],
                                          due=float(d)))
            offset += phase.duration_s
        self.phase_starts.append(offset)

    def run(self, submit: Callable[[str], "object"]) -> None:
        """Send every query when due; ``submit(vm_id)`` returns a Future.

        Completion is stamped by a done-callback, i.e. in the thread that
        resolves the future, the moment it resolves.
        """
        self.start = time.perf_counter()
        for q in self.queries:
            q.due += self.start
        for q in self.queries:
            wait = q.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            while len(self.phase_cpu) <= q.phase:
                self.phase_cpu.append(time.process_time())
            q.sent = time.perf_counter()
            try:
                future = submit(q.vm_id)
            except Exception as exc:  # a refused query is a failed query
                q.error = exc
                q.done = time.perf_counter()
                continue
            q.queued = True
            future.add_done_callback(self._completer(q))

    def _completer(self, q: Query) -> Callable:
        def done(future) -> None:
            at = time.perf_counter()
            exc = future.exception()
            if exc is None:
                q.result = future.result()
            else:
                q.error = exc
            with self._resolved_cv:
                q.done = at
                self._resolved += 1
                # Wake the waiter once, not per query: every wake-up
                # would take the GIL from the server's worker thread.
                if self._resolved >= self._expected:
                    self._resolved_cv.notify_all()
        return done

    def wait(self, timeout_s: float) -> None:
        """Block until every sent query resolved or ``timeout_s`` passed."""
        with self._resolved_cv:
            self._expected = sum(1 for q in self.queries if q.queued)
            self._resolved_cv.wait_for(
                lambda: self._resolved >= self._expected, timeout=timeout_s)

    # -- analysis --------------------------------------------------------------
    def phase_window(self, p: int) -> Tuple[float, float]:
        return (self.start + self.phase_starts[p],
                self.start + self.phase_starts[p + 1])

    def in_phase(self, p: int) -> List[Query]:
        return [q for q in self.queries if q.phase == p]

    def backlog_at(self, when: float) -> int:
        """Queries sent by ``when`` and not yet resolved at ``when``."""
        return sum(1 for q in self.queries
                   if q.sent <= when and not q.done <= when)

    def late_ms(self) -> np.ndarray:
        return np.array([(q.sent - q.due) * 1000.0 for q in self.queries
                         if not math.isnan(q.sent)])


class Ticker:
    """Calls ``fn()`` every ``period_s`` on its own thread until stopped.

    The calls fall half a period off the multiples of ``period_s`` (at
    0.5, 1.5, 2.5, ... periods from :meth:`start`), so none races a
    phase boundary that lies on one.
    """

    def __init__(self, period_s: float, fn: Callable[[], None]) -> None:
        self.period_s = period_s
        self.fn = fn
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-ticker")

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        next_at = time.perf_counter() + self.period_s / 2
        while not self._stop.wait(max(0.0, next_at - time.perf_counter())):
            self.fn()
            next_at += self.period_s

    def stop(self, timeout_s: float = 30.0) -> None:
        self._stop.set()
        self._thread.join(timeout=timeout_s)
        if self._thread.is_alive():
            raise RuntimeError("ticker thread did not stop")
