"""Layer spans and counters for the traced benchmark run.

The traced run wraps the public functions at each layer boundary of the
simulator from here, in the benchmark's own files; the program itself is
not instrumented.  Every wrapped call is one span.  Spans are aggregated
in memory per name (calls, inclusive time, self time) and per
(caller, callee) edge, and written out once when the run ends.

Self time of a span is its duration minus the inclusive time of the
spans it directly caused.  Inclusive time of a name counts only its
outermost activation, so a MAXTP ``select`` falling back to MAXIT's
``select`` is not counted twice.

The wrappers are transparent: they pass arguments and results through
unchanged, so a traced run must produce the same simulated outputs as
an untraced one (the benchmark checks this).
"""

from __future__ import annotations

import functools
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Iterator

from repro.core import fcfs as core_fcfs
from repro.core import optimal as core_optimal
from repro.lp import model as lp_model
from repro.microarch import rates as microarch_rates
from repro.queueing import cluster as queueing_cluster
from repro.queueing import dispatch as queueing_dispatch
from repro.queueing import experiment as queueing_experiment
from repro.queueing import schedulers as queueing_schedulers

#: (span name, object owning the attribute, attribute name).  Module
#: functions are patched at every import site the workloads reach.
_FUNCTION_SPANS = (
    ("core.fcfs_throughput", core_fcfs, "fcfs_throughput"),
    ("core.fcfs_throughput", queueing_experiment, "fcfs_throughput"),
    ("core.optimal_throughput", core_optimal, "optimal_throughput"),
    ("core.optimal_throughput", queueing_schedulers, "optimal_throughput"),
    ("core.optimal_throughput", queueing_dispatch, "optimal_throughput"),
)

_METHOD_SPANS = (
    ("microarch.type_rates", microarch_rates.RateTable, "type_rates"),
    ("microarch.type_rates", microarch_rates.TableRates, "type_rates"),
    ("lp.solve", lp_model.Model, "solve"),
    ("dispatch.route", queueing_dispatch.RoundRobinDispatcher, "route"),
    ("dispatch.route", queueing_dispatch.JoinShortestQueueDispatcher, "route"),
    ("dispatch.route", queueing_dispatch.SymbiosisAffinityDispatcher, "route"),
    ("dispatch.rebuild", queueing_dispatch.SymbiosisAffinityDispatcher, "rebuild"),
    ("schedulers.select", queueing_schedulers.FcfsScheduler, "select"),
    ("schedulers.select", queueing_schedulers.MaxItScheduler, "select"),
    ("schedulers.select", queueing_schedulers.SrptScheduler, "select"),
    ("schedulers.select", queueing_schedulers.MaxTpScheduler, "select"),
    ("schedulers.reoptimize", queueing_schedulers.Scheduler, "reoptimize"),
    ("schedulers.reoptimize", queueing_schedulers.MaxTpScheduler, "reoptimize"),
    ("cluster.advance", queueing_cluster.ClusterRunHandle, "advance"),
    ("system.window", queueing_cluster.ClusterRunHandle, "take_window"),
)

#: Arrival generators the Section-VI entry points build internally;
#: their iterators are wrapped so the time spent inside them is a span.
_ARRIVAL_FACTORIES = ("poisson_arrivals", "saturated_arrivals")


class _Span:
    __slots__ = ("calls", "inclusive", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0


class Tracer:
    """In-memory span aggregator plus the patches that feed it.

    Use as a context manager: entering installs the wrappers, leaving
    restores every patched attribute.  :attr:`runs` collects the
    ``last_*_stats`` of every cluster run that closed while installed.
    """

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self.edges: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0]
        )
        self.runs: list[dict[str, object]] = []
        # Stack frames: [name, time covered by direct children].
        self._stack: list[list] = [["<root>", 0.0]]
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        self._active[name] -= 1
        parent = stack[-1]
        parent[1] += elapsed
        span = self.spans[name]
        span.calls += 1
        span.self_time += elapsed - frame[1]
        if not self._active[name]:
            span.inclusive += elapsed
        edge = self.edges[(parent[0], name)]
        edge[0] += 1
        edge[1] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, perf_counter() - start)

        return traced

    def iterate(self, name: str, items: Iterable) -> Iterator:
        """An iterator over ``items`` whose every ``next`` is a span."""
        return _TracedIterator(self, name, iter(items))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, Callable] = {}
        for name, module, attr in _FUNCTION_SPANS:
            fn = getattr(module, attr)
            # One wrapper per function, shared by all its import sites.
            wrapped = wrappers.setdefault(id(fn), self.wrap(name, fn))
            self._patch(module, attr, wrapped)
        for name, cls, attr in _METHOD_SPANS:
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        reduce = queueing_cluster.ClusterMetrics.__dict__["reduce"]
        self._patch(
            queueing_cluster.ClusterMetrics,
            "reduce",
            classmethod(self.wrap("system.window", reduce.__func__)),
        )
        for attr in _ARRIVAL_FACTORIES:
            factory = getattr(queueing_experiment, attr)
            self._patch(
                queueing_experiment, attr, self._traced_factory(factory)
            )
        handle = queueing_cluster.ClusterRunHandle
        self._patch(handle, "close", self._recording_close(handle.close))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _traced_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self.iterate("arrivals.next", factory(*args, **kwargs))

        return build

    def _recording_close(self, close: Callable) -> Callable:
        runs = self.runs
        # close() is idempotent and often called twice per run.
        seen: weakref.WeakSet = weakref.WeakSet()

        @functools.wraps(close)
        def recording_close(handle) -> None:
            close(handle)
            if handle not in seen:
                seen.add(handle)
                cluster = handle.cluster
                runs.append(
                    {
                        "engine": handle.engine,
                        "memo": cluster.last_memo_stats,
                        "compiled": cluster.last_engine_stats,
                        "faults": cluster.last_fault_stats,
                        "estimator": cluster.last_estimator_stats,
                    }
                )

        return recording_close

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def span_table(self) -> list[dict[str, object]]:
        """Aggregated spans, heaviest self time first."""
        return [
            {
                "span": name,
                "calls": span.calls,
                "inclusive_s": span.inclusive,
                "self_s": span.self_time,
            }
            for name, span in sorted(
                self.spans.items(), key=lambda item: -item[1].self_time
            )
        ]

    def edge_table(self) -> list[dict[str, object]]:
        """Aggregated (caller -> callee) edges, heaviest first."""
        return [
            {"caller": caller, "callee": callee, "calls": calls, "s": total}
            for (caller, callee), (calls, total) in sorted(
                self.edges.items(), key=lambda item: -item[1][1]
            )
        ]


class _TracedIterator:
    """Iterator adapter recording each ``next`` as a span."""

    __slots__ = ("_next", "_name", "_tracer")

    def __init__(self, tracer: Tracer, name: str, it: Iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._next = it.__next__

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        frame = tracer._enter(self._name)
        start = perf_counter()
        try:
            return self._next()
        finally:
            tracer._exit(frame, perf_counter() - start)
