"""Buffered metrics accumulation against a per-observation reference.

:class:`SystemMetrics` appends raw floats per observation and converts
them to fixed point in bulk.  :class:`ReferenceMetrics` below is the
accumulator it replaced, kept verbatim in spirit: every observation is
converted to its ``2**-1074`` fixed-point integer and added at once.
Integer addition is associative and distributive, so the two must agree
exactly — on ``to_state()`` and on the ``repr`` of every rendered
float — whatever the interleaving of observations, reads, state
snapshots, merges, equality checks and pickle round-trips.
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.queueing import system
from repro.queueing.system import SystemMetrics

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_FUZZ_EXAMPLES", "200"))

_SCALE_BITS = 1074


def _fixed(value: float) -> int:
    n, d = value.as_integer_ratio()
    return n << (_SCALE_BITS + 1 - d.bit_length())


def _unfixed(accumulated: int) -> float:
    return 0.0 if accumulated == 0 else accumulated / (1 << _SCALE_BITS)


class ReferenceMetrics:
    """Per-observation exact accumulation (the pre-buffering code)."""

    def __init__(self, coschedule_cap: int) -> None:
        self.measured = 0
        self.busy = 0
        self.empty = 0
        self.work = 0
        self.turnaround = 0
        self.coschedule: dict[tuple[str, ...], int] = {}
        self.overflow = 0
        self.completed = 0
        self.overflow_intervals = 0
        self.coschedule_cap = coschedule_cap

    def observe_interval(self, dt, running_types, jobs_in_system, work):
        if dt == 0.0:
            return
        fixed_dt = _fixed(dt)
        self.measured += fixed_dt
        self.busy += len(running_types) * fixed_dt
        if jobs_in_system == 0:
            self.empty += fixed_dt
        if work != 0.0:
            self.work += _fixed(work)
        if running_types:
            key = tuple(sorted(running_types))
            present = self.coschedule.get(key)
            if present is not None:
                self.coschedule[key] = present + fixed_dt
            elif len(self.coschedule) < self.coschedule_cap:
                self.coschedule[key] = fixed_dt
            else:
                self.overflow += fixed_dt
                self.overflow_intervals += 1

    def observe_completion(self, turnaround):
        self.completed += 1
        if turnaround != 0.0:
            self.turnaround += _fixed(turnaround)

    def merge(self, other: "ReferenceMetrics") -> "ReferenceMetrics":
        merged = ReferenceMetrics(
            max(self.coschedule_cap, other.coschedule_cap)
        )
        for name in ("measured", "busy", "empty", "work", "turnaround",
                     "overflow", "completed", "overflow_intervals"):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        split = dict(self.coschedule)
        for key, fixed_dt in other.coschedule.items():
            split[key] = split.get(key, 0) + fixed_dt
        merged.coschedule = split
        return merged

    def to_state(self) -> dict[str, object]:
        return {
            "measured": self.measured,
            "busy": self.busy,
            "empty": self.empty,
            "work": self.work,
            "turnaround": self.turnaround,
            "completed": self.completed,
            "coschedule": [
                [list(key), t] for key, t in self.coschedule.items()
            ],
            "overflow": self.overflow,
            "overflow_intervals": self.overflow_intervals,
            "coschedule_cap": self.coschedule_cap,
        }

    def to_jsonable(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "measured_time": _unfixed(self.measured),
            "busy_context_time": _unfixed(self.busy),
            "empty_time": _unfixed(self.empty),
            "work_done": _unfixed(self.work),
            "completed": self.completed,
            "turnaround_sum": _unfixed(self.turnaround),
            "time_by_coschedule": {
                key: _unfixed(t) for key, t in self.coschedule.items()
            },
        }
        if self.overflow or self.overflow_intervals:
            payload["overflow_time"] = _unfixed(self.overflow)
            payload["overflow_intervals"] = self.overflow_intervals
        return payload


def _pending_floats(metrics: SystemMetrics) -> int:
    lists = [
        *metrics._times.values(),
        *metrics._overflow_times.values(),
        metrics._empty_times,
        metrics._idle_times,
        metrics._work_items,
        metrics._turnarounds,
    ]
    return sum(len(values) for values in lists)


# Values span subnormals up to 1e300; ~3000 observations of at most
# four contexts keep every exact sum renderable as a finite float.
_value = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=0.0, max_value=1e-300),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.0]),
)
_types = st.lists(st.sampled_from("ABCD"), max_size=4).map(tuple)
_interval = st.tuples(
    st.just("interval"), _value, _types, st.integers(0, 5), _value
)
_completion = st.tuples(st.just("completion"), _value)
_READS = (
    "measured_time", "busy_context_time", "empty_time", "work_done",
    "turnaround_sum", "time_by_coschedule", "overflow_time",
    "mean_turnaround", "utilization", "empty_fraction", "throughput",
)
_observation = st.one_of(_interval, _interval, _completion)
_action = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(_READS)),
    st.tuples(st.just("fractions")),
    st.tuples(st.just("state")),
    st.tuples(st.just("eq")),
    st.tuples(st.just("pickle")),
    st.tuples(
        st.just("merge"), st.integers(1, 4), st.booleans(),
        st.lists(_interval, max_size=6),
    ),
)
# A block repeats its observations up to 25 times and runs its actions
# after one of the repetitions, so runs go far past the flush constant
# between reads without drawing thousands of independent values.
_block = st.tuples(
    st.lists(_observation, max_size=40),
    st.integers(1, 25),
    st.integers(0, 24),
    st.lists(_action, max_size=3),
)
_program = st.lists(_block, min_size=1, max_size=4)


def _read(metrics, name):
    try:
        if name == "fractions":
            return repr(metrics.coschedule_fractions())
        return repr(getattr(metrics, name))
    except SimulationError as exc:
        return f"SimulationError: {exc}"


def _feed(metrics, ref, intervals):
    for _, dt, running, jobs, work in intervals:
        metrics.observe_interval(dt, running, jobs, work)
        ref.observe_interval(dt, running, jobs, work)


def _act(metrics, ref, actions):
    """Apply reads, snapshots, merges and round-trips; both sides."""
    for op in actions:
        kind = op[0]
        if kind in ("read", "fractions"):
            name = op[-1]
            expected = _read(SystemMetrics.from_state(ref.to_state()), name)
            assert _read(metrics, name) == expected
        elif kind == "state":
            assert metrics.to_state() == ref.to_state()
        elif kind == "eq":
            twin = SystemMetrics.from_state(ref.to_state())
            assert metrics == twin and twin == metrics
        elif kind == "pickle":
            metrics = pickle.loads(pickle.dumps(metrics))
        else:
            _, side_cap, left, intervals = op
            side = SystemMetrics(coschedule_cap=side_cap)
            side_ref = ReferenceMetrics(side_cap)
            _feed(side, side_ref, intervals)
            if left:
                metrics, ref = metrics.merge(side), ref.merge(side_ref)
            else:
                metrics, ref = side.merge(metrics), side_ref.merge(ref)
    return metrics, ref


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(cap=st.integers(1, 4), program=_program)
def test_buffered_accumulation_matches_reference(cap, program):
    metrics = SystemMetrics(coschedule_cap=cap)
    ref = ReferenceMetrics(cap)
    bound = 2 * system._FLUSH_EVERY
    for observations, repeats, at, actions in program:
        for repeat in range(repeats):
            for op in observations:
                if op[0] == "interval":
                    _feed(metrics, ref, [op])
                else:
                    metrics.observe_completion(op[1])
                    ref.observe_completion(op[1])
                assert _pending_floats(metrics) <= bound
            if repeat == min(at, repeats - 1):
                metrics, ref = _act(metrics, ref, actions)
    assert metrics.to_state() == ref.to_state()
    assert repr(metrics.to_jsonable()) == repr(ref.to_jsonable())
    assert metrics.overflow_intervals == ref.overflow_intervals
    assert metrics.completed == ref.completed


def test_long_run_flushes_and_matches_reference():
    """Thousands of observations, non-canonical tuples, overflow."""
    metrics = SystemMetrics(coschedule_cap=3)
    ref = ReferenceMetrics(3)
    running = [("B", "A"), ("A", "B"), ("C",), (), ("D", "C"), ("A",)]
    for i in range(5 * system._FLUSH_EVERY + 7):
        dt = (i % 97 + 1) * 1.000000001e-3
        work = 0.0 if i % 5 == 0 else dt * 1.5
        step = running[i % len(running)]
        _feed(metrics, ref, [(None, dt, step, i % 5, work)])
        metrics.observe_completion(dt * 7.0)
        ref.observe_completion(dt * 7.0)
        assert _pending_floats(metrics) <= 2 * system._FLUSH_EVERY
    assert metrics.overflow_intervals > 0
    assert metrics.to_state() == ref.to_state()
    assert repr(metrics.to_jsonable()) == repr(ref.to_jsonable())


def test_pickle_carries_no_pending_floats():
    metrics = SystemMetrics()
    metrics.observe_interval(0.5, ("B", "A"), 2, 0.25)
    metrics.observe_completion(3.0)
    clone = pickle.loads(pickle.dumps(metrics))
    assert _pending_floats(clone) == 0
    assert clone == metrics
    assert clone.to_state() == metrics.to_state()
    # The clone keeps accumulating like the original.
    for m in (metrics, clone):
        m.observe_interval(1.0, ("A", "B"), 2, 1.0)
    assert clone.to_state() == metrics.to_state()


@pytest.mark.parametrize("cap", [1, 2])
def test_key_admission_follows_observation_order(cap):
    """The cap admits keys in first-seen order, as before buffering."""
    metrics = SystemMetrics(coschedule_cap=cap)
    ref = ReferenceMetrics(cap)
    steps = [("C",), ("B", "A"), ("A",), ("A", "B"), ("C",), ("D",)]
    _feed(metrics, ref, [(None, 1.0, s, 1, 0.0) for s in steps])
    assert list(metrics.time_by_coschedule) == list(ref.coschedule)
    assert metrics.to_state() == ref.to_state()
