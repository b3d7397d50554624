"""System-level metrics accounting for the queueing experiments.

The paper argues (Section VI) that turnaround time alone is misleading
and that **processor utilization** and the **empty fraction** are the
honest indicators of a throughput improvement in a non-saturated
system.  :class:`SystemMetrics` accumulates all three, plus the achieved
throughput and per-coschedule time, over a simulation run.

**Streaming, mergeable, exact.**  A metrics object is a constant-memory
accumulator (its size is bounded by the number of *distinct
coschedules*, never by the number of jobs or events), and two metrics
objects covering disjoint measurement windows — or disjoint machine
partitions — reduce with :meth:`SystemMetrics.merge` to **bit-identical**
results whatever the grouping.  Plain float ``+=`` accumulation cannot
offer that (float addition is not associative), so every float
observation is accumulated *exactly*: a finite double is an integer
multiple of ``2**-1074``, so each contribution is converted to that
fixed-point integer (``as_integer_ratio`` is exact, the denominator is
a power of two) and summed with arbitrary-precision integer addition —
associative and commutative by construction.  Rendering back to a
float divides the integer sum by ``2**1074`` with CPython's
correctly-rounded ``int.__truediv__``, so the rendered value is the
correctly rounded exact sum of the contributions: the same float for
any split of the run into windows, including the no-split monolithic
run.

**Deferred, bounded conversion.**  The conversion is not paid per
event.  An observation appends its raw floats to pending lists — one
per coschedule key, plus lists for empty and idle time, work and
turnaround — and every ``_FLUSH_EVERY`` observations (and before
anything reads the object) a flush converts each pending float and adds
each list's integer total to its fields once (``busy`` gains
``len(key) * total``).  Integer addition is associative and
distributive, so every field ends at the integer per-observation
accumulation would give; pending floats never exceed
``2 * _FLUSH_EVERY``, so memory stays constant.

**Bounded coschedule split.**  ``time_by_coschedule`` holds at most
``coschedule_cap`` distinct keys; once the cap is reached, time for
*new* coschedules accumulates into a single overflow bucket
(``overflow_time``, with ``overflow_intervals`` counting the folded
observations).  The cap is a memory guard, not an expected regime: the
number of distinct coschedules is bounded by the type roster and the
context count (multisets of at most K types), so ordinary runs never
overflow.  :meth:`merge` takes the union of the two splits without
re-capping — dropping keys on merge would break associativity — so
window merges reproduce the monolithic split exactly whenever the
monolithic run itself stays under the cap.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.microarch.rates import canonical_coschedule

__all__ = ["SystemMetrics"]

#: Every finite double is an integer multiple of 2**-1074 (the
#: subnormal ulp), so this scale makes float -> fixed-point exact.
_SCALE_BITS = 1074
_SCALE = 1 << _SCALE_BITS
#: Observations buffered before a flush converts them; each leaves at
#: most two pending floats (interval time and work).
_FLUSH_EVERY = 256
_INF = float("inf")


def _fixed(value: float) -> int:
    """Exact fixed-point integer of a float at scale ``2**-1074``."""
    n, d = value.as_integer_ratio()
    # d is a power of two for every finite float, so the shift is exact.
    return n << (_SCALE_BITS + 1 - d.bit_length())


def _drain(values: list[float]) -> int:
    """Exact fixed-point sum of pending floats; empties the list.

    The same conversion as :func:`_fixed`, inlined: a call per float
    would cost more than the conversion.
    """
    total = 0
    for value in values:
        n, d = value.as_integer_ratio()
        total += n << (_SCALE_BITS + 1 - d.bit_length())
    values.clear()
    return total


def _unfixed(accumulated: int) -> float:
    """Correctly rounded float of a fixed-point integer sum.

    CPython's ``int / int`` is correctly rounded, so equal exact sums
    render to equal floats regardless of how they were grouped.
    """
    if accumulated == 0:
        return 0.0
    return accumulated / _SCALE


class SystemMetrics:
    """Accumulated observations of one simulation run (or window).

    All time integrals start after the configured warm-up.  The public
    surface mirrors the historical dataclass: ``measured_time``,
    ``busy_context_time``, ``empty_time``, ``work_done``,
    ``turnaround_sum`` and ``time_by_coschedule`` render the exact
    internal accumulators as floats; ``completed`` stays an int.

    Attributes:
        completed: number of jobs that finished inside the window.
        coschedule_cap: maximum distinct ``time_by_coschedule`` keys
            before new coschedules fold into the overflow bucket.
        overflow_intervals: observations folded into the bucket.
    """

    #: Default bound on distinct coschedule keys per metrics object.
    COSCHEDULE_CAP = 4096

    __slots__ = (
        "_measured",
        "_busy",
        "_empty",
        "_work",
        "_turnaround",
        "_coschedule",
        "_overflow",
        "_pending",
        "_times",
        "_routes",
        "_overflow_times",
        "_empty_times",
        "_idle_times",
        "_work_items",
        "_turnarounds",
        "completed",
        "overflow_intervals",
        "coschedule_cap",
    )

    def __init__(self, *, coschedule_cap: int | None = None) -> None:
        self._measured = 0
        self._busy = 0
        self._empty = 0
        self._work = 0
        self._turnaround = 0
        #: exact fixed-point time per running type-multiset.
        self._coschedule: dict[tuple[str, ...], int] = {}
        self._overflow = 0
        #: observations since the last flush.
        self._pending = 0
        #: pending interval times per admitted canonical key.
        self._times: dict[tuple[str, ...], list[float]] = {}
        #: running tuple as handed in (canonical or not) -> its list in
        #: ``_times``; overflowing keys are never cached here.
        self._routes: dict[tuple[str, ...], list[float]] = {}
        #: pending overflow times per coschedule width.
        self._overflow_times: dict[int, list[float]] = {}
        self._empty_times: list[float] = []
        self._idle_times: list[float] = []
        self._work_items: list[float] = []
        self._turnarounds: list[float] = []
        self.completed = 0
        self.overflow_intervals = 0
        self.coschedule_cap = (
            self.COSCHEDULE_CAP if coschedule_cap is None else coschedule_cap
        )

    # ------------------------------------------------------------------
    # Accumulation (the engine hot path): validate, append, count.
    # ------------------------------------------------------------------
    def observe_interval(
        self,
        dt: float,
        running_types: tuple[str, ...],
        jobs_in_system: int,
        work: float,
    ) -> None:
        """Account one inter-event interval."""
        if not 0.0 <= dt < _INF:
            raise SimulationError(f"negative or non-finite interval {dt}")
        if not 0.0 <= work < _INF:
            raise SimulationError(f"negative or non-finite work {work}")
        if dt == 0.0:
            return
        if running_types:
            times = self._routes.get(running_types)
            if times is None:
                times = self._route(running_types)
            times.append(dt)
            if not jobs_in_system:
                # Running jobs in an "empty" system: input the engines
                # never send, so it is converted at once, not buffered.
                self._empty += _fixed(dt)
        elif jobs_in_system:
            self._idle_times.append(dt)
        else:
            self._empty_times.append(dt)
        if work:
            self._work_items.append(work)
        pending = self._pending + 1
        if pending < _FLUSH_EVERY:
            self._pending = pending
        else:
            self._flush()

    def observe_completion(self, turnaround: float) -> None:
        """Account one job completion."""
        if not 0.0 <= turnaround < _INF:
            raise SimulationError(
                f"negative or non-finite turnaround {turnaround}"
            )
        self.completed += 1
        self._turnarounds.append(turnaround)
        pending = self._pending + 1
        if pending < _FLUSH_EVERY:
            self._pending = pending
        else:
            self._flush()

    def _route(self, running_types: tuple[str, ...]) -> list[float]:
        """Pending list of a running tuple not seen in this form yet.

        The cap is decided here, when a key is first seen, in
        observation order: an admitted key enters ``_coschedule`` now
        (so dict order is first-seen order) and the route is cached; a
        key past the cap returns its width's overflow list uncached, so
        every overflowing observation comes back here to be counted.
        """
        key = canonical_coschedule(running_types)
        times = self._times.get(key)
        if times is None:
            split = self._coschedule
            if key not in split and len(split) >= self.coschedule_cap:
                self.overflow_intervals += 1
                return self._overflow_times.setdefault(len(key), [])
            split.setdefault(key, 0)
            times = self._times[key] = []
        self._routes[running_types] = times
        return times

    def _flush(self) -> None:
        """Convert every pending float into the exact fields."""
        self._pending = 0
        measured = 0
        busy = 0
        split = self._coschedule
        for key, times in self._times.items():
            if times:
                total = _drain(times)
                split[key] += total
                measured += total
                busy += len(key) * total
        for width, times in self._overflow_times.items():
            if times:
                total = _drain(times)
                self._overflow += total
                measured += total
                busy += width * total
        empty = _drain(self._empty_times)
        self._empty += empty
        self._measured += measured + empty + _drain(self._idle_times)
        self._busy += busy
        self._work += _drain(self._work_items)
        self._turnaround += _drain(self._turnarounds)

    def _settle(self) -> "SystemMetrics":
        """Flush pending observations (every read starts here)."""
        if self._pending:
            self._flush()
        return self

    # ------------------------------------------------------------------
    # Merge algebra: associative, commutative, with SystemMetrics() as
    # the identity element (all pinned by property tests).
    # ------------------------------------------------------------------
    def merge(self, other: "SystemMetrics") -> "SystemMetrics":
        """Exact reduction of two disjoint windows (or partitions).

        Integer sums are associative, so any grouping of windows —
        including the monolithic no-split run — produces bit-identical
        rendered metrics.  The coschedule splits are unioned without
        re-capping (a merge never drops keys); the overflow buckets
        add.  The result uses the larger of the two caps for its own
        future observations.
        """
        self._settle()
        other._settle()
        merged = SystemMetrics(
            coschedule_cap=max(self.coschedule_cap, other.coschedule_cap)
        )
        merged._measured = self._measured + other._measured
        merged._busy = self._busy + other._busy
        merged._empty = self._empty + other._empty
        merged._work = self._work + other._work
        merged._turnaround = self._turnaround + other._turnaround
        merged.completed = self.completed + other.completed
        split = dict(self._coschedule)
        for key, fixed_dt in other._coschedule.items():
            present = split.get(key)
            split[key] = fixed_dt if present is None else present + fixed_dt
        merged._coschedule = split
        merged._overflow = self._overflow + other._overflow
        merged.overflow_intervals = (
            self.overflow_intervals + other.overflow_intervals
        )
        return merged

    # ------------------------------------------------------------------
    # Rendered views (the historical float surface).
    # ------------------------------------------------------------------
    @property
    def measured_time(self) -> float:
        """Total observed (post-warm-up) time."""
        return _unfixed(self._settle()._measured)

    @property
    def busy_context_time(self) -> float:
        """Integral of the number of running jobs over time."""
        return _unfixed(self._settle()._busy)

    @property
    def empty_time(self) -> float:
        """Time with no jobs in the system at all."""
        return _unfixed(self._settle()._empty)

    @property
    def work_done(self) -> float:
        """Weighted work executed."""
        return _unfixed(self._settle()._work)

    @property
    def turnaround_sum(self) -> float:
        """Sum of turnaround times of completed jobs."""
        return _unfixed(self._settle()._turnaround)

    @property
    def time_by_coschedule(self) -> dict[tuple[str, ...], float]:
        """Time spent per running type-multiset (rendered floats)."""
        return {
            key: _unfixed(t) for key, t in self._settle()._coschedule.items()
        }

    @property
    def overflow_time(self) -> float:
        """Time folded into the bounded-split overflow bucket."""
        return _unfixed(self._settle()._overflow)

    @property
    def mean_turnaround(self) -> float:
        """Average turnaround of jobs completed in the window."""
        if self.completed == 0:
            raise SimulationError("no completions observed")
        return self.turnaround_sum / self.completed

    @property
    def utilization(self) -> float:
        """Average number of busy contexts (the paper's utilization)."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return self.busy_context_time / measured

    @property
    def empty_fraction(self) -> float:
        """Fraction of time the system held no jobs at all."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return self.empty_time / measured

    @property
    def throughput(self) -> float:
        """Weighted work executed per unit time."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return self.work_done / measured

    def coschedule_fractions(self) -> dict[tuple[str, ...], float]:
        """Time fraction per coschedule over the measured window."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return {
            s: _unfixed(t) / measured for s, t in self._coschedule.items()
        }

    # ------------------------------------------------------------------
    # Serialization: results payloads and checkpoint round-trips.
    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict[str, object]:
        """The historical results payload: rendered floats per field.

        Shape-compatible with the pre-streaming dataclass (the golden
        and differential harnesses compare this payload); the overflow
        bucket appears only when it holds anything, so ordinary runs
        keep the exact historical key set.
        """
        self._settle()
        payload: dict[str, object] = {
            "measured_time": self.measured_time,
            "busy_context_time": self.busy_context_time,
            "empty_time": self.empty_time,
            "work_done": self.work_done,
            "completed": self.completed,
            "turnaround_sum": self.turnaround_sum,
            "time_by_coschedule": self.time_by_coschedule,
        }
        if self._overflow or self.overflow_intervals:
            payload["overflow_time"] = self.overflow_time
            payload["overflow_intervals"] = self.overflow_intervals
        return payload

    def to_state(self) -> dict[str, object]:
        """Exact internal state (arbitrary-precision ints, JSON-safe)."""
        self._settle()
        return {
            "measured": self._measured,
            "busy": self._busy,
            "empty": self._empty,
            "work": self._work,
            "turnaround": self._turnaround,
            "completed": self.completed,
            "coschedule": [
                [list(key), t] for key, t in self._coschedule.items()
            ],
            "overflow": self._overflow,
            "overflow_intervals": self.overflow_intervals,
            "coschedule_cap": self.coschedule_cap,
        }

    @classmethod
    def from_state(cls, state: dict[str, object]) -> "SystemMetrics":
        """Rebuild a metrics object from :meth:`to_state` (bit-exact)."""
        metrics = cls(coschedule_cap=int(state["coschedule_cap"]))
        metrics._measured = int(state["measured"])
        metrics._busy = int(state["busy"])
        metrics._empty = int(state["empty"])
        metrics._work = int(state["work"])
        metrics._turnaround = int(state["turnaround"])
        metrics.completed = int(state["completed"])
        metrics._coschedule = {
            canonical_coschedule(tuple(key)): int(t)
            for key, t in state["coschedule"]
        }
        metrics._overflow = int(state["overflow"])
        metrics.overflow_intervals = int(state["overflow_intervals"])
        return metrics

    # ------------------------------------------------------------------
    # Value semantics (the historical dataclass compared field-wise).
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemMetrics):
            return NotImplemented
        self._settle()
        other._settle()
        return (
            self._measured == other._measured
            and self._busy == other._busy
            and self._empty == other._empty
            and self._work == other._work
            and self._turnaround == other._turnaround
            and self.completed == other.completed
            and self._coschedule == other._coschedule
            and self._overflow == other._overflow
            and self.overflow_intervals == other.overflow_intervals
        )

    def __reduce__(self) -> tuple:
        """Pickle through :meth:`to_state`: flushed, no pending lists."""
        return (SystemMetrics.from_state, (self.to_state(),))

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            "SystemMetrics("
            f"measured_time={self.measured_time!r}, "
            f"busy_context_time={self.busy_context_time!r}, "
            f"empty_time={self.empty_time!r}, "
            f"work_done={self.work_done!r}, "
            f"completed={self.completed!r}, "
            f"turnaround_sum={self.turnaround_sum!r}, "
            f"coschedules={len(self._coschedule)})"
        )
