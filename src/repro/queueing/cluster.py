"""Cluster-scale event core: M machines, one heap-driven event loop.

The seed engine (`run_system`) simulated exactly one machine and
re-scanned the whole system at every event.  This module generalizes it
to an M-machine cluster while *removing* the per-event full rescan:

* :class:`Machine` — one machine's contexts (via its per-machine
  :class:`~repro.queueing.schedulers.Scheduler`), admitted jobs,
  current running set and rates, and its own
  :class:`~repro.queueing.system.SystemMetrics`.
* :class:`Cluster` — the event loop.  An indexed min-heap (lazy
  deletion keyed by a per-machine epoch) orders the machines'
  next-completion times; each event touches only the machine it
  belongs to.  Untouched machines stay *lazy*: their running sets,
  rates, and metrics intervals are brought up to date only when one of
  their own events (or the final flush) arrives, so an event costs
  O(log M + rescheduling one machine) instead of O(M) scheduler calls.
* :class:`~repro.queueing.ratememo.RunRateMemo` (re-exported here) —
  the per-run rate memo, hoisted out of the old engine loop and
  *shared*: identical machines share one coschedule space, so the memo
  serves every machine's stepping **and** every scheduler's candidate
  probing (MAXIT/SRPT evaluate many multisets per decision; previously
  those lookups bypassed the engine memo).  It wraps any
  :class:`~repro.microarch.rates.RateSource`, including a persisted
  :class:`~repro.microarch.rate_cache.CachedRateSource`.  Probing
  shares the memo only when a scheduler was built on *the same rate
  source object* the run uses — a scheduler probing a different source
  (a counterfactual table, say) keeps doing exactly that.

Two engines advance a run, bit-identical on every output (pinned by
the differential fuzz harness and the golden traces):

* ``"compiled"`` (the default, :data:`DEFAULT_ENGINE`) — the
  count-vector engine of :mod:`repro.queueing.compiled`, over a
  compiled memo whose per-run :class:`~repro.microarch.codec.TypeCodec`
  interns type names to dense int ids;
* ``"legacy"`` — :meth:`Cluster._event_loop` calling each scheduler's
  string-path ``select`` at every event: the small, frozen reference
  the compiled engine is checked against.

Single-machine runs are the M=1 special case:
:func:`repro.queueing.engine.run_system` is now a thin wrapper over
this core, and a property test pins its :class:`SystemMetrics`
bit-identical to the seed engine.  The arithmetic below is therefore
deliberately event-relative (``dt`` first, absolute times only for
heap ordering) so the M=1 path performs the exact floating-point
operations of the seed loop.

Dispatch — which machine an arriving job joins — is delegated to a
:class:`~repro.queueing.dispatch.Dispatcher` (round-robin,
join-shortest-queue, or the LP-guided symbiosis-affinity policy).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import EngineStallError, EstimationError, SimulationError
from repro.microarch.codec import TypeCodec
from repro.microarch.rates import RateSource
from repro.queueing.dispatch import Dispatcher
from repro.queueing.estimation import EstimationConfig, ThroughputEstimator
from repro.queueing.faults import (
    DEFAULT_STALL_EVENTS,
    EngineOps,
    FaultConfig,
    FaultRuntime,
)
from repro.queueing.job import Job
from repro.queueing.ratememo import RunRateMemo
from repro.queueing.schedulers import Scheduler
from repro.queueing.system import SystemMetrics

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "RunRateMemo",
    "JobQueue",
    "Machine",
    "ClusterMetrics",
    "Cluster",
    "ClusterRunHandle",
    "LoopState",
    "resolve_engine",
    "run_cluster",
]

_EPSILON = 1e-9
_INF = float("inf")

#: The event loops a run can use; see the module docstring.
ENGINES = ("legacy", "compiled")
#: The engine a run uses when the caller names none.
DEFAULT_ENGINE = "compiled"


def resolve_engine(engine: str | None) -> str:
    """The engine a run with ``engine=`` actually uses (``None`` →
    :data:`DEFAULT_ENGINE`); raises on an unknown name."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose {' or '.join(ENGINES)}"
        )
    return engine


def _encoded_stream(stream: Iterator[Job], codec: TypeCodec) -> Iterator[Job]:
    """Intern each arriving job's type id as it enters the run.

    The loop reads every job exactly once, so this is the single point
    where ``job.type_code`` becomes authoritative for the current
    run's codec — jobs recycled from an earlier run (whose codec
    assigned different ids) are re-coded here before anything can
    index with a stale id.
    """
    for job in stream:
        job.type_code = codec.encode(job.job_type)
        yield job


def _uncoded_stream(stream: Iterator[Job]) -> Iterator[Job]:
    """Legacy-mode twin of :func:`_encoded_stream`: clear stale ids so
    every downstream consumer takes its string path."""
    for job in stream:
        job.type_code = None
        yield job


class _CountingStream:
    """Iterator wrapper counting successful pulls.

    The count is what checkpoints persist: a resumed run rebuilds the
    (deterministic) arrival stream and skips exactly ``pulled`` jobs to
    land on the next un-pulled arrival.
    """

    __slots__ = ("_stream", "pulled")

    def __init__(self, stream: Iterator[Job]) -> None:
        self._stream = stream
        self.pulled = 0

    def __iter__(self) -> "_CountingStream":
        return self

    def __next__(self) -> Job:
        job = next(self._stream)
        self.pulled += 1
        return job


@dataclass
class LoopState:
    """Engine loop state between two events, captured at a pause.

    A pause always lands *between* events — after the clock advanced to
    the next event's time but before any of that event's effects — so
    resuming performs the exact operation sequence of the unpaused
    run.  ``pending`` is the pulled-but-unadmitted head of the arrival
    stream; ``routed`` its already-made dispatch decision (if any);
    ``age_ok`` the compiled engine's per-machine queue-order flags
    (``None`` on the legacy engine).
    """

    clock: float
    last_arrival: float
    in_system: int
    full_machines: int
    routed: int | None
    pending: Job | None
    age_ok: tuple[bool, ...] | None = None


class JobQueue(list):
    """A machine's job list with an incremental per-type-code index.

    The compiled engine's picks need the queue grouped by type at every
    event; rebuilding that grouping is O(queue) per event and dominates
    long non-saturated queues.  With the index enabled (compiled runs),
    the grouping is maintained as a delta per admission/completion
    instead: ``by_code[type_id]`` lists the queued jobs of that type in
    admission order (pools may be left empty when a type drains).
    Legacy runs leave ``by_code`` as ``None``.
    """

    __slots__ = ("by_code",)

    def __init__(self) -> None:
        super().__init__()
        self.by_code: dict[int, list[Job]] | None = None

    def enable_index(self) -> None:
        """Start maintaining the per-type-code index.

        Any jobs already queued (a checkpoint-restored queue) seed the
        pools in list order, which is admission order — the exact
        grouping incremental maintenance would have produced.
        """
        index: dict[int, list[Job]] = {}
        for job in self:
            pool = index.get(job.type_code)
            if pool is None:
                index[job.type_code] = [job]
            else:
                pool.append(job)
        self.by_code = index

    def admit(self, job: Job) -> None:
        """Append an arriving job, keeping the index in sync."""
        self.append(job)
        index = self.by_code
        if index is not None:
            pool = index.get(job.type_code)
            if pool is None:
                index[job.type_code] = [job]
            else:
                pool.append(job)

    def remove_ids(self, done_ids: set[int], codes: set[int | None]) -> None:
        """Drop completed jobs, rebuilding only the affected pools."""
        self[:] = [job for job in self if job.job_id not in done_ids]
        index = self.by_code
        if index is not None:
            for code in codes:
                pool = index.get(code)
                if pool is not None:
                    index[code] = [
                        job for job in pool if job.job_id not in done_ids
                    ]


@dataclass
class Machine:
    """One machine of the cluster: scheduler, jobs, and lazy state.

    ``last_sync`` is the simulation time up to which this machine's
    jobs have been progressed and its metrics observed; between its own
    events the machine's coschedule (and hence every job's rate) is
    constant, so catching up is one interval, not one per cluster
    event.  ``next_completion`` is *relative to* ``last_sync`` — the
    event loop keeps absolute times only inside the heap.
    """

    machine_id: int
    scheduler: Scheduler
    jobs: JobQueue = field(default_factory=JobQueue)
    running: list[Job] = field(default_factory=list)
    coschedule: tuple[str, ...] = ()
    job_rates: dict[str, float] = field(default_factory=dict)
    #: Compiled-engine rate array (per-job rate indexed by type id);
    #: ``None`` on the legacy engine.
    rates_by_code: list[float] | None = None
    next_completion: float = _INF
    last_sync: float = 0.0
    metrics: SystemMetrics = field(default_factory=SystemMetrics)
    dirty: bool = True
    epoch: int = 0
    #: Estimated-rate runs install the estimator's observation feed
    #: here; called once per positive-span sync of a busy machine.
    rate_observer: Callable[[tuple[str, ...], float], None] | None = None
    #: Effective speed multiplier — 1.0 normally, the configured
    #: ``degraded_factor`` during a fault-layer DEGRADED episode.
    #: Applied by :meth:`reschedule` as a scale on every per-coschedule
    #: rate (fresh scaled copies; memo entries are never mutated).
    speed: float = 1.0

    def __post_init__(self) -> None:
        # Normalize whatever iterable the caller handed in: every
        # engine then takes JobQueue's incremental removal path, and
        # the O(queue)-per-completion plain-list rebuild is gone.
        if type(self.jobs) is not JobQueue:
            queue = JobQueue()
            queue.extend(self.jobs)
            self.jobs = queue

    @property
    def contexts(self) -> int:
        """Hardware contexts of this machine (from its scheduler)."""
        return self.scheduler.contexts

    def reschedule(self, memo: RunRateMemo, clock: float) -> None:
        """Re-select the running set and its rates (one machine only;
        the legacy engine's string path)."""
        scheduler = self.scheduler
        running = scheduler.select(self.jobs, clock) if self.jobs else []
        if len(running) > scheduler.contexts:
            raise SimulationError(
                f"{scheduler.name} selected {len(running)} jobs for "
                f"{scheduler.contexts} contexts"
            )
        ids = {job.job_id for job in running}
        if len(ids) != len(running):
            raise SimulationError(f"{scheduler.name} selected a job twice")

        coschedule = tuple(sorted(job.job_type for job in running))
        job_rates = memo.per_job_rates(coschedule)
        speed = self.speed
        if speed != 1.0:
            job_rates = {k: v * speed for k, v in job_rates.items()}
        next_completion = _INF
        for job in running:
            rate = job_rates[job.job_type]
            if rate <= 0.0:
                raise SimulationError(
                    f"job {job.job_id} ({job.job_type}) has zero rate in "
                    "its coschedule"
                )
            next_completion = min(next_completion, job.remaining / rate)
        self.running = running
        self.coschedule = coschedule
        self.job_rates = job_rates
        self.next_completion = next_completion
        self.dirty = False
        self.epoch += 1

    def sync(
        self,
        new_clock: float,
        *,
        span: float | None = None,
        warmup: float = 0.0,
    ) -> None:
        """Progress this machine's running jobs up to ``new_clock``.

        ``span`` is the elapsed time; when the caller knows the exact
        event step (``dt``) it passes it so the M=1 path reproduces the
        seed engine's arithmetic bit for bit — otherwise the span is
        the clock difference since the machine's last sync (the lazy
        catch-up of an untouched machine).
        """
        if span is None:
            span = new_clock - self.last_sync
        work = 0.0
        for job in self.running:
            step = self.job_rates[job.job_type] * span
            job.progress(step)
            work += step

        measured = new_clock - max(self.last_sync, warmup)
        if measured > 0.0:
            fraction = measured / span if span > 0.0 else 0.0
            self.metrics.observe_interval(
                measured, self.coschedule, len(self.jobs), work * fraction
            )
        self.scheduler.observe(self.coschedule, span)
        observer = self.rate_observer
        if observer is not None and span > 0.0 and self.coschedule:
            observer(self.coschedule, span)
        self.last_sync = new_clock

    def admit(self, job: Job) -> None:
        """Add an arriving job to the queue (index kept in sync)."""
        self.jobs.admit(job)

    def complete_finished(self, clock: float, warmup: float) -> int:
        """Retire running jobs whose work is done; returns the count.

        Retired jobs leave the machine entirely: their turnaround is
        folded into the streaming metrics here and nothing retains the
        Job object afterwards, so a run's footprint is bounded by the
        jobs *in* the system, never by the jobs it has completed.
        """
        finished = [job for job in self.running if job.done]
        for job in finished:
            job.completion_time = clock
            if clock >= warmup:
                self.metrics.observe_completion(job.turnaround)
        if finished:
            self.jobs.remove_ids(
                {job.job_id for job in finished},
                {job.type_code for job in finished},
            )
        return len(finished)


@dataclass(frozen=True)
class ClusterMetrics:
    """Per-machine metrics of one cluster run, plus aggregates.

    Every machine's metrics cover the same measurement window (idle
    machines accumulate empty intervals, and the run flushes all
    machines to the final clock), so cluster-level rates are sums of
    per-machine rates.
    """

    per_machine: tuple[SystemMetrics, ...]

    @property
    def n_machines(self) -> int:
        """Number of machines in the cluster."""
        return len(self.per_machine)

    def merge(self, other: "ClusterMetrics") -> "ClusterMetrics":
        """Exact machine-wise reduction of two measurement windows.

        Inherits :meth:`SystemMetrics.merge`'s algebra: associative,
        commutative, bit-identical to the monolithic single-window run
        for any split of the same event sequence.
        """
        if self.n_machines != other.n_machines:
            raise SimulationError(
                "cannot merge windows over different machine counts: "
                f"{self.n_machines} vs {other.n_machines}"
            )
        return ClusterMetrics(per_machine=tuple(
            a.merge(b) for a, b in zip(self.per_machine, other.per_machine)
        ))

    @classmethod
    def reduce(cls, windows: Iterable["ClusterMetrics"]) -> "ClusterMetrics":
        """Merge any number of windows (order-independent result)."""
        merged: ClusterMetrics | None = None
        for window in windows:
            merged = window if merged is None else merged.merge(window)
        if merged is None:
            raise SimulationError("no metric windows to reduce")
        return merged

    def to_state(self) -> list[dict[str, object]]:
        """Exact per-machine accumulator states (checkpoint payload)."""
        return [m.to_state() for m in self.per_machine]

    @classmethod
    def from_state(cls, state: Sequence[dict]) -> "ClusterMetrics":
        """Rebuild from :meth:`to_state`, bit-exactly."""
        return cls(per_machine=tuple(
            SystemMetrics.from_state(s) for s in state
        ))

    def machine(self, index: int) -> SystemMetrics:
        """Metrics of one machine."""
        return self.per_machine[index]

    @property
    def completed(self) -> int:
        """Jobs completed inside the window, cluster-wide."""
        return sum(m.completed for m in self.per_machine)

    @property
    def work_done(self) -> float:
        """Weighted work executed inside the window, cluster-wide."""
        return sum(m.work_done for m in self.per_machine)

    @property
    def mean_turnaround(self) -> float:
        """Average turnaround over every completed job in the cluster."""
        if self.completed == 0:
            raise SimulationError("no completions observed")
        total = sum(m.turnaround_sum for m in self.per_machine)
        return total / self.completed

    @property
    def throughput(self) -> float:
        """Cluster throughput: sum of per-machine work rates (WIPC)."""
        return sum(m.throughput for m in self.per_machine)

    @property
    def utilization(self) -> float:
        """Average busy contexts cluster-wide (sum over machines)."""
        return sum(m.utilization for m in self.per_machine)

    @property
    def empty_fraction(self) -> float:
        """Mean per-machine fraction of time with no jobs."""
        return sum(m.empty_fraction for m in self.per_machine) / max(
            self.n_machines, 1
        )


def _stall_error(
    clock: float,
    stalled: int,
    in_system: int,
    pending: Job | None,
    machines: Sequence[Machine],
    faults: "FaultRuntime | None",
) -> EngineStallError:
    """Livelock diagnostics shared by both event loops."""
    head = (
        f"job {pending.job_id} @ {pending.arrival_time!r}"
        if pending is not None
        else "none"
    )
    lines = [
        f"event loop stalled: {stalled} consecutive events with no "
        f"clock progress at t={clock!r} "
        f"(in_system={in_system}, pending={head})"
    ]
    for machine in machines[:8]:
        state = (
            faults.state[machine.machine_id]
            if faults is not None
            else "up"
        )
        lines.append(
            f"  machine {machine.machine_id}: state={state} "
            f"jobs={len(machine.jobs)} running={len(machine.running)} "
            f"next_completion={machine.next_completion!r} "
            f"last_sync={machine.last_sync!r} dirty={machine.dirty}"
        )
    if len(machines) > 8:
        lines.append(f"  ... {len(machines) - 8} more machines")
    if faults is not None:
        lines.append(
            f"  faults: events={len(faults.events)} "
            f"retries={len(faults.retries)} stats={faults.stats.as_dict()}"
        )
    return EngineStallError("\n".join(lines))


class Cluster:
    """M identical-hardware machines behind one dispatch policy.

    Args:
        rates: per-coschedule execution rates (shared by all machines —
            identical machines share one coschedule space, so one
            per-run memo serves the whole cluster).
        schedulers: one per machine; each machine packs its own
            coschedules with its own scheduler instance.
        dispatcher: routes each arriving job to a machine.
    """

    def __init__(
        self,
        rates: RateSource,
        schedulers: Sequence[Scheduler],
        dispatcher: Dispatcher,
    ) -> None:
        if not schedulers:
            raise SimulationError("a cluster needs at least one machine")
        self.rates = rates
        self.schedulers = list(schedulers)
        self.dispatcher = dispatcher
        #: Hit/miss/size counters of the last run's memo (see
        #: :meth:`RunRateMemo.stats_dict`); ``None`` before any run.
        self.last_memo_stats: dict[str, object] | None = None
        #: Compiled-engine counters of the last run (see
        #: :meth:`repro.queueing.compiled.CompiledEngineStats.as_dict`);
        #: ``None`` before any run and after legacy runs.
        self.last_engine_stats: dict[str, object] | None = None
        #: Estimator summary of the last run (see
        #: :meth:`repro.queueing.estimation.ThroughputEstimator.stats_dict`);
        #: ``None`` before any run and after oracle runs.
        self.last_estimator_stats: dict[str, object] | None = None
        #: Fault-layer summary of the last run (see
        #: :meth:`repro.queueing.faults.FaultRuntime.stats_dict`);
        #: ``None`` before any run and after runs without ``faults=``.
        self.last_fault_stats: dict[str, object] | None = None

    @property
    def n_machines(self) -> int:
        """Number of machines."""
        return len(self.schedulers)

    def run(
        self,
        arrivals: Iterable[Job],
        *,
        warmup_time: float = 0.0,
        horizon: float | None = None,
        stop_when_fewer_than: int | None = None,
        keep_in_system: int | None = None,
        max_events: int = 5_000_000,
        engine: str | None = None,
        engine_options: dict[str, bool] | None = None,
        pick_log: list | None = None,
        rate_source: str = "oracle",
        estimation: EstimationConfig | None = None,
        faults: FaultConfig | None = None,
        stall_events: int = DEFAULT_STALL_EVENTS,
    ) -> ClusterMetrics:
        """Run the cluster to completion and return per-machine metrics.

        Args:
            arrivals: jobs in non-decreasing arrival order (one global
                stream; the dispatcher splits it across machines).
            warmup_time: observations before this time are discarded.
            horizon: optional hard stop time.
            stop_when_fewer_than: stop once the whole cluster holds
                fewer jobs than this (and the stream is exhausted) —
                cuts the drain tail of saturation runs.
            keep_in_system: per-machine cap on concurrently admitted
                jobs (a bounded backlog).  A due arrival waits outside
                until its dispatch target has room; if every machine is
                full, the stream stalls until a completion.
            max_events: safety bound on processed events.
            engine: which event loop advances the run, ``"compiled"``
                (``None`` → :data:`DEFAULT_ENGINE`) or ``"legacy"``.
                Both are bit-identical (pinned by the differential fuzz
                harness in ``tests/property/test_differential_engines.py``):

                * ``"compiled"`` — the count-vector engine
                  (:mod:`repro.queueing.compiled`): dense per-machine
                  type counts, event fusion, machine batching, and
                  memoized probe scoring;
                * ``"legacy"`` — the string path, each scheduler's own
                  ``select`` at every event: the frozen reference the
                  compiled engine is checked against.
            engine_options: compiled-engine debug knobs (``{"fuse":
                False}`` / ``{"batch": False}``) used by the isolation
                property tests; either knob off must not change a bit
                of any output.
            pick_log: optional list; every engine appends one
                ``(machine_id, (job_id, ...))`` entry per scheduling
                decision, in decision order — the pick-sequence trace
                the differential harness compares across engines.
            rate_source: what the *policies* (schedulers and the
                dispatcher) see — job stepping always uses the true
                rates.  ``"oracle"`` is today's behavior; with
                ``"estimated"`` every policy decision reads a
                :class:`~repro.queueing.estimation.ThroughputEstimator`
                fed by the run's own observed progress.  With zero
                noise and the warm ``"oracle"`` prior, estimated runs
                are bit-identical to oracle runs (pinned by the
                differential harness).
            estimation: estimator knobs for ``rate_source="estimated"``
                (:class:`~repro.queueing.estimation.EstimationConfig`;
                ``None`` → defaults).
            faults: failure/repair model
                (:class:`~repro.queueing.faults.FaultConfig`).  ``None``
                runs the historical fault-free loop; a config with no
                process enabled (``FaultConfig()``) takes the
                fault-aware path but is bit-identical to ``None`` —
                pinned by the golden and fuzz harnesses.  Fault stats
                land in :attr:`last_fault_stats`.
            stall_events: livelock guard — raise
                :class:`~repro.errors.EngineStallError` after this many
                consecutive events with no clock progress.
        """
        handle = self.start(
            arrivals,
            warmup_time=warmup_time,
            horizon=horizon,
            stop_when_fewer_than=stop_when_fewer_than,
            keep_in_system=keep_in_system,
            max_events=max_events,
            engine=engine,
            engine_options=engine_options,
            pick_log=pick_log,
            rate_source=rate_source,
            estimation=estimation,
            faults=faults,
            stall_events=stall_events,
        )
        try:
            handle.advance()
        finally:
            handle.close()
        return handle.result()

    def start(
        self,
        arrivals: Iterable[Job],
        *,
        warmup_time: float = 0.0,
        horizon: float | None = None,
        stop_when_fewer_than: int | None = None,
        keep_in_system: int | None = None,
        max_events: int = 5_000_000,
        engine: str | None = None,
        engine_options: dict[str, bool] | None = None,
        pick_log: list | None = None,
        rate_source: str = "oracle",
        estimation: EstimationConfig | None = None,
        faults: FaultConfig | None = None,
        stall_events: int = DEFAULT_STALL_EVENTS,
    ) -> "ClusterRunHandle":
        """Begin a pausable run; same knobs as :meth:`run`.

        Returns a :class:`ClusterRunHandle` whose
        :meth:`~ClusterRunHandle.advance` processes events up to a
        pause time per call.  Any segmentation performs the exact
        operation sequence of the single-call :meth:`run` — the
        scale-out contract the sharding and checkpoint layers build on.
        """
        return ClusterRunHandle(
            self,
            arrivals,
            warmup_time=warmup_time,
            horizon=horizon,
            stop_when_fewer_than=stop_when_fewer_than,
            keep_in_system=keep_in_system,
            max_events=max_events,
            engine=engine,
            engine_options=engine_options,
            pick_log=pick_log,
            rate_source=rate_source,
            estimation=estimation,
            faults=faults,
            stall_events=stall_events,
        )

    def _event_loop(
        self,
        memo: RunRateMemo,
        machines: list[Machine],
        stream: Iterator[Job],
        *,
        warmup_time: float,
        horizon: float | None,
        stop_when_fewer_than: int | None,
        keep_in_system: int | None,
        max_events: int,
        pick_log: list | None = None,
        pause_at: float | None = None,
        resume: LoopState | None = None,
        faults: FaultRuntime | None = None,
        stall_events: int = DEFAULT_STALL_EVENTS,
    ) -> LoopState | None:
        """The legacy engine's event loop: each scheduler's string-path
        ``select`` at every event.  It is the frozen reference that
        :func:`repro.queueing.compiled.run_compiled` reproduces bit for
        bit, and is kept small and readable for that role."""
        dispatcher = self.dispatcher
        if resume is None:
            pending: Job | None = next(stream, None)
            clock = 0.0
            last_arrival = -1.0
            # Dispatch decision made at an arrival event, consumed by
            # the admission at the top of the next iteration (so the
            # event and the admission agree on the target, and
            # round-robin's cursor advances exactly once per job).
            routed: int | None = None
            # Incrementally maintained cluster state, so an event costs
            # O(log M + rescheduling one machine) instead of O(M)
            # scans: jobs currently admitted, machines at their
            # admission cap, and the machines needing re-selection
            # before the next event.
            in_system = 0
            full_machines = 0
        else:
            pending = resume.pending
            clock = resume.clock
            last_arrival = resume.last_arrival
            routed = resume.routed
            in_system = resume.in_system
            full_machines = resume.full_machines
        # Indexed min-heap of absolute next-completion times; entries
        # are invalidated by bumping the machine's epoch (lazy
        # deletion).  Seeded from machines that already hold a valid
        # selection (a no-op on a fresh run, where every machine is
        # dirty); dirty machines are re-selected — and pushed — by the
        # flush below, so a paused run resumes with the same heap top.
        heap: list[tuple[float, int, int]] = []
        dirty_list: list[Machine] = []
        for machine in machines:
            if machine.dirty:
                dirty_list.append(machine)
            elif machine.running:
                heapq.heappush(
                    heap,
                    (
                        machine.last_sync + machine.next_completion,
                        machine.machine_id,
                        machine.epoch,
                    ),
                )
        # Stale lazy-deletion entries accumulate one per reschedule;
        # compact once they dominate so heap memory stays O(machines)
        # over arbitrarily long runs.  Rebuilding never changes pop
        # order: ordering depends only on entry values.
        compact_floor = max(64, 4 * len(machines))

        def has_room(machine: Machine) -> bool:
            return (
                keep_in_system is None
                or len(machine.jobs) < keep_in_system
            )

        def mark_dirty(machine: Machine) -> None:
            if not machine.dirty:
                machine.dirty = True
                dirty_list.append(machine)

        def route(job: Job) -> int:
            """Validated dispatch decision among machines with room."""
            eligible = [m.machine_id for m in machines if has_room(m)]
            target = dispatcher.route(job, machines, eligible, clock)
            if not 0 <= target < len(machines) or not has_room(
                machines[target]
            ):
                raise SimulationError(
                    f"{dispatcher.name} routed to invalid machine {target}"
                )
            return target

        def retire(machine: Machine, when: float) -> None:
            """Completion bookkeeping shared by every event branch."""
            nonlocal in_system, full_machines
            was_full = not has_room(machine)
            finished = machine.complete_finished(when, warmup_time)
            in_system -= finished
            if was_full and has_room(machine):
                full_machines -= 1
            # The machine's event always triggers re-selection (the
            # seed engine re-selected after every event, and MAXTP's
            # deficits and SRPT's remaining-time ordering shift even
            # without arrivals).
            mark_dirty(machine)

        fault_ops: EngineOps | None = None
        if faults is not None:
            # Engine-specific effects of a fault event, run through
            # this loop's own closures (the compiled loop builds its
            # twin from *its* closures — the runtime itself is shared).
            def _fault_sync(mid: int, at: float) -> None:
                machines[mid].sync(at, warmup=warmup_time)

            def _fault_dirty(mid: int) -> None:
                mark_dirty(machines[mid])

            def _fault_clear(mid: int) -> None:
                queue = machines[mid].jobs
                del queue[:]
                if queue.by_code is not None:
                    queue.by_code = {}

            def _fault_speed(mid: int) -> None:
                # The interpreted reschedule re-reads the memo entry
                # every time, so there is no cached scaled rate array
                # to invalidate here.
                pass

            fault_ops = EngineOps(
                _fault_sync, _fault_dirty, _fault_clear, _fault_speed
            )

            def fault_route(job: Job) -> int:
                """Dispatch among UP (and, as fallback, DEGRADED)
                machines with room — the fault-aware twin of route()."""
                eligible = faults.dispatch_eligible()
                target = dispatcher.route(job, machines, eligible, clock)
                if (
                    not 0 <= target < len(machines)
                    or not has_room(machines[target])
                    or not faults.routable(target)
                ):
                    raise SimulationError(
                        f"{dispatcher.name} routed to invalid machine "
                        f"{target}"
                    )
                return target

        stalled = 0
        for _ in range(max_events):
            # Fault-mode retries whose backoff elapsed re-enter ahead
            # of new arrivals at the same instant, through the same
            # dispatch layer (skipping DOWN/DRAINING machines).
            if faults is not None:
                while True:
                    retry_job = faults.due_retry(clock)
                    if retry_job is None or not faults.any_dispatchable():
                        break
                    target = fault_route(retry_job)
                    faults.pop_retry()
                    machine = machines[target]
                    machine.sync(clock, warmup=warmup_time)
                    machine.admit(retry_job)
                    in_system += 1
                    if not has_room(machine):
                        full_machines += 1
                    mark_dirty(machine)
            # Admit every arrival due now (handles batched time-zero
            # jobs).  The target machine catches up to the clock before
            # its queue changes, so its pending interval is observed
            # with the pre-arrival job count.
            while (
                pending is not None
                and pending.arrival_time <= clock + _EPSILON
            ):
                if (
                    routed is not None
                    and has_room(machines[routed])
                    and (faults is None or faults.routable(routed))
                ):
                    target = routed
                elif faults is not None:
                    if faults.any_dispatchable():
                        target = fault_route(pending)
                    elif faults.should_shed(pending, clock):
                        # Admission-control valve: no machine can take
                        # the job and it has waited out its shed
                        # deadline — drop it and move on.
                        faults.record_shed(pending)
                        routed = None
                        pending = next(stream, None)
                        continue
                    else:
                        break
                elif full_machines < len(machines):
                    target = route(pending)
                else:
                    break
                routed = None
                if pending.arrival_time < last_arrival - _EPSILON:
                    raise SimulationError("arrivals out of order")
                last_arrival = pending.arrival_time
                machine = machines[target]
                machine.sync(clock, warmup=warmup_time)
                machine.admit(pending)
                in_system += 1
                if not has_room(machine):
                    full_machines += 1
                mark_dirty(machine)
                pending = next(stream, None)

            if stop_when_fewer_than is not None and pending is None:
                in_flight = in_system + (
                    faults.retry_pending() if faults is not None else 0
                )
                if in_flight < stop_when_fewer_than:
                    break
            if (
                in_system == 0
                and pending is None
                and (faults is None or faults.idle())
            ):
                break
            if horizon is not None and clock >= horizon:
                break

            if dirty_list:
                for machine in dirty_list:
                    machine.reschedule(memo, clock)
                    if pick_log is not None:
                        pick_log.append(
                            (
                                machine.machine_id,
                                tuple(
                                    job.job_id for job in machine.running
                                ),
                            )
                        )
                    if machine.running:
                        heapq.heappush(
                            heap,
                            (
                                machine.last_sync + machine.next_completion,
                                machine.machine_id,
                                machine.epoch,
                            ),
                        )
                dirty_list.clear()

            if len(heap) > compact_floor:
                heap = [
                    entry
                    for entry in heap
                    if machines[entry[1]].epoch == entry[2]
                    and machines[entry[1]].running
                ]
                heapq.heapify(heap)

            # Earliest completion across machines (heap top, pruning
            # stale entries), expressed relative to the clock so the
            # M=1 path compares the exact quantities the seed did.
            next_machine: Machine | None = None
            next_completion = _INF
            while heap:
                _, machine_id, epoch = heap[0]
                machine = machines[machine_id]
                if epoch != machine.epoch or not machine.running:
                    heapq.heappop(heap)
                    continue
                next_machine = machine
                next_completion = machine.next_completion + (
                    machine.last_sync - clock
                )
                break

            # A due-but-not-admitted arrival (bounded backlog at
            # capacity) must not produce zero-length steps: the next
            # admission can only happen at a completion, so ignore it
            # for time stepping.
            if faults is None:
                can_admit = pending is not None and full_machines < len(
                    machines
                )
                fault_dt = _INF
            else:
                # Fault mode swaps the full_machines gate for a state-
                # aware one (DOWN/DRAINING machines are not targets)
                # and adds the fault layer's own instants: the next
                # fault event, a retry whose backoff elapsed (only
                # while someone could accept it), or a blocked
                # arrival's shed deadline.
                eligible_exists = faults.any_dispatchable()
                can_admit = pending is not None and eligible_exists
                fault_dt = faults.next_wake(clock, eligible_exists, pending)
            next_arrival = (
                pending.arrival_time - clock if can_admit else _INF
            )
            dt = min(next_completion, next_arrival, fault_dt)
            if horizon is not None:
                dt = min(dt, horizon - clock)
            if dt == _INF:
                raise SimulationError(
                    "no progress possible: idle with no arrivals"
                )
            dt = max(dt, 0.0)
            new_clock = clock + dt

            # Shard boundary: the next event falls past the pause time,
            # so stop *between* events — the clock stays at the last
            # processed event, no machine syncs, and the tail interval
            # is observed (identically) by the next segment.  Placed
            # after the no-progress check so a stuck run raises here
            # exactly as it would unpaused.
            if pause_at is not None and new_clock > pause_at:
                return LoopState(
                    clock=clock,
                    last_arrival=last_arrival,
                    in_system=in_system,
                    full_machines=full_machines,
                    routed=routed,
                    pending=pending,
                )

            # Livelock guard: many same-instant events in a row means
            # the loop is spinning, not simulating (the class of bug a
            # swallowed residual completion causes) — fail loudly with
            # diagnostics instead of burning the max_events budget.
            if dt > 0.0:
                stalled = 0
            else:
                stalled += 1
                if stalled >= stall_events:
                    raise _stall_error(
                        clock, stalled, in_system, pending, machines,
                        faults,
                    )

            if next_machine is not None and next_completion <= dt:
                # Completion event: only its machine advances eagerly.
                # A machine already current at the clock steps by the
                # exact dt (the M=1 bit-identity path); a lazy one
                # catches up over its whole pending interval.
                next_machine.sync(
                    new_clock,
                    span=dt if next_machine.last_sync == clock else None,
                    warmup=warmup_time,
                )
                clock = new_clock
                retire(next_machine, clock)
            elif can_admit and next_arrival <= dt:
                # Arrival event: route now (once per job), advance the
                # target to the arrival instant; the admission happens
                # at the top of the next iteration, as in the seed loop.
                if faults is not None:
                    if (
                        routed is None
                        or not has_room(machines[routed])
                        or not faults.routable(routed)
                    ):
                        routed = fault_route(pending)
                elif routed is None or not has_room(machines[routed]):
                    routed = route(pending)
                target_machine = machines[routed]
                target_machine.sync(
                    new_clock,
                    span=dt if target_machine.last_sync == clock else None,
                    warmup=warmup_time,
                )
                clock = new_clock
                retire(target_machine, clock)
            elif faults is not None and fault_dt <= dt:
                # Fault event: the runtime applies (at most) one due
                # event — crash, repair, drain, degrade edge, outage
                # fan-out — through this loop's own ops.  Retry/shed
                # instants need no event here: the next iteration's
                # admission phase handles them at the advanced clock.
                clock = new_clock
                removed = faults.on_wake(clock, fault_ops)
                if removed:
                    in_system -= removed
                    if keep_in_system is not None:
                        full_machines = sum(
                            1
                            for m in machines
                            if len(m.jobs) >= keep_in_system
                        )
            else:
                # Horizon clamp: one final step for every machine (the
                # loop exits at the top of the next iteration).
                for machine in machines:
                    machine.sync(
                        new_clock,
                        span=dt if machine.last_sync == clock else None,
                        warmup=warmup_time,
                    )
                clock = new_clock
                for machine in machines:
                    retire(machine, clock)
        else:
            raise SimulationError(
                f"simulation exceeded {max_events} events without "
                "terminating"
            )

        # Flush: lazy machines observe their tail interval (idle
        # machines' empty time included) up to the final clock.
        for machine in machines:
            machine.sync(clock, warmup=warmup_time)
        return None


class ClusterRunHandle:
    """One pausable run of a :class:`Cluster` (see :meth:`Cluster.start`).

    Owns the run's memo, machines, stream and scheduler/dispatcher
    bindings, and advances the run in segments.  Each :meth:`advance`
    stops *between* events, so any sequence of segments — including
    segments executed in a different process after a checkpoint
    restore — performs the exact operation sequence of one
    uninterrupted :meth:`Cluster.run`.  Sharded drivers swap per-shard
    metric windows out with :meth:`take_window`; the exact-merge
    algebra of :class:`~repro.queueing.system.SystemMetrics` makes the
    reduced windows bit-identical to the monolithic run's metrics.
    """

    def __init__(
        self,
        cluster: Cluster,
        arrivals: Iterable[Job],
        *,
        warmup_time: float = 0.0,
        horizon: float | None = None,
        stop_when_fewer_than: int | None = None,
        keep_in_system: int | None = None,
        max_events: int = 5_000_000,
        engine: str | None = None,
        engine_options: dict[str, bool] | None = None,
        pick_log: list | None = None,
        rate_source: str = "oracle",
        estimation: EstimationConfig | None = None,
        faults: FaultConfig | None = None,
        stall_events: int = DEFAULT_STALL_EVENTS,
    ) -> None:
        engine = resolve_engine(engine)
        if rate_source not in ("oracle", "estimated"):
            raise SimulationError(
                f"unknown rate_source {rate_source!r}; choose oracle "
                "or estimated"
            )
        if faults is not None and not isinstance(faults, FaultConfig):
            raise SimulationError(
                "faults must be a FaultConfig (or None), got "
                f"{type(faults).__name__}"
            )
        self.cluster = cluster
        self.engine = engine
        self.rate_source = rate_source
        compiled = engine == "compiled"
        self.memo = RunRateMemo(cluster.rates, compiled=compiled)
        #: Estimated-rate state: the estimator (fed by every machine's
        #: sync) and the policy-side memo over its published estimates.
        #: Both ``None`` on oracle runs.  Stepping always uses
        #: ``self.memo`` (true rates) — only decisions see estimates.
        self.estimator: ThroughputEstimator | None = None
        self.policy_memo: RunRateMemo | None = None
        if rate_source == "estimated":
            foreign = sorted(
                {
                    s.name
                    for s in cluster.schedulers
                    if s.rates is not cluster.rates
                }
            )
            if foreign:
                raise EstimationError(
                    "rate_source='estimated' needs every scheduler "
                    "probing the cluster's own rate source so it can "
                    f"be rebound to the estimates; {foreign} probe a "
                    "different source and would silently keep reading "
                    "oracle rates"
                )
            if cluster.dispatcher.uses_rates and not callable(
                getattr(cluster.dispatcher, "rebuild", None)
            ):
                raise EstimationError(
                    f"dispatcher {cluster.dispatcher.name!r} consumes "
                    "rates but has no rebuild() hook: its oracle-built "
                    "tables would never refresh from observations.  "
                    "Implement rebuild(rates) or run with "
                    "rate_source='oracle'"
                )
            self.estimator = ThroughputEstimator(self.memo, estimation)
            self.policy_memo = RunRateMemo(
                self.estimator, compiled=compiled, codec=self.memo.codec
            )
        self.machines = [
            Machine(machine_id=i, scheduler=s)
            for i, s in enumerate(cluster.schedulers)
        ]
        if compiled:
            for machine in self.machines:
                machine.jobs.enable_index()
        #: Raw-pull counter around the arrival stream; its ``pulled``
        #: count is what checkpoints persist to fast-forward a rebuilt
        #: stream on restore.
        self.counter = _CountingStream(iter(arrivals))
        self.stream = (
            _encoded_stream(self.counter, self.memo.codec)
            if compiled
            else _uncoded_stream(self.counter)
        )
        self.warmup_time = warmup_time
        self.horizon = horizon
        self.stop_when_fewer_than = stop_when_fewer_than
        self.keep_in_system = keep_in_system
        self.max_events = max_events
        self.pick_log = pick_log
        #: Loop state while paused between segments; ``None`` before
        #: the first :meth:`advance` and after completion.
        self.state: LoopState | None = None
        self.finished = False
        self._closed = False
        #: Compiled-engine per-machine count-vector states, kept across
        #: segments (their queue-order flags must survive a pause).
        self._cstates: list | None = None
        self._engine_options = engine_options or {}
        self.engine_stats = None
        if compiled:
            from repro.queueing.compiled import CompiledEngineStats

            self.engine_stats = CompiledEngineStats()
        # Hoist the per-run memo into every scheduler that probes the
        # run's own rate source, so candidate evaluation and stepping
        # share one memo (restored on close — schedulers outlive runs).
        # The rebind is identity-conditioned on purpose: a scheduler
        # deliberately built on a *different* rate source (e.g. a
        # counterfactual table) keeps probing its own source.
        self._rebound = [
            s for s in cluster.schedulers if s.rates is cluster.rates
        ]
        #: The memo policies decide on: the estimates' memo on
        #: estimated runs, the run memo otherwise.
        self.probe_memo = probe_source = (
            self.policy_memo if self.policy_memo is not None else self.memo
        )
        for scheduler in self._rebound:
            scheduler.bind_rates(probe_source)
        # Dispatchers with per-type state (the affinity policy) flatten
        # it onto the run's type ids; unbound on close so a later run —
        # whose codec may assign different ids — starts clean.
        self._bind_codec = getattr(cluster.dispatcher, "bind_codec", None)
        if self._bind_codec is not None and compiled:
            self._bind_codec(self.memo.codec)
        # Estimated mode: wire the observation feed into every machine,
        # start every offline-solved policy from the estimator's priors
        # (estimated runs must not inherit oracle-built tables), and
        # register the re-optimization round fired at each publish.
        self._dispatcher_rebuild = None
        if self.estimator is not None:
            for machine in self.machines:
                machine.rate_observer = self.estimator.observe_interval
            policy_memo = self.policy_memo
            rebound = self._rebound
            rebuild = (
                cluster.dispatcher.rebuild
                if cluster.dispatcher.uses_rates
                else None
            )
            self._dispatcher_rebuild = rebuild
            for scheduler in rebound:
                scheduler.reoptimize(policy_memo)
            if rebuild is not None:
                rebuild(policy_memo)

            def _reoptimize(_estimator: ThroughputEstimator) -> None:
                # New epoch published: every memoized estimate is
                # stale.  Flush the policy memo (codec survives, so
                # queue indexes stay valid) and re-solve the offline
                # policies against the fresh estimates.
                policy_memo.clear()
                for scheduler in rebound:
                    scheduler.reoptimize(policy_memo)
                if rebuild is not None:
                    rebuild(policy_memo)

            self.estimator.add_listener(_reoptimize)
        #: Fault layer: one runtime per run, shared verbatim by every
        #: engine (the loops call the same methods at the same points —
        #: that is what makes faulty runs bit-identical across engines).
        self.fault_config = faults
        self.stall_events = stall_events
        self.fault_rt: FaultRuntime | None = None
        if faults is not None:
            self.fault_rt = FaultRuntime(
                faults, self.machines, keep_in_system=keep_in_system
            )
            # Topology churn re-plans through the estimation hooks: on
            # any membership change (machine down or repaired) the
            # offline policies refresh over the run's probe source,
            # sharing its one LP solve per rate generation.  With
            # oracle rates the run memo never clears, so the run
            # solves once and every refresh is value-neutral (same
            # table, same solution); the code path is the one the
            # estimated mode uses, identically in every engine.
            rebound = self._rebound
            rebuild = (
                getattr(cluster.dispatcher, "rebuild", None)
                if cluster.dispatcher.uses_rates
                else None
            )

            def _membership_changed() -> None:
                for scheduler in rebound:
                    scheduler.reoptimize(probe_source)
                if rebuild is not None:
                    rebuild(probe_source)

            self.fault_rt.membership_hook = _membership_changed

    @property
    def jobs_pulled(self) -> int:
        """Jobs pulled from the arrival stream so far (incl. pending)."""
        return self.counter.pulled

    def advance(self, pause_at: float | None = None) -> bool:
        """Process events up to ``pause_at`` (or completion).

        Returns ``True`` once the run has completed.  On completion the
        handle closes itself (bindings restored, run stats recorded on
        the cluster), exactly as the single-shot :meth:`Cluster.run`
        does in its ``finally`` block — as it also does if a segment
        raises.
        """
        if self.finished:
            return True
        if self._closed:
            raise SimulationError("cluster run handle already closed")
        try:
            if self.engine == "compiled":
                from repro.queueing.compiled import (
                    _prepare_state,
                    forget_probes,
                    run_compiled,
                )

                if self._cstates is None:
                    self._cstates = states = _prepare_state(
                        self.machines, self.probe_memo
                    )
                    if self.estimator is not None:
                        # A published epoch flushes the policy memo,
                        # whose candidate sets the machines' cached
                        # probes still hold.
                        self.estimator.add_listener(
                            lambda _estimator: forget_probes(states)
                        )
                state = run_compiled(
                    self.memo,
                    self.probe_memo,
                    self.machines,
                    self.stream,
                    warmup_time=self.warmup_time,
                    horizon=self.horizon,
                    stop_when_fewer_than=self.stop_when_fewer_than,
                    keep_in_system=self.keep_in_system,
                    max_events=self.max_events,
                    stats=self.engine_stats,
                    dispatcher=self.cluster.dispatcher,
                    fuse=self._engine_options.get("fuse", True),
                    batch=self._engine_options.get("batch", True),
                    pick_log=self.pick_log,
                    pause_at=pause_at,
                    resume=self.state,
                    states=self._cstates,
                    faults=self.fault_rt,
                    stall_events=self.stall_events,
                )
            else:
                state = self.cluster._event_loop(
                    self.memo,
                    self.machines,
                    self.stream,
                    warmup_time=self.warmup_time,
                    horizon=self.horizon,
                    stop_when_fewer_than=self.stop_when_fewer_than,
                    keep_in_system=self.keep_in_system,
                    max_events=self.max_events,
                    pick_log=self.pick_log,
                    pause_at=pause_at,
                    resume=self.state,
                    faults=self.fault_rt,
                    stall_events=self.stall_events,
                )
        except BaseException:
            self.close()
            raise
        self.state = state
        if state is None:
            self.finished = True
            self.close()
        return self.finished

    def take_window(self) -> ClusterMetrics:
        """Detach the metrics window accumulated since the last take.

        Every machine gets a fresh accumulator for the next window;
        :meth:`ClusterMetrics.reduce` over all windows reproduces the
        monolithic run's metrics bit-identically.
        """
        window = ClusterMetrics(
            per_machine=tuple(m.metrics for m in self.machines)
        )
        for machine in self.machines:
            machine.metrics = SystemMetrics()
        return window

    def result(self) -> ClusterMetrics:
        """Metrics accumulated since the last window take (or start)."""
        return ClusterMetrics(
            per_machine=tuple(m.metrics for m in self.machines)
        )

    def close(self) -> None:
        """Restore bindings and record run stats (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for scheduler in self._rebound:
            scheduler.bind_rates(self.cluster.rates)
        if self._bind_codec is not None:
            self._bind_codec(None)
        if self.estimator is not None:
            # Restore the oracle-built policy state (schedulers and
            # dispatchers outlive runs): the re-solves are
            # deterministic in the true rates, so this reproduces the
            # constructed tables bit for bit.
            for machine in self.machines:
                machine.rate_observer = None
            for scheduler in self._rebound:
                scheduler.reoptimize(self.cluster.rates)
            if self._dispatcher_rebuild is not None:
                self._dispatcher_rebuild(self.cluster.rates)
        elif self.fault_rt is not None:
            # Oracle + faults: the membership hook re-solved policies
            # mid-run over the run memo; restore the tables built on
            # the cluster's own rate source (deterministic re-solve,
            # reproduces them bit for bit).
            for scheduler in self._rebound:
                scheduler.reoptimize(self.cluster.rates)
            rebuild = (
                getattr(self.cluster.dispatcher, "rebuild", None)
                if self.cluster.dispatcher.uses_rates
                else None
            )
            if rebuild is not None:
                rebuild(self.cluster.rates)
        # Recorded even when a segment raises: a diagnostic path
        # catching the error should see this run's counters, not the
        # previous run's.
        self.cluster.last_memo_stats = self.memo.stats_dict()
        self.cluster.last_engine_stats = (
            self.engine_stats.as_dict()
            if self.engine_stats is not None
            else None
        )
        self.cluster.last_estimator_stats = (
            self.estimator.stats_dict()
            if self.estimator is not None
            else None
        )
        if self.fault_rt is not None:
            now = max(m.last_sync for m in self.machines)
            self.cluster.last_fault_stats = self.fault_rt.stats_dict(now)
        else:
            self.cluster.last_fault_stats = None


def run_cluster(
    rates: RateSource,
    schedulers: Sequence[Scheduler],
    dispatcher: Dispatcher,
    arrivals: Iterable[Job],
    *,
    warmup_time: float = 0.0,
    horizon: float | None = None,
    stop_when_fewer_than: int | None = None,
    keep_in_system: int | None = None,
    max_events: int = 5_000_000,
    engine: str | None = None,
    engine_options: dict[str, bool] | None = None,
    pick_log: list | None = None,
    rate_source: str = "oracle",
    estimation: EstimationConfig | None = None,
    faults: FaultConfig | None = None,
    stall_events: int = DEFAULT_STALL_EVENTS,
) -> ClusterMetrics:
    """Build a :class:`Cluster` and run it once (convenience wrapper)."""
    cluster = Cluster(rates, schedulers, dispatcher)
    return cluster.run(
        arrivals,
        warmup_time=warmup_time,
        horizon=horizon,
        stop_when_fewer_than=stop_when_fewer_than,
        keep_in_system=keep_in_system,
        max_events=max_events,
        engine=engine,
        engine_options=engine_options,
        pick_log=pick_log,
        rate_source=rate_source,
        estimation=estimation,
        faults=faults,
        stall_events=stall_events,
    )
