"""Count-vector compiled engine: the production event loop.

``engine="compiled"`` (the default of
:meth:`~repro.queueing.cluster.Cluster.run`) re-expresses per-machine
state as **dense type-count vectors** keyed by the run's
:class:`~repro.microarch.codec.TypeCodec` and drives the run through a
specialized event loop:

* **count vectors** — each machine maintains ``counts[type_id]``
  incrementally at admission/completion, so the probe key of a
  scheduling decision (the capped per-type count tuple) is an O(types)
  scan with no sorting, no ``Counter``, and no per-job pass;
* **event fusion** — consecutive events that leave a machine's count
  vector (and therefore its rates) unchanged are fused: zero-length
  syncs (batched same-instant arrivals, the admission that follows a
  completion in a saturated backlog) are skipped outright, because a
  zero-span sync is a *provable float no-op* on every metric and job
  field; and a departure the scheduler refills with the same type
  multiset reuses the previous coschedule's rate entry without
  touching the memo;
* **machine batching** — when several machines reschedule in one
  dirty-flush (run start, horizon clamp, simultaneous events), those
  with identical count vectors share one probe resolution and — when
  the decision is machine-independent (a unique MAXIT winner) — one
  resolved candidate template, instantiated per machine from its own
  job pools;
* **memoized probe scoring** — MAXIT/SRPT/MAXTP score the memoized
  candidate set of the machine's capped count vector
  (:meth:`~repro.queueing.ratememo.RunRateMemo.probe_build`): the
  formable rows of a rate-free candidate universe that survives every
  estimator epoch, rated lazily once per rate generation, with SRPT's
  per-type prefix sums performing the exact additions of the string
  path.

**Bit-identity is the contract.**  Every float written to a job, a
metric, or a scheduler observation is produced by the same operation,
on the same operands, in the same order as the legacy engine
(``Cluster._event_loop`` with the string-path ``select`` of each
scheduler, kept as the frozen reference); anything that cannot be
made exactly identical (e.g. summing a queue's affinity by
count×weight instead of per job) is deliberately *not* done.
``tests/property/test_differential_engines.py`` fuzzes random
(scenario, dispatcher, scheduler, cluster, horizon) configurations and
asserts bit-identical :class:`~repro.queueing.cluster.ClusterMetrics`,
scheduler pick sequences and fault stats across both engines, and
``tests/property/test_compiled_invariants.py`` pins the fusion and
batching layers in isolation via the ``fuse``/``batch`` debug knobs.

Policies probe the run's *policy* memo — the run memo itself, or on
``rate_source="estimated"`` runs the memo over the estimator's
published rates — while stepping always reads the true-rate run memo.
Schedulers the engine does not specialize (LJF, random, or any
scheduler probing a counterfactual rate source) fall back to their own
``select``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from repro.errors import SimulationError
from repro.microarch.codec import TypeCodec
from repro.queueing.cluster import LoopState, _stall_error
from repro.queueing.faults import (
    DEFAULT_STALL_EVENTS,
    EngineOps,
    FaultRuntime,
)
from repro.queueing.job import Job
from repro.queueing.ratememo import CandidateSet, ProbeCandidate, RunRateMemo
from repro.queueing.schedulers import (
    FcfsScheduler,
    MaxItScheduler,
    MaxTpScheduler,
    Scheduler,
    SrptScheduler,
    _age_key,
)

__all__ = [
    "CompiledEngineStats",
    "run_compiled",
]

_EPSILON = 1e-9
_INF = float("inf")

@dataclass
class CompiledEngineStats:
    """Observable counters of one compiled-engine run.

    Attributes:
        events: event-loop iterations consumed.
        reschedules: scheduling decisions made.
        fused_syncs: zero-span machine syncs skipped by event fusion.
        fused_entries: reschedules that reused the machine's previous
            coschedule rate entry (departure refilled with the same
            type multiset).
        batch_rounds: dirty-flushes that rescheduled >1 machine.
        batch_shared: reschedules served from a batch-shared template
            (identical count vectors inside one flush).
        max_batch: largest dirty-flush seen.
        probe_hits: probes answered from the memoized candidate sets.
        probe_builds: probes that had to build a candidate set.
    """

    events: int = 0
    reschedules: int = 0
    fused_syncs: int = 0
    fused_entries: int = 0
    batch_rounds: int = 0
    batch_shared: int = 0
    max_batch: int = 1
    probe_hits: int = 0
    probe_builds: int = 0

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly counters plus derived rates."""
        probes = self.probe_hits + self.probe_builds
        return {
            "events": self.events,
            "reschedules": self.reschedules,
            "fused_syncs": self.fused_syncs,
            "fused_entries": self.fused_entries,
            "batch_rounds": self.batch_rounds,
            "batch_shared": self.batch_shared,
            "max_batch": self.max_batch,
            "probe_hits": self.probe_hits,
            "probe_builds": self.probe_builds,
            "probe_hit_rate": (
                round(self.probe_hits / probes, 4) if probes else 0.0
            ),
        }


class _MState:
    """Per-machine compiled state riding alongside a ``Machine``.

    The ``Machine`` object stays authoritative for everything the rest
    of the system reads (dispatchers inspect ``machine.jobs``, metrics
    live on ``machine.metrics``); this wrapper only adds the derived
    hot-path state: the incremental count vector, the scheduler
    specialization, and the fusion bookkeeping.
    """

    __slots__ = (
        "machine",
        "counts",
        "kind",
        "observe",
        "zero_obs_safe",
        "rate_observer",
        "age_ok",
        "last_codes_key",
        "probe_cache",
        "maxtp_targets",
        "deficit",
    )

    def __init__(self, machine) -> None:
        self.machine = machine
        #: counts[type_id] = jobs of that type on the machine.
        self.counts: list[int] = []
        #: specialized selector tag; None = generic ``select`` fallback.
        self.kind: str | None = None
        #: the scheduler's observe hook, or None when it is the base
        #: no-op (so steady-state syncs skip a useless call).
        self.observe: Callable | None = None
        #: True when calling observe with dt=0 is a provable no-op
        #: (base hook or MAXTP's ``+= dt``), enabling zero-span fusion.
        self.zero_obs_safe: bool = True
        #: the machine's rate-estimation feed (estimated-rate runs),
        #: or None.  Only ever called with span > 0, so zero-span
        #: fusion never needs it.
        self.rate_observer: Callable | None = None
        #: True while the job list is (arrival, id)-sorted, letting
        #: age-ordered picks slice queue pools without sorting.
        self.age_ok: bool = True
        #: sorted code tuple of the current coschedule (refill fusion).
        self.last_codes_key: tuple[int, ...] | None = None
        #: (size, capped counts_key, CandidateSet) of the last probe,
        #: kept while no count crosses the contexts cap (deep-backlog
        #: steady state: the capped key cannot have changed).
        self.probe_cache: tuple | None = None
        #: MAXTP only: (the ``target_fractions`` dict they were built
        #: from, [(names, count_items, codes_key)] in its order) —
        #: rebuilt whenever a re-optimization installs a new dict.
        self.maxtp_targets: tuple[dict, list] | None = None
        #: MAXTP only: the scheduler's bound ``_deficit``.
        self.deficit: Callable | None = None


def _prepare_state(
    machines: Sequence, probe_memo: RunRateMemo
) -> list[_MState]:
    """Classify every machine's scheduler and build its state."""
    states = []
    for machine in machines:
        ms = _MState(machine)
        # Seed the count vector from jobs already queued (a
        # checkpoint-restored machine); empty on a fresh run.
        counts = ms.counts
        for job in machine.jobs:
            code = job.type_code
            while code >= len(counts):
                counts.append(0)
            counts[code] += 1
        scheduler = machine.scheduler
        observe = type(scheduler).observe
        if observe is not Scheduler.observe:
            ms.observe = scheduler.observe
            ms.zero_obs_safe = observe is MaxTpScheduler.observe
        ms.rate_observer = machine.rate_observer
        # Specialize only schedulers probing *this run's* policy memo —
        # one probing a counterfactual source must keep doing exactly
        # that through its own ``select``.
        if scheduler.rates is probe_memo:
            kind = type(scheduler)
            if kind is MaxItScheduler:
                ms.kind = "maxit"
            elif kind is SrptScheduler:
                ms.kind = "srpt"
            elif kind is FcfsScheduler:
                ms.kind = "fcfs"
            elif kind is MaxTpScheduler:
                ms.kind = "maxtp"
                ms.deficit = scheduler._deficit
        states.append(ms)
    return states


def forget_probes(states: Sequence[_MState]) -> None:
    """Drop every machine's cached probe (the policy memo was cleared:
    its candidate sets carry stale rates)."""
    for ms in states:
        ms.probe_cache = None


def _coded_targets(
    codec: TypeCodec, fractions: dict[tuple[str, ...], float]
) -> list:
    """MAXTP's LP coschedules interned for containment checks, in
    ``fractions`` order (ids are mode-internal; tie-breaks stay
    name-based)."""
    return [
        (
            s,
            tuple((codec.encode(t), c) for t, c in Counter(s).items()),
            tuple(sorted(codec.encode(t) for t in s)),
        )
        for s in fractions
    ]


#: SRPT's pool order: shortest remaining work first, ties by job id.
_srpt_key = attrgetter("remaining", "job_id")


def _sorted_pool(pools: dict, by_code: dict, code: int) -> list[Job]:
    """Age-sorted pool cache for machines whose admission order was
    perturbed (out-of-order ids within the arrival epsilon)."""
    pool = pools.get(code)
    if pool is None:
        pool = sorted(by_code[code], key=_age_key)
        pools[code] = pool
    return pool


def run_compiled(
    memo: RunRateMemo,
    probe_memo: RunRateMemo,
    machines: Sequence,
    stream: Iterator[Job],
    *,
    warmup_time: float,
    horizon: float | None,
    stop_when_fewer_than: int | None,
    keep_in_system: int | None,
    max_events: int,
    stats: CompiledEngineStats,
    dispatcher,
    fuse: bool = True,
    batch: bool = True,
    pick_log: list | None = None,
    pause_at: float | None = None,
    resume: LoopState | None = None,
    states: list[_MState] | None = None,
    faults: FaultRuntime | None = None,
    stall_events: int = DEFAULT_STALL_EVENTS,
) -> LoopState | None:
    """The compiled event loop (semantics of ``Cluster._event_loop``).

    Mutates the machines' metrics in place, exactly as the legacy loop
    does; ``stats`` is filled in as the run progresses (so a raising
    run still reports its counters).  ``fuse`` and ``batch`` are debug
    knobs for the isolation property tests — disabling them must not
    change a single bit of any output.

    Segmentation mirrors ``Cluster._event_loop``: with ``pause_at``
    set, the loop stops between events once the next event would fall
    past it and returns the :class:`LoopState` to resume from
    (``resume=``); ``None`` means the run completed.  ``states`` lets a
    run handle keep the per-machine compiled states (count vectors,
    queue-order flags) alive across segments.

    ``memo`` holds the true rates every job steps at; ``probe_memo`` is
    the one policies decide on — ``memo`` itself, or the estimates'
    memo on ``rate_source="estimated"`` runs.
    """
    if states is None:
        states = _prepare_state(machines, probe_memo)
    n_machines = len(machines)
    all_ids = list(range(n_machines))
    codec = memo.codec
    probe_cached = probe_memo.probe_cached
    probe_build = probe_memo.probe_build
    compiled_entry = memo.compiled_entry
    heappush, heappop = heapq.heappush, heapq.heappop

    if resume is None:
        pending: Job | None = next(stream, None)
        clock = 0.0
        last_arrival = -1.0
        routed: int | None = None
        in_system = 0
        full_machines = 0
    else:
        pending = resume.pending
        clock = resume.clock
        last_arrival = resume.last_arrival
        routed = resume.routed
        in_system = resume.in_system
        full_machines = resume.full_machines
        if resume.age_ok is not None:
            # Queue-order flags are monotone (True -> False) within a
            # run; a cross-process restore re-applies them here.
            for ms, ok in zip(states, resume.age_ok):
                ms.age_ok = ok
    # Heap seeded from machines holding a valid selection — a no-op on
    # a fresh run, where every machine starts dirty and gets pushed by
    # the flush below.
    heap: list[tuple[float, int, int]] = []
    dirty_list: list[_MState] = []
    for ms in states:
        if ms.machine.dirty:
            dirty_list.append(ms)
        elif ms.machine.running:
            heappush(
                heap,
                (
                    ms.machine.last_sync + ms.machine.next_completion,
                    ms.machine.machine_id,
                    ms.machine.epoch,
                ),
            )
    # Stale lazy-deletion entries are compacted once they dominate, so
    # heap memory stays O(machines) over arbitrarily long runs (pop
    # order depends only on entry values, never on layout).
    compact_floor = max(64, 4 * n_machines)

    # ------------------------------------------------------------------
    # Inner helpers (closures: locals beat attribute lookups here).
    # ------------------------------------------------------------------
    def sync(ms: _MState, new_clock: float, span: float | None) -> None:
        machine = ms.machine
        last = machine.last_sync
        if fuse and new_clock == last and not span:
            # Zero-span fusion: progress(0.0), a <=0-measured interval,
            # and observe(cos, 0.0) are all exact float no-ops (MAXTP's
            # accumulators only ever hold non-negative values).  Fusing
            # is only valid when the span truly is zero: past clock 2^14
            # an event's exact dt can round below ulp(clock), so
            # new_clock == last with span > 0 — the interpreted loop
            # still progresses the running jobs by rate * dt there, and
            # skipping it would re-fire the completion forever.
            if not ms.zero_obs_safe:
                ms.observe(machine.coschedule, 0.0)
            stats.fused_syncs += 1
            return
        if span is None:
            span = new_clock - last
        work = 0.0
        rates = machine.rates_by_code
        for job in machine.running:
            step = rates[job.type_code] * span
            remaining = job.remaining - step
            job.remaining = remaining if remaining > 0.0 else 0.0
            work += step
        measured = new_clock - (last if last > warmup_time else warmup_time)
        if measured > 0.0:
            fraction = measured / span if span > 0.0 else 0.0
            machine.metrics.observe_interval(
                measured,
                machine.coschedule,
                len(machine.jobs),
                work * fraction,
            )
        if ms.observe is not None:
            ms.observe(machine.coschedule, span)
        if ms.rate_observer is not None and span > 0.0 and machine.coschedule:
            ms.rate_observer(machine.coschedule, span)
        machine.last_sync = new_clock

    def probe_for(
        ms: _MState, size: int
    ) -> tuple[tuple[tuple[int, int], ...], CandidateSet]:
        """Capped probe key from the count vector, and its candidates."""
        cached = ms.probe_cache
        if cached is not None and cached[0] == size:
            # No count crossed the cap since this was built, so the
            # capped key — and therefore the candidate set — is
            # byte-identical to rebuilding it.
            stats.probe_hits += 1
            return cached[1], cached[2]
        key_items = []
        for code, count in enumerate(ms.counts):
            if count:
                key_items.append(
                    (code, count if count < size else size)
                )
        counts_key = tuple(key_items)
        probe = probe_cached(counts_key, size)
        if probe is None:
            probe = probe_build(counts_key, size)
            stats.probe_builds += 1
        else:
            stats.probe_hits += 1
        ms.probe_cache = (size, counts_key, probe)
        return counts_key, probe

    def instantiate(
        ms: _MState, candidate: ProbeCandidate
    ) -> list[Job]:
        """The candidate's jobs, oldest-first per type (legacy order)."""
        by_code = ms.machine.jobs.by_code
        chosen: list[Job] = []
        if ms.age_ok:
            for code, count in candidate.count_items:
                chosen.extend(by_code[code][:count])
        else:
            pools: dict[int, list[Job]] = {}
            for code, count in candidate.count_items:
                chosen.extend(_sorted_pool(pools, by_code, code)[:count])
        return chosen

    def accumulate_age(
        ms: _MState,
        candidate: ProbeCandidate,
        pools: dict[int, list[Job]],
    ) -> float:
        by_code = ms.machine.jobs.by_code
        age = 0.0
        if ms.age_ok:
            for code, count in candidate.count_items:
                for job in by_code[code][:count]:
                    age += job.arrival_time
        else:
            for code, count in candidate.count_items:
                for job in _sorted_pool(pools, by_code, code)[:count]:
                    age += job.arrival_time
        return age

    def pick_maxit(
        ms: _MState, n_jobs: int, flush_cache: dict | None
    ) -> tuple[list[Job], tuple[int, ...]]:
        size = ms.machine.contexts
        if n_jobs < size:
            size = n_jobs
        counts_key, probe = probe_for(ms, size)
        best = None
        if flush_cache is None:
            group = probe.max_it_group
            if len(group) == 1:
                best = group[0]
        else:
            # Batched flush: machines with identical (capped) count
            # vectors share the resolved winner when it is machine-
            # independent (a unique MAXIT candidate needs no ages).
            cache_key = (counts_key, size)
            if cache_key in flush_cache:
                best = flush_cache[cache_key]
                if best is not None:
                    stats.batch_shared += 1
            else:
                group = probe.max_it_group
                if len(group) == 1:
                    best = group[0]
                # None is cached too: it records "winner is machine-
                # dependent (age tie)", sparing peers the group check.
                flush_cache[cache_key] = best
        if best is None:
            group = probe.max_it_group
            pools: dict[int, list[Job]] = {}
            best_age = None
            for candidate in group:
                age = accumulate_age(ms, candidate, pools)
                if best_age is None or age < best_age:
                    best_age = age
                    best = candidate
        return instantiate(ms, best), best.codes_key

    def pick_srpt(
        ms: _MState, n_jobs: int
    ) -> tuple[list[Job], tuple[int, ...]]:
        size = ms.machine.contexts
        if n_jobs < size:
            size = n_jobs
        counts_key, probe = probe_for(ms, size)
        feasible = probe.feasible
        if not feasible:
            raise SimulationError("no feasible coschedule (zero rates?)")
        by_code = ms.machine.jobs.by_code
        # No candidate takes more than ``size`` jobs of one type, so each
        # present type keeps only its ``size`` shortest jobs
        # (shortest-remaining-first) and their prefix sums — the exact
        # additions of the legacy ``sum(pool[:count])``.
        heads: dict[int, list[Job]] = {}
        prefixes: dict[int, list[float]] = {}
        for code, _ in counts_key:
            head = sorted(by_code[code], key=_srpt_key)[:size]
            prefix = [0.0]
            acc = 0.0
            for job in head:
                acc += job.remaining
                prefix.append(acc)
            heads[code] = head
            prefixes[code] = prefix

        def age_of(candidate: ProbeCandidate) -> float:
            age = 0.0
            for code, count in candidate.count_items:
                for job in heads[code][:count]:
                    age += job.arrival_time
            return age

        best = None
        best_total = None
        best_age = None
        for candidate in feasible:
            total_remaining = 0.0
            for code, count, rate in candidate.srpt_items:
                total_remaining += prefixes[code][count] / rate
            if best_total is None or total_remaining < best_total:
                best = candidate
                best_total = total_remaining
                best_age = None
            elif total_remaining == best_total:
                if best_age is None:
                    best_age = age_of(best)
                age = age_of(candidate)
                if age < best_age:
                    best = candidate
                    best_age = age
        chosen: list[Job] = []
        for code, count in best.count_items:
            chosen.extend(heads[code][:count])
        return chosen, best.codes_key

    def pick_maxtp(
        ms: _MState, n_jobs: int, flush_cache: dict | None
    ) -> tuple[list[Job], tuple[int, ...]]:
        machine = ms.machine
        if n_jobs >= machine.contexts:
            fractions = machine.scheduler.target_fractions
            targets = ms.maxtp_targets
            if targets is None or targets[0] is not fractions:
                targets = (fractions, _coded_targets(codec, fractions))
                ms.maxtp_targets = targets
            counts = ms.counts
            n_counts = len(counts)
            formable = []
            for target in targets[1]:
                for code, count in target[1]:
                    if code >= n_counts or counts[code] < count:
                        break
                else:
                    formable.append(target)
            if formable:
                deficit = ms.deficit
                best = max(
                    formable,
                    key=lambda pair: (
                        deficit(pair[0]),
                        fractions[pair[0]],
                        pair[0],
                    ),
                )
                by_code = machine.jobs.by_code
                chosen: list[Job] = []
                if ms.age_ok:
                    for code, count in best[1]:
                        chosen.extend(by_code[code][:count])
                else:
                    pools: dict[int, list[Job]] = {}
                    for code, count in best[1]:
                        chosen.extend(
                            _sorted_pool(pools, by_code, code)[:count]
                        )
                return chosen, best[2]
        return pick_maxit(ms, n_jobs, flush_cache)

    def reschedule(
        ms: _MState, clock: float, flush_cache: dict | None
    ) -> None:
        machine = ms.machine
        jobs = machine.jobs
        n_jobs = len(jobs)
        stats.reschedules += 1
        if n_jobs == 0:
            running: list[Job] = []
            codes_key: tuple[int, ...] = ()
        else:
            kind = ms.kind
            if kind == "maxit":
                running, codes_key = pick_maxit(ms, n_jobs, flush_cache)
            elif kind == "srpt":
                running, codes_key = pick_srpt(ms, n_jobs)
            elif kind == "maxtp":
                running, codes_key = pick_maxtp(ms, n_jobs, flush_cache)
            elif kind == "fcfs":
                contexts = machine.contexts
                if ms.age_ok:
                    running = jobs[:contexts]
                else:
                    running = sorted(jobs, key=_age_key)[:contexts]
                codes_key = tuple(
                    sorted(job.type_code for job in running)
                )
            else:
                # Generic fallback: the scheduler's own select, with
                # the legacy validation (a custom scheduler can
                # misbehave; the specialized picks cannot).
                scheduler = machine.scheduler
                running = scheduler.select(jobs, clock)
                if len(running) > scheduler.contexts:
                    raise SimulationError(
                        f"{scheduler.name} selected {len(running)} jobs "
                        f"for {scheduler.contexts} contexts"
                    )
                ids = {job.job_id for job in running}
                if len(ids) != len(running):
                    raise SimulationError(
                        f"{scheduler.name} selected a job twice"
                    )
                codes = []
                for job in running:
                    code = job.type_code
                    if code is None:
                        code = codec.encode(job.job_type)
                        job.type_code = code
                    codes.append(code)
                codes.sort()
                codes_key = tuple(codes)
        if fuse and codes_key == ms.last_codes_key:
            # Refill fusion: the departure was replaced by the same
            # type multiset, so the coschedule entry (names, per-job
            # rates, flat rate array) is unchanged — skip the memo.
            # Degrade edges invalidate ``last_codes_key`` (see the
            # fault ops below), so a fused reuse never carries a stale
            # speed scaling.
            stats.fused_entries += 1
            rates_by_code = machine.rates_by_code
        else:
            entry = compiled_entry(codes_key)
            machine.coschedule = entry.names
            # DEGRADED machines step at a scaled rate; decisions keep
            # probing the memo's nominal rates (same split as the
            # legacy engine).  Fresh copies — memo entries are
            # shared and must never be mutated.
            speed = machine.speed
            if speed == 1.0:
                machine.job_rates = entry.per_job
                rates_by_code = entry.rates_by_code
            else:
                machine.job_rates = {
                    k: v * speed for k, v in entry.per_job.items()
                }
                rates_by_code = [r * speed for r in entry.rates_by_code]
            machine.rates_by_code = rates_by_code
            ms.last_codes_key = codes_key
        next_completion = _INF
        for job in running:
            rate = rates_by_code[job.type_code]
            if rate <= 0.0:
                raise SimulationError(
                    f"job {job.job_id} ({job.job_type}) has zero rate "
                    "in its coschedule"
                )
            remaining = job.remaining / rate
            if remaining < next_completion:
                next_completion = remaining
        machine.running = running
        machine.next_completion = next_completion
        machine.dirty = False
        machine.epoch += 1
        if pick_log is not None:
            pick_log.append(
                (
                    machine.machine_id,
                    tuple(job.job_id for job in running),
                )
            )

    def retire(ms: _MState, when: float) -> None:
        nonlocal in_system, full_machines
        machine = ms.machine
        finished = [
            job for job in machine.running if job.remaining <= 1e-12
        ]
        if finished:
            was_full = (
                keep_in_system is not None
                and len(machine.jobs) >= keep_in_system
            )
            metrics = machine.metrics
            counts = ms.counts
            contexts = machine.contexts
            for job in finished:
                job.completion_time = when
                if when >= warmup_time:
                    metrics.observe_completion(when - job.arrival_time)
                code = job.type_code
                remaining_count = counts[code] - 1
                counts[code] = remaining_count
                if remaining_count < contexts:
                    # The capped count for this type changed (or the
                    # type drained) — the cached probe key is stale.
                    ms.probe_cache = None
            jobs = machine.jobs
            if len(finished) == 1:
                # Common case: one departure.  Identity-scan removal
                # beats rebuilding the whole backlog list (and the
                # dataclass __eq__ a plain ``list.remove`` would run).
                job = finished[0]
                for i, queued in enumerate(jobs):
                    if queued is job:
                        del jobs[i]
                        break
                pool = jobs.by_code[job.type_code]
                for i, queued in enumerate(pool):
                    if queued is job:
                        del pool[i]
                        break
            else:
                done_ids = {job.job_id for job in finished}
                jobs.remove_ids(
                    done_ids, {job.type_code for job in finished}
                )
            in_system -= len(finished)
            if was_full and len(machine.jobs) < keep_in_system:
                full_machines -= 1
        if not machine.dirty:
            machine.dirty = True
            dirty_list.append(ms)

    def admit(ms: _MState, job: Job) -> None:
        nonlocal in_system, full_machines
        machine = ms.machine
        jobs = machine.jobs
        if ms.age_ok and jobs:
            last = jobs[-1]
            if (job.arrival_time, job.job_id) < (
                last.arrival_time,
                last.job_id,
            ):
                ms.age_ok = False
        machine.admit(job)
        code = job.type_code
        counts = ms.counts
        while code >= len(counts):
            counts.append(0)
        grown_count = counts[code] + 1
        counts[code] = grown_count
        if grown_count <= machine.contexts:
            # The capped count for this type grew — stale probe key.
            ms.probe_cache = None
        in_system += 1
        if keep_in_system is not None and len(jobs) >= keep_in_system:
            full_machines += 1
        if not machine.dirty:
            machine.dirty = True
            dirty_list.append(ms)

    def route(job: Job) -> int:
        """Validated dispatch decision among machines with room."""
        if keep_in_system is None:
            eligible = all_ids
        else:
            eligible = [
                i
                for i in all_ids
                if len(machines[i].jobs) < keep_in_system
            ]
        target = dispatcher.route(job, machines, eligible, clock)
        if not 0 <= target < n_machines or (
            keep_in_system is not None
            and len(machines[target].jobs) >= keep_in_system
        ):
            raise SimulationError(
                f"{dispatcher.name} routed to invalid machine {target}"
            )
        return target

    def has_room(index: int) -> bool:
        return (
            keep_in_system is None
            or len(machines[index].jobs) < keep_in_system
        )

    fault_ops: EngineOps | None = None
    if faults is not None:
        # The runtime is engine-agnostic; these ops are the compiled
        # loop's twin of the interpreted loop's closures.  Same events,
        # same order, same RNG stream — only the bookkeeping differs.
        def _fault_sync(mid: int, at: float) -> None:
            sync(states[mid], at, None)

        def _fault_dirty(mid: int) -> None:
            machine = machines[mid]
            if not machine.dirty:
                machine.dirty = True
                dirty_list.append(states[mid])

        def _fault_clear(mid: int) -> None:
            ms = states[mid]
            queue = ms.machine.jobs
            del queue[:]
            if queue.by_code is not None:
                queue.by_code = {}
            counts = ms.counts
            for i in range(len(counts)):
                counts[i] = 0
            # An empty queue is trivially age-sorted again; the probe
            # key and the refill-fusion anchor are both stale.
            ms.age_ok = True
            ms.probe_cache = None
            ms.last_codes_key = None

        def _fault_speed(mid: int) -> None:
            # Invalidate refill fusion: the machine's cached rate
            # array carries the old speed scaling.
            states[mid].last_codes_key = None

        fault_ops = EngineOps(
            _fault_sync, _fault_dirty, _fault_clear, _fault_speed
        )

        def fault_route(job: Job) -> int:
            eligible = faults.dispatch_eligible()
            target = dispatcher.route(job, machines, eligible, clock)
            if (
                not 0 <= target < n_machines
                or not has_room(target)
                or not faults.routable(target)
            ):
                raise SimulationError(
                    f"{dispatcher.name} routed to invalid machine "
                    f"{target}"
                )
            return target

    # ------------------------------------------------------------------
    # The event loop proper (same event order as the legacy engine).
    # ------------------------------------------------------------------
    stalled = 0
    for _ in range(max_events):
        stats.events += 1
        if faults is not None:
            while True:
                retry_job = faults.due_retry(clock)
                if retry_job is None or not faults.any_dispatchable():
                    break
                target = fault_route(retry_job)
                faults.pop_retry()
                ms = states[target]
                sync(ms, clock, None)
                admit(ms, retry_job)
        while (
            pending is not None
            and pending.arrival_time <= clock + _EPSILON
        ):
            if (
                routed is not None
                and has_room(routed)
                and (faults is None or faults.routable(routed))
            ):
                target = routed
            elif faults is not None:
                if faults.any_dispatchable():
                    target = fault_route(pending)
                elif faults.should_shed(pending, clock):
                    faults.record_shed(pending)
                    routed = None
                    pending = next(stream, None)
                    continue
                else:
                    break
            elif full_machines < n_machines:
                target = route(pending)
            else:
                break
            routed = None
            if pending.arrival_time < last_arrival - _EPSILON:
                raise SimulationError("arrivals out of order")
            last_arrival = pending.arrival_time
            ms = states[target]
            sync(ms, clock, None)
            admit(ms, pending)
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
            flush_cache = (
                {} if batch and len(dirty_list) > 1 else None
            )
            if len(dirty_list) > 1:
                stats.batch_rounds += 1
                if len(dirty_list) > stats.max_batch:
                    stats.max_batch = len(dirty_list)
            for ms in dirty_list:
                reschedule(ms, clock, flush_cache)
                machine = ms.machine
                if machine.running:
                    heappush(
                        heap,
                        (
                            machine.last_sync + machine.next_completion,
                            machine.machine_id,
                            machine.epoch,
                        ),
                    )
            dirty_list = []

        if len(heap) > compact_floor:
            heap = [
                entry
                for entry in heap
                if machines[entry[1]].epoch == entry[2]
                and machines[entry[1]].running
            ]
            heapq.heapify(heap)

        next_state: _MState | None = None
        next_completion = _INF
        while heap:
            _, machine_id, epoch = heap[0]
            machine = machines[machine_id]
            if epoch != machine.epoch or not machine.running:
                heappop(heap)
                continue
            next_state = states[machine_id]
            next_completion = machine.next_completion + (
                machine.last_sync - clock
            )
            break

        if faults is None:
            can_admit = pending is not None and full_machines < n_machines
            fault_dt = _INF
        else:
            eligible_exists = faults.any_dispatchable()
            can_admit = pending is not None and eligible_exists
            fault_dt = faults.next_wake(clock, eligible_exists, pending)
        next_arrival = (
            pending.arrival_time - clock if can_admit else _INF
        )
        dt = (
            next_completion
            if next_completion < next_arrival
            else next_arrival
        )
        if fault_dt < dt:
            dt = fault_dt
        if horizon is not None:
            clamp = horizon - clock
            if clamp < dt:
                dt = clamp
        if dt == _INF:
            raise SimulationError(
                "no progress possible: idle with no arrivals"
            )
        if dt < 0.0:
            dt = 0.0
        new_clock = clock + dt

        # Shard boundary: stop between events (see the interpreted
        # loop's twin check) — after the no-progress guard, so a stuck
        # run raises exactly as it would unpaused.
        if pause_at is not None and new_clock > pause_at:
            return LoopState(
                clock=clock,
                last_arrival=last_arrival,
                in_system=in_system,
                full_machines=full_machines,
                routed=routed,
                pending=pending,
                age_ok=tuple(ms.age_ok for ms in states),
            )

        # Livelock guard (twin of the interpreted loop's).
        if dt > 0.0:
            stalled = 0
        else:
            stalled += 1
            if stalled >= stall_events:
                raise _stall_error(
                    clock, stalled, in_system, pending, machines, faults
                )

        if next_state is not None and next_completion <= dt:
            machine = next_state.machine
            sync(
                next_state,
                new_clock,
                dt if machine.last_sync == clock else None,
            )
            clock = new_clock
            retire(next_state, clock)
        elif can_admit and next_arrival <= dt:
            if faults is not None:
                if (
                    routed is None
                    or not has_room(routed)
                    or not faults.routable(routed)
                ):
                    routed = fault_route(pending)
            elif routed is None or not has_room(routed):
                routed = route(pending)
            target_state = states[routed]
            machine = target_state.machine
            sync(
                target_state,
                new_clock,
                dt if machine.last_sync == clock else None,
            )
            clock = new_clock
            retire(target_state, clock)
        elif faults is not None and fault_dt <= dt:
            # Fault event: the shared runtime applies (at most) one due
            # event through this loop's ops; see the interpreted twin.
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
            for ms in states:
                sync(
                    ms,
                    new_clock,
                    dt if ms.machine.last_sync == clock else None,
                )
            clock = new_clock
            for ms in states:
                retire(ms, clock)
    else:
        raise SimulationError(
            f"simulation exceeded {max_events} events without "
            "terminating"
        )

    for ms in states:
        sync(ms, clock, None)
    return None
