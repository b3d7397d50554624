"""The benchmark's three workloads, built on the simulator's public API.

Each workload is a fixed-size batch of steps run serially in one
process (a closed loop with one client).  A workload provides:

* ``setup(seed, tracer)`` — rate tables, input generation and cluster
  construction; returns a fixture for one pass over the batch;
* ``steps(fixture)`` — zero-argument callables, one per step; the
  runner times each call and nothing else;
* ``check(fixture, output)`` — the per-step output check, run outside
  the step's timer;
* ``finish(fixture)`` — end-of-pass checks;
* ``reduced_check(seed)`` — a reduced instance at the same seed, run
  through the default public entry point and again on the frozen
  ``engine="legacy"`` reference, which must agree bit for bit.

Everything the program receives is generated from ``seed``.  Runs use
the public entry points at their default settings: no ``engine=``
argument, except on the legacy reference runs of the cross-check.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from repro.core.fcfs import fcfs_throughput
from repro.core import optimal as core_optimal
from repro.core.workload import Workload, all_workloads
from repro.experiments.common import sample_workloads
from repro.microarch.benchmarks import BENCHMARK_NAMES
from repro.microarch.config import smt_machine
from repro.microarch.rates import RateTable, infer_contexts
from repro.queueing.arrivals import poisson_arrivals, saturated_arrivals
from repro.queueing.cluster import (
    Cluster,
    ClusterMetrics,
    ClusterRunHandle,
    run_cluster,
)
from repro.queueing.dispatch import RoundRobinDispatcher, make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.experiment import (
    run_latency_experiment,
    run_saturation_experiment,
)
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.job import Job
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler
from repro.queueing.system import SystemMetrics
from repro.util.multiset import multisets

from tracer import Tracer


def state_digest(*parts: object) -> str:
    """Order-insensitive digest of exact simulated state.

    Metrics objects contribute their exact fixed-point accumulators
    (coschedule keys sorted), so two digests are equal only when the
    simulated outputs are bit-identical.
    """
    canonical = []
    for part in parts:
        if isinstance(part, SystemMetrics):
            state = part.to_state()
            state["coschedule"] = sorted(state["coschedule"])
            canonical.append(sorted(state.items()))
        elif isinstance(part, ClusterMetrics):
            canonical.append(
                [state_digest(m) for m in part.per_machine]
            )
        elif isinstance(part, dict):
            canonical.append(sorted(part.items()))
        else:
            canonical.append(part)
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def metrics_problems(
    metrics: SystemMetrics, contexts: int, where: str
) -> list[str]:
    """Invariants every metrics window satisfies."""
    problems = []
    values = {
        "measured_time": metrics.measured_time,
        "busy_context_time": metrics.busy_context_time,
        "empty_time": metrics.empty_time,
        "work_done": metrics.work_done,
        "turnaround_sum": metrics.turnaround_sum,
    }
    for name, value in values.items():
        if not math.isfinite(value) or value < 0.0:
            problems.append(f"{where}: {name} = {value!r}")
    if metrics.completed < 0:
        problems.append(f"{where}: completed = {metrics.completed}")
    if metrics.measured_time > 0.0:
        utilization = metrics.utilization
        if not utilization <= contexts * (1.0 + 1e-12):
            problems.append(
                f"{where}: utilization {utilization!r} > K={contexts}"
            )
    return problems


@dataclass
class StepCheck:
    """What the per-step check found."""

    completed: int
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass
class ReducedCheck:
    """Outcome of the reduced default-vs-legacy cross-check."""

    steps: int
    failed: int
    problems: list[str]
    engine: str
    compiled_stats: bool


def _observe_default(
    run: Callable[[], tuple[list[str], list[str]]]
) -> tuple[list[str], list[str], str, bool]:
    """Run ``run`` (the default public path) and report which engine
    the cluster handle actually used and whether the cluster recorded
    compiled-engine stats (``Cluster.last_engine_stats``)."""
    observer = Tracer()
    with observer:
        digests, problems = run()
    engines = sorted({r["engine"] for r in observer.runs})
    compiled = any(r["compiled"] is not None for r in observer.runs)
    return digests, problems, "+".join(engines) or "none", compiled


def _cross_check(
    default: tuple[list[str], list[str], str, bool],
    legacy: tuple[list[str], list[str]],
) -> ReducedCheck:
    """Compare the default-path and legacy runs step by step; a step
    fails on a digest mismatch or a failed output check."""
    digests, problems, engine, compiled = default
    legacy_digests, legacy_problems = legacy
    problems = problems + [f"legacy: {p}" for p in legacy_problems]
    steps = max(len(digests), len(legacy_digests))
    mismatched = [
        i
        for i in range(steps)
        if i >= len(digests)
        or i >= len(legacy_digests)
        or digests[i] != legacy_digests[i]
    ]
    problems += [f"reduced step {i}: default != legacy" for i in mismatched]
    return ReducedCheck(
        steps=steps,
        failed=max(len(mismatched), int(bool(problems))),
        problems=problems,
        engine=engine,
        compiled_stats=compiled,
    )


# ----------------------------------------------------------------------
# sec6_grid: the Figure-5 latency cells and Figure-6 saturation cells.
# ----------------------------------------------------------------------

SEC6_WORKLOADS = 4
#: The paper workloads are one fixed sample: their simulation cost
#: differs by tens of percent, so a seeded sample would measure the
#: draw.  ``--seed`` drives every arrival stream.
SEC6_SAMPLE_SEED = 0
SEC6_LOADS = (0.8, 0.9, 0.95)
SEC6_SCHEDULERS = ("fcfs", "maxit", "srpt", "maxtp")
SEC6_LATENCY_JOBS = 1_500
SEC6_SATURATION_JOBS = 750
SEC6_REDUCED_LATENCY_JOBS = 600
SEC6_REDUCED_SATURATION_JOBS = 300
SEC6_SATURATION_BACKLOG = 16  # run_saturation_experiment's default
SEC6_WARMUP_FRACTION = 0.1  # run_latency_experiment's default


@dataclass
class Sec6Fixture:
    seed: int
    rates: RateTable
    contexts: int
    workloads: list[Workload]
    #: (workload index, load) -> scheduler -> mean turnaround.
    turnaround: dict[tuple[int, float], dict[str, float]] = field(
        default_factory=dict
    )


class Sec6Grid:
    """One pass = every Figure-5 latency cell and Figure-6 saturation
    cell over a fixed sample of ``SEC6_WORKLOADS`` paper workloads."""

    name = "sec6_grid"
    #: The cold sweep fills the rate table once; a pass only reads it.
    reuse_fixture = True
    nominal_steps = (
        len(SEC6_LOADS) * SEC6_WORKLOADS * len(SEC6_SCHEDULERS)
        + SEC6_WORKLOADS * len(SEC6_SCHEDULERS)
    )

    def setup(self, seed: int, tracer: Tracer | None = None) -> Sec6Fixture:
        workloads = sample_workloads(
            all_workloads(BENCHMARK_NAMES, 4),
            SEC6_WORKLOADS,
            seed=SEC6_SAMPLE_SEED,
        )
        rates = RateTable(smt_machine())
        contexts = infer_contexts(rates)
        # The cold microarch sweep: every coschedule a cell can touch.
        for workload in workloads:
            for size in range(1, contexts + 1):
                for combo in multisets(sorted(workload.types), size):
                    rates.type_rates(combo)
        return Sec6Fixture(seed, rates, contexts, workloads)

    def discard(self, fixture: Sec6Fixture) -> None:
        pass

    @staticmethod
    def cell_seed(seed: int, w: int, column: int) -> int:
        """Arrival-stream seed of workload ``w``'s cells in ``column``
        (a load, or the saturation column after the loads).  The
        policies of a cell share one stream, as figure5 pairs them;
        the cells draw their own, so the cost of a pass averages over
        16 streams instead of following the 4 that one seed would give
        (the stream of a load is the stream of another load, scaled)."""
        return seed * 100 + 10 * w + column

    def steps(self, fx: Sec6Fixture) -> Iterator[Callable[[], object]]:
        for column, load in enumerate(SEC6_LOADS):
            for w in range(len(fx.workloads)):
                seed = self.cell_seed(fx.seed, w, column)
                for name in SEC6_SCHEDULERS:
                    yield partial(self._latency, fx, w, name, load, seed)
        for w in range(len(fx.workloads)):
            seed = self.cell_seed(fx.seed, w, len(SEC6_LOADS))
            for name in SEC6_SCHEDULERS:
                yield partial(self._saturation, fx, w, name, seed)

    @staticmethod
    def _latency(fx: Sec6Fixture, w: int, name: str, load: float, seed: int):
        return ("latency", w, name, load), run_latency_experiment(
            fx.rates,
            fx.workloads[w],
            name,
            load=load,
            n_jobs=SEC6_LATENCY_JOBS,
            seed=seed,
        )

    @staticmethod
    def _saturation(fx: Sec6Fixture, w: int, name: str, seed: int):
        return ("saturation", w, name, None), run_saturation_experiment(
            fx.rates,
            fx.workloads[w],
            name,
            n_jobs=SEC6_SATURATION_JOBS,
            seed=seed,
        )

    def check(self, fx: Sec6Fixture, output: object) -> StepCheck:
        (kind, w, name, load), result = output
        metrics = result.metrics
        where = f"{kind} {name} workload {w}" + (
            f" load {load}" if load is not None else ""
        )
        problems = metrics_problems(metrics, fx.contexts, where)
        done = metrics.completed
        if kind == "latency":
            # Completions before the warm-up end are not counted, so
            # only an upper bound is exact here.
            if not 0 < done <= SEC6_LATENCY_JOBS:
                problems.append(f"{where}: completed {done}")
            fx.turnaround.setdefault((w, load), {})[name] = (
                result.mean_turnaround
            )
        else:
            # The run stops once fewer than K jobs remain.
            low = SEC6_SATURATION_JOBS - fx.contexts + 1
            if not low <= done <= SEC6_SATURATION_JOBS:
                problems.append(f"{where}: completed {done} not in "
                                f"[{low}, {SEC6_SATURATION_JOBS}]")
        return StepCheck(done, state_digest(metrics), problems)

    def finish(self, fx: Sec6Fixture) -> tuple[str, list[str]]:
        return "", []

    def fidelity(self, fx: Sec6Fixture) -> dict[str, object]:
        """MAXTP vs FCFS mean turnaround at load 0.95 (paired per
        workload, as figure5 averages it)."""
        ratios = [
            cell["maxtp"] / cell["fcfs"]
            for (w, load), cell in sorted(fx.turnaround.items())
            if load == 0.95 and "maxtp" in cell and "fcfs" in cell
        ]
        ratio = sum(ratios) / len(ratios) if ratios else float("nan")
        return {
            "maxtp_vs_fcfs_turnaround_at_0.95": ratio,
            "turnaround_cut_pct": 100.0 * (1.0 - ratio),
            "paper_cut_pct": 23.0,
            "workloads": len(ratios),
            "gated": False,
            "note": (
                "reported, not gated; the SMT rate model is otherwise "
                "unvalidated against hardware"
            ),
        }

    def reduced_check(self, seed: int) -> ReducedCheck:
        fx = self.setup(seed)
        workload = fx.workloads[0]
        load = SEC6_LOADS[-1]
        k = fx.contexts

        def default() -> tuple[list[str], list[str]]:
            results = [
                run_latency_experiment(
                    fx.rates, workload, name, load=load,
                    n_jobs=SEC6_REDUCED_LATENCY_JOBS, seed=seed,
                ).metrics
                for name in SEC6_SCHEDULERS
            ] + [
                run_saturation_experiment(
                    fx.rates, workload, name,
                    n_jobs=SEC6_REDUCED_SATURATION_JOBS, seed=seed,
                ).metrics
                for name in SEC6_SCHEDULERS
            ]
            problems = []
            for i, metrics in enumerate(results):
                problems += metrics_problems(metrics, k, f"reduced step {i}")
            return [state_digest(m) for m in results], problems

        def legacy() -> tuple[list[str], list[str]]:
            # The same construction as run_latency_experiment and
            # run_saturation_experiment (same float expressions, so the
            # same bits), on the legacy engine.
            digests = []
            n = SEC6_REDUCED_LATENCY_JOBS
            rate = load * fcfs_throughput(
                fx.rates, workload, contexts=k
            ).throughput
            for name in SEC6_SCHEDULERS:
                metrics = run_cluster(
                    fx.rates,
                    [make_scheduler(name, fx.rates, k, workload=workload)],
                    RoundRobinDispatcher(),
                    poisson_arrivals(
                        workload.types, rate=rate, n_jobs=n, seed=seed
                    ),
                    warmup_time=SEC6_WARMUP_FRACTION * (n / rate),
                    engine="legacy",
                )
                digests.append(state_digest(metrics.per_machine[0]))
            for name in SEC6_SCHEDULERS:
                metrics = run_cluster(
                    fx.rates,
                    [make_scheduler(name, fx.rates, k, workload=workload)],
                    RoundRobinDispatcher(),
                    saturated_arrivals(
                        workload.types,
                        n_jobs=SEC6_REDUCED_SATURATION_JOBS,
                        seed=seed,
                    ),
                    stop_when_fewer_than=k,
                    keep_in_system=SEC6_SATURATION_BACKLOG,
                    engine="legacy",
                )
                digests.append(state_digest(metrics.per_machine[0]))
            return digests, []

        return _cross_check(_observe_default(default), legacy())


# ----------------------------------------------------------------------
# Windowed cluster workloads: Cluster.start -> advance(pause_at) /
# take_window(), one window per step.
# ----------------------------------------------------------------------


@dataclass
class ClusterFixture:
    cluster: Cluster
    handle: ClusterRunHandle
    contexts: int
    #: Window ends: the arrival time of every ``n_jobs // windows``-th
    #: job; a last window drains the run.
    boundaries: list[float]
    n_jobs: int
    pause_at: float | None = 0.0
    windows_taken: int = 0
    done: bool = False
    total: ClusterMetrics | None = None


class _WindowedCluster:
    """Shared stepping and checks of the windowed cluster workloads."""

    name = ""
    #: A pass consumes its cluster run, so each pass sets up anew.
    reuse_fixture = False
    n_jobs = 0
    reduced_jobs = 0
    #: Windows that end on an arrival; each covers as many arrivals, so
    #: bursty traffic does not leave some windows nearly empty.
    windows = 0

    @property
    def nominal_steps(self) -> int:
        return self.windows + 1

    def build(
        self, seed: int, n_jobs: int
    ) -> tuple[Cluster, Callable[[], Iterator[Job]], dict[str, object], int]:
        """(cluster, arrival stream factory, start kwargs, K)."""
        raise NotImplementedError

    def _fixture(
        self,
        seed: int,
        n_jobs: int,
        tracer: Tracer | None,
        engine: str | None = None,
    ) -> ClusterFixture:
        cluster, make_arrivals, options, k = self.build(seed, n_jobs)
        # Input generation: the window ends come from a second copy of
        # the stream, which the run itself pulls lazily.
        per_window = max(1, n_jobs // self.windows)
        boundaries = [
            job.arrival_time
            for i, job in enumerate(make_arrivals(), start=1)
            if i % per_window == 0
        ]
        arrivals = make_arrivals()
        if tracer is not None:
            arrivals = tracer.iterate("arrivals.next", arrivals)
        if engine is not None:
            options = dict(options, engine=engine)
        handle = cluster.start(arrivals, **options)
        return ClusterFixture(cluster, handle, k, boundaries, n_jobs)

    def setup(self, seed: int, tracer: Tracer | None = None) -> ClusterFixture:
        return self._fixture(seed, self.n_jobs, tracer)

    def discard(self, fx: ClusterFixture) -> None:
        fx.handle.close()

    def steps(self, fx: ClusterFixture) -> Iterator[Callable[[], object]]:
        handle = fx.handle

        def step() -> ClusterMetrics:
            taken = fx.windows_taken
            fx.pause_at = (
                fx.boundaries[taken] if taken < len(fx.boundaries) else None
            )
            fx.windows_taken += 1
            fx.done = handle.advance(pause_at=fx.pause_at)
            window = handle.take_window()
            fx.total = (
                window
                if fx.total is None
                else ClusterMetrics.reduce((fx.total, window))
            )
            return window

        while not fx.done:
            yield step

    def check(self, fx: ClusterFixture, window: ClusterMetrics) -> StepCheck:
        where = f"window {fx.windows_taken}"
        problems = []
        for i, metrics in enumerate(window.per_machine):
            problems += metrics_problems(
                metrics, fx.contexts, f"{where} machine {i}"
            )
        if not fx.total.completed <= fx.handle.jobs_pulled:
            problems.append(
                f"{where}: {fx.total.completed} completed > "
                f"{fx.handle.jobs_pulled} offered"
            )
        return StepCheck(window.completed, state_digest(window), problems)

    def finish(self, fx: ClusterFixture) -> tuple[str, list[str]]:
        """Conservation at the end of the run, plus a digest of the
        run's fault and estimator stats."""
        cluster = fx.cluster
        faults = cluster.last_fault_stats or {}
        abandoned = int(faults.get("abandoned", 0))
        shed = int(faults.get("shed", 0))
        offered = fx.handle.jobs_pulled
        completed = fx.total.completed if fx.total is not None else 0
        problems = []
        if offered != fx.n_jobs:
            problems.append(f"offered {offered} != batch {fx.n_jobs}")
        if completed + abandoned + shed != offered:
            problems.append(
                f"completed {completed} + abandoned {abandoned} + shed "
                f"{shed} != offered {offered}"
            )
        digest = state_digest(
            faults, cluster.last_estimator_stats or {}
        )
        return digest, problems

    def _reduced_run(
        self, seed: int, engine: str | None
    ) -> tuple[list[str], list[str]]:
        fx = self._fixture(seed, self.reduced_jobs, None, engine)
        digests, problems = [], []
        for step in self.steps(fx):
            checked = self.check(fx, step())
            digests.append(checked.digest)
            problems += checked.problems
        digest, end_problems = self.finish(fx)
        return digests + [digest], problems + end_problems

    def reduced_check(self, seed: int) -> ReducedCheck:
        return _cross_check(
            _observe_default(lambda: self._reduced_run(seed, None)),
            self._reduced_run(seed, "legacy"),
        )


class ClusterStream(_WindowedCluster):
    """64 machines, K=2, round-robin dispatch, MAXIT, Poisson arrivals
    at 0.9 jobs per machine per unit time on the synthetic table."""

    name = "cluster_stream"
    n_machines = 64
    contexts = 2
    rate_per_machine = 0.9
    n_jobs = 40_000
    reduced_jobs = 4_000
    windows = 100

    def build(self, seed: int, n_jobs: int):
        rates, types = synthetic_rates(n_types=5, contexts=self.contexts)
        cluster = Cluster(
            rates,
            [
                make_scheduler("maxit", rates, self.contexts)
                for _ in range(self.n_machines)
            ],
            RoundRobinDispatcher(),
        )
        rate = self.rate_per_machine * self.n_machines
        return (
            cluster,
            lambda: poisson_arrivals(
                types, rate=rate, n_jobs=n_jobs, seed=seed
            ),
            {},
            self.contexts,
        )


class ChaosEstimated(_WindowedCluster):
    """4 machines, K=4, bursty MMPP traffic, MAXTP behind the affinity
    dispatcher, estimated rates, crashes and DEGRADED episodes."""

    name = "chaos_estimated"
    n_machines = 4
    contexts = 4
    n_jobs = 12_000
    reduced_jobs = 2_000
    #: About 3.6 estimator epochs (each re-solving every machine's LP)
    #: per window: with half as many, the median window flipped between
    #: one and two epochs from seed to seed.
    windows = 100

    def build(self, seed: int, n_jobs: int):
        rates, types = synthetic_rates(n_types=5, contexts=self.contexts)
        workload = Workload.of(*types)
        k = self.contexts
        capacity = self.n_machines * core_optimal.optimal_throughput(
            rates, workload, contexts=k
        ).throughput
        scenario = get_scenario("bursty_mmpp")
        rate = scenario.load * capacity / scenario.mean_size
        duration = n_jobs / rate
        cluster = Cluster(
            rates,
            [
                make_scheduler("maxtp", rates, k, workload=workload)
                for _ in range(self.n_machines)
            ],
            make_dispatcher(
                "affinity", rates=rates, workload=workload, contexts=k
            ),
        )
        # Fault times scale with the run, so the reduced instance sees
        # as many crashes and episodes as the full one: about ten
        # crashes per machine.  With three times as many, retry storms
        # made a pass's LP work vary by +-13% from seed to seed.
        options = {
            "rate_source": "estimated",
            "estimation": EstimationConfig(
                noise=0.1, prior="single_run", seed=seed
            ),
            "faults": FaultConfig(
                seed=seed,
                mtbf=0.1 * duration,
                mttr=0.005 * duration,
                degraded_mtbf=0.1 * duration,
                degraded_duration=0.01 * duration,
                degraded_factor=0.5,
                crash_policy="resume_fraction",
                resume_fraction=0.5,
                retry_budget=3,
                backoff_base=0.002 * duration,
            ),
        }
        return (
            cluster,
            lambda: scenario.build_jobs(
                types, mean_rate=rate, seed=seed, n_jobs=n_jobs
            ),
            options,
            k,
        )


WORKLOADS = {
    w.name: w for w in (Sec6Grid(), ClusterStream(), ChaosEstimated())
}
