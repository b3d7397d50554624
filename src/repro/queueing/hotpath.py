"""Hot-path benchmark workloads and the perf-trajectory format.

The ROADMAP's north star is a simulator that runs as fast as the
hardware allows, which needs two things the repo previously lacked: a
*fixed, synthetic-rate* workload pair that times the event core in
isolation (no microarch simulation, no LP noise beyond the offline
solves), and a committed record of how fast it runs so later PRs
cannot silently regress it.  This module is the single source of truth
for both:

* :func:`synthetic_rates` — a deterministic rate table over N job
  types with real symbiosis structure (mixed coschedules beat
  homogeneous ones at equal load), sized so MAXIT/SRPT probing sees a
  realistically wide candidate space;
* :func:`saturated_cluster` — the **saturated MAXIT/SRPT cluster**
  workload: a backlog-capped, saturated multi-machine run where every
  event triggers a full candidate probe (the paper's Section-VI
  saturation setting, scaled up); the ``_wide`` variant deepens the
  backlog and widens the machines (6 contexts, 40 queued jobs) so the
  candidate space is large enough for the compiled engine's count-
  vector probing to show its full separation — it is the headline
  workload for perf-trajectory point 1;
* :func:`scenario_run` — the **scenario-sweep** workload: bursty MMPP
  traffic through MAXTP machines behind the LP-affinity dispatcher,
  exercising long non-saturated queues and the dispatch layer;
* :func:`measure` — best-of-N wall-clock of one workload on either
  engine (``legacy`` or ``compiled`` — the axes of
  ``tools/profile_hotpaths.py`` and ``BENCH_CORE.json``).

``benchmarks/bench_hotpath.py`` wraps these in pytest-benchmark and
checks the committed ``BENCH_CORE.json`` trajectory; CI's perf-smoke
job compares fresh numbers against that baseline with a generous
tolerance (hardware varies — only a wholesale regression fails).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.core.workload import Workload
from repro.microarch.rates import TableRates
from repro.queueing.cluster import Cluster, ClusterMetrics
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.job import Job
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler
from repro.util.multiset import multisets
from repro.util.rng import make_rng

__all__ = [
    "synthetic_rates",
    "saturated_jobs",
    "saturated_cluster",
    "scenario_run",
    "measure",
    "HOTPATH_WORKLOADS",
]


def synthetic_rates(
    n_types: int = 5, contexts: int = 4, seed: int = 7
) -> tuple[TableRates, tuple[str, ...]]:
    """A deterministic full rate table over ``n_types`` job types.

    Per-type base rates are seeded-random in [0.6, 1.0); coschedules
    gain throughput with size (SMT-style overlap) and lose a little
    with heterogeneity, so schedulers face real trade-offs.  All
    multisets of sizes 1..contexts are present.
    """
    names = tuple(chr(ord("A") + i) for i in range(n_types))
    rng = make_rng(seed)
    base = {t: 0.6 + 0.4 * rng.random() for t in names}
    table = {}
    for size in range(1, contexts + 1):
        for combo in multisets(names, size):
            distinct = len(set(combo))
            factor = 1.0 + 0.35 * (size - 1) - 0.08 * (distinct - 1)
            # ``dict.fromkeys`` keeps the sorted type order: a ``set``
            # here would make the dict order, and so the order the
            # estimator draws noise in, follow ``PYTHONHASHSEED``.
            table[combo] = {
                t: base[t] * combo.count(t) * factor / size
                for t in dict.fromkeys(combo)
            }
    return TableRates(table), names


def saturated_jobs(
    types: Sequence[str], n_jobs: int, *, seed: int = 0
) -> list[Job]:
    """A time-zero backlog with balanced types and varied sizes."""
    rng = make_rng(seed)
    pool = [types[i % len(types)] for i in range(n_jobs)]
    rng.shuffle(pool)
    return [
        Job(
            job_id=i,
            job_type=t,
            size=0.5 + rng.random(),
            arrival_time=0.0,
        )
        for i, t in enumerate(pool)
    ]


def _run_stats(cluster: Cluster) -> dict[str, object] | None:
    """Memo stats of the last run, with the compiled engine's own
    counters (fusion, batching, probe hits) nested under ``"engine"``
    when that engine ran."""
    stats = cluster.last_memo_stats
    if cluster.last_engine_stats is not None:
        stats = dict(stats or {})
        stats["engine"] = cluster.last_engine_stats
    return stats


def saturated_cluster(
    scheduler: str = "maxit",
    *,
    n_jobs: int = 4000,
    n_machines: int = 3,
    contexts: int = 4,
    backlog: int = 10,
    engine: str | None = None,
) -> tuple[ClusterMetrics, dict[str, object] | None]:
    """The saturated probing workload (every event probes candidates).

    Returns the run's metrics and the memo's hit/miss stats dict.
    """
    rates, names = synthetic_rates(contexts=contexts)
    workload = Workload.of(*names)
    cluster = Cluster(
        rates,
        [
            make_scheduler(scheduler, rates, contexts, workload=workload)
            for _ in range(n_machines)
        ],
        make_dispatcher("round_robin"),
    )
    metrics = cluster.run(
        saturated_jobs(names, n_jobs),
        stop_when_fewer_than=n_machines * contexts,
        keep_in_system=backlog,
        engine=engine,
    )
    return metrics, _run_stats(cluster)


def scenario_run(
    *,
    n_jobs: int = 3000,
    n_machines: int = 2,
    contexts: int = 4,
    scenario: str = "bursty_mmpp",
    mean_rate: float = 6.0,
    engine: str | None = None,
) -> tuple[ClusterMetrics, dict[str, object] | None]:
    """The scenario-sweep workload: bursty MAXTP + affinity dispatch.

    Non-saturated but heavily backlogged during bursts, so the
    per-type queue index and the coded MAXTP containment check carry
    the load.
    """
    rates, names = synthetic_rates(contexts=contexts)
    workload = Workload.of(*names)
    jobs = list(
        get_scenario(scenario).build_jobs(
            names, mean_rate=mean_rate, seed=1, n_jobs=n_jobs
        )
    )
    cluster = Cluster(
        rates,
        [
            make_scheduler("maxtp", rates, contexts, workload=workload)
            for _ in range(n_machines)
        ],
        make_dispatcher(
            "affinity", rates=rates, workload=workload, contexts=contexts
        ),
    )
    metrics = cluster.run(jobs, engine=engine)
    return metrics, _run_stats(cluster)


#: name -> workload runner taking an optional ``engine=`` only; the
#: keys are the benchmark ids committed in BENCH_CORE.json.
HOTPATH_WORKLOADS: dict[str, Callable[..., tuple[ClusterMetrics, dict | None]]] = {
    "saturated_maxit_cluster": lambda **engine_kw: saturated_cluster(
        "maxit", **engine_kw
    ),
    "saturated_srpt_cluster": lambda **engine_kw: saturated_cluster(
        "srpt", **engine_kw
    ),
    "saturated_maxit_wide": lambda **engine_kw: saturated_cluster(
        "maxit", contexts=6, backlog=40, **engine_kw
    ),
    "scenario_sweep_maxtp_affinity": lambda **engine_kw: scenario_run(
        **engine_kw
    ),
}


def measure(
    workload: str,
    *,
    engine: str | None = None,
    repeats: int = 3,
) -> dict[str, object]:
    """Best-of-``repeats`` wall-clock seconds of one named workload.

    ``engine`` selects the event loop exactly as in
    :meth:`Cluster.run`.  Also returns the run's completion count (a
    cheap integrity check: both engines must do identical work) and
    the memo/engine stats of the last repeat (cache efficacy; no
    ``"engine"`` block on the legacy engine).
    """
    runner = HOTPATH_WORKLOADS[workload]
    best = float("inf")
    completed = None
    stats: dict[str, object] | None = None
    for _ in range(repeats):
        start = time.perf_counter()
        metrics, stats = runner(engine=engine)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        completed = metrics.completed
    return {
        "seconds": best,
        "completed": completed,
        "memo_stats": stats,
    }
