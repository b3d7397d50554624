"""Differential fuzz harness: legacy vs compiled.

This is the equivalence contract that makes engine rewrites cheap to
attempt and hard to get wrong: a seeded fuzzer draws random cluster
configurations — scenario, dispatcher, scheduler, machine count,
contexts, horizon/warmup/backlog knobs, rate source, fault preset, and
the arrival stream's seed — runs each through **both engines** (the
legacy string path, kept as the frozen reference, and the count-vector
compiled engine), and asserts

* **bit-identical ClusterMetrics** — every float of every per-machine
  metric, compared through ``to_jsonable`` (exact equality, including
  the per-coschedule time-split dict keys);
* **identical scheduler pick sequences** — each engine logs every
  scheduling decision as ``(machine_id, picked job ids in order)``;
  the logs must match element for element.  Order matters: the engine
  accumulates stepped work in running-set order, so a permuted pick
  that happened to finish the same jobs would still drift the floats;
  and
* **identical fault stats** — the fault layer's counters.

A second fuzzer draws random rate tables (arbitrary per-type speeds
and same-type interference) and random job streams, so picks are
also compared on tables the synthetic scenarios never produce.

Hypothesis drives the generation, so a failing draw **shrinks to a
minimal reproducing configuration** (fewest jobs, smallest cluster,
simplest knobs) and replays deterministically from the printed
blob/seed.  Locally the harness runs ``REPRO_DIFF_FUZZ_EXAMPLES``
configs (default 200 — the PR-6 acceptance budget); CI's required
``differential-fuzz`` job bounds the budget to stay ~30s.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workload import Workload
from repro.experiments.registry import to_jsonable
from repro.microarch.rates import TableRates
from repro.queueing.cluster import ENGINES, Cluster, run_cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.job import Job
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler
from repro.util.multiset import multisets

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_FUZZ_EXAMPLES", "200"))

#: The legacy reference engine, and the engines compared against it.
REFERENCE, CANDIDATES = ENGINES[0], ENGINES[1:]

SCENARIOS = (
    "baseline_poisson",
    "bursty_mmpp",
    "heavy_tail",
    "diurnal_cycle",
    "mice_elephants",
    "batch_storms",
    "skewed_types",
    "saturated_backlog",
)

#: Fault-axis presets (None = the historical fault-free loop).  Each
#: named preset exercises a different slice of the fault layer; the
#: absolute time constants sit well inside the fuzzed runs' durations
#: so failures actually fire on most draws.
FAULT_PRESETS: dict[str, dict] = {
    "crashy": dict(
        mtbf=5.0, mttr=1.5, retry_budget=2, backoff_base=0.3,
        crash_policy="restart",
    ),
    "flaky": dict(
        degraded_mtbf=4.0, degraded_duration=1.0, degraded_factor=0.5,
        degraded_dispatch="allow",
    ),
    "chaos": dict(
        mtbf=6.0, mttr=1.0, degraded_mtbf=8.0, degraded_duration=1.5,
        correlated_mtbf=20.0, blast_fraction=0.5, drain_grace=0.3,
        crash_policy="resume_fraction", resume_fraction=0.5,
        retry_budget=1, backoff_base=0.2, shed_after=4.0,
    ),
}


def fault_config_from(config) -> FaultConfig | None:
    """The draw's fault config (seeded off the arrival seed so the
    failure schedule varies across draws but not across engines)."""
    preset = config.get("faults")
    if preset is None:
        return None
    return FaultConfig(seed=config["seed"] + 1, **FAULT_PRESETS[preset])


configs = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(SCENARIOS),
        "scheduler": st.sampled_from(
            ("fcfs", "maxit", "srpt", "maxtp", "ljf", "random")
        ),
        "dispatcher": st.sampled_from(("round_robin", "jsq", "affinity")),
        "n_machines": st.integers(min_value=1, max_value=3),
        "contexts": st.integers(min_value=2, max_value=4),
        "n_types": st.integers(min_value=3, max_value=5),
        "n_jobs": st.integers(min_value=1, max_value=60),
        "mean_rate": st.floats(min_value=0.5, max_value=8.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        # Rate-source axis: estimated mode must stay bit-identical
        # across engines — the estimation layer's two-memo plumbing is
        # part of the equivalence contract.  "estimated" is the
        # zero-noise warm-oracle control; "estimated_noisy" has noise
        # and a cold prior, so every re-optimization round really
        # changes the policy memo's rates and MAXTP's targets.
        "rate_source": st.sampled_from(
            ("oracle", "estimated", "estimated_noisy")
        ),
        # Fault axis: failure/repair processes must not break the
        # equivalence — every engine calls the shared
        # FaultRuntime at the same iteration points, so crashes,
        # outages, degraded episodes, retries, and shedding land on
        # the same bits everywhere.
        "faults": st.sampled_from((None, "crashy", "flaky", "chaos")),
        "knobs": st.sampled_from(
            (
                {},
                {"warmup_time": 2.0},
                {"horizon": 6.0},
                {"horizon": 25.0, "warmup_time": 1.0},
                {"keep_in_system": 3, "stop_when_fewer_than": 2},
                {"keep_in_system": 8, "stop_when_fewer_than": 4},
            )
        ),
    }
)


def estimation_for(rate_source: str, seed: int) -> EstimationConfig | None:
    """Estimator knobs of a rate-source axis value: a small
    re-optimization interval, so many rounds fire even on short
    streams."""
    if rate_source == "estimated":
        return EstimationConfig(
            noise=0.0, prior="oracle", reopt_observations=8
        )
    if rate_source == "estimated_noisy":
        return EstimationConfig(
            noise=0.2, prior="single_run", reopt_observations=8, seed=seed
        )
    return None


def run_config(config, engine, rate_source=None, faults="axis"):
    """One full cluster run; returns (metrics payload, pick log,
    fault stats).

    ``rate_source`` overrides the config's axis (defaulting to
    "oracle" for configs without one); see :func:`estimation_for`.
    ``faults`` overrides the config's fault axis: pass a FaultConfig,
    ``None`` to force the fault-free loop, or leave the default to
    follow the draw's own axis.
    """
    contexts = config["contexts"]
    rates, names = synthetic_rates(
        n_types=config["n_types"], contexts=contexts
    )
    workload = Workload.of(*names)
    jobs = list(
        get_scenario(config["scenario"]).build_jobs(
            names,
            mean_rate=config["mean_rate"],
            seed=config["seed"],
            n_jobs=config["n_jobs"],
        )
    )
    dispatcher_kw = {}
    if config["dispatcher"] == "affinity":
        dispatcher_kw = dict(
            rates=rates, workload=workload, contexts=contexts
        )
    cluster = Cluster(
        rates,
        [
            make_scheduler(
                config["scheduler"], rates, contexts, workload=workload
            )
            for _ in range(config["n_machines"])
        ],
        make_dispatcher(config["dispatcher"], **dispatcher_kw),
    )
    if rate_source is None:
        rate_source = config.get("rate_source", "oracle")
    estimation = estimation_for(rate_source, config["seed"])
    if faults == "axis":
        faults = fault_config_from(config)
    picks: list[tuple[int, tuple[int, ...]]] = []
    metrics = cluster.run(
        jobs,
        engine=engine,
        pick_log=picks,
        rate_source="oracle" if estimation is None else "estimated",
        estimation=estimation,
        faults=faults,
        **config["knobs"],
    )
    return to_jsonable(metrics), picks, cluster.last_fault_stats


class TestLargeClockStall:
    """Regression: the million-job stall past clock 2^14.

    Above ``clock = 2**14`` a double's ulp (3.6e-12) exceeds the
    ``remaining <= 1e-12`` done-threshold, so a completion whose
    absolute event time quantizes can leave a residual that re-fires
    with ``clock + dt == clock``.  The compiled engine's zero-span
    fusion used to swallow that positive exact span and spin forever
    (observed at ~950k jobs into a 64-machine run).  Shifting a small
    stream past the boundary reproduces it in milliseconds: with the
    fix, both engines finish within a normal event budget and stay
    bit-identical through the pathological completions.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engines_finish_and_agree_past_two_pow_14(self, seed):
        def shifted_jobs():
            jobs = list(
                get_scenario("baseline_poisson").build_jobs(
                    ("A", "B", "C"), mean_rate=1.6, seed=seed, n_jobs=400
                )
            )
            for job in jobs:
                job.arrival_time += 16384.0
            return jobs

        rates, names = synthetic_rates(n_types=3, contexts=2)
        workload = Workload.of(*names)

        def run_engine(engine):
            cluster = Cluster(
                rates,
                [
                    make_scheduler(
                        "maxtp", rates, 2, workload=workload
                    )
                    for _ in range(2)
                ],
                make_dispatcher("jsq"),
            )
            picks: list = []
            metrics = cluster.run(
                shifted_jobs(),
                engine=engine,
                pick_log=picks,
                max_events=12_000,
            )
            return to_jsonable(metrics), picks

        reference = run_engine(REFERENCE)
        for engine in CANDIDATES:
            assert run_engine(engine) == reference, (
                f"{engine} diverges past clock 2**14 (seed {seed})"
            )


class TestDifferentialEngines:
    @given(configs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_engines_bit_identical(self, config):
        reference_metrics, reference_picks, reference_stats = run_config(
            config, REFERENCE
        )
        for engine in CANDIDATES:
            metrics, picks, stats = run_config(config, engine)
            assert metrics == reference_metrics, (
                f"{engine} metrics diverge from {REFERENCE} on {config}"
            )
            assert picks == reference_picks, (
                f"{engine} pick sequence diverges from {REFERENCE} "
                f"on {config}"
            )
            assert stats == reference_stats, (
                f"{engine} fault stats diverge from {REFERENCE} "
                f"on {config}"
            )


class TestZeroFaultIdentityFuzz:
    """A quiescent FaultConfig must not move a bit on any draw.

    The fault-aware loop branches everywhere — eligibility lists,
    wake computation, retry admission — so this class pins the
    structural claim that all of it is inert when no fault process is
    enabled: same metrics, same picks, on random configurations.
    """

    @given(configs)
    @settings(max_examples=max(25, MAX_EXAMPLES // 4), deadline=None)
    def test_inactive_config_matches_fault_free(self, config):
        inert = FaultConfig(seed=config["seed"] + 1)
        for engine in ENGINES:
            bare_metrics, bare_picks, _ = run_config(
                config, engine, faults=None
            )
            gated_metrics, gated_picks, stats = run_config(
                config, engine, faults=inert
            )
            assert gated_metrics == bare_metrics, (
                f"{engine}: an inactive FaultConfig changed the metrics "
                f"on {config}"
            )
            assert gated_picks == bare_picks, (
                f"{engine}: an inactive FaultConfig changed the picks "
                f"on {config}"
            )
            assert stats["crashes"] == 0 and stats["availability"] == 1.0


class TestEstimatedOracleIdentity:
    """The zero-noise control: estimation must cost nothing.

    With ``noise=0`` and the warm oracle prior, every EMA update
    collapses to the true rate (``est + alpha*(true - est)`` is exact
    when ``est == true``), so a re-optimization round re-solves
    against the same numbers and every policy decision — pick
    sequence and ClusterMetrics alike — must be bit-identical to the
    oracle run, on every engine.  This pins the whole
    estimated-mode plumbing (observation wiring, epoch publishing,
    the policy-memo indirection) as a pure pass-through at zero
    noise.
    """

    POLICIES = (
        ("maxit", "round_robin"),
        ("srpt", "jsq"),
        ("maxit", "affinity"),
        ("maxtp", "round_robin"),
    )

    @pytest.mark.parametrize("scheduler,dispatcher", POLICIES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_estimated_matches_oracle(self, scheduler, dispatcher, engine):
        config = {
            "scenario": "skewed_types",
            "scheduler": scheduler,
            "dispatcher": dispatcher,
            "n_machines": 2,
            "contexts": 3,
            "n_types": 4,
            "n_jobs": 48,
            "mean_rate": 3.0,
            "seed": 1234,
            "knobs": {},
        }
        oracle = run_config(config, engine, rate_source="oracle")
        estimated = run_config(config, engine, rate_source="estimated")
        assert estimated == oracle, (
            f"zero-noise estimated {scheduler}/{dispatcher} diverges "
            f"from oracle on {engine}"
        )


class TestEstimatedNoisyAgreement:
    """Pinned noisy-estimation cases: legacy and compiled must agree.

    The compiled engine specializes estimated-rate runs itself: its
    picks probe the policy memo, each machine's cached probes are
    dropped whenever an estimator epoch flushes that memo, and MAXTP's
    interned targets follow every re-solve.  These fixed draws keep
    that path under test on every run, independent of what the
    hypothesis fuzzer happens to draw, with a noisy observation stream
    and a non-oracle prior so each re-optimization round really moves
    the policy's rates.
    """

    POLICIES = TestEstimatedOracleIdentity.POLICIES

    @pytest.mark.parametrize("scheduler,dispatcher", POLICIES)
    @pytest.mark.parametrize("prior", ["single_run", "optimistic"])
    def test_engines_agree_under_noise(self, scheduler, dispatcher, prior):
        rates, names = synthetic_rates(n_types=4, contexts=3)
        workload = Workload.of(*names)
        dispatcher_kw = (
            dict(rates=rates, workload=workload, contexts=3)
            if dispatcher == "affinity"
            else {}
        )
        estimation = EstimationConfig(
            noise=0.25, prior=prior, reopt_observations=6, seed=77
        )

        def run(engine):
            cluster = Cluster(
                rates,
                [
                    make_scheduler(scheduler, rates, 3, workload=workload)
                    for _ in range(2)
                ],
                make_dispatcher(dispatcher, **dispatcher_kw),
            )
            jobs = get_scenario("skewed_types").build_jobs(
                names, mean_rate=3.0, seed=4321, n_jobs=60
            )
            picks: list = []
            metrics = cluster.run(
                jobs,
                engine=engine,
                pick_log=picks,
                rate_source="estimated",
                estimation=estimation,
            )
            return (
                to_jsonable(metrics),
                picks,
                cluster.last_estimator_stats,
            )

        reference = run(REFERENCE)
        assert reference[2]["epoch"] >= 2, "re-optimization never fired"
        for engine in CANDIDATES:
            assert run(engine) == reference, (
                f"noisy estimated {scheduler}/{dispatcher} (prior "
                f"{prior}) diverges between {REFERENCE} and {engine}"
            )


# ----------------------------------------------------------------------
# Random rate tables: picks on tables the scenarios never produce.
# ----------------------------------------------------------------------
TABLE_TYPES = ("A", "B", "C")
TABLE_WORKLOAD = Workload.of(*TABLE_TYPES)
TABLE_CONTEXTS = 2


def build_table(per_job: dict[str, float], interference: float) -> TableRates:
    """A full 3-type/2-context table from per-job rates and a same-type
    interference factor (heterogeneous pairs stay at full speed)."""
    table = {}
    for size in (1, 2):
        for cos in multisets(TABLE_TYPES, size):
            factor = (
                interference if size == 2 and len(set(cos)) == 1 else 1.0
            )
            table[cos] = {
                b: per_job[b] * cos.count(b) * factor for b in set(cos)
            }
    return TableRates(table)


rate_tables = st.builds(
    build_table,
    st.fixed_dictionaries(
        {
            t: st.floats(min_value=0.1, max_value=2.0, allow_nan=False)
            for t in TABLE_TYPES
        }
    ),
    st.floats(min_value=0.3, max_value=1.0),
)

#: (type, inter-arrival gap, size) triples; zero gaps make
#: same-instant arrivals and age ties.
job_streams = st.lists(
    st.tuples(
        st.sampled_from(TABLE_TYPES),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.05, max_value=3.0),
    ),
    min_size=1,
    max_size=30,
)


def build_jobs(stream) -> list[Job]:
    jobs = []
    clock = 0.0
    for i, (job_type, gap, size) in enumerate(stream):
        clock += gap
        jobs.append(
            Job(job_id=i, job_type=job_type, size=size, arrival_time=clock)
        )
    return jobs


class TestRandomTableEquivalence:
    @given(
        rate_tables,
        job_streams,
        st.sampled_from(("fcfs", "maxit", "srpt", "maxtp", "ljf")),
        st.sampled_from(("round_robin", "jsq", "affinity")),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(
            (
                {},
                {"warmup_time": 2.0},
                {"horizon": 8.0},
                {"keep_in_system": 2, "stop_when_fewer_than": 2},
            )
        ),
    )
    @settings(max_examples=max(25, MAX_EXAMPLES // 2), deadline=None)
    def test_metrics_and_picks_bit_identical(
        self, rates, stream, scheduler, dispatcher, machines, knobs
    ):
        def run(engine):
            picks: list = []
            metrics = run_cluster(
                rates,
                [
                    make_scheduler(
                        scheduler,
                        rates,
                        TABLE_CONTEXTS,
                        workload=TABLE_WORKLOAD,
                    )
                    for _ in range(machines)
                ],
                make_dispatcher(
                    dispatcher,
                    rates=rates,
                    workload=TABLE_WORKLOAD,
                    contexts=TABLE_CONTEXTS,
                ),
                build_jobs(stream),
                engine=engine,
                pick_log=picks,
                **knobs,
            )
            return to_jsonable(metrics), picks

        reference = run(REFERENCE)
        for engine in CANDIDATES:
            assert run(engine) == reference, f"{engine} diverges"
