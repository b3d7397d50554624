"""The Section-IV LP is solved once per rate generation and shared.

:meth:`RunRateMemo.optimal_schedule` caches the LP solved over a run
memo until :meth:`RunRateMemo.clear`.  MAXTP's ``reoptimize`` and the
affinity dispatcher's ``rebuild`` draw from that cache when handed a
run memo and solve afresh on any other source.  These tests count real
solves by wrapping :meth:`repro.lp.standard_form.StandardForm.solve`,
the one solve entry of every LP (the Section-IV LP is built directly
as a standard form; :meth:`repro.lp.model.Model.solve` lands there
too).
"""

from __future__ import annotations

import pytest

from repro.core import optimal as core_optimal
from repro.core.workload import Workload
from repro.lp.standard_form import StandardForm
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.ratememo import RunRateMemo
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler

CONTEXTS = 3
N_MACHINES = 4
RATES, TYPES = synthetic_rates(n_types=4, contexts=CONTEXTS)
WORKLOAD = Workload.of(*TYPES)
ESTIMATION = EstimationConfig(
    noise=0.2, prior="single_run", reopt_observations=8, seed=9
)
CRASHES = FaultConfig(
    seed=4, mtbf=20.0, mttr=2.0, retry_budget=3, backoff_base=0.5
)


@pytest.fixture
def solves(monkeypatch) -> list[int]:
    """Counts every LP solve from the moment the fixture is requested."""
    count = [0]
    solve = StandardForm.solve

    def counting(self, *args, **kwargs):
        count[0] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(StandardForm, "solve", counting)
    return count


def build_cluster() -> Cluster:
    return Cluster(
        RATES,
        [
            make_scheduler("maxtp", RATES, CONTEXTS, workload=WORKLOAD)
            for _ in range(N_MACHINES)
        ],
        make_dispatcher(
            "affinity", rates=RATES, workload=WORKLOAD, contexts=CONTEXTS
        ),
    )


def build_jobs(n_jobs: int = 200):
    return get_scenario("baseline_poisson").build_jobs(
        TYPES, mean_rate=4.0, seed=2, n_jobs=n_jobs
    )


class TestOneSolvePerGeneration:
    @pytest.mark.parametrize(
        "faults", [None, CRASHES], ids=["estimated", "estimated+crashes"]
    )
    def test_one_solve_per_policy_memo_generation(
        self, faults, monkeypatch, solves
    ):
        cluster = build_cluster()
        construction = solves[0]
        assert construction == N_MACHINES + 1
        clears = [0]
        clear = RunRateMemo.clear

        def counting_clear(self):
            clears[0] += 1
            clear(self)

        monkeypatch.setattr(RunRateMemo, "clear", counting_clear)
        cluster.run(
            build_jobs(),
            rate_source="estimated",
            estimation=ESTIMATION,
            faults=faults,
        )
        generations = clears[0] + 1
        assert generations > 2
        if faults is not None:
            assert cluster.last_fault_stats["crashes"] > 0
        # One shared solve per generation, plus the close-time restore
        # on the oracle table, which every consumer solves itself.
        restore = N_MACHINES + 1
        assert solves[0] - construction == generations + restore

    def test_clear_forces_a_resolve(self, solves):
        memo = RunRateMemo(RATES)
        first = memo.optimal_schedule(WORKLOAD, CONTEXTS)
        assert memo.optimal_schedule(WORKLOAD, CONTEXTS) is first
        assert solves[0] == 1
        memo.clear()
        second = memo.optimal_schedule(WORKLOAD, CONTEXTS)
        assert solves[0] == 2
        assert second is not first
        assert second.fractions == first.fractions


class TestCachedScheduleIsExact:
    def test_cached_equals_fresh_solve_at_every_publish(self):
        cluster = build_cluster()
        handle = cluster.start(
            build_jobs(),
            rate_source="estimated",
            estimation=ESTIMATION,
        )
        memo = handle.policy_memo
        checked = []

        def compare(_estimator) -> None:
            cached = memo.optimal_schedule(WORKLOAD, CONTEXTS)
            fresh = core_optimal.optimal_throughput(
                memo, WORKLOAD, contexts=CONTEXTS
            )
            assert cached.fractions == fresh.fractions
            assert cached.throughput == fresh.throughput
            assert cached.duals == fresh.duals
            for scheduler in cluster.schedulers:
                assert scheduler.target_fractions == fresh.fractions
            assert cluster.dispatcher.fractions == fresh.fractions
            checked.append(cached)

        # Registered after the run's own re-optimization listener, so
        # it sees the state every consumer was just refreshed from.
        handle.estimator.add_listener(compare)
        while not handle.advance():
            pass
        assert len(checked) > 1

    def test_consumers_hold_distinct_fraction_dicts(self):
        cluster = build_cluster()
        handle = cluster.start(
            build_jobs(), rate_source="estimated", estimation=ESTIMATION
        )
        cached = handle.policy_memo.optimal_schedule(WORKLOAD, CONTEXTS)
        held = [s.target_fractions for s in cluster.schedulers]
        held.append(cluster.dispatcher.fractions)
        held.append(cached.fractions)
        assert len({id(d) for d in held}) == len(held)
        assert all(d == cached.fractions for d in held)
        handle.close()


class TestOtherSourcesBypass:
    def test_rate_table_source_solves_every_time(self, solves):
        scheduler = make_scheduler(
            "maxtp", RATES, CONTEXTS, workload=WORKLOAD
        )
        dispatcher = make_dispatcher(
            "affinity", rates=RATES, workload=WORKLOAD, contexts=CONTEXTS
        )
        built = solves[0]
        scheduler.reoptimize(RATES)
        scheduler.reoptimize(RATES)
        dispatcher.rebuild(RATES)
        assert solves[0] == built + 3

    def test_run_memo_source_solves_once(self, solves):
        scheduler = make_scheduler(
            "maxtp", RATES, CONTEXTS, workload=WORKLOAD
        )
        dispatcher = make_dispatcher(
            "affinity", rates=RATES, workload=WORKLOAD, contexts=CONTEXTS
        )
        built = solves[0]
        memo = RunRateMemo(RATES)
        scheduler.reoptimize(memo)
        scheduler.reoptimize(memo)
        dispatcher.rebuild(memo)
        assert solves[0] == built + 1
