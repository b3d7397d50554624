"""Non-finite or negative rates fail fast with one typed error.

Rates enter the program in three places: a run's memo reading its
source, :class:`TableRates` construction and the Section-IV LP build.
Each rejects a NaN, infinite or negative rate with the same
:class:`WorkloadError` and message, on both engines and under every
policy, instead of failing later with an unrelated error, spinning
until ``max_events`` or completing with silently wrong metrics.
"""

from __future__ import annotations

import math

import pytest

from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.errors import WorkloadError
from repro.microarch.rates import TableRates
from repro.queueing.cluster import ENGINES, run_cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.job import Job
from repro.queueing.schedulers import make_scheduler

POLICIES = ("fcfs", "maxit", "srpt", "maxtp")
BAD_RATES = (math.nan, math.inf, -1.0)


class OneTypeRates:
    """A raw one-type rate source (no construction-time checks)."""

    def __init__(self, rate: float) -> None:
        self.rate = rate

    def type_rates(self, coschedule):
        return {"A": self.rate}


def expected_message(rate: float) -> str:
    return (
        f"rate of 'A' in coschedule ('A',) is {rate}; rates must be "
        "finite and non-negative"
    )


@pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_run_rejects_non_finite_rate(engine, policy, rate):
    rates = OneTypeRates(rate)
    jobs = [Job(i, "A", 1.0, float(i)) for i in range(3)]
    with pytest.raises(WorkloadError) as raised:
        scheduler = make_scheduler(
            policy, rates, 1, workload=Workload.of("A")
        )
        run_cluster(
            rates,
            [scheduler],
            make_dispatcher("round_robin"),
            jobs,
            engine=engine,
            max_events=10_000,
        )
    assert str(raised.value) == expected_message(rate)


@pytest.mark.parametrize("rate", BAD_RATES, ids=["nan", "inf", "negative"])
def test_table_rates_reject_bad_rate(rate):
    with pytest.raises(WorkloadError) as raised:
        TableRates({("A",): {"A": rate}})
    assert str(raised.value) == expected_message(rate)


@pytest.mark.parametrize("rate", BAD_RATES, ids=["nan", "inf", "negative"])
def test_lp_rejects_bad_rate(rate):
    with pytest.raises(WorkloadError) as raised:
        optimal_throughput(OneTypeRates(rate), Workload.of("A"), contexts=1)
    assert str(raised.value) == expected_message(rate)
