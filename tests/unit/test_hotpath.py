"""Unit coverage for :mod:`repro.queueing.hotpath`'s synthetic table.

The estimator draws observation noise in the order of each rate
dict's keys, so a table whose dict order follows string hashing makes
estimated runs depend on ``PYTHONHASHSEED``.  These tests pin the
table's order and run the same estimated cluster under two hash seeds
in fresh interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.queueing.hotpath import synthetic_rates
from repro.util.multiset import multisets

SRC = Path(__file__).resolve().parents[2] / "src"

#: A small estimated run on the synthetic table: MAXTP behind the
#: affinity dispatcher, noisy estimates, several publish rounds.
RUN_SCRIPT = """
import json
from repro.core.workload import Workload
from repro.experiments.registry import to_jsonable
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler

rates, types = synthetic_rates(n_types=4, contexts=3)
workload = Workload.of(*types)
cluster = Cluster(
    rates,
    [make_scheduler("maxtp", rates, 3, workload=workload) for _ in range(2)],
    make_dispatcher("affinity", rates=rates, workload=workload, contexts=3),
)
jobs = get_scenario("baseline_poisson").build_jobs(
    types, mean_rate=3.0, seed=4, n_jobs=150
)
metrics = cluster.run(
    jobs,
    rate_source="estimated",
    estimation=EstimationConfig(
        noise=0.3, prior="single_run", reopt_observations=8, seed=5
    ),
)
print(json.dumps({
    "metrics": to_jsonable(metrics),
    "estimator": cluster.last_estimator_stats,
}, sort_keys=True))
"""


def run_under_hash_seed(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", RUN_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


class TestSyntheticRates:
    def test_per_type_dicts_follow_sorted_type_order(self):
        rates, names = synthetic_rates(n_types=5, contexts=4)
        for size in range(1, 5):
            for combo in multisets(names, size):
                assert list(rates.type_rates(combo)) == sorted(set(combo))

    def test_estimated_run_is_independent_of_hash_seed(self):
        first = run_under_hash_seed("0")
        second = run_under_hash_seed("1")
        assert first["estimator"]["epoch"] > 1
        assert first == second
