"""The sweeps record the engine their runs actually used."""

from __future__ import annotations

import pytest

from repro.core.workload import Workload
from repro.experiments.fault_sweep import run_fault_cell
from repro.experiments.scenario_sweep import run_scenario
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario

RATES, TYPES = synthetic_rates(n_types=3, contexts=2)
WORKLOAD = Workload.of(*TYPES)


def scenario_cell(**kwargs):
    return run_scenario(
        RATES, WORKLOAD, get_scenario("baseline_poisson"), "round_robin",
        n_machines=2, n_jobs=20, contexts=2, **kwargs,
    )


def fault_cell(**kwargs):
    return run_fault_cell(
        RATES, WORKLOAD, get_scenario("baseline_poisson"), "round_robin",
        "mtbf=0.5", n_machines=2, n_jobs=20, contexts=2, **kwargs,
    )


@pytest.mark.parametrize("cell", [scenario_cell, fault_cell])
def test_default_engine_cell_reports_compiled(cell):
    assert cell().engine == "compiled"


@pytest.mark.parametrize("cell", [scenario_cell, fault_cell])
def test_explicit_engine_is_recorded(cell):
    assert cell(engine="legacy").engine == "legacy"
