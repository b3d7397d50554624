"""The Section-IV LP built as arrays equals its ``Model`` formulation.

:mod:`repro.core.optimal` assembles the throughput LP's standard form
directly from the coschedule x type rate matrix.  The reference below
is the same program written the way the paper states it, through the
generic modeling layer (:class:`repro.lp.model.Model`) and
:func:`repro.lp.standard_form.to_standard_form`.  The two must agree
float for float, signed zeros included, so the simplex pivots
identically and every :class:`OptimalSchedule` is bit-identical.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import optimal as core_optimal
from repro.core.workload import Workload
from repro.errors import SolverError
from repro.lp.model import LinearExpr, Model, Sense
from repro.lp.standard_form import to_standard_form
from repro.microarch.rates import TableRates
from repro.util.multiset import multisets

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_FUZZ_EXAMPLES", "200"))

TYPE_NAMES = ("A", "B", "C", "D", "E")


def reference_model(rates, workload, contexts, sense, type_weights=None):
    """The Section-IV LP through the modeling layer: ``(model, x)``."""
    coschedules = workload.coschedules(contexts)
    type_rates = {s: rates.type_rates(s) for s in coschedules}
    weights = core_optimal._normalize_weights(workload, type_weights)

    model = Model(
        name=f"{'max' if sense is Sense.MAXIMIZE else 'min'}_tp", sense=sense
    )
    x = {s: model.add_variable(f"x[{','.join(s)}]") for s in coschedules}
    total_time = LinearExpr({x[s]: 1.0 for s in coschedules})
    model.add_constraint(total_time == 1.0, name="time_budget")
    reference = workload.types[0]
    for b in workload.types[1:]:
        scale = weights[reference] / weights[b]
        balance = LinearExpr(
            {
                x[s]: type_rates[s].get(b, 0.0) * scale
                - type_rates[s].get(reference, 0.0)
                for s in coschedules
            }
        )
        model.add_constraint(balance == 0.0, name=f"equal_work[{b}]")
    model.set_objective(
        LinearExpr({x[s]: sum(type_rates[s].values()) for s in coschedules})
    )
    return model, x


def reference_schedule(rates, workload, contexts, sense, type_weights=None):
    """``(throughput, fractions, duals)`` solved through the model."""
    model, x = reference_model(rates, workload, contexts, sense, type_weights)
    solution = model.solve()
    if not solution.is_optimal:
        raise SolverError(f"reference LP terminated {solution.status.value}")
    fractions = {}
    for s, var in x.items():
        value = solution.value(var.name)
        if value > 1e-12:
            fractions[s] = value
    return solution.objective, fractions, dict(solution.duals)


@st.composite
def lp_instances(draw):
    n_types = draw(st.integers(1, 5))
    contexts = draw(st.integers(1, 4))
    types = TYPE_NAMES[:n_types]
    # Small integers over a power of two keep exact ties (and exact
    # zeros) common, which is where signed zeros and degenerate pivots
    # live.
    rate = st.one_of(
        st.just(0.0),
        st.integers(1, 16).map(lambda v: v / 8.0),
        st.floats(0.01, 4.0, allow_nan=False),
    )
    table = {
        s: {b: draw(rate) for b in dict.fromkeys(s)}
        for s in multisets(types, contexts)
    }
    weights = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {b: st.integers(1, 5).map(float) for b in types}
            ),
        )
    )
    sense = draw(st.sampled_from([Sense.MAXIMIZE, Sense.MINIMIZE]))
    return TableRates(table), Workload.of(*types), contexts, sense, weights


def _same_floats(left: np.ndarray, right: np.ndarray) -> bool:
    return bool(
        np.array_equal(left, right)
        and np.array_equal(np.signbit(left), np.signbit(right))
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(instance=lp_instances())
def test_array_form_equals_model_standard_form(instance):
    rates, workload, contexts, sense, weights = instance
    coschedules = workload.coschedules(contexts)
    entries = [rates.type_rates(s) for s in coschedules]
    form = core_optimal._standard_form(
        coschedules,
        entries,
        workload,
        core_optimal._normalize_weights(workload, weights),
        sense,
    )
    model, _ = reference_model(rates, workload, contexts, sense, weights)
    expected = to_standard_form(model)
    assert _same_floats(form.c, expected.c)
    assert _same_floats(form.A, expected.A)
    assert _same_floats(form.b, expected.b)
    assert repr(form.objective_constant) == repr(expected.objective_constant)
    assert form.objective_sign == expected.objective_sign
    assert form.row_names == expected.row_names
    assert form.row_signs == expected.row_signs


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(instance=lp_instances())
def test_schedule_equals_model_solve(instance):
    rates, workload, contexts, sense, weights = instance
    solve = (
        core_optimal.optimal_throughput
        if sense is Sense.MAXIMIZE
        else core_optimal.worst_throughput
    )
    try:
        expected = reference_schedule(rates, workload, contexts, sense, weights)
    except SolverError:
        with pytest.raises(SolverError):
            solve(rates, workload, contexts=contexts, type_weights=weights)
        return
    schedule = solve(rates, workload, contexts=contexts, type_weights=weights)
    throughput, fractions, duals = expected
    assert repr(schedule.throughput) == repr(throughput)
    assert [(s, repr(v)) for s, v in schedule.fractions.items()] == [
        (s, repr(v)) for s, v in fractions.items()
    ]
    assert [(k, repr(v)) for k, v in schedule.duals.items()] == [
        (k, repr(v)) for k, v in duals.items()
    ]
