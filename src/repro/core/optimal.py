"""The Section-IV linear program: optimal (and worst) throughput.

Let ``x_s`` be the fraction of time a scheduler spends executing
coschedule ``s``.  The long-term average throughput is
``sum_s x_s * it(s)`` (Equation 2), maximized subject to (Equations 3-5):

* ``x_s >= 0``,
* ``sum_s x_s = 1``,
* equal work per type: for every type b (vs. the first type),
  ``sum_s x_s * r_b(s) = sum_s x_s * r_1(s)``.

Maximizing gives the theoretically best scheduler; minimizing gives the
deliberately worst one, and together they bound what *any* scheduler can
achieve on the workload.  A vertex optimum uses at most N coschedules
(the number of equality constraints), a property the paper points out
and our tests assert.

The program is assembled directly as a :class:`~repro.lp.standard_form.
StandardForm` from the coschedule x type rate matrix — no modeling
layer on the re-planning path, which estimated-rate runs take once per
estimator epoch — and solved through :meth:`StandardForm.solve`, the
entry :meth:`repro.lp.model.Model.solve` uses too.  The same program
written with :class:`~repro.lp.model.Model` is kept in the test suite
as the reference the arrays must equal float for float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SolverError, WorkloadError
from repro.core.workload import Workload
from repro.lp.model import Sense
from repro.lp.standard_form import StandardForm
from repro.microarch.rates import RateSource, check_rates, infer_contexts

__all__ = ["OptimalSchedule", "optimal_throughput", "worst_throughput"]


@dataclass(frozen=True)
class OptimalSchedule:
    """The LP's answer for one workload.

    Attributes:
        workload: the analyzed workload.
        throughput: the optimal (or worst) long-term average throughput
            in weighted instructions per cycle.
        fractions: time fraction per coschedule, support only (fractions
            below 1e-12 are dropped).
        sense: "max" or "min".
        duals: dual values of the LP constraints — ``time_budget`` is
            the marginal value of a unit of time (equal to the optimal
            per-coschedule "adjusted throughput"), and
            ``equal_work[b]`` prices the equal-work constraint of type
            b (how much throughput a unit of allowed work imbalance
            toward type b would buy).  Complementary slackness ties
            these to the support: every used coschedule s satisfies
            ``it(s) = y_time + sum_b y_b (r_b(s) - r_1(s))``.
        per_type_rate: the common long-term execution rate every job
            type sustains under the schedule (throughput / N).
    """

    workload: Workload
    throughput: float
    fractions: dict[tuple[str, ...], float]
    sense: str
    duals: dict[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.duals is None:
            object.__setattr__(self, "duals", {})

    @property
    def per_type_rate(self) -> float:
        """Average per-type execution rate (equal by construction)."""
        return self.throughput / self.workload.n_types

    def support_size(self) -> int:
        """Number of coschedules with non-zero time fraction."""
        return len(self.fractions)

    def fraction_of(self, coschedule: Sequence[str]) -> float:
        """Time fraction of a coschedule (0.0 if unused)."""
        return self.fractions.get(tuple(sorted(coschedule)), 0.0)


def _normalize_weights(
    workload: Workload, type_weights: Mapping[str, float] | None
) -> dict[str, float]:
    """Per-type work shares, normalized to sum to 1 (uniform default)."""
    if type_weights is None:
        share = 1.0 / workload.n_types
        return {b: share for b in workload.types}
    missing = [b for b in workload.types if b not in type_weights]
    if missing:
        raise WorkloadError(f"type_weights missing entries for {missing}")
    values = {b: float(type_weights[b]) for b in workload.types}
    if not all(0.0 < v < math.inf for v in values.values()):
        raise WorkloadError("type_weights must be positive and finite")
    total = sum(values.values())
    return {b: v / total for b, v in values.items()}


def _standard_form(
    coschedules: list[tuple[str, ...]],
    entries: list[dict[str, float]],
    workload: Workload,
    weights: Mapping[str, float],
    sense: Sense,
) -> StandardForm:
    """The throughput LP as ``min c'x, Ax = b, x >= 0`` over the
    coschedule x type rate matrix, one column per coschedule.

    Row 0 is the time budget ``sum_s x_s = 1``.  Row ``i >= 1`` is the
    work proportionality of type ``b = types[i]`` against the reference
    type (Equation 5, generalized): each type's share of the executed
    work matches its weight, ``work_b / w_b = work_ref / w_ref``,
    written with a ``w_ref / w_b`` scale so the uniform case is the
    paper's equal-work constraint verbatim.  ``c`` is ``it(s)``, negated
    to maximize.

    Every entry is the float :func:`~repro.lp.standard_form.
    to_standard_form` computes for the same program written with
    :class:`~repro.lp.model.Model` (kept as the reference in the test
    suite), signed zeros included: a coefficient is ``0.0 + coef``, and
    an equal-work right-hand side starts at ``-0.0`` and is reduced by
    ``coef * 0.0`` per column, so it ends ``+0.0`` exactly when some
    coefficient carries a sign bit.  The simplex therefore pivots
    identically on both.
    """
    types = workload.types
    rates = np.array(
        [[entry.get(b, 0.0) for b in types] for entry in entries]
    )
    it = np.array([sum(entry.values()) for entry in entries])
    if not (np.isfinite(it).all() and (rates >= 0.0).all()):
        for s, entry in zip(coschedules, entries):
            check_rates(s, entry)
    reference = types[0]
    scale = np.array([weights[reference] / weights[b] for b in types[1:]])
    balance = (rates[:, 1:] * scale - rates[:, :1]).T
    n_rows = len(types)
    A = np.empty((n_rows, len(coschedules)))
    A[0] = 1.0
    A[1:] = 0.0 + balance
    rhs = np.where(np.signbit(balance).any(axis=1), 0.0, -0.0)
    sign = 1.0 if sense is Sense.MINIMIZE else -1.0
    return StandardForm(
        c=sign * (0.0 + it),
        A=A,
        b=np.concatenate(([1.0], rhs)),
        # The objective has no constant; adding ``it(s) * 0.0`` per
        # column to 0.0 leaves +0.0 for any finite ``it``.
        objective_constant=sign * 0.0,
        objective_sign=sign,
        column_meaning=[("var", (s, 0.0, 1.0)) for s in coschedules],
        row_names=["time_budget"]
        + [f"equal_work[{b}]" for b in types[1:]],
        row_signs=[1.0] * n_rows,
    )


def _solve(
    rates: RateSource,
    workload: Workload,
    contexts: int | None,
    sense: Sense,
    backend: str,
    type_weights: Mapping[str, float] | None = None,
) -> OptimalSchedule:
    k = infer_contexts(rates, contexts)
    coschedules = workload.coschedules(k)
    entries = [rates.type_rates(s) for s in coschedules]
    weights = _normalize_weights(workload, type_weights)
    form = _standard_form(coschedules, entries, workload, weights, sense)
    solution = form.solve(backend=backend)
    if not solution.is_optimal:
        raise SolverError(
            f"throughput LP for {workload.label()} terminated "
            f"{solution.status.value}; the equal-work constraints should "
            "always be satisfiable with positive rates"
        )

    # Columns are labelled by coschedule, so the recovered values are
    # already keyed (and ordered) by coschedule.
    fractions = {
        s: value for s, value in solution.values.items() if value > 1e-12
    }
    return OptimalSchedule(
        workload=workload,
        throughput=solution.objective,
        fractions=fractions,
        sense="max" if sense is Sense.MAXIMIZE else "min",
        duals=dict(solution.duals),
    )


def optimal_throughput(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
    backend: str = "simplex",
    type_weights: Mapping[str, float] | None = None,
) -> OptimalSchedule:
    """Maximum long-term throughput of any scheduler on the workload.

    Args:
        rates: per-coschedule execution rates (a
            :class:`repro.microarch.rates.RateTable` or compatible).
        workload: the N job types.
        contexts: number of hardware contexts K; inferred from
            ``rates.machine`` when omitted.
        backend: LP backend ("simplex" or "scipy").
        type_weights: per-type work shares (normalized internally);
            omitted = the paper's equal-work assumption.  The paper
            notes that skewed weights "would dominate the execution,
            thereby limiting the possibilities to exploit symbiosis" —
            pass a skew here to quantify that remark.
    """
    return _solve(
        rates, workload, contexts, Sense.MAXIMIZE, backend, type_weights
    )


def worst_throughput(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
    backend: str = "simplex",
    type_weights: Mapping[str, float] | None = None,
) -> OptimalSchedule:
    """Minimum long-term throughput: the deliberately worst scheduler.

    Together with :func:`optimal_throughput` this bounds the throughput
    of *any* scheduling policy on the workload (Section IV).
    """
    return _solve(
        rates, workload, contexts, Sense.MINIMIZE, backend, type_weights
    )
