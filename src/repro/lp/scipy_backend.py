"""Optional scipy backend for LP solves.

Delegates to ``scipy.optimize.linprog`` (HiGHS).  The library itself
never requires scipy — this backend exists so the test suite can
cross-validate the from-scratch simplex (:mod:`repro.lp.simplex`)
against an independent implementation, mirroring how the paper's
results could be cross-checked against glpk.
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.lp.solution import LPSolution, SolveStatus
from repro.lp.standard_form import StandardForm

__all__ = ["solve_form_scipy"]


def solve_form_scipy(form: StandardForm) -> LPSolution:
    """Solve a standard form via ``scipy.optimize.linprog``."""
    try:
        from scipy.optimize import linprog
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise SolverError(
            "the 'scipy' LP backend requires scipy to be installed"
        ) from exc

    result = linprog(
        c=form.c,
        A_eq=form.A,
        b_eq=form.b,
        bounds=[(0.0, None)] * form.n_cols,
        method="highs",
    )
    if result.status == 2:
        return LPSolution(status=SolveStatus.INFEASIBLE)
    if result.status == 3:
        return LPSolution(status=SolveStatus.UNBOUNDED)
    if not result.success:
        raise SolverError(f"scipy linprog failed: {result.message}")

    duals: dict[str, float] = {}
    marginals = getattr(getattr(result, "eqlin", None), "marginals", None)
    if marginals is not None:
        for i, name in enumerate(form.row_names):
            if name:
                # scipy reports duals of the minimization; map to the
                # original sense the same way the simplex backend does.
                duals[name] = (
                    -form.objective_sign * form.row_signs[i] * float(marginals[i])
                )
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        objective=form.recover_objective(float(result.fun)),
        values=form.recover_values(result.x),
        duals=duals,
        iterations=int(getattr(result, "nit", 0)),
    )
