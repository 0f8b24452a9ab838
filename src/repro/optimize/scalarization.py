"""Scalarization baselines: weighted sum and epsilon-constraint.

These are the methods the improved goal attainment is compared against
in experiment E5/E6.  The weighted sum is the classic strawman — it
cannot reach non-convex regions of the Pareto front no matter the
weights — and epsilon-constraint is the standard alternative that can,
at the cost of one constrained solve per front point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize as sp_optimize

from repro.optimize.goal_attainment import (
    GoalAttainmentResult,
    MultiObjectiveProblem,
    _CountedObjectives,
)
from repro.optimize.metaheuristics import latin_hypercube

__all__ = ["weighted_sum", "epsilon_constraint"]


def weighted_sum(
    problem: MultiObjectiveProblem,
    weights,
    n_starts: int = 4,
    seed: Optional[int] = 0,
    max_iterations: int = 200,
) -> GoalAttainmentResult:
    """Minimize ``sum(w_i f_i(x))`` subject to the hard constraints.

    Returned as a :class:`GoalAttainmentResult` with ``goals`` set to
    the attained objectives (gamma = 0 by construction) so downstream
    tables can treat every method uniformly.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (problem.n_objectives,):
        raise ValueError(
            f"weights must have shape ({problem.n_objectives},)"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    counter = _CountedObjectives(problem)
    rng = np.random.default_rng(seed)
    starts = latin_hypercube(n_starts, problem.lower, problem.upper, rng)

    def scalar(x):
        return float(np.dot(weights, counter(x)[0]))

    # scipy differentiates the objective and this dict in separate
    # stencils over the same points; the counted objective call has
    # already priced each point, so the constraint side is uncounted.
    constraint_list = [
        {"type": "ineq", "fun": lambda x: -counter.uncounted(x)[1]},
    ]
    best_x, best_value, best_success, best_message = None, np.inf, False, ""
    for x0 in starts:
        solution = sp_optimize.minimize(
            scalar, x0, method="SLSQP",
            bounds=list(zip(problem.lower, problem.upper)),
            constraints=constraint_list,
            options={"maxiter": max_iterations, "ftol": 1e-10},
        )
        violation = float(np.max(np.maximum(
            counter.uncounted(solution.x)[1], 0.0), initial=0.0))
        if violation <= 1e-6 and solution.fun < best_value:
            best_x = np.clip(solution.x, problem.lower, problem.upper)
            best_value = float(solution.fun)
            best_success = bool(solution.success)
            best_message = str(solution.message)
    if best_x is None:
        # No feasible solve; return the least-infeasible start for reporting.
        best_x = starts[0]
        best_success = False
        best_message = "no feasible weighted-sum solution found"
    f, g = counter(best_x)
    return GoalAttainmentResult(
        x=best_x, objectives=f, gamma=0.0, goals=f.copy(),
        weights=weights, nfev=counter.nfev, success=best_success,
        constraint_violation=float(np.max(np.maximum(g, 0.0), initial=0.0)),
        message=best_message, health=counter.health,
    )


def epsilon_constraint(
    problem: MultiObjectiveProblem,
    primary_index: int,
    epsilons,
    n_starts: int = 4,
    seed: Optional[int] = 0,
    max_iterations: int = 200,
) -> GoalAttainmentResult:
    """Minimize one objective with the others bounded by *epsilons*.

    ``epsilons[i]`` bounds objective ``i``; the entry at
    ``primary_index`` is ignored.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    if not 0 <= primary_index < problem.n_objectives:
        raise ValueError(f"primary_index out of range: {primary_index}")
    counter = _CountedObjectives(problem)
    rng = np.random.default_rng(seed)
    starts = latin_hypercube(n_starts, problem.lower, problem.upper, rng)
    secondary = [
        i for i in range(problem.n_objectives) if i != primary_index
    ]

    def scalar(x):
        return float(counter(x)[0][primary_index])

    def eps_constraints(x):
        # The epsilon bounds and the hard constraints in one block
        # (all must be >= 0), so SLSQP builds one stencil for both.
        f, g = counter(x)
        return np.concatenate([epsilons[secondary] - f[secondary], -g])

    best_x, best_value, best_success, best_message = None, np.inf, False, ""
    for x0 in starts:
        solution = sp_optimize.minimize(
            scalar, x0, method="SLSQP",
            bounds=list(zip(problem.lower, problem.upper)),
            constraints=[{"type": "ineq", "fun": eps_constraints}],
            options={"maxiter": max_iterations, "ftol": 1e-10},
        )
        x_sol = np.clip(solution.x, problem.lower, problem.upper)
        violation = float(np.max(np.maximum(
            -eps_constraints(x_sol), 0.0), initial=0.0))
        if violation <= 1e-6 and solution.fun < best_value:
            best_x, best_value = x_sol, float(solution.fun)
            best_success = bool(solution.success)
            best_message = str(solution.message)
    if best_x is None:
        best_x = starts[0]
        best_success = False
        best_message = "no feasible epsilon-constraint solution found"
    f, g = counter(best_x)
    return GoalAttainmentResult(
        x=best_x, objectives=f, gamma=0.0, goals=epsilons,
        weights=np.ones(problem.n_objectives), nfev=counter.nfev,
        success=best_success,
        constraint_violation=float(np.max(np.maximum(g, 0.0), initial=0.0)),
        message=best_message, health=counter.health,
    )
