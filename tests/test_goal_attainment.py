"""Goal-attainment and scalarization tests (repro.optimize)."""

import numpy as np
import pytest

from repro.analysis.dc import DcConvergenceError
from repro.optimize.faults import CATEGORY_DC
from repro.optimize.goal_attainment import (
    PENALTY_OBJECTIVE,
    MultiObjectiveProblem,
    goal_attainment_improved,
    goal_attainment_standard,
)
from repro.optimize.scalarization import epsilon_constraint, weighted_sum


def _unconstrained(x):
    return np.empty((len(x), 0))


def _convex_objectives(x):
    return np.column_stack([
        (x[:, 0] - 1) ** 2 + x[:, 1] ** 2,
        (x[:, 0] + 1) ** 2 + x[:, 1] ** 2,
    ])


def convex_biobjective():
    """f1 = |x - (1,0)|^2, f2 = |x + (1,0)|^2: Pareto set is the segment
    x in [-1, 1] x {0}."""
    return MultiObjectiveProblem(
        evaluate=lambda x: (_convex_objectives(x), _unconstrained(x)),
        n_objectives=2,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
    )


def constrained_problem():
    """Same objectives but x0 >= 0.25 required."""
    base = convex_biobjective()
    return MultiObjectiveProblem(
        evaluate=lambda x: (_convex_objectives(x), 0.25 - x[:, :1]),
        n_objectives=2,
        lower=base.lower,
        upper=base.upper,
    )


def nonconvex_biobjective():
    """A classic nonconvex front (Fonseca-Fleming style, 1-D)."""

    def evaluate(x):
        t = x[:, 0]
        f1 = 1 - np.exp(-((t - 1) ** 2))
        f2 = 1 - np.exp(-((t + 1) ** 2))
        return np.column_stack([f1, f2]), _unconstrained(x)

    return MultiObjectiveProblem(
        evaluate=evaluate,
        n_objectives=2,
        lower=np.array([-2.0]),
        upper=np.array([2.0]),
    )


class _DivergentBias:
    """``constrained_problem``'s evaluation, but the DC solve of any
    batch holding a row with x0 > 0.8 raises ``DcConvergenceError``."""

    def __init__(self):
        self.raised = 0

    def __call__(self, x):
        if np.any(x[:, 0] > 0.8):
            self.raised += 1
            raise DcConvergenceError("bias point did not converge")
        return _convex_objectives(x), 0.25 - x[:, :1]


def divergent_problem():
    evaluate = _DivergentBias()
    base = convex_biobjective()
    return evaluate, MultiObjectiveProblem(
        evaluate=evaluate, n_objectives=2, lower=base.lower,
        upper=base.upper,
    )


class TestProblemValidation:
    def test_bounds_must_match(self):
        with pytest.raises(ValueError):
            MultiObjectiveProblem(lambda x: x, 2, np.zeros(2), np.ones(3))

    def test_needs_two_objectives(self):
        with pytest.raises(ValueError):
            MultiObjectiveProblem(lambda x: x, 1, np.zeros(2), np.ones(2))

    def test_default_objective_names(self):
        problem = convex_biobjective()
        assert problem.objective_names == ("f1", "f2")


class TestStandardGoalAttainment:
    def test_balanced_goals_yield_symmetric_point(self):
        problem = convex_biobjective()
        result = goal_attainment_standard(problem, goals=[1.0, 1.0])
        # The symmetric Pareto point is x = (0, 0), f = (1, 1), gamma = 0.
        np.testing.assert_allclose(result.x, 0.0, atol=1e-4)
        assert result.gamma == pytest.approx(0.0, abs=1e-6)

    def test_generous_goals_overattained(self):
        problem = convex_biobjective()
        result = goal_attainment_standard(problem, goals=[3.0, 3.0])
        assert result.gamma < 0.0  # both goals exceeded

    def test_goal_shape_checked(self):
        with pytest.raises(ValueError):
            goal_attainment_standard(convex_biobjective(), goals=[1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            goal_attainment_standard(convex_biobjective(), goals=[1.0, 1.0],
                                     weights=[1.0, -1.0])

    def test_constraints_respected(self):
        problem = constrained_problem()
        result = goal_attainment_standard(problem, goals=[1.0, 1.0])
        assert result.x[0] >= 0.25 - 1e-6
        assert result.constraint_violation <= 1e-6

    def test_nfev_counted(self):
        problem = convex_biobjective()
        result = goal_attainment_standard(problem, goals=[1.0, 1.0])
        assert result.nfev > 0


class TestImprovedGoalAttainment:
    def test_reaches_pareto_front(self):
        problem = convex_biobjective()
        result = goal_attainment_improved(problem, goals=[1.0, 1.0],
                                          seed=0)
        # On the Pareto set: x1 = 0 and x0 in [-1, 1].
        assert abs(result.x[1]) < 1e-3
        assert -1.001 <= result.x[0] <= 1.001

    def test_tightening_pushes_past_timid_goals(self):
        # Goals far inside the attainable region: the standard method
        # stops at gamma << 0 but a point dominated by the front edge;
        # the improved method's tightening keeps improving objectives.
        problem = convex_biobjective()
        improved = goal_attainment_improved(problem, goals=[4.0, 4.0],
                                            seed=1, tighten_rounds=3)
        # Must end on the Pareto front (f1 + f2 >= 2, equality on front
        # only at x=(0,0); general check: point not dominated by the
        # symmetric solution with margin).
        f_sum = improved.objectives.sum()
        assert f_sum <= 2.3  # near the front, not hovering at goals

    def test_constraints_respected(self):
        problem = constrained_problem()
        result = goal_attainment_improved(problem, goals=[1.0, 1.0],
                                          seed=0)
        assert result.constraint_violation <= 1e-6
        assert result.x[0] >= 0.25 - 1e-6

    def test_handles_nonconvex_front(self):
        problem = nonconvex_biobjective()
        result = goal_attainment_improved(problem, goals=[0.6, 0.6],
                                          seed=0)
        # Balanced goals land mid-front (t ~ 0), which the weighted sum
        # cannot reach on a nonconvex front.
        assert abs(result.x[0]) < 0.3

    def test_goal_shape_checked(self):
        with pytest.raises(ValueError):
            goal_attainment_improved(convex_biobjective(), goals=[1.0])


class TestScalarizationBaselines:
    def test_weighted_sum_on_convex_problem(self):
        problem = convex_biobjective()
        result = weighted_sum(problem, [1.0, 1.0], seed=0)
        np.testing.assert_allclose(result.x, 0.0, atol=1e-4)
        assert result.success

    def test_weighted_sum_misses_nonconvex_middle(self):
        # On the nonconvex front, any weight vector lands near an
        # extreme, never mid-front.
        problem = nonconvex_biobjective()
        result = weighted_sum(problem, [1.0, 1.0], seed=0, n_starts=6)
        assert abs(result.x[0]) > 0.6

    def test_weighted_sum_validation(self):
        with pytest.raises(ValueError):
            weighted_sum(convex_biobjective(), [1.0])
        with pytest.raises(ValueError):
            weighted_sum(convex_biobjective(), [1.0, -2.0])

    def test_epsilon_constraint_respects_bound(self):
        problem = convex_biobjective()
        result = epsilon_constraint(problem, primary_index=0,
                                    epsilons=[np.inf, 1.0], seed=0)
        assert result.objectives[1] <= 1.0 + 1e-6
        # Minimizing f1 subject to f2 <= 1 lands at x = (0, 0).
        np.testing.assert_allclose(result.x, 0.0, atol=1e-3)

    def test_epsilon_constraint_index_validated(self):
        with pytest.raises(ValueError):
            epsilon_constraint(convex_biobjective(), primary_index=5,
                               epsilons=[1.0, 1.0])

    def test_epsilon_constraint_traces_front(self):
        problem = convex_biobjective()
        points = []
        for eps in (0.5, 1.0, 2.0):
            result = epsilon_constraint(problem, 0, [np.inf, eps], seed=0)
            points.append(result.objectives)
        f1_values = [p[0] for p in points]
        # Tighter epsilon on f2 forces larger f1.
        assert f1_values[0] > f1_values[1] > f1_values[2]


class TestFailingEvaluations:
    """A raising evaluation is one penalized, counted, recorded row.

    Each test's failures all come from counted evaluations, so the
    recorded DC failures equal the raising calls (plus the probe batch
    the improved method retries row by row).
    """

    def test_standard_survives_failing_start(self):
        evaluate, problem = divergent_problem()
        result = goal_attainment_standard(problem, goals=[1.0, 1.0],
                                          x0=np.array([0.9, 0.5]))
        assert evaluate.raised > 0
        assert result.health.failures[CATEGORY_DC] == evaluate.raised
        assert result.health.n_failures == evaluate.raised
        assert result.nfev >= evaluate.raised
        # The start is the failed row: f = g = PENALTY_OBJECTIVE.
        np.testing.assert_array_equal(result.objectives, PENALTY_OBJECTIVE)
        assert result.constraint_violation == PENALTY_OBJECTIVE

    def test_improved_survives_failing_region(self):
        evaluate, problem = divergent_problem()
        result = goal_attainment_improved(problem, goals=[1.0, 1.0],
                                          seed=0, n_probe=16, n_starts=2)
        health = result.health
        assert health.failures[CATEGORY_DC] > 0
        assert health.failures[CATEGORY_DC] + health.retries \
            == evaluate.raised
        assert result.x[0] <= 0.8
        assert result.constraint_violation <= 1e-6

    def test_weighted_sum_survives_failing_region(self):
        evaluate, problem = divergent_problem()
        result = weighted_sum(problem, [1.0, 1.0], seed=0, n_starts=6)
        assert evaluate.raised > 0
        assert result.health.failures[CATEGORY_DC] > 0
        assert result.x[0] <= 0.8
        assert result.constraint_violation <= 1e-6

    def test_epsilon_constraint_survives_failing_region(self):
        evaluate, problem = divergent_problem()
        result = epsilon_constraint(problem, 0, [np.inf, 2.0], seed=0,
                                    n_starts=6)
        assert evaluate.raised > 0
        assert result.health.failures[CATEGORY_DC] == evaluate.raised
        assert result.x[0] <= 0.8
        assert result.constraint_violation <= 1e-6
