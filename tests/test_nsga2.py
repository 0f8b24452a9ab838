"""NSGA-II tests (repro.optimize.nsga2)."""

import numpy as np
import pytest

from repro.optimize.goal_attainment import MultiObjectiveProblem
from repro.optimize.nsga2 import nsga2
from repro.optimize.pareto import pareto_filter


def zdt1_like(dim=5):
    """A ZDT1-style problem: front at g(x)=1, f2 = 1 - sqrt(f1)."""

    def evaluate(x):
        f1 = x[:, 0]
        g = 1.0 + 9.0 * np.mean(x[:, 1:], axis=1)
        f2 = g * (1.0 - np.sqrt(np.maximum(f1, 0.0) / g))
        return np.column_stack([f1, f2]), np.empty((len(x), 0))

    return MultiObjectiveProblem(
        evaluate=evaluate,
        n_objectives=2,
        lower=np.zeros(dim),
        upper=np.ones(dim),
    )


def constrained_biobjective():
    return MultiObjectiveProblem(
        evaluate=lambda x: (
            np.column_stack([
                (x[:, 0] - 1) ** 2 + x[:, 1] ** 2,
                (x[:, 0] + 1) ** 2 + x[:, 1] ** 2,
            ]),
            0.25 - x[:, :1],
        ),
        n_objectives=2,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
    )


class TestNsga2:
    def test_converges_to_zdt1_front(self):
        result = nsga2(zdt1_like(), population_size=40, n_generations=60,
                       seed=0)
        front = result.feasible_front
        assert front.shape[0] >= 10
        # On the true front f2 = 1 - sqrt(f1): check mean deviation.
        deviation = front[:, 1] - (1.0 - np.sqrt(np.clip(front[:, 0], 0, 1)))
        assert np.mean(np.abs(deviation)) < 0.08

    def test_front_is_nondominated(self):
        result = nsga2(zdt1_like(), population_size=24, n_generations=20,
                       seed=1)
        front = result.objectives
        keep = pareto_filter(front)
        assert len(keep) == front.shape[0]

    def test_front_spreads(self):
        result = nsga2(zdt1_like(), population_size=40, n_generations=60,
                       seed=0)
        f1 = result.feasible_front[:, 0]
        assert f1.max() - f1.min() > 0.5  # crowding keeps diversity

    def test_deterministic_under_seed(self):
        a = nsga2(zdt1_like(), population_size=16, n_generations=10, seed=3)
        b = nsga2(zdt1_like(), population_size=16, n_generations=10, seed=3)
        np.testing.assert_array_equal(a.x, b.x)

    def test_constraints_respected(self):
        result = nsga2(constrained_biobjective(), population_size=30,
                       n_generations=40, seed=0)
        feasible = result.violations <= 1e-9
        assert np.any(feasible)
        assert np.all(result.x[feasible, 0] >= 0.25 - 1e-9)

    def test_bounds_respected(self):
        result = nsga2(zdt1_like(), population_size=16, n_generations=10,
                       seed=5)
        assert np.all(result.x >= 0.0) and np.all(result.x <= 1.0)

    def test_odd_population_rounded_up(self):
        result = nsga2(zdt1_like(), population_size=15, n_generations=5,
                       seed=0)
        assert result.nfev > 0

    def test_nfev_accounting(self):
        result = nsga2(zdt1_like(), population_size=16, n_generations=10,
                       seed=0)
        assert result.nfev == 16 + 10 * 16
