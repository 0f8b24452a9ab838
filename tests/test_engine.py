"""The compiled evaluation engine against the scalar reference path.

The batched engine's contract is strict equivalence: for any design
vector, :class:`~repro.core.engine.CompiledTemplate` must reproduce
``AmplifierTemplate.evaluate`` to well under 1e-8 on every figure of
merit, and the batch objective protocol must not change optimizer
results beyond that roundoff.
"""

import numpy as np
import pytest

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.design import DEFAULT_GOALS
from repro.core.engine import CompiledTemplate, CompileError
from repro.core.objectives import LnaEvaluator, build_lna_problem
from repro.experiments.common import reference_device, selected_design
from repro.optimize.batching import PopulationEvaluator
from repro.optimize.goal_attainment import goal_attainment_standard
from repro.optimize.metaheuristics import (
    differential_evolution,
    particle_swarm,
)


@pytest.fixture(scope="module")
def template():
    return AmplifierTemplate(reference_device().small_signal)


@pytest.fixture(scope="module")
def engine(template):
    return CompiledTemplate(template)


def _assert_matches_scalar(engine, template, unit_x, tolerance=1e-8):
    perf_c = engine.performance_batch(unit_x[None]).candidate(0)
    perf_s = template.evaluate(DesignVariables.from_unit(unit_x),
                               engine.band_grid, engine.guard_grid)
    np.testing.assert_allclose(perf_c.nf_db, perf_s.nf_db, atol=tolerance)
    np.testing.assert_allclose(perf_c.gt_db, perf_s.gt_db, atol=tolerance)
    np.testing.assert_allclose(perf_c.s11_db, perf_s.s11_db, atol=tolerance)
    np.testing.assert_allclose(perf_c.s22_db, perf_s.s22_db, atol=tolerance)
    assert perf_c.mu_min == pytest.approx(perf_s.mu_min, abs=tolerance)
    assert perf_c.ids == pytest.approx(perf_s.ids, abs=tolerance)
    assert perf_c.nf_max_db == pytest.approx(perf_s.nf_max_db,
                                             abs=tolerance)
    assert perf_c.gt_min_db == pytest.approx(perf_s.gt_min_db,
                                             abs=tolerance)


class TestCompiledTemplate:
    def test_matches_scalar_on_random_designs(self, engine, template):
        rng = np.random.default_rng(42)
        for unit_x in rng.random((5, len(DesignVariables.NAMES))):
            _assert_matches_scalar(engine, template, unit_x)

    def test_matches_scalar_on_selected_design(self, engine, template):
        design = selected_design("fast")
        _assert_matches_scalar(engine, template,
                               design.optimizer_result.x)

    def test_batch_rows_match_single_calls(self, engine):
        rng = np.random.default_rng(7)
        unit_x = rng.random((6, len(DesignVariables.NAMES)))
        batch = engine.performance_batch(unit_x)
        assert len(batch) == 6
        for i in range(6):
            single = engine.performance_batch(unit_x[i][None]).candidate(0)
            np.testing.assert_allclose(batch.nf_db[i], single.nf_db,
                                       atol=1e-12)
            np.testing.assert_allclose(batch.gt_db[i], single.gt_db,
                                       atol=1e-12)
            assert batch.mu_min[i] == pytest.approx(single.mu_min,
                                                    abs=1e-12)

    def test_value_model_name_missing_from_netlist_raises(
            self, monkeypatch, template):
        real = CompiledTemplate._candidate_values

        def with_ghost(self, x_physical, bad_bias="raise"):
            values = real(self, x_physical, bad_bias)
            values[0]["Ghost"] = values[0]["Cin"]
            return values

        monkeypatch.setattr(CompiledTemplate, "_candidate_values",
                            with_ghost)
        with pytest.raises(CompileError, match="Ghost"):
            CompiledTemplate(template, verify=False)


class TestLnaEvaluatorCache:
    def test_repeat_calls_hit_the_cache(self, template):
        evaluator = LnaEvaluator(template)
        x = np.full(len(DesignVariables.NAMES), 0.4)
        evaluator.performance(x)
        assert evaluator.n_solves == 1
        assert evaluator.cache_hits == 0
        evaluator.performance(x)
        evaluator.performance(x.copy())
        assert evaluator.n_solves == 1
        assert evaluator.cache_hits == 2

    def test_batch_deduplicates_and_counts_hits(self, template):
        evaluator = LnaEvaluator(template)
        rng = np.random.default_rng(5)
        unique = rng.random((3, len(DesignVariables.NAMES)))
        batch = np.vstack([unique, unique[0], unique[2]])
        perfs = evaluator.performance_batch(batch)
        assert len(perfs) == 5
        assert evaluator.n_solves == 3          # duplicates solved once
        assert evaluator.cache_hits == 0        # nothing was cached before
        perfs_again = evaluator.performance_batch(unique)
        assert evaluator.n_solves == 3
        assert evaluator.cache_hits == 3
        for a, b in zip(perfs[:3], perfs_again):
            assert a is b                        # served from the LRU store

    def test_evaluator_agrees_with_scalar_oracle(self, template):
        evaluator = LnaEvaluator(template)
        x = np.full(len(DesignVariables.NAMES), 0.55)
        pc = evaluator.performance(x)
        ps = template.evaluate(DesignVariables.from_unit(x),
                               evaluator.band_grid, evaluator.guard_grid)
        np.testing.assert_allclose(pc.nf_db, ps.nf_db, atol=1e-8)
        assert pc.mu_min == pytest.approx(ps.mu_min, abs=1e-8)

    def test_cache_key_includes_template_fingerprint(self, template):
        """Regression: two evaluators with different problems must not
        produce colliding cache keys for the same design vector."""
        from repro.core.bands import design_grid, stability_grid

        a = LnaEvaluator(template)
        b = LnaEvaluator(template, band_grid=design_grid(9),
                         guard_grid=stability_grid(12))
        x = np.full(len(DesignVariables.NAMES), 0.4)
        assert a._key(x) != b._key(x)
        # Same configuration -> same key (the fingerprint is stable).
        c = LnaEvaluator(template)
        assert a._key(x) == c._key(x)

    def test_cache_key_folds_negative_zero(self, template):
        evaluator = LnaEvaluator(template)
        x = np.full(len(DesignVariables.NAMES), 0.25)
        x_neg = x.copy()
        x_neg[0] = -0.0
        x_pos = x.copy()
        x_pos[0] = 0.0
        # -0.0 == 0.0 numerically; the key must agree too.
        assert evaluator._key(x_neg) == evaluator._key(x_pos)

    def test_invalidate_cache_clears_and_refingerprints(self, template):
        evaluator = LnaEvaluator(template)
        x = np.full(len(DesignVariables.NAMES), 0.45)
        evaluator.performance(x)
        assert evaluator.n_solves == 1
        old_key = evaluator._key(x)
        evaluator.invalidate_cache()
        # The store is empty again: the same point solves afresh.
        evaluator.performance(x)
        assert evaluator.n_solves == 2
        # Unchanged configuration keeps the same fingerprint.
        assert evaluator._key(x) == old_key


class TestBatchObjectiveProtocol:
    def test_problem_carries_batch_callables(self, template):
        problem = build_lna_problem(template)
        x = np.full(len(DesignVariables.NAMES), 0.5)
        batch = np.vstack([x, x * 0.8])
        f_batch, g_batch = problem.evaluate(batch)
        assert f_batch.shape == (2, 2)
        assert g_batch.shape == (2, 5)
        for row in range(2):
            f_row, g_row = problem.evaluate(batch[row][None])
            np.testing.assert_array_equal(f_batch[row], f_row[0])
            np.testing.assert_array_equal(g_batch[row], g_row[0])
        f_empty, g_empty = problem.evaluate(batch[:0])
        assert f_empty.shape == (0, 2) and g_empty.shape == (0, 5)

    def test_standard_goal_attainment_makes_one_call_per_evaluation(
            self, template):
        evaluator = LnaEvaluator(template)
        calls = {"batch": 0, "scalar": 0}
        batch, scalar = evaluator.performance_batch, evaluator.performance

        def counted_batch(x):
            calls["batch"] += 1
            return batch(x)

        def counted_scalar(x):
            calls["scalar"] += 1
            return scalar(x)

        evaluator.performance_batch = counted_batch
        evaluator.performance = counted_scalar
        problem = build_lna_problem(template, evaluator=evaluator)
        result = goal_attainment_standard(problem, DEFAULT_GOALS,
                                          max_iterations=5)
        assert result.nfev > 0
        assert calls == {"batch": result.nfev, "scalar": 0}

    def test_population_evaluator_matches_loop(self):
        def sphere(x):
            return float(np.sum(x ** 2))

        def sphere_batch(x):
            return np.sum(x ** 2, axis=1)

        rng = np.random.default_rng(0)
        population = rng.random((8, 3))
        looped = PopulationEvaluator(sphere)(population)
        batched = PopulationEvaluator(sphere, sphere_batch)(population)
        np.testing.assert_allclose(batched, looped, atol=1e-15)

    def test_pso_batch_is_trajectory_identical(self):
        def rosenbrock(x):
            return float(
                100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            )

        def rosenbrock_batch(x):
            return 100.0 * (x[:, 1] - x[:, 0] ** 2) ** 2 + (
                1.0 - x[:, 0]
            ) ** 2

        kwargs = dict(lower=[-2, -2], upper=[2, 2], n_particles=12,
                      max_iterations=40, seed=3)
        sequential = particle_swarm(rosenbrock, **kwargs)
        batched = particle_swarm(rosenbrock,
                                 objective_batch=rosenbrock_batch, **kwargs)
        np.testing.assert_array_equal(batched.x, sequential.x)
        assert batched.fun == sequential.fun
        assert batched.nfev == sequential.nfev

    def test_de_batch_converges_on_sphere(self):
        def sphere(x):
            return float(np.sum(x ** 2))

        def sphere_batch(x):
            return np.sum(x ** 2, axis=1)

        result = differential_evolution(
            sphere, lower=[-3] * 3, upper=[3] * 3, population_size=20,
            max_iterations=150, seed=1, objective_batch=sphere_batch,
        )
        assert result.fun < 1e-6
        assert result.nfev == 20 * (1 + result.n_iterations)
