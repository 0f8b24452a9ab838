"""The shared-memory worker fleet and the backend dispatch around it.

Contracts under test:

* every backend — serial loop, in-process batch, worker fleet, and
  ``auto`` over the sparse-tier LNA objective — returns bit-identical
  values for the same population;
* the compiled LNA objective crosses the process boundary via
  ``objective_factory`` / pickled :class:`CompiledTemplate` (state
  travels, compilation reruns in the worker) and still matches the
  in-process numbers exactly;
* a worker crash mid-generation (``FaultInjector(p_exit=...)``) walks
  the rebuild ladder to the serial fallback whose results are
  bit-for-bit those of a clean run, journals the ladder, and leaves no
  shared-memory segment behind;
* the fleet's shared buffers grow when a larger population arrives;
* ``backend="auto"`` commits to the measured winner between the
  in-process batch and the fleet, and journals the decision.
"""

import glob
import json
import os
import pickle

import numpy as np
import pytest

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledMetricObjective, CompiledTemplate
from repro.experiments.common import reference_device
from repro.obs.journal import RunJournal, set_journal
from repro.optimize import PopulationEvaluator
from repro.optimize.faults import FaultInjector


# Module-level (hence picklable) objectives.

def _sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def _sphere_batch(population):
    return np.sum(np.asarray(population) ** 2, axis=1)


def _leaked_segments():
    """repro-fleet segments this process left in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return glob.glob(f"/dev/shm/repro-fleet-{os.getpid()}-*")


@pytest.fixture
def journal(tmp_path):
    """Install a scoped flight recorder; yield its event-list reader."""
    path = str(tmp_path / "journal.jsonl")
    recorder = RunJournal(path, run_id="test")
    previous = set_journal(recorder)

    def events():
        recorder.flush()
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    try:
        yield events
    finally:
        set_journal(previous)
        recorder.close()


# ----------------------------------------------------------------------
# backend equivalence
# ----------------------------------------------------------------------

def _sphere_inputs():
    population = np.random.default_rng(7).standard_normal((17, 4))
    return _sphere, _sphere_batch, [population]


def _sparse_lna_inputs():
    # The sparse tier reuses per-batch-size scratch buffers, so any
    # backend that shares one engine between concurrent equal-sized
    # shards corrupts rows; each fleet worker owns its engine.
    template = AmplifierTemplate(reference_device().small_signal)
    factory = CompiledMetricObjective(template, solver="sparse")
    objective, objective_batch = factory()
    rng = np.random.default_rng(13)
    populations = [rng.random((256, len(DesignVariables.NAMES)))
                   for _ in range(4)]
    return objective, objective_batch, populations


@pytest.mark.parametrize("inputs, with_batch, kwargs", [
    pytest.param(_sphere_inputs, False, dict(backend="serial"),
                 id="serial"),
    pytest.param(_sphere_inputs, True, dict(backend="batch"), id="batch"),
    pytest.param(_sphere_inputs, False, dict(backend="fleet", workers=2),
                 id="fleet"),
    pytest.param(_sphere_inputs, True, dict(backend="fleet", workers=2),
                 id="fleet-batch"),
    pytest.param(_sparse_lna_inputs, True, dict(backend="auto", workers=2),
                 id="sparse-auto"),
])
def test_all_backends_bit_identical(inputs, with_batch, kwargs):
    objective, objective_batch, populations = inputs()
    references = [objective_batch(population) for population in populations]
    if with_batch:
        kwargs = dict(kwargs, objective_batch=objective_batch)
    with PopulationEvaluator(objective, **kwargs) as evaluator:
        for population, reference in zip(populations, references):
            np.testing.assert_array_equal(evaluator(population), reference)
        assert evaluator.health.n_failures == 0
    assert not _leaked_segments()


def test_single_worker_degrades_to_in_process():
    evaluator = PopulationEvaluator(_sphere, backend="fleet", workers=1)
    assert evaluator.backend == "serial"
    assert evaluator(np.array([[2.0, 0.0]])).tolist() == [4.0]
    assert evaluator._fleet is None


def test_fleet_rejects_unknown_backend():
    with pytest.raises(ValueError):
        PopulationEvaluator(_sphere, backend="cluster")
    with pytest.raises(ValueError):
        PopulationEvaluator(_sphere, backend="batch")  # no batch callable


# ----------------------------------------------------------------------
# the compiled objective crosses the process boundary
# ----------------------------------------------------------------------

def test_compiled_template_pickle_roundtrip():
    template = AmplifierTemplate(reference_device().small_signal)
    engine = CompiledTemplate(template, verify=False)
    clone = pickle.loads(pickle.dumps(engine))
    population = np.random.default_rng(3).random(
        (4, len(DesignVariables.NAMES)))
    original = engine.performance_batch(population)
    recompiled = clone.performance_batch(population)
    np.testing.assert_array_equal(original.nf_max_db, recompiled.nf_max_db)
    np.testing.assert_array_equal(original.gt_min_db, recompiled.gt_min_db)
    np.testing.assert_array_equal(original.mu_min, recompiled.mu_min)


def test_fleet_matches_in_process_on_compiled_objective():
    template = AmplifierTemplate(reference_device().small_signal)
    factory = CompiledMetricObjective(template)
    objective, objective_batch = factory()
    population = np.random.default_rng(11).random(
        (12, len(DesignVariables.NAMES)))

    with PopulationEvaluator(objective, objective_batch=objective_batch,
                             backend="batch") as batched:
        reference = batched(population)
    with PopulationEvaluator(objective, objective_batch=objective_batch,
                             objective_factory=factory,
                             backend="fleet", workers=2,
                             fleet_capacity=12) as fleet:
        values = fleet(population)
        assert not fleet.health.serial_fallback
    np.testing.assert_array_equal(values, reference)
    assert not _leaked_segments()


# ----------------------------------------------------------------------
# worker crash mid-generation (satellite of the fleet rework)
# ----------------------------------------------------------------------

def test_worker_crash_walks_ladder_to_bit_identical_fallback(journal):
    population = np.random.default_rng(5).standard_normal((9, 3))
    clean = PopulationEvaluator(_sphere, backend="serial")(population)

    # p_exit=1.0: every candidate kills its worker process; the same
    # injector is inert in the parent, so the serial fallback must
    # reproduce the clean run exactly.
    injector = FaultInjector(_sphere, p_exit=1.0, seed=3)
    with PopulationEvaluator(injector, backend="fleet", workers=2,
                             max_pool_rebuilds=1,
                             backoff_base=0.01) as evaluator:
        values = evaluator(population)
        assert evaluator.health.pool_rebuilds == 1
        assert evaluator.health.serial_fallback
        assert evaluator._fleet is None

    np.testing.assert_array_equal(values, clean)
    assert not _leaked_segments()
    names = [record["event"] for record in journal()]
    assert "fleet_spawn" in names
    assert "pool_rebuild" in names
    assert "serial_fallback" in names


# ----------------------------------------------------------------------
# shared-buffer growth
# ----------------------------------------------------------------------

def test_fleet_capacity_grows_with_population(journal):
    with PopulationEvaluator(_sphere, backend="fleet", workers=2,
                             fleet_capacity=4) as evaluator:
        small = np.random.default_rng(0).random((3, 2))
        np.testing.assert_array_equal(
            evaluator(small), _sphere_batch(small))
        first_names = evaluator._fleet.segment_names
        large = np.random.default_rng(1).random((10, 2))
        np.testing.assert_array_equal(
            evaluator(large), _sphere_batch(large))
        assert evaluator._fleet.capacity >= 10
        # Growth replaced the segments; the old ones are unlinked.
        assert evaluator._fleet.segment_names != first_names
    assert not _leaked_segments()
    names = [record["event"] for record in journal()]
    assert "segment_attach" in names
    assert "segment_detach" in names


# ----------------------------------------------------------------------
# measured backend selection
# ----------------------------------------------------------------------

def test_auto_backend_commits_and_journals_decision(journal):
    population = np.random.default_rng(2).random((16, 3))
    reference = _sphere_batch(population)
    with PopulationEvaluator(_sphere, objective_batch=_sphere_batch,
                             backend="auto", workers=2) as evaluator:
        for _ in range(3):
            np.testing.assert_array_equal(evaluator(population), reference)
        assert evaluator.backend in ("batch", "fleet")
    decisions = [record for record in journal()
                 if record["event"] == "backend_decision"]
    assert len(decisions) == 1
    assert decisions[0]["chosen"] == evaluator.backend
    assert set(decisions[0]["candidates"]) == {"batch", "fleet"}
