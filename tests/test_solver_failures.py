"""Per-candidate failure isolation in the solver and evaluation stack.

Covers the degradation chain bottom-up: the isolated tensor solve
(singular rows come back flagged, healthy rows bit-identical), the
compiled engine's bad-bias masking and scalar fallback, and the
LnaEvaluator's penalty semantics (failures counted, journaled, and
never cached as successes).
"""

import re

import numpy as np
import pytest

from repro.analysis.compiled import (
    BatchNoiseSource,
    solve_tensor_batch,
    solve_tensor_batch_isolated,
)
from repro.analysis.conditioning import equilibrated_solve
from repro.analysis.dc import DcConvergenceError
from repro.core.amplifier import (
    PENALTY_GT_DB,
    PENALTY_NF_DB,
    AmplifierPerformance,
    AmplifierTemplate,
    DesignVariables,
)
from repro.core.bands import design_grid, stability_grid
from repro.core.engine import CompiledTemplate
from repro.core.objectives import LnaEvaluator
from repro.experiments.common import reference_device
from repro.guards.modes import guard_mode
from repro.obs.metrics import Metrics, set_metrics
from repro.optimize.faults import CATEGORY_BAD_BIAS, CATEGORY_DC


# ----------------------------------------------------------------------
# solve_tensor_batch_isolated
# ----------------------------------------------------------------------

def _healthy_tensor(n_batch=4, n_freq=3, n_nodes=2, scale=1.0):
    """A well-conditioned two-node ladder, batched."""
    y = np.zeros((n_batch, n_freq, n_nodes, n_nodes), dtype=complex)
    for b in range(n_batch):
        g = scale * (1.0 + 0.1 * b)
        y[b, :, 0, 0] = 2.0 * g
        y[b, :, 1, 1] = 2.0 * g
        y[b, :, 0, 1] = -g
        y[b, :, 1, 0] = -g
    return y


PORTS = np.array([0, 1])
Z0 = 50.0


def test_isolated_matches_plain_solve_on_healthy_batch():
    y = _healthy_tensor()
    psd = np.full((4, 3), 1e-20)  # per-candidate scalar density
    sources = [BatchNoiseSource(np.array([[1.0], [0.0]], dtype=complex),
                                psd)]
    s_ref, cy_ref, _ = solve_tensor_batch(y.copy(), PORTS, Z0, sources)
    s, cy, failed = solve_tensor_batch_isolated(y, PORTS, Z0, sources)
    assert not np.any(failed)
    assert np.array_equal(s, s_ref)
    assert np.array_equal(cy, cy_ref)


def test_isolated_does_not_mutate_input_tensor():
    y = _healthy_tensor()
    before = y.copy()
    solve_tensor_batch_isolated(y, PORTS, Z0)
    assert np.array_equal(y, before)
    # The raising variant used to stamp the port loads in place; both
    # kernels are non-mutating now.
    solve_tensor_batch(y, PORTS, Z0)
    assert np.array_equal(y, before)


def _make_singular(y, index):
    """Make row *index* exactly singular after the 1/z0 load stamping."""
    y[index] = 1.0
    y[index, :, 0, 0] -= 1.0 / Z0
    y[index, :, 1, 1] -= 1.0 / Z0


def test_isolated_flags_singular_rows_healthy_rows_bit_identical():
    y = _healthy_tensor(n_batch=5)
    _make_singular(y, 1)
    _make_singular(y, 3)
    psd = np.full((5, 3), 1e-20)
    sources = [BatchNoiseSource(np.array([[1.0], [0.0]], dtype=complex),
                                psd)]
    s, cy, failed = solve_tensor_batch_isolated(y, PORTS, Z0, sources)
    assert failed.tolist() == [False, True, False, True, False]
    assert np.all(s[[1, 3]] == 0.0)
    assert np.all(cy[[1, 3]] == 0.0)

    # Healthy rows must equal a batch solve of only the healthy rows,
    # with the per-candidate noise densities sliced accordingly.
    healthy = [0, 2, 4]
    sub_sources = [BatchNoiseSource(sources[0].columns, psd[healthy])]
    s_ref, cy_ref, _ = solve_tensor_batch(y[healthy].copy(), PORTS, Z0,
                                          sub_sources)
    assert np.array_equal(s[healthy], s_ref)
    assert np.array_equal(cy[healthy], cy_ref)


def test_isolated_all_rows_singular():
    # Pre-compensate the diagonal so the tensor is exactly singular
    # (rank 1) *after* the solver stamps the 1/z0 reference loads.
    y = np.ones((3, 2, 2, 2), dtype=complex)
    y[:, :, 0, 0] -= 1.0 / Z0
    y[:, :, 1, 1] -= 1.0 / Z0
    s, cy, failed = solve_tensor_batch_isolated(y, PORTS, Z0)
    assert np.all(failed)
    assert np.all(s == 0.0) and np.all(cy == 0.0)


@pytest.mark.parametrize("batch_raises", [True, False])
@pytest.mark.parametrize("mode", ["warn", "off"])
def test_isolated_rescue_loop(monkeypatch, batch_raises, mode):
    """Rows the full batch cannot deliver take one loop: a plain
    re-solve of the row alone only when the full batch raised, then the
    equilibrated escalation when guards are on, else a failed flag."""
    import repro.analysis.compiled as kernel

    real = kernel.solve_tensor_batch
    calls = []

    def flaky(y, port_rows, z0, sources=(), probe_rows=(),
              _solve=np.linalg.solve):
        escalated = _solve is equilibrated_solve
        calls.append(("equilibrated" if escalated else "plain", len(y)))
        if len(y) > 1 and batch_raises:
            raise ValueError("singular circuit")
        s, cy, transfers = real(y, port_rows, z0, sources, probe_rows,
                                _solve=_solve)
        if not escalated:
            # Row 1 (diagonal 2 * 1.1) comes back non-finite unless
            # the escalation solves it.
            s[y[:, 0, 0, 0] == 2.2] = np.nan
        return s, cy, transfers

    monkeypatch.setattr(kernel, "solve_tensor_batch", flaky)
    metrics = Metrics()
    previous = set_metrics(metrics)
    try:
        with guard_mode(mode):
            s, cy, failed = solve_tensor_batch_isolated(
                _healthy_tensor(), PORTS, Z0)
    finally:
        set_metrics(previous)

    rescued = mode == "warn"
    row_1 = [("plain", 1)] * batch_raises + [("equilibrated", 1)] * rescued
    if batch_raises:   # rows 0..3 each re-solved alone
        assert calls == [("plain", 4), ("plain", 1)] + row_1 \
            + [("plain", 1)] * 2
    else:              # only row 1 is retried, and only escalated
        assert calls == [("plain", 4)] + row_1
    assert failed.tolist() == [False, not rescued, False, False]
    s_ref, cy_ref, _ = real(_healthy_tensor(), PORTS, Z0)
    healthy = [0, 2, 3]
    np.testing.assert_allclose(s[healthy], s_ref[healthy], rtol=1e-12)
    if rescued:
        np.testing.assert_allclose(s[1], s_ref[1], rtol=1e-9)
    else:
        assert np.all(s[1] == 0.0) and np.all(cy[1] == 0.0)
    assert metrics.counter("mna.equilibrated_rescues") == int(rescued)
    assert metrics.counter("mna.batch_refactorizations") == int(batch_raises)
    assert metrics.counter("mna.failed_rows") == int(not rescued)


def test_isolated_shape_validation():
    with pytest.raises(ValueError):
        solve_tensor_batch_isolated(np.zeros((2, 3, 4)), PORTS, Z0)


# ----------------------------------------------------------------------
# compiled engine: bad-bias masking and penalty rows
# ----------------------------------------------------------------------

class BiasFaultDcModel:
    """Delegates to the real DC model, but reports a non-saturated
    device (gds < 0) below a vgs threshold."""

    def __init__(self, inner, vgs_threshold):
        self._inner = inner
        self._threshold = float(vgs_threshold)

    def gds(self, vgs, vds):
        g = np.asarray(self._inner.gds(vgs, vds), dtype=float)
        return np.where(np.asarray(vgs) < self._threshold, -1e-3, g)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ExplodingDcModel:
    """Raises DcConvergenceError whenever the bias point is queried."""

    def __init__(self, inner):
        self._inner = inner

    def gm(self, vgs, vds):
        raise DcConvergenceError("Newton iteration diverged")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class LowBiasExplodingDcModel:
    """Raises DcConvergenceError when any queried vgs lies below a
    threshold, so one low-bias row sinks a whole batch query."""

    def __init__(self, inner, vgs_threshold):
        self._inner = inner
        self._threshold = float(vgs_threshold)

    def gm(self, vgs, vds):
        if np.any(np.asarray(vgs) < self._threshold):
            raise DcConvergenceError("Newton iteration diverged")
        return self._inner.gm(vgs, vds)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def template():
    # reference_device() is lru_cached, so the small-signal device is
    # shared process-wide; restore its DC model after each test no
    # matter which fault wrapper the test installed.
    device = reference_device().small_signal
    honest = device.dc_model
    yield AmplifierTemplate(device)
    device.dc_model = honest


@pytest.fixture(scope="module")
def grids():
    return design_grid(5), stability_grid(6)


def test_engine_isolated_penalizes_bad_bias_rows(template, grids):
    band, guard = grids
    compiled = CompiledTemplate(template, band, guard)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (4, 1))
    unit[1, 0] = 0.0   # vgs at the box floor (0.35 V) -> flagged bad
    unit[3, 0] = 0.02
    reference = compiled.performance_batch(unit)

    # Patch after compilation so _verify ran against the honest model.
    template.device.dc_model = BiasFaultDcModel(template.device.dc_model,
                                                vgs_threshold=0.40)
    batch, failures, n_fallbacks = compiled.performance_batch_isolated(unit)
    assert n_fallbacks == 0
    assert [f is None for f in failures] == [True, False, True, False]
    assert failures[1].category == CATEGORY_BAD_BIAS
    assert failures[3].category == CATEGORY_BAD_BIAS
    # Penalty rows carry the documented worst-case figures.
    assert batch.nf_max_db[1] == PENALTY_NF_DB
    assert batch.gt_min_db[3] == PENALTY_GT_DB
    assert batch.mu_min[1] == 0.0
    # Healthy rows are bit-identical to the unpatched batch path.
    for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min", "ids"):
        got = getattr(batch, name)
        expected = getattr(reference, name)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[2], expected[2])


def test_engine_raising_path_still_raises_on_bad_bias(template, grids):
    band, guard = grids
    compiled = CompiledTemplate(template, band, guard)
    template.device.dc_model = BiasFaultDcModel(template.device.dc_model,
                                                vgs_threshold=0.40)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (2, 1))
    unit[0, 0] = 0.0
    with pytest.raises(ValueError, match="saturated forward region"):
        compiled.performance_batch(unit)


@pytest.mark.parametrize("solver", ["dense", "sparse"])
def test_strict_view_returns_rows_the_scalar_chain_rescues(
        monkeypatch, template, grids, solver):
    band, guard = grids
    compiled = CompiledTemplate(template, band, guard, solver=solver)
    tier_solve = f"_isolated_{solver}"
    real = getattr(compiled, tier_solve)

    def flag_row_1(*args):
        s, cy_band, failed = real(*args)
        failed = failed.copy()
        failed[1] = True
        return s, cy_band, failed

    monkeypatch.setattr(compiled, tier_solve, flag_row_1)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (3, 1))
    unit[1, 2] = 0.3
    _, failures, n_fallbacks = compiled.performance_batch_isolated(unit)
    assert failures == [None, None, None] and n_fallbacks == 1

    batch = compiled.performance_batch(unit)
    scalar = template.evaluate(DesignVariables.from_unit(unit[1]),
                               band, guard)
    for name in ("nf_db", "gt_db", "s11_db", "s22_db"):
        np.testing.assert_allclose(getattr(batch, name)[1],
                                   getattr(scalar, name), rtol=0, atol=1e-9)
    assert batch.mu_min[1] == pytest.approx(scalar.mu_min, abs=1e-9)
    assert batch.ids[1] == pytest.approx(scalar.ids, abs=1e-9)


@pytest.mark.parametrize("solver", ["dense", "sparse"])
def test_strict_view_raises_naming_the_failure_category(
        template, grids, solver):
    band, guard = grids
    compiled = CompiledTemplate(template, band, guard, solver=solver)
    template.device.dc_model = LowBiasExplodingDcModel(
        template.device.dc_model, vgs_threshold=0.40)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (3, 1))
    unit[1, 0] = 0.0   # vgs at the box floor: nothing can evaluate it
    physical = np.vstack([DesignVariables.from_unit(u).to_vector()
                          for u in unit])
    expected = re.escape(f"candidate 1: [{CATEGORY_DC}]")
    with pytest.raises(ValueError, match=expected):
        compiled.performance_batch(unit)
    with pytest.raises(ValueError, match=expected):
        compiled.performance_batch_physical(physical)


def test_dc_convergence_error_propagates_through_scalar_evaluate(
        template, grids):
    band, guard = grids
    template.device.dc_model = ExplodingDcModel(template.device.dc_model)
    with pytest.raises(DcConvergenceError):
        template.evaluate(DesignVariables(), band, guard)


# ----------------------------------------------------------------------
# LnaEvaluator: penalties counted, logged, never cached
# ----------------------------------------------------------------------

def test_evaluator_absorbs_dc_failure_and_does_not_cache(template, grids):
    band, guard = grids
    evaluator = LnaEvaluator(template, band, guard)
    template.device.dc_model = ExplodingDcModel(template.device.dc_model)

    x = np.full(len(DesignVariables.NAMES), 0.5)
    perf = evaluator.performance(x)
    assert perf.is_failure
    assert perf.failure.category == CATEGORY_DC
    assert perf.nf_max_db == PENALTY_NF_DB
    assert evaluator.health.failures == {CATEGORY_DC: 1}
    assert evaluator.n_solves == 1

    # Same point again: the failure was not cached, so it re-attempts.
    evaluator.performance(x)
    assert evaluator.n_solves == 2
    assert evaluator.cache_hits == 0
    assert evaluator.health.failures == {CATEGORY_DC: 2}


def test_evaluator_recovers_after_transient_failure(template, grids):
    band, guard = grids
    evaluator = LnaEvaluator(template, band, guard)
    honest = template.device.dc_model
    template.device.dc_model = ExplodingDcModel(honest)
    x = np.full(len(DesignVariables.NAMES), 0.5)
    assert evaluator.performance(x).is_failure

    template.device.dc_model = honest  # the "transient" clears
    recovered = evaluator.performance(x)
    assert not recovered.is_failure
    assert np.all(np.isfinite(recovered.nf_db))
    # ... and the healthy result does get cached.
    again = evaluator.performance(x)
    assert again is recovered
    assert evaluator.cache_hits == 1


def test_evaluator_batch_rescues_rows_when_value_model_raises(
        template, grids):
    """A DC model that raises for the batch as a whole sends every row
    down the scalar chain: healthy rows come back, only the low-bias
    row is a penalty, and nothing failed is cached."""
    band, guard = grids
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (3, 1))
    unit[1, 0] = 0.0   # vgs at the box floor (0.35 V)
    unit[2, 1] = 0.6   # a distinct healthy row (no de-duplication)
    reference = LnaEvaluator(template, band, guard).performance_batch(unit)

    evaluator = LnaEvaluator(template, band, guard)
    template.device.dc_model = LowBiasExplodingDcModel(
        template.device.dc_model, vgs_threshold=0.40)
    perfs = evaluator.performance_batch(unit)
    assert [p.is_failure for p in perfs] == [False, True, False]
    assert perfs[1].failure.category == CATEGORY_DC
    assert evaluator.health.failures == {CATEGORY_DC: 1}
    assert evaluator.health.engine_fallbacks == 2
    for k in (0, 2):
        np.testing.assert_allclose(perfs[k].nf_db, reference[k].nf_db,
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(perfs[k].gt_db, reference[k].gt_db,
                                   rtol=1e-9, atol=1e-9)

    # The rescued rows were cached; the failed row is solved again.
    again = evaluator.performance_batch(unit)
    assert again[0] is perfs[0] and again[2] is perfs[2]
    assert again[1].is_failure
    assert evaluator.cache_hits == 2
    assert evaluator.n_solves == 4
    assert evaluator.health.failures == {CATEGORY_DC: 2}


def test_evaluator_compiled_batch_mixes_penalty_and_healthy(
        template, grids):
    band, guard = grids
    evaluator = LnaEvaluator(template, band, guard)
    template.device.dc_model = BiasFaultDcModel(template.device.dc_model,
                                                vgs_threshold=0.40)
    n = len(DesignVariables.NAMES)
    unit = np.tile(np.full(n, 0.5), (3, 1))
    unit[1, 0] = 0.0
    perfs = evaluator.performance_batch(unit)
    assert not perfs[0].is_failure
    assert perfs[1].is_failure
    assert perfs[1].failure.category == CATEGORY_BAD_BIAS
    assert evaluator.health.failures == {CATEGORY_BAD_BIAS: 1}

    # Healthy results were cached; the failed one was not.
    perfs2 = evaluator.performance_batch(unit)
    assert evaluator.health.failures == {CATEGORY_BAD_BIAS: 2}
    assert perfs2[0] is perfs[0]


def test_penalty_performance_violates_every_constraint():
    grid = design_grid(5)
    perf = AmplifierPerformance.penalty(grid)
    assert perf.failure is None and not perf.is_failure
    assert perf.nf_max_db == PENALTY_NF_DB
    assert perf.gt_min_db == PENALTY_GT_DB
    assert perf.mu_min == 0.0
    assert np.all(perf.s11_db == 0.0)
    assert np.all(np.isfinite(perf.nf_db))
