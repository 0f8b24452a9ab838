"""Solver-tier contracts: sparse plan, selection, isolation, copies.

Companion to the random-circuit equivalence sweep — this file pins the
*contract* surface of the solve tiers: the dense kernel never mutates
its input, ``BatchACResult.candidate`` detaches, ``CompiledTemplate``
accepts only ``"dense"`` or ``"sparse"``, guards sample the reduced
matrix, and the Woodbury residual check falls ill-conditioned
candidates back to full refactorization.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.compiled import (
    BatchNoiseSource,
    solve_ac_batch,
    solve_tensor_batch,
)
from repro.analysis.netlist import Circuit
from repro.analysis.sparsemna import (
    MutableGroup,
    PatternError,
    build_plan,
    structural_costs,
)
from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompileError, CompiledTemplate
from repro.experiments.common import reference_device
from repro.guards.modes import guard_mode
from repro.obs.metrics import Metrics, get_metrics, set_metrics
from repro.rf.frequency import FrequencyGrid

GRID = FrequencyGrid.linear(1.0e9, 2.0e9, 5)


@pytest.fixture()
def fresh_metrics():
    previous = get_metrics()
    metrics = Metrics()
    set_metrics(metrics)
    yield metrics
    set_metrics(previous)


@pytest.fixture(scope="module")
def lna_template():
    return AmplifierTemplate(reference_device().small_signal)


@pytest.fixture(scope="module")
def sparse_engine(lna_template):
    return CompiledTemplate(lna_template, solver="sparse", verify=False)


def _varying_tensor(n_batch=4, n_nodes=4):
    """A healthy same-topology batch whose candidates differ in a few
    entries."""
    f = GRID.f_hz
    y = np.zeros((n_batch, f.size, n_nodes, n_nodes), dtype=complex)
    g = 1.0 / 75.0
    for a, b in ((0, 2), (2, 3), (3, 1)):
        y[:, :, a, a] += g
        y[:, :, b, b] += g
        y[:, :, a, b] -= g
        y[:, :, b, a] -= g
    for i in range(n_batch):
        y[i, :, 2, 2] += 1e-3 * (1.0 + 0.25 * i)
    return y


PORTS = np.array([0, 1])


# ----------------------------------------------------------------------
# non-mutating kernel
# ----------------------------------------------------------------------

class TestNonMutatingKernel:
    def test_solve_tensor_batch_leaves_input_bit_identical(self):
        y = _varying_tensor()
        psd = np.full((4, GRID.f_hz.size), 1e-20)
        sources = [BatchNoiseSource(
            np.array([[1.0], [0.0], [0.0], [0.0]], dtype=complex), psd
        )]
        before = y.tobytes()
        solve_tensor_batch(y, PORTS, 50.0, sources)
        assert y.tobytes() == before

    def test_solver_argument_validated(self):
        for solver in ("bogus", "auto"):
            with pytest.raises(ValueError, match="solver"):
                CompiledTemplate(None, solver=solver)


# ----------------------------------------------------------------------
# candidate() detaches
# ----------------------------------------------------------------------

def _divider(r_top: float) -> Circuit:
    circuit = Circuit("div")
    circuit.port("p1", "in")
    circuit.port("p2", "out")
    circuit.resistor("Rtop", "in", "out", r_top)
    circuit.resistor("Rbot", "out", "gnd", 50.0)
    return circuit


def test_candidate_returns_detached_copy():
    batch = solve_ac_batch([_divider(100.0), _divider(200.0)], GRID,
                           probe_nodes=("out",))
    view = batch.candidate(0)
    s_before = batch.s.copy()
    cy_before = batch.cy.copy()
    transfers_before = batch.node_transfers.copy()
    view.s[:] = 99.0
    view.cy[:] = 99.0
    view.node_transfers[:] = 99.0
    np.testing.assert_array_equal(batch.s, s_before)
    np.testing.assert_array_equal(batch.cy, cy_before)
    np.testing.assert_array_equal(batch.node_transfers, transfers_before)


# ----------------------------------------------------------------------
# tier bookkeeping
# ----------------------------------------------------------------------

def test_sparse_uncondensable_template_raises(monkeypatch, lna_template):
    import repro.core.engine as engine

    def singular(*args, **kwargs):
        raise PatternError("constant internal block is singular")

    monkeypatch.setattr(engine, "build_plan", singular)
    with pytest.raises(CompileError, match="cannot be condensed"):
        CompiledTemplate(lna_template, solver="sparse", verify=False)


def test_structural_costs_scale_with_reduction():
    wide = structural_costs(40, 5, 30, 2)
    assert wide["sparse"] < wide["dense"]
    flat = structural_costs(6, 6, 30, 2)
    assert flat["sparse"] >= flat["dense"] * 0.1  # no free lunch


def test_engine_pickle_round_trips_solver(sparse_engine):
    clone = pickle.loads(pickle.dumps(sparse_engine))
    assert clone.solver == "sparse"
    assert clone._plan is not None
    pop = np.random.default_rng(3).random((4, len(DesignVariables.NAMES)))
    a = sparse_engine.performance_batch(pop)
    b = clone.performance_batch(pop)
    for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min", "ids"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


# ----------------------------------------------------------------------
# guards + isolation on the sparse path
# ----------------------------------------------------------------------

def test_sparse_isolated_samples_conditioning_guard(fresh_metrics,
                                                    sparse_engine):
    pop = np.random.default_rng(5).random((4, len(DesignVariables.NAMES)))
    with guard_mode("warn"):
        batch, failures, n_fallbacks = (
            sparse_engine.performance_batch_isolated(pop)
        )
    assert all(f is None for f in failures)
    assert n_fallbacks == 0
    summary = fresh_metrics.histogram_summary("mna.condition_log10")
    assert summary["count"] >= 1
    # Healthy rows match the plain sparse batch path.
    plain = sparse_engine.performance_batch(pop)
    for name in ("nf_db", "gt_db", "mu_min"):
        np.testing.assert_allclose(getattr(batch, name),
                                   getattr(plain, name),
                                   rtol=1e-12, atol=1e-12)


def test_sparse_isolated_splices_dense_rescue(monkeypatch, fresh_metrics,
                                              sparse_engine):
    """A row the sparse path cannot represent is re-run through the
    dense isolated machinery and spliced back — not zero-filled."""
    pop = np.random.default_rng(11).random((4, len(DesignVariables.NAMES)))
    reference = sparse_engine.performance_batch(pop)
    plan = sparse_engine._plan
    real = plan.solve_rows

    def poisoned(coeffs, n_batch, update="full"):
        out = real(coeffs, n_batch, update=update)
        if n_batch == 4:
            out = np.array(out)
            out[1] = np.nan
        return out

    monkeypatch.setattr(plan, "solve_rows", poisoned)
    batch, failures, _ = sparse_engine.performance_batch_isolated(pop)
    assert all(f is None for f in failures)
    assert fresh_metrics.counter("mna.sparse_isolated_fallbacks") == 1
    # The rescued row agrees with the healthy reference; rows 0/2/3
    # never left the sparse path.
    for name in ("nf_db", "gt_db", "mu_min"):
        np.testing.assert_allclose(getattr(batch, name),
                                   getattr(reference, name),
                                   rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# Woodbury update path
# ----------------------------------------------------------------------

def _toy_plan(residual_tol=None):
    rng = np.random.default_rng(0)
    n, n_freq = 5, 3
    base = (rng.normal(size=(n_freq, n, n))
            + 1j * rng.normal(size=(n_freq, n, n))) * 0.01
    idx = np.arange(n)
    base[:, idx, idx] += 0.2
    group = MutableGroup("g23", np.array([2, 3, 2, 3]),
                         np.array([2, 3, 3, 2]),
                         np.array([1.0, 1.0, -1.0, -1.0]))
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = 1.0
    rhs[1, 1] = 1.0
    kwargs = {}
    if residual_tol is not None:
        kwargs["residual_tol"] = residual_tol
    plan = build_plan(base, [group], np.array([0, 1]), 50.0, rhs,
                      out_rows=[0, 1], **kwargs)
    coeffs = {"g23": rng.uniform(1e-3, 5e-2, size=(6, 1))
              * np.ones((1, n_freq))}
    return plan, coeffs


def test_engine_bias_only_batch_uses_woodbury(sparse_engine):
    n = len(DesignVariables.NAMES)
    pop = np.tile(np.full(n, 0.5), (6, 1))
    pop[:, 0] = np.linspace(0.3, 0.7, 6)  # vary the bias only
    sparse_engine.performance_batch(pop)
    assert sparse_engine._plan.last_update == "woodbury"
    # A fully random population activates too many groups for the
    # update to win; auto must refactorize instead.
    sparse_engine.performance_batch(
        np.random.default_rng(2).random((6, n))
    )
    assert sparse_engine._plan.last_update == "full"


def test_woodbury_residual_fallback_refactorizes(fresh_metrics):
    plan, coeffs = _toy_plan()
    full = plan.solve_rows(coeffs, 6, update="full")
    wood = plan.solve_rows(coeffs, 6, update="woodbury")
    assert plan.last_update == "woodbury"
    np.testing.assert_allclose(wood, full, rtol=1e-10, atol=1e-14)
    assert fresh_metrics.counter("mna.woodbury_solves") == 6

    # An impossible residual tolerance forces the splice path: every
    # candidate is flagged and refactorized in full, and the answers
    # still come out right.
    strict_plan, _ = _toy_plan(residual_tol=0.0)
    spliced = strict_plan.solve_rows(coeffs, 6, update="woodbury")
    assert strict_plan.last_update == "woodbury"
    np.testing.assert_allclose(spliced, full, rtol=1e-12, atol=1e-15)
    assert fresh_metrics.counter("mna.woodbury_fallbacks") >= 5
