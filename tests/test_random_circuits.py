"""Property-based tests on randomly generated passive circuits.

A random R/L/C mesh, whatever its topology, must come out of the MNA
solver reciprocal and passive, with a Hermitian positive-semidefinite
noise correlation; and when every resistor sits at T0 and the network
is matched-ish, the noise figure must never fall below 0 dB.  These
invariants catch sign errors in stamps and correlation assembly that
no hand-written example would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.acsolver import assemble_tensor, solve_ac
from repro.analysis.compiled import solve_ac_batch
from repro.analysis.netlist import Circuit
from repro.analysis.sparsemna import MutableGroup, build_plan
from repro.rf.frequency import FrequencyGrid
from repro.util.constants import T0_KELVIN


def _random_passive_circuit(seed: int, value_rng=None) -> Circuit:
    """A random connected R/L/C network between two ports and ground.

    *seed* fixes the topology **and** the nominal element values; a
    *value_rng*, when given, rescales every value without touching the
    topology draw — circuits sharing a seed then form a same-topology
    batch with different element values.
    """
    rng = np.random.default_rng(seed)
    n_internal = int(rng.integers(1, 4))
    nodes = ["in", "out"] + [f"n{k}" for k in range(n_internal)] + ["gnd"]
    circuit = Circuit(f"random{seed}")
    circuit.port("p1", "in")
    circuit.port("p2", "out")

    # Spanning chain guarantees connectivity of every node to a port.
    chain = ["in"] + [f"n{k}" for k in range(n_internal)] + ["out"]
    element_id = 0

    def scale() -> float:
        if value_rng is None:
            return 1.0
        return float(value_rng.uniform(0.5, 2.0))

    def add_random_element(node_a, node_b):
        nonlocal element_id
        kind = rng.integers(3)
        name = f"E{element_id}"
        element_id += 1
        if kind == 0:
            circuit.resistor(name, node_a, node_b,
                             float(10 ** rng.uniform(0.5, 3.0)) * scale(),
                             temperature=T0_KELVIN)
        elif kind == 1:
            circuit.capacitor(name, node_a, node_b,
                              float(10 ** rng.uniform(-13, -10.5)) * scale())
        else:
            circuit.inductor(name, node_a, node_b,
                             float(10 ** rng.uniform(-9.5, -7.5)) * scale())

    for a, b in zip(chain[:-1], chain[1:]):
        add_random_element(a, b)
    # A few extra random edges, including to ground.
    n_extra = int(rng.integers(1, 5))
    for __ in range(n_extra):
        a, b = rng.choice(nodes, size=2, replace=False)
        add_random_element(a, b)
    # Ensure a resistive path to ground exists so the matrix is robust.
    circuit.resistor("Rgnd", str(rng.choice(chain)), "gnd", 500.0,
                     temperature=T0_KELVIN)
    return circuit


GRID = FrequencyGrid.logarithmic(0.2e9, 5e9, 6)


class TestRandomPassiveCircuits:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_and_passive(self, seed):
        circuit = _random_passive_circuit(seed)
        result = solve_ac(circuit, GRID)
        network = result.as_twoport()
        assert network.is_reciprocal(tol=1e-8)
        assert network.is_passive(tol=1e-8)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_noise_correlation_hermitian_psd(self, seed):
        circuit = _random_passive_circuit(seed)
        result = solve_ac(circuit, GRID)
        cy = result.cy
        np.testing.assert_allclose(
            cy, np.conjugate(np.swapaxes(cy, 1, 2)), atol=1e-30
        )
        eigenvalues = np.linalg.eigvalsh(cy)
        assert np.all(eigenvalues >= -1e-28)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_noise_figure_at_least_zero_db(self, seed):
        circuit = _random_passive_circuit(seed)
        noisy = solve_ac(circuit, GRID).as_noisy_twoport()
        # Any passive network at T0 has F >= 1 for any positive-real
        # source admittance.
        for ys in (1 / 50.0, 1 / 50.0 + 0.01j, 1 / 200.0 - 0.005j):
            assert np.all(noisy.noise_factor(ys) >= 1.0 - 1e-9)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_mna_noise_consistent_with_bosma(self, seed):
        # Independent check: CY of the whole passive network must equal
        # 2kT Re(Y_network) (Bosma's theorem) since everything sits at T0.
        from repro.util.constants import BOLTZMANN

        circuit = _random_passive_circuit(seed)
        result = solve_ac(circuit, GRID)
        expected = 2.0 * BOLTZMANN * T0_KELVIN * result.y.real
        np.testing.assert_allclose(result.cy.real, expected, rtol=1e-6,
                                    atol=1e-32)
        np.testing.assert_allclose(result.cy.imag, 0.0, atol=1e-26)


class TestBatchedSolverEquivalence:
    """The batched MNA path must reproduce solve_ac candidate by candidate."""

    @staticmethod
    def _batch(seed: int, n: int = 4):
        return [
            _random_passive_circuit(seed,
                                    value_rng=np.random.default_rng(7000 + k))
            for k in range(n)
        ]

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_s_cy_and_transfers_match_scalar(self, seed):
        circuits = self._batch(seed)
        probes = ("out", "in")
        batch = solve_ac_batch(circuits, GRID, probe_nodes=probes)
        assert len(batch) == len(circuits)
        for i, circuit in enumerate(circuits):
            scalar = solve_ac(circuit, GRID, probe_nodes=probes)
            np.testing.assert_allclose(batch.s[i], scalar.s,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(batch.cy[i], scalar.cy,
                                       rtol=1e-9, atol=1e-40)
            np.testing.assert_allclose(batch.node_transfers[i],
                                       scalar.node_transfers,
                                       rtol=1e-9, atol=1e-12)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_candidate_view_round_trips(self, seed):
        circuits = self._batch(seed, n=3)
        batch = solve_ac_batch(circuits, GRID)
        view = batch.candidate(1)
        scalar = solve_ac(circuits[1], GRID)
        np.testing.assert_allclose(view.s, scalar.s, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(view.cy, scalar.cy, rtol=1e-9,
                                   atol=1e-40)
        assert view.port_names == scalar.port_names

    def test_rejects_mismatched_topology(self):
        circuits = [_random_passive_circuit(3), _random_passive_circuit(5)]
        with pytest.raises(ValueError):
            solve_ac_batch(circuits, GRID)


class _PartialRescale:
    """A *value_rng* that rescales only some elements of the network.

    The same elements vary for every candidate (the picks come from a
    topology-seeded stream), so the rest of the network is constant and
    the sparse plan has internal nodes to condense.  The first element
    always varies, so the batch is never constant.
    """

    def __init__(self, seed: int, candidate: int):
        self._pick = np.random.default_rng(seed)
        self._value = np.random.default_rng(9000 + candidate)
        self._count = 0

    def uniform(self, low: float, high: float) -> float:
        value = float(self._value.uniform(low, high))
        varies = self._count == 0 or self._pick.random() < 0.5
        self._count += 1
        return value if varies else 1.0


class TestSparseSolverEquivalence:
    """The condensed (sparse) tier must agree with dense to <= 1e-9."""

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_sparse_matches_dense_on_random_ladders(self, seed):
        circuits = [_random_passive_circuit(seed, _PartialRescale(seed, k))
                    for k in range(4)]
        reference = circuits[0]
        n_nodes = len(reference.node_names)
        y = np.stack([assemble_tensor(c, GRID.f_hz, n_nodes)
                      for c in circuits])
        ports = np.array([reference.node_index("in"),
                          reference.node_index("out")])
        # Probe rows: the last internal node (condensed out unless a
        # varying element touches it) and a port.
        out_rows = [int(p) for p in ports] + [
            reference.node_index(reference.node_names[-1]),
            reference.node_index("out")]
        rng = np.random.default_rng(seed)
        rhs = np.zeros((n_nodes, 5), dtype=complex)
        rhs[ports[0], 0] = 1.0
        rhs[ports[1], 1] = 1.0
        rhs[:, 2:] = (rng.normal(size=(n_nodes, 3))
                      + 1j * rng.normal(size=(n_nodes, 3)))  # noise-like

        # The mutable hull: one single-entry group per entry that
        # differs from candidate 0 anywhere in the batch.
        base = y[0]
        rows, cols = np.nonzero(np.any(y != base, axis=(0, 1)))
        groups, coeffs = [], {}
        for r, c in zip(rows.tolist(), cols.tolist()):
            name = f"e{r}.{c}"
            groups.append(MutableGroup(name, np.array([r]), np.array([c]),
                                       np.array([1.0])))
            coeffs[name] = y[:, :, r, c] - base[:, r, c]
        plan = build_plan(base, groups, ports, 50.0, rhs, out_rows)
        sparse = plan.solve_rows(coeffs, len(circuits), update="full")

        y_loaded = y.copy()
        for p in ports:
            y_loaded[..., p, p] += 1.0 / 50.0
        dense = np.linalg.solve(
            y_loaded, np.broadcast_to(rhs, y.shape[:2] + rhs.shape)
        )[..., out_rows, :]
        # The condensation reorders the arithmetic, so absolute noise
        # up to ~1e-13 of the dominant entry is expected, not a defect.
        np.testing.assert_allclose(sparse, dense, rtol=1e-9,
                                   atol=1e-13 * np.abs(dense).max())

    def test_sparse_matches_dense_on_lna_template(self):
        from repro.core.amplifier import AmplifierTemplate, DesignVariables
        from repro.core.engine import CompiledTemplate
        from repro.experiments.common import reference_device

        template = AmplifierTemplate(reference_device().small_signal)
        dense = CompiledTemplate(template, solver="dense", verify=False)
        sparse = CompiledTemplate(template, solver="sparse", verify=False)
        pop = np.random.default_rng(7).random((8, len(DesignVariables.NAMES)))
        rd = dense.performance_batch(pop)
        rs = sparse.performance_batch(pop)
        for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min"):
            np.testing.assert_allclose(
                getattr(rs, name), getattr(rd, name), rtol=1e-9, atol=1e-9,
                err_msg=name,
            )

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_sherman_morrison_matches_full_refactorization(self, seed):
        # One rank-1 group varying across the batch: the Woodbury
        # update must agree with per-candidate refactorization.
        circuit = _random_passive_circuit(seed)
        n_nodes = len(circuit.node_names)
        base = assemble_tensor(circuit, GRID.f_hz, n_nodes)
        ports = np.array([circuit.node_index("in"),
                          circuit.node_index("out")])
        rhs = np.zeros((n_nodes, 2), dtype=complex)
        rhs[ports[0], 0] = 1.0
        rhs[ports[1], 1] = 1.0
        group = MutableGroup("gshunt", np.array([ports[0]]),
                             np.array([ports[0]]), np.array([1.0]))
        plan = build_plan(base, [group], ports, 50.0, rhs,
                          out_rows=[int(p) for p in ports])
        rng = np.random.default_rng(seed)
        coeffs = {"gshunt": rng.uniform(1e-3, 2e-2, size=(6, 1))
                  * np.ones((1, GRID.f_hz.size))}
        full = plan.solve_rows(coeffs, 6, update="full")
        assert plan.last_update == "full"
        wood = plan.solve_rows(coeffs, 6, update="woodbury")
        assert plan.last_update == "woodbury"
        np.testing.assert_allclose(wood, full, rtol=1e-9, atol=1e-12)

        # Independent dense reference for the same perturbed batch.
        y = np.broadcast_to(base, (6,) + base.shape).copy()
        y[:, :, ports[0], ports[0]] += coeffs["gshunt"]
        y[:, :, ports[0], ports[0]] += 1.0 / 50.0
        y[:, :, ports[1], ports[1]] += 1.0 / 50.0
        x = np.linalg.solve(y, rhs)
        np.testing.assert_allclose(full, x[:, :, ports, :],
                                   rtol=1e-9, atol=1e-12)
