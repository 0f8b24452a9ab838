"""Compiled LNA evaluation engine: netlist stamps lowered to tensors.

The scalar path (:meth:`AmplifierTemplate.evaluate`) rebuilds the whole
:class:`~repro.analysis.netlist.Circuit` in Python for every candidate
and re-stamps every element into the admittance tensor — fine for one
design, ruinous for population-based optimization where thousands of
candidates share one topology.  :class:`CompiledTemplate` lowers the
netlist **once** into a *stamp plan*:

* a constant base tensor holding every design-invariant element
  (access lines, bias resistor, decoupling, device parasitic shell),
  assembled one time by the ordinary scalar stamping code;
* a short list of :class:`StampSlot` records — precomputed node-index
  arrays for the handful of elements whose value depends on the design
  vector (matching passives, stabilization branches, and the intrinsic
  bias-dependent device elements);
* the matching noise-source plan (constant sources pre-evaluated,
  variable PSDs computed per candidate).

Per-candidate assembly is then pure vectorized NumPy — broadcast the
base tensor to ``(B, F, n, n)``, add ``signs * value`` at the
precomputed indices — and
:func:`repro.analysis.compiled.solve_tensor_batch_isolated` solves the
design grid *and* the stability guard grid for all candidates at once
(the two grids share one stamped tensor along a fused frequency axis;
rows are independent in MNA, so the split solve is exact).

Every public entry point runs one fault-isolated core,
:meth:`CompiledTemplate._batch_isolated`: compiled batch solve, then the
scalar :meth:`AmplifierTemplate.evaluate` for the rows it cannot
deliver, then finite penalty figures.  The ``*_isolated`` methods
return the core's batch with its per-row failures;
:meth:`CompiledTemplate.performance_batch` and
:meth:`~CompiledTemplate.performance_batch_physical` are strict views
of it that raise ``ValueError`` when any row ended as a penalty.

The constructor is the one place a solve tier is chosen:
``CompiledTemplate(..., solver="dense")`` (the default, used by
:class:`~repro.core.objectives.LnaEvaluator`) stamps and solves full
tensors as above; ``solver="sparse"`` (used by the robust corner sweeps
of :mod:`repro.optimize.robust` and :mod:`repro.core.tolerance`)
condenses the candidate-independent block once through
:mod:`repro.analysis.sparsemna` and solves only the small mutable
system per candidate.

Element values are computed by the *same* component models as the
scalar path (:mod:`repro.passives.rlc` factories, the device's DC and
capacitance models), evaluated on ``(B, 1)`` value arrays, so the
numbers agree with the scalar path to floating-point roundoff.  Because
the constant/variable split is an assumption about
:meth:`AmplifierTemplate.build_circuit`, compilation **verifies** it:
the compiled engine is checked against the scalar path at two probe
design points and :class:`CompileError` is raised on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.acsolver import (
    _assemble_tensor,
    _collect_noise_sources,
    _injection,
)
# ``solve_tensor_batch`` is re-exported beside the isolated kernel the
# engine calls: perfbench wraps both dense kernels by their names here.
from repro.analysis.compiled import (  # noqa: F401 - re-export
    BatchNoiseSource,
    solve_tensor_batch,
    solve_tensor_batch_isolated,
)
from repro.analysis.conditioning import observe_condition
from repro.analysis.sparsemna import MutableGroup, PatternError, build_plan
from repro.analysis.netlist import (
    Capacitor,
    NoiseCurrent,
    Resistor,
    Vccs,
    YBlock,
)
from repro.core.amplifier import (
    AmplifierPerformance,
    AmplifierTemplate,
    DesignVariables,
)
from repro.core.bands import design_grid, stability_grid
from repro.guards import contracts as _contracts
from repro.guards import modes as _guard_modes
from repro.obs import journal as _obs_journal
from repro.obs import metrics as _obs_metrics
from repro.obs import tracer as _obs_tracer
from repro.optimize.faults import (
    CATEGORY_BAD_BIAS,
    CATEGORY_CONTRACT,
    CATEGORY_NON_FINITE,
    CATEGORY_SINGULAR,
    EvaluationFailure,
    FAILURE_EXCEPTIONS,
    classify_exception,
)
from repro.passives.rlc import (
    _two_terminal_stack,
    coilcraft_style_inductor,
    murata_style_capacitor,
)
from repro.rf import conversions as cv
from repro.rf.frequency import FrequencyGrid
from repro.rf.noise import ca_from_cy
from repro.rf.stability import mu_source
from repro.util.constants import BOLTZMANN, T_AMBIENT

__all__ = [
    "CompileError",
    "CompiledTemplate",
    "CompiledMetricObjective",
    "BatchPerformance",
    "StampSlot",
]

_2KT0 = 2.0 * BOLTZMANN * 290.0


def _performance_is_finite(perf: AmplifierPerformance) -> bool:
    """Whether every figure of merit of a scalar evaluation is finite."""
    return bool(
        np.all(np.isfinite(perf.nf_db))
        and np.all(np.isfinite(perf.gt_db))
        and np.all(np.isfinite(perf.s11_db))
        and np.all(np.isfinite(perf.s22_db))
        and np.isfinite(perf.mu_min)
        and np.isfinite(perf.ids)
    )


class CompileError(RuntimeError):
    """The stamp plan disagrees with the scalar path.

    Raised when :meth:`AmplifierTemplate.build_circuit` produced a
    topology the compiled constant/variable split cannot represent —
    usually because an element was added or renamed without updating
    the value model, :meth:`CompiledTemplate._candidate_values`.
    """


@dataclass(frozen=True)
class StampSlot:
    """Precomputed index arrays of one design-dependent element.

    ``y_batch[..., rows, cols] += signs * value[..., None]`` applies the
    slot; the (row, col) pairs within one slot are unique, so the fancy
    indexing accumulates correctly.
    """

    name: str
    rows: np.ndarray   # (k,) int
    cols: np.ndarray   # (k,) int
    signs: np.ndarray  # (k,) float


@dataclass
class BatchPerformance:
    """Figures of merit of a batch of evaluated designs (arrays over B)."""

    frequency: FrequencyGrid
    nf_db: np.ndarray          # (B, F)
    gt_db: np.ndarray          # (B, F)
    s11_db: np.ndarray         # (B, F)
    s22_db: np.ndarray         # (B, F)
    mu_min: np.ndarray         # (B,)
    ids: np.ndarray            # (B,)
    nf_max_db: np.ndarray      # (B,)
    gt_min_db: np.ndarray      # (B,)
    gt_ripple_db: np.ndarray   # (B,)

    def __len__(self) -> int:
        return self.nf_db.shape[0]

    def candidate(self, index: int) -> AmplifierPerformance:
        """The scalar :class:`AmplifierPerformance` of one batch member."""
        return AmplifierPerformance(
            frequency=self.frequency,
            nf_db=self.nf_db[index],
            gt_db=self.gt_db[index],
            s11_db=self.s11_db[index],
            s22_db=self.s22_db[index],
            mu_min=float(self.mu_min[index]),
            ids=float(self.ids[index]),
            nf_max_db=float(self.nf_max_db[index]),
            gt_min_db=float(self.gt_min_db[index]),
            gt_ripple_db=float(self.gt_ripple_db[index]),
        )


class CompiledTemplate:
    """An :class:`AmplifierTemplate` lowered to a batched stamp plan.

    Parameters
    ----------
    template:
        The amplifier template to compile.
    band_grid, guard_grid:
        Objective and stability-guard frequency grids (defaults match
        :class:`repro.core.objectives.LnaEvaluator`).
    verify:
        Check the compiled engine against the scalar path at two probe
        design points (recommended; a few scalar solves at compile
        time).
    solver:
        Factorization tier for the batched MNA solves, and the one
        place a tier is chosen.  ``"dense"`` (default, the reference
        path) stamps full ``(B, F, n, n)`` tensors; ``"sparse"``
        compiles a Schur-condensed plan
        (:mod:`repro.analysis.sparsemna`) — the candidate-independent
        block is LU-factorized once per topology per frequency with a
        shared CSC pattern, and per candidate only the small reduced
        system is refactorized (or Sherman-Morrison-updated when few
        stamp groups vary).  The sparse tier agrees with dense to well
        under 1e-9 relative and is verified against the scalar path by
        the same compile-time probes; a template whose structure cannot
        be condensed raises :class:`CompileError`.

    A compiled template must be used by one thread at a time: its
    sparse plan reuses scratch buffers across calls, and so does the
    cache of the :class:`~repro.core.objectives.LnaEvaluator` that
    wraps it.  Parallel evaluation gives each worker process its own.
    """

    def __init__(self, template: AmplifierTemplate,
                 band_grid: Optional[FrequencyGrid] = None,
                 guard_grid: Optional[FrequencyGrid] = None,
                 verify: bool = True,
                 solver: str = "dense"):
        if solver not in ("dense", "sparse"):
            raise ValueError(
                f"solver must be 'dense' or 'sparse', got {solver!r}"
            )
        self.template = template
        self.solver = solver
        self.band_grid = band_grid or design_grid(17)
        self.guard_grid = guard_grid or stability_grid(24)
        self._n_band = len(self.band_grid)
        # Fused frequency axis: objective band first, guard band after.
        # MNA rows are independent per frequency, so one solve of the
        # fused axis is exact for both grids.
        self._f_fused = np.concatenate([self.band_grid.f_hz,
                                        self.guard_grid.f_hz])
        self._compile()
        self._plan = None
        if solver == "sparse":
            try:
                self._plan = self._build_sparse_plan()
            except PatternError as exc:
                raise CompileError(
                    f"solver='sparse' requested but the template's "
                    f"structure cannot be condensed: {exc}"
                ) from None
        if verify:
            self._verify()

    # -- pickling -----------------------------------------------------------
    # A compiled engine is mostly derived state (stamp tensors, index
    # arrays, noise injections), all reproducible from the constructor
    # inputs.  Pickling therefore ships only (template, grids) and the
    # receiver recompiles — which is exactly what a spawned evaluator
    # worker wants: the compile runs once per worker, locally, instead
    # of megabytes of tensors crossing the pipe.  Verification is
    # skipped on unpickle: the sender's compile already verified this
    # same template, and the stamp plan is deterministic.
    def __getstate__(self):
        return {
            "template": self.template,
            "band_grid": self.band_grid,
            "guard_grid": self.guard_grid,
            "solver": self.solver,
        }

    def __setstate__(self, state):
        self.__init__(state["template"], state["band_grid"],
                      state["guard_grid"], verify=False,
                      solver=state.get("solver", "dense"))

    # -- compilation --------------------------------------------------------
    def _compile(self):
        proto = self.template.build_circuit(DesignVariables())
        names = {element.name for element in proto.elements}
        # The value model is the one list of design-dependent elements:
        # every name it returns a value for is stamped per candidate.
        values = self._candidate_values(
            DesignVariables().to_vector()[None, :]
        )
        variable_names = set().union(*values[:3])
        missing = variable_names - names
        if missing:
            raise CompileError(
                f"value model names elements the template netlist "
                f"lacks: {sorted(missing)}"
            )
        self._n_nodes = len(proto.node_names)
        self._port_rows = np.array(
            [proto.node_index(p.node) for p in proto.ports], dtype=int
        )
        z0_values = {p.z0 for p in proto.ports}
        if len(z0_values) != 1:
            raise CompileError("ports must share one reference impedance")
        self._z0 = proto.ports[0].z0
        self._port_names = [p.name for p in proto.ports]

        constant = [e for e in proto.elements
                    if e.name not in variable_names]
        variable = {e.name: e for e in proto.elements
                    if e.name in variable_names}

        # Constant part: stamped once by the ordinary scalar assembler.
        self._base = _assemble_tensor(proto, self._f_fused, self._n_nodes,
                                      elements=constant)
        self._const_noise = [
            BatchNoiseSource(np.stack(src.columns, axis=1), src.psd_array)
            for src in _collect_noise_sources(proto, self._f_fused,
                                              elements=constant)
        ]

        # Variable part: precompute index arrays and noise injections.
        self._slots: Dict[str, StampSlot] = {}
        self._scalar_noise: List[tuple] = []   # (name, columns (n, 1))
        self._block_noise: List[tuple] = []    # (name, columns (n, 2))
        for name, element in variable.items():
            if isinstance(element, Vccs):
                self._slots[name] = self._vccs_slot(proto, element)
                continue
            if isinstance(element, YBlock):
                node_a, node_b = element.nodes
            else:
                node_a, node_b = element.node_a, element.node_b
            if isinstance(element, NoiseCurrent):
                self._scalar_noise.append((name, _injection(
                    proto, node_a, node_b, self._n_nodes
                )[:, None]))
                continue
            self._slots[name] = self._two_terminal_slot(proto, name,
                                                        node_a, node_b)
            if isinstance(element, Resistor):
                if element.temperature > 0:
                    self._scalar_noise.append((name, _injection(
                        proto, node_a, node_b, self._n_nodes
                    )[:, None]))
            elif isinstance(element, YBlock):
                if element.cy_function is not None:
                    columns = np.zeros((self._n_nodes, 2), dtype=complex)
                    for k, node in enumerate(element.nodes):
                        idx = proto.node_index(node)
                        if idx >= 0:
                            columns[idx, k] = 1.0
                    self._block_noise.append((name, columns))

    @staticmethod
    def _two_terminal_slot(circuit, name, node_a, node_b) -> StampSlot:
        a = circuit.node_index(node_a)
        b = circuit.node_index(node_b)
        entries = []
        if a >= 0:
            entries.append((a, a, +1.0))
        if b >= 0:
            entries.append((b, b, +1.0))
        if a >= 0 and b >= 0:
            entries.append((a, b, -1.0))
            entries.append((b, a, -1.0))
        if not entries:
            raise CompileError(f"element {name!r} connects ground to ground")
        rows, cols, signs = (np.array(v) for v in zip(*entries))
        return StampSlot(name, rows.astype(int), cols.astype(int),
                         signs.astype(float))

    @staticmethod
    def _vccs_slot(circuit, element: Vccs) -> StampSlot:
        op = circuit.node_index(element.out_p)
        on = circuit.node_index(element.out_n)
        cp = circuit.node_index(element.ctrl_p)
        cn = circuit.node_index(element.ctrl_n)
        entries = []
        for out_idx, sign in ((op, +1.0), (on, -1.0)):
            if out_idx < 0:
                continue
            if cp >= 0:
                entries.append((out_idx, cp, sign))
            if cn >= 0:
                entries.append((out_idx, cn, -sign))
        if not entries:
            raise CompileError(
                f"vccs {element.name!r} has no stamped entries"
            )
        rows, cols, signs = (np.array(v) for v in zip(*entries))
        return StampSlot(element.name, rows.astype(int), cols.astype(int),
                         signs.astype(float))

    # -- sparse plan --------------------------------------------------------
    def _build_sparse_plan(self):
        """Compile the Schur-condensed plan over the fused grid.

        The shared right-hand side carries the two port injections and
        every noise-injection column; the plan condenses them once, so
        a candidate batch costs one small adjoint solve plus a
        ``matmul`` contraction.  The per-source column layout is
        recorded for the fused noise-correlation assembly.
        """
        n_ports = self._port_rows.size
        n_noise = (
            sum(src.columns.shape[1] for src in self._const_noise)
            + len(self._scalar_noise)
            + sum(c.shape[1] for _, c in self._block_noise)
        )
        rhs = np.zeros((self._n_nodes, n_ports + n_noise), dtype=complex)
        for col, row in enumerate(self._port_rows):
            rhs[row, col] = 1.0
        n_band = self._n_band
        # Noise-column bookkeeping, offsets relative to the noise block:
        # scalar-PSD entries fuse into one stacked matmul, (w, w) blocks
        # group by width into one batched triple product per width.
        sp_scalar: List[tuple] = []   # (col, "const" psd | "var" name)
        sp_blocks: Dict[int, List[tuple]] = {}
        offset = n_ports
        for src in self._const_noise:
            width = src.columns.shape[1]
            rhs[:, offset:offset + width] = src.columns
            psd = np.asarray(src.psd)
            if psd.ndim == 1:
                # A scalar PSD over w columns is w independent scalar
                # sources sharing one density (the dense kernel's
                # ``psd * (i @ i^H)`` sums identically).
                for k in range(width):
                    sp_scalar.append(
                        (offset + k - n_ports, "const", psd[:n_band])
                    )
            else:
                sp_blocks.setdefault(width, []).append(
                    (offset - n_ports, "const", psd[:n_band])
                )
            offset += width
        for name, columns in self._scalar_noise:
            rhs[:, offset] = columns[:, 0]
            sp_scalar.append((offset - n_ports, "var", name))
            offset += 1
        for name, columns in self._block_noise:
            width = columns.shape[1]
            rhs[:, offset:offset + width] = columns
            sp_blocks.setdefault(width, []).append(
                (offset - n_ports, "var", name)
            )
            offset += width

        # Freeze the PSD layout into index arrays and pre-stacked
        # constant tables so the per-batch assembly in
        # :meth:`_sparse_figures` only fills the bias-dependent slots.
        self._sc_cols = np.array([e[0] for e in sp_scalar], dtype=int)
        self._sc_const = np.zeros((n_band, len(sp_scalar)))
        self._sc_var: List[tuple] = []          # (stack index, source name)
        for idx, (_, kind, payload) in enumerate(sp_scalar):
            if kind == "const":
                self._sc_const[:, idx] = payload
            else:
                self._sc_var.append((idx, payload))
        self._blk_layout: Dict[int, tuple] = {}
        for width, entries in sp_blocks.items():
            cols = np.concatenate([
                np.arange(c0, c0 + width) for c0, _, _ in entries
            ])
            const_psd = np.zeros((n_band, len(entries), width, width),
                                 dtype=complex)
            var_entries = []
            for idx, (_, kind, payload) in enumerate(entries):
                if kind == "const":
                    const_psd[:, idx] = payload
                else:
                    var_entries.append((idx, payload))
            self._blk_layout[width] = (cols, const_psd, var_entries)

        groups = [MutableGroup(name, slot.rows, slot.cols, slot.signs)
                  for name, slot in self._slots.items()]
        return build_plan(self._base, groups, self._port_rows, self._z0,
                          rhs, out_rows=list(self._port_rows))

    @staticmethod
    def _inv2x2(a: np.ndarray) -> np.ndarray:
        """Explicit batched 2x2 inverse (the port count is fixed)."""
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        inv = np.empty_like(a)
        inv[..., 0, 0] = a[..., 1, 1]
        inv[..., 0, 1] = -a[..., 0, 1]
        inv[..., 1, 0] = -a[..., 1, 0]
        inv[..., 1, 1] = a[..., 0, 0]
        return inv / det[..., None, None]

    def _sparse_figures(self, v_ports: np.ndarray, n_batch: int,
                        scalar_psds, block_psds):
        """S-parameters and band noise correlation from the plan's
        port-row solution ``(B, F_fused, 2, K)``."""
        n_band = self._n_band
        # The port loads are stamped into the reduced matrix, so the
        # 2x2 port block of the solution is the *loaded* impedance
        # matrix Z_L and the network admittance is Y = Z_L^-1 - G0.
        # Substituting into y_to_s collapses the two inversions:
        #   S = (I + Y z0)^-1 (I - Y z0) = 2 Z_L / z0 - I.
        s = (2.0 / self._z0) * v_ports[..., :2]
        s[..., 0, 0] -= 1.0
        s[..., 1, 1] -= 1.0

        zi = self._inv2x2(v_ports[:, :n_band, :, :2])
        # Every noise transfer at once: one matmul instead of a
        # per-source loop (i_n = -(Y_net + G0) v_loaded, as dense).
        i_all = -(zi @ v_ports[:, :n_band, :, 2:])
        cy = np.zeros((n_batch, n_band, 2, 2), dtype=complex)
        if self._sc_cols.size:
            i_s = i_all[..., self._sc_cols]              # (B, Fb, 2, S)
            psd_stack = np.empty((n_batch, n_band, self._sc_cols.size))
            psd_stack[...] = self._sc_const
            for idx, name in self._sc_var:
                psd_stack[:, :, idx] = scalar_psds[name][:, :n_band]
            i_s_h = np.conjugate(np.swapaxes(i_s, -1, -2))
            cy += (i_s * psd_stack[..., None, :]) @ i_s_h
        for width, (cols, const_psd, var_entries) in self._blk_layout.items():
            nb = const_psd.shape[1]
            x = i_all[..., cols].reshape(
                n_batch, n_band, 2, nb, width)           # (B, Fb, 2, nb, w)
            if var_entries:
                psd = np.empty(
                    (n_batch, n_band, nb, width, width), dtype=complex)
                psd[...] = const_psd
                for idx, name in var_entries:
                    psd[:, :, idx] = block_psds[name][:, :n_band]
                psd = psd[:, :, None]                    # (B, Fb, 1, nb, w, w)
            else:
                psd = const_psd[None, :, None]           # (1, Fb, 1, nb, w, w)
            # y[..., p, k, v] = sum_u x[..., p, k, u] psd[..., k, u, v];
            # elementwise-and-sum beats batched matmul on 2x2 blocks.
            y = (x[..., :, None] * psd).sum(axis=-2)
            y = y.reshape(n_batch, n_band, 2, nb * width)
            xh = np.conjugate(
                x.reshape(n_batch, n_band, 2, nb * width))
            cy += y @ np.swapaxes(xh, -1, -2)
        return s, cy

    # -- per-candidate values ----------------------------------------------
    def _candidate_values(self, x_physical: np.ndarray):
        """Vectorized element values for a (B, n_vars) design matrix.

        Returns ``(admittances, scalar_psds, block_psds, ids, bad_mask)``
        where admittances maps slot name -> (B, F) complex, scalar_psds
        maps noise-source name -> (B, 1) or (B, F), block_psds maps
        YBlock name -> (B, F, 2, 2), and bad_mask is a (B,) bool array
        flagging candidates whose bias point is unusable (``gds <= 0``
        or non-finite small-signal parameters).

        Flagged rows get a benign placeholder bias, which keeps the
        tensor solvable for the healthy rows; :meth:`_batch_isolated`
        overwrites them with ``bad_bias`` penalty figures.
        """
        index = {name: k for k, name in enumerate(DesignVariables.NAMES)}
        col = lambda name: x_physical[:, index[name]]  # noqa: E731
        f = self._f_fused
        omega = 2.0 * np.pi * f
        device = self.template.device

        admittances: Dict[str, np.ndarray] = {}
        scalar_psds: Dict[str, np.ndarray] = {}
        block_psds: Dict[str, np.ndarray] = {}

        # Matching passives: the same catalogue models as build_circuit,
        # evaluated on (B, 1) value columns so each row is bitwise the
        # scalar computation.
        passives = {
            "Cin": murata_style_capacitor(col("c_in")[:, None], name="Cin"),
            "Cout": murata_style_capacitor(col("c_out")[:, None],
                                           name="Cout"),
            "Csh": murata_style_capacitor(col("c_sh")[:, None], name="Csh"),
            "Lin": coilcraft_style_inductor(col("l_in")[:, None],
                                            name="Lin"),
            "Ldeg": coilcraft_style_inductor(col("l_deg")[:, None],
                                             name="Ldeg"),
            "Lchoke": coilcraft_style_inductor(col("l_choke")[:, None],
                                               name="Lchoke"),
        }
        for name, component in passives.items():
            y = np.asarray(component.admittance(f), dtype=complex)
            admittances[name] = y
            g = np.real(y)
            block_psds[name] = _two_terminal_stack(
                (2.0 * BOLTZMANN * T_AMBIENT * g).astype(complex)
            )

        # Stabilization resistors: ideal (the scalar path uses
        # circuit.resistor), admittance flat over frequency.
        for name, var in (("Rstab", "r_stab"), ("Rsh", "r_sh")):
            r = col(var)[:, None]
            admittances[name] = (1.0 / r).astype(complex)
            scalar_psds[name] = 2.0 * BOLTZMANN * T_AMBIENT / r

        # Bias-dependent intrinsic device elements, from the same DC and
        # capacitance models the scalar path calls in intrinsic_at().
        vgs = col("vgs")
        vds = col("vds")
        dc = device.dc_model
        caps = device.capacitances
        gm = np.asarray(dc.gm(vgs, vds), dtype=float)
        gds = np.asarray(dc.gds(vgs, vds), dtype=float)
        ids = np.asarray(dc.ids(vgs, vds), dtype=float)
        bad_mask = (
            ~np.isfinite(gm) | ~np.isfinite(gds) | ~np.isfinite(ids)
            | (np.nan_to_num(gds, nan=-1.0) <= 0)
        )
        if np.any(bad_mask):
            gm = np.where(bad_mask, 0.0, gm)
            gds = np.where(bad_mask, 1e-3, gds)
            ids = np.where(bad_mask, 0.0, ids)
        cgs = np.asarray(caps.cgs(vgs), dtype=float)
        cgd = np.asarray(caps.cgd(vds), dtype=float)

        admittances["Q_Cgs"] = 1j * omega * cgs[:, None]
        admittances["Q_Cgd"] = 1j * omega * cgd[:, None]
        # The scalar path stamps 1 / resistance with resistance set to
        # 1 / gds; replicate the double reciprocal for exactness.
        admittances["Q_Gds"] = (1.0 / (1.0 / gds[:, None])).astype(complex)
        admittances["Q_gm"] = gm[:, None] * np.exp(
            -1j * omega * caps.tau
        )[None, :]
        td = device.td0 + device.td_slope * ids
        scalar_psds["Q_ind"] = (2.0 * BOLTZMANN * td * gds)[:, None]
        return admittances, scalar_psds, block_psds, ids, bad_mask

    # -- solving ------------------------------------------------------------
    def _stamped_batch(self, n_batch: int, admittances, scalar_psds,
                       block_psds):
        """Stamp the (B, F, n, n) tensor and band noise-source list."""
        y_batch = np.broadcast_to(
            self._base, (n_batch,) + self._base.shape
        ).copy()
        for name, slot in self._slots.items():
            y_batch[..., slot.rows, slot.cols] += (
                slot.signs * admittances[name][..., None]
            )
        n_band = self._n_band
        noise_sources = [
            BatchNoiseSource(src.columns, src.psd[:n_band])
            for src in self._const_noise
        ]
        for name, columns in self._scalar_noise:
            noise_sources.append(BatchNoiseSource(columns, scalar_psds[name]))
        for name, columns in self._block_noise:
            noise_sources.append(
                BatchNoiseSource(columns, block_psds[name][:, :n_band])
            )
        return y_batch, noise_sources

    @staticmethod
    def _to_physical(unit_x: np.ndarray) -> np.ndarray:
        lower, upper = DesignVariables.LOWER, DesignVariables.UPPER
        return lower + np.clip(unit_x, 0.0, 1.0) * (upper - lower)

    def _figures(self, s: np.ndarray, cy_band: np.ndarray,
                 ids: np.ndarray) -> BatchPerformance:
        """Figures of merit from solved S-parameters and noise data."""
        n_band = self._n_band
        s_band = s[:, :n_band]
        s_guard = s[:, n_band:]

        # Noise figure exactly as NoisyTwoPort.noise_factor with the
        # port reference source: ca from cy via the network ABCD.
        abcd = cv.s_to_abcd(s_band, self._z0)
        ca = ca_from_cy(cy_band, abcd)
        zs = 1.0 / (1.0 / self._z0)
        e_total = (
            ca[..., 0, 0]
            + np.conjugate(zs) * ca[..., 0, 1]
            + zs * ca[..., 1, 0]
            + np.abs(zs) ** 2 * ca[..., 1, 1]
        ).real
        noise_factor = 1.0 + e_total / (_2KT0 * np.real(zs))
        nf_db = 10.0 * np.log10(noise_factor)

        gt_db = 20.0 * np.log10(
            np.maximum(np.abs(s_band[..., 1, 0]), 1e-12)
        )
        s11_db = 20.0 * np.log10(
            np.maximum(np.abs(s_band[..., 0, 0]), 1e-12)
        )
        s22_db = 20.0 * np.log10(
            np.maximum(np.abs(s_band[..., 1, 1]), 1e-12)
        )
        mu_min = np.min(mu_source(s_guard), axis=1)
        return BatchPerformance(
            frequency=self.band_grid,
            nf_db=nf_db,
            gt_db=gt_db,
            s11_db=s11_db,
            s22_db=s22_db,
            mu_min=mu_min,
            ids=ids,
            nf_max_db=np.max(nf_db, axis=1),
            gt_min_db=np.min(gt_db, axis=1),
            gt_ripple_db=np.max(gt_db, axis=1) - np.min(gt_db, axis=1),
        )

    # -- evaluation: one fault-isolated core --------------------------------
    def performance_batch(self, unit_x: np.ndarray) -> BatchPerformance:
        """Figures of merit for a (B, n_vars) batch of unit-box vectors.

        The strict view of :meth:`performance_batch_isolated`: the same
        batch, but ``ValueError`` (carrying the first failure's
        category and message) when any row ended as a penalty.  Rows the
        scalar fallback rescued are returned like any other.  Matches
        ``[template.evaluate(DesignVariables.from_unit(u), band,
        guard) for u in unit_x]`` to ~1e-10.
        """
        return self._strict(self._batch_isolated(unit_x, unit=True))

    def performance_batch_physical(self, x_physical: np.ndarray
                                   ) -> BatchPerformance:
        """Figures of merit for a (B, n_vars) batch of *physical* vectors.

        The strict view of :meth:`performance_batch_physical_isolated`.
        Unlike :meth:`performance_batch` no unit-box clip is applied:
        robust corner sweeps legitimately evaluate component values
        outside the optimization box (a +5 % inductor above ``UPPER``
        is still a buildable board).  Matches
        ``[template.evaluate(DesignVariables.from_vector(v), band,
        guard) for v in x_physical]`` to ~1e-10.
        """
        return self._strict(self._batch_isolated(x_physical, unit=False))

    def performance_batch_isolated(self, unit_x: np.ndarray):
        """Figures of merit for unit-box vectors; no candidate can sink it.

        Degradation chain per candidate: the fused compiled solve first
        (the dense tier re-solves a failing batch row by row); rows it
        cannot solve (singular systems, non-finite figures, value
        models that raised) go through the scalar
        :meth:`AmplifierTemplate.evaluate` path, and finally — if
        nothing can evaluate them, or the bias is unusable — are filled
        with the finite worst-case figures of
        :meth:`AmplifierPerformance.penalty`.
        Healthy rows are exactly the compiled batch solve's figures.

        Returns ``(batch, failures, n_fallbacks)``: the
        :class:`BatchPerformance`, a per-candidate list of
        ``Optional[EvaluationFailure]`` (``None`` for healthy rows,
        including rows recovered by the scalar fallback), and the count
        of rows the scalar fallback recovered.
        """
        return self._batch_isolated(unit_x, unit=True)

    def performance_batch_physical_isolated(self, x_physical: np.ndarray):
        """:meth:`performance_batch_isolated` for *physical* vectors.

        The same degradation chain (compiled batch -> per-row scalar
        fallback -> finite penalty figures) applied to raw physical
        design vectors with no unit-box clip — robust corner sweeps use
        this so one unsolvable corner quarantines through the
        :class:`EvaluationFailure` taxonomy while the healthy corners
        keep their compiled figures.  ``EvaluationFailure.x`` carries
        the *physical* row.
        """
        return self._batch_isolated(x_physical, unit=False)

    @staticmethod
    def _strict(result) -> BatchPerformance:
        """The batch of an isolated result, or ``ValueError`` naming the
        first row that ended as a penalty."""
        batch, failures, _ = result
        for i, failure in enumerate(failures):
            if failure is not None:
                raise ValueError(f"candidate {i}: {failure}")
        return batch

    def _batch_isolated(self, x: np.ndarray, unit: bool):
        """The one evaluation core behind every public entry point.

        *x* holds unit-box rows when *unit* is true (clipped into the
        box, decoded with :meth:`DesignVariables.from_unit`), physical
        rows otherwise; failures are labelled with the rows as given.
        Returns ``(batch, failures, n_fallbacks)`` and counts one
        ``engine.batch_solves`` and B ``engine.candidates``.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n_batch = x.shape[0]
        with _obs_tracer.span("engine.performance_batch", batch=n_batch):
            batch, failures, n_fallbacks = self._solve_isolated(x, unit)
        _obs_metrics.inc("engine.batch_solves")
        _obs_metrics.inc("engine.candidates", n_batch)
        if n_fallbacks:
            _obs_metrics.inc("engine.scalar_fallbacks", n_fallbacks)
        n_penalties = sum(1 for f in failures if f is not None)
        if n_penalties:
            _obs_metrics.inc("engine.penalty_rows", n_penalties)
        if n_fallbacks or n_penalties:
            _obs_journal.emit("engine_degraded",
                              batch=int(n_batch),
                              scalar_fallbacks=int(n_fallbacks),
                              penalty_rows=int(n_penalties))
        return batch, failures, n_fallbacks

    def _solve_isolated(self, x: np.ndarray, unit: bool):
        """Compiled solve, scalar fallback and penalties for one batch."""
        x_physical = self._to_physical(x) if unit else x
        decode = (DesignVariables.from_unit if unit
                  else DesignVariables.from_vector)
        n_batch = x_physical.shape[0]
        failures: List[Optional[EvaluationFailure]] = [None] * n_batch
        try:
            (admittances, scalar_psds, block_psds, ids,
             bad_bias) = self._candidate_values(x_physical)
        except FAILURE_EXCEPTIONS:
            # A value model raised for the batch as a whole: every row
            # takes the scalar chain below, which classifies it alone.
            ids = np.zeros(n_batch)
            bad_bias = np.zeros(n_batch, dtype=bool)
            s, cy_band, solver_failed = self._failed_solution(n_batch)
        else:
            solve = (self._isolated_sparse if self.solver == "sparse"
                     else self._isolated_dense)
            s, cy_band, solver_failed = solve(
                n_batch, admittances, scalar_psds, block_psds
            )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            batch = self._figures(s, cy_band, ids)
        finite = (
            np.isfinite(batch.nf_db).all(axis=1)
            & np.isfinite(batch.gt_db).all(axis=1)
            & np.isfinite(batch.s11_db).all(axis=1)
            & np.isfinite(batch.s22_db).all(axis=1)
            & np.isfinite(batch.mu_min)
            & np.isfinite(batch.ids)
        )

        for i in np.flatnonzero(bad_bias):
            failures[i] = EvaluationFailure(
                CATEGORY_BAD_BIAS,
                "device biased outside the saturated forward region "
                "(gds <= 0)",
                x=x[i].copy(),
            )
            self._fill_row(batch, i, AmplifierPerformance.penalty(
                self.band_grid, failures[i]))

        n_fallbacks = 0
        for i in np.flatnonzero((solver_failed | ~finite) & ~bad_bias):
            category = (CATEGORY_SINGULAR if solver_failed[i]
                        else CATEGORY_NON_FINITE)
            with np.errstate(divide="ignore", invalid="ignore"):
                try:
                    scalar = self.template.evaluate(
                        decode(x[i]), self.band_grid, self.guard_grid,
                    )
                except FAILURE_EXCEPTIONS as exc:
                    failures[i] = EvaluationFailure(
                        classify_exception(exc), str(exc),
                        x=x[i].copy(),
                    )
                    self._fill_row(batch, i, AmplifierPerformance.penalty(
                        self.band_grid, failures[i]))
                    continue
            if not _performance_is_finite(scalar):
                failures[i] = EvaluationFailure(
                    category,
                    "scalar fallback also produced non-finite figures",
                    x=x[i].copy(),
                )
                self._fill_row(batch, i, AmplifierPerformance.penalty(
                    self.band_grid, failures[i]))
                continue
            n_fallbacks += 1
            self._fill_row(batch, i, scalar)

        if _guard_modes.enabled():
            # Physical-sanity contract: a noise figure below 0 dB means
            # the noise model produced negative noise power.  Strict
            # mode raises; warn mode quarantines the row through the
            # standard failure taxonomy (penalty figures), leaving
            # healthy rows bit-for-bit untouched.
            nf_bad = _contracts.noise_figure_violation_mask(batch.nf_db)
            for i in np.flatnonzero(nf_bad):
                if failures[i] is not None:
                    continue  # already quarantined with penalty figures
                message = (
                    f"candidate {i} reports NF < 0 dB "
                    f"(min {float(np.min(batch.nf_db[i])):.3e} dB): "
                    f"negative noise power is unphysical"
                )
                _contracts.report_violation("performance", message)
                failures[i] = EvaluationFailure(
                    CATEGORY_CONTRACT, message, x=x[i].copy()
                )
                self._fill_row(batch, i, AmplifierPerformance.penalty(
                    self.band_grid, failures[i]))
        return batch, failures, n_fallbacks

    def _isolated_dense(self, n_batch: int, admittances, scalar_psds,
                        block_psds):
        """Failure-isolated dense solve: stamp the full tensor and let
        :func:`solve_tensor_batch_isolated` re-solve failing rows one at
        a time, flagging the rows it cannot rescue ``failed``."""
        n_band = self._n_band
        y_batch, noise_sources = self._stamped_batch(
            n_batch, admittances, scalar_psds, block_psds
        )
        # Two batched solves sharing the stamped tensor: the band slice
        # carries the signal *and* noise right-hand sides, the guard
        # slice only the two port columns (its noise response is never
        # consumed).  Per-frequency independence makes the split exact.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s_band, cy_band, failed_band = solve_tensor_batch_isolated(
                y_batch[:, :n_band], self._port_rows, self._z0,
                noise_sources,
            )
            s_guard, _, failed_guard = solve_tensor_batch_isolated(
                y_batch[:, n_band:], self._port_rows, self._z0
            )
        s = np.concatenate([s_band, s_guard], axis=1)
        return s, cy_band, failed_band | failed_guard

    def _isolated_sparse(self, n_batch: int, admittances, scalar_psds,
                         block_psds):
        """Failure-isolated sparse solve of one candidate batch.

        The condensed adjoint solve runs once for the whole batch.  Rows
        it cannot represent — every row when the reduced system is
        singular, else each row with non-finite results — come back
        flagged ``failed`` for the caller's scalar -> penalty chain, the
        same one dense rows take.  Healthy rows never leave the sparse
        path.
        """
        if _guard_modes.enabled():
            # The sparse twin of the dense path's conditioning sample:
            # the mid-grid *reduced* matrix of the first candidate is
            # what this tier actually factorizes.
            observe_condition(self._plan.sample_matrix(admittances), "mna")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                v_ports = self._plan.solve_rows(admittances, n_batch,
                                                update="auto")
            except np.linalg.LinAlgError:
                _obs_metrics.inc("mna.batch_refactorizations")
                return self._failed_solution(n_batch)
            s, cy_band = self._sparse_figures(v_ports, n_batch,
                                              scalar_psds, block_psds)
        failed = ~(
            np.isfinite(s).reshape(n_batch, -1).all(axis=1)
            & np.isfinite(cy_band).reshape(n_batch, -1).all(axis=1)
        )
        return s, cy_band, failed

    def _failed_solution(self, n_batch: int):
        """Zero-filled ``(s, cy_band, failed)`` with every row flagged."""
        return (
            np.zeros((n_batch, self._f_fused.size, 2, 2), dtype=complex),
            np.zeros((n_batch, self._n_band, 2, 2), dtype=complex),
            np.ones(n_batch, dtype=bool),
        )

    @staticmethod
    def _fill_row(batch: BatchPerformance, index: int,
                  perf: AmplifierPerformance) -> None:
        """Overwrite one batch row with a scalar performance record."""
        batch.nf_db[index] = perf.nf_db
        batch.gt_db[index] = perf.gt_db
        batch.s11_db[index] = perf.s11_db
        batch.s22_db[index] = perf.s22_db
        batch.mu_min[index] = perf.mu_min
        batch.ids[index] = perf.ids
        batch.nf_max_db[index] = perf.nf_max_db
        batch.gt_min_db[index] = perf.gt_min_db
        batch.gt_ripple_db[index] = perf.gt_ripple_db

    # -- verification -------------------------------------------------------
    def _verify(self, tolerance: float = 1e-8):
        """Cross-check the stamp plan against the scalar path.

        Two probe points (the template defaults and an off-centre
        design) catch any element that varies with the design vector
        but was classified constant — its stamp would be frozen at the
        compile-time value and the probes would disagree.  Both probes
        must come out of the compiled solve itself: a row the scalar
        fallback rescued would only compare the scalar path with itself.
        """
        probes = np.vstack([
            DesignVariables().to_unit(),
            DesignVariables.from_unit(
                np.full(len(DesignVariables.NAMES), 0.3)
            ).to_unit(),
        ])
        batch, failures, n_fallbacks = self.performance_batch_isolated(probes)
        failed = [f"probe {k}: {f}" for k, f in enumerate(failures)
                  if f is not None]
        if failed or n_fallbacks:
            raise CompileError(
                f"compiled engine could not evaluate the probe designs "
                f"({n_fallbacks} scalar fallbacks; failures: {failed})"
            )
        for k in range(probes.shape[0]):
            scalar = self.template.evaluate(
                DesignVariables.from_unit(probes[k]),
                self.band_grid, self.guard_grid,
            )
            compiled = batch.candidate(k)
            checks = [
                ("nf_db", scalar.nf_db, compiled.nf_db),
                ("gt_db", scalar.gt_db, compiled.gt_db),
                ("s11_db", scalar.s11_db, compiled.s11_db),
                ("s22_db", scalar.s22_db, compiled.s22_db),
                ("mu_min", scalar.mu_min, compiled.mu_min),
                ("ids", scalar.ids, compiled.ids),
            ]
            for label, expected, got in checks:
                error = float(np.max(np.abs(
                    np.asarray(got) - np.asarray(expected)
                )))
                if not np.isfinite(error) or error > tolerance:
                    raise CompileError(
                        f"compiled engine disagrees with the scalar path "
                        f"on {label!r} at probe {k} (max error {error:.3e});"
                        f" the netlist changed — update the value model "
                        f"in CompiledTemplate._candidate_values"
                    )


class CompiledMetricObjective:
    """Picklable recipe for metric objectives built *inside* a worker.

    The evaluator fleet (:class:`repro.optimize.fleet.WorkerFleet`)
    accepts an ``objective_factory`` that each worker process calls
    once at startup.  This class is that factory for the common case —
    "compile the template and optimize one figure of merit": it
    carries only the template and grids (cheap to pickle), and
    :meth:`__call__` compiles a :class:`CompiledTemplate` locally and
    returns the ``(scalar, batch)`` objective pair over *metric*.

    Because the compile happens independently in every worker from the
    same deterministic inputs, each worker's stamp plan — and therefore
    every row it evaluates — is bit-identical to the parent's.
    """

    #: ``(B,)`` figures of merit a batch evaluation exposes directly.
    METRICS = ("nf_max_db", "gt_min_db", "gt_ripple_db", "mu_min", "ids")

    def __init__(self, template: AmplifierTemplate,
                 metric: str = "nf_max_db",
                 band_grid: Optional[FrequencyGrid] = None,
                 guard_grid: Optional[FrequencyGrid] = None,
                 sign: float = 1.0,
                 solver: str = "dense"):
        if metric not in self.METRICS:
            raise ValueError(
                f"metric must be one of {self.METRICS}, got {metric!r}"
            )
        self.template = template
        self.metric = metric
        self.band_grid = band_grid
        self.guard_grid = guard_grid
        self.sign = float(sign)
        self.solver = solver

    def __call__(self):
        engine = CompiledTemplate(self.template, self.band_grid,
                                  self.guard_grid, verify=False,
                                  solver=self.solver)
        metric, sign = self.metric, self.sign

        def scalar(unit_x: np.ndarray) -> float:
            batch = engine.performance_batch(np.atleast_2d(unit_x))
            return sign * float(getattr(batch, metric)[0])

        def batch_fn(unit_pop: np.ndarray) -> np.ndarray:
            batch = engine.performance_batch(unit_pop)
            return sign * np.asarray(getattr(batch, metric), dtype=float)

        return scalar, batch_fn
