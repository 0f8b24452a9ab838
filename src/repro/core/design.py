"""The end-to-end GNSS LNA design flow (the paper's step 4).

:class:`DesignFlow` wires the extracted device model into the amplifier
template, builds the multi-objective problem, runs any of the three
optimizers (improved goal attainment / standard goal attainment /
weighted sum), and finalizes the winner: element values snapped to the
E24 catalogue, the operating point rounded to bench-settable precision,
and the snapped design re-verified through the full MNA path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.amplifier import (
    AmplifierPerformance,
    AmplifierTemplate,
    DesignVariables,
)
from repro.core.bands import GNSS_BANDS, design_grid, stability_grid
from repro.core.objectives import DesignSpec, LnaEvaluator, build_lna_problem
from repro.devices.smallsignal import PHEMTSmallSignal
from repro.optimize.goal_attainment import (
    GoalAttainmentResult,
    goal_attainment_improved,
    goal_attainment_standard,
)
from repro.optimize.scalarization import weighted_sum
from repro.passives.catalog import snap_to_series

__all__ = ["DesignFlow", "FinalDesign", "DEFAULT_GOALS"]

#: Default design goals: NFmax <= 0.7 dB and GTmin >= 14 dB.
DEFAULT_GOALS = np.array([0.7, -14.0])


@dataclass
class FinalDesign:
    """A finished, catalogue-snapped design with verification data."""

    variables: DesignVariables
    snapped: DesignVariables
    performance: AmplifierPerformance
    snapped_performance: AmplifierPerformance
    optimizer_result: GoalAttainmentResult
    per_band: Dict[str, Dict[str, float]]

    def summary_rows(self):
        """Rows for the E8 'selected design' table."""
        rows = [
            ("Vgs [V]", self.snapped.vgs),
            ("Vds [V]", self.snapped.vds),
            ("Ids [mA]", self.snapped_performance.ids * 1e3),
            ("Lin [nH]", self.snapped.l_in * 1e9),
            ("Ldeg [nH]", self.snapped.l_deg * 1e9),
            ("Cin [pF]", self.snapped.c_in * 1e12),
            ("Cout [pF]", self.snapped.c_out * 1e12),
            ("Lchoke [nH]", self.snapped.l_choke * 1e9),
            ("Rstab [ohm]", self.snapped.r_stab),
            ("Rsh [ohm]", self.snapped.r_sh),
            ("Csh [pF]", self.snapped.c_sh * 1e12),
        ]
        return rows


class DesignFlow:
    """Orchestrates problem construction, optimization, and finalization.

    The flow holds no resources to release; it is a context manager
    only so ``with DesignFlow(...) as flow:`` call sites keep working.
    """

    def __init__(self, device: PHEMTSmallSignal,
                 spec: Optional[DesignSpec] = None,
                 template: Optional[AmplifierTemplate] = None):
        self.device = device
        self.spec = spec or DesignSpec()
        self.template = template or AmplifierTemplate(device)
        self.evaluator = LnaEvaluator(self.template)
        self.problem = build_lna_problem(self.template, self.spec,
                                         self.evaluator)

    def __enter__(self) -> "DesignFlow":
        return self

    def __exit__(self, *exc_info):
        return False

    # -- optimizer front-ends ------------------------------------------------
    def run_improved(self, goals=DEFAULT_GOALS, seed: Optional[int] = 0,
                     **kwargs) -> GoalAttainmentResult:
        """The paper's improved goal-attainment method."""
        return goal_attainment_improved(self.problem, goals, seed=seed,
                                        **kwargs)

    def run_standard(self, goals=DEFAULT_GOALS, x0=None,
                     **kwargs) -> GoalAttainmentResult:
        """The textbook goal-attainment baseline."""
        return goal_attainment_standard(self.problem, goals, x0=x0, **kwargs)

    def run_weighted_sum(self, weights=(1.0, 0.1), seed: Optional[int] = 0,
                         **kwargs) -> GoalAttainmentResult:
        """The weighted-sum baseline."""
        return weighted_sum(self.problem, np.asarray(weights, dtype=float),
                            seed=seed, **kwargs)

    # -- finalization ------------------------------------------------------------
    def finalize(self, result: GoalAttainmentResult,
                 n_verify_points: int = 41) -> FinalDesign:
        """Snap to the E24 catalogue and re-verify the snapped design.

        ``result.x`` is in the unit box (see
        :func:`repro.core.objectives.build_lna_problem`).
        """
        variables = DesignVariables.from_unit(result.x)
        snapped = DesignVariables(
            vgs=round(variables.vgs, 2),
            vds=round(variables.vds, 1),
            l_in=snap_to_series(variables.l_in),
            l_deg=snap_to_series(variables.l_deg),
            c_in=snap_to_series(variables.c_in),
            c_out=snap_to_series(variables.c_out),
            l_choke=snap_to_series(variables.l_choke),
            r_stab=snap_to_series(variables.r_stab),
            r_sh=snap_to_series(variables.r_sh),
            c_sh=snap_to_series(variables.c_sh),
        )
        grid = design_grid(n_verify_points)
        guard = stability_grid(40)
        performance = self.template.evaluate(variables, grid, guard)
        snapped_performance = self.template.evaluate(snapped, grid, guard)
        per_band = self._per_band_report(snapped, grid)
        return FinalDesign(
            variables=variables,
            snapped=snapped,
            performance=performance,
            snapped_performance=snapped_performance,
            optimizer_result=result,
            per_band=per_band,
        )

    def _per_band_report(self, variables: DesignVariables, grid):
        noisy = self.template.solve(variables, grid)
        nf_db = noisy.noise_figure_db()
        gt_db = 20.0 * np.log10(np.abs(noisy.network.s[:, 1, 0]))
        report = {}
        for band in GNSS_BANDS:
            mask = band.contains(grid.f_hz)
            if not np.any(mask):
                # Use the nearest grid point for narrow bands that fall
                # between verification samples.
                mask = np.zeros(len(grid), dtype=bool)
                mask[grid.index_of(band.center)] = True
            report[band.label] = {
                "NF_dB": float(np.max(nf_db[mask])),
                "GT_dB": float(np.min(gt_db[mask])),
            }
        return report
