"""Monte-Carlo tolerance (yield) analysis of a finished design.

After snapping to catalogue values, a board house populates parts with
manufacturing tolerances and the bias point drifts with the regulator.
This module samples those variations and reports the fraction of boards
meeting the shipping spec — the standard post-design step that decides
whether the optimized point is *robust*, not just optimal.

The default ``engine="batched"`` evaluates every sampled board in one
batched sparse-tier MNA solve (via
:meth:`repro.core.engine.CompiledTemplate.performance_batch_physical_isolated`
on a Monte-Carlo :class:`~repro.optimize.robust.CornerSet` that draws
the exact RNG sequence of the scalar loop); ``engine="scalar"`` keeps
the original one-full-evaluation-per-trial reference path, and the two
agree on per-trial figures to well under 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.bands import design_grid, stability_grid
from repro.core.objectives import DesignSpec
from repro.rf.frequency import FrequencyGrid

__all__ = ["ToleranceSpec", "YieldResult", "monte_carlo_yield"]

#: Relative tolerance fields (uniform half-widths) vs absolute volts.
_RELATIVE_FIELDS = ("inductor", "capacitor", "resistor")
_ABSOLUTE_FIELDS = ("vgs_volts", "vds_volts")


@dataclass(frozen=True)
class ToleranceSpec:
    """1-sigma-equivalent uniform tolerances per element class.

    Values are relative half-widths of a uniform distribution (0.05 =
    +/-5 %), except the bias entries which are absolute volts.  All
    fields are validated on construction: negative or non-finite
    tolerances are rejected by name, and a relative tolerance >= 1
    (a part that can vanish or reverse sign) is not a tolerance.
    """

    inductor: float = 0.05
    capacitor: float = 0.05
    resistor: float = 0.01
    vgs_volts: float = 0.01
    vds_volts: float = 0.05

    def __post_init__(self):
        for name in _RELATIVE_FIELDS + _ABSOLUTE_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(
                    f"{name} must be finite, got {value!r}")
            if value < 0.0:
                raise ValueError(
                    f"{name} must be non-negative, got {value!r}")
        for name in _RELATIVE_FIELDS:
            if getattr(self, name) >= 1.0:
                raise ValueError(
                    f"{name} is a relative half-width and must be < 1, "
                    f"got {getattr(self, name)!r}")

    @classmethod
    def tight(cls) -> "ToleranceSpec":
        """Premium parts: 2 % reactives, 1 % resistors."""
        return cls(inductor=0.02, capacitor=0.02, resistor=0.01,
                   vgs_volts=0.005, vds_volts=0.02)

    @classmethod
    def loose(cls) -> "ToleranceSpec":
        """Cheap parts: 10 % reactives, 5 % resistors."""
        return cls(inductor=0.10, capacitor=0.10, resistor=0.05,
                   vgs_volts=0.02, vds_volts=0.1)


@dataclass
class YieldResult:
    """Outcome of a Monte-Carlo yield run."""

    n_trials: int
    n_pass: int
    nf_max_db: np.ndarray       # per-trial worst-case NF
    gt_min_db: np.ndarray       # per-trial worst-case GT
    mu_min: np.ndarray
    failures: Dict[str, int] = field(default_factory=dict)

    #: Per-trial array attributes :meth:`percentile` accepts.
    PERCENTILE_QUANTITIES = ("nf_max_db", "gt_min_db", "mu_min")

    @property
    def yield_fraction(self) -> float:
        return self.n_pass / self.n_trials if self.n_trials else 0.0

    def percentile(self, quantity: str, q: float) -> float:
        """Percentile of a per-trial array ('nf_max_db', ...)."""
        if quantity not in self.PERCENTILE_QUANTITIES:
            raise ValueError(
                f"unknown quantity {quantity!r}; valid quantities: "
                f"{', '.join(self.PERCENTILE_QUANTITIES)}")
        return float(np.percentile(getattr(self, quantity), q))


def monte_carlo_yield(
    template: AmplifierTemplate,
    nominal: DesignVariables,
    tolerances: Optional[ToleranceSpec] = None,
    spec: Optional[DesignSpec] = None,
    n_trials: int = 50,
    seed: Optional[int] = 0,
    band_grid: Optional[FrequencyGrid] = None,
    guard_grid: Optional[FrequencyGrid] = None,
    nf_ship_limit_db: float = 0.8,
    gt_ship_limit_db: float = 13.0,
    engine: str = "batched",
    compiled=None,
) -> YieldResult:
    """Sample component variations and evaluate the shipping yield.

    A board passes when NFmax <= *nf_ship_limit_db*, GTmin >=
    *gt_ship_limit_db*, and it is unconditionally stable (mu > 1).
    Return-loss and ripple are tracked in ``failures`` but judged
    against the (looser) shipping limits derived from *spec*.

    ``engine="batched"`` (default) solves all trials in one batched MNA
    factorization; trials whose solve fails quarantine through the
    failure taxonomy and are counted under ``failures["quarantined"]``
    (a board that cannot be solved certainly does not ship).
    ``engine="scalar"`` is the per-trial reference loop; both engines
    consume the identical RNG stream, so per-trial figures agree to
    well under 1e-9.  Pass a prebuilt
    :class:`~repro.core.engine.CompiledTemplate` via *compiled* (its
    grids take precedence) to amortize compilation across calls.
    """
    if engine not in ("batched", "scalar"):
        raise ValueError(
            f"unknown engine {engine!r}; use 'batched' or 'scalar'")
    tolerances = tolerances or ToleranceSpec()
    spec = spec or DesignSpec()
    band_grid = band_grid or design_grid(13)
    guard_grid = guard_grid or stability_grid(16)
    rng = np.random.default_rng(seed)

    failures: Dict[str, int] = {"nf": 0, "gt": 0, "stability": 0}

    if engine == "batched":
        nf_max, gt_min, mu_min, n_quarantined = _batched_trials(
            template, nominal, tolerances, n_trials, rng,
            band_grid, guard_grid, compiled,
        )
        if n_quarantined:
            failures["quarantined"] = n_quarantined
    else:
        nf_max = np.empty(n_trials)
        gt_min = np.empty(n_trials)
        mu_min = np.empty(n_trials)
        for trial in range(n_trials):
            perturbed = _perturb(nominal, tolerances, rng)
            perf = template.evaluate(perturbed, band_grid, guard_grid)
            nf_max[trial] = perf.nf_max_db
            gt_min[trial] = perf.gt_min_db
            mu_min[trial] = perf.mu_min

    n_pass = 0
    for trial in range(n_trials):
        ok = True
        if nf_max[trial] > nf_ship_limit_db:
            failures["nf"] += 1
            ok = False
        if gt_min[trial] < gt_ship_limit_db:
            failures["gt"] += 1
            ok = False
        if mu_min[trial] <= 1.0:
            failures["stability"] += 1
            ok = False
        if ok:
            n_pass += 1

    return YieldResult(
        n_trials=n_trials,
        n_pass=n_pass,
        nf_max_db=nf_max,
        gt_min_db=gt_min,
        mu_min=mu_min,
        failures=failures,
    )


def _batched_trials(template, nominal, tolerances, n_trials, rng,
                    band_grid, guard_grid, compiled):
    """All Monte-Carlo trials as one fault-isolated batched solve."""
    # Imported here: robust.py imports ToleranceSpec from this module.
    from repro.core.engine import CompiledTemplate
    from repro.optimize.robust import CornerSet, PENALTY_NF_DB, PENALTY_GT_DB

    corners = CornerSet.monte_carlo(tolerances, n_trials, rng)
    x_trials = corners.apply(nominal.to_vector())
    if compiled is None:
        compiled = CompiledTemplate(template, band_grid, guard_grid,
                                    verify=False, solver="sparse")
    batch, trial_failures, _ = (
        compiled.performance_batch_physical_isolated(x_trials))
    quarantined = np.array([f is not None for f in trial_failures])
    nf_max = np.asarray(batch.nf_max_db, dtype=float).copy()
    gt_min = np.asarray(batch.gt_min_db, dtype=float).copy()
    mu_min = np.asarray(batch.mu_min, dtype=float).copy()
    # A quarantined board fails every shipping check by construction.
    nf_max[quarantined] = PENALTY_NF_DB
    gt_min[quarantined] = PENALTY_GT_DB
    mu_min[quarantined] = 0.0
    return nf_max, gt_min, mu_min, int(np.sum(quarantined))


def _perturb(nominal: DesignVariables, tolerances: ToleranceSpec,
             rng: np.random.Generator) -> DesignVariables:
    """One scalar trial's perturbed board.

    Draws exactly one uniform variate per design variable in
    :data:`DesignVariables.NAMES` order — the contract
    :meth:`~repro.optimize.robust.CornerSet.monte_carlo` matches so the
    batched engine perturbs bit-identical boards from the same
    generator.
    """
    def rel(value, width):
        return value * (1.0 + width * (2.0 * rng.random() - 1.0))

    def absolute(value, width):
        return value + width * (2.0 * rng.random() - 1.0)

    perturbed = DesignVariables(
        vgs=absolute(nominal.vgs, tolerances.vgs_volts),
        vds=absolute(nominal.vds, tolerances.vds_volts),
        l_in=rel(nominal.l_in, tolerances.inductor),
        l_deg=rel(nominal.l_deg, tolerances.inductor),
        c_in=rel(nominal.c_in, tolerances.capacitor),
        c_out=rel(nominal.c_out, tolerances.capacitor),
        l_choke=rel(nominal.l_choke, tolerances.inductor),
        r_stab=rel(nominal.r_stab, tolerances.resistor),
        r_sh=rel(nominal.r_sh, tolerances.resistor),
        c_sh=rel(nominal.c_sh, tolerances.capacitor),
    )
    return perturbed
