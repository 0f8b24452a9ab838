"""The three workflow workloads, their output checks and quality figures.

Each workload is a paper workflow run end to end in one process, one
caller, closed loop: every optimizer step waits for its evaluations.

* ``table3`` -- ``e5_optimizer_comparison.run(seed)``: improved goal
  attainment, standard goal attainment and weighted sum through SLSQP.
  The only workload that drives the engine one candidate at a time
  (SLSQP's finite-difference stencil; the evaluator cache serves the
  constraint call that follows each objective call).  Uses the
  optimizer loop, ``LnaEvaluator`` and the dense tier; bypasses the
  sparse tier and ``repro.optimize.robust``.
* ``nsga2_front`` -- NSGA-II on the nominal LNA problem at 128 rows
  per batch: the same evaluator and dense tier, in large batches, where
  solver throughput and NSGA-II bookkeeping dominate.
* ``robust_front`` -- ``e12_robust_front.run(seed, record_to=...)``:
  NSGA-II over ``RobustEvaluator``; every candidate is a batch of
  corners on the sparse tier (``"auto"``, Woodbury for bias corners),
  with surrogate screening and journal writes.  Bypasses SLSQP,
  ``LnaEvaluator`` and the dense tier; the control for changes to
  those.

The check functions take plain arrays and dicts, so the tests can feed
them corrupted results without running a workflow.
"""

from __future__ import annotations

import importlib
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

#: Reference point of e6's hypervolume: NF 1.2 dB, GT 10 dB.
HV_REFERENCE = np.array([1.2, -10.0])

#: ``robust_front`` settings (e12 at 32 x 40, 16 Monte-Carlo trials).
ROBUST = dict(population_size=32, n_generations=40, n_trials=16)
#: e12's defaults, repeated so the check can rebuild its evaluator.
ROBUST_GRIDS = dict(n_band=9, n_guard=12)
SHIP_LIMITS = dict(nf_ship_limit_db=0.8, gt_ship_limit_db=11.0)

#: ``nsga2_front`` settings: the extension_nsga2_front set-up at a
#: population of 128 rows per batch.
NSGA2 = dict(population_size=128, n_generations=40)

#: Scalar-path agreement required of the corner figures.
SCALAR_RTOL = 1e-9


# -- shared helpers ---------------------------------------------------------
def _robust_evaluator(seed: int):
    """An evaluator with e12's corner set, grids and shipping limits."""
    from repro.core.amplifier import AmplifierTemplate
    from repro.core.bands import design_grid, stability_grid
    from repro.experiments.common import reference_device
    from repro.optimize.robust import RobustEvaluator

    template = AmplifierTemplate(reference_device().small_signal)
    return template, RobustEvaluator(
        template, n_mc_trials=ROBUST["n_trials"], seed=seed,
        band_grid=design_grid(ROBUST_GRIDS["n_band"]),
        guard_grid=stability_grid(ROBUST_GRIDS["n_guard"]),
        **SHIP_LIMITS)


def ship_yield(unit_x: np.ndarray, seed: int) -> float:
    """Best corner-swept shipping yield over the rows of *unit_x*.

    The corner set and limits are ``robust_front``'s, so the nominal
    workloads' designs are priced on the same scale as the robust front.
    """
    _, evaluator = _robust_evaluator(seed)
    swept = evaluator.evaluate_batch(np.atleast_2d(unit_x), screen=False)
    return float(np.max(swept.yield_fraction))


def front_hypervolume(points: np.ndarray) -> float:
    from repro.optimize.pareto import hypervolume_2d
    return hypervolume_2d(np.asarray(points, dtype=float), HV_REFERENCE)


def front_summary(nfev: int, front: np.ndarray, best_yield) -> dict:
    """Quality figures of an ``(NF, -GT, ...)`` front.

    An empty front reads 0 on every figure; its check reports it.
    """
    if len(front) == 0:
        return {"nfev": nfev, "nf_max_db": 0.0, "gt_min_db": 0.0,
                "hypervolume": 0.0, "yield_fraction": 0.0}
    return {
        "nfev": nfev,
        "nf_max_db": float(np.min(front[:, 0])),
        "gt_min_db": float(np.max(-front[:, 1])),
        "hypervolume": front_hypervolume(front[:, :2]),
        "yield_fraction": best_yield(),
    }


def _relative_error(expected, got) -> float:
    expected = np.asarray(expected, dtype=float)
    got = np.asarray(got, dtype=float)
    scale = np.maximum(np.abs(expected), 1.0)
    return float(np.max(np.abs(got - expected) / scale))


# -- set-up -----------------------------------------------------------------
def prepare(workload: str) -> None:
    """Everything a workload needs before its first evaluation.

    Imports, the reference device, and the compiled engine the
    workload's first evaluation uses (compile plus verification).
    """
    from repro.core.amplifier import AmplifierTemplate
    from repro.core.engine import CompiledTemplate
    from repro.experiments import e5_optimizer_comparison  # noqa: F401
    from repro.experiments.common import reference_device
    from repro.optimize.nsga2 import nsga2  # noqa: F401

    device = reference_device()
    if workload == "robust_front":
        _robust_evaluator(0)
    else:
        CompiledTemplate(AmplifierTemplate(device.small_signal))


# -- table3 -----------------------------------------------------------------
def run_table3(seed: int, work_dir: str) -> dict:
    from repro.core.design import DesignFlow
    from repro.experiments import e5_optimizer_comparison as e5

    # e5 reports the designs' figures but not their vectors; the yield
    # sweep after the run needs the improved method's design.
    improved_x: List[np.ndarray] = []
    original = DesignFlow.run_improved

    def capture(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        improved_x.append(np.array(result.x))
        return result

    DesignFlow.run_improved = capture
    try:
        result = e5.run(seed=seed)
    finally:
        DesignFlow.run_improved = original
    return {"rows": result.rows, "improved_x": improved_x[-1]}


def check_table3(out: dict) -> List[str]:
    rows = {row["method"]: row for row in out["rows"]}
    improved = rows.get("improved goal attainment")
    if improved is None or len(rows) != 3:
        return [f"expected three methods, got {sorted(rows)}"]
    problems = []
    if not improved["feasible"]:
        problems.append("improved method ended infeasible")
    if not improved["nf_max_db"] < 0.8:
        problems.append(f"improved NFmax {improved['nf_max_db']} >= 0.8 dB")
    if not improved["gt_min_db"] > 14.0:
        problems.append(f"improved GTmin {improved['gt_min_db']} <= 14 dB")
    if not improved["mu_min"] > 1.0:
        problems.append(f"improved mu_min {improved['mu_min']} <= 1")
    if not improved["gamma"] <= 0.05:
        problems.append(f"improved gamma {improved['gamma']} > 0.05")
    return problems


def summarize_table3(out: dict, seed: int) -> dict:
    rows = out["rows"]
    improved = next(r for r in rows
                    if r["method"] == "improved goal attainment")
    feasible = [(r["nf_max_db"], -r["gt_min_db"]) for r in rows
                if r["feasible"]]
    return {
        "nfev": sum(int(r["nfev"]) for r in rows),
        "nf_max_db": improved["nf_max_db"],
        "gt_min_db": improved["gt_min_db"],
        "hypervolume": front_hypervolume(np.reshape(feasible, (-1, 2))),
        "yield_fraction": ship_yield(out["improved_x"], seed),
    }


# -- nsga2_front ------------------------------------------------------------
def run_nsga2_front(seed: int, work_dir: str) -> dict:
    from repro.core.design import DesignFlow
    from repro.experiments.common import reference_device

    # Looked up at call time, so the traced run sees its span wrapper.
    nsga2_module = importlib.import_module("repro.optimize.nsga2")
    with DesignFlow(reference_device().small_signal) as flow:
        result = nsga2_module.nsga2(flow.problem, seed=seed, **NSGA2)
    feasible = result.violations <= 1e-9
    return {"front": result.objectives[feasible],
            "front_x": result.x[feasible], "nfev": int(result.nfev)}


def check_nsga2_front(out: dict) -> List[str]:
    from repro.optimize.pareto import pareto_filter

    front = np.asarray(out["front"], dtype=float)
    if front.ndim != 2 or front.shape[0] == 0:
        return ["feasible front is empty"]
    problems = []
    if len(pareto_filter(front)) != front.shape[0]:
        problems.append("feasible front holds dominated points")
    if not np.all(front[:, 0] < 1.0):
        problems.append(f"front NF up to {front[:, 0].max()} dB (>= 1 dB)")
    if not np.all(-front[:, 1] > 10.0):
        problems.append(f"front GT down to {-front[:, 1].max()} dB "
                        "(<= 10 dB)")
    return problems


def summarize_nsga2_front(out: dict, seed: int) -> dict:
    return front_summary(out["nfev"], out["front"],
                         lambda: ship_yield(out["front_x"], seed))


# -- robust_front -----------------------------------------------------------
def run_robust_front(seed: int, work_dir: str) -> dict:
    from repro.experiments import e12_robust_front as e12

    with tempfile.TemporaryDirectory(dir=work_dir) as runs_root:
        result = e12.run(seed=seed, record_to=runs_root, **ROBUST,
                         **ROBUST_GRIDS, **SHIP_LIMITS)
    return {"front": result.front, "front_x": result.front_x,
            "best_yield": result.best_yield,
            "nfev": int(result.n_corner_evals), "seed": seed}


def resweep_robust_front(out: dict) -> dict:
    """Evidence for :func:`check_robust_front`, computed outside the run.

    The published front re-swept with screening off by a fresh
    evaluator, and the first front point's corners through the
    compiled engine and the scalar ``AmplifierTemplate.evaluate`` path.
    """
    from repro.core.amplifier import DesignVariables

    template, evaluator = _robust_evaluator(out["seed"])
    swept = evaluator.evaluate_batch(out["front_x"], screen=False)
    physical = DesignVariables.from_unit(out["front_x"][0]).to_vector()
    corners = evaluator.corners.apply(physical)
    compiled = evaluator._compiled.performance_batch_physical(corners)
    scalar = [template.evaluate(DesignVariables.from_vector(row),
                                evaluator.band_grid, evaluator.guard_grid)
              for row in corners]

    def figures(perfs):
        return np.array([np.concatenate([p.nf_db, p.gt_db, [p.mu_min]])
                         for p in perfs])

    return {
        "reswept": np.column_stack([swept.nf_worst_db, -swept.gt_worst_db,
                                    -swept.yield_fraction]),
        "corners_compiled": figures(compiled.candidate(k)
                                    for k in range(len(corners))),
        "corners_scalar": figures(scalar),
    }


def check_robust_front(out: dict) -> List[str]:
    front = np.asarray(out["front"], dtype=float)
    if front.ndim != 2 or front.shape[0] == 0:
        return ["published front is empty"]
    problems = []
    error = _relative_error(front, out["reswept"])
    if error > SCALAR_RTOL:
        problems.append(f"published front differs from its unscreened "
                        f"re-sweep by {error:.3e}")
    error = _relative_error(out["corners_scalar"], out["corners_compiled"])
    if error > SCALAR_RTOL:
        problems.append(f"corner figures differ from the scalar path by "
                        f"{error:.3e}")
    return problems


def summarize_robust_front(out: dict, seed: int) -> dict:
    return front_summary(out["nfev"], out["front"],
                         lambda: float(out["best_yield"]))


@dataclass(frozen=True)
class Workload:
    """A workflow run, its output check and its quality figures.

    ``evidence``, when set, computes more check inputs from the run's
    output, outside the timed region.
    """

    run: Callable[[int, str], dict]
    check: Callable[[dict], List[str]]
    summarize: Callable[[dict, int], dict]
    evidence: Optional[Callable[[dict], dict]] = None


WORKLOADS: Dict[str, Workload] = {
    "table3": Workload(run_table3, check_table3, summarize_table3),
    "nsga2_front": Workload(run_nsga2_front, check_nsga2_front,
                            summarize_nsga2_front),
    "robust_front": Workload(run_robust_front, check_robust_front,
                             summarize_robust_front, resweep_robust_front),
}
