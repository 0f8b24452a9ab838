"""E6 (Fig. 3): the noise-figure / transducer-gain trade-off front.

The improved goal-attainment method is swept along a family of goal
vectors from "quietest" to "loudest"; each solve lands one point of
the NF/GT Pareto front.  The weighted-sum baseline is swept over the
same budget for comparison.  Expected shape: a smooth front falling
from (low NF, modest GT) to (higher NF, high GT); the goal-attainment
points spread along it while the weighted-sum points cluster at the
extremes (the classic convex-combination failure).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.design import DesignFlow
from repro.core.report import format_series
from repro.experiments.common import reference_device
from repro.obs import tracer as _obs_tracer
from repro.obs.runs import recorded_run
from repro.optimize.pareto import hypervolume_2d, pareto_filter

__all__ = ["E6Result", "run", "submit", "format_report"]


def submit(service, n_points: int = 5, seed: int = 0,
           deadline_s: Optional[float] = None, max_retries: int = 1,
           **run_kwargs):
    """Submit the front sweep to a job service instead of running inline.

    See :func:`repro.service.api.submit_experiment`; the sweep runs in
    whichever service process leases the job, supervised (deadline,
    retry, crash recovery).
    """
    from repro.service.api import submit_experiment
    kwargs = dict(n_points=n_points, seed=seed, **run_kwargs)
    return submit_experiment(service, "e6_tradeoff_front", kwargs,
                             deadline_s=deadline_s,
                             max_retries=max_retries)


@dataclass
class E6Result:
    goal_points: np.ndarray      # (n, 2) attained [NFmax, -GTmin]
    wsum_points: np.ndarray      # (m, 2)
    front: np.ndarray            # non-dominated subset of goal_points
    hypervolume_goal: float
    hypervolume_wsum: float
    reference: np.ndarray


def run(n_points: int = 5, seed: int = 0,
        record_to: Optional[str] = None,
        warm_start: Optional[str] = None) -> E6Result:
    """Trace the front with both methods.

    ``record_to`` names a runs root; the sweep is then journaled as one
    run (each goal point's generations carry distinct algorithm tags).
    ``warm_start`` names a runs root whose nearest archived final
    population seeds every goal point's probe stage (see
    :func:`repro.obs.analytics.warm_start_population`).
    """
    config = {"experiment": "e6", "n_points": int(n_points)}
    recording = (
        recorded_run(record_to, name="e6", config=config,
                     seeds={"seed": int(seed)})
        if record_to is not None else nullcontext()
    )
    with recording as run_dir, _obs_tracer.span("e6.run",
                                                n_points=n_points):
        journal = run_dir.journal if run_dir is not None else None
        device = reference_device()
        seeds = None
        if warm_start is not None:
            from repro.obs.analytics import warm_start_population
            seeds = warm_start_population(config, warm_start,
                                          population_size=32)
        nf_goals = np.linspace(0.50, 0.85, n_points)
        gt_goals = np.linspace(18.0, 12.0, n_points)

        goal_points = []
        for k, (nf_goal, gt_goal) in enumerate(zip(nf_goals, gt_goals)):
            with _obs_tracer.span("e6.goal_point", index=k,
                                  nf_goal=float(nf_goal)):
                flow = DesignFlow(device.small_signal)
                result = flow.run_improved(
                    goals=np.array([nf_goal, -gt_goal]), seed=seed,
                    n_probe=32, n_starts=2, tighten_rounds=1,
                    initial_population=seeds,
                    on_generation=journal,
                )
            if result.constraint_violation <= 1e-6:
                goal_points.append(result.objectives)
        goal_points = np.asarray(goal_points)

        wsum_points = []
        for k, w_nf in enumerate(np.linspace(0.1, 4.0, n_points)):
            with _obs_tracer.span("e6.wsum_point", index=k):
                flow = DesignFlow(device.small_signal)
                result = flow.run_weighted_sum(weights=(w_nf, 0.2),
                                               seed=seed, n_starts=3)
            if result.constraint_violation <= 1e-6:
                wsum_points.append(result.objectives)
        wsum_points = (
            np.asarray(wsum_points) if wsum_points else np.empty((0, 2))
        )

    front = goal_points[pareto_filter(goal_points)]
    front = front[np.argsort(front[:, 0])]
    reference = np.array([1.2, -10.0])  # NF 1.2 dB / GT 10 dB corner
    return E6Result(
        goal_points=goal_points,
        wsum_points=wsum_points,
        front=front,
        hypervolume_goal=hypervolume_2d(goal_points, reference),
        hypervolume_wsum=(
            hypervolume_2d(wsum_points, reference)
            if wsum_points.size else 0.0
        ),
        reference=reference,
    )


def format_report(result: E6Result) -> str:
    lines = [format_series(
        "NFmax [dB]", ["GTmin [dB]"],
        result.front[:, 0], [-result.front[:, 1]],
        title="Fig. 3 - NF/GT trade-off front (improved goal attainment)",
    )]
    lines.append(
        f"hypervolume vs ref (NF {result.reference[0]:.2f} dB, "
        f"GT {-result.reference[1]:.1f} dB): "
        f"goal attainment {result.hypervolume_goal:.3f}, "
        f"weighted sum {result.hypervolume_wsum:.3f}"
    )
    if result.wsum_points.size:
        lines.append("weighted-sum points (NFmax dB, GTmin dB): " + ", ".join(
            f"({p[0]:.3f}, {-p[1]:.2f})" for p in result.wsum_points
        ))
    else:
        lines.append("weighted-sum points: none feasible")
    return "\n".join(lines)
