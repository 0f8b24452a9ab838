"""E5 (Table III): improved goal attainment vs the standard baselines.

All methods attack the identical LNA problem (same evaluator, same
constraints, same goals where applicable).  Expected shape: the
improved method reaches a feasible non-dominated design reliably; the
standard method's outcome depends on its single start and its
units-carrying default weights; the weighted sum — even when feasible —
cannot steer to a balanced NF/GT compromise and tends to pile onto one
objective.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.design import DEFAULT_GOALS, DesignFlow
from repro.core.report import format_table
from repro.experiments.common import reference_device
from repro.obs import tracer as _obs_tracer
from repro.obs.runs import recorded_run

__all__ = ["E5Result", "run", "submit", "format_report"]


def submit(service, seed: int = 0,
           deadline_s: Optional[float] = None, max_retries: int = 1,
           **run_kwargs):
    """Submit this experiment to a job service instead of running inline.

    *service* is a service root path, ``ServiceClient``, or live
    ``JobService``; the returned ``JobRecord``'s ``job_id`` is what you
    poll (``client.wait``) and fetch with.  The driver executes inside
    whichever service process leases the job, with crash recovery and
    retry handled by the supervisor.
    """
    from repro.service.api import submit_experiment
    kwargs = dict(seed=seed, **run_kwargs)
    return submit_experiment(service, "e5_optimizer_comparison", kwargs,
                             deadline_s=deadline_s,
                             max_retries=max_retries)


@dataclass
class E5Result:
    rows: List[dict]
    goals: np.ndarray


def run(seed: int = 0, goals=DEFAULT_GOALS,
        record_to: Optional[str] = None,
        warm_start: Optional[str] = None) -> E5Result:
    """Run the three optimizers on a fresh LNA problem each.

    ``record_to`` names a runs root: the experiment is then recorded as
    a run directory (flight-recorder journal + metrics/trace exports,
    see :mod:`repro.obs.runs`) addressable with ``repro-obs``.
    ``warm_start`` names a runs root to consult for the nearest
    archived run's final population (see
    :func:`repro.obs.analytics.warm_start_population`); the improved
    method's probe stage is seeded from it, and the
    ``warmstart_decision`` is journaled when ``record_to`` is active.
    """
    goals = np.asarray(goals, dtype=float)
    rows = []
    config = {"experiment": "e5", "goals": goals.tolist()}

    def record(name, flow, result):
        perf = flow.evaluator.performance(result.x)
        rows.append({
            "method": name,
            "nf_max_db": float(result.objectives[0]),
            "gt_min_db": float(-result.objectives[1]),
            "gamma": float(result.gamma),
            "feasible": result.constraint_violation <= 1e-6,
            "mu_min": perf.mu_min,
            "nfev": int(result.nfev),
        })

    recording = (
        recorded_run(record_to, name="e5", config=config,
                     seeds={"seed": int(seed)})
        if record_to is not None else nullcontext()
    )
    with recording as run_dir, _obs_tracer.span("e5.run"):
        journal = run_dir.journal if run_dir is not None else None
        device = reference_device()
        seeds = None
        if warm_start is not None:
            from repro.obs.analytics import warm_start_population
            seeds = warm_start_population(config, warm_start,
                                          population_size=40)

        with _obs_tracer.span("e5.improved_goal_attainment"):
            flow = DesignFlow(device.small_signal)
            record("improved goal attainment", flow,
                   flow.run_improved(goals=goals, seed=seed, n_probe=40,
                                     n_starts=3, tighten_rounds=2,
                                     initial_population=seeds,
                                     on_generation=journal))

        with _obs_tracer.span("e5.standard_goal_attainment"):
            flow = DesignFlow(device.small_signal)
            record("standard goal attainment", flow,
                   flow.run_standard(goals=goals))

        with _obs_tracer.span("e5.weighted_sum"):
            flow = DesignFlow(device.small_signal)
            record("weighted sum", flow,
                   flow.run_weighted_sum(weights=(1.0, 0.1), seed=seed,
                                         n_starts=4))
    return E5Result(rows=rows, goals=goals)


def format_report(result: E5Result) -> str:
    return format_table(
        ["method", "NFmax [dB]", "GTmin [dB]", "gamma", "feasible",
         "mu_min", "nfev"],
        [
            (r["method"], r["nf_max_db"], r["gt_min_db"], r["gamma"],
             "yes" if r["feasible"] else "NO", r["mu_min"], r["nfev"])
            for r in result.rows
        ],
        title=(
            "Table III - optimizer comparison on the LNA problem "
            f"(goals: NF <= {result.goals[0]:.2f} dB, "
            f"GT >= {-result.goals[1]:.1f} dB)"
        ),
    )
