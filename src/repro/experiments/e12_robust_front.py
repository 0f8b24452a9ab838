"""E12: the yield-aware robust Pareto front.

NSGA-II optimizes ``(NFworst, -GTworst, -yield)`` — worst-case figures
over a component-tolerance + bias corner set plus the shipping yield —
instead of the nominal paper objectives.  Expected shape: the robust
front sits above-right of the nominal E6 front (worst-case NF is
always >= nominal NF), and the high-yield end trades a few tenths of a
dB of noise figure for designs that survive loose parts.

Every candidate's corner sweep is one batched MNA call; a quadratic
surrogate trained on the run's own evaluation history pre-screens each
generation so only the shortlisted fraction pays for a sweep.  The
corner RNG and surrogate state ride the NSGA-II checkpoint (via
:class:`~repro.optimize.robust.RobustStateSink`), so a SIGKILLed run
resumes bit-for-bit.  The reported front is re-evaluated with the
screen off — published numbers are always swept, never predicted.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.amplifier import AmplifierTemplate
from repro.core.bands import design_grid, stability_grid
from repro.core.objectives import DesignSpec
from repro.core.tolerance import ToleranceSpec
from repro.experiments.common import reference_device
from repro.obs import tracer as _obs_tracer
from repro.obs.runs import recorded_run
from repro.optimize.nsga2 import nsga2
from repro.optimize.pareto import pareto_filter
from repro.optimize.robust import (
    RobustEvaluator,
    RobustStateSink,
    build_robust_problem,
)

__all__ = ["E12Result", "run", "submit", "format_report"]


def submit(service, population_size: int = 24, n_generations: int = 25,
           n_trials: int = 8, seed: int = 0,
           deadline_s: Optional[float] = None, max_retries: int = 1,
           **run_kwargs):
    """Submit the robust front to a job service instead of running inline.

    See :func:`repro.service.api.submit_experiment`; the sweep runs in
    whichever service process leases the job, supervised (deadline,
    retry, crash recovery).
    """
    from repro.service.api import submit_experiment
    kwargs = dict(population_size=population_size,
                  n_generations=n_generations, n_trials=n_trials,
                  seed=seed, **run_kwargs)
    return submit_experiment(service, "e12_robust_front", kwargs,
                             deadline_s=deadline_s,
                             max_retries=max_retries)


@dataclass
class E12Result:
    front_x: np.ndarray          # (m, n_vars) unit decision vectors
    front: np.ndarray            # (m, 3) [NFworst_dB, -GTworst_dB, -yield]
    yield_fraction: np.ndarray   # (m,) swept (never predicted) yield
    best_yield: float
    nf_worst_best_db: float
    n_corner_evals: int
    n_screened: int
    nfev: int

    @property
    def n_points(self) -> int:
        return self.front.shape[0]


def run(population_size: int = 24, n_generations: int = 25,
        n_trials: int = 8, seed: int = 0,
        tolerances: Optional[ToleranceSpec] = None,
        spec: Optional[DesignSpec] = None,
        screen_fraction: float = 0.5,
        min_screen_history: int = 24,
        n_band: int = 9, n_guard: int = 12,
        nf_ship_limit_db: float = 0.8,
        gt_ship_limit_db: float = 11.0,
        checkpoint_store=None, checkpoint_every: int = 1,
        resume: bool = True,
        record_to: Optional[str] = None,
        warm_start: Optional[str] = None) -> E12Result:
    """Trace the robust front with NSGA-II over a corner-swept evaluator.

    ``record_to`` names a runs root; generations are then journaled
    with yield / worst-case-NF columns (``repro-obs summary`` reports
    them).  With a *checkpoint_store* the run — including the corner
    RNG and surrogate history — is SIGKILL-recoverable: rerunning with
    the same arguments resumes bit-for-bit.  ``warm_start`` names a
    runs root: NSGA-II's initial population is then seeded from the
    nearest archived run's final population (see
    :func:`repro.obs.analytics.warm_start_population`).
    """
    config = {"experiment": "e12",
              "population_size": int(population_size),
              "n_generations": int(n_generations),
              "n_trials": int(n_trials)}
    recording = (
        recorded_run(record_to, name="e12", config=config,
                     seeds={"seed": int(seed)})
        if record_to is not None else nullcontext()
    )
    with recording as run_dir, _obs_tracer.span(
            "e12.run", population=population_size,
            generations=n_generations):
        journal = run_dir.journal if run_dir is not None else None
        seeds = None
        if warm_start is not None:
            from repro.obs.analytics import warm_start_population
            seeds = warm_start_population(
                config, warm_start, algorithm="nsga2",
                population_size=population_size)
        template = AmplifierTemplate(reference_device().small_signal)
        # The per-corner shipping limits already carry the design
        # margins (every corner must meet NF/GT/stability for the
        # board to count as yield); the nominal constraints here only
        # keep the search inside buildable territory, so they are
        # looser than the nominal-optimization DesignSpec.
        spec = spec or DesignSpec(rl_spec_db=6.0, ripple_spec_db=5.0,
                                  mu_margin=1.02)
        evaluator = RobustEvaluator(
            template,
            tolerances=tolerances,
            n_mc_trials=n_trials,
            seed=seed,
            band_grid=design_grid(n_band),
            guard_grid=stability_grid(n_guard),
            nf_ship_limit_db=nf_ship_limit_db,
            gt_ship_limit_db=gt_ship_limit_db,
            screen_fraction=screen_fraction,
            min_screen_history=min_screen_history,
        )
        problem = build_robust_problem(template, spec=spec,
                                       evaluator=evaluator)
        sink = RobustStateSink(evaluator, inner=journal)
        result = nsga2(
            problem,
            population_size=population_size,
            n_generations=n_generations,
            seed=seed,
            initial_population=seeds,
            checkpoint_store=checkpoint_store,
            checkpoint_every=checkpoint_every,
            resume=resume,
            on_generation=sink,
        )

        # Published numbers are swept, never surrogate predictions:
        # re-evaluate the reported front with the screen off.
        front_x = np.atleast_2d(result.x)
        swept = evaluator.evaluate_batch(front_x, screen=False)
        objectives = np.column_stack([
            swept.nf_worst_db,
            -swept.gt_worst_db,
            -swept.yield_fraction,
        ])
        keep = pareto_filter(objectives)
        front_x = front_x[keep]
        objectives = objectives[keep]
        order = np.argsort(objectives[:, 0], kind="stable")
        front_x = front_x[order]
        objectives = objectives[order]

    return E12Result(
        front_x=front_x,
        front=objectives,
        yield_fraction=-objectives[:, 2],
        best_yield=float(np.max(-objectives[:, 2]))
        if objectives.size else 0.0,
        nf_worst_best_db=float(np.min(objectives[:, 0]))
        if objectives.size else float("inf"),
        n_corner_evals=evaluator.n_corner_evals,
        n_screened=evaluator.n_screened,
        nfev=int(result.nfev),
    )


def format_report(result: E12Result) -> str:
    lines = [
        "E12 - yield-aware robust Pareto front "
        f"({result.n_points} points)",
        f"  {'NFworst [dB]':>13} {'GTworst [dB]':>13} {'yield':>7}",
    ]
    for row in result.front:
        lines.append(
            f"  {row[0]:>13.3f} {-row[1]:>13.2f} {-row[2]:>7.2f}")
    lines.append(
        f"best yield {result.best_yield:.2f}, best worst-case NF "
        f"{result.nf_worst_best_db:.3f} dB"
    )
    lines.append(
        f"corner evaluations {result.n_corner_evals} "
        f"({result.n_screened} candidates surrogate-screened, "
        f"{result.nfev} front evaluations)"
    )
    return "\n".join(lines)
