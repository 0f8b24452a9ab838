"""Goal-attainment multi-objective optimization: standard and improved.

**Standard method** (Gembicki 1974, as shipped in classic optimization
toolboxes): introduce a scalar attainment factor ``gamma`` and solve ::

    minimize    gamma
    subject to  f_i(x) - w_i * gamma <= goal_i     (each objective)
                g_j(x) <= 0                        (hard constraints)
                lower <= x <= upper

A negative ``gamma`` means every goal is over-attained.  The method's
well-known weaknesses: the solution depends strongly on the weight
scaling when objectives have different magnitudes, the single local
NLP solve stalls in local minima of non-convex RF objectives, and a
conservative goal vector leaves the solution short of the Pareto
surface.

**Improved method** — the paper announces "a substantial improvement of
a standard method for the multi-objective optimization" without
spelling it out in the abstract (full text unavailable; see DESIGN.md),
so this class reconstructs the three fixes that address exactly those
weaknesses:

1. *auto-scaling*: objective ranges are probed on a Latin-hypercube
   sample and the weights are normalized by them, making the
   attainment factor dimensionless and the solution invariant to
   objective units;
2. *meta-heuristic multi-start*: the NLP is restarted from the best
   probe points (global information), not a single user guess;
3. *goal tightening*: after a solve, goals are re-anchored at the
   attained objective values minus a fraction of the range, and the
   NLP re-run — iterating the solution onto the Pareto surface no
   matter how timid the original goals were.

Both methods count objective evaluations identically, so experiment E5
compares them fairly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy import optimize as sp_optimize

from repro.obs import tracer as _obs_tracer
from repro.obs.telemetry import GenerationRecord
from repro.optimize.checkpoint import CheckpointStore, resume_or_none
from repro.optimize.faults import (
    CATEGORY_NON_FINITE,
    FAILURE_EXCEPTIONS,
    RunHealth,
    classify_exception,
)
from repro.optimize.metaheuristics import (
    _emit_final_population,
    _restore_telemetry,
    _save_checkpoint,
    _seed_population,
    latin_hypercube,
)

__all__ = [
    "MultiObjectiveProblem",
    "GoalAttainmentResult",
    "goal_attainment_standard",
    "goal_attainment_improved",
]

#: Finite objective vector assigned to failed evaluations inside the
#: SLSQP solve — ``inf``/``nan`` would break the line search, a large
#: finite value just makes the point maximally unattractive.
PENALTY_OBJECTIVE = 1.0e9


@dataclass
class MultiObjectiveProblem:
    """A box-bounded multi-objective minimization problem.

    ``objectives(x)`` returns the objective vector (all minimized);
    ``constraints(x)``, when given, returns values that must end up
    <= 0 at a feasible point.

    ``objectives_batch`` / ``constraints_batch`` are optional
    population-level companions: given a ``(B, n)`` matrix they return
    ``(B, n_objectives)`` / ``(B, n_constraints)`` arrays matching the
    scalar callables row by row.  Optimizers that evaluate whole
    populations (NSGA-II, the improved goal-attainment probe stage)
    use them when present to amortize the model solve across
    candidates.
    """

    objectives: Callable[[np.ndarray], np.ndarray]
    n_objectives: int
    lower: np.ndarray
    upper: np.ndarray
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None
    objective_names: Sequence[str] = ()
    objectives_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraints_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal shape")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper")
        if self.n_objectives < 2:
            raise ValueError("a multi-objective problem needs >= 2 objectives")
        if not self.objective_names:
            self.objective_names = tuple(
                f"f{i + 1}" for i in range(self.n_objectives)
            )


@dataclass
class GoalAttainmentResult:
    """Outcome of a goal-attainment solve."""

    x: np.ndarray
    objectives: np.ndarray
    gamma: float
    goals: np.ndarray
    weights: np.ndarray
    nfev: int
    success: bool
    constraint_violation: float
    message: str = ""
    history: List[float] = field(default_factory=list)
    health: RunHealth = field(default_factory=RunHealth)

    def attained(self, tolerance: float = 1e-6) -> bool:
        """True when every goal is met (gamma <= tolerance)."""
        return self.success and self.gamma <= tolerance


class _CountedObjectives:
    """Memoizing evaluation counter shared by all constraint callbacks.

    Failure-isolated: an evaluation that raises one of
    :data:`FAILURE_EXCEPTIONS` or returns non-finite entries yields the
    finite :data:`PENALTY_OBJECTIVE` vector (recorded in ``health``)
    instead of sinking the surrounding SLSQP solve.
    """

    def __init__(self, problem: MultiObjectiveProblem,
                 health: Optional[RunHealth] = None):
        self._problem = problem
        self.health = health if health is not None else RunHealth()
        self.nfev = 0
        self._last_key = None
        self._last_value = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        key = x.tobytes()
        if key != self._last_key:
            n_obj = self._problem.n_objectives
            try:
                value = np.asarray(self._problem.objectives(x), dtype=float)
            except FAILURE_EXCEPTIONS as exc:
                self.health.record(classify_exception(exc))
                value = np.full(n_obj, PENALTY_OBJECTIVE)
            else:
                if value.shape != (n_obj,):
                    raise ValueError(
                        f"objectives returned shape {value.shape}, "
                        f"expected ({n_obj},)"
                    )
                bad = ~np.isfinite(value)
                if np.any(bad):
                    self.health.record(CATEGORY_NON_FINITE)
                    value = np.where(bad, PENALTY_OBJECTIVE, value)
            self._last_value = value
            self._last_key = key
            self.nfev += 1
        return self._last_value

    # -- checkpoint support -------------------------------------------------
    def state(self):
        """Snapshot (count + memo) so a resumed run counts identically."""
        return {
            "nfev": self.nfev,
            "last_key": self._last_key,
            "last_value": None if self._last_value is None
            else np.array(self._last_value),
        }

    def restore(self, state):
        self.nfev = int(state["nfev"])
        self._last_key = state["last_key"]
        self._last_value = state["last_value"]


def _solve_gembicki_nlp(problem: MultiObjectiveProblem, goals, weights,
                        x0, counter: _CountedObjectives,
                        max_iterations: int = 200):
    """One SLSQP solve of the Gembicki reformulation from x0."""
    n_x = problem.lower.size
    goals = np.asarray(goals, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def split(y):
        return y[:n_x], y[n_x]

    def objective(y):
        return y[n_x]

    def attainment_constraints(y):
        x, gamma = split(y)
        f = counter(x)
        return goals + weights * gamma - f  # must be >= 0

    constraint_list = [
        {"type": "ineq", "fun": attainment_constraints},
    ]
    if problem.constraints is not None:
        constraint_list.append(
            {"type": "ineq",
             "fun": lambda y: -np.asarray(
                 problem.constraints(y[:n_x]), dtype=float
             )}
        )

    f0 = counter(np.asarray(x0, dtype=float))
    gamma0 = float(np.max((f0 - goals) / weights)) + 0.1
    y0 = np.concatenate([x0, [gamma0]])
    gamma_span = 1e3 * (1.0 + abs(gamma0))
    bounds = list(zip(problem.lower, problem.upper)) + [
        (-gamma_span, gamma_span)
    ]
    solution = sp_optimize.minimize(
        objective, y0, method="SLSQP", bounds=bounds,
        constraints=constraint_list,
        options={"maxiter": max_iterations, "ftol": 1e-10},
    )
    x_final = np.clip(solution.x[:n_x], problem.lower, problem.upper)
    return x_final, float(solution.x[n_x]), bool(solution.success), str(
        solution.message
    )


def _package(problem, counter, x, goals, weights, success, message,
             history) -> GoalAttainmentResult:
    f = counter(x)
    gamma = float(np.max((f - goals) / weights))
    violation = 0.0
    if problem.constraints is not None:
        violation = float(
            np.max(np.maximum(problem.constraints(x), 0.0), initial=0.0)
        )
    return GoalAttainmentResult(
        x=np.asarray(x, dtype=float), objectives=f, gamma=gamma,
        goals=np.asarray(goals, dtype=float),
        weights=np.asarray(weights, dtype=float), nfev=counter.nfev,
        success=success, constraint_violation=violation, message=message,
        history=history, health=counter.health,
    )


def goal_attainment_standard(
    problem: MultiObjectiveProblem,
    goals,
    weights=None,
    x0=None,
    max_iterations: int = 200,
) -> GoalAttainmentResult:
    """The textbook Gembicki method: one NLP solve, user-supplied weights.

    Defaults follow classic toolbox behaviour: ``weights = |goals|``
    (units-carrying, hence the scaling pathology) and a mid-box start.
    """
    goals = np.asarray(goals, dtype=float)
    if goals.shape != (problem.n_objectives,):
        raise ValueError(
            f"goals must have shape ({problem.n_objectives},), "
            f"got {goals.shape}"
        )
    if weights is None:
        weights = np.maximum(np.abs(goals), 1e-12)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if x0 is None:
        x0 = 0.5 * (problem.lower + problem.upper)
    counter = _CountedObjectives(problem)
    x_final, gamma, success, message = _solve_gembicki_nlp(
        problem, goals, weights, x0, counter, max_iterations
    )
    return _package(problem, counter, x_final, goals, weights, success,
                    message, history=[gamma])


def goal_attainment_improved(
    problem: MultiObjectiveProblem,
    goals,
    weights=None,
    n_probe: int = 64,
    n_starts: int = 6,
    tighten_rounds: int = 2,
    tighten_fraction: float = 0.04,
    seed: Optional[int] = 0,
    initial_population: Optional[np.ndarray] = None,
    max_iterations: int = 200,
    checkpoint_store: Optional[CheckpointStore] = None,
    resume: bool = True,
    on_generation: Optional[Callable[[GenerationRecord], None]] = None,
) -> GoalAttainmentResult:
    """The paper-style improved goal attainment (see module docstring).

    ``initial_population`` warm-starts the probe stage: its rows
    (clipped to the bounds) replace the leading LHS probes, so the
    multi-start ordering sees a nearby archived run's best designs
    first.  The finished run journals its NLP starts plus the final
    design as a ``final_population`` event for future warm starts.

    With a ``checkpoint_store`` the run snapshots its state after the
    probe stage, after every NLP start, and after every tightening
    round (the counter memo rides along, so a resumed run reports the
    same ``nfev`` as an uninterrupted one).

    ``on_generation`` receives one
    :class:`~repro.obs.telemetry.GenerationRecord` per completed stage
    — the probe is generation 0, NLP start *k* is generation ``k + 1``,
    tightening round *r* is generation ``n_starts + r + 1`` — and rides
    inside checkpoints when it exposes ``state()``/``restore()``.
    """
    goals = np.asarray(goals, dtype=float)
    if goals.shape != (problem.n_objectives,):
        raise ValueError(
            f"goals must have shape ({problem.n_objectives},), "
            f"got {goals.shape}"
        )
    rng = np.random.default_rng(seed)
    health = RunHealth()
    counter = _CountedObjectives(problem, health)
    algorithm = "goal_attainment_improved"

    def save(stage_count, start_index, tighten_index, starts, ranges,
             weights, best, history):
        if checkpoint_store is None:
            return
        _save_checkpoint(checkpoint_store, algorithm, stage_count, rng,
                         health, {
                             "start_index": start_index,
                             "tighten_index": tighten_index,
                             "starts": [np.array(s) for s in starts],
                             "ranges": np.array(ranges),
                             "weights": np.array(weights),
                             "best": best,
                             "history": list(history),
                             "counter": counter.state(),
                         }, on_generation=on_generation)

    def emit(stage, generation, gamma, violation, wall_time_s,
             mean=None, spread=0.0):
        if on_generation is None:
            return
        on_generation(GenerationRecord(
            algorithm=algorithm,
            generation=int(generation),
            nfev=counter.nfev,
            best=float(gamma),
            mean=float(gamma if mean is None else mean),
            spread=float(spread),
            wall_time_s=float(wall_time_s),
            n_failures=health.n_failures,
            violation=float(violation),
            extra={"stage": stage},
        ))

    checkpoint = resume_or_none(checkpoint_store, algorithm) \
        if resume else None
    if checkpoint is not None:
        payload = checkpoint.payload
        rng.bit_generator.state = checkpoint.rng_state
        health.restore(payload["health"])
        health.resumed_at = int(checkpoint.iteration)
        counter.restore(payload["counter"])
        _restore_telemetry(on_generation, payload)
        starts = [np.asarray(s, dtype=float) for s in payload["starts"]]
        ranges = np.asarray(payload["ranges"], dtype=float)
        weights = np.asarray(payload["weights"], dtype=float)
        best = payload["best"]
        history = list(payload["history"])
        start_index = int(payload["start_index"])
        tighten_index = int(payload["tighten_index"])
    else:
        # --- stage 1: probe the objective ranges on an LHS sample -------
        probe_start = time.monotonic()
        probes = latin_hypercube(n_probe, problem.lower, problem.upper,
                                 rng)
        probes = _seed_population(probes, initial_population,
                                  problem.lower, problem.upper)
        with _obs_tracer.span("goal_attainment.probe", n_probe=n_probe):
            if problem.objectives_batch is not None:
                # Population-level evaluation: one batched model solve
                # for the whole sample, counted exactly like the
                # per-point loop.
                try:
                    probe_values = np.asarray(
                        problem.objectives_batch(probes), dtype=float
                    )
                    counter.nfev += len(probes)
                except FAILURE_EXCEPTIONS:
                    health.retries += 1
                    probe_values = np.array([counter(p) for p in probes])
            else:
                probe_values = np.array([counter(p) for p in probes])
        bad = ~np.all(np.isfinite(probe_values), axis=1)
        if np.any(bad):
            health.record(CATEGORY_NON_FINITE, int(np.sum(bad)))
            probe_values[bad] = PENALTY_OBJECTIVE
        if problem.constraints is not None:
            if problem.constraints_batch is not None:
                feas = np.all(
                    np.asarray(problem.constraints_batch(probes)) <= 0.0,
                    axis=1,
                )
            else:
                feas = np.array([
                    np.all(np.asarray(problem.constraints(p)) <= 0.0)
                    for p in probes
                ])
        else:
            feas = np.ones(len(probes), dtype=bool)
        # Failed probes would inflate the ranges (and hence the
        # auto-scaled weights) by the penalty magnitude; scale from the
        # healthy probes only.
        healthy = probe_values[~bad] if np.any(~bad) else probe_values
        ranges = np.maximum(
            healthy.max(axis=0) - healthy.min(axis=0), 1e-9
        )
        if weights is None:
            weights = ranges.copy()
        weights = np.asarray(weights, dtype=float)

        # --- stage 2 setup: order the starts by probe attainment --------
        attainment = np.max((probe_values - goals) / weights, axis=1)
        attainment = np.where(feas, attainment, attainment + 1e6)
        order = np.argsort(attainment)
        starts = [probes[i] for i in order[:n_starts]]
        best = None
        history = []
        start_index = 0
        tighten_index = 0
        finite_attainment = attainment[np.isfinite(attainment)]
        if finite_attainment.size:
            emit("probe", 0, float(np.min(finite_attainment)),
                 float("nan"), time.monotonic() - probe_start,
                 mean=float(np.mean(finite_attainment)),
                 spread=float(np.ptp(finite_attainment)))
        else:
            emit("probe", 0, float("inf"), float("nan"),
                 time.monotonic() - probe_start, mean=float("inf"))
        save(0, start_index, tighten_index, starts, ranges, weights,
             best, history)

    # --- stage 2: multi-start from the best probes -----------------------
    for k in range(start_index, len(starts)):
        stage_start = time.monotonic()
        with _obs_tracer.span("goal_attainment.nlp_start", start=k):
            x_final, gamma, success, message = _solve_gembicki_nlp(
                problem, goals, weights, starts[k], counter, max_iterations
            )
        candidate = _package(problem, counter, x_final, goals, weights,
                             success, message, history=[])
        history.append(candidate.gamma)
        if _better(candidate, best):
            best = candidate
        emit("nlp_start", k + 1, best.gamma, best.constraint_violation,
             time.monotonic() - stage_start)
        save(k + 1, k + 1, tighten_index, starts, ranges, weights,
             best, history)

    if best is None:  # pragma: no cover - n_starts >= 1 always yields one
        raise RuntimeError("no goal-attainment start succeeded")

    # --- stage 3: goal tightening onto the Pareto surface ----------------
    for round_index in range(tighten_index, tighten_rounds):
        if best.constraint_violation > 1e-6:
            break
        stage_start = time.monotonic()
        current_goals = best.objectives - tighten_fraction * ranges
        with _obs_tracer.span("goal_attainment.tighten",
                              round=round_index):
            x_final, gamma, success, message = _solve_gembicki_nlp(
                problem, current_goals, weights, best.x, counter,
                max_iterations
            )
        candidate = _package(problem, counter, x_final, current_goals,
                             weights, success, message, history=[])
        history.append(candidate.gamma)
        if not candidate.success or candidate.constraint_violation > 1e-6:
            break
        if np.all(candidate.objectives <= best.objectives + 1e-12):
            best = candidate
            emit("tighten", len(starts) + round_index + 1, best.gamma,
                 best.constraint_violation,
                 time.monotonic() - stage_start)
            save(len(starts) + round_index + 1, len(starts),
                 round_index + 1, starts, ranges, weights, best, history)
        else:
            break

    # Report gamma against the *original* goals for comparability.
    final = _package(problem, counter, best.x, goals, weights,
                     best.success, best.message, history)
    if checkpoint_store is not None:
        checkpoint_store.clear()
    # The NLP starts plus the winning design are this algorithm's best
    # warm-start seeds; gammas approximate the fitness ordering.
    seeds = np.vstack([np.asarray(final.x, dtype=float)[None, :]]
                      + [np.asarray(s, dtype=float)[None, :]
                         for s in starts])
    gammas = [float(final.gamma)] + [
        float(history[k]) if k < len(history) else float("inf")
        for k in range(len(starts))
    ]
    _emit_final_population(algorithm, seeds, gammas)
    return final


def _better(candidate: GoalAttainmentResult,
            incumbent: Optional[GoalAttainmentResult]) -> bool:
    if incumbent is None:
        return True
    cand_key = (candidate.constraint_violation > 1e-6, candidate.gamma)
    inc_key = (incumbent.constraint_violation > 1e-6, incumbent.gamma)
    return cand_key < inc_key
