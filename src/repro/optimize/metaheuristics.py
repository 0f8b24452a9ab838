"""Meta-heuristic global optimizers, implemented from scratch.

The paper's extraction procedure combines "meta-heuristic and direct
optimization methods"; these are the meta-heuristic half.  All three
share one calling convention and return an :class:`OptimizationResult`
so the extraction pipeline can swap them freely:

* :func:`differential_evolution` — DE/rand/1/bin with dither, the
  workhorse;
* :func:`particle_swarm` — global-best PSO with velocity clamping;
* :func:`simulated_annealing` — Gaussian-step SA with geometric
  cooling and per-dimension step adaptation.

All operate on box bounds, are fully deterministic given a seed, and
count function evaluations honestly (the experiment tables report
``nfev``).

The runtime is **fault tolerant**: a candidate whose evaluation
raises, hangs past the pool timeout, or returns a non-finite value is
scored ``+inf`` (never selected as best, never poisoning ``argmin``)
and counted on ``result.health`` — the run itself cannot be aborted by
a bad candidate.  DE and PSO additionally support deterministic
checkpoint/resume through an injectable
:class:`~repro.optimize.checkpoint.CheckpointStore`: an interrupted
run resumed from its last checkpoint finishes bit-for-bit identical to
an uninterrupted one, because the full population, counters, and RNG
bit-generator state are restored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.guards import contracts as _contracts
from repro.obs import journal as _obs_journal
from repro.obs.telemetry import GenerationRecord, population_stats
from repro.optimize.batching import PopulationEvaluator
from repro.optimize.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    resume_or_none,
)
from repro.optimize.faults import RunHealth, guarded_call

__all__ = [
    "OptimizationResult",
    "differential_evolution",
    "particle_swarm",
    "simulated_annealing",
    "latin_hypercube",
]


@dataclass
class OptimizationResult:
    """Outcome of a single optimizer run."""

    x: np.ndarray
    fun: float
    nfev: int
    n_iterations: int
    converged: bool
    history: List[float] = field(default_factory=list)
    message: str = ""
    health: RunHealth = field(default_factory=RunHealth)

    def __post_init__(self):
        # Guard the trust boundary every optimizer reports through: a
        # non-finite best design or a NaN objective must never leave a
        # run silently (+inf is legitimate — an all-failed run).
        _contracts.check_optimization_result(
            self.x, self.fun, "OptimizationResult"
        )


def _check_bounds(lower, upper):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("bounds must be two 1-D arrays of equal length")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError(
            "bounds must be finite (no nan/inf): got lower="
            f"{lower.tolist()}, upper={upper.tolist()}"
        )
    if np.any(lower >= upper):
        raise ValueError("every lower bound must be below its upper bound")
    return lower, upper


def latin_hypercube(n_samples: int, lower, upper,
                    rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube samples within box bounds, shape (n_samples, dim)."""
    lower, upper = _check_bounds(lower, upper)
    dim = lower.size
    samples = np.empty((n_samples, dim))
    for d in range(dim):
        perm = rng.permutation(n_samples)
        jitter = rng.random(n_samples)
        samples[:, d] = (perm + jitter) / n_samples
    return lower + samples * (upper - lower)


def _save_checkpoint(store: CheckpointStore, algorithm: str, iteration: int,
                     rng: np.random.Generator, health: RunHealth,
                     payload: dict, on_generation=None):
    health.checkpoints_written += 1
    payload = dict(payload)
    payload["health"] = health.state()
    state_fn = getattr(on_generation, "state", None)
    if callable(state_fn):
        payload["telemetry"] = state_fn()
    store.save(Checkpoint(
        algorithm=algorithm,
        iteration=iteration,
        rng_state=rng.bit_generator.state,
        payload=payload,
    ))
    _obs_journal.emit("checkpoint", algorithm=algorithm,
                      iteration=int(iteration),
                      n_failures=health.n_failures)


def _restore_telemetry(on_generation, payload: dict):
    """Rewind a telemetry sink to a checkpoint's snapshot (if it can).

    Records emitted after the checkpoint by the interrupted run are
    dropped and re-emitted by the resumed run, so the final trace is
    contiguous and identical to an uninterrupted run's.
    """
    restore_fn = getattr(on_generation, "restore", None)
    state = payload.get("telemetry")
    if callable(restore_fn) and state is not None:
        restore_fn(state)


def _seed_population(population: np.ndarray, seeds,
                     lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Overwrite the leading rows of a cold population with *seeds*.

    The cold population is always drawn first (same RNG consumption
    with or without seeding, so warm and cold runs stay comparable);
    the archived rows then replace up to the first ``len(seeds)`` rows,
    clipped into the current box.  Extra seed rows are dropped —
    partial seeding of a larger population keeps LHS coverage for the
    rest.
    """
    if seeds is None:
        return population
    matrix = np.atleast_2d(np.asarray(seeds, dtype=float))
    if matrix.ndim != 2 or matrix.shape[1] != population.shape[1]:
        raise ValueError(
            f"initial_population has shape {matrix.shape}; expected "
            f"(k, {population.shape[1]})"
        )
    k = min(matrix.shape[0], population.shape[0])
    population[:k] = np.clip(matrix[:k], lower, upper)
    return population


def _emit_final_population(algorithm: str, population: np.ndarray,
                           fitness) -> None:
    """Journal the final population for future warm starts.

    The event is the warm-start handoff: ``repro.obs.analytics`` reads
    it back through the bounded tail reader and feeds the rows into a
    later run's ``initial_population=``.  Non-finite fitness rows are
    kept — the seeding path clips and the receiving optimizer
    re-evaluates everything anyway.
    """
    _obs_journal.emit(
        "final_population",
        algorithm=algorithm,
        population=[[float(v) for v in row] for row in population],
        fitness=[float(v) for v in np.asarray(fitness, dtype=float)],
    )


def _emit_generation(on_generation, algorithm: str, generation: int,
                     nfev: int, fitness, health: RunHealth,
                     wall_time_s: float, violation: float = float("nan"),
                     extra: Optional[dict] = None):
    """Invoke an ``on_generation`` sink with one convergence snapshot."""
    if on_generation is None:
        return
    best, mean, spread = population_stats(fitness)
    on_generation(GenerationRecord(
        algorithm=algorithm,
        generation=generation,
        nfev=int(nfev),
        best=best,
        mean=mean,
        spread=spread,
        wall_time_s=float(wall_time_s),
        n_failures=health.n_failures,
        violation=violation,
        extra=dict(extra or {}),
    ))


def differential_evolution(
    objective: Callable[[np.ndarray], float],
    lower,
    upper,
    population_size: int = 30,
    max_iterations: int = 200,
    crossover_rate: float = 0.9,
    mutation: tuple = (0.5, 1.0),
    tolerance: float = 1e-10,
    seed: Optional[int] = None,
    initial: Optional[np.ndarray] = None,
    initial_population: Optional[np.ndarray] = None,
    objective_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    generation_timeout: Optional[float] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 10,
    resume: bool = True,
    on_generation: Optional[Callable[[GenerationRecord], None]] = None,
) -> OptimizationResult:
    """DE/rand/1/bin with mutation dither and bounce-back bound repair.

    ``initial_population`` warm-starts the search: its rows (clipped to
    the bounds) replace the leading rows of the LHS initialization —
    typically the final population of a nearby archived run, found via
    :func:`repro.obs.analytics.warm_start_population`.  ``initial``
    still overwrites row 0 afterwards, and the completed run journals
    its own ``final_population`` event for the next warm start.

    When ``objective_batch`` (a ``(B, n) -> (B,)`` map), ``workers``,
    or ``backend`` is given, each generation's trial vectors are built
    first and evaluated in one population-level call — in-process or
    on the shared-memory worker fleet depending on ``backend`` (see
    :class:`~repro.optimize.batching.PopulationEvaluator`).  This is
    the classic
    *generational* DE variant: donors are drawn from the start-of-
    generation population instead of the partially updated one, so
    trajectories differ from the sequential path (convergence behaviour
    is equivalent; the RNG consumption is identical).  Without either
    argument the original sequential path runs unchanged.

    With ``checkpoint_store`` given, the complete generation state is
    saved every ``checkpoint_every`` generations and (when ``resume``)
    restored on the next call, replaying the exact RNG trajectory; the
    checkpoint is cleared on successful completion.

    ``on_generation`` (any callable, typically a
    :class:`~repro.obs.telemetry.TelemetryRecorder`) receives one
    :class:`~repro.obs.telemetry.GenerationRecord` per generation —
    including generation 0 right after initialization.  Sinks exposing
    ``state()``/``restore()`` ride inside checkpoints, so resumed runs
    continue the trace contiguously.
    """
    lower, upper = _check_bounds(lower, upper)
    rng = np.random.default_rng(seed)
    dim = lower.size
    pop_size = max(int(population_size), 4)
    health = RunHealth()
    evaluator = None
    if (objective_batch is not None or workers is not None
            or backend is not None):
        evaluator = PopulationEvaluator(
            objective, objective_batch, workers,
            generation_timeout=generation_timeout, health=health,
            backend=backend,
        )

    try:
        checkpoint = (resume_or_none(checkpoint_store,
                                     "differential_evolution")
                      if resume else None)
        if checkpoint is not None:
            payload = checkpoint.payload
            population = np.array(payload["population"], dtype=float)
            if population.shape != (pop_size, dim):
                raise CheckpointError(
                    f"checkpoint population shape {population.shape} does "
                    f"not match the requested run ({pop_size}, {dim})"
                )
            fitness = np.array(payload["fitness"], dtype=float)
            history = list(payload["history"])
            nfev = int(payload["nfev"])
            health.restore(payload["health"])
            _restore_telemetry(on_generation, payload)
            rng.bit_generator.state = checkpoint.rng_state
            start_iteration = int(checkpoint.iteration)
            health.resumed_at = start_iteration
        else:
            init_start = time.monotonic()
            population = latin_hypercube(pop_size, lower, upper, rng)
            population = _seed_population(population, initial_population,
                                          lower, upper)
            if initial is not None:
                population[0] = np.clip(np.asarray(initial, dtype=float),
                                        lower, upper)
            if evaluator is not None:
                fitness = evaluator(population)
            else:
                fitness = np.array([
                    guarded_call(objective, ind, health)
                    for ind in population
                ])
            nfev = pop_size
            history = [float(np.min(fitness))]
            start_iteration = 0
            _emit_generation(on_generation, "differential_evolution", 0,
                             nfev, fitness, health,
                             time.monotonic() - init_start)

        for iteration in range(start_iteration + 1, max_iterations + 1):
            generation_start = time.monotonic()
            f_scale = rng.uniform(*mutation)
            trials = np.empty_like(population) if evaluator is not None \
                else None
            for i in range(pop_size):
                candidates = rng.choice(pop_size, size=3, replace=False)
                # Re-draw until all three donors differ from the target
                # index.
                while i in candidates:
                    candidates = rng.choice(pop_size, size=3, replace=False)
                a, b, c = population[candidates]
                mutant = a + f_scale * (b - c)
                # Bounce-back repair keeps the mutant inside the box
                # without piling probability mass on the bounds.
                below = mutant < lower
                above = mutant > upper
                mutant[below] = lower[below] + rng.random(np.sum(below)) * (
                    population[i][below] - lower[below]
                )
                mutant[above] = upper[above] - rng.random(np.sum(above)) * (
                    upper[above] - population[i][above]
                )
                cross = rng.random(dim) < crossover_rate
                cross[rng.integers(dim)] = True
                trial = np.where(cross, mutant, population[i])
                if evaluator is not None:
                    trials[i] = trial
                    continue
                f_trial = guarded_call(objective, trial, health)
                nfev += 1
                if f_trial <= fitness[i]:
                    population[i] = trial
                    fitness[i] = f_trial
            if evaluator is not None:
                f_trials = evaluator(trials)
                nfev += pop_size
                accept = f_trials <= fitness
                population[accept] = trials[accept]
                fitness[accept] = f_trials[accept]
            best = float(np.min(fitness))
            history.append(best)
            _emit_generation(on_generation, "differential_evolution",
                             iteration, nfev, fitness, health,
                             time.monotonic() - generation_start)
            worst = float(np.max(fitness))
            # All-penalty populations have worst == best == inf; treat
            # the spread as open so the run keeps searching.
            spread = worst - best if np.isfinite(worst) else np.inf
            if spread < tolerance * (1.0 + abs(best)):
                if checkpoint_store is not None:
                    checkpoint_store.clear()
                best_idx = int(np.argmin(fitness))
                _emit_final_population("differential_evolution",
                                       population, fitness)
                return OptimizationResult(
                    x=population[best_idx].copy(), fun=best, nfev=nfev,
                    n_iterations=iteration, converged=True, history=history,
                    message="population collapsed within tolerance",
                    health=health,
                )
            if (checkpoint_store is not None
                    and iteration % max(int(checkpoint_every), 1) == 0
                    and iteration < max_iterations):
                _save_checkpoint(
                    checkpoint_store, "differential_evolution", iteration,
                    rng, health,
                    {"population": population.copy(),
                     "fitness": fitness.copy(),
                     "history": list(history),
                     "nfev": int(nfev)},
                    on_generation=on_generation,
                )
        if checkpoint_store is not None:
            checkpoint_store.clear()
        best_idx = int(np.argmin(fitness))
        _emit_final_population("differential_evolution", population, fitness)
        return OptimizationResult(
            x=population[best_idx].copy(), fun=float(fitness[best_idx]),
            nfev=nfev, n_iterations=max_iterations, converged=False,
            history=history, message="iteration limit reached",
            health=health,
        )
    finally:
        if evaluator is not None:
            evaluator.close()


def particle_swarm(
    objective: Callable[[np.ndarray], float],
    lower,
    upper,
    n_particles: int = 30,
    max_iterations: int = 200,
    inertia: float = 0.72,
    cognitive: float = 1.49,
    social: float = 1.49,
    tolerance: float = 1e-10,
    seed: Optional[int] = None,
    initial_population: Optional[np.ndarray] = None,
    objective_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    generation_timeout: Optional[float] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 10,
    resume: bool = True,
    on_generation: Optional[Callable[[GenerationRecord], None]] = None,
) -> OptimizationResult:
    """Global-best PSO with velocity clamping at half the box width.

    ``initial_population`` warm-starts the swarm the same way as
    :func:`differential_evolution`: archived rows replace the leading
    LHS positions (velocities stay randomly drawn), and the finished
    run journals its personal-best set as a ``final_population`` event.

    When ``objective_batch``, ``workers``, or ``backend`` is given,
    each iteration's particle positions are evaluated in one
    population-level call (see
    :class:`~repro.optimize.batching.PopulationEvaluator` for the
    backend choices).
    Unlike DE, this is *exactly* trajectory-preserving: all positions
    of an iteration are fixed before any evaluation, and the
    personal/global-best updates consume the values in the same order
    as the sequential loop.

    Checkpoint/resume and ``on_generation`` telemetry follow the same
    contract as :func:`differential_evolution` (deterministic,
    bit-for-bit; contiguous traces across resume).
    """
    lower, upper = _check_bounds(lower, upper)
    rng = np.random.default_rng(seed)
    dim = lower.size
    span = upper - lower
    v_max = 0.5 * span
    health = RunHealth()
    evaluator = None
    if (objective_batch is not None or workers is not None
            or backend is not None):
        evaluator = PopulationEvaluator(
            objective, objective_batch, workers,
            generation_timeout=generation_timeout, health=health,
            backend=backend,
        )

    try:
        checkpoint = (resume_or_none(checkpoint_store, "particle_swarm")
                      if resume else None)
        if checkpoint is not None:
            payload = checkpoint.payload
            positions = np.array(payload["positions"], dtype=float)
            if positions.shape != (n_particles, dim):
                raise CheckpointError(
                    f"checkpoint swarm shape {positions.shape} does not "
                    f"match the requested run ({n_particles}, {dim})"
                )
            velocities = np.array(payload["velocities"], dtype=float)
            personal_best = np.array(payload["personal_best"], dtype=float)
            personal_fitness = np.array(payload["personal_fitness"],
                                        dtype=float)
            global_best = np.array(payload["global_best"], dtype=float)
            global_fitness = float(payload["global_fitness"])
            history = list(payload["history"])
            stale = int(payload["stale"])
            nfev = int(payload["nfev"])
            health.restore(payload["health"])
            _restore_telemetry(on_generation, payload)
            rng.bit_generator.state = checkpoint.rng_state
            start_iteration = int(checkpoint.iteration)
            health.resumed_at = start_iteration
        else:
            init_start = time.monotonic()
            positions = latin_hypercube(n_particles, lower, upper, rng)
            positions = _seed_population(positions, initial_population,
                                         lower, upper)
            velocities = rng.uniform(-0.1, 0.1,
                                     size=(n_particles, dim)) * span
            if evaluator is not None:
                fitness = evaluator(positions)
            else:
                fitness = np.array([
                    guarded_call(objective, p, health) for p in positions
                ])
            nfev = n_particles
            personal_best = positions.copy()
            personal_fitness = fitness.copy()
            g_idx = int(np.argmin(fitness))
            global_best = positions[g_idx].copy()
            global_fitness = float(fitness[g_idx])
            history = [global_fitness]
            stale = 0
            start_iteration = 0
            _emit_generation(on_generation, "particle_swarm", 0, nfev,
                             fitness, health,
                             time.monotonic() - init_start)

        for iteration in range(start_iteration + 1, max_iterations + 1):
            generation_start = time.monotonic()
            r1 = rng.random((n_particles, dim))
            r2 = rng.random((n_particles, dim))
            velocities = (
                inertia * velocities
                + cognitive * r1 * (personal_best - positions)
                + social * r2 * (global_best - positions)
            )
            velocities = np.clip(velocities, -v_max, v_max)
            positions = np.clip(positions + velocities, lower, upper)
            values = evaluator(positions) if evaluator is not None else None
            improved_any = False
            for i in range(n_particles):
                value = values[i] if values is not None else guarded_call(
                    objective, positions[i], health
                )
                nfev += 1
                if value < personal_fitness[i]:
                    personal_fitness[i] = value
                    personal_best[i] = positions[i].copy()
                    if value < global_fitness:
                        global_fitness = float(value)
                        global_best = positions[i].copy()
                        improved_any = True
            history.append(global_fitness)
            _emit_generation(on_generation, "particle_swarm", iteration,
                             nfev, personal_fitness, health,
                             time.monotonic() - generation_start)
            stale = 0 if improved_any else stale + 1
            if stale >= 30 and np.std(personal_fitness) < tolerance * (
                1.0 + abs(global_fitness)
            ):
                if checkpoint_store is not None:
                    checkpoint_store.clear()
                _emit_final_population("particle_swarm", personal_best,
                                       personal_fitness)
                return OptimizationResult(
                    x=global_best, fun=global_fitness, nfev=nfev,
                    n_iterations=iteration, converged=True, history=history,
                    message="swarm stagnated within tolerance",
                    health=health,
                )
            if (checkpoint_store is not None
                    and iteration % max(int(checkpoint_every), 1) == 0
                    and iteration < max_iterations):
                _save_checkpoint(
                    checkpoint_store, "particle_swarm", iteration, rng,
                    health,
                    {"positions": positions.copy(),
                     "velocities": velocities.copy(),
                     "personal_best": personal_best.copy(),
                     "personal_fitness": personal_fitness.copy(),
                     "global_best": global_best.copy(),
                     "global_fitness": float(global_fitness),
                     "history": list(history),
                     "stale": int(stale),
                     "nfev": int(nfev)},
                    on_generation=on_generation,
                )
        if checkpoint_store is not None:
            checkpoint_store.clear()
        _emit_final_population("particle_swarm", personal_best,
                               personal_fitness)
        return OptimizationResult(
            x=global_best, fun=global_fitness, nfev=nfev,
            n_iterations=max_iterations, converged=False, history=history,
            message="iteration limit reached", health=health,
        )
    finally:
        if evaluator is not None:
            evaluator.close()


def simulated_annealing(
    objective: Callable[[np.ndarray], float],
    lower,
    upper,
    max_iterations: int = 5000,
    initial_temperature: float = 1.0,
    cooling: float = 0.995,
    seed: Optional[int] = None,
    initial: Optional[np.ndarray] = None,
) -> OptimizationResult:
    """Gaussian-move SA with geometric cooling and adaptive step size.

    NaN-safe: a proposal whose evaluation fails or is non-finite scores
    ``+inf`` — it can only be accepted while the current point is also
    ``+inf``, and it can never displace the best-so-far.
    """
    lower, upper = _check_bounds(lower, upper)
    rng = np.random.default_rng(seed)
    span = upper - lower
    health = RunHealth()

    current = (
        np.clip(np.asarray(initial, dtype=float), lower, upper)
        if initial is not None
        else lower + rng.random(lower.size) * span
    )
    f_current = guarded_call(objective, current, health)
    nfev = 1
    best = current.copy()
    f_best = f_current
    temperature = initial_temperature
    step = 0.25
    accepted = 0
    history = [f_best]

    for iteration in range(1, max_iterations + 1):
        proposal = current + rng.standard_normal(lower.size) * step * span
        proposal = np.clip(proposal, lower, upper)
        f_proposal = guarded_call(objective, proposal, health)
        nfev += 1
        delta = f_proposal - f_current
        # inf - inf is nan: when the current point is failed, accept any
        # proposal so the walk can escape the failed region; a failed
        # proposal against a finite current point is always rejected.
        if not np.isfinite(delta):
            accept = not np.isfinite(f_current)
        else:
            accept = delta <= 0 or rng.random() < np.exp(
                -delta / max(temperature, 1e-300)
            )
        if accept:
            current, f_current = proposal, f_proposal
            accepted += 1
            if f_current < f_best:
                best, f_best = current.copy(), f_current
        temperature *= cooling
        if iteration % 100 == 0:
            # Keep the acceptance rate near 30-40% by scaling the step.
            rate = accepted / 100.0
            accepted = 0
            if rate > 0.45:
                step = min(step * 1.3, 1.0)
            elif rate < 0.2:
                step = max(step * 0.7, 1e-6)
            history.append(f_best)
    return OptimizationResult(
        x=best, fun=float(f_best), nfev=nfev, n_iterations=max_iterations,
        converged=True, history=history, message="annealing schedule complete",
        health=health,
    )
