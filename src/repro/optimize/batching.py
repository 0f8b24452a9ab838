"""Population evaluation strategies for the metaheuristic optimizers.

The optimizers in :mod:`repro.optimize.metaheuristics` accept an
optional *batch objective* — one call mapping a ``(B, n)`` population
matrix to ``(B,)`` fitness values — so problems with a vectorized
model (the compiled LNA engine, any NumPy-friendly test function) pay
one solve per generation instead of one per candidate.

:class:`PopulationEvaluator` packages the dispatch rules behind a
``backend`` selector:

* ``"serial"`` — a plain Python loop, identical to what the optimizers
  did before batching existed;
* ``"batch"`` — one in-process call to ``objective_batch`` per
  generation;
* ``"fleet"`` — a persistent :class:`~repro.optimize.fleet.WorkerFleet`
  of processes exchanging candidates and results through preallocated
  shared-memory buffers (no per-call pickling — the objective ships
  once at spawn); the only parallel path, because each worker process
  owns its own copy of the objective's state;
* ``"auto"`` — measure the first generation in-process and the second
  on the fleet, then commit to whichever was faster — the decision is
  benchmarked, not guessed, and journaled as ``backend_decision``.

``backend=None`` keeps the historical inference: an explicit
``objective_batch`` wins; otherwise ``workers > 1`` selects the fleet
(the successor of the old per-generation process pool); otherwise the
serial loop.

There is deliberately no in-process thread backend.  Objectives that
carry mutable scratch state — the compiled engine's sparse plan reuses
one buffer per batch size — are not safe to call from two threads at
once, so sharding one objective across threads silently corrupts
results.

Every path is **fault-isolated**: a candidate whose evaluation raises,
returns a non-finite value, or exceeds the per-generation timeout gets
``+inf`` fitness and a :class:`~repro.optimize.faults.RunHealth`
counter tick — never an exception out of the evaluator.  The fleet
additionally degrades gracefully: a worker death abandons the partial
generation and rebuilds the fleet (fresh processes *and* fresh
shared-memory segments) with capped exponential backoff, and after
``max_pool_rebuilds`` rebuilds the evaluator falls back to in-process
evaluation permanently (recorded as ``health.serial_fallback``).
Per-row results are bit-identical across all backends: the same
float64 candidate rows meet the same objective code, whether in this
process or in a fleet worker.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.obs import journal as _obs_journal
from repro.obs import metrics as _obs_metrics
from repro.obs import tracer as _obs_tracer
from repro.optimize.faults import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    CATEGORY_NON_FINITE,
    CATEGORY_TIMEOUT,
    RunHealth,
    guarded_call,
)
from repro.optimize.fleet import (
    STATUS_PENDING,
    FleetBroken,
    WorkerFleet,
    status_category,
)

__all__ = [
    "BACKENDS",
    "PopulationEvaluator",
    "validate_backend",
    "validate_workers",
]

#: Accepted values of ``PopulationEvaluator(backend=...)`` (besides
#: ``None``, which keeps the historical inference).
BACKENDS = ("serial", "batch", "fleet", "auto")

#: The backends that may run candidates in worker processes.
_PARALLEL = ("fleet", "auto")


def validate_workers(workers: Optional[int]) -> Optional[int]:
    """Check a ``workers`` argument, returning it normalized to int.

    ``None`` means "no parallel workers".  Anything else must be a
    strictly positive integer; floats, bools, and non-positive counts
    are rejected with a message naming the offending value.
    """
    if workers is None:
        return None
    if isinstance(workers, bool) or not isinstance(
        workers, (int, np.integer)
    ):
        raise TypeError(
            f"workers must be a positive integer or None, "
            f"got {workers!r} of type {type(workers).__name__}"
        )
    if workers <= 0:
        raise ValueError(
            f"workers must be a positive integer, got {int(workers)}"
        )
    return int(workers)


def validate_backend(backend: Optional[str]) -> Optional[str]:
    """Check a ``backend`` argument against :data:`BACKENDS`.

    ``None`` (infer from the other inputs) passes through; anything
    else must be one of :data:`BACKENDS`, or a ``ValueError`` naming
    the offending value is raised.
    """
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS} or None, got {backend!r}"
        )
    return backend


def default_workers() -> int:
    """Worker count used when a parallel backend is asked for without
    an explicit ``workers``: the CPUs this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class PopulationEvaluator:
    """Maps a ``(B, n)`` population to ``(B,)`` objective values.

    Use as a context manager (or call :meth:`close`) when a parallel
    backend is in play, so worker processes and shared-memory
    segments are reclaimed deterministically; a ``__del__`` safety net
    does the same if an optimizer dies mid-run without closing.  Both
    paths are idempotent, survive a half-constructed instance, and
    unlink every shared-memory segment, so killed runs leak nothing in
    ``/dev/shm``.

    Parameters
    ----------
    objective, objective_batch, workers, backend:
        Dispatch inputs (see module docstring).  ``workers`` defaults
        to the usable CPU count when a parallel backend is requested
        without it.
    objective_factory:
        Optional zero-argument callable shipped to fleet workers in
        place of the objective itself; each worker calls it **once** at
        startup and it may return a scalar objective or an
        ``(objective, objective_batch)`` pair.  Use it when the
        objective wraps expensive state (a compiled template) that is
        cheaper to rebuild in the worker than to serialize.
    generation_timeout:
        Wall-clock budget in seconds for one population evaluation on
        the fleet path.  Candidates still pending at the deadline are
        scored ``+inf`` (category ``"timeout"``) and the fleet is
        rebuilt with fresh segments, abandoning the hung workers.
    max_pool_rebuilds:
        Fleet rebuilds (after a worker death or a timeout) before the
        evaluator gives up on multiprocessing and runs in-process for
        the rest of the run.
    backoff_base, backoff_cap:
        Exponential backoff (seconds) between fleet rebuilds:
        ``min(cap, base * 2**k)`` after the k-th rebuild.
    fleet_capacity:
        Initial row capacity of the fleet's shared buffers (grown
        automatically when a larger population arrives).
    health:
        Shared :class:`RunHealth` to record failures into; a private
        one is created when not given (exposed as ``.health``).
    """

    def __init__(self, objective: Callable[[np.ndarray], float],
                 objective_batch: Optional[Callable] = None,
                 workers: Optional[int] = None,
                 generation_timeout: Optional[float] = None,
                 max_pool_rebuilds: int = 3,
                 backoff_base: float = BACKOFF_BASE,
                 backoff_cap: float = BACKOFF_CAP,
                 health: Optional[RunHealth] = None,
                 backend: Optional[str] = None,
                 objective_factory: Optional[Callable] = None,
                 fleet_capacity: int = 256):
        workers = validate_workers(workers)
        if generation_timeout is not None and generation_timeout <= 0:
            raise ValueError(
                f"generation_timeout must be positive, "
                f"got {generation_timeout}"
            )
        validate_backend(backend)
        if backend == "batch" and objective_batch is None:
            raise ValueError('backend="batch" requires objective_batch')
        self._objective = objective
        self._batch = objective_batch
        self._objective_factory = objective_factory
        if workers is None and backend in _PARALLEL:
            workers = default_workers()
        self._workers = workers
        self.generation_timeout = generation_timeout
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.health = health if health is not None else RunHealth()
        self.fleet_capacity = int(fleet_capacity)
        self.requested_backend = backend
        self._fleet: Optional[WorkerFleet] = None
        self._fleet_abandoned = False
        self._auto_samples: List[Tuple[str, float]] = []
        self._closed = False
        self.backend = self._resolve_backend(backend)

    def _resolve_backend(self, backend: Optional[str]) -> str:
        if backend is None:
            # Historical inference: batch wins; otherwise workers > 1
            # means the (now fleet-backed) process path; else serial.
            if self._batch is not None:
                return "batch"
            if self._workers is not None and self._workers > 1:
                return "fleet"
            return "serial"
        if backend in _PARALLEL and self._workers == 1:
            # One worker cannot overlap anything; stay in-process.
            return self._inprocess_mode()
        return backend

    # -- dispatch -----------------------------------------------------------
    def __call__(self, population: np.ndarray) -> np.ndarray:
        population = np.atleast_2d(np.asarray(population, dtype=float))
        mode = self._current_mode()
        with _obs_tracer.span("batching.generation",
                              batch=population.shape[0], mode=mode):
            start = time.perf_counter()
            values = self._dispatch(mode, population)
            elapsed = time.perf_counter() - start
        if self.backend == "auto":
            self._auto_step(mode, population.shape[0], elapsed)
        _obs_metrics.inc("batching.generations")
        _obs_metrics.inc(f"batching.generations_{mode}")
        return values

    def _current_mode(self) -> str:
        """The concrete path the next generation will take."""
        backend = self.backend
        if self._closed and backend in _PARALLEL:
            # A closed evaluator must not respawn workers; it keeps
            # answering (the old pool path did too), just in-process.
            return self._inprocess_mode()
        if backend == "auto":
            # Probe in-process first, the fleet second.
            if not self._auto_samples:
                return self._inprocess_mode()
            return "fleet"
        if backend == "fleet" and self._fleet_abandoned:
            return self._inprocess_mode()
        return backend

    def _inprocess_mode(self) -> str:
        return "batch" if self._batch is not None else "serial"

    def _dispatch(self, mode: str, population: np.ndarray) -> np.ndarray:
        if mode == "batch":
            return self._batch_eval(population)
        if mode == "fleet":
            return self._fleet_eval(population)
        return self._serial_eval(population)

    def _auto_step(self, mode: str, n_rows: int, elapsed: float) -> None:
        """Commit ``backend="auto"`` after one timed generation each way."""
        rate = n_rows / elapsed if elapsed > 0 else float("inf")
        self._auto_samples.append((mode, rate))
        if len(self._auto_samples) < 2:
            return
        (mode_a, rate_a), (mode_b, rate_b) = self._auto_samples[:2]
        chosen = mode_a if rate_a >= rate_b else mode_b
        self.backend = chosen
        _obs_journal.emit(
            "backend_decision",
            chosen=chosen,
            candidates={mode_a: float(rate_a), mode_b: float(rate_b)},
            workers=self._workers,
        )
        if chosen != "fleet" and self._fleet is not None:
            self._discard_fleet()

    # -- in-process paths ---------------------------------------------------
    def _serial_eval(self, population: np.ndarray) -> np.ndarray:
        return np.array(
            [guarded_call(self._objective, x, self.health)
             for x in population],
            dtype=float,
        )

    def _batch_eval(self, population: np.ndarray) -> np.ndarray:
        """One fault-isolated call to ``objective_batch``."""
        n = population.shape[0]
        try:
            values = np.asarray(self._batch(population),
                                dtype=float).reshape(-1)
        except Exception:  # noqa: BLE001 - degrade, don't abort
            # The serial re-evaluation records the per-candidate
            # failures, so the batch-level error only counts as a retry.
            self.health.retries += 1
            return self._serial_eval(population)
        if values.shape[0] != n:
            raise ValueError(
                f"objective_batch returned {values.shape[0]} values "
                f"for a population of {n}"
            )
        bad = ~np.isfinite(values)
        if np.any(bad):
            self.health.record(CATEGORY_NON_FINITE, int(np.sum(bad)))
            values = np.where(bad, np.inf, values)
        return values

    # -- shared-memory fleet path -------------------------------------------
    def _ensure_fleet(self) -> WorkerFleet:
        if self._fleet is None:
            self._fleet = WorkerFleet(
                objective=self._objective,
                objective_batch=self._batch,
                objective_factory=self._objective_factory,
                workers=self._workers or default_workers(),
                capacity=self.fleet_capacity,
            )
        return self._fleet

    def _fleet_eval(self, population: np.ndarray) -> np.ndarray:
        while not self._fleet_abandoned:
            try:
                return self._fleet_eval_once(population)
            except FleetBroken:
                # The partial generation is discarded (its failures
                # were never merged); retry whole on a fresh fleet.
                self._discard_fleet()
                if self.health.pool_rebuilds >= self.max_pool_rebuilds:
                    self._abandon_fleet()
                    break
                self._rebuild_backoff()
        # Permanent (or configured-off) in-process fallback.
        return (self._batch_eval(population) if self._batch is not None
                else self._serial_eval(population))

    def _fleet_eval_once(self, population: np.ndarray) -> np.ndarray:
        fleet = self._ensure_fleet()
        tracer = _obs_tracer.get_tracer()
        result = fleet.evaluate(
            population,
            timeout=self.generation_timeout,
            tracing=tracer.enabled,
        )
        # Per-row failures arrive as status-lane codes and fold into a
        # generation-local record first: a FleetBroken above abandons
        # the whole generation before anything is merged, so a rebuilt
        # re-run cannot double-count (same rule the old pool path had).
        generation_health = RunHealth()
        for code in result.statuses[result.statuses > 0]:
            generation_health.record(status_category(int(code)))
        n_pending = int(np.sum(result.statuses == STATUS_PENDING))
        if n_pending:
            generation_health.record(CATEGORY_TIMEOUT, n_pending)
        generation_health.retries += result.retries
        if result.spans:
            stack = tracer._stack()
            tracer.merge(result.spans,
                         parent_id=stack[-1] if stack else None)
        for name, value in result.counters.items():
            _obs_metrics.inc(name, value)
        self.health.merge(generation_health)
        if result.timed_out:
            _obs_journal.emit(
                "generation_timeout",
                n_timeouts=n_pending,
                batch=int(population.shape[0]),
            )
            # Hung workers poison every later generation — and might
            # still write into reused buffers — so the whole fleet,
            # segments included, is swapped out.
            self._discard_fleet()
            if self.health.pool_rebuilds >= self.max_pool_rebuilds:
                self._abandon_fleet()
            else:
                self._rebuild_backoff()
        return result.values

    def _rebuild_backoff(self) -> None:
        """Count a rebuild and back off; the next use spawns fresh."""
        delay = min(self.backoff_cap,
                    self.backoff_base * 2.0 ** self.health.pool_rebuilds)
        self.health.pool_rebuilds += 1
        self.health.retries += 1
        _obs_journal.emit("pool_rebuild",
                          rebuilds=self.health.pool_rebuilds,
                          delay_s=float(delay))
        if delay > 0:
            time.sleep(delay)

    def _discard_fleet(self) -> None:
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            # Short join: dead workers don't answer and hung ones get
            # terminated; close() always unlinks the segments.
            fleet.close(join_timeout=0.2)

    def _abandon_fleet(self) -> None:
        self._discard_fleet()
        self._fleet_abandoned = True
        self.health.serial_fallback = True
        _obs_journal.emit("serial_fallback",
                          pool_rebuilds=self.health.pool_rebuilds)

    # -- lifecycle ----------------------------------------------------------
    def close(self):
        """Release worker processes and shared memory.  Idempotent and
        exception-safe — callable on a half-constructed instance and
        during interpreter shutdown."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        fleet = getattr(self, "_fleet", None)
        self._fleet = None
        if fleet is not None:
            try:
                fleet.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    def __del__(self):
        # Safety net for optimizers that die mid-run; must never raise,
        # even when __init__ failed before attributes existed.
        try:
            self.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def __enter__(self) -> "PopulationEvaluator":
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
