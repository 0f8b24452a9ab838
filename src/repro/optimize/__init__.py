"""Optimization substrate: metaheuristics, extraction, goal attainment."""

from repro.optimize.batching import (
    BACKENDS,
    PopulationEvaluator,
    validate_workers,
)
from repro.optimize.fleet import FleetBroken, WorkerFleet
from repro.optimize.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
)
from repro.optimize.faults import (
    FAILURE_EXCEPTIONS,
    EvaluationFailure,
    FaultInjector,
    InjectedFault,
    RunHealth,
    classify_exception,
    guarded_call,
)
from repro.optimize.metaheuristics import (
    OptimizationResult,
    differential_evolution,
    latin_hypercube,
    particle_swarm,
    simulated_annealing,
)
from repro.optimize.direct import refine_least_squares, refine_nelder_mead
from repro.optimize.extraction import (
    ColdFetExtractionResult,
    ExtractionResult,
    SmallSignalExtractionResult,
    extract_dc_model,
    extract_de_only,
    extract_extrinsics_cold_fet,
    extract_local_only,
    extract_small_signal,
)
from repro.optimize.goal_attainment import (
    GoalAttainmentResult,
    MultiObjectiveProblem,
    goal_attainment_improved,
    goal_attainment_standard,
)
from repro.optimize.nsga2 import Nsga2Result, nsga2

#: Robust-evaluation names resolved lazily (PEP 562): robust.py imports
#: repro.core.engine, whose own import of repro.optimize.faults runs
#: this package __init__ — an eager import here would close that cycle
#: while the engine module is still half-initialized.
_ROBUST_EXPORTS = (
    "CornerSet",
    "QuadraticSurrogate",
    "RobustEvaluator",
    "RobustFigures",
    "RobustScalarObjective",
    "RobustStateSink",
    "TemperatureCoefficients",
    "build_robust_problem",
    "robust_score",
)


def __getattr__(name):
    if name in _ROBUST_EXPORTS:
        from repro.optimize import robust
        return getattr(robust, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
from repro.optimize.scalarization import epsilon_constraint, weighted_sum
from repro.optimize.pareto import (
    dominates,
    hypervolume_2d,
    pareto_filter,
    sweep_goal_front,
)

__all__ = [
    "BACKENDS",
    "FleetBroken",
    "PopulationEvaluator",
    "WorkerFleet",
    "validate_workers",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "FileCheckpointStore",
    "MemoryCheckpointStore",
    "FAILURE_EXCEPTIONS",
    "EvaluationFailure",
    "FaultInjector",
    "InjectedFault",
    "RunHealth",
    "classify_exception",
    "guarded_call",
    "OptimizationResult",
    "differential_evolution",
    "latin_hypercube",
    "particle_swarm",
    "simulated_annealing",
    "refine_least_squares",
    "refine_nelder_mead",
    "ColdFetExtractionResult",
    "ExtractionResult",
    "SmallSignalExtractionResult",
    "extract_dc_model",
    "extract_de_only",
    "extract_extrinsics_cold_fet",
    "extract_local_only",
    "extract_small_signal",
    "GoalAttainmentResult",
    "MultiObjectiveProblem",
    "goal_attainment_improved",
    "goal_attainment_standard",
    "Nsga2Result",
    "nsga2",
    "CornerSet",
    "QuadraticSurrogate",
    "RobustEvaluator",
    "RobustFigures",
    "RobustScalarObjective",
    "RobustStateSink",
    "TemperatureCoefficients",
    "build_robust_problem",
    "robust_score",
    "epsilon_constraint",
    "weighted_sum",
    "dominates",
    "hypervolume_2d",
    "pareto_filter",
    "sweep_goal_front",
]
