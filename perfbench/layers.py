"""Which program entry points the traced run wraps, and what it derives.

Every span sits at a layer boundary, on the caller's side of a public
function, so the program itself is unchanged:

====================  ==================================================
span name             wrapped entry point
====================  ==================================================
optimize.optimizer    ``goal_attainment_improved`` / ``_standard``,
                      ``weighted_sum`` (as ``DesignFlow`` calls them),
                      ``nsga2``
optimize.minimize     ``scipy.optimize.minimize``
optimize.fd_gradient  scipy's ``approx_derivative`` as SLSQP calls it
robust.evaluate       ``RobustEvaluator.evaluate_batch``
robust.surrogate      ``QuadraticSurrogate.observe`` / ``.predict``
evaluator.call        ``LnaEvaluator.performance`` / ``.performance_batch``
engine.batch          ``CompiledTemplate.performance_batch*``
setup.compile         ``CompiledTemplate.__init__``
analysis.dense        ``solve_tensor_batch[_isolated]`` as the engine
                      calls them
analysis.sparse       ``SparsePlan.solve_rows``
analysis.scalar       ``AmplifierTemplate.evaluate``
obs.journal_append    ``RunJournal.append``
obs.journal_flush     ``RunJournal.flush``
====================  ==================================================

The engine span covers element values, stamping, the analysis solve
and the figures; only the solve has a span of its own, so
``engine.self_s`` lumps values, stamping and figures together.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

from perfbench.tracer import Span, Tracer, self_times

# Complex arithmetic costs about four real flops per real-equivalent op.
_COMPLEX_FLOP_FACTOR = 4.0
_COMPLEX_BYTES = 16


def _counted_fun(args, kwargs):
    """Wrap the function being differentiated so its calls are counted."""
    calls = [0]
    fun = args[0]

    def counted(*a, **k):
        calls[0] += 1
        return fun(*a, **k)

    return calls, (counted,) + tuple(args[1:]), kwargs


def _evaluator_before(args, kwargs):
    evaluator = args[0]
    return (evaluator.n_solves, evaluator.cache_hits), args, kwargs


def _evaluator_after(state, args, kwargs, result):
    evaluator = args[0]
    perfs = result if isinstance(result, list) else [result]
    return {
        "rows": len(perfs),
        "solves": evaluator.n_solves - state[0],
        "cache_hits": evaluator.cache_hits - state[1],
        "failures": sum(1 for p in perfs if p.is_failure),
    }


def _engine_after(state, args, kwargs, result):
    counts = {"rows": np.atleast_2d(args[1]).shape[0]}
    if isinstance(result, tuple):        # the *_isolated entry points
        _, failures, n_fallbacks = result
        counts["fallback_rows"] = int(n_fallbacks)
        counts["failed_rows"] = sum(1 for f in failures if f is not None)
    return counts


def _dense_after(state, args, kwargs, result):
    from repro.analysis.sparsemna import structural_costs
    y_batch = args[0]
    n_batch, n_freq, n = y_batch.shape[:3]
    noise = args[3] if len(args) > 3 else kwargs.get("noise_sources", ())
    n_rhs = len(args[1]) + sum(source.width for source in noise)
    per_row = structural_costs(n, n, n_rhs, len(args[1]))["dense"]
    return {
        "rows": n_batch,
        "flops": _COMPLEX_FLOP_FACTOR * n_batch * n_freq * per_row,
        "bytes": _COMPLEX_BYTES * n_batch * n_freq * (n * n + n * n_rhs),
    }


def _sparse_after(state, args, kwargs, result):
    from repro.analysis.sparsemna import structural_costs
    plan, n_batch = args[0], int(args[2])
    m = plan.n_reduced
    per_row = structural_costs(plan.n_nodes, m, plan.n_rhs,
                               plan.n_out)["sparse"]
    return {
        "rows": n_batch,
        "flops": _COMPLEX_FLOP_FACTOR * n_batch * plan.n_freq * per_row,
        "bytes": _COMPLEX_BYTES * n_batch * plan.n_freq
        * (m * m + m * plan.n_out),
    }


def _robust_before(args, kwargs):
    evaluator = args[0]
    return ((evaluator.n_sweeps, evaluator.n_corner_evals,
             evaluator.n_screened), args, kwargs)


def _robust_after(state, args, kwargs, result):
    evaluator = args[0]
    return {
        "rows": len(result.yield_fraction),
        "sweeps": evaluator.n_sweeps - state[0],
        "corner_evals": evaluator.n_corner_evals - state[1],
        "screened": evaluator.n_screened - state[2],
    }


def install(tracer: Tracer) -> None:
    """Patch every layer entry point the traced run measures."""
    import importlib

    import scipy.optimize
    from scipy.optimize import _differentiable_functions, _slsqp_py

    import repro.core.design as design
    import repro.core.engine as engine
    import repro.experiments.e12_robust_front as e12
    from repro.analysis.sparsemna import SparsePlan
    from repro.core.amplifier import AmplifierTemplate
    from repro.core.objectives import LnaEvaluator
    from repro.obs.journal import RunJournal
    from repro.optimize.robust import QuadraticSurrogate, RobustEvaluator

    # ``repro.optimize`` re-exports the function under the module's name.
    nsga2_module = importlib.import_module("repro.optimize.nsga2")
    fd_probe = (_counted_fun,
                lambda calls, a, k, r: {"evals": calls[0]})
    for owner, attribute in ((design, "goal_attainment_improved"),
                             (design, "goal_attainment_standard"),
                             (design, "weighted_sum"),
                             (nsga2_module, "nsga2"),
                             (e12, "nsga2")):
        tracer.patch(owner, attribute, "optimize.optimizer")
    tracer.patch(scipy.optimize, "minimize", "optimize.minimize")
    for module in (_differentiable_functions, _slsqp_py):
        tracer.patch(module, "approx_derivative", "optimize.fd_gradient",
                     fd_probe)

    tracer.patch(RobustEvaluator, "evaluate_batch", "robust.evaluate",
                 (_robust_before, _robust_after))
    for attribute in ("observe", "predict"):
        tracer.patch(QuadraticSurrogate, attribute, "robust.surrogate")

    for attribute in ("performance", "performance_batch"):
        tracer.patch(LnaEvaluator, attribute, "evaluator.call",
                     (_evaluator_before, _evaluator_after))

    tracer.patch(engine.CompiledTemplate, "__init__", "setup.compile")
    for attribute in ("performance_batch", "performance_batch_physical",
                      "performance_batch_isolated",
                      "performance_batch_physical_isolated"):
        tracer.patch(engine.CompiledTemplate, attribute, "engine.batch",
                     (None, _engine_after))

    for attribute in ("solve_tensor_batch", "solve_tensor_batch_isolated"):
        tracer.patch(engine, attribute, "analysis.dense",
                     (None, _dense_after))
    tracer.patch(SparsePlan, "solve_rows", "analysis.sparse",
                 (None, _sparse_after))
    tracer.patch(AmplifierTemplate, "evaluate", "analysis.scalar")

    tracer.patch(RunJournal, "append", "obs.journal_append")
    tracer.patch(RunJournal, "flush", "obs.journal_flush")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and times from one traced run's spans."""
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    seconds: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        calls[span.name] += 1
        seconds[span.name] += span.duration
        layer_self[span.layer] += self_s
        for key, value in span.counts.items():
            counts[f"{span.name}:{key}"] += value

    robust_rows = counts["robust.evaluate:rows"]
    evaluator_rows = counts["evaluator.call:rows"]
    engine_rows = counts["engine.batch:rows"]
    return {
        "optimize.minimize_calls": calls["optimize.minimize"],
        "optimize.minimize_s": seconds["optimize.minimize"],
        "optimize.fd_gradient_calls": calls["optimize.fd_gradient"],
        "optimize.fd_gradient_s": seconds["optimize.fd_gradient"],
        "optimize.fd_gradient_evals": counts["optimize.fd_gradient:evals"],
        "optimize.self_s": layer_self["optimize"],
        "robust.evaluate_batch_calls": calls["robust.evaluate"],
        "robust.evaluate_batch_s": seconds["robust.evaluate"],
        "robust.sweeps": counts["robust.evaluate:sweeps"],
        "robust.corner_evals": counts["robust.evaluate:corner_evals"],
        "robust.screened_fraction": _ratio(
            counts["robust.evaluate:screened"], robust_rows),
        "robust.surrogate_s": seconds["robust.surrogate"],
        "evaluator.calls": calls["evaluator.call"],
        "evaluator.rows": evaluator_rows,
        "evaluator.rows_per_call": _ratio(evaluator_rows,
                                          calls["evaluator.call"]),
        "evaluator.cache_hits": counts["evaluator.call:cache_hits"],
        "evaluator.cache_hit_ratio": _ratio(
            counts["evaluator.call:cache_hits"], evaluator_rows),
        "evaluator.solves": counts["evaluator.call:solves"],
        "evaluator.failures": counts["evaluator.call:failures"],
        "evaluator.s": seconds["evaluator.call"],
        "evaluator.self_s": layer_self["evaluator"],
        "engine.calls": calls["engine.batch"],
        "engine.rows": engine_rows,
        "engine.rows_per_call": _ratio(engine_rows, calls["engine.batch"]),
        "engine.rows_per_s": _ratio(engine_rows, seconds["engine.batch"]),
        "engine.s": seconds["engine.batch"],
        "engine.self_s": layer_self["engine"],
        "engine.fallback_rows": counts["engine.batch:fallback_rows"],
        "engine.failed_rows": counts["engine.batch:failed_rows"],
        "setup.compile_s": seconds["setup.compile"],
        "analysis.dense_calls": calls["analysis.dense"],
        "analysis.dense_rows": counts["analysis.dense:rows"],
        "analysis.dense_s": seconds["analysis.dense"],
        "analysis.sparse_calls": calls["analysis.sparse"],
        "analysis.sparse_rows": counts["analysis.sparse:rows"],
        "analysis.sparse_s": seconds["analysis.sparse"],
        "analysis.scalar_calls": calls["analysis.scalar"],
        "analysis.scalar_s": seconds["analysis.scalar"],
        "analysis.lu_flops_computed": counts["analysis.dense:flops"]
        + counts["analysis.sparse:flops"],
        "analysis.bytes_computed": counts["analysis.dense:bytes"]
        + counts["analysis.sparse:bytes"],
        "obs.journal_appends": calls["obs.journal_append"],
        "obs.journal_s": seconds["obs.journal_append"]
        + seconds["obs.journal_flush"],
    }
