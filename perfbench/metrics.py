"""Metric names and units, as ``BENCHMARK.json`` declares them.

The tests hold this table and ``BENCHMARK.json`` to the same names and
units; :func:`as_result` refuses to print a metric set that differs.
"""

from __future__ import annotations

from typing import Dict

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "nfev": "count",
    "candidates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "nf_max_db": "dB",
    "gt_min_db": "dB",
    "hypervolume": "dB2",
    "yield_fraction": "fraction",
}

PER_LAYER: Dict[str, str] = {
    "optimize.minimize_calls": "count",
    "optimize.minimize_s": "s",
    "optimize.fd_gradient_calls": "count",
    "optimize.fd_gradient_s": "s",
    "optimize.fd_gradient_evals": "count",
    "optimize.self_s": "s",
    "robust.evaluate_batch_calls": "count",
    "robust.evaluate_batch_s": "s",
    "robust.sweeps": "count",
    "robust.corner_evals": "count",
    "robust.screened_fraction": "fraction",
    "robust.surrogate_s": "s",
    "evaluator.calls": "count",
    "evaluator.rows": "count",
    "evaluator.rows_per_call": "rows/call",
    "evaluator.cache_hits": "count",
    "evaluator.cache_hit_ratio": "fraction",
    "evaluator.solves": "count",
    "evaluator.failures": "count",
    "evaluator.s": "s",
    "evaluator.self_s": "s",
    "engine.calls": "count",
    "engine.rows": "count",
    "engine.rows_per_call": "rows/call",
    "engine.rows_per_s": "rows/s",
    "engine.s": "s",
    "engine.self_s": "s",
    "engine.fallback_rows": "count",
    "engine.failed_rows": "count",
    "setup.compile_s": "s",
    "analysis.dense_calls": "count",
    "analysis.dense_rows": "count",
    "analysis.dense_s": "s",
    "analysis.sparse_calls": "count",
    "analysis.sparse_rows": "count",
    "analysis.sparse_s": "s",
    "analysis.scalar_calls": "count",
    "analysis.scalar_s": "s",
    "analysis.lu_flops_computed": "flop",
    "analysis.bytes_computed": "B",
    "obs.journal_appends": "count",
    "obs.journal_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def as_result(values: Dict[str, float], trace: bool) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for the result line.

    Raises ``ValueError`` unless *values* names exactly the metrics of
    the selected table.
    """
    table = PER_LAYER if trace else END_TO_END
    if set(values) != set(table):
        raise ValueError(
            f"metrics {sorted(set(values) ^ set(table))} are missing or "
            "undeclared")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in table.items()}
