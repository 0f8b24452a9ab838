"""Tests of the benchmark itself: span arithmetic, metric names, checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as runner

runner.import_program()

from perfbench import layers, metrics, workloads  # noqa: E402
from perfbench.tracer import Span, Tracer, covered, self_times  # noqa: E402


# -- self-time arithmetic -----------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2)
    assert covered([], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        Span("optimize.optimizer", 0.0, 10.0),
        Span("evaluator.call", 1.0, 4.0, parent=0),
        Span("engine.batch", 2.0, 3.0, parent=1),
        Span("evaluator.call", 5.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    table = layers.layer_metrics(spans)
    assert table["optimize.self_s"] == pytest.approx(5.0)
    assert table["evaluator.s"] == pytest.approx(5.0)
    assert table["evaluator.self_s"] == pytest.approx(4.0)
    assert table["engine.self_s"] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["inner"]
    tracer = Tracer("test")
    tracer.patch(Layer, "outer", "optimize.optimizer")
    tracer.patch(Layer, "inner", "engine.batch",
                 (None, lambda state, a, k, result: {"rows": result}))
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.__dict__["inner"] is original
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.counts == {"rows": 1}
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- names and units ----------------------------------------------------------
def _declared():
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_match_benchmark_json():
    declared = _declared()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] \
        == list(workloads.WORKLOADS)


def test_traced_metrics_cover_the_per_layer_table():
    derived = set(layers.layer_metrics([]))
    derived |= {"trace.wall_s", "trace.overhead_s", "trace.spans"}
    assert derived == set(metrics.PER_LAYER)
    with pytest.raises(ValueError):
        metrics.as_result({"wall_s": 1.0}, trace=False)


# -- output checks --------------------------------------------------------------
def _table3_rows(**improved):
    row = {"method": "improved goal attainment", "nf_max_db": 0.55,
           "gt_min_db": 14.7, "gamma": -0.03, "feasible": True,
           "mu_min": 1.1, "nfev": 3104}
    row.update(improved)
    return {"rows": [row,
                     dict(row, method="standard goal attainment"),
                     dict(row, method="weighted sum", feasible=False)]}


@pytest.mark.parametrize("corruption", [
    {"feasible": False}, {"nf_max_db": 0.81}, {"gt_min_db": 13.9},
    {"mu_min": 0.99}, {"gamma": 0.06}, {"nf_max_db": float("nan")},
])
def test_table3_check_trips(corruption):
    assert workloads.check_table3(_table3_rows()) == []
    assert workloads.check_table3(_table3_rows(**corruption))


def test_table3_check_needs_all_three_methods():
    out = _table3_rows()
    out["rows"].pop()
    assert workloads.check_table3(out)


GOOD_FRONT = np.array([[0.55, -14.0], [0.60, -15.0], [0.70, -16.0]])


@pytest.mark.parametrize("front", [
    np.vstack([GOOD_FRONT, [[0.65, -14.5]]]),      # dominated point
    np.vstack([GOOD_FRONT, [[1.05, -17.0]]]),      # NF >= 1 dB
    np.vstack([GOOD_FRONT, [[0.50, -9.5]]]),       # GT <= 10 dB
    np.empty((0, 2)),
])
def test_nsga2_check_trips(front):
    assert workloads.check_nsga2_front({"front": GOOD_FRONT}) == []
    assert workloads.check_nsga2_front({"front": front})


def _robust_out(**changes):
    front = np.array([[0.57, -17.1, -1.0], [0.60, -17.5, -0.9]])
    corners = np.linspace(0.5, 18.0, 60).reshape(3, 20)
    out = {"front": front, "reswept": front.copy(),
           "corners_compiled": corners, "corners_scalar": corners.copy()}
    out.update(changes)
    return out


def test_robust_check_trips():
    assert workloads.check_robust_front(_robust_out()) == []
    good = _robust_out()
    moved = good["reswept"].copy()
    moved[1, 2] += 1e-6
    assert workloads.check_robust_front(_robust_out(reswept=moved))
    off = good["corners_compiled"].copy()
    off[2, 7] *= 1 + 1e-8
    assert workloads.check_robust_front(_robust_out(corners_compiled=off))
    assert workloads.check_robust_front(
        _robust_out(front=np.empty((0, 3))))


def _run(counts):
    return {"wall_s": 1.0, "counts": dict(counts), "summary": {},
            "problems": []}


def test_count_mismatch_is_a_failure():
    counts = {"nfev": 10, "engine.rows": 8, "evaluator.solves": 8,
              "evaluator.cache_hits": 2}
    runs = [_run(counts), _run(dict(counts, nfev=11))]
    runner.count_problems(runs, None, None)
    assert not runs[0]["problems"] and runs[1]["problems"]

    runs, traced = [_run(counts)], _run(counts)
    runner.count_problems(runs, traced, dict(counts, **{"engine.rows": 9}))
    assert traced["problems"] and not runs[0]["problems"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(runner.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(runner.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
