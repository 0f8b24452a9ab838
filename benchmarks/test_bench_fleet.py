"""Bench: the persistent worker fleet at population scale.

Times a 256-candidate population through the two population
backends — the in-process compiled batch and the shared-memory worker
fleet (workers rebuild the compiled objective once via
``objective_factory``; candidates and fitness cross process boundaries
through preallocated float64 buffers, never pickle) — and writes ``BENCH_parallel_fleet.json`` with wall times,
throughput, speedups, and the host context the numbers came from.

The acceptance bar (fleet >= 2x over the in-process batch) only arms
on hosts with >= 4 CPUs; smaller machines still write the artifact so
CI's regression diff has a candidate to compare.
"""

import json
import os
import time

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledMetricObjective
from repro.experiments.common import reference_device
from repro.optimize.batching import PopulationEvaluator, default_workers

N_CANDIDATES = 256
FLEET_GATE_MIN_CPUS = 4
FLEET_GATE_SPEEDUP = 2.0


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_parallel_fleet(save_report, report_dir, host_context):
    template = AmplifierTemplate(reference_device().small_signal)
    factory = CompiledMetricObjective(template)
    objective, objective_batch = factory()
    rng = np.random.default_rng(20150901)
    population = rng.random((N_CANDIDATES, len(DesignVariables.NAMES)))
    # At least two workers even on one CPU: the artifact then always
    # carries real fleet numbers (the >= 2x gate still only arms on
    # hosts with enough CPUs to honestly meet it).
    workers = max(2, min(default_workers(), 8))

    with PopulationEvaluator(objective, objective_batch=objective_batch,
                             backend="batch") as batched:
        batched(population[:8])  # warm allocations
        t_batched = _best_of(lambda: batched(population))

    t_fleet = warmup_s = None
    try:
        with PopulationEvaluator(objective, objective_batch=objective_batch,
                                 objective_factory=factory,
                                 backend="fleet", workers=workers,
                                 fleet_capacity=N_CANDIDATES) as fleet:
            fleet(population[:8])  # spawn + warm the fleet
            warmup_s = fleet._fleet.warmup_s if fleet._fleet else None
            t_fleet = _best_of(lambda: fleet(population))
            assert not fleet.health.serial_fallback
    except (OSError, RuntimeError):
        pass  # no subprocess support in this environment

    payload = {
        "n_candidates": N_CANDIDATES,
        "batched_s": t_batched,
        "fleet_s": t_fleet,
        "fleet_warmup_s": warmup_s,
        "batched_candidates_per_s": N_CANDIDATES / t_batched,
        "fleet_candidates_per_s": (
            N_CANDIDATES / t_fleet if t_fleet else None
        ),
        "speedup_fleet_vs_batched": (
            t_batched / t_fleet if t_fleet else None
        ),
        "host": host_context(workers=workers, backend="fleet"),
    }
    (report_dir / "BENCH_parallel_fleet.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"population of {N_CANDIDATES} candidates, {workers} workers",
        f"batched     : {1e3 * t_batched:8.1f} ms "
        f"({N_CANDIDATES / t_batched:7.1f} candidates/s)",
    ]
    if t_fleet:
        lines.append(
            f"fleet       : {1e3 * t_fleet:8.1f} ms "
            f"({N_CANDIDATES / t_fleet:7.1f} candidates/s)  "
            f"speedup {t_batched / t_fleet:.2f}x "
            f"(warm-up {warmup_s or 0.0:.2f} s, paid once)"
        )
    report = "\n".join(lines)
    save_report("BENCH_parallel_fleet", report)
    print("\n" + report)

    cpus = os.cpu_count() or 1
    if t_fleet and cpus >= FLEET_GATE_MIN_CPUS:
        fleet_speedup = t_batched / t_fleet
        assert fleet_speedup >= FLEET_GATE_SPEEDUP, (
            f"fleet only {fleet_speedup:.2f}x over the in-process batch "
            f"at {N_CANDIDATES} candidates on {cpus} CPUs "
            f"(needs >= {FLEET_GATE_SPEEDUP}x)"
        )
