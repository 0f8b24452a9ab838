"""Bench: batched vs scalar Monte-Carlo yield analysis.

Times a 64-trial Monte-Carlo yield run of the reference LNA through
both ``monte_carlo_yield`` engines — the scalar per-trial reference
loop and the batched corner engine (one fault-isolated MNA
factorization for all trials) — and writes ``BENCH_robust_yield.json``.
Both engines consume the identical RNG stream and agree to <= 1e-9
(enforced in ``tests/test_tolerance.py``); the acceptance bar here is
>= 5x for the batched engine at 64 trials.
"""

import json
import time

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.core.bands import design_grid, stability_grid
from repro.core.tolerance import ToleranceSpec, monte_carlo_yield
from repro.experiments.common import reference_device

N_TRIALS = 64
ROBUST_GATE_SPEEDUP = 5.0


def _best_of(fn, repeats=20):
    """Minimum over many repeats: per-run times on a shared box are
    noisy by 30-50%, and the min is the only statistic that converges
    to the unloaded cost."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_robust_yield(save_report, report_dir, host_context):
    template = AmplifierTemplate(reference_device().small_signal)
    nominal = DesignVariables()
    tolerances = ToleranceSpec()
    band = design_grid(13)
    guard = stability_grid(16)
    compiled = CompiledTemplate(template, band, guard, verify=False,
                                solver="sparse")

    def scalar():
        return monte_carlo_yield(template, nominal, tolerances,
                                 n_trials=N_TRIALS, seed=0,
                                 band_grid=band, guard_grid=guard,
                                 engine="scalar")

    def batched():
        return monte_carlo_yield(template, nominal, tolerances,
                                 n_trials=N_TRIALS, seed=0,
                                 band_grid=band, guard_grid=guard,
                                 engine="batched", compiled=compiled)

    # Warm both paths: scratch buffers, allocator pools, the scalar
    # path's per-evaluation circuit assembly caches.
    for _ in range(3):
        batched()
    scalar_result = scalar()
    batched_result = batched()
    np.testing.assert_allclose(batched_result.nf_max_db,
                               scalar_result.nf_max_db, atol=1e-9)
    assert batched_result.n_pass == scalar_result.n_pass

    t_scalar = _best_of(scalar, repeats=5)  # the slow reference loop
    t_batched = _best_of(batched, repeats=20)
    speedup = t_scalar / t_batched

    payload = {
        "n_trials": N_TRIALS,
        "n_frequencies": int(len(band) + len(guard)),
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "scalar_trials_per_s": N_TRIALS / t_scalar,
        "batched_trials_per_s": N_TRIALS / t_batched,
        "speedup_batched_vs_scalar": speedup,
        "yield_fraction": scalar_result.yield_fraction,
        "host": host_context(),
    }
    (report_dir / "BENCH_robust_yield.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"{N_TRIALS}-trial Monte-Carlo yield "
        f"({len(band)}+{len(guard)} frequencies)",
        f"scalar  : {1e3 * t_scalar:7.1f} ms "
        f"({N_TRIALS / t_scalar:7.1f} trials/s)",
        f"batched : {1e3 * t_batched:7.1f} ms "
        f"({N_TRIALS / t_batched:7.1f} trials/s)  "
        f"speedup {speedup:.2f}x",
    ])
    save_report("BENCH_robust_yield", report)
    print("\n" + report)

    assert speedup >= ROBUST_GATE_SPEEDUP, (
        f"batched yield engine only {speedup:.2f}x over the scalar "
        f"loop at {N_TRIALS} trials (needs >= {ROBUST_GATE_SPEEDUP}x)"
    )
