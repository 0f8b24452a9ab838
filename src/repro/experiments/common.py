"""Shared fixtures for the experiment drivers.

Experiments E8-E11 all analyze the *selected design*, which is the
output of one (expensive) improved-goal-attainment run.  The finished
design is cached per process here so the benchmark modules do not
repeat the optimization four times.  Only the result is shared: every
computation builds its own :class:`DesignFlow`, because a flow's
evaluator (its cache and compiled engine) must be driven by one thread
at a time, and job-service slots are threads.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.design import DesignFlow, FinalDesign
from repro.devices.reference import ReferencePHEMT, make_reference_device

__all__ = ["reference_device", "selected_design"]


@lru_cache(maxsize=1)
def reference_device() -> ReferencePHEMT:
    """The canonical golden device (fixed seed)."""
    return make_reference_device()


@lru_cache(maxsize=2)
def selected_design(profile: str = "full") -> FinalDesign:
    """The selected design, finalized (snapped + verified).

    ``profile="full"`` runs the improved goal-attainment method at the
    paper's budget; ``profile="fast"`` runs the standard method once —
    a cheaper design of the same topology used by the test suite to
    exercise E8-E11 without the full optimization cost.
    """
    flow = DesignFlow(reference_device().small_signal)
    if profile == "full":
        result = flow.run_improved(seed=11, n_probe=40, n_starts=3,
                                   tighten_rounds=2)
    elif profile == "fast":
        result = flow.run_standard()
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return flow.finalize(result)
