"""E8 (Table IV): the selected operating point and element values.

One improved-goal-attainment run, finalized: element values snapped to
the E24 catalogue and the snapped board re-verified.  Expected shape:
a sub-50 mA operating point around Vds 3-4 V; NF well under 1 dB and
GT above ~14 dB in every GNSS signal band; the snapped board still
unconditionally stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.design import DesignFlow, FinalDesign
from repro.core.report import format_table
from repro.experiments.common import reference_device, selected_design
from repro.obs import tracer as _obs_tracer
from repro.obs.runs import recorded_run

__all__ = ["E8Result", "run", "submit", "format_report"]


def submit(service, profile: str = "full",
           deadline_s: Optional[float] = None, max_retries: int = 1,
           **run_kwargs):
    """Submit the selected-design run to a job service.

    See :func:`repro.service.api.submit_experiment`; the run executes
    in whichever service process leases the job, supervised (deadline,
    retry, crash recovery).
    """
    from repro.service.api import submit_experiment
    kwargs = dict(profile=profile, **run_kwargs)
    return submit_experiment(service, "e8_selected_design", kwargs,
                             deadline_s=deadline_s,
                             max_retries=max_retries)


@dataclass
class E8Result:
    design: FinalDesign


def run(profile: str = "full",
        record_to: Optional[str] = None) -> E8Result:
    """Fetch (or compute) the cached selected design.

    ``record_to`` names a runs root; the optimization is then executed
    outside the process-wide cache so its convergence trace lands in a
    fresh flight-recorder journal.
    """
    if record_to is None:
        with _obs_tracer.span("e8.run", profile=profile):
            return E8Result(design=selected_design(profile))
    with recorded_run(record_to, name="e8",
                      config={"experiment": "e8", "profile": profile},
                      seeds={"seed": 11}) as run_dir, \
            _obs_tracer.span("e8.run", profile=profile):
        flow = DesignFlow(reference_device().small_signal)
        if profile == "full":
            result = flow.run_improved(
                seed=11, n_probe=40, n_starts=3, tighten_rounds=2,
                on_generation=run_dir.journal,
            )
        elif profile == "fast":
            result = flow.run_standard()
        else:
            raise ValueError(f"unknown profile {profile!r}")
        return E8Result(design=flow.finalize(result))


def format_report(result: E8Result) -> str:
    design = result.design
    element_table = format_table(
        ["quantity", "optimized", "snapped (E24)"],
        [
            (label,
             f"{_lookup(design, label):.3f}",
             f"{value:.3f}")
            for label, value in design.summary_rows()
        ],
        title="Table IV - selected operating point and element values",
    )
    perf = design.snapped_performance.summary()
    perf_table = format_table(
        ["figure of merit", "value"],
        [(key, value) for key, value in perf.items()],
        title="snapped-board verification",
    )
    band_table = format_table(
        ["GNSS band", "NF [dB]", "GT [dB]"],
        [
            (band, vals["NF_dB"], vals["GT_dB"])
            for band, vals in design.per_band.items()
        ],
        title="per-band performance (snapped board)",
    )
    return "\n\n".join([element_table, perf_table, band_table])


_LABEL_TO_ATTR = {
    "Vgs [V]": ("vgs", 1.0),
    "Vds [V]": ("vds", 1.0),
    "Lin [nH]": ("l_in", 1e9),
    "Ldeg [nH]": ("l_deg", 1e9),
    "Cin [pF]": ("c_in", 1e12),
    "Cout [pF]": ("c_out", 1e12),
    "Lchoke [nH]": ("l_choke", 1e9),
    "Rstab [ohm]": ("r_stab", 1.0),
    "Rsh [ohm]": ("r_sh", 1.0),
    "Csh [pF]": ("c_sh", 1e12),
}


def _lookup(design: FinalDesign, label: str) -> float:
    if label == "Ids [mA]":
        return design.performance.ids * 1e3
    attr, scale = _LABEL_TO_ATTR[label]
    return getattr(design.variables, attr) * scale
