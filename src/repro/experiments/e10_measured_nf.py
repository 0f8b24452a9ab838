"""E10 (Fig. 6): designed vs "measured" noise figure of the preamplifier.

The snapped design's noise figure over the GNSS band, from the full
MNA noise analysis, against the simulated NF-meter readings.  Expected
shape: NF well below 1 dB across 1.1-1.7 GHz, the measured points
scattered around the designed curve by the meter jitter plus the small
ENR systematic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import MeasuredPerformance, simulate_measurement
from repro.core.report import format_series
from repro.core.amplifier import AmplifierTemplate
from repro.experiments.common import reference_device, selected_design
from repro.rf.frequency import FrequencyGrid

__all__ = ["E10Result", "run", "format_report"]


@dataclass
class E10Result:
    measurement: MeasuredPerformance
    nf_designed_max_db: float
    nf_measured_max_db: float


def run(n_points: int = 31, profile: str = "full") -> E10Result:
    """Measure the snapped design's noise figure on the simulated bench."""
    design = selected_design(profile)
    template = AmplifierTemplate(reference_device().small_signal)
    frequency = FrequencyGrid.linear(1.1e9, 1.7e9, n_points)
    measurement = simulate_measurement(template, design.snapped, frequency)
    return E10Result(
        measurement=measurement,
        nf_designed_max_db=float(np.max(measurement.nf_designed_db)),
        nf_measured_max_db=float(np.max(measurement.nf_measured_db)),
    )


def format_report(result: E10Result) -> str:
    m = result.measurement
    title = (
        "Fig. 6 - preamplifier noise figure, designed vs measured "
        f"(max designed {result.nf_designed_max_db:.3f} dB, "
        f"max measured {result.nf_measured_max_db:.3f} dB)"
    )
    return format_series(
        "f [GHz]",
        ["NF designed [dB]", "NF measured [dB]"],
        m.frequency.f_ghz,
        [m.nf_designed_db, m.nf_measured_db],
        title=title,
    )
