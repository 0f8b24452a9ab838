"""E9 (Fig. 5): designed vs "measured" S-parameters of the preamplifier.

The snapped selected design is pushed through the measurement
simulator (VNA-class corruption; see DESIGN.md for the substitution).
Expected shape: the measured S11/S21/S22 traces ride on the designed
curves with sub-dB deviations; gain stays above ~14 dB and both return
losses better than ~9 dB across 1.1-1.7 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluation import MeasuredPerformance, simulate_measurement
from repro.core.report import format_series
from repro.core.amplifier import AmplifierTemplate
from repro.experiments.common import reference_device, selected_design
from repro.rf.frequency import FrequencyGrid

__all__ = ["E9Result", "run", "format_report"]


@dataclass
class E9Result:
    measurement: MeasuredPerformance
    worst_s21_deviation_db: float


def run(n_points: int = 41, profile: str = "full") -> E9Result:
    """Measure the snapped selected design on the simulated bench."""
    design = selected_design(profile)
    template = AmplifierTemplate(reference_device().small_signal)
    frequency = FrequencyGrid.linear(1.0e9, 1.8e9, n_points)
    measurement = simulate_measurement(template, design.snapped, frequency)
    return E9Result(
        measurement=measurement,
        worst_s21_deviation_db=measurement.worst_deviation_db(2, 1),
    )


def format_report(result: E9Result) -> str:
    m = result.measurement
    title = (
        "Fig. 5 - preamplifier S-parameters, designed vs measured "
        f"(worst S21 deviation {result.worst_s21_deviation_db:.3f} dB)"
    )
    return format_series(
        "f [GHz]",
        ["S11 des [dB]", "S11 meas [dB]", "S21 des [dB]",
         "S21 meas [dB]", "S22 des [dB]", "S22 meas [dB]"],
        m.frequency.f_ghz,
        [
            m.sparam_db(1, 1, measured=False),
            m.sparam_db(1, 1, measured=True),
            m.sparam_db(2, 1, measured=False),
            m.sparam_db(2, 1, measured=True),
            m.sparam_db(2, 2, measured=False),
            m.sparam_db(2, 2, measured=True),
        ],
        title=title,
        float_format="{:.2f}",
    )
