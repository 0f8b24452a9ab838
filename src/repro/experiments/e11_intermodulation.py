"""E11 (Table V): third-order intermodulation check of the preamplifier.

Two-tone power-series analysis of the snapped selected design at three
in-band centre frequencies.  Expected shape: IM3 products slope 3 dB/dB
against the fundamental's 1 dB/dB; OIP3 in the tens of dBm — ample
margin for a receiver front end whose largest in-band interferers are
far below the tone powers swept here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.intermod import TwoToneResult, two_tone_analysis
from repro.core.report import format_series, format_table
from repro.core.amplifier import AmplifierTemplate
from repro.experiments.common import reference_device, selected_design

__all__ = ["E11Result", "run", "format_report"]


@dataclass
class E11Result:
    results: List[TwoToneResult]


def run(frequencies=(1.2e9, 1.4e9, 1.6e9),
        profile: str = "full") -> E11Result:
    """Two-tone analysis at several in-band centre frequencies."""
    design = selected_design(profile)
    template = AmplifierTemplate(reference_device().small_signal)
    results = [
        two_tone_analysis(template, design.snapped, f_center=f)
        for f in frequencies
    ]
    return E11Result(results=results)


def format_report(result: E11Result) -> str:
    table = format_table(
        ["f0 [GHz]", "GT [dB]", "IIP3 [dBm]", "OIP3 [dBm]",
         "IM3 slope [dB/dB]"],
        [
            (r.f_center / 1e9, r.gt_db, r.iip3_dbm, r.oip3_dbm,
             r.im3_slope())
            for r in result.results
        ],
        title="Table V - two-tone third-order intermodulation",
        float_format="{:.2f}",
    )
    sweep = result.results[len(result.results) // 2]
    sweep_table = format_series(
        "Pin/tone [dBm]",
        ["Pout fund [dBm]", "Pout IM3 [dBm]"],
        sweep.pin_dbm,
        [sweep.pout_fund_dbm, sweep.pout_im3_dbm],
        title=f"two-tone sweep at {sweep.f_center / 1e9:.2f} GHz",
        float_format="{:.1f}",
    )
    return table + "\n\n" + sweep_table
