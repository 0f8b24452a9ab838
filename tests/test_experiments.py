"""Experiment-driver smoke tests (repro.experiments).

Each driver must run at a reduced budget, return its result record, and
render a non-empty report.  The heavyweight E8-E11 drivers run from the
"fast" selected-design profile, computed once per session.
"""

import numpy as np
import pytest

from repro.experiments import (
    REGISTRY,
    e1_model_comparison,
    e2_extraction_robustness,
    e3_iv_curves,
    e4_sparam_fit,
    e7_passive_dispersion,
    e8_selected_design,
    e9_measured_sparams,
    e10_measured_nf,
    e11_intermodulation,
)


class TestRegistry:
    def test_all_twelve_registered(self):
        assert set(REGISTRY) == {f"E{i}" for i in range(1, 13)}

    def test_every_module_has_run_and_format(self):
        for module in REGISTRY.values():
            assert hasattr(module, "run")
            assert hasattr(module, "format_report")


class TestLightExperiments:
    def test_e1_ranking_shape(self):
        result = e1_model_comparison.run(de_population=15, de_iterations=40)
        assert len(result.rows) == 5
        by_model = {row["model"]: row["rms_iv_percent"]
                    for row in result.rows}
        # The headline claim: Angelov fits the E-pHEMT best, the plain
        # square law worst.
        assert by_model["angelov"] < by_model["statz"]
        assert by_model["angelov"] < by_model["curtice2"]
        assert by_model["curtice2"] > by_model["statz"]
        report = e1_model_comparison.format_report(result)
        assert "Table I" in report and "angelov" in report

    def test_e2_three_step_most_robust(self):
        result = e2_extraction_robustness.run(n_trials=3, de_population=15,
                                              de_iterations=40)
        rates = {row["method"]: row["success_rate"] for row in result.rows}
        assert rates["three-step (paper)"] >= rates["local only"]
        assert rates["three-step (paper)"] == 1.0
        report = e2_extraction_robustness.format_report(result)
        assert "Table II" in report

    def test_e3_fit_tracks_measurement(self):
        result = e3_iv_curves.run(de_population=15, de_iterations=40)
        assert result.rms_error_percent < 1.0
        for curve in result.curves:
            delta = np.abs(curve["measured_ma"] - curve["fitted_ma"])
            assert np.max(delta) < 3.0  # mA
        assert "Fig. 1" in e3_iv_curves.format_report(result)

    def test_e4_recovers_gm(self):
        result = e4_sparam_fit.run(de_population=20, de_iterations=60,
                                   n_points=11)
        assert result.extraction.intrinsic.gm == pytest.approx(
            result.gm_true, rel=0.10
        )
        assert "Fig. 2" in e4_sparam_fit.format_report(result)

    def test_e7_dispersion_shapes(self):
        result = e7_passive_dispersion.run()
        # Inductor Q must peak strictly inside the sweep.
        peak = np.argmax(result.inductor_q)
        assert 0 < peak < len(result.inductor_q) - 1
        # eps_eff monotone non-decreasing.
        assert np.all(np.diff(result.eps_eff) >= -1e-9)
        assert "Fig. 4" in e7_passive_dispersion.format_report(result)


@pytest.fixture(scope="module")
def fast_design():
    from repro.experiments.common import selected_design

    return selected_design("fast")


class TestSelectedDesignExperiments:
    def test_e8_tables(self, fast_design):
        result = e8_selected_design.run(profile="fast")
        report = e8_selected_design.format_report(result)
        assert "Table IV" in report
        assert "GPS L1" in report
        assert result.design.snapped_performance.mu_min > 1.0

    def test_e9_measured_sparams(self, fast_design):
        result = e9_measured_sparams.run(n_points=11, profile="fast")
        assert result.worst_s21_deviation_db < 0.6
        assert "Fig. 5" in e9_measured_sparams.format_report(result)

    def test_e10_measured_nf(self, fast_design):
        result = e10_measured_nf.run(n_points=7, profile="fast")
        assert result.nf_designed_max_db < 1.0
        assert abs(
            result.nf_measured_max_db - result.nf_designed_max_db
        ) < 0.4
        assert "Fig. 6" in e10_measured_nf.format_report(result)

    def test_e11_intermodulation(self, fast_design):
        result = e11_intermodulation.run(frequencies=(1.4e9,),
                                         profile="fast")
        two_tone = result.results[0]
        assert two_tone.im3_slope() == pytest.approx(3.0, abs=1e-6)
        assert two_tone.oip3_dbm > 10.0
        assert "Table V" in e11_intermodulation.format_report(result)


def test_selected_design_threads_build_their_own_flow(monkeypatch):
    # Job-service slots are threads: two concurrent computations of the
    # selected design must not share an evaluator, so each builds its
    # own flow and matches a solo run exactly.
    import threading

    from repro.experiments import common

    built = []

    class RecordingFlow(common.DesignFlow):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(common, "DesignFlow", RecordingFlow)
    compute = common.selected_design.__wrapped__
    solo = compute("fast")
    results = [None, None]
    errors = []

    def worker(slot):
        try:
            results[slot] = compute("fast")
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert len(built) == 3
    for design in results:
        np.testing.assert_array_equal(design.snapped.to_vector(),
                                      solo.snapped.to_vector())
        assert (design.snapped_performance.nf_max_db
                == solo.snapped_performance.nf_max_db)
