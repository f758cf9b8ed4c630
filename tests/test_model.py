import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinbeam import certify, dsp, model, synth
from twinbeam.errors import DomainError

REF_PARAMS = model.NopoParams.from_derived(0.84, 1.38, 24.7e6, 0.88)


# the measured cavity: T = 3.2%, 0.6% loss, pumped at 0.230 over a 0.120 threshold
MEASURED_CAVITY = model.NopoParams(transmission=0.032, intracavity_loss=0.006,
                                   cavity_bandwidth=24.7e6, pump_power=0.230,
                                   threshold_power=0.120, detection_efficiency=0.88)


class TestDerivations:
    def test_output_coupling_measured_cavity(self):
        assert MEASURED_CAVITY.output_coupling == pytest.approx(0.8421, abs=1e-4)

    def test_output_coupling_lossless(self):
        assert replace(MEASURED_CAVITY, intracavity_loss=0.0).output_coupling == 1.0

    def test_output_coupling_symmetric(self):
        params = replace(MEASURED_CAVITY, transmission=0.01, intracavity_loss=0.01)
        assert params.output_coupling == 0.5

    def test_output_coupling_domain(self):
        with pytest.raises(DomainError):
            replace(MEASURED_CAVITY, transmission=0.0)
        with pytest.raises(DomainError):
            replace(MEASURED_CAVITY, intracavity_loss=-0.01)

    def test_pump_ratio_experiment(self):
        assert MEASURED_CAVITY.pump_ratio == pytest.approx(1.3844, abs=1e-4)

    def test_pump_ratio_perfect_square(self):
        assert replace(MEASURED_CAVITY, pump_power=0.48).pump_ratio == 2.0

    def test_pump_ratio_below_threshold(self):
        with pytest.raises(DomainError, match="not above threshold"):
            replace(MEASURED_CAVITY, pump_power=0.1)

    @pytest.mark.parametrize("key", ["transmission", "intracavity_loss", "cavity_bandwidth",
                                     "pump_power", "threshold_power", "detection_efficiency"])
    def test_nan_parameter_refused(self, key):
        with pytest.raises(DomainError):
            replace(MEASURED_CAVITY, **{key: math.nan})

    @pytest.mark.parametrize("coupling", [0.0, -0.1, 1.5, math.nan])
    def test_from_derived_refuses_coupling_outside_unit_interval(self, coupling):
        with pytest.raises(DomainError):
            model.NopoParams.from_derived(coupling, 1.38, 24.7e6, 0.88)

    def test_from_derived_refuses_a_pump_ratio_whose_square_overflows(self):
        # a Python float's square raises OverflowError past about 1.3e154
        with pytest.raises(DomainError, match="pump ratio 1e\\+200 squared overflows"):
            model.NopoParams.from_derived(0.8, 1e200, 1e6, 0.9)


# (valid dataclass, field, its name in the message): each field the config
# schema only lets through finite
NONFINITE_FIELDS = [
    (MEASURED_CAVITY, "transmission", "transmission"),
    (MEASURED_CAVITY, "intracavity_loss", "intracavity_loss"),
    (MEASURED_CAVITY, "cavity_bandwidth", "cavity bandwidth"),
    (MEASURED_CAVITY, "pump_power", "pump power"),
    (synth.SynthConfig(sample_rate=1e8, num_samples=2 ** 16, seed=0), "sample_rate",
     "sample rate"),
    (synth.DetectionChain(mode_match=0.9, excess_noise=0.04), "excess_noise", "excess noise"),
    (dsp.AnalyzerSettings(rbw=150e3, vbw=2.0), "rbw", "resolution bandwidth"),
]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("valid, field, name", NONFINITE_FIELDS,
                         ids=[f"{type(case[0]).__name__}.{case[1]}" for case in NONFINITE_FIELDS])
def test_library_dataclass_refuses_a_nonfinite_field(valid, field, name, value):
    # NopoParams(transmission=inf) once read nan spectra, and rbw=nan was
    # refused with the VBW's message
    with pytest.raises(DomainError, match=name):
        replace(valid, **{field: value})


# {case: (call, message)}: arguments outside each model function's domain
MODEL_REFUSALS = {
    "intensity-diff-negative-f": (lambda: model.intensity_diff_spectrum(REF_PARAMS, -1.0),
                                  "analysis frequency must be nonnegative"),
    "phase-sum-negative-f": (lambda: model.phase_sum_spectrum(REF_PARAMS, np.array([1e6, -1.0])),
                             "analysis frequency must be nonnegative"),
    "enl-at-one": (lambda: model.with_electronic_noise(0.5, 1.0),
                   r"electronics noise level must be in \[0, 1\), got 1.0"),
    "enl-negative": (lambda: model.with_electronic_noise(0.5, -0.1),
                     r"electronics noise level must be in \[0, 1\), got -0.1"),
    "mode-match-zero": (lambda: model.mode_match_penalty(0.5, 0.0),
                        r"mode-matching efficiency must be in \(0, 1\], got 0.0"),
    "mode-match-above-one": (lambda: model.mode_match_penalty(0.5, 1.5),
                             r"mode-matching efficiency must be in \(0, 1\], got 1.5"),
    "arm-length-at-zero-f": (lambda: model.arm_length_difference(0),
                             "analysis frequency must be positive, got 0"),
    "rf-phase-zero-length": (lambda: model.rf_phase(0.0, 20e6),
                             "arm-length difference and frequency must be positive"),
    "rf-phase-negative-f": (lambda: model.rf_phase(7.5, -20e6),
                            "arm-length difference and frequency must be positive"),
}


@pytest.mark.parametrize("case", MODEL_REFUSALS)
def test_model_refuses_arguments_outside_its_domain(case):
    call, message = MODEL_REFUSALS[case]
    with pytest.raises(DomainError, match=message):
        call()


class TestSpectra:
    def test_intensity_dip_at_20mhz(self):
        assert model.intensity_diff_spectrum(REF_PARAMS, 20e6) == pytest.approx(0.5535, abs=5e-4)

    def test_intensity_dip_vanishes_far_out(self):
        assert model.intensity_diff_spectrum(REF_PARAMS, 1e12) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f, bandwidth", [(1e308, 24.7e6), (1e6, 1e-300), (1e308, 1e-300)],
                             ids=["far-frequency", "narrow-cavity", "both"])
    def test_overflowing_detuning_gives_the_limit_silently(self, f, bandwidth):
        # (f / bandwidth) ** 2 overflows to inf, and each dip to its exact limit 1
        assert model.intensity_diff_psd(f, 0.74, bandwidth) == 1.0
        assert model.phase_sum_psd(f, 0.74, bandwidth, 1.38) == 1.0
        np.testing.assert_array_equal(model.intensity_diff_psd([0.0, f], 0.74, bandwidth),
                                      [1.0 - 0.74, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pump_ratio_gives_the_limit_silently(self):
        # the pump ratio's square overflows to inf, and the phase dip to its limit 1
        assert model.phase_sum_psd(1e6, 0.7, 1e6, 1e200) == 1.0
        np.testing.assert_array_equal(model.phase_sum_psd([0.0, 1e6], 0.7, 1e6, 1e200),
                                      [1.0, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pump_ratio", [1.38, 2e154], ids=["reference", "square-overflows"])
    @pytest.mark.parametrize("f", [0.0, np.linspace(1e5, 100e6, 1001), 1e308],
                             ids=["dc", "bench-grid", "far"])
    def test_spectra_are_the_literal_dips_bit_for_bit(self, f, pump_ratio):
        # the bench's fit grid, f = 0, and f = 1e308, where u^2 overflows to the limit 1
        a, bandwidth = 0.7392, 24.7e6
        with np.errstate(over="ignore"):
            for floor, got in [(1.0, model.intensity_diff_psd(f, a, bandwidth)),
                               (np.float64(pump_ratio) ** 2,
                                model.phase_sum_psd(f, a, bandwidth, pump_ratio))]:
                expected = 1.0 - a / (floor + (np.asarray(f) / bandwidth) ** 2)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_scalar_frequency_gives_a_python_float(self):
        assert type(model.intensity_diff_psd(20e6, 0.7392, 24.7e6)) is float
        assert type(model.phase_sum_psd(20e6, 0.7392, 24.7e6, 1.38)) is float

    def test_dip_terms_give_a_row_per_floor(self):
        # a column of floors, as fit's projection passes them: each row is that dip's
        f = np.linspace(0.0, 100e6, 11)
        u2, den = model.dip_terms(f, 24.7e6, np.array([[1.0], [1.38 ** 2]]))
        np.testing.assert_array_equal(u2, (f / 24.7e6) ** 2)
        np.testing.assert_array_equal(den, [1.0 + u2, 1.38 ** 2 + u2])
        np.testing.assert_array_equal(1.0 - 0.7 / den, [model.intensity_diff_psd(f, 0.7, 24.7e6),
                                                        model.phase_sum_psd(f, 0.7, 24.7e6, 1.38)])

    def test_intensity_dip_at_dc(self):
        # direct substitution 1 - 0.88*0.84
        assert model.intensity_diff_spectrum(REF_PARAMS, 0.0) == pytest.approx(0.2608, abs=1e-12)

    def test_phase_dip_at_20mhz(self):
        assert model.phase_sum_spectrum(REF_PARAMS, 20e6) == pytest.approx(0.7113, abs=5e-4)

    def test_phase_dip_vanishes_far_above_threshold(self):
        params = model.NopoParams.from_derived(0.84, 1e6, 24.7e6, 0.88)
        assert model.phase_sum_spectrum(params, 20e6) == pytest.approx(1.0, abs=1e-9)

    def test_phase_dip_at_dc(self):
        # 1 - 0.7392/1.9044
        assert model.phase_sum_spectrum(REF_PARAMS, 0.0) == pytest.approx(0.6118462507876496, rel=1e-12)

    def test_spectra_accept_arrays(self):
        f = np.array([0.0, 20e6, 40e6])
        s = model.intensity_diff_spectrum(REF_PARAMS, f)
        assert s.shape == f.shape
        assert np.all(np.diff(s) > 0)

    @given(st.floats(min_value=1e3, max_value=1e9),
           st.floats(min_value=1e3, max_value=1e9))
    def test_intensity_monotone_in_frequency(self, f1, f2):
        # Adjacent floats can round to the same spectrum value, so order is
        # strict only for a relative gap of 1e-6.  The smallest change that
        # gap makes is at f = 1e3 Hz: (f/B)^2 = 1.6e-9 moves by 3.3e-15, 15
        # ulps of the 1 + (f/B)^2 it is added to, and the output 0.26 moves by
        # 2.4e-15, 44 ulps; a few ulps of rounding cannot close either gap.
        lo, hi = sorted((f1, f2))
        s_lo = model.intensity_diff_spectrum(REF_PARAMS, lo)
        s_hi = model.intensity_diff_spectrum(REF_PARAMS, hi)
        assert s_lo <= s_hi
        if hi >= lo * (1 + 1e-6):
            assert s_lo < s_hi

    @given(st.floats(min_value=0.0, max_value=1e9))
    def test_intensity_bounded(self, f):
        s = model.intensity_diff_spectrum(REF_PARAMS, f)
        floor = 1.0 - 0.88 * 0.84
        assert floor <= s < 1.0

    @given(st.floats(min_value=0.0, max_value=1e9),
           st.floats(min_value=1.01, max_value=10.0))
    def test_phase_dip_shallower_than_amplitude(self, f, ratio):
        params = model.NopoParams.from_derived(0.84, ratio, 24.7e6, 0.88)
        assert model.phase_sum_spectrum(params, f) > model.intensity_diff_spectrum(params, f)


class TestDecibels:
    def test_reference_amplitude_marker(self):
        assert model.db_rel_snl(0.5535) == pytest.approx(-2.568, abs=2e-3)

    def test_snl_reference(self):
        assert model.db_rel_snl(1.0) == 0.0

    def test_half_power(self):
        assert model.db_rel_snl(0.5) == pytest.approx(-3.0103, abs=1e-4)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            model.db_rel_snl(0.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, v):
        assert model.from_db(model.db_rel_snl(v)) == pytest.approx(v, rel=1e-12)


class TestElectronicNoiseCorrection:
    def test_reference_phase_channel(self):
        corrected = model.correct_for_electronic_noise(0.8710, 0.4074)
        assert corrected == pytest.approx(0.7823, abs=1e-4)
        assert model.db_rel_snl(corrected) == pytest.approx(-1.067, abs=1e-3)
        # within 0.02 dB of the reported 1.05 dB below the SNL
        assert model.db_rel_snl(corrected) == pytest.approx(-1.05, abs=0.02)

    def test_no_noise_identity(self):
        assert model.correct_for_electronic_noise(0.7, 1e-15) == pytest.approx(0.7, rel=1e-12)

    def test_amplitude_channel_formula(self):
        corrected = model.correct_for_electronic_noise(0.7499, 0.4074)
        assert corrected == pytest.approx(0.5780, abs=1e-4)
        assert model.db_rel_snl(corrected) == pytest.approx(-2.381, abs=2e-3)

    def test_below_floor_rejected(self):
        with pytest.raises(DomainError, match="at or below the electronics floor"):
            model.correct_for_electronic_noise(0.3, 0.4074)

    def test_floor_above_snl_rejected(self):
        with pytest.raises(DomainError):
            model.correct_for_electronic_noise(1.5, 1.0)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-6, max_value=0.999))
    def test_inverse_of_noise_addition(self, v, enl):
        measured = model.with_electronic_noise(v, enl)
        assert model.correct_for_electronic_noise(measured, enl) == pytest.approx(v, rel=1e-12)


class TestModeMatchPenalty:
    def test_reference_excess(self):
        penalized = model.mode_match_penalty(0.7113, 0.90)
        assert penalized == pytest.approx(0.7402, abs=1e-4)
        assert penalized - 0.7113 == pytest.approx(0.0289, abs=1e-4)

    def test_perfect_overlap_identity(self):
        assert model.mode_match_penalty(0.62, 1.0) == 0.62

    def test_vacuum_fixed_point(self):
        for mu in (0.5, 0.9, 1.0):
            assert model.mode_match_penalty(1.0, mu) == pytest.approx(1.0, rel=1e-15)

    def test_arrays_map_elementwise_and_reject_any_negative(self):
        # 0 (s_i at f = 0 of an ideal cavity) leaves the vacuum admixture alone
        values = np.array([0.0, 0.2, 0.7113, 1.0])
        np.testing.assert_array_equal(model.mode_match_penalty(values, 0.9),
                                      [model.mode_match_penalty(v, 0.9) for v in values])
        assert model.mode_match_penalty(0.0, 0.9) == pytest.approx(0.1, rel=1e-15)
        with pytest.raises(DomainError, match="nonnegative"):
            model.mode_match_penalty(np.array([0.5, -1e-300]), 0.9)

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_order_preserving(self, v1, v2, mu):
        # Adjacent floats can round to the same output, so order is strict
        # only for a relative gap of 1e-6.  Its smallest effect, mu * lo * 1e-6
        # = 1e-11 at mu = 0.01 and lo = 1e-3, is about 9e4 ulps of the output
        # 0.99 there, far beyond the rounding of one multiply and one add.
        lo, hi = sorted((v1, v2))
        p_lo = model.mode_match_penalty(lo, mu)
        p_hi = model.mode_match_penalty(hi, mu)
        assert p_lo <= p_hi
        if hi >= lo * (1 + 1e-6):
            assert p_lo < p_hi

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_round_trip(self, v, mu):
        assert certify.remove_mode_match_penalty(
            model.mode_match_penalty(v, mu), mu) == pytest.approx(v, rel=1e-9)


class TestDuanCertification:
    def test_reference_corrected_pair(self):
        verdict = model.duan_certify(model.QuadratureVariancePair(0.552, 0.785))
        assert verdict.total == pytest.approx(1.337, abs=1e-3)
        assert verdict.total == pytest.approx(1.332, abs=0.01)
        assert verdict.entangled

    def test_coherent_boundary_not_entangled(self):
        verdict = model.duan_certify(model.QuadratureVariancePair(1.0, 1.0))
        assert verdict.total == 2.0
        assert not verdict.entangled

    def test_theory_pair_at_20mhz(self):
        pair = model.QuadratureVariancePair(
            model.intensity_diff_spectrum(REF_PARAMS, 20e6), model.phase_sum_spectrum(REF_PARAMS, 20e6))
        verdict = model.duan_certify(pair)
        assert verdict.total == pytest.approx(1.2648, abs=1e-4)
        assert verdict.entangled

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_nonfinite_or_nonpositive_variance_rejected(self, bad):
        with pytest.raises(DomainError):
            model.QuadratureVariancePair(0.5, bad)
        with pytest.raises(DomainError):
            model.QuadratureVariancePair(bad, 0.5)

    @given(st.floats(min_value=1e-3, max_value=3.0),
           st.floats(min_value=1e-3, max_value=3.0))
    def test_swap_invariance(self, vx, vy):
        a = model.duan_certify(model.QuadratureVariancePair(vx, vy))
        b = model.duan_certify(model.QuadratureVariancePair(vy, vx))
        assert a.entangled == b.entangled
        assert a.total == pytest.approx(b.total, rel=1e-15)


class TestGeometry:
    def test_arm_length_at_20mhz(self):
        assert model.arm_length_difference(20e6) == pytest.approx(7.4948, abs=1e-4)

    def test_arm_length_scales_inversely(self):
        assert model.arm_length_difference(10e6) == pytest.approx(14.9896, abs=1e-4)

    def test_rf_phase_reference_point(self):
        assert model.rf_phase(7.4948, 20e6) == pytest.approx(math.pi, rel=1e-4)

    def test_rf_phase_linear_in_frequency(self):
        assert model.rf_phase(7.4948, 10e6) == pytest.approx(math.pi / 2, rel=1e-4)

    def test_rf_phase_linear_in_length(self):
        assert model.rf_phase(14.9896, 20e6) == pytest.approx(2 * math.pi, rel=1e-4)

    @given(st.floats(min_value=1.0, max_value=1e12))
    def test_definitional_round_trip(self, f):
        theta = model.rf_phase(model.arm_length_difference(f), f)
        assert theta == pytest.approx(math.pi, rel=1e-14)
