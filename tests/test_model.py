import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinbeam import model
from twinbeam.errors import (
    BelowThresholdError,
    ConfigurationError,
    DomainError,
    InfeasibleMeasurementError,
)

REF_PARAMS = model.NopoParams.from_derived(0.84, 1.38, 24.7e6, 0.88)


class TestDerivations:
    def test_output_coupling_measured_cavity(self):
        assert model.output_coupling_efficiency(0.032, 0.006) == pytest.approx(0.8421, abs=1e-4)

    def test_output_coupling_lossless(self):
        assert model.output_coupling_efficiency(0.032, 0.0) == 1.0

    def test_output_coupling_symmetric(self):
        assert model.output_coupling_efficiency(0.01, 0.01) == 0.5

    def test_output_coupling_domain(self):
        with pytest.raises(DomainError):
            model.output_coupling_efficiency(0.0, 0.01)
        with pytest.raises(DomainError):
            model.output_coupling_efficiency(0.03, -0.01)

    def test_pump_parameter_experiment(self):
        assert model.pump_parameter(0.230, 0.120) == pytest.approx(1.3844, abs=1e-4)

    def test_pump_parameter_at_threshold(self):
        assert model.pump_parameter(0.12, 0.12) == 1.0

    def test_pump_parameter_perfect_square(self):
        assert model.pump_parameter(0.48, 0.12) == 2.0

    def test_pump_parameter_below_threshold(self):
        with pytest.raises(BelowThresholdError):
            model.pump_parameter(0.1, 0.12)


class TestSpectra:
    def test_intensity_dip_at_20mhz(self):
        assert model.intensity_diff_spectrum(REF_PARAMS, 20e6) == pytest.approx(0.5535, abs=5e-4)

    def test_intensity_dip_vanishes_far_out(self):
        assert model.intensity_diff_spectrum(REF_PARAMS, 1e12) == pytest.approx(1.0, abs=1e-6)

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
        with pytest.raises(InfeasibleMeasurementError):
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
        assert model.remove_mode_match_penalty(
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

    def test_matched_config_validates(self):
        ifc = model.InterferometerConfig.matched(20e6)
        ifc.validate()

    def test_detuned_theta_rejected(self):
        ifc = model.InterferometerConfig(analysis_frequency=20e6,
                                         arm_length_difference=8.0)
        with pytest.raises(ConfigurationError, match="theta"):
            ifc.validate()

    def test_unlocked_phi_rejected(self):
        ifc = model.InterferometerConfig.matched(20e6, dc_phase=1.0)
        with pytest.raises(ConfigurationError, match="phi"):
            ifc.validate()

    def test_phi_winding_accepted(self):
        ifc = model.InterferometerConfig.matched(20e6, dc_phase=math.pi / 2 + 4 * math.pi)
        ifc.validate()
