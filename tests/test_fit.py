import numpy as np
import pytest

from twinbeam import model
from twinbeam.errors import DomainError, IdentifiabilityError
from twinbeam.fit import FitProblem, _jacobian, _residuals, fit_spectra

TRUTH = (0.7392, 24.7e6, 1.38)
FREQS = np.linspace(1e6, 80e6, 64)
S_I = model.intensity_diff_psd(FREQS, TRUTH[0], TRUTH[1])
S_P = model.phase_sum_psd(FREQS, TRUTH[0], TRUTH[1], TRUTH[2])


class TestNoiselessRecovery:
    def test_full_recovery_to_1e6_relative(self):
        result = fit_spectra(FitProblem(FREQS, S_I, S_P))
        assert result.converged
        assert result.efficiency_product == pytest.approx(TRUTH[0], rel=1e-6)
        assert result.bandwidth == pytest.approx(TRUTH[1], rel=1e-6)
        assert result.pump_ratio == pytest.approx(TRUTH[2], rel=1e-6)
        assert result.residual_norm <= 1e-12

    def test_recovery_with_explicit_init(self):
        result = fit_spectra(FitProblem(FREQS, S_I, S_P), init=(0.5, 10e6, 2.0))
        assert result.efficiency_product == pytest.approx(TRUTH[0], rel=1e-6)
        assert result.bandwidth == pytest.approx(TRUTH[1], rel=1e-6)

    def test_amplitude_only_excludes_pump_ratio(self):
        result = fit_spectra(FitProblem(FREQS, S_I, None))
        assert result.pump_ratio is None
        assert result.unidentifiable == ("pump_ratio",)
        assert result.efficiency_product == pytest.approx(TRUTH[0], rel=1e-6)
        assert result.bandwidth == pytest.approx(TRUTH[1], rel=1e-6)

    def test_phase_only_is_rank_deficient(self):
        # 1 - a/(s^2 + (f/B)^2) depends only on a*B^2 and s^2*B^2: a flat
        # direction the rank check must name rather than silently report.
        with pytest.raises(IdentifiabilityError) as err:
            fit_spectra(FitProblem(FREQS, None, S_P))
        assert err.value.direction in ("efficiency_product", "bandwidth", "pump_ratio")


class TestNoisyRecovery:
    def test_median_errors_over_replicates(self):
        rng = np.random.default_rng(123)
        errors = []
        for _ in range(50):
            noisy_i = S_I * (1 + 0.01 * rng.standard_normal(FREQS.size))
            noisy_p = S_P * (1 + 0.01 * rng.standard_normal(FREQS.size))
            result = fit_spectra(FitProblem(FREQS, noisy_i, noisy_p))
            errors.append([
                abs(result.efficiency_product / TRUTH[0] - 1),
                abs(result.bandwidth / TRUTH[1] - 1),
                abs(result.pump_ratio / TRUTH[2] - 1),
            ])
        medians = np.median(errors, axis=0)
        assert medians[0] <= 0.02
        assert medians[1] <= 0.05
        assert medians[2] <= 0.05

    def test_covariance_shape_and_symmetry(self):
        rng = np.random.default_rng(7)
        noisy_i = S_I * (1 + 0.01 * rng.standard_normal(FREQS.size))
        noisy_p = S_P * (1 + 0.01 * rng.standard_normal(FREQS.size))
        result = fit_spectra(FitProblem(FREQS, noisy_i, noisy_p))
        cov = np.asarray(result.covariance)
        assert cov.shape == (3, 3)
        np.testing.assert_allclose(cov, cov.T, rtol=1e-10)
        assert np.all(np.diag(cov) > 0)


class TestJacobian:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(0)
        problem = FitProblem(FREQS, S_I, S_P)
        weights = np.ones(FREQS.size)
        for _ in range(20):
            x = np.array([
                rng.uniform(0.2, 0.95),
                np.log(rng.uniform(5e6, 6e7)),
                np.log(rng.uniform(0.05, 2.5)),
            ])
            analytic = _jacobian(x, problem, True, weights)
            numeric = np.zeros_like(analytic)
            for j in range(3):
                h = 6e-6 * max(1.0, abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                numeric[:, j] = (_residuals(xp, problem, True, weights)
                                 - _residuals(xm, problem, True, weights)) / (2 * h)
            scale = np.abs(analytic) + np.abs(numeric) + 1e-9
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


class TestInvariants:
    def test_scale_equivariance(self):
        # scaling all frequencies and the bandwidth together leaves residuals unchanged
        result = fit_spectra(FitProblem(FREQS * 10, S_I, S_P))
        assert result.bandwidth == pytest.approx(TRUTH[1] * 10, rel=1e-6)
        assert result.efficiency_product == pytest.approx(TRUTH[0], rel=1e-6)
        assert result.pump_ratio == pytest.approx(TRUTH[2], rel=1e-6)

    def test_weights_accepted(self):
        weights = np.linspace(0.5, 2.0, FREQS.size)
        result = fit_spectra(FitProblem(FREQS, S_I, S_P, weights=weights))
        assert result.efficiency_product == pytest.approx(TRUTH[0], rel=1e-6)

    def test_deterministic(self):
        a = fit_spectra(FitProblem(FREQS, S_I, S_P))
        b = fit_spectra(FitProblem(FREQS, S_I, S_P))
        assert a.efficiency_product == b.efficiency_product
        assert a.iterations == b.iterations


class TestValidation:
    def test_requires_some_channel(self):
        with pytest.raises(DomainError):
            FitProblem(FREQS, None, None)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            FitProblem(FREQS, S_I[:-1], None)

    def test_dc_row_accepted(self):
        f = np.linspace(0.0, 100e6, 101)
        result = fit_spectra(FitProblem(f, model.intensity_diff_psd(f, 0.7392, 24.7e6),
                                        model.phase_sum_psd(f, 0.7392, 24.7e6, 1.38)))
        assert result.converged
        assert result.bandwidth == pytest.approx(24.7e6, rel=1e-6)

    @pytest.mark.parametrize("bad", [-1e6, np.nan, np.inf])
    def test_negative_or_nonfinite_frequency_rejected(self, bad):
        f = FREQS.copy()
        f[3] = bad
        with pytest.raises(DomainError):
            FitProblem(f, S_I, S_P)

    def test_narrow_coverage_warns(self):
        f = np.linspace(10e6, 15e6, 8)
        with pytest.warns(UserWarning, match="octave"):
            FitProblem(f, model.intensity_diff_psd(f, 0.7, 24.7e6), None)

    def test_unknown_option_rejected(self):
        with pytest.raises(DomainError):
            fit_spectra(FitProblem(FREQS, S_I, None), tolerance=1e-3)

    def test_bad_init_rejected(self):
        with pytest.raises(DomainError):
            fit_spectra(FitProblem(FREQS, S_I, S_P), init=(0.5, 10e6, 0.9))
