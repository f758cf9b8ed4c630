import tracemalloc

import numpy as np
import pytest

from twinbeam import fit, model
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


class TestStopping:
    def test_spent_budget_is_not_converged(self, monkeypatch):
        # _MAX_ITER 1 allows 1 * (3 + 1) = 4 evaluations per start: too few here
        monkeypatch.setattr(fit, "_MAX_ITER", 1)
        result = fit_spectra(FitProblem(FREQS, S_I, S_P))
        assert not result.converged
        assert 1 <= result.iterations <= 4

    def test_non_finite_start_is_skipped(self, monkeypatch):
        grid = fit._start_grid

        def grid_with_a_nan_start(problem, fit_pump):
            yield np.array([np.nan, 0.0])  # (log bandwidth, log(pump ratio - 1))
            yield from grid(problem, fit_pump)

        expected = fit_spectra(FitProblem(FREQS, S_I, S_P))
        monkeypatch.setattr(fit, "_start_grid", grid_with_a_nan_start)
        result = fit_spectra(FitProblem(FREQS, S_I, S_P))
        assert result.converged
        assert result.efficiency_product == expected.efficiency_product
        assert result.bandwidth == expected.bandwidth
        assert result.iterations == expected.iterations

    def test_every_start_non_finite_fails(self, monkeypatch):
        monkeypatch.setattr(fit, "_start_grid",
                            lambda problem, fit_pump: [np.array([np.nan, 0.0])])
        with pytest.raises(DomainError, match="every start"):
            fit_spectra(FitProblem(FREQS, S_I, S_P))


def _full_model_grid(problem, fit_pump):
    """27 starts (product x bandwidth x pump ratio) in the full model's coordinates."""
    f = np.asarray(problem.frequencies, dtype=float)
    span = max(f.max() - f.min(), f.min())
    for a in (0.3, 0.6, 0.9):
        for b in (span / 8.0, span / 2.0, 2.0 * span):
            for s in ((1.1, 1.5, 3.0) if fit_pump else (None,)):
                yield np.array([a, np.log(b)] + ([np.log(s - 1.0)] if fit_pump else []))


def _scipy_fit(problem):
    """The reference: a full-model multi-start with scipy's MINPACK Levenberg-Marquardt."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    fit_pump = problem.phase_observed is not None
    sqrt_w = (np.sqrt(problem.weights) if problem.weights is not None
              else np.ones(len(problem.frequencies)))
    best = None
    for x0 in _full_model_grid(problem, fit_pump):
        try:
            res = least_squares(
                _residuals, x0, jac=_jacobian, method="lm", args=(problem, fit_pump, sqrt_w),
                xtol=fit._STEP_TOL, gtol=fit._GRAD_TOL, ftol=1e-14,
                max_nfev=fit._MAX_ITER * (len(x0) + 1))
        except (ValueError, FloatingPointError):
            continue
        key = (res.status <= 0, res.cost, res.nfev)
        if best is None or key < best[0]:
            best = (key, res.x)
    return fit._unpack(best[1], fit_pump)


def _agreement_problems():
    rng = np.random.default_rng(123)  # criterion 7's replicates
    problems = [FitProblem(FREQS, S_I, S_P)]
    for _ in range(50):
        noisy_i = S_I * (1 + 0.01 * rng.standard_normal(FREQS.size))
        noisy_p = S_P * (1 + 0.01 * rng.standard_normal(FREQS.size))
        problems.append(FitProblem(FREQS, noisy_i, noisy_p))
    problems.append(FitProblem(FREQS, S_I, S_P, weights=np.linspace(0.5, 2.0, FREQS.size)))
    problems.append(FitProblem(FREQS, S_I, None))
    f = np.linspace(0.0, 100e6, 101)  # test_dc_row_accepted's grid
    problems.append(FitProblem(f, model.intensity_diff_psd(f, *TRUTH[:2]),
                               model.phase_sum_psd(f, *TRUTH)))
    return problems


def test_agrees_with_scipy_minpack():
    worst = 0.0
    for problem in _agreement_problems():
        expected = _scipy_fit(problem)
        result = fit_spectra(problem)
        assert result.converged
        got = (result.efficiency_product, result.bandwidth, result.pump_ratio)
        for value, reference in zip(got, expected):
            if reference is not None:
                worst = max(worst, abs(value / reference - 1))
    assert worst <= 1e-6, f"largest relative deviation from scipy {worst:.3g}"


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

    @pytest.mark.parametrize("phase", [True, False], ids=["both", "amplitude_only"])
    def test_projected_matches_central_differences(self, phase):
        rng = np.random.default_rng(1)
        noisy_i = S_I * (1 + 0.01 * rng.standard_normal(FREQS.size))
        noisy_p = S_P * (1 + 0.01 * rng.standard_normal(FREQS.size)) if phase else None
        problem = FitProblem(FREQS, noisy_i, noisy_p)
        residuals, jacobian, _ = fit._projection(problem, phase, np.ones(FREQS.size))
        for _ in range(20):
            theta = np.array([np.log(rng.uniform(5e6, 6e7)), np.log(rng.uniform(0.05, 2.5))])
            theta = theta[:2 if phase else 1]
            analytic = jacobian(theta)
            numeric = np.zeros_like(analytic)
            for j in range(len(theta)):
                step = np.eye(len(theta))[j] * 1e-5  # in log units
                numeric[:, j] = (residuals(theta + step) - residuals(theta - step)) / 2e-5
            scale = np.abs(analytic) + np.abs(numeric) + 1e-9
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-6

    def test_projected_residual_is_the_full_one_at_the_least_squares_product(self):
        rng = np.random.default_rng(2)
        problem = FitProblem(FREQS, S_I * (1 + 0.01 * rng.standard_normal(FREQS.size)),
                             S_P * (1 + 0.01 * rng.standard_normal(FREQS.size)))
        weights = np.ones(FREQS.size)
        residuals, _, product_at = fit._projection(problem, True, weights)
        theta = np.array([np.log(30e6), np.log(0.5)])
        product = product_at(theta)
        full = lambda a: _residuals(np.array([a, *theta]), problem, True, weights)
        np.testing.assert_allclose(residuals(theta), full(product), rtol=0, atol=1e-14)
        cost = full(product) @ full(product)
        assert cost < min(full(product * (1 + 1e-4)) @ full(product * (1 + 1e-4)),
                          full(product * (1 - 1e-4)) @ full(product * (1 - 1e-4)))


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

    def test_weights_without_a_positive_entry_rejected(self):
        # such a fit sees no data: it would report its first start as converged
        with pytest.raises(DomainError, match="positive entry"):
            FitProblem(FREQS, S_I, S_P, weights=np.zeros(FREQS.size))

    def test_narrow_coverage_warns(self):
        f = np.linspace(10e6, 15e6, 8)
        with pytest.warns(UserWarning, match="octave"):
            FitProblem(f, model.intensity_diff_psd(f, 0.7, 24.7e6), None)


class TestRankCheck:
    def test_all_zero_jacobian_is_rank_deficient(self):
        # every singular value is 0, so the relative test alone (0 < 1e-10 * 0) passes it
        with pytest.raises(IdentifiabilityError):
            fit._check_rank(np.zeros((8, 3)), True)


class TestStartGrid:
    def test_bandwidth_by_pump_ratio(self):
        # the product is solved at every step, so the grid spans the other two only
        assert len(list(fit._start_grid(FitProblem(FREQS, S_I, S_P), True))) == 9
        assert len(list(fit._start_grid(FitProblem(FREQS, S_I, None), False))) == 3


def test_traced_peak_on_a_1001_point_spectrum():
    # one start's vectors at a time: each start keeps only its cost, not its residuals
    rng = np.random.default_rng(3)
    f = np.linspace(1e5, 100e6, 1001)
    problem = FitProblem(
        f, model.intensity_diff_psd(f, *TRUTH[:2]) * (1 + 0.01 * rng.standard_normal(f.size)),
        model.phase_sum_psd(f, *TRUTH) * (1 + 0.01 * rng.standard_normal(f.size)))
    fit_spectra(problem)  # first-call costs stay out of the peak
    tracemalloc.start()
    try:
        fit_spectra(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024
