"""Nonlinear least-squares recovery of the forward-model parameters.

Fits (efficiency product, cavity bandwidth, pump ratio) to observed
amplitude-difference and/or phase-sum spectra.  Detection efficiency and
output coupling enter the model only as their product, so they are never
reported separately.  Bandwidth and (pump ratio - 1) are fitted in log
space to stay positive / above threshold without explicit constraints.
scipy.optimize is imported by fit_spectra itself, so importing this module
(and with it the package and the CLI) does not load scipy.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .errors import DomainError, IdentifiabilityError

_DEFAULT_OPTS = {"max_iter": 200, "grad_tol": 1e-10, "step_tol": 1e-12}


@dataclass(frozen=True)
class FitProblem:
    """Observed spectra on a common frequency grid; either channel may be absent."""
    frequencies: np.ndarray
    amplitude_observed: Optional[np.ndarray] = None
    phase_observed: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        if self.amplitude_observed is None and self.phase_observed is None:
            raise DomainError("at least one observed channel is required")
        for name in ("amplitude_observed", "phase_observed", "weights"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != len(f):
                raise DomainError(f"{name} length {len(arr)} does not match grid {len(f)}")
        if not np.all(np.isfinite(f)) or np.any(f < 0):
            raise DomainError("frequencies must be finite and nonnegative")
        for name in ("amplitude_observed", "phase_observed"):
            arr = getattr(self, name)
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
        if self.weights is not None and np.any(np.asarray(self.weights) < 0):
            raise DomainError("weights must be nonnegative")
        if len(f) < 4 or f.max() < 2.0 * f.min():
            warnings.warn(
                "fewer than 4 points or less than one octave of frequency coverage; "
                "bandwidth may be poorly identified", stacklevel=2)


@dataclass(frozen=True)
class FitResult:
    efficiency_product: float
    bandwidth: float
    pump_ratio: Optional[float]
    residual_norm: float
    covariance: np.ndarray
    converged: bool
    iterations: int
    unidentifiable: tuple = ()


def _unpack(x, fit_pump):
    # clamp the log-space coordinates so a wandering line search cannot overflow
    product = x[0]
    bandwidth = math.exp(min(max(x[1], -300.0), 300.0))
    ratio = 1.0 + math.exp(min(max(x[2], -300.0), 300.0)) if fit_pump else None
    return product, bandwidth, ratio


def _residuals(x, problem, fit_pump, sqrt_w):
    product, bandwidth, ratio = _unpack(x, fit_pump)
    parts = []
    if problem.amplitude_observed is not None:
        pred = model.intensity_diff_psd(problem.frequencies, product, bandwidth)
        parts.append(sqrt_w * (pred - problem.amplitude_observed))
    if problem.phase_observed is not None:
        pred = model.phase_sum_psd(problem.frequencies, product, bandwidth, ratio)
        parts.append(sqrt_w * (pred - problem.phase_observed))
    return np.concatenate(parts)


def _jacobian(x, problem, fit_pump, sqrt_w):
    """Analytic Jacobian of the residual vector in the packed coordinates."""
    product, bandwidth, ratio = _unpack(x, fit_pump)
    f = np.asarray(problem.frequencies, dtype=float)
    u2 = (f / bandwidth) ** 2
    ncols = 3 if fit_pump else 2
    blocks = []
    if problem.amplitude_observed is not None:
        denom = 1.0 + u2
        block = np.zeros((len(f), ncols))
        block[:, 0] = -1.0 / denom
        block[:, 1] = -2.0 * product * u2 / denom ** 2
        blocks.append(block * sqrt_w[:, None])
    if problem.phase_observed is not None:
        denom = ratio ** 2 + u2
        block = np.zeros((len(f), ncols))
        block[:, 0] = -1.0 / denom
        block[:, 1] = -2.0 * product * u2 / denom ** 2
        block[:, 2] = (ratio - 1.0) * 2.0 * product * ratio / denom ** 2
        blocks.append(block * sqrt_w[:, None])
    return np.vstack(blocks)


def _start_grid(problem, fit_pump):
    f = np.asarray(problem.frequencies, dtype=float)
    span = max(f.max() - f.min(), f.min())
    products = (0.3, 0.6, 0.9)
    bandwidths = (span / 8.0, span / 2.0, 2.0 * span)
    ratios = (1.1, 1.5, 3.0) if fit_pump else (None,)
    for a in products:
        for b in bandwidths:
            for s in ratios:
                x = [a, math.log(b)]
                if fit_pump:
                    x.append(math.log(s - 1.0))
                yield np.array(x)


def _pack_init(init, fit_pump):
    product, bandwidth = init[0], init[1]
    if not 0 < product <= 1 or bandwidth <= 0:
        raise DomainError("initial efficiency product must be in (0, 1] and bandwidth positive")
    x = [product, math.log(bandwidth)]
    if fit_pump:
        ratio = init[2]
        if ratio is None or ratio <= 1:
            raise DomainError("initial pump ratio must exceed 1")
        x.append(math.log(ratio - 1.0))
    return np.array(x)


def fit_spectra(problem, init=None, **opts):
    """Weighted least-squares fit of the forward model to a FitProblem.

    Damped Gauss-Newton (Levenberg-Marquardt via scipy) with the analytic
    Jacobian; multi-start over a fixed parameter grid when no init is given,
    so the result is deterministic.  When only the amplitude channel is
    present the pump ratio is excluded from the fit and flagged
    unidentifiable (the amplitude model does not contain it).
    """
    from scipy.optimize import least_squares

    options = dict(_DEFAULT_OPTS)
    for key, value in opts.items():
        if key not in options:
            raise DomainError(f"unknown fit option {key!r}")
        options[key] = value

    fit_pump = problem.phase_observed is not None
    sqrt_w = (np.sqrt(np.asarray(problem.weights, dtype=float))
              if problem.weights is not None else np.ones(len(problem.frequencies)))

    starts = [_pack_init(init, fit_pump)] if init is not None else list(_start_grid(problem, fit_pump))
    best = None
    for x0 in starts:
        try:
            res = least_squares(
                _residuals, x0, jac=_jacobian, method="lm",
                args=(problem, fit_pump, sqrt_w),
                xtol=options["step_tol"], gtol=options["grad_tol"], ftol=1e-14,
                max_nfev=options["max_iter"] * (len(x0) + 1))
        except (ValueError, FloatingPointError):
            continue
        converged = res.status > 0
        key = (not converged, res.cost, res.nfev)
        if best is None or key < best[0]:
            best = (key, res, converged)
    if best is None:
        raise DomainError("every start point failed to evaluate")

    _, res, converged = best
    jac = _jacobian(res.x, problem, fit_pump, sqrt_w)
    _check_rank(jac, fit_pump)

    product, bandwidth, ratio = _unpack(res.x, fit_pump)
    covariance = _covariance(jac, res, bandwidth, ratio, fit_pump)
    return FitResult(
        efficiency_product=product,
        bandwidth=bandwidth,
        pump_ratio=ratio,
        residual_norm=float(np.linalg.norm(res.fun)),
        covariance=covariance,
        converged=bool(converged),
        iterations=int(res.nfev),
        unidentifiable=() if fit_pump else ("pump_ratio",),
    )


def _check_rank(jac, fit_pump):
    names = ("efficiency_product", "bandwidth", "pump_ratio")[: jac.shape[1]]
    singular = np.linalg.svd(jac, compute_uv=False)
    if singular[-1] < 1e-10 * singular[0]:
        _, _, vt = np.linalg.svd(jac)
        direction = names[int(np.argmax(np.abs(vt[-1])))]
        raise IdentifiabilityError(
            f"Jacobian is rank deficient along the {direction} direction "
            f"(singular values {singular})", direction=direction)


def _covariance(jac, res, bandwidth, ratio, fit_pump):
    """Parameter covariance in physical units via the log-space chain rule."""
    m, p = jac.shape
    if m <= p:
        return np.full((p, p), np.nan)
    variance = 2.0 * res.cost / (m - p)
    try:
        packed_cov = np.linalg.inv(jac.T @ jac) * variance
    except np.linalg.LinAlgError:
        return np.full((p, p), np.nan)
    scale = np.array([1.0, bandwidth] + ([ratio - 1.0] if fit_pump else []))
    return packed_cov * np.outer(scale, scale)
