"""Nonlinear least-squares recovery of the forward-model parameters.

Fits (efficiency product, cavity bandwidth, pump ratio) to observed
amplitude-difference and/or phase-sum spectra.  Detection efficiency and
output coupling enter the model only as their product, so they are never
reported separately.  Bandwidth and (pump ratio - 1) are fitted in log
space to stay positive / above threshold without explicit constraints.

Each model spectrum is 1 - a * phi(B, s), linear in the product a, so the
fit is separable (variable projection; Golub & Pereyra, SIAM J. Numer.
Anal. 10, 413 (1973)): at each (B, s) the product is solved by linear
least squares, and a Levenberg-Marquardt loop in numpy minimises the
residual that is left over the log-space bandwidth and pump ratio alone,
one 2x2 solve per step.  The winner is then judged in the full
three-parameter model: residual norm, rank check and covariance.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .errors import DomainError, IdentifiabilityError

_MAX_ITER = 200
_GRAD_TOL = 1e-10
_STEP_TOL = 1e-12


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
        if not np.any(f > 0):
            raise DomainError("no positive frequency: f = 0 alone cannot identify the bandwidth")
        for name in ("amplitude_observed", "phase_observed"):
            arr = getattr(self, name)
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
        if self.weights is not None:
            weights = np.asarray(self.weights)
            if np.any(weights < 0):
                raise DomainError("weights must be nonnegative")
            if not np.any(weights > 0):
                raise DomainError("weights must have a positive entry: the fit would see no data")
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


def _unpack_theta(theta, fit_pump):
    # clamp the log-space coordinates so a wandering line search cannot overflow
    bandwidth = math.exp(min(max(theta[0], -300.0), 300.0))
    ratio = 1.0 + math.exp(min(max(theta[1], -300.0), 300.0)) if fit_pump else None
    return bandwidth, ratio


def _unpack(x, fit_pump):
    return (x[0], *_unpack_theta(x[1:], fit_pump))


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
    n, u2 = len(f), (f / bandwidth) ** 2
    channels = (problem.amplitude_observed is not None) + (problem.phase_observed is not None)
    jac = np.zeros((channels * n, 3 if fit_pump else 2))
    if problem.amplitude_observed is not None:  # the first n rows
        denom = 1.0 + u2
        jac[:n, 0] = -sqrt_w / denom
        jac[:n, 1] = -2.0 * product * sqrt_w * u2 / denom ** 2
    if problem.phase_observed is not None:  # the last n rows
        denom = ratio ** 2 + u2
        jac[-n:, 0] = -sqrt_w / denom
        jac[-n:, 1] = -2.0 * product * sqrt_w * u2 / denom ** 2
        jac[-n:, 2] = (ratio - 1.0) * 2.0 * product * ratio * sqrt_w / denom ** 2
    return jac


def _projection(problem, fit_pump, sqrt_w):
    """The residual with the product solved out, as functions of theta = x[1:].

    The weighted residual is z - a psi(theta), with z = sqrt_w (1 - observed)
    and psi = sqrt_w phi.  At each theta the product that minimises it is
    a*(theta) = psi.z / psi.psi (0 if psi = 0), and the projected residual
    z - a* psi has the exact Jacobian -(psi (x) da* + a* dpsi) (Golub &
    Pereyra 1973).  Returns the functions (residuals, jacobian, a*).
    """
    observed = [y for y in (problem.amplitude_observed, problem.phase_observed) if y is not None]
    n = len(problem.frequencies)
    f_rows = np.tile(np.asarray(problem.frequencies, dtype=float), len(observed))
    w = np.tile(sqrt_w, len(observed))
    z = w * (1.0 - np.concatenate(observed))

    def basis(theta):
        bandwidth, ratio = _unpack_theta(theta, fit_pump)
        u2 = (f_rows / bandwidth) ** 2
        phi = 1.0 + u2
        if fit_pump:  # the last n rows
            phi[-n:] = ratio ** 2 + u2[-n:]
        phi = 1.0 / phi
        psi = w * phi
        norm2 = psi @ psi  # 0 once every u^2 overflows: then P = 0, a* = 0 and r = z
        return psi, psi @ z / norm2 if norm2 > 0 else 0.0, phi, u2, ratio

    def residuals(theta):
        psi, product = basis(theta)[:2]
        return z - product * psi

    def jacobian(theta):
        psi, product, phi, u2, ratio = basis(theta)
        dpsi = np.zeros((len(theta), len(z)))  # row j: d psi / d theta_j
        dpsi[0] = 2.0 * u2 * psi * phi
        if fit_pump:
            dpsi[1, -n:] = -2.0 * ratio * (ratio - 1.0) * psi[-n:] * phi[-n:]
        dproduct = dpsi @ (z - 2.0 * product * psi) / (psi @ psi)
        return -(product * dpsi + dproduct[:, None] * psi).T

    return residuals, jacobian, lambda theta: basis(theta)[1]


def _start_grid(problem, fit_pump):
    f = np.asarray(problem.frequencies, dtype=float)
    span = max(f.max() - f.min(), f.min())
    bandwidths = (span / 8.0, span / 2.0, 2.0 * span)
    ratios = (1.1, 1.5, 3.0) if fit_pump else (None,)
    for b in bandwidths:
        for s in ratios:
            yield np.array([math.log(b)] + ([math.log(s - 1.0)] if fit_pump else []))


def _levenberg_marquardt(x, residuals, jacobian, max_nfev, xtol, gtol, ftol=1e-14):
    """Levenberg-Marquardt from x; returns (x, residuals, evaluations, converged).

    Each step solves (J^T J + lam D) h = -J^T r, D the running maximum of
    diag(J^T J) (Marquardt 1963; More 1978), and updates lam by the gain
    ratio (Madsen, Nielsen & Tingleff 2004, section 3.2).  The gradient,
    step and cost-reduction tests are MINPACK's gtol, xtol and ftol.
    `residuals` and `jacobian` are functions of x alone.
    """
    r = residuals(x)
    cost, nfev, jac, d = r @ r, 1, None, None
    if not math.isfinite(cost):  # a residual, or the sum of their squares, overflowed
        raise FloatingPointError("residuals are not finite at the start point")
    lam, nu = 1e-3, 2.0  # the damping and the factor it grows by after a failed step
    while True:
        if jac is None:  # at the start and after each accepted step
            jac = jacobian(x)
            a, g = jac.T @ jac, jac.T @ r
            diag = a.diagonal()
            d = np.where(diag > 0, diag, 1.0) if d is None else np.maximum(d, diag)
            if cost == 0 or np.max(np.abs(g) / np.sqrt(d)) <= gtol * math.sqrt(cost):
                return x, r, nfev, True
        if nfev >= max_nfev or not math.isfinite(lam):
            return x, r, nfev, False
        h = np.linalg.solve(a + np.diag(lam * d), -g)
        if math.sqrt(h @ (d * h)) <= xtol * math.sqrt(x @ (d * x)):
            return x, r, nfev, True
        r_new = residuals(x + h)
        nfev += 1
        cost_new = r_new @ r_new if np.all(np.isfinite(r_new)) else math.inf
        predicted = h @ (lam * d * h - g)  # the fall of ||r + J h||^2 from ||r||^2
        rho = (cost - cost_new) / predicted
        stalled = abs(cost - cost_new) <= ftol * cost and predicted <= ftol * cost
        if rho > 0:
            x, r, cost, jac = x + h, r_new, cost_new, None
            lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        else:
            lam, nu = lam * nu, 2.0 * nu
        if stalled:
            return x, r, nfev, True


def fit_spectra(problem):
    """Weighted least-squares fit of the forward model to a FitProblem.

    The product is solved by linear least squares at every step, so
    Levenberg-Marquardt with the analytic Jacobian runs over bandwidth and
    pump ratio only, from each point of a fixed 3 x 3 grid of the two (3
    starts when there is no phase channel), and the result is
    deterministic.  Each start may spend _MAX_ITER * (p + 1) residual
    evaluations, p the number of fitted parameters with the product among
    them; one whose residuals are not finite is skipped, and the converged
    start of least cost is reported.  `converged` is true when the gradient
    (_GRAD_TOL), step (_STEP_TOL) or cost-reduction test stopped it, and
    false when its budget ran out or the damping overflowed; `iterations`
    counts its evaluations of the residual, each of which also solves for
    the product.  When only the amplitude channel is present the pump ratio
    is excluded from the fit and flagged unidentifiable (the amplitude model
    does not contain it).
    """
    fit_pump = problem.phase_observed is not None
    sqrt_w = (np.sqrt(np.asarray(problem.weights, dtype=float))
              if problem.weights is not None else np.ones(len(problem.frequencies)))
    residuals, jacobian, product_at = _projection(problem, fit_pump, sqrt_w)

    fits = []
    # the model may overflow at a start or a trial step; what is kept is checked finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for theta in _start_grid(problem, fit_pump):
            try:
                theta, r, nfev, converged = _levenberg_marquardt(
                    theta, residuals, jacobian, _MAX_ITER * (len(theta) + 2),
                    xtol=_STEP_TOL, gtol=_GRAD_TOL)
            except FloatingPointError:
                continue
            fits.append((theta, r @ r, nfev, converged))  # every start's r would set the peak
        if not fits:
            raise DomainError("every start point failed to evaluate: its cost is not finite")
        theta, _, nfev, converged = min(fits, key=lambda res: (not res[3], res[1], res[2]))
        x = np.concatenate(([product_at(theta)], theta))
        r = _residuals(x, problem, fit_pump, sqrt_w)
        jac = _jacobian(x, problem, fit_pump, sqrt_w)
    if not np.all(np.isfinite(jac)):  # the SVD in _check_rank would not converge
        raise DomainError("the Jacobian is not finite at the fit: frequencies beyond its reach")
    _check_rank(jac, fit_pump)

    product, bandwidth, ratio = _unpack(x, fit_pump)
    covariance = _covariance(jac, r, bandwidth, ratio, fit_pump)
    return FitResult(
        efficiency_product=product,
        bandwidth=bandwidth,
        pump_ratio=ratio,
        residual_norm=float(np.linalg.norm(r)),
        covariance=covariance,
        converged=converged,
        iterations=nfev,
        unidentifiable=() if fit_pump else ("pump_ratio",),
    )


def _check_rank(jac, fit_pump):
    names = ("efficiency_product", "bandwidth", "pump_ratio")[: jac.shape[1]]
    singular = np.linalg.svd(jac, compute_uv=False)
    if singular[0] == 0 or singular[-1] < 1e-10 * singular[0]:
        _, _, vt = np.linalg.svd(jac)
        direction = names[int(np.argmax(np.abs(vt[-1])))]
        raise IdentifiabilityError(
            f"Jacobian is rank deficient along the {direction} direction "
            f"(singular values {singular})", direction=direction)


def _covariance(jac, residuals, bandwidth, ratio, fit_pump):
    """Parameter covariance in physical units via the log-space chain rule."""
    m, p = jac.shape
    if m <= p:
        return np.full((p, p), np.nan)
    variance = residuals @ residuals / (m - p)
    try:
        packed_cov = np.linalg.inv(jac.T @ jac) * variance
    except np.linalg.LinAlgError:
        return np.full((p, p), np.nan)
    scale = np.array([1.0, bandwidth] + ([ratio - 1.0] if fit_pump else []))
    return packed_cov * np.outer(scale, scale)
