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
one 2x2 solve per step.  The dips themselves come from model.dip_terms,
which the model's PSDs are built on too, so fit holds no second copy of
them; what fit adds is their derivatives in its log-space coordinates.
The projection's basis is the one place the two meet: the winner's
residual norm and its full-model Jacobian come from the same basis, and
one thin SVD of that Jacobian gives both the rank check and the
covariance.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .model import dip_terms

_MAX_ITER = 200
_GRAD_TOL = 1e-10
_STEP_TOL = 1e-12
_COST_TOL = 1e-14


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
        for name in ("amplitude_observed", "phase_observed", "weights"):
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
                "bandwidth may be poorly identified", stacklevel=3)  # past the dataclass __init__


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
    """The weighted residual z - a psi at x = (a, theta); see _projection."""
    return _projection(problem, fit_pump, sqrt_w)[3](x)[0]


def _jacobian(x, problem, fit_pump, sqrt_w):
    """Analytic Jacobian of the residual vector in the packed coordinates."""
    return _projection(problem, fit_pump, sqrt_w)[3](x, derivatives=True)[1]


def _projection(problem, fit_pump, sqrt_w):
    """The weighted model and its derivatives, as functions of theta = x[1:].

    The weighted residual is z - a psi(theta), with z = sqrt_w (1 - observed)
    and psi = sqrt_w phi.  `basis` reads u^2 and the denominators of
    phi = 1 / (floor + u^2) from model.dip_terms, one row per channel: the
    floor is 1 for the amplitude difference and s^2 for the phase sum, whose
    rows come last.  The floor column is built once per problem, and each
    call sets only s^2.  The derivatives of psi in theta = (log B,
    log(s - 1)) are formed here, as they belong to the fit's coordinates.

    At each theta the product that minimises the residual is a*(theta) =
    psi.z / psi.psi (0 if psi = 0), and the projected residual z - a* psi
    has the exact Jacobian -(psi (x) da* + a* dpsi) (Golub & Pereyra 1973).
    At x = (a, theta) the full residual's Jacobian is -[psi | a dpsi].
    Returns the functions (residuals, jacobian, a*) of theta and
    full(x, derivatives) -> (residual, its Jacobian or None).
    """
    observed = [y for y in (problem.amplitude_observed, problem.phase_observed) if y is not None]
    f = np.asarray(problem.frequencies, dtype=float)
    floor = np.ones((len(observed), 1))  # a dip floor per channel, broadcast over its rows
    w = np.tile(sqrt_w, len(observed))
    z = w * (1.0 - np.concatenate(observed))

    def basis(theta, derivatives=False):
        bandwidth, ratio = _unpack_theta(theta, fit_pump)
        floor[-1] = ratio ** 2 if fit_pump else 1.0  # the phase sum's rows come last
        u2, den = dip_terms(f, bandwidth, floor)  # a row of den per channel
        phi = 1.0 / den.ravel()
        psi = w * phi
        norm2 = psi @ psi  # 0 once every u^2 overflows: then P = 0, a* = 0 and r = z
        product = psi @ z / norm2 if norm2 > 0 else 0.0
        if not derivatives:
            return psi, product, None
        dpsi = np.zeros((len(theta), len(z)))  # row j: d psi / d theta_j
        dpsi[0] = 2.0 * np.concatenate([u2] * len(observed)) * psi * phi  # on each channel
        if fit_pump:
            dpsi[1, -f.size:] = -2.0 * ratio * (ratio - 1.0) * psi[-f.size:] * phi[-f.size:]
        return psi, product, dpsi

    def residuals(theta):
        psi, product, _ = basis(theta)
        return z - product * psi

    def jacobian(theta):
        psi, product, dpsi = basis(theta, derivatives=True)
        dproduct = dpsi @ (z - 2.0 * product * psi) / (psi @ psi)
        return -(product * dpsi + dproduct[:, None] * psi).T

    def full(x, derivatives=False):
        psi, _, dpsi = basis(x[1:], derivatives)
        jac = -np.column_stack((psi, x[0] * dpsi.T)) if derivatives else None
        return z - x[0] * psi, jac

    return residuals, jacobian, lambda theta: basis(theta)[1], full


def _start_grid(problem, fit_pump):
    f = np.asarray(problem.frequencies, dtype=float)
    span = max(f.max() - f.min(), f.min())
    bandwidths = (span / 8.0, span / 2.0, 2.0 * span)
    if not bandwidths[0] > 0:  # a subnormal span: its eighth rounds to 0
        raise DomainError(f"frequency span {span:.6g} Hz too narrow to start the fit from")
    ratios = (1.1, 1.5, 3.0) if fit_pump else (None,)
    for b in bandwidths:
        for s in ratios:
            yield np.array([math.log(b)] + ([math.log(s - 1.0)] if fit_pump else []))


def _levenberg_marquardt(x, residuals, jacobian):
    """Levenberg-Marquardt from x; returns (x, residuals, evaluations, converged).

    Each step solves (J^T J + lam D) h = -J^T r, D the running maximum of
    diag(J^T J) (Marquardt 1963; More 1978), and updates lam by the gain
    ratio (Madsen, Nielsen & Tingleff 2004, section 3.2); a damped system
    too singular to solve counts as a failed step.  The gradient,
    step and cost-reduction tests are MINPACK's gtol, xtol and ftol, here
    _GRAD_TOL, _STEP_TOL and _COST_TOL, and the budget is
    _MAX_ITER * (len(x) + 2) evaluations of the residual.
    `residuals` and `jacobian` are functions of x alone.
    """
    max_nfev = _MAX_ITER * (len(x) + 2)
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
            if cost == 0 or np.max(np.abs(g) / np.sqrt(d)) <= _GRAD_TOL * math.sqrt(cost):
                return x, r, nfev, True
        if nfev >= max_nfev or not math.isfinite(lam):
            return x, r, nfev, False
        try:
            h = np.linalg.solve(a + np.diag(lam * d), -g)
        except np.linalg.LinAlgError:  # damped too little for a singular J^T J: damp more
            lam, nu = lam * nu, 2.0 * nu
            continue
        if math.sqrt(h @ (d * h)) <= _STEP_TOL * math.sqrt(x @ (d * x)):
            return x, r, nfev, True
        r_new = residuals(x + h)
        nfev += 1
        cost_new = r_new @ r_new if np.all(np.isfinite(r_new)) else math.inf
        predicted = h @ (lam * d * h - g)  # the fall of ||r + J h||^2 from ||r||^2
        rho = (cost - cost_new) / predicted
        stalled = abs(cost - cost_new) <= _COST_TOL * cost and predicted <= _COST_TOL * cost
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
    the product.  The winner's residual norm and full-model Jacobian come
    from the same projected model, and one thin SVD of that Jacobian
    gives both the rank check and the covariance.  When only the amplitude
    channel is present the pump ratio is excluded from the fit and flagged
    unidentifiable (the amplitude model does not contain it).
    """
    fit_pump = problem.phase_observed is not None
    sqrt_w = (np.sqrt(np.asarray(problem.weights, dtype=float))
              if problem.weights is not None else np.ones(len(problem.frequencies)))
    residuals, jacobian, product_at, full = _projection(problem, fit_pump, sqrt_w)

    fits = []
    # the model may overflow at a start or a trial step; what is kept is checked finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for theta in _start_grid(problem, fit_pump):
            try:
                theta, r, nfev, converged = _levenberg_marquardt(theta, residuals, jacobian)
            except FloatingPointError:
                continue
            fits.append((theta, r @ r, nfev, converged))  # every start's r would set the peak
        if not fits:
            raise DomainError("every start point failed to evaluate: its cost is not finite")
        theta, _, nfev, converged = min(fits, key=lambda res: (not res[3], res[1], res[2]))
        x = np.concatenate(([product_at(theta)], theta))
        r, jac = full(x, derivatives=True)
    if not np.all(np.isfinite(jac)):  # the SVD would not converge
        raise DomainError("the Jacobian is not finite at the fit: frequencies beyond its reach")
    packed_cov = _packed_covariance(jac, r)
    product, bandwidth, ratio = _unpack(x, fit_pump)
    scale = np.array([1.0, bandwidth] + ([ratio - 1.0] if fit_pump else []))
    return FitResult(
        efficiency_product=product,
        bandwidth=bandwidth,
        pump_ratio=ratio,
        residual_norm=float(np.linalg.norm(r)),
        covariance=packed_cov * np.outer(scale, scale),  # the log-space chain rule
        converged=converged,
        iterations=nfev,
        unidentifiable=() if fit_pump else ("pump_ratio",),
    )


def _packed_covariance(jac, residuals):
    """Rank check and covariance in the packed coordinates, from one thin SVD of jac.

    Fewer rows than parameters raise DomainError: the rank is at
    most m < p, and the thin SVD's m singular values cannot show it.  So
    does a singular value below 1e-10 of the largest (or an all-zero
    Jacobian), naming the parameter that dominates the weakest right
    singular vector.  The covariance is V diag(1/s^2) V^T times the
    residual variance, NaN when no degree of freedom is left.
    """
    m, p = jac.shape
    if m < p:
        raise DomainError(f"residual count {m} below the parameter count {p}: "
                          "the parameters cannot all be identified")
    names = ("efficiency_product", "bandwidth", "pump_ratio")[:p]
    _, singular, vt = np.linalg.svd(jac, full_matrices=False)
    if singular[0] == 0 or singular[-1] < 1e-10 * singular[0]:
        direction = names[int(np.argmax(np.abs(vt[-1])))]
        raise DomainError(f"Jacobian is rank deficient along the {direction} direction "
                          f"(singular values {singular})")
    if m == p:
        return np.full((p, p), np.nan)
    return (vt.T / singular ** 2) @ vt * (residuals @ residuals / (m - p))
