"""Semigroup smoothing, the weighted eigenspace truncation Pi_theta,
fractional norms, the sup constant Phi, and Fourier truncations.

All operators act diagonally on coefficients: each is a per-mode multiplier,
defined once in `multiplier`; every norm is one sum, `_weighted_norm`.  The
semigroup time is checked in `_semigroup_time`, Pi_theta's theta and cutoff
theta^-2 in `_pi_theta_cutoff`.  On torus operators the k=0 coefficient sits
outside the positive spectrum: fractional norms skip it, and the
diagonal operators carry it through untouched.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import TorusLaplacian, TorusStokes
from .errors import ConfigError
from .fields import SpectralField, _Packed


MULTIPLIERS = ("identity", "semigroup", "pi_theta", "spherical", "cubic")
_FOURIER_TRUNCATIONS = ("spherical", "cubic")  # torus only; keep (factor 1) or drop


def _semigroup_time(theta) -> float:
    """theta as a float, checked as a semigroup time."""
    t = float(theta)
    if not t >= 0:  # NaN too, whose factors would read as "drop the mode"
        raise ConfigError(f"semigroup time must be >= 0, got {theta}")
    return t


def _pi_theta_cutoff(theta) -> tuple:
    """(theta, cutoff theta^-2) of Pi_theta, which keeps lambda < cutoff."""
    t = float(theta)
    if not t > 0:
        raise ConfigError(f"pi_theta needs theta > 0, got {theta}")
    return t, t**-2


def multiplier(name: str, param=None):
    """Rule (k (M, d), lambda (M,)) -> factors (M,) of a named diagonal
    operator, NaN where the operator drops the mode; a factor of exactly 1
    keeps the coefficient as stored.  The parameter is checked here.  Rules
    are only consulted on the positive spectrum: the carried mean passes
    through."""
    if name == "identity":
        return lambda k, lam: np.ones(lam.shape)
    if name == "semigroup":
        theta = _semigroup_time(param)
        return lambda k, lam: np.exp(-theta * lam)
    if name == "pi_theta":
        theta, cutoff = _pi_theta_cutoff(param)
        return lambda k, lam: np.where(lam < cutoff, np.exp(-theta * lam), math.nan)
    if name in _FOURIER_TRUNCATIONS:
        if isinstance(param, bool) or not isinstance(param, (int, np.integer)) or param < 0:
            raise ConfigError(f"truncation order must be an integer >= 0, got {param!r}")
        n = int(param)
        if name == "spherical":
            return lambda k, lam: np.where(np.sum(k * k, axis=1) <= n * n, 1.0, math.nan)
        return lambda k, lam: np.where(np.max(np.abs(k), axis=1, initial=0) <= n, 1.0, math.nan)
    raise ConfigError(f"unknown multiplier {name!r}; choose from {MULTIPLIERS}")


def _factors(f: SpectralField, name: str, param) -> np.ndarray:
    """The named operator's factor for every row of f (see `multiplier`)."""
    rule = multiplier(name, param)
    if name in _FOURIER_TRUNCATIONS and not isinstance(f.operator, (TorusLaplacian, TorusStokes)):
        raise ConfigError("Fourier truncations are defined for torus fields")
    lams = f._eigenvalue_array()
    factor = np.ones(lams.shape)
    pos = lams > 0.0  # the carried mean keeps factor 1
    factor[pos] = rule(f.k[pos], lams[pos])
    return factor


def _scaled(values: np.ndarray, factor: np.ndarray) -> tuple:
    """The mask of the rows `factor` keeps (not NaN), and their values times it."""
    keep = ~np.isnan(factor)
    scaled = keep & (factor != 1.0)
    values = values.copy()
    values[scaled] = values[scaled] * factor[scaled].reshape((-1,) + (1,) * (values.ndim - 1))
    return keep, values[keep]


def _apply_multiplier(f: SpectralField, name: str, param) -> SpectralField:
    keep, values = _scaled(f.values, _factors(f, name, param))
    return SpectralField(f.operator, _Packed(f.k[keep], f.pol[keep], values))


def semigroup_apply(f: SpectralField, theta: float) -> SpectralField:
    """e^{-theta A} f: scale each coefficient by e^{-theta lambda_j}."""
    return _apply_multiplier(f, "semigroup", theta)


def pi_theta(f: SpectralField, theta: float) -> SpectralField:
    """Weighted truncation: keep modes with lambda < theta^-2 (strict), scale
    the kept coefficients by e^{-theta lambda}.  Finite rank by construction;
    eigenvalues exactly at the cutoff are excluded."""
    return _apply_multiplier(f, "pi_theta", theta)


def _weighted_norm(f: SpectralField, alpha: float, weight=None, where=None) -> float:
    """sqrt( sum lambda_j^{2 alpha} weight(lambda_j) |c_j|^2 ) over the
    positive spectrum, or over the part of it where `where(lambda)` holds;
    0 when no term is left.  Every spectral norm of the package is this sum."""
    lams, amps = f.eigen_arrays(positive_only=True)
    if where is not None:
        keep = where(lams)
        lams, amps = lams[keep], amps[keep]
    if lams.size == 0:
        return 0.0
    terms = lams ** (2.0 * alpha)
    if weight is not None:
        terms = terms * weight(lams)
    return math.sqrt(float(np.sum(terms * amps)))


def fractional_norm(f: SpectralField, alpha: float) -> float:
    """|| f ||_{D(A^alpha)} = sqrt( sum lambda_j^{2 alpha} |c_j|^2 ) over the
    positive spectrum; alpha = 0 gives the coefficient l2 norm."""
    return _weighted_norm(f, alpha)


def semigroup_error_norm(f: SpectralField, theta: float, alpha: float) -> float:
    """|| e^{-theta A} f - f ||_{D(A^alpha)} via the per-mode closed form.

    Uses expm1 so the result stays accurate (and monotone in theta) when
    theta*lambda is tiny; subtracting the fields first would lose that.
    """
    _semigroup_time(theta)
    return _weighted_norm(f, alpha, lambda lams: np.expm1(-theta * lams) ** 2)


def pi_theta_error_norm(f: SpectralField, theta: float, alpha: float) -> float:
    """|| Pi_theta f - f ||_{D(A^alpha)}: expm1 factors on kept modes, full
    coefficient mass on dropped ones."""
    _, cutoff = _pi_theta_cutoff(theta)
    return _weighted_norm(f, alpha, lambda lams: np.where(lams < cutoff, np.expm1(-theta * lams) ** 2, 1.0))


def pi_theta_gap_norm(f: SpectralField, theta: float, alpha: float) -> float:
    """|| Pi_theta f - e^{-theta A} f ||_{D(A^alpha)}.

    On kept modes the two operators apply the same factor, so only the
    dropped tail (lambda >= theta^-2) contributes, still damped by the
    semigroup; this is the left side of the bound phi(theta, alpha - beta)
    * || f ||_{D(A^beta)}.
    """
    _, cutoff = _pi_theta_cutoff(theta)
    return _weighted_norm(f, alpha, lambda lams: np.exp(-2.0 * theta * lams), where=lambda lams: lams >= cutoff)


def phi(theta: float, kappa: float) -> float:
    """Phi(theta, kappa) = sup over lambda >= theta^-2 of lambda^kappa e^{-sqrt(lambda)}.

    Closed form: theta^{-2 kappa} e^{-1/theta} when kappa < 0 or the sup sits
    on the boundary (kappa >= 0, theta <= 1/(2 kappa)); otherwise the interior
    maximum (2 kappa)^{2 kappa} e^{-2 kappa}.  kappa = 0 uses the first branch
    (both coincide at e^{-1/theta}).
    """
    if not theta > 0:
        raise ConfigError(f"phi needs theta > 0, got {theta}")
    if kappa <= 0 or theta <= 1.0 / (2.0 * kappa):
        return theta ** (-2.0 * kappa) * math.exp(-1.0 / theta)
    return (2.0 * kappa) ** (2.0 * kappa) * math.exp(-2.0 * kappa)


def c_gamma(gamma: float) -> float:
    """sup over lambda >= 0 of lambda^gamma e^{-lambda}: (gamma/e)^gamma, with
    the 0^0 := 1 convention at gamma = 0."""
    if not gamma >= 0:
        raise ConfigError(f"c_gamma needs gamma >= 0, got {gamma}")
    if gamma == 0:
        return 1.0
    return math.exp(gamma * (math.log(gamma) - 1.0))


def smoothing_bound(theta: float, alpha: float, beta: float, lambda_min: float) -> float:
    """Sharp constant for ||e^{-theta A} f||_alpha <= C ||f||_beta.

    For alpha >= beta the gain comes from the semigroup kernel alone:
    C = c_gamma(alpha - beta) * theta^{-(alpha - beta)}.  For alpha < beta the
    norm ratio lambda^{alpha - beta} is largest at the bottom of the spectrum,
    so C = e^{-lambda_min theta} * lambda_min^{alpha - beta}.
    """
    _semigroup_time(theta)
    if alpha >= beta:
        if theta == 0 and alpha > beta:
            raise ConfigError("no finite smoothing constant at theta = 0 with alpha > beta")
        return c_gamma(alpha - beta) * (theta ** (beta - alpha) if alpha > beta else 1.0)
    if not lambda_min > 0:
        raise ConfigError(f"lambda_min must be positive, got {lambda_min}")
    return math.exp(-lambda_min * theta) * lambda_min ** (alpha - beta)


def spherical_truncate(f: SpectralField, n: int) -> SpectralField:
    """Keep modes with Euclidean |k| <= n."""
    return _apply_multiplier(f, "spherical", n)


def cubic_truncate(f: SpectralField, n: int) -> SpectralField:
    """Keep modes with max_j |k_j| <= n."""
    return _apply_multiplier(f, "cubic", n)
