"""Semigroup smoothing, the weighted eigenspace truncation Pi_theta,
fractional powers and norms, the sup constant Phi, and Fourier truncations.

All operators act diagonally on coefficients: each is a per-mode multiplier,
defined once in `multiplier`.  On torus operators the k=0 coefficient sits
outside the positive spectrum: fractional powers and norms skip it, and the
diagonal operators carry it through untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import TorusLaplacian, TorusStokes
from .errors import ConfigError
from .fields import SpectralField, _Packed


@dataclass(frozen=True)
class SmoothingParams:
    """Parameter bundle for the smoothing/truncation estimates.

    theta: semigroup time / truncation parameter (> 0 where applied);
    alpha, beta: fractional exponents; kappa: Phi argument; gamma: embedding
    exponent (>= 0).
    """

    theta: float
    alpha: float = 0.0
    beta: float = 0.0
    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("theta", "alpha", "beta", "kappa", "gamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")


MULTIPLIERS = ("identity", "semigroup", "pi_theta", "fractional_power", "spherical", "cubic")
_FOURIER_TRUNCATIONS = ("spherical", "cubic")  # torus only; keep (factor 1) or drop


def multiplier(name: str, param=None):
    """Rule (k (M, d), lambda (M,)) -> factors (M,) of a named diagonal
    operator, NaN where the operator drops the mode; a factor of exactly 1
    keeps the coefficient as stored.  The parameter is checked here.  Rules
    are only consulted on the positive spectrum: the carried mean passes
    through."""
    if name == "identity":
        return lambda k, lam: np.ones(lam.shape)
    if name == "semigroup":
        theta = float(param)
        if theta < 0:
            raise ConfigError(f"semigroup time must be >= 0, got {theta}")
        return lambda k, lam: np.exp(-theta * lam)
    if name == "pi_theta":
        theta = float(param)
        if not theta > 0:
            raise ConfigError(f"pi_theta needs theta > 0, got {theta}")
        cutoff = theta**-2
        return lambda k, lam: np.where(lam < cutoff, np.exp(-theta * lam), math.nan)
    if name == "fractional_power":
        alpha = float(param)
        return lambda k, lam: lam**alpha
    if name in _FOURIER_TRUNCATIONS:
        if param < 0:
            raise ConfigError(f"truncation order must be >= 0, got {param}")
        n = int(param)
        if name == "spherical":
            return lambda k, lam: np.where(np.sum(k * k, axis=1) <= n * n, 1.0, math.nan)
        return lambda k, lam: np.where(np.max(np.abs(k), axis=1, initial=0) <= n, 1.0, math.nan)
    raise ConfigError(f"unknown multiplier {name!r}; choose from {MULTIPLIERS}")


def _apply_multiplier(f: SpectralField, name: str, param) -> SpectralField:
    rule = multiplier(name, param)
    if name in _FOURIER_TRUNCATIONS and not isinstance(f.operator, (TorusLaplacian, TorusStokes)):
        raise ConfigError("Fourier truncations are defined for torus fields")
    lams = f._eigenvalue_array()
    factor = np.ones(lams.shape)
    pos = lams > 0.0  # the carried mean keeps factor 1
    factor[pos] = rule(f.k[pos], lams[pos])
    keep = ~np.isnan(factor)
    scaled = keep & (factor != 1.0)
    values = f.values.copy()
    values[scaled] = values[scaled] * factor[scaled].reshape((-1,) + (1,) * (values.ndim - 1))
    return SpectralField(f.operator, _Packed(f.k[keep], f.pol[keep], values[keep]))


def semigroup_apply(f: SpectralField, theta: float) -> SpectralField:
    """e^{-theta A} f: scale each coefficient by e^{-theta lambda_j}."""
    if theta == 0:
        return f  # fields are immutable
    return _apply_multiplier(f, "semigroup", theta)


def pi_theta(f: SpectralField, theta: float) -> SpectralField:
    """Weighted truncation: keep modes with lambda < theta^-2 (strict), scale
    the kept coefficients by e^{-theta lambda}.  Finite rank by construction;
    eigenvalues exactly at the cutoff are excluded."""
    return _apply_multiplier(f, "pi_theta", theta)


def apply_fractional_power(f: SpectralField, alpha: float) -> SpectralField:
    """A^alpha f: per-mode scaling by lambda_j^alpha (carried mean untouched)."""
    if alpha == 0:
        return f
    return _apply_multiplier(f, "fractional_power", alpha)


def fractional_norm(f: SpectralField, alpha: float) -> float:
    """|| f ||_{D(A^alpha)} = sqrt( sum lambda_j^{2 alpha} |c_j|^2 ) over the
    positive spectrum; alpha = 0 gives the coefficient l2 norm."""
    lams, amps = f.eigen_arrays(positive_only=True)
    if lams.size == 0:
        return 0.0
    return math.sqrt(float(np.sum(lams ** (2.0 * alpha) * amps)))


def semigroup_error_norm(f: SpectralField, theta: float, alpha: float) -> float:
    """|| e^{-theta A} f - f ||_{D(A^alpha)} via the per-mode closed form.

    Uses expm1 so the result stays accurate (and monotone in theta) when
    theta*lambda is tiny; subtracting the fields first would lose that.
    """
    if theta < 0:
        raise ConfigError(f"semigroup time must be >= 0, got {theta}")
    lams, amps = f.eigen_arrays(positive_only=True)
    if lams.size == 0:
        return 0.0
    factors = np.expm1(-theta * lams)
    return math.sqrt(float(np.sum(lams ** (2.0 * alpha) * factors**2 * amps)))


def pi_theta_error_norm(f: SpectralField, theta: float, alpha: float) -> float:
    """|| Pi_theta f - f ||_{D(A^alpha)}: expm1 factors on kept modes, full
    coefficient mass on dropped ones."""
    if not theta > 0:
        raise ConfigError(f"pi_theta needs theta > 0, got {theta}")
    lams, amps = f.eigen_arrays(positive_only=True)
    if lams.size == 0:
        return 0.0
    cutoff = theta**-2
    kept = lams < cutoff
    sq = np.where(kept, np.expm1(-theta * lams) ** 2, 1.0)
    return math.sqrt(float(np.sum(lams ** (2.0 * alpha) * sq * amps)))


def pi_theta_gap_norm(f: SpectralField, theta: float, alpha: float) -> float:
    """|| Pi_theta f - e^{-theta A} f ||_{D(A^alpha)}.

    On kept modes the two operators apply the same factor, so only the
    dropped tail (lambda >= theta^-2) contributes, still damped by the
    semigroup; this is the left side of the bound phi(theta, alpha - beta)
    * || f ||_{D(A^beta)}.
    """
    if not theta > 0:
        raise ConfigError(f"pi_theta needs theta > 0, got {theta}")
    lams, amps = f.eigen_arrays(positive_only=True)
    if lams.size == 0:
        return 0.0
    dropped = lams >= theta**-2
    if not np.any(dropped):
        return 0.0
    lams, amps = lams[dropped], amps[dropped]
    return math.sqrt(float(np.sum(lams ** (2.0 * alpha) * np.exp(-2.0 * theta * lams) * amps)))


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
    if gamma < 0:
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
    if theta < 0:
        raise ConfigError(f"semigroup time must be >= 0, got {theta}")
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
