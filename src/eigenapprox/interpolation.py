"""K-functional, real-interpolation norms, the constant I(theta), reiteration
identities, and the boundary-weighted norm that discriminates the exceptional
half-order space.

The interpolation norm is computed as a log-variable Simpson quadrature over a
finite t-window plus analytic tail series, both taken once per distinct
eigenvalue; a window whose estimated tails exceed 1% of the total is rejected
rather than silently accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.integrate import simpson

from .domains import Box, Interval
from .errors import AccuracyError, ConfigError
from .fields import GridField, SpectralField, evaluate
from .reports import NormReport


def i_theta(theta: float) -> float:
    """I(theta) = pi / (2 sin(pi theta)) for theta in (0,1)."""
    if not 0.0 < theta < 1.0:
        raise ConfigError(f"theta must lie in (0,1), got {theta}")
    return math.pi / (2.0 * math.sin(math.pi * theta))


def i_theta_quadrature(theta: float) -> float:
    """Independent reference for I(theta): adaptive quadrature of
    int_0^1 (s^{1-2 theta} + s^{2 theta - 1})/(1+s^2) ds, the substitution
    s -> 1/s having folded the upper half-line onto (0,1)."""
    from scipy.integrate import quad

    if not 0.0 < theta < 1.0:
        raise ConfigError(f"theta must lie in (0,1), got {theta}")
    val, _ = quad(
        lambda s: (s ** (1.0 - 2.0 * theta) + s ** (2.0 * theta - 1.0)) / (1.0 + s * s),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def k_functional(f: SpectralField, t) -> float:
    """K(f, t) = ( sum_j t^2 lambda_j^2 |c_j|^2 / (1 + t^2 lambda_j^2) )^{1/2}.

    This is the closed form of the splitting infimum: the per-mode minimizer
    is y_j = c_j/(1 + t^2 lambda_j^2).  Only the positive spectrum enters.
    """
    t = float(t)
    if not t > 0:
        raise ConfigError(f"k_functional needs t > 0, got {t}")
    lams, amps = f.eigen_arrays(positive_only=True)
    if lams.size == 0:
        return 0.0
    s2 = (t * lams) ** 2
    return math.sqrt(float(np.sum(s2 / (1.0 + s2) * amps)))


@dataclass(frozen=True)
class InterpolationQuery:
    """theta plus the log-spaced t-quadrature window."""

    theta: float
    t_min: float
    t_max: float
    num_points: int = 512

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must lie in (0,1), got {self.theta}")
        if not (0.0 < self.t_min < self.t_max and math.isfinite(self.t_max)):
            raise ConfigError(f"need 0 < t_min < t_max, got ({self.t_min}, {self.t_max})")
        if self.num_points < 16:
            raise ConfigError(f"need at least 16 quadrature points, got {self.num_points}")

    @classmethod
    def default(cls, f: SpectralField, theta: float) -> "InterpolationQuery":
        """The stock window: [0.01/lambda_max, 100/lambda_min], 512 points."""
        lams, _ = f.eigen_arrays(positive_only=True)
        if lams.size == 0:
            raise ConfigError("cannot size a t-window for a field with empty positive spectrum")
        return cls(theta, 0.01 / float(lams.max()), 100.0 / float(lams.min()), 512)

    @classmethod
    def auto(cls, f_or_lams, theta: float, tail_fraction: float = 0.004, points_per_decade: int = 48) -> "InterpolationQuery":
        """Window sized from theta so each analytic tail stays below
        tail_fraction of the total mass (the stock window is too narrow when
        theta approaches 0 or 1)."""
        if isinstance(f_or_lams, SpectralField):
            lams, _ = f_or_lams.eigen_arrays(positive_only=True)
        else:
            lams = np.asarray(f_or_lams, dtype=float)
            lams = lams[lams > 0]
        if lams.size == 0:
            raise ConfigError("cannot size a t-window for a field with empty positive spectrum")
        ii = i_theta(theta)
        s0 = (tail_fraction * ii * (2.0 - 2.0 * theta)) ** (1.0 / (2.0 - 2.0 * theta))
        s1 = (tail_fraction * ii * 2.0 * theta) ** (-1.0 / (2.0 * theta))
        t_min = min(0.01, s0) / float(lams.max())
        t_max = max(100.0, s1) / float(lams.min())
        decades = math.log10(t_max / t_min)
        m = max(512, int(points_per_decade * decades) + 1)
        return cls(theta, t_min, t_max, m)


def _tail_low(s0: np.ndarray, theta: float) -> np.ndarray:
    # int_0^{s0} s^{1-2 theta}/(1+s^2) ds expanded at 0 (three terms)
    a = 2.0 - 2.0 * theta
    return s0**a / a - s0 ** (a + 2.0) / (a + 2.0) + s0 ** (a + 4.0) / (a + 4.0)


def _tail_high(s1: np.ndarray, theta: float) -> np.ndarray:
    # int_{s1}^inf s^{1-2 theta}/(1+s^2) ds expanded at infinity (three terms)
    b = 2.0 * theta
    return s1**-b / b - s1 ** (-b - 2.0) / (b + 2.0) + s1 ** (-b - 4.0) / (b + 4.0)


# bytes of one row block of the (t x eigenvalue) matrix in _interp_norm_sq.
# Blocks hold a multiple of 64 rows: the BLAS matrix-vector kernel takes rows
# in small groups, and with aligned blocks each row is summed as it is on the
# whole matrix (tests/test_interpolation.py pins the bit-identity).
_KSQ_BLOCK_BYTES = 16 << 20


def _interp_norm_sq(lams: np.ndarray, amps: np.ndarray, q: InterpolationQuery):
    """(window integral, low tail, high tail) of int t^{-2 theta} K^2 dt/t."""
    theta = q.theta
    # K^2 sees a mode only through its eigenvalue: one column per distinct
    # lambda, carrying the summed amplitude of its modes
    lams, inv = np.unique(lams, return_inverse=True)
    amps = np.bincount(inv, weights=amps)
    s0 = q.t_min * lams
    s1 = q.t_max * lams
    if float(s0.max()) > 0.5:
        raise ConfigError(
            f"t_min={q.t_min:g} is too large for the spectrum (t_min*lambda_max = {float(s0.max()):.3g} > 0.5); "
            "shrink t_min so the lower tail series applies"
        )
    if float(s1.min()) < 2.0:
        raise ConfigError(
            f"t_max={q.t_max:g} is too small for the spectrum (t_max*lambda_min = {float(s1.min()):.3g} < 2); "
            "grow t_max so the upper tail series applies"
        )
    tau = np.linspace(math.log(q.t_min), math.log(q.t_max), q.num_points)
    t = np.exp(tau)
    ksq = np.empty(t.size)
    rows = max(64, _KSQ_BLOCK_BYTES // (8 * lams.size) // 64 * 64)
    for a in range(0, t.size, rows):
        s2 = np.square(t[a : a + rows, None] * lams[None, :])
        ksq[a : a + rows] = (s2 / (1.0 + s2)) @ amps
    window = float(simpson(np.exp(-2.0 * theta * tau) * ksq, x=tau))
    low = float(np.sum(amps * lams ** (2.0 * theta) * _tail_low(s0, theta)))
    high = float(np.sum(amps * lams ** (2.0 * theta) * _tail_high(s1, theta)))
    return window, low, high


def interpolation_norm(f: SpectralField, q: InterpolationQuery, tail_limit: float = 0.01) -> float:
    """|| t^{-theta} K(f,t) ||_{L^2(dt/t)} over the query window plus analytic
    tails; raises AccuracyError when the tail estimate exceeds `tail_limit`
    of the total (the window is then too narrow to trust)."""
    lams, amps = f.eigen_arrays(positive_only=True)
    if lams.size == 0 or float(np.sum(amps)) == 0.0:
        return 0.0
    window, low, high = _interp_norm_sq(lams, amps, q)
    total = window + low + high
    if total <= 0.0:
        return 0.0
    frac = (low + high) / total
    if frac > tail_limit:
        raise AccuracyError(
            f"t-window [{q.t_min:g}, {q.t_max:g}] too narrow: estimated tail mass is "
            f"{100.0 * frac:.2f}% of the total (limit {100.0 * tail_limit:.0f}%); widen the window "
            "(InterpolationQuery.auto sizes one from theta)"
        )
    return math.sqrt(total)


def reiteration_check(f: SpectralField, theta: float, query: InterpolationQuery = None) -> list:
    """Both reiteration identities as measured ratios (value/reference).

    First: interpolating between the base space and the half-power domain is
    the quarter-scale domain - computed by replacing lambda_j with
    lambda_j^{1/2} and compared to sqrt(I(theta)) * fractional_norm(f, theta/2).
    Second: interpolating between the half-power and full domains - same
    square-root spectrum with coefficients premultiplied by lambda_j^{1/2},
    compared to sqrt(I(theta)) * fractional_norm(f, (1+theta)/2).
    """
    from .approx import fractional_norm

    if not 0.0 < theta < 1.0:
        raise ConfigError(f"theta must lie in (0,1), got {theta}")
    lams, amps = f.eigen_arrays(positive_only=True)
    if lams.size == 0:
        raise ConfigError("reiteration check needs a nonempty positive spectrum")
    root = math.sqrt(i_theta(theta))
    out = []
    for name, shifted_amps, ref_exp in (
        ("reiteration_base_to_half", amps, theta / 2.0),
        ("reiteration_half_to_full", amps * lams, (1.0 + theta) / 2.0),
    ):
        sq_lams = np.sqrt(lams)
        q = query if query is not None else InterpolationQuery.auto(sq_lams, theta)
        window, low, high = _interp_norm_sq(sq_lams, shifted_amps, q)
        total = window + low + high
        frac = (low + high) / total if total > 0 else 0.0
        if frac > 0.01:
            raise AccuracyError(
                f"reiteration window too narrow (tail mass {100 * frac:.2f}%); widen the query"
            )
        value = math.sqrt(total)
        reference = root * fractional_norm(f, ref_exp)
        out.append(
            NormReport(
                quantity=name,
                value=value,
                reference=reference,
                params={"theta": theta},
                meta={"t_min": q.t_min, "t_max": q.t_max, "num_points": q.num_points},
            )
        )
    return out


# ---------------------------------------------------------------------------
# the exceptional half-order space: boundary-weighted integral


@dataclass(frozen=True)
class BoundaryWeight:
    """Weight rho comparable to the boundary distance; default per-axis
    x (L - x) / L, multiplied across axes on boxes."""

    domain: Union[Interval, Box]
    func: Callable = None

    def __post_init__(self):
        if not isinstance(self.domain, (Interval, Box)):
            raise ConfigError("BoundaryWeight is defined on Interval/Box domains")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if self.func is not None:
            return np.asarray(self.func(pts), dtype=float)
        rho = np.ones(pts.shape[0])
        for i, L in enumerate(self.domain.lengths):
            x = pts[:, i]
            rho = rho * (x * (L - x) / L)
        return rho


@dataclass
class H00Report:
    """Refinement sequence of the weighted integral plus the divergence verdict.

    value is the last refinement when the sequence saturates, +inf when the
    detector flags divergence.
    """

    values: list
    diverging: bool

    @property
    def value(self) -> float:
        return math.inf if self.diverging else (self.values[-1] if self.values else 0.0)


def _graded_axis_rule(L: float, level: int, order: int):
    """Geometrically graded Gauss-Legendre panels on (0, L), symmetric about
    the midpoint; the innermost panel shrinks by 2x per level."""
    nodes_ref, weights_ref = np.polynomial.legendre.leggauss(order)
    cut = L / 2.0 ** (level + 3)
    edges = [0.0] + [cut * 2.0**i for i in range(level + 3)]  # last edge = L/2
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * nodes_ref)
        ws.append(half * weights_ref)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    # mirror onto (L/2, L)
    return np.concatenate([x, L - x]), np.concatenate([w, w])


def _h00_eval(u, domain, points: np.ndarray) -> np.ndarray:
    if callable(u):
        return np.asarray(u(points))
    if isinstance(u, SpectralField):
        return evaluate(u, points)
    if isinstance(u, GridField):
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(u.axes, u.values, method="linear")
        return interp(points)
    raise ConfigError("h00_weighted_norm accepts a callable, SpectralField, or GridField")


def h00_weighted_norm(
    u,
    domain: Union[Interval, Box],
    weight: BoundaryWeight = None,
    levels: int = 10,
    gauss_order: int = 16,
    growth_tol: float = 0.02,
    min_run: int = 4,
) -> H00Report:
    """Boundary-weighted integral int rho^{-1} |u|^2 under graded refinement.

    Each level halves the innermost panel; a finite integral saturates while
    the borderline-divergent ones keep growing.  Divergence is flagged when
    the sequence increased across at least `min_run` consecutive refinements
    and the last two values still differ by more than `growth_tol` relatively.
    """
    if weight is None:
        weight = BoundaryWeight(domain)
    if levels < max(2, min_run):
        raise ConfigError(f"need at least {max(2, min_run)} refinement levels")
    values = []
    for level in range(levels):
        rules = [_graded_axis_rule(L, level, gauss_order) for L in domain.lengths]
        mesh = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        w = rules[0][1]
        for r in rules[1:]:
            w = np.multiply.outer(w, r[1])
        w = w.reshape(-1)
        vals = np.abs(_h00_eval(u, domain, pts)) ** 2
        if vals.ndim == 2:  # vector samples
            vals = vals.sum(axis=1)
        rho = weight(pts)
        if np.any(rho <= 0):
            raise ConfigError("boundary weight must be positive in the interior")
        values.append(float(np.sum(w * vals / rho)))

    diverging = False
    if len(values) >= min_run + 1 and values[-1] > 0:
        tail = values[-(min_run + 1):]
        increasing = all(b > a for a, b in zip(tail[:-1], tail[1:]))
        last_growth = (values[-1] - values[-2]) / values[-1]
        diverging = increasing and last_growth > growth_tol
    return H00Report(values=values, diverging=diverging)
