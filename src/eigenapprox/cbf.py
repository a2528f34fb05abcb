"""Desk-scale pseudospectral solver for the convective Brinkman-Forchheimer
equations on the 2- or 3-torus, plus the energy-equality ledger and the time
and space mollifiers used to verify it.

    du/dt - mu Lap u + (u.grad)u + grad p + beta |u|^r u = 0,   div u = 0.

The pressure is eliminated by per-mode Leray projection.  States live as
dense rfftn coefficient arrays (component axis first), dealias-masked and
zero-mean; the time stepper is classical RK4 on the integrating-factor
transform of the nonlinear part, so the stiff viscous term is integrated
exactly.  For the semi-discrete (dealias-truncated Galerkin) system the
energy identity holds exactly: the ledger residual measures only the time
integrator and the Simpson-in-time quadrature.

The convective term is evaluated in divergence form, (u.grad)u_i =
d_j(u_i u_j), from the d(d+1)/2 symmetric products u_i u_j, with the
transforms of `scipy.fft` batched over the component axis (Canuto, Hussaini,
Quarteroni & Zang, Spectral Methods: Fundamentals in Single Domains, 2006,
sections 3.4 and 7.2).  The two forms agree because div u = 0 to roundoff
and every product of resolved modes is exact on the kept modes under the
dealias cutoff.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.integrate import simpson

from .domains import ModeIndex, Torus, TorusStokes
from .errors import AccuracyError, AliasingError, ConfigError
from .fields import GridField, SpectralField, _tangential, lp_norm, uniform_axes

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CBFParams:
    """Physical and discretization parameters.

    beta = 0 is plain Navier-Stokes.  The dealias cutoff is the 2/3 rule for
    the quadratic term alone and tightens to 1/2 when the cubic absorption
    term is active, so products of resolved modes are quadrature-exact.
    """

    mu: float
    beta: float = 0.0
    r: float = 2.0
    dim: int = 2
    resolution: int = 64
    dt: float = 1e-3
    t_final: float = 1.0
    snapshot_every: int = 10

    def __post_init__(self):
        if not self.mu > 0:
            raise ConfigError(f"viscosity must be positive, got {self.mu}")
        if self.beta < 0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.r < 0:
            raise ConfigError(f"absorption exponent must be nonnegative, got {self.r}")
        if self.dim not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {self.dim}")
        if self.resolution < 8 or self.resolution % 2 != 0:
            raise ConfigError(f"resolution must be even and >= 8, got {self.resolution}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_final > 0:
            raise ConfigError(f"t_final must be positive, got {self.t_final}")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")

    @property
    def dealias_kmax(self) -> int:
        n = self.resolution
        k = (n - 1) // 3 if self.beta == 0.0 else (n - 1) // 4
        if k < 1:
            raise ConfigError(f"resolution {n} leaves no modes under the dealiasing rule")
        return k

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "beta": self.beta,
            "r": self.r,
            "dim": self.dim,
            "resolution": self.resolution,
            "dt": self.dt,
            "t_final": self.t_final,
            "snapshot_every": self.snapshot_every,
        }


@functools.lru_cache(maxsize=32)
def _tables(dim: int, n: int, kmax: int):
    """Wavenumber arrays, |k|^2, the dealias mask, and Parseval weights for
    the rfftn layout (last axis halved)."""
    spec_shape = (n,) * (dim - 1) + (n // 2 + 1,)
    karrs = []
    for ax in range(dim):
        if ax < dim - 1:
            k = np.fft.fftfreq(n, d=1.0 / n)
        else:
            k = np.arange(n // 2 + 1, dtype=float)
        shape = [1] * dim
        shape[ax] = k.size
        karrs.append(k.reshape(shape))
    k2 = np.zeros(spec_shape)
    for k in karrs:
        k2 = k2 + k * k
    mask = np.ones(spec_shape, dtype=bool)
    for k in karrs:
        mask &= np.abs(k) <= kmax
    klast = karrs[-1]
    pw = np.where((klast > 0) & (klast < n // 2), 2.0, 1.0)
    pw = np.broadcast_to(pw, spec_shape).copy()
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    return karrs, k2, k2safe, mask, pw


@dataclass
class CBFState:
    """One snapshot: time plus rfftn velocity coefficients, shape
    (dim, n, ..., n//2+1), divergence-free, conjugate-symmetric (real field),
    zero-mean, supported inside the dealias mask."""

    time: float
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def resolution(self) -> int:
        return self.coeffs.shape[1]

    def copy(self) -> "CBFState":
        return CBFState(self.time, self.coeffs.copy())


def _scale_factor(dim: int, n: int) -> float:
    # || u ||^2_{L2} = scale * sum w |U_k|^2 over the rfft layout
    return TWO_PI**dim / float(n) ** (2 * dim)


def state_energy(s: CBFState, params: CBFParams) -> float:
    """Kinetic term || u ||^2 (L2 squared) via Parseval."""
    _, _, _, _, pw = _tables(s.dim, s.resolution, params.dealias_kmax)
    return _scale_factor(s.dim, s.resolution) * float(np.sum(pw * np.abs(s.coeffs) ** 2))


def state_enstrophy(s: CBFState, params: CBFParams) -> float:
    """|| grad u ||^2 via Parseval (the dissipation integrand)."""
    _, k2, _, _, pw = _tables(s.dim, s.resolution, params.dealias_kmax)
    return _scale_factor(s.dim, s.resolution) * float(np.sum(pw * k2 * np.abs(s.coeffs) ** 2))


def state_divergence_residual(s: CBFState) -> float:
    """max_k |k . u_hat(k)| in orthonormal-basis amplitude units (so the
    value does not scale with the grid resolution)."""
    karrs, _, _, _, _ = _tables(s.dim, s.resolution, 1)
    div = np.zeros(s.coeffs.shape[1:], dtype=complex)
    for i, k in enumerate(karrs):
        div = div + 1j * k * s.coeffs[i]
    sc = TWO_PI ** (s.dim / 2.0) / float(s.resolution) ** s.dim
    return sc * float(np.max(np.abs(div)))


def _leray_arrays(fh: np.ndarray, karrs, k2safe) -> np.ndarray:
    dot = np.zeros(fh.shape[1:], dtype=complex)
    tmp = np.empty_like(dot)
    for i, k in enumerate(karrs):
        dot += np.multiply(k, fh[i], out=tmp)
    dot /= k2safe
    out = np.empty_like(fh)
    for i, k in enumerate(karrs):
        np.subtract(fh[i], np.multiply(k, dot, out=tmp), out=out[i])
    return out


def _nonlinear(coeffs: np.ndarray, params: CBFParams) -> np.ndarray:
    """-P[ (u.grad)u + beta |u|^r u ] in coefficients, dealias-masked, with
    the k=0 entry forced to zero (mean momentum untouched).

    The convective term is taken in divergence form, component i being
    sum_j i k_j FFT(u_i u_j), so only the d(d+1)/2 symmetric products are
    transformed: one batched inverse transform gives u, then one batched
    forward transform per product row u_i u[i:] (accumulated into both
    components it feeds at once) and one for beta |u|^r u.  This equals the
    advective form u_j d_j u_i on every kept mode: div u = 0 to roundoff,
    and the products of modes under the dealias cutoff alias only onto
    modes the mask drops.
    """
    dim = coeffs.shape[0]
    n = coeffs.shape[1]
    karrs, _, k2safe, mask, _ = _tables(dim, n, params.dealias_kmax)
    axes = tuple(range(1, dim + 1))
    u = scipy.fft.irfftn(coeffs, s=(n,) * dim, axes=axes)
    adv = np.zeros_like(coeffs)
    for i in range(dim):
        row = scipy.fft.rfftn(u[i] * u[i:], axes=axes)  # FFT(u_i u_j), j >= i
        for j in range(i, dim):
            adv[i] += 1j * karrs[j] * row[j - i]
            if j != i:
                adv[j] += 1j * karrs[i] * row[j - i]
    if params.beta != 0.0:
        w2 = np.sum(u * u, axis=0)
        wr = w2 if params.r == 2.0 else w2 ** (params.r / 2.0)
        u *= wr  # exact under the 1/2 cutoff for r = 2
        adv += params.beta * scipy.fft.rfftn(u, axes=axes)
    out = -_leray_arrays(adv, karrs, k2safe)
    out *= mask
    out[(slice(None),) + (0,) * dim] = 0.0
    return out


def cbf_rhs(s: CBFState, params: CBFParams) -> SpectralField:
    """Full right-hand side -mu lambda_k u_hat - P[(u.grad)u + beta|u|^r u]
    as a divergence-free spectral field."""
    _check_state(s, params)
    _, k2, _, _, _ = _tables(s.dim, s.resolution, params.dealias_kmax)
    rhs = -params.mu * k2 * s.coeffs + _nonlinear(s.coeffs, params)
    return _array_to_field(rhs, s.resolution)


def _check_state(s: CBFState, params: CBFParams):
    if s.dim != params.dim or s.resolution != params.resolution:
        raise ConfigError(
            f"state shape (d={s.dim}, N={s.resolution}) does not match params "
            f"(d={params.dim}, N={params.resolution})"
        )


def step(s: CBFState, params: CBFParams) -> CBFState:
    """One RK4 step with exact integrating factor for the viscous term.

    Preserves the divergence-free constraint and conjugate symmetry exactly
    (the coefficients never leave the rfft layout and every multiplier is
    real).  Raises AccuracyError if the velocity norm grows more than 10x in
    a single step.
    """
    _check_state(s, params)
    karrs, k2, k2safe, _, _ = _tables(s.dim, s.resolution, params.dealias_kmax)
    dt = params.dt
    e1 = np.exp(-params.mu * k2 * (dt / 2.0))
    e2 = e1 * e1
    c = s.coeffs
    a = _nonlinear(c, params)
    b = _nonlinear(e1 * (c + (dt / 2.0) * a), params)
    c3 = _nonlinear(e1 * c + (dt / 2.0) * b, params)
    d = _nonlinear(e2 * c + dt * (e1 * c3), params)
    new = e2 * c + (dt / 6.0) * (e2 * a + 2.0 * e1 * (b + c3) + d)
    # every stage is tangential, so this re-projection only removes the
    # accumulated floating-point normal component (keeps div at roundoff)
    new = _leray_arrays(new, karrs, k2safe)
    before = float(np.sum(np.abs(c) ** 2))
    after = float(np.sum(np.abs(new) ** 2))
    if before > 0.0 and after > 100.0 * before:
        raise AccuracyError(
            f"blow-up guard: velocity norm grew {math.sqrt(after / before):.1f}x in one step "
            f"at t={s.time:.6g} (dt={dt:g}, N={params.resolution}); refine dt"
        )
    return CBFState(s.time + dt, new)


@dataclass
class Trajectory:
    params: CBFParams
    times: list
    states: list

    @property
    def snapshot_spacing(self) -> float:
        return self.params.dt * self.params.snapshot_every


def simulate(initial: CBFState, params: CBFParams) -> Trajectory:
    """March to t_final, storing every snapshot_every-th state (plus start
    and end).  t_final must be an integer number of steps."""
    _check_state(initial, params)
    n_steps = round(params.t_final / params.dt)
    if abs(n_steps * params.dt - params.t_final) > 1e-9 * max(1.0, params.t_final):
        raise ConfigError(f"t_final={params.t_final} is not an integer multiple of dt={params.dt}")
    s = initial.copy()
    times = [s.time]
    states = [s.copy()]
    for i in range(1, n_steps + 1):
        s = step(s, params)
        if i % params.snapshot_every == 0 or i == n_steps:
            times.append(s.time)
            states.append(s.copy())
    return Trajectory(params, times, states)


@dataclass
class EnergyLedger:
    """Every term of the energy identity over [t0, t1]:
    residual = kinetic1 + dissipation + absorption - kinetic0."""

    t0: float
    t1: float
    kinetic0: float
    kinetic1: float
    dissipation: float
    absorption: float

    @property
    def residual(self) -> float:
        return self.kinetic1 + self.dissipation + self.absorption - self.kinetic0

    def csv_row(self) -> list:
        return [self.t0, self.t1, self.kinetic0, self.kinetic1, self.dissipation, self.absorption, self.residual]

    CSV_HEADER = ("t0", "t1", "kinetic0", "kinetic1", "dissipation", "absorption", "residual")


def _padded_velocity_grid(s: CBFState, pad: int = 2) -> GridField:
    """Real-space velocity on a pad-times-finer grid (dealiased quartic-exact)."""
    n = s.resolution
    dim = s.dim
    np_ = pad * n
    big = np.zeros((dim,) + (np_,) * (dim - 1) + (np_ // 2 + 1,), dtype=complex)
    _embed_rfft(s.coeffs, big, n, np_)
    vals = scipy.fft.irfftn(big, s=(np_,) * dim, axes=tuple(range(1, dim + 1)))
    vals *= (np_ / n) ** dim
    torus = Torus(dim)
    axes = uniform_axes(torus, np_)
    return GridField(torus, axes, np.moveaxis(vals, 0, -1))


def _embed_rfft(small: np.ndarray, big: np.ndarray, n: int, np_: int):
    """Copy the rfftn coefficients of every component (leading axis) into the
    low-wavenumber slots of a finer rfftn layout."""
    half = n // 2
    d = small.ndim - 1
    # full axes: copy the 0..half-1 and negative blocks; half-axis: 0..half
    src: list = []
    dst: list = []
    for ax in range(d - 1):
        src.append([slice(0, half), slice(half + 1, n)])
        dst.append([slice(0, half), slice(np_ - (n - half - 1), np_)])
    src.append([slice(0, half)])
    dst.append([slice(0, half)])
    for combo in itertools.product(*[range(len(s)) for s in src]):
        s_idx = (slice(None),) + tuple(src[ax][c] for ax, c in enumerate(combo))
        d_idx = (slice(None),) + tuple(dst[ax][c] for ax, c in enumerate(combo))
        big[d_idx] = small[s_idx]


def energy_ledger(traj: Trajectory, t0: float, t1: float, params: CBFParams = None) -> EnergyLedger:
    """Assemble the identity terms over [t0, t1] (snapshot times).

    Kinetic and dissipation terms come from Parseval; the absorption integrand
    || u ||_{L^{r+2}}^{r+2} is quadratured on a doubled (dealiased) grid; time
    integrals use Simpson over the stored snapshots.
    """
    p = params if params is not None else traj.params
    if not t0 < t1:
        raise ConfigError(f"need t0 < t1, got ({t0}, {t1})")
    times = np.asarray(traj.times)
    i0 = int(np.argmin(np.abs(times - t0)))
    i1 = int(np.argmin(np.abs(times - t1)))
    tol = 1e-9 * max(1.0, float(times[-1]))
    if abs(times[i0] - t0) > tol or abs(times[i1] - t1) > tol:
        raise ConfigError(f"t0/t1 must coincide with snapshot times; nearest are {times[i0]}, {times[i1]}")
    if i1 - i0 + 1 < 3:
        raise ConfigError("need at least 3 snapshots between t0 and t1 for Simpson")
    sub_t = times[i0 : i1 + 1]
    sub_s = traj.states[i0 : i1 + 1]
    kin0 = state_energy(sub_s[0], p)
    kin1 = state_energy(sub_s[-1], p)
    diss_vals = np.array([state_enstrophy(s, p) for s in sub_s])
    dissipation = 2.0 * p.mu * float(simpson(diss_vals, x=sub_t))
    if p.beta == 0.0:
        absorption = 0.0
    else:
        q = p.r + 2.0
        abs_vals = np.array([lp_norm(_padded_velocity_grid(s), q) ** q for s in sub_s])
        absorption = 2.0 * p.beta * float(simpson(abs_vals, x=sub_t))
    return EnergyLedger(float(sub_t[0]), float(sub_t[-1]), kin0, kin1, dissipation, absorption)


# ---------------------------------------------------------------------------
# mollifiers


@functools.lru_cache(maxsize=1)
def _bump_mass() -> float:
    from scipy.integrate import quad

    val, _ = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    return val


@dataclass(frozen=True)
class MollifierSpec:
    """Even bump c/h * exp(-1/(1-(s/h)^2)) on (-h, h), unit total integral."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0:
            raise ConfigError(f"mollifier half-width must be positive, got {self.half_width}")

    def density(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        x = s / self.half_width
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
        return out / (self.half_width * _bump_mass())


def time_mollify(traj: Trajectory, spec: MollifierSpec, t: float) -> SpectralField:
    """(eta_h * u)(t) = int_0^T eta_h(t - s) u(s) ds over the stored window,
    with u linearly interpolated between snapshots and Gauss quadrature per
    snapshot interval.  At t on the boundary of a full-support window the
    captured mass is 1/2 (the even bump integrates to 1/2 on a half-line)."""
    h = spec.half_width
    times = np.asarray(traj.times)
    t_start, t_end = float(times[0]), float(times[-1])
    if not (t_start <= t <= t_end):
        raise ConfigError(f"t={t} outside the trajectory range [{t_start}, {t_end}]")
    if h < 2.0 * traj.snapshot_spacing:
        raise ConfigError(
            f"half-width {h:g} under-resolves the snapshot spacing {traj.snapshot_spacing:g} (need >= 2x)"
        )
    lo = max(t_start, t - h)
    hi = min(t_end, t + h)
    cuts = [lo] + [float(x) for x in times if lo < x < hi] + [hi]
    nodes_ref, weights_ref = np.polynomial.legendre.leggauss(20)
    acc = np.zeros_like(traj.states[0].coeffs)
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ss = mid + half * nodes_ref
        dens = spec.density(t - ss)
        for s_val, w, rho in zip(ss, weights_ref, dens):
            if rho == 0.0:
                continue
            acc += (half * w * rho) * _interp_state(traj, s_val)
    return _array_to_field(acc, traj.params.resolution)


def _interp_state(traj: Trajectory, t: float) -> np.ndarray:
    times = traj.times
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = max(0, min(i, len(times) - 2))
    t0, t1 = times[i], times[i + 1]
    w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    return (1.0 - w) * traj.states[i].coeffs + w * traj.states[i + 1].coeffs


def space_mollify(s: CBFState, n: float, params: CBFParams) -> CBFState:
    """Semigroup smoothing u -> e^{-A/n} u on the (Stokes) spectrum: diagonal
    factor e^{-|k|^2/n}.  Being diagonal and real it preserves the
    divergence-free constraint and conjugate symmetry exactly, contracts every
    fractional norm, and converges to the identity as n grows."""
    if not n > 0:
        raise ConfigError(f"mollification index must be positive, got {n}")
    _, k2, _, _, _ = _tables(s.dim, s.resolution, params.dealias_kmax)
    return CBFState(s.time, s.coeffs * np.exp(-k2 / float(n)))


# ---------------------------------------------------------------------------
# initial data and conversions


def taylor_green(params: CBFParams, amplitude: float = 1.0) -> CBFState:
    """2D Taylor-Green vortex A (sin x cos y, -cos x sin y): a single-shell
    eigenfield whose nonlinear term is a pure gradient, so the exact solution
    just decays as e^{-2 mu t} per component (energy rate 4 mu)."""
    if params.dim != 2:
        raise ConfigError("the Taylor-Green initial state is two-dimensional")
    n = params.resolution
    x = np.arange(n) * (TWO_PI / n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    u0 = amplitude * np.sin(X) * np.cos(Y)
    u1 = -amplitude * np.cos(X) * np.sin(Y)
    coeffs = np.stack([np.fft.rfftn(u0), np.fft.rfftn(u1)])
    _, _, _, mask, _ = _tables(2, n, params.dealias_kmax)
    coeffs *= mask
    coeffs[:, 0, 0] = 0.0  # the mean is exactly zero; drop FFT cancellation noise
    return CBFState(0.0, coeffs)


def random_divergence_free_state(params: CBFParams, kmax_init: int = 2, amplitude: float = 1.0, seed: int = 0) -> CBFState:
    """Seeded smooth random initial state: band-limited white noise, Leray
    projected, zero-mean, rescaled to || u ||_{L2} = amplitude."""
    if kmax_init < 1 or kmax_init > params.dealias_kmax:
        raise ConfigError(f"kmax_init must lie in [1, {params.dealias_kmax}]")
    rng = np.random.default_rng(seed)
    n, dim = params.resolution, params.dim
    karrs, _, k2safe, _, _ = _tables(dim, n, params.dealias_kmax)
    u = rng.standard_normal((dim,) + (n,) * dim)
    coeffs = np.array([np.fft.rfftn(u[i]) for i in range(dim)])
    band = np.ones(coeffs.shape[1:], dtype=bool)
    for k in karrs:
        band &= np.abs(k) <= kmax_init
    coeffs *= band
    coeffs = _leray_arrays(coeffs, karrs, k2safe)
    coeffs[(slice(None),) + (0,) * dim] = 0.0
    s = CBFState(0.0, coeffs)
    e = state_energy(s, params)
    if e <= 0.0:
        raise ConfigError("degenerate random state")
    s.coeffs *= amplitude / math.sqrt(e)
    return s


def _array_to_field(coeffs: np.ndarray, n: int) -> SpectralField:
    """rfftn coefficient array -> divergence-free SpectralField (orthonormal
    basis amplitudes), reconstructing the conjugate half.

    The source arrays are Leray projections, so any normal component is
    floating-point residue; it is projected out before validation.
    """
    dim = coeffs.shape[0]
    sc = TWO_PI ** (dim / 2.0) / float(n) ** dim
    out = {}
    nz = np.argwhere(np.any(coeffs != 0.0, axis=0))
    for pos in nz:
        idx = ModeIndex(tuple(int(p) if p <= n // 2 else int(p) - n for p in pos[:-1]) + (int(pos[-1]),))
        v = _tangential(idx.k, coeffs[(slice(None),) + tuple(pos)] * sc)
        if any(idx.k) and not np.any(v):
            continue
        out[idx] = v
        if pos[-1] > 0:  # mirror stored implicitly by the rfft layout
            out[idx.mirror()] = np.conj(v)
    return SpectralField(TorusStokes(Torus(dim)), out)


def to_spectral_field(s: CBFState) -> SpectralField:
    return _array_to_field(s.coeffs, s.resolution)


def from_spectral_field(f: SpectralField, params: CBFParams, time: float = 0.0) -> CBFState:
    """Divergence-free SpectralField -> dense state.  The field must be
    conjugate-symmetric (real velocity), zero-mean, and supported inside the
    dealias mask."""
    if not isinstance(f.operator, TorusStokes) or f.dim != params.dim:
        raise ConfigError("expected a divergence-free torus field of matching dimension")
    from .fields import conjugate_symmetry_violation

    viol = conjugate_symmetry_violation(f)
    if viol > 1e-12 * max(1.0, f.l2()):
        raise ConfigError(f"field is not conjugate-symmetric (violation {viol:.3e}); the velocity must be real")
    n, dim = params.resolution, params.dim
    kmax = params.dealias_kmax
    sc = float(n) ** dim / TWO_PI ** (dim / 2.0)
    coeffs = np.zeros((dim,) + (n,) * (dim - 1) + (n // 2 + 1,), dtype=complex)
    for idx, v in f.coefficients.items():
        if all(ki == 0 for ki in idx.k):
            if np.max(np.abs(v)) > 0.0:
                raise ConfigError("state must be zero-mean; drop the k=0 amplitude")
            continue
        if max(abs(ki) for ki in idx.k) > kmax:
            raise AliasingError(f"mode {idx.k} lies outside the dealias mask (kmax={kmax})")
        k = idx.k
        if k[-1] < 0:
            continue  # the rfft layout stores this implicitly as the mirror of -k
        pos = tuple(ki % n for ki in k[:-1]) + (k[-1],)
        coeffs[(slice(None),) + pos] = np.asarray(v) * sc
    return CBFState(time, coeffs)


# ---------------------------------------------------------------------------
# checkpoints


def save_trajectory(traj: Trajectory, directory: str, fmt: str = "npz") -> None:
    """Checkpoint: coefficient dumps plus a manifest (params, times, format).

    fmt="npz" stores one compressed array file; fmt="csv" writes one spectral
    CSV per snapshot (slow, for interop)."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format": fmt,
        "params": traj.params.as_dict(),
        "times": [float(t) for t in traj.times],
        "snapshots": len(traj.states),
    }
    if fmt == "npz":
        arrays = {f"snapshot_{i:06d}": s.coeffs for i, s in enumerate(traj.states)}
        np.savez_compressed(os.path.join(directory, "trajectory.npz"), **arrays)
    elif fmt == "csv":
        from .serialize import spectral_field_to_csv

        for i, s in enumerate(traj.states):
            spectral_field_to_csv(to_spectral_field(s), os.path.join(directory, f"snapshot_{i:06d}.csv"))
    else:
        raise ConfigError(f"unknown checkpoint format {fmt!r}")
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trajectory(directory: str) -> Trajectory:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    params = CBFParams(**manifest["params"])
    times = [float(t) for t in manifest["times"]]
    states = []
    if manifest["format"] == "npz":
        with np.load(os.path.join(directory, "trajectory.npz")) as data:
            for i, t in enumerate(times):
                states.append(CBFState(t, data[f"snapshot_{i:06d}"]))
    elif manifest["format"] == "csv":
        from .serialize import spectral_field_from_csv

        op = TorusStokes(Torus(params.dim))
        for i, t in enumerate(times):
            f = spectral_field_from_csv(os.path.join(directory, f"snapshot_{i:06d}.csv"), op)
            states.append(from_spectral_field(f, params, time=t))
    else:
        raise ConfigError(f"unknown checkpoint format {manifest['format']!r}")
    return Trajectory(params, times, states)
