"""Desk-scale pseudospectral solver for the convective Brinkman-Forchheimer
equations on the 2- or 3-torus, plus the energy-equality ledger and the time
and space mollifiers used to verify it.

    du/dt - mu Lap u + (u.grad)u + grad p + beta |u|^r u = 0,   div u = 0.

The pressure is eliminated by per-mode Leray projection.  States live as
dense rfftn coefficient arrays (component axis first), dealias-masked and
zero-mean; a state with a nonzero coefficient outside the mask is rejected
with an AliasingError naming the first such wavenumber.  The time stepper is
classical RK4 on the integrating-factor transform of the nonlinear part, so
the stiff viscous term is integrated exactly.  For the semi-discrete
(dealias-truncated Galerkin) system the energy identity holds exactly: the
ledger residual measures only the time integrator and the Simpson-in-time
quadrature.

The solver computes on the kept modes only.  With dealias cutoff K the kept
wavenumbers |k_a| <= K form the block (d, 2K+1, ..., 2K+1, K+1), which is
itself the rfftn layout of a (2K+1)-point grid; for N = 32 and the 1/2 rule
it holds 1,800 of the 17,408 slots per component.  `step` gathers it from
the state once, runs the RK4 combinations, integrating factors, projections
and wavenumber products on it, and scatters the result back once (Orszag,
J. Atmos. Sci. 28, 1971; Canuto, Hussaini, Quarteroni & Zang, Spectral
Methods: Fundamentals in Single Domains, 2006, sections 3.2-3.3).  The
transforms between the block and the N-point grid are partial DFTs done as
dense matrix products, one per axis (`_dft_matrices`): only the 2K+1 kept
wavenumbers of a full axis and the K+1 of the halved one are ever computed,
and the zero-padded N-point layout is never built.  No FFT runs in a step.

Known limit: a matrix product costs O(N K) per grid line against the FFT's
O(N log N), so it pays only on small grids.  Measured against the pruned
FFTs it replaced, on one BLAS thread (median step times on a shared 2-core
host): a 3D step takes 0.55-0.8x their time at N = 16 to 64 and a 2D step
0.6-0.85x at N = 64, but a 2D step at N = 128 takes 0.95-1.45x with the 2/3
cutoff, at N = 256 1.3-2x and at N = 512 2.4-3.1x.  Every test, artifact
job and benchmark workload runs at N <= 64.

The convective term is evaluated in divergence form, (u.grad)u_i =
d_j(u_i u_j), from the d(d+1)/2 symmetric products u_i u_j, with the
transforms batched over the component axis (Canuto et al., sections 3.4
and 7.2).  The two forms agree because div u = 0 to roundoff and every
product of resolved modes is exact on the kept modes under the dealias
cutoff.

The ledger's absorption integrand |u|^q, q = r + 2, is quadratured on the
smallest multiple of the solver grid that makes it exact when q is an even
integer (the N-point grid itself for r = 2), and on the doubled grid
otherwise, through the same inverse transform of the kept block.  So the
ledger, like `step`, raises AliasingError for a snapshot with a nonzero
coefficient outside the dealias mask instead of dropping it.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .domains import Torus, TorusStokes
from .errors import AccuracyError, AliasingError, ConfigError
from .fields import GridField, SpectralField, _Packed, _tangential, _with_mirrors, lp_norm, uniform_axes

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
def _wavenumbers(dim: int, n: int) -> tuple:
    """Per-axis wavenumber arrays of the rfftn layout (last axis halved),
    shaped to broadcast against it."""
    karrs = []
    for ax in range(dim):
        if ax < dim - 1:
            k = np.arange(n, dtype=float)
            k[(n + 1) // 2 :] -= n
        else:
            k = np.arange(n // 2 + 1, dtype=float)
        shape = [1] * dim
        shape[ax] = k.size
        karrs.append(k.reshape(shape))
    return tuple(karrs)


@functools.lru_cache(maxsize=32)
def _tables(dim: int, n: int, kmax: int):
    """Wavenumber arrays, |k|^2, the dealias mask, and Parseval weights for
    the rfftn layout (last axis halved) of an n-point grid.  The kept block
    of cutoff K is the layout of n = 2K+1 points; its tables are
    `_tables(dim, 2 * K + 1, K)`."""
    spec_shape = (n,) * (dim - 1) + (n // 2 + 1,)
    karrs = _wavenumbers(dim, n)
    k2 = np.zeros(spec_shape)
    for k in karrs:
        k2 = k2 + k * k
    mask = np.ones(spec_shape, dtype=bool)
    for k in karrs:
        mask &= np.abs(k) <= kmax
    klast = karrs[-1]
    pw = np.where((klast > 0) & (2 * klast != n), 2.0, 1.0)  # an odd n has no Nyquist slot
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
    div = np.zeros(s.coeffs.shape[1:], dtype=complex)
    for i, k in enumerate(_wavenumbers(s.dim, s.resolution)):
        div += 1j * k * s.coeffs[i]
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


def _low_modes(a: np.ndarray, n: int, m: int) -> np.ndarray:
    """The coefficients of `a` with |k_a| <= m on every axis, in the rfftn
    layout of an n-point grid (component axis first), zero elsewhere.

    A full axis of an rfftn layout holds k >= 0 at its start and k < 0 at
    its end; the halved last axis holds k >= 0 only.  The kept block of
    cutoff K is the layout of 2K+1 points, so gathering it from a state
    (n = 2K+1, m = K) and scattering it back (m = K) are both this one copy.
    The transforms never see the N-point layout: `_block_to_grid` and
    `_grid_to_block` map the block straight to the grid and back.
    """
    out = np.zeros(a.shape[:1] + (n,) * (a.ndim - 2) + (n // 2 + 1,), dtype=complex)
    low = slice(0, m + 1)
    pairs = [((slice(None),), (slice(None),))]
    for ax in range(1, a.ndim - 1):
        neg_a, neg_out = slice(a.shape[ax] - m, None), slice(n - m, None)
        pairs = [(x + (low,), y + (low,)) for x, y in pairs] + [(x + (neg_a,), y + (neg_out,)) for x, y in pairs]
    for x, y in pairs:
        out[y + (low,)] = a[x + (low,)]
    return out


@functools.lru_cache(maxsize=32)
def _dft_matrices(n: int, kmax: int) -> tuple:
    """The partial DFTs between the n-point grid and the kept block of
    cutoff kmax, as matrices (E, D, G, F):

    - E (n x 2K+1, complex) and D (2K+1 x n, complex): inverse (with 1/n)
      and forward DFT of a full axis, block order 0..K, -K..-1;
    - G (2K+2 x n, real) and F (n x 2K+2, real): inverse (weights 1, 2, 2,
      ..., and 1/n) and forward DFT of the halved last axis, 0..K, acting on
      the interleaved (re, im) pairs of a complex array's float view.

    Every phase is 2 pi ((j k) mod n) / n from the exact integer product, so
    the entries stay at roundoff for large j k.  G drops the imaginary part
    of k = 0 as `irfft` does; with 2K+1 <= n there is no Nyquist entry.
    """
    j = np.arange(n)
    full = np.r_[0 : kmax + 1, -kmax:0]
    phase = (TWO_PI / n) * ((j[:, None] * full) % n)
    inv = np.exp(1j * phase)
    half = (TWO_PI / n) * ((np.arange(kmax + 1)[:, None] * j) % n)
    cos, sin = np.cos(half), np.sin(half)
    weight = np.where(np.arange(kmax + 1) == 0, 1.0, 2.0)[:, None] / n
    g = np.empty((2 * kmax + 2, n))
    g[0::2], g[1::2] = weight * cos, -weight * sin
    f = np.empty((n, 2 * kmax + 2))
    f[:, 0::2], f[:, 1::2] = cos.T, -sin.T
    mats = (inv / n, inv.T.conj(), g, f)
    for m in mats:
        m.setflags(write=False)  # cached: every caller shares these arrays
    return mats


def _axis_product(a: np.ndarray, x: np.ndarray, ax: int) -> np.ndarray:
    """The matrix a applied along axis ax of x: one product a @ (x_ax, rest)
    per index of the axes before ax."""
    out = a @ x.reshape(x.shape[: ax + 1] + (-1,))
    return out.reshape(x.shape[:ax] + (a.shape[0],) + x.shape[ax + 1 :])


def _block_to_grid(c: np.ndarray, n: int) -> np.ndarray:
    """Real values on the n-point grid of the kept block c (component axis
    first, cutoff K = c.shape[-1] - 1): `irfftn` of c zero-padded into the
    n-point layout, computed as partial DFTs without that layout.

    Each full axis, innermost first, is a product with E; the halved last
    axis is then one real product of the interleaved (re, im) view with G
    (`_dft_matrices`).  A line costs O(n K), not the FFT's O(n log n); see
    the module docstring for where that stops paying.  The two agree to
    about 1e-15 relative for n from 8 to 128.
    """
    e, _, g, _ = _dft_matrices(n, c.shape[-1] - 1)
    x = c
    for ax in range(c.ndim - 2, 0, -1):
        x = _axis_product(e, x, ax)
    return x.view(float) @ g


def _grid_to_block(u: np.ndarray, kmax: int) -> np.ndarray:
    """The kept block of cutoff kmax of `rfftn(u)` over every axis but the
    first (the component axis), as partial DFTs: one real product of the
    last axis with F, read as complex (re, im) pairs, then a product with D
    on each full axis in turn (`_dft_matrices`).  Only the wavenumbers of
    the block are ever computed; it agrees with `rfftn` to roundoff.
    """
    _, d, _, f = _dft_matrices(u.shape[-1], kmax)
    x = (u @ f).view(complex)
    for ax in range(1, u.ndim - 1):
        x = _axis_product(d, x, ax)
    return x


def _nonlinear(c: np.ndarray, params: CBFParams) -> np.ndarray:
    """-P[ (u.grad)u + beta |u|^r u ] on the kept block c, with the k=0 entry
    forced to zero (mean momentum untouched).

    One batched inverse transform of the block (`_block_to_grid`, a product
    per axis) gives u on the N-point grid.  The convective term is taken in
    divergence form, component i being sum_j i k_j DFT(u_i u_j), so only the
    d(d+1)/2 symmetric products are transformed: one batched forward
    transform (`_grid_to_block`) per product row u_i u[i:], accumulated into
    both components it feeds at once, and one for beta |u|^r u.  Each
    computes only the wavenumbers of the block.  This equals the advective
    form u_j d_j u_i on every kept mode: div u = 0 to roundoff, and the
    products of modes under the dealias cutoff alias only onto modes outside
    the block.
    """
    dim = c.shape[0]
    n, kmax = params.resolution, params.dealias_kmax
    nb = 2 * kmax + 1  # the kept block is the rfftn layout of nb points
    karrs, _, k2safe, _, _ = _tables(dim, nb, kmax)
    u = _block_to_grid(c, n)
    prod = np.empty_like(u)  # one buffer for every real-space product
    w2 = np.zeros(u.shape[1:])  # |u|^2, summed from the diagonal products
    ik = [1j * k for k in karrs]
    neg = np.zeros_like(c)  # minus the convective and absorption terms
    for i in range(dim):
        row = np.multiply(u[i], u[i:], out=prod[: dim - i])
        w2 += row[0]
        row = _grid_to_block(row, kmax)  # DFT(u_i u_j), j >= i
        for j in range(i, dim):
            neg[i] -= ik[j] * row[j - i]
            if j != i:
                neg[j] -= ik[i] * row[j - i]
    if params.beta != 0.0:
        u *= w2 if params.r == 2.0 else w2 ** (params.r / 2.0)  # exact under the 1/2 cutoff for r = 2
        neg -= params.beta * _grid_to_block(u, kmax)
    out = _leray_arrays(neg, karrs, k2safe)
    out[(slice(None),) + (0,) * dim] = 0.0
    return out


def cbf_rhs(s: CBFState, params: CBFParams) -> SpectralField:
    """Full right-hand side -mu lambda_k u_hat - P[(u.grad)u + beta|u|^r u]
    as a divergence-free spectral field."""
    _check_state(s, params)
    kmax = params.dealias_kmax
    nb = 2 * kmax + 1
    _, k2, _, _, _ = _tables(s.dim, nb, kmax)
    c = _low_modes(s.coeffs, nb, kmax)
    rhs = -params.mu * k2 * c + _nonlinear(c, params)
    return _array_to_field(_low_modes(rhs, s.resolution, kmax), s.resolution)


def _check_state(s: CBFState, params: CBFParams):
    if s.dim != params.dim or s.resolution != params.resolution:
        raise ConfigError(
            f"state shape (d={s.dim}, N={s.resolution}) does not match params "
            f"(d={params.dim}, N={params.resolution})"
        )
    n, kmax = s.resolution, params.dealias_kmax
    outside = np.any(s.coeffs != 0.0, axis=0) & ~_tables(s.dim, n, kmax)[3]
    if outside.any():
        pos = np.argwhere(outside)[0]
        k = np.where(pos <= n // 2, pos, pos - n)
        raise AliasingError(f"mode {tuple(k.tolist())} lies outside the dealias mask (kmax={kmax})")


def step(s: CBFState, params: CBFParams) -> CBFState:
    """One RK4 step with exact integrating factor for the viscous term.

    The step gathers the kept block of the state once, computes every stage
    on it (the transforms are matrix products between the block and the
    grid) and scatters the result back once; a state with a nonzero
    coefficient outside the dealias mask raises AliasingError instead of
    losing it.  The step preserves the divergence-free constraint and
    conjugate symmetry exactly (the coefficients never leave the rfft layout
    and every multiplier is real).
    Raises AccuracyError if the velocity norm grows more than 10x in a
    single step.
    """
    _check_state(s, params)
    kmax = params.dealias_kmax
    nb = 2 * kmax + 1
    karrs, k2, k2safe, _, _ = _tables(s.dim, nb, kmax)
    dt = params.dt
    e1 = np.exp(-params.mu * k2 * (dt / 2.0))
    e2 = e1 * e1
    c = _low_modes(s.coeffs, nb, kmax)
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
    return CBFState(s.time + dt, _low_modes(new, s.resolution, kmax))


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


def _padded_velocity_grid(s: CBFState, pad: int, kmax: int) -> GridField:
    """Real-space velocity on a pad-times-finer grid, from the kept block of
    cutoff kmax (the state must have no coefficient outside it)."""
    n = s.resolution
    dim = s.dim
    np_ = pad * n
    vals = _block_to_grid(_low_modes(s.coeffs, 2 * kmax + 1, kmax), np_)
    vals *= (np_ / n) ** dim
    torus = Torus(dim)
    axes = uniform_axes(torus, np_)
    return GridField(torus, axes, np.moveaxis(vals, 0, -1))


def _absorption_pad(params: CBFParams) -> int:
    """Grid refinement of the ledger's |u|^q quadrature, q = r + 2.  For an
    even integer q, |u|^q is a trigonometric polynomial of degree q kmax per
    axis, integrated exactly by the M-point rule when q kmax < M: take the
    smallest such multiple of the solver grid.  Any other q gets the doubled
    grid."""
    q = params.r + 2.0
    if q % 2.0 == 0.0:
        return int(q) * params.dealias_kmax // params.resolution + 1
    return 2


def energy_ledger(traj: Trajectory, t0: float, t1: float, params: CBFParams = None) -> EnergyLedger:
    """Assemble the identity terms over [t0, t1] (snapshot times): the
    one-window case of `energy_ledgers`."""
    return energy_ledgers(traj, (t0, t1), params)[0]


def energy_ledgers(traj: Trajectory, edges, params: CBFParams = None) -> list:
    """One EnergyLedger per window [edges[i], edges[i+1]] (snapshot times).

    Kinetic and dissipation terms come from Parseval; the absorption integrand
    || u ||_{L^{r+2}}^{r+2} is quadratured on the grid `_absorption_pad`
    picks (the solver's own for r = 2, exact there; doubled for a q = r + 2
    that is not an even integer); time integrals use Simpson over the stored
    snapshots.  Each snapshot's integrands are computed once, so adjacent
    windows share their boundary snapshot's values, and every window's terms
    are those of its own `energy_ledger`.  Every snapshot in the windows is
    checked as `step` checks its input: one with a nonzero coefficient outside
    the dealias mask raises AliasingError naming the mode, since the
    quadrature reads the kept block only.
    """
    p = params if params is not None else traj.params
    if len(edges) < 2:
        raise ConfigError(f"need at least two window edges, got {len(edges)}")
    times = np.asarray(traj.times)
    tol = 1e-9 * max(1.0, float(times[-1]))
    windows = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        if not t0 < t1:
            raise ConfigError(f"need t0 < t1, got ({t0}, {t1})")
        i0 = int(np.argmin(np.abs(times - t0)))
        i1 = int(np.argmin(np.abs(times - t1)))
        if abs(times[i0] - t0) > tol or abs(times[i1] - t1) > tol:
            raise ConfigError(f"t0/t1 must coincide with snapshot times; nearest are {times[i0]}, {times[i1]}")
        if i1 - i0 + 1 < 3:
            raise ConfigError("need at least 3 snapshots between t0 and t1 for Simpson")
        windows.append((i0, i1))
    first, last = windows[0][0], windows[-1][1]
    states = traj.states[first : last + 1]
    for s in states:
        _check_state(s, p)
    diss_vals = np.array([state_enstrophy(s, p) for s in states])
    if p.beta != 0.0:
        q = p.r + 2.0
        pad = _absorption_pad(p)
        abs_vals = np.array([lp_norm(_padded_velocity_grid(s, pad, p.dealias_kmax), q) ** q for s in states])
    kinetic = [state_energy(traj.states[i], p) for i in [i0 for i0, _ in windows] + [last]]
    out = []
    for w, (i0, i1) in enumerate(windows):
        sub_t, sub = times[i0 : i1 + 1], slice(i0 - first, i1 - first + 1)
        dissipation = 2.0 * p.mu * float(simpson(diss_vals[sub], x=sub_t))
        absorption = 0.0 if p.beta == 0.0 else 2.0 * p.beta * float(simpson(abs_vals[sub], x=sub_t))
        out.append(EnergyLedger(float(sub_t[0]), float(sub_t[-1]), kinetic[w], kinetic[w + 1], dissipation, absorption))
    return out


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
    kmax = params.dealias_kmax
    coeffs = _low_modes(_grid_to_block(np.stack([u0, u1]), kmax), n, kmax)
    coeffs[:, 0, 0] = 0.0  # the mean is exactly zero; drop the transform's cancellation noise
    return CBFState(0.0, coeffs)


def random_divergence_free_state(params: CBFParams, kmax_init: int = 2, amplitude: float = 1.0, seed: int = 0) -> CBFState:
    """Seeded smooth random initial state: band-limited white noise, Leray
    projected, zero-mean, rescaled to || u ||_{L2} = amplitude."""
    if kmax_init < 1 or kmax_init > params.dealias_kmax:
        raise ConfigError(f"kmax_init must lie in [1, {params.dealias_kmax}]")
    rng = np.random.default_rng(seed)
    n, dim, kmax = params.resolution, params.dim, params.dealias_kmax
    nb = 2 * kmax + 1
    karrs, _, k2safe, _, _ = _tables(dim, nb, kmax)
    u = rng.standard_normal((dim,) + (n,) * dim)
    # numpy's rfftn, not `_grid_to_block`: the two differ at roundoff, and
    # that moves the `cbf` CLI's ledger residuals (differences of O(1)
    # kinetic terms) far beyond their artifact comparison bound
    c = _low_modes(np.array([np.fft.rfftn(u[i]) for i in range(dim)]), nb, kmax)
    band = np.ones(c.shape[1:], dtype=bool)
    for k in karrs:
        band &= np.abs(k) <= kmax_init
    c *= band
    c = _leray_arrays(c, karrs, k2safe)
    c[(slice(None),) + (0,) * dim] = 0.0
    s = CBFState(0.0, _low_modes(c, n, kmax))
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
    pos = np.argwhere(np.any(coeffs != 0.0, axis=0))
    k = pos.copy()
    k[:, :-1] = np.where(pos[:, :-1] <= n // 2, pos[:, :-1], pos[:, :-1] - n)
    v = _tangential(k, np.moveaxis(coeffs, 0, -1)[tuple(pos.T)] * sc)
    keep = ~np.any(k, axis=1) | np.any(v != 0.0, axis=1)
    # the rfft layout stores the mirror of a row with last index > 0 implicitly
    rows = _Packed(k[keep], np.zeros(np.count_nonzero(keep), dtype=np.int64), v[keep])
    return SpectralField(TorusStokes(Torus(dim)), _with_mirrors(rows, pos[keep, -1] > 0))


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
    mean = ~np.any(f.k, axis=1)
    bad = (mean & np.any(f.values != 0.0, axis=1)) | (np.max(np.abs(f.k), axis=1, initial=0) > kmax)
    if np.any(bad):
        i = int(np.argmax(bad))
        if mean[i]:
            raise ConfigError("state must be zero-mean; drop the k=0 amplitude")
        raise AliasingError(f"mode {tuple(f.k[i].tolist())} lies outside the dealias mask (kmax={kmax})")
    # rows with last index < 0 are stored implicitly as the mirrors of -k
    stored = ~mean & (f.k[:, -1] >= 0)
    coeffs[(slice(None),) + tuple((f.k[stored] % n).T)] = (f.values[stored] * sc).T
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
