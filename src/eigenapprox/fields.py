"""Spectral and grid representations of fields, and the maps between them.

A SpectralField is a finite coefficient map over eigenfunctions of one of the
closed-form operators; a GridField is a tensor-product sampling.  synthesize
and analyze convert between the two, with a Nyquist guard on the way out and
an orthonormality self-check on the way back in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .domains import (
    Box,
    DirichletLaplacian,
    DomainSpec,
    EigenPair,
    Interval,
    ModeIndex,
    OperatorSpec,
    Torus,
    TorusLaplacian,
    TorusStokes,
    mode_evaluator,
    polarization_basis,
    sinpi,
)
from .errors import AliasingError, AccuracyError, ConfigError

TWO_PI = 2.0 * math.pi


def _as_mode_index(key, dim: int) -> ModeIndex:
    idx = key if isinstance(key, ModeIndex) else ModeIndex(key)
    if idx.dim != dim:
        raise ConfigError(f"mode index {idx.k} has dimension {idx.dim}, operator has {dim}")
    return idx


def _tangential(k: tuple, v) -> np.ndarray:
    """v - k (k.v)/|k|^2: the part of v orthogonal to k; v itself at k = 0."""
    vv = np.asarray(v, dtype=complex)
    kv = np.asarray(k, dtype=float)
    k2 = float(kv @ kv)
    if k2 == 0.0:
        return vv
    return vv - kv * (complex(kv @ vv) / k2)


def _add_polarized(vecs: dict, idx: ModeIndex, c) -> None:
    """vecs[k] += c e_m(k): sum a Stokes (k, m) amplitude into the vector
    amplitude at k."""
    e = polarization_basis(idx.k)[idx.polarization - 1]
    key = ModeIndex(idx.k)
    vecs[key] = vecs.get(key, np.zeros(len(idx.k), dtype=complex)) + c * e


def _finite(arr) -> bool:
    if np.iscomplexobj(arr):
        return bool(np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag)))
    return bool(np.all(np.isfinite(arr)))


@dataclass(frozen=True)
class SpectralField:
    """Finite coefficient map over the eigenfunctions of `operator`.

    Values are complex scalars, or length-d complex vectors for vector-valued
    fields (TorusStokes always; TorusLaplacian optionally, acting
    componentwise).  Keys may be given as plain tuples and are normalized to
    ModeIndex.  Stokes amplitudes must be orthogonal to k; a Stokes field may
    carry a k=0 amplitude, which is the mean of the velocity and sits outside
    the operator's (positive) spectrum.
    """

    operator: OperatorSpec
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.operator.dim
        norm = {}
        for key, val in self.coefficients.items():
            idx = _as_mode_index(key, d)
            self.operator.validate_index(idx)
            arr = np.asarray(val)
            if arr.ndim == 0:
                if isinstance(self.operator, TorusStokes):
                    raise ConfigError("Stokes coefficients must be length-d vectors")
                v = complex(arr)
                if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                    raise ConfigError(f"non-finite coefficient at {idx.k}")
            else:
                v = np.asarray(arr, dtype=complex).reshape(-1)
                if v.size != d:
                    raise ConfigError(f"vector amplitude at {idx.k} has length {v.size}, expected {d}")
                if not _finite(v):
                    raise ConfigError(f"non-finite coefficient at {idx.k}")
            norm[idx] = v
        if isinstance(self.operator, TorusStokes):
            for idx, v in norm.items():
                kv = np.asarray(idx.k, dtype=float)
                resid = abs(complex(kv @ v))
                bound = float(np.linalg.norm(kv)) * max(float(np.linalg.norm(v)), 1e-300)
                if resid > 1e-9 * bound:
                    raise ConfigError(
                        f"Stokes amplitude at k={idx.k} is not orthogonal to k (residual {resid:.3e})"
                    )
        object.__setattr__(self, "coefficients", norm)

    # -- introspection -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def is_vector(self) -> bool:
        if isinstance(self.operator, TorusStokes):
            return True
        return any(isinstance(v, np.ndarray) for v in self.coefficients.values())

    def items_sorted(self):
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].sort_key())

    def eigenvalue(self, idx: ModeIndex) -> float:
        return self.operator.eigenvalue(idx)

    def eigen_arrays(self, positive_only: bool = False):
        """(eigenvalues, |coefficient|^2) flat arrays; positive_only drops lambda = 0."""
        lams, amps = [], []
        for idx, v in self.coefficients.items():
            lam = self.operator.eigenvalue(idx)
            if positive_only and lam <= 0.0:
                continue
            a = float(np.sum(np.abs(v) ** 2)) if isinstance(v, np.ndarray) else abs(v) ** 2
            lams.append(lam)
            amps.append(a)
        return np.asarray(lams, dtype=float), np.asarray(amps, dtype=float)

    def l2(self) -> float:
        """Coefficient-space l2 norm, zero mode included."""
        _, amps = self.eigen_arrays(positive_only=False)
        return math.sqrt(float(np.sum(amps))) if amps.size else 0.0

    def max_axis_index(self) -> int:
        m = 0
        for idx in self.coefficients:
            m = max(m, max(abs(ki) for ki in idx.k))
        return m

    def lambda_max(self) -> float:
        lams, _ = self.eigen_arrays()
        return float(lams.max()) if lams.size else 0.0


def add(f: SpectralField, g: SpectralField) -> SpectralField:
    if f.operator != g.operator:
        raise ConfigError("field arithmetic requires matching operators")
    out = dict(f.coefficients)
    for idx, v in g.coefficients.items():
        out[idx] = out[idx] + v if idx in out else v
    if isinstance(f.operator, TorusStokes):
        # a sum of tangential amplitudes is tangential; strip the roundoff
        # normal component so near-cancelling sums stay valid fields
        out = {idx: _tangential(idx.k, v) for idx, v in out.items()}
    return SpectralField(f.operator, out)


def scale(f: SpectralField, c) -> SpectralField:
    return SpectralField(f.operator, {idx: c * v for idx, v in f.coefficients.items()})


def subtract(f: SpectralField, g: SpectralField) -> SpectralField:
    return add(f, scale(g, -1.0))


def conjugate_symmetry_violation(f: SpectralField) -> float:
    """max |c(-k) - conj(c(k))|; zero exactly when the field is real-valued."""
    if not isinstance(f.operator, (TorusLaplacian, TorusStokes)):
        raise ConfigError("conjugate symmetry only applies to torus fields")
    worst = 0.0
    for idx, v in f.coefficients.items():
        w = f.coefficients.get(idx.mirror())
        if w is None:
            w = np.zeros_like(np.asarray(v))
        diff = np.max(np.abs(np.conj(np.asarray(v)) - np.asarray(w)))
        worst = max(worst, float(diff))
    return worst


def divergence_residual(f: SpectralField) -> float:
    """max_k |k . c(k)| for a vector torus field (0 iff divergence-free)."""
    if not f.is_vector:
        raise ConfigError("divergence residual needs a vector field")
    worst = 0.0
    for idx, v in f.coefficients.items():
        kv = np.asarray(idx.k, dtype=float)
        worst = max(worst, abs(complex(kv @ np.asarray(v))))
    return worst


def evaluate(f: SpectralField, points) -> np.ndarray:
    """Pointwise evaluation sum_j c_j w_j(x); O(modes x points)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if f.dim == 1 else pts.reshape(1, -1)
    n = pts.shape[0]
    if f.is_vector:
        sc = TWO_PI ** (-f.dim / 2.0)
        out = np.zeros((n, f.dim), dtype=complex)
        for idx, v in f.coefficients.items():
            phase = sc * np.exp(1j * (pts @ np.asarray(idx.k, dtype=float)))
            out += phase[:, None] * np.asarray(v)[None, :]
        return out
    out = np.zeros(n, dtype=complex)
    for idx, v in f.coefficients.items():
        out = out + v * mode_evaluator(f.operator, idx)(pts)
    if isinstance(f.operator, DirichletLaplacian) and np.max(np.abs(out.imag), initial=0.0) == 0.0:
        return out.real
    return out


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridField:
    """Tensor-product samples: axes[i] holds the i-th axis coordinates;
    values has shape grid_shape, plus a trailing (d,) for vector fields."""

    domain: DomainSpec
    axes: tuple
    values: np.ndarray

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if len(axes) != self.domain.dim:
            raise ConfigError(f"expected {self.domain.dim} axes, got {len(axes)}")
        for a in axes:
            if a.ndim != 1 or a.size < 2:
                raise ConfigError("every axis needs at least 2 sample points")
        vals = np.asarray(self.values)
        shape = tuple(a.size for a in axes)
        if vals.shape not in (shape, shape + (self.domain.dim,)):
            raise ConfigError(f"values shape {vals.shape} does not match grid {shape}")
        if not _finite(vals):
            raise ConfigError("grid values must be finite")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", vals)

    @property
    def grid_shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == len(self.axes) + 1

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _normalize_resolution(resolution, dim: int) -> tuple:
    if isinstance(resolution, (int, np.integer)):
        res = (int(resolution),) * dim
    else:
        res = tuple(int(r) for r in resolution)
        if len(res) != dim:
            raise ConfigError(f"need {dim} per-axis resolutions, got {len(res)}")
    if any(r < 2 for r in res):
        raise ConfigError(f"resolutions must be >= 2, got {res}")
    return res


def uniform_axes(domain: DomainSpec, resolution) -> tuple:
    """Canonical uniform axes.  Torus: n points with the endpoint omitted;
    interval/box: n subintervals (n even), endpoints included (Simpson-ready)."""
    res = _normalize_resolution(resolution, domain.dim)
    axes = []
    for L, n in zip(domain.lengths, res):
        if domain.periodic:
            axes.append(np.arange(n) * (L / n))
        else:
            if n % 2 != 0:
                raise ConfigError(f"interval/box axes need an even subinterval count, got {n}")
            axes.append(np.linspace(0.0, L, n + 1))
    return tuple(axes)


def default_grid_resolution(f: SpectralField, factor: int = 4, floor: int = 8) -> int:
    """Oversampled default: `factor` times the maximal per-axis mode index."""
    return max(floor, factor * max(f.max_axis_index(), 1))


def _mode_on_grid(operator: OperatorSpec, k: tuple, axes) -> np.ndarray:
    """One scalar eigenfunction sampled on the tensor-product grid `axes`."""
    if isinstance(operator, DirichletLaplacian):
        parts = [math.sqrt(2.0 / L) * sinpi(ki * a / L) for ki, L, a in zip(k, operator.domain.lengths, axes)]
    else:
        parts = [np.exp(1j * ki * a) for ki, a in zip(k, axes)]
        parts[0] = TWO_PI ** (-len(k) / 2.0) * parts[0]
    w = parts[0]
    for p in parts[1:]:
        w = np.multiply.outer(w, p)
    return w


def _axis_quadrature(domain: DomainSpec, a: np.ndarray, L: float) -> np.ndarray:
    n = a.size
    if domain.periodic:
        h = L / n
        if not np.allclose(np.diff(a), h, rtol=0, atol=1e-12 * L):
            raise ConfigError("torus quadrature requires the canonical uniform grid")
        return np.full(n, h)
    m = n - 1
    if m < 2 or m % 2 != 0:
        raise ConfigError("Simpson quadrature needs an even number of subintervals >= 2")
    h = L / m
    ok = np.allclose(np.diff(a), h, rtol=0, atol=1e-12 * L) and abs(a[0]) <= 1e-12 * L and abs(a[-1] - L) <= 1e-12 * L
    if not ok:
        raise ConfigError("interval quadrature requires uniform samples spanning [0, L]")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def quadrature_weights(g: GridField) -> np.ndarray:
    """Tensor-product quadrature weights matching g's axes (shape grid_shape)."""
    parts = [_axis_quadrature(g.domain, a, L) for a, L in zip(g.axes, g.domain.lengths)]
    w = parts[0]
    for p in parts[1:]:
        w = np.multiply.outer(w, p)
    return w


# ---------------------------------------------------------------------------
# synthesize / analyze


def synthesize(f: SpectralField, resolution=None) -> GridField:
    """Sample the field on the canonical uniform grid.

    Raises AliasingError unless every axis satisfies the Nyquist rule
    (>= 2*k_max + 1 points).  An empty coefficient map gives the zero field;
    `resolution=None` uses the oversampled default.
    """
    domain = f.operator.domain
    if resolution is None:
        resolution = default_grid_resolution(f)
    res = _normalize_resolution(resolution, domain.dim)
    kmax = f.max_axis_index()
    for r in res:
        points = r if domain.periodic else r + 1
        if points < 2 * kmax + 1:
            raise AliasingError(
                f"{points} points per axis cannot represent modes up to k={kmax} (need >= {2 * kmax + 1})"
            )
    axes = uniform_axes(domain, res)
    shape = tuple(a.size for a in axes)

    if isinstance(f.operator, (TorusLaplacian, TorusStokes)):
        return _synthesize_torus_fft(f, axes, shape)

    vector = f.is_vector
    d = domain.dim
    out = np.zeros(shape + ((d,) if vector else ()), dtype=complex)
    for idx, v in f.coefficients.items():
        w = _mode_on_grid(f.operator, idx.k, axes)
        if vector:
            out += w[..., None] * np.asarray(v)[None, :]
        else:
            out += v * w
    if np.max(np.abs(out.imag), initial=0.0) == 0.0:
        out = out.real
    return GridField(domain, axes, out)


def _synthesize_torus_fft(f: SpectralField, axes, shape) -> GridField:
    d = f.dim
    sc = TWO_PI ** (-d / 2.0) * float(np.prod(shape))
    is_vec = f.is_vector  # hoisted: the property scans all coefficients
    comps = d if is_vec else 1
    spec = np.zeros((comps,) + shape, dtype=complex)
    for idx, v in f.coefficients.items():
        pos = tuple(ki % ni for ki, ni in zip(idx.k, shape))
        if is_vec:
            spec[(slice(None),) + pos] += np.asarray(v)
        else:
            spec[(0,) + pos] += v
    vals = np.stack([np.fft.ifftn(spec[c] * sc) for c in range(comps)], axis=-1)
    if not is_vec:
        vals = vals[..., 0]
    if conjugate_symmetry_violation(f) == 0.0:
        # an exactly symmetric spectrum is a real field; drop the FFT roundoff
        vals = vals.real
    return GridField(f.operator.domain, axes, vals)


def analyze(g: GridField, modes, operator: OperatorSpec, check: bool = True, tol: float = 1e-8) -> SpectralField:
    """Quadrature inner products of g against the given modes (ModeIndex or
    EigenPair); each eigenfunction is evaluated with `mode_evaluator`.

    With check=True the Gram matrix of the modes on g's grid is verified
    against the identity to `tol`; the first offending pair is named in the
    AccuracyError.  Stokes (k, m) projections are reassembled into vector
    amplitudes.
    """
    if operator.domain != g.domain:
        raise ConfigError("grid domain does not match operator domain")
    pts = g.points()
    w = quadrature_weights(g).reshape(-1)
    modes = [m.index if isinstance(m, EigenPair) else m for m in modes]
    mode_vals = [mode_evaluator(operator, idx)(pts) for idx in modes]

    if check:
        for i, vi in enumerate(mode_vals):
            for j in range(i, len(mode_vals)):
                vj = mode_vals[j]
                if vi.ndim == 2:
                    gram = complex(np.sum(w[:, None] * np.conj(vj) * vi))
                else:
                    gram = complex(np.sum(w * np.conj(vj) * vi))
                target = 1.0 if i == j else 0.0
                if abs(gram - target) > tol:
                    a, b = modes[i], modes[j]
                    raise AccuracyError(
                        f"mode Gram check failed for pair (k={a.k}, m={a.polarization}) / "
                        f"(k={b.k}, m={b.polarization}): <wi, wj> = {gram:.3e} vs {target}; refine the grid"
                    )

    gv = g.values.reshape(-1, g.values.shape[-1]) if g.is_vector else g.values.reshape(-1)
    raw = {}
    for idx, mv in zip(modes, mode_vals):
        if mv.ndim == 2:
            if not g.is_vector:
                raise ConfigError("vector modes require a vector-valued grid field")
            c = complex(np.sum(w[:, None] * np.conj(mv) * gv))
        else:
            if g.is_vector:
                raise ConfigError("scalar modes require a scalar grid field")
            c = complex(np.sum(w * np.conj(mv) * gv))
        raw[idx] = c

    if isinstance(operator, TorusStokes):
        vecs = {}
        for idx, c in raw.items():
            _add_polarized(vecs, idx, c)
        return SpectralField(operator, vecs)
    return SpectralField(operator, raw)


# ---------------------------------------------------------------------------
# norms and projections


def lp_norm(g: GridField, p) -> float:
    """L^p norm over the domain; vector values use the pointwise Euclidean
    magnitude; p = inf is the max over samples."""
    mag = np.abs(g.values)
    if g.is_vector:
        mag = np.sqrt(np.sum(mag * mag, axis=-1))
    if p == math.inf:
        return float(mag.max())
    p = float(p)
    if not (p >= 1.0 and math.isfinite(p)):
        raise ConfigError(f"p must be >= 1 or inf, got {p}")
    w = quadrature_weights(g)
    return float(np.sum(w * mag**p) ** (1.0 / p))


def leray_project(f: SpectralField) -> SpectralField:
    """Per-mode v -> v - k (k.v)/|k|^2, returned as a TorusStokes field.

    The k=0 amplitude (the mean) is in the kernel of the gradient part and is
    carried through untouched.
    """
    if not isinstance(f.operator, TorusLaplacian):
        raise ConfigError("leray_project expects a vector field over the torus Laplacian")
    if not f.is_vector:
        raise ConfigError("leray_project expects vector amplitudes")
    if f.dim < 2:
        raise ConfigError("leray_project requires dimension >= 2")
    out = {}
    for idx, v in f.coefficients.items():
        proj = _tangential(idx.k, v)
        if not any(idx.k) or np.any(proj):
            out[ModeIndex(idx.k)] = proj
    return SpectralField(TorusStokes(f.operator.domain), out)


def stokes_to_polarization(f: SpectralField) -> dict:
    """Decompose Stokes vector amplitudes into (k, m) scalar coefficients.

    Only defined on the zero-mean part; a carried k=0 amplitude is rejected
    because it has no tangential decomposition.
    """
    if not isinstance(f.operator, TorusStokes):
        raise ConfigError("expected a Stokes field")
    out = {}
    for idx, v in f.coefficients.items():
        if all(ki == 0 for ki in idx.k):
            raise ConfigError("polarization decomposition undefined for the carried k=0 mean")
        basis = polarization_basis(idx.k)
        for m in range(basis.shape[0]):
            out[ModeIndex(idx.k, m + 1)] = complex(basis[m] @ np.asarray(v))
    return out


def polarization_to_stokes(operator: TorusStokes, coeffs: dict) -> SpectralField:
    """Inverse of stokes_to_polarization: sum c_{k,m} e_m(k) per k."""
    vecs = {}
    for key, c in coeffs.items():
        _add_polarized(vecs, key if isinstance(key, ModeIndex) else ModeIndex(key[0], key[1]), c)
    return SpectralField(operator, vecs)


# ---------------------------------------------------------------------------
# random field factories (shared by tests, demos, experiments)


@functools.lru_cache(maxsize=32)
def enumerate_modes_cached(operator: OperatorSpec, lambda_max: float):
    """enumerate_modes, memoized per (operator, lambda_max); the returned list
    is shared, so callers must not mutate it."""
    from .domains import enumerate_modes

    return enumerate_modes(operator, lambda_max)


def random_field(
    operator: OperatorSpec,
    lambda_max: float,
    rng: np.random.Generator,
    n_modes=None,
    decay: float = 0.0,
    real: bool = True,
    include_mean: bool = False,
) -> SpectralField:
    """Random field supported on modes with eigenvalue <= lambda_max.

    Coefficients are complex Gaussians damped by (1 + lambda)^(-decay).  Torus
    fields are conjugate-symmetric (real-valued) when real=True; the k=0 mode
    is only populated when include_mean=True.
    """
    pairs = enumerate_modes_cached(operator, lambda_max)
    if isinstance(operator, (TorusLaplacian, TorusStokes)):
        pairs = [p for p in pairs if any(ki != 0 for ki in p.index.k)]
        if real:
            pairs = [p for p in pairs if p.index.is_representative()]
    if n_modes is not None and n_modes < len(pairs):
        sel = rng.choice(len(pairs), size=n_modes, replace=False)
        pairs = [pairs[i] for i in sorted(sel)]

    coeffs = {}
    for p in pairs:
        damp = (1.0 + p.eigenvalue) ** (-decay)
        if isinstance(operator, TorusStokes):
            _add_polarized(coeffs, p.index, (rng.standard_normal() + 1j * rng.standard_normal()) * damp)
        else:
            coeffs[p.index] = damp * complex(rng.standard_normal(), rng.standard_normal())

    if isinstance(operator, (TorusLaplacian, TorusStokes)) and real:
        full = {}
        for idx, v in coeffs.items():
            full[idx] = v
            mirror = idx.mirror()
            if mirror != idx:
                full[mirror] = np.conj(v)
        coeffs = full
    if isinstance(operator, DirichletLaplacian) and real:
        coeffs = {idx: complex(v.real) for idx, v in coeffs.items()}
    if include_mean and isinstance(operator, (TorusLaplacian, TorusStokes)):
        zero = ModeIndex((0,) * operator.dim)
        if isinstance(operator, TorusStokes) or any(isinstance(v, np.ndarray) for v in coeffs.values()):
            coeffs[zero] = rng.standard_normal(operator.dim).astype(complex)
        else:
            coeffs[zero] = complex(rng.standard_normal())
    return SpectralField(operator, coeffs)
