"""Spectral and grid representations of fields, and the maps between them.

A SpectralField is a finite coefficient map over eigenfunctions of one of the
closed-form operators; a GridField is a tensor-product sampling.  synthesize
and analyze convert between the two, with a Nyquist guard on the way out and
an orthonormality self-check on the way back in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .domains import (
    DirichletLaplacian,
    DomainSpec,
    EigenPair,
    ModeIndex,
    OperatorSpec,
    Torus,
    TorusLaplacian,
    TorusStokes,
    _as_points,
    _axis_factors,
    _dot_rows,
    _mode_product,
    _polarization_rows,
    _representative_rows,
    _torus_scale,
    mode_evaluator,
)
from .errors import AliasingError, AccuracyError, ConfigError


def _as_mode_index(key, dim: int) -> ModeIndex:
    idx = key if isinstance(key, ModeIndex) else ModeIndex(key)
    if idx.dim != dim:
        raise ConfigError(f"mode index {idx.k} has dimension {idx.dim}, operator has {dim}")
    return idx


def _tangential(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The part of every row of v orthogonal to its k, as the sum of its
    components along the polarization basis of k; v itself where k = 0.
    Unlike v - k (k.v)/|k|^2, it leaves no roundoff component along k."""
    out = np.array(v, dtype=complex)
    nz = np.any(k, axis=1)
    if np.any(nz):
        e = _polarization_rows(k[nz])
        out[nz] = np.sum(_dot_rows(e, out[nz][:, None, :])[:, :, None] * e, axis=1)
    return out


def _finite(arr) -> bool:
    if np.iscomplexobj(arr):
        return bool(np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag)))
    return bool(np.all(np.isfinite(arr)))


# ---------------------------------------------------------------------------
# packed modes: one row per mode, in input order


class _Packed(NamedTuple):
    """The modes of a field as arrays, in place of a coefficient mapping:
    k (M, d) int64, pol (M,) int64, values (M,) or (M, d) complex128."""

    k: np.ndarray
    pol: np.ndarray
    values: np.ndarray


# largest |k| per axis: sums of d <= 3 squares stay exact in int64
_MAX_AXIS_INDEX = 2**30


def _check_mode(operator: OperatorSpec, idx: ModeIndex, val, first_is_vector=None):
    """The checks of one mode and its value, in the order they are reported;
    returns the value as a complex scalar or a length-d complex vector."""
    d = operator.dim
    if max(abs(ki) for ki in idx.k) > _MAX_AXIS_INDEX:
        raise ConfigError(f"mode index {idx.k} exceeds {_MAX_AXIS_INDEX} on some axis")
    operator.validate_index(idx)
    arr = np.asarray(val)
    if arr.ndim == 0:
        if isinstance(operator, TorusStokes):
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
    if first_is_vector is not None and (arr.ndim > 0) != first_is_vector:
        kinds = ("a vector", "a scalar") if first_is_vector else ("a scalar", "a vector")
        raise ConfigError(
            f"coefficient at {idx.k} is {kinds[0]} but the first one is {kinds[1]}; "
            "a field's values are all scalars or all length-d vectors"
        )
    return v


def _pack_entries(operator: OperatorSpec, coefficients) -> _Packed:
    """Mapping -> packed modes through the checks of each entry in turn, so
    the first offending entry is the one reported."""
    d = operator.dim
    ks, pols, vals = [], [], []
    first_is_vector = None
    for key, val in coefficients.items():
        idx = _as_mode_index(key, d)
        v = _check_mode(operator, idx, val, first_is_vector)
        first_is_vector = isinstance(v, np.ndarray)
        ks.append(idx.k)
        pols.append(idx.polarization)
        vals.append(v)
    m = len(ks)
    return _Packed(np.array(ks, dtype=np.int64).reshape(m, d), np.array(pols, dtype=np.int64), np.array(vals, dtype=complex))


def _pack(operator: OperatorSpec, coefficients) -> _Packed:
    """Mapping with ModeIndex or plain (int or tuple) keys -> validated
    packed modes.  Keys that name the same mode keep the first one's place
    and the last one's value, as dict insertion would."""
    d = operator.dim
    keys = list(coefficients)
    m = len(keys)
    if m == 0:
        return _Packed(np.zeros((0, d), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
    plain = not all(type(key) is ModeIndex for key in keys)
    try:
        if plain:  # ModeIndex(key) semantics: ints per axis, polarization 0
            k = np.array(keys, dtype=np.int64).reshape(m, -1)
            pol = np.zeros(m, dtype=np.int64)
        else:
            k = np.array([key.k for key in keys], dtype=np.int64).reshape(m, -1)
            pol = np.array([key.polarization for key in keys], dtype=np.int64)
        if k.shape[1] != d:
            raise ValueError("mode dimension")
        values = np.array(list(coefficients.values()), dtype=complex)
        packed = _Packed(k, pol, values.reshape(m, -1) if values.ndim > 1 else values)
    except (TypeError, ValueError, OverflowError):
        # ragged, huge or wrong-dimension keys, or ragged values: the
        # per-entry checks name the first offender
        packed = _pack_entries(operator, coefficients)
    _validate(operator, *packed)
    if plain:
        packed = _merge_rows(*packed, "last")
    return packed


def _merge_rows(k: np.ndarray, pol: np.ndarray, values: np.ndarray, how: str) -> _Packed:
    """One row per (k, pol), in order of first occurrence.  how="last" keeps
    the last value; "sum" adds the values in row order."""
    _, first, inv = np.unique(_row_keys(np.column_stack([k, pol])), return_index=True, return_inverse=True)
    order = np.argsort(first)
    first = first[order]
    group = np.argsort(order)[inv.reshape(-1)]
    if how == "last":
        last = np.zeros(first.size, dtype=np.int64)
        np.maximum.at(last, group, np.arange(group.size))
        merged = values[last]
    else:
        merged = np.zeros((first.size,) + values.shape[1:], dtype=complex)
        np.add.at(merged, group, values)
    return _Packed(k[first], pol[first], merged)


def _polarized(k: np.ndarray, pol: np.ndarray, amps: np.ndarray) -> _Packed:
    """Amplitudes along e_m(k) (pol = m > 0) or along Cartesian axis c
    (pol = -(c+1)) as vector rows, summed per k."""
    e = np.eye(k.shape[1])[-pol - 1]
    tangential = pol > 0
    if np.any(tangential):
        e[tangential] = _polarization_rows(k[tangential])[np.arange(np.count_nonzero(tangential)), pol[tangential] - 1]
    return _merge_rows(k, np.zeros_like(pol), amps[:, None] * e, "sum")


def _with_mirrors(p: _Packed, where: np.ndarray) -> _Packed:
    """Each row followed, where `where` holds, by its mirror (-k, pol, conj v)."""
    row = np.repeat(np.arange(where.size), np.where(where, 2, 1))
    mirror = np.diff(row, prepend=-1) == 0  # second of a repeated row
    k, values = p.k[row], p.values[row]
    k[mirror] *= -1
    values[mirror] = np.conj(values[mirror])
    return _Packed(k, p.pol[row], values)


def _invalid_index(operator: OperatorSpec, k: np.ndarray, pol: np.ndarray) -> np.ndarray:
    """Rows that operator.validate_index rejects (dimension already checked)."""
    if isinstance(operator, DirichletLaplacian):
        return np.any(k < 1, axis=1) | (pol != 0)
    if isinstance(operator, TorusStokes):
        return (pol < 0) | (pol > operator.dim - 1) | (~np.any(k, axis=1) & (pol != 0))
    return pol != 0


def _validate(operator: OperatorSpec, k: np.ndarray, pol: np.ndarray, values: np.ndarray) -> None:
    """The checks of `_check_mode` on every row at once, then Stokes
    orthogonality; the first offending row is reported."""
    d = operator.dim
    bad = np.any(np.abs(k) > _MAX_AXIS_INDEX, axis=1) | _invalid_index(operator, k, pol)
    if values.ndim == 1:
        bad = bad | isinstance(operator, TorusStokes) | ~(np.isfinite(values.real) & np.isfinite(values.imag))
    else:
        finite = np.all(np.isfinite(values.real) & np.isfinite(values.imag), axis=1)
        bad = bad | (values.shape[1] != d) | ~finite
    for i in np.flatnonzero(bad):
        _check_mode(operator, ModeIndex(k[i].tolist(), int(pol[i])), values[i])
    if isinstance(operator, TorusStokes) and len(k):
        kf = k.astype(float)
        resid = np.abs(np.sum(kf * values, axis=1))
        # hypot, not a sum of squares: |v| must neither underflow nor overflow
        bound = np.sqrt(np.sum(kf * kf, axis=1)) * np.maximum(np.hypot.reduce(np.abs(values), axis=1), 1e-300)
        off = np.flatnonzero(resid > 1e-9 * bound)
        if off.size:
            i = off[0]
            raise ConfigError(
                f"Stokes amplitude at k={tuple(k[i].tolist())} is not orthogonal to k (residual {resid[i]:.3e})"
            )


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of an integer array, equal exactly when the rows are."""
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    lo = rows.min(axis=0)
    span = rows.max(axis=0) - lo + 1
    if math.prod(span.tolist()) >= 2**62:
        return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    key = np.zeros(rows.shape[0], dtype=np.int64)
    for c in range(rows.shape[1]):
        key = key * span[c] + (rows[:, c] - lo[c])
    return key


def _mirror_rows(k: np.ndarray, pol: np.ndarray) -> np.ndarray:
    """Row index of (-k, pol) for every row (k, pol), -1 where there is none."""
    m = k.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    keys = _row_keys(np.column_stack([np.concatenate([k, -k]), np.concatenate([pol, pol])]))
    own, mir = keys[:m], keys[m:]
    order = np.argsort(own, kind="stable")
    hit = order[np.minimum(np.searchsorted(own[order], mir), m - 1)]
    return np.where(own[hit] == mir, hit, -1)


def _eigenvalues(operator: OperatorSpec, k: np.ndarray) -> np.ndarray:
    """operator.eigenvalue of every row of k, bit for bit: each axis term is
    the scalar formula evaluated per distinct index, and the terms are summed
    from the left as the scalar sum does."""
    if isinstance(operator, DirichletLaplacian):
        lam = np.zeros(k.shape[0])
        for a, L in enumerate(operator.domain.lengths):
            uniq, place = np.unique(k[:, a], return_inverse=True)
            lam += np.array([(ki * math.pi / L) ** 2 for ki in uniq.tolist()])[place.reshape(-1)]
        return lam
    return np.sum(k * k, axis=1).astype(float)  # integer sums are exact


class SpectralField:
    """Finite coefficient map over the eigenfunctions of `operator`.

    Values are complex scalars, or length-d complex vectors for vector-valued
    fields (TorusStokes always; TorusLaplacian optionally, acting
    componentwise); one field never mixes the two.  Keys may be given as plain
    tuples and are normalized to ModeIndex.  Stokes amplitudes must be
    orthogonal to k; a Stokes field may carry a k=0 amplitude, which is the
    mean of the velocity and sits outside the operator's (positive) spectrum.

    The modes are stored once, as read-only arrays in input order: `k`
    (M, d) int64, `pol` (M,) int64 and `values` (M,) or (M, d) complex128.
    `coefficients` is a read-only {ModeIndex: value} view of them, built on
    first use, with complex scalars or 1-D arrays as values.
    """

    def __init__(self, operator: OperatorSpec, coefficients=None):
        if isinstance(coefficients, _Packed):
            packed = coefficients
            _validate(operator, *packed)
        else:
            packed = _pack(operator, {} if coefficients is None else coefficients)
        k, pol, values = packed
        if k.shape[0] == 0:
            values = np.zeros((0, operator.dim) if isinstance(operator, TorusStokes) else 0, dtype=complex)
        for name, arr in (("k", k), ("pol", pol), ("values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "_view", None)
        object.__setattr__(self, "_lams", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"SpectralField is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"SpectralField({self.operator!r}, {self.k.shape[0]} modes)"

    @property
    def coefficients(self):
        """Read-only {ModeIndex: value} view of the modes, in input order."""
        if self._view is None:
            keys = ModeIndex._from_rows(self.k, self.pol)
            vals = list(self.values) if self.values.ndim == 2 else self.values.tolist()
            object.__setattr__(self, "_view", MappingProxyType(dict(zip(keys, vals))))
        return self._view

    # -- introspection -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def is_vector(self) -> bool:
        return isinstance(self.operator, TorusStokes) or self.values.ndim == 2

    def items_sorted(self):
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].sort_key())

    def eigenvalue(self, idx: ModeIndex) -> float:
        return self.operator.eigenvalue(idx)

    def _eigenvalue_array(self) -> np.ndarray:
        if self._lams is None:
            lams = _eigenvalues(self.operator, self.k)
            lams.flags.writeable = False
            object.__setattr__(self, "_lams", lams)
        return self._lams

    def eigen_arrays(self, positive_only: bool = False):
        """(eigenvalues, |coefficient|^2) flat arrays in mode order;
        positive_only drops lambda = 0."""
        lams = self._eigenvalue_array()
        amps = np.abs(self.values) ** 2
        if amps.ndim == 2:
            amps = np.sum(amps, axis=1)
        if positive_only:
            keep = lams > 0.0
            return lams[keep], amps[keep]
        return lams.copy(), amps

    def l2(self) -> float:
        """Coefficient-space l2 norm, zero mode included."""
        _, amps = self.eigen_arrays(positive_only=False)
        return math.sqrt(float(np.sum(amps))) if amps.size else 0.0

    def max_axis_index(self) -> int:
        return int(np.abs(self.k).max()) if self.k.size else 0

    def lambda_max(self) -> float:
        lams = self._eigenvalue_array()
        return float(lams.max()) if lams.size else 0.0


def add(f: SpectralField, g: SpectralField) -> SpectralField:
    if f.operator != g.operator:
        raise ConfigError("field arithmetic requires matching operators")
    if f.values.ndim != g.values.ndim:
        if f.k.shape[0] and g.k.shape[0]:
            raise ConfigError("field arithmetic requires both fields scalar or both vector")
        return f if g.k.shape[0] == 0 else g
    out = _merge_rows(*(np.concatenate([a, b]) for a, b in zip((f.k, f.pol, f.values), (g.k, g.pol, g.values))), "sum")
    if isinstance(f.operator, TorusStokes):
        # a sum of tangential amplitudes is tangential; strip the roundoff
        # normal component so near-cancelling sums stay valid fields
        out = out._replace(values=_tangential(out.k, out.values))
    return SpectralField(f.operator, out)


def scale(f: SpectralField, c) -> SpectralField:
    return SpectralField(f.operator, _Packed(f.k, f.pol, c * f.values))


def subtract(f: SpectralField, g: SpectralField) -> SpectralField:
    return add(f, scale(g, -1.0))


def conjugate_symmetry_violation(f: SpectralField) -> float:
    """max |c(-k) - conj(c(k))|; zero exactly when the field is real-valued."""
    if not isinstance(f.operator, (TorusLaplacian, TorusStokes)):
        raise ConfigError("conjugate symmetry only applies to torus fields")
    if f.k.shape[0] == 0:
        return 0.0
    mirror = _mirror_rows(f.k, f.pol)
    found = (mirror >= 0).reshape((-1,) + (1,) * (f.values.ndim - 1))
    diff = np.abs(np.conj(f.values) - np.where(found, f.values[mirror], 0.0))
    if diff.ndim == 2:
        diff = diff.max(axis=1)
    return float(diff.max())


def divergence_residual(f: SpectralField) -> float:
    """max_k |k . c(k)| for a vector torus field (0 iff divergence-free)."""
    if not f.is_vector:
        raise ConfigError("divergence residual needs a vector field")
    div = _dot_rows(f.k.astype(float), f.values)
    return float(np.max(np.hypot(div.real, div.imag), initial=0.0))


def evaluate(f: SpectralField, points) -> np.ndarray:
    """Pointwise evaluation sum_j c_j w_j(x); O(modes x points).  A vector
    amplitude multiplies the scalar eigenfunction of its k."""
    pts = _as_points(points, f.dim)
    out = np.zeros((pts.shape[0],) + f.values.shape[1:], dtype=complex)
    for k, v in zip(f.k.tolist(), f.values):
        out = out + np.multiply.outer(_mode_product(f.operator, k, pts.T), v)
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


def _axis_tables(operator: OperatorSpec, k: np.ndarray, axes) -> list:
    """Per axis a: the factors of the distinct k[:, a] on axes[a], shape
    (distinct, points), and each row's place among them."""
    tables = []
    for a, x in enumerate(axes):
        uniq, place = np.unique(k[:, a], return_inverse=True)
        tables.append((_axis_factors(operator, a, uniq[:, None], x[None, :]), place.reshape(-1)))
    return tables


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


def _axis_weights(g: GridField) -> list:
    """The one-axis quadrature weights of g's axes."""
    return [_axis_quadrature(g.domain, a, L) for a, L in zip(g.axes, g.domain.lengths)]


def quadrature_weights(g: GridField) -> np.ndarray:
    """Tensor-product quadrature weights matching g's axes (shape grid_shape)."""
    return functools.reduce(np.multiply.outer, _axis_weights(g))


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
    if isinstance(f.operator, (TorusLaplacian, TorusStokes)):
        return _synthesize_torus_fft(f, axes, tuple(a.size for a in axes))

    # the values in one dense block over the distinct indices of each axis,
    # contracted with that axis's factors one axis at a time
    tables = _axis_tables(f.operator, f.k, axes)
    out = np.zeros(tuple(t.shape[0] for t, _ in tables) + f.values.shape[1:], dtype=complex)
    out[tuple(place for _, place in tables)] = f.values
    for t, _ in tables:
        out = np.tensordot(out, t, axes=(0, 0))
    if f.is_vector:
        out = np.moveaxis(out, 0, -1)
    if np.max(np.abs(out.imag), initial=0.0) == 0.0:
        out = out.real
    return GridField(domain, axes, out)


def _synthesize_torus_fft(f: SpectralField, axes, shape) -> GridField:
    d = f.dim
    sc = _torus_scale(d) * float(np.prod(shape))
    is_vec = f.is_vector
    comps = d if is_vec else 1
    spec = np.zeros((comps,) + shape, dtype=complex)
    # the Nyquist guard makes k mod n injective, so no two modes share a slot
    pos = tuple(f.k[:, a] % n for a, n in enumerate(shape))
    spec[(slice(None),) + pos] += f.values.T if is_vec else f.values
    vals = np.stack([np.fft.ifftn(spec[c] * sc) for c in range(comps)], axis=-1)
    if not is_vec:
        vals = vals[..., 0]
    space = tuple(range(1, d + 1))
    if np.array_equal(np.roll(np.flip(spec, axis=space), 1, axis=space), np.conj(spec)):
        # an exactly symmetric spectrum (slot -k holds conj of slot k) is a
        # real field; drop the FFT roundoff
        vals = vals.real
    return GridField(f.operator.domain, axes, vals)


def _mode_rows(operator: OperatorSpec, modes: list) -> tuple:
    """(k, pol) arrays of ModeIndex rows, checked as `mode_evaluator` checks
    each one and against `_MAX_AXIS_INDEX` as `SpectralField` checks them;
    the first mode it rejects raises its error."""
    d = operator.dim
    n = next((i for i, m in enumerate(modes) if m.dim != d), len(modes))
    rows = [(*m.k, m.polarization) for m in modes[:n]]
    try:
        kp = np.array(rows, dtype=np.int64).reshape(n, d + 1)
    except OverflowError:  # beyond int64 is beyond _MAX_AXIS_INDEX: stop the rows at the first such mode
        n = next(i for i, row in enumerate(rows) if max(map(abs, row)) > _MAX_AXIS_INDEX)
        kp = np.array(rows[:n], dtype=np.int64).reshape(n, d + 1)
    k, pol = kp[:, :d], kp[:, d]
    bad = np.any(np.abs(k) > _MAX_AXIS_INDEX, axis=1) | _invalid_index(operator, k, pol)
    bad |= isinstance(operator, TorusStokes) & (pol < 1)
    first = np.append(np.flatnonzero(bad), n)[0]
    if first < len(modes):
        idx = modes[first]
        if idx.dim == d and max(map(abs, idx.k), default=0) > _MAX_AXIS_INDEX:
            raise ConfigError(f"mode index {idx.k} exceeds {_MAX_AXIS_INDEX} on some axis")
        mode_evaluator(operator, idx)  # raises
    return k, pol


def analyze(g: GridField, modes, operator: OperatorSpec, check: bool = True, tol: float = 1e-8) -> SpectralField:
    """Quadrature inner products of g against the given modes (ModeIndex or
    EigenPair).  Modes and weights are tensor products, so g is contracted
    with the weighted conjugate axis factors one axis at a time and the
    requested rows are read off; Stokes (k, m) rows take the e_m(k) component
    and are reassembled into vector amplitudes.

    With check=True the Gram matrix of the modes on g's grid, (e_i . e_j)
    times the one-axis Gram tables of k_i and k_j, is verified against the
    identity to `tol`; the first offending pair is named in the AccuracyError.
    """
    if operator.domain != g.domain:
        raise ConfigError("grid domain does not match operator domain")
    k, pol = _mode_rows(operator, [m.index if isinstance(m, EigenPair) else m for m in modes])
    m = k.shape[0]
    if not m:
        return SpectralField(operator)
    weights = _axis_weights(g)
    tables = _axis_tables(operator, k, g.axes)
    vector = isinstance(operator, TorusStokes)
    e = _polarization_rows(k)[np.arange(m), pol - 1] if vector else None

    if check:
        # gram[i, j] = <w_i, w_j> = (e_i . e_j) prod_a <axis factor of k_ia, of k_ja>
        gram = np.ones((m, m)) if e is None else e @ e.T
        for (t, place), w in zip(tables, weights):
            gram = gram * ((t * w) @ np.conj(t).T)[np.ix_(place, place)]
        bad = np.argwhere(np.triu(np.abs(gram - np.eye(m)) > tol))
        if bad.size:
            i, j = bad[0]  # first pair i <= j in row order
            a, b = (f"(k={tuple(k[r].tolist())}, m={pol[r]})" for r in (i, j))
            raise AccuracyError(
                f"mode Gram check failed for pair {a} / {b}: <wi, wj> = {complex(gram[i, j]):.3e} vs {float(i == j)}; "
                "refine the grid"
            )

    if vector != g.is_vector:
        raise ConfigError(
            "vector modes require a vector-valued grid field" if vector else "scalar modes require a scalar grid field"
        )
    # <g, w_j> = sum of weight * conj(w_j) * g over the points (and components)
    coef = g.values
    for (t, _), w in zip(tables, weights):
        coef = np.tensordot(coef, np.conj(t) * w, axes=(0, 1))
    raw = coef[(Ellipsis,) + tuple(place for _, place in tables)].astype(complex)  # real on real Dirichlet grids
    if vector:
        raw = _dot_rows(e, raw.T)
    packed = _merge_rows(k, pol, raw, "last")
    return SpectralField(operator, _polarized(*packed) if vector else packed)


# ---------------------------------------------------------------------------
# norms and projections


def lp_norm(g: GridField, p) -> float:
    """L^p norm over the domain; vector values use the pointwise Euclidean
    magnitude; p = inf is the max over samples."""
    if g.is_vector:
        # |x| |x| == x x exactly for real x, so real values skip the abs copy
        v = g.values if np.isrealobj(g.values) else np.abs(g.values)
        mag = np.sqrt(np.sum(v * v, axis=-1))
    else:
        mag = np.abs(g.values)
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
    proj = _tangential(f.k, f.values)
    keep = ~np.any(f.k, axis=1) | np.any(proj != 0, axis=1)
    return SpectralField(TorusStokes(f.operator.domain), _Packed(f.k[keep], f.pol[keep], proj[keep]))


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
    d = operator.dim
    torus = isinstance(operator, (TorusLaplacian, TorusStokes))
    stokes = isinstance(operator, TorusStokes)
    pairs = enumerate_modes_cached(operator, lambda_max)
    rows = np.array([(*p.index.k, p.index.polarization) for p in pairs], dtype=np.int64).reshape(-1, d + 1)
    k, pol = rows[:, :d], rows[:, d]
    if torus:
        keep = np.any(k != 0, axis=1)
        if real:
            keep &= _representative_rows(k)
        k, pol = k[keep], pol[keep]
    if n_modes is not None and n_modes < k.shape[0]:
        sel = np.sort(rng.choice(k.shape[0], size=n_modes, replace=False))
        k, pol = k[sel], pol[sel]

    damp = (1.0 + _eigenvalues(operator, k)) ** -decay
    # one (re, im) pair of draws per mode, in mode order
    out = _Packed(k, pol, damp * rng.standard_normal(2 * k.shape[0]).view(complex))
    if stokes:
        out = _polarized(*out)
    if torus and real:
        out = _with_mirrors(out, np.ones(out.k.shape[0], dtype=bool))
    if isinstance(operator, DirichletLaplacian) and real:
        out = out._replace(values=out.values.real.astype(complex))
    if include_mean and torus:
        mean = rng.standard_normal(d).astype(complex) if stokes else complex(rng.standard_normal())
        out = _Packed(*(np.concatenate([a, [b]]) for a, b in zip(out, (np.zeros(d, dtype=np.int64), 0, mean))))
    return SpectralField(operator, out)
