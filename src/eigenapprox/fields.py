"""Spectral and grid representations of fields, and the maps between them.

A SpectralField is a finite coefficient map over eigenfunctions of one of the
closed-form operators; a GridField is a tensor-product sampling.  synthesize
and analyze convert between the two by one-axis tables, not FFTs, with a
Nyquist guard on the way out and an orthonormality check on the way back in.
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
    TorusLaplacian,
    TorusStokes,
    _as_points,
    _axis_factors,
    _check_modes,
    _dot_rows,
    _eigenvalues,
    _fits,
    _grid_phases,
    _index_arrays,
    _index_rules,
    _lone_row,
    _mod,
    _mode_product,
    _mode_table,
    _polarization_rows,
    _raise_first,
    _re_im_rows,
    _representative_rows,
    _torus_scale,
    enumerate_modes,
)
from .errors import AliasingError, AccuracyError, ConfigError


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


# ---------------------------------------------------------------------------
# packed modes: one row per mode, in input order


class _Packed(NamedTuple):
    """The modes of a field as arrays, in place of a coefficient mapping:
    k (M, d) int64, pol (M,) int64, values (M,) or (M, d) complex128."""

    k: np.ndarray
    pol: np.ndarray
    values: np.ndarray


def _pack(operator: OperatorSpec, coefficients) -> _Packed:
    """Mapping with ModeIndex or plain (int or tuple) keys, ModeIndex(key)
    semantics, -> validated packed modes.  Keys that name the same mode keep
    the first one's place and the last one's value, as dict insertion would."""
    d = operator.dim
    keys = [key if isinstance(key, ModeIndex) else ModeIndex(key) for key in coefficients]
    vals = [v if v.ndim == 0 else v.reshape(-1) for v in map(np.asarray, coefficients.values())]
    shape = vals[0].shape if vals else ()
    # the rows share the arrays up to the first one they cannot hold: an index
    # no int64 row of dimension d holds, or a value not of the first's shape
    n = next((i for i, (idx, v) in enumerate(zip(keys, vals)) if not _fits(idx, d) or v.shape != shape), len(keys))
    k, pol = _index_arrays(keys[:n], d)
    values = np.array(vals[:n], dtype=complex).reshape((n,) + shape)
    if n == len(keys):
        _validate(operator, k, pol, values)
        return _merge_rows(k, pol, values, "last")
    _check_rows(operator, k, pol, values)
    # the row that does not share them, on its own, then the rule that one
    # field's values are all scalars or all vectors
    idx, v = keys[n], vals[n]
    _check_rows(operator, *_lone_row(idx), v.astype(complex)[None])
    kinds = ("a vector", "a scalar") if v.ndim else ("a scalar", "a vector")
    raise ConfigError(
        f"coefficient at {idx.k} is {kinds[0]} but the first one is {kinds[1]}; "
        "a field's values are all scalars or all length-d vectors"
    )


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


def _check_rows(operator: OperatorSpec, k: np.ndarray, pol: np.ndarray, values: np.ndarray) -> None:
    """The index rules of `operator`, then the value rules, on every row; the
    first row that breaks one raises its ConfigError."""
    d = operator.dim
    finite = np.isfinite(values)  # a complex value is finite when both its parts are
    if values.ndim == 1:
        value_rules = [
            (np.full(pol.shape, isinstance(operator, TorusStokes)), "Stokes coefficients must be length-d vectors"),
            (~finite, "non-finite coefficient at {k}"),
        ]
    else:
        n = values.shape[1]
        value_rules = [
            (np.full(pol.shape, n != d), f"vector amplitude at {{k}} has length {n}, expected {d}"),
            (~finite.all(axis=1), "non-finite coefficient at {k}"),
        ]
    _raise_first(_index_rules(operator, k, pol) + value_rules, k, pol)


def _validate(operator: OperatorSpec, k: np.ndarray, pol: np.ndarray, values: np.ndarray) -> None:
    """The checks of every row, then Stokes orthogonality; the first
    offending row is reported."""
    _check_rows(operator, k, pol, values)
    if isinstance(operator, TorusStokes) and len(k):
        kf = k.astype(float)
        # each row and the floor times the exact power of two 2^-e that puts the
        # row's largest part in [1/2, 1): neither k . v nor |v| can overflow
        _, e = np.frexp(np.max(np.maximum(np.abs(values.real), np.abs(values.imag)), axis=1))
        v = np.ldexp(values.real, -e[:, None]) + 1j * np.ldexp(values.imag, -e[:, None])
        resid = np.abs(np.sum(kf * v, axis=1))
        bound = np.sqrt(np.sum(kf * kf, axis=1)) * np.maximum(np.hypot.reduce(np.abs(v), axis=1), np.ldexp(1e-300, -e))
        off = np.flatnonzero(resid > 1e-9 * bound)
        if off.size:
            i = off[0]
            with np.errstate(over="ignore"):  # a residual beyond the largest double reads inf
                r = np.ldexp(resid[i], e[i])
            raise ConfigError(f"Stokes amplitude at k={tuple(k[i].tolist())} is not orthogonal to k (residual {r:.3e})")


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
        if not np.all(np.isfinite(vals)):  # a complex value is finite when both its parts are
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


_OVERSAMPLING = 4  # default grid points per unit of the largest mode index
_MIN_GRID_POINTS = 8
_GRAM_TOL = 1e-8  # the largest |<w_i, w_j> - delta_ij| analyze's check accepts


def default_grid_resolution(f: SpectralField) -> int:
    """Oversampled default: _OVERSAMPLING times the maximal per-axis mode index."""
    return max(_MIN_GRID_POINTS, _OVERSAMPLING * max(f.max_axis_index(), 1))


def _axis_tables(operator: OperatorSpec, k: np.ndarray, axes) -> list:
    """Per axis a: the factors of the distinct k[:, a] on axes[a], shape
    (distinct, points), and each row's place among them.  A Dirichlet row is
    `_axis_factors` at the points of a sorted distinct index; a torus row is
    `_grid_phases` on the axis x_j = 2 pi j / n, with the (2 pi)^{-d/2} scale
    on the first axis.

    A torus axis of n points has n distinct factors, so its rows are the
    residues r = (k + n//2) mod n that occur, in increasing order, found by
    one presence pass and a running count instead of a sort.  For |k| < n/2
    that is the sorted order of k itself; indices that alias share a row,
    whose phases they share anyway."""
    tables = []
    for a, x in enumerate(axes):
        if isinstance(operator, DirichletLaplacian):
            uniq, place = np.unique(k[:, a], return_inverse=True)
            tables.append((_axis_factors(operator, a, uniq[:, None], x[None, :]), place))
            continue
        n = x.size
        r = _mod(k[:, a] + n // 2, n)  # |k| <= 2^30: no overflow
        present = np.zeros(n, dtype=bool)
        present[r] = True
        t = _grid_phases(n, np.flatnonzero(present) - n // 2)
        if a == 0:
            t = _torus_scale(operator.dim) * t
        tables.append((t, (np.cumsum(present) - 1)[r]))
    return tables


def _axis_product(a: np.ndarray, x: np.ndarray, ax: int) -> np.ndarray:
    """The matrix a applied along axis ax of x: one product a @ (x_ax, rest)
    per index of the axes before ax."""
    out = a @ x.reshape(x.shape[: ax + 1] + (math.prod(x.shape[ax + 1 :]),))
    return out.reshape(x.shape[:ax] + (a.shape[0],) + x.shape[ax + 1 :])


def _axis_quadrature(domain: DomainSpec, a: np.ndarray, L: float) -> np.ndarray:
    n = a.size
    if domain.periodic:
        h = L / n
        if not (np.allclose(np.diff(a), h, rtol=0, atol=1e-12 * L) and abs(a[0]) <= 1e-12 * L):
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


def _axis_weights(domain: DomainSpec, axes) -> list:
    """The one-axis quadrature weights of a grid's axes."""
    return [_axis_quadrature(domain, a, L) for a, L in zip(axes, domain.lengths)]


def quadrature_weights(g: GridField) -> np.ndarray:
    """Tensor-product quadrature weights matching g's axes (shape grid_shape)."""
    return functools.reduce(np.multiply.outer, _axis_weights(g.domain, g.axes))


def _divide_where_nonzero(num, den):
    """num / den, 0 where den is 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson_pairs(y: np.ndarray, x: np.ndarray, stop: int):
    """Simpson's rule on the interval pairs of the samples y[:stop + 2] at
    increasing x, with unequal spacings h0, h1 in each pair."""
    h = np.diff(x)
    h0 = h[0:stop:2].astype(float, copy=False)
    h1 = h[1 : stop + 1 : 2].astype(float, copy=False)
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _divide_where_nonzero(h0, h1)
    tmp = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - _divide_where_nonzero(1.0, h0divh1))
        + y[1 : stop + 1 : 2] * (hsum * _divide_where_nonzero(hsum, hprod))
        + y[2 : stop + 2 : 2] * (2.0 - h0divh1)
    )
    return np.sum(tmp)


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson rule of 1-D samples y at increasing x, equal in
    value and type (np.float64) to `scipy.integrate.simpson(y, x=x)` of
    scipy >= 1.11 bit for bit, operation for operation.  An even number of
    samples takes the rule on the first N - 3 intervals plus Cartwright's
    last-interval correction (Cartwright, J. Math. Sci. Math. Educ. 12 (2),
    2017); two samples take the trapezoid."""
    n = y.shape[0]
    if n % 2:
        return _simpson_pairs(y, x, n - 2)
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])  # scipy's zero start, as below
    total = _simpson_pairs(y, x, n - 3)
    diffs = np.float64(np.diff(x))
    # the last two spacings stay 0-d arrays: a numpy scalar's ** goes
    # through pow, which can differ from the array power in the last bit
    h0, h1 = np.squeeze(diffs[-2:-1]), np.squeeze(diffs[-1:])
    alpha = _divide_where_nonzero(2 * h1**2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _divide_where_nonzero(h1**2 + 3.0 * h0 * h1, 6 * h0)
    eta = _divide_where_nonzero(h1**3, 6 * h0 * (h0 + h1))
    total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return total + 0.0  # as scipy adds its zero: -0.0 becomes 0.0


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
    return GridField(domain, axes, _apply_tables(f.operator, _synthesis_tables(f.operator, f.k, axes), f.k, f.values))


def _synthesis_tables(operator: OperatorSpec, k: np.ndarray, axes) -> list:
    """synthesize's table step, which fields with the same modes k share."""
    both = k if isinstance(operator, DirichletLaplacian) else np.concatenate([k, -k])
    return [(t, place[: k.shape[0]]) for t, place in _axis_tables(operator, both, axes)]


def _apply_tables(operator: OperatorSpec, tables: list, k: np.ndarray, values: np.ndarray) -> np.ndarray:
    """synthesize's product step: the grid of the modes k with these values,
    one dense block over each axis's distinct indices (components first)
    contracted with one table at a time.  The torus tables hold k and -k, so
    a real field's block flipped on every axis is its conjugate."""
    block = np.zeros((math.prod(values.shape[1:]),) + tuple(t.shape[0] for t, _ in tables), dtype=complex)
    at = (slice(None),) + tuple(place for _, place in tables)
    if isinstance(operator, TorusStokes) and np.unique(_row_keys(k)).size < k.shape[0]:
        # a Stokes field may hold several polarization rows at one k: they
        # add, as in `evaluate`.  With one row per k (every other field) the
        # plain assignment keeps every bit, signed zeros included.
        np.add.at(block, at, values.T)
    else:
        block[at] = values.T
    if isinstance(operator, DirichletLaplacian):
        real = not np.any(values.imag)
    else:
        real = np.array_equal(np.flip(block, axis=tuple(range(1, block.ndim))), np.conj(block))
    for a, (t, _) in enumerate(tables[:-1]):
        block = _axis_product(t.T, block, a + 1)
    last = tables[-1][0]
    out = block.view(float) @ _re_im_rows(last).reshape(-1, last.shape[1]) if real else block @ last
    return np.moveaxis(out, 0, -1) if values.ndim == 2 else out[0]


def analyze(g: GridField, modes, operator: OperatorSpec, check: bool = True) -> SpectralField:
    """Quadrature inner products of g against the given modes (ModeIndex or
    EigenPair).  Modes and weights are tensor products, so g is contracted
    with the weighted conjugate axis factors one axis at a time and the
    requested rows are read off; Stokes (k, m) rows take the e_m(k) component
    and are reassembled into vector amplitudes.

    With check=True the Gram matrix of the modes on g's grid, (e_i . e_j)
    times the one-axis Gram tables of k_i and k_j, must be the identity to
    `_GRAM_TOL`; the AccuracyError names the first pair that is not.
    """
    if operator.domain != g.domain:
        raise ConfigError("grid domain does not match operator domain")
    k, pol = _check_modes(operator, [m.index if isinstance(m, EigenPair) else m for m in modes], eigenmode=True)
    m = k.shape[0]
    if not m:
        return SpectralField(operator)
    weights = _axis_weights(g.domain, g.axes)
    tables = _axis_tables(operator, k, g.axes)
    vector = isinstance(operator, TorusStokes)
    e = _polarization_rows(k)[np.arange(m), pol - 1] if vector else None

    if check:
        # gram[i, j] = <w_i, w_j> = (e_i . e_j) prod_a <axis factor of k_ia, of k_ja>
        gram = np.ones((m, m)) if e is None else e @ e.T
        for (t, place), w in zip(tables, weights):
            gram = gram * ((t * w) @ np.conj(t).T)[np.ix_(place, place)]
        bad = np.argwhere(np.triu(np.abs(gram - np.eye(m)) > _GRAM_TOL))
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
    k, pol, lam = _mode_table(operator, lambda_max)
    if n_modes is not None and n_modes < 1:
        raise ConfigError(f"n_modes must be >= 1, got {n_modes}")
    if torus:
        keep = np.any(k != 0, axis=1)
        if real:
            keep &= _representative_rows(k)
        k, pol, lam = k[keep], pol[keep], lam[keep]
    if n_modes is not None and n_modes < k.shape[0]:
        sel = np.sort(rng.choice(k.shape[0], size=n_modes, replace=False))
        k, pol, lam = k[sel], pol[sel], lam[sel]

    damp = (1.0 + lam) ** -decay
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
