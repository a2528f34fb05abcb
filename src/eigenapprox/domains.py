"""Domains, operators, and their closed-form eigenpairs.

Three geometries are supported: an open interval (0, L), a box (product of
intervals), and the d-torus with period 2*pi per axis.  On the interval/box the
operator is the Dirichlet Laplacian; on the torus either the Laplacian acting
on scalars (or componentwise on vectors) or the Stokes operator acting on
divergence-free vector fields.  All eigenpairs are available in closed form,
which is what the rest of the toolkit leans on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, ResourceLimitError

DEFAULT_MODE_CAP = 1_000_000


def sinpi(y):
    """sin(pi*y) with exact zeros at integer y.

    Plain np.sin(np.pi * y) returns ~1e-16 garbage at integers; Dirichlet
    eigenfunctions must vanish on the boundary exactly, so reduce the argument
    to [-1/2, 1/2] first (the reduction is exact in floating point).
    """
    y = np.asarray(y, dtype=float)
    r = y - 2.0 * np.round(0.5 * y)  # exact; lands in [-1, 1]
    r = np.where(r > 0.5, 1.0 - r, r)
    r = np.where(r < -0.5, -1.0 - r, r)
    return np.sin(np.pi * r)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Interval:
    """The open interval (0, length)."""

    length: float

    def __post_init__(self):
        if not (isinstance(self.length, (int, float)) and math.isfinite(self.length) and self.length > 0):
            raise ConfigError(f"interval length must be a positive finite number, got {self.length!r}")
        object.__setattr__(self, "length", float(self.length))

    @property
    def dim(self) -> int:
        return 1

    @property
    def lengths(self) -> tuple:
        return (self.length,)

    @property
    def periodic(self) -> bool:
        return False


@dataclass(frozen=True)
class Box:
    """A product of open intervals (0, L_1) x ... x (0, L_d), d in {1, 2, 3}."""

    lengths: tuple

    def __post_init__(self):
        try:
            ls = tuple(float(v) for v in self.lengths)
        except TypeError:
            raise ConfigError(f"box lengths must be a sequence, got {self.lengths!r}")
        if not 1 <= len(ls) <= 3:
            raise ConfigError(f"box dimension must be 1..3, got {len(ls)}")
        if any(not (math.isfinite(v) and v > 0) for v in ls):
            raise ConfigError(f"box lengths must be positive and finite, got {ls}")
        object.__setattr__(self, "lengths", ls)

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def periodic(self) -> bool:
        return False


@dataclass(frozen=True)
class Torus:
    """The d-torus [0, 2*pi)^d."""

    dim: int

    def __post_init__(self):
        if not (isinstance(self.dim, int) and 1 <= self.dim <= 3):
            raise ConfigError(f"torus dimension must be an int in 1..3, got {self.dim!r}")

    @property
    def lengths(self) -> tuple:
        return (2.0 * math.pi,) * self.dim

    @property
    def periodic(self) -> bool:
        return True


DomainSpec = Union[Interval, Box, Torus]


# ---------------------------------------------------------------------------
# mode indices and eigenpairs


@dataclass(frozen=True)
class ModeIndex:
    """Multi-index of a mode; `polarization` is 0 except for Stokes eigenpairs,
    where it runs 1..d-1 and selects a tangential basis vector of k-perp."""

    k: tuple
    polarization: int = 0

    def __post_init__(self):
        k = self.k
        if isinstance(k, (int, np.integer)):
            k = (int(k),)
        else:
            k = tuple(int(v) for v in k)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "polarization", int(self.polarization))

    @classmethod
    def _from_rows(cls, k: np.ndarray, pol: np.ndarray) -> list:
        """ModeIndex(k[i], pol[i]) for every row of an (M, d) int64 array, set
        without running __post_init__: the tuples of plain ints that zipping
        the columns gives are what it would make of them."""
        new, put = object.__new__, object.__setattr__
        out = []
        for kk, p in zip(zip(*k.T.tolist()), pol.tolist()):
            idx = new(cls)
            put(idx, "k", kk)
            put(idx, "polarization", p)
            out.append(idx)
        return out

    @property
    def dim(self) -> int:
        return len(self.k)

    def sort_key(self):
        return (self.k, self.polarization)

    def mirror(self) -> "ModeIndex":
        """The index -k with the same polarization (k = 0 is its own mirror)."""
        return ModeIndex([-ki for ki in self.k], self.polarization)

    def is_representative(self) -> bool:
        """True for one index of each {k, -k} pair: the one whose first nonzero
        component is positive, and k = 0."""
        return bool(_representative_rows(np.asarray([self.k], dtype=np.int64))[0])


def _representative_rows(k: np.ndarray) -> np.ndarray:
    """ModeIndex.is_representative for every row of an (M, d) integer array."""
    first = np.argmax(k != 0, axis=1)  # 0 on the all-zero row, whose k[0] is 0
    return k[np.arange(k.shape[0]), first] >= 0


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair: index and eigenvalue.  Eigenfunctions are orthonormal in
    L^2; `mode_evaluator(operator, pair.index)` builds a point evaluator."""

    index: ModeIndex
    eigenvalue: float


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class DirichletLaplacian:
    """-Laplace with zero boundary values on an interval or box."""

    domain: Union[Interval, Box]

    def __post_init__(self):
        if not isinstance(self.domain, (Interval, Box)):
            raise ConfigError("DirichletLaplacian needs an Interval or Box domain")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def eigenvalue(self, k) -> float:
        ks = k.k if isinstance(k, ModeIndex) else k
        return float(sum((ki * math.pi / L) ** 2 for ki, L in zip(ks, self.domain.lengths)))

    def lambda_min(self) -> float:
        """Smallest eigenvalue (all-ones multi-index)."""
        return self.eigenvalue(tuple(1 for _ in self.domain.lengths))

    def validate_index(self, idx: ModeIndex):
        if idx.dim != self.dim or any(ki < 1 for ki in idx.k):
            raise ConfigError(f"Dirichlet mode indices must be >= 1 per axis, got {idx.k}")
        if idx.polarization != 0:
            raise ConfigError("scalar operator modes carry no polarization")


@dataclass(frozen=True)
class TorusLaplacian:
    """-Laplace on the torus (scalar fields, or vectors componentwise)."""

    domain: Torus

    def __post_init__(self):
        if not isinstance(self.domain, Torus):
            raise ConfigError("TorusLaplacian needs a Torus domain")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def eigenvalue(self, k) -> float:
        ks = k.k if isinstance(k, ModeIndex) else k
        return float(sum(ki * ki for ki in ks))

    def lambda_min(self) -> float:
        """Smallest positive eigenvalue (the k=0 mode sits outside the scale)."""
        return 1.0

    def validate_index(self, idx: ModeIndex):
        if idx.dim != self.dim:
            raise ConfigError(f"mode index dimension {idx.dim} != operator dimension {self.dim}")
        if idx.polarization != 0:
            raise ConfigError("scalar operator modes carry no polarization")


@dataclass(frozen=True)
class TorusStokes:
    """Stokes operator on the torus: -Laplace restricted to divergence-free
    vector fields with zero mean.  Requires d >= 2."""

    domain: Torus

    def __post_init__(self):
        if not isinstance(self.domain, Torus):
            raise ConfigError("TorusStokes needs a Torus domain")
        if self.domain.dim < 2:
            raise ConfigError("TorusStokes requires dimension >= 2")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def eigenvalue(self, k) -> float:
        ks = k.k if isinstance(k, ModeIndex) else k
        return float(sum(ki * ki for ki in ks))

    def lambda_min(self) -> float:
        return 1.0

    def validate_index(self, idx: ModeIndex):
        if idx.dim != self.dim:
            raise ConfigError(f"mode index dimension {idx.dim} != operator dimension {self.dim}")
        if not 0 <= idx.polarization <= self.dim - 1:
            raise ConfigError(
                f"polarization must lie in 0..{self.dim - 1} (0 = vector amplitude), got {idx.polarization}"
            )
        if all(ki == 0 for ki in idx.k):
            # the spectrum excludes k=0; fields may still carry the mean there
            if idx.polarization != 0:
                raise ConfigError("the Stokes operator has no k=0 eigenmode")


OperatorSpec = Union[DirichletLaplacian, TorusLaplacian, TorusStokes]


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., i, :] @ b[..., i, :] for every row, bit for bit: each row goes
    through the same BLAS dot as the 1-D product (a plain row sum can round
    differently)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _polarization_rows(k: np.ndarray) -> np.ndarray:
    """polarization_basis of every row of an (M, d) array of nonzero k, shape
    (M, d-1, d), bit for bit the one-row result."""
    kv = np.asarray(k, dtype=float)
    khat = kv / np.sqrt(_dot_rows(kv, kv))[:, None]
    if kv.shape[1] == 2:
        return np.stack([-khat[:, 1], khat[:, 0]], axis=1)[:, None, :]
    ref = np.zeros_like(khat)
    ref[:, 0] = 1.0
    ref[np.abs(_dot_rows(khat, ref)) > 0.9] = (0.0, 1.0, 0.0)
    e1 = ref - _dot_rows(ref, khat)[:, None] * khat
    e1 = e1 / np.sqrt(_dot_rows(e1, e1))[:, None]
    return np.stack([e1, np.cross(khat, e1)], axis=1)


def polarization_basis(k) -> np.ndarray:
    """Orthonormal basis of the plane orthogonal to k, shape (d-1, d).

    d=2: k rotated by 90 degrees.  d=3: Gram-Schmidt of e_x against k-hat,
    falling back to e_y when k is within ~25 degrees of the x-axis, then the
    cross product for the second vector.  Deterministic by construction.
    """
    kv = np.asarray(k, dtype=float).reshape(1, -1)
    if not np.any(kv):
        raise ConfigError("polarization basis undefined for k = 0")
    if kv.shape[1] not in (2, 3):
        raise ConfigError(f"polarization basis only defined for d in {{2, 3}}, got d={kv.shape[1]}")
    return _polarization_rows(kv)[0]


# ---------------------------------------------------------------------------
# evaluators


def _torus_scale(d: int) -> float:
    """(2 pi)^{-d/2}, the L^2 normalization of e^{ik.x} on the d-torus."""
    return (2.0 * math.pi) ** (-d / 2.0)


def _axis_factors(operator: OperatorSpec, axis: int, k, x) -> np.ndarray:
    """The one-axis factor of the eigenfunctions, for index k along `axis` at
    coordinates x (broadcast against each other).  Every eigenfunction is the
    product of its d factors: sqrt(2/L) sin(k pi x/L) for Dirichlet, e^{ikx}
    on the torus, where the first axis also carries the scale (2 pi)^{-d/2};
    a Stokes eigenfunction is that scalar times its polarization vector."""
    if isinstance(operator, DirichletLaplacian):
        L = operator.domain.lengths[axis]
        return math.sqrt(2.0 / L) * sinpi(k * x / L)
    w = np.exp(1j * k * x)
    return _torus_scale(operator.dim) * w if axis == 0 else w


def _as_points(points, d: int) -> np.ndarray:
    """points as an (n, d) float array; a 1-D array is n points if d = 1, else one point."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if d == 1 else pts.reshape(1, -1)
    if pts.shape[1] != d:
        raise ConfigError(f"points must have shape (n, {d})")
    return pts


def _mode_product(operator: OperatorSpec, k, coords, combine=np.multiply) -> np.ndarray:
    """The product of the axis factors of index k at coords[a] on each axis a:
    pointwise, or on the grid they span with combine=np.multiply.outer."""
    return functools.reduce(combine, [_axis_factors(operator, a, ki, x) for a, (ki, x) in enumerate(zip(k, coords))])


def mode_evaluator(operator: OperatorSpec, index: ModeIndex) -> Callable:
    """Point evaluator for one eigenfunction of `operator`."""
    if not isinstance(operator, (DirichletLaplacian, TorusLaplacian, TorusStokes)):
        raise ConfigError(f"unknown operator {operator!r}")
    operator.validate_index(index)
    d = operator.dim
    stokes = isinstance(operator, TorusStokes)
    if stokes and not 1 <= index.polarization <= d - 1:
        raise ConfigError(f"Stokes polarization must be in 1..{d - 1}, got {index.polarization}")
    e = polarization_basis(index.k)[index.polarization - 1] if stokes else None

    def ev(points):
        vals = _mode_product(operator, index.k, _as_points(points, d).T)
        return vals if e is None else vals[:, None] * e[None, :]

    return ev


# ---------------------------------------------------------------------------
# enumeration


def _check_cap(count: int, cap: int):
    if count > cap:
        raise ResourceLimitError(f"mode enumeration would produce {count} modes, over the cap of {cap}")


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


def _mode_table(operator: OperatorSpec, lambda_max: float, cap: int = DEFAULT_MODE_CAP) -> tuple:
    """The eigenpairs of `enumerate_modes` as arrays in its order: k (M, d)
    int64, pol (M,) int64 and lam (M,) float, lam[i] bit for bit
    operator.eigenvalue(k[i]); the candidate box meets `cap` before it exists."""
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ConfigError(f"lambda_max must be positive and finite, got {lambda_max!r}")
    stokes = isinstance(operator, TorusStokes)
    if isinstance(operator, DirichletLaplacian):
        # one past the floor: L sqrt(lambda)/pi can round to just below an
        # index whose eigenvalue is exactly lambda_max; the mask decides
        shape = tuple(int(math.floor(L * math.sqrt(lambda_max) / math.pi)) + 1 for L in operator.domain.lengths)
        if operator.lambda_min() > lambda_max:  # no mode: allocate no box, however long one axis
            shape = (0,) * operator.dim
        low = 1
    elif isinstance(operator, (TorusLaplacian, TorusStokes)):
        bound = int(math.floor(math.sqrt(lambda_max)))
        shape = (2 * bound + 1,) * operator.dim
        low = -bound
    else:
        raise ConfigError(f"unknown operator {operator!r}")
    npol = operator.dim - 1 if stokes else 1
    _check_cap(math.prod(shape) * npol, cap)

    k = np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T + low
    lam = _eigenvalues(operator, k)
    keep = lam <= lambda_max
    if stokes:
        keep &= np.any(k, axis=1)  # the spectrum excludes k = 0
    k, lam = np.repeat(k[keep], npol, axis=0), np.repeat(lam[keep], npol)
    pol = np.tile(np.arange(1, npol + 1), lam.size // npol) if stokes else np.zeros(lam.size, dtype=np.int64)
    _check_cap(lam.size, cap)
    order = np.lexsort((pol, *k.T[::-1], lam))
    return k[order], pol[order], lam[order]


def enumerate_modes(operator: OperatorSpec, lambda_max: float, cap: int = DEFAULT_MODE_CAP) -> list:
    """All eigenpairs with eigenvalue <= lambda_max, sorted by (eigenvalue, index).

    Pairs carry no evaluator; build one with `mode_evaluator` where needed.
    Raises ResourceLimitError if the enumeration would exceed `cap` modes.
    For the torus operators the k=0 mode is included only for TorusLaplacian
    (the Stokes operator lives on the zero-mean subspace).
    """
    k, pol, lam = _mode_table(operator, lambda_max, cap)
    return [EigenPair(idx, ev) for idx, ev in zip(ModeIndex._from_rows(k, pol), lam.tolist())]
