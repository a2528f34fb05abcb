"""Domains, operators, and their closed-form eigenpairs.

Two geometries are supported: a box (product of one to three intervals,
the interval (0, L) being the one-axis box) and the d-torus with period 2*pi
per axis.  On a box the operator is the Dirichlet Laplacian; on the torus
either the Laplacian acting on scalars (or componentwise on vectors) or the
Stokes operator acting on divergence-free vector fields, both of spectrum
|k|^2.  All eigenpairs are available in closed form, which is what the rest
of the toolkit leans on.
"""

from __future__ import annotations

import math
import numbers
import sys
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


def _length(v):
    """v as a float if it is a real number (a bool is none) whose double is
    positive and finite, else None: the one check of interval and box sides."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    try:
        x = float(v)
    except OverflowError:
        return None
    return x if math.isfinite(x) and x > 0 else None


@dataclass(frozen=True)
class Box:
    """A product of open intervals (0, L_1) x ... x (0, L_d), d in {1, 2, 3},
    each side a positive finite real number (not a bool) stored as a float."""

    lengths: tuple

    def __post_init__(self):
        try:
            ls = tuple(map(_length, self.lengths))
        except TypeError:
            raise ConfigError(f"box lengths must be a sequence, got {self.lengths!r}") from None
        if None in ls:
            raise ConfigError(f"box lengths must be positive finite numbers, got {self.lengths!r}")
        if not 1 <= len(ls) <= 3:
            raise ConfigError(f"box dimension must be 1..3, got {len(ls)}")
        object.__setattr__(self, "lengths", ls)

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def periodic(self) -> bool:
        return False


class Interval(Box):
    """The open interval (0, length): the one-axis Box, refused by its own name."""

    def __init__(self, length):
        if _length(length) is None:
            raise ConfigError(f"interval length must be a positive finite number, got {length!r}")
        super().__init__((length,))

    @property
    def length(self) -> float:
        return self.lengths[0]


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


DomainSpec = Union[Box, Torus]


# ---------------------------------------------------------------------------
# mode indices and eigenpairs


@dataclass(frozen=True)
class ModeIndex:
    """Multi-index of a mode; `polarization` is 0 except for Stokes eigenpairs,
    where it runs 1..d-1 and selects a tangential basis vector of k-perp."""

    k: tuple
    polarization: int = 0

    def __post_init__(self):
        k = tuple(self.k) if np.iterable(self.k) else (self.k,)
        if not all(isinstance(v, (int, np.integer)) for v in (*k, self.polarization)):
            raise ConfigError(f"mode index {self.k!r} (polarization {self.polarization!r}) must hold integers")
        object.__setattr__(self, "k", tuple(int(v) for v in k))
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


class _Operator:
    """What the operators share: the dimension of their domain and the check
    of one mode index."""

    @property
    def dim(self) -> int:
        return self.domain.dim

    def validate_index(self, idx: ModeIndex):
        """Raise ConfigError unless a field of this operator may carry idx
        (a Stokes field also carries its k = 0 mean, polarization 0)."""
        _check_modes(self, [idx])


@dataclass(frozen=True)
class DirichletLaplacian(_Operator):
    """-Laplace with zero boundary values on an interval or box."""

    domain: Box

    def __post_init__(self):
        if not isinstance(self.domain, Box):
            raise ConfigError("DirichletLaplacian needs an Interval or Box domain")

    def eigenvalue(self, k) -> float:
        lam = 0.0  # summed from the left as `_eigenvalues` does; the builtin sum is compensated from Python 3.12
        for ki, L in zip(k.k if isinstance(k, ModeIndex) else k, self.domain.lengths):
            lam += (ki * math.pi / L) ** 2
        return float(lam)

    def lambda_min(self) -> float:
        """Smallest eigenvalue (all-ones multi-index)."""
        return self.eigenvalue(tuple(1 for _ in self.domain.lengths))


@dataclass(frozen=True)
class _TorusOperator(_Operator):
    """What the torus operators share: a Torus domain and the spectrum |k|^2."""

    domain: Torus

    def __post_init__(self):
        if not isinstance(self.domain, Torus):
            raise ConfigError(f"{type(self).__name__} needs a Torus domain")

    def eigenvalue(self, k) -> float:
        ks = k.k if isinstance(k, ModeIndex) else k
        return float(sum(ki * ki for ki in ks))

    def lambda_min(self) -> float:
        """Smallest positive eigenvalue (the k=0 mode sits outside the scale)."""
        return 1.0


class TorusLaplacian(_TorusOperator):
    """-Laplace on the torus (scalar fields, or vectors componentwise)."""


class TorusStokes(_TorusOperator):
    """Stokes operator on the torus: -Laplace restricted to divergence-free
    vector fields with zero mean.  Requires d >= 2."""

    def __post_init__(self):
        super().__post_init__()
        if self.domain.dim < 2:
            raise ConfigError("TorusStokes requires dimension >= 2")


OperatorSpec = Union[DirichletLaplacian, TorusLaplacian, TorusStokes]


# ---------------------------------------------------------------------------
# the mode-index rules, on (k, pol) rows

# largest |k| per axis: sums of d <= 3 squares stay exact in int64
_MAX_AXIS_INDEX = 2**30


def _index_rules(operator: OperatorSpec, k: np.ndarray, pol: np.ndarray, eigenmode: bool = False) -> list:
    """The rules every mode index (k, pol) of `operator` obeys, as (row mask,
    message) pairs over the rows of k (M, d') and pol (M,), in the order they
    are reported; {k} and {pol} in a message name the row.  A Stokes field
    carries vector amplitudes (pol 0) at any k, its k = 0 mean included;
    eigenmode=True asks for an eigenfunction, whose Stokes pol is 1..d-1."""
    d, bound = operator.dim, _MAX_AXIS_INDEX
    rules = [
        (np.full(pol.shape, k.shape[1] != d), f"mode index {{k}} has dimension {k.shape[1]}, operator has {d}"),
        (((k < -bound) | (k > bound)).any(axis=1), f"mode index {{k}} exceeds {bound} on some axis"),
    ]
    if isinstance(operator, DirichletLaplacian):
        rules.append(((k < 1).any(axis=1), "Dirichlet mode indices must be >= 1 per axis, got {k}"))
    if not isinstance(operator, TorusStokes):
        return rules + [(pol != 0, "scalar operator modes carry no polarization")]
    rules += [
        ((pol < 0) | (pol > d - 1), f"polarization must lie in 0..{d - 1} (0 = vector amplitude), got {{pol}}"),
        ((k == 0).all(axis=1) & (pol != 0), "the Stokes operator has no k=0 eigenmode"),
    ]
    if eigenmode:
        rules.append((pol < 1, f"Stokes polarization must be in 1..{d - 1}, got {{pol}}"))
    return rules


def _raise_first(checks: list, k: np.ndarray, pol: np.ndarray, first_line=None) -> None:
    """Raise ConfigError for the first row that any (row mask, message) check
    flags, with the message of that row's first failing check.  Rows read
    from a file whose first row is line `first_line` are named 'line N: '."""
    bad = np.zeros(pol.shape, dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if not bad.any():
        return
    i = int(np.argmax(bad))
    msg = next(msg for mask, msg in checks if mask[i]).format(k=tuple(k[i].tolist()), pol=int(pol[i]))
    raise ConfigError(msg if first_line is None else f"line {first_line + i}: {msg}")


def _fits(idx: ModeIndex, d: int) -> bool:
    """Whether int64 rows of dimension d hold idx."""
    k = idx.k
    return len(k) == d and -(2**63) <= min(k) and max(k) < 2**63 and -(2**63) <= idx.polarization < 2**63


def _index_arrays(modes: list, d: int) -> tuple:
    """k (M, d) and pol (M,) int64 arrays of modes (ModeIndex) that `_fits`."""
    k = np.array([idx.k for idx in modes], dtype=np.int64).reshape(len(modes), d)
    return k, np.array([idx.polarization for idx in modes], dtype=np.int64)


def _lone_row(idx: ModeIndex) -> tuple:
    """idx as k (1, idx.dim) and pol (1,) object arrays of Python ints, for a
    mode that does not `_fits`."""
    return np.array([idx.k], dtype=object), np.array([idx.polarization], dtype=object)


def _check_modes(operator: OperatorSpec, modes: list, eigenmode: bool = False) -> tuple:
    """k (M, d) and pol (M,) int64 arrays of `modes` (ModeIndex) that obey the
    index rules of `operator`; else the ConfigError of the first that breaks
    one.  The rows end at the first mode no int64 row holds, which breaks the
    dimension, the bound or the polarization rule on its own."""
    d = operator.dim
    n = next((i for i, idx in enumerate(modes) if not _fits(idx, d)), len(modes))
    rows = [_index_arrays(modes[:n], d)]
    if n < len(modes):
        rows.append(_lone_row(modes[n]))
    for k, pol in rows:
        _raise_first(_index_rules(operator, k, pol, eigenmode), k, pol)
    return rows[0]


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


def _grid_phases(n: int, k: np.ndarray) -> np.ndarray:
    """The torus axis factor e^{ikx} at x_j = 2 pi j / n, one row per entry of
    the integer array k: the n-th root of unity at the exact integer
    (j k) mod n, so every entry stays at roundoff however large j k is."""
    roots = np.exp(1j * ((2.0 * math.pi / n) * np.arange(n)))
    return roots[_mod((k[:, None] % n) * np.arange(n), n)]


def _mod(a: np.ndarray, n: int) -> np.ndarray:
    """a mod n for an integer array a and an int n > 0, as a - (a // n) n:
    numpy divides by a scalar with a multiply and shift for //, not for %,
    so this takes about half the time of a % n."""
    return a - a // n * n


def _re_im_rows(t: np.ndarray) -> np.ndarray:
    """The rows [Re t_i; -Im t_i] of a complex table t, shape (rows, 2, points):
    with h viewed as float (Re, Im) pairs, Re(h @ t) is one real product."""
    return np.stack((t.real, -t.imag), axis=1)


def _as_points(points, d: int) -> np.ndarray:
    """points as an (n, d) float array; a 1-D array is n points if d = 1, else one point."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if d == 1 else pts.reshape(1, -1)
    if pts.shape[1] != d:
        raise ConfigError(f"points must have shape (n, {d})")
    return pts


def _mode_product(operator: OperatorSpec, k, coords) -> np.ndarray:
    """The product of the axis factors of index k at the points whose
    coordinate on each axis a is coords[a]."""
    return math.prod(_axis_factors(operator, a, ki, x) for a, (ki, x) in enumerate(zip(k, coords)))


def mode_evaluator(operator: OperatorSpec, index: ModeIndex) -> Callable:
    """Point evaluator for one eigenfunction of `operator`."""
    if not isinstance(operator, (DirichletLaplacian, _TorusOperator)):
        raise ConfigError(f"unknown operator {operator!r}")
    _check_modes(operator, [index], eigenmode=True)
    d = operator.dim
    stokes = isinstance(operator, TorusStokes)
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
    if not 0 < lambda_max <= sys.float_info.max:
        raise ConfigError(f"lambda_max must be positive and finite, got {lambda_max!r}")
    stokes = isinstance(operator, TorusStokes)
    if isinstance(operator, DirichletLaplacian):
        # one past the floor: L sqrt(lambda)/pi can round to just below an
        # index whose eigenvalue is exactly lambda_max; the mask decides
        reach = [L * math.sqrt(lambda_max) / math.pi for L in operator.domain.lengths]
        if operator.lambda_min() > lambda_max:  # no mode: allocate no box, however long one axis
            shape = (0,) * operator.dim
        elif all(map(math.isfinite, reach)):
            shape = tuple(math.floor(r) + 1 for r in reach)
        else:  # an axis reaches past every double, so the box is past any cap
            raise ResourceLimitError(
                f"mode enumeration would produce more than {sys.float_info.max:.3g} modes, over the cap of {cap}"
            )
        low = 1
    elif isinstance(operator, _TorusOperator):
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
