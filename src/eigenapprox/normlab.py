"""Experiment harness: empirical L^p operator-norm lower bounds, convergence
studies, the spherical-vs-cubic truncation trend, and a Sobolev surrogate
comparison for fractional norms on an interval.

Everything is seeded and deterministic; results come back as NormReport rows
ready for CSV.  A `_Family` prepares once what depends only on the modes a
sampled family shares: the L^p grid and weights, one synthesis table set,
the ascent's representatives and mirrors, and each field's L^p norm.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .approx import (
    _apply_multiplier,
    _factors,
    _scaled,
    fractional_norm,
    pi_theta,
    pi_theta_error_norm,
    semigroup_apply,
    semigroup_error_norm,
)
from .domains import (
    DEFAULT_MODE_CAP,
    DirichletLaplacian,
    ModeIndex,
    OperatorSpec,
    Torus,
    TorusLaplacian,
    TorusStokes,
    _check_cap,
    _mode_table,
    _re_im_rows,
    _representative_rows,
)
from .errors import AccuracyError, ConfigError, ResourceLimitError
from .fields import (
    GridField,
    SpectralField,
    _Packed,
    _apply_tables,
    _axis_weights,
    _mirror_rows,
    _synthesis_tables,
    analyze,
    divergence_residual,
    lp_norm,
    random_field,
    subtract,
    synthesize,
    uniform_axes,
)
from .reports import NormReport

FAMILIES = ("random-smooth", "boundary-bump", "near-extremal")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the sampled-field experiments; a fixed seed makes every
    derived quantity reproducible."""

    operator: OperatorSpec
    lambda_max: float = 64.0
    family: str = "random-smooth"
    n_samples: int = 8
    seed: int = 0
    ascent_iters: int = 200

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n_samples < 1:
            raise ConfigError("need at least one sample")
        if not 0 < self.lambda_max <= sys.float_info.max:
            raise ConfigError(f"lambda_max must be positive and finite, got {self.lambda_max!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.ascent_iters < 0:
            raise ConfigError(f"ascent_iters must be >= 0, got {self.ascent_iters}")


# ---------------------------------------------------------------------------
# field families

# Cephes j1 (S. L. Moshier, Cephes Math Library), the algorithm scipy.special.j1
# runs; RQ and QQ carry the leading 1 that Cephes p1evl leaves implicit, and
# 1.0*z + c is z + c exactly
_J1_RP = (-8.99971225705559398224E8, 4.52228297998194034323E11, -7.27494245221818276015E13, 3.68295732863852883286E15)
_J1_RQ = (
    1.0, 6.20836478118054335476E2, 2.56987256757748830383E5, 8.35146791431949253037E7, 2.21511595479792499675E10,
    4.74914122079991414898E12, 7.84369607876235854894E14, 8.95222336184627338078E16, 5.32278620332680085395E18,
)
_J1_PP = (
    7.62125616208173112003E-4, 7.31397056940917570436E-2, 1.12719608129684925192E0, 5.11207951146807644818E0,
    8.42404590141772420927E0, 5.21451598682361504063E0, 1.00000000000000000254E0,
)
_J1_PQ = (
    5.71323128072548699714E-4, 6.88455908754495404082E-2, 1.10514232634061696926E0, 5.07386386128601488557E0,
    8.39985554327604159757E0, 5.20982848682361821619E0, 9.99999999999999997461E-1,
)
_J1_QP = (
    5.10862594750176621635E-2, 4.98213872951233449420E0, 7.58238284132545283818E1, 3.66779609360150777800E2,
    7.10856304998926107277E2, 5.97489612400613639965E2, 2.11688757100572135698E2, 2.52070205858023719784E1,
)
_J1_QQ = (
    1.0, 7.42373277035675149943E1, 1.05644886038262816351E3, 4.98641058337653607651E3, 9.56231892404756170795E3,
    7.99704160447350683650E3, 2.82619278517639096600E3, 3.36093607810698293419E2,
)
_J1_Z1, _J1_Z2 = 1.46819706421238932572E1, 4.92184563216946036703E1
_J1_THPIO4, _J1_SQ2OPI = 2.35619449019234492885, 7.9788456080286535587989E-1


def _polevl(z, c):
    """Horner's rule from c[0] (Cephes polevl)."""
    r = c[0]
    for a in c[1:]:
        r = r * z + a
    return r


def _j1(x: np.ndarray) -> np.ndarray:
    """Bessel J1 at x >= 0, bit for bit scipy.special.j1: its Cephes
    algorithm in the same order of operations.  The arithmetic and sqrt are
    numpy's, exact per operation; cos and sin are `math`'s, the libm the
    compiled Cephes calls."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x <= 5.0
    xs = x[near]
    z = xs * xs
    w = _polevl(z, _J1_RP) / _polevl(z, _J1_RQ)
    out[near] = w * xs * (z - _J1_Z1) * (z - _J1_Z2)
    xs = x[~near]
    w = 5.0 / xs
    z = w * w
    p = _polevl(z, _J1_PP) / _polevl(z, _J1_PQ)
    q = _polevl(z, _J1_QP) / _polevl(z, _J1_QQ)
    xn = (xs - _J1_THPIO4).tolist()
    cos = np.array([math.cos(t) for t in xn])
    sin = np.array([math.sin(t) for t in xn])
    out[~near] = (p * cos - w * q * sin) * _J1_SQ2OPI / np.sqrt(xs)
    return out


def _near_extremal_coeffs(kmax: int, rng: np.random.Generator, n: int) -> list:
    """n band-limited smoothed disc indicators on the 2-torus, on the modes
    0 < |k| <= kmax in (k1, k2) order; the fields share their k and pol.

    The transform of a disc indicator of radius R is R*J1(|k|R)/|k| up to
    constants; a Gaussian damp keeps it smooth and a seeded multiplicative
    roughening (conjugate-symmetric) gives family variety.  The transform,
    damp and phase are computed once for the family; each field then draws
    its roughening, in field order, so n fields drawn at once are n single
    draws from the same generator.  J1 is `_j1`, the local Cephes port
    with libm's cos and sin, evaluated once per distinct |k|R (504 of the
    5,024 modes at kmax 40).
    """
    R = 1.2
    x0 = (math.pi, math.pi)
    sigma = 2.0 / kmax
    axis = np.arange(-kmax, kmax + 1)
    k = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    k2 = np.sum(k * k, axis=1)
    # symmetric about the omitted origin: the mirror of row i is row m - 1 - i
    k = k[(k2 > 0) & (k2 <= kmax * kmax)]
    kn = np.hypot(k[:, 0], k[:, 1])
    arg, place = np.unique(kn * R, return_inverse=True)
    base = R * _j1(arg)[place] / (2.0 * math.pi * kn)
    phase = -(k[:, 0] * x0[0] + k[:, 1] * x0[1])
    smooth = base * np.exp(-0.5 * (sigma * kn) ** 2) * (np.cos(phase) + 1j * np.sin(phase))
    pol = np.zeros(k.shape[0], dtype=np.int64)
    half = k.shape[0] // 2
    out = []
    for _ in range(n):
        # one (re, im) pair of draws per mode that sorts before its mirror, in order
        c = smooth.copy()
        c[:half] *= 1.0 + 0.05 * rng.standard_normal(2 * half).view(complex)
        c[half:] = np.conj(c[:half][::-1])
        out.append(_Packed(k, pol, c))
    return out


def sample_fields(config: ExperimentConfig) -> list:
    """The seeded test-function family for this config."""
    rng = np.random.default_rng(config.seed)
    op = config.operator
    fields = []
    if config.family == "random-smooth":
        for _ in range(config.n_samples):
            fields.append(random_field(op, config.lambda_max, rng, decay=1.5))
    elif config.family == "boundary-bump":
        if not isinstance(op, DirichletLaplacian):
            raise ConfigError("the boundary-bump family lives on Dirichlet domains")
        k, pol, _ = _mode_table(op, config.lambda_max)
        if not k.size:
            raise ConfigError(f"the boundary-bump family has no eigenvalue <= lambda_max {config.lambda_max!r}")
        kmax = int(k.max())
        modes = ModeIndex._from_rows(k, pol)
        axes = uniform_axes(op.domain, 4 * kmax)
        for _ in range(config.n_samples):
            centers = [L * (0.12 + 0.1 * rng.random()) for L in op.domain.lengths]
            widths = [L * (0.05 + 0.05 * rng.random()) for L in op.domain.lengths]
            bumps = [np.exp(-((x - c) ** 2) / wdt**2) for x, c, wdt in zip(axes, centers, widths)]
            g = GridField(op.domain, axes, functools.reduce(np.multiply.outer, bumps))
            fields.append(analyze(g, modes, op, check=False))
    else:  # near-extremal
        if not (isinstance(op, TorusLaplacian) and op.dim == 2):
            raise ConfigError("the near-extremal family lives on the 2-torus")
        kmax = int(math.floor(math.sqrt(config.lambda_max)))
        if kmax < 1:
            raise ConfigError(f"the near-extremal family has no eigenvalue <= lambda_max {config.lambda_max!r}")
        _check_cap((2 * kmax + 1) ** 2, DEFAULT_MODE_CAP)  # the (k1, k2) box, before it exists
        fields = [SpectralField(op, c) for c in _near_extremal_coeffs(kmax, rng, config.n_samples)]
    if all(f.l2() == 0.0 for f in fields):
        raise ConfigError("degenerate family: every sampled field is zero")
    return fields


# ---------------------------------------------------------------------------
# named diagonal transforms and L^p ratios

def apply_named_transform(f: SpectralField, name: str, param=None) -> SpectralField:
    return f if name == "identity" else _apply_multiplier(f, name, param)


def _lp_grid_resolution(f: SpectralField, p: float) -> int:
    """Subintervals/pixels per axis so the quadrature of |u|^p is exact for
    even integer p (integrand band-limited by ceil(p)*k_max) and trustworthy
    otherwise.  Below p = 2 the grid is the p = 2 grid, which still holds
    the field itself (synthesize needs 2*k_max + 1 points); p = inf has no
    grid that makes the sup norm exact, so only finite p >= 1 is sized, and
    a grid numpy cannot address is refused before it is allocated."""
    if not 1.0 <= p < math.inf:
        raise ConfigError(f"a grid-sized L^p norm needs finite p >= 1, got p = {p}")
    kmax = max(f.max_axis_index(), 1)
    n = max(int(math.ceil(p)), 2) * kmax + 2
    n += n % 2
    points = n if f.operator.domain.periodic else n + 1
    if points**f.dim * 8 > np.iinfo(np.intp).max:
        raise ResourceLimitError(
            f"the L^p grid at p = {p:g}, k_max = {kmax} needs {Decimal(points):.3g} points per axis: too many for numpy"
        )
    return n


def lp_ratio(f: SpectralField, name: str, param, p: float) -> float:
    """|| T f ||_p / || f ||_p on a grid sized for the integrand."""
    res = _lp_grid_resolution(f, p)
    denom = lp_norm(synthesize(f, res), p)
    if denom == 0.0:
        raise ConfigError("zero field has no L^p ratio")
    num = lp_norm(synthesize(apply_named_transform(f, name, param), res), p)
    return num / denom


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array starting on a 64-byte boundary.  numpy
    aligns its allocations to 16 bytes only, and with AVX-512 a ufunc into a
    misaligned grid the size of `truncate`'s takes up to twice as long."""
    n = math.prod(shape)
    raw = np.empty(n + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + n].reshape(shape)


class _Family:
    """A sampled scalar family's nonzero fields and what their shared (k, pol)
    alone fix, for every transform measured on it: the grid `_lp_grid_resolution`
    sizes with its axes and weights, `tables`, `reps` in (k, pol) order with
    their `mirror`, each field's grid in `grids` and L^p norm in `norms`.
    `norm` is the module's one L^p quadrature.

    The family also runs the coordinate ascent, one at a time: `start` puts
    a field's coefficients in `values` and the real grids of f and Tf in `g`
    and `gT`, and `move` updates them a move at a time.  Scaling a
    representative mode moves its conjugate partner too, so the field stays
    real and each move adds a rank-two real update dg, one BLAS product, to
    both grids rather than a full resynthesis.  A move writes g + dg, and
    Tf's grid plus the factor times dg when the transform keeps the mode,
    into candidate buffers; an accepted move swaps them in, so a rejected
    one leaves g, gT and the coefficients as they were."""

    def __init__(self, fields: list, p: float):
        if any(f.is_vector for f in fields):
            raise ConfigError("coordinate ascent operates on scalar fields")
        f = fields[0]
        for i, g in enumerate(fields):
            if not (np.array_equal(g.k, f.k) and np.array_equal(g.pol, f.pol)):
                raise ConfigError(f"family field {i} does not have the modes (k, pol) of field 0")
        self.fields = [g for g in fields if g.l2() > 0.0]
        if not self.fields:
            raise ConfigError("degenerate family: every sampled field is zero")
        self.operator, self.k, self.pol, self.p = f.operator, f.k, f.pol, float(p)
        self.res = _lp_grid_resolution(f, p)
        self.axes = uniform_axes(f.operator.domain, self.res)
        *w_head, self.w_last = _axis_weights(f.operator.domain, self.axes)
        self.w_head = functools.reduce(np.multiply.outer, w_head, np.ones(1)).reshape(-1)
        self.tables = _synthesis_tables(f.operator, f.k, self.axes)
        self.last_rows = _re_im_rows(self.tables[-1][0])  # [Re; -Im] of the last axis's factors
        reps = np.flatnonzero(_representative_rows(f.k))
        self.reps = reps[np.lexsort((f.pol[reps],) + tuple(f.k[reps, a] for a in reversed(range(f.dim))))]
        if not self.reps.size:
            raise ConfigError("ascent needs at least one representative mode")
        self.mirror = None if isinstance(f.operator, DirichletLaplacian) else _mirror_rows(f.k, f.pol)
        if self.mirror is not None and np.any(self.mirror[self.reps] < 0):
            raise ConfigError("ascent needs a conjugate-symmetric (real) torus field")
        shape = tuple(a.size for a in self.axes)
        self._buf = _aligned_empty(shape)
        self.grids = [_apply_tables(self.operator, self.tables, self.k, g.values) for g in self.fields]
        self.norms = [self.norm(g) for g in self.grids]
        # the ascent's grids of f and Tf and their candidates
        self.g, self.gT, self._next_g, self._next_gT = (_aligned_empty(shape) for _ in range(4))

    def norm(self, grid: np.ndarray) -> float:
        """The L^p norm of a real grid on the family's axes: (u u)^(p/2) times
        the last axis's weights, then the flattened product of the others'.
        At p = 4 the power is `np.square`, equal to pow(b, 2.0) bit for bit;
        on the 162^2 grid of `truncate`, one core of a 2-core x86-64 host, it
        takes about 8 us, `np.power(b, 2.0)` 15-24 us and p = 3's
        `np.power(b, 1.5)`, the generic `pow` any other p keeps, 90-110 us.
        The first square, u u, is `np.square` as well: the same bits as
        `np.multiply(u, u)`, in 5.7 us against 12.4 us on that grid."""
        np.square(grid, out=self._buf)
        if self.p == 4.0:
            np.square(self._buf, out=self._buf)
        else:
            np.power(self._buf, self.p / 2.0, out=self._buf)
        total = self.w_head @ (self._buf.reshape(self.w_head.size, -1) @ self.w_last)
        return float(total ** (1.0 / self.p))

    def start(self, i: int, factors: np.ndarray, gT: np.ndarray) -> None:
        """Start the ascent on field i with a copy of its coefficients and
        grid; gT, Tf's grid for these `factors` (NaN drops the mode), comes
        from the caller, who measured the ratio with it."""
        self.values = self.fields[i].values.copy()
        self.factors = factors
        np.copyto(self.g, self.grids[i])
        np.copyto(self.gT, gT)
        self._norm_g, self._norm_gT = self.norms[i], self.norm(self.gT)

    def ratio(self) -> float:
        return -math.inf if self._norm_g == 0.0 else self._norm_gT / self._norm_g

    def move(self, j: int, rel: float, floor: float) -> float:
        """Scale mode j (and its conjugate partner) by (1+rel) if that lifts
        the ratio above floor.  Returns the ratio of the scaled field; the
        ascent changes only when it beats floor."""
        i = self.reps[j]
        delta = complex(self.values[i]) * rel
        # a torus mode k != 0, which is not its own mirror, moves its
        # conjugate partner -k as well
        mirror = None if self.mirror is None or self.mirror[i] == i else self.mirror[i]
        two = 1.0 if mirror is None else 2.0
        # two Re(delta f_1 x ... x f_d): the head delta f_1 x ... x f_(d-1)
        # as [Re, Im] columns times the rows [Re f_d; -Im f_d]
        *head_tables, (_, last_place) = self.tables
        rest = [t[place[i]] for t, place in head_tables]
        head = np.asarray(functools.reduce(np.multiply.outer, rest, two * delta), dtype=complex)
        g = self._next_g  # dg, and g + dg once Tf's candidate has it
        last = self.last_rows[last_place[i]]
        np.matmul(head.reshape(-1, 1).view(float), last, out=g.reshape(self.w_head.size, -1))
        fac = self.factors[i]
        norm_gT = self._norm_gT
        moves_T = not (math.isnan(fac) or fac == 0.0)
        if moves_T:
            if fac == 1.0:
                np.add(g, self.gT, out=self._next_gT)
            else:
                np.multiply(g, fac, out=self._next_gT)
                self._next_gT += self.gT
            norm_gT = self.norm(self._next_gT)
        g += self.g
        norm_g = self.norm(g)
        r = -math.inf if norm_g == 0.0 else norm_gT / norm_g
        if r > floor:
            self.values[i] += delta
            if mirror is not None:
                self.values[mirror] = complex(self.values[i]).conjugate()
            self.g, self._next_g = g, self.g
            self._norm_g = norm_g
            if moves_T:
                self.gT, self._next_gT = self._next_gT, self.gT
                self._norm_gT = norm_gT
        return r


def operator_norm_lower_bound(name: str, p: float, config: ExperimentConfig, param=None):
    """Best measured || T f ||_p / || f ||_p over the family, improved by
    seeded coordinate ascent on the best field (multiplicative steps 10%
    decaying to 1%, fixed iteration count).  Returns (NormReport, field).
    """
    _check_ascent_p(p)
    return _lower_bound(_Family(sample_fields(config), p), name, p, config, param)


def _check_ascent_p(p: float) -> None:
    if not 1.0 < p <= sys.float_info.max:
        raise ConfigError(f"p must lie in (1, inf), got {p}")


def _lower_bound(family: _Family, name: str, p: float, config: ExperimentConfig, param):
    """operator_norm_lower_bound on a prepared family: one set of factors and
    one table set of the kept modes give every field's transform grid, and
    the ascent starts from the best ratio's field and grid."""
    factors = _factors(family.fields[0], name, param)
    kept = family.k[~np.isnan(factors)]
    tables = _synthesis_tables(family.operator, kept, family.axes)
    top = None  # (ratio, field index, grid of Tf); the first of equal ratios wins
    for i, (f, norm) in enumerate(zip(family.fields, family.norms)):
        gT = _apply_tables(family.operator, tables, kept, _scaled(f.values, factors)[1])
        ratio = family.norm(gT) / norm
        if top is None or ratio > top[0]:
            top = (ratio, i, gT)
    family.start(top[1], factors, top[2])
    best = family.ratio()
    rng = np.random.default_rng(config.seed + 1)
    iters = config.ascent_iters
    for i in range(iters):
        step = 0.10 * 0.1 ** (i / max(iters - 1, 1))  # 10% -> 1%
        j = int(rng.integers(len(family.reps)))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        best = max(best, family.move(j, sign * step, best))
    report = NormReport(
        quantity=f"{name}_Lp_ratio",
        value=best,
        reference=None,
        params={"transform": name, "param": param, "p": p, "n": param if name in ("spherical", "cubic") else None},
        meta={"seed": config.seed, "family": config.family, "samples": len(family.norms), "ascent_iters": iters,
              "grid": family.res},
    )
    return report, SpectralField(family.operator, _Packed(family.k, family.pol, family.values.copy()))


def truncation_experiment(
    n_list=(4, 8, 12, 16, 20, 24, 28, 32),
    p: float = 4.0,
    kmax: int = 40,
    seed: int = 0,
    n_samples: int = 4,
    ascent_iters: int = 200,
) -> list:
    """Spherical vs cubic truncation L^p ratio sequences on the 2-torus,
    measured on the near-extremal family.  Reported, not asserted."""
    if kmax < 1:
        raise ConfigError(f"kmax must be >= 1, got {kmax}")
    _check_cap((2 * kmax + 1) ** 2, DEFAULT_MODE_CAP)  # the family's box, before kmax^2 must fit a double
    config = ExperimentConfig(
        operator=TorusLaplacian(Torus(2)),
        lambda_max=float(kmax * kmax),
        family="near-extremal",
        n_samples=n_samples,
        seed=seed,
        ascent_iters=ascent_iters,
    )
    _check_ascent_p(p)
    family = _Family(sample_fields(config), p)  # seeded: the same family for every (transform, n)
    reports = []
    for name in ("spherical", "cubic"):
        for n in n_list:
            reports.append(_lower_bound(family, name, p, config, n)[0])
    return reports


# ---------------------------------------------------------------------------
# convergence studies


def _boundary_max(u: SpectralField) -> float:
    """Max |u| over boundary samples of a Dirichlet-domain field."""
    g = synthesize(u)
    worst = 0.0
    for ax in range(len(g.axes)):
        for edge in (0, -1):
            face = np.take(np.abs(g.values), edge, axis=ax)
            worst = max(worst, float(np.max(face, initial=0.0)))
    return worst


def convergence_study(f: SpectralField, method: str, norms, theta_grid) -> list:
    """Errors || u_theta - f ||_X per theta per norm tag X.

    Norm tags: ("DA", alpha) for the fractional-power norm, ("Lp", p) for the
    Lebesgue norm on a suitably fine grid.  Stokes fields keep zero divergence
    (asserted to 1e-12); Dirichlet fields keep exact boundary zeros.
    """
    if method not in ("semigroup", "pi_theta"):
        raise ConfigError(f"unknown method {method!r}")
    for tag in norms:
        if not (isinstance(tag, tuple) and len(tag) == 2 and tag[0] in ("DA", "Lp")):
            raise ConfigError(f"unknown norm tag {tag!r}; use ('DA', alpha) or ('Lp', p)")
    reports = []
    scale_ = max(1.0, f.l2())
    for theta in theta_grid:
        theta = float(theta)
        u = semigroup_apply(f, theta) if method == "semigroup" else pi_theta(f, theta)
        if isinstance(f.operator, TorusStokes):
            resid = divergence_residual(u)
            if resid > 1e-12 * scale_:
                raise AccuracyError(f"approximation broke the divergence-free constraint: residual {resid:.3e}")
        if isinstance(f.operator, DirichletLaplacian):
            b = _boundary_max(u)
            if b != 0.0:
                raise AccuracyError(f"approximation has nonzero boundary samples: {b:.3e}")
        for tag, exponent in norms:
            if tag == "DA":
                err = (
                    semigroup_error_norm(f, theta, exponent)
                    if method == "semigroup"
                    else pi_theta_error_norm(f, theta, exponent)
                )
            else:
                res = _lp_grid_resolution(f, exponent)
                err = lp_norm(synthesize(subtract(u, f), res), exponent)
            reports.append(
                NormReport(
                    quantity=f"{method}_error",
                    value=err,
                    reference=None,
                    params={"theta": theta, "space": tag, "exponent": exponent},
                    meta={},
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Sobolev surrogate on an interval


def _zero_extension_coeffs(f: SpectralField, m_cap: int) -> np.ndarray:
    """Fourier coefficients (m = -m_cap..m_cap) of the zero-extension of an
    interval field onto the circle of doubled period.

    Uses the closed forms  int_0^pi sin(k w) cos(m w) dw = k(1-(-1)^{k+m})/(k^2-m^2)
    (0 when |m| = k) and  int_0^pi sin(k w) sin(m w) dw = (pi/2) delta_{k,|m|} sgn(m).
    """
    L = f.operator.domain.lengths[0]
    ks, cs = f.k[:, 0], f.values
    ms = np.arange(-m_cap, m_cap + 1)
    K = ks[None, :].astype(float)
    M = ms[:, None].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = K * (1.0 - (-1.0) ** (ks[None, :] + ms[:, None])) / (K * K - M * M)
    A = np.where(np.abs(ks[None, :]) == np.abs(ms[:, None]), 0.0, A)
    B = np.where(ms[:, None] == ks[None, :], math.pi / 2.0, 0.0) - np.where(
        ms[:, None] == -ks[None, :], math.pi / 2.0, 0.0
    )
    # c_m = (1/2L) * sqrt(2/L) * (L/pi) * sum_k c_k (A - iB)
    pref = math.sqrt(2.0 / L) / (2.0 * math.pi)
    return pref * ((A - 1j * B) @ cs), ms


def sobolev_surrogate_norm(f: SpectralField, theta: float, m_cap: int = 4096) -> float:
    """Coefficient-side H^{2 theta} surrogate via extension by zero onto a
    torus of doubled period; theta = 0 and theta = 1/2 use the exact
    coefficient identities (l2 and gradient norms).  theta < 3/4 only."""
    if not isinstance(f.operator, DirichletLaplacian) or f.dim != 1:
        raise ConfigError("the Sobolev surrogate is implemented for interval fields")
    if not 0.0 <= theta < 0.75:
        msg = "the zero extension of a sine is not in H^(2 theta) from theta = 3/4 on, so the sum would grow with m_cap"
        raise ConfigError(f"theta must lie in [0, 3/4), got {theta}: {msg}")
    L = f.operator.domain.lengths[0]
    if theta in (0.0, 0.5):
        # the l2 norm, and || grad u || exact via Parseval for the cosine system
        return fractional_norm(f, theta)
    cm, ms = _zero_extension_coeffs(f, m_cap)
    kappa = np.abs(ms) * (math.pi / L)
    mask = ms != 0
    total = 2.0 * L * float(np.sum(kappa[mask] ** (4.0 * theta) * np.abs(cm[mask]) ** 2))
    return math.sqrt(total)


def sobolev_equivalence_study(theta_list, config: ExperimentConfig, m_cap: int = 4096) -> list:
    """Empirical equivalence-constant brackets surrogate/fractional per theta.

    Needs a family of at least 10 interval fields; reports min and max ratio
    (value = max, reference = min).  The quarter-order row is annotated as
    non-conclusive: the zero-extension surrogate is only justified away from
    that exceptional exponent.
    """
    if config.n_samples < 10:
        raise ConfigError("the equivalence study needs a family of at least 10 fields")
    fields = sample_fields(config)
    reports = []
    for theta in theta_list:
        theta = float(theta)
        ratios = []
        for f in fields:
            denom = fractional_norm(f, theta)
            if denom == 0.0:
                continue
            ratios.append(sobolev_surrogate_norm(f, theta, m_cap) / denom)
        if not ratios:
            raise ConfigError("degenerate family: no usable fields")
        note = "non-conclusive at the exceptional quarter exponent" if abs(theta - 0.25) < 1e-12 else ""
        reports.append(
            NormReport(
                quantity="sobolev_ratio_bracket",
                value=max(ratios),
                reference=min(ratios),
                params={"theta": theta},
                meta={"samples": len(ratios), "m_cap": m_cap, "note": note},
            )
        )
    return reports
