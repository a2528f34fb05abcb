"""Experiment harness: empirical L^p operator-norm lower bounds, convergence
studies, the spherical-vs-cubic truncation trend, and a Sobolev surrogate
comparison for fractional norms on an interval.

Everything is seeded and deterministic; results come back as NormReport rows
ready for CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j1

from .approx import (
    cubic_truncate,
    fractional_norm,
    multiplier,
    pi_theta,
    pi_theta_error_norm,
    semigroup_apply,
    semigroup_error_norm,
    spherical_truncate,
)
from .domains import (
    DirichletLaplacian,
    OperatorSpec,
    Torus,
    TorusLaplacian,
    TorusStokes,
    _representative_rows,
)
from .errors import AccuracyError, ConfigError
from .fields import (
    GridField,
    SpectralField,
    _mirror_rows,
    _mode_on_grid,
    _Packed,
    divergence_residual,
    lp_norm,
    quadrature_weights,
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
    theta_grid: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    p_list: tuple = (4.0,)
    n_samples: int = 8
    seed: int = 0
    ascent_iters: int = 200

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n_samples < 1:
            raise ConfigError("need at least one sample")
        if not self.lambda_max > 0:
            raise ConfigError("lambda_max must be positive")


# ---------------------------------------------------------------------------
# field families


def _near_extremal_coeffs(kmax: int, rng: np.random.Generator) -> _Packed:
    """Band-limited smoothed disc indicator on the 2-torus, on the modes
    0 < |k| <= kmax in (k1, k2) order.

    The transform of a disc indicator of radius R is R*J1(|k|R)/|k| up to
    constants; a Gaussian damp keeps it smooth and a seeded multiplicative
    roughening (conjugate-symmetric) gives family variety.
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
    base = R * j1(kn * R) / (2.0 * math.pi * kn)
    phase = -(k[:, 0] * x0[0] + k[:, 1] * x0[1])
    c = base * np.exp(-0.5 * (sigma * kn) ** 2) * (np.cos(phase) + 1j * np.sin(phase))
    # one (re, im) pair of draws per mode that sorts before its mirror, in order
    half = k.shape[0] // 2
    c[:half] *= 1.0 + 0.05 * rng.standard_normal(2 * half).view(complex)
    c[half:] = np.conj(c[:half][::-1])
    return _Packed(k, np.zeros(k.shape[0], dtype=np.int64), c)


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
        from .domains import enumerate_modes
        from .fields import analyze

        pairs = enumerate_modes(op, config.lambda_max)
        kmax = max(max(p.index.k) for p in pairs)
        axes = uniform_axes(op.domain, 4 * kmax)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        shape = tuple(a.size for a in axes)
        for _ in range(config.n_samples):
            centers = [L * (0.12 + 0.1 * rng.random()) for L in op.domain.lengths]
            widths = [L * (0.05 + 0.05 * rng.random()) for L in op.domain.lengths]
            v = np.ones(pts.shape[0])
            for i, (c, wdt) in enumerate(zip(centers, widths)):
                v = v * np.exp(-((pts[:, i] - c) ** 2) / wdt**2)
            g = GridField(op.domain, axes, v.reshape(shape))
            fields.append(analyze(g, pairs, op, check=False))
    else:  # near-extremal
        if not (isinstance(op, TorusLaplacian) and op.dim == 2):
            raise ConfigError("the near-extremal family lives on the 2-torus")
        kmax = int(math.floor(math.sqrt(config.lambda_max)))
        for _ in range(config.n_samples):
            fields.append(SpectralField(op, _near_extremal_coeffs(kmax, rng)))
    if all(f.l2() == 0.0 for f in fields):
        raise ConfigError("degenerate family: every sampled field is zero")
    return fields


# ---------------------------------------------------------------------------
# named diagonal transforms and L^p ratios

TRANSFORMS = ("identity", "semigroup", "pi_theta", "spherical", "cubic")


def apply_named_transform(f: SpectralField, name: str, param=None) -> SpectralField:
    if name == "identity":
        return f
    if name == "semigroup":
        return semigroup_apply(f, float(param))
    if name == "pi_theta":
        return pi_theta(f, float(param))
    if name == "spherical":
        return spherical_truncate(f, int(param))
    if name == "cubic":
        return cubic_truncate(f, int(param))
    raise ConfigError(f"unknown transform {name!r}; choose from {TRANSFORMS}")


def _lp_grid_resolution(f: SpectralField, p: float) -> int:
    """Subintervals/pixels per axis so the quadrature of |u|^p is exact for
    even integer p (integrand band-limited by ceil(p)*k_max) and trustworthy
    otherwise."""
    kmax = max(f.max_axis_index(), 1)
    n = int(math.ceil(p)) * kmax + 2
    return n + (n % 2)


def lp_ratio(f: SpectralField, name: str, param, p: float) -> float:
    """|| T f ||_p / || f ||_p on a grid sized for the integrand."""
    res = _lp_grid_resolution(f, p)
    denom = lp_norm(synthesize(f, res), p)
    if denom == 0.0:
        raise ConfigError("zero field has no L^p ratio")
    num = lp_norm(synthesize(apply_named_transform(f, name, param), res), p)
    return num / denom


class _AscentState:
    """Incrementally maintained real grids of f and Tf for coordinate ascent.

    Perturbing a representative mode moves its conjugate partner too, so the
    field stays real and each move is a rank-one grid update rather than a
    full resynthesis.  Scalar fields only.
    """

    def __init__(self, f: SpectralField, name: str, param, p: float):
        if f.is_vector:
            raise ConfigError("coordinate ascent operates on scalar fields")
        self.operator = f.operator
        self.dirichlet = isinstance(f.operator, DirichletLaplacian)
        self.p = float(p)
        self.factor = multiplier(name, param)
        self.res = _lp_grid_resolution(f, p)
        self.domain = f.operator.domain
        self.axes = uniform_axes(self.domain, self.res)
        shape = tuple(a.size for a in self.axes)
        self.weights = quadrature_weights(GridField(self.domain, self.axes, np.zeros(shape)))
        self.k, self.pol = f.k, f.pol
        self.values = f.values.copy()
        self.lams = f._eigenvalue_array()
        # representatives in (k, polarization) order
        reps = np.flatnonzero(_representative_rows(f.k))
        self.reps = reps[np.lexsort((f.pol[reps],) + tuple(f.k[reps, a] for a in reversed(range(f.dim))))]
        if not self.reps.size:
            raise ConfigError("ascent needs at least one representative mode")
        self.mirror = None if self.dirichlet else _mirror_rows(f.k, f.pol)
        if self.mirror is not None and np.any(self.mirror[self.reps] < 0):
            raise ConfigError("ascent needs a conjugate-symmetric (real) torus field")
        self.g = synthesize(f, self.res).values.real.copy()
        self.gT = synthesize(apply_named_transform(f, name, param), self.res).values.real.copy()

    def field(self) -> SpectralField:
        """The current coefficients as a field."""
        return SpectralField(self.operator, self.coeffs)

    @property
    def coeffs(self) -> _Packed:
        """A copy of the current modes, accepted by SpectralField."""
        return _Packed(self.k, self.pol, self.values.copy())

    def norm(self, grid: np.ndarray) -> float:
        return float(np.sum(self.weights * np.abs(grid) ** self.p) ** (1.0 / self.p))

    def ratio(self) -> float:
        d = self.norm(self.g)
        if d == 0.0:
            return -math.inf
        return self.norm(self.gT) / d

    def perturb(self, j: int, rel: float):
        """Scale mode j (and its conjugate partner) by (1+rel); returns undo()."""
        i = self.reps[j]
        k = self.k[i]
        old = complex(self.values[i])
        delta = old * rel
        mode = _mode_on_grid(self.operator, k.tolist(), self.axes)
        # a torus mode k != 0 moves its conjugate partner -k as well
        mirror = None if self.dirichlet or not k.any() else self.mirror[i]
        two = 1.0 if mirror is None else 2.0
        dg = two * (delta * mode).real
        self.values[i] = old + delta
        if mirror is not None:
            self.values[mirror] = complex(self.values[i]).conjugate()
        lam = self.lams[i]
        fac = float(self.factor(k[None], np.array([lam]))[0]) if lam > 0.0 else 1.0
        dgT = None if math.isnan(fac) or fac == 0.0 else two * (fac * delta * mode).real
        self.g = self.g + dg
        if dgT is not None:
            self.gT = self.gT + dgT

        def undo():
            self.values[i] = old
            if mirror is not None:
                self.values[mirror] = old.conjugate()
            self.g = self.g - dg
            if dgT is not None:
                self.gT = self.gT - dgT

        return undo


def operator_norm_lower_bound(name: str, p: float, config: ExperimentConfig, param=None):
    """Best measured || T f ||_p / || f ||_p over the family, improved by
    seeded coordinate ascent on the best field (multiplicative steps 10%
    decaying to 1%, fixed iteration count).  Returns (NormReport, field).
    """
    _check_ascent_p(p)
    return _lower_bound(sample_fields(config), name, p, config, param)


def _check_ascent_p(p: float) -> None:
    if not 1.0 < p < math.inf:
        raise ConfigError(f"p must lie in (1, inf), got {p}")


def _lower_bound(family: list, name: str, p: float, config: ExperimentConfig, param):
    """operator_norm_lower_bound on an already sampled family."""
    fields = [f for f in family if f.l2() > 0.0]
    if not fields:
        raise ConfigError("degenerate family: every sampled field is zero")
    ratios = [lp_ratio(f, name, param, p) for f in fields]
    best_i = int(np.argmax(ratios))
    st = _AscentState(fields[best_i], name, param, p)
    best = st.ratio()
    rng = np.random.default_rng(config.seed + 1)
    iters = config.ascent_iters
    for i in range(iters):
        step = 0.10 * 0.1 ** (i / max(iters - 1, 1))  # 10% -> 1%
        j = int(rng.integers(len(st.reps)))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        undo = st.perturb(j, sign * step)
        r = st.ratio()
        if r > best:
            best = r
        else:
            undo()
    report = NormReport(
        quantity=f"{name}_Lp_ratio",
        value=best,
        reference=None,
        params={"transform": name, "param": param, "p": p, "n": param if name in ("spherical", "cubic") else None},
        meta={"seed": config.seed, "family": config.family, "samples": len(fields), "ascent_iters": iters, "grid": st.res},
    )
    return report, st.field()


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
    config = ExperimentConfig(
        operator=TorusLaplacian(Torus(2)),
        lambda_max=float(kmax * kmax),
        family="near-extremal",
        p_list=(p,),
        n_samples=n_samples,
        seed=seed,
        ascent_iters=ascent_iters,
    )
    _check_ascent_p(p)
    family = sample_fields(config)  # seeded: the same family for every (transform, n)
    reports = []
    for name in ("spherical", "cubic"):
        for n in n_list:
            rep, _ = _lower_bound(family, name, p, config, int(n))
            rep.params["n"] = int(n)
            reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# convergence studies


def _boundary_max(u: SpectralField) -> float:
    """Max |u| over boundary samples of a Dirichlet-domain field."""
    g = synthesize(u, max(8, 4 * max(u.max_axis_index(), 1)))
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
    L = f.operator.domain.length
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
    coefficient identities (l2 and gradient norms)."""
    if not isinstance(f.operator, DirichletLaplacian) or f.dim != 1:
        raise ConfigError("the Sobolev surrogate is implemented for interval fields")
    if not 0.0 <= theta < 1.0:
        raise ConfigError(f"theta must lie in [0,1), got {theta}")
    L = f.operator.domain.length
    if theta == 0.0:
        return f.l2()
    if theta == 0.5:
        # || grad u ||: exact via Parseval for the cosine system, lambda_k |c_k|^2
        lams, amps = f.eigen_arrays()
        return math.sqrt(float(np.sum(lams * amps)))
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
