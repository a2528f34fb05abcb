import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j1

from eigenapprox import (
    AccuracyError,
    Box,
    ConfigError,
    DirichletLaplacian,
    ExperimentConfig,
    GridField,
    InterpolationQuery,
    Interval,
    ModeIndex,
    ResourceLimitError,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    apply_named_transform,
    convergence_study,
    enumerate_modes,
    lp_norm,
    lp_ratio,
    operator_norm_lower_bound,
    random_field,
    sample_fields,
    sobolev_equivalence_study,
    sobolev_surrogate_norm,
    synthesize,
    truncation_experiment,
)
from eigenapprox import fields, normlab
from eigenapprox.approx import MULTIPLIERS, _factors
from eigenapprox.fields import _Packed
from eigenapprox.normlab import (
    FAMILIES,
    _Family,
    _lower_bound,
    _lp_grid_resolution,
    _j1,
    _near_extremal_coeffs,
)


def _config(**kw):
    base = dict(
        operator=TorusLaplacian(Torus(2)),
        lambda_max=16.0,
        family="random-smooth",
        n_samples=4,
        seed=0,
        ascent_iters=40,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_identity_ratio_is_one():
    rng = np.random.default_rng(0)
    f = random_field(TorusLaplacian(Torus(2)), 10.0, rng, n_modes=6)
    assert lp_ratio(f, "identity", None, 4.0) == 1.0


def test_pi_theta_is_l2_contraction():
    rep, achieving = operator_norm_lower_bound("pi_theta", 2.0, _config(), param=0.5)
    assert 0.0 < rep.value <= 1.0 + 1e-12
    assert achieving.l2() > 0.0
    assert rep.params["p"] == 2.0


def test_lower_bound_never_below_plain_sampling():
    cfg = _config()
    plain = max(lp_ratio(f, "semigroup", 0.3, 4.0) for f in sample_fields(cfg))
    rep, _ = operator_norm_lower_bound("semigroup", 4.0, cfg, param=0.3)
    assert rep.value >= plain - 1e-12


def test_lower_bound_deterministic():
    a, _ = operator_norm_lower_bound("cubic", 4.0, _config(), param=2)
    b, _ = operator_norm_lower_bound("cubic", 4.0, _config(), param=2)
    assert a.value == b.value
    assert a.meta["seed"] == 0


def test_degenerate_family_rejected():
    # no Dirichlet eigenvalue lies below 1, so every sample is the zero field
    cfg = _config(operator=DirichletLaplacian(Interval(1.0)), lambda_max=1.0)
    with pytest.raises(ConfigError, match="degenerate"):
        sample_fields(cfg)


def test_family_domain_requirements():
    with pytest.raises(ConfigError):
        sample_fields(_config(family="boundary-bump"))  # torus operator
    with pytest.raises(ConfigError):
        ExperimentConfig(operator=TorusLaplacian(Torus(2)), family="no-such-family")
    with pytest.raises(ConfigError):
        sample_fields(_config(operator=TorusLaplacian(Torus(1)), family="near-extremal"))


@pytest.mark.parametrize("field, message", [("seed", "seed must be >= 0, got -1"), ("ascent_iters", "ascent_iters must be >= 0, got -1")])
def test_negative_seed_or_ascent_iters_is_refused(field, message):
    # a negative seed used to fail in numpy at sampling time, and negative
    # ascent_iters ran no ascent steps
    with pytest.raises(ConfigError, match=message):
        _config(**{field: -1})


def test_boundary_bump_below_the_first_eigenvalue_names_lambda_max():
    # the first Dirichlet eigenvalue on (0, 1) is pi^2
    with pytest.raises(ConfigError, match="boundary-bump family has no eigenvalue <= lambda_max 9.0"):
        sample_fields(_config(operator=DirichletLaplacian(Interval(1.0)), lambda_max=9.0, family="boundary-bump"))


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_lambda_max_is_refused_for_every_family(value):
    # the near-extremal family used to take int(floor(sqrt(inf))) and end in
    # a bare OverflowError
    for family in FAMILIES:
        with pytest.raises(ConfigError, match=f"lambda_max must be positive and finite, got {value!r}"):
            _config(lambda_max=value, family=family)


def test_near_extremal_meets_the_mode_cap_before_its_box_exists(monkeypatch):
    # kmax 10^6 used to ask meshgrid for 29.1 TiB
    monkeypatch.setattr(np, "meshgrid", None)
    with pytest.raises(ResourceLimitError, match="mode enumeration would produce 4000004000001 modes"):
        sample_fields(_config(lambda_max=1e12, family="near-extremal"))


def test_near_extremal_below_one_names_lambda_max():
    with pytest.raises(ConfigError, match="near-extremal family has no eigenvalue <= lambda_max 0.5"):
        sample_fields(_config(lambda_max=0.5, family="near-extremal"))


def test_named_transforms_mode_retention():
    op = TorusLaplacian(Torus(2))
    f = SpectralField(op, {(1, 0): 1.0 + 0j, (2, 2): 1.0 + 0j, (3, 0): 1.0 + 0j})
    sph = apply_named_transform(f, "spherical", 2)
    assert sorted(idx.k for idx in sph.coefficients) == [(1, 0)]  # |k|^2 <= 4 keeps (1,0) and (2,0)-type only
    cub = apply_named_transform(f, "cubic", 2)
    assert sorted(idx.k for idx in cub.coefficients) == [(1, 0), (2, 2)]
    with pytest.raises(ConfigError, match="unknown multiplier 'banded'"):
        apply_named_transform(f, "banded", 2)


def test_p_range_guard():
    with pytest.raises(ConfigError):
        operator_norm_lower_bound("identity", 1.0, _config())
    with pytest.raises(ConfigError):
        operator_norm_lower_bound("identity", math.inf, _config())


def test_convergence_study_semigroup():
    rng = np.random.default_rng(1)
    f = random_field(TorusLaplacian(Torus(2)), 30.0, rng, n_modes=8, include_mean=False)
    thetas = (0.5, 0.25, 0.125, 0.0625)
    reps = convergence_study(f, "semigroup", [("DA", 0.0), ("Lp", 2.0)], thetas)
    da = [r.value for r in reps if r.params["space"] == "DA"]
    lp = [r.value for r in reps if r.params["space"] == "Lp"]
    assert all(b < a for a, b in zip(da[:-1], da[1:]))  # halving theta shrinks the error
    # on the torus the L2 grid norm of the difference is the coefficient norm
    for a, b in zip(da, lp):
        assert a == pytest.approx(b, rel=1e-10)


def test_convergence_study_stokes_keeps_divergence_free():
    rng = np.random.default_rng(2)
    f = random_field(TorusStokes(Torus(2)), 20.0, rng, n_modes=6)
    reps = convergence_study(f, "pi_theta", [("DA", 0.5)], (0.4, 0.2, 0.1))
    assert len(reps) == 3
    assert all(r.value >= 0 for r in reps)


def test_convergence_study_dirichlet_boundary_stays_zero():
    rng = np.random.default_rng(3)
    f = random_field(DirichletLaplacian(Interval(1.0)), 400.0, rng, n_modes=6)
    reps = convergence_study(f, "pi_theta", [("DA", 0.0)], (0.3, 0.1))
    assert [r.params["theta"] for r in reps] == [0.3, 0.1]


def test_convergence_study_guards():
    rng = np.random.default_rng(4)
    f = random_field(TorusLaplacian(Torus(1)), 9.0, rng)
    with pytest.raises(ConfigError):
        convergence_study(f, "midpoint", [("DA", 0.0)], (0.5,))
    with pytest.raises(ConfigError):
        convergence_study(f, "semigroup", [("H", 1.0)], (0.5,))


@pytest.mark.parametrize("p", [1.0, 0.5, math.inf, math.nan])
def test_lp_grid_callers_size_p_one_and_name_a_p_without_a_grid(p):
    # p = 1 takes the p = 2 grid, which holds the field (k up to 4 needs 9
    # points); no grid makes the sup norm exact, and p < 1 or nan is no norm
    f = random_field(TorusLaplacian(Torus(2)), 20.0, np.random.default_rng(4))
    calls = (
        lambda: lp_ratio(f, "spherical", 2, p),
        lambda: convergence_study(f, "semigroup", [("Lp", p), ("DA", 0.0)], [0.1]),
    )
    if p != 1.0:
        for call in calls:
            with pytest.raises(ConfigError, match=f"p = {p}"):
                call()
        return
    assert _lp_grid_resolution(f, 1.0) == _lp_grid_resolution(f, 2.0)
    assert 0.0 < calls[0]() < math.inf
    l1, l2 = (r.value for r in calls[1]())
    assert 0.0 < l1 <= 2.0 * math.pi * l2  # Cauchy-Schwarz on the torus of area (2 pi)^2


def test_sobolev_half_power_identity():
    cfg = _config(
        operator=DirichletLaplacian(Interval(1.0)),
        lambda_max=900.0,
        n_samples=10,
    )
    reps = sobolev_equivalence_study([0.5], cfg)
    (rep,) = reps
    assert rep.value == pytest.approx(1.0, abs=1e-10)
    assert rep.reference == pytest.approx(1.0, abs=1e-10)


def test_sobolev_theta_zero_is_l2():
    rng = np.random.default_rng(5)
    f = random_field(DirichletLaplacian(Interval(1.0)), 400.0, rng, n_modes=5)
    assert sobolev_surrogate_norm(f, 0.0) == f.l2()


def test_sobolev_quarter_power_annotated():
    cfg = _config(operator=DirichletLaplacian(Interval(1.0)), lambda_max=900.0, n_samples=10)
    reps = sobolev_equivalence_study([0.25, 0.4], cfg, m_cap=512)
    assert "non-conclusive" in reps[0].meta["note"]
    assert reps[1].meta["note"] == ""
    # away from the exceptional exponent the bracket stays within fixed constants
    assert 0.1 < reps[1].reference <= reps[1].value < 10.0


def test_sobolev_surrogate_on_a_one_axis_box_is_the_interval_one():
    # the surrogate read the interval's `length`, which a Box((L,)) lacks
    interval, box = DirichletLaplacian(Interval(math.pi)), DirichletLaplacian(Box((math.pi,)))
    coeffs = random_field(interval, 400.0, np.random.default_rng(5), n_modes=6).coefficients
    f, g = SpectralField(interval, dict(coeffs)), SpectralField(box, dict(coeffs))
    for theta in (0.0, 0.3, 0.5, 0.7):
        assert sobolev_surrogate_norm(g, theta, m_cap=512) == sobolev_surrogate_norm(f, theta, m_cap=512)
    study = [
        sobolev_equivalence_study([0.3, 0.7], _config(operator=op, lambda_max=900.0, n_samples=10), m_cap=512)
        for op in (interval, box)
    ]
    assert [(r.value, r.reference) for r in study[0]] == [(r.value, r.reference) for r in study[1]]


@pytest.mark.parametrize("theta", [0.75, 0.8, 0.99])
def test_sobolev_surrogate_refuses_theta_from_three_quarters(theta):
    # the zero extension of a sine is not in H^(2 theta) there, so the sum
    # grew with m_cap (119.0, 126.0, 133.5 at theta = 0.8 for this field and
    # m_cap = 512, 1024, 2048) instead of converging
    f = random_field(DirichletLaplacian(Interval(1.0)), 400.0, np.random.default_rng(5), n_modes=6)
    message = r"^theta must lie in \[0, 3/4\), got .*: the zero extension of a sine is not in H\^\(2 theta\)"
    with pytest.raises(ConfigError, match=message):
        sobolev_surrogate_norm(f, theta, m_cap=512)
    cfg = _config(operator=DirichletLaplacian(Interval(1.0)), lambda_max=900.0, n_samples=10)
    with pytest.raises(ConfigError, match=message):
        sobolev_equivalence_study([0.5, theta], cfg, m_cap=512)


def test_sobolev_needs_ten_fields():
    cfg = _config(operator=DirichletLaplacian(Interval(1.0)), lambda_max=900.0, n_samples=9)
    with pytest.raises(ConfigError, match="10"):
        sobolev_equivalence_study([0.5], cfg)


def test_sobolev_surrogate_guards():
    rng = np.random.default_rng(6)
    torus_f = random_field(TorusLaplacian(Torus(1)), 9.0, rng)
    with pytest.raises(ConfigError):
        sobolev_surrogate_norm(torus_f, 0.5)
    f = random_field(DirichletLaplacian(Interval(1.0)), 400.0, rng)
    with pytest.raises(ConfigError):
        sobolev_surrogate_norm(f, 1.0)


def _near_extremal_oracle(kmax, rng):
    """The per-mode loop the vectorized family replaced."""
    R = 1.2
    x0 = (math.pi, math.pi)
    sigma = 2.0 / kmax
    out = {}
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            kn = math.hypot(k1, k2)
            if kn == 0.0 or kn > kmax:
                continue
            base = R * j1(kn * R) / (2.0 * math.pi * kn)
            phase = -(k1 * x0[0] + k2 * x0[1])
            c = base * math.exp(-0.5 * (sigma * kn) ** 2) * complex(math.cos(phase), math.sin(phase))
            out[(k1, k2)] = c
    for k in sorted(out):
        mk = (-k[0], -k[1])
        if mk < k:
            continue
        factor = 1.0 + 0.05 * complex(rng.standard_normal(), rng.standard_normal())
        out[k] = out[k] * factor
        if mk != k:
            out[mk] = out[k].conjugate()
    return out


def test_j1_is_scipy_bit_for_bit():
    five = [np.nextafter(5.0, -np.inf), 5.0, np.nextafter(5.0, np.inf)]  # where the branch switches
    for x in [np.linspace(0.0, 300.0, 300001), np.array(five), np.array([0.0])]:
        assert np.array_equal(_j1(x), j1(x))
    for kmax in range(1, 65):  # every |k|R the family evaluates J1 at
        k = _near_extremal_coeffs(kmax, np.random.default_rng(0), 1)[0].k
        x = np.hypot(k[:, 0], k[:, 1]) * 1.2
        assert np.array_equal(_j1(x), j1(x)), kmax


@pytest.mark.parametrize("kmax", [1, 2, 3, 7, 16, 40])
def test_near_extremal_family_matches_per_mode_loop(kmax):
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for got in _near_extremal_coeffs(kmax, rng, 2):
            want = _near_extremal_oracle(kmax, ref)
            assert [tuple(k) for k in got.k.tolist()] == list(want)
            assert not np.any(got.pol)
            w = np.array(list(want.values()))
            assert np.max(np.abs(got.values - w)) <= 8 * np.finfo(float).eps * np.max(np.abs(w))
        assert rng.standard_normal() == ref.standard_normal()  # the same draws
    # n fields drawn at once are n single draws from the same seed, bit for bit
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    once = _near_extremal_coeffs(kmax, rng, 3)
    singles = [c for _ in range(3) for c in _near_extremal_coeffs(kmax, ref, 1)]
    for a, b in zip(once, singles, strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_truncation_experiment_builds_tables_once_per_family(monkeypatch):
    # one table set for the family's modes, which gives every field's grid
    # and the ascent's axis factors, and one per (transform, n) for the
    # modes the transform keeps; nothing is synthesized field by field
    calls = []
    real = fields._axis_tables
    monkeypatch.setattr(fields, "_axis_tables", lambda *a: calls.append(a[1].shape) or real(*a))
    monkeypatch.setattr(normlab, "synthesize", None)
    truncation_experiment(n_list=(2, 3), p=4.0, kmax=6, seed=0, n_samples=2, ascent_iters=10)
    assert len(calls) == 1 + 2 * 2


# the sampled families the transform grids are checked on: the
# near-extremal and a random-smooth 2-torus family, and a random-smooth
# Dirichlet box family
_FAMILY_CONFIGS = {
    "near-extremal": dict(lambda_max=36.0, family="near-extremal", n_samples=3),
    "torus2": dict(lambda_max=16.0, n_samples=3),
    "box2": dict(operator=DirichletLaplacian(Box((math.pi, 2.0))), lambda_max=30.0, n_samples=3),
}
_TRANSFORM_PARAMS = {"identity": None, "semigroup": 0.1, "pi_theta": 0.3, "spherical": 2, "cubic": 3}


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("name", MULTIPLIERS)
@pytest.mark.parametrize("family_name", sorted(_FAMILY_CONFIGS))
def test_transform_grids_from_the_family_tables_are_the_synthesized_ones(family_name, name, p, monkeypatch):
    # each field's transform grid, applied from the one table set of the
    # kept modes, each field's own grid, applied from the family's, and the
    # ascent's copy of the start field's are synthesize's grids bit for bit
    config = _config(ascent_iters=0, **_FAMILY_CONFIGS[family_name])
    family = _Family(sample_fields(config), p)
    param = _TRANSFORM_PARAMS[name]
    if name in ("spherical", "cubic") and family_name == "box2":
        with pytest.raises(ConfigError, match="Fourier truncations are defined for torus fields"):
            apply_named_transform(family.fields[0], name, param)
        with pytest.raises(ConfigError, match="Fourier truncations are defined for torus fields"):
            _lower_bound(family, name, p, config, param)
        return
    grids = []
    real = normlab._apply_tables
    monkeypatch.setattr(normlab, "_apply_tables", lambda *a: grids.append(real(*a)) or grids[-1])
    _, start = _lower_bound(family, name, p, config, param)
    assert len(grids) == len(family.fields)
    for f, got, own in zip(family.fields, grids, family.grids):
        assert np.array_equal(got, synthesize(apply_named_transform(f, name, param), family.res).values)
        assert np.array_equal(own, synthesize(f, family.res).values)
    # with no moves the ascent's g is still the start field's grid
    assert np.array_equal(family.g, synthesize(start, family.res).values)


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("name", ["spherical", "cubic"])
def test_the_start_field_is_the_first_best_lp_norm_ratio(name, p):
    # the family norms and start-field ratios take the module's quadrature;
    # over criterion 11's n-list the ascent must still start from the first
    # field of best lp_norm ratio, as it did when the ratios were lp_norm's
    for seed in range(20):
        config = ExperimentConfig(
            operator=TorusLaplacian(Torus(2)), lambda_max=144.0, family="near-extremal", n_samples=4, seed=seed,
            ascent_iters=0,
        )
        family = _Family(sample_fields(config), p)
        for n in (4, 8, 12, 16, 20, 24, 28, 32):
            ratios = [
                lp_norm(synthesize(apply_named_transform(f, name, n), family.res), p)
                / lp_norm(synthesize(f, family.res), p)
                for f in family.fields
            ]
            _, start = _lower_bound(family, name, p, config, n)
            assert np.array_equal(start.values, family.fields[int(np.argmax(ratios))].values), (seed, n)


@pytest.mark.parametrize(
    "config",
    [
        dict(),
        dict(operator=DirichletLaplacian(Box((math.pi, 2.0))), lambda_max=30.0),
        dict(operator=DirichletLaplacian(Box((math.pi, 2.0))), lambda_max=30.0, family="boundary-bump"),
        dict(lambda_max=25.0, family="near-extremal"),
    ],
    ids=["random-smooth-torus2", "random-smooth-box2", "boundary-bump-box2", "near-extremal-torus2"],
)
def test_every_family_shares_its_modes(config):
    assert set(FAMILIES) == {"random-smooth", "boundary-bump", "near-extremal"}  # each is covered here
    fields_ = sample_fields(_config(**config))
    assert len(fields_) == 4
    for f in fields_:
        assert np.array_equal(f.k, fields_[0].k) and np.array_equal(f.pol, fields_[0].pol)
    assert len(_Family(fields_, 4.0).norms) == 4


def test_a_family_of_fields_with_other_modes_is_refused():
    op = TorusLaplacian(Torus(2))
    a, b = (random_field(op, 16.0, np.random.default_rng(seed), n_modes=5) for seed in (0, 1))
    assert not np.array_equal(a.k, b.k)
    with pytest.raises(ConfigError, match=r"^family field 1 does not have the modes \(k, pol\) of field 0$"):
        _Family([a, b], 4.0)
    with pytest.raises(ConfigError, match=r"^family field 2 does not have the modes \(k, pol\) of field 0$"):
        _Family([a, a, b], 4.0)


def test_a_vector_family_is_refused_before_any_synthesis(monkeypatch):
    monkeypatch.setattr(fields, "_axis_tables", None)
    monkeypatch.setattr(normlab, "synthesize", None)
    with pytest.raises(ConfigError, match="coordinate ascent operates on scalar fields"):
        operator_norm_lower_bound("semigroup", 4.0, _config(operator=TorusStokes(Torus(2))), param=0.1)


def test_truncation_experiment_small_run_deterministic():
    kw = dict(n_list=(2, 3), p=4.0, kmax=6, seed=0, n_samples=2, ascent_iters=10)
    a = truncation_experiment(**kw)
    b = truncation_experiment(**kw)
    assert [r.value for r in a] == [r.value for r in b]
    assert [(r.params["transform"], r.params["n"]) for r in a] == [
        ("spherical", 2),
        ("spherical", 3),
        ("cubic", 2),
        ("cubic", 3),
    ]
    assert all(r.value > 0 for r in a)


def test_truncation_radius_must_be_an_integer():
    # 4.5 used to be measured, and labelled, as n = 4
    kw = dict(p=4.0, kmax=6, seed=0, n_samples=2, ascent_iters=10)
    with pytest.raises(ConfigError, match=r"truncation order must be an integer >= 0, got 4\.5"):
        truncation_experiment(n_list=(4.5,), **kw)
    rows = [truncation_experiment(n_list=(n,), **kw) for n in (np.int64(4), 4)]
    assert [(r.params["n"], r.value) for r in rows[0]] == [(r.params["n"], r.value) for r in rows[1]]


_GRID = GridField(Torus(1), (np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),), np.ones(8))
_TORUS2 = TorusLaplacian(Torus(2))
_NUMBER_ENTRY_POINTS = {
    "enumerate_modes": lambda x: enumerate_modes(_TORUS2, x),
    "random_field": lambda x: random_field(_TORUS2, x, np.random.default_rng(0)),
    "ExperimentConfig": lambda x: ExperimentConfig(_TORUS2, lambda_max=x),
    "InterpolationQuery": lambda x: InterpolationQuery(0.5, 1e-3, x),
    "lp_norm": lambda x: lp_norm(_GRID, x),
    "truncation_experiment": lambda x: truncation_experiment(n_list=(2,), p=x, kmax=2, n_samples=1, ascent_iters=1),
}
# an int beyond the doubles used to end in a bare OverflowError
_NUMBER_CASES = [
    (name, x)
    for name in _NUMBER_ENTRY_POINTS
    for x in (math.nan, math.inf, -math.inf, 10**400)
    if not (name == "lp_norm" and x == math.inf)  # the sup norm
]


@pytest.mark.parametrize("name, x", _NUMBER_CASES, ids=[f"{n}-{x if x != 10**400 else '10**400'}" for n, x in _NUMBER_CASES])
def test_a_number_no_finite_double_holds_is_a_config_error(name, x):
    with pytest.raises(ConfigError):
        _NUMBER_ENTRY_POINTS[name](x)


def _ascent(f, name, param, p):
    """The one-field family of f with the ascent `_lower_bound` starts on it."""
    family = _Family([f], p)
    gT = synthesize(apply_named_transform(f, name, param), family.res).values
    family.start(0, _factors(f, name, param), gT)
    return family


# name -> (operator, p): the head/last split of a move at d = 1, 2, 3, and
# the norm at an even and a non-even power
_ASCENT_OPS = {
    "torus2": (TorusLaplacian(Torus(2)), 4.0),
    "box2": (DirichletLaplacian(Box((math.pi, 2.0))), 4.0),
    "torus1": (TorusLaplacian(Torus(1)), 4.0),
    "box3": (DirichletLaplacian(Box((math.pi, 2.0, 1.5))), 4.0),
    "torus2_p3": (TorusLaplacian(Torus(2)), 3.0),
    "box3_p3": (DirichletLaplacian(Box((math.pi, 2.0, 1.5))), 3.0),
}


@pytest.mark.parametrize(
    "op_name,lambda_max,name,param",
    [
        ("torus2", 16.0, "identity", None),
        ("torus2", 16.0, "semigroup", 0.1),
        ("torus2", 16.0, "pi_theta", 0.3),
        ("torus2", 16.0, "spherical", 2),
        ("torus2", 16.0, "cubic", 2),
        ("box2", 30.0, "identity", None),
        ("box2", 30.0, "semigroup", 0.05),
        ("box2", 30.0, "pi_theta", 0.25),
        ("torus1", 30.0, "semigroup", 0.1),
        ("torus1", 30.0, "spherical", 3),
        ("box3", 40.0, "identity", None),
        ("box3", 40.0, "pi_theta", 0.2),
        ("torus2_p3", 16.0, "spherical", 2),
        ("torus2_p3", 16.0, "semigroup", 0.1),
        ("box3_p3", 40.0, "semigroup", 0.05),
    ],
)
def test_ascent_grids_match_fresh_synthesis(op_name, lambda_max, name, param):
    # the rank-two updates of the ascent must track a full resynthesis of the
    # current coefficients and of their transform, and its ratio (with the
    # norm of Tf kept while Tf is unchanged) the ratio of that resynthesis;
    # a floor of -inf forces a move in, +inf forces it out
    op, p = _ASCENT_OPS[op_name]
    f = random_field(op, lambda_max, np.random.default_rng(11), decay=1.0)
    state = _ascent(f, name, param, p)
    rng = np.random.default_rng(12)
    for _ in range(40):
        j, rel = int(rng.integers(len(state.reps))), float(rng.uniform(-0.3, 0.3))
        state.move(j, rel, math.inf if rng.random() < 0.4 else -math.inf)
    current = SpectralField(op, _Packed(state.k, state.pol, state.values.copy()))
    g = synthesize(current, state.res).values.real
    gT = synthesize(apply_named_transform(current, name, param), state.res).values.real
    assert np.max(np.abs(state.g - g)) <= 1e-12 * np.max(np.abs(g))
    assert np.max(np.abs(state.gT - gT)) <= 1e-12 * np.max(np.abs(gT))
    assert state.ratio() == pytest.approx(lp_ratio(current, name, param, p), rel=1e-12, abs=0.0)


def test_rejected_move_leaves_the_state_bit_identical():
    # a rejected move used to be added and then subtracted again, which left
    # the grids off their start at roundoff
    op = TorusLaplacian(Torus(2))
    f = random_field(op, 16.0, np.random.default_rng(11), decay=1.0)
    state = _ascent(f, "spherical", 2, 4.0)
    start = (state.g.copy(), state.gT.copy(), state.values.copy(), state.ratio())
    rng = np.random.default_rng(12)
    for _ in range(40):
        r = state.move(int(rng.integers(len(state.reps))), float(rng.uniform(-0.3, 0.3)), math.inf)
        assert math.isfinite(r)
    assert np.array_equal(state.g, start[0])
    assert np.array_equal(state.gT, start[1])
    assert np.array_equal(state.values, start[2])
    assert state.ratio() == start[3]


_NORM_OPS = [TorusLaplacian(Torus(d)) for d in (1, 2, 3)] + [
    DirichletLaplacian(Interval(2.0)),
    DirichletLaplacian(Box((math.pi, 2.0))),
    DirichletLaplacian(Box((math.pi, 2.0, 1.5))),
]


@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(_NORM_OPS),
    p=st.sampled_from([3.0, 4.0, 5.5]),
    seed=st.integers(0, 2**16),
    scale=st.floats(1e-3, 1e3),
)
def test_ascent_norm_matches_lp_norm(op, p, seed, scale):
    # the weights enter the module's one quadrature, which the family norms,
    # the start-field ratios and the ascent share, as two products, and
    # lp_norm's as one weight grid; both must be the same quadrature
    lam = 30.0 if isinstance(op, DirichletLaplacian) else 9.0
    f = random_field(op, lam, np.random.default_rng(seed), n_modes=4)
    family = _Family([f], p)
    grid = scale * np.random.default_rng(seed).standard_normal(tuple(a.size for a in family.axes))
    want = lp_norm(GridField(op.domain, family.axes, grid), p)
    assert family.norm(grid) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_family_norm_bits_do_not_depend_on_where_the_grid_starts(p):
    # the ascent's grids start on a 64-byte boundary and the caller's grids
    # wherever numpy put them: a copy at every 8-byte offset of a 64-byte
    # line has the same norm bits, on the 162^2 grid of `truncate`
    config = _config(lambda_max=1600.0, family="near-extremal", n_samples=1)
    family = _Family(sample_fields(config), p)
    assert all(b.ctypes.data % 64 == 0 for b in (family._buf, family.g, family.gT, family._next_g, family._next_gT))
    grid = family.grids[0]
    raw = np.empty(grid.size + 14)
    base = -raw.ctypes.data % 64 // 8
    for off in range(8):
        copy = raw[base + off : base + off + grid.size].reshape(grid.shape)
        copy[...] = grid
        assert copy.ctypes.data % 64 == 8 * off
        assert np.float64(family.norm(copy)).tobytes() == np.float64(family.norms[0]).tobytes(), off


@pytest.mark.parametrize(
    "op,lambda_max,name,param,p",
    [
        (TorusLaplacian(Torus(2)), 16.0, "spherical", 2, 4.0),
        (DirichletLaplacian(Box((math.pi, 2.0))), 30.0, "semigroup", 0.05, 3.0),
    ],
)
def test_ascent_accepts_exactly_when_a_fresh_ratio_beats_the_best(op, lambda_max, name, param, p):
    # each move is judged against lp_ratio of the scaled field synthesized
    # afresh; moves whose two ratios agree to roundoff may go either way
    f = random_field(op, lambda_max, np.random.default_rng(21), decay=1.0)
    state = _ascent(f, name, param, p)
    k, pol = state.k, state.pol
    best = state.ratio()
    rng = np.random.default_rng(22)
    judged = accepted = 0
    for _ in range(60):
        j, rel = int(rng.integers(len(state.reps))), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.1))
        i = state.reps[j]
        values = state.values.copy()
        values[i] += values[i] * rel
        if isinstance(op, TorusLaplacian) and k[i].any():
            values[np.all(k == -k[i], axis=1)] = np.conj(values[i])
        fresh = lp_ratio(SpectralField(op, _Packed(k, pol, values)), name, param, p)
        r = state.move(j, rel, best)
        assert r == pytest.approx(fresh, rel=1e-12, abs=0.0)
        if abs(fresh - best) > 1e-12 * best:
            judged += 1
            assert (r > best) == (fresh > best)
        if r > best:
            accepted += 1
            best = r
            assert np.array_equal(state.values, values)
    assert judged >= 50 and 0 < accepted < judged


_TRUNCATE_RUN = """
import sys
from eigenapprox.cli import run
sys.exit(run(["truncate", "--n-list", "4", "--kmax", "12", "--iters", "40", "--out-dir", sys.argv[1]]))
"""


def test_truncate_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the ascent's moves and norms are BLAS products: a threaded BLAS must
    # give the same bytes as one thread
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", _TRUNCATE_RUN, str(out)], env=env, capture_output=True, check=True)
        outs.append((out / "truncate.csv").read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 3  # the header, spherical and cubic at n = 4
