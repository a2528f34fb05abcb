import math

import numpy as np
import pytest
from scipy.special import j1

from eigenapprox import (
    AccuracyError,
    Box,
    ConfigError,
    DirichletLaplacian,
    ExperimentConfig,
    Interval,
    ModeIndex,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    apply_named_transform,
    convergence_study,
    lp_ratio,
    operator_norm_lower_bound,
    random_field,
    sample_fields,
    sobolev_equivalence_study,
    sobolev_surrogate_norm,
    synthesize,
    truncation_experiment,
)
from eigenapprox.normlab import _AscentState, _near_extremal_coeffs


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


def test_named_transforms_mode_retention():
    op = TorusLaplacian(Torus(2))
    f = SpectralField(op, {(1, 0): 1.0 + 0j, (2, 2): 1.0 + 0j, (3, 0): 1.0 + 0j})
    sph = apply_named_transform(f, "spherical", 2)
    assert sorted(idx.k for idx in sph.coefficients) == [(1, 0)]  # |k|^2 <= 4 keeps (1,0) and (2,0)-type only
    cub = apply_named_transform(f, "cubic", 2)
    assert sorted(idx.k for idx in cub.coefficients) == [(1, 0), (2, 2)]
    with pytest.raises(ConfigError):
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


@pytest.mark.parametrize("kmax", [1, 2, 3, 7, 16, 40])
def test_near_extremal_family_matches_per_mode_loop(kmax):
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _near_extremal_coeffs(kmax, rng)
        want = _near_extremal_oracle(kmax, ref)
        assert [tuple(k) for k in got.k.tolist()] == list(want)
        assert not np.any(got.pol)
        assert rng.standard_normal() == ref.standard_normal()  # the same draws
        w = np.array(list(want.values()))
        assert np.max(np.abs(got.values - w)) <= 8 * np.finfo(float).eps * np.max(np.abs(w))


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


_ASCENT_OPS = {"torus2": TorusLaplacian(Torus(2)), "box2": DirichletLaplacian(Box((math.pi, 2.0)))}


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
    ],
)
def test_ascent_grids_match_fresh_synthesis(op_name, lambda_max, name, param):
    # the rank-one updates of the ascent must track a full resynthesis of the
    # current coefficients and of their transform
    op = _ASCENT_OPS[op_name]
    f = random_field(op, lambda_max, np.random.default_rng(11), decay=1.0)
    st = _AscentState(f, name, param, 4.0)
    rng = np.random.default_rng(12)
    for _ in range(40):
        undo = st.perturb(int(rng.integers(len(st.reps))), float(rng.uniform(-0.3, 0.3)))
        if rng.random() < 0.4:
            undo()
    current = SpectralField(op, st.coeffs)
    g = synthesize(current, st.res).values.real
    gT = synthesize(apply_named_transform(current, name, param), st.res).values.real
    assert np.max(np.abs(st.g - g)) <= 1e-12 * np.max(np.abs(g))
    assert np.max(np.abs(st.gT - gT)) <= 1e-12 * np.max(np.abs(gT))
