import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenapprox import (
    Box,
    ConfigError,
    DirichletLaplacian,
    Interval,
    ModeIndex,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    c_gamma,
    conjugate_symmetry_violation,
    cubic_truncate,
    divergence_residual,
    enumerate_modes,
    fractional_norm,
    k_functional,
    phi,
    pi_theta,
    pi_theta_error_norm,
    pi_theta_gap_norm,
    random_field,
    semigroup_apply,
    semigroup_error_norm,
    smoothing_bound,
    spherical_truncate,
    subtract,
)
from eigenapprox.approx import multiplier


def test_pi_theta_strict_cutoff():
    op = DirichletLaplacian(Interval(math.pi))  # eigenvalues k^2 exactly
    f = SpectralField(op, {(1,): 1.0 + 0j, (2,): 1.0 + 0j, (3,): 1.0 + 0j})
    g = pi_theta(f, 0.5)  # cutoff lambda < 4, strict: keeps k=1 only
    kept = dict(sorted(g.coefficients.items(), key=lambda kv: kv[0].sort_key()))
    assert list(kept) == [ModeIndex((1,))]
    assert complex(kept[ModeIndex((1,))]) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_pi_theta_empty_when_theta_large():
    op = DirichletLaplacian(Interval(math.pi))
    f = SpectralField(op, {(1,): 1.0 + 0j})
    g = pi_theta(f, 1.0)  # cutoff lambda < 1; lambda_1 = 1 is dropped
    assert not g.coefficients


def test_pi_theta_is_a_contraction_in_every_fractional_norm():
    rng = np.random.default_rng(0)
    op = TorusLaplacian(Torus(2))
    for _ in range(25):
        f = random_field(op, 60.0, rng, n_modes=12)
        theta = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.0, 2.0))
        assert fractional_norm(pi_theta(f, theta), alpha) <= fractional_norm(f, alpha) + 1e-15


def test_fractional_norm_single_mode():
    op = DirichletLaplacian(Interval(1.0))
    f = SpectralField(op, {(3,): 2.0 + 0j})
    lam = op.eigenvalue(ModeIndex((3,)))
    for a in (0.0, 0.5, 1.3):
        assert fractional_norm(f, a) == pytest.approx(2.0 * lam**a, rel=1e-14)


def test_semigroup_apply_single_mode():
    op = DirichletLaplacian(Interval(math.pi))
    f = SpectralField(op, {(2,): 1.0 + 0j})
    g = semigroup_apply(f, 0.3)
    assert complex(g.coefficients[ModeIndex((2,))]) == pytest.approx(math.exp(-0.3 * 4.0), rel=1e-15)
    assert semigroup_apply(f, 0.0).coefficients[ModeIndex((2,))] == 1.0 + 0j


def test_c_gamma_values():
    assert c_gamma(0.0) == 1.0
    assert c_gamma(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert c_gamma(2.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-15)
    # sup_{x>=0} x^g e^{-x} attained at x=g: check by dense scan
    for g in (0.3, 1.7):
        xs = np.linspace(0.0, 40.0, 400001)
        brute = float(np.max(xs**g * np.exp(-xs)))
        assert c_gamma(g) == pytest.approx(brute, rel=1e-9)
        assert c_gamma(g) >= brute


def test_smoothing_bound_both_branches():
    rng = np.random.default_rng(1)
    op = TorusLaplacian(Torus(2))
    lam1 = 1.0  # smallest positive eigenvalue of the 2-torus
    for _ in range(200):
        f = random_field(op, 80.0, rng, n_modes=10, include_mean=False)
        alpha = float(rng.uniform(0.0, 1.5))
        beta = float(rng.uniform(0.0, 1.5))
        theta = float(rng.uniform(0.01, 2.0))
        lhs = fractional_norm(semigroup_apply(f, theta), alpha)
        if alpha >= beta:
            bound = c_gamma(alpha - beta) * theta ** -(alpha - beta) * fractional_norm(f, beta)
        else:
            bound = math.exp(-lam1 * theta) * lam1 ** (alpha - beta) * fractional_norm(f, beta)
        assert lhs <= bound * (1.0 + 1e-12)
        assert smoothing_bound(theta, alpha, beta, lam1) == pytest.approx(bound / fractional_norm(f, beta), rel=1e-13)


def test_phi_closed_form_matches_brute_force():
    # phi(theta, kappa) = sup over the dropped set lambda >= theta^-2 of lambda^kappa e^{-sqrt(lambda)}
    for theta, kappa in [(0.5, 1.0), (0.2, 0.0), (0.9, -0.5), (0.05, 2.0), (0.9, 3.0)]:
        lo = theta**-2
        lams = np.linspace(lo, lo + 400.0, 2_000_001)
        brute = float(np.max(lams**kappa * np.exp(-np.sqrt(lams))))
        assert phi(theta, kappa) >= brute
        assert phi(theta, kappa) == pytest.approx(brute, rel=1e-6)


def test_phi_examples():
    assert phi(1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    # kappa = 2, theta = 1: interior max at lambda = 16, value 16^2 e^{-4}
    assert phi(1.0, 2.0) == pytest.approx(256.0 * math.exp(-4.0), rel=1e-15)
    # kappa = 1, small theta: boundary value theta^-2 e^{-1/theta}
    assert phi(0.1, 1.0) == pytest.approx(100.0 * math.exp(-10.0), rel=1e-15)
    assert phi(0.25, 1.0) == pytest.approx(16.0 * math.exp(-4.0), rel=1e-15)


def test_pi_theta_error_vs_gap_norm():
    op = DirichletLaplacian(Interval(math.pi))
    f = SpectralField(op, {(1,): 1.0 + 0j, (3,): 1.0 + 0j})
    theta = 0.4  # cutoff 6.25: keeps lambda=1, drops lambda=9
    # distance to the field itself: kept-mode damping plus full dropped mass
    want_err = math.sqrt((1.0 - math.exp(-0.4)) ** 2 + 1.0)
    assert pi_theta_error_norm(f, theta, 0.0) == pytest.approx(want_err, rel=1e-14)
    # distance to the semigroup: kept modes cancel, only the damped tail is left
    want_gap = math.exp(-0.4 * 9.0)
    assert pi_theta_gap_norm(f, theta, 0.0) == pytest.approx(want_gap, rel=1e-14)
    direct = subtract(pi_theta(f, theta), semigroup_apply(f, theta))
    assert fractional_norm(direct, 0.0) == pytest.approx(want_gap, rel=1e-13)


def test_gap_norm_zero_when_nothing_dropped():
    op = DirichletLaplacian(Interval(math.pi))
    f = SpectralField(op, {(1,): 1.0 + 0j})
    assert pi_theta_gap_norm(f, 0.5, 1.0) == 0.0


def test_key_estimate_random_sweep():
    # || (Pi_theta - e^{-theta A}) f ||_alpha <= phi(theta, alpha - beta) ||f||_beta
    rng = np.random.default_rng(2)
    for op in (TorusLaplacian(Torus(2)), TorusStokes(Torus(2)), DirichletLaplacian(Interval(1.0))):
        for _ in range(100):
            f = random_field(op, 90.0, rng, n_modes=8, include_mean=False)
            theta = float(rng.uniform(0.05, 1.2))
            alpha = float(rng.uniform(0.0, 1.5))
            beta = float(rng.uniform(0.0, 1.5))
            lhs = pi_theta_gap_norm(f, theta, alpha)
            rhs = phi(theta, alpha - beta) * fractional_norm(f, beta)
            assert lhs <= rhs * (1.0 + 1e-12)


def test_mode_counts():
    t2 = TorusLaplacian(Torus(2))
    assert len(enumerate_modes(t2, 4.0)) == 13  # k with |k|^2 <= 4, mean included
    assert len(enumerate_modes(t2, 1.9)) == 5
    st = TorusStokes(Torus(2))
    assert len(enumerate_modes(st, 1.9)) == 4  # k = 0 carries no divergence-free mode
    d1 = DirichletLaplacian(Interval(math.pi))
    assert len(enumerate_modes(d1, 9.0)) == 3


def test_invalid_arguments():
    op = DirichletLaplacian(Interval(1.0))
    f = SpectralField(op, {(1,): 1.0 + 0j})
    with pytest.raises(ConfigError):
        pi_theta(f, 0.0)
    with pytest.raises(ConfigError):
        pi_theta(f, -1.0)
    with pytest.raises(ConfigError):
        semigroup_apply(f, -0.1)
    with pytest.raises(ConfigError):
        phi(0.0, 1.0)
    with pytest.raises(ConfigError):
        c_gamma(-0.5)
    with pytest.raises(ConfigError):
        pi_theta_gap_norm(f, 0.0, 1.0)


_TORUS_FIELD = SpectralField(TorusLaplacian(Torus(2)), {(0, 0): 1.0 + 0j, (1, 0): 1.0 + 0j, (-1, 0): 1.0 + 0j})
_NAN_CHECKS = {
    # a NaN time used to keep only the carried mean, or read as a NaN norm or
    # constant; an infinite t made K(f, t) NaN with a RuntimeWarning
    "semigroup_apply": lambda: semigroup_apply(_TORUS_FIELD, math.nan),
    "semigroup_apply-interval": lambda: semigroup_apply(SpectralField(DirichletLaplacian(Interval(1.0)), {(1,): 1.0}), math.nan),
    "semigroup_error_norm": lambda: semigroup_error_norm(_TORUS_FIELD, math.nan, 0.5),
    "smoothing_bound": lambda: smoothing_bound(math.nan, 1.0, 0.0, 1.0),
    "c_gamma": lambda: c_gamma(math.nan),
    "k_functional": lambda: k_functional(_TORUS_FIELD, math.inf),
}


@pytest.mark.parametrize("call", _NAN_CHECKS.values(), ids=list(_NAN_CHECKS))
def test_a_nan_time_or_infinite_t_is_refused(call):
    with pytest.raises(ConfigError):
        call()


def test_semigroup_at_zero_keeps_every_value():
    f = random_field(TorusLaplacian(Torus(2)), 20.0, np.random.default_rng(3), include_mean=True)
    g = semigroup_apply(f, 0.0)
    assert g.k.tobytes() == f.k.tobytes() and g.values.tobytes() == f.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    lambda_max=st.floats(1.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
    decay=st.floats(0.0, 2.0),
    include_mean=st.booleans(),
    theta=st.floats(0.05, 1.5),
    n=st.integers(0, 6),
)
def test_transforms_keep_real_stokes_fields_real_and_divergence_free(d, lambda_max, seed, decay, include_mean, theta, n):
    rng = np.random.default_rng(seed)
    f = random_field(TorusStokes(Torus(d)), lambda_max, rng, decay=decay, include_mean=include_mean)
    assert conjugate_symmetry_violation(f) == 0.0
    lams = f._eigenvalue_array()
    residual = divergence_residual(f)
    # fl(c v) rounds each component of v by up to eps/2 of it, so k . (c v)
    # may exceed c (k . v) by eps c sum_i |k_i| |v_i| even where k . v = 0
    rounding = 2.0 * np.finfo(float).eps * float(np.max(np.sum(np.abs(f.k) * np.abs(f.values), axis=1), initial=0.0))
    for name, transform, param in (
        ("pi_theta", pi_theta, theta),
        ("semigroup", semigroup_apply, theta),
        ("spherical", spherical_truncate, n),
        ("cubic", cubic_truncate, n),
    ):
        g = transform(f, param)
        assert conjugate_symmetry_violation(g) == 0.0, name
        factors = multiplier(name, param)(f.k[lams > 0], lams[lams > 0])
        largest = float(np.nanmax(factors, initial=1.0))  # the carried mean keeps factor 1
        if name in ("spherical", "cubic"):  # kept values are stored as they are
            assert divergence_residual(g) <= residual, name
        else:
            assert divergence_residual(g) <= largest * (residual + rounding), name


# The inequalities of acceptance criteria 4 and 6, over random parameters
# drawn from the ranges those criteria use, with their 1e-12 slack.  Each is
# checked per eigenvalue (the bound is a sup of a one-mode ratio, attained
# where the closed form says) and on a random field of the criterion's
# operators.
_CRITERION_4_OPS = (DirichletLaplacian(Interval(1.0)), TorusLaplacian(Torus(2)), TorusStokes(Torus(2)))


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.05, 1.2),
    beta=st.floats(0.0, 1.5),
    kappa=st.floats(0.0, 1.5),
    spread=st.floats(0.0, 12.0),
    op=st.sampled_from(_CRITERION_4_OPS),
    seed=st.integers(0, 2**32 - 1),
)
def test_phi_bounds_the_dropped_tail_and_is_attained(theta, beta, kappa, spread, op, seed):
    bound = phi(theta, kappa)
    lam = theta**-2 * math.exp(spread)  # any eigenvalue Pi_theta drops
    # theta lam >= sqrt(lam) there, so the semigroup damps at least as e^{-sqrt(lam)}
    assert lam**kappa * math.exp(-theta * lam) <= bound * (1.0 + 1e-12)
    assert lam**kappa * math.exp(-math.sqrt(lam)) <= bound * (1.0 + 1e-12)
    peak = max(theta**-2, (2.0 * kappa) ** 2)  # where the sup sits
    assert peak**kappa * math.exp(-math.sqrt(peak)) == pytest.approx(bound, rel=1e-12, abs=0.0)
    f = random_field(op, 90.0, np.random.default_rng(seed), n_modes=8)
    lhs = pi_theta_gap_norm(f, theta, beta + kappa)
    assert lhs <= bound * fractional_norm(f, beta) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.01, 2.0),
    alpha=st.floats(0.0, 1.5),
    beta=st.floats(0.0, 1.5),
    lambda_min=st.floats(0.1, 10.0),
    spread=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_smoothing_bound_holds_on_both_branches_and_is_sharp(theta, alpha, beta, lambda_min, spread, seed):
    bound = smoothing_bound(theta, alpha, beta, lambda_min)
    gain = alpha - beta
    lam = lambda_min * math.exp(spread)  # any eigenvalue of a spectrum above lambda_min
    assert lam**gain * math.exp(-theta * lam) <= bound * (1.0 + 1e-12)
    # the sup over lam >= lambda_min sits at gain / theta, or at lambda_min
    peak = max(lambda_min, gain / theta)
    if gain < 0.0 or gain / theta >= lambda_min:
        assert peak**gain * math.exp(-theta * peak) == pytest.approx(bound, rel=1e-12, abs=0.0)
    # on the 2-torus, whose smallest positive eigenvalue is 1
    f = random_field(TorusLaplacian(Torus(2)), 80.0, np.random.default_rng(seed), n_modes=8)
    lhs = fractional_norm(semigroup_apply(f, theta), alpha)
    assert lhs <= smoothing_bound(theta, alpha, beta, 1.0) * fractional_norm(f, beta) * (1.0 + 1e-12)


def test_truncation_orders_must_be_nonnegative_integers():
    op = TorusLaplacian(Torus(2))
    f = SpectralField(op, {(1, 2): 1.0 + 0j, (-1, -2): 1.0 + 0j})  # |k| = 2.236
    assert len(spherical_truncate(f, np.int64(3)).coefficients) == 2
    assert len(cubic_truncate(f, 2).coefficients) == 2
    # a fractional order was floored: 2.5 dropped both modes, though |k| <= 2.5
    for bad in (2.5, -1, None, "3", True):
        for truncate in (spherical_truncate, cubic_truncate):
            with pytest.raises(ConfigError, match="truncation order"):
                truncate(f, bad)


# Each norm pinned to its closed-form sum, written with the operations the
# library uses, so a refactor that reorders the arithmetic shows up as a
# changed bit.
_PIN_OPS = (
    TorusLaplacian(Torus(2)),
    TorusStokes(Torus(2)),
    TorusStokes(Torus(3)),
    DirichletLaplacian(Interval(1.0)),
    DirichletLaplacian(Box((1.0, 2.0))),
)


def _closed_form(lams, w, amps, alpha):
    return math.sqrt(float(np.sum(lams ** (2.0 * alpha) * w * amps)))


@settings(max_examples=100, deadline=None)
@given(
    op=st.sampled_from(_PIN_OPS),
    lambda_max=st.floats(1.0, 40.0),
    seed=st.integers(0, 2**32 - 1),
    include_mean=st.booleans(),
    theta=st.floats(0.01, 1.5),
    alpha=st.floats(-1.0, 2.0),
)
def test_spectral_norms_are_their_closed_form_sums(op, lambda_max, seed, include_mean, theta, alpha):
    f = random_field(op, lambda_max, np.random.default_rng(seed), decay=1.0, include_mean=include_mean)
    lams, amps = f.eigen_arrays(positive_only=True)
    ones = np.ones(lams.shape)
    assert fractional_norm(f, alpha) == _closed_form(lams, ones, amps, alpha)
    w = np.expm1(-theta * lams) ** 2
    assert semigroup_error_norm(f, theta, alpha) == _closed_form(lams, w, amps, alpha)
    w = np.where(lams < theta**-2, np.expm1(-theta * lams) ** 2, 1.0)
    assert pi_theta_error_norm(f, theta, alpha) == _closed_form(lams, w, amps, alpha)
    dropped = lams >= theta**-2
    lam_d, amp_d = lams[dropped], amps[dropped]
    assert pi_theta_gap_norm(f, theta, alpha) == _closed_form(lam_d, np.exp(-2.0 * theta * lam_d), amp_d, alpha)
    s2 = (theta * lams) ** 2
    assert k_functional(f, theta) == _closed_form(lams, s2 / (1.0 + s2), amps, 0.0)
