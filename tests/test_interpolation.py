import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.optimize import minimize_scalar

from eigenapprox import (
    AccuracyError,
    BoundaryWeight,
    Box,
    ConfigError,
    DirichletLaplacian,
    Interval,
    InterpolationQuery,
    ModeIndex,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    fractional_norm,
    h00_weighted_norm,
    i_theta,
    i_theta_quadrature,
    interpolation_norm,
    k_functional,
    random_field,
    reiteration_check,
)


EPS = np.finfo(float).eps


def _i_theta_reference(theta: float) -> float:
    # int_0^inf s^{1-2 theta}/(1+s^2) ds, split at 1 to tame both endpoints
    lo = quad(lambda s: s ** (1.0 - 2.0 * theta) / (1.0 + s * s), 0.0, 1.0)[0]
    hi = quad(lambda u: u ** (2.0 * theta - 1.0) / (1.0 + u * u), 0.0, 1.0)[0]
    return lo + hi


def test_i_theta_closed_form():
    for theta in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert i_theta(theta) == pytest.approx(_i_theta_reference(theta), rel=1e-12)
        assert i_theta_quadrature(theta) == pytest.approx(i_theta(theta), rel=1e-12)
    assert i_theta(0.5) == pytest.approx(math.pi / 2.0, rel=1e-15)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ConfigError):
            i_theta(bad)


def test_k_functional_single_mode():
    op = DirichletLaplacian(Interval(math.pi))  # lambda_1 = 1
    f = SpectralField(op, {(1,): 1.0 + 0j})
    assert k_functional(f, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ConfigError):
        k_functional(f, 0.0)


def test_k_functional_matches_splitting_infimum():
    # K(f,t)^2 = sum_j min_s [ (1-s)^2 + t^2 lambda^2 s^2 ] |c_j|^2, found here
    # by a scalar minimizer per mode with no knowledge of the closed form
    rng = np.random.default_rng(0)
    op = TorusLaplacian(Torus(2))
    for _ in range(50):
        f = random_field(op, 40.0, rng, n_modes=8, include_mean=False)
        t = float(rng.uniform(0.01, 10.0))
        total = 0.0
        for idx, c in f.coefficients.items():
            lam = op.eigenvalue(idx)
            if lam <= 0:
                continue
            res = minimize_scalar(
                lambda s: (1.0 - s) ** 2 + (t * lam * s) ** 2,
                bounds=(0.0, 1.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            total += res.fun * abs(complex(c)) ** 2
        assert k_functional(f, t) == pytest.approx(math.sqrt(total), rel=1e-9)


def test_k_functional_monotone_and_bounded():
    rng = np.random.default_rng(1)
    op = DirichletLaplacian(Interval(1.0))
    f = random_field(op, 500.0, rng, n_modes=10)
    ts = np.logspace(-3, 2, 40)
    ks = [k_functional(f, t) for t in ts]
    assert all(b >= a for a, b in zip(ks[:-1], ks[1:]))
    assert ks[-1] <= f.l2() * (1.0 + 1e-15)


def test_interpolation_norm_single_mode_closed_form():
    op = DirichletLaplacian(Interval(1.0))
    lam = op.eigenvalue(ModeIndex((2,)))
    f = SpectralField(op, {(2,): 0.8 + 0j})
    for theta in (0.3, 0.5, 0.7):
        q = InterpolationQuery.auto(f, theta)
        want = 0.8 * lam**theta * math.sqrt(i_theta(theta))
        assert interpolation_norm(f, q) == pytest.approx(want, rel=1e-6)


def test_interpolation_norm_equals_scaled_fractional_norm():
    rng = np.random.default_rng(2)
    for op in (TorusLaplacian(Torus(2)), DirichletLaplacian(Interval(1.7))):
        for theta in (0.25, 0.5, 0.8):
            f = random_field(op, 70.0, rng, n_modes=9, include_mean=False)
            q = InterpolationQuery.auto(f, theta)
            lhs = interpolation_norm(f, q)
            rhs = math.sqrt(i_theta(theta)) * fractional_norm(f, theta)
            assert lhs == pytest.approx(rhs, rel=1e-6)


def test_interpolation_norm_extreme_theta_via_auto_window():
    rng = np.random.default_rng(3)
    op = TorusLaplacian(Torus(1))
    f = random_field(op, 200.0, rng, n_modes=7, include_mean=False)
    for theta in (0.05, 0.95):
        q = InterpolationQuery.auto(f, theta)
        lhs = interpolation_norm(f, q)
        rhs = math.sqrt(i_theta(theta)) * fractional_norm(f, theta)
        assert lhs == pytest.approx(rhs, rel=2e-5)


def test_window_bracket_guards():
    op = DirichletLaplacian(Interval(math.pi))
    f = SpectralField(op, {(1,): 1.0 + 0j, (10,): 1.0 + 0j})  # lambdas 1 and 100
    with pytest.raises(ConfigError, match="t_min"):
        interpolation_norm(f, InterpolationQuery(0.5, 0.01, 1e4))  # t_min*lam_max = 1
    with pytest.raises(ConfigError, match="t_max"):
        interpolation_norm(f, InterpolationQuery(0.5, 1e-5, 1.0))  # t_max*lam_min = 1


def test_tail_error_mentions_auto_sizing():
    op = DirichletLaplacian(Interval(math.pi))
    f = SpectralField(op, {(1,): 1.0 + 0j})
    # valid brackets but nearly half the mass sits in the analytic tails
    with pytest.raises(AccuracyError, match="auto"):
        interpolation_norm(f, InterpolationQuery(0.5, 0.4, 2.5))


def test_query_validation():
    with pytest.raises(ConfigError):
        InterpolationQuery(1.5, 1e-3, 1e3)
    with pytest.raises(ConfigError):
        InterpolationQuery(0.5, -1.0, 1e3)
    with pytest.raises(ConfigError):
        InterpolationQuery(0.5, 1.0, 0.5)
    with pytest.raises(ConfigError):
        InterpolationQuery(0.5, 1e-3, 1e3, num_points=4)


def test_reiteration_identities():
    rng = np.random.default_rng(4)
    op = TorusLaplacian(Torus(2))
    f = random_field(op, 50.0, rng, n_modes=8, include_mean=False)
    for theta in (0.3, 0.5, 0.75):
        for rep in reiteration_check(f, theta):
            assert rep.value == pytest.approx(rep.reference, rel=1e-6)
    with pytest.raises(ConfigError):
        reiteration_check(f, 0.0)


def test_h00_bump_mode_matches_quadrature():
    dom = Interval(1.0)
    op = DirichletLaplacian(dom)
    f = SpectralField(op, {(1,): 1.0 + 0j})
    rep = h00_weighted_norm(f, dom)
    # independent value: int_0^1 2 sin(pi x)^2 / (x (1 - x)) dx
    want = quad(lambda x: 2.0 * math.sin(math.pi * x) ** 2 / (x * (1.0 - x)), 0.0, 1.0)[0]
    assert not rep.diverging
    assert rep.value == pytest.approx(want, rel=1e-9)
    # the refinement sequence saturated
    assert rep.values[-1] == pytest.approx(rep.values[-2], rel=1e-6)


def test_h00_constant_diverges():
    dom = Interval(1.0)
    rep = h00_weighted_norm(lambda pts: np.ones(pts.shape[0]), dom)
    assert rep.diverging
    assert rep.value == math.inf
    # each graded refinement added boundary mass
    assert all(b > a for a, b in zip(rep.values[:-1], rep.values[1:]))


def test_h00_box_product_structure():
    dom = Box((1.0, 1.0))
    op = DirichletLaplacian(dom)
    f = SpectralField(op, {(1, 1): 1.0 + 0j})
    rep = h00_weighted_norm(f, dom, levels=8)
    one_d = quad(lambda x: 2.0 * math.sin(math.pi * x) ** 2 / (x * (1.0 - x)), 0.0, 1.0)[0]
    assert not rep.diverging
    assert rep.value == pytest.approx(one_d**2, rel=1e-8)


def test_h00_custom_weight_and_guards():
    dom = Interval(1.0)
    w = BoundaryWeight(dom, func=lambda pts: np.full(pts.shape[0], 2.0))
    rep = h00_weighted_norm(lambda pts: np.ones(pts.shape[0]), dom, weight=w)
    assert not rep.diverging
    assert rep.value == pytest.approx(0.5, rel=1e-12)
    bad = BoundaryWeight(dom, func=lambda pts: np.zeros(pts.shape[0]))
    with pytest.raises(ConfigError):
        h00_weighted_norm(lambda pts: np.ones(pts.shape[0]), dom, weight=bad)
    with pytest.raises(ConfigError):
        h00_weighted_norm(lambda pts: np.ones(pts.shape[0]), dom, levels=1)
    with pytest.raises(ConfigError):
        BoundaryWeight(Torus(1))


@pytest.mark.parametrize("theta", [0.02, 0.5, 0.98])
def test_row_blocked_norm_is_bitwise_the_one_shot_product(monkeypatch, theta):
    # the (t x mode) matrix is built in row blocks under a byte budget; the
    # blocks change memory, never the bits of the result
    from eigenapprox import interpolation

    f = random_field(TorusLaplacian(Torus(3)), 60.0, np.random.default_rng(21))
    q = InterpolationQuery.auto(f, theta)
    lams, amps = f.eigen_arrays(positive_only=True)
    monkeypatch.setattr(interpolation, "_KSQ_BLOCK_BYTES", 1 << 40)
    whole = interpolation._interp_norm_sq(lams, amps, q)
    norm = interpolation_norm(f, q)
    for rows in (1, 64, 200, 1000):
        monkeypatch.setattr(interpolation, "_KSQ_BLOCK_BYTES", rows * 8 * lams.size)
        assert interpolation._interp_norm_sq(lams, amps, q) == whole
        assert interpolation_norm(f, q) == norm


@pytest.mark.parametrize("theta", [0.02, 0.5, 0.98])
def test_blocks_sized_by_distinct_eigenvalues_are_bitwise_the_one_shot_product(monkeypatch, theta):
    # the matrix has one column per distinct eigenvalue, so budgets sized by
    # that count split the t-grid of 2500 points into blocks of about 64, 200
    # and 1000 rows
    from eigenapprox import interpolation

    f = random_field(TorusLaplacian(Torus(3)), 60.0, np.random.default_rng(21))
    auto = InterpolationQuery.auto(f, theta)
    q = InterpolationQuery(theta, auto.t_min, auto.t_max, 2500)
    lams, amps = f.eigen_arrays(positive_only=True)
    distinct = np.unique(lams).size
    monkeypatch.setattr(interpolation, "_KSQ_BLOCK_BYTES", 1 << 40)
    whole = interpolation._interp_norm_sq(lams, amps, q)
    norm = interpolation_norm(f, q)
    for rows in (64, 200, 1000):
        monkeypatch.setattr(interpolation, "_KSQ_BLOCK_BYTES", rows * 8 * distinct)
        assert interpolation._interp_norm_sq(lams, amps, q) == whole
        assert interpolation_norm(f, q) == norm


def _per_mode_norm(lams, amps, q):
    """sqrt of int t^{-2 theta} K(f, t)^2 dt/t from the (t x mode) product, one
    column per mode, plus the three-term tail series of every mode."""
    theta, a, b = q.theta, 2.0 - 2.0 * q.theta, 2.0 * q.theta
    tau = np.linspace(math.log(q.t_min), math.log(q.t_max), q.num_points)
    s2 = np.square(np.exp(tau)[:, None] * lams[None, :])
    window = simpson(np.exp(-2.0 * theta * tau) * ((s2 / (1.0 + s2)) @ amps), x=tau)
    s0, s1 = q.t_min * lams, q.t_max * lams
    low = s0**a / a - s0 ** (a + 2.0) / (a + 2.0) + s0 ** (a + 4.0) / (a + 4.0)
    high = s1**-b / b - s1 ** (-b - 2.0) / (b + 2.0) + s1 ** (-b - 4.0) / (b + 4.0)
    return math.sqrt(window + float(np.sum(amps * lams**b * (low + high))))


@pytest.mark.parametrize(
    "op, lambda_max",
    [(TorusStokes(Torus(3)), 40.0), (DirichletLaplacian(Box((1.0, 2.0))), 2000.0)],
    ids=["stokes3-many-modes-per-eigenvalue", "box-distinct-eigenvalues"],
)
@pytest.mark.parametrize("theta", [0.02, 0.5, 0.98])
def test_norm_per_eigenvalue_matches_the_per_mode_product(op, lambda_max, theta):
    # the K-functional is summed once per distinct eigenvalue; the per-mode
    # product bounds it to 8 eps, in interpolation_norm and both reiterations
    f = random_field(op, lambda_max, np.random.default_rng(31))
    lams, amps = f.eigen_arrays(positive_only=True)
    q = InterpolationQuery.auto(f, theta)
    got = interpolation_norm(f, q)
    assert abs(got - _per_mode_norm(lams, amps, q)) <= 8 * EPS * got
    q_half = InterpolationQuery.auto(np.sqrt(lams), theta)
    for rep, shifted in zip(reiteration_check(f, theta), (amps, amps * lams)):
        assert abs(rep.value - _per_mode_norm(np.sqrt(lams), shifted, q_half)) <= 8 * EPS * rep.value
