import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from eigenapprox import (
    AccuracyError,
    AliasingError,
    Box,
    ConfigError,
    DirichletLaplacian,
    GridField,
    Interval,
    ModeIndex,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    add,
    analyze,
    conjugate_symmetry_violation,
    divergence_residual,
    enumerate_modes,
    leray_project,
    lp_norm,
    random_field,
    scale,
    subtract,
    synthesize,
    uniform_axes,
)
from eigenapprox.domains import _grid_phases, _torus_scale, mode_evaluator
from eigenapprox.fields import _axis_tables, _simpson, enumerate_modes_cached, evaluate, quadrature_weights

TWO_PI = 2.0 * math.pi


def test_two_mode_field_matches_direct_evaluation():
    op = DirichletLaplacian(Interval(1.0))
    f = SpectralField(op, {(1,): 0.7 + 0j, (3,): -0.2 + 0j})
    g = synthesize(f, 64)
    pts = g.points()[:, 0]
    direct = 0.7 * math.sqrt(2.0) * np.sin(math.pi * pts) - 0.2 * math.sqrt(2.0) * np.sin(3 * math.pi * pts)
    assert np.max(np.abs(np.asarray(g.values) - direct)) < 1e-12
    assert np.isrealobj(g.values)  # real coefficients synthesize to a real grid


def test_torus_synthesize_matches_pointwise_sum():
    op = TorusLaplacian(Torus(2))
    rng = np.random.default_rng(10)
    f = random_field(op, 9.0, rng, n_modes=8)
    g = synthesize(f, 16)
    direct = evaluate(f, g.points()).reshape(g.grid_shape)
    assert np.max(np.abs(np.asarray(g.values) - direct.real)) < 1e-12
    assert np.max(np.abs(direct.imag)) < 1e-12  # conjugate-symmetric input


def _fft_oracle(f, n):
    """The n^d grid of a torus field as numpy's inverse FFT of its spectrum,
    each coefficient placed at k mod n, times n^d (2 pi)^(-d/2)."""
    d = f.dim
    spec = np.zeros((n,) * d + f.values.shape[1:], dtype=complex)
    spec[tuple((f.k % n).T)] = f.values
    return np.fft.ifftn(spec, axes=tuple(range(d))) * (n**d * TWO_PI ** (-d / 2))


@pytest.mark.parametrize(
    "op, lambda_max, res",
    [
        (TorusLaplacian(Torus(1)), 30.0, None),
        (TorusLaplacian(Torus(1)), 30.0, "nyquist"),
        (TorusLaplacian(Torus(2)), 40.0, None),
        (TorusLaplacian(Torus(2)), 40.0, "nyquist"),
        (TorusLaplacian(Torus(2)), 120.0**2, 256),  # j k up to 255 x 120
        (TorusLaplacian(Torus(3)), 20.0, None),
        (TorusLaplacian(Torus(3)), 20.0, "nyquist"),
        (TorusStokes(Torus(2)), 30.0, None),
        (TorusStokes(Torus(2)), 30.0, "nyquist"),
        (TorusStokes(Torus(3)), 12.0, None),
        (TorusStokes(Torus(3)), 12.0, "nyquist"),
    ],
)
@pytest.mark.parametrize("real", [True, False])
def test_torus_synthesis_matches_the_fft_oracle(op, lambda_max, res, real):
    f = random_field(op, lambda_max, np.random.default_rng(23), real=real, include_mean=True)
    if res == "nyquist":  # the fewest points the guard allows
        res = 2 * f.max_axis_index() + 1
    g = synthesize(f, res)
    want = _fft_oracle(f, g.grid_shape[0])
    assert np.max(np.abs(g.values - want)) <= 1e-14 * np.max(np.abs(g.values))
    assert np.iscomplexobj(g.values) == (conjugate_symmetry_violation(f) != 0.0)
    assert np.iscomplexobj(g.values) != real


def test_analyze_builds_no_table_over_an_index_range():
    # on 16 points 2^29 = 0 and 2^29 + 1 = 1 (mod 16): each huge mode has the
    # samples of a small one, and its exact phases give that mode's inner
    # product.  So the Gram check passes for {1, 2^29}, which are orthogonal
    # there, and names the pair {1, 2^29 + 1}, which alias.  A table over the
    # index range 1..2^29 + 1 would need 8 GiB per axis.
    op = TorusLaplacian(Torus(1))
    g = synthesize(random_field(op, 16.0, np.random.default_rng(3), real=False), 16)
    tol = 1e-15 * np.max(np.abs(g.values))
    small = analyze(g, [ModeIndex((0,)), ModeIndex((1,))], op).values
    for big, alias in ((2**29, 0), (2**29 + 1, 1)):
        c = analyze(g, [ModeIndex((1,)), ModeIndex((big,))], op, check=False).values
        assert abs(c[0] - small[1]) <= tol and abs(c[1] - small[alias]) <= tol
    analyze(g, [ModeIndex((1,)), ModeIndex((2**29,))], op)
    with pytest.raises(AccuracyError, match=r"pair \(k=\(1,\), m=0\) / \(k=\(536870913,\), m=0\)"):
        analyze(g, [ModeIndex((1,)), ModeIndex((2**29 + 1,))], op)


def _sorted_axis_tables(operator, k, axes):
    """The torus tables over the sorted distinct indices of each column."""
    tables = []
    for a, x in enumerate(axes):
        uniq, place = np.unique(k[:, a], return_inverse=True)
        t = _grid_phases(x.size, uniq)
        tables.append((_torus_scale(operator.dim) * t if a == 0 else t, place))
    return tables


@pytest.mark.parametrize(
    "op, res",
    [
        (TorusLaplacian(Torus(1)), (9,)),
        (TorusLaplacian(Torus(1)), (10,)),
        (TorusLaplacian(Torus(2)), (16, 7)),
        (TorusLaplacian(Torus(3)), (6, 7, 8)),
        (TorusStokes(Torus(3)), (5, 8, 4)),
    ],
)
def test_torus_axis_tables_match_the_sorted_tables(op, res):
    axes = uniform_axes(op.domain, res)
    n = np.array(res)
    rng = np.random.default_rng(sum(res))
    below = [np.zeros((0, op.dim), dtype=np.int64)]  # every |k| < n/2
    below += [rng.integers(-((n - 1) // 2), (n - 1) // 2 + 1, size=(m, op.dim)) for m in (1, 5, 40, 400)]
    half = n // 2  # k = +-n/2 on the even axes
    edge = [np.stack([half, -half, half - 1, 1 - half]), np.concatenate([below[-1], [half, -half]])]
    alias = [below[-1] + n * rng.integers(-3, 4, size=below[-1].shape), np.stack([n + 1, 2**29 * n - 1, 1 - 5 * n])]
    for k, exact in [(k, True) for k in below] + [(k, False) for k in edge + alias]:
        for (t, place), (t_ref, place_ref) in zip(_axis_tables(op, k, axes), _sorted_axis_tables(op, k, axes)):
            assert place.shape == place_ref.shape == (k.shape[0],)
            if exact:
                assert np.array_equal(t, t_ref) and np.array_equal(place, place_ref)
            else:  # indices that alias share a row, whose phases are each one's
                assert np.array_equal(t[place], t_ref[place_ref])


@pytest.mark.parametrize("check", [True, False])
def test_analyze_refuses_a_shifted_torus_grid(check):
    # torus rows are the phases at x_j = 2 pi j / n; on an evenly spaced grid
    # shifted by x0, such as the cell centres (j + 1/2) h, they would be off by
    # e^{i k x0}, and the shifted rows are still orthonormal
    op = TorusLaplacian(Torus(2))
    g = synthesize(SpectralField(op, {(1, 0): 1.0, (-1, 0): 1.0}), 8)
    shifted = (g.axes[0] + math.pi / 8, g.axes[1])
    with pytest.raises(ConfigError, match="torus quadrature requires the canonical uniform grid"):
        analyze(GridField(g.domain, shifted, g.values), [ModeIndex((1, 0))], op, check=check)
    with pytest.raises(ConfigError, match="torus quadrature requires the canonical uniform grid"):
        lp_norm(GridField(g.domain, shifted, g.values), 2.0)


def test_evaluate_matches_synthesize_on_vector_fields():
    # a vector amplitude multiplies the scalar eigenfunction of its k,
    # the Dirichlet sine as well as the torus exponential
    line = SpectralField(DirichletLaplacian(Interval(math.pi)), {(1,): np.array([1.0])})
    assert np.allclose(evaluate(line, [[0.0], [math.pi / 2]]), [[0.0], [math.sqrt(2.0 / math.pi)]], rtol=0, atol=1e-15)
    box = SpectralField(DirichletLaplacian(Box((1.0, 2.0))), {(1, 2): [0.5, -1.0], (3, 1): [2.0 + 1j, 0.25]})
    torus = SpectralField(TorusLaplacian(Torus(2)), {(1, -2): [0.5, 1j], (0, 1): [1.0, -0.5], (-1, 0): [0.2, 0.3]})
    for f in (line, box, torus):
        g = synthesize(f, 8)
        got = evaluate(f, g.points()).reshape(g.values.shape)
        assert np.max(np.abs(got - g.values)) <= 1e-14 * np.max(np.abs(g.values))
    with pytest.raises(ConfigError, match=r"points must have shape \(n, 2\)"):
        evaluate(torus, np.zeros((3, 3)))


def test_synthesize_sums_the_stokes_rows_that_share_a_k():
    # synthesize used to keep only the last row written at each k
    plane = TorusStokes(Torus(2))
    real = SpectralField(
        plane,
        {
            ModeIndex((1, 0), 1): np.array([0.0, 1.0]),
            ModeIndex((1, 0), 0): np.array([0.0, 2.0]),
            ModeIndex((-1, 0), 1): np.array([0.0, 1.0]),
            ModeIndex((-1, 0), 0): np.array([0.0, 2.0]),
        },
    )
    assert synthesize(real, 8).values[0, 0] == pytest.approx([0.0, 3.0 / math.pi], abs=1e-15)
    space = TorusStokes(Torus(3))
    cplx = SpectralField(
        space,
        {
            ModeIndex((1, 2, 0), 1): np.array([2.0, -1.0, 0.5j]),
            ModeIndex((1, 2, 0), 2): np.array([0.0, 0.0, 1.0 - 1j]),
            ModeIndex((1, 2, 0), 0): np.array([-4.0j, 2.0j, 3.0]),
            ModeIndex((0, -1, 1), 0): np.array([1.0, 0.5, 0.5]),
        },
    )
    for f in (real, cplx):
        g = synthesize(f, 8)
        got = evaluate(f, g.points()).reshape(g.values.shape)
        assert np.max(np.abs(got - g.values)) <= 1e-14 * np.max(np.abs(g.values))


def test_synthesize_rejects_undersampled_grid():
    op = TorusLaplacian(Torus(1))
    f = SpectralField(op, {(6,): 1.0 + 0j, (-6,): 1.0 + 0j})
    with pytest.raises(AliasingError):
        synthesize(f, 12)  # need >= 13 points for |k| = 6
    synthesize(f, 13)


def test_analyze_round_trip_interval():
    op = DirichletLaplacian(Interval(2.0))
    rng = np.random.default_rng(1)
    f = random_field(op, 80.0, rng, n_modes=6)
    g = synthesize(f)
    back = analyze(g, [m.index for m in enumerate_modes(op, 80.0)], op)
    assert subtract(f, back).l2() < 1e-12


def test_analyze_round_trip_stokes():
    op = TorusStokes(Torus(2))
    rng = np.random.default_rng(2)
    f = random_field(op, 8.0, rng, n_modes=6)
    g = synthesize(f)
    back = analyze(g, [m.index for m in enumerate_modes(op, 8.0)], op)
    assert subtract(f, back).l2() < 1e-12


def test_analyze_gram_check_names_offending_pair():
    op = DirichletLaplacian(Interval(1.0))
    f = SpectralField(op, {(1,): 1.0 + 0j})
    # 3 interior points cannot hold modes 1..6 orthogonal
    g = synthesize(f, 4)
    modes = [ModeIndex((k,)) for k in range(1, 7)]
    with pytest.raises(AccuracyError, match=r"k=\("):
        analyze(g, modes, op)


def test_lp_norm_against_quadrature_oracle():
    op = DirichletLaplacian(Interval(math.pi))
    f = SpectralField(op, {(1,): 1.0 + 0j})
    g = synthesize(f, 256)
    # w_1 = sqrt(2/pi) sin(x); every L^p norm by direct adaptive quadrature
    for p in (2.0, 3.0, 4.0):
        want = quad(lambda x: (math.sqrt(2.0 / math.pi) * abs(math.sin(x))) ** p, 0, math.pi)[0] ** (1.0 / p)
        assert lp_norm(g, p) == pytest.approx(want, rel=1e-9)
    assert lp_norm(g, math.inf) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-6)


def test_lp_norm_of_real_vector_grid_is_bitwise_the_abs_formula():
    rng = np.random.default_rng(3)
    torus = Torus(3)
    vals = rng.standard_normal((12, 12, 12, 3))
    vals[0, 0, 0] = [-0.0, -2.5, 0.0]
    assert np.any(vals < 0.0)
    mag = np.abs(vals)
    mag = np.sqrt(np.sum(mag * mag, axis=-1))
    # a contiguous array, and the component-first layout the solver's padded grids hand over
    component_first = np.moveaxis(np.ascontiguousarray(np.moveaxis(vals, -1, 0)), 0, -1)
    for layout in (vals, component_first):
        g = GridField(torus, uniform_axes(torus, 12), layout)
        w = quadrature_weights(g)
        for p in (1.0, 2.0, 3.5, 4.0):
            assert lp_norm(g, p) == float(np.sum(w * mag**p) ** (1.0 / p))
        assert lp_norm(g, math.inf) == float(mag.max())


def test_lp_norm_constant_mode_torus():
    op = TorusLaplacian(Torus(2))
    c = 1.7 - 0.4j
    f = SpectralField(op, {(0, 0): c})
    g = synthesize(f, 8)
    # |u| = |c| / (2 pi)^{d/2} everywhere -> L^p norm = |c| (2 pi)^{d/p - d/2}
    for p in (2.0, 4.0):
        want = abs(c) * TWO_PI ** (2.0 / p - 1.0)
        assert lp_norm(g, p) == pytest.approx(want, rel=1e-12)


def test_parseval_l2_equals_coefficient_norm():
    rng = np.random.default_rng(3)
    for op in (TorusLaplacian(Torus(1)), TorusLaplacian(Torus(2)), TorusStokes(Torus(2))):
        f = random_field(op, 9.0, rng, n_modes=7)
        g = synthesize(f)
        assert lp_norm(g, 2.0) == pytest.approx(f.l2(), rel=1e-12)


def test_parseval_interval():
    op = DirichletLaplacian(Interval(1.4))
    rng = np.random.default_rng(4)
    f = random_field(op, 120.0, rng, n_modes=5)
    g = synthesize(f)
    assert lp_norm(g, 2.0) == pytest.approx(f.l2(), rel=1e-12)


def test_quadrature_weights_integrate_polynomial_exactly():
    # composite Simpson on the interval grid integrates cubics exactly
    dom = Interval(2.0)
    axes = uniform_axes(dom, 10)
    x = axes[0]
    g = GridField(dom, axes, x**3 - x + 0.5)
    w = quadrature_weights(g)
    assert float(np.sum(w * g.values)) == pytest.approx(4.0 - 2.0 + 1.0, rel=1e-13)


@pytest.mark.parametrize("check", [True, False])
def test_analyze_rejects_an_index_beyond_the_axis_bound(check):
    # the bound SpectralField enforces, named as it names it, also for an
    # index no int64 holds
    op = DirichletLaplacian(Interval(1.0))
    g = synthesize(SpectralField(op, {(1,): 1.0 + 0j}), 16)
    for k in (2**70, 2**31):
        with pytest.raises(ConfigError, match=rf"mode index \({k},\) exceeds"):
            analyze(g, [ModeIndex((1,)), ModeIndex((k,))], op, check=check)
    # a mode invalid for the operator before it is still the one reported
    with pytest.raises(ConfigError, match=r">= 1 per axis, got \(0,\)"):
        analyze(g, [ModeIndex((0,)), ModeIndex((2**70,))], op, check=check)


def test_leray_projection_properties():
    lap = TorusLaplacian(Torus(2))
    rng = np.random.default_rng(5)
    raw = {}
    for k in [(1, 0), (0, 1), (1, 1), (2, -1), (3, 2), (0, 0)]:
        raw[k] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vf = SpectralField(lap, raw)
    p1 = leray_project(vf)
    assert divergence_residual(p1) < 1e-14
    # projecting twice equals projecting once
    back = SpectralField(lap, {idx.k: v for idx, v in p1.coefficients.items()})
    p2 = leray_project(back)
    assert subtract(p1, p2).l2() < 1e-14
    # the mean is carried through untouched
    assert np.array_equal(p1.coefficients[ModeIndex((0, 0))], raw[(0, 0)])


def test_leray_projection_self_adjoint():
    lap = TorusLaplacian(Torus(2))
    rng = np.random.default_rng(6)
    ks = [(1, 0), (1, 1), (2, -1)]
    a = {k: rng.standard_normal(2) + 1j * rng.standard_normal(2) for k in ks}
    b = {k: rng.standard_normal(2) + 1j * rng.standard_normal(2) for k in ks}

    def inner(f, g):
        acc = 0.0 + 0.0j
        for idx, v in f.coefficients.items():
            w = g.coefficients.get(idx)
            if w is not None:
                acc += np.vdot(np.asarray(w), np.asarray(v))
        return acc

    fa, fb = SpectralField(lap, a), SpectralField(lap, b)
    pa, pb = leray_project(fa), leray_project(fb)
    lhs = inner(pa, fb)
    rhs = inner(fa, pb)
    assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_leray_projection_of_a_gradient_leaves_a_valid_roundoff_field():
    # c k projects to zero; what roundoff leaves must pass the orthogonality
    # check instead of raising
    lap = TorusLaplacian(Torus(2))
    for seed in range(300):
        rng = np.random.default_rng(seed)
        k = rng.integers(-5, 6, size=2)
        if not k.any():
            continue
        v = complex(rng.standard_normal(), rng.standard_normal()) * k
        proj = leray_project(SpectralField(lap, {tuple(k.tolist()): v}))
        assert np.max(np.abs(proj.values), initial=0.0) <= np.finfo(float).eps * np.linalg.norm(v)


def test_stokes_norm_matches_componentwise_laplacian():
    # the vector Stokes norm is the sum of scalar Laplacian norms per component
    st = TorusStokes(Torus(2))
    lap = TorusLaplacian(Torus(2))
    rng = np.random.default_rng(7)
    f = random_field(st, 25.0, rng, n_modes=9)
    comps = {0: {}, 1: {}}
    for idx, v in f.coefficients.items():
        for c in range(2):
            comps[c][ModeIndex(idx.k)] = complex(np.asarray(v)[c])
    lhs = f.l2()
    rhs = math.sqrt(sum(SpectralField(lap, comps[c]).l2() ** 2 for c in comps))
    assert lhs == pytest.approx(rhs, rel=1e-15)


def test_conjugate_symmetry_detector():
    op = TorusLaplacian(Torus(1))
    good = SpectralField(op, {(2,): 1.0 + 2.0j, (-2,): 1.0 - 2.0j})
    assert conjugate_symmetry_violation(good) == 0.0
    bad = SpectralField(op, {(2,): 1.0 + 2.0j, (-2,): 1.0 + 2.0j})
    assert conjugate_symmetry_violation(bad) == pytest.approx(4.0, rel=1e-15)


def test_random_field_is_real_and_seeded():
    op = TorusLaplacian(Torus(2))
    f1 = random_field(op, 10.0, np.random.default_rng(42), n_modes=9)
    f2 = random_field(op, 10.0, np.random.default_rng(42), n_modes=9)
    assert sorted(f1.coefficients, key=ModeIndex.sort_key) == sorted(f2.coefficients, key=ModeIndex.sort_key)
    assert conjugate_symmetry_violation(f1) < 1e-15
    g = synthesize(f1)
    assert np.isrealobj(np.asarray(g.values))


@pytest.mark.parametrize("n_modes", [0, -1])
def test_random_field_rejects_a_mode_count_below_one(n_modes):
    with pytest.raises(ConfigError, match=f"^n_modes must be >= 1, got {n_modes}$"):
        random_field(TorusLaplacian(Torus(2)), 10.0, np.random.default_rng(0), n_modes=n_modes)


def test_mode_cache_is_bounded():
    op = DirichletLaplacian(Interval(1.0))
    first = enumerate_modes_cached(op, 10.0)
    assert enumerate_modes_cached(op, 10.0) is first  # a hit returns the stored list
    assert [p.index for p in first] == [p.index for p in enumerate_modes(op, 10.0)]
    for i in range(40):
        enumerate_modes_cached(op, 10.0 + i + 0.5)
    info = enumerate_modes_cached.cache_info()
    assert info.maxsize == 32
    assert info.currsize <= 32


def test_stokes_amplitudes_must_be_orthogonal():
    st = TorusStokes(Torus(2))
    with pytest.raises(ConfigError):
        SpectralField(st, {(1, 0): np.array([1.0, 0.0])})  # parallel to k
    SpectralField(st, {(1, 0): np.array([0.0, 1.0])})


def test_field_arithmetic_closed_on_stokes():
    st = TorusStokes(Torus(2))
    rng = np.random.default_rng(8)
    f = random_field(st, 16.0, rng, n_modes=6)
    z = subtract(f, f)
    assert z.l2() < 1e-15
    doubled = add(f, f)
    assert doubled.l2() == pytest.approx(2.0 * f.l2(), rel=1e-14)
    assert scale(f, -0.5).l2() == pytest.approx(0.5 * f.l2(), rel=1e-14)


def test_grid_field_validation():
    dom = Interval(1.0)
    axes = uniform_axes(dom, 4)
    with pytest.raises(ConfigError):
        GridField(dom, axes, np.array([1.0, 2.0]))  # wrong shape
    vals = np.zeros(len(axes[0]))
    vals[1] = np.nan
    with pytest.raises(ConfigError):
        GridField(dom, axes, vals)


def test_dirichlet_synthesis_vanishes_on_boundary_exactly():
    op = DirichletLaplacian(Interval(0.9))
    rng = np.random.default_rng(9)
    f = random_field(op, 400.0, rng, n_modes=10)
    g = synthesize(f)
    v = np.asarray(g.values)
    assert v[0] == 0.0 and v[-1] == 0.0


@pytest.mark.parametrize(
    "op,lambda_max,res",
    [
        (DirichletLaplacian(Interval(1.0)), 400.0, 8),
        (DirichletLaplacian(Box((1.0, 2.0))), 150.0, 6),
        (TorusStokes(Torus(2)), 10.0, 5),
    ],
)
def test_analyze_names_the_first_failing_gram_pair(op, lambda_max, res):
    # a grid too coarse for the modes: the reported pair must be the first
    # pair i <= j, in row order, that a plain double loop finds
    modes = [p.index for p in enumerate_modes(op, lambda_max)]
    g = synthesize(SpectralField(op, {}), res)
    if isinstance(op, TorusStokes):
        g = GridField(g.domain, g.axes, np.zeros(g.grid_shape + (2,)))
    w = quadrature_weights(g).reshape(-1)
    vals = [mode_evaluator(op, idx)(g.points()) for idx in modes]
    first = None
    for i in range(len(modes)):
        for j in range(i, len(modes)):
            prod = np.conj(vals[j]) * vals[i]
            gram = complex(np.sum(w[:, None] * prod if prod.ndim == 2 else w * prod))
            if abs(gram - (1.0 if i == j else 0.0)) > 1e-8:
                first = (modes[i], modes[j])
                break
        if first:
            break
    assert first is not None
    a, b = first
    want = f"pair (k={a.k}, m={a.polarization}) / (k={b.k}, m={b.polarization})"
    with pytest.raises(AccuracyError) as err:
        analyze(g, modes, op)
    assert want in str(err.value)


@pytest.mark.parametrize(
    "op, lam",
    [(TorusLaplacian(Torus(2)), 30.0), (TorusStokes(Torus(3)), 6.0), (DirichletLaplacian(Interval(1.0)), 400.0)],
)
def test_coefficient_view_keys_are_plain_mode_indices(op, lam):
    # the view's keys are set from the packed rows directly, without the
    # per-key normalization of ModeIndex; they must be the same keys
    f = random_field(op, lam, np.random.default_rng(5))
    keys = list(f.coefficients)
    assert len(keys) == f.k.shape[0] > 0
    for idx, k, p in zip(keys, f.k.tolist(), f.pol.tolist()):
        want = ModeIndex(tuple(int(v) for v in k), int(p))
        assert type(idx) is ModeIndex and type(idx.polarization) is int
        assert all(type(v) is int for v in idx.k) and type(idx.k) is tuple
        assert idx == want and hash(idx) == hash(want)
        assert f.coefficients[want] is f.coefficients[idx]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 64), irregular=st.booleans(), decades=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_simpson_is_scipys_bit_for_bit(n, irregular, decades, seed):
    # the ledgers' and the interpolation window's time rule; a last-bit
    # difference (a numpy scalar's ** in place of the array power in the
    # even-N correction) shows in about one case in a thousand, so each
    # example checks a batch of samples of its shape
    rng = np.random.default_rng(seed)
    for _ in range(32):
        start = rng.uniform(-10.0, 10.0)
        if irregular:
            x = start + np.cumsum(rng.uniform(1e-3, 1.0, n))
        else:
            x = np.linspace(start, start + rng.uniform(0.1, 10.0), n)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-decades, decades, n)
        want, got = simpson(y, x=x), _simpson(y, x)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x.tolist(), y.tolist())
