import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenapprox import (
    Box,
    ConfigError,
    DirichletLaplacian,
    EigenPair,
    Interval,
    ModeIndex,
    ResourceLimitError,
    Torus,
    TorusLaplacian,
    TorusStokes,
    enumerate_modes,
    mode_evaluator,
)
from eigenapprox import domains
from eigenapprox.domains import polarization_basis, sinpi


def test_interval_eigenvalues():
    op = DirichletLaplacian(Interval(math.pi))
    # L = pi makes lambda_k = k^2 exactly
    for k in range(1, 6):
        assert op.eigenvalue(ModeIndex((k,))) == pytest.approx(k * k, rel=1e-15)
    assert op.lambda_min() == pytest.approx(1.0, rel=1e-15)


def test_box_eigenvalue_sum():
    op = DirichletLaplacian(Box((1.0, 2.0)))
    lam = op.eigenvalue(ModeIndex((3, 2)))
    assert lam == pytest.approx((3 * math.pi) ** 2 + (2 * math.pi / 2.0) ** 2, rel=1e-14)


def test_box_eigenvalue_adds_its_axis_terms_from_the_left(monkeypatch):
    # from Python 3.12 on the builtin sum adds floats compensated, which
    # split the scalar eigenvalue from the array one on 123 of these modes
    monkeypatch.setattr(domains, "sum", math.fsum, raising=False)
    op = DirichletLaplacian(Box((math.pi, 2.0, 1.5)))
    k = np.array(list(itertools.product(range(1, 12), repeat=3)), dtype=np.int64)
    assert domains._eigenvalues(op, k).tolist() == [op.eigenvalue(row) for row in k.tolist()]


_BAD_LENGTHS = {
    "True": True, "np.True_": np.bool_(True), "'3'": "3", "0": 0, "-1.0": -1.0, "inf": math.inf, "nan": math.nan,
    "10**400": 10**400, "None": None, "[1.0]": [1.0],
}


@pytest.mark.parametrize("length", _BAD_LENGTHS.values(), ids=list(_BAD_LENGTHS))
def test_interval_and_box_refuse_the_same_lengths(length):
    # a Box once read "12" as the 2-box (1, 2) and raised ValueError on "x",
    # while an Interval took True
    with pytest.raises(ConfigError, match=r"^interval length must be a positive finite number, got "):
        Interval(length)
    with pytest.raises(ConfigError, match=r"^box lengths must be positive finite numbers, got "):
        Box((length,))
    with pytest.raises(ConfigError, match=r"^box lengths must be positive finite numbers, got "):
        Box((1.0, length))


def test_box_lengths_are_a_sequence_of_numbers():
    with pytest.raises(ConfigError, match=r"^box lengths must be positive finite numbers, got '12'$"):
        Box("12")
    with pytest.raises(ConfigError, match=r"^box lengths must be a sequence, got 3.0$"):
        Box(3.0)
    with pytest.raises(ConfigError, match=r"^box dimension must be 1..3, got 4$"):
        Box((1.0, 2.0, 3.0, 4.0))


@pytest.mark.parametrize("length", [3, np.int64(3), 3.0, np.float64(3.0), np.float32(3.0)], ids=repr)
def test_interval_and_box_take_the_same_lengths(length):
    assert Interval(length).lengths == Box((length,)).lengths == (3.0,)
    assert type(Interval(length).length) is float and type(Box((length,)).lengths[0]) is float


def test_torus_eigenvalue_is_k_squared():
    op = TorusLaplacian(Torus(3))
    assert op.eigenvalue(ModeIndex((1, -2, 2))) == 9.0
    assert op.eigenvalue(ModeIndex((0, 0, 0))) == 0.0
    assert op.lambda_min() == 1.0


def test_sinpi_exact_zeros_and_symmetry():
    # exact zeros at every integer, including huge ones where np.sin(pi*x) drifts
    ks = np.array([0.0, 1.0, 2.0, 173.0, -40.0, 1e6, 12345678.0])
    assert np.all(sinpi(ks) == 0.0)
    x = np.linspace(-3, 3, 641)
    assert np.allclose(sinpi(x), np.sin(np.pi * x), atol=5e-16)
    # half-integers hit exactly +-1
    assert sinpi(np.array([0.5]))[0] == 1.0
    assert sinpi(np.array([1.5]))[0] == -1.0


def test_dirichlet_mode_vanishes_on_boundary_exactly():
    op = DirichletLaplacian(Interval(0.7))
    ev = mode_evaluator(op, ModeIndex((9,)))
    vals = ev(np.array([[0.0], [0.7]]))
    assert vals[0] == 0.0 and vals[1] == 0.0
    opb = DirichletLaplacian(Box((1.0, 0.3)))
    evb = mode_evaluator(opb, ModeIndex((2, 5)))
    pts = np.array([[0.0, 0.1], [1.0, 0.2], [0.5, 0.0], [0.5, 0.3]])
    assert np.all(evb(pts) == 0.0)


def test_mode_normalization_quadrature():
    # || w_k ||_L2 = 1 via direct dense quadrature, not the library's
    op = DirichletLaplacian(Interval(1.3))
    ev = mode_evaluator(op, ModeIndex((4,)))
    x = np.linspace(0.0, 1.3, 20001).reshape(-1, 1)
    vals = ev(x)
    mass = np.trapezoid(np.abs(vals) ** 2, x[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_torus_mode_normalization():
    op = TorusLaplacian(Torus(1))
    ev = mode_evaluator(op, ModeIndex((3,)))
    x = np.linspace(0.0, 2.0 * math.pi, 4001).reshape(-1, 1)
    vals = ev(x)
    mass = np.trapezoid(np.abs(vals) ** 2, x[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_enumerate_interval_counting():
    op = DirichletLaplacian(Interval(math.pi))
    ms = enumerate_modes(op, 5.0)
    assert [m.index.k for m in ms] == [(1,), (2,)]


def test_enumerate_box_counting():
    op = DirichletLaplacian(Box((math.pi, math.pi)))
    ms = enumerate_modes(op, 5.0)
    assert [m.index.k for m in ms] == [(1, 1), (1, 2), (2, 1)]


def test_enumerate_torus_spherical_counts():
    op = TorusLaplacian(Torus(2))
    # |k|^2 <= 1 -> 5 modes, <= 4 -> 13 modes (including k=0)
    assert len(enumerate_modes(op, 1.0)) == 5
    assert len(enumerate_modes(op, 4.0)) == 13


def test_enumerate_sorted_and_deterministic():
    op = TorusLaplacian(Torus(2))
    ms = enumerate_modes(op, 10.0)
    lams = [m.eigenvalue for m in ms]
    assert lams == sorted(lams)
    ms2 = enumerate_modes(op, 10.0)
    assert [m.index for m in ms] == [m.index for m in ms2]


def test_enumerate_mode_cap():
    op = TorusLaplacian(Torus(3))
    with pytest.raises(ResourceLimitError):
        enumerate_modes(op, 1e9)


def test_enumerate_refuses_a_dirichlet_reach_past_every_double():
    # L sqrt(lambda_max) / pi overflows: the cap refuses the box, no OverflowError
    for op in (DirichletLaplacian(Interval(1e300)), DirichletLaplacian(Box((1e300, 1.0)))):
        with pytest.raises(ResourceLimitError, match="over the cap of 1000000"):
            enumerate_modes(op, 1e300)


def test_enumerate_empty_dirichlet_spectrum_on_a_long_box():
    # one axis alone would span millions of indices, but lambda_min > lambda_max
    assert enumerate_modes(DirichletLaplacian(Box((1e7, 1.0))), 5.0) == []
    assert enumerate_modes(DirichletLaplacian(Box((1e7, 1e-7))), 10.0) == []


def test_stokes_polarization_count_and_orthogonality():
    op2 = TorusStokes(Torus(2))
    ms = enumerate_modes(op2, 1.0)
    # 4 wavevectors with |k|=1, one tangential direction each; no k=0 mode
    assert len(ms) == 4
    for m in ms:
        kv = np.asarray(m.index.k, dtype=float)
        basis = polarization_basis(m.index.k)
        assert abs(basis[0] @ kv) < 1e-14

    op3 = TorusStokes(Torus(3))
    ms3 = enumerate_modes(op3, 1.0)
    assert len(ms3) == 12  # 6 wavevectors x 2 polarizations
    for m in ms3:
        basis = polarization_basis(m.index.k)
        kv = np.asarray(m.index.k, dtype=float)
        # orthonormal frame orthogonal to k
        assert abs(basis[0] @ kv) < 1e-14 and abs(basis[1] @ kv) < 1e-14
        assert np.linalg.norm(basis[0]) == pytest.approx(1.0, abs=1e-14)
        assert abs(basis[0] @ basis[1]) < 1e-14


def test_polarization_basis_deterministic():
    b1 = polarization_basis((2, -1, 3))
    b2 = polarization_basis((2, -1, 3))
    assert np.array_equal(b1, b2)


def test_mirror_and_representative_split_each_pair():
    for k in itertools.product(range(-2, 3), repeat=3):
        idx = ModeIndex(k, 1)
        mirror = idx.mirror()
        assert mirror.k == tuple(-ki for ki in k) and mirror.polarization == 1
        assert mirror.mirror() == idx
        if any(k):
            assert idx.is_representative() != mirror.is_representative()
        else:
            assert mirror == idx and idx.is_representative()
    assert ModeIndex((0, 2, -5)).is_representative()
    assert not ModeIndex((0, -2, 5)).is_representative()


def test_invalid_indices_rejected():
    op = DirichletLaplacian(Interval(1.0))
    with pytest.raises(ConfigError):
        op.validate_index(ModeIndex((0,)))
    with pytest.raises(ConfigError):
        op.validate_index(ModeIndex((-2,)))
    st = TorusStokes(Torus(2))
    with pytest.raises(ConfigError):
        st.validate_index(ModeIndex((0, 0), 1))  # no k=0 eigenmode
    st.validate_index(ModeIndex((0, 0), 0))  # carried mean is allowed
    with pytest.raises(ConfigError):
        st.validate_index(ModeIndex((1, 0), 2))  # only d-1 polarizations


def test_domain_validation():
    with pytest.raises(ConfigError):
        Interval(0.0)
    with pytest.raises(ConfigError):
        Box(())
    with pytest.raises(ConfigError):
        Box((1.0, -1.0))
    with pytest.raises(ConfigError):
        Torus(4)


def test_stokes_pair_evaluator_is_divergence_free_pointwise():
    # numerically differentiate one Stokes eigenfield; divergence ~ 0
    op = TorusStokes(Torus(2))
    ev = mode_evaluator(op, ModeIndex((2, 1), 1))
    h = 1e-6
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(0, 2 * math.pi, size=2)
        dux = (ev(np.array([x + [h, 0]]))[0, 0] - ev(np.array([x - [h, 0]]))[0, 0]) / (2 * h)
        duy = (ev(np.array([x + [0, h]]))[0, 1] - ev(np.array([x - [0, h]]))[0, 1]) / (2 * h)
        assert abs(dux + duy) < 1e-8


# -- enumeration against the per-mode walk --------------------------------------


def _walk_oracle(op, lambda_max):
    """Every index of a box wider than the spectrum, run through
    op.eigenvalue one mode at a time, kept where it is <= lambda_max and
    sorted by (eigenvalue, k, polarization)."""
    if isinstance(op, DirichletLaplacian):
        axes = [range(1, int(L * math.sqrt(lambda_max) / math.pi) + 3) for L in op.domain.lengths]
    else:
        b = int(math.sqrt(lambda_max)) + 2
        axes = [range(-b, b + 1)] * op.dim
    pols = range(1, op.dim) if isinstance(op, TorusStokes) else (0,)
    pairs = []
    for ks in itertools.product(*axes):
        lam = op.eigenvalue(ks)
        if lam <= lambda_max and not (isinstance(op, TorusStokes) and not any(ks)):
            pairs += [EigenPair(ModeIndex(ks, m), lam) for m in pols]
    return sorted(pairs, key=lambda p: (p.eigenvalue, p.index.k, p.index.polarization))


_LENGTHS = st.floats(0.1, 3.0)


@st.composite
def _operators(draw):
    kind = draw(st.sampled_from(["interval", "box2", "box3", "torus", "stokes"]))
    if kind == "interval":
        return DirichletLaplacian(Interval(draw(_LENGTHS)))
    if kind in ("box2", "box3"):
        return DirichletLaplacian(Box(tuple(draw(_LENGTHS) for _ in range(int(kind[-1])))))
    if kind == "torus":
        return TorusLaplacian(Torus(draw(st.integers(1, 3))))
    return TorusStokes(Torus(draw(st.integers(2, 3))))


@settings(max_examples=150, deadline=None)
@given(op=_operators(), data=st.data())
@example(op=DirichletLaplacian(Interval(0.2)), data=None)  # lambda_max = eigenvalue of k = 5
def test_enumeration_is_the_per_mode_walk(op, data):
    if data is None:
        lambda_max = op.eigenvalue((5,))
    elif data.draw(st.booleans(), label="on an eigenvalue"):
        lo = 1 if isinstance(op, DirichletLaplacian) else -6
        ks = data.draw(st.tuples(*[st.integers(lo, 6)] * op.dim).filter(any), label="k")
        lambda_max = op.eigenvalue(ks)
    else:
        lambda_max = data.draw(st.floats(0.5, 60.0), label="lambda_max")
    got = enumerate_modes(op, lambda_max)
    want = _walk_oracle(op, lambda_max)
    assert got == want
    assert [p.eigenvalue.hex() for p in got] == [p.eigenvalue.hex() for p in want]
    assert all(type(p.eigenvalue) is float for p in got)
