"""The array-backed SpectralField against per-mode oracles written here.

Every vectorized rule must give bit-for-bit what the scalar rule gives mode by
mode: eigenvalues, |c|^2, conjugate symmetry (and with it the real/complex
choice of torus synthesis) and every diagonal multiplier.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    conjugate_symmetry_violation,
    synthesize,
)
from eigenapprox.approx import MULTIPLIERS, _apply_multiplier, multiplier
from eigenapprox.domains import polarization_basis

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# finite parts, with signed zeros and exact repeats (so mirrors can match)
_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, -3e150]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_VALUE = st.builds(complex, _PART, _PART)


@st.composite
def operators(draw):
    kind = draw(st.sampled_from(["interval", "box", "torus", "stokes"]))
    if kind == "interval":
        return DirichletLaplacian(Interval(draw(st.floats(0.3, 7.0))))
    if kind == "box":
        d = draw(st.integers(2, 3))
        return DirichletLaplacian(Box(tuple(draw(st.floats(0.3, 7.0)) for _ in range(d))))
    if kind == "torus":
        return TorusLaplacian(Torus(draw(st.integers(1, 3))))
    return TorusStokes(Torus(draw(st.integers(2, 3))))


@st.composite
def fields(draw, operator=None):
    """A valid field: random modes, each torus mirror present as its exact
    conjugate, as a perturbed copy or not at all; scalar or vector values."""
    op = draw(operators()) if operator is None else operator
    d = op.dim
    stokes = isinstance(op, TorusStokes)
    torus = isinstance(op, (TorusLaplacian, TorusStokes))
    lo = -4 if torus else 1
    ks = draw(st.lists(st.tuples(*[st.integers(lo, 4)] * d), max_size=14, unique=True))
    vector = stokes or (torus and d > 1 and draw(st.booleans()))
    coeffs = {}

    def value(k):
        if stokes:
            if not any(k):
                return np.array([draw(_VALUE) for _ in range(d)])
            return sum(draw(_VALUE) * e for e in polarization_basis(k))
        if vector:
            return np.array([draw(_VALUE) for _ in range(d)])
        return draw(_VALUE)

    for k in ks:
        if ModeIndex(k) in coeffs:
            continue
        v = value(k)
        coeffs[ModeIndex(k)] = v
        mk = tuple(-x for x in k)
        if torus and mk != k and ModeIndex(mk) not in coeffs:
            how = draw(st.sampled_from(["conj", "other", "missing"]))
            if how == "conj":
                coeffs[ModeIndex(mk)] = np.conj(v) if vector else v.conjugate()
            elif how == "other":
                coeffs[ModeIndex(mk)] = value(mk)
    return SpectralField(op, coeffs)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=complex).tobytes()


def _same(a, b) -> bool:
    """Bitwise equal mappings, order included."""
    return list(a) == list(b) and all(_bits(a[i]) == _bits(b[i]) for i in a)


# -- per-mode oracles ---------------------------------------------------------


def _symmetry_oracle(f) -> float:
    worst = 0.0
    for idx, v in f.coefficients.items():
        w = f.coefficients.get(ModeIndex([-x for x in idx.k], idx.polarization))
        w = np.zeros_like(np.asarray(v)) if w is None else w
        worst = max(worst, float(np.max(np.abs(np.conj(np.asarray(v)) - np.asarray(w)))))
    return worst


def _scalar_rule(name, param, k, lam):
    """The per-mode factor, or None where the mode is dropped."""
    if name == "identity":
        return 1.0
    if name == "semigroup":
        return math.exp(-float(param) * lam)
    if name == "pi_theta":
        return math.exp(-float(param) * lam) if lam < float(param) ** -2 else None
    if name == "fractional_power":
        return lam ** float(param)
    if name == "spherical":
        return 1.0 if sum(x * x for x in k) <= int(param) ** 2 else None
    return 1.0 if max(abs(x) for x in k) <= int(param) else None


_PARAMS = {
    "identity": [None],
    "semigroup": [0.0, 0.013, 0.3, 2.0],
    "pi_theta": [0.05, 0.21, 0.5, 1.0],
    "fractional_power": [-0.75, 0.25, 0.5, 1.0, 1.3],
    "spherical": [0, 1, 2, 3],
    "cubic": [0, 1, 2, 3],
}


# -- the tests ----------------------------------------------------------------


@SETTINGS
@given(fields())
def test_eigenvalues_and_amplitudes_match_scalar_formulas(f):
    lams, amps = f.eigen_arrays()
    for i, (idx, v) in enumerate(f.coefficients.items()):
        assert lams[i] == f.operator.eigenvalue(idx)  # bitwise: no tolerance
        want = float(np.sum(np.abs(v) ** 2)) if isinstance(v, np.ndarray) else abs(v) ** 2
        assert amps[i] == want
    pos, pamps = f.eigen_arrays(positive_only=True)
    keep = [f.operator.eigenvalue(idx) > 0.0 for idx in f.coefficients]
    assert pos.tolist() == [x for x, kp in zip(lams.tolist(), keep) if kp]
    assert pamps.tolist() == [x for x, kp in zip(amps.tolist(), keep) if kp]
    assert f.max_axis_index() == max((max(abs(x) for x in idx.k) for idx in f.coefficients), default=0)


def test_eigenvalue_arrays_match_the_scalar_formula_on_many_indices():
    # numpy's square differs from Python's float power on a few inputs in
    # ten thousand, so a wide sweep is needed to see a difference
    rng = np.random.default_rng(3)
    k = np.arange(1, 2001).reshape(-1, 1)
    for L in rng.uniform(0.2, 9.0, size=6).tolist() + [1.0, math.pi]:
        op = DirichletLaplacian(Interval(L))
        f = SpectralField(op, {ModeIndex(int(kk)): 1.0 for kk in k[:, 0]})
        assert f.eigen_arrays()[0].tolist() == [op.eigenvalue(idx) for idx in f.coefficients]
    box = DirichletLaplacian(Box((0.7, 1.9, 2.6)))
    ks = rng.integers(1, 400, size=(3000, 3))
    f = SpectralField(box, {ModeIndex(tuple(row)): 1.0 for row in ks.tolist()})
    assert f.eigen_arrays()[0].tolist() == [box.eigenvalue(idx) for idx in f.coefficients]


@SETTINGS
@given(st.data())
def test_symmetry_and_real_synthesis_match_oracle(data):
    op = data.draw(st.sampled_from([TorusLaplacian(Torus(1)), TorusLaplacian(Torus(2)), TorusLaplacian(Torus(3)),
                                    TorusStokes(Torus(2)), TorusStokes(Torus(3))]))
    f = data.draw(fields(op))
    want = _symmetry_oracle(f)
    assert conjugate_symmetry_violation(f) == want
    g = synthesize(f)
    assert np.iscomplexobj(g.values) == (want != 0.0)


def test_symmetry_edge_cases():
    op = TorusLaplacian(Torus(2))
    # -0.0 against 0.0 is symmetric; the k = 0 mode must be real
    f = SpectralField(op, {(1, 0): complex(1.0, -0.0), (-1, 0): complex(1.0, 0.0), (0, 0): 2.0})
    assert conjugate_symmetry_violation(f) == 0.0
    assert not np.iscomplexobj(synthesize(f).values)
    g = SpectralField(op, {(0, 0): 2.0 + 1e-300j})
    assert conjugate_symmetry_violation(g) == _symmetry_oracle(g) > 0.0
    assert np.iscomplexobj(synthesize(g).values)
    # a missing mirror counts as a zero coefficient
    h = SpectralField(op, {(2, 1): 0.5 - 0.25j})
    assert conjugate_symmetry_violation(h) == abs(0.5 + 0.25j)
    assert conjugate_symmetry_violation(SpectralField(op, {(2, 1): 0.0 + 0.0j})) == 0.0


@SETTINGS
@given(st.data())
def test_multipliers_match_scalar_rules(data):
    f = data.draw(fields())
    torus = isinstance(f.operator, (TorusLaplacian, TorusStokes))
    names = [n for n in MULTIPLIERS if torus or n not in ("spherical", "cubic")]
    name = data.draw(st.sampled_from(names))
    param = data.draw(st.sampled_from(_PARAMS[name]))
    lams = np.array([f.operator.eigenvalue(idx) for idx in f.coefficients], dtype=float)
    k = np.array([idx.k for idx in f.coefficients], dtype=np.int64).reshape(-1, f.dim)
    pos = lams > 0.0
    factors = multiplier(name, param)(k[pos], lams[pos])
    for kk, lam, c in zip(k[pos].tolist(), lams[pos].tolist(), factors.tolist()):
        want = _scalar_rule(name, param, kk, lam)
        assert math.isnan(c) if want is None else c == want
    # the applied operator against the per-mode loop it replaces
    out = {}
    for idx, v in f.coefficients.items():
        lam = f.operator.eigenvalue(idx)
        c = 1.0 if lam <= 0.0 else _scalar_rule(name, param, idx.k, lam)
        if c is not None:
            out[idx] = v if c == 1.0 else c * v
    assert _same(_apply_multiplier(f, name, param).coefficients, out)


def test_ascent_rule_takes_one_row():
    rule = multiplier("pi_theta", 0.3)
    assert rule(np.array([[2, 1]]), np.array([5.0])).tolist() == [math.exp(-0.3 * 5.0)]
    assert math.isnan(rule(np.array([[4, 0]]), np.array([16.0]))[0])


def test_coefficients_view_is_read_only_and_ordered():
    op = TorusLaplacian(Torus(2))
    f = SpectralField(op, {(2, 0): 1.0, ModeIndex((0, 1)): 2 + 1j, (-1, 3): -0.0})
    assert list(f.coefficients) == [ModeIndex((2, 0)), ModeIndex((0, 1)), ModeIndex((-1, 3))]
    assert all(type(v) is complex for v in f.coefficients.values())
    assert math.copysign(1.0, f.coefficients[ModeIndex((-1, 3))].real) == -1.0
    with pytest.raises(TypeError):
        f.coefficients[ModeIndex((5, 5))] = 1.0
    with pytest.raises(AttributeError):
        f.coefficients = {}
    with pytest.raises(ValueError):
        f.values[0] = 3.0
    v = SpectralField(TorusStokes(Torus(2)), {(1, 0): np.array([0.0, 1.0])})
    row = v.coefficients[ModeIndex((1, 0))]
    assert row.shape == (2,)
    with pytest.raises(ValueError):
        row[0] = 1.0


def test_keys_naming_one_mode_merge_as_dict_insertion():
    op = DirichletLaplacian(Interval(1.0))
    f = SpectralField(op, {(1,): 1.0, (2,): 3.0, ModeIndex((1,)): 2.0})
    assert dict(f.coefficients) == {ModeIndex((1,)): 2.0 + 0j, ModeIndex((2,)): 3.0 + 0j}
    assert list(f.coefficients) == [ModeIndex((1,)), ModeIndex((2,))]


def test_mixed_scalar_and_vector_values_are_rejected():
    op = TorusLaplacian(Torus(2))
    with pytest.raises(ConfigError, match="all scalars or all length-d vectors"):
        SpectralField(op, {(1, 0): 1.0, (0, 1): [1, 2]})
    with pytest.raises(ConfigError, match="all scalars or all length-d vectors"):
        SpectralField(op, {(1, 0): np.array([1.0, 0.5]), (0, 1): 2.0 + 0j})


def test_validation_names_the_first_offending_mode():
    op = TorusLaplacian(Torus(2))
    bad_value = ((2, 0), math.nan)
    bad_index = (ModeIndex((0, 1), 1), 1.0)
    with pytest.raises(ConfigError, match=r"non-finite coefficient at \(2, 0\)"):
        SpectralField(op, dict([((1, 0), 1.0), bad_value, bad_index]))
    with pytest.raises(ConfigError, match="carry no polarization"):
        SpectralField(op, dict([((1, 0), 1.0), bad_index, bad_value]))
    with pytest.raises(ConfigError, match=r"mode index \(1,\) has dimension 1"):
        SpectralField(op, {(1, 0): 1.0, (1,): 1.0, (3, 3): math.inf})
    with pytest.raises(ConfigError, match=r"vector amplitude at \(1, 0\) has length 3"):
        SpectralField(op, {(1, 0): [1, 2, 3], (0, 1): [1, 2, 3]})
    with pytest.raises(ConfigError, match=r"Dirichlet mode indices must be >= 1 per axis, got \(0, 2\)"):
        SpectralField(DirichletLaplacian(Box((1.0, 1.0))), {(1, 1): 1.0, (0, 2): 1.0, (3, 0): 1.0})
    with pytest.raises(ConfigError, match=r"mode index \(1, 1099511627776\) exceeds"):
        SpectralField(op, {(1, 0): 1.0, (1, 2**40): 1.0})
    with pytest.raises(ConfigError, match="exceeds"):
        SpectralField(op, {(2**70, 0): 1.0})
    st2 = TorusStokes(Torus(2))
    with pytest.raises(ConfigError, match="Stokes coefficients must be length-d vectors"):
        SpectralField(st2, {(1, 0): 1.0})
    # orthogonality is checked after every per-mode check has passed
    with pytest.raises(ConfigError, match=r"not orthogonal to k \(residual"):
        SpectralField(st2, {(0, 1): [1.0, 0.0], (1, 0): [1.0, 1.0], (2, 0): [0.0, 1.0]})
    with pytest.raises(ConfigError, match=r"non-finite coefficient at \(2, 0\)"):
        SpectralField(st2, {(0, 1): [1.0, 0.0], (1, 0): [1.0, 1.0], (2, 0): [0.0, math.nan]})


def test_orthogonality_check_scales_with_tiny_and_huge_amplitudes():
    # |v|^2 underflows to 0 or overflows to inf; the bound must use |v| itself
    st3 = TorusStokes(Torus(3))
    e = polarization_basis((1, 0, 1))[0]
    for scale in (6.37393212e-293j, 1e-200, 1e200):
        SpectralField(st3, {(1, 0, 1): scale * e})
    with pytest.raises(ConfigError, match="not orthogonal"):
        SpectralField(TorusStokes(Torus(2)), {(1, 0): np.array([1e200, 1e200])})
    with pytest.raises(ConfigError, match="not orthogonal"):
        SpectralField(TorusStokes(Torus(2)), {(1, 0): np.array([1e-200, 1e-200])})
