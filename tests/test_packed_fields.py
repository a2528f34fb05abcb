"""The array-backed SpectralField against per-mode oracles written here.

Where the choice of the last bit decides something, the vectorized rule must
give bit for bit what the scalar rule gives mode by mode: eigenvalues (they
decide the cutoffs), conjugate symmetry (and with it the real/complex choice
of torus synthesis), the polarization basis and the spectral CSV codec.
Elsewhere plain numpy may round differently, and the oracle bounds the result
instead: the same keys in the same order, the same shapes and error classes,
and values within 8 eps of the row's magnitude.  This holds for |c|^2, the
diagonal multipliers, field arithmetic, the Leray projection, random fields,
the solver's state conversion and the Sobolev sums; analysis is bounded by
8 eps of the grid's L^2 norm.
"""

import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from eigenapprox import (
    AliasingError,
    Box,
    CBFParams,
    ConfigError,
    DirichletLaplacian,
    Interval,
    ModeIndex,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    add,
    analyze,
    cbf_rhs,
    conjugate_symmetry_violation,
    divergence_residual,
    enumerate_modes,
    from_spectral_field,
    leray_project,
    lp_norm,
    mode_evaluator,
    random_divergence_free_state,
    random_field,
    scale,
    sobolev_surrogate_norm,
    spectral_field_from_csv,
    spectral_field_to_csv,
    step,
    subtract,
    synthesize,
    to_spectral_field,
)
from eigenapprox import cbf
from eigenapprox.approx import MULTIPLIERS, _apply_multiplier, multiplier
from eigenapprox.domains import _polarization_rows, polarization_basis
from eigenapprox.fields import enumerate_modes_cached, quadrature_weights
from eigenapprox.normlab import _zero_extension_coeffs
from eigenapprox.reports import format_number

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
def fields(draw, operator=None, vector=None):
    """A valid field: random modes, each torus mirror present as its exact
    conjugate, as a perturbed copy or not at all; scalar or vector values."""
    op = draw(operators()) if operator is None else operator
    d = op.dim
    stokes = isinstance(op, TorusStokes)
    torus = isinstance(op, (TorusLaplacian, TorusStokes))
    lo = -4 if torus else 1
    ks = draw(st.lists(st.tuples(*[st.integers(lo, 4)] * d), max_size=14, unique=True))
    if vector is None:
        vector = torus and d > 1 and draw(st.booleans())
    vector = stokes or vector
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


EPS = np.finfo(float).eps
BOUND = 8 * EPS  # relative to the magnitude of a row's input
PARSEVAL = 16 * EPS  # relative to the l2 norm of a field


def _bound(magnitude, rel=BOUND) -> float:
    """`rel` relative to a magnitude floored at the smallest normal double,
    below which doubles are evenly spaced and only an absolute bound holds."""
    return rel * max(magnitude, np.finfo(float).tiny)


def _norm(v) -> float:
    """|v| by hypot, which neither underflows nor overflows."""
    return float(np.hypot.reduce(np.abs(np.atleast_1d(v))))


def _within(a, b, scale) -> bool:
    """Mappings with the same keys in the same order and values of the same
    shape, each within _bound(scale[key]) of the other.  A row one side drops
    as exactly zero (the projection of a gradient) may be left by the other
    as roundoff within the bound."""

    def kept(m, other):
        return [i for i in m if i in other or np.max(np.abs(m[i])) > _bound(scale[i])]

    if kept(a, b) != kept(b, a):
        return False
    for i in kept(a, b):
        x, y = np.asarray(a[i]), np.asarray(b[i])
        if x.shape != y.shape or np.max(np.abs(x - y), initial=0.0) > _bound(scale[i]):
            return False
    return True


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
    if name == "spherical":
        return 1.0 if sum(x * x for x in k) <= int(param) ** 2 else None
    return 1.0 if max(abs(x) for x in k) <= int(param) else None


_PARAMS = {
    "identity": [None],
    "semigroup": [0.0, 0.013, 0.3, 2.0],
    "pi_theta": [0.05, 0.21, 0.5, 1.0],
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
        assert abs(amps[i] - want) <= _bound(want)
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
        assert math.isnan(c) if want is None else abs(c - want) <= _bound(want)
    # the applied operator against the per-mode loop it replaces, each row
    # bounded relative to the exact product |c| |v|
    out, scale = {}, {}
    for idx, v in f.coefficients.items():
        lam = f.operator.eigenvalue(idx)
        c = 1.0 if lam <= 0.0 else _scalar_rule(name, param, idx.k, lam)
        if c is not None:
            out[idx] = v if c == 1.0 else c * v
            scale[idx] = abs(c) * _norm(v)
    assert _within(_apply_multiplier(f, name, param).coefficients, out, scale)


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


def test_orthogonality_check_does_not_overflow_near_the_largest_double():
    # k . v and |k| |v| overflow unscaled; the tests run with warnings as errors
    big = 1.7976931348623157e308
    SpectralField(TorusStokes(Torus(3)), {(0, 2, 0): [big, 0, 0]})
    SpectralField(TorusStokes(Torus(2)), {(3, 3): [big * (1 + 1j), -big * (1 + 1j)]})
    with pytest.raises(ConfigError, match=r"not orthogonal to k \(residual inf\)"):
        SpectralField(TorusStokes(Torus(2)), {(2, 0): [1.7e308, 1e300]})
    with pytest.raises(ConfigError, match=r"not orthogonal to k \(residual 1\.000e\+308\)"):
        SpectralField(TorusStokes(Torus(3)), {(1, 0, 0): [1e308, big, big]})


# -- per-mode oracles of the field operations ----------------------------------
#
# Each is the per-mode loop the packed code replaced; the library must match it
# bit for bit, -0.0 included.


def _basis_oracle(k):
    kv = np.asarray(k, dtype=float)
    khat = kv / float(np.linalg.norm(kv))
    if kv.size == 2:
        return np.array([[-khat[1], khat[0]]])
    ref = np.array([1.0, 0.0, 0.0])
    if abs(float(khat @ ref)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - (ref @ khat) * khat
    e1 = e1 / np.linalg.norm(e1)
    return np.array([e1, np.cross(khat, e1)])


def _tangential_oracle(k, v):
    vv = np.asarray(v, dtype=complex)
    kv = np.asarray(k, dtype=float)
    k2 = float(kv @ kv)
    return vv if k2 == 0.0 else vv - kv * (complex(kv @ vv) / k2)


def _add_polarized_oracle(vecs, idx, c):
    key = ModeIndex(idx.k)
    vecs[key] = vecs.get(key, np.zeros(len(idx.k), dtype=complex)) + c * _basis_oracle(idx.k)[idx.polarization - 1]


def _add_oracle(f, g):
    out = dict(f.coefficients)
    for idx, v in g.coefficients.items():
        out[idx] = out[idx] + v if idx in out else v
    if isinstance(f.operator, TorusStokes):
        out = {idx: _tangential_oracle(idx.k, v) for idx, v in out.items()}
    return out


def _scale_oracle(f, c):
    return {idx: c * v for idx, v in f.coefficients.items()}


def _random_field_oracle(op, lambda_max, rng, n_modes, decay, real, include_mean):
    torus = isinstance(op, (TorusLaplacian, TorusStokes))
    pairs = enumerate_modes_cached(op, lambda_max)
    if torus:
        pairs = [p for p in pairs if any(p.index.k) and (not real or p.index.is_representative())]
    if n_modes is not None and n_modes < len(pairs):
        sel = rng.choice(len(pairs), size=n_modes, replace=False)
        pairs = [pairs[i] for i in sorted(sel)]
    coeffs = {}
    for p in pairs:
        damp = (1.0 + p.eigenvalue) ** (-decay)
        if isinstance(op, TorusStokes):
            _add_polarized_oracle(coeffs, p.index, (rng.standard_normal() + 1j * rng.standard_normal()) * damp)
        else:
            coeffs[p.index] = damp * complex(rng.standard_normal(), rng.standard_normal())
    if torus and real:
        full = {}
        for idx, v in coeffs.items():
            full[idx] = v
            full[idx.mirror()] = np.conj(v)
        coeffs = full
    if isinstance(op, DirichletLaplacian) and real:
        coeffs = {idx: complex(v.real) for idx, v in coeffs.items()}
    if include_mean and torus:
        zero = ModeIndex((0,) * op.dim)
        if isinstance(op, TorusStokes):
            coeffs[zero] = rng.standard_normal(op.dim).astype(complex)
        else:
            coeffs[zero] = complex(rng.standard_normal())
    return coeffs


def _analyze_oracle(g, modes, op):
    pts = g.points()
    w = quadrature_weights(g).reshape(-1)
    gv = g.values.reshape(-1, g.values.shape[-1]) if g.is_vector else g.values.reshape(-1)
    raw = {}
    for idx in modes:
        mv = mode_evaluator(op, idx)(pts)
        raw[idx] = complex(np.sum((w[:, None] if mv.ndim == 2 else w) * np.conj(mv) * gv))
    if not isinstance(op, TorusStokes):
        return raw
    vecs = {}
    for idx, c in raw.items():
        _add_polarized_oracle(vecs, idx, c)
    return vecs


def _csv_oracle(f) -> str:
    d = f.dim
    lines = [",".join([f"k{i + 1}" for i in range(d)] + ["polarization", "re", "im"])]
    for idx, v in sorted(f.coefficients.items(), key=lambda kv: kv[0].sort_key()):
        if isinstance(f.operator, TorusStokes) and any(idx.k):
            rows = [(m + 1, complex(b @ np.asarray(v))) for m, b in enumerate(_basis_oracle(idx.k))]
        elif isinstance(v, np.ndarray):
            rows = [(-(c + 1), v[c]) for c in range(d)]
        else:
            rows = [(0, v)]
        for pol, val in rows:
            val = complex(val)
            lines.append(",".join([*map(str, idx.k), str(pol), format_number(val.real), format_number(val.imag)]))
    return "\n".join(lines) + "\n"


def _csv_reader_oracle(text, op):
    d = op.dim
    coeffs = {}
    for line in text.splitlines()[1:]:
        row = line.split(",")
        k, pol, val = tuple(int(x) for x in row[:d]), int(row[d]), complex(float(row[d + 1]), float(row[d + 2]))
        if pol == 0:
            coeffs[ModeIndex(k)] = coeffs.get(ModeIndex(k), 0.0) + val
            continue
        vec = coeffs.get(ModeIndex(k))
        vec = np.zeros(d, dtype=complex) if vec is None else vec
        if pol > 0:
            vec = vec + val * _basis_oracle(k)[pol - 1]
        else:
            vec[-pol - 1] += val
        coeffs[ModeIndex(k)] = vec
    return coeffs


def _to_spectral_field_oracle(block, n):
    """The field's map, and the magnitude of each row's input, for the kept
    block of an n-point state: wavenumbers 0..K then -K..-1 on each full
    axis, 0..K on the last."""
    dim, kmax = block.shape[0], block.shape[-1] - 1
    sc = (2.0 * math.pi) ** (dim / 2.0) / float(n) ** dim
    out, scale = {}, {}
    for pos in np.argwhere(np.any(block != 0.0, axis=0)):
        idx = ModeIndex(tuple(int(p) if p <= kmax else int(p) - (2 * kmax + 1) for p in pos[:-1]) + (int(pos[-1]),))
        row = block[(slice(None),) + tuple(pos)] * sc
        scale[idx] = scale[idx.mirror()] = _norm(row)
        v = _tangential_oracle(idx.k, row)
        if any(idx.k) and not np.any(v):
            continue
        out[idx] = v
        if pos[-1] > 0:
            out[idx.mirror()] = np.conj(v)
    return out, scale


def _from_field_oracle(f, params):
    """The kept block of the state of f."""
    n, dim, kmax = params.resolution, params.dim, params.dealias_kmax
    sc = float(n) ** dim / (2.0 * math.pi) ** (dim / 2.0)
    block = np.zeros((dim,) + (2 * kmax + 1,) * (dim - 1) + (kmax + 1,), dtype=complex)
    for idx, v in f.coefficients.items():
        if any(idx.k) and idx.k[-1] >= 0:
            block[(slice(None),) + tuple(ki % (2 * kmax + 1) for ki in idx.k)] = np.asarray(v) * sc
    return block


def _agrees(got, op, want, scale=None) -> bool:
    """The library's field (or its ConfigError) against the oracle's map:
    bit for bit, or given `scale`, row by row within _bound(scale[key]); then
    where roundoff leaves the oracle's own result not orthogonal to k, the
    library's must be a valid field."""
    try:
        want = SpectralField(op, want)
    except ConfigError as e:
        if scale is not None and "not orthogonal" in str(e):
            return not isinstance(got, ConfigError)
        return isinstance(got, ConfigError)
    if isinstance(got, ConfigError):
        return False
    if scale is None:
        return _same(got.coefficients, want.coefficients)
    return _within(got.coefficients, want.coefficients, scale)


def _run(fn, *args):
    try:
        return fn(*args)
    except ConfigError as e:
        return e


_TORUS_OPS = [TorusLaplacian(Torus(d)) for d in (1, 2, 3)] + [TorusStokes(Torus(d)) for d in (2, 3)]
_SCALES = [-1.0, 2, 0.3 + 0.7j, np.float64(1 / 3), np.int64(-3), np.complex128(0.1 - 0.9j), -0.0, 1e-310]


# -- the packed field operations against their oracles --------------------------


def test_polarization_rows_match_the_per_mode_basis():
    for d, r in ((2, 40), (3, 14)):
        ks = np.array([k for k in itertools.product(range(-r, r + 1), repeat=d) if any(k)])
        rows = _polarization_rows(ks)
        for k, row in zip(ks.tolist(), rows):
            want = _basis_oracle(k).tobytes()
            assert row.tobytes() == want and polarization_basis(k).tobytes() == want


@SETTINGS
@given(st.data())
def test_arithmetic_matches_per_mode_oracle(data):
    f = data.draw(fields())
    g = data.draw(fields(f.operator, vector=f.values.ndim == 2))
    c = data.draw(st.sampled_from(_SCALES))
    op = f.operator
    scaled = {idx: abs(c) * _norm(v) for idx, v in f.coefficients.items()}
    assert _agrees(_run(scale, f, c), op, _scale_oracle(f, c), scaled)
    for a, b in ((f, g), (g, f), (f, f)):
        # a sum row against |a| + |b|
        summed = {idx: _norm(a.coefficients.get(idx, 0.0)) + _norm(b.coefficients.get(idx, 0.0))
                  for idx in [*a.coefficients, *b.coefficients]}
        assert _agrees(_run(add, a, b), op, _add_oracle(a, b), summed)
        assert _agrees(_run(subtract, a, b), op, _add_oracle(a, SpectralField(op, _scale_oracle(b, -1.0))), summed)
    if f.is_vector:
        divs = [abs(complex(np.asarray(idx.k, dtype=float) @ np.asarray(v))) for idx, v in f.coefficients.items()]
        assert divergence_residual(f) == max(divs, default=0.0)


@SETTINGS
@given(st.data())
def test_leray_projection_matches_per_mode_oracle(data):
    op = TorusLaplacian(Torus(data.draw(st.integers(2, 3))))
    f = data.draw(fields(op, vector=True))
    assume(f.is_vector)  # an empty field holds no vectors
    want = {}
    for idx, v in f.coefficients.items():
        proj = _tangential_oracle(idx.k, v)
        if not any(idx.k) or np.any(proj):
            want[ModeIndex(idx.k)] = proj
    scale = {ModeIndex(idx.k): _norm(v) for idx, v in f.coefficients.items()}
    assert _agrees(_run(leray_project, f), TorusStokes(op.domain), want, scale)


@SETTINGS
@given(dim=st.integers(2, 3), data=st.data())
def test_leray_projection_is_idempotent_and_annihilates_gradients(dim, data):
    # P sends every gradient mode c k to roundoff and keeps a divergence-free
    # field, so P(f + grad) = f and P(P(g)) = P(g), each within 8 eps of the
    # magnitudes that went into a row
    lap = TorusLaplacian(Torus(dim))
    f = data.draw(fields(TorusStokes(Torus(dim))))
    draws = data.draw(st.lists(st.tuples(st.tuples(*[st.integers(-4, 4)] * dim), _VALUE), max_size=6))
    grad = {ModeIndex(k): c * np.array(k, dtype=float) for k, c in draws if any(k)}
    rows = dict(f.coefficients)
    scale = {i: _norm(v) for i, v in rows.items()}
    for i, g in grad.items():
        rows[i] = rows[i] + g if i in rows else g
        scale[i] = scale.get(i, 0.0) + _norm(g)
    assume(rows)  # an empty field holds no vectors
    once = leray_project(SpectralField(lap, rows))
    assert _within(once.coefficients, f.coefficients, scale)
    if once.coefficients:
        twice = leray_project(SpectralField(lap, dict(once.coefficients)))
        assert _within(twice.coefficients, once.coefficients, {i: _norm(v) for i, v in once.coefficients.items()})


@SETTINGS
@given(
    op=operators(),
    lambda_max=st.floats(0.5, 40.0),
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.one_of(st.none(), st.integers(1, 40)),
    decay=st.sampled_from([0.0, 1.0, 2.5, 400.0]),
    real=st.booleans(),
    include_mean=st.booleans(),
)
# a damping of 5e-324 at mode (1, 2, 4): numpy and Python may round its
# product with a draw to zeros of opposite sign
@example(op=DirichletLaplacian(Box((6.5, 6.1875, 6.15625))), lambda_max=6.0, seed=0, n_modes=None, decay=400.0,
         real=False, include_mean=False)
def test_random_field_matches_per_mode_draws(op, lambda_max, seed, n_modes, decay, real, include_mean):
    if isinstance(op, TorusStokes) or op.dim == 3:
        lambda_max = min(lambda_max, 12.0)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    f = random_field(op, lambda_max, rng, n_modes=n_modes, decay=decay, real=real, include_mean=include_mean)
    want = SpectralField(op, _random_field_oracle(op, lambda_max, ref, n_modes, decay, real, include_mean))
    assert _within(f.coefficients, want.coefficients, {idx: _norm(v) for idx, v in want.coefficients.items()})
    assert rng.standard_normal() == ref.standard_normal()  # the same number of draws


# (operator, lambda_max) with a few dozen modes on grids of at most 17^3 points
_ANALYZE_CASES = [
    (DirichletLaplacian(Interval(1.0)), 400.0),
    (DirichletLaplacian(Box((1.0, 2.0))), 100.0),
    (DirichletLaplacian(Box((1.0, 1.2, 0.8))), 120.0),
    (TorusLaplacian(Torus(1)), 8.0),
    (TorusLaplacian(Torus(2)), 8.0),
    (TorusLaplacian(Torus(3)), 4.0),
    (TorusStokes(Torus(2)), 8.0),
    (TorusStokes(Torus(3)), 4.0),
]


@SETTINGS
@given(case=st.sampled_from(_ANALYZE_CASES), seed=st.integers(0, 1000), data=st.data())
def test_analyze_matches_per_mode_inner_products(case, seed, data):
    op, lam = case
    g = synthesize(random_field(op, lam, np.random.default_rng(seed), real=data.draw(st.booleans())))
    modes = [p.index for p in enumerate_modes(op, lam)]
    modes = data.draw(st.lists(st.sampled_from(modes), max_size=12)) if modes else []
    want = SpectralField(op, _analyze_oracle(g, modes, op)).coefficients
    got = analyze(g, modes, op, check=False)
    assert _within(got.coefficients, want, dict.fromkeys(want, lp_norm(g, 2)))


@SETTINGS
@given(st.data())
def test_spectral_csv_matches_per_row_codec(data):
    f = data.draw(fields())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        spectral_field_to_csv(f, path)
        with open(path) as fh:
            text = fh.read()
        assert text == _csv_oracle(f)
        back = spectral_field_from_csv(path, f.operator)
        assert _same(back.coefficients, SpectralField(f.operator, _csv_reader_oracle(text, f.operator)).coefficients)
        # rows in any order, naming a mode more than once, sum as they did
        lines = text.splitlines()
        rows = data.draw(st.lists(st.sampled_from(lines[1:]), max_size=20)) if len(lines) > 1 else []
        shuffled = "\n".join([lines[0], *rows]) + "\n"
        with open(path, "w") as fh:
            fh.write(shuffled)
        got = _run(spectral_field_from_csv, path, f.operator)
        assert _agrees(got, f.operator, _csv_reader_oracle(shuffled, f.operator))


_TINY, _NORMAL, _HUGE = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
_EXTREMES = [0.0, -0.0, _TINY, -_TINY, _NORMAL, -_NORMAL, _HUGE, -_HUGE]


def _scalar_extremes(op, ks):
    parts = itertools.cycle(_EXTREMES + [0.5])  # odd length: each value lands in both columns
    return SpectralField(op, {k: complex(next(parts), next(parts)) for k in ks})


def _stokes_extremes():
    """Amplitudes along the basis (the Cartesian components at k = 0), one
    huge part per vector at most: the orthogonality check of SpectralField
    takes |k| |v|, which overflows beyond that."""
    amps = {
        (0, 0, 0): [complex(_HUGE, -0.0), complex(0.0, -_TINY), complex(_NORMAL, -_NORMAL)],
        (1, 0, 0): [complex(-_HUGE, _TINY), complex(-0.0, 0.0)],
        (0, -1, 0): [complex(-_NORMAL, _HUGE), complex(_TINY, -0.0)],
        (0, 0, 1): [complex(0.0, -_HUGE), complex(-_TINY, _NORMAL)],
        (0, 2, 0): [complex(-0.0, _TINY), complex(-_TINY, -_NORMAL)],
        (0, 0, -3): [complex(_NORMAL, 0.0), complex(-_NORMAL, -0.0)],
    }
    coeffs = {(0, 0, 0): np.array(amps.pop((0, 0, 0)))}
    for k, a in amps.items():  # in real arithmetic: a complex product of two huge parts overflows
        basis = polarization_basis(k)
        coeffs[k] = np.array([x.real for x in a]) @ basis + 1j * (np.array([x.imag for x in a]) @ basis)
    return SpectralField(TorusStokes(Torus(3)), coeffs)


@pytest.mark.parametrize(
    "f",
    [
        _scalar_extremes(DirichletLaplacian(Interval(2.0)), [(n,) for n in range(1, 17)]),
        _scalar_extremes(TorusLaplacian(Torus(2)), [(a, b) for a in range(-2, 3) for b in range(-2, 2)]),
        _stokes_extremes(),
    ],
    ids=["interval", "torus2", "stokes3"],
)
def test_spectral_csv_keeps_extreme_doubles(tmp_path, f):
    path = tmp_path / "f.csv"
    spectral_field_to_csv(f, path)
    text = path.read_text()
    assert text == _csv_oracle(f)
    cells = {cell for line in text.splitlines()[1:] for cell in line.split(",")[-2:]}
    assert {format_number(x) for x in _EXTREMES} <= cells
    back = spectral_field_from_csv(path, f.operator)
    assert _same(back.coefficients, SpectralField(f.operator, _csv_reader_oracle(text, f.operator)).coefficients)
    # the reader sums each row onto a zero, which turns -0.0 into 0.0 and
    # keeps every other double's bits; on the axes the Stokes basis is exact
    rows = sorted(f.coefficients.items(), key=lambda kv: kv[0].sort_key())
    assert _same(back.coefficients, {idx: v + 0.0 for idx, v in rows})


@SETTINGS
@given(dim=st.integers(2, 3), beta=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 1000), kmax=st.integers(1, 2))
def test_state_conversion_matches_per_mode_loops(dim, beta, seed, kmax):
    params = CBFParams(mu=0.05, beta=beta, dim=dim, resolution=12 if dim == 3 else 16, dt=1e-3)
    s = random_divergence_free_state(params, kmax_init=kmax, seed=seed)
    # the state, the solver's nonlinear term and the conversions all hold the
    # kept block: wavenumbers 0..K then -K..-1 on each full axis, 0..K on the last
    n, nb = params.resolution, 2 * params.dealias_kmax + 1
    viscous = -params.mu * cbf._tables(dim, nb)[1] * s.block
    rhs = viscous + cbf._nonlinear(s.block, params, np.empty((2, dim) + (n,) * dim))  # a roundoff normal part
    noise = np.random.default_rng(seed).standard_normal((2,) + s.block.shape)
    noise = np.where(noise[0] > 1.0, noise[0] + 1j * noise[1], np.where(noise[0] < -2.0, -0.0, 0.0))
    # the noise is not tangential: the oracle may reject its projection residue
    for arr in (s.block, step(s, params).block, viscous, rhs, noise):
        got = _run(cbf.to_spectral_field, cbf.CBFState(0.0, arr, n))
        assert _agrees(got, TorusStokes(Torus(dim)), *_to_spectral_field_oracle(arr, n))
    assert _same(cbf_rhs(s, params).coefficients, cbf.to_spectral_field(cbf.CBFState(0.0, rhs, n)).coefficients)
    f = to_spectral_field(s)
    assert from_spectral_field(f, params).block.tobytes() == _from_field_oracle(f, params).tobytes()


def test_state_conversion_names_the_first_offending_mode():
    params = CBFParams(mu=0.05, dim=2, resolution=16)
    op = TorusStokes(Torus(2))
    out = params.dealias_kmax + 1
    e = polarization_basis((out, 1))[0]
    mean_first = {(1, 0): [0.0, 1.0], (-1, 0): [0.0, 1.0], (0, 0): [0.5, 0.0], (out, 1): e, (-out, -1): e}
    outside_first = {(out, 1): e, (-out, -1): e, (0, 0): [0.5, 0.0]}
    for coeffs, err, match in (
        (mean_first, ConfigError, "zero-mean"),
        (outside_first, AliasingError, rf"mode \({out}, 1\) lies outside"),
    ):
        with pytest.raises(err, match=match):
            from_spectral_field(SpectralField(op, coeffs), params)


@SETTINGS
@given(fields(DirichletLaplacian(Interval(1.7))))
def test_sobolev_sums_match_per_mode_loops(f):
    total = 0.0
    for idx, v in f.coefficients.items():
        total += (idx.k[0] * math.pi / 1.7) ** 2 * abs(complex(v)) ** 2
    assert abs(sobolev_surrogate_norm(f, 0.5) - math.sqrt(total)) <= _bound(math.sqrt(total))
    ks = np.asarray([idx.k[0] for idx in f.coefficients], dtype=int)
    cs = np.asarray([complex(v) for v in f.coefficients.values()], dtype=complex)
    got, ms = _zero_extension_coeffs(f, 64)
    ref = SpectralField(f.operator, dict(zip(map(ModeIndex, ks.tolist()), cs.tolist())))
    assert got.tobytes() == _zero_extension_coeffs(ref, 64)[0].tobytes() and ms.tolist() == list(range(-64, 65))


# -- invariants of the packed operations ------------------------------------------


@SETTINGS
@given(st.data())
def test_csv_round_trip_is_exact_for_scalar_and_close_for_stokes(data):
    f = data.draw(fields())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        spectral_field_to_csv(f, path)
        back = dict(spectral_field_from_csv(path, f.operator).coefficients)
    assert set(back) == set(f.coefficients)
    for idx, v in f.coefficients.items():
        if isinstance(f.operator, TorusStokes) and any(idx.k):
            assert np.max(np.abs(back[idx] - v)) <= _bound(np.max(np.abs(v)), 1e-14)
        else:
            assert np.array_equal(back[idx], v)  # -0.0 reads back as 0.0


@SETTINGS
@given(case=st.sampled_from(_ANALYZE_CASES), seed=st.integers(0, 1000), real=st.booleans(), extra=st.integers(0, 3))
def test_parseval_round_trip(case, seed, real, extra):
    # analyze(synthesize(f)) gives f back, and the grid's L^2 norm is f's l2
    op, lam = case
    f = random_field(op, lam, np.random.default_rng(seed), real=real)
    g = synthesize(f, 4 * max(f.max_axis_index(), 2) + 2 * extra)
    back = analyze(g, [p.index for p in enumerate_modes(op, lam)], op)
    assert subtract(back, f).l2() <= PARSEVAL * f.l2()
    assert abs(lp_norm(g, 2) - f.l2()) <= PARSEVAL * f.l2()


@SETTINGS
@given(op=st.sampled_from(_TORUS_OPS), seeds=st.tuples(st.integers(0, 1000), st.integers(0, 1000)))
def test_arithmetic_keeps_zero_divergence_and_conjugate_symmetry(op, seeds):
    lam = 12.0 if op.dim == 3 else 30.0
    f, g = (random_field(op, lam, np.random.default_rng(s), decay=1.0, include_mean=True) for s in seeds)
    results = [add(f, g), subtract(f, g), subtract(f, f), add(f, scale(g, 1e-17))]
    if op.dim > 1 and isinstance(op, TorusLaplacian):
        # never parallel to an integer k, whose projection would be roundoff
        skew = np.array([1.0, math.pi, math.e][: op.dim])
        vf = SpectralField(op, {idx: v * skew for idx, v in f.coefficients.items()})
        results.append(leray_project(vf))
    for h in results:
        assert conjugate_symmetry_violation(h) == 0.0
        if h.is_vector:
            assert divergence_residual(h) <= 1e-13 * max(1.0, float(np.max(np.abs(h.values), initial=0.0)))


@pytest.mark.parametrize("dim", [2, 3])
def test_state_survives_the_field_round_trip(dim):
    params = CBFParams(mu=0.05, beta=1.0, dim=dim, resolution=16 if dim == 3 else 32, dt=1e-3)
    s = random_divergence_free_state(params, kmax_init=3, seed=dim)
    for _ in range(3):
        back = from_spectral_field(to_spectral_field(s), params)
        assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-14 * np.max(np.abs(s.coeffs))
        s = step(s, params)
