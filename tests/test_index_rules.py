"""The mode-index rules: every entry point names the first offending mode
with the same message.

The oracle below is the per-mode check the array rules replaced: each entry
in turn, its dimension, the axis bound, the operator's index rules, then its
value, then whether it is of the first value's kind; Stokes orthogonality
only once every entry has passed.  `SpectralField` must raise what it raises,
or accept what it accepts, for mapping and packed input alike.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
    analyze,
    mode_evaluator,
    synthesize,
)
from eigenapprox.domains import polarization_basis
from eigenapprox.fields import _Packed

_BOUND = 2**30

_OPS = [
    DirichletLaplacian(Interval(1.0)),
    DirichletLaplacian(Box((1.0, 2.0))),
    DirichletLaplacian(Box((1.0, 2.0, 0.5))),
    *[TorusLaplacian(Torus(d)) for d in (1, 2, 3)],
    *[TorusStokes(Torus(d)) for d in (2, 3)],
]


# -- the per-mode oracle ---------------------------------------------------------


def _oracle_validate_index(op, idx):
    """Each operator's own index check, dimension left to the caller."""
    if isinstance(op, DirichletLaplacian):
        if any(ki < 1 for ki in idx.k):
            raise ConfigError(f"Dirichlet mode indices must be >= 1 per axis, got {idx.k}")
    if not isinstance(op, TorusStokes):
        if idx.polarization != 0:
            raise ConfigError("scalar operator modes carry no polarization")
        return
    if not 0 <= idx.polarization <= op.dim - 1:
        raise ConfigError(f"polarization must lie in 0..{op.dim - 1} (0 = vector amplitude), got {idx.polarization}")
    if all(ki == 0 for ki in idx.k) and idx.polarization != 0:
        raise ConfigError("the Stokes operator has no k=0 eigenmode")


def _oracle_check_mode(op, idx, val, first_is_vector):
    d = op.dim
    if max(abs(ki) for ki in idx.k) > _BOUND:
        raise ConfigError(f"mode index {idx.k} exceeds {_BOUND} on some axis")
    _oracle_validate_index(op, idx)
    arr = np.asarray(val)
    if arr.ndim == 0:
        if isinstance(op, TorusStokes):
            raise ConfigError("Stokes coefficients must be length-d vectors")
        v = complex(arr)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ConfigError(f"non-finite coefficient at {idx.k}")
    else:
        v = np.asarray(arr, dtype=complex).reshape(-1)
        if v.size != d:
            raise ConfigError(f"vector amplitude at {idx.k} has length {v.size}, expected {d}")
        if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
            raise ConfigError(f"non-finite coefficient at {idx.k}")
    if first_is_vector is not None and (arr.ndim > 0) != first_is_vector:
        # the row's own kind first (the per-mode check named the two the other way round)
        kinds = ("a scalar", "a vector") if first_is_vector else ("a vector", "a scalar")
        raise ConfigError(
            f"coefficient at {idx.k} is {kinds[0]} but the first one is {kinds[1]}; "
            "a field's values are all scalars or all length-d vectors"
        )
    return v


def _oracle_rows(op, entries):
    """[(k, pol, value)] of (key, value) entries in order, or the first
    entry's ConfigError; then Stokes orthogonality row by row."""
    rows, first_is_vector = [], None
    for key, val in entries:
        idx = key if isinstance(key, ModeIndex) else ModeIndex(key)
        if idx.dim != op.dim:
            raise ConfigError(f"mode index {idx.k} has dimension {idx.dim}, operator has {op.dim}")
        v = _oracle_check_mode(op, idx, val, first_is_vector)
        first_is_vector = isinstance(v, np.ndarray)
        rows.append((idx.k, idx.polarization, v))
    if isinstance(op, TorusStokes):
        for k, _, v in rows:
            kf = np.asarray(k, dtype=float)
            resid = abs(np.sum(kf * v))
            if resid > 1e-9 * math.sqrt(float(np.sum(kf * kf))) * max(float(np.hypot.reduce(np.abs(v))), 1e-300):
                raise ConfigError(f"Stokes amplitude at k={k} is not orthogonal to k (residual {resid:.3e})")
    return rows


def _merged(rows):
    """One row per (k, pol): the first one's place, the last one's value."""
    out = {}
    for k, pol, v in rows:
        out[(k, pol)] = v
    return [(k, pol, v) for (k, pol), v in out.items()]


def _outcome(fn):
    try:
        return fn()
    except ConfigError as e:
        return e


def _assert_same(got, want):
    if isinstance(want, ConfigError):
        assert isinstance(got, ConfigError), "accepted what the oracle rejects"
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert not isinstance(got, ConfigError), f"rejected what the oracle accepts: {got}"
    assert [(tuple(k), p) for k, p in zip(got.k.tolist(), got.pol.tolist())] == [(k, p) for k, p, _ in want]
    values = np.array([v for _, _, v in want], dtype=complex)
    assert np.asarray(got.values).tobytes() == values.reshape(got.values.shape).tobytes()


# -- draws -------------------------------------------------------------------------

_HUGE = [2**30, 2**30 + 1, 2**40, 2**62, 2**63 - 1, 2**63, 2**64, 2**70]
_BAD_AXIS = [0, -1, -5, -(2**63), *_HUGE, *[-b for b in _HUGE]]
_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_PART = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
# a nonfinite vector row, and a repeat of its key with the value doubled
_INF_ROW = np.array([complex(math.inf, math.nan), 1.0])
_FAULTS = ["none"] * 10 + ["index", "zero", "dim", "pol", "nonfinite", "length", "kind", "skew", "repeat"]


@st.composite
def _entries(draw):
    op = draw(st.sampled_from(_OPS))
    d = op.dim
    stokes = isinstance(op, TorusStokes)
    vector = stokes or (isinstance(op, TorusLaplacian) and draw(st.booleans()))
    lo = 1 if isinstance(op, DirichletLaplacian) else -3
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        fault = draw(st.sampled_from(_FAULTS))
        if fault == "repeat" and entries:
            key, value = entries[draw(st.integers(0, len(entries) - 1))]
            if not isinstance(key, ModeIndex) and draw(st.booleans()):
                key = ModeIndex(key)  # another key that names the same mode
            # value + value: 2 * value would multiply an inf part by 0 and warn
            entries.append((key, value + value))
            continue
        k = [draw(st.integers(lo, 3)) for _ in range(d)]
        if fault == "index":
            k[draw(st.integers(0, d - 1))] = draw(st.sampled_from(_BAD_AXIS))
        elif fault == "dim":
            k = k[:-1] if draw(st.booleans()) else k + [draw(st.integers(lo, 3))]
        elif fault == "zero":
            k = [0] * d
        pol = draw(st.integers(0, d - 1)) if stokes and (any(k) or fault == "zero") else 0
        if fault == "pol":
            pol = draw(st.sampled_from([-1, 1, d - 1, d, 5, 2**63, 2**70, -(2**64)]))
        if vector and fault != "kind":
            n = d if fault != "length" else draw(st.sampled_from([0, d - 1, d + 1]))
            if stokes and any(k) and len(k) == d and n == d and fault != "skew":
                basis = polarization_basis(k) if max(map(abs, k)) <= 4 else np.eye(d)[: d - 1]
                v = sum(complex(draw(_FINITE), draw(_FINITE)) * e for e in basis)
            else:
                v = np.array([complex(draw(_FINITE), draw(_FINITE)) for _ in range(n)])
            if fault == "nonfinite" and n:
                v = np.array(v, dtype=complex)
                v[draw(st.integers(0, n - 1))] = complex(draw(_PART), math.nan)
        else:
            v = complex(draw(_FINITE), draw(_FINITE))
            if fault == "nonfinite":
                v = complex(draw(_PART), draw(st.sampled_from([math.nan, math.inf])))
            if fault == "length" or (fault == "kind" and not vector):
                v = np.array([v] * draw(st.sampled_from([1, d, d + 1])))
        if pol != 0 or draw(st.booleans()):
            key = ModeIndex(tuple(k), pol)
        elif len(k) == 1 and draw(st.booleans()):
            key = k[0]  # a plain int key names a one-axis mode
        else:
            key = tuple(k)
        entries.append((key, v))
    return op, entries


def _packed(op, entries):
    """The entries as packed rows, where int64 arrays hold them all."""
    idx = [key if isinstance(key, ModeIndex) else ModeIndex(key) for key, _ in entries]
    vals = [np.asarray(v, dtype=complex) for _, v in entries]
    vals = [v.reshape(-1) if v.ndim else v for v in vals]
    if any(i.dim != op.dim for i in idx) or len({v.shape for v in vals}) > 1:
        return None
    if any(not -(2**63) <= x < 2**63 for i in idx for x in (*i.k, i.polarization)):
        return None
    m = len(idx)
    k = np.array([i.k for i in idx], dtype=np.int64).reshape(m, op.dim)
    pol = np.array([i.polarization for i in idx], dtype=np.int64)
    return _Packed(k, pol, np.array(vals, dtype=complex).reshape((m,) + (vals[0].shape if vals else ())))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_entries())
@example((TorusLaplacian(Torus(1)), [((-(2**63),), 1.0)]))
@example((TorusLaplacian(Torus(2)), [((1, 0), 1.0), ((2**70, 0), 1.0)]))
@example((DirichletLaplacian(Interval(1.0)), [((1,), 1.0), ((1, 2), 1.0)]))
@example((TorusStokes(Torus(2)), [((1, 0), np.array([1.0, 1.0])), ((2, 0), 1.0)]))
@example((TorusLaplacian(Torus(2)), [((1, 0), 1.0), ((0, 1), np.array([math.nan, 0.0]))]))
@example((TorusLaplacian(Torus(2)), [((1, 0), np.array([1.0, 2.0])), (ModeIndex((0, 1), 2**70), 1.0)]))
@example((TorusLaplacian(Torus(2)), [((1, 0), _INF_ROW), (ModeIndex((1, 0)), _INF_ROW + _INF_ROW)]))
def test_field_checks_match_the_per_mode_oracle(case):
    op, entries = case
    want = _outcome(lambda: _oracle_rows(op, entries))
    got = _outcome(lambda: SpectralField(op, dict(entries)))
    # a mapping keeps one entry per distinct key, at its first place
    mapping_want = _outcome(lambda: _merged(_oracle_rows(op, list(dict(entries).items()))))
    _assert_same(got, mapping_want)
    packed = _packed(op, entries)
    if packed is not None:
        _assert_same(_outcome(lambda: SpectralField(op, packed)), want)


# -- every path, one message ----------------------------------------------------------


def _four_paths(op, idx):
    """The error each entry point raises for idx: validate_index,
    mode_evaluator, analyze (after a valid mode) and SpectralField."""
    d, stokes = op.dim, isinstance(op, TorusStokes)
    ok = ModeIndex((1,) * d, 1 if stokes else 0)
    g = synthesize(SpectralField(op, {(1,) * d: np.eye(d)[0] - np.eye(d)[1] if stokes else 1.0}), 8)
    value = np.zeros(d) if stokes else 1.0
    calls = (
        lambda: op.validate_index(idx),
        lambda: mode_evaluator(op, idx),
        lambda: analyze(g, [ok, idx], op),
        lambda: SpectralField(op, {ModeIndex((1,) * d): value, idx: value}),
    )
    out = []
    for call in calls:
        with pytest.raises(ConfigError) as info:
            call()
        out.append(str(info.value))
    return out


@pytest.mark.parametrize(
    "op, idx, message",
    [
        (DirichletLaplacian(Interval(1.0)), ModeIndex((1, 2)), "mode index (1, 2) has dimension 2, operator has 1"),
        (DirichletLaplacian(Box((1.0, 2.0))), ModeIndex((1,)), "mode index (1,) has dimension 1, operator has 2"),
        (TorusLaplacian(Torus(2)), ModeIndex((1,)), "mode index (1,) has dimension 1, operator has 2"),
        (TorusStokes(Torus(3)), ModeIndex((1, 1), 1), "mode index (1, 1) has dimension 2, operator has 3"),
    ],
)
def test_a_wrong_dimension_is_named_alike_on_every_path(op, idx, message):
    assert _four_paths(op, idx) == [message] * 4


@pytest.mark.parametrize(
    "op, idx",
    [
        (DirichletLaplacian(Interval(1.0)), ModeIndex((2**70,))),
        (DirichletLaplacian(Interval(1.0)), ModeIndex((2**30 + 1,))),
        (TorusLaplacian(Torus(2)), ModeIndex((1, -(2**63)))),
        (TorusStokes(Torus(2)), ModeIndex((2**40, 1), 1)),
    ],
)
def test_the_axis_bound_holds_on_every_path(op, idx):
    message = f"mode index {idx.k} exceeds 1073741824 on some axis"
    assert _four_paths(op, idx) == [message] * 4


@pytest.mark.parametrize(
    "coefficients, message",
    [
        (lambda: {(1.5,): 1.0}, "mode index (1.5,) (polarization 0) must hold integers"),
        (lambda: {1.5: 1.0}, "mode index 1.5 (polarization 0) must hold integers"),
        (lambda: {(1.0,): 1.0}, "mode index (1.0,) (polarization 0) must hold integers"),
        (lambda: {ModeIndex((1,), 1.0): 1.0}, "mode index (1,) (polarization 1.0) must hold integers"),
    ],
)
def test_a_non_integer_key_is_named_not_truncated(coefficients, message):
    # int() would read (1.5,) as mode (1,); a float entry is refused, 1.0 too
    with pytest.raises(ConfigError) as info:
        SpectralField(TorusLaplacian(Torus(1)), coefficients())
    assert str(info.value) == message
