import csv
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    random_field,
    spectral_field_from_csv,
    spectral_field_to_csv,
    subtract,
)
from eigenapprox.domains import polarization_basis
from eigenapprox.reports import format_number
from eigenapprox.serialize import _column


def test_scalar_spectral_round_trip(tmp_path):
    op = TorusLaplacian(Torus(2))
    f = random_field(op, 12.0, np.random.default_rng(0), n_modes=7)
    p = tmp_path / "f.csv"
    spectral_field_to_csv(f, p)
    back = spectral_field_from_csv(p, op)
    assert subtract(f, back).l2() == 0.0


def test_stokes_spectral_round_trip(tmp_path):
    op = TorusStokes(Torus(3))
    f = random_field(op, 6.0, np.random.default_rng(1), n_modes=6)
    p = tmp_path / "v.csv"
    spectral_field_to_csv(f, p)
    back = spectral_field_from_csv(p, op)
    assert subtract(f, back).l2() < 1e-15


def test_polarization_column_encoding(tmp_path):
    op = TorusStokes(Torus(2))
    f = SpectralField(
        op,
        {
            (1, 0): np.array([0.0, 2.0], dtype=complex),
            (0, 0): np.array([0.5, -0.5], dtype=complex),
        },
    )
    p = tmp_path / "v.csv"
    spectral_field_to_csv(f, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "k1,k2,polarization,re,im"
    # the carried mean appears as Cartesian components -1, -2; the (1,0) mode
    # as a single tangential amplitude (label 1)
    tags = sorted((ln.split(",")[0], ln.split(",")[1], ln.split(",")[2]) for ln in lines[1:])
    assert tags == [("0", "0", "-1"), ("0", "0", "-2"), ("1", "0", "1")]


def test_scalar_rows_rejected_for_divergence_free(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k1,k2,polarization,re,im\n1,0,0,1.0,0.0\n")
    with pytest.raises(ConfigError, match="scalar rows"):
        spectral_field_from_csv(p, TorusStokes(Torus(2)))


def test_component_tag_out_of_range(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k1,polarization,re,im\n1,-3,1.0,0.0\n")
    with pytest.raises(ConfigError, match="component tag"):
        spectral_field_from_csv(p, TorusLaplacian(Torus(1)))


def test_wrong_column_count(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k1,k2,polarization,re,im\n")
    with pytest.raises(ConfigError, match="columns"):
        spectral_field_from_csv(p, TorusLaplacian(Torus(1)))


def test_deterministic_bytes(tmp_path):
    op = DirichletLaplacian(Interval(1.25))
    f = random_field(op, 300.0, np.random.default_rng(2), n_modes=6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    spectral_field_to_csv(f, p1)
    spectral_field_to_csv(f, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_spectral_csv_mixing_scalar_and_vector_rows_is_rejected(tmp_path):
    op = TorusLaplacian(Torus(2))
    for rows in (["1,0,0,1.0,0.0", "0,1,-1,1.0,0.0", "0,1,-2,2.0,0.0"], ["1,0,-1,1.0,0.0", "1,0,-2,0.5,0.0", "0,1,0,1.0,0.0"]):
        p = tmp_path / "mixed.csv"
        p.write_text("k1,k2,polarization,re,im\n" + "\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match="mixes scalar rows"):
            spectral_field_from_csv(p, op)


def test_stokes_polarization_beyond_the_basis_is_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k1,k2,polarization,re,im\n1,0,1,1.0,0.0\n0,1,2,1.0,0.0\n")
    with pytest.raises(ConfigError, match=r"line 3: polarization 2 out of range 1\.\.1"):
        spectral_field_from_csv(p, TorusStokes(Torus(2)))


def test_short_spectral_row_is_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k1,k2,polarization,re,im\n1,0,0,1.0,0.0\n2,0,0,1.0\n")
    with pytest.raises(ConfigError, match="line 3 has 4 cells, expected 5"):
        spectral_field_from_csv(p, TorusLaplacian(Torus(2)))


@pytest.mark.parametrize(
    "op", [TorusLaplacian(Torus(2)), DirichletLaplacian(Interval(1.0)), TorusLaplacian(Torus(1))],
    ids=["torus2", "interval", "torus1"],
)
def test_positive_polarization_needs_a_divergence_free_field(tmp_path, op):
    # 1..d-1 tag tangential amplitudes, which only divergence-free fields have
    d = op.dim
    p = tmp_path / "bad.csv"
    header = ",".join([f"k{i + 1}" for i in range(d)] + ["polarization", "re", "im"])
    p.write_text(f"{header}\n{','.join(['1'] * d)},1,1.0,0.0\n")
    with pytest.raises(ConfigError, match="line 2: polarization 1 is reserved for divergence-free fields"):
        spectral_field_from_csv(p, op)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.5,0,0,1.0,0.0", r"line 3: index cell '1\.5' is not an integer"),
        ("1,0,1.5,1.0,0.0", r"line 3: polarization cell '1\.5' is not an integer"),
        ("1,0,0,abc,0.0", r"line 3: value cell 'abc' is not a number"),
        ("1,0,0,1.0,0x1p3", r"line 3: value cell '0x1p3' is not a number"),
        ("1,99999999999999999999,0,1.0,0.0", r"line 3: index cell '99999999999999999999' lies outside the int64 range"),
        ("1,0,-9223372036854775809,1.0,0.0", r"line 3: polarization cell '-9223372036854775809' lies outside"),
        # Python's int() takes digit separators; the one-pass parse does not
        ("1_0,0,0,1.0,0.0", r"line 3: index cell '1_0' is not an integer"),
    ],
)
def test_unparsable_spectral_cell_names_its_line(tmp_path, row, message):
    p = tmp_path / "bad.csv"
    p.write_text(f"k1,k2,polarization,re,im\n2,0,0,1.0,0.0\n{row}\n0,1,0,1.0,0.0\n")
    with pytest.raises(ConfigError, match=message):
        spectral_field_from_csv(p, TorusLaplacian(Torus(2)))


@pytest.mark.parametrize(
    "data",
    [b"k1,k2,polarization,re,im\n1,0,0,\xff,0.0\n", f"k1,k2,polarization,re,im\n1,0,0,{'x' * 200_000},0.0\n".encode()],
    ids=["not-text", "cell-over-the-csv-field-limit"],
)
def test_unreadable_spectral_csv_names_its_file(tmp_path, data):
    # a byte the text layer cannot decode, and a cell the csv module refuses
    # when the re-parse looks for the line the fast parse could not take
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: "):
        spectral_field_from_csv(p, TorusLaplacian(Torus(2)))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize(
    "cell, message",
    [
        ("1.5", r"index cell '1\.5' is not an integer"),
        ("1.0", r"index cell '1\.0' is not an integer"),
        ("1e3", r"index cell '1e3' is not an integer"),
        ("nan", r"index cell 'nan' is not an integer"),
        ("99999999999999999999", r"index cell '99999999999999999999' lies outside the int64 range"),
    ],
)
def test_index_cells_read_through_a_float_are_named_with_deprecations_hidden(tmp_path, cell, message):
    # Python's default filters hide DeprecationWarning outside __main__; the
    # reader must reject these cells there too, not read them through a float
    p = tmp_path / "bad.csv"
    p.write_text(f"k1,k2,polarization,re,im\n2,0,0,1.0,0.0\n{cell},0,0,1.0,0.0\n")
    with pytest.raises(ConfigError, match="line 3: " + message):
        spectral_field_from_csv(p, TorusLaplacian(Torus(2)))


@pytest.mark.parametrize(
    "op, body, message",
    [
        (
            DirichletLaplacian(Interval(1.0)),
            "1,0,1.0,0.0\n0,0,1.0,0.0\n",
            r"line 3: Dirichlet mode indices must be >= 1 per axis, got \(0,\)",
        ),
        (
            TorusLaplacian(Torus(1)),
            "1,0,1.0,0.0\n2,0,1.0,0.0\n-2147483648,0,1.0,0.0\n",
            r"line 4: mode index \(-2147483648,\) exceeds",
        ),
    ],
)
def test_index_rule_failures_name_their_line(tmp_path, op, body, message):
    p = tmp_path / "bad.csv"
    p.write_text("k1,polarization,re,im\n" + body)
    with pytest.raises(ConfigError, match=message):
        spectral_field_from_csv(p, op)


def test_spectral_cell_count_is_checked_before_the_cells(tmp_path):
    # a short row later in the file is named before a bad cell earlier on
    p = tmp_path / "bad.csv"
    p.write_text("k1,k2,polarization,re,im\n1,0,0,abc,0.0\n0,1,0,1.0\n")
    with pytest.raises(ConfigError, match="line 3 has 4 cells, expected 5"):
        spectral_field_from_csv(p, TorusLaplacian(Torus(2)))


@pytest.mark.parametrize("body", ["1,0,0,1.0,0.0\n\n0,1,0,1.0,0.0\n", "\n", "1,0,0,1.0,0.0\n\n"])
def test_blank_spectral_line_is_a_row_of_no_cells(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_text("k1,k2,polarization,re,im\n" + body)
    line = 2 + body.split("\n").index("")
    with pytest.raises(ConfigError, match=f"line {line} has 0 cells, expected 5"):
        spectral_field_from_csv(p, TorusLaplacian(Torus(2)))


@pytest.mark.parametrize("text", ["k1,k2,polarization,re,im\n", "k1,k2,polarization,re,im"])
def test_header_only_spectral_csv_is_the_empty_field(tmp_path, text):
    p = tmp_path / "f.csv"
    p.write_text(text)
    assert spectral_field_from_csv(p, TorusLaplacian(Torus(2))).k.shape == (0, 2)


def test_empty_spectral_csv_is_rejected(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("")
    with pytest.raises(ConfigError, match="expected 5 columns for a dimension-2 field, got 0"):
        spectral_field_from_csv(p, TorusLaplacian(Torus(2)))


def test_quoted_spectral_cells_parse(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text('k1,k2,polarization,re,im\n"1",0,0," 2.5","-0.0"\n')
    f = spectral_field_from_csv(p, TorusLaplacian(Torus(2)))
    assert f.coefficients == {ModeIndex((1, 0)): 2.5 + 0j}


@pytest.mark.parametrize("cell", ["1e400", "inf", "-inf", "nan"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_value_names_its_line(tmp_path, cell, part):
    # such cells parse as doubles; the field refuses them, and the reader says where
    p = tmp_path / "bad.csv"
    re_, im = (cell, "0.0") if part == "re" else ("0.0", cell)
    p.write_text(f"k1,polarization,re,im\n1,0,{re_},{im}\n2,0,1.0,0.0\n")
    with pytest.raises(ConfigError, match=r"^line 2: non-finite coefficient at \(1,\)$"):
        spectral_field_from_csv(p, TorusLaplacian(Torus(1)))


@pytest.mark.parametrize(
    "op, rows, line, k",
    [
        (TorusLaplacian(Torus(1)), ["1,0,1.5e308,0.0", "1,0,1.5e308,0.0"], 3, "(1,)"),
        (TorusLaplacian(Torus(1)), ["1,0,0.0,-1e308", "2,0,1.0,0.0", "1,0,0.0,-1e308"], 4, "(1,)"),
        (TorusLaplacian(Torus(1)), ["2,0,1e308,0.0", "1,0,1e308,0.0", "1,0,-1e308,0.0", "1,0,1e308,0.0", "2,0,1e308,0.0"], 6, "(2,)"),
        (TorusStokes(Torus(2)), ["0,1,1,1e308,0.0", "0,1,1,1e308,0.0"], 3, "(0, 1)"),
    ],
    ids=["two-rows", "a-row-between", "cancelling-first", "stokes"],
)
def test_overflowing_sum_names_the_line_that_overflows(tmp_path, op, rows, line, k):
    # every row is finite on its own; the reader adds the rows of a mode in
    # order, and names the one whose addition leaves the double range
    p = tmp_path / "bad.csv"
    header = ",".join([f"k{i + 1}" for i in range(op.dim)] + ["polarization", "re", "im"])
    p.write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=rf"^line {line}: the coefficients at {re.escape(k)} sum to a non-finite value$"):
            spectral_field_from_csv(p, op)


def test_sums_that_stay_finite_are_read_in_row_order(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("k1,polarization,re,im\n1,0,1.5e308,0.0\n1,0,-1.5e308,0.0\n1,0,1.5e308,0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_field_from_csv(p, TorusLaplacian(Torus(1))).coefficients == {ModeIndex((1,)): 1.5e308 + 0j}


# magnitudes that repeat across a column, so both signs of one magnitude meet
_MAGNITUDE = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308, 0.1]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(_MAGNITUDE, min_size=1, max_size=6), picks=st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40))
@example(pool=[0.0], picks=[])
@example(pool=[0.0, math.inf, math.nan], picks=[(i, neg) for i in range(3) for neg in (False, True)])
def test_column_of_doubles_is_format_number(pool, picks):
    values = np.array([math.copysign(pool[i % len(pool)], -1.0 if neg else 1.0) for i, neg in picks], dtype=float)
    assert _column(values) == [format_number(x) for x in values.tolist()]


_INT64 = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 1]), st.integers(-(2**63), 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(_INT64, min_size=1, max_size=6), picks=st.lists(st.integers(0, 5), max_size=40))
@example(pool=[0], picks=[])
def test_column_of_integers_is_format_number(pool, picks):
    values = np.array([pool[i % len(pool)] for i in picks], dtype=np.int64)
    assert _column(values) == [format_number(x) for x in values.tolist()]


def _reference_csv(f) -> bytes:
    """The spectral CSV of f written cell by cell with the csv module and
    format_number, one mode at a time, in (k, polarization) order."""
    d = f.dim
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow([f"k{i + 1}" for i in range(d)] + ["polarization", "re", "im"])
    for idx, v in sorted(f.coefficients.items(), key=lambda kv: kv[0].sort_key()):
        if isinstance(f.operator, TorusStokes) and any(idx.k):
            rows = [(m + 1, e @ v) for m, e in enumerate(polarization_basis(idx.k))]
        elif np.ndim(v):
            rows = [(-(c + 1), v[c]) for c in range(d)]
        else:
            rows = [(0, v)]
        for pol, val in rows:
            val = complex(val)
            w.writerow([format_number(x) for x in [*idx.k, pol, val.real, val.imag]])
    return out.getvalue().encode()


def _componentwise_torus_field(rng):
    # each component a real field on the same modes: +-k rows hold conjugates
    op = TorusLaplacian(Torus(2))
    parts = [random_field(op, 30.0, rng) for _ in range(2)]
    return SpectralField(op, {tuple(k): v for k, v in zip(parts[0].k.tolist(), np.stack([g.values for g in parts], axis=1))})


_SEEDED_FIELDS = {
    "torus1": lambda rng: random_field(TorusLaplacian(Torus(1)), 400.0, rng, include_mean=True),
    "torus2": lambda rng: random_field(TorusLaplacian(Torus(2)), 120.0, rng, include_mean=True),
    "torus3": lambda rng: random_field(TorusLaplacian(Torus(3)), 20.0, rng, decay=1.5),
    "torus2-complex": lambda rng: random_field(TorusLaplacian(Torus(2)), 40.0, rng, real=False),
    "torus2-componentwise": _componentwise_torus_field,
    "stokes2-mean": lambda rng: random_field(TorusStokes(Torus(2)), 60.0, rng, include_mean=True),
    "stokes3-mean": lambda rng: random_field(TorusStokes(Torus(3)), 12.0, rng, include_mean=True),
    "interval": lambda rng: random_field(DirichletLaplacian(Interval(1.25)), 900.0, rng, decay=0.5),
    "box": lambda rng: random_field(DirichletLaplacian(Box((1.0, 2.0))), 200.0, rng),
    "empty": lambda rng: SpectralField(TorusStokes(Torus(3)), {}),
}


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("name", list(_SEEDED_FIELDS))
def test_written_file_is_the_cell_by_cell_reference(tmp_path, name, seed):
    f = _SEEDED_FIELDS[name](np.random.default_rng(seed))
    p = tmp_path / "f.csv"
    spectral_field_to_csv(f, p)
    assert p.read_bytes() == _reference_csv(f)
