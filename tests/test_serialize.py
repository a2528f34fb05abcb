import numpy as np
import pytest

from eigenapprox import (
    ConfigError,
    DirichletLaplacian,
    GridField,
    Interval,
    ModeIndex,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    grid_field_from_csv,
    grid_field_to_csv,
    random_field,
    spectral_field_from_csv,
    spectral_field_to_csv,
    subtract,
    synthesize,
)


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


def test_grid_round_trip_scalar(tmp_path):
    op = TorusLaplacian(Torus(2))
    f = random_field(op, 8.0, np.random.default_rng(3), n_modes=5)
    g = synthesize(f, 8)
    p = tmp_path / "g.csv"
    grid_field_to_csv(g, p)
    back = grid_field_from_csv(p, op.domain)
    assert np.allclose(np.asarray(back.values), np.asarray(g.values), atol=1e-15)
    assert all(np.allclose(a, b) for a, b in zip(back.axes, g.axes))


def test_grid_round_trip_vector(tmp_path):
    op = TorusStokes(Torus(2))
    f = random_field(op, 5.0, np.random.default_rng(4), n_modes=4)
    g = synthesize(f, 8)
    p = tmp_path / "v.csv"
    grid_field_to_csv(g, p)
    back = grid_field_from_csv(p, op.domain)
    assert np.allclose(np.asarray(back.values), np.asarray(g.values), atol=1e-15)


def test_grid_rows_survive_shuffling(tmp_path):
    # reading is order-independent: rows are keyed by their coordinates
    op = TorusLaplacian(Torus(2))
    f = random_field(op, 8.0, np.random.default_rng(5), n_modes=5)
    g = synthesize(f, 6)
    p = tmp_path / "g.csv"
    grid_field_to_csv(g, p)
    lines = p.read_text().splitlines()
    body = lines[1:]
    rng = np.random.default_rng(6)
    rng.shuffle(body)
    q = tmp_path / "shuffled.csv"
    q.write_text("\n".join([lines[0]] + body) + "\n")
    back = grid_field_from_csv(q, op.domain)
    assert np.allclose(np.asarray(back.values), np.asarray(g.values), atol=1e-15)


def test_partial_tensor_grid_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,x2,re,im\n0.0,0.0,1.0,0.0\n0.0,1.0,1.0,0.0\n1.0,0.0,1.0,0.0\n")
    with pytest.raises(ConfigError, match="tensor grid"):
        grid_field_from_csv(p, Torus(2))


def test_real_grid_stays_real(tmp_path):
    dom = Interval(1.0)
    op = DirichletLaplacian(dom)
    g = synthesize(SpectralField(op, {(1,): 1.0 + 0j}), 8)
    p = tmp_path / "g.csv"
    grid_field_to_csv(g, p)
    back = grid_field_from_csv(p, dom)
    assert np.isrealobj(np.asarray(back.values))


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
