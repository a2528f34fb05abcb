"""tools/compare_artifacts.py on synthetic output roots and source trees."""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import compare_artifacts  # noqa: E402
from compare_artifacts import compare_roots, compare_sources  # noqa: E402


def _write(root, files):
    for name, content in files.items():
        path = os.path.join(root, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if isinstance(content, dict):
            np.savez_compressed(path, **content)
        else:
            with open(path, "w") as fh:
                fh.write(content)


def _roots(tmp_path, parent, change):
    a, b = str(tmp_path / "parent"), str(tmp_path / "change")
    _write(a, parent)
    _write(b, change)
    return compare_roots(a, b)


_CSV = "quantity,n,value\nratio,4,0.9628607466504281\nratio,16,1.0008218036912564\n"


def test_identical_roots_move_nothing(tmp_path):
    files = {"job/t.csv": _CSV, "job/p.svg": '<text x="153.09">0.2</text>', "job/a.npz": {"x": np.arange(3.0)}}
    assert _roots(tmp_path, files, files) == ({}, [])


@pytest.mark.parametrize(
    "changed,ok",
    [
        (_CSV.replace("1.0008218036912564", "1.0008218036912566"), True),  # 2 ulp
        (_CSV.replace("1.0008218036912564", "1.0008218036932564"), False),  # 2e-12 relative
        (_CSV.replace("ratio,4", "ratios,4"), False),  # a text cell
        (_CSV.replace("ratio,4", "ratio,5"), False),  # an integer cell
        (_CSV.replace("value", "values"), False),  # the header
        (_CSV + "ratio,20,1.0\n", False),  # a row more
    ],
)
def test_csv_cells_move_within_the_column_bound(tmp_path, changed, ok):
    moved, violations = _roots(tmp_path, {"j/t.csv": _CSV}, {"j/t.csv": changed})
    assert (list(moved), bool(violations)) == ((["j/t.csv"], False) if ok else ([], True))
    if ok:
        assert 0 < moved["j/t.csv"] <= 1e-12


@pytest.mark.parametrize(
    "changed,ok",
    [
        ('<line x1="153.10" y1="374"/><text>0.2</text>', True),
        ('<line x1="153.11" y1="374"/><text>0.2</text>', False),
        ('<line x1="153.09" y1="374"/><text>0.4</text>', False),
        ('<line x2="153.09" y1="374"/><text>0.2</text>', False),
    ],
)
def test_svg_numbers_move_by_one_printed_digit(tmp_path, changed, ok):
    svg = '<line x1="153.09" y1="374"/><text>0.2</text>'
    moved, violations = _roots(tmp_path, {"j/p.svg": svg}, {"j/p.svg": changed})
    assert bool(violations) != ok
    if ok:
        assert moved == {"j/p.svg": pytest.approx(1.0)}


def test_npz_arrays_move_within_their_bound(tmp_path):
    x = np.linspace(-2.0, 3.0, 7) + 1j
    moved, violations = _roots(tmp_path, {"j/a.npz": {"x": x}}, {"j/a.npz": {"x": x * (1 + 1e-15)}})
    assert violations == [] and 0 < moved["j/a.npz"] <= 1e-12
    for bad in ({"x": x * (1 + 1e-9)}, {"x": x[:-1]}, {"x": x.real}, {"y": x}):
        assert _roots(tmp_path, {"j/a.npz": {"x": x}}, {"j/a.npz": bad})[1]


def _manifest(config, outputs):
    return json.dumps({"config": config, "outputs": outputs, "subcommand": "truncate"})


def test_manifest_hashes_may_follow_only_files_that_moved_within_bounds(tmp_path):
    moved_csv = _CSV.replace("1.0008218036912564", "1.0008218036912566")
    parent = {"j/t.csv": _CSV, "j/manifest.json": _manifest({"p": 4.0}, {"t.csv": "aa"})}
    change = {"j/t.csv": moved_csv, "j/manifest.json": _manifest({"p": 4.0}, {"t.csv": "bb"})}
    moved, violations = _roots(tmp_path / "1", parent, change)
    assert violations == [] and set(moved) == {"j/t.csv", "j/manifest.json"}
    # the hash changed though the file did not
    stale = dict(change, **{"j/t.csv": _CSV})
    assert _roots(tmp_path / "2", parent, stale)[1]
    # the config must match exactly
    other = dict(change, **{"j/manifest.json": _manifest({"p": 4.000001}, {"t.csv": "bb"})})
    assert _roots(tmp_path / "3", parent, other)[1]


def test_other_files_and_missing_files_are_violations(tmp_path):
    assert _roots(tmp_path / "1", {"j/n.txt": "a"}, {"j/n.txt": "b"})[1]
    _, violations = _roots(tmp_path / "2", {"j/t.csv": _CSV}, {"j/u.csv": _CSV})
    assert len(violations) == 2


_FAKE_CLI = """
import os, sys

VALUE = {value!r}


def run(argv):
    out = argv[argv.index("--out-dir") + 1]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "t.csv"), "w") as fh:
        fh.write("quantity,value\\nx," + VALUE + "\\n")
    return 0
"""


def _tree(root, value):
    pkg = root / "eigenapprox"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(_FAKE_CLI.format(value=value))
    return str(root)


def test_sources_run_in_their_own_interpreters(tmp_path, capsys):
    parent = _tree(tmp_path / "a", "0.30000000000000004")
    assert compare_sources(parent, _tree(tmp_path / "b", "0.30000000000000004")) == 0
    assert compare_sources(parent, _tree(tmp_path / "c", "0.3")) == 0
    out = capsys.readouterr().out
    assert "moved approx-box/t.csv: worst deviation 1.85e-16 (relative)" in out
    jobs = len(compare_artifacts.JOBS)
    assert f"{jobs} files: {jobs} moved within bounds, 0 violations" in out
    assert compare_sources(parent, _tree(tmp_path / "d", "0.31")) == 1
    assert "VIOLATION approx-box/t.csv" in capsys.readouterr().out
