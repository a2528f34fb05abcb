import argparse
import csv
import dataclasses
import hashlib
import inspect
import itertools
import json
import math

import pytest

from eigenapprox import cli
from eigenapprox.cbf import CBFParams, random_divergence_free_state
from eigenapprox.cli import _build_parser, run
from eigenapprox.normlab import truncation_experiment


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _run(args, out_dir):
    return run(list(args) + ["--out-dir", str(out_dir)])


def test_modes_interval(tmp_path):
    rc = _run(["modes", "--op", "dirichlet-interval", "--L", str(math.pi), "--lambda-max", "5"], tmp_path)
    assert rc == 0
    header, body = _read_csv(tmp_path / "modes.csv")
    assert header == ["k", "polarization", "eigenvalue"]
    assert [r[0] for r in body] == ["1", "2"]
    assert [float(r[2]) for r in body] == pytest.approx([1.0, 4.0], rel=1e-12)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "modes"
    assert "out_dir" not in manifest["config"]
    digest = hashlib.sha256((tmp_path / "modes.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["modes.csv"] == digest


def test_modes_stokes_polarizations(tmp_path):
    rc = _run(["modes", "--op", "torus-stokes", "--d", "3", "--lambda-max", "1"], tmp_path)
    assert rc == 0
    _, body = _read_csv(tmp_path / "modes.csv")
    # 6 unit wavevectors x 2 tangential polarizations
    assert len(body) == 12
    assert {r[1] for r in body} == {"1", "2"}


def test_byte_identical_reruns(tmp_path):
    args = ["approx", "--op", "torus", "--d", "2", "--lambda-max", "20", "--seed", "1", "--theta", "0.25,0.5"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert _run(args, d1) == 0
    assert _run(args, d2) == 0
    assert (d1 / "approx.csv").read_bytes() == (d2 / "approx.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_approx_bound_holds(tmp_path):
    rc = _run(
        ["approx", "--op", "torus", "--d", "2", "--lambda-max", "30", "--seed", "2",
         "--transform", "semigroup", "--alpha", "1.0", "--beta", "0.5", "--theta", "0.1,0.2,0.4"],
        tmp_path,
    )
    assert rc == 0
    header, body = _read_csv(tmp_path / "approx.csv")
    assert header == ["quantity", "theta", "value", "reference", "ratio"]
    for row in body:
        assert row[0] == "semigroup_smoothing"
        assert float(row[4]) <= 1.0 + 1e-12


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"nope": 1}\n')
    rc = run(["modes", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "nope" in err


def test_invalid_json_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert run(["modes", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"theta": "0.5", "seed": 9}\n')
    rc = run(
        ["interp", "--check-itheta", "--config", str(cfg), "--theta", "0.25", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["theta"] == "0.25"
    assert manifest["config"]["seed"] == 9


def test_itheta_rows(tmp_path):
    rc = _run(["interp", "--check-itheta", "--theta", "0.5"], tmp_path)
    assert rc == 0
    _, body = _read_csv(tmp_path / "interp.csv")
    (row,) = body
    assert row[0] == "itheta"
    assert float(row[2]) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert float(row[4]) == pytest.approx(1.0, abs=1e-12)


def test_bad_theta_is_exit_2(tmp_path, capsys):
    rc = _run(["approx", "--op", "torus", "--d", "2", "--theta", "-1"], tmp_path)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_blow_up_is_exit_3(tmp_path, capsys):
    rc = _run(
        ["cbf", "--mu", "1e-6", "--N", "16", "--dt", "5", "--T", "5", "--kmax-init", "3",
         "--amplitude", "50", "--seed", "0", "--snapshot-every", "1"],
        tmp_path,
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: accuracy:")
    assert "\n" not in err.rstrip("\n")


def test_negative_mode_count_is_exit_2(tmp_path, capsys):
    assert _run(["approx", "--op", "torus", "--d", "2", "--n-modes", "-1"], tmp_path) == 2
    assert capsys.readouterr().err == "error: config: n_modes must be >= 1, got -1\n"


def test_zero_ledger_windows_is_exit_2(tmp_path, capsys):
    # it used to run one window while the manifest echoed 0
    assert _run(["cbf", "--N", "16", "--T", "0.03", "--windows", "0"], tmp_path) == 2
    assert capsys.readouterr().err == "error: config: windows must be >= 1, got 0\n"
    assert not (tmp_path / "ledger.csv").exists()


@pytest.mark.parametrize("windows", [2, 3, 10])
def test_more_ledger_windows_than_snapshots_allow_is_exit_2(windows, tmp_path, capsys):
    # T = 0.03 at dt = 1e-3 stores 4 snapshots: room for one Simpson window
    assert _run(["cbf", "--N", "16", "--T", "0.03", "--windows", str(windows)], tmp_path) == 2
    assert capsys.readouterr().err == (
        f"error: config: windows {windows} needs at least {2 * windows + 1} snapshots, the run stores 4\n"
    )
    assert not (tmp_path / "ledger.csv").exists()


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 977. MiB for an array", "error: accuracy: Unable to allocate 977. MiB for an array\n"),
        ("", "error: accuracy: out of memory\n"),
    ],
    ids=["numpy-message", "empty-message"],
)
def test_out_of_memory_is_one_accuracy_line(message, line, tmp_path, capsys, monkeypatch):
    def exhausted(cfg, out_dir):
        raise MemoryError(message)

    monkeypatch.setitem(cli._HANDLERS, "modes", exhausted)
    assert _run(["modes"], tmp_path) == 3
    assert capsys.readouterr().err == line


def test_dirichlet_reach_past_every_double_is_exit_3(tmp_path, capsys):
    rc = _run(["modes", "--op", "dirichlet-interval", "--L", "1e300", "--lambda-max", "1e300"], tmp_path)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: accuracy: mode enumeration would produce more than")
    assert "\n" not in err.rstrip("\n")


def test_a_p_whose_grid_numpy_cannot_address_is_exit_3(tmp_path, capsys):
    # the grid of 6e300 points per axis used to reach numpy and end in a
    # ValueError traceback; it is refused before anything is allocated
    rc = _run(["truncate", "--n-list", "3", "--kmax", "6", "--p", "1e300"], tmp_path)
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: accuracy: the L^p grid at p = 1e+300, k_max = 6 needs 6.00e+300 points per axis: too many for numpy\n"
    )
    assert not (tmp_path / "truncate.csv").exists()


def test_truncate_kmax_past_the_mode_cap_is_exit_3(tmp_path, capsys):
    # the near-extremal family used to build its (2 kmax + 1)^2 index box
    # unchecked: 29.1 TiB at kmax 10^6
    rc = _run(["truncate", "--kmax", "1000000"], tmp_path)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: accuracy: mode enumeration would produce")
    assert "\n" not in err.rstrip("\n")
    assert not (tmp_path / "truncate.csv").exists()


def test_truncate_kmax_past_the_doubles_is_the_mode_cap_line(tmp_path, capsys):
    # kmax^2 as a double used to end in an OverflowError traceback
    assert _run(["truncate", "--kmax", "1" + "0" * 200], tmp_path) == 3
    modes = (2 * 10**200 + 1) ** 2
    assert capsys.readouterr().err == f"error: accuracy: mode enumeration would produce {modes} modes, over the cap of 1000000\n"


def test_cli_defaults_are_the_library_defaults():
    # the CLI keeps its own option table, to name its own keys in messages;
    # its defaults must not drift from the library's
    cli_key = {"dim": "d", "resolution": "N", "t_final": "T"}
    for f in dataclasses.fields(CBFParams):
        if f.default is not dataclasses.MISSING:
            assert cli._DEFAULTS["cbf"][cli_key.get(f.name, f.name)] == f.default, f.name
    for key, param in inspect.signature(random_divergence_free_state).parameters.items():
        if param.default is not inspect.Parameter.empty:
            assert cli._DEFAULTS["cbf"][key] == param.default, key
    truncate_keys = {"samples": "n_samples", "iters": "ascent_iters"}
    defaults = {k: v for k, v in cli._DEFAULTS["truncate"].items() if k != "plot"}
    defaults["n_list"] = tuple(int(x) for x in defaults["n_list"].split(","))
    signature = inspect.signature(truncation_experiment).parameters
    assert {truncate_keys.get(k, k): v for k, v in defaults.items()} == {k: p.default for k, p in signature.items()}


def test_missing_subcommand_is_exit_2(capsys):
    assert run([]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("EIGENAPPROX_OUT", str(tmp_path))
    rc = run(["h00", "--profile", "bump", "--levels", "5"])
    assert rc == 0
    assert (tmp_path / "h00.csv").exists()


def test_h00_constant_flagged_diverging(tmp_path):
    rc = _run(["h00", "--profile", "constant", "--levels", "6"], tmp_path)
    assert rc == 0
    _, body = _read_csv(tmp_path / "h00.csv")
    assert len(body) == 6
    assert all(r[2] == "true" for r in body)
    rc = _run(["h00", "--profile", "bump", "--levels", "6"], tmp_path)
    assert rc == 0
    _, body = _read_csv(tmp_path / "h00.csv")
    assert all(r[2] == "false" for r in body)


def test_cbf_ledger_and_checkpoint(tmp_path):
    rc = _run(
        ["cbf", "--taylor-green", "--mu", "0.1", "--N", "16", "--dt", "2e-3", "--T", "0.1",
         "--windows", "2", "--save-traj"],
        tmp_path,
    )
    assert rc == 0
    header, body = _read_csv(tmp_path / "ledger.csv")
    assert header == ["t0", "t1", "kinetic0", "kinetic1", "dissipation", "absorption", "residual"]
    assert len(body) == 2
    assert float(body[0][2]) == pytest.approx(2.0 * math.pi**2, rel=1e-12)
    assert all(float(r[5]) == 0.0 for r in body)  # beta = 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "trajectory/manifest.json" in manifest["outputs"]
    assert "trajectory/trajectory.npz" in manifest["outputs"]


def test_saved_trajectory_is_byte_identical_across_runs(tmp_path):
    args = ["cbf", "--d", "3", "--N", "16", "--beta", "1", "--T", "0.02", "--save-traj"]
    assert _run(args, tmp_path / "a") == 0 and _run(args, tmp_path / "b") == 0
    for name in ("manifest.json", "trajectory.npz"):
        assert (tmp_path / "a" / "trajectory" / name).read_bytes() == (tmp_path / "b" / "trajectory" / name).read_bytes()


def test_truncate_small_grid(tmp_path):
    rc = _run(["truncate", "--n-list", "2,3", "--kmax", "6", "--samples", "2", "--iters", "5"], tmp_path)
    assert rc == 0
    header, body = _read_csv(tmp_path / "truncate.csv")
    assert header == ["quantity", "n", "value", "reference", "ratio"]
    assert [(r[0], r[1]) for r in body] == [
        ("spherical_Lp_ratio", "2"),
        ("spherical_Lp_ratio", "3"),
        ("cubic_Lp_ratio", "2"),
        ("cubic_Lp_ratio", "3"),
    ]


def test_report_merges_and_sorts(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("quantity,theta,value,reference,ratio\nzeta,0.5,1.0,,\nalpha,0.2,2.0,,\n")
    b.write_text("quantity,theta,value,reference,ratio\nalpha,0.1,3.0,,\n")
    rc = _run(["report", "--inputs", str(a), str(b)], tmp_path)
    assert rc == 0
    _, body = _read_csv(tmp_path / "report.csv")
    assert [(r[0], r[1]) for r in body] == [("alpha", "0.1"), ("alpha", "0.2"), ("zeta", "0.5")]


def test_report_order_is_total_with_nan_cells(tmp_path):
    # NaN sorts after every number, so each input order gives the same bytes
    rows = ["q,1,nan\n", "q,1,2.0\n", "q,1,1.0\n"]
    outputs = set()
    for i, perm in enumerate(itertools.permutations(rows)):
        src = tmp_path / f"in{i}.csv"
        src.write_text("quantity,theta,value\n" + "".join(perm))
        out = tmp_path / f"out{i}"
        assert _run(["report", "--inputs", str(src)], out) == 0
        outputs.add((out / "report.csv").read_bytes())
    assert len(outputs) == 1
    _, body = _read_csv(out / "report.csv")
    assert [r[2] for r in body] == ["1.0", "2.0", "nan"]


def test_report_header_mismatch_is_exit_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x,y\n1,2\n")
    b.write_text("x,z\n1,2\n")
    rc = _run(["report", "--inputs", str(a), str(b)], tmp_path)
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


PLOTS = {
    "approx": ["--op", "torus", "--d", "2", "--lambda-max", "20", "--theta", "0.2,0.4,0.8"],
    "interp": ["--lambda-max", "20", "--theta", "0.3,0.6"],
    "h00": ["--levels", "4"],
    "truncate": ["--n-list", "2,3", "--kmax", "6", "--samples", "1", "--iters", "10"],
    "cbf": ["--N", "16", "--T", "0.02"],
}


@pytest.mark.parametrize("name", PLOTS)
def test_plot_flag_writes_svg(name, tmp_path):
    assert _run([name, *PLOTS[name], "--plot"], tmp_path / "plot") == 0
    svg = (tmp_path / "plot" / f"{name}.svg").read_text()
    assert svg.startswith("<svg")
    manifest = json.loads((tmp_path / "plot" / "manifest.json").read_text())
    assert f"{name}.svg" in manifest["outputs"]
    assert _run([name, *PLOTS[name]], tmp_path / "bare") == 0
    assert not list((tmp_path / "bare").glob("*.svg"))


def test_emitted_field_feeds_back(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rc = _run(
        ["approx", "--op", "torus", "--d", "2", "--lambda-max", "12", "--seed", "4",
         "--transform", "pi-theta", "--theta", "0.4", "--emit-field"],
        d1,
    )
    assert rc == 0
    rc = _run(
        ["approx", "--op", "torus", "--d", "2", "--field", str(d1 / "field_out.csv"), "--theta", "0.3"],
        d2,
    )
    assert rc == 0
    assert (d2 / "approx.csv").exists()


def test_malformed_field_csv_is_exit_2(tmp_path, capsys):
    field = tmp_path / "bad.csv"
    field.write_text("k1,k2,polarization,re,im\n1,0,0,1.0,0.0\n0,1,0,abc,0.0\n")
    rc = _run(["approx", "--op", "torus", "--d", "2", "--field", str(field), "--theta", "0.3"], tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err == "error: config: line 3: value cell 'abc' is not a number\n"


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_non_integer_index_cell_is_exit_2(tmp_path, capsys):
    # with DeprecationWarning hidden, as outside the test suite
    field = tmp_path / "bad.csv"
    field.write_text("k1,k2,polarization,re,im\n1,0,0,1.0,0.0\n1.5,1,0,1.0,0.0\n")
    rc = _run(["approx", "--op", "torus", "--d", "2", "--field", str(field), "--theta", "0.3"], tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err == "error: config: line 3: index cell '1.5' is not an integer\n"


# input files that used to end in a traceback: a byte that is not text, a
# cell over the csv module's field size limit, and such a cell in a spectral
# row the fast parse refuses, which the re-parse of the csv module reads
_BIG = "x" * 200_000
BAD_FILES = [
    (["approx", "--op", "dirichlet-interval"], "--field", b"k1,polarization,re,im\n1,0,\xff,0.0\n"),
    (["report"], "--inputs", f"quantity,value\na,{_BIG}\n".encode()),
    (["approx", "--op", "torus", "--d", "2"], "--field", f"k1,k2,polarization,re,im\n1,0,0,{_BIG},0.0\n".encode()),
]


@pytest.mark.parametrize("argv, flag, data", BAD_FILES, ids=["not-text", "report-big-cell", "field-big-cell"])
def test_unreadable_input_file_is_one_config_line_naming_it(argv, flag, data, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    assert _run([*argv, flag, str(path)], tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {path}: ")
    assert err.count("\n") == 1


_OPS = ("dirichlet-interval", "dirichlet-box", "torus", "torus-stokes")

# every (subcommand, flag, kind or choices) the CLI has offered; a flag that
# is renamed, dropped or re-typed fails the inventory test
FLAGS = [
    ("modes", "--op", _OPS),
    ("modes", "--L", "float"),
    ("modes", "--lengths", "str"),
    ("modes", "--d", "int"),
    ("modes", "--lambda-max", "float"),
    ("approx", "--op", _OPS),
    ("approx", "--L", "float"),
    ("approx", "--lengths", "str"),
    ("approx", "--d", "int"),
    ("approx", "--lambda-max", "float"),
    ("approx", "--n-modes", "int"),
    ("approx", "--decay", "float"),
    ("approx", "--seed", "int"),
    ("approx", "--field", "str"),
    ("approx", "--transform", ("semigroup", "pi-theta")),
    ("approx", "--theta", "str"),
    ("approx", "--alpha", "float"),
    ("approx", "--beta", "float"),
    ("approx", "--emit-field", "switch"),
    ("approx", "--plot", "switch"),
    ("interp", "--op", _OPS),
    ("interp", "--L", "float"),
    ("interp", "--lengths", "str"),
    ("interp", "--d", "int"),
    ("interp", "--lambda-max", "float"),
    ("interp", "--n-modes", "int"),
    ("interp", "--decay", "float"),
    ("interp", "--seed", "int"),
    ("interp", "--field", "str"),
    ("interp", "--theta", "str"),
    ("interp", "--check-itheta", "switch"),
    ("interp", "--reiteration", "switch"),
    ("interp", "--plot", "switch"),
    ("h00", "--profile", ("bump", "constant")),
    ("h00", "--L", "float"),
    ("h00", "--levels", "int"),
    ("h00", "--plot", "switch"),
    ("truncate", "--p", "float"),
    ("truncate", "--kmax", "int"),
    ("truncate", "--n-list", "str"),
    ("truncate", "--seed", "int"),
    ("truncate", "--samples", "int"),
    ("truncate", "--iters", "int"),
    ("truncate", "--plot", "switch"),
    ("cbf", "--d", "int"),
    ("cbf", "--mu", "float"),
    ("cbf", "--beta", "float"),
    ("cbf", "--r", "float"),
    ("cbf", "--N", "int"),
    ("cbf", "--dt", "float"),
    ("cbf", "--T", "float"),
    ("cbf", "--snapshot-every", "int"),
    ("cbf", "--taylor-green", "switch"),
    ("cbf", "--kmax-init", "int"),
    ("cbf", "--amplitude", "float"),
    ("cbf", "--seed", "int"),
    ("cbf", "--windows", "int"),
    ("cbf", "--save-traj", "switch"),
    ("cbf", "--plot", "switch"),
    ("report", "--inputs", "list"),
]


def _flag_kind(action):
    if isinstance(action, argparse._StoreConstAction):
        return "switch"
    if action.choices:
        return tuple(action.choices)
    if action.nargs == "+":
        return "list"
    return (action.type or str).__name__


def test_flag_inventory():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = []
    for name, p in sub.choices.items():
        opts = [a for a in p._actions if a.option_strings and a.dest != "help"]
        assert [a.option_strings for a in opts[:2]] == [["--out-dir"], ["--config"]]
        for a in opts[2:]:
            # one spelling per flag, and its value lands under the config key
            assert a.option_strings == ["--" + a.dest.replace("_", "-")]
            assert a.default is None
            found.append((name, a.option_strings[0], _flag_kind(a)))
    assert found == FLAGS


@pytest.mark.parametrize("name", ["modes", "approx", "interp", "h00", "truncate", "cbf", "report"])
def test_help_returns_0(name, capsys):
    assert run([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: eigenapprox {name}")


# values that used to run the wrong experiment or end in a traceback
BAD_VALUES = [
    ("approx", {"transform": "bogus"}, [], "transform"),
    ("h00", {"levels": "5"}, [], "levels"),
    ("truncate", {"plot": "no"}, [], "plot"),
    ("approx", {}, ["--seed", "-1"], "seed"),
    ("truncate", {}, ["--seed", "-1"], "seed"),
    ("truncate", {}, ["--n-list", "2,x"], "n_list"),
    ("truncate", {}, ["--n-list", "1" + "0" * 400], "n_list elements must be finite"),
    ("approx", {}, ["--theta", "0.5,x"], "theta"),
    ("truncate", {}, ["--iters", "-3"], "iters"),
    ("approx", {"field": 3}, [], "field"),
    ("report", {"inputs": "a.csv"}, [], "inputs"),
    ("cbf", {"N": 32.0}, [], "N"),
    # a number option takes only a finite double, from a flag or from JSON
    ("cbf", {}, ["--T", "inf"], "T"),
    ("cbf", {}, ["--mu", "inf"], "mu"),
    ("cbf", {}, ["--beta", "inf"], "beta"),
    ("approx", {}, ["--alpha", "nan"], "alpha"),
    ("approx", {}, ["--theta", "0.5,1e400"], "theta elements"),
    ("cbf", {"amplitude": math.nan}, [], "amplitude"),
    ("modes", {"op": "dirichlet-box", "lengths": "1,Infinity"}, [], "lengths elements"),
    ("modes", {"lambda_max": 10**400}, [], "lambda_max"),
    # an empty random field is refused by name, not measured as 0
    ("approx", {}, ["--n-modes", "0"], "n_modes must be >= 1, got 0"),
    ("interp", {}, ["--n-modes", "0"], "n_modes must be >= 1, got 0"),
    # the key the user set, not the lambda_max truncate derives from it
    ("truncate", {}, ["--kmax", "0"], "kmax"),
    # a plot with no plottable point names its file
    ("cbf", {}, ["--amplitude", "0", "--N", "16", "--T", "0.02", "--plot"], "cbf.svg"),
]


@pytest.mark.parametrize("name, config, flags, key", BAD_VALUES, ids=[f"{r[0]}-{r[3]}" for r in BAD_VALUES])
def test_bad_value_is_one_config_line(name, config, flags, key, tmp_path, capsys):
    argv = [name, *flags, "--out-dir", str(tmp_path / "out")]
    if config:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1
    assert key in err
    assert "Traceback" not in err


def test_config_values_keep_their_json_form(tmp_path):
    # an int where a float goes and a bare number for a comma list both run,
    # and the manifest echoes them unconverted
    cfg = tmp_path / "c.json"
    cfg.write_text('{"theta": 0.25, "alpha": 1, "lambda_max": 20}\n')
    assert run(["approx", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    echoed = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert (echoed["theta"], echoed["alpha"], echoed["lambda_max"]) == (0.25, 1, 20)
    assert isinstance(echoed["alpha"], int)
