"""Command-line front end: wires run configurations to the experiment
routines and emits CSV (and optional SVG) artifacts.

Every run writes a `manifest.json` next to its outputs echoing the resolved
configuration plus a sha256 content hash per file, so identical config+seed
runs can be checked byte-for-byte.  Exit codes: 0 success, 2 configuration
error, 3 accuracy/resource error; every failure prints a single
machine-parsable line `error: <kind>: <reason>` on stderr.

Subcommand runs are independent of each other; fan a parameter grid out over
separate output directories and merge with `report`, which sorts rows
deterministically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import approx, cbf, interpolation, normlab, reports, serialize, svgplot
from .domains import Box, DirichletLaplacian, Interval, ModeIndex, Torus, TorusLaplacian, TorusStokes, _mode_table
from .errors import AccuracyError, ConfigError, ResourceLimitError, ToolkitError
from .fields import SpectralField, random_field

OUT_DIR_ENV = "EIGENAPPROX_OUT"

_OPERATORS = ("dirichlet-interval", "dirichlet-box", "torus", "torus-stokes")


def _make_operator(cfg: dict):
    name = cfg["op"]
    if name == "dirichlet-interval":
        return DirichletLaplacian(Interval(cfg["L"]))
    if name == "dirichlet-box":
        return DirichletLaplacian(Box(tuple(_comma_list(cfg, "lengths"))))
    if name == "torus":
        return TorusLaplacian(Torus(cfg["d"]))
    return TorusStokes(Torus(cfg["d"]))  # the choices check leaves only torus-stokes


def _comma_list(cfg: dict, key: str) -> list:
    """The values of a comma-list option; a bare number is a one-item list."""
    convert = _COMMA_LISTS[key]
    try:
        vals = [convert(x) for x in str(cfg[key]).split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of {convert.__name__}s, got {cfg[key]!r}") from None
    if not vals:
        raise ConfigError(f"empty {key} list")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{key} elements must be finite, got {cfg[key]!r}")
    return vals


def _load_or_sample_field(cfg: dict):
    op = _make_operator(cfg)
    if cfg["field"]:
        return serialize.spectral_field_from_csv(cfg["field"], op)
    rng = np.random.default_rng(cfg["seed"])
    return random_field(op, cfg["lambda_max"], rng, n_modes=cfg["n_modes"], decay=cfg["decay"])


def _plot(cfg: dict, out_dir: str, name: str, series, **labels) -> list:
    """Draw `<name>.svg` from `series()` (label, xs, ys) triples when --plot
    is set, so nothing is computed for a plot without it; the names written."""
    if not cfg["plot"]:
        return []
    try:
        svgplot.line_plot(os.path.join(out_dir, f"{name}.svg"), series(), **labels)
    except ConfigError as e:
        raise ConfigError(f"{name}.svg: {e}") from None
    return [f"{name}.svg"]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (cfg, out_dir) and returns output file
# names; its docstring is the subcommand's help


def _run_modes(cfg: dict, out_dir: str) -> list:
    """enumerate eigenvalues below a threshold"""
    op = _make_operator(cfg)
    k, pol, lam = _mode_table(op, cfg["lambda_max"])
    rows = zip([" ".join(map(str, ks)) for ks in k.tolist()], pol.tolist(), lam.tolist())
    reports.write_table_csv(os.path.join(out_dir, "modes.csv"), ("k", "polarization", "eigenvalue"), rows)
    return ["modes.csv"]


def _run_approx(cfg: dict, out_dir: str) -> list:
    """semigroup / damped-truncation error vs its bound"""
    f = _load_or_sample_field(cfg)
    alpha, beta = cfg["alpha"], cfg["beta"]
    if beta > alpha and cfg["transform"] == "pi-theta":
        raise ConfigError(f"the truncation estimate needs alpha >= beta, got ({alpha}, {beta})")
    rows = []
    lam1 = f.operator.lambda_min()
    norm_beta = approx.fractional_norm(f, beta)
    for theta in _comma_list(cfg, "theta"):
        if not theta > 0:
            raise ConfigError(f"theta must be positive, got {theta}")
        if cfg["transform"] == "pi-theta":
            value = approx.pi_theta_gap_norm(f, theta, alpha)
            bound = approx.phi(theta, alpha - beta) * norm_beta
            quantity = "pi_theta_gap"
        else:
            value = approx.fractional_norm(approx.semigroup_apply(f, theta), alpha)
            bound = approx.smoothing_bound(theta, alpha, beta, lam1) * norm_beta
            quantity = "semigroup_smoothing"
        rows.append(reports.NormReport(quantity, value, reference=bound, params={"theta": theta}))
    reports.write_reports_csv(os.path.join(out_dir, "approx.csv"), rows)
    outputs = ["approx.csv"]
    if cfg["emit_field"]:
        t0 = _comma_list(cfg, "theta")[0]
        g = approx.pi_theta(f, t0) if cfg["transform"] == "pi-theta" else approx.semigroup_apply(f, t0)
        serialize.spectral_field_to_csv(g, os.path.join(out_dir, "field_out.csv"))
        outputs.append("field_out.csv")
    thetas = [r.params["theta"] for r in rows]
    return outputs + _plot(
        cfg, out_dir, "approx",
        lambda: [("measured", thetas, [r.value for r in rows]), ("bound", thetas, [r.reference for r in rows])],
        title=rows[0].quantity, xlabel="theta", ylabel="D(A^alpha) norm", logx=True, logy=True,
    )


def _run_interp(cfg: dict, out_dir: str) -> list:
    """interpolation-norm identities and I(theta) checks"""
    thetas = _comma_list(cfg, "theta")
    rows = []
    if cfg["check_itheta"]:
        for theta in thetas:
            rows.append(
                reports.NormReport(
                    "itheta",
                    interpolation.i_theta(theta),
                    reference=interpolation.i_theta_quadrature(theta),
                    params={"theta": theta},
                )
            )
    else:
        f = _load_or_sample_field(cfg)
        for theta in thetas:
            if cfg["reiteration"]:
                rows.extend(interpolation.reiteration_check(f, theta))
            else:
                q = interpolation.InterpolationQuery.auto(f, theta)
                value = interpolation.interpolation_norm(f, q)
                ref = math.sqrt(interpolation.i_theta(theta)) * approx.fractional_norm(f, theta)
                rows.append(reports.NormReport("interpolation_norm", value, reference=ref, params={"theta": theta}))
    reports.write_reports_csv(os.path.join(out_dir, "interp.csv"), rows)
    return ["interp.csv"] + _plot(
        cfg, out_dir, "interp",
        lambda: [(rows[0].quantity, [r.params["theta"] for r in rows], [math.nan if r.ratio is None else r.ratio for r in rows])],
        title="value / reference", xlabel="theta", ylabel="ratio",
    )


def _run_h00(cfg: dict, out_dir: str) -> list:
    """boundary-weighted norm discriminator on an interval"""
    L = cfg["L"]
    domain = Interval(L)
    if cfg["profile"] == "bump":
        u = SpectralField(DirichletLaplacian(domain), {ModeIndex((1,)): 1.0 + 0.0j})
    else:
        u = lambda pts: np.ones(pts.shape[0])  # noqa: E731
    report = interpolation.h00_weighted_norm(u, domain, levels=cfg["levels"])
    rows = [[lvl, val, report.diverging] for lvl, val in enumerate(report.values)]
    reports.write_table_csv(os.path.join(out_dir, "h00.csv"), ("level", "value", "diverging"), rows)
    return ["h00.csv"] + _plot(
        cfg, out_dir, "h00",
        lambda: [("weighted norm", list(range(len(report.values))), list(report.values))],
        title="boundary-weighted norm vs refinement level", xlabel="level", ylabel="integral", logy=True,
    )


def _run_truncate(cfg: dict, out_dir: str) -> list:
    """spherical vs cubic truncation L^p ratio experiment"""
    n_list = _comma_list(cfg, "n_list")
    rows = normlab.truncation_experiment(
        n_list=tuple(n_list),
        p=cfg["p"],
        kmax=cfg["kmax"],
        seed=cfg["seed"],
        n_samples=cfg["samples"],
        ascent_iters=cfg["iters"],
    )
    reports.write_reports_csv(os.path.join(out_dir, "truncate.csv"), rows, param_keys=("n",))
    return ["truncate.csv"] + _plot(
        cfg, out_dir, "truncate",  # the experiment reports each truncation at every n, in order
        lambda: [(name, n_list, [r.value for r in rows if r.quantity == f"{name}_Lp_ratio"]) for name in ("spherical", "cubic")],
        title=f"truncation L^{cfg['p']:g} ratio lower bounds", xlabel="n", ylabel="ratio",
    )


def _run_cbf(cfg: dict, out_dir: str) -> list:
    """pseudospectral CBF run plus energy ledger"""
    params = cbf.CBFParams(
        mu=cfg["mu"],
        beta=cfg["beta"],
        r=cfg["r"],
        dim=cfg["d"],
        resolution=cfg["N"],
        dt=cfg["dt"],
        t_final=cfg["T"],
        snapshot_every=cfg["snapshot_every"],
    )
    if cfg["taylor_green"]:
        initial = cbf.taylor_green(params, amplitude=cfg["amplitude"])
    else:
        initial = cbf.random_divergence_free_state(
            params, kmax_init=cfg["kmax_init"], amplitude=cfg["amplitude"], seed=cfg["seed"]
        )
    traj = cbf.simulate(initial, params)
    windows = cfg["windows"]
    times = traj.times
    if 2 * windows > len(times) - 1:  # Simpson takes 2 snapshot intervals per window
        raise ConfigError(f"windows {windows} needs at least {2 * windows + 1} snapshots, the run stores {len(times)}")
    idx = [round(i * (len(times) - 1) / windows) for i in range(windows + 1)]
    rows = [led.csv_row() for led in cbf.energy_ledgers(traj, [times[i] for i in idx])]
    reports.write_table_csv(os.path.join(out_dir, "ledger.csv"), cbf.EnergyLedger.CSV_HEADER, rows)
    outputs = ["ledger.csv"]
    if cfg["save_traj"]:
        cbf.save_trajectory(traj, os.path.join(out_dir, "trajectory"))
        outputs += [os.path.join("trajectory", "manifest.json"), os.path.join("trajectory", "trajectory.npz")]
    return outputs + _plot(
        cfg, out_dir, "cbf",
        lambda: [("kinetic energy", list(times), [cbf.state_energy(s, params) for s in traj.states])],
        title="energy decay", xlabel="t", ylabel="|| u ||^2", logy=True,
    )


def _run_report(cfg: dict, out_dir: str) -> list:
    """merge report CSVs deterministically"""
    inputs = cfg["inputs"]
    if not inputs:
        raise ConfigError("report needs at least one --inputs CSV")
    header = None
    rows = []
    for path in inputs:
        with open(path, newline="") as fh:
            rdr = csv.reader(fh)
            head = next(rdr, None)
            if head is None:
                raise ConfigError(f"{path}: empty CSV")
            if header is None:
                header = head
            elif head != header:
                raise ConfigError(f"{path}: header {head} does not match {header}")
            rows.extend([list(r) for r in rdr])
    rows.sort(key=lambda r: tuple(_sort_cell(c) for c in r))
    reports.write_table_csv(os.path.join(out_dir, "report.csv"), header, rows)
    return ["report.csv"]


def _sort_cell(c: str):
    # text sorts first, then numbers, then NaN; the raw text breaks ties, so
    # the order is total and the output does not depend on the input order
    try:
        x = float(c)
    except ValueError:
        return (0, 0.0, c)
    if math.isnan(x):
        return (2, 0.0, c)
    return (1, x, c)


# ---------------------------------------------------------------------------
# argument plumbing

_HANDLERS = {
    "modes": _run_modes,
    "approx": _run_approx,
    "interp": _run_interp,
    "h00": _run_h00,
    "truncate": _run_truncate,
    "cbf": _run_cbf,
    "report": _run_report,
}

# the operator options (`_make_operator`) and the field options
# (`_load_or_sample_field`) of the subcommands that take them
_OPERATOR = {"op": "dirichlet-interval", "L": math.pi, "lengths": "3.141592653589793,3.141592653589793", "d": 2, "lambda_max": 64.0}
_FIELD = {"n_modes": None, "decay": 0.0, "seed": 0, "field": None}

# the one option schema: the --config keys, the flags (`--` plus the key with
# `-` for `_`), the kind every value must have (the type of its default) and
# the manifest echo; an override keeps its key's place
_DEFAULTS = {
    "modes": _OPERATOR,
    "approx": {
        **_OPERATOR,
        "op": "torus",
        **_FIELD,
        "transform": "pi-theta",
        "theta": "0.5",
        "alpha": 0.5,
        "beta": 0.0,
        "emit_field": False,
        "plot": False,
    },
    "interp": {
        **_OPERATOR,
        **_FIELD,
        "n_modes": 10,
        "theta": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        "check_itheta": False,
        "reiteration": False,
        "plot": False,
    },
    "h00": {"profile": "bump", "L": 1.0, "levels": 10, "plot": False},
    "truncate": {"p": 4.0, "kmax": 40, "n_list": "4,8,12,16,20,24,28,32", "seed": 0, "samples": 4, "iters": 200, "plot": False},
    "cbf": {
        "d": 2,
        "mu": 1.0,
        "beta": 0.0,
        "r": 2.0,
        "N": 64,
        "dt": 1e-3,
        "T": 1.0,
        "snapshot_every": 10,
        "taylor_green": False,
        "kmax_init": 2,
        "amplitude": 1.0,
        "seed": 0,
        "windows": 1,
        "save_traj": False,
        "plot": False,
    },
    "report": {"inputs": []},
}


_NONE_KINDS = {"n_modes": int, "field": str}  # the options that may be null (unset)
_CHOICES = {"op": _OPERATORS, "transform": ("semigroup", "pi-theta"), "profile": ("bump", "constant")}
_COMMA_LISTS = {"theta": float, "lengths": float, "n_list": int}  # element type of each comma list
_LEAST = {"windows": 1, "n_modes": 1}  # the counts that must exceed 0; every other one is >= 0
_HELP = {
    "lengths": "comma-separated box edge lengths",
    "d": "torus dimension",
    "field": "input spectral CSV instead of a random field",
    "theta": "comma-separated list",
    "n_list": "comma-separated truncation radii",
    "windows": "number of equal ledger windows",
}
# kind -> (accepted JSON types, name in messages); a JSON true or false is
# only ever a switch value, though Python's bool is an int
_KINDS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list of strings"),
}


def _kind(name: str, key: str) -> type:
    return _NONE_KINDS.get(key) or type(_DEFAULTS[name][key])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line machine-parsable failures
        raise ConfigError(message)


@functools.cache  # one parser per process; dispatch reads _HANDLERS at call time
def _build_parser() -> _Parser:
    parser = _Parser(prog="eigenapprox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="{" + ",".join(_HANDLERS) + "}")
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--out-dir", dest="out_dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or cwd)")
        p.add_argument("--config", dest="config", default=None, help="JSON file of option values (CLI flags win)")
        for key in _DEFAULTS[name]:
            kind = _kind(name, key)
            if kind is bool:
                kw = {"action": "store_const", "const": True}
            else:
                kw = {"type": str if kind is list else kind, "nargs": "+" if kind is list else None, "choices": _CHOICES.get(key)}
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=_HELP.get(key), **kw)
    return parser


def _check_value(name: str, key: str, v) -> None:
    """Refuse a value, from a flag or the config file, that does not have its
    option's kind, is a number no finite double holds, lies outside its
    choices or is a count below its least value (_LEAST, else 0); every
    integer option counts something.  Values are not converted, so the
    manifest echoes them as given."""
    if v is None and key in _NONE_KINDS:
        return
    kind = _kind(name, key)
    types, what = ((str, int, float), "a comma-separated list or a number") if key in _COMMA_LISTS else _KINDS[kind]
    if (
        not isinstance(v, types)
        or isinstance(v, bool) != (kind is bool)
        or (kind is list and not all(isinstance(x, str) for x in v))
    ):
        raise ConfigError(f"{key} must be {what}, got {v!r}")
    if kind is float and not abs(v) <= sys.float_info.max:  # NaN, an infinity or an int beyond a double
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    if key in _CHOICES and v not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {v!r}")
    if kind is int and v < _LEAST.get(key, 0):
        raise ConfigError(f"{key} must be >= {_LEAST.get(key, 0)}, got {v}")


def _resolve_config(ns: argparse.Namespace) -> dict:
    name = ns.subcommand
    cfg = dict(_DEFAULTS[name])
    if ns.config:
        with open(ns.config) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as e:  # a JSONDecodeError, or an integer beyond Python's digit limit
                raise ConfigError(f"{ns.config}: invalid JSON ({e})") from e
        if not isinstance(loaded, dict):
            raise ConfigError(f"{ns.config}: top-level JSON object expected")
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise ConfigError(f"{ns.config}: unknown keys {unknown}; valid keys are {sorted(cfg)}")
        cfg.update(loaded)
    for key, val in vars(ns).items():
        if key in ("subcommand", "config", "out_dir") or val is None:
            continue
        cfg[key] = val
    for key, val in cfg.items():
        _check_value(name, key, val)
    return cfg


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def run(argv=None) -> int:
    """Parse argv, run the subcommand, write outputs plus manifest.

    Returns the exit code instead of raising, also after `--help`; `entry`
    wraps this for the console script.
    """
    try:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as e:  # only --help exits: the parser raises ConfigError on errors
            return e.code
        if not getattr(ns, "subcommand", None):
            raise ConfigError(f"missing subcommand; choose from {tuple(_HANDLERS)}")
        cfg = _resolve_config(ns)
        out_dir = ns.out_dir or os.environ.get(OUT_DIR_ENV) or os.getcwd()
        os.makedirs(out_dir, exist_ok=True)
        outputs = _HANDLERS[ns.subcommand](cfg, out_dir)
        manifest = {
            "subcommand": ns.subcommand,
            "config": {k: cfg[k] for k in sorted(cfg)},
            "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in sorted(outputs)},
        }
        with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    except ConfigError as e:  # includes AliasingError and argparse failures
        print(f"error: config: {_one_line(e)}", file=sys.stderr)
        return 2
    except (AccuracyError, ResourceLimitError) as e:
        print(f"error: accuracy: {_one_line(e)}", file=sys.stderr)
        return 3
    except MemoryError as e:  # a last line of defence: numpy names the allocation
        print(f"error: accuracy: {_one_line(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except ToolkitError as e:
        print(f"error: runtime: {_one_line(e)}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: io: {_one_line(e)}", file=sys.stderr)
        return 2


def _one_line(e: BaseException) -> str:
    return " ".join(str(e).split())


def entry() -> None:
    sys.exit(run(sys.argv[1:]))
