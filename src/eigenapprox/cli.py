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
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import approx, cbf, interpolation, normlab, reports, serialize
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
        lengths = tuple(float(x) for x in str(cfg["lengths"]).split(","))
        return DirichletLaplacian(Box(lengths))
    if name == "torus":
        return TorusLaplacian(Torus(cfg["d"]))
    if name == "torus-stokes":
        return TorusStokes(Torus(cfg["d"]))
    raise ConfigError(f"unknown operator {name!r}; choose from {_OPERATORS}")


def _theta_list(spec) -> list:
    if isinstance(spec, (int, float)):
        return [float(spec)]
    vals = [float(x) for x in str(spec).split(",") if x.strip()]
    if not vals:
        raise ConfigError("empty theta list")
    return vals


def _load_or_sample_field(cfg: dict, op):
    if cfg.get("field"):
        return serialize.spectral_field_from_csv(cfg["field"], op)
    rng = np.random.default_rng(cfg["seed"])
    return random_field(op, cfg["lambda_max"], rng, n_modes=cfg.get("n_modes"), decay=cfg.get("decay", 0.0))


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (cfg, out_dir) and returns output file names


def _run_modes(cfg: dict, out_dir: str) -> list:
    op = _make_operator(cfg)
    k, pol, lam = _mode_table(op, cfg["lambda_max"])
    rows = zip([" ".join(map(str, ks)) for ks in k.tolist()], pol.tolist(), lam.tolist())
    reports.write_table_csv(os.path.join(out_dir, "modes.csv"), ("k", "polarization", "eigenvalue"), rows)
    return ["modes.csv"]


def _run_approx(cfg: dict, out_dir: str) -> list:
    op = _make_operator(cfg)
    f = _load_or_sample_field(cfg, op)
    alpha, beta = cfg["alpha"], cfg["beta"]
    if beta > alpha and cfg["transform"] == "pi-theta":
        raise ConfigError(f"the truncation estimate needs alpha >= beta, got ({alpha}, {beta})")
    rows = []
    lam1 = op.lambda_min()
    norm_beta = approx.fractional_norm(f, beta)
    for theta in _theta_list(cfg["theta"]):
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
    if cfg.get("emit_field"):
        t0 = _theta_list(cfg["theta"])[0]
        g = approx.pi_theta(f, t0) if cfg["transform"] == "pi-theta" else approx.semigroup_apply(f, t0)
        serialize.spectral_field_to_csv(g, os.path.join(out_dir, "field_out.csv"))
        outputs.append("field_out.csv")
    if cfg.get("plot"):
        from .svgplot import line_plot

        thetas = [r.params["theta"] for r in rows]
        line_plot(
            os.path.join(out_dir, "approx.svg"),
            [("measured", thetas, [r.value for r in rows]), ("bound", thetas, [r.reference for r in rows])],
            title=rows[0].quantity,
            xlabel="theta",
            ylabel="D(A^alpha) norm",
            logx=True,
            logy=True,
        )
        outputs.append("approx.svg")
    return outputs


def _run_interp(cfg: dict, out_dir: str) -> list:
    thetas = _theta_list(cfg["theta"])
    rows = []
    if cfg.get("check_itheta"):
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
        op = _make_operator(cfg)
        f = _load_or_sample_field(cfg, op)
        for theta in thetas:
            if cfg.get("reiteration"):
                rows.extend(interpolation.reiteration_check(f, theta))
            else:
                q = interpolation.InterpolationQuery.auto(f, theta)
                value = interpolation.interpolation_norm(f, q)
                ref = math.sqrt(interpolation.i_theta(theta)) * approx.fractional_norm(f, theta)
                rows.append(reports.NormReport("interpolation_norm", value, reference=ref, params={"theta": theta}))
    reports.write_reports_csv(os.path.join(out_dir, "interp.csv"), rows)
    outputs = ["interp.csv"]
    if cfg.get("plot"):
        from .svgplot import line_plot

        line_plot(
            os.path.join(out_dir, "interp.svg"),
            [(rows[0].quantity, [r.params["theta"] for r in rows], [r.ratio if r.ratio is not None else math.nan for r in rows])],
            title="value / reference",
            xlabel="theta",
            ylabel="ratio",
        )
        outputs.append("interp.svg")
    return outputs


def _run_h00(cfg: dict, out_dir: str) -> list:
    L = cfg["L"]
    domain = Interval(L)
    if cfg["profile"] == "bump":
        u = SpectralField(DirichletLaplacian(domain), {ModeIndex((1,)): 1.0 + 0.0j})
    elif cfg["profile"] == "constant":
        u = lambda pts: np.ones(pts.shape[0])  # noqa: E731
    else:
        raise ConfigError(f"unknown profile {cfg['profile']!r}; choose bump or constant")
    report = interpolation.h00_weighted_norm(u, domain, levels=cfg["levels"])
    rows = [[lvl, val, report.diverging] for lvl, val in enumerate(report.values)]
    reports.write_table_csv(os.path.join(out_dir, "h00.csv"), ("level", "value", "diverging"), rows)
    outputs = ["h00.csv"]
    if cfg.get("plot"):
        from .svgplot import line_plot

        line_plot(
            os.path.join(out_dir, "h00.svg"),
            [("weighted norm", list(range(len(report.values))), list(report.values))],
            title="boundary-weighted norm vs refinement level",
            xlabel="level",
            ylabel="integral",
            logy=True,
        )
        outputs.append("h00.svg")
    return outputs


def _run_truncate(cfg: dict, out_dir: str) -> list:
    n_list = tuple(int(x) for x in str(cfg["n_list"]).split(","))
    rows = normlab.truncation_experiment(
        n_list=n_list,
        p=cfg["p"],
        kmax=cfg["kmax"],
        seed=cfg["seed"],
        n_samples=cfg["samples"],
        ascent_iters=cfg["iters"],
    )
    reports.write_reports_csv(os.path.join(out_dir, "truncate.csv"), rows, param_keys=("n",))
    outputs = ["truncate.csv"]
    if cfg.get("plot"):
        from .svgplot import line_plot

        series = []
        for name in ("spherical_Lp_ratio", "cubic_Lp_ratio"):
            sub = [r for r in rows if r.quantity == name]
            if sub:
                series.append((name.split("_")[0], [r.params["n"] for r in sub], [r.value for r in sub]))
        line_plot(
            os.path.join(out_dir, "truncate.svg"),
            series,
            title=f"truncation L^{cfg['p']:g} ratio lower bounds",
            xlabel="n",
            ylabel="ratio",
        )
        outputs.append("truncate.svg")
    return outputs


def _run_cbf(cfg: dict, out_dir: str) -> list:
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
    if cfg.get("taylor_green"):
        initial = cbf.taylor_green(params, amplitude=cfg["amplitude"])
    else:
        initial = cbf.random_divergence_free_state(
            params, kmax_init=cfg["kmax_init"], amplitude=cfg["amplitude"], seed=cfg["seed"]
        )
    traj = cbf.simulate(initial, params)
    windows = max(1, int(cfg["windows"]))
    times = traj.times
    idx = [round(i * (len(times) - 1) / windows) for i in range(windows + 1)]
    rows = [led.csv_row() for led in cbf.energy_ledgers(traj, [times[i] for i in idx])]
    reports.write_table_csv(os.path.join(out_dir, "ledger.csv"), cbf.EnergyLedger.CSV_HEADER, rows)
    outputs = ["ledger.csv"]
    if cfg.get("save_traj"):
        cbf.save_trajectory(traj, os.path.join(out_dir, "trajectory"))
        outputs += [os.path.join("trajectory", "manifest.json"), os.path.join("trajectory", "trajectory.npz")]
    if cfg.get("plot"):
        from .svgplot import line_plot

        energies = [cbf.state_energy(s, params) for s in traj.states]
        line_plot(
            os.path.join(out_dir, "cbf.svg"),
            [("kinetic energy", list(times), energies)],
            title="energy decay",
            xlabel="t",
            ylabel="|| u ||^2",
            logy=True,
        )
        outputs.append("cbf.svg")
    return outputs


def _run_report(cfg: dict, out_dir: str) -> list:
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

# defaults double as the schema for --config key validation
_DEFAULTS = {
    "modes": {"op": "dirichlet-interval", "L": math.pi, "lengths": "3.141592653589793,3.141592653589793", "d": 2, "lambda_max": 64.0},
    "approx": {
        "op": "torus",
        "L": math.pi,
        "lengths": "3.141592653589793,3.141592653589793",
        "d": 2,
        "lambda_max": 64.0,
        "n_modes": None,
        "decay": 0.0,
        "seed": 0,
        "field": None,
        "transform": "pi-theta",
        "theta": "0.5",
        "alpha": 0.5,
        "beta": 0.0,
        "emit_field": False,
        "plot": False,
    },
    "interp": {
        "op": "dirichlet-interval",
        "L": math.pi,
        "lengths": "3.141592653589793,3.141592653589793",
        "d": 2,
        "lambda_max": 64.0,
        "n_modes": 10,
        "decay": 0.0,
        "seed": 0,
        "field": None,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line machine-parsable failures
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eigenapprox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="{" + ",".join(_HANDLERS) + "}")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out-dir", dest="out_dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or cwd)")
        p.add_argument("--config", dest="config", default=None, help="JSON file of option values (CLI flags win)")
        return p

    p = add("modes", "enumerate eigenvalues below a threshold")
    p.add_argument("--op", choices=_OPERATORS, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--lengths", default=None, help="comma-separated box edge lengths")
    p.add_argument("--d", type=int, default=None, help="torus dimension")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)

    p = add("approx", "semigroup / damped-truncation error vs its bound")
    p.add_argument("--op", choices=_OPERATORS, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--lengths", default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--n-modes", dest="n_modes", type=int, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--field", default=None, help="input spectral CSV instead of a random field")
    p.add_argument("--transform", choices=("semigroup", "pi-theta"), default=None)
    p.add_argument("--theta", default=None, help="comma-separated list")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--emit-field", dest="emit_field", action="store_const", const=True, default=None)
    p.add_argument("--plot", action="store_const", const=True, default=None)

    p = add("interp", "interpolation-norm identities and I(theta) checks")
    p.add_argument("--op", choices=_OPERATORS, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--lengths", default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--n-modes", dest="n_modes", type=int, default=None)
    p.add_argument("--decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--theta", default=None, help="comma-separated list")
    p.add_argument("--check-itheta", dest="check_itheta", action="store_const", const=True, default=None)
    p.add_argument("--reiteration", action="store_const", const=True, default=None)
    p.add_argument("--plot", action="store_const", const=True, default=None)

    p = add("h00", "boundary-weighted norm discriminator on an interval")
    p.add_argument("--profile", choices=("bump", "constant"), default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--plot", action="store_const", const=True, default=None)

    p = add("truncate", "spherical vs cubic truncation L^p ratio experiment")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--n-list", dest="n_list", default=None, help="comma-separated truncation radii")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--plot", action="store_const", const=True, default=None)

    p = add("cbf", "pseudospectral CBF run plus energy ledger")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--N", type=int, default=None, dest="N")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--T", type=float, default=None, dest="T")
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int, default=None)
    p.add_argument("--taylor-green", dest="taylor_green", action="store_const", const=True, default=None)
    p.add_argument("--kmax-init", dest="kmax_init", type=int, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--windows", type=int, default=None, help="number of equal ledger windows")
    p.add_argument("--save-traj", dest="save_traj", action="store_const", const=True, default=None)
    p.add_argument("--plot", action="store_const", const=True, default=None)

    p = add("report", "merge report CSVs deterministically")
    p.add_argument("--inputs", nargs="+", default=None)

    return parser


def _resolve_config(ns: argparse.Namespace) -> dict:
    name = ns.subcommand
    cfg = dict(_DEFAULTS[name])
    if ns.config:
        with open(ns.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as e:
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
    return cfg


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def run(argv=None) -> int:
    """Parse argv, run the subcommand, write outputs plus manifest.

    Returns the exit code instead of raising; `entry` wraps this for the
    console script.
    """
    try:
        ns = _build_parser().parse_args(argv)
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
