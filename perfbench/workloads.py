"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload drives only the public library API (and `cli.run`, the
`eigenapprox` console entry).  It is built from a seed, sets up once (input
generation and the warm-up a user pays once per session), then runs ops
through a `Meter` until the meter says stop.  The checks use oracles written
here with plain numpy, hashlib and csv, never the library's own helpers, and
run with the meter's clock stopped.

The seed only changes values (field coefficients, initial flow, the CLI
seed), never the amount of work, so runs on different seeds are comparable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from eigenapprox import approx, cbf, cli, domains, fields, interpolation, serialize
from meter import FAILED


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest_ok(out_dir: str) -> bool:
    """Every output named in manifest.json hashes to its recorded sha256."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    return bool(outputs) and all(_sha256(os.path.join(out_dir, name)) == sha for name, sha in outputs.items())


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# truncation: the README fan-out of the truncate subcommand


class Truncation:
    """One `truncate` CLI run per radius of the default n-list, each into its
    own out-dir, then one `report` merge; op = one `truncate` invocation."""

    # the default n-list, run cheapest and dearest first: an op costs about
    # 1.5x more at n=32 than at n=4, and in this order a pass cut short by
    # the clock has done about the mean cost per op, so it does not move
    # ops_per_s
    RADII = (4, 32, 8, 28, 12, 24, 16, 20)

    def __init__(self, seed: int, reduced: bool, tmp: str):
        self.seed = seed
        self.tmp = tmp
        # reduced: a small grid and family for the benchmark's own test
        self.radii = (2, 3) if reduced else self.RADII
        self.extra = ["--kmax", "6", "--samples", "2", "--iters", "10"] if reduced else []
        self.digests: list = []
        self.merged_ops: list = []

    def setup(self) -> None:
        warm = os.path.join(self.tmp, "warm")
        args = ["truncate", "--n-list", "2", "--kmax", "6", "--samples", "2", "--iters", "10", "--out-dir", warm]
        if cli.run(args) != 0:
            raise RuntimeError("warm-up truncate run failed")

    def run(self, meter) -> None:
        passno = 0
        while meter.more():
            pass_dir = os.path.join(self.tmp, f"pass{passno}")
            inputs, pass_ops = [], []
            for n in self.radii:
                if not meter.more():
                    return  # a partial pass has no merge
                out = os.path.join(pass_dir, f"n{n}")
                argv = ["truncate", "--n-list", str(n), "--seed", str(self.seed), *self.extra, "--out-dir", out]
                op_id, rc = meter.op(cli.run, argv)
                meter.check(rc == 0 and self._truncate_ok(out, n), [op_id], f"truncate n={n} pass {passno}")
                inputs.append(os.path.join(out, "truncate.csv"))
                pass_ops.append(op_id)
            # the merge is phase work but not an op: a few ms among 2 s runs
            merged = os.path.join(pass_dir, "merged")
            rc = meter.aux(cli.run, ["report", "--inputs", *inputs, "--out-dir", merged])
            meter.check(rc == 0 and self._report_ok(merged, inputs), pass_ops, f"report pass {passno}")
            self.merged_ops += pass_ops
            shutil.rmtree(pass_dir)
            passno += 1

    def finish(self, meter) -> None:
        # criterion 12's property: identical inputs merge to identical bytes
        meter.check(len(set(self.digests)) <= 1, self.merged_ops, "report digest differs between passes")

    def _truncate_ok(self, out: str, n: int) -> bool:
        if not _manifest_ok(out):
            return False
        rows = _csv_rows(os.path.join(out, "truncate.csv"))
        quantities = sorted(r["quantity"] for r in rows)
        values = [float(r["value"]) for r in rows]
        return (
            quantities == ["cubic_Lp_ratio", "spherical_Lp_ratio"]
            and all(int(r["n"]) == n for r in rows)
            and all(math.isfinite(v) and v > 0.0 for v in values)
        )

    def _report_ok(self, merged: str, inputs: list) -> bool:
        if not _manifest_ok(merged):
            return False
        path = os.path.join(merged, "report.csv")
        rows = _csv_rows(path)
        per_radius = {}
        for r in rows:
            per_radius.setdefault(int(r["n"]), set()).add(r["quantity"])
        expected = {n: {"cubic_Lp_ratio", "spherical_Lp_ratio"} for n in self.radii}
        merged_rows = sorted(tuple(r.values()) for r in rows)
        source_rows = sorted(tuple(r.values()) for p in inputs for r in _csv_rows(p))
        self.digests.append(_sha256(path))
        return len(rows) == 2 * len(self.radii) and per_radius == expected and merged_rows == source_rows


# ---------------------------------------------------------------------------
# flow: the 3D damped solver with ledgers and checkpoints beside the stepping


class Flow:
    """`cbf.step` in the benchmark's own loop, snapshots kept as `simulate`
    keeps them; after every segment the energy ledger over equal windows and
    an npz checkpoint round trip.  Op = one step."""

    SEGMENT_STEPS = 60
    SNAPSHOT_EVERY = 10
    WINDOWS = 2
    LEDGER_BOUND = 1e-4  # |residual| / kinetic0; RK4 + Simpson give ~2e-5 here

    def __init__(self, seed: int, reduced: bool, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.n = 16 if reduced else 32
        self.params = cbf.CBFParams(
            mu=1.0,
            beta=1.0,
            r=2.0,
            dim=3,
            resolution=self.n,
            dt=1e-3,
            t_final=self.SEGMENT_STEPS * 1e-3,
            snapshot_every=self.SNAPSHOT_EVERY,
        )
        n = self.n
        self.k = (
            np.fft.fftfreq(n, 1.0 / n).reshape(-1, 1, 1),
            np.fft.fftfreq(n, 1.0 / n).reshape(1, -1, 1),
            np.arange(n // 2 + 1, dtype=float).reshape(1, 1, -1),
        )
        kz = self.k[2]
        # rfft half layout: interior planes of the last axis stand for two modes
        self.weight = np.where((kz > 0) & (kz < n // 2), 2.0, 1.0)
        self.last_energy = None

    def setup(self) -> None:
        self.state = cbf.random_divergence_free_state(self.params, kmax_init=2, amplitude=1.0, seed=self.seed)
        cbf.state_energy(self.state, self.params)  # fills the solver's wavenumber tables
        cbf.step(self.state, self.params)  # first transforms of this size; result discarded

    def run(self, meter) -> None:
        segment = 0
        s = self.state
        while meter.more():
            times, states, ops = [s.time], [s], []
            for i in range(1, self.SEGMENT_STEPS + 1):
                op_id, nxt = meter.op(cbf.step, s, self.params)
                ops.append(op_id)
                if nxt is FAILED:
                    return  # the flow cannot continue past a failed step
                s = nxt
                if i % self.SNAPSHOT_EVERY == 0:
                    times.append(s.time)
                    states.append(s)
            traj = cbf.Trajectory(self.params, times, states)
            cuts = [round(i * (len(times) - 1) / self.WINDOWS) for i in range(self.WINDOWS + 1)]
            ledgers = meter.aux(lambda: [cbf.energy_ledger(traj, times[a], times[b]) for a, b in zip(cuts, cuts[1:])])
            ckpt = os.path.join(self.tmp, f"segment{segment}")
            saved = meter.aux(cbf.save_trajectory, traj, ckpt)
            loaded = meter.aux(cbf.load_trajectory, ckpt) if saved is not FAILED else FAILED
            meter.check(self._states_ok(states), ops, f"divergence/energy segment {segment}")
            meter.check(self._ledgers_ok(ledgers, states, cuts), ops, f"ledger segment {segment}")
            meter.check(self._checkpoint_ok(loaded, traj), ops, f"checkpoint segment {segment}")
            shutil.rmtree(ckpt, ignore_errors=True)
            segment += 1

    def finish(self, meter) -> None:
        pass

    def _energy(self, c: np.ndarray) -> float:
        # Parseval on the rfftn layout: ||u||^2 = (2 pi)^3 / n^6 sum w |u_hat|^2
        return (2.0 * math.pi) ** 3 / float(self.n) ** 6 * float(np.sum(self.weight * np.abs(c) ** 2))

    def _states_ok(self, states) -> bool:
        ok = True
        for s in states:
            c = s.coeffs
            div = self.k[0] * c[0] + self.k[1] * c[1] + self.k[2] * c[2]
            scale = self.n * max(float(np.max(np.abs(c))), 1e-300)
            ok = ok and float(np.max(np.abs(div))) <= 1e-12 * scale
            e = self._energy(c)
            # mu > 0 and beta >= 0: kinetic energy never grows
            if self.last_energy is not None:
                ok = ok and e <= self.last_energy * (1.0 + 1e-13)
            self.last_energy = e
        return ok

    def _ledgers_ok(self, ledgers, states, cuts) -> bool:
        if ledgers is FAILED:
            return False
        ok = True
        for led, a, b in zip(ledgers, cuts, cuts[1:]):
            k0, k1 = self._energy(states[a].coeffs), self._energy(states[b].coeffs)
            ok = ok and abs(led.kinetic0 - k0) <= 1e-12 * k0 and abs(led.kinetic1 - k1) <= 1e-12 * k0
            ok = ok and abs(led.residual) / led.kinetic0 < self.LEDGER_BOUND
        return ok

    @staticmethod
    def _checkpoint_ok(loaded, traj) -> bool:
        if loaded is FAILED:
            return False
        return (
            loaded.params == traj.params
            and loaded.times == traj.times
            and len(loaded.states) == len(traj.states)
            and all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(loaded.states, traj.states))
        )


# ---------------------------------------------------------------------------
# spectra: a fixed mix of independent spectral jobs


@dataclass(frozen=True)
class Job:
    label: str
    operator: object
    lambda_max: float
    theta: float
    reiterate: bool = True
    roundtrip: bool = False  # synthesize + analyze with the Gram check


ALPHA, BETA = 0.5, 0.0  # gap norm exponents: bound is Phi(theta, ALPHA - BETA) ||f||_BETA


def spectra_mix(reduced: bool) -> list:
    """One cycle of jobs, built here by size class.

    The cycle is shaped so that op_ms_p50 and op_ms_tail each fall inside a
    group of jobs of about the same cost, whatever the number of cycles a
    run completes: 12 tiny jobs sit below 5 `box2-60` jobs, which hold the
    median, and 12 larger jobs sit above them.  The three `torus2-3200`
    jobs are the slowest and, at three per cycle, hold the 11th-largest op
    of any run of 4 or more cycles.  Larger jobs are spread through the
    cycle, so a run cut at any point has done a fair share of each class.
    """
    interval = domains.DirichletLaplacian(domains.Interval(math.pi))
    box2 = domains.DirichletLaplacian(domains.Box((math.pi, math.pi)))
    box3 = domains.DirichletLaplacian(domains.Box((math.pi, 2.0, 1.5)))
    torus2 = domains.TorusLaplacian(domains.Torus(2))
    torus3 = domains.TorusLaplacian(domains.Torus(3))
    stokes3 = domains.TorusStokes(domains.Torus(3))
    tiny = [Job("interval-100", interval, 100.0, t, roundtrip=True) for t in (0.05, 0.3, 0.6, 0.9)]
    tiny += [Job("box2-20", box2, 20.0, t, roundtrip=True) for t in (0.1, 0.3, 0.6, 0.95)]
    tiny += [Job("torus2-10", torus2, 10.0, t, roundtrip=True) for t in (0.2, 0.4, 0.7, 0.9)]
    mid = [Job("box2-60", box2, 60.0, t, roundtrip=True) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    above = [
        Job("box3-40", box3, 40.0, 0.15, roundtrip=True),
        Job("stokes3-3", stokes3, 3.0, 0.5, roundtrip=True),
        Job("torus3-20", torus3, 20.0, 0.1),
        Job("stokes3-12", stokes3, 12.0, 0.3),
        Job("torus2-400", torus2, 400.0, 0.5),
        Job("box3-40", box3, 40.0, 0.7, roundtrip=True),
    ]
    if reduced:
        return tiny + mid + above[:4]
    large = [
        Job("torus3-100", torus3, 100.0, 0.02, reiterate=False),  # widest t-window: the peak memory
        Job("torus2-3200", torus2, 3200.0, 0.5, reiterate=False),  # 10,048 modes
        Job("stokes3-40", stokes3, 40.0, 0.5, reiterate=False),
        Job("torus2-3200", torus2, 3200.0, 0.3, reiterate=False),
        Job("torus3-100", torus3, 100.0, 0.98, reiterate=False),  # same cache key as the first
        Job("torus2-3200", torus2, 3200.0, 0.7, reiterate=False),
    ]
    order = []
    for i in range(6):
        order += [large[i], *tiny[2 * i : 2 * i + 2], *mid[i : i + 1], above[i]]
    return order


def _spectra_job(job: Job, rng: np.random.Generator, csv_path: str) -> dict:
    f = fields.random_field(job.operator, job.lambda_max, rng)
    out = {"f": f}
    out["pi"] = approx.pi_theta(f, job.theta)
    out["semigroup"] = approx.semigroup_apply(f, job.theta)
    out["norm_theta"] = approx.fractional_norm(f, job.theta)
    out["gap"] = approx.pi_theta_gap_norm(f, job.theta, ALPHA)
    q = interpolation.InterpolationQuery.auto(f, job.theta)
    out["interp"] = interpolation.interpolation_norm(f, q)
    if job.reiterate:
        out["reiteration"] = interpolation.reiteration_check(f, job.theta)
    out["grid"] = fields.synthesize(f)
    if job.roundtrip:
        modes = fields.enumerate_modes_cached(job.operator, job.lambda_max)
        out["back"] = fields.analyze(out["grid"], modes, job.operator, check=True)
    serialize.spectral_field_to_csv(f, csv_path)
    out["csv"] = serialize.spectral_field_from_csv(csv_path, job.operator)
    return out


def _eigenvalues(operator, keys) -> np.ndarray:
    k = np.array([idx.k for idx in keys], dtype=float).reshape(len(keys), -1)
    if isinstance(operator, domains.DirichletLaplacian):
        k = k * (math.pi / np.array(operator.domain.lengths))
    return np.sum(k * k, axis=1)


def _phi(theta: float, kappa: float) -> float:
    # sup over lam >= theta^-2 of lam^kappa e^{-sqrt(lam)}: the unconstrained
    # maximiser is lam = 4 kappa^2; below the cutoff the sup sits on it
    lam = max(theta**-2, 4.0 * kappa * kappa) if kappa > 0 else theta**-2
    return lam**kappa * math.exp(-math.sqrt(lam))


def _values(coeffs: dict, keys: list):
    """Coefficients at `keys` as one array, or None if a key is missing."""
    try:
        return np.array([coeffs[k] for k in keys], dtype=complex)
    except KeyError:
        return None


def _close(coeffs: dict, keys: list, expected: np.ndarray, tol: float) -> bool:
    """`coeffs` holds exactly `keys`, with values within tol of `expected`."""
    if not keys:
        return not coeffs
    got = _values(coeffs, keys) if len(coeffs) == len(keys) else None
    return got is not None and float(np.max(np.abs(got - expected), initial=0.0)) <= tol


def _spectra_ok(job: Job, out: dict) -> list:
    """Names of the checks this job's outputs fail."""
    bad = []
    f = out["f"]
    keys = list(f.coefficients)
    vals = _values(f.coefficients, keys)
    lam = _eigenvalues(job.operator, keys)
    amp = np.sum(np.abs(vals.reshape(len(keys), -1)) ** 2, axis=1)
    scale_ = max(float(np.max(np.abs(vals))), 1e-300)
    pos = lam > 0
    lp, ap = lam[pos], amp[pos]
    theta = job.theta
    i_theta = math.pi / (2.0 * math.sin(math.pi * theta))

    def norm(alpha):
        return math.sqrt(float(np.sum(lp ** (2.0 * alpha) * ap)))

    if abs(out["norm_theta"] / norm(theta) - 1.0) > 1e-12:
        bad.append("fractional norm")
    # the square-function identity: interpolation norm^2 = I(theta) ||f||_theta^2
    if abs(out["interp"] ** 2 / (i_theta * norm(theta) ** 2) - 1.0) > 1e-6:
        bad.append("interpolation identity")
    if job.reiterate:
        refs = (math.sqrt(i_theta) * norm(theta / 2.0), math.sqrt(i_theta) * norm((1.0 + theta) / 2.0))
        if any(abs(r.value / ref - 1.0) > 1e-6 for r, ref in zip(out["reiteration"], refs)):
            bad.append("reiteration identities")
    if out["gap"] > _phi(theta, ALPHA - BETA) * norm(BETA) * (1.0 + 1e-12):
        bad.append("gap norm above Phi bound")
    factor = np.exp(-theta * lam).reshape((-1,) + (1,) * (vals.ndim - 1))
    kept = lam < theta**-2
    kept_keys = [k for k, keep in zip(keys, kept) if keep]
    if not _close(out["pi"].coefficients, kept_keys, (factor * vals)[kept], 1e-13 * scale_):
        bad.append("pi_theta coefficients")
    if not _close(out["semigroup"].coefficients, keys, factor * vals, 1e-13 * scale_):
        bad.append("semigroup coefficients")
    grid = out["grid"]
    if grid.domain.periodic:
        # Parseval on the periodic grid: h^d sum |u|^2 = sum |c|^2
        h = np.prod([2.0 * math.pi / a.size for a in grid.axes])
        if abs(h * float(np.sum(np.abs(grid.values) ** 2)) / float(np.sum(amp)) - 1.0) > 1e-10:
            bad.append("synthesis Parseval")
    if job.roundtrip:
        back = out["back"].coefficients
        extra = [k for k in back if k not in f.coefficients]  # analyze also returns the unused k = 0 mode
        got = _values(back, keys)
        ok = got is not None and float(np.max(np.abs(got - vals))) <= 1e-9 * scale_
        if not ok or any(np.max(np.abs(back[k])) > 1e-9 * scale_ for k in extra):
            bad.append("synthesize/analyze round trip")
    # scalar amplitudes round-trip exactly; Stokes amplitudes travel in the
    # polarization basis, so they are exact only up to that basis change
    tol = 1e-14 * scale_ if isinstance(job.operator, domains.TorusStokes) else 0.0
    if not _close(out["csv"].coefficients, keys, vals, tol):
        bad.append("spectral CSV round trip")
    return bad


class Spectra:
    """A seeded, fixed cycle of independent spectral jobs; op = one job."""

    def __init__(self, seed: int, reduced: bool, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.jobs = spectra_mix(reduced)

    def setup(self) -> None:
        # first use of every code path on a throwaway operator, so the mode
        # cache holds nothing the mix will ask for
        for warm in (
            Job("warm", domains.DirichletLaplacian(domains.Interval(1.0)), 30.0, 0.5, roundtrip=True),
            Job("warm", domains.TorusLaplacian(domains.Torus(1)), 4.0, 0.5, roundtrip=True),
            Job("warm", domains.TorusStokes(domains.Torus(2)), 2.0, 0.5, roundtrip=True),
        ):
            out = _spectra_job(warm, np.random.default_rng(0), os.path.join(self.tmp, "warm.csv"))
            if _spectra_ok(warm, out):
                raise RuntimeError("warm-up spectral job failed its checks")

    def run(self, meter) -> None:
        i = 0
        path = os.path.join(self.tmp, "field.csv")
        while meter.more():
            job = self.jobs[i % len(self.jobs)]
            rng = np.random.default_rng([self.seed, i])
            op_id, out = meter.op(_spectra_job, job, rng, path)
            if out is not FAILED:
                bad = _spectra_ok(job, out)
                meter.check(not bad, [op_id], f"{job.label} theta={job.theta}: {', '.join(bad)}")
            i += 1

    def finish(self, meter) -> None:
        pass


WORKLOADS = {"truncation": Truncation, "flow": Flow, "spectra": Spectra}
