"""Benchmark entry point for eigenapprox.

    python3 perfbench/run.py --workload {truncation,flow,spectra} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
`src/`.  Every workload run happens in a fresh single process with the
BLAS/OpenMP thread variables set to 1.

--trace 0 prints the end-to-end metrics.  `setup_s` is the median over
several fresh processes that each set up and stop, plus the measuring one.
--trace 1 prints the per-layer metrics: one untraced process measures the
reference phase, then a traced process repeats exactly its ops; the
difference of their phase times is `trace.overhead_s`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The full record (all per-process figures, versions,
thread caps, op count and tail percentile) goes to
`.perfbench_out/result-<workload>-seed<seed>-trace<t>.json`, and a traced
run's spans to `.perfbench_out/spans-<workload>-seed<seed>.npz`.

Every time is rescaled to the reference host speed (see hostspeed.py).
The op time tail is a per-layer metric (`run.op_ms_tail`, from the untraced
reference process), not an end-to-end one: it is set by the few ops that
a burst of host contention shorter than a probe window slows down, and is
not steady from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans

WORKLOADS = ("truncation", "flow", "spectra")
SETUP_PROBES = 5  # set-up-only processes per run, besides the measuring one
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# per-layer metrics a traced run adds to the tracer's own
LAYER_EXTRAS = [
    ("trace.overhead_s", "s"),
    ("run.ops", "count"),
    ("run.op_ms_tail", "ms"),
    ("run.op_ms_tail_percentile", "%"),
]
THREADS = 1  # one caller, one thread: a BLAS call split over both CPUs waits on the busier one
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def spawn(env: dict, deadline: float, args: list) -> dict:
    """Run one worker process to completion; returns its JSON result."""
    env = dict(env, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true", help="small inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "eigenapprox", "__init__.py")):
        print(f"error: no eigenapprox sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.reduced:
        common.append("--reduced")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace == 0:
            setups = [spawn(env, deadline, common + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
            run = spawn(env, deadline, common)
            setups.append(run["setup_s"])
            record = {"run": run, "setup_s_samples": setups}
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (run["ops_per_s"], "1/s"),
                "op_ms_p50": (run["op_ms_p50"], "ms"),
                "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            }
        else:
            ref = spawn(env, deadline, common)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
            run = spawn(env, deadline, common + ["--max-ops", str(ref["ops"]), "--spans", spans_path])
            record = {"reference": ref, "run": run}
            values = run.pop("layers")
            values["trace.overhead_s"] = run["phase_s"] - ref["phase_s"]
            values["run.ops"] = ref["ops"]
            values["run.op_ms_tail"] = ref["op_ms_tail"]
            values["run.op_ms_tail_percentile"] = ref["tail_percentile"]
            metrics = {name: (values[name], unit) for name, unit in spans.layer_metric_names() + LAYER_EXTRAS}
    except RunError as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1

    failed = run["failed"]
    result = {
        "correct": failed == 0,
        "attempted": run["ops"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(
        args=vars(args),
        nproc=nproc,
        thread_caps={v: env[v] for v in THREAD_VARS},
        result=result,
    )
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"{args.workload} seed={args.seed}: {run['ops']} ops ({failed} failed) in {run['phase_s']:.2f}s, "
        f"tail at p{run['tail_percentile']:.1f}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
