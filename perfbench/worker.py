"""One workload run in a fresh process; started by run.py, not by hand.

Sets the workload up, runs its timed phase through a Meter, checks the
outputs and prints one JSON object as the last line of stdout.  The spawn
time of the process comes from PERFBENCH_SPAWN_NS (a CLOCK_MONOTONIC reading
taken by the parent just before it started this process), so `setup_s`
includes interpreter start-up and imports.  Every time it reports is
rescaled to the reference host speed (see hostspeed.py); the wall times
sit beside them under `wall_*`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import hostspeed
from meter import Meter, summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--spans", default=None, help="trace the timed phase and write its spans to this .npz")
    ap.add_argument("--reduced", action="store_true")
    args = ap.parse_args(argv)
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])

    import eigenapprox

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(eigenapprox.__file__).startswith(src + os.sep):
        print(f"error: eigenapprox imported from {eigenapprox.__file__}, not from {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_out", "tmp"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.reduced, tmp)
        wl.setup()
        tracer = None
        if args.spans:
            tracer = spans.Tracer()
            tracer.install(eigenapprox)
        wall_setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
        # set-up time at reference speed, by the host speed right after it
        setup_probe = statistics.median(hostspeed.probe() for _ in range(3))
        setup_s = wall_setup_s * hostspeed.REF_MS / setup_probe
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
            return 0
        meter = Meter(args.seconds, args.max_ops, tracer)
        wl.run(meter)
        meter.close()
        wl.finish(meter)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = summary(meter)
    result.update(
        setup_s=setup_s,
        wall_setup_s=wall_setup_s,
        failed=len(meter.failed),
        notes=meter.notes[:20],
        op_ms=[1000.0 * t for t in meter.op_ref_s],
        wall_op_ms=[1000.0 * t for t in meter.op_s],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=versions(),
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(tracer.stats[spans.STEP][0])
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
