"""Print the sha256 of every file a fixed list of CLI jobs writes.

Each job runs through `eigenapprox.cli.run` into its own directory under a
temporary root, with that root as the working directory; the output is one
`<job>/<file> <sha256>` line per written file, sorted.  The `readback-*` jobs
read the spectral CSVs the `approx-*` jobs emit (by relative path, so their
manifests do not depend on the root) and emit them again, so the CSV reader is
covered too; `h00` evaluates a spectral field pointwise.  Running it on two
checkouts and diffing the outputs checks that a change keeps every artifact
byte-identical:

    PYTHONPATH=src python3 tools/artifact_digests.py > digests.txt
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

from eigenapprox.cli import run

JOBS = (
    ("modes-stokes3", ["modes", "--op", "torus-stokes", "--d", "3", "--lambda-max", "20"]),
    ("modes-box", ["modes", "--op", "dirichlet-box", "--lambda-max", "40"]),
    ("approx-torus2", ["approx", "--emit-field", "--op", "torus", "--d", "2", "--plot"]),
    ("approx-stokes3", ["approx", "--emit-field", "--op", "torus-stokes", "--d", "3", "--transform", "semigroup"]),
    ("approx-box", ["approx", "--emit-field", "--op", "dirichlet-box"]),
    ("approx-interval", ["approx", "--emit-field", "--op", "dirichlet-interval", "--transform", "pi-theta"]),
    ("interp-torus3", ["interp", "--op", "torus", "--d", "3", "--lambda-max", "100", "--n-modes", "400",
                       "--reiteration", "--plot"]),
    ("interp-stokes3", ["interp", "--op", "torus-stokes", "--d", "3", "--lambda-max", "40"]),
    ("interp-box", ["interp", "--op", "dirichlet-box", "--check-itheta"]),
    ("h00", ["h00", "--profile", "bump", "--levels", "6"]),
    ("truncate", ["truncate", "--n-list", "4,16", "--plot"]),
    ("cbf-2d", ["cbf", "--d", "2", "--N", "32", "--T", "0.05", "--save-traj", "--plot"]),
    ("cbf-3d", ["cbf", "--d", "3", "--N", "16", "--beta", "1", "--T", "0.02", "--save-traj"]),
    ("cbf-3d-r3", ["cbf", "--d", "3", "--N", "16", "--beta", "1", "--r", "3", "--T", "0.02", "--save-traj"]),
    ("readback-torus2", ["approx", "--field", "approx-torus2/field_out.csv", "--emit-field",
                         "--op", "torus", "--d", "2"]),
    ("readback-stokes3", ["approx", "--field", "approx-stokes3/field_out.csv", "--emit-field", "--op", "torus-stokes",
                          "--d", "3", "--transform", "semigroup"]),
    ("readback-box", ["approx", "--field", "approx-box/field_out.csv", "--emit-field", "--op", "dirichlet-box"]),
    ("readback-interval", ["approx", "--field", "approx-interval/field_out.csv", "--emit-field",
                           "--op", "dirichlet-interval", "--transform", "pi-theta"]),
)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            for name, argv in JOBS:
                rc = run([*argv, "--out-dir", name])
                if rc != 0:
                    print(f"{name}: exit code {rc}", file=sys.stderr)
                    return rc
                for dirpath, _, files in os.walk(name):
                    for fn in files:
                        path = os.path.join(dirpath, fn)
                        lines.append(f"{name}/{os.path.relpath(path, name)} {_sha256(path)}")
        finally:
            os.chdir(cwd)
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
