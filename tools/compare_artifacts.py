"""Compare the files the `artifact_digests.JOBS` CLI jobs write under two
source trees, allowing numbers to move at roundoff.

    PYTHONPATH=src python3 tools/compare_artifacts.py <parent-src>

runs every job once with `<parent-src>` and once with this checkout's `src`
first on the import path, each tree in its own subprocess and output root,
and compares the two roots file by file:

- CSV: headers and text cells match exactly; numeric cells agree to
  1e-12 times the largest |x| of their column.
- manifest.json: everything but `outputs` matches exactly; an `outputs` hash
  may differ only for a file that moved within bounds.
- npz: the same arrays, shapes and dtypes, agreeing to 1e-12 times each
  array's largest |x|.
- SVG: the text between numbers matches exactly; each number agrees within
  one unit of its last printed digit.
- any other file: byte for byte.

It prints every file that moved, with its worst deviation, and every
violation, and exits non-zero if there is any violation.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

from artifact_digests import JOBS

REL = 1e-12
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_RUNNER = """
import json, sys
from eigenapprox.cli import run
for name, argv in json.loads(sys.argv[1]):
    if run([*argv, "--out-dir", name]) != 0:
        sys.exit(f"{name}: nonzero exit code")
"""


def run_jobs(src: str, root: str) -> None:
    """Run the jobs in a fresh interpreter with `src` first on the import
    path and `root` as the working directory."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(JOBS)], cwd=root, env=env, check=True)


def _files(root: str) -> set:
    return {
        os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/") for d, _, fs in os.walk(root) for f in fs
    }


def _number(cell: str):
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _compare_csv(a: str, b: str) -> float:
    """Worst |x - y| / (column max |x|) over numeric cells; raises
    ValueError on any difference a bound does not cover."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if len(ra) != len(rb) or not ra or ra[0] != rb[0]:
        raise ValueError("headers or row counts differ")
    scale = {}
    for row in ra[1:] + rb[1:]:
        for c, cell in enumerate(row):
            x = _number(cell)
            if x is not None:
                scale[c] = max(scale.get(c, 0.0), abs(x))
    worst = 0.0
    for line, (x_row, y_row) in enumerate(zip(ra[1:], rb[1:]), start=2):
        if len(x_row) != len(y_row):
            raise ValueError(f"line {line}: cell counts differ")
        for c, (xc, yc) in enumerate(zip(x_row, y_row)):
            x, y = _number(xc), _number(yc)
            if x is None or y is None:
                if xc != yc:
                    raise ValueError(f"line {line}, column {c + 1}: {xc!r} != {yc!r}")
                continue
            dev = abs(x - y) / scale[c] if scale[c] else 0.0
            if dev > REL:
                raise ValueError(f"line {line}, column {c + 1}: {xc} vs {yc} (relative {dev:.2e})")
            worst = max(worst, dev)
    return worst


def _compare_npz(a: str, b: str) -> float:
    with np.load(a) as da, np.load(b) as db:
        if sorted(da.files) != sorted(db.files):
            raise ValueError("array names differ")
        worst = 0.0
        for name in da.files:
            x, y = da[name], db[name]
            if x.shape != y.shape or x.dtype != y.dtype:
                raise ValueError(f"{name}: shape or dtype differs")
            scale = float(np.max(np.abs(x), initial=0.0))
            dev = float(np.max(np.abs(x - y), initial=0.0)) / scale if scale else float(np.any(x != y))
            if dev > REL:
                raise ValueError(f"{name}: relative deviation {dev:.2e}")
            worst = max(worst, dev)
    return worst


# a number that is not part of a name or a colour such as x1 or #333
_NUM = re.compile(r"(?<![\w#.])-?\d+(?:\.(\d+))?(?:[eE]([-+]?\d+))?")


def _last_digit(m: re.Match) -> float:
    return 10.0 ** (int(m.group(2) or 0) - len(m.group(1) or ""))


def _compare_svg(a: str, b: str) -> float:
    """Worst deviation in units of the last printed digit."""
    with open(a) as fa, open(b) as fb:
        ta, tb = fa.read(), fb.read()
    ma, mb = list(_NUM.finditer(ta)), list(_NUM.finditer(tb))
    if _NUM.sub("#", ta) != _NUM.sub("#", tb) or len(ma) != len(mb):
        raise ValueError("text between numbers differs")
    worst = 0.0
    for x, y in zip(ma, mb):
        dev = abs(float(x.group()) - float(y.group())) / max(_last_digit(x), _last_digit(y))
        if dev > 1.0 + 1e-9:
            raise ValueError(f"{x.group()} vs {y.group()}")
        worst = max(worst, dev)
    return worst


def compare_roots(a: str, b: str) -> tuple:
    """(moved, violations): {file: worst deviation} for files that differ
    within bounds (None for a manifest whose hashes follow them), and one
    message per violation."""
    moved, violations = {}, []
    fa, fb = _files(a), _files(b)
    violations += [f"{f}: only under the parent" for f in sorted(fa - fb)]
    violations += [f"{f}: only under the change" for f in sorted(fb - fa)]
    manifests = []
    for f in sorted(fa & fb):
        pa, pb = os.path.join(a, f), os.path.join(b, f)
        with open(pa, "rb") as xa, open(pb, "rb") as xb:
            if xa.read() == xb.read():
                continue
        if os.path.basename(f) == "manifest.json":
            manifests.append(f)
            continue
        ext = os.path.splitext(f)[1]
        compare = {".csv": _compare_csv, ".npz": _compare_npz, ".svg": _compare_svg}.get(ext)
        try:
            if compare is None:
                raise ValueError("bytes differ")
            moved[f] = compare(pa, pb)
        except ValueError as e:
            violations.append(f"{f}: {e}")
    for f in manifests:
        with open(os.path.join(a, f)) as xa, open(os.path.join(b, f)) as xb:
            ja, jb = json.load(xa), json.load(xb)
        outputs_a, outputs_b = ja.pop("outputs", {}), jb.pop("outputs", {})
        if ja != jb or sorted(outputs_a) != sorted(outputs_b):
            violations.append(f"{f}: differs outside the output hashes")
            continue
        base = os.path.dirname(f)
        stale = [o for o in outputs_a if outputs_a[o] != outputs_b[o] and f"{base}/{o}".lstrip("/") not in moved]
        if stale:
            violations.append(f"{f}: hashes of {', '.join(stale)} differ but those files did not move within bounds")
        else:
            moved[f] = None
    return moved, violations


def compare_sources(parent_src: str, src: str = SRC) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        roots = []
        for name, tree in (("parent", parent_src), ("change", src)):
            roots.append(os.path.join(tmp, name))
            os.mkdir(roots[-1])
            run_jobs(tree, roots[-1])
        moved, violations = compare_roots(*roots)
        total = len(_files(roots[0]) | _files(roots[1]))
    for f, dev in sorted(moved.items()):
        if dev is None:
            print(f"moved {f}: output hashes of moved files")
        else:
            unit = "units of the last printed digit" if f.endswith(".svg") else "relative"
            print(f"moved {f}: worst deviation {dev:.3g} ({unit})")
    for v in violations:
        print(f"VIOLATION {v}")
    print(f"{total} files: {len(moved)} moved within bounds, {len(violations)} violations")
    return 1 if violations else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare_sources(args[0])


if __name__ == "__main__":
    sys.exit(main())
