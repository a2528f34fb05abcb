"""Host speed probe: a fixed plain-Python/numpy kernel timed between ops.

The benchmark's host gives each process a share of a larger machine, and
that share runs at two speeds about 1.7x apart, each lasting from seconds
to minutes.  Wall times taken in the slow state are rescaled to the
reference speed by the probe's time measured around them:

    time at reference speed = wall time * REF_MS / probe time

The probe never calls the library, so a change to the library moves the
rescaled times exactly as it moves the wall times.  Its four parts stand
for the kinds of work the workloads do: 3D real FFTs, dict-of-tuple paths,
elementwise complex arrays and many tiny numpy calls.  Their times are
combined by geometric mean, so each part weighs the same whatever its
length.  The FFT functions are bound here at import, before a tracer
rebinds `numpy.fft`, so probes never count as library FFTs.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from numpy.fft import irfftn, rfftn

# the probe's time at the reference speed: its median on the host named in
# BASELINE.md (2-vCPU Xeon VM, 2.1 GHz) in the fast state
REF_MS = 0.55
REPS = 5  # each part is timed this many times; its median counts

_rng = np.random.default_rng(20190408)
_grid = _rng.standard_normal((32, 32, 32))
_coef = rfftn(_grid)
_mult = _rng.standard_normal(_coef.shape)
_tiny = _rng.standard_normal(10)


def _fft():
    irfftn(rfftn(_grid), s=_grid.shape, axes=(0, 1, 2))


def _dict():
    d = {}
    for i in range(1500):
        d[(i, -i, 1)] = complex(i, 1.0)
    t = 0.0
    for k, v in d.items():
        t += abs(v - d[k].conjugate())


def _elementwise():
    for _ in range(4):
        np.abs(_coef * _mult + _coef) ** 2


def _dispatch():
    for _ in range(200):
        np.sum(_tiny * 2.0 + 1.0)


PARTS = (_fft, _dict, _elementwise, _dispatch)


def probe() -> float:
    """Geometric mean of the parts' median times, in ms."""
    logs = []
    for part in PARTS:
        ts = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            part()
            ts.append(time.perf_counter() - t0)
        logs.append(math.log(1000.0 * statistics.median(ts)))
    return math.exp(sum(logs) / len(logs))
