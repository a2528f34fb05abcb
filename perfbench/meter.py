"""Clock and op accounting of a workload's timed phase."""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback

import hostspeed

FAILED = object()  # output of an op or aux call that raised

TAIL_BEYOND = 10  # op_ms_tail: highest percentile with at least this many ops beyond it
MIN_OPS = TAIL_BEYOND + 1
PROBE_EVERY_S = 0.25  # program time between two host speed probes
MAX_WALL_FACTOR = 1.8  # a phase stops after this many times `seconds` of wall time


class Meter:
    """Clock of the timed phase.  It runs only inside `op` and `aux` (program
    work), so the benchmark's own checks do not count against the program.

    Without `max_ops` the phase lasts `seconds` of program time at reference
    speed (the op in flight completes; at most MAX_WALL_FACTOR times that
    in wall time) and at least MIN_OPS ops, so a run does the same work
    whatever the host speed; with it, exactly that many ops are attempted,
    so a traced run can repeat an untraced one.

    The host speed is probed at the start, after every PROBE_EVERY_S of
    program time (between ops, clock stopped) and at `close`.  Program time
    between two probes is rescaled to the reference speed by the geometric
    mean of the two probe times; see hostspeed.py."""

    def __init__(self, seconds: float, max_ops=None, tracer=None):
        self.seconds = seconds
        self.max_ops = max_ops
        self.tracer = tracer
        self.op_s: list = []  # wall time of each op
        self.op_ref_s: list = []  # the same at reference speed
        self.elapsed = 0.0
        self.elapsed_ref = 0.0
        self.failed: set = set()
        self.notes: list = []
        self.probes = [hostspeed.probe()]
        self._window_s = 0.0
        self._window_ops: list = []

    def more(self) -> bool:
        if self.max_ops is not None:
            return len(self.op_s) < self.max_ops
        if len(self.op_s) < MIN_OPS:
            return True
        # the open window at the speed of the last probe
        elapsed_ref = self.elapsed_ref + self._window_s * hostspeed.REF_MS / self.probes[-1]
        return elapsed_ref < self.seconds and self.elapsed < MAX_WALL_FACTOR * self.seconds

    def op(self, fn, *args):
        """Time one op; returns (op id, output or FAILED)."""
        op_id = len(self.op_s)
        if self.tracer is not None:
            self.tracer.op_id = op_id
        out, dur = self._timed(fn, args)
        self.op_s.append(dur)
        self.op_ref_s.append(None)
        self._window_ops.append(op_id)
        if out is FAILED:
            self.failed.add(op_id)
        self._maybe_probe()
        return op_id, out

    def aux(self, fn, *args):
        """Time program work that belongs to the phase but is not an op."""
        if self.tracer is not None:
            self.tracer.op_id = -1
        out = self._timed(fn, args)[0]
        self._maybe_probe()
        return out

    def close(self) -> None:
        """End the phase: rescale the last window."""
        if self._window_s > 0.0 or self._window_ops:
            self._rescale_window()

    def _timed(self, fn, args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a failing op is counted, and the run goes on
            traceback.print_exc()
            out = FAILED
        dur = time.perf_counter() - t0
        self.elapsed += dur
        self._window_s += dur
        return out, dur

    def _maybe_probe(self) -> None:
        if self._window_s >= PROBE_EVERY_S:
            self._rescale_window()

    def _rescale_window(self) -> None:
        self.probes.append(hostspeed.probe())
        factor = hostspeed.REF_MS / math.sqrt(self.probes[-2] * self.probes[-1])
        self.elapsed_ref += factor * self._window_s
        for i in self._window_ops:
            self.op_ref_s[i] = factor * self.op_s[i]
        self._window_s = 0.0
        self._window_ops = []

    def check(self, ok: bool, op_ids, what: str) -> None:
        if not ok:
            self.failed.update(op_ids)
            self.notes.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def _op_stats(op_s: list, elapsed: float) -> tuple:
    ms = sorted(1000.0 * t for t in op_s)
    n = len(ms)
    tail_i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return n / elapsed, statistics.median(ms), ms[tail_i], 100.0 * (tail_i + 1) / n


def summary(meter: Meter) -> dict:
    """Op figures at reference speed, and the same from wall times (`wall_*`)."""
    ops_per_s, p50, tail, pct = _op_stats(meter.op_ref_s, meter.elapsed_ref)
    wall = _op_stats(meter.op_s, meter.elapsed)
    return {
        "ops": len(meter.op_s),
        "ops_per_s": ops_per_s,
        "op_ms_p50": p50,
        "op_ms_tail": tail,
        "tail_percentile": pct,
        "phase_s": meter.elapsed_ref,
        "wall_ops_per_s": wall[0],
        "wall_op_ms_p50": wall[1],
        "wall_op_ms_tail": wall[2],
        "wall_phase_s": meter.elapsed,
        "probe_ms": {"median": statistics.median(meter.probes), "min": min(meter.probes), "max": max(meter.probes), "count": len(meter.probes)},
    }
