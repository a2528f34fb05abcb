"""Span tracer installed from outside the library.

The tracer replaces every module binding of a listed library function with a
timing wrapper, so calls made from inside the library (for example
`polarization_basis`, which `domains`, `fields` and `serialize` all bind) are
seen as nested spans.  Spans are kept in memory as compact arrays and written
out after the run; per-function calls, total time and self time (duration
minus the time covered by direct child spans) are aggregated as calls return.

The n-dimensional transforms of `numpy.fft` and `scipy.fft` are wrapped the
same way to count calls and computed bytes (input plus output array sizes,
not measured memory traffic).
"""

from __future__ import annotations

import array
import functools
import sys
from time import perf_counter

import numpy as np

# "<module>.<function>" of every traced library function; "Class.method"
# names a classmethod, and a bare class name stands for its construction.
TRACED = (
    "domains.enumerate_modes",
    "domains.polarization_basis",
    "fields.SpectralField",
    "fields.random_field",
    "fields.enumerate_modes_cached",
    "fields.synthesize",
    "fields.analyze",
    "fields.conjugate_symmetry_violation",
    "fields.lp_norm",
    "approx.pi_theta",
    "approx.semigroup_apply",
    "approx.fractional_norm",
    "approx.pi_theta_gap_norm",
    "approx.spherical_truncate",
    "approx.cubic_truncate",
    "interpolation.InterpolationQuery.auto",
    "interpolation.interpolation_norm",
    "interpolation.reiteration_check",
    "normlab.sample_fields",
    "normlab.lp_ratio",
    "normlab.operator_norm_lower_bound",
    "cbf.step",
    "cbf.energy_ledger",
    "cbf.save_trajectory",
    "cbf.load_trajectory",
    "serialize.spectral_field_to_csv",
    "serialize.spectral_field_from_csv",
    "reports.write_reports_csv",
    "reports.write_table_csv",
    "cli.run",
)

FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
SCIPY_ONLY_FFT_FUNCS = ("dstn", "idstn", "dctn", "idctn", "hfftn", "ihfftn")

STEP = "cbf.step"
CACHED = "fields.enumerate_modes_cached"
ENUMERATE = "domains.enumerate_modes"


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    out += [
        (f"{CACHED}.hit_ratio", "ratio"),
        ("fft.calls", "count"),
        ("fft.numpy.calls", "count"),
        ("fft.scipy.calls", "count"),
        ("fft.bytes_computed", "B"),
        ("fft.calls_per_step", "count"),
        ("fft.bytes_computed_per_step", "B"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.names: list = []
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.span_id = array.array("q")
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_op = array.array("q")
        self.op_id = -1
        self._next_id = 0
        self._stack: list = []  # [span id, name, child seconds]
        self._step_depth = 0
        self.cache_misses = 0
        self.fft = {"numpy": [0, 0], "scipy": [0, 0]}  # calls, bytes
        self.step_fft = [0, 0]

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == ENUMERATE and parent is not None and parent[1] == CACHED:
                self.cache_misses += 1
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack.append(frame)
            if name == STEP:
                self._step_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if name == STEP:
                    self._step_depth -= 1
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                self.span_id.append(frame[0])
                self.span_name.append(nid)
                self.span_start.append(t0)
                self.span_end.append(t1)
                self.span_parent.append(parent[0] if parent is not None else -1)
                self.span_op.append(self.op_id)

        return wrapper

    def _wrap_fft(self, lib: str, fn):
        counter = self.fft[lib]

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            nbytes = np.asarray(a).nbytes + out.nbytes
            counter[0] += 1
            counter[1] += nbytes
            if self._step_depth:
                self.step_fft[0] += 1
                self.step_fft[1] += nbytes
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed function on every module binding inside `package`,
        and the n-dimensional FFTs on their own namespaces and on every
        library binding."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for qual in TRACED:
            mod_name, attr = qual.split(".", 1)
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:  # classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self._wrap(qual, func)))
                continue
            obj = getattr(mod, attr)
            if isinstance(obj, type):  # construction
                obj.__init__ = self._wrap(qual, obj.__init__)
                continue
            _rebind(modules, obj, self._wrap(qual, obj))

        import numpy.fft
        import scipy.fft

        for lib, ns, names in (
            ("numpy", numpy.fft, FFT_FUNCS),
            ("scipy", scipy.fft, FFT_FUNCS + SCIPY_ONLY_FFT_FUNCS),
        ):
            for fname in names:
                orig = getattr(ns, fname)
                _rebind(modules + [ns], orig, self._wrap_fft(lib, orig))

    # -- results -------------------------------------------------------------

    def layer_metrics(self, steps: int) -> dict:
        out = {}
        for name in TRACED:
            calls, total, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        cached_calls = self.stats[CACHED][0]
        out[f"{CACHED}.hit_ratio"] = (cached_calls - self.cache_misses) / cached_calls if cached_calls else 0.0
        calls = self.fft["numpy"][0] + self.fft["scipy"][0]
        out["fft.calls"] = calls
        out["fft.numpy.calls"] = self.fft["numpy"][0]
        out["fft.scipy.calls"] = self.fft["scipy"][0]
        out["fft.bytes_computed"] = self.fft["numpy"][1] + self.fft["scipy"][1]
        out["fft.calls_per_step"] = self.step_fft[0] / steps if steps else 0.0
        out["fft.bytes_computed_per_step"] = self.step_fft[1] / steps if steps else 0.0
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.array(self.span_id, dtype=np.int64),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
            parent=np.array(self.span_parent, dtype=np.int64),
            op=np.array(self.span_op, dtype=np.int64),
        )


def _rebind(modules, orig, wrapped) -> None:
    for mod in modules:
        for gname, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, gname, wrapped)
