"""CSV serialization for spectral fields.

Spectral rows carry one scalar each: `k1..kd, polarization, re, im`.  The
polarization column is 0 for scalar fields; m in 1..d-1 selects the tangential
amplitude along the deterministic basis of k-perp (divergence-free fields);
negative values -(c+1) tag the Cartesian component c of a plain vector
amplitude (used for componentwise vector fields and for the carried k=0 mean
of a divergence-free field, which has no tangential decomposition).
"""

from __future__ import annotations

import bisect
import csv
import io
import re
import warnings

import numpy as np

from .domains import OperatorSpec, TorusStokes, _dot_rows, _index_rules, _polarization_rows, _raise_first
from .errors import ConfigError
from .fields import SpectralField, _merge_rows, _polarized


def _column(values: np.ndarray) -> list:
    """format_number's text of each entry (str for ints, repr for doubles, nan
    and +-inf included), formatting each distinct value once: a real field
    stores both members of every +-k pair, whose parts are equal or negated.
    Doubles are formatted by magnitude and take a '-' where the sign bit is
    set, except nan, which always prints 'nan'."""
    signed = values.dtype.kind == "f"
    distinct, inv = np.unique(np.abs(values) if signed else values, return_inverse=True)
    text = repr(distinct.tolist())[1:-1].split(", ") if distinct.size else []
    if signed:
        text += ["-" + s for s in text]
        inv = inv + len(distinct) * (np.signbit(values) & ~np.isnan(values))
    return np.array(text, dtype=object)[inv].tolist()


def spectral_field_to_csv(f: SpectralField, path) -> None:
    d = f.dim
    order = np.lexsort((f.pol,) + tuple(f.k[:, a] for a in reversed(range(d))))  # by (k, polarization)
    k, vals = f.k[order], f.values[order]
    # one row per scalar value, per Cartesian component (tags -1..-d) or, for
    # a divergence-free field at k != 0, per tangential amplitude (1..d-1)
    vector = vals.ndim == 2
    vals = vals if vector else vals[:, None]
    tags = np.tile(-np.arange(1, d + 1) if vector else [0], (k.shape[0], 1))
    used = np.ones(vals.shape, dtype=bool)
    if isinstance(f.operator, TorusStokes):
        nz = np.any(k, axis=1)
        vals[nz, : d - 1] = _dot_rows(_polarization_rows(k[nz]), vals[nz][:, None, :])
        tags[nz] = np.arange(1, d + 1)
        used[nz, d - 1] = False
    k, vals = np.repeat(k, used.sum(axis=1), axis=0), vals[used]
    # the cells column after column: the integer columns share one pass, and
    # so do re and im, which hold the same magnitudes
    cells = _column(np.concatenate([*k.T, tags[used]])) + _column(np.concatenate([vals.real, vals.imag]))
    n = len(vals)
    columns = [cells[i * n : (i + 1) * n] for i in range(d + 3)]
    header = ",".join([f"k{i + 1}" for i in range(d)] + ["polarization", "re", "im"])
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _cell_error(cell: str, name: str):
    """Why the fast parse rejects one cell, or None.  Its grammar: indices are
    ASCII decimal int64, values ASCII floats without digit separators."""
    if name == "value":
        if cell.isascii() and "_" not in cell:
            try:
                float(cell)
                return None
            except ValueError:
                pass
        return f"value cell {cell!r} is not a number"
    if not _INTEGER.fullmatch(cell):
        return f"{name} cell {cell!r} is not an integer"
    if not -(2**63) <= int(cell) < 2**63:
        return f"{name} cell {cell!r} lies outside the int64 range"
    return None


def _malformed(path, body: str, d: int, err: Exception) -> ConfigError:
    """The error naming the first body line that the fast parse cannot take:
    a line with the wrong number of cells first, then a cell that does not
    parse, then (a row the csv module reads differently) loadtxt's own.  A
    body the csv module refuses (a cell over its field size limit) is named
    by its file."""
    try:
        rows = list(csv.reader(io.StringIO(body)))
    except csv.Error as e:
        return ConfigError(f"{path}: {e}")
    for line, row in enumerate(rows, start=2):
        if len(row) != d + 3:
            return ConfigError(f"line {line} has {len(row)} cells, expected {d + 3}")
    names = ["index"] * d + ["polarization", "value", "value"]
    for line, row in enumerate(rows, start=2):
        for cell, name in zip(row, names):
            msg = _cell_error(cell, name)
            if msg is not None:
                return ConfigError(f"line {line}: {msg}")
    return ConfigError(f"spectral CSV body does not parse: {err}")


def spectral_field_from_csv(path, operator: OperatorSpec) -> SpectralField:
    d = operator.dim
    stokes = isinstance(operator, TorusStokes)
    try:
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), [])
            body = fh.read()
    except (UnicodeDecodeError, csv.Error) as e:
        raise ConfigError(f"{path}: {e}") from None
    if len(header) != d + 3:
        raise ConfigError(f"expected {d + 3} columns for a dimension-{d} field, got {len(header)}")
    # one C parse of the whole body; loadtxt warns on an empty body and skips
    # a blank line, which the csv module reads as a row of 0 cells
    row = np.dtype([("k", np.int64, (d,)), ("pol", np.int64), ("val", float, (2,))])
    if body.startswith("\n") or "\n\n" in body:
        raise _malformed(path, body, d, None)
    table = np.zeros(0, dtype=row)
    if body:
        # numpy releases that read an integer cell such as '1.5' through a
        # float only warn (DeprecationWarning); make that the parse failure
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(io.StringIO(body), dtype=row, delimiter=",", comments=None, quotechar='"', ndmin=1)
        except (ValueError, DeprecationWarning) as e:
            raise _malformed(path, body, d, e) from None
    k, pol, vals = table["k"], table["pol"], table["val"].view(complex)[:, 0]

    # the first row that fails a check, reported by its first failing check
    checks = (
        ((pol == 0) & stokes, "scalar rows are invalid for a divergence-free field"),
        ((pol == 0) != (pol[:1] == 0), "spectral CSV mixes scalar rows (polarization 0) with vector rows"),
        ((pol > 0) & (not stokes), "polarization {pol} is reserved for divergence-free fields"),
        (pol > d - 1, f"polarization {{pol}} out of range 1..{d - 1}"),
        ((pol > 0) & ~np.any(k, axis=1), "polarization basis undefined for k = 0"),
        (pol < -d, f"component tag {{pol}} out of range for dimension {d}"),
        *_index_rules(operator, k, np.zeros_like(pol)),  # the operator's rules on k: none on pol fires at 0
        (~np.isfinite(vals), "non-finite coefficient at {k}"),  # 1e400, inf and nan parse
    )
    _raise_first(checks, k, pol, first_line=2)

    scalar = len(pol) and pol[0] == 0

    def merged(n: int):  # the field of the first n rows, summed per mode in row order
        return _merge_rows(k[:n], pol[:n], vals[:n], "sum") if scalar else _polarized(k[:n], pol[:n], vals[:n])

    with np.errstate(over="ignore", invalid="ignore"):
        rows = merged(len(pol))
        if not np.isfinite(rows.values).all():
            # finite rows whose sum overflows: a sum that is not finite stays so
            # as rows are added, so bisect for the row that tips it over
            n = bisect.bisect_left(range(len(pol) + 1), True, key=lambda n: not np.isfinite(merged(n).values).all())
            raise ConfigError(f"line {n + 1}: the coefficients at {tuple(k[n - 1].tolist())} sum to a non-finite value")
    return SpectralField(operator, rows)
