"""CSV serialization for spectral and grid fields.

Spectral rows carry one scalar each: `k1..kd, polarization, re, im`.  The
polarization column is 0 for scalar fields; m in 1..d-1 selects the tangential
amplitude along the deterministic basis of k-perp (divergence-free fields);
negative values -(c+1) tag the Cartesian component c of a plain vector
amplitude (used for componentwise vector fields and for the carried k=0 mean
of a divergence-free field, which has no tangential decomposition).

Grid rows are `x1..xd, re, im` (scalar) or `x1..xd, c0_re, c0_im, ...`
(vector), in C order of the tensor grid.
"""

from __future__ import annotations

import csv
import io
import re
import warnings

import numpy as np

from .domains import OperatorSpec, TorusStokes, _dot_rows, _polarization_rows
from .errors import ConfigError
from .fields import GridField, SpectralField, _merge_rows, _polarized
from .reports import format_number


def _column(values: np.ndarray) -> list:
    """Each entry as text, from one repr of the column: str for ints and, for
    doubles, repr, which is format_number's text (nan and +-inf included)."""
    return repr(values.tolist())[1:-1].split(", ") if values.size else []


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
    k = np.repeat(k, used.sum(axis=1), axis=0)
    columns = [_column(k[:, a]) for a in range(d)] + [_column(tags[used])]
    columns += [_column(vals[used].real), _column(vals[used].imag)]
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


def _malformed(body: str, d: int, err: Exception) -> ConfigError:
    """The error naming the first body line that the fast parse cannot take:
    a line with the wrong number of cells first, then a cell that does not
    parse, then (a row the csv module reads differently) loadtxt's own."""
    rows = list(csv.reader(io.StringIO(body)))
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
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), [])
        body = fh.read()
    if len(header) != d + 3:
        raise ConfigError(f"expected {d + 3} columns for a dimension-{d} field, got {len(header)}")
    # one C parse of the whole body; loadtxt warns on an empty body and skips
    # a blank line, which the csv module reads as a row of 0 cells
    row = np.dtype([("k", np.int64, (d,)), ("pol", np.int64), ("val", float, (2,))])
    if body.startswith("\n") or "\n\n" in body:
        raise _malformed(body, d, None)
    table = np.zeros(0, dtype=row)
    if body:
        # numpy releases that read an integer cell such as '1.5' through a
        # float only warn (DeprecationWarning); make that the parse failure
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(io.StringIO(body), dtype=row, delimiter=",", comments=None, quotechar='"', ndmin=1)
        except (ValueError, DeprecationWarning) as e:
            raise _malformed(body, d, e) from None
    k, pol, vals = table["k"], table["pol"], table["val"].view(complex)[:, 0]

    # the first row that fails a check, reported by its first failing check
    checks = (
        ((pol == 0) & stokes, "scalar rows are invalid for a divergence-free field"),
        ((pol == 0) != (pol[:1] == 0), "spectral CSV mixes scalar rows (polarization 0) with vector rows"),
        ((pol > 0) & (not stokes), "polarization {pol} is reserved for divergence-free fields"),
        (pol > d - 1, f"polarization {{pol}} out of range 1..{d - 1}"),
        ((pol > 0) & ~np.any(k, axis=1), "polarization basis undefined for k = 0"),
        (pol < -d, f"component tag {{pol}} out of range for dimension {d}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if np.any(bad):
        i = int(np.argmax(bad))
        msg = next(msg for mask, msg in checks if mask[i])
        raise ConfigError(f"line {i + 2}: " + msg.format(pol=pol[i]))

    scalar = len(pol) and pol[0] == 0
    return SpectralField(operator, _merge_rows(k, pol, vals, "sum") if scalar else _polarized(k, pol, vals))


def grid_field_to_csv(g: GridField, path) -> None:
    d = g.domain.dim
    pts = g.points()
    vals = g.values.reshape(-1, g.values.shape[-1]) if g.is_vector else g.values.reshape(-1, 1)
    comps = vals.shape[1]
    if comps == 1:
        header = [f"x{i + 1}" for i in range(d)] + ["re", "im"]
    else:
        header = [f"x{i + 1}" for i in range(d)]
        for c in range(comps):
            header += [f"c{c}_re", f"c{c}_im"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for p, row in zip(pts, vals):
            cells = [format_number(x) for x in p]
            for v in row:
                v = complex(v)
                cells += [format_number(v.real), format_number(v.imag)]
            w.writerow(cells)


def grid_field_from_csv(path, domain) -> GridField:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = domain.dim
        ncomp, rem = divmod(len(header) - d, 2)
        if rem != 0 or ncomp < 1:
            raise ConfigError(f"malformed grid CSV header {header}")
        coords, data = [], []
        for row in reader:
            coords.append([float(v) for v in row[:d]])
            data.append([complex(float(row[d + 2 * c]), float(row[d + 2 * c + 1])) for c in range(ncomp)])
    coords = np.asarray(coords)
    data = np.asarray(data)
    order = np.lexsort(tuple(coords[:, i] for i in reversed(range(d))))
    coords, data = coords[order], data[order]
    axes = []
    for i in range(d):
        ax = np.unique(coords[:, i])
        axes.append(ax)
    shape = tuple(a.size for a in axes)
    if int(np.prod(shape)) != coords.shape[0]:
        raise ConfigError("grid CSV rows do not form a full tensor grid")
    vals = data.reshape(shape + (ncomp,))
    if ncomp == 1:
        vals = vals[..., 0]
    if np.all(vals.imag == 0.0):
        vals = vals.real
    return GridField(domain, tuple(axes), vals)
