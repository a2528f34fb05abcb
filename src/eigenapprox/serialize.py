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

import numpy as np

from .domains import ModeIndex, OperatorSpec, TorusStokes, polarization_basis
from .errors import ConfigError
from .fields import GridField, SpectralField
from .reports import format_number


def spectral_field_to_csv(f: SpectralField, path) -> None:
    d = f.dim
    rows = []
    for idx, v in f.items_sorted():
        if isinstance(f.operator, TorusStokes):
            if all(ki == 0 for ki in idx.k):
                for c in range(d):
                    rows.append((idx.k, -(c + 1), v[c]))
            else:
                basis = polarization_basis(idx.k)
                for m in range(basis.shape[0]):
                    rows.append((idx.k, m + 1, complex(basis[m] @ np.asarray(v))))
        elif isinstance(v, np.ndarray):
            for c in range(d):
                rows.append((idx.k, -(c + 1), v[c]))
        else:
            rows.append((idx.k, 0, v))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"k{i + 1}" for i in range(d)] + ["polarization", "re", "im"])
        for k, pol, val in rows:
            val = complex(val)
            w.writerow([*k, pol, format_number(val.real), format_number(val.imag)])


def spectral_field_from_csv(path, operator: OperatorSpec) -> SpectralField:
    d = operator.dim
    coeffs: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != d + 3:
            raise ConfigError(f"expected {d + 3} columns for a dimension-{d} field, got {len(header)}")
        kinds = set()
        for row in reader:
            k = tuple(int(v) for v in row[:d])
            pol = int(row[d])
            val = complex(float(row[d + 1]), float(row[d + 2]))
            if pol == 0 and isinstance(operator, TorusStokes):
                raise ConfigError("scalar rows are invalid for a divergence-free field")
            kinds.add(pol == 0)
            if len(kinds) > 1:
                raise ConfigError("spectral CSV mixes scalar rows (polarization 0) with vector rows")
            if pol == 0:
                coeffs[ModeIndex(k)] = coeffs.get(ModeIndex(k), 0.0) + val
            else:
                key = ModeIndex(k)
                vec = coeffs.get(key)
                if not isinstance(vec, np.ndarray):
                    vec = np.zeros(d, dtype=complex)
                if pol > 0:
                    vec = vec + val * polarization_basis(k)[pol - 1]
                else:
                    c = -pol - 1
                    if not 0 <= c < d:
                        raise ConfigError(f"component tag {pol} out of range for dimension {d}")
                    vec[c] += val
                coeffs[key] = vec
    return SpectralField(operator, coeffs)


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
