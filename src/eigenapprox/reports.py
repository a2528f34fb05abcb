"""NormReport records and deterministic CSV writing.

Floats are serialized with Python's shortest round-trip repr and no run ever
writes a timestamp, so identical computations produce identical bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field


@dataclass
class NormReport:
    """One measured quantity, optionally against a reference value or bound.

    ratio is measured/reference when the reference is nonzero.  params holds
    the experiment knobs (theta, alpha, p, n, ...); meta holds grid/sample
    bookkeeping that should travel with the number.
    """

    quantity: str
    value: float
    reference: float | None = None
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float | None:
        if self.reference is None or self.reference == 0.0:
            return None
        return self.value / self.reference


def format_number(x) -> str:
    """Shortest round-trip decimal form; empty string for missing values."""
    if x is None:
        return ""
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def format_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, float)):
        return format_number(x)
    return str(x)


def write_reports_csv(path, reports, param_keys=("theta",)) -> None:
    """Write rows `quantity, <param_keys...>, value, reference, ratio` in the
    order given (callers sort when construction does not fix the order).  The
    measured columns go through format_number: a numpy integer 3 is `3.0`."""
    rows = (
        [r.quantity, *(r.params.get(k) for k in param_keys), *map(format_number, (r.value, r.reference, r.ratio))]
        for r in reports
    )
    write_table_csv(path, ["quantity", *param_keys, "value", "reference", "ratio"], rows)


def write_table_csv(path, header, rows) -> None:
    """Generic deterministic CSV: every cell goes through format_cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(header))
        for row in rows:
            w.writerow([format_cell(c) for c in row])
