"""Text format of the CSV artifacts.

Floats are written with the shortest decimal that round-trips to the same
float64, so identical inputs produce byte-identical files, and a reader that
parses each field with ``float`` gets back the bits that were written.  The
files are for readers: nothing in the package reads one back.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_float", "format_row", "write_table_csv"]


def format_float(x: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(x))


def format_row(values) -> str:
    """Comma-joined ``format_float`` of each value, converted in one pass."""
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def write_table_csv(path, t_nodes, x_nodes, values) -> None:
    """A (t, x) surface: header ``t,x_0,x_1,...``, then ``t_i,values[i, 0],...`` per time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + format_row(x_nodes) + "\n")
        for ti, row in zip(t_nodes, values):
            fh.write(format_float(ti) + "," + format_row(row) + "\n")

