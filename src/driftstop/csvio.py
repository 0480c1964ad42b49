"""Text format of the CSV artifacts.

Floats are written with the shortest decimal that round-trips to the same
float64, so identical inputs produce byte-identical files, and a table read
back holds the bits that were written.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_float", "format_row", "read_table_csv", "write_table_csv"]


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


def read_table_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``write_table_csv`` writes, as ``(t_nodes, x_nodes, values)``; a bad header, a
    ragged row or a field that is not a number raises a ``ValueError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if len(header) < 2 or header[0] != "t":
            raise ValueError(f"{path} must start with the header t,x_0,x_1,...")
        # parsed a line at a time: the text of a table takes several times the memory of its floats
        rows = [_floats(line.rstrip("\n").split(","), len(header), path) for line in fh]
    table = np.array(rows).reshape(len(rows), len(header))
    return table[:, 0], _floats(header[1:], len(header) - 1, path), table[:, 1:]


def _floats(fields: list[str], count: int, path) -> np.ndarray:
    if len(fields) != count:
        raise ValueError(f"{path} has a row of {len(fields)} fields, not the header's {count}")
    try:
        return np.array(list(map(float, fields)))
    except ValueError as exc:
        raise ValueError(f"{path} holds a field that is not a number: {exc}") from None
