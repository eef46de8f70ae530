"""Deterministic CSV and manifest output.

All numeric cells are rendered with %.17g so a rerun of the same config
and seed produces a byte-identical file body; wall-clock information is
confined to the manifest.  Field snapshots use (x, y, re, im) rows in
C order, kernel slices add the Gaussian envelope column, and the matrix
dump lists (row, col, re, im) by row then column, and decay schedules
use (t, l1, l2, linf, boundary_mass); these tables are built as one 2-D
float array of column stacks.  Every fit-producing experiment writes a
(t, value, model_value, residual) series next to a one-row summary; both
read the fitted law and its lead parameter off the DecayFit itself
(DecayFit.model_value, DecayFit.fitted).
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np

from . import __version__

__all__ = [
    "format_cell",
    "write_csv",
    "write_manifest",
    "field_table",
    "kernel_table",
    "decay_table",
    "series_table",
    "fit_summary_table",
    "matrix_dump_table",
]


def format_cell(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    return "%.17g" % float(v)


def _column_text(column):
    """%.17g of each entry of a float64 column, formatting each distinct
    bit pattern once (so -0.0 and every NaN keep their own text)."""
    bits, where = np.unique(column.view(np.uint64), return_inverse=True)
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[where].tolist()


def write_csv(path, header, rows):
    """Write header and rows; a 2-D float array is rendered column by
    column with %.17g, which gives the same bytes as format_cell per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            columns = [_column_text(c)
                       for c in np.asarray(rows, dtype=np.float64).T]
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))
        else:
            for row in rows:
                writer.writerow([format_cell(v) for v in row])
    return path


def write_manifest(path, command, config_echo, extra=None, started=None):
    """Manifest = exact config echo + run metadata (the only timestamps)."""
    lines = ["[run]"]
    lines.append("command = %s" % command)
    lines.append("version = %s" % __version__)
    if started is not None:
        lines.append("started_unix = %.3f" % started)
        lines.append("wall_time_s = %.3f" % (time.time() - started))
    for key, val in (extra or {}).items():
        lines.append("%s = %s" % (key, val))
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write(config_echo)
    return path


def _columns(*arrays):
    """Stack arrays as the columns of one float table, rows in C order."""
    return np.column_stack([np.ravel(a) for a in arrays])


def field_table(field):
    z = field.spec.nodes()
    v = field.values
    return ("x", "y", "re", "im"), _columns(z.real, z.imag, v.real, v.imag)


def kernel_table(slice_):
    z = slice_.field.spec.nodes()
    v = slice_.field.values
    return (("x", "y", "re", "im", "envelope"),
            _columns(z.real, z.imag, v.real, v.imag, slice_.envelope()))


def decay_table(traj):
    return (("t", "l1", "l2", "linf", "boundary_mass"),
            _columns(traj.times, traj.norms(1), traj.norms(2),
                     traj.norms(math.inf), traj.boundary_masses()))


def series_table(times, values, fit=None):
    rows = []
    for t, v in zip(times, values):
        if fit is not None and t > 0:
            mv = fit.model_value(t)
            rows.append((t, v, mv, v - mv))
        else:
            rows.append((t, v, "", ""))
    return ("t", "value", "model_value", "residual"), rows


def fit_summary_table(fit):
    row = (fit.model, fit.fitted, fit.target, fit.rel_deviation,
           fit.r_squared, fit.window[0], fit.window[1],
           fit.n_points, fit.coefficient)
    return ("model", "fitted", "target", "rel_deviation", "r_squared",
            "window_lo", "window_hi", "n_points", "coefficient"), [row]


def matrix_dump_table(stencil):
    rows, cols, values = stencil.entries()
    return (("row", "col", "re", "im"),
            _columns(rows, cols, values.real, values.imag))
