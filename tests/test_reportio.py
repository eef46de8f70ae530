"""CSV rendering: array-backed tables against the per-cell format_cell path.

field_table, kernel_table, matrix_dump_table and decay_table return one 2-D
float array that write_csv renders with a single %.17g row format.  The
oracle here is the plain rendering: rows built by explicit loops in the
documented order and every cell passed through format_cell, which must give
the same bytes, including -0, nan, +-inf, subnormals and huge values.
"""

import math

import numpy as np
import pytest

from dbarheat import assemble_box, get_weight
from dbarheat.boxop import Stencil
from dbarheat.grid import ComplexField, GridSpec, boundary_mass, lp_norm
from dbarheat.reportio import (
    decay_table,
    field_table,
    format_cell,
    kernel_table,
    matrix_dump_table,
    write_csv,
)
from dbarheat.semigroup import KernelSlice, Trajectory
from dense_oracle import csr_rows

SPECIALS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300,
            0.1, 1.0, 0.0, -2.5e-17]
N = 9


def cell_by_cell(header, rows):
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(tmp_path, header, rows):
    path = tmp_path / "t.csv"
    write_csv(str(path), header, rows)
    return path.read_bytes()


def special_values(n, shift):
    flat = [SPECIALS[(k + shift) % len(SPECIALS)] for k in range(n * n)]
    return np.array(flat).reshape(n, n)


@pytest.fixture
def special_field():
    spec = GridSpec(extent=6.0, points=N)
    v = np.empty((N, N), dtype=complex)
    v.real = special_values(N, 0)
    v.imag = special_values(N, 3)
    return ComplexField(spec, v)


def test_field_table_bytes_match_cell_rendering(tmp_path, special_field):
    header, table = field_table(special_field)
    assert isinstance(table, np.ndarray) and table.shape == (N * N, 4)
    z = special_field.spec.nodes()
    v = special_field.values
    rows = [(z[ix, iy].real, z[ix, iy].imag, v[ix, iy].real, v[ix, iy].imag)
            for ix in range(N) for iy in range(N)]
    body = written(tmp_path, header, table)
    assert body == cell_by_cell(("x", "y", "re", "im"), rows)
    for token in (b",-0,", b",nan", b",inf", b",-inf", b"4.9406564584124654e-324",
                  b"1.0000000000000001e+300"):
        assert token in body


def test_kernel_table_bytes_match_cell_rendering(tmp_path, special_field):
    # t = 1e-310 drives the envelope to 0 off the source and to inf on it
    for t in (0.5, 1e-310):
        sl = KernelSlice(t=t, source=0j, field=special_field)
        with np.errstate(over="ignore"):
            header, table = kernel_table(sl)
            env = sl.envelope()
        assert table.shape == (N * N, 5)
        z = special_field.spec.nodes()
        v = special_field.values
        rows = [(z[ix, iy].real, z[ix, iy].imag, v[ix, iy].real,
                 v[ix, iy].imag, env[ix, iy])
                for ix in range(N) for iy in range(N)]
        assert written(tmp_path, header, table) == cell_by_cell(
            ("x", "y", "re", "im", "envelope"), rows)


def test_decay_table_bytes_match_cell_rendering(tmp_path, special_field):
    spec = special_field.spec
    rng = np.random.default_rng(5)
    rows_in = [rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)),
               special_field.values,
               np.full((N, N), 5e-324 + 0j),
               np.zeros((N, N), dtype=complex),
               1e150 * np.ones((N, N), dtype=complex)]
    traj = Trajectory(spec, np.array([0.0, 0.1, 1.0 / 3.0, 5e-324, 1e300]),
                      np.stack(rows_in))
    with np.errstate(over="ignore", invalid="ignore"):
        header, table = decay_table(traj)
        rows = [(t, lp_norm(f, 1), lp_norm(f, 2), lp_norm(f, math.inf),
                 boundary_mass(f)) for t, f in zip(traj.times, traj.fields)]
    assert isinstance(table, np.ndarray) and table.shape == (5, 5)
    assert written(tmp_path, header, table) == cell_by_cell(
        ("t", "l1", "l2", "linf", "boundary_mass"), rows)


def test_matrix_dump_table_bytes_match_cell_rendering(tmp_path):
    # the SPECIALS in complex bands on a 2 x 2 grid, and real bands on a
    # 5 x 5 grid, against rows listed by explicit loops over nodes and
    # bands; a coupling that would leave the grid is not listed
    complex_bands = np.empty((5, 4), dtype=complex)
    complex_bands.real.flat = SPECIALS
    complex_bands.imag.flat = SPECIALS[::-1]
    rng = np.random.default_rng(3)
    for n, bands in ((2, complex_bands), (5, rng.normal(size=(5, 25)))):
        rows = []
        for i in range(n * n):
            ix, iy = divmod(i, n)
            for k, (jx, jy) in enumerate([(ix - 1, iy), (ix, iy - 1),
                                          (ix, iy), (ix, iy + 1),
                                          (ix + 1, iy)]):
                if 0 <= jx < n and 0 <= jy < n:
                    value = bands[k, i]
                    rows.append((i, jx * n + jy, value.real, value.imag))
        stencil = Stencil(n, bands)
        assert len(rows) == stencil.nnz
        header, table = matrix_dump_table(stencil)
        assert written(tmp_path, header, table) == cell_by_cell(
            ("row", "col", "re", "im"), rows)


@pytest.mark.parametrize("points", [16, 33])
@pytest.mark.parametrize("name", ["modsq", "zero"])
def test_matrix_dump_matches_csr_oracle(tmp_path, name, points):
    # one row per structural coupling, in scipy's (row, col) order
    stencil = assemble_box(GridSpec(extent=6.0, points=points),
                           get_weight(name)).matrix
    rows = csr_rows(stencil)
    assert len(rows) == stencil.nnz
    header, table = matrix_dump_table(stencil)
    assert written(tmp_path, header, table) == cell_by_cell(header, rows)


def test_mixed_rows_keep_cell_rendering(tmp_path):
    rows = [("a", True, np.bool_(False), 3, np.int64(-4), "", 0.1,
             np.float64(-0.0), math.inf, None)]
    body = written(tmp_path, tuple("abcdefghij"), rows)
    assert body == cell_by_cell(tuple("abcdefghij"), rows)
    assert (body.splitlines()[1]
            == b"a,true,false,3,-4,,0.10000000000000001,-0,inf,")
