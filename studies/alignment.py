"""Time the stencil product and CG with every work vector at one offset
from a cache line.

    PYTHONPATH=src python3 studies/alignment.py [--repeats R]

For each byte offset 0, 16, 32 and 48 mod 64 (the offsets numpy's 16-byte
allocator can give a vector) the package's vector allocator,
grid.aligned_empty, is replaced by one that places every vector at that
offset; the operator, the Propagator and the vectors are then built anew.
Three cases:

- n = 129, zero weight (extent 8, dt 0.005): float64, the plain-CG path
  of the kernel and lplq commands;
- n = 129, modsq (extent 8, dt 0.005): complex128, the plain-CG path of
  the kernel-modsq preset;
- n = 241, flat_example (extent 10, dt 0.0125): complex128, the stiff
  red-black Schur path of the flat-picard benchmark workload.

Each reports one product with Box (x and y at the offset too) in us and
one CG solve of exactly 50 iterations (atol = 0) in ms, the best of R
repeats of a timed batch, with the offsets interleaved in every repeat so
that drift of the host touches them alike.  Every offset must give the
same bits; the script checks that and stops if it does not.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dbarheat import boxop, grid, redblack, semigroup  # noqa: E402
from dbarheat.weights import get_weight  # noqa: E402

OFFSETS = (0, 16, 32, 48)
ITERATIONS = 50


def placed_empty(offset):
    """grid.aligned_empty, but with the data offset bytes past a line."""

    def empty(shape, dtype=float):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        raw = np.empty(nbytes + 2 * grid.ALIGN, dtype=np.uint8)
        start = -raw.ctypes.data % grid.ALIGN + offset
        return raw[start:start + nbytes].view(dtype).reshape(shape)

    return empty


def build(case, offset):
    """(product, solve) closures of one case, every vector at offset."""
    empty = placed_empty(offset)
    for module in (boxop, redblack, semigroup):
        module.aligned_empty = empty
    weight, extent, points, dt, dtype = case
    spec = grid.GridSpec(extent=extent, points=points)
    op = boxop.assemble_box(spec, get_weight(weight))
    prop = semigroup.Propagator(op, semigroup.StepperConfig(dt=dt))
    z = spec.nodes().ravel()
    u = np.exp(-np.abs(z - 0.5j) ** 2).astype(dtype)
    x, y = empty(u.size, dtype), empty(u.size, dtype)
    x[...] = u
    lhs = prop.lhs
    size = lhs.shape[0]
    rng = np.random.default_rng(0)
    start = rng.standard_normal(size).astype(dtype)
    work = [empty(size, dtype) for _ in range(6)]
    x0, r0 = empty(size, dtype), empty(size, dtype)
    x0[...] = 0.0
    r0[...] = start

    def product():
        return op.matrix.dot(x, out=y)

    def solve():
        got, _ = semigroup.cg(lhs, x0, r0, 0.0, ITERATIONS,
                              prop.preconditioner, work=work)
        return got

    return product, solve


def best(fn, number, repeats, results):
    """Append the best time per call of repeats batches of number calls."""
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        results.append((time.perf_counter() - t0) / number)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    cases = {"n=129 float64": ("zero", 8.0, 129, 0.005, np.float64),
             "n=129 complex128": ("modsq", 8.0, 129, 0.005, np.complex128),
             "n=241 complex128": ("flat_example", 10.0, 241, 0.0125,
                                  np.complex128)}
    rows = {offset: [] for offset in OFFSETS}
    for name, case in cases.items():
        built = {offset: build(case, offset) for offset in OFFSETS}
        want = [fn().tobytes() for fn in built[0]]
        for offset in OFFSETS:
            if [fn().tobytes() for fn in built[offset]] != want:
                sys.exit("offset %d changes the result of %s" % (offset, name))
        times = {offset: ([], []) for offset in OFFSETS}
        for _ in range(args.repeats):
            for offset in OFFSETS:
                product, solve = built[offset]
                best(product, 200, 1, times[offset][0])
                best(solve, 3, 1, times[offset][1])
        for offset in OFFSETS:
            prod_t, solve_t = times[offset]
            rows[offset] += [1e6 * min(prod_t), 1e3 * min(solve_t)]
    header = ["offset (B mod 64)"]
    for name in cases:
        header += ["%s product (us)" % name,
                   "%s CG, %d it. (ms)" % (name, ITERATIONS)]
    print("| " + " | ".join(header) + " |")
    print("| " + " | ".join("---" for _ in header) + " |")
    for offset in OFFSETS:
        print("| %d | " % offset
              + " | ".join("%.1f" % v if v >= 10 else "%.2f" % v
                           for v in rows[offset]) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
