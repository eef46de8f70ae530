"""The weighted heat operator: field-level factors and its five-point stencil.

With phi a real subharmonic weight, the twisted Cauchy-Riemann operator and
its formal L^2(dA) adjoint are

    Dbar  u =  d_zbar u + phi_zbar * u,
    Dbar* u = -d_z    u + phi_z    * u,

and the box operator Box = Dbar Dbar* expands into the magnetic Schrodinger
form actually discretized here:

    Box u = -u_zzbar - phi_zbar u_z + phi_z u_zbar
            + (|phi_zbar|^2 + phi_zzbar) u.

Discretization on the tensor grid: -d^2/dz dzbar = -Laplacian/4 with the
standard five-point stencil, first-order terms with centered differences in
the symmetrized form (c D + D c)/2, potential on the diagonal, zero-Dirichlet
closure at the boundary ring.  The symmetrization is consistent at O(h^2)
because the magnetic drift (phi_x, phi_y)-rotated is divergence free, and it
makes each neighbour coupling

    -1/(4h^2) +- (i/2) (c_i + c_j) / (4h),   c = phi_x or phi_y,

so the coupling of j to i is the conjugate of that of i to j, to the last
bit.  The operator is stored only as these five coefficient arrays
(Stencil) and applied with numpy, in float64 when no coupling has an
imaginary part; the potential is the diagonal band less 1/h^2, and
entries() lists the couplings as (row, col, value) triples for the matrix
dump.

The bottom eigenvalue comes from Lanczos on Box^{-1}, with exact solves by
a block LDL^H sweep over grid rows: row k couples only to rows k - 1 and
k + 1, through diagonal blocks (bands 0 and 4), and within itself through
a tridiagonal block (bands 1, 2, 3), so the sweep stores one dense n x n
pivot inverse per row and needs no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ConvergenceError
from .grid import ALIGN, ComplexField, GridSpec, aligned_empty, d_z, d_zbar
from .weights import subharmonicity_audit

__all__ = [
    "BoxOperator",
    "OperatorAudit",
    "Stencil",
    "apply_dbar",
    "apply_dbar_star",
    "assemble_box",
    "bottom_eigenvalue",
    "operator_audit",
    "factorization_defect",
]


def apply_dbar(weight, field):
    """Dbar u = d_zbar u + phi_zbar u (matrix-free, one-sided at the edge)."""
    zz = field.spec.nodes()
    coef = np.asarray(weight.d_zbar(zz), dtype=complex)
    out = d_zbar(field)
    out.values += coef * field.values
    return out


def apply_dbar_star(weight, field):
    """Dbar* u = -d_z u + phi_z u, the formal adjoint of apply_dbar."""
    zz = field.spec.nodes()
    coef = np.asarray(weight.d_z(zz), dtype=complex)
    out = d_z(field)
    out.values = -out.values + coef * field.values
    return out


#: a band product runs over blocks of about this many bytes of output, so
#: that a block's coefficients, neighbours and products stay in a core's
#: L2 cache (2 MB): n = 129 is one block in float64 and two in
#: complex128, n = 241 four in complex128 and its Schur half grid two.
#: Blocks of 8192 rows took the n = 129 float64 product from 47 to 56 us
#: (10th percentile of 300 products) and made no case faster.
STENCIL_BLOCK_BYTES = 256 * 1024

#: (row, column) step to the neighbour that each band couples to.
_STEPS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


def _whole_lines(count, dtype):
    """count entries of dtype, rounded up to whole cache lines."""
    line = ALIGN // np.dtype(dtype).itemsize
    return -(-count // line) * line


def band_home(terms, rows, dtype):
    """Zeroed (terms, rows) bands whose every row starts on a cache line
    (a view into rows padded to whole lines)."""
    home = aligned_empty((terms, _whole_lines(rows, dtype)), dtype)
    home[...] = 0
    return home[:, :rows]


def _in_home(bands):
    """Whether every row of the 2-d bands is contiguous and starts on a
    cache line."""
    return (bands.ctypes.data % ALIGN == 0 and bands.strides[0] % ALIGN == 0
            and bands.strides[1] == bands.itemsize)


class BandProduct:
    """y[i] = sum_k bands[k, i] x[i + offsets[k]], over a padded copy of x.

    bands is a (k, rows) array and x has cols entries; a term whose index
    i + offsets[k] leaves 0..cols-1 must have a zero coefficient.  offsets
    ascend.  Per block of rows the product writes the first term straight
    into y and then adds each later one, in offset order, from one
    np.multiply into a block-length scratch vector: the additions and
    their order of np.add.reduce over the stacked terms, with one pass
    over y per band.  Each band reads its input as a plain slice of the
    padded x.  bands are float64 or complex128; a complex x on float64
    bands is applied as self @ x.real + i (self @ x.imag), so no imaginary
    part is dropped and the product is that of the same bands stored as
    complex numbers.

    Every vector the product writes starts on a cache line (grid.ALIGN):
    the scratch vector, the padded copy of x at operand, the result of
    dot(x) and, when y does, each block of y, since blocks are the fewest
    equal runs of rows of at most about STENCIL_BLOCK_BYTES of output,
    rounded up to whole cache lines (the last block is at most one line
    per block shorter).
    An output that straddles lines is written at about half the speed.
    bands are kept in a band_home, copied there unless they already are:
    complex bands 16 or 48 bytes past a line slow modsq's product at
    n = 129 by 1% to 18% (README, "Operator products").  A BandProduct
    owns its pad and scratch, so it is unfit for two threads at once.
    dot(x, out=y) writes the product into y.  operand is the view of the
    pad that holds x: a caller may write x into it itself (as the output
    of another product, say) and pass dot the operand, which then makes no
    copy.  It is overwritten by the next product with any other x.
    """

    def __init__(self, bands, offsets, cols):
        if not _in_home(bands):
            home = band_home(*bands.shape, bands.dtype)
            home[...] = bands
            bands = home
        self.bands = bands
        self.offsets = offsets = tuple(offsets)
        self.dtype = bands.dtype
        rows = bands.shape[1]
        self.shape = (rows, cols)
        blocks = -(-rows * self.dtype.itemsize // STENCIL_BLOCK_BYTES)
        block = _whole_lines(-(-rows // blocks), self.dtype)
        # zeros before x in the pad, rounded up so that x starts a line
        lead = _whole_lines(max(0, -offsets[0]), self.dtype)
        self._pad = aligned_empty(
            lead + max(cols, rows + max(0, offsets[-1])), self.dtype)
        self._pad[...] = 0
        self._prod = aligned_empty(min(rows, block), self.dtype)
        self.operand = self._pad[lead:lead + cols]
        self._blocks = []
        for lo in range(0, rows, block):
            hi = min(rows, lo + block)
            # (coefficients, x[i + offset] for i in lo:hi) of each band
            terms = [(bands[k, lo:hi], self._pad[lead + lo + d:lead + hi + d])
                     for k, d in enumerate(offsets)]
            self._blocks.append((slice(lo, hi), self._prod[:hi - lo], terms))

    def __matmul__(self, x):
        return self.dot(x)

    def dot(self, x, out=None):
        if out is None:
            out = aligned_empty(self.shape[0], np.result_type(self.dtype, x))
        if x.dtype.kind == "c" and self.dtype.kind == "f":
            self.dot(x.real, out=out.real)
            self.dot(x.imag, out=out.imag)
            return out
        if x is not self.operand:
            self.operand[...] = x
        for rows, term, ((c, xk), *rest) in self._blocks:
            y = np.multiply(c, xk, out=out[rows])
            for c, xk in rest:
                y += np.multiply(c, xk, out=term)
        return out


class Stencil(BandProduct):
    """A five-point operator on the row-major n x n grid.

    bands[k, i] couples node i to node i + offsets[k], with offsets
    (-n, -1, 0, 1, n); a coupling that would leave the grid is 0.  The
    product (BandProduct's) adds the five terms in that order, one
    multiply-add pass per band.  scaled() and entries() keep the dtype.
    """

    def __init__(self, n, bands):
        self.n = n
        size = n * n
        self.nnz = size + 4 * (size - n)
        super().__init__(bands, (dx * n + dy for dx, dy in _STEPS), size)

    def scaled(self, factor, shift=0.0):
        """The stencil of shift * I + factor * self."""
        bands = np.multiply(factor, self.bands,
                            out=band_home(*self.bands.shape, self.dtype))
        bands[2] += shift
        return Stencil(self.n, bands)

    def entries(self):
        """(rows, cols, values) of the couplings that stay on the grid, by
        row and then column (each row's offsets ascend)."""
        n, size = self.n, self.shape[0]
        node = np.arange(size)
        ix, iy = np.divmod(node, n)
        inside = np.stack([(0 <= ix + dx) & (ix + dx < n)
                           & (0 <= iy + dy) & (iy + dy < n)
                           for dx, dy in _STEPS], axis=1)
        cols = node[:, None] + np.array(self.offsets)
        return (np.nonzero(inside)[0], cols[inside], self.bands.T[inside])


@dataclass(frozen=True)
class BoxOperator:
    """Box on a grid, as the stencil assembled from a weight."""

    spec: GridSpec
    weight: object
    matrix: Stencil


def assemble_box(spec, weight):
    """Assemble Box = Dbar Dbar* on the grid as a Hermitian Stencil.

    The bands are float64 when every coupling is real, which is when phi_z
    vanishes on every node (the zero weight, or a constant one: Box is then
    -Laplacian/4), and complex128 otherwise.

    Refuses weights that fail the subharmonicity audit on the grid nodes:
    the analytic bounds this package tests all assume Delta(phi) >= 0.
    """
    zz = spec.nodes()
    audit = subharmonicity_audit(weight, zz)
    if not audit.passed:
        raise ConfigError(
            "weight %r fails subharmonicity audit: min Laplacian %.3e at %s"
            % (getattr(weight, "name", "?"), audit.min_laplacian, audit.argmin)
        )

    n, h = spec.points, spec.h
    inv_h2 = 1 / h ** 2
    inv_2h = 1 / (2.0 * h)
    phi_z = np.asarray(weight.d_z(zz), dtype=complex)
    phi_zbar = np.asarray(weight.d_zbar(zz), dtype=complex)
    phi_zzbar = np.real(np.asarray(weight.d_z_zbar(zz)))
    potential = np.abs(phi_zbar) ** 2 + phi_zzbar

    # phi_x = 2 Re phi_z, phi_y = -2 Im phi_z for real phi
    phi_x = 2.0 * phi_z.real
    phi_y = -2.0 * phi_z.imag

    # -Laplacian/4 plus the drift (i/2)(phi_x d_y - phi_y d_x), symmetrized:
    # the couplings of (ix, iy) to (ix, iy + 1) and to (ix + 1, iy), whose
    # conjugates couple back
    neighbour = -0.25 * inv_h2
    to_next_y = neighbour + 1j * (0.25 * (inv_2h * phi_x[:, :-1]
                                          + inv_2h * phi_x[:, 1:]))
    to_next_x = neighbour + 1j * (-0.25 * (inv_2h * phi_y[:-1]
                                           + inv_2h * phi_y[1:]))
    bands = band_home(5, n * n, complex).reshape(5, n, n)
    bands[0, 1:] = to_next_x.conj()
    bands[1, :, 1:] = to_next_y.conj()
    bands[2] = inv_h2 + potential
    bands[3, :, :-1] = to_next_y
    bands[4, :-1] = to_next_x
    if not bands.imag.any():
        # every coupling is real (phi_z = 0 on every node): so is Box
        real = band_home(5, n * n, float)
        real[...] = bands.real.reshape(5, n * n)
        bands = real
    matrix = Stencil(n, bands.reshape(5, n * n))

    return BoxOperator(spec=spec, weight=weight, matrix=matrix)


def factorization_defect(op):
    """Sup-norm mismatch between the matrix and Dbar(Dbar* u) on a bump.

    u is a Gaussian bump of width extent/4, so it is numerically zero on
    the boundary ring; the comparison excludes the two outermost rings
    where the matrix's Dirichlet closure and the one-sided field stencils
    legitimately differ.  Expected to shrink like O(h^2).
    """
    spec = op.spec
    zz = spec.nodes()
    sigma = (spec.extent * 0.25) ** 2
    bump = ComplexField(spec, np.exp(-np.abs(zz) ** 2 / sigma))
    via_factors = apply_dbar(op.weight, apply_dbar_star(op.weight, bump))
    diff = np.abs(op.matrix @ bump.ravel() - via_factors.ravel())
    return float(np.max(diff.reshape(zz.shape)[2:-2, 2:-2]))


@dataclass(frozen=True)
class OperatorAudit:
    points: int
    h: float
    weight_name: str
    hermitian_defect: float
    matrix_scale: float
    rayleigh_min: float
    factorization_defect: float
    lambda_min: Optional[float]


#: Lanczos steps after which bottom_eigenvalue gives up; at extent 6 the
#: catalog weights converge in 13 to 34 steps at n = 16 and 33, modsq in
#: 74 at n = 129.
LANCZOS_MAX_STEPS = 300

#: bottom_eigenvalue stops once the residual bound of its largest Ritz value
#: of Box^{-1} falls below this fraction of that value.
LANCZOS_TOL = 1e-13

#: within this relative gap of the next Ritz value, the largest one is in a
#: cluster whose Ritz vector converges slowly, and bottom_eigenvalue stops
#: on its value instead (see there).
LANCZOS_CLUSTER = 1e-2


def _row_pivot_inverses(matrix):
    """Inverses of the pivots of Box = L diag(S_k) L^H over grid rows.

    S_0 = D_0 and S_k = D_k - C_{k-1}^H S_{k-1}^{-1} C_{k-1}, where D_k is
    row k's tridiagonal block and C_{k-1} = diag(bands[4] of row k - 1)
    couples row k - 1 to row k; C_{k-1}^H is bands[0] of row k.  Each S_k
    is a Schur complement of a Hermitian positive definite matrix, so it is
    one too.  Returns the n x n x n array of the S_k^{-1} in the stencil's
    dtype (16 n^3 bytes when complex, 8 n^3 when real).
    """
    n = matrix.n
    bands = matrix.bands.reshape(5, n, n)
    inverses = np.empty((n, n, n), dtype=matrix.dtype)
    for k in range(n):
        pivot = (np.diag(bands[1, k, 1:], -1) + np.diag(bands[2, k])
                 + np.diag(bands[3, k, :-1], 1))
        if k:
            pivot -= bands[0, k, :, None] * inverses[k - 1] * bands[4, k - 1]
        inverses[k] = np.linalg.inv(pivot)
    return inverses


def _row_solve(matrix, inverses, rhs):
    """x with Box x = rhs, by the block sweep of _row_pivot_inverses."""
    n = matrix.n
    bands = matrix.bands.reshape(5, n, n)
    x = np.empty((n, n), dtype=np.result_type(matrix.dtype, rhs.dtype))
    rows = rhs.reshape(n, n)
    # forward: x_k = S_k^{-1} (b_k - C_{k-1}^H x_{k-1})
    x[0] = inverses[0] @ rows[0]
    for k in range(1, n):
        x[k] = inverses[k] @ (rows[k] - bands[0, k] * x[k - 1])
    # backward: x_k -= S_k^{-1} C_k x_{k+1}
    for k in range(n - 2, -1, -1):
        x[k] -= inverses[k] @ (bands[4, k] * x[k + 1])
    return x.ravel()


def bottom_eigenvalue(op, seed=0):
    """The smallest eigenvalue of Box, by Lanczos on Box^{-1}.

    Box is positive definite, so its smallest eigenvalue is 1/theta for
    the largest eigenvalue theta of Box^{-1}.  Each Lanczos step solves
    with Box exactly (_row_solve) and reorthogonalizes twice against the
    whole basis; the start vector is drawn from seed, so reruns are
    byte-identical.  Stops when the residual bound of the largest Ritz
    value is below LANCZOS_TOL times that value, and raises
    ConvergenceError after LANCZOS_MAX_STEPS steps or when a pivot
    inversion fails.  When the second Ritz value lies within
    LANCZOS_CLUSTER of the largest, the bound may instead be its square
    over the gap between the two, less the second pair's residual bound:
    that bounds the error of a Ritz value whose vector has not converged
    inside a cluster.  A wide gap is not trusted, because until Lanczos
    resolves a near-degenerate pair its largest Ritz value mixes the two
    and the next Ritz value is far away.
    """
    matrix = op.matrix
    size = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v0 = rng.normal(size=size) + 1j * rng.normal(size=size)
    steps = min(LANCZOS_MAX_STEPS, size)
    # rows are written as the basis grows; untouched ones take no memory
    basis = np.empty((steps + 1, size), dtype=complex)
    basis[0] = v0 / np.linalg.norm(v0)
    alpha, beta = [], []
    try:
        inverses = _row_pivot_inverses(matrix)
        for j in range(steps):
            w = _row_solve(matrix, inverses, basis[j])
            alpha.append(np.vdot(basis[j], w).real)
            w -= alpha[-1] * basis[j]
            if j:
                w -= beta[-1] * basis[j - 1]
            for _ in range(2):
                # conjugating w, not the basis, keeps the basis uncopied
                w -= (basis[:j + 1] @ w.conj()).conj() @ basis[:j + 1]
            beta.append(np.linalg.norm(w))
            ritz, vectors = np.linalg.eigh(np.diag(alpha)
                                           + np.diag(beta[:-1], 1)
                                           + np.diag(beta[:-1], -1))
            # the residual bound of each Ritz pair; within a cluster, see
            # the docstring
            bounds = beta[-1] * np.abs(vectors[-1])
            bound = bounds[-1]
            if j and ritz[-1] - ritz[-2] <= LANCZOS_CLUSTER * ritz[-1]:
                gap = ritz[-1] - ritz[-2] - bounds[-2]
                if gap > 0:
                    bound = min(bound, bound * bound / gap)
            if bound <= LANCZOS_TOL * ritz[-1]:
                return float(1.0 / ritz[-1])
            basis[j + 1] = w / beta[-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("bottom eigenvalue solve failed: %s" % exc)
    raise ConvergenceError("bottom eigenvalue solve failed: no convergence "
                           "in %d Lanczos steps" % steps)


def operator_audit(op, trials=20, seed=0, compute_lambda_min=True):
    """Spot checks of the assembled matrix.

    Reports the entrywise Hermitian defect (zero by construction, verified
    anyway), the minimum Rayleigh quotient over random complex fields, the
    factorization defect against the matrix-free factors, and the smallest
    eigenvalue, from bottom_eigenvalue with the same seed (None when
    compute_lambda_min is false).
    """
    matrix = op.matrix
    bands, size = matrix.bands, matrix.shape[0]
    hermitian_defect = 0.0
    for k, offset in enumerate(matrix.offsets[2:], 2):
        # coupling of i to i + offset against that of i + offset to i
        gap = bands[k, :size - offset] - np.conj(bands[4 - k, offset:])
        hermitian_defect = max(hermitian_defect, float(np.max(np.abs(gap))))
    matrix_scale = float(np.max(np.abs(bands)))

    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    ray_min = np.inf
    for _ in range(trials):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        ray = float(np.real(np.vdot(x, matrix @ x)) / np.real(np.vdot(x, x)))
        ray_min = min(ray_min, ray)

    lam = bottom_eigenvalue(op, seed) if compute_lambda_min else None

    return OperatorAudit(
        points=op.spec.points,
        h=op.spec.h,
        weight_name=getattr(op.weight, "name", "?"),
        hermitian_defect=hermitian_defect,
        matrix_scale=matrix_scale,
        rayleigh_min=float(ray_min),
        factorization_defect=factorization_defect(op),
        lambda_min=lam,
    )
