"""The red-black split of a theta-step lhs I + dt Box, for stiff steps.

Box's five-point stencil couples each red node (ix + iy even) only to
black ones and the reverse.  With the nodes split by colour the lhs is
[[D_r, C], [C^H, D_b]] with diagonal D_r and D_b, so the red nodes can be
eliminated exactly: S = D_b - C^H D_r^{-1} C on the black half of the
unknowns is Hermitian positive definite, and after a solve on S one
back-substitution recovers the red half (the red-black reduced system;
Saad, Iterative Methods for Sparse Linear Systems, 2003, sections 4.1
and 10).  D_r^{-1} is folded into the bands of C when the split is
built, and C p goes straight into the padded operand of C^H, so a
product with S is two band products and one pass of D_b, with no copy
and no D_r^{-1} pass of its own.  semigroup.Propagator imports this
module only for the stiff steps it solves this way, so other commands do
not load it.
"""

from __future__ import annotations

import numpy as np

from .boxop import STENCIL_BLOCK, BandProduct

__all__ = ["SchurComplement"]


def _couplings(matrix, scale, colour, cols, block):
    """The couplings scale_i * Box[i, j] of the nodes i of one colour
    (colour indexes them in row-major order) to their four neighbours j,
    on packed indices; scale is a number or one per node of the colour.

    Node i of a colour has packed index i // 2 within it, for odd and even
    n alike, so its coupling through the grid offset d lands at packed
    offset (i % 2 + d) // 2.  That is one offset per band when n is odd
    (i % 2 is the colour); for even n the horizontal ones depend on the
    grid row, and the five packed offsets -n/2, -1, 0, 1, n/2 carry zeros.
    """
    parity = np.arange(matrix.shape[0])[colour] % 2
    terms = [(k, e, (e + matrix.offsets[k]) // 2) for k in (0, 1, 3, 4)
             for e in (0, 1) if np.any(parity == e)]
    offsets = sorted({offset for _, _, offset in terms})
    bands = np.zeros((len(offsets), parity.size), dtype=matrix.dtype)
    for k, e, offset in terms:
        # terms that share an offset have disjoint nodes
        np.multiply(scale, matrix.bands[k, colour], where=parity == e,
                    out=bands[offsets.index(offset)])
    return BandProduct(bands, offsets, cols, block)


class SchurComplement:
    """S = D_b - C^H D_r^{-1} C of the lhs I + dt Box, over the black nodes.

    reduce(b) = b_b - C^H D_r^{-1} b_r is the right-hand side of
    S x_b = reduce(b), and expand(b, x_b) recovers the red nodes,
    x_r = D_r^{-1} b_r - (D_r^{-1} C) x_b.  The residual of the full
    system at that x is 0 on the red nodes and reduce(b) - S x_b on the
    black ones, so a residual test on S is the same test on the lhs.
    couple is D_r^{-1} C, with D_r^{-1} folded into its bands once, and
    couple_back is C^H: BandProducts on packed indices (see _couplings).
    S is never formed but applied as D_b p - C^H ((D_r^{-1} C) p).  The
    product D_r^{-1} C p, and reduce's D_r^{-1} b_r, are written straight
    into couple_back's operand, so C^H copies neither.  red and black
    index a row-major vector by colour: slices for odd n, index arrays
    for even n.  inv_diag is diag(S)^{-1}, the Jacobi scaling of CG on S.
    """

    def __init__(self, matrix, dt):
        n = matrix.n
        if n % 2:
            # (ix + iy) % 2 is the parity of the row-major index ix n + iy
            self.red, self.black = slice(0, None, 2), slice(1, None, 2)
        else:
            colour = np.add.outer(np.arange(n), np.arange(n)).ravel() % 2
            self.red = np.flatnonzero(colour == 0)
            self.black = np.flatnonzero(colour)
        diag = 1.0 + dt * matrix.bands[2].real
        self.inv_red_diag = 1.0 / diag[self.red]
        self.black_diag = np.ascontiguousarray(diag[self.black])
        reds, blacks = self.inv_red_diag.size, self.black_diag.size
        # rows per block, for the fewest equal blocks of <= STENCIL_BLOCK
        block = -(-reds // -(-reds // STENCIL_BLOCK))
        self.couple = _couplings(matrix, dt * self.inv_red_diag, self.red,
                                 blacks, block)
        self.couple_back = _couplings(matrix, dt, self.black, reds, block)
        back = self.couple_back
        weights = BandProduct(np.abs(back.bands) ** 2, back.offsets, reds,
                              block)
        self.inv_diag = 1.0 / (self.black_diag - weights @ self.inv_red_diag)
        self.dtype = matrix.dtype
        self.shape = (blacks, blacks)

    def __matmul__(self, x):
        return self.dot(x)

    def dot(self, x, out=None):
        if out is None:
            out = np.empty(self.shape[0], np.result_type(self.dtype, x))
        if x.dtype.kind == "c" and self.dtype.kind == "f":
            self.dot(x.real, out=out.real)
            self.dot(x.imag, out=out.imag)
            return out
        red = self.couple.dot(x, out=self.couple_back.operand)
        self.couple_back.dot(red, out=out)
        # the product is done with its operand: reuse it for D_b x
        return np.subtract(np.multiply(self.black_diag, x, out=red[:out.size]),
                           out, out=out)

    def reduce(self, v, out=None):
        """v_b - C^H D_r^{-1} v_r of a row-major vector v."""
        if out is None:
            out = np.empty(self.shape[0], np.result_type(self.dtype, v))
        if v.dtype.kind == "c" and self.dtype.kind == "f":
            self.reduce(v.real, out=out.real)
            self.reduce(v.imag, out=out.imag)
            return out
        red = np.multiply(v[self.red], self.inv_red_diag,
                          out=self.couple_back.operand)
        self.couple_back.dot(red, out=out)
        return np.subtract(v[self.black], out, out=out)

    def expand(self, b, x_black):
        """The row-major x whose black nodes are x_black and whose red ones
        solve their rows of the lhs: x_r = D_r^{-1} b_r - (D_r^{-1} C) x_b."""
        x = np.empty(b.size, dtype=np.result_type(b, x_black))
        x[self.red] = b[self.red] * self.inv_red_diag - self.couple @ x_black
        x[self.black] = x_black
        return x
