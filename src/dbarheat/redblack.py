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

# aligned_empty is grid's, taken through boxop so that this module keeps
# boxop as its one dbarheat import
from .boxop import BandProduct, aligned_empty, band_home

__all__ = ["SchurComplement"]


def _couplings(matrix, scale, colour, cols):
    """The couplings scale_i * Box[i, j] of the nodes i of one colour
    (colour indexes them in row-major order) to their four neighbours j,
    on packed indices, in complex128; scale is a number or one per node
    of the colour.

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
    bands = band_home(len(offsets), parity.size, complex)
    for k, e, offset in terms:
        # terms that share an offset have disjoint nodes
        np.multiply(scale, matrix.bands[k, colour], where=parity == e,
                    out=bands[offsets.index(offset)], dtype=complex)
    return BandProduct(bands, offsets, cols)


def _take(v, index, out):
    """v[index]: a view for a slice index, else gathered into out."""
    if isinstance(index, slice):
        return v[index]
    # mode="raise" would gather through a temporary copy
    return np.take(v, index, out=out, mode="clip")


class SchurComplement:
    """S = D_b - C^H D_r^{-1} C of the lhs I + dt Box, over the black nodes.

    reduce(b) = b_b - C^H D_r^{-1} b_r is the right-hand side of
    S x_b = reduce(b), and expand(b, x_b) recovers the red nodes,
    x_r = D_r^{-1} b_r - (D_r^{-1} C) x_b.  The residual of the full
    system at that x is 0 on the red nodes and reduce(b) - S x_b on the
    black ones, so a residual test on S is the same test on the lhs.
    couple is D_r^{-1} C, with D_r^{-1} folded into its bands once, and
    couple_back is C^H: BandProducts on packed indices (see _couplings).
    Both, and so S (dtype), are complex128 whatever Box's dtype: a real
    Box of the zero or a constant weight is never stiff (see semigroup).
    S is never formed but applied as D_b p - C^H ((D_r^{-1} C) p).  The
    products D_r^{-1} C p and (D_r^{-1} C) x_b, and reduce's D_r^{-1} b_r,
    are written straight into couple_back's operand, so C^H copies
    nothing; reduce, dot and expand write into a caller's out, and a
    result made for out=None starts on a cache line (grid.aligned_empty),
    as do all the buffers kept here, which make a SchurComplement unfit
    for two threads at once.  red and black index a row-major vector by
    colour: slices for odd n, index arrays for even n, which gather with
    np.take into couple_back's operand (expand's b_r into one red-sized
    buffer kept for even n) and scatter in place, so no method allocates
    a vector on either.  inv_diag is diag(S)^{-1}, the Jacobi scaling of
    CG on S, in float64 like D_r^{-1} and D_b.
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
        self.couple = _couplings(matrix, dt * self.inv_red_diag, self.red,
                                 blacks)
        self.couple_back = _couplings(matrix, dt, self.black, reds)
        back = self.couple_back
        weights = BandProduct(np.abs(back.bands) ** 2, back.offsets, reds)
        self.inv_diag = 1.0 / (self.black_diag - weights @ self.inv_red_diag)
        self.dtype = back.dtype
        self.shape = (blacks, blacks)
        # expand's gather of b_r, for even n
        self._red = None if n % 2 else aligned_empty(reds, self.dtype)

    def __matmul__(self, x):
        return self.dot(x)

    def dot(self, x, out=None):
        if out is None:
            out = aligned_empty(self.shape[0], self.dtype)
        red = self.couple.dot(x, out=self.couple_back.operand)
        self.couple_back.dot(red, out=out)
        # the product is done with its operand: reuse it for D_b x
        return np.subtract(np.multiply(self.black_diag, x, out=red[:out.size]),
                           out, out=out)

    def reduce(self, v, out=None):
        """v_b - C^H D_r^{-1} v_r of a row-major vector v."""
        if out is None:
            out = aligned_empty(self.shape[0], self.dtype)
        red = self.couple_back.operand
        np.multiply(_take(v, self.red, red), self.inv_red_diag, out=red)
        self.couple_back.dot(red, out=out)
        # the product is done with its operand: gather v_b there
        return np.subtract(_take(v, self.black, red[:out.size]), out, out=out)

    def black_of(self, v, out):
        """v's black nodes: a view of v for odd n, else gathered into out."""
        return _take(v, self.black, out)

    def expand(self, b, x_black, out=None):
        """The row-major x whose black nodes are x_black and whose red ones
        solve their rows of the lhs: x_r = D_r^{-1} b_r - (D_r^{-1} C) x_b.

        x is written into out, or into a new array.  For odd n x_r is
        formed in place in x; for even n b_r is gathered into _red, x_r
        formed there and scattered into x.
        """
        x = aligned_empty(b.size, self.dtype) if out is None else out
        x[self.black] = x_black
        coupled = self.couple.dot(x_black, out=self.couple_back.operand)
        red = x[self.red] if self._red is None else self._red
        np.multiply(_take(b, self.red, red), self.inv_red_diag, out=red)
        np.subtract(red, coupled, out=red)
        if self._red is not None:
            x[self.red] = red
        return x
