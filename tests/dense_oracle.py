"""Matrix oracles for the stencil: its CSR form and the dense e^{-t Box}.

csr(stencil) is Box as a scipy CSR matrix, built from Stencil.entries();
the operator tests compare it against independent assemblies, and its
entries sorted by (row, col) (csr_rows) are the oracle of the matrix
dump.  e^{-t Box} by scipy.linalg.expm (scaling and squaring) on its
dense form is an independent check of the theta-scheme stepper, used by
acceptance 4 and the semigroup tests.
"""

import scipy.sparse as sp
from scipy.linalg import expm

from dbarheat import ComplexField, ConfigError

#: dense matrix exponentials are capped at this many points per axis.
EXPM_MAX_POINTS = 32


def csr(stencil):
    """The stencil's couplings as a scipy CSR matrix."""
    rows, cols, values = stencil.entries()
    return sp.csr_matrix((values, (rows, cols)), shape=stencil.shape)


def csr_rows(stencil):
    """(row, col, re, im) of each entry of csr(stencil), by row then col."""
    coo = csr(stencil).tocoo()
    return sorted((int(r), int(c), v.real, v.imag)
                  for r, c, v in zip(coo.row, coo.col, coo.data))


def expm_oracle(op, t):
    """Dense e^{-t A} by scaling and squaring; tiny grids only."""
    if op.spec.points > EXPM_MAX_POINTS:
        raise ConfigError(
            "dense oracle limited to grids with points <= %d" % EXPM_MAX_POINTS
        )
    return expm(-float(t) * csr(op.matrix).toarray())


def expm_evolve(op, u0, t):
    """Apply the dense oracle propagator to a field."""
    flat = expm_oracle(op, t) @ u0.ravel()
    return ComplexField(op.spec, flat.reshape(op.spec.points, -1))
