"""Dense matrix-exponential oracle for the linear flow on tiny grids.

e^{-t Box} by scipy.linalg.expm (scaling and squaring) on the dense form
of the stencil: an independent check of the theta-scheme stepper, used
by acceptance 4 and the semigroup tests.
"""

from scipy.linalg import expm

from dbarheat import ComplexField, ConfigError

#: dense matrix exponentials are capped at this many points per axis.
EXPM_MAX_POINTS = 32


def expm_oracle(op, t):
    """Dense e^{-t A} by scaling and squaring; tiny grids only."""
    if op.spec.points > EXPM_MAX_POINTS:
        raise ConfigError(
            "dense oracle limited to grids with points <= %d" % EXPM_MAX_POINTS
        )
    return expm(-float(t) * op.matrix.tocsr().toarray())


def expm_evolve(op, u0, t):
    """Apply the dense oracle propagator to a field."""
    flat = expm_oracle(op, t) @ u0.ravel()
    return ComplexField(op.spec, flat.reshape(op.spec.points, -1))
