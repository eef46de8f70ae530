"""The weighted heat operator: field-level factors and sparse assembly.

With phi a real subharmonic weight, the twisted Cauchy-Riemann operator and
its formal L^2(dA) adjoint are

    Dbar  u =  d_zbar u + phi_zbar * u,
    Dbar* u = -d_z    u + phi_z    * u,

and the box operator Box = Dbar Dbar* expands into the magnetic Schrodinger
form actually assembled here:

    Box u = -u_zzbar - phi_zbar u_z + phi_z u_zbar
            + (|phi_zbar|^2 + phi_zzbar) u.

Discretization on the tensor grid: -d^2/dz dzbar = -Laplacian/4 with the
standard five-point stencil, first-order terms with centered differences in
the symmetrized form (c D + D c)/2 so the assembled matrix is Hermitian to
the last bit, potential on the diagonal, zero-Dirichlet closure at the
boundary ring.  The symmetrization is consistent at O(h^2) because the
magnetic drift (phi_x, phi_y)-rotated is divergence free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ConvergenceError
from .grid import ComplexField, GridSpec, d_z, d_zbar
from .weights import subharmonicity_audit

__all__ = [
    "BoxOperator",
    "OperatorAudit",
    "apply_dbar",
    "apply_dbar_star",
    "assemble_box",
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


@dataclass(frozen=True)
class BoxOperator:
    """Assembled operator with the coefficient fields it was built from."""

    spec: GridSpec
    weight: object
    matrix: sp.csr_matrix
    potential: np.ndarray
    phi_z: np.ndarray
    phi_zbar: np.ndarray

    def apply(self, field):
        """Matrix action on a field, reshaped back onto the grid."""
        flat = self.matrix @ field.ravel()
        return ComplexField(self.spec, flat.reshape(self.spec.points, -1))


def _centered_d1(n, h):
    d = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [-1, 1], format="csr")
    return d / (2.0 * h)


def _lap_1d(n, h):
    return sp.diags(
        [np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1],
        format="csr",
    ) / h ** 2


def _sym(coef_flat, deriv):
    c = sp.diags(coef_flat)
    return 0.5 * (c @ deriv + deriv @ c)


def assemble_box(spec, weight):
    """Assemble Box = Dbar Dbar* on the grid as a Hermitian sparse matrix.

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
    eye = sp.identity(n, format="csr")
    dx = sp.kron(_centered_d1(n, h), eye, format="csr")
    dy = sp.kron(eye, _centered_d1(n, h), format="csr")
    lap = sp.kron(_lap_1d(n, h), eye, format="csr") + sp.kron(
        eye, _lap_1d(n, h), format="csr"
    )

    phi_z = np.asarray(weight.d_z(zz), dtype=complex)
    phi_zbar = np.asarray(weight.d_zbar(zz), dtype=complex)
    phi_zzbar = np.real(np.asarray(weight.d_z_zbar(zz)))
    potential = np.abs(phi_zbar) ** 2 + phi_zzbar

    # phi_x = 2 Re phi_z, phi_y = -2 Im phi_z for real phi
    phi_x = 2.0 * phi_z.real
    phi_y = -2.0 * phi_z.imag

    matrix = (
        -0.25 * lap
        + 0.5j * (_sym(phi_x.ravel(), dy) - _sym(phi_y.ravel(), dx))
        + sp.diags(potential.ravel().astype(complex))
    ).tocsr()

    return BoxOperator(
        spec=spec,
        weight=weight,
        matrix=matrix,
        potential=potential,
        phi_z=phi_z,
        phi_zbar=phi_zbar,
    )


def factorization_defect(op, width_fraction=0.25):
    """Sup-norm mismatch between the matrix and Dbar(Dbar* u) on a bump.

    u is a Gaussian bump of width extent*width_fraction, so it is
    numerically zero on the boundary ring; the comparison excludes the two
    outermost rings where the matrix's Dirichlet closure and the one-sided
    field stencils legitimately differ.  Expected to shrink like O(h^2).
    """
    spec = op.spec
    zz = spec.nodes()
    sigma = (spec.extent * width_fraction) ** 2
    bump = ComplexField(spec, np.exp(-np.abs(zz) ** 2 / sigma))
    via_matrix = op.apply(bump)
    via_factors = apply_dbar(op.weight, apply_dbar_star(op.weight, bump))
    diff = np.abs(via_matrix.values - via_factors.values)
    return float(np.max(diff[2:-2, 2:-2]))


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


def operator_audit(op, trials=20, seed=0, compute_lambda_min=True):
    """Spot checks of the assembled matrix.

    Reports the entrywise Hermitian defect (zero by construction, verified
    anyway), the minimum Rayleigh quotient over random complex fields, the
    factorization defect against the matrix-free factors, and the smallest
    eigenvalue.  That one is the eigenvalue nearest 0 by shift-invert
    Lanczos (ARPACK), which is the bottom of the spectrum because Box is
    positive semidefinite; the start vector is drawn from seed, so reruns
    are byte-identical.
    """
    matrix = op.matrix
    dh = matrix - matrix.getH()
    hermitian_defect = float(np.max(np.abs(dh.data))) if dh.nnz else 0.0
    matrix_scale = float(np.max(np.abs(matrix.data)))

    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    ray_min = np.inf
    for _ in range(trials):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        ray = float(np.real(np.vdot(x, matrix @ x)) / np.real(np.vdot(x, x)))
        ray_min = min(ray_min, ray)

    lam = None
    if compute_lambda_min:
        # deferred: ARPACK is needed only here, not on the stepping path
        from scipy.sparse.linalg import eigsh

        rng = np.random.default_rng(seed)
        v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        try:
            vals = eigsh(matrix.tocsc(), k=1, sigma=0, v0=v0,
                         return_eigenvectors=False)
        except RuntimeError as exc:  # ArpackNoConvergence or singular LU
            raise ConvergenceError("bottom eigenvalue solve failed: %s" % exc)
        lam = float(vals[0])

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
