"""Uniform tensor grid on a truncated copy of the complex plane.

The computational domain is the square [-extent, extent]^2 identified with
{z = x + iy}; fields are complex arrays indexed values[ix, iy] with
x = -extent + ix*h, y = -extent + iy*h, h = 2*extent/(points-1).  Everything
outside the square is treated as zero (Dirichlet closure), and the largest
modulus on the outermost node ring is tracked as the truncation indicator.

Wirtinger derivatives are built from np.gradient, i.e. second-order central
differences inside and second-order one-sided stencils on the boundary:

    d_z = (d_x - i d_y) / 2,     d_zbar = (d_x + i d_y) / 2.

L^p norms use the rectangle rule with weight h^2 per node, which is
spectrally accurate for the rapidly decaying fields this package evolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "GridSpec",
    "ComplexField",
    "sample",
    "d_z",
    "d_zbar",
    "lp_norm",
    "inner",
    "boundary_mass",
]


@dataclass(frozen=True)
class GridSpec:
    """Square grid: half-width `extent`, `points` nodes per axis (>= 8)."""

    extent: float
    points: int

    def __post_init__(self):
        if not self.extent > 0:
            raise ConfigError("extent must be positive")
        if self.points < 8:
            raise ConfigError("grid needs at least 8 points per axis")
        if not 0.0 < self.h * self.h < math.inf:  # the stencil takes 1/h^2
            raise ConfigError("grid spacing h = %g is out of range" % self.h)

    @property
    def h(self):
        return 2.0 * self.extent / (self.points - 1)

    def axis(self):
        return np.linspace(-self.extent, self.extent, self.points)

    def nodes(self):
        """Complex node array of shape (points, points), z[ix, iy]."""
        ax = self.axis()
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        return xx + 1j * yy

    def size(self):
        return self.points * self.points

    def nearest_index(self, z):
        """Indices (ix, iy) of the node closest to the complex point z."""
        z = complex(z)
        ix = int(round((z.real + self.extent) / self.h))
        iy = int(round((z.imag + self.extent) / self.h))
        ix = min(max(ix, 0), self.points - 1)
        iy = min(max(iy, 0), self.points - 1)
        return ix, iy


class ComplexField:
    """Complex-valued field sampled on a GridSpec.

    Thin wrapper around a (points, points) complex ndarray; arithmetic is
    provided only as far as the solvers need it.
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (spec.points, spec.points):
            raise ValueError("field shape does not match grid")
        self.spec = spec
        self.values = values

    @classmethod
    def zeros(cls, spec):
        return cls(spec, np.zeros((spec.points, spec.points), dtype=complex))

    def copy(self):
        return ComplexField(self.spec, self.values.copy())

    def ravel(self):
        return self.values.ravel()

    def __add__(self, other):
        self._check(other)
        return ComplexField(self.spec, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return ComplexField(self.spec, self.values - other.values)

    def __mul__(self, scalar):
        return ComplexField(self.spec, self.values * scalar)

    __rmul__ = __mul__

    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("fields live on different grids")


def sample(spec, fn):
    """Sample a callable of complex z (vectorized) into a ComplexField."""
    return ComplexField(spec, np.asarray(fn(spec.nodes()), dtype=complex))


def _dx(values, h):
    return np.gradient(values, h, axis=0, edge_order=2)


def _dy(values, h):
    return np.gradient(values, h, axis=1, edge_order=2)


def d_z(field):
    """Wirtinger d/dz = (d_x - i d_y)/2."""
    h = field.spec.h
    return ComplexField(
        field.spec, 0.5 * (_dx(field.values, h) - 1j * _dy(field.values, h))
    )


def d_zbar(field):
    """Wirtinger d/dzbar = (d_x + i d_y)/2."""
    h = field.spec.h
    return ComplexField(
        field.spec, 0.5 * (_dx(field.values, h) + 1j * _dy(field.values, h))
    )


def lp_norm(field, p):
    """Rectangle-rule L^p norm; p = inf gives the max modulus over nodes."""
    if p == math.inf or (isinstance(p, str) and p == "inf"):
        return float(np.max(np.abs(field.values)))
    p = float(p)
    if p <= 0:
        raise ConfigError("lp_norm requires p > 0 or p = inf, got %g" % p)
    h2 = field.spec.h ** 2
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float((np.sum(np.abs(field.values) ** p) * h2) ** (1.0 / p))


def inner(u, v):
    """L^2 inner product <u, v> = sum u * conj(v) * h^2."""
    u._check(v)
    return complex(np.sum(u.values * np.conj(v.values)) * u.spec.h ** 2)


def boundary_mass(field):
    """Max modulus on the outermost node ring; the truncation indicator."""
    v = np.abs(field.values)
    return float(
        max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max())
    )
