"""Weight functions and their pointwise complex-analytic geometry.

A weight is a smooth real-valued function phi on the complex plane.  The
package cares about three derived objects:

* the Wirtinger derivatives phi_z, phi_zbar, phi_zzbar that enter the
  operator coefficients,
* the normalized Taylor coefficients about a point w,

      a_{jk}(w) = 1/(j! k!) * d^{j+k} phi / dz^j dzbar^k (w),   j, k >= 1,

* the nondegeneracy radius mu(z, r) = inf_{j,k>=1} |r / a_{jk}(z)|^{1/(j+k)}
  (with mu = +inf when every a_{jk} vanishes) and the global constant

      delta(phi) = inf_z mu(z, 1)^{-2}  >= 0.

delta > 0 is what separates exponentially decaying semigroups from merely
polynomially decaying ones, so the search routine here is the backbone of
the stability experiments.  mu is vectorized over z, and both the delta
search and semigroup's kernel-envelope fit call it.

Both weight classes give every a_{jk} exactly, for any truncation order:
polynomial weights from their coefficient tables, radial weights
g(|z|^2) with g(t) = t^a exp(-sigma/t) from a recurrence on the
derivatives of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "PolynomialWeight",
    "RadialWeight",
    "TaylorTable",
    "DeltaReport",
    "SubharmonicityReport",
    "taylor_table",
    "mu",
    "delta",
    "subharmonicity_audit",
    "get_weight",
    "WEIGHT_CATALOG",
]

#: classification threshold: a search minimum below this counts as delta = 0.
DELTA_ZERO_TOL = 1e-8


# ---------------------------------------------------------------------------
# weight classes
# ---------------------------------------------------------------------------

def _as_complex_array(z):
    return np.asarray(z, dtype=complex)


class _TaylorWeight:
    """phi and its Wirtinger derivatives, each an entry of the Taylor
    table a_{jk} that a subclass's taylor_entry(j, k, z) gives:
    phi = a_00, phi_z = a_10, phi_zbar = a_01, phi_zzbar = a_11."""

    def eval(self, z):
        """phi(z); returns a real array of the same shape as z."""
        return self.taylor_entry(0, 0, z).real

    def d_z(self, z):
        return self.taylor_entry(1, 0, z)

    def d_zbar(self, z):
        return self.taylor_entry(0, 1, z)

    def d_z_zbar(self, z):
        return self.taylor_entry(1, 1, z)


class PolynomialWeight(_TaylorWeight):
    """Real-valued polynomial in z and zbar with exact derivative tables.

    coeffs maps (j, k) -> c_{jk} for phi(z) = sum c_{jk} z^j zbar^k.  Realness
    requires c_{jk} = conj(c_{kj}); construction rejects tables violating it.
    """

    def __init__(self, coeffs, name="polynomial"):
        cleaned = {}
        for (j, k), c in coeffs.items():
            j, k = int(j), int(k)
            if j < 0 or k < 0:
                raise ValueError("coefficient indices must be nonnegative")
            c = complex(c)
            if c != 0:
                cleaned[(j, k)] = c
        scale = max((abs(c) for c in cleaned.values()), default=0.0)
        for (j, k), c in cleaned.items():
            mirror = cleaned.get((k, j), 0.0)
            if abs(c - np.conj(mirror)) > 1e-12 * (1.0 + scale):
                raise ValueError(
                    "non-real weight: c[%d,%d] != conj(c[%d,%d])" % (j, k, k, j)
                )
        self.coeffs = cleaned
        self.name = name

    @property
    def degree(self):
        return max((j + k for j, k in self.coeffs), default=0)

    @property
    def default_j_max(self):
        """Truncation order that holds every nonzero a_{jk}."""
        return max(1, self.degree)

    def taylor_entry(self, j, k, z):
        """a_{jk}(z) = sum_{J>=j, K>=k} c_{JK} C(J,j) C(K,k) z^{J-j} zbar^{K-k}."""
        z = _as_complex_array(z)
        out = np.zeros_like(z)
        for (J, K), c in self.coeffs.items():
            if J >= j and K >= k:
                out += (
                    c
                    * math.comb(J, j)
                    * math.comb(K, k)
                    * z ** (J - j)
                    * np.conj(z) ** (K - k)
                )
        return out

    def analytic_delta_bound(self):
        """Best lower bound |c|^(2/(j+k)) over top coefficients constant in z.

        a_{jk} is independent of z exactly when no coefficient sits strictly
        above (j, k) in the componentwise order; each such nonzero entry
        bounds delta from below.  Returns None when no entry qualifies.
        """
        best = None
        for (j, k), c in self.coeffs.items():
            if j < 1 or k < 1:
                continue
            dominated = any(
                (J >= j and K >= k and (J, K) != (j, k))
                for (J, K) in self.coeffs
            )
            if not dominated:
                cand = abs(c) ** (2.0 / (j + k))
                best = cand if best is None else max(best, cand)
        return best


class RadialWeight(_TaylorWeight):
    """Radial weight phi(z) = g(|z|^2), g(t) = t^a exp(-sigma/t), exact tables.

    Every derivative of g is exp(-sigma/t) times a finite sum of powers of
    t, by the recurrence

        d/dt (t^e exp(-sigma/t)) = (sigma t^(e-2) + e t^(e-1)) exp(-sigma/t).

    With t = |z|^2 and m = min(j, k), the mixed Wirtinger derivatives of
    g(z zbar) give

        a_{jk}(z) = zbar^(j-m) z^(k-m)
                    sum_{i<=m} t^(m-i) g^(j+k-i)(t) / (i! (j-i)! (k-i)!).

    sigma > 0 makes phi flat to infinite order at the origin; sigma = 0
    gives the polynomial |z|^(2a).
    """

    #: truncation order of taylor_table, mu and delta when j_max is not
    #: given; any order may be asked for, this one sets the scans' cost.
    default_j_max = 4

    def __init__(self, a, sigma, name="radial"):
        self.sigma = float(sigma)
        self.name = name
        # _terms[n] holds g^(n) = exp(-sigma/t) sum c t^e as (e, c) pairs,
        # e descending
        self._terms = [[(a, 1.0)]]

    def _g(self, n, t):
        """g^(n)(t) on a real array t >= 0.

        The terms of g^(n) alternate in sign and are summed as they come,
        so precision falls as n grows: against 60-digit arithmetic, the
        diagonal Taylor entry (j, j) of flat_example at z = 5.9 is off by
        1e-13 relative at j = 6 and 1.7e-8 at j = 10.  The default
        j_max = 4 stays near 1e-14.
        """
        while len(self._terms) <= n:
            nxt = {}
            for e, c in self._terms[-1]:
                for e_new, c_new in ((e - 2, self.sigma * c), (e - 1, e * c)):
                    if c_new != 0:
                        nxt[e_new] = nxt.get(e_new, 0.0) + c_new
            if not all(map(math.isfinite, nxt.values())):
                raise ConfigError(
                    "order overflow: the coefficients of g^(%d) of %s "
                    "exceed the float range" % (len(self._terms), self.name))
            self._terms.append(sorted(nxt.items(), reverse=True))

        def poly(tt):
            out = np.zeros_like(tt)
            for e, c in self._terms[n]:
                out += c * tt ** e
            return out

        if self.sigma == 0:
            return poly(t)
        # only where the damping has not underflowed, so that high negative
        # powers of t never meet 0 * inf near the origin
        with np.errstate(divide="ignore"):
            damp = np.exp(-self.sigma / t)
        out = np.zeros_like(t)
        pos = damp > 0
        out[pos] = damp[pos] * poly(t[pos])
        return out

    def taylor_entry(self, j, k, z):
        """a_{jk}(z), vectorized over z; a_{jj} is real to the bit."""
        z = _as_complex_array(z)
        t = np.abs(z) ** 2
        m = min(j, k)
        radial = sum(
            t ** (m - i) * self._g(j + k - i, t)
            / (math.factorial(i) * math.factorial(j - i)
               * math.factorial(k - i))
            for i in range(m + 1)
        )
        return radial * (np.conj(z) ** (j - m) * z ** (k - m))


# ---------------------------------------------------------------------------
# Taylor tables, mu, delta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorTable:
    """Normalized mixed Taylor coefficients a_{jk} about a single point.

    entries[j-1, k-1] holds a_{jk} for 1 <= j, k <= j_max.
    """

    center: complex
    j_max: int
    entries: np.ndarray

    def entry(self, j, k):
        if not (1 <= j <= self.j_max and 1 <= k <= self.j_max):
            raise IndexError("taylor index out of range")
        return self.entries[j - 1, k - 1]


def _validate_j_max(weight, j_max):
    if j_max is None:
        return weight.default_j_max
    j_max = int(j_max)
    if j_max < 1:
        raise ConfigError("j_max must be >= 1")
    return j_max


def taylor_table(weight, z, j_max=None):
    """Table of a_{jk}(z) for 1 <= j, k <= j_max at a single point z.

    Conjugate symmetry a_{jk} = conj(a_{kj}) is checked as a realness
    guard.
    """
    j_max = _validate_j_max(weight, j_max)
    z = complex(z)
    entries = np.zeros((j_max, j_max), dtype=complex)
    for j in range(1, j_max + 1):
        for k in range(1, j_max + 1):
            entries[j - 1, k - 1] = complex(weight.taylor_entry(j, k, z))
    scale = np.max(np.abs(entries)) if entries.size else 0.0
    defect = np.max(np.abs(entries - entries.conj().T))
    if defect > 1e-6 * (1.0 + scale):
        raise ValueError("non-real weight: taylor table lost conjugate symmetry")
    return TaylorTable(center=z, j_max=j_max, entries=entries)


def mu(weight, z, r, j_max=None):
    """Nondegeneracy radius mu(z, r) = min_{j,k} |r / a_{jk}(z)|^{1/(j+k)}.

    Elementwise over an array z, a float at a single point; +inf where
    every a_{jk} vanishes (|r / 0| = +inf).  Formed as one over
    max |a_{jk} / r|^{1/(j+k)}, so that subnormal a_{jk} (flat_example's
    near its origin) do not overflow r / a_{jk}.  r must be positive.
    """
    if not r > 0:
        raise ValueError("mu requires r > 0")
    j_max = _validate_j_max(weight, j_max)
    z = _as_complex_array(z)
    inv = np.zeros(z.shape)
    for j in range(1, j_max + 1):
        for k in range(1, j_max + 1):
            a = np.abs(weight.taylor_entry(j, k, z)) / r
            np.maximum(inv, a ** (1.0 / (j + k)), out=inv)
    with np.errstate(divide="ignore"):
        out = 1.0 / inv
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DeltaReport:
    """Result of the global search for delta(phi) = inf_z mu(z,1)^-2."""

    delta: float
    argmin: complex
    mu_at_argmin: float
    classification: str
    extent: float
    resolution: int
    refine_rounds: int
    j_max: int
    analytic_lower_bound: Optional[float] = None

    @property
    def is_positive(self):
        return self.classification == "delta_positive"


def delta(weight, extent=4.0, resolution=41, refine_rounds=3, j_max=None):
    """Grid search with local refinement for delta(phi).

    The square [-extent, extent]^2 is scanned at `resolution` points per
    axis for mu(z, 1)^-2; each refinement round re-scans a shrinking
    square around the current argmin.  Ties within floating-point
    tolerance break toward the origin, which pins the canonical argmin on
    plateaus (flat weights are exactly zero near 0, so huge ties are the
    norm there, not an accident).
    """
    if extent <= 0:
        raise ConfigError("empty search domain: extent must be positive")
    if resolution < 2:
        raise ConfigError("resolution must be at least 2")
    j_max = _validate_j_max(weight, j_max)

    def scan(center, half_width):
        ax = np.linspace(-half_width, half_width, resolution)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        zz = (center.real + xx) + 1j * (center.imag + yy)
        zfl = zz.ravel()
        vals = mu(weight, zfl, 1.0, j_max=j_max) ** -2.0
        vmin = float(np.min(vals))
        tie = vals <= vmin + 1e-12 * (1.0 + vmin)
        cand = zfl[tie]
        pick = cand[np.argmin(np.abs(cand))]
        return vmin, complex(pick), 2.0 * half_width / (resolution - 1)

    best_val, best_z, cell = scan(0j, extent)
    for _ in range(refine_rounds):
        val, zc, cell = scan(best_z, 2.0 * cell)
        if val < best_val or (val <= best_val and abs(zc) < abs(best_z)):
            best_val, best_z = val, zc

    bound = None
    if isinstance(weight, PolynomialWeight):
        bound = weight.analytic_delta_bound()

    mu_arg = mu(weight, best_z, 1.0, j_max=j_max)
    cls = "delta_positive" if best_val > DELTA_ZERO_TOL else "delta_zero"
    return DeltaReport(
        delta=best_val,
        argmin=best_z,
        mu_at_argmin=mu_arg,
        classification=cls,
        extent=float(extent),
        resolution=int(resolution),
        refine_rounds=int(refine_rounds),
        j_max=j_max,
        analytic_lower_bound=bound,
    )


# ---------------------------------------------------------------------------
# subharmonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubharmonicityReport:
    min_laplacian: float
    threshold: float
    passed: bool
    argmin: complex


def subharmonicity_audit(weight, points):
    """Check Delta(phi) = 4 phi_zzbar >= 0 on the sampled points.

    The pass threshold is -1e-8 * (1 + max |Delta phi|) so that honest
    rounding noise on a subharmonic weight does not fail the audit while a
    genuinely superharmonic region does.
    """
    pts = _as_complex_array(points).ravel()
    lap = 4.0 * np.real(weight.d_z_zbar(pts))
    i = int(np.argmin(lap))
    thr = 1e-8 * (1.0 + float(np.max(np.abs(lap))))
    return SubharmonicityReport(
        min_laplacian=float(lap[i]),
        threshold=thr,
        passed=bool(lap[i] >= -thr),
        argmin=complex(pts[i]),
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

#: onset scale of the flat radial profile g(t) = t^2 exp(-FLAT_ONSET/t).
#: g is C-infinity on the half-line with g', g'' > 0, so phi = g(|z|^2) is
#: smooth, subharmonic (Delta phi = 4(g' + t g'') >= 0), not harmonic, and
#: flat to infinite order at the origin: every a_{jk}(0) vanishes,
#: mu(0, r) = +inf and delta(phi) = 0.
FLAT_ONSET = 1000.0


def _build_catalog():
    return {
        "zero": lambda: PolynomialWeight({}, name="zero"),
        "modsq": lambda: PolynomialWeight({(1, 1): 1.0}, name="modsq"),
        "modquartic": lambda: PolynomialWeight({(2, 2): 1.0}, name="modquartic"),
        "harmonic_re_z2": lambda: PolynomialWeight(
            {(2, 0): 0.5, (0, 2): 0.5}, name="harmonic_re_z2"
        ),
        "flat_example": lambda: RadialWeight(2, FLAT_ONSET,
                                             name="flat_example"),
    }


WEIGHT_CATALOG = _build_catalog()


def get_weight(name):
    """Instantiate a catalog weight by name."""
    try:
        factory = WEIGHT_CATALOG[name]
    except KeyError:
        raise KeyError(
            "unknown weight %r; catalog: %s" % (name, sorted(WEIGHT_CATALOG))
        ) from None
    return factory()
