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
the stability experiments.

Polynomial weights carry exact coefficient tables; generic smooth weights
fall back on high-order central finite differences in x and y combined
into mixed Wirtinger derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import ConfigError

__all__ = [
    "PolynomialWeight",
    "SmoothWeight",
    "TaylorTable",
    "DeltaReport",
    "SubharmonicityReport",
    "taylor_table",
    "mu",
    "delta",
    "subharmonicity_audit",
    "get_weight",
    "WEIGHT_CATALOG",
    "SMOOTH_J_MAX",
]

#: truncation order used for generic smooth weights; finite-difference noise
#: dominates the higher entries, so requests beyond this are refused.
SMOOTH_J_MAX = 4

#: classification threshold: a search minimum below this counts as delta = 0.
DELTA_ZERO_TOL = 1e-8


# ---------------------------------------------------------------------------
# finite-difference machinery
# ---------------------------------------------------------------------------

def fd_weights(order, offsets):
    """Weights of the `order`-th derivative at 0 on the given integer offsets.

    Fornberg's recurrence; exact for the node set supplied.  `offsets` must
    contain at least order + 1 distinct values.
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    if order >= n:
        raise ValueError("need at least order+1 stencil nodes")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        mn = min(i, order)
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - x[i - 1] * c[i - 1, k]) / c2
                c[i, 0] = -c1 * x[i - 1] * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (x[i] * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = x[i] * c[j, 0] / c3
        c1 = c2
    return c[:, order]


class _WirtingerStencil:
    """Tensor stencils for mixed Wirtinger derivatives of a sampled function.

    d_z^j d_zbar^k is expanded through d_x^p d_y^q with the binomial identity

        d_z^j d_zbar^k = 2^-(j+k) * sum_{a<=j, b<=k} C(j,a) C(k,b)
                          (-i)^(j-a) i^(k-b) d_x^(a+b) d_y^(j+k-a-b),

    every 1-D derivative taken with central differences on a shared set of
    offsets.  One stencil object serves a whole batch of expansion points.
    """

    def __init__(self, j_max, h):
        self.j_max = int(j_max)
        self.h = float(h)
        max_order = 2 * self.j_max
        self.radius = max_order // 2 + 1
        self.offsets = np.arange(-self.radius, self.radius + 1)
        # 1-D weight rows for every derivative order, scaled by h^-order
        self._rows = [
            fd_weights(m, self.offsets) / self.h ** m
            for m in range(max_order + 1)
        ]
        self._tensors: Dict[Tuple[int, int], np.ndarray] = {}
        dx, dy = np.meshgrid(self.offsets, self.offsets, indexing="ij")
        #: complex displacements of the stencil nodes, flattened
        self.shifts = (dx + 1j * dy).ravel() * self.h

    def tensor(self, j, k):
        """Flattened complex weight tensor for d_z^j d_zbar^k."""
        key = (j, k)
        if key not in self._tensors:
            acc = np.zeros((self.offsets.size, self.offsets.size), dtype=complex)
            for a in range(j + 1):
                for b in range(k + 1):
                    coef = (
                        math.comb(j, a)
                        * math.comb(k, b)
                        * (-1j) ** (j - a)
                        * (1j) ** (k - b)
                    )
                    acc += coef * np.outer(self._rows[a + b], self._rows[(j - a) + (k - b)])
            self._tensors[key] = acc.ravel() / 2 ** (j + k)
        return self._tensors[key]


# ---------------------------------------------------------------------------
# weight classes
# ---------------------------------------------------------------------------

def _as_complex_array(z):
    return np.asarray(z, dtype=complex)


class PolynomialWeight:
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

    def _eval_table(self, table, z):
        z = _as_complex_array(z)
        out = np.zeros_like(z)
        for (j, k), c in table.items():
            out += c * z ** j * np.conj(z) ** k
        return out

    def eval(self, z):
        """phi(z); returns a real array of the same shape as z."""
        return self._eval_table(self.coeffs, z).real

    def d_z(self, z):
        return self.taylor_entry(1, 0, z)

    def d_zbar(self, z):
        return self.taylor_entry(0, 1, z)

    def d_z_zbar(self, z):
        return self.taylor_entry(1, 1, z)

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


class SmoothWeight:
    """Weight given by callables; derivatives fall back on finite differences.

    eval must accept complex ndarrays and return real values.  Analytic
    d_z / d_zbar / d_z_zbar callables may be supplied; anything missing is
    reconstructed with the stencil machinery at spacing h_fd.
    """

    def __init__(self, eval_fn, d_z=None, d_zbar=None, d_z_zbar=None,
                 h_fd=0.05, name="smooth"):
        self._eval = eval_fn
        self._d_z = d_z
        self._d_zbar = d_zbar
        self._d_z_zbar = d_z_zbar
        self.h_fd = float(h_fd)
        self.name = name
        self._stencil: Optional[_WirtingerStencil] = None

    def _get_stencil(self):
        if self._stencil is None:
            self._stencil = _WirtingerStencil(SMOOTH_J_MAX, self.h_fd)
        return self._stencil

    def eval(self, z):
        vals = np.asarray(self._eval(_as_complex_array(z)))
        if np.iscomplexobj(vals):
            if np.max(np.abs(vals.imag)) > 1e-10 * (1.0 + np.max(np.abs(vals.real))):
                raise ValueError("non-real weight: eval returned complex values")
            vals = vals.real
        return vals

    def _fd_entry(self, j, k, z):
        st = self._get_stencil()
        z = _as_complex_array(z)
        samples = self.eval(z[..., None] + st.shifts)
        return samples @ st.tensor(j, k)

    def d_z(self, z):
        if self._d_z is not None:
            return _as_complex_array(self._d_z(_as_complex_array(z)))
        return self._fd_entry(1, 0, z)

    def d_zbar(self, z):
        if self._d_zbar is not None:
            return _as_complex_array(self._d_zbar(_as_complex_array(z)))
        return self._fd_entry(0, 1, z)

    def d_z_zbar(self, z):
        if self._d_z_zbar is not None:
            return _as_complex_array(self._d_z_zbar(_as_complex_array(z)))
        return self._fd_entry(1, 1, z)

    def taylor_entry(self, j, k, z):
        return self._fd_entry(j, k, z) / (math.factorial(j) * math.factorial(k))


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


def _default_j_max(weight):
    if isinstance(weight, PolynomialWeight):
        return max(1, weight.degree)
    return SMOOTH_J_MAX


def _validate_j_max(weight, j_max):
    if j_max is None:
        return _default_j_max(weight)
    j_max = int(j_max)
    if j_max < 1:
        raise ConfigError("j_max must be >= 1")
    if not isinstance(weight, PolynomialWeight) and j_max > SMOOTH_J_MAX:
        raise ConfigError(
            "order overflow: smooth weights support j_max <= %d" % SMOOTH_J_MAX
        )
    return j_max


def taylor_table(weight, z, j_max=None):
    """Table of a_{jk}(z) for 1 <= j, k <= j_max at a single point z.

    For polynomial weights the entries are exact; for smooth weights they
    come from central finite differences at the weight's h_fd.  Conjugate
    symmetry a_{jk} = conj(a_{kj}) is checked as a realness guard.
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
    """Nondegeneracy radius mu(z, r) = min_{j,k} |r / a_{jk}|^{1/(j+k)}.

    Returns math.inf when every table entry vanishes (the convention
    |r / 0| = +inf).  r must be positive.
    """
    if r <= 0:
        raise ValueError("mu requires r > 0")
    tab = taylor_table(weight, z, j_max=j_max)
    best = math.inf
    for j in range(1, tab.j_max + 1):
        for k in range(1, tab.j_max + 1):
            a = abs(tab.entries[j - 1, k - 1])
            if a > 0.0:
                best = min(best, (r / a) ** (1.0 / (j + k)))
    return best


def _mu_inv_sq_batch(weight, z, j_max):
    """Vectorized mu(z,1)^-2 = max_{j,k} |a_{jk}(z)|^{2/(j+k)} over a batch."""
    z = _as_complex_array(z)
    out = np.zeros(z.shape, dtype=float)
    if isinstance(weight, PolynomialWeight):
        for j in range(1, j_max + 1):
            for k in range(1, j_max + 1):
                a = np.abs(weight.taylor_entry(j, k, z))
                np.maximum(out, a ** (2.0 / (j + k)), out=out)
        return out
    st = weight._get_stencil()
    samples = weight.eval(z[..., None] + st.shifts)
    for j in range(1, j_max + 1):
        for k in range(1, j_max + 1):
            a = np.abs(samples @ st.tensor(j, k)) / (
                math.factorial(j) * math.factorial(k)
            )
            np.maximum(out, a ** (2.0 / (j + k)), out=out)
    return out


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
    axis; each refinement round re-scans a shrinking square around the
    current argmin.  Ties within floating-point tolerance break toward the
    origin, which pins the canonical argmin on plateaus (flat weights are
    exactly zero near 0, so huge ties are the norm there, not an accident).
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
        vals = _mu_inv_sq_batch(weight, zz.ravel(), j_max)
        zfl = zz.ravel()
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

#: onset scale of the flat radial profile; e^{-SIGMA/t} keeps the weight
#: numerically zero on every grid this package uses while staying smooth,
#: convex and increasing in t = |z|^2 on the whole half-line.
FLAT_ONSET = 1000.0


def _flat_g(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore"):
        out[pos] = t[pos] ** 2 * np.exp(-FLAT_ONSET / t[pos])
    return out


def _flat_g1(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = (2.0 * t[pos] + FLAT_ONSET) * np.exp(-FLAT_ONSET / t[pos])
    return out


def _flat_g2(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = np.exp(-FLAT_ONSET / tp) * (
        2.0 + 2.0 * FLAT_ONSET / tp + (FLAT_ONSET / tp) ** 2
    )
    return out


def _make_flat_example():
    """Radial weight g(|z|^2) with g(t) = t^2 exp(-sigma/t) for t > 0, else 0.

    g is C-infinity on R, identically zero for t <= 0, and g', g'' > 0 for
    t > 0, so phi is smooth, subharmonic (Delta phi = 4(g' + t g'') >= 0),
    not harmonic, and flat to infinite order at the origin: every a_{jk}(0)
    vanishes, mu(0, r) = +inf and delta(phi) = 0.
    """

    def ev(z):
        return _flat_g(np.abs(z) ** 2)

    def dz(z):
        z = _as_complex_array(z)
        return _flat_g1(np.abs(z) ** 2) * np.conj(z)

    def dzbar(z):
        z = _as_complex_array(z)
        return _flat_g1(np.abs(z) ** 2) * z

    def dzzbar(z):
        z = _as_complex_array(z)
        t = np.abs(z) ** 2
        return (_flat_g1(t) + t * _flat_g2(t)).astype(complex)

    return SmoothWeight(ev, d_z=dz, d_zbar=dzbar, d_z_zbar=dzzbar,
                        name="flat_example")


def _build_catalog():
    return {
        "zero": lambda: PolynomialWeight({}, name="zero"),
        "modsq": lambda: PolynomialWeight({(1, 1): 1.0}, name="modsq"),
        "modquartic": lambda: PolynomialWeight({(2, 2): 1.0}, name="modquartic"),
        "harmonic_re_z2": lambda: PolynomialWeight(
            {(2, 0): 0.5, (0, 2): 0.5}, name="harmonic_re_z2"
        ),
        "flat_example": _make_flat_example,
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
