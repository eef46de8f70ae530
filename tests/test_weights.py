"""Taylor tables, mu, delta: checked against independent symbolic machinery."""

import math

import numpy as np
import pytest

from dbarheat import (
    ConfigError,
    PolynomialWeight,
    RadialWeight,
    delta,
    get_weight,
    mu,
    subharmonicity_audit,
    taylor_table,
)


# -- independent oracle: differentiate coefficient dicts symbolically --------

def sym_d(coeffs, dj, dk):
    """d_z^dj d_zbar^dk of sum c z^j zbar^k, as a new coefficient dict."""
    out = {}
    for (j, k), c in coeffs.items():
        if j >= dj and k >= dk:
            fac = math.perm(j, dj) * math.perm(k, dk)
            out[(j - dj, k - dk)] = out.get((j - dj, k - dk), 0.0) + c * fac
    return out


def sym_eval(coeffs, z):
    return sum(c * z ** j * np.conj(z) ** k for (j, k), c in coeffs.items())


def sym_taylor(coeffs, j, k, z):
    return sym_eval(sym_d(coeffs, j, k), z) / (
        math.factorial(j) * math.factorial(k))


POINTS = [0j, 1.0 + 0j, 0.3 - 0.7j, -1.2 + 0.4j]


@pytest.mark.parametrize("name", ["modsq", "modquartic", "harmonic_re_z2"])
def test_polynomial_taylor_matches_symbolic_oracle(name):
    w = get_weight(name)
    jm = max(1, w.degree)
    for z in POINTS:
        tab = taylor_table(w, z, j_max=jm)
        for j in range(1, jm + 1):
            for k in range(1, jm + 1):
                want = sym_taylor(w.coeffs, j, k, complex(z))
                assert abs(tab.entry(j, k) - want) < 1e-12


@pytest.mark.parametrize("name", ["modsq", "modquartic", "harmonic_re_z2"])
def test_polynomial_accessors_match_symbolic_oracle(name):
    w = get_weight(name)
    z = np.array(POINTS)
    assert np.all(np.abs(w.eval(z) - sym_eval(w.coeffs, z).real) < 1e-12)
    for accessor, (j, k) in ((w.d_z, (1, 0)), (w.d_zbar, (0, 1)),
                             (w.d_z_zbar, (1, 1))):
        want = sym_eval(sym_d(w.coeffs, j, k), z)
        assert np.all(np.abs(accessor(z) - want) < 1e-12)


def test_modquartic_a21_is_2zbar():
    # phi = |z|^4: d_z^2 d_zbar |z|^4 / (2! 1!) = 2 zbar
    w = get_weight("modquartic")
    for z in POINTS:
        assert abs(w.taylor_entry(2, 1, z) - 2.0 * np.conj(z)) < 1e-12


def test_taylor_table_index_range():
    tab = taylor_table(get_weight("modsq"), 0.5 + 0.5j, j_max=2)
    with pytest.raises(IndexError):
        tab.entry(0, 1)
    with pytest.raises(IndexError):
        tab.entry(3, 1)


def test_taylor_table_conjugate_symmetry():
    for name in ("modsq", "modquartic", "harmonic_re_z2"):
        tab = taylor_table(get_weight(name), 0.7 - 0.2j)
        e = tab.entries
        assert np.max(np.abs(e - e.conj().T)) < 1e-12


def test_mu_modsq_is_sqrt_r():
    # only a_11 = 1 survives, so mu(z, r) = r^{1/2} everywhere
    w = get_weight("modsq")
    for r in (0.25, 1.0, 4.0):
        assert abs(mu(w, 0.3 + 1j, r) - math.sqrt(r)) < 1e-12


def test_mu_empty_table_is_infinite():
    assert mu(get_weight("zero"), 0j, 1.0) == math.inf
    assert mu(get_weight("harmonic_re_z2"), 1.0 + 2.0j, 1.0) == math.inf


def test_mu_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        mu(get_weight("modsq"), 0j, 0.0)


def test_mu_matches_direct_minimum():
    w = get_weight("modquartic")
    z = 0.8 - 0.3j
    tab = taylor_table(w, z)
    direct = min(
        (1.0 / abs(tab.entry(j, k))) ** (1.0 / (j + k))
        for j in range(1, tab.j_max + 1)
        for k in range(1, tab.j_max + 1)
        if abs(tab.entry(j, k)) > 0
    )
    assert abs(mu(w, z, 1.0) - direct) < 1e-12


@pytest.mark.parametrize("a, name", [(1, "modsq"), (2, "modquartic")])
def test_radial_weight_reproduces_polynomial_tables(a, name):
    # sigma = 0 leaves g(t) = t^a, so phi = |z|^(2a) is a catalog polynomial
    radial, poly = RadialWeight(a, 0.0), get_weight(name)
    z = np.array(POINTS)
    for j in range(7):
        for k in range(7):
            got = radial.taylor_entry(j, k, z)
            assert np.all(np.abs(got - poly.taylor_entry(j, k, z)) < 1e-12)


def test_flat_example_matches_symbolic_derivatives():
    # independent oracle: sympy differentiates (z zbar)^2 exp(-1000/(z zbar))
    # in z and zbar taken as independent variables
    import sympy as sp

    zs, zbs = sp.symbols("z zbar")
    t = zs * zbs
    phi = t ** 2 * sp.exp(-1000 / t)
    w = get_weight("flat_example")
    pts = [3 + 2j, 4j, 5.9 + 0j]
    # j, k <= 4 covers the default delta scan (RadialWeight.default_j_max)
    for j in range(5):
        for k in range(5):
            d = sp.diff(phi, zs, j, zbs, k)
            for z in pts:
                zq = sp.Rational(z.real) + sp.I * sp.Rational(z.imag)
                subs = {zs: zq, zbs: sp.conjugate(zq)}
                want = complex(d.subs(subs).evalf(40)) / (
                    math.factorial(j) * math.factorial(k))
                got = complex(w.taylor_entry(j, k, z))
                assert abs(got - want) < 1e-12 * abs(want), (j, k, z)
    # exact tables lift the truncation cap: any order is available
    assert delta(w, j_max=6).delta == 0.0


def test_radial_order_overflow_is_a_config_error():
    # the coefficients of g^(n) grow like FLAT_ONSET^n and leave the float
    # range at n = 102: such orders are refused instead of returning nan
    w = get_weight("flat_example")
    assert np.isfinite(w.taylor_entry(51, 50, 5.9 + 0j))
    with pytest.raises(ConfigError, match="order overflow"):
        w.taylor_entry(51, 51, 5.9 + 0j)


def test_polynomial_realness_guard():
    with pytest.raises(ValueError, match="non-real"):
        PolynomialWeight({(2, 0): 1.0})
    # conjugate-symmetric table is fine
    PolynomialWeight({(2, 0): 0.5j, (0, 2): -0.5j})


def test_analytic_delta_bound():
    assert get_weight("modsq").analytic_delta_bound() == 1.0
    assert get_weight("modquartic").analytic_delta_bound() == 1.0
    assert get_weight("harmonic_re_z2").analytic_delta_bound() is None
    assert get_weight("zero").analytic_delta_bound() is None


def test_delta_values_of_catalog():
    assert delta(get_weight("modsq")).delta == pytest.approx(1.0, abs=1e-12)
    assert delta(get_weight("harmonic_re_z2")).delta == 0.0
    dq = delta(get_weight("modquartic"))
    assert dq.delta == pytest.approx(1.0, abs=1e-6)
    assert abs(dq.argmin) < 1e-6


def test_delta_classification_and_argmin_flat():
    rep = delta(get_weight("flat_example"))
    assert rep.delta == 0.0
    assert rep.classification == "delta_zero"
    assert rep.mu_at_argmin == math.inf
    # plateau tie-break pins the argmin at the origin cell
    assert abs(rep.argmin) <= rep.extent / (rep.resolution - 1) + 1e-12


def test_delta_scan_argument_validation():
    with pytest.raises(ValueError, match="extent"):
        delta(get_weight("modsq"), extent=0.0)
    with pytest.raises(ValueError):
        delta(get_weight("modsq"), resolution=1)


def test_flat_example_is_numerically_zero_but_smooth():
    w = get_weight("flat_example")
    # e^{-1000/|z|^2} underflows outright near the origin and stays far
    # below measurable signal across the whole scan domain
    near = np.array([0j, 0.5 + 0.5j, 1.0j])
    assert np.all(w.eval(near) == 0.0)
    far = np.array([3.0 - 2.0j, 4.0j])
    assert np.all(np.abs(w.eval(far)) < 1e-24)
    assert np.all(w.d_z_zbar(np.array([5.9 + 0j])).real >= 0.0)


def test_subharmonicity_audit():
    pts = np.array([0j, 1 + 1j, -2j, 3.0 + 0.5j])
    assert subharmonicity_audit(get_weight("modsq"), pts).passed
    assert subharmonicity_audit(get_weight("harmonic_re_z2"), pts).passed
    sup = PolynomialWeight({(1, 1): -1.0}, name="superharmonic")
    rep = subharmonicity_audit(sup, pts)
    assert not rep.passed
    assert rep.min_laplacian == pytest.approx(-4.0)


def test_get_weight_unknown_name():
    with pytest.raises(KeyError):
        get_weight("no_such_weight")
