"""Operator assembly: hand-built references, closed-form spectra, audits."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbarheat import (
    ComplexField,
    ConfigError,
    GridSpec,
    PolynomialWeight,
    WEIGHT_CATALOG,
    apply_dbar,
    apply_dbar_star,
    assemble_box,
    bottom_eigenvalue,
    config_from_text,
    factorization_defect,
    get_weight,
    operator_audit,
    sample,
)
from dbarheat.boxop import (BoxOperator, Stencil, _row_pivot_inverses,
                           _row_solve)
from dbarheat.grid import ALIGN
from dense_oracle import csr
from placement import OFFSETS, offset_of, placed


def five_point_quarter_laplacian(spec):
    """Independent -Laplacian/4 with Dirichlet closure, built from scratch."""
    n, h = spec.points, spec.h
    main = 4.0 * np.ones(n * n)
    east = np.ones(n * n - 1)
    east[np.arange(1, n) * n - 1] = 0.0  # no wrap across grid rows
    north = np.ones(n * n - n)
    mat = sp.diags(
        [main, -east, -east, -north, -north], [0, 1, -1, n, -n], format="csr"
    )
    return mat / (4.0 * h ** 2)


def kron_box(spec, weight):
    """Box assembled with Kronecker products of 1-D difference matrices.

    The formulas of the original sparse assembly, kept as an independent
    oracle for the stencil: -Laplacian/4, the drift
    (i/2)(phi_x d_y - phi_y d_x) in the symmetrized form (c D + D c)/2, and
    the potential on the diagonal.
    """
    n, h = spec.points, spec.h
    zz = spec.nodes()
    eye = sp.identity(n, format="csr")
    d1 = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [-1, 1],
                  format="csr") / (2.0 * h)
    lap1 = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                    [-1, 0, 1], format="csr") / h ** 2
    dx = sp.kron(d1, eye, format="csr")
    dy = sp.kron(eye, d1, format="csr")
    lap = sp.kron(lap1, eye, format="csr") + sp.kron(eye, lap1, format="csr")

    def sym(coef, deriv):
        c = sp.diags(coef.ravel())
        return 0.5 * (c @ deriv + deriv @ c)

    phi_z = np.asarray(weight.d_z(zz), dtype=complex)
    potential = (np.abs(np.asarray(weight.d_zbar(zz))) ** 2
                 + np.real(np.asarray(weight.d_z_zbar(zz))))
    return (-0.25 * lap
            + 0.5j * (sym(2.0 * phi_z.real, dy) - sym(-2.0 * phi_z.imag, dx))
            + sp.diags(potential.ravel().astype(complex))).tocsr()


@pytest.mark.parametrize("points", [16, 33])
@pytest.mark.parametrize("name", sorted(WEIGHT_CATALOG))
def test_stencil_matches_kron_assembly(name, points):
    # the stencil repeats the Kronecker arithmetic, so the entries agree
    # to the bit for every catalog weight
    spec = GridSpec(extent=6.0, points=points)
    weight = get_weight(name)
    got = csr(assemble_box(spec, weight).matrix)
    want = kron_box(spec, weight)
    assert got.nnz == want.nnz == 5 * points ** 2 - 4 * points
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("points", [16, 33])
@pytest.mark.parametrize("name", sorted(WEIGHT_CATALOG))
def test_stencil_couplings_are_conjugate_to_the_bit(name, points):
    # the coefficient of (i, i + s) is the conjugate of that of (i + s, i)
    matrix = csr(assemble_box(GridSpec(extent=6.0, points=points),
                              get_weight(name)).matrix)
    mirror = matrix.getH().tocsr()
    matrix.sort_indices()
    mirror.sort_indices()
    assert np.array_equal(mirror.indices, matrix.indices)
    assert np.array_equal(mirror.data, matrix.data)


@pytest.mark.parametrize("name, extent", [("modsq", 6.0),
                                          ("flat_example", 10.0)])
@pytest.mark.parametrize("points", [16, 65, 241])
def test_stencil_product_matches_csr(name, extent, points):
    # n = 241 is split into row blocks, the last one partial; the vector
    # is non-zero on the boundary ring, where couplings leave the grid
    op = assemble_box(GridSpec(extent=extent, points=points),
                      get_weight(name))
    rng = np.random.default_rng(points)
    u = rng.standard_normal(op.spec.size()) + 1j * rng.standard_normal(
        op.spec.size())
    assert np.all(u.reshape(points, points)[[0, -1]] != 0)
    want = csr(op.matrix) @ u
    got = op.matrix @ u
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert op.matrix.nnz == 5 * points ** 2 - 4 * points


def band_sum(bands, offsets, x):
    """sum_k bands[k, i] x[i + offsets[k]], the terms added in offset
    order, with x[j] = 0 for j outside 0..len(x)-1; a complex x on real
    bands is summed as its real and its imaginary part."""
    if x.dtype.kind == "c" and bands.dtype.kind == "f":
        out = np.empty(bands.shape[1], dtype=complex)
        out.real = band_sum(bands, offsets, x.real)
        out.imag = band_sum(bands, offsets, x.imag)
        return out
    node = np.arange(bands.shape[1])
    total = None
    for coef, offset in zip(bands, offsets):
        index = node + offset
        inside = (index >= 0) & (index < x.size)
        shifted = np.zeros(node.size, dtype=x.dtype)
        shifted[inside] = x[index[inside]]
        term = coef * shifted
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("name", ["zero", "modsq"], ids=["real", "complex"])
@pytest.mark.parametrize("points", [16, 17, 129])
def test_stencil_product_is_the_ordered_band_sum_bitwise(name, points):
    # n = 129 runs over three row blocks; real x, complex x (on real
    # bands too) and x written into operand by hand give, to the bit, the
    # five terms added in offset order
    op = assemble_box(GridSpec(extent=6.0, points=points), get_weight(name))
    matrix = op.matrix
    assert matrix.dtype == (np.float64 if name == "zero" else np.complex128)
    rng = np.random.default_rng(points)
    size = op.spec.size()
    real = rng.standard_normal(size)
    for x in (real, real + 1j * rng.standard_normal(size)):
        want = band_sum(matrix.bands, matrix.offsets, x)
        got = matrix @ x
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        out = np.empty_like(want)
        assert matrix.dot(x, out=out) is out
        assert out.tobytes() == want.tobytes()
    want = band_sum(matrix.bands, matrix.offsets, real)
    matrix.operand[...] = real
    assert matrix.dot(matrix.operand).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["zero", "modsq"], ids=["real", "complex"])
@pytest.mark.parametrize("points", [33, 129])
def test_stencil_product_is_bitwise_at_every_offset(name, points):
    # x and y placed at each byte offset from a cache line that numpy can
    # give them: the product is the same to the bit (n = 129 runs over
    # three blocks), and its out=None result starts on a line
    op = assemble_box(GridSpec(extent=6.0, points=points), get_weight(name))
    matrix = op.matrix
    rng = np.random.default_rng(points)
    size = op.spec.size()
    real = rng.standard_normal(size)
    for x in (real, real + 1j * rng.standard_normal(size)):
        want = matrix @ x
        assert offset_of(want) == 0
        for at_x, at_y in itertools.product(OFFSETS, OFFSETS):
            y = placed(np.zeros_like(want), at_y)
            assert offset_of(y) == at_y
            assert matrix.dot(placed(x, at_x), out=y) is y
            assert y.tobytes() == want.tobytes()


def test_stencil_buffers_start_on_cache_lines():
    # the bands (row by row), the pad's operand, the block scratch and
    # every block of an aligned output start on a cache line, and blocks
    # cover the rows without a short tail
    for name, points in (("zero", 129), ("modsq", 129), ("modsq", 241)):
        matrix = assemble_box(GridSpec(extent=6.0, points=points),
                              get_weight(name)).matrix
        for product in (matrix, matrix.scaled(0.01, shift=1.0)):
            assert all(offset_of(band) == 0 for band in product.bands)
            assert offset_of(product.operand) == 0
            assert offset_of(product._prod) == 0
            line = ALIGN // product.dtype.itemsize
            lengths = [rows.stop - rows.start
                       for rows, _, _ in product._blocks]
            assert sum(lengths) == product.shape[0]
            assert all(rows.start % line == 0
                       for rows, _, _ in product._blocks)
            assert min(lengths) > max(lengths) - line * len(lengths)


def test_zero_weight_matrix_is_quarter_laplacian():
    spec = GridSpec(extent=6.0, points=33)
    op = assemble_box(spec, get_weight("zero"))
    ref = five_point_quarter_laplacian(spec)
    assert abs(csr(op.matrix) - ref).max() < 1e-14


def test_modsq_potential_and_diagonal():
    spec = GridSpec(extent=6.0, points=33)
    op = assemble_box(spec, get_weight("modsq"))
    zz = spec.nodes()
    # phi = |z|^2: |phi_zbar|^2 + phi_zzbar = |z|^2 + 1 exactly, and the
    # drift terms have empty diagonal, so diag = 1/h^2 + potential
    want = 1.0 / spec.h ** 2 + (np.abs(zz) ** 2 + 1.0)
    assert np.array_equal(op.matrix.bands[2], want.ravel())


@pytest.mark.parametrize("name", ["zero", "modsq", "modquartic",
                                  "harmonic_re_z2"])
def test_hermitian_by_construction(name):
    op = assemble_box(GridSpec(extent=6.0, points=33), get_weight(name))
    matrix = csr(op.matrix)
    defect = matrix - matrix.getH()
    assert defect.nnz == 0 or np.max(np.abs(defect.data)) == 0.0


def test_apply_dbar_star_on_monomials():
    # zero weight: Dbar* u = -d_z u; exact for quadratics
    spec = GridSpec(extent=6.0, points=65)
    zz = spec.nodes()
    w0 = get_weight("zero")
    zsq = sample(spec, lambda z: z ** 2)
    assert np.max(np.abs(apply_dbar_star(w0, zsq).values + 2.0 * zz)) < 1e-10
    zbsq = sample(spec, lambda z: np.conj(z) ** 2)
    assert np.max(np.abs(apply_dbar_star(w0, zbsq).values)) < 1e-10
    # modsq adds phi_z u = zbar u
    wm = get_weight("modsq")
    got = apply_dbar_star(wm, zsq).values
    want = -2.0 * zz + np.conj(zz) * zz ** 2
    assert np.max(np.abs(got - want)) < 1e-10


def test_apply_dbar_annihilates_weighted_holomorphic():
    # Dbar(e^{-phi} f) = 0 for holomorphic f; phi = |z|^2, f = z.
    # The discrete residual is pure truncation error, so it is small and
    # shrinks at second order under refinement
    w = get_weight("modsq")
    resid = {}
    for n in (129, 257):
        spec = GridSpec(extent=6.0, points=n)
        u = sample(spec, lambda z: z * np.exp(-np.abs(z) ** 2))
        r = apply_dbar(w, u).values
        resid[n] = np.max(np.abs(r[2:-2, 2:-2]))
    assert resid[129] < 2e-2 * 0.43  # peak of |u| is about 0.43
    assert math.log2(resid[129] / resid[257]) > 1.8


def test_factorization_defect_second_order():
    defects = []
    for n in (33, 65):
        op = assemble_box(GridSpec(extent=6.0, points=n), get_weight("modsq"))
        defects.append(factorization_defect(op))
    order = math.log2(defects[0] / defects[1])
    assert order > 1.8


def test_lambda_min_zero_weight_closed_form():
    # -Laplacian/4 with Dirichlet ring: lambda_min = (2/h^2) sin^2(pi/(2(n+1)))
    for n in (33, 65):
        spec = GridSpec(extent=6.0, points=n)
        op = assemble_box(spec, get_weight("zero"))
        audit = operator_audit(op, trials=2)
        exact = (2.0 / spec.h ** 2) * math.sin(math.pi / (2 * (n + 1))) ** 2
        assert audit.lambda_min == pytest.approx(exact, rel=1e-9)


def test_lambda_min_frozen_values():
    # dense-solve references; modsq approaches the Landau level 2 from below
    op16 = assemble_box(GridSpec(extent=6.0, points=16), get_weight("modsq"))
    a16 = operator_audit(op16, trials=0)
    assert a16.lambda_min == pytest.approx(1.91066937, abs=1e-6)
    op33 = assemble_box(GridSpec(extent=6.0, points=33), get_weight("modsq"))
    a33 = operator_audit(op33, trials=0)
    assert a33.lambda_min == pytest.approx(1.98093536, abs=1e-6)
    assert a33.lambda_min < 2.0


def test_lambda_min_landau_level_second_order():
    # phi = |z|^2: Box = Dbar* Dbar + 2 phi_zzbar has spectrum {2, 4, 6, ...}
    # in the plane, so the discrete bottom eigenvalue approaches the Landau
    # level 2 from below with an O(h^2) error
    gaps = []
    for n in (33, 65, 129):
        op = assemble_box(GridSpec(extent=6.0, points=n), get_weight("modsq"))
        lam = operator_audit(op, trials=0).lambda_min
        assert lam < 2.0
        gaps.append(2.0 - lam)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.8 <= math.log2(coarse / fine) <= 2.2


@pytest.mark.parametrize("name", sorted(WEIGHT_CATALOG))
def test_lambda_min_matches_dense_eigh(name):
    # a dense eigenvalue is only good to about eps ||Box|| absolute, 1e-10
    # relative for modquartic (||Box|| = 1.5e6); the Rayleigh quotient of
    # its eigenvector is good to rounding
    op = assemble_box(GridSpec(extent=6.0, points=16), get_weight(name))
    dense = csr(op.matrix).toarray()
    v = np.linalg.eigh(dense)[1][:, 0]
    rayleigh = np.vdot(v, dense @ v).real / np.vdot(v, v).real
    lam = operator_audit(op, trials=0).lambda_min
    assert lam == pytest.approx(rayleigh, rel=1e-12)


@pytest.mark.parametrize("name", ["modsq", "flat_example"])
@pytest.mark.parametrize("n", [16, 33, 65])
def test_block_solve_residual(name, n):
    op = assemble_box(GridSpec(extent=6.0, points=n), get_weight(name))
    rng = np.random.default_rng(n)
    b = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    x = _row_solve(op.matrix, _row_pivot_inverses(op.matrix), b)
    assert np.linalg.norm(op.matrix @ x - b) <= 1e-13 * np.linalg.norm(b)


def _landau_cluster_box(n, extent=6.0):
    """modsq's Box with magnetic-link couplings, -exp(-i h avg phi_x)/(4h^2)
    to the next y node and -exp(i h avg phi_y)/(4h^2) to the next x node,
    and 1/h^2 + phi_zzbar on the diagonal: its bottom is a cluster of
    near-equal eigenvalues, the discrete lowest Landau level."""
    spec = GridSpec(extent=extent, points=n)
    zz, h = spec.nodes(), spec.h
    phi_x, phi_y = 2.0 * zz.real, 2.0 * zz.imag
    link = -0.25 / h ** 2
    to_next_y = link * np.exp(-0.5j * h * (phi_x[:, :-1] + phi_x[:, 1:]))
    to_next_x = link * np.exp(0.5j * h * (phi_y[:-1] + phi_y[1:]))
    bands = np.zeros((5, n, n), dtype=complex)
    bands[0, 1:] = to_next_x.conj()
    bands[1, :, 1:] = to_next_y.conj()
    bands[2] = 1.0 / h ** 2 + 1.0
    bands[3, :, :-1] = to_next_y
    bands[4, :-1] = to_next_x
    return BoxOperator(spec, get_weight("modsq"),
                       Stencil(n, bands.reshape(5, n * n)))


def _dense_bottom_box(n):
    # no couplings and the diagonal 1 + 1e-4 k: n^2 eigenvalues 1e-4 apart
    bands = np.zeros((5, n * n))
    bands[2] = 1.0 + 1e-4 * np.arange(n * n)
    return BoxOperator(GridSpec(extent=6.0, points=n), get_weight("zero"),
                       Stencil(n, bands))


@pytest.mark.parametrize("build, want", [
    (lambda: _landau_cluster_box(28), None),
    (lambda: _dense_bottom_box(48), 1.0),
], ids=["landau-cluster", "dense-bottom"])
def test_lambda_min_of_a_clustered_bottom(build, want):
    # the Ritz vector of a clustered bottom converges slowly (a stop on it
    # ran out of Lanczos steps on both); the Ritz value does not
    op = build()
    if want is None:
        want = np.linalg.eigvalsh(csr(op.matrix).toarray())[0]
    assert abs(bottom_eigenvalue(op) - want) <= 1e-12


@pytest.mark.parametrize("split", [1e-10, 1e-8])
def test_lambda_min_of_a_near_degenerate_pair(split):
    # two mirror-image halves, one shifted by split: until Lanczos resolves
    # the pair, its largest Ritz value is a mix of the two with a large
    # gap to the next one, and must not be taken for converged
    n = 16
    op = assemble_box(GridSpec(extent=6.0, points=n), get_weight("zero"))
    bands = op.matrix.bands.copy().reshape(5, n, n)
    bands[4, n // 2 - 1] = bands[0, n // 2] = 0.0
    bands[2, :n // 2] += split
    split_op = BoxOperator(op.spec, op.weight,
                           Stencil(n, bands.reshape(5, n * n)))
    want = np.linalg.eigvalsh(csr(split_op.matrix).toarray())[0]
    assert abs(bottom_eigenvalue(split_op) - want) <= 1e-12 * want


def test_lambda_min_reruns_bitwise(op_modsq16):
    first = bottom_eigenvalue(op_modsq16)
    assert bottom_eigenvalue(op_modsq16) == first
    assert operator_audit(op_modsq16, trials=0).lambda_min == first


def test_rayleigh_quotients_nonnegative():
    op = assemble_box(GridSpec(extent=6.0, points=33), get_weight("modquartic"))
    audit = operator_audit(op, trials=25, seed=3, compute_lambda_min=False)
    assert audit.hermitian_defect == 0.0
    assert audit.rayleigh_min >= -1e-8
    assert audit.lambda_min is None


_quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
_complex_quarters = st.tuples(_quarters, _quarters)
_NO_TERMS = [(0.0, 0.0)] * 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(const=_quarters,
       harmonic=st.lists(_complex_quarters, min_size=3, max_size=3),
       factor=st.lists(_complex_quarters, min_size=3, max_size=3))
@example(const=1.5, harmonic=_NO_TERMS, factor=_NO_TERMS)
def test_random_subharmonic_polynomials(const, harmonic, factor):
    # phi = c + Re(a_1 z + a_2 z^2 + a_3 z^3) + |q_0 + q_1 z + q_2 z^2|^2
    # has Delta phi = 4 |q'|^2 >= 0; dyadic coefficients keep every term,
    # and the Hermitian symmetry of the table, exact
    terms = [(0, 0, complex(const))]
    for j, (re, im) in enumerate(harmonic, 1):
        terms += [(j, 0, complex(re, im) / 2), (0, j, complex(re, -im) / 2)]
    q = [complex(re, im) for re, im in factor]
    terms += [(j, k, q[j] * q[k].conjugate())
              for j, k in itertools.product(range(3), repeat=2)]
    text = "\n    ".join("%d %d %r %r" % (j, k, c.real, c.imag)
                          for j, k, c in terms)
    weight = config_from_text("[weight]\nkind = polynomial\nterms = %s\n"
                              % text).weight()
    spec = GridSpec(extent=2.0, points=12)
    op = assemble_box(spec, weight)
    audit = operator_audit(op, trials=4, compute_lambda_min=False)
    assert audit.hermitian_defect == 0.0
    assert audit.rayleigh_min >= 0.0
    # Box is real, and stored as float64, exactly when phi_z vanishes
    flat = not np.any(weight.d_z(spec.nodes()))
    assert op.matrix.dtype == (np.float64 if flat else np.complex128)


def test_assemble_rejects_superharmonic_weight():
    sup = PolynomialWeight({(1, 1): -1.0}, name="superharmonic")
    with pytest.raises(ConfigError, match="subharmonicity"):
        assemble_box(GridSpec(extent=6.0, points=16), sup)
