"""Grid, norms, Wirtinger derivatives: closed forms and exact identities."""

import math

import numpy as np
import pytest

from dbarheat import (
    ComplexField,
    GridSpec,
    boundary_mass,
    d_z,
    d_zbar,
    inner,
    lp_norm,
    sample,
)
from dbarheat.grid import (ALIGN, DOT_CHUNK, aligned_empty, vdot,
                           vector_norm)

SPEC = GridSpec(extent=6.0, points=129)


def test_grid_geometry():
    assert SPEC.h == pytest.approx(12.0 / 128)
    ax = SPEC.axis()
    assert ax[0] == -6.0 and ax[-1] == 6.0
    zz = SPEC.nodes()
    # z[ix, iy] = x + i y
    assert zz[0, 0] == -6.0 - 6.0j
    assert zz[-1, 0] == 6.0 - 6.0j
    assert zz[64, 64] == 0j


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(extent=-1.0, points=16)
    with pytest.raises(ValueError):
        GridSpec(extent=1.0, points=4)


def test_nearest_index_snaps_and_clips():
    assert SPEC.nearest_index(0j) == (64, 64)
    assert SPEC.nearest_index(100.0 + 100.0j) == (128, 128)
    ix, iy = SPEC.nearest_index(0.04 - 0.04j)
    ax = SPEC.axis()
    assert abs(complex(ax[ix], ax[iy]) - (0.04 - 0.04j)) <= SPEC.h


def test_field_shape_and_grid_guards():
    with pytest.raises(ValueError):
        ComplexField(SPEC, np.zeros((3, 3)))
    a = ComplexField.zeros(SPEC)
    b = ComplexField.zeros(GridSpec(extent=6.0, points=65))
    with pytest.raises(ValueError):
        a + b


def test_gaussian_norm_closed_forms():
    # ||e^{-|z|^2}||_p^p = integral e^{-p|z|^2} = pi/p; rectangle rule is
    # spectrally accurate for this decay, truncation at |x|=6 is ~e^{-36}
    g = sample(SPEC, lambda z: np.exp(-np.abs(z) ** 2))
    assert lp_norm(g, 2) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert lp_norm(g, 1) == pytest.approx(math.pi, rel=1e-12)
    assert lp_norm(g, 3) == pytest.approx((math.pi / 3) ** (1 / 3), rel=1e-12)
    assert lp_norm(g, math.inf) == 1.0
    assert lp_norm(g, "inf") == 1.0


def test_lp_norm_rejects_bad_p():
    g = ComplexField.zeros(SPEC)
    with pytest.raises(ValueError):
        lp_norm(g, 0.0)


def test_holder_inequality_property():
    rng = np.random.default_rng(5)
    shape = (SPEC.points, SPEC.points)
    f = ComplexField(SPEC, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    g = ComplexField(SPEC, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    prod = ComplexField(SPEC, f.values * g.values)
    assert lp_norm(prod, 1) <= lp_norm(f, 2) * lp_norm(g, 2) * (1 + 1e-12)


def test_wirtinger_exact_on_quadratics():
    # centered and edge_order=2 one-sided stencils are exact on degree <= 2
    zsq = sample(SPEC, lambda z: z ** 2)
    zz = SPEC.nodes()
    assert np.max(np.abs(d_z(zsq).values - 2.0 * zz)) < 1e-10
    assert np.max(np.abs(d_zbar(zsq).values)) < 1e-10
    zbsq = sample(SPEC, lambda z: np.conj(z) ** 2)
    assert np.max(np.abs(d_zbar(zbsq).values - 2.0 * np.conj(zz))) < 1e-10
    assert np.max(np.abs(d_z(zbsq).values)) < 1e-10


def test_wirtinger_integration_by_parts():
    # <d_z u, v> = -<u, d_zbar v> for fields vanishing at the boundary
    u = sample(SPEC, lambda z: np.exp(-np.abs(z - 0.5) ** 2))
    v = sample(SPEC, lambda z: np.exp(-np.abs(z + 0.3j) ** 2 / 1.5))
    defect = abs(inner(d_z(u), v) + inner(u, d_zbar(v)))
    assert defect < 1e-12


def test_inner_product_conjugate_linearity():
    u = sample(SPEC, lambda z: np.exp(-np.abs(z) ** 2))
    assert inner(u, u).real == pytest.approx(lp_norm(u, 2) ** 2, rel=1e-12)
    assert inner(2j * u, u) == pytest.approx(2j * inner(u, u))
    assert inner(u, 2j * u) == pytest.approx(-2j * inner(u, u))


def test_boundary_mass_sees_only_the_ring():
    f = ComplexField.zeros(SPEC)
    f.values[40, 50] = 9.0
    assert boundary_mass(f) == 0.0
    f.values[0, 17] = 3.0 - 4.0j
    assert boundary_mass(f) == pytest.approx(5.0)
    f.values[128, 128] = 7.0
    assert boundary_mass(f) == pytest.approx(7.0)


@pytest.mark.parametrize("shape", [1, 7, 16641, (5, 33), (3, 4, 5)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.uint8])
def test_aligned_empty_starts_on_a_cache_line(shape, dtype):
    # repeated, so that allocations at every heap offset are seen
    for _ in range(8):
        a = aligned_empty(shape, dtype)
        assert a.shape == np.empty(shape).shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data % ALIGN == 0


def random_vectors(size, seed):
    """Two complex vectors of the given size."""
    re, im = np.random.default_rng(seed).standard_normal((2, 2, size))
    return re + 1j * im


@pytest.mark.parametrize("size", [0, 1, 257, DOT_CHUNK])
def test_vdot_is_one_blas_call_up_to_a_chunk(size):
    x, y = random_vectors(size, size)
    assert vdot(x, y) == np.vdot(x, y)
    # real parts: strided, as np.linalg.norm reads them, then contiguous
    assert vdot(x.real, y.real) == x.real.dot(y.real)
    a, b = x.real.copy(), y.real.copy()
    assert vdot(a, b) == a.dot(b) == np.vdot(a, b)
    assert vector_norm(x) == np.linalg.norm(x)
    assert vector_norm(a) == np.linalg.norm(a)
    assert vector_norm(x.reshape(1, -1)) == np.linalg.norm(x)


@pytest.mark.parametrize("size, step", [(DOT_CHUNK + 1, 5001),
                                        (129 ** 2, 8321),
                                        (241 ** 2, 9681)])
def test_vdot_adds_equal_chunks_in_order(size, step):
    # the fewest equal chunks of at most DOT_CHUNK entries, the last
    # shorter by what the size leaves over
    chunks = -(-size // step)
    assert step <= DOT_CHUNK < size / (chunks - 1)
    assert size <= step * chunks < size + chunks
    x, y = random_vectors(size, size)
    for a, b, dot in ((x, y, np.vdot), (x.real, y.real, np.ndarray.dot),
                      (x.imag.copy(), y.imag.copy(), np.ndarray.dot)):
        want = dot(a[:step], b[:step])
        for lo in range(step, size, step):
            want += dot(a[lo:lo + step], b[lo:lo + step])
        got = vdot(a, b)
        assert got == want and type(got) is type(want)
        assert abs(got - np.vdot(a, b)) <= 1e-13 * abs(np.vdot(a, b))
    # a 2-d field is read in C order, its real and imaginary parts strided
    field = x[:129 ** 2].reshape(129, 129) if size >= 129 ** 2 else x
    flat = field.reshape(-1)
    want = math.sqrt(vdot(flat.real, flat.real) + vdot(flat.imag, flat.imag))
    assert vector_norm(field) == want
    assert vector_norm(field) == pytest.approx(np.linalg.norm(field),
                                               rel=1e-13)
