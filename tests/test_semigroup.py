"""Linear flow and heat kernels: dense oracles, closed forms, envelopes."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import dstn, idstn
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as scipy_cg

from dbarheat import (
    ComplexField,
    ConfigError,
    GridSpec,
    Nonlinearity,
    NumericalError,
    StepperConfig,
    Trajectory,
    assemble_box,
    config_from_text,
    evolve_linear,
    get_preset,
    get_weight,
    heat_kernel,
    kernel_bound_check,
    lp_norm,
    preset_names,
    sample,
)
from dbarheat import semigroup
from dbarheat.boxop import BandProduct, BoxOperator, Stencil
from dbarheat.redblack import SchurComplement
from dbarheat.semigroup import Propagator, _upper_hull_fit
from dbarheat.weights import WEIGHT_CATALOG
from dense_oracle import csr, expm_evolve, expm_oracle
from placement import OFFSETS, offset_of, placed


def test_stepper_config_validation():
    with pytest.raises(ConfigError):
        StepperConfig(dt=0.0)
    with pytest.raises(ConfigError):
        StepperConfig(dt=0.1, scheme="forward_euler")
    with pytest.raises(ConfigError):
        StepperConfig(dt=0.1, tol=-1.0)
    for tol in (1.0, 5.0):  # tol >= 1 would accept x = x0 as every solve
        with pytest.raises(ConfigError, match="outside"):
            StepperConfig(dt=0.1, tol=tol)


def test_schedule_refuses_absurd_step_counts():
    # a time that takes more than MAX_STEPS steps is a config error, found
    # before any step is made
    dt = 1e-3
    times, steps = semigroup._schedule_steps(
        [0.0, 0.5 * semigroup.MAX_STEPS * dt], dt)
    assert steps == [0, semigroup.MAX_STEPS // 2]
    with pytest.raises(ConfigError, match="more than"):
        semigroup._schedule_steps([0.0, 2.0 * semigroup.MAX_STEPS * dt], dt)
    with pytest.raises(ConfigError, match="more than"):
        semigroup._schedule_steps([0.0, 1.0], 1e-320)


# NaN compares false with everything, so each check must be "not x > 0"
@pytest.mark.parametrize("build", [
    lambda: StepperConfig(dt=math.nan),
    lambda: StepperConfig(dt=0.01, tol=math.nan),
    lambda: GridSpec(extent=math.nan, points=16),
    lambda: Nonlinearity(m=math.nan),
    lambda: Nonlinearity(m=math.inf),
], ids=["dt-nan", "tol-nan", "extent-nan", "m-nan", "m-inf"])
def test_api_constructors_refuse_nan(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
def test_propagator_step_matches_dense_formula(op_modsq16, gaussian16,
                                               scheme):
    dt = 0.01
    theta = {"crank_nicolson": 0.5, "backward_euler": 1.0}[scheme]
    prop = Propagator(op_modsq16, StepperConfig(dt=dt, scheme=scheme,
                                                tol=1e-13))
    assert not hasattr(prop, "rhs_matrix") and not hasattr(prop, "step")
    u = gaussian16.ravel()
    got = prop.advance(u, 1)
    A = csr(op_modsq16.matrix).toarray()
    eye = np.eye(A.shape[0], dtype=complex)
    want = np.linalg.solve(eye + theta * dt * A,
                           (eye - (1.0 - theta) * dt * A) @ u)
    assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want)


def test_free_propagator_runs_plain_cg(op_zero33):
    # a constant lhs diagonal gains nothing from Jacobi scaling
    assert Propagator(op_zero33, StepperConfig(dt=0.01)).preconditioner is None


def _count_cg_iterations(monkeypatch):
    iters = []
    real_cg = semigroup.cg

    def counted_cg(*args, **kwargs):
        visits = []
        out = real_cg(*args, callback=visits.append, **kwargs)
        iters.append(len(visits))
        return out

    monkeypatch.setattr(semigroup, "cg", counted_cg)
    return iters


def test_high_contrast_propagator_runs_jacobi_cg(monkeypatch):
    # flat_example's potential climbs steeply towards the corners of the
    # extent-10 square, so the lhs diagonal spreads by about 100: the step
    # runs Jacobi-scaled CG on the Schur complement over the black nodes,
    # in fewer iterations than Jacobi-scaled CG on the whole grid
    spec = GridSpec(extent=10.0, points=33)
    op = assemble_box(spec, get_weight("flat_example"))
    prop = Propagator(op, StepperConfig(dt=0.0125))
    assert isinstance(prop.lhs, SchurComplement)
    assert prop.preconditioner is prop.lhs.inv_diag
    iters = _count_cg_iterations(monkeypatch)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(spec.size()) + 1j * rng.standard_normal(spec.size())
    b = u - 0.5 * 0.0125 * (op.matrix @ u)
    lhs = op.matrix.scaled(prop.implicit_dt, shift=1.0)
    r0 = b - lhs @ u
    schur = prop.solve(b, x0=u, r0=r0)
    full, info = semigroup.cg(lhs, u, r0, prop.cfg.tol * np.linalg.norm(b),
                              500, 1.0 / lhs.bands[2].real)
    assert info == 0
    assert iters[0] < iters[1]  # 4 against 7 when written
    assert np.linalg.norm(schur - full) <= 1e-8 * np.linalg.norm(full)


def test_real_stencils_have_a_constant_diagonal_and_a_plain_lhs():
    # the Schur path runs only in complex128: on every grid of a preset,
    # the catalog weights and a constant config polynomial give float64
    # bands only for the zero and the constant weight, whose diagonal is
    # the constant 1/h^2, so their steps take the plain path
    grids = set()
    for name in preset_names():
        cfg = get_preset(name)
        if cfg.has("grid", "points"):
            grids.add((cfg.grid(), cfg.get("stepper", "dt", 0.01)))
    weights = [get_weight(name) for name in WEIGHT_CATALOG] + [
        config_from_text("[weight]\nkind = polynomial\n"
                         "terms = 0 0 3.0 0.0\n").weight()]
    real = 0
    for (spec, dt), weight in itertools.product(sorted(grids, key=str),
                                                weights):
        matrix = assemble_box(spec, weight).matrix
        if matrix.dtype == np.complex128:
            continue
        real += 1
        assert matrix.dtype == np.float64
        assert np.all(matrix.bands[2] == 1.0 / spec.h ** 2)
        prop = Propagator(BoxOperator(spec, weight, matrix),
                          StepperConfig(dt=dt))
        assert type(prop.lhs) is Stencil and prop.preconditioner is None
    assert grids and real == 2 * len(grids)


def _stiff_op(weight, points):
    # both weights' lhs diagonals spread far beyond JACOBI_MIN_SPREAD here
    extent = {"flat_example": 10.0, "modquartic": 6.0}[weight]
    return assemble_box(GridSpec(extent=extent, points=points),
                        get_weight(weight))


@pytest.mark.parametrize("points", [16, 17])
@pytest.mark.parametrize("weight", ["flat_example", "modquartic"])
def test_schur_complement_matches_dense_elimination(weight, points):
    # S = D_b - C^H D_r^-1 C from the dense lhs, red = (ix + iy) even
    op = _stiff_op(weight, points)
    dt = 0.01
    schur = SchurComplement(op.matrix, dt)
    lhs = np.eye(points ** 2) + dt * csr(op.matrix).toarray()
    ix, iy = np.divmod(np.arange(points ** 2), points)
    colour = (ix + iy) % 2
    red, black = np.flatnonzero(colour == 0), np.flatnonzero(colour)
    assert np.array_equal(np.arange(points ** 2)[schur.red], red)
    assert np.array_equal(np.arange(points ** 2)[schur.black], black)
    want = lhs[np.ix_(black, black)] - lhs[np.ix_(black, red)] @ (
        lhs[np.ix_(red, black)] / np.diag(lhs)[red, None])
    rng = np.random.default_rng(3)
    x = rng.standard_normal(black.size) + 1j * rng.standard_normal(black.size)
    scale = np.abs(want).max()
    assert (np.abs(schur @ x - want @ x).max()
            <= 1e-13 * scale * np.abs(x).max())
    assert np.allclose(1.0 / schur.inv_diag, np.diag(want).real,
                       rtol=1e-14, atol=0)


def test_schur_complement_on_real_bands_keeps_the_imaginary_part():
    # real bands (the zero weight's, with a ramp on the diagonal) give a
    # complex128 Schur complement that applies a complex vector as the
    # same bands stored as complex numbers do
    op = assemble_box(GridSpec(extent=6.0, points=17), get_weight("zero"))
    bands = op.matrix.bands.copy()
    bands[2] += np.linspace(0.0, 50.0, bands.shape[1])
    real = SchurComplement(Stencil(17, bands), 0.01)
    cplx = SchurComplement(Stencil(17, bands.astype(complex)), 0.01)
    assert real.dtype == cplx.dtype == np.complex128
    rng = np.random.default_rng(4)
    x = rng.standard_normal(real.shape[0]) + 1j * rng.standard_normal(
        real.shape[0])
    v = rng.standard_normal(17 ** 2) + 1j * rng.standard_normal(17 ** 2)
    got = real @ x
    assert got.dtype == np.complex128 and np.any(got.imag)
    assert got.tobytes() == (cplx @ x).tobytes()
    assert real.reduce(v).tobytes() == cplx.reduce(v).tobytes()
    assert real.expand(v, x).tobytes() == cplx.expand(v, x).tobytes()
    assert real.inv_diag.tobytes() == cplx.inv_diag.tobytes()


def _colour_sum(matrix, scale, nodes, x):
    """sum over the grid neighbours j = i - n, i - 1, i + 1, i + n of each
    node i of nodes (row-major indices), added in that order, of
    (scale_i Box[i, j]) x[j], for a row-major x; a neighbour off the grid
    adds (scale_i * 0) * 0."""
    n = matrix.n
    ix, iy = np.divmod(nodes, n)
    total = None
    for k, (dx, dy) in zip((0, 1, 3, 4), ((-1, 0), (0, -1), (0, 1), (1, 0))):
        inside = ((0 <= ix + dx) & (ix + dx < n)
                  & (0 <= iy + dy) & (iy + dy < n))
        neighbour = np.zeros(nodes.size, dtype=x.dtype)
        neighbour[inside] = x[nodes[inside] + dx * n + dy]
        term = np.multiply(scale, matrix.bands[k, nodes]) * neighbour
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("points", [16, 33])
def test_schur_products_are_the_formulas_bitwise(points):
    # couple = D_r^-1 C, couple_back = C^H, S, reduce and expand against
    # the same sums over grid neighbours written out by colour; even n
    # packs its rows with zero bands in between, odd n does not
    op = _stiff_op("flat_example", points)
    matrix, dt = op.matrix, 0.00625
    schur = SchurComplement(matrix, dt)
    ix, iy = np.divmod(np.arange(points ** 2), points)
    red = np.flatnonzero((ix + iy) % 2 == 0)
    black = np.flatnonzero((ix + iy) % 2)
    diag = 1.0 + dt * matrix.bands[2].real
    inv_red = 1.0 / diag[red]
    rng = np.random.default_rng(points)

    def vector(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def on_grid(nodes, values):
        full = np.zeros(points ** 2, dtype=values.dtype)
        full[nodes] = values
        return full

    def couple(x_black):
        return _colour_sum(matrix, dt * inv_red, red, on_grid(black, x_black))

    def couple_back(x_red):
        return _colour_sum(matrix, dt, black, on_grid(red, x_red))

    x_black, x_red, v = vector(black.size), vector(red.size), vector(
        points ** 2)
    expanded = on_grid(black, x_black)
    expanded[red] = v[red] * inv_red - couple(x_black)
    checks = [
        (schur.couple @ x_black, couple(x_black)),
        (schur.couple_back @ x_red, couple_back(x_red)),
        (schur @ x_black, diag[black] * x_black - couple_back(couple(x_black))),
        (schur.reduce(v), v[black] - couple_back(v[red] * inv_red)),
        (schur.expand(v, x_black), expanded),
    ]
    for got, want in checks:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
@pytest.mark.parametrize("points", [16, 17, 33])
@pytest.mark.parametrize("weight", ["flat_example", "modquartic"])
def test_schur_solve_matches_dense_solve(weight, points, scheme):
    # one step from x0 = u (as advance makes it) and from x0 = 0, against
    # a dense solve of I + theta dt Box; every solve meets the residual
    # test on the full system
    op = _stiff_op(weight, points)
    cfg = StepperConfig(dt=0.01, scheme=scheme, tol=1e-10)
    prop = Propagator(op, cfg)
    assert isinstance(prop.lhs, SchurComplement)
    lhs = (np.eye(points ** 2)
           + prop.implicit_dt * csr(op.matrix).toarray())
    spec = op.spec
    u = sample(spec, lambda z: 0.3 * np.exp(-np.abs(z - 0.5j) ** 2)).ravel()
    au = op.matrix @ u
    b = u - prop.explicit_dt * au
    want = np.linalg.solve(lhs, b)
    bnorm = np.linalg.norm(b)
    for kwargs in ({"x0": u, "r0": b - u - prop.implicit_dt * au},
                   {"x0": np.zeros_like(u), "r0": b}):
        got = prop.solve(b, **kwargs)
        assert np.linalg.norm(b - lhs @ got) <= cfg.tol * bnorm
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


@pytest.mark.parametrize("node", [(8, 8), (8, 9)], ids=["red", "black"])
def test_schur_solve_of_a_one_colour_rhs(node):
    # a backward-Euler step of a delta on one node: its right-hand side
    # lives on one colour only, and the reduced one must not read as zero
    op = _stiff_op("flat_example", 17)
    cfg = StepperConfig(dt=0.0125, scheme="backward_euler")
    prop = Propagator(op, cfg)
    u = np.zeros(op.spec.size(), dtype=complex)
    u[node[0] * 17 + node[1]] = 1.0 / op.spec.h ** 2
    lhs = np.eye(u.size) + cfg.dt * csr(op.matrix).toarray()
    want = np.linalg.solve(lhs, u)
    for got in (prop.advance(u, 1),
                prop.solve(u, x0=np.zeros_like(u), r0=u)):
        assert np.linalg.norm(u - lhs @ got) <= cfg.tol * np.linalg.norm(u)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_schur_solve_of_zero_and_overflowed_rhs(recwarn):
    # b = 0 gives x = 0 from any start; an overflowed b raises without a
    # numpy warning, from x0 = 0 or from x0 = u
    op = _stiff_op("flat_example", 17)
    prop = Propagator(op, StepperConfig(dt=0.0125))
    u = np.full(op.spec.size(), 1e300, dtype=complex)
    zero = np.zeros_like(u)
    r0 = -(u + prop.implicit_dt * (op.matrix @ u))  # b - lhs u for b = 0
    assert not np.any(prop.solve(zero, x0=u, r0=r0))
    b = u.copy()
    b[5] = np.inf
    for kwargs in ({"x0": zero, "r0": b}, {"x0": u, "r0": b - u}):
        with pytest.raises(NumericalError, match="overflowed"):
            prop.solve(b, **kwargs)
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("points", [16, 33])
def test_stiff_solve_makes_two_products_per_iteration(monkeypatch, points):
    # one reduce, one S product (C, then C^H) per CG iteration and one
    # expand: 2k + 2 half-grid band products for k iterations, with no
    # pass of the full lhs stencil
    op = _stiff_op("flat_example", points)
    prop = Propagator(op, StepperConfig(dt=0.0125))
    assert prop.lhs.dtype == np.complex128  # no real/imaginary split
    products = []
    real_dot = BandProduct.dot

    def counted_dot(self, x, out=None):
        products.append(self.shape[0])
        return real_dot(self, x, out=out)

    iters = _count_cg_iterations(monkeypatch)
    monkeypatch.setattr(BandProduct, "dot", counted_dot)
    u = sample(op.spec, lambda z: 0.3 * np.exp(-np.abs(z - 0.5j) ** 2)).ravel()
    b = u - prop.explicit_dt * (op.matrix @ u)
    r0 = b - u - prop.implicit_dt * (op.matrix @ u)
    del products[:]
    prop.solve(b, x0=u, r0=r0)
    assert len(iters) == 1 and iters[0] > 0
    assert len(products) == 2 * iters[0] + 2
    assert max(products) <= (points ** 2 + 1) // 2


def _stiff_step(prop, op, u):
    """(b, x0, r0) of one step from u, as advance forms them."""
    au = op.matrix @ u
    b = u - prop.explicit_dt * au
    return b, u, b - u - prop.implicit_dt * au


#: bytes tracemalloc may see at the peak of a repeated stiff solve at
#: n = 65: the returned x (65^2 complex numbers, 67600 bytes) and two
#: half-grid vectors (33792 bytes each), room for numpy's cast buffers.
#: A solve that makes its CG vectors afresh peaks at 272040 bytes.
STIFF_SOLVE_PEAK = 67600 + 2 * 33792


def test_repeated_stiff_solve_allocates_only_its_result():
    # the second solve on a Propagator reuses the CG vectors and reduce's
    # output of the first, and expand forms the red half in place
    op = _stiff_op("flat_example", 65)
    prop = Propagator(op, StepperConfig(dt=0.0125))
    assert isinstance(prop.lhs, SchurComplement)
    u = sample(op.spec, lambda z: 0.3 * np.exp(-np.abs(z - 0.5j) ** 2)).ravel()
    b, x0, r0 = _stiff_step(prop, op, u)
    first = prop.solve(b, x0=x0, r0=r0)
    tracemalloc.start()
    try:
        second = prop.solve(b, x0=x0, r0=r0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second.tobytes() == first.tobytes()
    assert peak < STIFF_SOLVE_PEAK


def test_stiff_solve_result_outlives_the_next_solve():
    op = _stiff_op("flat_example", 33)
    prop = Propagator(op, StepperConfig(dt=0.0125))
    u = sample(op.spec, lambda z: 0.3 * np.exp(-np.abs(z - 0.5j) ** 2)).ravel()
    x = prop.solve(*_stiff_step(prop, op, u))
    kept = x.copy()
    y = prop.solve(*_stiff_step(prop, op, 2.0 * x))
    assert not np.shares_memory(x, y)
    assert x.tobytes() == kept.tobytes()


def test_stiff_buffers_per_dtype_match_a_fresh_propagator_bitwise():
    # a real stiff stencil built by hand (-Laplacian/4 plus a steep
    # potential) steps complex and real data in turn, both in complex128
    # on the Schur path: every step equals, to the bit, that of a
    # Propagator that never solved before
    n, h = 17, 0.5
    ix, iy = np.divmod(np.arange(n * n), n)
    bands = np.zeros((5, n * n))
    bands[0, ix > 0] = bands[1, iy > 0] = -0.25 / h ** 2
    bands[3, iy < n - 1] = bands[4, ix < n - 1] = -0.25 / h ** 2
    bands[2] = 1.0 / h ** 2 + 5.0 * ((ix - n // 2) ** 2 + (iy - n // 2) ** 2)
    op = BoxOperator(GridSpec(extent=(n - 1) * h / 2, points=n), None,
                     Stencil(n, bands))
    cfg = StepperConfig(dt=0.02)
    prop = Propagator(op, cfg)
    assert isinstance(prop.lhs, SchurComplement)
    assert prop.lhs.dtype == np.complex128
    rng = np.random.default_rng(9)
    for kind in ("complex", "real", "complex", "real"):
        u = rng.standard_normal(n * n)
        if kind == "complex":
            u = u + 1j * rng.standard_normal(n * n)
        got = prop.advance(u, 2)
        want = Propagator(op, cfg).advance(u, 2)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
    assert list(prop._kept) == [np.complex128]


def test_even_grid_stiff_solve_peaks_like_odd():
    # for even n red and black are index arrays: gathers go into kept
    # buffers (np.take) and scatters write in place, so a repeated solve
    # at n = 64 allocates no more than one at n = 65 (164680 bytes at n =
    # 64 before; 100008 against 102856 when written)
    peaks = {}
    for points in (64, 65):
        op = _stiff_op("flat_example", points)
        prop = Propagator(op, StepperConfig(dt=0.0125))
        u = sample(op.spec,
                   lambda z: 0.3 * np.exp(-np.abs(z - 0.5j) ** 2)).ravel()
        b, x0, r0 = _stiff_step(prop, op, u)
        first = prop.solve(b, x0=x0, r0=r0)
        tracemalloc.start()
        try:
            second = prop.solve(b, x0=x0, r0=r0)
            peaks[points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second.tobytes() == first.tobytes()
    assert peaks[64] <= peaks[65] < STIFF_SOLVE_PEAK


@pytest.mark.parametrize("points", [32, 33])
def test_schur_products_are_bitwise_at_every_offset(points):
    # inputs and outputs at each byte offset from a cache line that numpy
    # can give them: dot, reduce and expand agree to the bit with their
    # out=None results, which start on a line
    op = _stiff_op("flat_example", points)
    schur = SchurComplement(op.matrix, 0.00625)
    rng = np.random.default_rng(points)

    def vector(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    blacks = schur.shape[0]
    x_black, v = vector(blacks), vector(points ** 2)
    cases = [(lambda x, out: schur.dot(x, out=out), x_black, blacks),
             (lambda x, out: schur.reduce(x, out=out), v, blacks),
             (lambda x, out: schur.expand(v, x, out=out), x_black,
              points ** 2)]
    for apply, x, size in cases:
        want = apply(x, None)
        assert offset_of(want) == 0
        for at_x, at_out in itertools.product(OFFSETS, OFFSETS):
            out = placed(np.zeros(size, dtype=complex), at_out)
            assert apply(placed(x, at_x), out) is out
            assert out.tobytes() == want.tobytes()


def _propagator(weight, points, dt):
    extent = 10.0 if weight == "flat_example" else 6.0
    return Propagator(assemble_box(GridSpec(extent=extent, points=points),
                                   get_weight(weight)), StepperConfig(dt=dt))


@pytest.mark.parametrize("weight, points, dt, kind", [
    ("zero", 33, 0.01, "real"),
    ("modsq", 16, 0.01, "complex"),
    ("flat_example", 33, 0.0125, "complex"),
], ids=["plain-real", "plain-complex", "jacobi"])
def test_cg_is_bitwise_at_every_offset(weight, points, dt, kind):
    # x0, r0 and the six work vectors placed at mixed offsets from a
    # cache line give the iterates of cg's own aligned vectors, to the bit
    prop = _propagator(weight, points, dt)
    lhs, inv_diag = prop.lhs, prop.preconditioner
    size = lhs.shape[0]
    rng = np.random.default_rng(points)
    x0, r0 = rng.standard_normal(size), rng.standard_normal(size)
    if kind == "complex":
        x0 = x0 + 1j * rng.standard_normal(size)
        r0 = r0 + 1j * rng.standard_normal(size)
    atol = 1e-10 * np.linalg.norm(r0)
    want, info = semigroup.cg(lhs, x0, r0, atol, 500, inv_diag)
    assert info == 0 and offset_of(want) == 0
    for i, at in enumerate(OFFSETS):
        work = [placed(np.zeros_like(x0), OFFSETS[(i + k) % 4])
                for k in range(6)]
        got, info = semigroup.cg(lhs, placed(x0, at), placed(r0, 48 - at),
                                 atol, 500, inv_diag, work=work)
        assert info == 0 and got is work[0]
        assert got.tobytes() == want.tobytes()


def _kept_vectors(prop):
    """Every vector a Propagator keeps and writes: its products' operands,
    block scratch and bands, the Schur complement's buffers, and the CG
    and step vectors of each dtype."""
    lhs = prop.lhs
    schur = isinstance(lhs, SchurComplement)
    for product in ([prop.matrix, lhs.couple, lhs.couple_back] if schur
                    else [prop.matrix, lhs]):
        yield product.operand
        yield product._prod
        yield from product.bands
    if schur and lhs._red is not None:
        yield lhs._red
    for work, states, products, b in prop._kept.values():
        yield from (v for v in work if v is not None)
        yield from states + products + [b]


@pytest.mark.parametrize("weight, points, dt", [
    ("zero", 33, 0.01),
    ("modsq", 16, 0.01),
    ("flat_example", 33, 0.0125),
    ("flat_example", 32, 0.0125),
], ids=["plain-real", "plain-complex", "jacobi-odd", "jacobi-even"])
def test_propagator_keeps_its_buffers_on_cache_lines(weight, points, dt):
    prop = _propagator(weight, points, dt)
    spec = GridSpec(extent=10.0 if weight == "flat_example" else 6.0,
                    points=points)
    u = sample(spec, lambda z: 0.3 * np.exp(-np.abs(z - 0.5j) ** 2)).ravel()
    data = [u, u.real.copy()] if prop.matrix.dtype == np.float64 else [u]
    for v in data:
        got = prop.advance(v, 4)
        assert got.dtype == v.dtype and offset_of(got) == 0
        assert offset_of(prop.solve(v, x0=np.zeros_like(v), r0=v)) == 0
    kept = list(_kept_vectors(prop))
    assert len(prop._kept) == len(data)
    assert len(kept) > 20
    assert [offset_of(v) for v in kept] == [0] * len(kept)
    # every operator owns its buffers: no two kept vectors overlap
    assert not any(np.may_share_memory(v, w)
                   for v, w in itertools.combinations(kept, 2))


@pytest.mark.parametrize("weight, points, dt", [
    ("zero", 33, 0.01),
    ("modsq", 33, 0.01),
    ("flat_example", 33, 0.0125),
    ("flat_example", 32, 0.0125),
], ids=["plain-real", "plain-complex", "jacobi-odd", "jacobi-even"])
def test_advance_peak_does_not_grow_with_steps(weight, points, dt):
    # advance steps in vectors the Propagator keeps: once they exist, a
    # call allocates no vector per step, nor any grid-sized one at all
    prop = _propagator(weight, points, dt)
    spec = GridSpec(extent=10.0 if weight == "flat_example" else 6.0,
                    points=points)
    u = sample(spec, lambda z: 0.3 * np.exp(-np.abs(z - 0.5j) ** 2)).ravel()
    if prop.matrix.dtype == np.float64:
        u = u.real.copy()  # a real flow, stepped in float64
    peaks = []
    for steps in (3, 12):
        prop.advance(u, steps)
        tracemalloc.start()
        try:
            prop.advance(u, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1024
    assert peaks[1] < u.nbytes


@pytest.mark.parametrize("weight, extent, points, dt", [
    ("modsq", 6.0, 16, 0.01),
    ("flat_example", 10.0, 33, 0.0125),
], ids=["plain", "jacobi"])
def test_cg_from_an_exact_x0(weight, extent, points, dt):
    # r0 = 0 at atol = 0 returns x0 with info 0 and no iteration; it used
    # to divide 0 by 0 and report the NaN as an overflow
    op = assemble_box(GridSpec(extent=extent, points=points),
                      get_weight(weight))
    prop = Propagator(op, StepperConfig(dt=dt))
    rng = np.random.default_rng(8)
    size = prop.lhs.shape[0]
    x0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    visits = []
    x, info = semigroup.cg(prop.lhs, x0, np.zeros_like(x0), 0.0, 500,
                           prop.preconditioner, callback=visits.append)
    assert info == 0 and visits == []
    assert np.array_equal(x, x0) and x is not x0


def test_stiff_steps_meet_the_residual_test():
    # the true residual of every step of a Crank-Nicolson run, on the full
    # system, is below tol ||b||
    op = _stiff_op("modquartic", 33)
    cfg = StepperConfig(dt=0.01)
    prop = Propagator(op, cfg)
    lhs = op.matrix.scaled(prop.implicit_dt, shift=1.0)
    u0 = sample(op.spec, lambda z: np.exp(-np.abs(z) ** 2)).ravel()
    solves = []
    real_solve = prop.solve

    def recorded_solve(b, **kwargs):
        x = real_solve(b, **kwargs)
        # advance writes every step into the same kept vectors
        solves.append((b.copy(), x.copy()))
        return x

    prop.solve = recorded_solve
    prop.advance(u0, 20)
    assert len(solves) == 20
    for b, x in solves:
        assert np.linalg.norm(b - lhs @ x) <= cfg.tol * np.linalg.norm(b)


@pytest.mark.parametrize("weight, extent, points, dt", [
    ("modsq", 6.0, 16, 0.01),
    ("flat_example", 10.0, 33, 0.0125),
    ("zero", 6.0, 16, 0.01),
], ids=["plain", "jacobi", "real"])
def test_cg_matches_scipy_cg_bitwise(weight, extent, points, dt):
    # scipy's cg, with atol = 0 and the same Jacobi scaling, is the
    # reference: same solution to the bit, same number of iterations; the
    # zero weight's real stencil and a real u make both solve in float64;
    # the stiff case solves the Schur complement on the black nodes
    op = assemble_box(GridSpec(extent=extent, points=points),
                      get_weight(weight))
    prop = Propagator(op, StepperConfig(dt=dt))
    assert (prop.preconditioner is None) == (weight in ("modsq", "zero"))
    m = None
    if prop.preconditioner is not None:
        inv_diag = prop.preconditioner
        m = LinearOperator(prop.lhs.shape, matvec=lambda r: r * inv_diag,
                           dtype=prop.lhs.dtype)
    lhs = LinearOperator(prop.lhs.shape, matvec=prop.lhs.__matmul__,
                         dtype=prop.lhs.dtype)
    rng = np.random.default_rng(0)
    visits = []
    u = rng.standard_normal(op.spec.size())
    if weight != "zero":
        u = u + 1j * rng.standard_normal(op.spec.size())
    b = u - 0.5 * dt * (op.matrix @ u)
    if prop.preconditioner is not None:
        b, u = prop.lhs.reduce(b), u[prop.lhs.black]
    # the last case's atol exceeds rtol ||b||, so it sets the stopping test
    loose = 1e-6 * np.linalg.norm(b)
    for x0, maxiter, atol in ((u, 500, 0.0), (None, 500, 0.0), (u, 2, 0.0),
                              (None, 500, loose)):
        want_visits, got_visits = [], []
        want, want_info = scipy_cg(lhs, b, x0=x0, rtol=1e-10, atol=atol,
                                   maxiter=maxiter, M=m,
                                   callback=want_visits.append)
        # scipy's x0=None starts from x0 = 0 with the residual b
        start, r0 = (np.zeros_like(b), b) if x0 is None else (x0, b - lhs @ x0)
        got, got_info = semigroup.cg(prop.lhs, start, r0,
                                     max(atol, 1e-10 * np.linalg.norm(b)),
                                     maxiter, prop.preconditioner,
                                     callback=got_visits.append)
        assert got_info == want_info == (0 if maxiter == 500 else 2)
        assert got.dtype == want.dtype == u.dtype
        assert got.tobytes() == want.tobytes()
        assert len(got_visits) == len(want_visits) > 0
        visits.append(len(got_visits))
    assert visits[3] < visits[1]  # same x0 = None, looser stopping test


def test_real_stencil_keeps_the_imaginary_part():
    # a real-band stencil applied to complex data, in a product or inside
    # cg, gives what the same bands stored as complex numbers give
    op = assemble_box(GridSpec(extent=6.0, points=16), get_weight("zero"))
    bands = op.matrix.bands
    real = Stencil(op.matrix.n, np.ascontiguousarray(bands.real))
    cplx = Stencil(op.matrix.n, bands.astype(complex))
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    rng = np.random.default_rng(2)
    x = rng.standard_normal(real.shape[0]) + 1j * rng.standard_normal(
        real.shape[0])
    got = real @ x
    assert got.dtype == np.complex128 and np.any(got.imag)
    assert np.array_equal(got, cplx @ x)
    lhs_real = real.scaled(0.005, shift=1.0)
    lhs_cplx = cplx.scaled(0.005, shift=1.0)
    bnorm = np.linalg.norm(x)
    zero = np.zeros_like(x)
    got, info = semigroup.cg(lhs_real, zero, x, 1e-10 * bnorm, 500)
    want, want_info = semigroup.cg(lhs_cplx, zero, x, 1e-10 * bnorm, 500)
    assert info == want_info == 0
    assert got.dtype == np.complex128
    assert np.array_equal(got, want)
    assert np.linalg.norm(lhs_cplx @ got - x) < 1e-10 * bnorm


@pytest.mark.parametrize("weight, phase, dtype", [
    ("zero", 1.0, np.float64),
    ("zero", 1j, np.complex128),
    ("modsq", 1.0, np.complex128),
], ids=["zero-real", "zero-imaginary", "modsq-real"])
def test_real_flows_step_in_float64(monkeypatch, weight, phase, dtype):
    # the zero weight's Box is real, so a real datum is stepped in float64;
    # complex data or a complex Box keep complex128
    spec = GridSpec(extent=6.0, points=33)
    op = assemble_box(spec, get_weight(weight))
    cfg = StepperConfig(dt=0.01)
    u0 = sample(spec, lambda z: 0.3 * np.exp(-np.abs(z) ** 2))
    seen = []
    real_solve = Propagator.solve

    def spied_solve(self, b, **kwargs):
        seen.append(b.dtype)
        return real_solve(self, b, **kwargs)

    monkeypatch.setattr(Propagator, "solve", spied_solve)
    traj = evolve_linear(op, phase * u0.values, [0.0, 0.1], cfg)
    assert len(seen) == 10 and set(seen) == {np.dtype(dtype)}
    assert traj.values.dtype == np.complex128
    # linearity across the two paths: evolve(i u0) = i evolve(u0)
    turned = evolve_linear(op, 1j * phase * u0.values, [0.0, 0.1], cfg)
    want = 1j * traj.values[-1]
    assert (np.linalg.norm(turned.values[-1] - want)
            <= 1e-13 * np.linalg.norm(want))


def test_cg_zero_rhs_and_inputs_untouched(op_modsq16, gaussian16):
    prop = Propagator(op_modsq16, StepperConfig(dt=0.01))
    u = gaussian16.ravel().copy()
    kept = u.copy()
    zero = np.zeros_like(u)
    # b = 0 from a nonzero x0 is solved from x0 = r0 = 0: x = 0 exactly
    x = prop.solve(zero, x0=u, r0=-(prop.lhs @ u))
    assert not np.any(x) and x is not zero
    x, info = semigroup.cg(prop.lhs, zero, zero, 0.0, 500)
    assert info == 0 and not np.any(x) and x is not zero
    # backward Euler's advance passes the same array as b and x0
    r0 = u - prop.lhs @ u
    r0_kept = r0.copy()
    x, info = semigroup.cg(prop.lhs, u, r0, 1e-10 * np.linalg.norm(u), 500)
    assert info == 0 and x is not u
    assert np.array_equal(u, kept) and not np.any(zero)
    assert np.array_equal(r0, r0_kept)
    assert np.linalg.norm(prop.lhs @ x - u) < 1e-9 * np.linalg.norm(u)


def _x0_u_steps(prop, u, n_steps):
    # reference stepping without a predictor: every solve starts from
    # x0 = u, with the residual b - u - theta dt A u
    for _ in range(n_steps):
        au = prop.matrix @ u
        b = u - prop.explicit_dt * au
        r0 = b - u
        r0 -= prop.implicit_dt * au
        u = prop.solve(b, x0=u, r0=r0)
    return u


@pytest.mark.parametrize("weight, points, saved", [
    ("zero", 33, 0.4),     # 160 -> 83 iterations when written
    ("modsq", 16, 0.2),    # 168 -> 123
])
def test_advance_predictor_saves_cg_iterations(monkeypatch, weight, points,
                                               saved):
    spec = GridSpec(extent=6.0, points=points)
    op = assemble_box(spec, get_weight(weight))
    cfg = StepperConfig(dt=0.01)
    prop = Propagator(op, cfg)
    assert prop.preconditioner is None
    u0 = sample(spec, lambda z: 0.3 * np.exp(-np.abs(z) ** 2)).ravel()
    iters = _count_cg_iterations(monkeypatch)
    want = _x0_u_steps(prop, u0, 40)
    plain = sum(iters)
    del iters[:]
    solves = []
    real_solve = prop.solve

    def recorded_solve(b, **kwargs):
        x = real_solve(b, **kwargs)
        # advance writes every step into the same kept vectors
        solves.append((b.copy(), x.copy()))
        return x

    prop.solve = recorded_solve
    got = prop.advance(u0, 40)
    assert len(iters) == len(solves) == 40
    assert sum(iters) < (1.0 - saved) * plain
    assert np.linalg.norm(got - want) < 1e-8 * np.linalg.norm(want)
    for b, x in solves:
        assert np.linalg.norm(b - prop.lhs @ x) <= cfg.tol * np.linalg.norm(b)


def test_jacobi_advance_is_the_x0_u_loop():
    # stiff operators get no predictor: advance() is the x0 = u loop
    spec = GridSpec(extent=10.0, points=33)
    op = assemble_box(spec, get_weight("flat_example"))
    prop = Propagator(op, StepperConfig(dt=0.0125))
    assert prop.preconditioner is not None
    u0 = sample(spec, lambda z: np.exp(-np.abs(z) ** 2)).ravel()
    got = prop.advance(u0, 12)
    assert got.tobytes() == _x0_u_steps(prop, u0, 12).tobytes()


class _CountedProducts:
    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0
        self.shape, self.dtype = matrix.shape, matrix.dtype

    def __matmul__(self, x):
        return self.dot(x)

    def dot(self, x, out=None):
        self.products += 1
        return self.matrix.dot(x, out=out)


@pytest.mark.parametrize("weight, extent, points, dt", [
    ("modsq", 6.0, 16, 0.01),
    ("flat_example", 10.0, 33, 0.0125),
], ids=["plain", "jacobi"])
def test_advance_makes_one_solve_and_one_product_per_step(weight, extent,
                                                          points, dt):
    # the perfbench trace counts Propagator.solve calls; the predictor
    # must add neither solves nor products with op.matrix outside CG
    spec = GridSpec(extent=extent, points=points)
    prop = Propagator(assemble_box(spec, get_weight(weight)),
                      StepperConfig(dt=dt))
    prop.matrix = _CountedProducts(prop.matrix)
    solves = []
    real_solve = prop.solve

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    prop.solve = counted_solve
    u0 = sample(spec, lambda z: 0.3 * np.exp(-np.abs(z) ** 2)).ravel()
    for k in (1, 2, 3, 7):
        del solves[:]
        prop.matrix.products = 0
        prop.advance(u0, k)
        assert len(solves) == prop.matrix.products == k


def test_zero_weight_matches_exact_dst_multiplier():
    # phi = 0 assembles -Lap_h/4 with Dirichlet closure, which DST-I
    # diagonalizes with eigenvalues lam = (s_j + s_l) / h^2,
    # s_j = sin^2(j pi / (2 (n + 1))); k Crank-Nicolson steps multiply
    # mode (j, l) by ((1 - dt lam / 2) / (1 + dt lam / 2))^k exactly
    spec = GridSpec(extent=6.0, points=129)
    op = assemble_box(spec, get_weight("zero"))
    dt, t = 0.01, 1.0
    u0 = sample(spec, lambda z: np.exp(-np.abs(z - (0.5 + 0.25j)) ** 2
                                       + 1j * z.real))
    traj = evolve_linear(op, u0, [0.0, t], StepperConfig(dt=dt, tol=1e-12))
    n = spec.points
    s = np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
    lam = (s[:, None] + s[None, :]) / spec.h ** 2
    mult = ((1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)) ** round(t / dt)
    want = idstn(dstn(u0.values, type=1) * mult, type=1)
    got = traj.fields[-1].values
    assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want)


def test_free_gaussian_closed_form():
    # du/dt = Lap u / 4 spreads e^{-|z|^2/w^2} to (w^2/(w^2+t)) e^{-|z|^2/(w^2+t)}
    spec = GridSpec(extent=6.0, points=65)
    op = assemble_box(spec, get_weight("zero"))
    cfg = StepperConfig(dt=0.01, tol=1e-12)
    u0 = sample(spec, lambda z: np.exp(-np.abs(z) ** 2))
    traj = evolve_linear(op, u0, [0.0, 0.5, 1.0], cfg)
    zz = spec.nodes()
    for t, f in zip(traj.times[1:], traj.fields[1:]):
        exact = (1.0 / (1.0 + t)) * np.exp(-np.abs(zz) ** 2 / (1.0 + t))
        err = np.max(np.abs(f.values - exact)) / np.max(exact)
        assert err < 0.01


def test_evolution_is_dissipative(op_modsq16, gaussian16):
    cfg = StepperConfig(dt=0.02, tol=1e-12)
    traj = evolve_linear(op_modsq16, gaussian16,
                         [0.0, 0.24, 0.5, 0.76, 1.0], cfg)
    l2 = traj.norms(2)
    assert np.all(np.diff(l2) < 0)


def test_snapshot_times_must_align_with_dt(op_modsq16, gaussian16):
    cfg = StepperConfig(dt=0.02, tol=1e-10)
    with pytest.raises(ConfigError, match="multiple of dt"):
        evolve_linear(op_modsq16, gaussian16, [0.0, 0.03], cfg)
    with pytest.raises(ConfigError):
        evolve_linear(op_modsq16, gaussian16, [0.0, -1.0], cfg)


def test_trajectory_field_lookup(op_modsq16, gaussian16):
    cfg = StepperConfig(dt=0.05, tol=1e-10)
    traj = evolve_linear(op_modsq16, gaussian16, [0.0, 0.1, 0.2], cfg)
    assert traj.field_at(0.1) is traj.fields[1]
    with pytest.raises(KeyError):
        traj.field_at(0.15)


def test_trajectory_fields_are_views_of_its_rows(op_modsq16, gaussian16):
    cfg = StepperConfig(dt=0.05, tol=1e-10)
    traj = evolve_linear(op_modsq16, gaussian16, [0.0, 0.1, 0.2], cfg)
    assert traj.values.shape == (3, 16, 16)
    for i, fld in enumerate(traj.fields):
        assert np.shares_memory(fld.values, traj.values[i])
        assert np.array_equal(fld.values, traj.values[i])
    assert np.array_equal(traj.values[0], gaussian16.values)


def test_trajectory_rejects_mismatched_values(spec16):
    times = np.array([0.0, 0.5, 1.0])
    Trajectory(spec16, times, np.zeros((3, 16, 16), dtype=complex))
    for shape in [(2, 16, 16), (4, 16, 16), (3, 16, 15), (3, 256)]:
        with pytest.raises(ValueError, match="does not match"):
            Trajectory(spec16, times, np.zeros(shape, dtype=complex))


def test_expm_oracle_semigroup_property(op_modsq16):
    e1 = expm_oracle(op_modsq16, 0.1)
    e2 = expm_oracle(op_modsq16, 0.2)
    assert np.linalg.norm(e1 @ e1 - e2) < 1e-12 * np.linalg.norm(e2)
    big = assemble_box(GridSpec(extent=6.0, points=64), get_weight("zero"))
    with pytest.raises(ConfigError, match="dense oracle"):
        expm_oracle(big, 0.1)


def test_cn_matches_expm_oracle(op_modsq16, gaussian16):
    cfg = StepperConfig(dt=1e-3, tol=1e-13)
    traj = evolve_linear(op_modsq16, gaussian16, [0.0, 0.2], cfg)
    want = expm_evolve(op_modsq16, gaussian16, 0.2)
    err = lp_norm(traj.fields[-1] - want, 2) / lp_norm(want, 2)
    assert err < 1e-4


def test_temporal_orders(op_modsq16, gaussian16):
    ref = expm_evolve(op_modsq16, gaussian16, 0.2).ravel()

    def err_at(scheme, dt):
        cfg = StepperConfig(dt=dt, scheme=scheme, tol=1e-13)
        traj = evolve_linear(op_modsq16, gaussian16, [0.0, 0.2], cfg)
        return np.linalg.norm(traj.fields[-1].ravel() - ref)

    e1, e2 = err_at("crank_nicolson", 0.004), err_at("crank_nicolson", 0.002)
    assert 1.8 < math.log2(e1 / e2) < 2.2
    b1, b2 = err_at("backward_euler", 0.004), err_at("backward_euler", 0.002)
    assert 0.8 < math.log2(b1 / b2) < 1.2


def test_heat_kernel_resolution_guards():
    spec = GridSpec(extent=8.0, points=65)  # h = 0.25, need t >= 4 h^2 = 0.25
    op = assemble_box(spec, get_weight("zero"))
    with pytest.raises(ConfigError, match="under-resolves"):
        heat_kernel(op, 0.1, 0j, StepperConfig(dt=0.001, tol=1e-10))
    with pytest.raises(ConfigError, match="10 dt"):
        heat_kernel(op, 0.3, 0j, StepperConfig(dt=0.1, tol=1e-10))


def test_free_kernel_mass_peak_and_positivity():
    op = assemble_box(GridSpec(extent=8.0, points=129), get_weight("zero"))
    cfg = StepperConfig(dt=0.005, tol=1e-12)
    sl = heat_kernel(op, 0.5, 0j, cfg)
    assert sl.source == 0j
    assert sl.mass() == pytest.approx(1.0, abs=1e-3)
    assert 0.95 < sl.peak_ratio < 1.05
    assert np.min(sl.field.values.real) > -1e-8
    assert np.max(np.abs(sl.field.values.imag)) < 1e-12


def test_kernel_hermitian_symmetry():
    # H(t, z, w) = conj(H(t, w, z)): columns from two sources cross-agree
    spec = GridSpec(extent=6.0, points=33)
    op = assemble_box(spec, get_weight("modsq"))
    cfg = StepperConfig(dt=0.01, tol=1e-13)
    za, zb = 0.75 + 0.375j, -1.125 + 0j  # exact grid nodes (h = 0.375)
    sa = heat_kernel(op, 0.6, za, cfg)
    sb = heat_kernel(op, 0.6, zb, cfg)
    assert sa.source == za and sb.source == zb
    ia, ib = spec.nearest_index(za), spec.nearest_index(zb)
    hab = sa.field.values[ib]      # H(t, zb, za)
    hba = sb.field.values[ia]      # H(t, za, zb)
    assert abs(hab - np.conj(hba)) < 1e-8 * abs(hab)


def test_modsq_kernel_modulus_converges_to_landau_kernel():
    # for phi = |z|^2, Box = H_B / 4 + 1 with H_B the constant-field
    # magnetic Laplacian (B = 4), so Mehler's formula gives the continuum
    # |H(t, z, w)| = e^{-t} / (pi sinh t) exp(-coth(t) |z - w|^2)
    t = 0.5
    errors = []
    for n in (49, 97, 193):  # h = 0.25, 0.125, 0.0625: the source is a node
        spec = GridSpec(extent=6.0, points=n)
        op = assemble_box(spec, get_weight("modsq"))
        sl = heat_kernel(op, t, 0.5 + 0.25j, StepperConfig(dt=t / 200))
        assert sl.source == 0.5 + 0.25j
        want = (math.exp(-t) / (math.pi * math.sinh(t))
                * np.exp(-np.abs(spec.nodes() - sl.source) ** 2
                         / math.tanh(t)))
        errors.append(np.max(np.abs(np.abs(sl.field.values) - want))
                      / np.max(want))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    # measured: errors 5.8e-2, 1.2e-2, 2.9e-3; orders 2.29, 2.03
    assert errors[-1] < 4e-3
    assert orders[0] > 1.8
    assert 1.8 <= orders[1] <= 2.2


def test_kernel_bound_general_pass_and_refinement():
    cfg_fine = StepperConfig(dt=0.005, tol=1e-12)
    cfg_coarse = StepperConfig(dt=0.02, tol=1e-12)
    worsts = {}
    for n, cfg in ((65, cfg_coarse), (129, cfg_fine)):
        op = assemble_box(GridSpec(extent=8.0, points=n), get_weight("zero"))
        sl = heat_kernel(op, 0.5, 0j, cfg)
        rep = kernel_bound_check(sl, mode="general", tail_floor=1e-2)
        worsts[n] = rep.worst_ratio
    # lattice tails shrink under refinement (frozen: 1.32 -> 1.08)
    assert worsts[129] < worsts[65] - 0.1
    assert worsts[129] < 1.15


def test_kernel_bound_check_argument_guards():
    with pytest.raises(ConfigError):
        kernel_bound_check([], mode="general")
    op = assemble_box(GridSpec(extent=8.0, points=65), get_weight("zero"))
    sl = heat_kernel(op, 0.5, 0j, StepperConfig(dt=0.02, tol=1e-10))
    with pytest.raises(ConfigError, match="mode"):
        kernel_bound_check(sl, mode="sharp")
    with pytest.raises(ConfigError, match="weight"):
        kernel_bound_check(sl, mode="polynomial")


def test_upper_hull_fit_recovers_dominating_line():
    # points on y = 3 - 2x plus points strictly below never raise the line
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 0.25, 0.75, 1.25])
    y = 3.0 - 2.0 * x
    y[5:] -= np.array([0.4, 1.1, 0.2])
    slope, intercept = _upper_hull_fit(x, y)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert intercept == pytest.approx(3.0, abs=1e-12)
    assert np.all(intercept + slope * x >= y - 1e-12)


def test_upper_hull_fit_needs_spread():
    with pytest.raises(ConfigError, match="spread"):
        _upper_hull_fit(np.array([1.0, 1.0]), np.array([0.0, 1.0]))


def test_blowup_detector():
    # backward flow du/dt = +Box u via a negated matrix must trip the guard
    spec = GridSpec(extent=6.0, points=16)
    op = assemble_box(spec, get_weight("modsq"))
    flipped = op.__class__(
        spec=op.spec, weight=op.weight, matrix=op.matrix.scaled(-1.0),
    )
    u0 = sample(spec, lambda z: np.exp(-np.abs(z) ** 2))
    with pytest.raises(NumericalError, match="blew up"):
        evolve_linear(flipped, u0, [0.0, 1.0, 2.0],
                      StepperConfig(dt=0.05, tol=1e-10))
