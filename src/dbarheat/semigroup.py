"""Linear evolution e^{-t Box}: stepping, heat-kernel slices, bound checks.

Time discretization is the theta-scheme

    (I + theta dt A) u^{k+1} = u^k - (1 - theta) dt A u^k,

Crank-Nicolson (theta = 1/2) by default and backward Euler (theta = 1)
as the robust fallback for very stiff potentials.  Linear evolution,
Duhamel sweeps and the IMEX scheme (which adds an explicit forcing to the
right-hand side) all step through Propagator.advance.  A step makes one
product A u outside the solve, for the explicit part of the right-hand
side and the initial residual, and solves by conjugate gradients (the
lhs is Hermitian positive definite for dt > 0) in cg, a loop over
stencil products that repeats scipy.sparse.linalg.cg's arithmetic, so
stepping loads no scipy; cg takes a start x0 and its residual r0, not b.
Stiff steps, whose lhs diagonal spreads by more than JACOBI_MIN_SPREAD
(steep potentials such as modquartic, or flat_example on a wide square),
are solved on the red-black Schur complement: the five-point stencil
couples each red node (ix + iy even) only to black ones, so the red
nodes are eliminated exactly, CG with Jacobi scaling runs on the black
half of the unknowns, and one back-substitution recovers the red half
(redblack.SchurComplement).  On the flat-picard benchmark workload this
takes 504 CG iterations where Jacobi CG on the whole grid took 816.  A
stiff solve of k iterations applies 2k + 2 half-grid band products: one
to reduce r0, two per iteration and one to expand x_b.  The
stopping test stays on the unpreconditioned residual of the whole
system, ||b - (I + theta dt A) x|| < max(atol, tol ||b||), so tol and
max_iterations mean the same on either path; atol is 0 except in Picard
increment sweeps, which pass the accuracy of the state they correct.

Real flows are stepped in real arithmetic.  When Box's stencil is real
(phi_z = 0 on every node, as for the zero weight, whose Box is
-Laplacian/4) and the datum has no imaginary part, evolve_linear steps u
in float64: the theta-scheme maps real vectors to real vectors, so only
the rounding changes.  Such a stencil has the constant diagonal 1/h^2,
so its steps are never stiff; stiff steps run in complex128.  cg works in
the result type of the operator and the right-hand side, so complex data
on a real stencil (Duhamel sweeps and IMEX steps stay complex) are solved
in complex128.  Trajectory values are complex either way.

CG starts from a predictor.  The first step of each advance call starts
from x0 = u.  Later steps of a plain-CG propagator start from the
quadratic extrapolation x0 = 3 u_k - 3 u_{k-1} + u_{k-2} of the call's
last states (linear, 2 u_k - u_{k-1}, on its second step).  A x0 is the
same combination of the products A u_j already made for those steps, so
the initial residual b - x0 - theta dt A x0 costs no extra product.
Stiff propagators keep x0 = u: the Crank-Nicolson amplification is near
-1 on their stiff modes, and extrapolating in time saves almost no
iterations there.

Heat-kernel slices evolve the discrete delta (1/h^2 at the node nearest the
requested source) and are compared against the free-field envelope

    (pi t)^{-1} exp(-|z - w|^2 / t),

which the free kernel saturates with equality and which bounds every
subharmonic weight's kernel from above.  For polynomial weights the slices
also feed an empirical fit of the sharper envelope
C t^{-1} exp(-|z-w|^2/(32 t) - C' t (mu(z,1)^{-2} + mu(w,1)^{-2})).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalError
from .grid import (ComplexField, GridSpec, aligned_empty, boundary_mass,
                   lp_norm, vdot, vector_norm)
from .weights import mu

__all__ = [
    "StepperConfig",
    "Trajectory",
    "KernelSlice",
    "KernelBoundReport",
    "Propagator",
    "cg",
    "evolve_linear",
    "heat_kernel",
    "kernel_bound_check",
]

#: refuse kernels with t below this many squared grid spacings.
KERNEL_RESOLUTION_FACTOR = 4.0

#: solve on the red-black Schur complement when max|diag| / min|diag| of
#: the lhs exceeds this; below it a solve takes so few iterations that the
#: reduction costs more than it saves (Schur on every propagator took
#: curved-small's solve_s from 0.297 to 0.591 s, at 1.5 iterations a solve).
JACOBI_MIN_SPREAD = 2.0

#: refuse a schedule time that takes more time steps than this; the
#: longest preset takes 400.
MAX_STEPS = 10 ** 6

#: dissipative flows must not grow; beyond this factor we declare blow-up.
BLOWUP_FACTOR = 10.0

#: implicit weight theta of each time-stepping scheme.
THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping knobs shared by the linear and nonlinear solvers."""

    dt: float
    scheme: str = "crank_nicolson"
    tol: float = 1e-10
    max_iterations: int = 500

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.scheme not in THETA:
            raise ConfigError("unknown scheme %r" % (self.scheme,))
        if not 0 < self.tol < 1:
            # tol >= 1 accepts x = x0 (a flow that never moves) as a solve
            raise ConfigError("solver tolerance %g is outside (0, 1)"
                              % self.tol)
        if self.max_iterations < 1:
            raise ConfigError("bad solver iteration cap")


@dataclass
class Trajectory:
    """Snapshots of a time-dependent field on a shared grid.

    values is one (len(times), points, points) complex array, row i the
    snapshot at times[i]; fields are ComplexField views of its rows, built
    once.  The per-snapshot norms loop over rows, and differences() makes
    the difference of two trajectories one snapshot at a time, so no
    temporary as large as the whole trajectory is made.
    """

    spec: GridSpec
    times: np.ndarray
    values: np.ndarray
    fields: List[ComplexField] = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.spec.points
        if self.values.shape != (len(self.times), n, n):
            raise ValueError("values shape %s does not match %d times on "
                             "a %d-point grid"
                             % (self.values.shape, len(self.times), n))
        self.fields = [ComplexField(self.spec, v) for v in self.values]

    def norms(self, p):
        return np.array([lp_norm(f, p) for f in self.fields])

    def boundary_masses(self):
        return np.array([boundary_mass(f) for f in self.fields])

    def differences(self, other):
        """The snapshots of self - other as ComplexFields, made one at a
        time as the generator is consumed."""
        return (ComplexField(self.spec, a - b)
                for a, b in zip(self.values, other.values))

    def field_at(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError("no snapshot at t=%g" % t)
        return self.fields[i]


@np.errstate(over="ignore", invalid="ignore")
def cg(a, x0, r0, atol, maxiter, inv_diag=None, callback=None, work=None):
    """Conjugate gradients for Hermitian positive definite a x = b, from
    x0, whose residual b - a x0 is r0, until the recursive residual norm,
    checked before each iteration, falls below atol.  b itself is not
    needed: r0 carries it.

    a is a Stencil or a SchurComplement (anything with dot(x, out=y)).
    Works in the result type of a, x0 and r0, so a real stencil solves a
    complex residual in complex128.  Jacobi-preconditioned by the array
    inv_diag when given; callback(x) runs after each iteration.  With
    r0 = b - a @ x0 and atol = max(atol', rtol ||b||) the arithmetic is
    that of scipy.sparse.linalg.cg(a, b, x0, rtol=rtol, atol=atol')
    (scipy 1.17) for b != 0, in the same order, so up to grid.DOT_CHUNK
    unknowns the iterates agree to the bit (x0 = 0 and r0 = b for its
    x0=None); above it the dot products and norms (grid.vdot and
    grid.vector_norm) add chunk sums in a fixed order, so the bits do not
    depend on the BLAS thread count.  A residual that is exactly zero
    ends the solve at x, with info 0, even at atol = 0; so
    x0 = r0 = 0 gives x = 0, the solution for b = 0.  The iteration
    vectors (x, r, step, q, z, p) are given as work, six vectors of that
    dtype and of x0's size that the solve overwrites (z is not read when
    inv_diag is None), or made once per call, each on a cache line
    (grid.aligned_empty).  x0 or r0 may be work's x or r itself, which
    then is not copied, and x is then work's x.  Otherwise x0 and r0 are
    not modified.
    Returns (x, 0) on convergence and (x, maxiter) when the cap is reached;
    raises NumericalError, without a numpy warning, when the residual norm
    overflows, as a solution that blows up makes it do.
    """
    if work is None:
        dtype = np.result_type(a.dtype, x0, r0)
        work = [aligned_empty(x0.size, dtype) for _ in range(6)]
    x, r, step, q, z, p = work
    if x0 is not x:
        x[...] = x0
    if r0 is not r:
        r[...] = r0
    if inv_diag is None:
        z = r
    rho_prev = None
    for _ in range(maxiter):
        rnorm = vector_norm(r)
        if rnorm < atol or rnorm == 0.0:
            return x, 0
        if not math.isfinite(rnorm):
            raise NumericalError("linear solve overflowed: residual norm %g"
                                 % rnorm)
        if inv_diag is not None:
            np.multiply(r, inv_diag, out=z)
        rho = vdot(r, z)
        if rho_prev is None:
            p[...] = z
        else:
            p *= rho / rho_prev
            p += z
        a.dot(p, out=q)
        alpha = rho / vdot(p, q)
        # alpha first: np.multiply(p, alpha) rounds differently
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=step)
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


class Propagator:
    """theta-scheme step (I + theta dt A) u_new = u - (1 - theta) dt A u.

    theta is THETA[cfg.scheme]: 1/2 for Crank-Nicolson, 1 for backward
    Euler, whose right-hand side is u itself.  Each step makes one product
    with op.matrix, for the explicit part and for the initial CG residual.
    lhs is the operator CG runs on.  When the diagonal of I + theta dt A
    spreads by at most JACOBI_MIN_SPREAD (too few iterations for the Schur
    reduction to pay) it is that lhs, as a stencil, and preconditioner is
    None.  Otherwise the step is stiff: lhs is the complex128
    SchurComplement of I + theta dt A on the black nodes, with
    preconditioner its Jacobi scaling, and no full lhs stencil is built.
    solve() makes exactly one cg call on either path, and steps run in
    the result type of lhs and the data.

    Every vector a step writes is kept, one set per dtype made on first
    use, each on a cache line (grid.aligned_empty): the CG vectors of
    solve() (x, r, step, q and p; z too when stiff, all on the black
    nodes then), and for advance() the states, their products A u and b
    (four states and three products with the predictor, two and one
    without).  advance() therefore allocates no vector per step; the
    predictor's x0 and A x0 and the residual r0 are formed in the solve's
    own x, q and r.  A vector that straddles cache lines, as numpy's
    16-byte alignment leaves most, is written at about half the speed.
    These buffers, like its operators', make a Propagator unfit for use
    from two threads at once.

    advance() is the one stepping loop (see the module docstring).  When
    preconditioner is None it starts each solve after its first from the
    quadratic extrapolation of the call's last three states, keeping the
    last two (u, A u) pairs of the call for that.  atol in solve() and
    advance() is the absolute residual floor of the stopping test.
    """

    def __init__(self, op, cfg):
        theta = THETA[cfg.scheme]
        self.matrix = op.matrix
        self.explicit_dt = (1.0 - theta) * cfg.dt
        self.implicit_dt = theta * cfg.dt
        self.cfg = cfg
        # the lhs diagonal 1 + theta dt Box_ii grows with Box_ii
        diag = self.matrix.bands[2].real
        if (1.0 + self.implicit_dt * diag.max()
                > JACOBI_MIN_SPREAD * (1.0 + self.implicit_dt * diag.min())):
            # only stiff steps load the red-black split
            from .redblack import SchurComplement

            self.lhs = SchurComplement(self.matrix, self.implicit_dt)
            self.preconditioner = self.lhs.inv_diag
        else:
            self.lhs = self.matrix.scaled(self.implicit_dt, shift=1.0)
            self.preconditioner = None
        self._kept = {}  # dtype -> its vectors (see _vectors)

    def _vectors(self, dtype):
        """(CG work, states, products, b) of steps in dtype, made on first
        use.  On the plain path work's x is None, as the solve writes its
        caller's out, and so is z, which CG without inv_diag does not read."""
        kept = self._kept.get(dtype)
        if kept is None:
            def new(count, size=self.matrix.shape[0]):
                return [aligned_empty(size, dtype) for _ in range(count)]

            if self.preconditioner is None:
                r, step, q, p = new(4)
                kept = ((None, r, step, q, None, p), new(4), new(3), *new(1))
            else:
                kept = (new(6, self.lhs.shape[0]), new(2), new(1), *new(1))
            self._kept[dtype] = kept
        return kept

    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, b, x0, r0, atol=0.0, out=None):
        """x with ||b - (I + theta dt A) x|| < max(atol, tol ||b||), by one
        cg call from x0, whose residual is r0, written into out (a vector
        of b's size and of x's dtype) or into a new array.  x0 or r0 may
        be out or the kept r of CG itself (plain path), which then is not
        copied.  b = 0 starts from x0 = r0 = 0, which cg returns as it is:
        x = 0 exactly.  A stiff step runs CG on S x_b = reduce(b) from
        x0's black nodes, with residual reduce(r0), which is the full
        residual after expand(): the same test; reduce(b) itself is never
        formed."""
        lhs, maxiter = self.lhs, self.cfg.max_iterations
        bnorm = vector_norm(b)
        if not math.isfinite(bnorm):
            raise NumericalError("linear solve overflowed: ||b|| = %g" % bnorm)
        if bnorm == 0.0:
            x0 = r0 = np.zeros_like(b)
        atol = max(atol, self.cfg.tol * bnorm)
        dtype = np.result_type(lhs.dtype, x0, r0)
        work = self._vectors(dtype)[0]
        if out is None:
            out = aligned_empty(b.size, dtype)
        if self.preconditioner is None:
            x, info = cg(lhs, x0, r0, atol, maxiter, work=(out, *work[1:]))
        else:
            x, r = work[:2]
            x, info = cg(lhs, lhs.black_of(x0, out=x),
                         lhs.reduce(r0, out=r), atol, maxiter,
                         self.preconditioner, work=work)
            x = lhs.expand(b, x, out=out)
        if info != 0:
            raise ConvergenceError("linear solver stagnated (info=%d) at "
                                   "rtol=%g" % (info, self.cfg.tol))
        return x

    def advance(self, u, n_steps, atol=0.0, forcing=None):
        """u after n_steps steps; with forcing (the IMEX scheme's), the
        step from v adds dt forcing(v) to its right-hand side (forcing(v)
        in v's dtype).  u is not modified.  The result is one of the
        states the Propagator keeps: its next advance() call may overwrite
        it, except when given it as u."""
        predict = self.preconditioner is None
        work, states, products, b_home = self._vectors(
            np.result_type(self.lhs.dtype, u))
        # states and products rotate, so that the solve's x is never u or
        # a state of history: the rotation starts past u if u is a state
        start = next((i + 1 for i, v in enumerate(states)
                      if np.may_share_memory(u, v)), 0)
        history = []  # (u, A u) of the call's last two steps, oldest first
        for k in range(n_steps):
            out = states[(start + k) % len(states)]
            au = self.matrix.dot(u, out=products[k % len(products)])
            b = u
            if self.explicit_dt:
                # u - (explicit_dt * au)
                b = np.multiply(self.explicit_dt, au, out=b_home)
                np.subtract(u, b, out=b)
            if forcing is not None:
                # b + (dt * forcing(u)), with out as scratch
                b = np.add(b, np.multiply(self.cfg.dt, forcing(u), out=out),
                           out=b_home)
            # r0 = b - x0 - theta dt A x0, with A x0 a combination of the
            # products already made; x0 = u on the call's first step.  The
            # extrapolated x0 is formed in the solve's x, A x0 in CG's q
            # and theta dt A x0 in its step.
            x0, ax0 = u, au
            if len(history) == 1:
                (u1, au1), = history
                x0, ax0 = out, work[3]
                for new, now, last in ((x0, u, u1), (ax0, au, au1)):
                    # 2 now - last
                    np.subtract(np.multiply(2.0, now, out=new), last, out=new)
            elif history:
                (u2, au2), (u1, au1) = history
                x0, ax0 = out, work[3]
                for new, now, last, first in ((x0, u, u1, u2),
                                              (ax0, au, au1, au2)):
                    # 3 (now - last) + first
                    np.subtract(now, last, out=new)
                    np.add(np.multiply(3.0, new, out=new), first, out=new)
            if predict:
                r0, scaled = work[1], work[2]
                history = history[-1:] + [(u, au)]
            else:
                # the stiff solve reduces r0 before it writes out, and au
                # is spent once scaled
                r0, scaled = out, au
            np.subtract(b, x0, out=r0)
            r0 -= np.multiply(self.implicit_dt, ax0, out=scaled)
            u = self.solve(b, x0=x0, r0=r0, atol=atol, out=out)
        return u


def _steps_for(t, dt):
    if t > MAX_STEPS * dt:
        raise ConfigError("time %g takes more than %d steps of dt=%g"
                          % (t, MAX_STEPS, dt))
    k = int(round(t / dt))
    if abs(k * dt - t) > 1e-8 * max(abs(t), dt):
        raise ConfigError("time %g is not a multiple of dt=%g" % (t, dt))
    return k


def _schedule_steps(times, dt):
    """A schedule as a float array, with the step count of each time.

    A schedule starts at 0, increases strictly and lands on multiples of
    dt; every evolution returns it unchanged as its Trajectory's times.
    """
    times = np.array(times, dtype=float)
    if (times.ndim != 1 or times.size < 2 or times[0] != 0.0
            or not np.all(np.diff(times) > 0)):
        raise ConfigError("schedule must start at 0 and increase strictly "
                          "through >= 2 times")
    return times, [_steps_for(t, dt) for t in times]


def _snapshots(op, u, times, cfg, cap, name, forcing=None):
    """Snapshots of u stepped by Propagator(op, cfg).advance through the
    schedule times; one not finite or with L^2 norm above cap aborts
    with a blow-up diagnostic rather than returning garbage."""
    times, steps = _schedule_steps(times, cfg.dt)
    prop = Propagator(op, cfg)
    n = op.spec.points
    values = np.empty((len(times), n, n), dtype=complex)
    done = 0
    for i, (t, k) in enumerate(zip(times, steps)):
        u = prop.advance(u, k - done, forcing=forcing)
        done = k
        if not np.all(np.isfinite(u)) or vector_norm(u) > cap:
            raise NumericalError("%s blew up at t=%g" % (name, t))
        values[i] = u.reshape(n, n)
    return Trajectory(spec=op.spec, times=times, values=values)


def evolve_linear(op, u0, times, cfg):
    """Evolve du/dt + Box u = 0 from u0, with a snapshot at each time of
    the schedule (see _schedule_steps).  A real u0 on a real stencil is
    stepped in float64 (see the module docstring).

    The flow is dissipative: L^2 growth beyond BLOWUP_FACTOR is a blow-up.
    """
    u = u0.ravel().astype(complex)
    if op.matrix.dtype.kind == "f" and not u.imag.any():
        u = u.real.copy()  # a real flow stays real: step it in float64
    return _snapshots(op, u, times, cfg, BLOWUP_FACTOR * vector_norm(u),
                      "linear evolution")


# ---------------------------------------------------------------------------
# heat-kernel slices
# ---------------------------------------------------------------------------

@dataclass
class KernelSlice:
    """One column H(t, ., w) of the heat kernel, with its free envelope."""

    t: float
    source: complex
    field: ComplexField

    def envelope(self):
        """Free-field bound (pi t)^{-1} exp(-|z - w|^2 / t) on the nodes."""
        zz = self.field.spec.nodes()
        return np.exp(-np.abs(zz - self.source) ** 2 / self.t) / (math.pi * self.t)

    @property
    def peak_ratio(self):
        """max |H| relative to the envelope peak 1/(pi t)."""
        return float(np.max(np.abs(self.field.values)) * math.pi * self.t)

    def mass(self):
        return float(np.real(np.sum(self.field.values)) * self.field.spec.h ** 2)


def heat_kernel(op, t, source, cfg):
    """Kernel column through the discrete delta 1/h^2 at the nearest node.

    Refuses t below KERNEL_RESOLUTION_FACTOR * h^2 (the column would be
    unresolved), t < 10 dt (the stepping error would dominate) and a
    source outside the grid square [-extent, extent]^2, which has no node
    to put the delta on.
    """
    spec = op.spec
    source = complex(source)
    if not (abs(source.real) <= spec.extent
            and abs(source.imag) <= spec.extent):
        raise ConfigError("kernel source %g%+gi lies outside the grid "
                          "square [-%g, %g]^2"
                          % (source.real, source.imag, spec.extent,
                             spec.extent))
    if t < KERNEL_RESOLUTION_FACTOR * spec.h ** 2:
        raise ConfigError(
            "t=%g under-resolves the kernel on h=%g (need t >= %g)"
            % (t, spec.h, KERNEL_RESOLUTION_FACTOR * spec.h ** 2)
        )
    if t < 10.0 * cfg.dt:
        raise ConfigError("kernel time must satisfy t >= 10 dt")
    ix, iy = spec.nearest_index(source)
    ax = spec.axis()
    snapped = complex(ax[ix], ax[iy])
    u0 = ComplexField.zeros(spec)
    u0.values[ix, iy] = 1.0 / spec.h ** 2
    traj = evolve_linear(op, u0, [0.0, t], cfg)
    return KernelSlice(t=float(t), source=snapped, field=traj.fields[-1])


@dataclass(frozen=True)
class KernelBoundReport:
    mode: str
    slack: float
    tail_floor: float
    worst_ratio: float
    worst_t: float
    passed: bool
    c_fit: Optional[float] = None
    c_prime: Optional[float] = None


def _upper_hull_fit(x, y):
    """Line through the upper convex hull of a point cloud.

    Returns (slope, intercept) with intercept lifted so the line dominates
    every sample; this is the natural least-squares reading of "best
    constants" for a one-sided envelope.
    """
    order = np.argsort(x)
    x, y = x[order], y[order]
    # one representative (max y) per distinct x
    ux, uy = [], []
    for xi, yi in zip(x, y):
        if ux and xi - ux[-1] <= 1e-12 * max(1.0, abs(ux[-1])):
            uy[-1] = max(uy[-1], yi)
        else:
            ux.append(xi)
            uy.append(yi)
    if len(ux) < 2:
        raise ConfigError("envelope fit needs spread in t*(mu_z + mu_w)")
    hull = []
    for p in zip(ux, uy):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) >= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    # the hull keeps at least two of the >= 2 distinct abscissae
    hx, hy = np.array(hull).T
    slope = np.polyfit(hx, hy, 1)[0]
    return float(slope), float(np.max(y - slope * x))


def kernel_bound_check(slices, mode="general", slack=0.05, tail_floor=1e-3,
                       weight=None):
    """Grade kernel slices against the analytic envelopes.

    general mode: nodewise |H| <= envelope * (1 + slack) wherever |H| is at
    least tail_floor * max|H| (below that the values are solver noise and
    lattice tails, not testable signal).  polynomial mode additionally fits
    the constants (C, C') of the weighted envelope

        |H| <= C t^{-1} exp(-|z-w|^2/(32 t) - C' t (mu_z^-2 + mu_w^-2))

    by a line through the upper hull of the (t*(mu_z^-2 + mu_w^-2),
    log|H| + log t + |z-w|^2/(32t)) cloud, lifted to dominate every sample;
    C' > 0 is the sign that delta(phi) > 0 is felt by the kernel.  mu_z is
    weights.mu at its default truncation, the mu that delta scans, made
    once on the grid that every slice must share.
    """
    if isinstance(slices, KernelSlice):
        slices = [slices]
    if mode not in ("general", "polynomial"):
        raise ConfigError("unknown kernel check mode %r" % (mode,))
    if not slices:
        raise ConfigError("no kernel slices supplied")
    if not slack >= 0:
        raise ConfigError("kernel slack must be >= 0, got %g" % slack)
    if mode == "polynomial":
        if weight is None:
            raise ConfigError("polynomial mode needs the weight")
        spec = slices[0].field.spec
        if any(sl.field.spec != spec for sl in slices):
            raise ConfigError("polynomial mode needs every slice on one grid")
        zz = spec.nodes()
        mu_inv = mu(weight, zz, 1.0) ** -2.0

    worst = -np.inf
    worst_t = slices[0].t
    xs, ys = [], []
    for sl in slices:
        vals = np.abs(sl.field.values)
        vmax = float(vals.max())
        env = sl.envelope()
        mask = vals >= tail_floor * vmax
        ratio = np.zeros_like(vals)
        ratio[mask] = vals[mask] / env[mask]
        r = float(ratio.max())
        if r > worst:
            worst = r
            worst_t = sl.t
        if mode == "polynomial":
            mu_src = mu(weight, sl.source, 1.0) ** -2.0
            sel = mask & (vals > 0)
            y = (
                np.log(vals[sel])
                + math.log(sl.t)
                + np.abs(zz[sel] - sl.source) ** 2 / (32.0 * sl.t)
            )
            x = sl.t * (mu_inv[sel] + mu_src)
            xs.append(x)
            ys.append(y)

    c_fit = c_prime = None
    if mode == "polynomial":
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        slope, intercept = _upper_hull_fit(x, y)
        c_prime = -float(slope)
        c_fit = float(np.exp(intercept))

    return KernelBoundReport(
        mode=mode,
        slack=float(slack),
        tail_floor=float(tail_floor),
        worst_ratio=float(worst),
        worst_t=float(worst_t),
        passed=bool(worst <= 1.0 + slack),
        c_fit=c_fit,
        c_prime=c_prime,
    )
