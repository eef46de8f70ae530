"""Linear evolution e^{-t Box}: stepping, heat-kernel slices, bound checks.

Time discretization is the theta-scheme

    (I + theta dt A) u^{k+1} = u^k - (1 - theta) dt A u^k,

Crank-Nicolson (theta = 1/2) by default and backward Euler (theta = 1)
as the robust fallback for very stiff potentials.  Only the left-hand
operator is built, from the five coefficient arrays of Box's stencil:
scaled, or split by colour on the stiff path below.  Each step makes one
product A u outside the solve: it gives the explicit part of the
right-hand side and the initial residual of the solve.  Each step is
solved by conjugate gradients (the operator is Hermitian positive
definite for dt > 0) in cg below, a loop over stencil products that
repeats scipy.sparse.linalg.cg's arithmetic, so stepping loads no scipy.
Stiff steps, whose lhs diagonal spreads by more than JACOBI_MIN_SPREAD
(steep potentials such as modquartic, or flat_example on a wide square),
are solved on the red-black Schur complement: the five-point stencil
couples each red node (ix + iy even) only to black ones, so the red
nodes are eliminated exactly, CG with Jacobi scaling runs on the black
half of the unknowns, and one back-substitution recovers the red half
(redblack.SchurComplement).  On the flat-picard benchmark workload this
takes 504 CG iterations where Jacobi CG on the whole grid took 816.  The
stopping test stays on the unpreconditioned residual of the whole
system, ||b - (I + theta dt A) x|| < max(atol, tol ||b||), so tol and
max_iterations mean the same on either path; atol is 0 except in Picard
increment sweeps, which pass the accuracy of the state they correct.

Real flows are stepped in real arithmetic.  When Box's stencil is real
(phi_z = 0 on every node, as for the zero weight, whose Box is
-Laplacian/4) and the datum has no imaginary part, evolve_linear steps u
in float64: the theta-scheme maps real vectors to real vectors, so only
the rounding changes.  cg works in the result type of the operator and
the right-hand side, so complex data on a real stencil (Duhamel sweeps and
IMEX steps stay complex) are solved in complex128.  Trajectory values are
complex either way.

CG starts from a predictor.  The first step of each Propagator.advance
call starts from x0 = u, whose residual b - (I + theta dt A) u is
-dt A u.  Later steps of a plain-CG propagator start from the quadratic
extrapolation x0 = 3 u_k - 3 u_{k-1} + u_{k-2} of the call's last states
(linear, 2 u_k - u_{k-1}, on its second step).  A x0 is the same
combination of the products A u_j already made for those steps, so the
residual b - x0 - theta dt A x0 costs no extra product.  Stiff
propagators keep x0 = u: the Crank-Nicolson amplification is near -1 on
their stiff modes, and extrapolating in time saves almost no iterations
there.

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
from .grid import ComplexField, GridSpec, boundary_mass, lp_norm
from .weights import _mu_inv_sq_batch, _validate_j_max

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

#: Jacobi-precondition CG when max|diag| / min|diag| of the lhs exceeds this;
#: below it the preconditioner costs more than the iterations it saves.
JACOBI_MIN_SPREAD = 2.0

#: refuse a schedule time that takes more time steps than this; the
#: longest preset takes 400.
MAX_STEPS = 10 ** 6

#: dissipative flows must not grow; beyond this factor we declare blow-up.
BLOWUP_FACTOR = 10.0

#: the looser blow-up factor of IMEX runs, whose forcing may grow u at first.
IMEX_BLOWUP_FACTOR = 100.0

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
        if not self.tol > 0 or self.max_iterations < 1:
            raise ConfigError("bad solver tolerance or iteration cap")


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


def _norm(v):
    """np.linalg.norm(v) of a float64 or complex128 vector, as a float."""
    if v.dtype.kind == "c":
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


@np.errstate(over="ignore", invalid="ignore")
def cg(a, b, x0, rtol, maxiter, inv_diag=None, callback=None, atol=0.0,
       r0=None):
    """Conjugate gradients for Hermitian positive definite a x = b.

    a is a Stencil or a SchurComplement (anything with dot(x, out=y)).
    Works in the result type of a and b, so a real stencil solves a
    complex b in complex128.
    Jacobi-preconditioned by the array inv_diag when given.  Without r0
    the arithmetic is that of scipy.sparse.linalg.cg (scipy 1.17) in the
    same order, so the iterates agree to the bit: the stopping test is the
    recursive residual ||r|| < max(atol, rtol ||b||), checked before each
    iteration, and callback(x) runs after each one.  r0, the residual
    b - a x0 when the caller already has it, replaces the product that
    would compute it.  x0 (None for zero), b and r0 are not modified.  The
    products q = a p and the preconditioned residual z go into buffers
    made once per call; norms are the sums np.linalg.norm forms.
    Returns (x, 0) on convergence and (x, maxiter) when the cap is reached;
    raises NumericalError, without a numpy warning, when ||b|| or the
    residual norm overflows, as a solution that blows up makes them do.
    """
    dtype = np.result_type(a.dtype, b)
    b = np.asarray(b, dtype=dtype)
    bnrm2 = _norm(b)
    if bnrm2 == 0:
        return b.copy(), 0
    if not math.isfinite(bnrm2):
        raise NumericalError("linear solve overflowed: ||b|| = %g" % bnrm2)
    atol = max(float(atol), float(rtol) * bnrm2)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=dtype)
    if r0 is not None:
        r = np.array(r0, dtype=dtype)
    else:
        r = b - a @ x if x.any() else b.copy()
    step, q = np.empty_like(b), np.empty_like(b)
    z = r if inv_diag is None else np.empty_like(b)
    p = rho_prev = None
    for _ in range(maxiter):
        rnorm = _norm(r)
        if rnorm < atol:
            return x, 0
        if not math.isfinite(rnorm):
            raise NumericalError("linear solve overflowed: residual norm %g"
                                 % rnorm)
        if inv_diag is not None:
            np.multiply(r, inv_diag, out=z)
        rho = np.vdot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        a.dot(p, out=q)
        alpha = rho / np.vdot(p, q)
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
    spreads by at most JACOBI_MIN_SPREAD it is that lhs, as a stencil on
    op.matrix's scratch (the two are applied one after the other), and
    preconditioner is None.  Otherwise the step is stiff: lhs is the
    SchurComplement of I + theta dt A on the black nodes, with
    preconditioner its Jacobi scaling, and no full lhs stencil is built.
    solve() is exposed separately so the IMEX nonlinear stepper can add an
    explicit forcing to the right-hand side; atol in solve() and advance()
    is the absolute residual floor of cg.

    advance() starts each solve after its first from the quadratic
    extrapolation of the call's last three states when preconditioner is
    None (see the module docstring); it keeps the last two (u, A u) pairs
    of the call for that, and forgets them when it returns.
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

    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, b, x0=None, atol=0.0, r0=None):
        """x with ||b - (I + theta dt A) x|| < max(atol, tol ||b||)."""
        tol, maxiter, lhs = self.cfg.tol, self.cfg.max_iterations, self.lhs
        if self.preconditioner is None:
            x, info = cg(lhs, b, x0, tol, maxiter, atol=atol, r0=r0)
        else:
            # CG on S d = r_S corrects the black nodes of x0 (for b = 0 the
            # solution is 0 from any x0); the residual of S is the full one
            # after expand(), so the test on it is scaled by the full ||b||
            bnorm = _norm(b)
            if x0 is None or bnorm == 0:
                x_black, r_s = 0.0, lhs.reduce(b)
            else:
                x_black = x0[lhs.black]
                r_s = (lhs.reduce(b) - lhs @ x_black if r0 is None
                       else lhs.reduce(r0))
            d, info = cg(lhs, r_s, None, 0.0, maxiter, self.preconditioner,
                         atol=max(atol, tol * bnorm))
            x = lhs.expand(b, x_black + d)
        if info != 0:
            raise ConvergenceError(
                "linear solver stagnated (info=%d) at rtol=%g"
                % (info, self.cfg.tol)
            )
        return x

    def advance(self, u, n_steps, atol=0.0):
        predict = self.preconditioner is None
        history = []  # (u, A u) of the call's last two steps, oldest first
        for _ in range(n_steps):
            au = self.matrix @ u
            b = u
            if self.explicit_dt:
                # u - (explicit_dt * au), in one new array
                b = np.multiply(self.explicit_dt, au)
                np.subtract(u, b, out=b)
            if not history:
                # from x0 = u the residual b - (I + theta dt A) u is -dt A u
                x0, r0 = u, -self.cfg.dt * au
            else:
                if len(history) == 1:
                    (u1, au1), = history
                    x0, ax0 = 2.0 * u - u1, 2.0 * au - au1
                else:
                    (u2, au2), (u1, au1) = history
                    x0 = 3.0 * (u - u1) + u2
                    ax0 = 3.0 * (au - au1) + au2
                r0 = b - x0
                r0 -= self.implicit_dt * ax0
            if predict:
                history = history[-1:] + [(u, au)]
            u = self.solve(b, x0=x0, atol=atol, r0=r0)
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


def evolve_linear(op, u0, times, cfg):
    """Evolve du/dt + Box u = 0 from u0, with a snapshot at each time of
    the schedule (see _schedule_steps).  A real u0 on a real stencil is
    stepped in float64 (see the module docstring).

    The flow is dissipative, so any growth of the L^2 norm beyond a fixed
    factor aborts with a blow-up diagnostic rather than returning garbage.
    """
    times, steps = _schedule_steps(times, cfg.dt)
    prop = Propagator(op, cfg)
    u = u0.ravel().astype(complex)
    if op.matrix.dtype.kind == "f" and not u.imag.any():
        u = u.real.copy()  # a real flow stays real: step it in float64
    norm0 = np.linalg.norm(u)
    n = op.spec.points
    values = np.empty((len(times), n, n), dtype=complex)
    done = 0
    for i, (t, k) in enumerate(zip(times, steps)):
        u = prop.advance(u, k - done)
        done = k
        if not np.all(np.isfinite(u)) or np.linalg.norm(u) > BLOWUP_FACTOR * norm0:
            raise NumericalError("linear evolution blew up at t=%g" % t)
        values[i] = u.reshape(n, n)
    return Trajectory(spec=op.spec, times=times, values=values)


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
    unresolved) and t < 10 dt (the stepping error would dominate).
    """
    spec = op.spec
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
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    if hx.size >= 2:
        slope, intercept = np.polyfit(hx, hy, 1)
    else:
        slope, intercept = 0.0, hy[0]
    intercept = float(np.max(y - slope * x))
    return float(slope), intercept


def kernel_bound_check(slices, mode="general", slack=0.05, tail_floor=1e-3,
                       weight=None, j_max=None):
    """Grade kernel slices against the analytic envelopes.

    general mode: nodewise |H| <= envelope * (1 + slack) wherever |H| is at
    least tail_floor * max|H| (below that the values are solver noise and
    lattice tails, not testable signal).  polynomial mode additionally fits
    the constants (C, C') of the weighted envelope

        |H| <= C t^{-1} exp(-|z-w|^2/(32 t) - C' t (mu_z^-2 + mu_w^-2))

    by a line through the upper hull of the (t*(mu_z^-2 + mu_w^-2),
    log|H| + log t + |z-w|^2/(32t)) cloud, lifted to dominate every sample;
    C' > 0 is the sign that delta(phi) > 0 is felt by the kernel.
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
        jm = _validate_j_max(weight, j_max)

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
            zz = sl.field.spec.nodes()
            mu_inv = _mu_inv_sq_batch(weight, zz.ravel(), jm).reshape(zz.shape)
            mu_src = float(
                _mu_inv_sq_batch(weight, np.array([sl.source]), jm)[0]
            )
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
