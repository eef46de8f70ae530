"""Mild solutions of du/dt + Box u = |u|^{m-1} u by Picard iteration.

The integral (Duhamel) form

    u(t) = e^{-t Box} u0 + int_0^t e^{-(t-s) Box} f(u(s)) ds,
    f(u) = |u|^{m-1} u,  m > 2,

is iterated as u^{k+1} = Phi(u^k) starting from the linear trajectory
Phi(0).  One application of Phi is a single forward sweep over a uniform
snapshot schedule: with Prop the one-interval propagator (ds/dt steps of
the semigroup's theta-scheme, cfg.scheme) and f_j = f(v(t_j)),

    u_{j+1} = Prop [ u_j + (ds/2) f_j ] + (ds/2) f_{j+1},

which telescopes to the linear term plus the trapezoid-rule Duhamel
integral with every quadrature node propagated by the same scheme.

The sweep is linear in (u0, f), so with D the same sweep from zero data,
Phi(v) = v + D(f(v) - f(w)) whenever v = Phi(w).  Picard sweeps use this:
the first propagates f(Phi(0)) against w = 0, each later one only the
change in forcing since the previous iterate.  stepper.tol then bounds
each solve's residual relative to the state, ||r|| < tol ||v(t_{j-1})||,
rather than relative to the small increment; that is the accuracy a full
sweep gives, at a fraction of the CG iterations once iterates settle.

Distances between iterates are measured in the contraction norm

    ||v||_Y = sup_t ||v(t)||_{m-1} + sup_{t>0} t^{1/(m-1)-1/q} ||v(t)||_q,

whose two pieces mirror the persistence and smoothing halves of the
fixed-point argument; the iteration is a contraction when the data are
small and 1 < m-1 < q < m(m-1).

A first-order IMEX scheme, backward Euler on Box with f explicit, is the
independent cross-check on the fixed point; its steps are the same
Propagator.advance steps, with f as the forcing.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalError
from .grid import ComplexField, lp_norm
from .semigroup import (
    Propagator,
    Trajectory,
    _schedule_steps,
    _snapshots,
    evolve_linear,
)

__all__ = [
    "Nonlinearity",
    "PicardReport",
    "y_norm",
    "y_distance",
    "duhamel_apply",
    "picard_solve",
    "solve_imex",
]

#: the looser blow-up factor of IMEX runs, whose forcing may grow u at first.
IMEX_BLOWUP_FACTOR = 100.0


@dataclass(frozen=True)
class Nonlinearity:
    """Power nonlinearity f(u) = |u|^{m-1} u with exponent m > 2.

    The pointwise Lipschitz bound |f(a) - f(b)| <= m (|a|^{m-1} + |b|^{m-1})
    |a - b| is what the contraction argument consumes; lipschitz_constant
    records the factor m.
    """

    m: float

    def __post_init__(self):
        if not 2 < self.m < math.inf:
            raise ConfigError("nonlinearity exponent must satisfy 2 < m < inf")

    @property
    def lipschitz_constant(self):
        return self.m

    def apply(self, field):
        v = field.values
        # inf * 0j inside the product is caught by the finiteness check
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.abs(v) ** (self.m - 1.0) * v
        if not np.all(np.isfinite(out)):
            raise NumericalError("nonlinear forcing overflowed")
        return ComplexField(field.spec, out)


def _y_norm_of(times, fields, m, q):
    """Y-norm of the snapshots fields, one per time, from their norms.

    fields may be a generator: each snapshot is measured and dropped
    before the next is made.
    """
    if q <= 0:
        raise ConfigError("y_norm requires q > 0, got %g" % q)
    if not (1.0 < m - 1.0 < q < m * (m - 1.0)):
        warnings.warn(
            "(m=%g, q=%g) outside the contraction window 1 < m-1 < q < m(m-1)"
            % (m, q),
            stacklevel=3,
        )
    alpha = 1.0 / (m - 1.0) - 1.0 / q
    persist, weighted = [], []
    for t, f in zip(times, fields):
        persist.append(lp_norm(f, m - 1.0))
        smooth = lp_norm(f, q)
        if t > 0:
            weighted.append(t ** alpha * smooth)
    return np.max(persist) + max(weighted, default=0.0)


def y_norm(traj, m, q):
    """Contraction-space norm of a trajectory.

    sup_t ||u(t)||_{m-1} + sup_{t>0} t^{1/(m-1)-1/q} ||u(t)||_q; the t = 0
    snapshot is excluded from the weighted term.  Warns when (m, q) leaves
    the window 1 < m-1 < q < m(m-1) in which the norm controls the
    fixed-point argument.
    """
    return _y_norm_of(traj.times, traj.fields, m, q)


def y_distance(a, b, m, q):
    """Y-norm of the difference of two trajectories on a common schedule.

    The difference is formed one snapshot at a time (Trajectory.differences),
    so no trajectory-sized temporary is made.
    """
    if a.values.shape != b.values.shape or not np.allclose(a.times, b.times):
        raise ConfigError("trajectories live on different schedules")
    return _y_norm_of(a.times, a.differences(b), m, q)


def _check_uniform(times, dt):
    """(ds, dt-steps per interval) of a schedule with uniform steps."""
    times, steps = _schedule_steps(times, dt)
    ds = np.diff(times)
    if np.max(np.abs(ds - ds[0])) > 1e-9 * ds[0]:
        raise ConfigError("Duhamel sweep needs a uniform snapshot schedule")
    return float(ds[0]), steps[1]


def duhamel_apply(op, nl, u0, v, cfg, prev=None):
    """One Picard map application Phi(v) over v's own snapshot schedule.

    The schedule step must be a multiple of cfg.dt; each interval is
    propagated with cfg.dt substeps while the trapezoid rule accumulates
    the forcing, so the returned trajectory is the mild-solution map of v
    up to O(ds^2) quadrature and O(dt^2) stepping error.

    prev, when given, is an iterate with v = Phi(prev).  Then only the
    increment D(f(v) - f(prev)) is propagated, from zero data and to the
    state's accuracy (see the module docstring), and Phi(v) is written
    into prev's array, which the caller must no longer use.

    The forcing increment and the trapezoid terms (ds/2) f_j are formed
    in place, each f_j once and used at both ends of its two intervals,
    so a sweep holds a few grid vectors besides the two trajectories.
    """
    ds, sub = _check_uniform(v.times, cfg.dt)
    if prev is not None and prev.values.shape != v.values.shape:
        raise ConfigError("trajectories live on different schedules")

    def half_forcing(j):
        """(ds/2) f_j, in a new array."""
        f = nl.apply(v.fields[j]).ravel()
        if prev is not None:
            f -= nl.apply(prev.fields[j]).ravel()
        return np.multiply(0.5 * ds, f, out=f)

    if prev is None:
        u, values = u0.ravel().astype(complex), np.empty_like(v.values)
    else:
        u, values = np.zeros(v.values[0].size, complex), prev.values
    prop = Propagator(op, cfg)
    f_prev = half_forcing(0)
    values[0] = u0.values
    for j in range(1, len(v.times)):
        f_next = half_forcing(j)
        atol = 0.0
        if prev is not None:
            atol = cfg.tol * np.linalg.norm(v.values[j - 1])
        # f_prev is spent after this interval: it takes u + (ds/2) f_prev
        u = prop.advance(np.add(u, f_prev, out=f_prev), sub, atol=atol)
        u += f_next
        values[j] = u.reshape(values.shape[1:])
        if prev is not None:
            values[j] += v.values[j]
        if not np.all(np.isfinite(values[j])):
            raise NumericalError("Duhamel sweep overflowed at t=%g" % v.times[j])
        f_prev = f_next
    return Trajectory(spec=op.spec, times=v.times.copy(), values=values)


@dataclass
class PicardReport:
    """Convergence record of the fixed-point iteration: the Y-distance
    between successive iterates, one per sweep (inf for an overflowed
    sweep)."""

    converged: bool
    diverged: bool
    distances: List[float]
    y_norm_final: float
    tol: float
    m: float
    q: float

    @property
    def iterations(self):
        return len(self.distances)

    @property
    def ratios(self):
        """d[k+1] / d[k]: 0.0 after a zero distance, inf after an
        overflowed sweep."""
        d = self.distances
        return [b / a if a > 0 else 0.0 for a, b in zip(d, d[1:])]


def picard_solve(op, nl, u0, schedule, cfg, q=3.0, tol=1e-9, max_iter=25):
    """Iterate u <- Phi(u) from the linear trajectory until the Y-distance
    of successive iterates drops below tol * (1 + Y(linear)).

    Divergence is declared on four strictly increasing distances or on a
    non-finite distance (large data genuinely blow up; the detector keeps
    that informative instead of raising from deep inside a solver).  A
    linear solve that stalls raises its ConvergenceError instead, so solver
    failures are never reported as divergence.
    Returns (trajectory, report).
    """
    if not tol > 0:
        raise ConfigError("Picard tolerance must be positive, got %g" % tol)
    if max_iter < 1:
        raise ConfigError("Picard max_iter must be >= 1, got %d" % max_iter)
    _check_uniform(schedule, cfg.dt)
    current = evolve_linear(op, u0, schedule, cfg)
    scale = 1.0 + y_norm(current, nl.m, q)
    # current = Phi(prev) holds with prev = 0 for the linear trajectory
    prev = Trajectory(op.spec, current.times, np.zeros_like(current.values))
    distances: List[float] = []
    converged = diverged = False
    for _ in range(max_iter):
        try:
            nxt = duhamel_apply(op, nl, u0, current, cfg, prev=prev)
            d = y_distance(nxt, current, nl.m, q)
        except ConvergenceError:
            raise
        except NumericalError:
            distances.append(math.inf)
            diverged = True
            break
        distances.append(d)
        prev, current = current, nxt
        if d <= tol * scale:
            converged = True
            break
        if not math.isfinite(d) or (len(distances) >= 4 and distances[-4]
                                    < distances[-3] < distances[-2] < d):
            diverged = True
            break
    report = PicardReport(
        converged=converged,
        diverged=diverged,
        distances=distances,
        y_norm_final=y_norm(current, nl.m, q),
        tol=tol,
        m=nl.m,
        q=q,
    )
    return current, report


def solve_imex(op, nl, u0, times, cfg):
    """First-order IMEX scheme: (I + dt Box) u^{k+1} = u^k + dt f(u^k).

    Backward Euler (theta = 1) on the stiff linear part regardless of
    cfg.scheme, the forcing explicit: Propagator.advance steps with f as
    its forcing, one snapshot per time of the schedule.  Aborts once the
    L^2 norm exceeds IMEX_BLOWUP_FACTOR times its initial value (blow-up
    detector for super-threshold data), checked before f is formed.
    """
    spec = op.spec
    n = spec.points
    u = u0.ravel().astype(complex)
    cap = IMEX_BLOWUP_FACTOR * np.linalg.norm(u)
    step = itertools.count()

    def forcing(v):
        t = next(step) * cfg.dt
        if not np.all(np.isfinite(v)) or np.linalg.norm(v) > cap:
            raise NumericalError("IMEX evolution blew up at t=%g" % t)
        return nl.apply(ComplexField(spec, v.reshape(n, n))).ravel()

    return _snapshots(op, u, times, replace(cfg, scheme="backward_euler"),
                      cap, "IMEX evolution", forcing)
