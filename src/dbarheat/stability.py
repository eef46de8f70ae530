"""Decay-rate fits, L^p-L^q probes, perturbation stability, Beta identity.

The linear semigroup is expected to obey

    ||e^{-t Box} u0||_q <= C t^{-(1/p - 1/q)} ||u0||_p          (delta = 0)
    ||e^{-t Box} u0||_q <= C t^{-(1/p - 1/q)} e^{-c delta t} ||u0||_p  (delta > 0)

and two mild solutions with close data to separate no faster than a
power law t^{-(1/(m-1) - 1/q)} (flat weight) or an exponential (positive
delta).  Everything here measures those rates empirically: evolve, take
norm ratios, fit log-log or log-linear, compare the fitted exponent or
rate against its target.  Boundary contamination is screened out by the
outer-ring mass indicator before any point enters a fit.

beta_identity_check verifies the time-singular convolution identity

    t^{k+l-1} int_0^t (t-s)^{-k} s^{-l} ds = B(1-k, 1-l),  0 < k, l < 1,

by adaptive quadrature in the substitution s = t sin^2(theta) against a
log-Gamma evaluation of the Beta function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalError
from .grid import boundary_mass, lp_norm
from .mild import Nonlinearity, picard_solve, solve_imex
from .semigroup import evolve_linear

__all__ = [
    "BOUNDARY_MASS_TOL",
    "DecayFit",
    "default_window",
    "fit_decay",
    "LpLqProbe",
    "lp_lq_probe",
    "PerturbReport",
    "stability_experiment",
    "BetaCheckReport",
    "beta_identity_check",
]

# Snapshots whose outer-ring amplitude exceeds this absolute level never
# enter a fit: past it the Dirichlet wall, not the weight, sets the rate.
BOUNDARY_MASS_TOL = 1e-4

# A decay fit needs at least this many positive samples in its window.
MIN_FIT_SAMPLES = 5


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of the decay law

        v ~ coefficient * t^exponent * exp(-rate * t)

    on a time window.  model "power_law" fits the exponent with rate 0,
    "exponential" the rate with exponent 0, "exp_power" both; fitted is the
    lead parameter (the rate of an exponential fit, else the exponent).
    """

    model: str
    coefficient: float
    exponent: float
    rate: float
    r_squared: float
    window: tuple
    n_points: int
    target: Optional[float] = None

    @property
    def fitted(self):
        return self.rate if self.model == "exponential" else self.exponent

    @property
    def rel_deviation(self):
        """|fitted - target| / |target|, or |fitted| for a zero target."""
        if self.target is None:
            return None
        denom = abs(self.target)
        if denom == 0.0:
            return abs(self.fitted)
        return abs(self.fitted - self.target) / denom

    def model_value(self, t):
        """The fitted law at time t; the unused parameter of a one-term
        model is exactly 0.0, so its factor is exactly 1."""
        return (self.coefficient * t ** self.exponent
                * math.exp(-self.rate * t))


def _fit_mask(times, window, subsample=None):
    """The times a decay fit can use before any value is known: t > 0
    inside the window and, when given, nearest one of the subsample times."""
    times = np.asarray(times, dtype=float)
    keep = (times > 0) & (times >= window[0]) & (times <= window[1])
    if subsample is not None:
        picks = np.zeros_like(keep)
        for t in subsample:
            picks[int(np.argmin(np.abs(times - t)))] = True
        keep &= picks
    return keep


def _require_fit_samples(keep):
    n = np.count_nonzero(keep)
    if n < MIN_FIT_SAMPLES:
        raise ConfigError(
            "decay fit needs >= %d positive samples in the window, got %d"
            % (MIN_FIT_SAMPLES, n)
        )
    return keep


def _fit_points(times, values, window):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = _require_fit_samples(
        _fit_mask(times, window) & (values > 0) & np.isfinite(values))
    return times[keep], values[keep]


def default_window(times):
    """The fit window when none is given: the first positive snapshot of a
    schedule (which starts at 0) to its last."""
    return (float(times[1]), float(times[-1]))


def fit_decay(times, values, model, window, target=None):
    """Fit v(t) on the window by the named decay model.

    log v is regressed on [log t] (power_law), [t] (exponential) or
    [log t, t] (exp_power), each with an intercept.  Needs at least five
    positive samples inside the window.
    """
    t, v = _fit_points(times, values, window)
    if model not in ("power_law", "exponential", "exp_power"):
        raise ConfigError("unknown decay model %r" % model)
    has_power = model != "exponential"
    has_rate = model != "power_law"
    cols = [np.log(t)] * has_power + [t] * has_rate + [np.ones_like(t)]
    a = np.vstack(cols).T
    logv = np.log(v)
    sol, *_ = np.linalg.lstsq(a, logv, rcond=None)
    resid = logv - a @ sol
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    exponent = float(sol[0]) if has_power else 0.0
    rate = float(-sol[-2]) if has_rate else 0.0
    return DecayFit(model, math.exp(sol[-1]), exponent, rate, r2,
                    tuple(window), t.size, target)


@dataclass
class LpLqProbe:
    """Norm-ratio decay ||u(t)||_p / ||u0||_q over a family of probes.

    Convention: q is the norm the datum is measured in, p the norm the
    evolved field is measured in, q <= p; the predicted prefactor decays
    like t^{-(1/q - 1/p)}.
    """

    p: float
    q: float
    model: str
    times: np.ndarray
    ratios: np.ndarray          # (n_probes, n_times)
    boundary_excluded: np.ndarray  # bool, per (probe, time)
    fits: List[DecayFit]
    target_exponent: float
    target_rate: Optional[float] = None

    @property
    def mean_exponent(self):
        return float(np.mean([f.exponent for f in self.fits]))

    @property
    def mean_rate(self):
        return float(np.mean([f.rate for f in self.fits]))

    @property
    def worst_rel_deviation(self):
        devs = [f.rel_deviation for f in self.fits if f.rel_deviation is not None]
        return max(devs) if devs else None


def lp_lq_probe(op, p, q, probes, schedule, cfg, window=None, model=None,
                delta_positive=False, target_rate=None):
    """Evolve each probe linearly and fit the ||u(t)||_p / ||u0||_q decay.

    Model selection when model is None: power_law for a flat weight; for
    delta > 0 the p == q ratio is fitted purely exponentially and q < p
    by the combined exp_power law.  Snapshots whose boundary mass exceeds
    BOUNDARY_MASS_TOL are dropped from the fit, per probe.
    """
    if not 0 < q <= p:
        raise ConfigError("probe requires 0 < q <= p (datum norm below flow "
                          "norm), got p=%g, q=%g" % (p, q))
    if model is None:
        if not delta_positive:
            model = "power_law"
        else:
            model = "exponential" if p == q else "exp_power"
    target_exp = -(1.0 / q - 1.0 / p)
    target = {"power_law": target_exp, "exponential": target_rate}.get(model)
    window = window or default_window(schedule)
    _require_fit_samples(_fit_mask(schedule, window))
    ratios = []
    excluded = []
    fits = []
    for u0 in probes:
        norm0 = lp_norm(u0, q)
        if norm0 == 0:
            raise ConfigError("probe field is identically zero")
        traj = evolve_linear(op, u0, schedule, cfg)
        times, row = traj.times, traj.norms(p) / norm0
        flags = traj.boundary_masses() > BOUNDARY_MASS_TOL
        # release the snapshots before the next probe evolves its own
        del traj
        ok = ~flags
        fits.append(fit_decay(times[ok], row[ok], model, window, target=target))
        ratios.append(row)
        excluded.append(flags)
    return LpLqProbe(
        p=p, q=q, model=model,
        times=times,
        ratios=np.array(ratios),
        boundary_excluded=np.array(excluded),
        fits=fits,
        target_exponent=target_exp,
        target_rate=target_rate,
    )


@dataclass
class PerturbReport:
    """Separation of two mild solutions with nearby data."""

    model: str
    times: np.ndarray
    distances: np.ndarray
    boundary_excluded: np.ndarray
    fit: DecayFit
    constant: float
    initial_gap: float
    q: float
    m: float
    solver: str
    picard_iterations: tuple
    converged: bool


def stability_experiment(op, nl, u0, u0_hat, schedule, cfg, q=3.0,
                         window=None, delta_positive=False,
                         target_rate=None, solver="picard",
                         picard_tol=1e-9, subsample=None):
    """Run two mild solutions and fit the decay of their L^q distance.

    Flat weight: ||u - u_hat||_q should decay like t^{-(1/(m-1) - 1/q)}
    times the initial gap in L^{m-1}; the implied constant reported is
    max_t d(t) t^{nu} / gap.  Positive delta: exponential model, constant
    max_t d(t) e^{rate t} / gap.  subsample, when given, restricts the
    fitted snapshots to those nearest subsample geometrically spaced times
    across the window (geometric subsampling keeps log-log fits from
    over-weighting late times).  A Picard solve that diverges raises
    ConvergenceError naming its datum before any fit; one that stops at
    its iteration cap is fitted and reported with converged False.
    """
    gap = lp_norm(u0 - u0_hat, nl.m - 1.0)
    if gap == 0:
        raise ConfigError("perturbed datum equals the base datum")
    window = window or default_window(schedule)
    picks = None
    if subsample is not None:
        if subsample < MIN_FIT_SAMPLES:
            raise ConfigError("subsample must be >= %d (the decay fit needs "
                              "that many samples), got %d"
                              % (MIN_FIT_SAMPLES, subsample))
        picks = np.geomspace(window[0], window[1], subsample)
    fit_times = _require_fit_samples(_fit_mask(schedule, window, picks))
    if solver == "picard":
        solved = []
        for name, datum in (("base", u0), ("perturbed", u0_hat)):
            traj, rep = picard_solve(op, nl, datum, schedule, cfg, q=q,
                                     tol=picard_tol)
            if rep.diverged:
                # its distances are not finite: no decay to fit
                raise ConvergenceError(
                    "Picard iteration DIVERGED on the %s datum after %d "
                    "iterations" % (name, rep.iterations))
            solved.append((traj, rep))
        (traj_a, rep_a), (traj_b, rep_b) = solved
        iters = (rep_a.iterations, rep_b.iterations)
        converged = rep_a.converged and rep_b.converged
    elif solver == "imex":
        traj_a = solve_imex(op, nl, u0, schedule, cfg)
        traj_b = solve_imex(op, nl, u0_hat, schedule, cfg)
        iters = (0, 0)
        converged = True
    else:
        raise ConfigError("unknown solver %r" % solver)

    tarr = traj_a.times
    dist, masses = [], []
    for diff in traj_a.differences(traj_b):
        dist.append(lp_norm(diff, q))
        masses.append(boundary_mass(diff))
    dist = np.array(dist)
    flags = np.array(masses) > BOUNDARY_MASS_TOL

    model = "exponential" if delta_positive else "power_law"
    nu = 1.0 / (nl.m - 1.0) - 1.0 / q
    target = target_rate if delta_positive else -nu
    ok = ~flags & fit_times
    fit = fit_decay(tarr[ok], dist[ok], model, window, target=target)

    in_win = ok & (dist > 0)
    if model == "power_law":
        consts = dist[in_win] * tarr[in_win] ** nu / gap
    else:
        consts = dist[in_win] * np.exp(fit.rate * tarr[in_win]) / gap
    return PerturbReport(
        model=model,
        times=tarr,
        distances=dist,
        boundary_excluded=flags,
        fit=fit,
        constant=float(np.max(consts)),
        initial_gap=gap,
        q=q,
        m=nl.m,
        solver=solver,
        picard_iterations=iters,
        converged=converged,
    )


@dataclass(frozen=True)
class BetaCheckReport:
    k: float
    l: float
    t: float
    quadrature: float
    closed_form: float

    @property
    def abs_error(self):
        return abs(self.quadrature - self.closed_form)


def beta_identity_check(k, l, t=1.0):
    """Verify t^{k+l-1} int_0^t (t-s)^{-k} s^{-l} ds = B(1-k, 1-l).

    The substitution s = t sin^2(theta) turns the integral into
    2 t^{1-k-l} int_0^{pi/2} cos(theta)^{1-2k} sin(theta)^{1-2l} d(theta);
    the prefactor cancels t^{k+l-1} exactly, but both factors are kept
    numerically so the check exercises the scaling too.  The closed form
    is evaluated through log-Gamma for stability near the endpoints.
    """
    if not (0.0 < k < 1.0 and 0.0 < l < 1.0):
        raise ConfigError("Beta identity requires 0 < k < 1 and 0 < l < 1")
    if t <= 0:
        raise ConfigError("Beta identity requires t > 0")
    # deferred: only this check needs scipy.integrate, which is slow to import
    from scipy import integrate
    from scipy.special import gammaln

    def integrand(theta):
        # t - s written as t*cos^2 so it cannot round to zero mid-interval
        sn, cs = math.sin(theta), math.cos(theta)
        jac = 2.0 * t * sn * cs
        return (t * cs * cs) ** (-k) * (t * sn * sn) ** (-l) * jac

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, math.pi / 2.0,
                                  epsabs=1e-13, epsrel=1e-13, limit=400)
    lhs = t ** (k + l - 1.0) * val
    rhs = math.exp(gammaln(1.0 - k) + gammaln(1.0 - l) - gammaln(2.0 - k - l))
    if err > 1e-8 * max(1.0, abs(val)):
        raise NumericalError("Beta quadrature error estimate too large")
    return BetaCheckReport(k=k, l=l, t=t, quadrature=lhs, closed_form=rhs)
