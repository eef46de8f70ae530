"""Decay fits, norm-ratio probes, perturbation runs, Beta identity."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from dbarheat import (
    ConfigError,
    GridSpec,
    Nonlinearity,
    StepperConfig,
    Trajectory,
    assemble_box,
    beta_identity_check,
    fit_decay,
    get_weight,
    lp_lq_probe,
    sample,
    stability_experiment,
)
from dbarheat import stability
from dbarheat.stability import BOUNDARY_MASS_TOL


def test_fit_decay_exact_power_law():
    t = np.linspace(0.2, 3.0, 12)
    fit = fit_decay(t, 7.0 * t ** -0.5, "power_law", (0.0, 4.0), target=-0.5)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.coefficient == pytest.approx(7.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.rel_deviation == pytest.approx(0.0, abs=1e-10)
    assert fit.fitted == fit.exponent
    for ti in t:
        assert fit.model_value(ti) == pytest.approx(7.0 * ti ** -0.5,
                                                    rel=1e-12)


def test_fit_decay_exact_exponential():
    t = np.linspace(0.1, 2.0, 9)
    fit = fit_decay(t, 3.0 * np.exp(-2.0 * t), "exponential", (0.0, 2.5),
                    target=2.0)
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.coefficient == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.exponent == 0.0 and fit.fitted == fit.rate
    for ti in t:
        assert fit.model_value(ti) == pytest.approx(3.0 * np.exp(-2.0 * ti),
                                                    rel=1e-12)


def test_fit_decay_exact_exp_power():
    t = np.linspace(0.2, 4.0, 15)
    v = 5.0 * t ** 0.3 * np.exp(-1.5 * t)
    fit = fit_decay(t, v, "exp_power", (0.0, 5.0))
    assert fit.exponent == pytest.approx(0.3, abs=1e-10)
    assert fit.rate == pytest.approx(1.5, abs=1e-10)
    assert fit.coefficient == pytest.approx(5.0, rel=1e-9)
    for ti, vi in zip(t, v):
        assert fit.model_value(ti) == pytest.approx(vi, rel=1e-9)


def test_fit_decay_guards():
    t = np.linspace(0.1, 1.0, 10)
    with pytest.raises(ConfigError, match="5 positive samples"):
        fit_decay(t, np.ones_like(t), "power_law", (2.0, 3.0))
    with pytest.raises(ConfigError, match="model"):
        fit_decay(t, np.ones_like(t), "stretched", (0.0, 1.0))
    # nonpositive and nonfinite samples never enter the regression
    v = 2.0 * t ** -1.0
    v[3] = 0.0
    v[5] = np.nan
    fit = fit_decay(t, v, "power_law", (0.0, 1.0))
    assert fit.n_points == 8
    assert fit.exponent == pytest.approx(-1.0, abs=1e-12)


def test_rel_deviation_semantics():
    t = np.linspace(0.1, 1.0, 8)
    fit = fit_decay(t, t ** -1.0, "power_law", (0.0, 1.0))
    assert fit.rel_deviation is None
    fit0 = fit_decay(t, t ** -1.0, "power_law", (0.0, 1.0), target=0.0)
    assert fit0.rel_deviation == pytest.approx(1.0, abs=1e-12)


def make_probe(spec, width, amp=1.0):
    return sample(spec, lambda z: amp * np.exp(-np.abs(z) ** 2 / width ** 2))


def test_lp_lq_probe_argument_guards(op_modsq16, spec16):
    cfg = StepperConfig(dt=0.05, tol=1e-10)
    sched = np.linspace(0.0, 1.0, 11)
    probe = make_probe(spec16, 1.0)
    # exponents outside 0 < q <= p are refused before 1/q or 1/p is formed
    for p, q in ((1.0, 2.0), (2.0, 0.0), (0.0, 0.0), (2.0, -1.0),
                 (math.inf, 0.0)):
        with pytest.raises(ConfigError, match="q <= p"):
            lp_lq_probe(op_modsq16, p, q, [probe], sched, cfg)
    from dbarheat import ComplexField
    with pytest.raises(ConfigError, match="identically zero"):
        lp_lq_probe(op_modsq16, 2.0, 2.0, [ComplexField.zeros(spec16)],
                    sched, cfg)


def test_lp_lq_model_selection(op_modsq16, spec16):
    cfg = StepperConfig(dt=0.05, tol=1e-10)
    sched = np.linspace(0.0, 1.0, 11)
    probe = make_probe(spec16, 1.0, amp=0.2)
    flat = lp_lq_probe(op_modsq16, 2.0, 2.0, [probe], sched, cfg)
    assert flat.model == "power_law"
    expo = lp_lq_probe(op_modsq16, 2.0, 2.0, [probe], sched, cfg,
                       delta_positive=True)
    assert expo.model == "exponential"
    both = lp_lq_probe(op_modsq16, math.inf, 2.0, [probe], sched, cfg,
                       delta_positive=True)
    assert both.model == "exp_power"
    assert both.target_exponent == pytest.approx(-0.5)


def test_lp_lq_exponential_rate_hits_bottom_eigenvalue(op_modsq16, spec16):
    # ||u(t)||_2 / ||u0||_2 ~ e^{-lambda_min t} for generic data late in time
    from dbarheat import operator_audit
    lam = operator_audit(op_modsq16, trials=0).lambda_min
    cfg = StepperConfig(dt=0.02, tol=1e-12)
    sched = np.round(np.linspace(0.0, 5.0, 26), 12)
    probe = make_probe(spec16, 1.0, amp=0.1)
    rep = lp_lq_probe(op_modsq16, 2.0, 2.0, [probe], sched, cfg,
                      window=(2.0, 5.0), delta_positive=True, target_rate=lam)
    assert rep.fits[0].rate == pytest.approx(lam, rel=0.02)
    assert rep.fits[0].r_squared > 0.999
    assert rep.worst_rel_deviation < 0.02


def test_boundary_screen_is_absolute(spec16):
    # a probe wide enough to splash the Dirichlet ring above 1e-4 must have
    # those snapshots excluded; on a tiny domain that is every snapshot,
    # so the fit has no points left and the probe reports the config error
    spec = GridSpec(extent=2.0, points=16)
    op = assemble_box(spec, get_weight("zero"))
    cfg = StepperConfig(dt=0.05, tol=1e-10)
    sched = np.linspace(0.0, 1.0, 11)
    wide = make_probe(spec, 2.0)
    with pytest.raises(ConfigError, match="positive samples"):
        lp_lq_probe(op, 2.0, 2.0, [wide], sched, cfg)
    tight = make_probe(spec, 0.3, amp=1e-5)
    rep = lp_lq_probe(op, 2.0, 2.0, [tight], sched, cfg)
    assert not rep.boundary_excluded.any()


def test_stability_experiment_identical_data_rejected(op_modsq16, spec16):
    nl = Nonlinearity(3.0)
    cfg = StepperConfig(dt=0.05, tol=1e-10)
    u0 = make_probe(spec16, 1.0, amp=0.05)
    sched = np.linspace(0.0, 0.5, 6)
    with pytest.raises(ConfigError, match="perturbed datum"):
        stability_experiment(op_modsq16, nl, u0, u0.copy(), sched, cfg)


def test_stability_experiment_imex_exponential(op_modsq16, spec16):
    from dbarheat import operator_audit
    lam = operator_audit(op_modsq16, trials=0).lambda_min
    nl = Nonlinearity(3.0)
    cfg = StepperConfig(dt=0.01, tol=1e-11)
    u0 = make_probe(spec16, 1.0, amp=0.05)
    sched = np.round(np.linspace(0.0, 3.0, 31), 12)
    rep = stability_experiment(op_modsq16, nl, u0, 1.01 * u0, sched, cfg,
                               q=3.0, window=(1.0, 3.0), delta_positive=True,
                               target_rate=lam, solver="imex")
    assert rep.model == "exponential"
    assert rep.converged
    assert rep.fit.rate > 0
    assert rep.fit.rate == pytest.approx(lam, rel=0.05)
    assert rep.constant > 0
    assert np.all(np.diff(rep.distances) < 0)
    with pytest.raises(ConfigError, match="solver"):
        stability_experiment(op_modsq16, nl, u0, 1.01 * u0, sched, cfg,
                             solver="rk4")


def test_stability_distances_make_no_trajectory_sized_temporary(
        monkeypatch):
    # the L^q distances and boundary masses of u - u_hat are taken one
    # snapshot at a time; the two solutions come from a stub solver
    spec = GridSpec(extent=6.0, points=65)
    times = np.linspace(0.0, 0.8, 9)
    bump = np.exp(-np.abs(spec.nodes()) ** 2)
    decay = np.exp(-times)[:, None, None]
    base = Trajectory(spec, times, decay * bump)
    perturbed = Trajectory(spec, times, decay ** 2 * (0.9 * bump))
    solutions = iter([base, perturbed])
    report = SimpleNamespace(iterations=1, converged=True, diverged=False)
    monkeypatch.setattr(stability, "picard_solve",
                        lambda *args, **kwargs: (next(solutions), report))
    u0 = sample(spec, lambda z: np.exp(-np.abs(z) ** 2))
    tracemalloc.start()
    try:
        rep = stability_experiment(None, Nonlinearity(3.0), u0, 0.9 * u0,
                                   times, StepperConfig(dt=0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < base.values.nbytes
    diff = Trajectory(spec, times, base.values - perturbed.values)
    assert np.array_equal(rep.distances, diff.norms(3.0))
    assert not rep.boundary_excluded.any()


# -- Beta identity ----------------------------------------------------------

BETA_CASES = [(0.5, 0.5), (0.3, 0.4), (0.9, 0.05)]


def math_beta(k, l):
    return math.gamma(1.0 - k) * math.gamma(1.0 - l) / math.gamma(2.0 - k - l)


@pytest.mark.parametrize("k,l", BETA_CASES)
@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_beta_identity_quadrature_vs_gamma(k, l, t):
    rep = beta_identity_check(k, l, t=t)
    assert rep.abs_error < 1e-6
    # closed form independently via math.gamma
    assert rep.closed_form == pytest.approx(math_beta(k, l), rel=1e-12)


def test_beta_half_half_is_pi():
    rep = beta_identity_check(0.5, 0.5)
    assert abs(rep.quadrature - math.pi) < 1e-8
    assert abs(rep.closed_form - math.pi) < 1e-12


def test_beta_value_is_t_independent():
    r1 = beta_identity_check(0.3, 0.4, t=0.1)
    r2 = beta_identity_check(0.3, 0.4, t=2.0)
    assert abs(r1.quadrature - r2.quadrature) < 1e-10


def test_beta_domain_guards():
    for bad in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(ConfigError):
            beta_identity_check(*bad)
    with pytest.raises(ConfigError):
        beta_identity_check(0.5, 0.5, t=0.0)
