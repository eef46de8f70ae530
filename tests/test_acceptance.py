"""Acceptance suite: the eleven gate criteria, one verdict line each.

Each test prints exactly one line

    ACCEPTANCE <n>: PASS|FAIL - <measurements>

before asserting, and the same lines are replayed in a terminal summary
section by conftest so a plain `pytest -v` run shows the full scoreboard.
These runs use the production grids, so this file dominates suite wall
time; every tolerance below is part of the package contract and must not
be loosened to make a red criterion green.
"""

import math
import os

import numpy as np
import pytest

from dbarheat import (
    GridSpec,
    Nonlinearity,
    StepperConfig,
    assemble_box,
    beta_identity_check,
    delta,
    evolve_linear,
    fit_decay,
    get_weight,
    heat_kernel,
    kernel_bound_check,
    lp_lq_probe,
    lp_norm,
    operator_audit,
    picard_solve,
    sample,
    solve_imex,
    stability_experiment,
)
from dbarheat.cli import main as cli_main
from dense_oracle import expm_evolve

VERDICTS = []


def _verdict(n, ok, detail):
    line = "ACCEPTANCE %2d: %s - %s" % (n, "PASS" if ok else "FAIL", detail)
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _gaussian(spec, amp=1.0, w2=1.0, center=0j):
    return sample(spec, lambda z: amp * np.exp(-np.abs(z - center) ** 2 / w2))


def test_acceptance_01_operator_algebra():
    ok = True
    orders = []
    for name in ("zero", "modsq", "modquartic"):
        defects = {}
        for n in (33, 65):
            op = assemble_box(GridSpec(6.0, n), get_weight(name))
            aud = operator_audit(op, trials=20, seed=0,
                                 compute_lambda_min=False)
            ok &= aud.hermitian_defect < 1e-12 * aud.matrix_scale
            ok &= aud.rayleigh_min >= -1e-8
            defects[n] = aud.factorization_defect
        order = math.log2(defects[33] / defects[65])
        orders.append("%s %.2f" % (name, order))
        ok &= order >= 1.8
    _verdict(1, ok, "hermitian defect < 1e-12*scale, rayleigh >= -1e-8 on "
             "n in {33,65}; factorization orders: " + ", ".join(orders))


def test_acceptance_02_free_kernel_exactness():
    spec = GridSpec(extent=8.0, points=257)
    op = assemble_box(spec, get_weight("zero"))
    cfg = StepperConfig(dt=0.01, tol=1e-12)
    zz = spec.nodes()
    ok = True
    parts = []
    for t in (0.1, 0.5, 1.0):
        sl = heat_kernel(op, t, 0j, cfg)
        exact = np.exp(-np.abs(zz) ** 2 / t) / (math.pi * t)
        rel = np.max(np.abs(sl.field.values - exact)) / np.max(exact)
        ok &= rel < 0.02
        ok &= 0.95 <= sl.peak_ratio <= 1.05
        parts.append("t=%g rel %.4f peak %.4f" % (t, rel, sl.peak_ratio))
    _verdict(2, ok, "free kernel vs (pi t)^-1 exp(-|z|^2/t): "
             + "; ".join(parts))


def test_acceptance_03_general_kernel_bound():
    spec = GridSpec(extent=8.0, points=257)
    weight = get_weight("modsq")
    op = assemble_box(spec, weight)
    cfg = StepperConfig(dt=0.01, tol=1e-12)
    slices = [heat_kernel(op, t, 0j, cfg) for t in (0.25, 0.5, 1.0)]
    report = kernel_bound_check(slices, mode="polynomial", slack=0.05,
                                tail_floor=1e-3, weight=weight)
    ok = report.passed and report.worst_ratio <= 1.05
    ok &= report.c_prime is not None and report.c_prime > 0
    _verdict(3, ok, "|H| <= gaussian envelope * 1.05 at every tested node: "
             "worst ratio %.4f at t=%g; fitted C'=%.4f"
             % (report.worst_ratio, report.worst_t, report.c_prime))


def test_acceptance_04_oracle_equivalence():
    spec = GridSpec(extent=6.0, points=16)
    op = assemble_box(spec, get_weight("modsq"))
    u0 = _gaussian(spec, amp=0.3)
    ref = expm_evolve(op, u0, 0.2)
    cn = evolve_linear(op, u0, [0.0, 0.2], StepperConfig(dt=1e-3, tol=1e-12))
    rel = lp_norm(cn.fields[-1] - ref, 2) / lp_norm(ref, 2)
    errs = []
    for dt in (0.004, 0.002):
        tr = evolve_linear(op, u0, [0.0, 0.2], StepperConfig(dt=dt, tol=1e-12))
        errs.append(lp_norm(tr.fields[-1] - ref, 2))
    order = math.log2(errs[0] / errs[1])
    ok = rel < 1e-4 and 1.8 <= order <= 2.2
    _verdict(4, ok, "crank-nicolson vs dense expm at t=0.2: rel L2 %.3g "
             "(dt=1e-3), temporal order %.3f" % (rel, order))


def test_acceptance_05_delta_computation():
    r_modsq = delta(get_weight("modsq"))
    r_harm = delta(get_weight("harmonic_re_z2"))
    r_flat = delta(get_weight("flat_example"))
    r_quart = delta(get_weight("modquartic"))
    cell = 2.0 * 4.0 / 40.0          # scan resolution of the preset template
    ok = abs(r_modsq.delta - 1.0) <= 1e-12
    ok &= r_harm.delta == 0.0
    ok &= r_flat.delta == 0.0 and abs(r_flat.argmin) <= cell
    ok &= abs(r_quart.delta - 1.0) <= 1e-6
    _verdict(5, ok, "delta: modsq %.15g, harmonic_re_z2 %g, flat %g "
             "(argmin |z|=%.3g), modquartic %.9g"
             % (r_modsq.delta, r_harm.delta, r_flat.delta,
                abs(r_flat.argmin), r_quart.delta))


# acceptance 6's free probes: (w^2, centre) of e^{-|z-c|^2/w^2}, and times
FREE_PROBES = ((0.02, 0j), (0.05, 0.3 + 0.2j), (0.03, -0.4 + 0.1j))
FREE_TIMES = [0.0, 0.2, 0.26, 0.34, 0.44, 0.57, 0.74, 0.96, 1.24, 1.61, 2.0]
FREE_WINDOW = (0.2, 2.0)


@pytest.fixture(scope="module")
def free_lplq():
    """The free-flow L^1 -> L^inf probe run of acceptance 6 (n = 257), made
    once for the verdict and for its continuum check."""
    spec = GridSpec(extent=8.0, points=257)
    op = assemble_box(spec, get_weight("zero"))
    cfg = StepperConfig(dt=0.01, tol=1e-10)
    probes = [_gaussian(spec, w2=w2, center=c) for w2, c in FREE_PROBES]
    return lp_lq_probe(op, math.inf, 1.0, probes, FREE_TIMES, cfg,
                       window=FREE_WINDOW, delta_positive=False)


def test_acceptance_06_lp_lq_rates(free_lplq):
    # free flow, L^1 -> L^inf, exponent -1
    free = free_lplq
    dev_free = abs(free.mean_exponent - (-1.0))

    # modsq, p = q = 2, exponential rate vs the dense bottom eigenvalue
    spec = GridSpec(extent=6.0, points=16)
    op = assemble_box(spec, get_weight("modsq"))
    lam = operator_audit(op, trials=0).lambda_min
    cfg = StepperConfig(dt=0.01, tol=1e-12)
    times = list(np.round(np.arange(0.0, 6.01, 0.25), 10))
    rng = np.random.default_rng(3)
    probes = []
    for _ in range(4):
        c = complex(*rng.uniform(-1.2, 1.2, 2))
        w = rng.uniform(0.8, 1.3)
        probes.append(_gaussian(spec, w2=w * w, center=c))
    gap = lp_lq_probe(op, 2.0, 2.0, probes, times, cfg, window=(2.0, 6.0),
                      delta_positive=True, target_rate=lam)
    ok = dev_free <= 0.10
    ok &= gap.worst_rel_deviation <= 0.05
    _verdict(6, ok, "free L1->Linf mean exponent %.4f (target -1); modsq L2 "
             "mean rate %.5f vs lambda_min %.5f (worst dev %.4f)"
             % (free.mean_exponent, gap.mean_rate, lam,
                gap.worst_rel_deviation))


def test_free_lplq_exponents_match_the_continuum(free_lplq):
    # for phi = 0 the flow is e^{t Delta/4}, which takes e^{-|z-c|^2/w^2}
    # to (w^2/(t+w^2)) e^{-|z-c|^2/(t+w^2)}: the L^1 -> L^inf ratio is
    # exactly 1/(pi (t + w^2)), and its fitted exponent is above -1 by the
    # probe width, not by the grid (measured gaps 2.7e-3, 1.6e-3, 4.3e-4;
    # mean exponent -0.94542 on the grid, -0.94385 in the continuum)
    times = np.asarray(free_lplq.times)
    exact = []
    for (w2, _), kept in zip(FREE_PROBES, ~free_lplq.boundary_excluded):
        t = times[kept]
        exact.append(fit_decay(t, 1.0 / (math.pi * (t + w2)), "power_law",
                               FREE_WINDOW).exponent)
    grid = [fit.exponent for fit in free_lplq.fits]
    assert max(abs(g - e) for g, e in zip(grid, exact)) <= 3e-3
    assert abs(np.mean(grid) - np.mean(exact)) <= 2e-3


def test_acceptance_07_picard_well_posedness():
    spec = GridSpec(extent=6.0, points=65)
    op = assemble_box(spec, get_weight("flat_example"))
    nl = Nonlinearity(3.0)
    cfg = StepperConfig(dt=0.01, tol=1e-12)
    times = np.round(np.arange(0.0, 1.001, 0.05), 10)
    u0 = _gaussian(spec, amp=0.05)
    traj, rep = picard_solve(op, nl, u0, times, cfg, q=3.0, tol=1e-10,
                             max_iter=20)
    imex = solve_imex(op, nl, u0, times, StepperConfig(dt=2e-4, tol=1e-12))
    worst = 0.0
    for t, fa in zip(traj.times, traj.fields):
        if t == 0:
            continue
        fb = imex.field_at(t)
        worst = max(worst, lp_norm(fa - fb, 2) / lp_norm(fb, 2))
    _, rep_half = picard_solve(op, nl, 0.5 * u0, times, cfg, q=3.0,
                               tol=1e-10, max_iter=20)
    shrunk = all(rh < r for rh, r in zip(rep_half.ratios, rep.ratios))
    ok = (rep.converged and all(r < 1 for r in rep.ratios)
          and worst < 1e-3 and rep_half.converged and shrunk)
    _verdict(7, ok, "picard converged in %d iters, max ratio %.4f, vs imex "
             "%.3g rel L2, halved datum shrinks every ratio: %s"
             % (rep.iterations, max(rep.ratios), worst, shrunk))


def test_acceptance_08_polynomial_stability():
    spec = GridSpec(extent=10.0, points=241)
    op = assemble_box(spec, get_weight("flat_example"))
    nl = Nonlinearity(3.0)
    cfg = StepperConfig(dt=0.0125, tol=1e-10)
    times = np.round(np.arange(0.0, 3.2001, 0.05), 10)
    u0 = sample(spec, lambda z: 0.05 * (0.04 + np.abs(z) ** 2) ** -0.5)
    rep = stability_experiment(
        op, nl, u0, 1.01 * u0, times, cfg, q=3.0,
        window=(0.8, 3.2), delta_positive=False, picard_tol=1e-8,
        subsample=12)
    fit = rep.fit
    # boundedness of t^{1/6}||u-u_hat||_3: no upward trend late in the run
    tarr = np.asarray(rep.times)
    darr = np.asarray(rep.distances)
    late = (tarr >= 1.6) & (tarr <= 3.2) & (darr > 0)
    slope = np.polyfit(np.log(tarr[late]),
                       np.log(tarr[late] ** (1.0 / 6.0) * darr[late]), 1)[0]
    ok = (rep.converged and slope <= 0.05
          and fit.rel_deviation <= 0.25 and fit.r_squared > 0.95)
    _verdict(8, ok, "||u-u_hat||_3 power law: exponent %.4f (target -1/6, "
             "dev %.3f), R^2 %.5f, late slope of log(t^{1/6} d) = %.4f"
             % (fit.exponent, fit.rel_deviation, fit.r_squared, slope))


def test_acceptance_09_exponential_stability():
    spec = GridSpec(extent=6.0, points=16)
    op = assemble_box(spec, get_weight("modsq"))
    nl = Nonlinearity(3.0)
    cfg = StepperConfig(dt=0.01, tol=1e-10)
    times = np.round(np.linspace(0.0, 5.0, 51), 12)
    u0 = _gaussian(spec, amp=0.05)
    lam = operator_audit(op, trials=0).lambda_min
    rep = stability_experiment(op, nl, u0, 1.01 * u0, times, cfg, q=3.0,
                               window=(2.0, 5.0), delta_positive=True,
                               target_rate=lam, picard_tol=1e-10)
    fit = rep.fit
    ok = (rep.converged and fit.rate > 0 and fit.r_squared > 0.99
          and fit.rel_deviation <= 0.10)
    _verdict(9, ok, "||u-u_hat||_3 exponential: sigma %.6f vs lambda_min "
             "%.6f (dev %.4f), R^2 %.6f"
             % (fit.rate, lam, fit.rel_deviation, fit.r_squared))


def test_acceptance_10_beta_identity():
    ok = True
    worst = 0.0
    pi_err = 0.0
    for k, l in ((0.5, 0.5), (0.3, 0.4), (0.9, 0.05)):
        for t in (0.1, 2.0):
            rep = beta_identity_check(k, l, t)
            worst = max(worst, rep.abs_error)
            ok &= rep.abs_error < 1e-6
            if k == 0.5 and l == 0.5:
                pi_err = max(pi_err, abs(rep.quadrature - math.pi))
    ok &= pi_err <= 1e-8
    _verdict(10, ok, "quadrature vs log-gamma worst %.3g; (0.5,0.5) vs pi "
             "err %.3g" % (worst, pi_err))


def test_acceptance_11_determinism(tmp_path):
    runs = [
        ("delta", "modquartic", ("delta.csv",)),
        ("delta", "flat_example", ("delta.csv",)),
        ("audit", "audit-modsq", ("audit.csv",)),
        ("beta-check", "beta-grid", ("beta.csv",)),
    ]
    ok = True
    labels = []
    for cmd, preset, files in runs:
        outs = []
        for i in (0, 1):
            out = tmp_path / ("%s-%d" % (preset, i))
            code = cli_main([cmd, "--preset", preset, "--out", str(out)])
            ok &= code == 0
            outs.append(out)
        same = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in files)
        ok &= same
        labels.append("%s %s" % (preset, "ok" if same else "DIFFERS"))
    _verdict(11, ok, "preset reruns byte-identical: " + ", ".join(labels))
