"""Mild solutions: Duhamel sweep vs dense quadrature, Y-norm, Picard, IMEX."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from dbarheat import (
    ComplexField,
    ConfigError,
    ConvergenceError,
    GridSpec,
    Nonlinearity,
    NumericalError,
    PicardReport,
    Propagator,
    StepperConfig,
    Trajectory,
    assemble_box,
    duhamel_apply,
    evolve_linear,
    get_weight,
    lp_norm,
    picard_solve,
    sample,
    solve_imex,
    y_distance,
    y_norm,
)
from dbarheat import semigroup
from dense_oracle import csr

M = 3.0
Q = 3.0


def test_nonlinearity_validation_and_values(spec16):
    with pytest.raises(ConfigError):
        Nonlinearity(2.0)
    nl = Nonlinearity(M)
    assert nl.lipschitz_constant == M
    two = ComplexField(spec16, np.full((16, 16), 2.0 + 0j))
    assert np.all(nl.apply(two).values == 8.0 + 0j)
    # |u|^{m-1} u keeps the phase
    u = ComplexField(spec16, np.full((16, 16), 2.0j))
    assert np.all(nl.apply(u).values == 8.0j)


def test_nonlinearity_overflow_raises(spec16):
    huge = ComplexField(spec16, np.full((16, 16), 1e200 + 0j))
    with pytest.raises(NumericalError, match="overflow"):
        Nonlinearity(M).apply(huge)


def test_nonlinearity_pointwise_lipschitz(spec16):
    rng = np.random.default_rng(11)
    nl = Nonlinearity(M)
    a = ComplexField(spec16, rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))
    b = ComplexField(spec16, rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))
    lhs = np.abs(nl.apply(a).values - nl.apply(b).values)
    rhs = nl.lipschitz_constant * (
        np.abs(a.values) ** (M - 1) + np.abs(b.values) ** (M - 1)
    ) * np.abs(a.values - b.values)
    assert np.all(lhs <= rhs + 1e-12)


def constant_trajectory(spec, field, times):
    return Trajectory(spec=spec, times=np.asarray(times, float),
                      values=np.stack([field.values for _ in times]))


def test_y_norm_constant_trajectory_closed_form(spec16, gaussian16):
    # sup_t ||u||_{m-1} + sup_{t>0} t^{1/(m-1)-1/q} ||u||_q with a constant
    # field is ||u||_2 + T^{1/6} ||u||_3 at (m, q) = (3, 3)
    times = [0.0, 0.5, 1.0, 2.0]
    traj = constant_trajectory(spec16, gaussian16, times)
    want = lp_norm(gaussian16, 2) + 2.0 ** (1.0 / 6.0) * lp_norm(gaussian16, 3)
    assert y_norm(traj, M, Q) == pytest.approx(want, rel=1e-12)


def test_y_norm_homogeneity_and_zero(spec16, gaussian16):
    times = [0.0, 1.0, 2.0]
    traj = constant_trajectory(spec16, gaussian16, times)
    scaled = constant_trajectory(spec16, 2.5 * gaussian16, times)
    assert y_norm(scaled, M, Q) == pytest.approx(2.5 * y_norm(traj, M, Q),
                                                 rel=1e-12)
    zero = constant_trajectory(spec16, ComplexField.zeros(spec16), times)
    assert y_norm(zero, M, Q) == 0.0
    assert y_distance(traj, traj, M, Q) == 0.0


def test_y_norm_warns_outside_contraction_window(spec16, gaussian16):
    traj = constant_trajectory(spec16, gaussian16, [0.0, 1.0])
    with pytest.warns(UserWarning, match="contraction window"):
        y_norm(traj, 3.0, 7.0)


def test_y_norm_refuses_q_of_zero(spec16, gaussian16):
    traj = constant_trajectory(spec16, gaussian16, [0.0, 1.0])
    with pytest.raises(ConfigError, match="q > 0"):
        y_norm(traj, M, 0.0)


def random_trajectory(spec, times, seed):
    rng = np.random.default_rng(seed)
    shape = (len(times), spec.points, spec.points)
    return Trajectory(spec, np.asarray(times, float),
                      rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_y_distance_makes_no_trajectory_sized_temporary():
    # the difference is formed one snapshot at a time; the value is that of
    # the Y-norm of the whole difference trajectory, to the bit
    spec = GridSpec(extent=6.0, points=65)
    times = np.linspace(0.0, 0.8, 9)
    a = random_trajectory(spec, times, 1)
    b = random_trajectory(spec, times, 2)
    tracemalloc.start()
    try:
        got = y_distance(a, b, M, Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.values.nbytes
    assert got == y_norm(Trajectory(spec, times, a.values - b.values), M, Q)


def test_y_distance_schedule_mismatch(spec16, gaussian16):
    a = constant_trajectory(spec16, gaussian16, [0.0, 1.0])
    b = constant_trajectory(spec16, gaussian16, [0.0, 2.0])
    with pytest.raises(ConfigError, match="schedules"):
        y_distance(a, b, M, Q)


def test_duhamel_needs_uniform_schedule(op_modsq16, gaussian16):
    nl = Nonlinearity(M)
    cfg = StepperConfig(dt=0.01, tol=1e-12)
    bad = constant_trajectory(op_modsq16.spec, gaussian16, [0.0, 0.1, 0.3])
    with pytest.raises(ConfigError, match="uniform"):
        duhamel_apply(op_modsq16, nl, gaussian16, bad, cfg)
    not_zero = constant_trajectory(op_modsq16.spec, gaussian16, [0.1, 0.2])
    with pytest.raises(ConfigError):
        duhamel_apply(op_modsq16, nl, gaussian16, not_zero, cfg)


def test_duhamel_sweep_matches_dense_quadrature(op_modsq16, gaussian16):
    # oracle: u_j = P^j u0 + ds * sum'' P^{j-i} f_i with P the dense
    # one-interval Crank-Nicolson propagator (structure check, 1e-13 scale)
    nl = Nonlinearity(M)
    dt, ds = 0.01, 0.1
    cfg = StepperConfig(dt=dt, tol=1e-13)
    times = np.linspace(0.0, 0.5, 6)
    v = evolve_linear(op_modsq16, gaussian16, times, cfg)
    got = duhamel_apply(op_modsq16, nl, gaussian16, v, cfg)
    A = csr(op_modsq16.matrix).toarray()
    eye = np.eye(A.shape[0], dtype=complex)
    p_step = np.linalg.solve(eye + 0.5 * dt * A, eye - 0.5 * dt * A)
    P = np.linalg.matrix_power(p_step, 10)
    fs = [nl.apply(f).ravel() for f in v.fields]
    u0 = gaussian16.ravel()
    for j in range(len(times)):
        acc = np.linalg.matrix_power(P, j) @ u0
        if j > 0:
            for i in range(j + 1):
                w = 0.5 * ds if i in (0, j) else ds
                acc = acc + w * (np.linalg.matrix_power(P, j - i) @ fs[i])
        err = np.linalg.norm(got.fields[j].ravel() - acc)
        assert err < 1e-10 * max(1.0, np.linalg.norm(acc))


def test_duhamel_sweep_near_exact_propagator(op_modsq16, gaussian16):
    # same sweep against exp(-t A) quadrature: only stepping error remains
    nl = Nonlinearity(M)
    cfg = StepperConfig(dt=0.01, tol=1e-13)
    times = np.linspace(0.0, 0.5, 6)
    v = evolve_linear(op_modsq16, gaussian16, times, cfg)
    got = duhamel_apply(op_modsq16, nl, gaussian16, v, cfg)
    A = csr(op_modsq16.matrix).toarray()
    P = expm(-0.1 * A)
    fs = [nl.apply(f).ravel() for f in v.fields]
    u0 = gaussian16.ravel()
    worst = 0.0
    for j in range(1, len(times)):
        acc = np.linalg.matrix_power(P, j) @ u0
        for i in range(j + 1):
            w = 0.05 if i in (0, j) else 0.1
            acc = acc + w * (np.linalg.matrix_power(P, j - i) @ fs[i])
        rel = np.linalg.norm(got.fields[j].ravel() - acc) / np.linalg.norm(acc)
        worst = max(worst, rel)
    assert worst < 2e-4  # frozen: 3.0e-5 at dt = 0.01


def test_increment_sweep_matches_full_sweep(op_modsq16, spec16):
    # with v = Phi(w), Phi(v) = v + D(f(v) - f(w)): the increment sweep
    # agrees with the full sweep to the solves' accuracy, in w's array
    nl = Nonlinearity(M)
    cfg = StepperConfig(dt=0.02, tol=1e-10)
    u0 = sample(spec16, lambda z: 0.3 * np.exp(-np.abs(z - 0.5) ** 2))
    sched = list(np.linspace(0.0, 0.4, 5))
    w = evolve_linear(op_modsq16, u0, sched, cfg)
    v = duhamel_apply(op_modsq16, nl, u0, w, cfg)
    full = duhamel_apply(op_modsq16, nl, u0, v, cfg)
    buffer = w.values
    got = duhamel_apply(op_modsq16, nl, u0, v, cfg, prev=w)
    assert got.values is buffer
    assert np.array_equal(got.values[0], u0.values)
    for j in range(1, len(sched)):
        err = np.linalg.norm(got.values[j] - full.values[j])
        assert err <= 10 * cfg.tol * np.linalg.norm(full.values[j])
    assert np.max(np.abs(got.values - v.values)) > 1e3 * cfg.tol
    with pytest.raises(ConfigError, match="schedules"):
        duhamel_apply(op_modsq16, nl, u0, v, cfg,
                      prev=constant_trajectory(spec16, u0, [0.0, 0.4]))


def test_picard_keeps_full_sweep_iterations_and_distances(op_modsq16, spec16):
    # reference: the same iteration with every sweep solved from u0
    nl = Nonlinearity(M)
    cfg = StepperConfig(dt=0.02, tol=1e-10)
    u0 = sample(spec16, lambda z: 0.3 * np.exp(-np.abs(z) ** 2))
    sched = np.linspace(0.0, 0.4, 5)
    _, rep = picard_solve(op_modsq16, nl, u0, sched, cfg, q=Q, tol=1e-8)
    current = evolve_linear(op_modsq16, u0, sched, cfg)
    scale = 1.0 + y_norm(current, M, Q)
    want = []
    while not want or want[-1] > 1e-8 * scale:
        nxt = duhamel_apply(op_modsq16, nl, u0, current, cfg)
        want.append(y_distance(nxt, current, M, Q))
        current = nxt
    assert rep.converged and rep.iterations == len(want) >= 3
    # the leading distances lie far above the solve accuracy
    assert rep.distances[:2] == pytest.approx(want[:2], rel=1e-6)


def test_picard_report_derives_iterations_and_ratios():
    def report(distances):
        return PicardReport(converged=False, diverged=True,
                            distances=distances, y_norm_final=0.0,
                            tol=1e-9, m=M, q=Q)

    overflowed = report([2.0, 1.0, math.inf])
    assert overflowed.iterations == 3
    assert overflowed.ratios == [0.5, math.inf]
    assert report([0.0, 1.0]).ratios == [0.0]
    assert report([4.0]).ratios == []


def test_picard_converges_small_data(op_modsq16, spec16):
    nl = Nonlinearity(M)
    cfg = StepperConfig(dt=0.01, tol=1e-13)
    u0 = sample(spec16, lambda z: 0.05 * np.exp(-np.abs(z) ** 2))
    sched = np.linspace(0.0, 0.5, 6)
    traj, rep = picard_solve(op_modsq16, nl, u0, sched, cfg, q=Q, tol=1e-11)
    assert rep.converged and not rep.diverged
    assert all(r < 1.0 for r in rep.ratios)
    assert traj.times[-1] == 0.5
    # iterating the map once more moves the iterate by at most the met tol
    again = duhamel_apply(op_modsq16, nl, u0, traj, cfg)
    assert y_distance(again, traj, M, Q) <= 2.0 * rep.tol * (
        1.0 + rep.y_norm_final)


def test_picard_deterministic(op_modsq16, spec16):
    nl = Nonlinearity(M)
    cfg = StepperConfig(dt=0.02, tol=1e-12)
    u0 = sample(spec16, lambda z: 0.05 * np.exp(-np.abs(z) ** 2))
    sched = np.linspace(0.0, 0.4, 5)
    t1, r1 = picard_solve(op_modsq16, nl, u0, sched, cfg, q=Q, tol=1e-10)
    t2, r2 = picard_solve(op_modsq16, nl, u0, sched, cfg, q=Q, tol=1e-10)
    assert r1.distances == r2.distances
    for a, b in zip(t1.fields, t2.fields):
        assert np.array_equal(a.values, b.values)


def test_picard_diverges_large_data(op_modsq16, spec16):
    # super-threshold datum: the fixed-point map is expansive and the
    # divergence detector must flag it instead of erroring out
    nl = Nonlinearity(M)
    cfg = StepperConfig(dt=0.02, tol=1e-10)
    u0 = sample(spec16, lambda z: 40.0 * np.exp(-np.abs(z) ** 2))
    sched = np.linspace(0.0, 0.4, 5)
    traj, rep = picard_solve(op_modsq16, nl, u0, sched, cfg, q=Q,
                             tol=1e-10, max_iter=12)
    assert rep.diverged and not rep.converged


def test_picard_propagates_linear_solver_failure(op_modsq16, spec16,
                                                monkeypatch):
    # a stalled inner solve during a Duhamel sweep is a solver failure,
    # which must not be reported as divergence of the fixed-point map
    calls = []
    real_solve = Propagator.solve

    def flaky_solve(self, b, **kwargs):
        calls.append(1)
        if len(calls) > 20 + 5:  # the linear trajectory takes 20 solves
            raise ConvergenceError("linear solver stagnated (info=500)")
        return real_solve(self, b, **kwargs)

    monkeypatch.setattr(Propagator, "solve", flaky_solve)
    u0 = sample(spec16, lambda z: 0.05 * np.exp(-np.abs(z) ** 2))
    with pytest.raises(ConvergenceError, match="stagnated"):
        picard_solve(op_modsq16, Nonlinearity(M), u0,
                     np.linspace(0.0, 0.4, 5), StepperConfig(dt=0.02), q=Q)


@pytest.mark.parametrize("name", ["flat_example", "modsq"])
def test_picard_first_ratio_scales_with_datum_power(name):
    # for small data the Lipschitz constant of the Duhamel map is
    # proportional to ||u0||^(m-1), so halving the datum divides the first
    # Picard ratio by 2^(m-1)
    spec = GridSpec(extent=6.0, points=33)
    op = assemble_box(spec, get_weight(name))
    cfg = StepperConfig(dt=0.01, tol=1e-13)
    sched = np.linspace(0.0, 1.0, 21)
    for m, (lo, hi) in ((3.0, (3.8, 4.2)), (4.0, (7.6, 8.4))):
        ratios = []
        for amp in (0.2, 0.1, 0.05):
            u0 = sample(spec, lambda z: amp * np.exp(-np.abs(z) ** 2))
            _, rep = picard_solve(op, Nonlinearity(m), u0, sched, cfg, q=m,
                                  tol=1e-12)
            ratios.append(rep.ratios[0])
        for big, small in zip(ratios, ratios[1:]):
            assert lo <= big / small <= hi, (m, ratios)


def test_imex_matches_picard_small_data(op_modsq16, spec16):
    nl = Nonlinearity(M)
    u0 = sample(spec16, lambda z: 0.05 * np.exp(-np.abs(z) ** 2))
    sched = np.linspace(0.0, 0.5, 6)
    cfg = StepperConfig(dt=0.01, tol=1e-13)
    traj, rep = picard_solve(op_modsq16, nl, u0, sched, cfg, q=Q, tol=1e-11)
    assert rep.converged
    imex = solve_imex(op_modsq16, nl, u0, sched,
                      StepperConfig(dt=5e-4, tol=1e-12))
    for t in sched[1:]:
        a, b = traj.field_at(t), imex.field_at(t)
        rel = lp_norm(a - b, 2) / lp_norm(a, 2)
        assert rel < 2e-3  # frozen: 4.9e-4 at imex dt = 5e-4


def test_imex_blowup_detector(op_modsq16, spec16):
    nl = Nonlinearity(M)
    u0 = sample(spec16, lambda z: 50.0 * np.exp(-np.abs(z) ** 2))
    with pytest.raises(NumericalError, match="blew up"):
        solve_imex(op_modsq16, nl, u0, [0.0, 1.0],
                   StepperConfig(dt=0.01, tol=1e-10))


@pytest.mark.parametrize("points", [17, 33])
def test_imex_on_the_stiff_path_matches_dense_backward_euler(points):
    # flat_example on the extent-10 square is stiff: IMEX steps run CG on
    # the red-black Schur complement.  The reference is the same scheme,
    # (I + dt Box) u^{k+1} = u^k + dt f(u^k), solved densely.
    spec = GridSpec(extent=10.0, points=points)
    op = assemble_box(spec, get_weight("flat_example"))
    cfg = StepperConfig(dt=0.0125, scheme="backward_euler", tol=1e-12)
    assert Propagator(op, cfg).preconditioner is not None
    nl = Nonlinearity(M)
    u0 = sample(spec, lambda z: 0.5 * np.exp(-np.abs(z - 0.5j) ** 2))
    sched = [0.0, 0.05, 0.1]
    imex = solve_imex(op, nl, u0, sched, replace(cfg, scheme="crank_nicolson"))
    lhs = np.eye(spec.size()) + cfg.dt * csr(op.matrix).toarray()
    u = u0.ravel()
    for j, t in enumerate(sched[1:], start=1):
        for _ in range(4):
            f = nl.apply(ComplexField(spec, u.reshape(points, points)))
            u = np.linalg.solve(lhs, u + cfg.dt * f.ravel())
        got = imex.values[j].ravel()
        assert np.linalg.norm(got - u) <= 1e-10 * np.linalg.norm(u)


def test_imex_steps_start_from_the_predictor(monkeypatch, op_modsq16, spec16):
    # IMEX steps through Propagator.advance, so on a plain-CG operator its
    # solves start from the extrapolated state: fewer CG iterations than
    # the loop that starts every solve from x0 = u
    iters = []
    real_cg = semigroup.cg

    def counted_cg(*args, **kwargs):
        visits = []
        out = real_cg(*args, callback=visits.append, **kwargs)
        iters.append(len(visits))
        return out

    monkeypatch.setattr(semigroup, "cg", counted_cg)
    nl = Nonlinearity(M)
    u0 = sample(spec16, lambda z: 0.3 * np.exp(-np.abs(z) ** 2))
    cfg = StepperConfig(dt=5e-4, scheme="backward_euler", tol=1e-12)
    prop = Propagator(op_modsq16, cfg)
    assert prop.preconditioner is None
    imex = solve_imex(op_modsq16, nl, u0, [0.0, 0.05], cfg)
    predicted = sum(iters)
    del iters[:]
    u = u0.ravel().astype(complex)
    for _ in range(100):
        f = nl.apply(ComplexField(spec16, u.reshape(16, 16))).ravel()
        b = u + cfg.dt * f
        u = prop.solve(b, x0=u, r0=b - u - cfg.dt * (op_modsq16.matrix @ u))
    assert len(iters) == 100
    assert predicted < 0.8 * sum(iters)  # 202 against 300 when written
    got = imex.values[-1].ravel()
    assert np.linalg.norm(got - u) <= 1e-9 * np.linalg.norm(u)
