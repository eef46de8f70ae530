"""Command-line entry point.

Every experiment is a subcommand driven by one config (a preset name or
an INI file, optionally overridden with --set section.key=value) and
writes CSV artifacts plus a manifest echoing the exact config, code
version, and wall time into the output directory.  Exit codes: 0 ok,
1 config/validation error, 2 numerical failure (non-convergence or
blow-up), 3 a verified bound was violated.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .config import load_config
from .errors import (
    BoundViolationError,
    ConfigError,
    ConvergenceError,
    NumericalError,
)
from .grid import lp_norm, sample
from .presets import get_preset, preset_names
from .reportio import (
    decay_table,
    field_table,
    fit_summary_table,
    kernel_table,
    matrix_dump_table,
    series_table,
    write_csv,
    write_manifest,
)

# Each subcommand imports the layers it runs at the point of use, for
# start-up time: a fresh `import dbarheat.cli` takes 170-230 ms, and
# importing every layer with it adds 20-45 ms (2-vCPU VM, numpy 2.4).

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dbarheat",
        description="weighted dbar heat flow experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, hlp in [
        ("delta", "flatness invariant delta(phi) and its argmin"),
        ("audit", "operator assembly checks (Hermitian, positive, factored)"),
        ("evolve", "linear heat flow with norm decay schedule"),
        ("kernel", "heat kernel columns vs Gaussian envelope"),
        ("picard", "mild solution by Picard iteration"),
        ("perturb", "stability of two nearby mild solutions"),
        ("lplq", "L^p-L^q norm-ratio decay of the linear flow"),
        ("beta-check", "singular Beta-function identity quadrature"),
    ]:
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--preset", metavar="NAME",
                       help="built-in config (%s)" % ", ".join(preset_names()))
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="accepted for compatibility and recorded in the "
                            "manifest; has no effect (default 1)")
        # parsed with the config, so that a bad seed exits 1, not 2
        p.add_argument("--seed", default=None, metavar="N",
                       help="override the config's random seed")
        p.add_argument("--set", action="append", default=[], metavar="S.K=V",
                       dest="overrides", help="override a config key")
    return parser


def _resolve_config(args):
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        cfg = get_preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("a config source is required: --preset or --config")
    cfg.apply_overrides(args.overrides)
    declared = cfg.get("experiment", "command", None)
    if declared is not None and declared != args.command:
        raise ConfigError(
            "config declares command %r but %r was invoked"
            % (declared, args.command))
    return cfg


def _outdir(args, cfg):
    label = args.preset or (os.path.splitext(
        os.path.basename(args.config))[0] if args.config else "run")
    path = (args.out
            or cfg.get("output", "directory", None)
            or os.path.join("dbarheat-out", "%s-%s" % (args.command, label)))
    os.makedirs(path, exist_ok=True)
    return path


def _operator(cfg):
    from .boxop import assemble_box

    return assemble_box(cfg.grid(), cfg.weight())


def _delta_report(cfg):
    from .weights import delta as delta_scan

    return delta_scan(cfg.weight(), **cfg.kwargs(
        "delta", "extent", "resolution", "refine_rounds", "j_max"))


def _fit_window(cfg, section):
    """[section] window_lo, window_hi as a fit window, or None if neither
    is set."""
    if not (cfg.has(section, "window_lo") or cfg.has(section, "window_hi")):
        return None
    lo = cfg.get(section, "window_lo")
    hi = cfg.get(section, "window_hi")
    if not lo < hi:
        raise ConfigError("[%s] window needs window_lo < window_hi, "
                          "got %g, %g" % (section, lo, hi))
    return lo, hi


def _exponents(cfg, section):
    """[section] m, q; they must lie in the contraction window."""
    m = cfg.get(section, "m", 3.0)
    q = cfg.get(section, "q", 3.0)
    if not 1.0 < m - 1.0 < q < m * (m - 1.0):
        raise ConfigError("[%s] (m, q) = (%g, %g) is outside the contraction "
                          "window 1 < m-1 < q < m(m-1)" % (section, m, q))
    return m, q


def _rate_target(cfg, section, op):
    rate = cfg.get(section, "target_rate", None)
    if rate == "oracle":
        from .boxop import bottom_eigenvalue

        return bottom_eigenvalue(op)
    return rate


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_delta(cfg, outdir, args):
    report = _delta_report(cfg)
    header = ("weight", "delta", "argmin_re", "argmin_im", "classification",
              "analytic_lower_bound", "scan_extent", "scan_resolution")
    row = (cfg.weight().name, report.delta,
           report.argmin.real, report.argmin.imag, report.classification,
           report.analytic_lower_bound, report.extent, report.resolution)
    write_csv(os.path.join(outdir, "delta.csv"), header, [row])
    print("delta(%s) = %.12g  [%s]  argmin = %.6g%+.6gi"
          % (cfg.weight().name, report.delta, report.classification,
             report.argmin.real, report.argmin.imag))
    return 0


def cmd_audit(cfg, outdir, args):
    from .boxop import operator_audit

    op = _operator(cfg)
    audit = operator_audit(op, seed=cfg.seed(args.seed), **cfg.kwargs(
        "audit", "trials", compute_lambda_min="lambda_min"))
    header = ("n", "h", "weight", "hermitian_defect", "rayleigh_min",
              "factorization_defect", "lambda_min")
    row = (audit.points, audit.h, audit.weight_name, audit.hermitian_defect,
           audit.rayleigh_min, audit.factorization_defect, audit.lambda_min)
    write_csv(os.path.join(outdir, "audit.csv"), header, [row])
    if cfg.get("audit", "matrix_dump", False):
        header_m, rows_m = matrix_dump_table(op.matrix)
        write_csv(os.path.join(outdir, "matrix.csv"), header_m, rows_m)
    print("audit(%s, n=%d): hermitian defect %.3g, rayleigh min %.3g"
          % (audit.weight_name, audit.points, audit.hermitian_defect,
             audit.rayleigh_min))
    return 0


def cmd_evolve(cfg, outdir, args):
    from .semigroup import evolve_linear

    op = _operator(cfg)
    u0 = cfg.datum(op.spec)
    traj = evolve_linear(op, u0, cfg.schedule(), cfg.stepper())
    header, rows = decay_table(traj)
    write_csv(os.path.join(outdir, "decay.csv"), header, rows)
    header, rows = field_table(traj.fields[-1])
    write_csv(os.path.join(outdir, "final_field.csv"), header, rows)
    print("evolve: t_final=%.4g, final l2=%.6g, boundary mass %.3g"
          % (traj.times[-1], lp_norm(traj.fields[-1], 2),
             traj.boundary_masses()[-1]))
    return 0


def cmd_kernel(cfg, outdir, args):
    from .semigroup import heat_kernel, kernel_bound_check

    op = _operator(cfg)
    stepper = cfg.stepper()
    source = complex(cfg.get("kernel", "source_re", 0.0),
                     cfg.get("kernel", "source_im", 0.0))
    times = cfg.get("kernel", "times")
    slices = []
    for t in times:
        sl = heat_kernel(op, t, source, stepper)
        slices.append(sl)
        header, rows = kernel_table(sl)
        write_csv(os.path.join(outdir, "kernel_t%s.csv"
                               % ("%g" % t).replace(".", "p")), header, rows)
    report = kernel_bound_check(slices, weight=op.weight, **cfg.kwargs(
        "kernel", "mode", "slack", "tail_floor"))
    header = ("t", "peak_ratio", "mass")
    rows = [(sl.t, sl.peak_ratio, sl.mass()) for sl in slices]
    write_csv(os.path.join(outdir, "kernel_peaks.csv"), header, rows)
    header = ("mode", "slack", "worst_ratio", "worst_t", "passed",
              "c_fit", "c_prime")
    row = (report.mode, report.slack, report.worst_ratio, report.worst_t,
           report.passed, report.c_fit, report.c_prime)
    write_csv(os.path.join(outdir, "kernel_bound.csv"), header, [row])
    print("kernel[%s]: worst envelope ratio %.4f at t=%.3g -> %s"
          % (report.mode, report.worst_ratio, report.worst_t,
             "ok" if report.passed else "VIOLATED"))
    if not report.passed:
        raise BoundViolationError(
            "kernel envelope exceeded by factor %.4f" % report.worst_ratio)
    return 0


def cmd_picard(cfg, outdir, args):
    from .mild import Nonlinearity, picard_solve

    m, q = _exponents(cfg, "picard")
    op = _operator(cfg)
    u0 = cfg.datum(op.spec)
    nl = Nonlinearity(m)
    traj, report = picard_solve(op, nl, u0, cfg.schedule(), cfg.stepper(),
                                q=q, **cfg.kwargs("picard", "tol", "max_iter"))
    rows = [(i, d, ratio) for i, (d, ratio) in
            enumerate(zip(report.distances, [""] + report.ratios), 1)]
    write_csv(os.path.join(outdir, "picard_iterates.csv"),
              ("iter", "d_k", "ratio"), rows)
    header, rows = decay_table(traj)
    write_csv(os.path.join(outdir, "decay.csv"), header, rows)
    header, rows = field_table(traj.fields[-1])
    write_csv(os.path.join(outdir, "final_field.csv"), header, rows)
    status = ("converged in %d iterations" % report.iterations
              if report.converged else
              "DIVERGED after %d iterations" % report.iterations
              if report.diverged else
              "stopped at max_iter=%d without meeting tol" % report.iterations)
    print("picard: %s, final Y-norm %.6g" % (status, report.y_norm_final))
    if not report.converged:
        raise ConvergenceError("Picard iteration did not converge")
    return 0


def cmd_perturb(cfg, outdir, args):
    from .mild import Nonlinearity
    from .stability import stability_experiment

    m, q = _exponents(cfg, "perturb")
    op = _operator(cfg)
    u0 = cfg.datum(op.spec)
    rel = cfg.get("perturb", "rel_perturbation", 0.01)
    report = stability_experiment(
        op, Nonlinearity(m), u0, (1.0 + rel) * u0, cfg.schedule(),
        cfg.stepper(), q=q, window=_fit_window(cfg, "perturb"),
        delta_positive=_delta_report(cfg).is_positive,
        target_rate=_rate_target(cfg, "perturb", op),
        **cfg.kwargs("perturb", "solver", "picard_tol", "subsample"))
    header, rows = series_table(report.times, report.distances, report.fit)
    write_csv(os.path.join(outdir, "perturb_series.csv"), header, rows)
    header, rows = fit_summary_table(report.fit)
    write_csv(os.path.join(outdir, "perturb_summary.csv"), header, rows)
    write_csv(os.path.join(outdir, "perturb_constant.csv"),
              ("model", "constant", "initial_gap", "q", "m", "solver",
               "converged"),
              [(report.model, report.constant, report.initial_gap,
                report.q, report.m, report.solver, report.converged)])
    tgt = report.fit.target
    print("perturb[%s]: fitted %.5g%s, R^2=%.5f, constant %.5g"
          % (report.model, report.fit.fitted,
             "" if tgt is None else " (target %.5g)" % tgt,
             report.fit.r_squared, report.constant))
    if not report.converged:
        raise ConvergenceError("a mild-solution solve did not converge")
    return 0


def cmd_lplq(cfg, outdir, args):
    from .stability import lp_lq_probe

    n_probes = cfg.get("lplq", "n_probes", 4)
    width = cfg.get("lplq", "probe_width", 1.0)
    op = _operator(cfg)
    schedule = cfg.schedule()
    p = cfg.get("lplq", "p")
    q = cfg.get("lplq", "q")
    rng = np.random.default_rng(cfg.seed(args.seed))
    spec = op.spec
    probes = []
    for _ in range(n_probes):
        c = complex(*(rng.uniform(-spec.extent / 4, spec.extent / 4, 2)))
        w = width * rng.uniform(0.8, 1.2)
        probes.append(sample(spec, lambda z: np.exp(-np.abs(z - c)**2 / w**2)))
    window = _fit_window(cfg, "lplq")
    dr = _delta_report(cfg)
    target_rate = _rate_target(cfg, "lplq", op)
    res = lp_lq_probe(op, p, q, probes, schedule, cfg.stepper(),
                      window=window, delta_positive=dr.is_positive,
                      target_rate=target_rate, **cfg.kwargs("lplq", "model"))
    fits = res.fits
    for i, fit in enumerate(fits):
        header, rows = series_table(res.times, res.ratios[i], fit)
        write_csv(os.path.join(outdir, "lplq_probe%d.csv" % i), header, rows)
    header = ("probe", "model", "fitted_exponent", "fitted_rate",
              "target", "rel_deviation", "r_squared")
    rows = []
    for i, f in enumerate(fits):
        rows.append((i, f.model, f.exponent, f.rate, f.target,
                     f.rel_deviation, f.r_squared))
    rows.append(("mean", res.model, res.mean_exponent, res.mean_rate,
                 "", "", ""))
    write_csv(os.path.join(outdir, "lplq_summary.csv"), header, rows)
    print("lplq p=%g q=%g [%s]: mean exponent %.5g (target %.5g), "
          "mean rate %.5g"
          % (p, q, res.model, res.mean_exponent, res.target_exponent,
             res.mean_rate))
    return 0


def cmd_beta(cfg, outdir, args):
    from .stability import beta_identity_check

    pairs = cfg.get("beta", "pairs")
    t_values = cfg.get("beta", "t_values", [1.0])
    rows = []
    worst = 0.0
    for k, l in pairs:
        for t in t_values:
            rep = beta_identity_check(k, l, t)
            rows.append((k, l, t, rep.quadrature, rep.closed_form,
                         rep.abs_error))
            worst = max(worst, rep.abs_error)
    write_csv(os.path.join(outdir, "beta.csv"),
              ("k", "l", "t", "quadrature", "closed_form", "abs_error"),
              rows)
    print("beta-check: %d cases, worst |quad - closed| = %.3g"
          % (len(rows), worst))
    return 0


DISPATCH = {
    "delta": cmd_delta,
    "audit": cmd_audit,
    "evolve": cmd_evolve,
    "kernel": cmd_kernel,
    "picard": cmd_picard,
    "perturb": cmd_perturb,
    "lplq": cmd_lplq,
    "beta-check": cmd_beta,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()
    cfg = outdir = None
    try:
        try:
            cfg = _resolve_config(args)
            outdir = _outdir(args, cfg)
            # every set key and --seed parse before any command runs
            for section, keys in cfg.data.items():
                for key in keys:
                    cfg.get(section, key)
            cfg.seed(args.seed)
            return DISPATCH[args.command](cfg, outdir, args)
        finally:
            # the manifest records exactly what ran, even on failure exits
            if cfg is not None and outdir is not None:
                write_manifest(
                    os.path.join(outdir, "manifest.ini"),
                    args.command, cfg.echo(),
                    extra={"preset": args.preset or "", "jobs": args.jobs,
                           "seed_override": ("" if args.seed is None
                                             else args.seed)},
                    started=started,
                )
    except (ConfigError, OSError) as exc:  # OSError: an unusable --out
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except BoundViolationError as exc:
        print("bound violation: %s" % exc, file=sys.stderr)
        return 3
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
