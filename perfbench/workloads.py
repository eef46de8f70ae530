"""The benchmark's workloads, output checks and trace expectations.

Each workload is a list of ``python -m dbarheat`` command lines run one at
a time.  The workload seed reaches the program only as ``--seed`` on the
``lplq`` commands, where it places the probes; every other input is fixed
by its preset.
"""

from __future__ import annotations

import configparser
import csv
import os

# perturb-flat with only its schedule cut to a prefix: same n=241 grid,
# extent, dt, heavy-tail datum and Picard tolerance as the preset.
FLAT_PREFIX = ["--set", "schedule.t_final=0.2", "--set", "schedule.count=8",
               "--set", "perturb.window_lo=0.05",
               "--set", "perturb.window_hi=0.2"]

WORKLOADS = {
    "flat-picard": [
        ("perturb-flat-prefix",
         ["perturb", "--preset", "perturb-flat"] + FLAT_PREFIX),
    ],
    "linear-columns": [
        ("kernel-free", ["kernel", "--preset", "kernel-free"]),
        ("kernel-modsq", ["kernel", "--preset", "kernel-modsq"]),
        ("lplq-free", ["lplq", "--preset", "lplq-free", "--jobs", "2"]),
        ("evolve-free-gaussian",
         ["evolve", "--preset", "evolve-free-gaussian"]),
    ],
    "curved-small": [
        ("perturb-modsq", ["perturb", "--preset", "perturb-modsq"]),
        ("lplq-modsq-l2", ["lplq", "--preset", "lplq-modsq-l2"]),
        ("audit-modsq", ["audit", "--preset", "audit-modsq"]),
        ("picard-flat", ["picard", "--preset", "picard-flat"]),
        ("delta-modsq", ["delta", "--preset", "modsq"]),
        ("delta-flat_example", ["delta", "--preset", "flat_example"]),
        ("delta-modquartic", ["delta", "--preset", "modquartic"]),
        ("beta-grid", ["beta-check", "--preset", "beta-grid"]),
    ],
}


def commands(workload, seed):
    """(label, argv) of each command of the workload at this seed."""
    out = []
    for label, argv in WORKLOADS[workload]:
        if argv[0] == "lplq":
            argv = argv + ["--seed", str(seed)]
        out.append((label, argv))
    return out


# -- headline numbers ---------------------------------------------------------

def _rows(outdir, name):
    with open(os.path.join(outdir, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text):
    return None if text == "" else float(text)


def headlines(command, outdir):
    """The numbers a user reads off a command's CSV outputs."""
    if command == "delta":
        return {"delta": _num(_rows(outdir, "delta.csv")[0]["delta"])}
    if command == "audit":
        row = _rows(outdir, "audit.csv")[0]
        return {k: _num(row[k]) for k in ("hermitian_defect", "rayleigh_min",
                                          "factorization_defect",
                                          "lambda_min")}
    if command == "evolve":
        last = _rows(outdir, "decay.csv")[-1]
        return {"final_" + k: _num(last[k]) for k in ("l1", "l2", "linf")}
    if command == "kernel":
        row = _rows(outdir, "kernel_bound.csv")[0]
        return {k: _num(row[k]) for k in ("worst_ratio", "c_fit", "c_prime")}
    if command == "picard":
        return {"picard_iters": len(_rows(outdir, "picard_iterates.csv")),
                "final_l2": _num(_rows(outdir, "decay.csv")[-1]["l2"])}
    if command == "perturb":
        fit = _rows(outdir, "perturb_summary.csv")[0]
        const = _rows(outdir, "perturb_constant.csv")[0]
        return {"fitted": _num(fit["fitted"]),
                "r_squared": _num(fit["r_squared"]),
                "constant": _num(const["constant"])}
    if command == "lplq":
        rows = _rows(outdir, "lplq_summary.csv")
        mean = rows[-1]
        return {"mean_exponent": _num(mean["fitted_exponent"]),
                "mean_rate": _num(mean["fitted_rate"]),
                "min_r_squared": min(_num(r["r_squared"]) for r in rows[:-1])}
    if command == "beta-check":
        return {"worst_abs_error": max(_num(r["abs_error"])
                                       for r in _rows(outdir, "beta.csv"))}
    raise ValueError("no headline extractor for %r" % command)


# Solving to stepper.tol=1e-14 instead of the presets' 1e-10 (a stand-in for
# an exact solver at the same tolerance) moves these numbers by at most 5e-8
# relative.  stepper.tol=1e-6 moves at least one number of every solving
# command by 5e-7 or more; a doubled dt or a coarser grid by 2e-6 or more.
REL_TOL = 2e-7
# Defects and quadrature errors at rounding level are compared absolutely.
ABS_TOL = 1e-12


def compare(measured, reference):
    """Names of headline numbers that differ from the reference."""
    bad = []
    for key, ref in reference.items():
        got = measured.get(key)
        if ref is None or got is None:
            if ref is not got:
                bad.append(key)
        elif isinstance(ref, int) and not isinstance(ref, bool):
            if got != ref:
                bad.append(key)
        elif not abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL:
            bad.append(key)
    return bad


# -- trace completeness -------------------------------------------------------

def read_manifest(outdir):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(os.path.join(outdir, "manifest.ini"), encoding="utf-8")
    return cp


def _steps(t, dt):
    return int(round(t / dt))


def _t_final(cp):
    if cp.has_option("schedule", "snapshots"):
        return max(float(x) for x in cp.get("schedule", "snapshots").split())
    return cp.getfloat("schedule", "t_final")


def expected_counts(cp, picard_iters):
    """Counts the traced run must show for one command, derived from the
    command's config (its manifest) and, for Picard solves, from the
    iteration count of each solution."""
    command = cp.get("run", "command")
    if command in ("delta", "beta-check", "audit"):
        return {"solves": 0, "builds": 0}
    dt = cp.getfloat("stepper", "dt")
    if command == "evolve":
        return {"solves": _steps(_t_final(cp), dt), "builds": 1,
                "evolve_calls": 1}
    if command == "kernel":
        times = [float(x) for x in cp.get("kernel", "times").split()]
        return {"solves": sum(_steps(t, dt) for t in times),
                "builds": len(times), "evolve_calls": len(times)}
    if command == "lplq":
        probes = cp.getint("lplq", "n_probes", fallback=4)
        return {"solves": probes * _steps(_t_final(cp), dt),
                "builds": probes, "evolve_calls": probes}
    if command in ("picard", "perturb"):
        steps = _steps(_t_final(cp), dt)
        return {"picard_calls": 1 if command == "picard" else 2,
                "solves": sum((1 + k) * steps for k in picard_iters),
                "builds": sum(1 + k for k in picard_iters),
                "evolve_calls": len(picard_iters),
                "sweeps": sum(picard_iters)}
    raise ValueError("no expected counts for %r" % command)
