"""dbarheat benchmark: end-to-end CLI timings and a traced per-layer run.

    python3 perfbench/run.py --workload flat-picard --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --record-reference   # rewrite reference.json

Run from the root of a checkout; the program is taken from ``src/``.  Each
workload is a closed loop with one client: its ``python -m dbarheat``
commands run one at a time as child processes.

``--trace 0`` runs untraced passes over the commands while another pass
fits in ``--seconds`` (at least one).  In a pass each command runs right
after a set-up child for the same command line, so both see the same
machine; set-up alone is then repeated until there are SETUP_REPS samples
adding up to SETUP_SHARE of ``--seconds``.  It reports

* ``wall_s``       median wall time of one pass,
* ``setup_s``      median over set-up repetitions of the summed time each
                   command needs before its first time step,
* ``peak_rss_mb``  median over passes of the largest per-child peak RSS.

``--trace 1`` runs one untraced and one traced pass, checks the trace
against the command configs, and reports the per-layer metrics.

Every command's outputs are checked: exit code 0, headline numbers equal
to ``reference.json`` within workloads.REL_TOL where a reference exists,
and CSV bodies byte-identical across the passes of the run.  The last line
of standard output is one JSON object; details, the environment and (when
traced) every span go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

from measure import failed_fraction, run_child, self_times, summary  # noqa: E402
from workloads import (WORKLOADS, commands, compare, expected_counts,  # noqa: E402
                       headlines, read_manifest)

SETUP_REPS = 3
SETUP_SHARE = 0.2
CHILD_TIMEOUT_S = 150
REFERENCE_SEEDS = range(10)

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# per-layer metric -> unit; computed by layer_metrics from the spans
PER_LAYER = {
    "semigroup.solves": "count",
    "semigroup.solve_s": "s",
    "semigroup.cg_iters": "count",
    "semigroup.cg_iters_per_solve": "iter/solve",
    "semigroup.propagator_builds": "count",
    "semigroup.propagator_build_s": "s",
    "boxop.assemble_s": "s",
    "boxop.nnz": "count",
    "mild.picard_iters": "count",
    "mild.duhamel_sweeps": "count",
    "mild.duhamel_self_s": "s",
    "mild.nonlinearity_s": "s",
    "mild.y_norm_s": "s",
    "semigroup.evolve_calls": "count",
    "semigroup.kernel_s": "s",
    "semigroup.bound_check_s": "s",
    "stability.probe_s": "s",
    "stability.probe_overlap": "ratio",
    "reportio.table_s": "s",
    "reportio.write_s": "s",
    "reportio.bytes": "B",
    "cli.import_s": "s",
    "config.resolve_s": "s",
    "weights.delta_s": "s",
    "weights.delta_calls": "count",
    "boxop.audit_s": "s",
    "grid.norm_calls": "count",
    "grid.norm_s": "s",
    "stability.fit_s": "s",
    "cli.self_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def csv_digests(outdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(outdir).glob("*.csv"))}


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, workdir, reference):
        self.seed = seed
        self.cmds = commands(workload, seed)
        self.workdir = workdir
        self.reference = reference
        self.env = child_env()
        self.outcomes = []
        self.problems = []
        self.digests = {}

    def _spawn(self, argv, outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        return run_child([sys.executable] + argv, self.env, ROOT,
                         str(outdir / "stdout.txt"), CHILD_TIMEOUT_S)

    def setup_child(self, label, argv, tag):
        res = self._spawn([str(HERE / "child.py"), "setup"] + argv,
                          self.workdir / tag / ("setup-" + label))
        if res.exit_code != 0:
            self.problems.append("%s: set-up child exited %d"
                                 % (label, res.exit_code))
        return res.wall_s

    def setup_rep(self, tag):
        return sum(self.setup_child(label, argv, tag)
                   for label, argv in self.cmds)

    def run_pass(self, tag, spans_dir=None, with_setup=False):
        """Run every command once, each after its set-up child when
        with_setup is set.  Returns (summed command wall time, summed
        set-up time, largest child peak RSS, output directories)."""
        dirs = []
        wall = setup = peak = 0.0
        for i, (label, argv) in enumerate(self.cmds):
            if with_setup:
                setup += self.setup_child(label, argv, tag)
            outdir = self.workdir / tag / label
            if spans_dir is None:
                prefix = ["-m", "dbarheat"]
            else:
                prefix = [str(HERE / "child.py"), "trace",
                          str(spans_dir / ("%d.json" % i)),
                          "%d:%s" % (i, label)]
            res = self._spawn(prefix + argv + ["--out", str(outdir)], outdir)
            wall += res.wall_s
            peak = max(peak, res.peak_rss_mb)
            dirs.append(outdir)
            self.outcomes.append(self._check(label, argv[0], res, outdir))
        return wall, setup, peak, dirs

    def _check(self, label, command, res, outdir):
        def fail(why):
            self.problems.append("%s: %s" % (label, why))
            return False

        if res.exit_code != 0:
            return fail("exit code %d%s" % (
                res.exit_code, " (timed out)" if res.timed_out else ""))
        try:
            got = headlines(command, outdir)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            return fail("unreadable outputs: %r" % (exc,))
        ref = self.reference["fixed"].get(label)
        if ref is None:
            ref = self.reference["seeded"].get(label, {}).get(str(self.seed))
        if ref is not None:
            bad = compare(got, ref)
            if bad:
                return fail("headline numbers off reference: %s" % ", ".join(
                    "%s=%r (ref %r)" % (k, got.get(k), ref[k]) for k in bad))
        digests = csv_digests(outdir)
        first = self.digests.setdefault(label, digests)
        if digests != first:
            return fail("CSV bodies differ from the first pass of this run")
        return True


def timed_run(bench, seconds):
    """Passes, each command preceded by its set-up child, while another
    pass still fits in the time budget (at least one).  Set-up alone is
    then repeated until there are SETUP_REPS samples and they add up to
    SETUP_SHARE of the budget, so a workload with a short set-up, such as
    the single command of flat-picard, gets enough samples for a median."""
    walls, setups, peaks = [], [], []
    started = time.perf_counter()
    while True:
        wall, setup, peak, _ = bench.run_pass("pass%d" % len(walls),
                                              with_setup=True)
        walls.append(wall)
        setups.append(setup)
        peaks.append(peak)
        shutil.rmtree(bench.workdir / ("pass%d" % (len(walls) - 1)),
                      ignore_errors=True)
        elapsed = time.perf_counter() - started
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SHARE * seconds:
        setups.append(bench.setup_rep("setup%d" % len(setups)))
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": peaks}


# -- traced run ---------------------------------------------------------------

def layer_metrics(spans):
    """Per-layer numbers of one traced pass.  Times named *_s are inclusive
    busy time of the wrapped calls, except the two *self_s metrics."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    selfs = self_times(spans)

    def busy(name):
        return sum((s["end"] - s["start"] for s in by[name]), 0.0)

    def total(name, key):
        return sum(s.get(key, 0) for s in by[name])

    solves = total("semigroup.solve", "rhs")
    cg_iters = total("semigroup.cg", "iters")
    lplq_wall = busy("cli.cmd.lplq")
    cli_spans = [s for s in spans
                 if s["name"] == "cli.main" or s["name"].startswith("cli.cmd.")]
    m = {
        "semigroup.solves": solves,
        "semigroup.solve_s": busy("semigroup.solve"),
        "semigroup.cg_iters": cg_iters,
        "semigroup.cg_iters_per_solve": cg_iters / solves if solves else 0.0,
        "semigroup.propagator_builds": len(by["semigroup.propagator_build"]),
        "semigroup.propagator_build_s": busy("semigroup.propagator_build"),
        "boxop.assemble_s": busy("boxop.assemble_box"),
        "boxop.nnz": total("boxop.assemble_box", "nnz"),
        "mild.picard_iters": total("mild.picard_solve", "iters"),
        "mild.duhamel_sweeps": len(by["mild.duhamel_apply"]),
        "mild.duhamel_self_s": sum(selfs[s["id"]]
                                   for s in by["mild.duhamel_apply"]),
        "mild.nonlinearity_s": busy("mild.nonlinearity"),
        "mild.y_norm_s": busy("mild.y_norm"),
        "semigroup.evolve_calls": len(by["semigroup.evolve_linear"]),
        "semigroup.kernel_s": busy("semigroup.heat_kernel"),
        "semigroup.bound_check_s": busy("semigroup.kernel_bound_check"),
        "stability.probe_s": busy("stability.lp_lq_probe"),
        "stability.probe_overlap": (busy("stability.lp_lq_probe") / lplq_wall
                                    if lplq_wall else 0.0),
        "reportio.table_s": busy("reportio.table"),
        "reportio.write_s": busy("reportio.write"),
        "reportio.bytes": total("reportio.write", "bytes"),
        "cli.import_s": busy("cli.import"),
        "config.resolve_s": busy("config.resolve"),
        "weights.delta_s": busy("weights.delta"),
        "weights.delta_calls": len(by["weights.delta"]),
        "boxop.audit_s": busy("boxop.operator_audit"),
        "grid.norm_calls": len(by["grid.norm"]),
        "grid.norm_s": busy("grid.norm"),
        "stability.fit_s": busy("stability.fit_decay"),
        "cli.self_s": sum(selfs[s["id"]] for s in cli_spans),
    }
    assert set(m) == set(PER_LAYER)
    return m


def completeness(records, dirs):
    """Compare each traced command's counts with those its config implies.
    Counts whose callable is absent from the program are skipped, and so
    are commands that failed, which the output check already counts."""
    problems = []
    for rec, outdir in zip(records, dirs):
        if rec["exit_code"] != 0:
            continue
        installed = set(rec["installed"])
        spans = rec["spans"]

        def count(name, key=None):
            sel = [s for s in spans if s["name"] == name]
            return sum(s.get(key, 0) for s in sel) if key else len(sel)

        iters = [s["iters"] for s in spans
                 if s["name"] == "mild.picard_solve" and "iters" in s]
        measured = {
            "solves": ("semigroup.Propagator.solve",
                       count("semigroup.solve", "rhs")),
            "builds": ("semigroup.Propagator.__init__",
                       count("semigroup.propagator_build")),
            "evolve_calls": ("semigroup.evolve_linear",
                             count("semigroup.evolve_linear")),
            "sweeps": ("mild.duhamel_apply", count("mild.duhamel_apply")),
            "picard_calls": ("mild.picard_solve", len(iters)),
        }
        expected = expected_counts(read_manifest(outdir), iters)
        for key, want in expected.items():
            callable_name, got = measured[key]
            if callable_name in installed and got != want:
                problems.append("%s: %s traced %d, config implies %d"
                                % (rec["command"], key, got, want))
        both = {"semigroup.cg", "semigroup.Propagator.solve"}
        if both <= installed:
            if count("semigroup.cg") != count("semigroup.solve"):
                problems.append("%s: %d cg calls for %d solve calls"
                                % (rec["command"], count("semigroup.cg"),
                                   count("semigroup.solve")))
    return problems


def traced_run(bench, spans_path):
    plain_wall, _, _, _ = bench.run_pass("untraced")
    spans_dir = bench.workdir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    traced_wall, _, _, dirs = bench.run_pass("traced", spans_dir)
    records = []
    for i, (label, _) in enumerate(bench.cmds):
        path = spans_dir / ("%d.json" % i)
        if not path.exists():
            bench.problems.append("%s: traced child wrote no spans" % label)
            continue
        records.append(json.loads(path.read_text(encoding="utf-8")))
    spans = [s for rec in records for s in rec["spans"]]
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    metrics = layer_metrics(spans)
    gaps = completeness(records, dirs) if len(records) == len(dirs) else [
        "missing span files"]
    absent = sorted({a for rec in records for a in rec["absent"]})
    return metrics, gaps, {
        "untraced_pass_s": plain_wall,
        "traced_pass_s": traced_wall,
        "tracing_overhead_s": traced_wall - plain_wall,
        "solve_share_of_traced_pass": metrics["semigroup.solve_s"] / traced_wall,
        "absent_callables": absent,
    }


# -- reference numbers ----------------------------------------------------------

def record_reference():
    """Run every command once (lplq at each REFERENCE_SEEDS seed) and store
    its headline numbers as the reference."""
    ref = {"fixed": {}, "seeded": {}}
    workdir = OUT / ("reference-%d" % os.getpid())
    env = child_env()
    try:
        for workload in WORKLOADS:
            for seed in REFERENCE_SEEDS:
                for label, argv in commands(workload, seed):
                    seeded = argv[0] == "lplq"
                    if not seeded and seed != REFERENCE_SEEDS[0]:
                        continue
                    outdir = workdir / label / str(seed)
                    outdir.mkdir(parents=True)
                    res = run_child([sys.executable, "-m", "dbarheat"] + argv
                                    + ["--out", str(outdir)], env, ROOT,
                                    str(outdir / "stdout.txt"),
                                    CHILD_TIMEOUT_S)
                    if res.exit_code != 0:
                        raise SystemExit("%s seed %d exited %d"
                                         % (label, seed, res.exit_code))
                    got = headlines(argv[0], outdir)
                    if seeded:
                        ref["seeded"].setdefault(label, {})[str(seed)] = got
                    else:
                        ref["fixed"][label] = got
                    log("%s seed %d: %s" % (label, seed, got))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


# -- entry point ----------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-%d" % (workload, os.getpid()))
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "loadavg_start": loadavg()}
    bench = Bench(workload, seed, workdir, reference)
    try:
        if trace:
            spans_path = OUT / ("%s-seed%d-spans.json" % (workload, seed))
            metrics, gaps, info = traced_run(bench, spans_path)
            result.update(info, trace_gaps=gaps, spans=str(spans_path))
            values = {k: (v, PER_LAYER[k]) for k, v in metrics.items()}
        else:
            samples = timed_run(bench, seconds)
            result["samples"] = {
                k: dict(zip(("n", "median", "q1", "q3"), summary(v)), values=v)
                for k, v in samples.items()}
            values = {name: (result["samples"][name]["median"], unit)
                      for name, unit in END_TO_END}
            gaps = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["loadavg_end"] = loadavg()
    attempted = len(bench.outcomes)
    failed = sum(1 for ok in bench.outcomes if not ok)
    result.update(attempted=attempted, failed=failed,
                  failed_frac=failed_fraction(bench.outcomes),
                  problems=bench.problems,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in values.items()})
    with open(OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace)),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print("workload %s  seed %d  trace %d" % (workload, seed, trace))
    if trace:
        for k, (v, u) in values.items():
            print("  %-30s %14.6g %s" % (k, v, u))
        print("  tracing overhead %.3f s (traced pass %.3f s, untraced %.3f s)"
              % (result["tracing_overhead_s"], result["traced_pass_s"],
                 result["untraced_pass_s"]))
        print("  semigroup.solve_s share of traced pass: %.3f"
              % result["solve_share_of_traced_pass"])
        if result["absent_callables"]:
            print("  absent callables: %s"
                  % ", ".join(result["absent_callables"]))
    else:
        for name, unit in END_TO_END:
            s = result["samples"][name]
            print("  %-12s %10.4f %-2s (n=%d, q1 %.4f, q3 %.4f)"
                  % (name, s["median"], unit, s["n"], s["q1"], s["q3"]))
    print("  failed_frac  %10.4f    (%d of %d commands)"
          % (result["failed_frac"], failed, attempted))
    print("  env %s  loadavg %s -> %s" % (json.dumps(result["environment"]),
                                          result["loadavg_start"],
                                          result["loadavg_end"]))
    start_load = result["loadavg_start"]
    if start_load and float(start_load[0]) >= (os.cpu_count() or 1):
        print("  note: the machine was busy when the run started")
    for p in bench.problems:
        log("FAILED %s" % p)
    if gaps:
        for g in gaps:
            log("TRACE INCOMPLETE %s" % g)
        raise SystemExit("trace completeness check failed for %s" % workload)
    return {"correct": failed == 0 and not bench.problems,
            "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dbarheat" / "cli.py").is_file():
        log("perfbench: no dbarheat sources under %s" % (ROOT / "src"))
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, k)] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
