"""CPU use and CSV bytes of the benchmark commands against the BLAS thread
count.

    python3 studies/blas_threads.py [--threads T ...]

Runs each of the 13 benchmark commands (the argv of every workload in
perfbench/workloads.py, at seed 1) as a child ``python -m dbarheat``
process from src/, first with OPENBLAS_NUM_THREADS unset and then once
per count T (1 by default) with it set.  The variable
is set in the children's environment only.  For each command it prints the
wall time and the user CPU time per wall second of every run, and whether
the SHA-256 digest of the command's CSV files (names and bytes, the
manifest excluded) under each T equals the digest of the default run.
User CPU per wall second above 1 means a second core worked for the
command: OpenBLAS runs a dot product of more than 10000 entries on its
thread pool, whose threads also spin for a while after each such call.
Exits 1 if some command fails or some digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VARIABLE = "OPENBLAS_NUM_THREADS"


def csv_digest(outdir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            digest.update(name.encode())
            with open(os.path.join(outdir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run(argv, outdir, threads):
    """(exit code, wall s, user CPU s per wall s, CSV digest) of one child."""
    env = dict(os.environ)
    env.pop(VARIABLE, None)
    if threads is not None:
        env[VARIABLE] = str(threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "dbarheat", *argv,
                           "--out", outdir], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    user = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before
    return code, wall, user / wall, csv_digest(outdir)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, nargs="+", default=[1],
                    help="values of %s to compare with the default" % VARIABLE)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS, commands

    settings = [None] + args.threads
    print("%-22s %-8s %5s %7s %9s  %s" % ("command", "threads", "exit",
                                          "wall_s", "user/wall",
                                          "CSVs as default"))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for label, cmd in commands(workload, 1):
                want = None
                for i, threads in enumerate(settings):
                    code, wall, ratio, digest = run(
                        cmd, os.path.join(tmp, "%s-%d" % (label, i)), threads)
                    want = want or digest
                    same = "-" if threads is None else (
                        "yes" if digest == want else "NO")
                    bad += code != 0 or same == "NO"
                    print("%-22s %-8s %5d %7.2f %9.2f  %s"
                          % (label, "unset" if threads is None else threads,
                             code, wall, ratio, same))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
