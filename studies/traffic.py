"""Which lines of the package the benchmark and the tests run.

    python3 studies/traffic.py [--lines] [--skip-tests]

Every executable line of each module in src/dbarheat is put in one of
three classes:

- bench: run by one of the 13 benchmark commands;
- tests only: run by the tier-1 suite but by no benchmark command;
- neither: run by neither.

A line is executable if some bytecode of the module's compiled source is
attributed to it (code objects walked recursively, co_lines); a line is
run if a sys.settrace line event reached it.  The benchmark commands are
the argv of every workload in perfbench/workloads.py (lplq at seed 1),
read from that file and run in this process through dbarheat.cli.main,
each writing to a temporary directory.  The suite is the tier-1 pytest run
from the repository root, in this process, with the four cases of
test_advance_peak_does_not_grow_with_steps deselected: the tracer raises
their tracemalloc peaks past the bound they assert.

Lines reached only from child processes count as not run: the tracer
sees this interpreter only, so the fresh-interpreter import checks of
tests/test_imports.py and the subprocess runs of perfbench/test_perfbench.py
add nothing.  --lines lists the line numbers of the last two classes per
module; --skip-tests traces the benchmark only.  Both under the tracer
take about 75 s on an otherwise idle 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dbarheat")
DESELECT = "tests/test_semigroup.py::test_advance_peak_does_not_grow_with_steps"


def executable_lines(path):
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """{path: {line}} of every package line run while active."""

    def __init__(self):
        self.seen = {}

    def _global(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        lines = self.seen.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def trace_benchmark():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS, commands

    sys.path.insert(0, os.path.join(ROOT, "src"))
    with LineTracer() as tracer, tempfile.TemporaryDirectory() as tmp:
        from dbarheat.cli import main

        for workload in WORKLOADS:
            for label, argv in commands(workload, 1):
                code = main(argv + ["--out", os.path.join(tmp, label)])
                print("%-22s exit %d" % (label, code), file=sys.stderr)
    return tracer.seen


def trace_tests():
    import pytest

    os.chdir(ROOT)
    with LineTracer() as tracer:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            "--deselect", DESELECT])
    print("tier-1 exit %d" % code, file=sys.stderr)
    return tracer.seen


def _ranges(lines):
    out, run = [], []
    for line in sorted(lines):
        if run and line == run[-1] + 1:
            run.append(line)
        else:
            run = [line]
            out.append(run)
    return ",".join(str(r[0]) if len(r) == 1 else "%d-%d" % (r[0], r[-1])
                    for r in out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lines", action="store_true",
                    help="list the tests-only and never-run line numbers")
    ap.add_argument("--skip-tests", action="store_true",
                    help="trace the benchmark commands only")
    args = ap.parse_args(argv)

    bench = trace_benchmark()
    tests = {} if args.skip_tests else trace_tests()
    totals = [0, 0, 0, 0]
    print("%-14s %6s %6s %6s %6s" % ("module", "lines", "bench", "tests",
                                     "neither"))
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        by_bench = lines & bench.get(path, set())
        by_tests = (lines & tests.get(path, set())) - by_bench
        neither = lines - by_bench - by_tests
        row = [len(lines), len(by_bench), len(by_tests), len(neither)]
        totals = [a + b for a, b in zip(totals, row)]
        print("%-14s %6d %6d %6d %6d" % ((name,) + tuple(row)))
        if args.lines:
            print("    tests only: %s" % _ranges(by_tests))
            print("    neither:    %s" % _ranges(neither))
    print("%-14s %6d %6d %6d %6d" % (("total",) + tuple(totals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
