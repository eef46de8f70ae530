"""Arithmetic of the benchmark: child timing, summaries, span self time.

Everything here is independent of dbarheat, so the benchmark's own tests
can exercise it on synthetic data.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from collections import defaultdict


class ChildResult:
    """Exit code, wall time and peak resident set of one child process."""

    def __init__(self, exit_code, wall_s, peak_rss_mb, timed_out=False):
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.timed_out = timed_out


def run_child(argv, env, cwd, stdout_path, timeout_s):
    """Run argv to completion and measure it alone.

    The peak resident set comes from os.wait4 on this child's pid, so it is
    the child's own ru_maxrss, not the running maximum over every child the
    parent ever reaped.  Linux counts in it the parent image the child was
    spawned from, so the calling process must stay small (run.py loads no
    numpy).  A child still alive after timeout_s is killed and reported
    with exit code -9.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killed = threading.Event()

    def kill():
        killed.set()
        os.kill(pid, signal.SIGKILL)

    watchdog = threading.Timer(timeout_s, kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - started
    return ChildResult(os.waitstatus_to_exitcode(status), wall,
                       usage.ru_maxrss / 1024.0, killed.is_set())


def summary(values):
    """(n, median, first quartile, third quartile) of a list of samples."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    med = statistics.median(values)
    if len(values) == 1:
        return 1, med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return len(values), med, q1, q3


def failed_fraction(outcomes):
    """Share of command outcomes that failed; each outcome is a bool
    (True = exited 0 and passed its output check)."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no commands attempted")
    return sum(1 for ok in outcomes if not ok) / len(outcomes)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it covered
    by its children on the same thread.  A child started on another thread
    overlaps its parent in time without taking time away from it."""
    children = defaultdict(list)
    for s in spans:
        if s.get("parent") is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children[s["id"]]
                if c["thread"] == s["thread"]]
        out[s["id"]] = (s["end"] - s["start"]
                        - _covered(kids, s["start"], s["end"]))
    return out
