"""Tests of the benchmark's own arithmetic, on synthetic data.

    python3 -m pytest perfbench
"""

import json
import os
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import failed_fraction, run_child, self_times, summary  # noqa: E402
from workloads import compare  # noqa: E402


def span(id_, start, end, parent=None, thread=1, name="x"):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "thread": thread, "cmd": "0:test"}


def test_self_time_nested():
    spans = [span(0, 0.0, 10.0), span(1, 2.0, 5.0, parent=0),
             span(2, 3.0, 4.0, parent=1)]
    assert self_times(spans) == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})


def test_self_time_siblings():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, parent=0),
             span(2, 5.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_overlapping_children_count_once():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0),
             span(2, 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_two_threads_overlapping():
    # a worker-thread span inside its parent's interval takes no time away
    spans = [span(0, 0.0, 10.0, thread=1),
             span(1, 2.0, 6.0, parent=0, thread=2),
             span(2, 7.0, 9.0, parent=0, thread=1)]
    st = self_times(spans)
    assert st[0] == pytest.approx(8.0)
    assert st[1] == pytest.approx(4.0)


def test_summary_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    n, med, q1, q3 = summary(values)
    assert (n, med) == (5, 3.0)
    assert (q1, q3) == (2.0, 4.0)
    assert summary([7.5]) == (1, 7.5, 7.5, 7.5)
    n, med, q1, q3 = summary([1.0, 2.0, 3.0, 4.0])
    assert med == 2.5 and q1 <= med <= q3
    assert (q1, q3) == tuple(statistics.quantiles([1, 2, 3, 4], n=4,
                                                  method="inclusive")[::2])


def test_failed_fraction_counts_failures_over_attempts():
    assert failed_fraction([True, True, False, True]) == 0.25
    assert failed_fraction([True] * 3) == 0.0
    with pytest.raises(ValueError):
        failed_fraction([])


def test_compare_tolerances():
    ref = {"rate": 1.9, "iters": 3, "defect": 0.0, "c_fit": None}
    assert compare({"rate": 1.9 * (1 + 5e-8), "iters": 3, "defect": 1e-14,
                    "c_fit": None}, ref) == []
    assert compare({"rate": 1.9 * (1 + 1e-6), "iters": 4, "defect": 1e-9,
                    "c_fit": 0.3}, ref) == ["rate", "iters", "defect", "c_fit"]


def test_peak_rss_is_per_child(tmp_path):
    """A small child reaped after a big one reports its own peak, not the
    cumulative maximum over the children reaped so far.  Linux also counts
    the parent's image that a child starts from, so the children are
    spawned from a fresh interpreter that, like run.py, loads no numpy."""
    script = (
        "import json, os, sys\n"
        "sys.path.insert(0, %r)\n"
        "from measure import run_child\n"
        "env, out = dict(os.environ), %r\n"
        "big = run_child([sys.executable, '-c', 'b = b\"x\" * (80 << 20)'],"
        " env, out, os.path.join(out, 'big.txt'), 60)\n"
        "small = run_child([sys.executable, '-c', 'pass'], env, out,"
        " os.path.join(out, 'small.txt'), 60)\n"
        "print(json.dumps([big.exit_code, big.peak_rss_mb,"
        " small.exit_code, small.peak_rss_mb]))\n"
    ) % (str(HERE), str(tmp_path))
    res = run_child([sys.executable, "-c", script], dict(os.environ),
                    str(tmp_path), str(tmp_path / "parent.txt"), 60)
    assert res.exit_code == 0
    big_code, big_mb, small_code, small_mb = json.loads(
        (tmp_path / "parent.txt").read_text())
    assert big_code == 0 and small_code == 0
    assert big_mb > 80
    assert small_mb < big_mb - 60


def test_run_py_parent_stays_small(tmp_path):
    """Children's peak RSS includes the parent image they start from, so
    the benchmark parent must not load numpy or dbarheat."""
    script = ("import sys; sys.path.insert(0, %r); import run; "
              "print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('numpy', 'scipy', 'dbarheat')))"
              % str(HERE))
    res = run_child([sys.executable, "-c", script], dict(os.environ),
                    str(tmp_path), str(tmp_path / "out.txt"), 60)
    assert res.exit_code == 0
    assert (tmp_path / "out.txt").read_text().strip() == "[]"


def test_child_exit_code_and_timeout(tmp_path):
    env = dict(os.environ)
    res = run_child([sys.executable, "-c", "raise SystemExit(3)"], env,
                    str(tmp_path), str(tmp_path / "out.txt"), 60)
    assert res.exit_code == 3 and not res.timed_out
    res = run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                    env, str(tmp_path), str(tmp_path / "out.txt"), 0.5)
    assert res.timed_out and res.exit_code == -9


def test_benchmark_json_lists_the_metrics_run_py_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        name for name, _ in run.END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
