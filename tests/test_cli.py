"""Command-line driver: exit codes, artifacts, manifests, determinism.

Everything runs in-process through main(argv) against small grids so the
whole file stays fast; the heavy production configs live in the presets
and are exercised by the acceptance suite.
"""

import csv
import inspect
import math
import os
import subprocess
import sys
import textwrap
import threading

import pytest

import dbarheat.stability as stability
from dbarheat import (
    WEIGHT_CATALOG,
    GridSpec,
    __version__,
    assemble_box,
    get_weight,
)
from dbarheat.boxop import operator_audit
from dbarheat.cli import main
from dbarheat.config import ExperimentConfig
from dbarheat.mild import picard_solve
from dbarheat.reportio import write_csv
from dbarheat.semigroup import StepperConfig, kernel_bound_check
from dbarheat.stability import stability_experiment
from dbarheat.weights import delta as delta_scan
from dense_oracle import csr_rows


def write_ini(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


EVOLVE_INI = """
    [experiment]
    command = evolve
    [grid]
    extent = 6.0
    points = 16
    [weight]
    name = modsq
    [stepper]
    dt = 0.01
    [schedule]
    t_final = 0.5
    count = 5
    [datum]
    amplitude = 0.3
    width = 1.0
"""

PICARD_INI = """
    [experiment]
    command = picard
    [grid]
    extent = 6.0
    points = 16
    [weight]
    name = flat_example
    [stepper]
    dt = 0.01
    [schedule]
    t_final = 0.5
    count = 5
    [datum]
    amplitude = %g
    width = 1.0
    [picard]
    m = 3
    q = 3
    tol = 1e-8
    max_iter = 12
"""


# -- config resolution -------------------------------------------------------

def test_exit_1_without_config_source(capsys):
    assert main(["delta"]) == 1
    assert "config source" in capsys.readouterr().err


def test_exit_1_with_both_sources(tmp_path, capsys):
    cfg = write_ini(tmp_path, "d.ini", "[experiment]\ncommand = delta\n")
    assert main(["delta", "--preset", "modsq", "--config", cfg]) == 1
    assert "not both" in capsys.readouterr().err


def test_exit_1_unknown_preset(capsys):
    assert main(["delta", "--preset", "nope"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_exit_1_command_mismatch(tmp_path, capsys):
    assert main(["audit", "--preset", "modsq",
                 "--out", str(tmp_path / "o")]) == 1
    assert "declares command" in capsys.readouterr().err


def test_exit_1_bad_override(tmp_path, capsys):
    assert main(["delta", "--preset", "modsq", "--set", "grid.size=9",
                 "--out", str(tmp_path / "o")]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_exit_1_out_under_a_regular_file(tmp_path, capsys, recwarn):
    # the output directory cannot be made: one line, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["delta", "--preset", "modsq",
                 "--out", str(blocker / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Not a directory" in err
    assert [str(w.message) for w in recwarn] == []


def test_exit_1_when_an_artifact_cannot_be_written(tmp_path, capsys):
    # delta.csv is taken by a directory; the manifest is still written
    out = tmp_path / "o"
    (out / "delta.csv").mkdir(parents=True)
    assert main(["delta", "--preset", "modsq", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "delta.csv" in err
    assert (out / "manifest.ini").exists()


@pytest.mark.parametrize("overrides, message", [
    (["grid.points=9", "datum.width=1e-300"], "datum is not finite"),
    (["grid.extent=1e308"], "grid spacing"),
    (["grid.points=9", "grid.extent=1e200"], "grid spacing"),
    (["grid.points=9", "grid.extent=1e-200"], "grid spacing"),
], ids=["datum", "grid", "grid-h2-overflow", "grid-h2-underflow"])
def test_exit_1_non_finite_grid_or_datum(tmp_path, capsys, recwarn,
                                         overrides, message):
    # bad input, not a blow-up of the flow or a traceback from assembly
    # (which takes 1/h^2): one line and no numpy warning
    argv = ["evolve", "--preset", "evolve-free-gaussian",
            "--out", str(tmp_path / "o")]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("argv", [
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "datum.amplitude=1e160"],
    ["perturb", "--preset", "perturb-modsq", "--set", "datum.amplitude=1e300"],
], ids=["evolve", "perturb"])
def test_exit_1_datum_norm_overflows(tmp_path, capsys, recwarn, argv):
    # a finite datum whose L^2 norm overflows is bad input, refused in one
    # line with no numpy warning, not a failed linear solve
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "norm" in err and "overflows" in err
    assert [str(w.message) for w in recwarn] == []


WINDOW_HI_ONLY = os.path.join(os.path.dirname(__file__), "window_hi_only.ini")
MISSING_CONFIG = os.path.join(os.path.dirname(__file__), "no_such_config.ini")

# refused as soon as the command reads them, before any linear solve
EARLY_CONFIG_ERRORS = [
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.subsample=6",
     "--set", "perturb.window_lo=0"],
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.subsample=6",
     "--set", "perturb.window_lo=-1"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.window_lo=3",
     "--set", "lplq.window_hi=1"],
    ["picard", "--preset", "picard-flat", "--set", "picard.m=inf"],
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.m=inf"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.probe_width=inf"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "schedule.snapshots=0"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "schedule.snapshots=-0.5 0.5"],
    # a fit window holding fewer than five schedule times
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.window_lo=0.5",
     "--set", "perturb.window_hi=0.6"],
    ["lplq", "--preset", "lplq-modsq-l2", "--set", "lplq.window_lo=5.5",
     "--set", "lplq.window_hi=5.9"],
    # (m, q) outside the contraction window 1 < m-1 < q < m(m-1)
    ["picard", "--preset", "picard-flat", "--set", "picard.q=10"],
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.q=10"],
    # every set key is parsed before the command runs
    ["perturb", "--preset", "perturb-modsq",
     "--set", "perturb.rel_perturbation=0"],
    ["perturb", "--config", WINDOW_HI_ONLY],
    ["kernel", "--preset", "kernel-modsq", "--set", "kernel.mode=bogus"],
    ["kernel", "--preset", "kernel-modsq", "--set", "kernel.slack=-0.1"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.model=bogus"],
    # lplq exponents outside 0 < q <= p
    ["lplq", "--preset", "lplq-free", "--set", "lplq.q=0"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.p=0"],
    # a step count t / dt beyond semigroup.MAX_STEPS
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "stepper.dt=1e-300"],
    # a solver tolerance outside (0, 1): tol >= 1 accepts x = x0
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "stepper.tol=5"],
    ["perturb", "--preset", "perturb-modsq", "--set", "stepper.tol=2"],
]


# the ninth to twelfth early cases follow; later cases, early ones
# included, are appended at the end, so every case keeps its id
@pytest.mark.parametrize("argv", EARLY_CONFIG_ERRORS[:8] + [
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "grid.points=4"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "grid.extent=-1"],
    ["delta", "--preset", "modsq", "--set", "delta.j_max=0"],
    ["delta", "--preset", "modsq", "--set", "delta.extent=-1"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.n_probes=0"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.n_probes=-2"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.q=-1"],
    ["picard", "--preset", "picard-flat", "--set", "picard.q=-1"],
    ["audit", "--preset", "audit-modsq", "--set", "audit.trials=-1"],
    ["audit", "--preset", "audit-modsq", "--set", "audit.trials=0"],
    ["picard", "--preset", "picard-flat", "--set", "picard.tol=0"],
    ["picard", "--preset", "picard-flat", "--set", "picard.max_iter=0"],
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.picard_tol=-1"],
    ["kernel", "--preset", "kernel-modsq", "--set", "kernel.times=0.25",
     "--set", "kernel.mode=general", "--set", "kernel.slack=-0.1"],
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.subsample=-1"],
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.subsample=0"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.probe_width=-1"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.probe_width=0"],
    ["perturb", "--preset", "perturb-modsq", "--set", "perturb.subsample=3"],
    # NaN never parses; inf is refused where a finite value is required
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "stepper.dt=inf"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "stepper.dt=nan"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "stepper.tol=nan"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "stepper.tol=inf"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "schedule.t_final=nan"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "schedule.t_final=inf"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "grid.extent=nan"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "grid.extent=inf"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "grid.points=inf"],
    ["kernel", "--preset", "kernel-modsq", "--set", "kernel.times=nan"],
    ["kernel", "--preset", "kernel-modsq", "--set", "kernel.times=0.25 inf"],
    ["picard", "--preset", "picard-flat", "--set", "picard.q=nan"],
    # every number is finite except lplq p and q
    ["kernel", "--preset", "kernel-free", "--set", "kernel.source_re=inf"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "datum.width=inf"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "datum.amplitude=inf"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "datum.center_re=inf"],
    ["delta", "--preset", "modsq", "--set", "delta.extent=inf"],
    ["beta-check", "--preset", "beta-grid", "--set", "beta.t_values=inf"],
    ["kernel", "--preset", "kernel-modsq", "--set", "kernel.slack=inf"],
    ["picard", "--preset", "picard-flat", "--set", "picard.q=inf"],
] + EARLY_CONFIG_ERRORS[8:12] + [
    ["beta-check", "--preset", "beta-grid", "--set", "beta.pairs=abc 0.5"],
    ["beta-check", "--preset", "beta-grid", "--set", "beta.pairs=0.5 nan"],
    # range and record kinds
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "schedule.count=0"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "schedule.t_final=0"],
    ["evolve", "--preset", "evolve-free-gaussian", "--set", "datum.width=0"],
    ["lplq", "--preset", "lplq-free", "--set", "lplq.window_lo=0"],
    ["beta-check", "--preset", "beta-grid", "--set", "beta.pairs=0.5"],
    ["delta", "--preset", "modsq", "--set", "weight.kind=polynomial",
     "--set", "weight.terms=1 1 1.0"],
] + EARLY_CONFIG_ERRORS[12:] + [
    # a negative seed, from the config or the flag, before np.random sees it
    ["lplq", "--preset", "lplq-modsq-l2", "--seed", "-1"],
    ["audit", "--preset", "audit-modsq", "--set", "experiment.seed=-2"],
    # a list kind with no entry
    ["beta-check", "--preset", "beta-grid", "--set", "beta.pairs="],
    ["beta-check", "--preset", "beta-grid", "--set", "beta.t_values="],
    ["kernel", "--preset", "kernel-modsq", "--set", "kernel.times="],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "schedule.snapshots="],
    ["delta", "--preset", "modsq", "--set", "weight.kind=polynomial",
     "--set", "weight.terms="],
    # argument errors: argparse's own exit 2 would read as a numerical failure
    ["lplq", "--preset", "lplq-free", "--jobs", "abc"],
    ["lplq", "--preset", "lplq-free", "--bogus"],
    ["lplq", "--preset", "lplq-free", "--jobs"],
    # no subcommand: test_missing_subcommand_is_a_config_error
    ["evolve", "--config", MISSING_CONFIG],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "stepper.max_iterations=0"],
    ["delta", "--preset", "modsq", "--set", "weight.kind=polynomial",
     "--set", "weight.terms=-1 1 1.0 0"],
])
def test_exit_1_invalid_config_value(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if "perturb.subsample" in argv[-1]:
        # rejected from the config, before either mild solution is solved
        assert "subsample" in err


@pytest.mark.parametrize("argv", EARLY_CONFIG_ERRORS)
def test_config_errors_come_before_any_solve(tmp_path, capsys, monkeypatch,
                                             argv):
    from dbarheat.semigroup import Propagator

    def no_solver(*args, **kwargs):
        raise AssertionError("a linear solver was set up")

    monkeypatch.setattr(Propagator, "__init__", no_solver)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_a_config_error(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["lplq", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dbarheat")


# -- happy paths per subcommand ----------------------------------------------

def test_delta_cli(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["delta", "--preset", "modquartic",
                 "--set", "delta.resolution=21",
                 "--set", "delta.refine_rounds=2",
                 "--out", str(out)]) == 0
    assert (out / "delta.csv").exists()
    assert (out / "manifest.ini").exists()
    got = capsys.readouterr().out
    assert "delta(modquartic)" in got and "delta_positive" in got
    # the override must be echoed into the manifest verbatim
    assert "resolution = 21" in (out / "manifest.ini").read_text()


def test_audit_cli_with_matrix_dump(tmp_path):
    cfg = write_ini(tmp_path, "a.ini", """
        [experiment]
        command = audit
        [grid]
        extent = 6.0
        points = 16
        [weight]
        name = modsq
        [audit]
        trials = 3
        matrix_dump = yes
    """)
    out = tmp_path / "o"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    for name in ("audit.csv", "matrix.csv", "manifest.ini"):
        assert (out / name).exists()
    # the dump lists Box's CSR entries by row, then column
    op = assemble_box(GridSpec(extent=6.0, points=16), get_weight("modsq"))
    oracle = write_csv(str(tmp_path / "oracle.csv"),
                       ("row", "col", "re", "im"), csr_rows(op.matrix))
    assert read(out / "matrix.csv") == read(oracle)


def test_evolve_cli(tmp_path):
    cfg = write_ini(tmp_path, "e.ini", EVOLVE_INI)
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    decay = (out / "decay.csv").read_text().splitlines()
    assert len(decay) == 7          # header + t = 0, 0.1, ..., 0.5
    field = (out / "final_field.csv").read_text().splitlines()
    assert len(field) == 1 + 16 * 16


@pytest.mark.parametrize("scheme", ["crank_nicolson", "backward_euler"])
@pytest.mark.parametrize("weight", sorted(WEIGHT_CATALOG))
def test_evolve_cli_every_catalog_weight(tmp_path, weight, scheme):
    # default stepper tol and iteration cap; modquartic's steep potential
    # stalled plain CG here before the Jacobi preconditioner
    assert main(["evolve", "--preset", "evolve-free-gaussian",
                 "--set", "weight.name=%s" % weight,
                 "--set", "stepper.scheme=%s" % scheme,
                 "--out", str(tmp_path / "o")]) == 0


def test_evolve_cli_solver_stagnation_exits_2(tmp_path, capsys):
    # one CG iteration cannot meet the default tolerance: a real stall,
    # reported as a numerical failure rather than as a blow-up
    assert main(["evolve", "--preset", "evolve-free-gaussian",
                 "--set", "stepper.max_iterations=1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: linear solver stagnated")


def test_kernel_cli_pass(tmp_path):
    # coarse-grid run, so the lattice tail needs a wider slack than the
    # production 5%; the production tolerance is covered by acceptance
    cfg = write_ini(tmp_path, "k.ini", """
        [experiment]
        command = kernel
        [grid]
        extent = 8.0
        points = 65
        [weight]
        name = zero
        [stepper]
        dt = 0.05
        [kernel]
        times = 2.0
        mode = general
        tail_floor = 1e-2
        slack = 0.12
    """)
    out = tmp_path / "o"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    for name in ("kernel_t2.csv", "kernel_peaks.csv", "kernel_bound.csv"):
        assert (out / name).exists()


def test_kernel_cli_bound_violation_exits_3(tmp_path, capsys):
    # a 1e-8 tail floor reaches lattice nodes the continuum envelope
    # cannot cover on an h = 0.5 grid, so the check must fail loudly
    cfg = write_ini(tmp_path, "k.ini", """
        [experiment]
        command = kernel
        [grid]
        extent = 8.0
        points = 33
        [weight]
        name = zero
        [stepper]
        dt = 0.05
        [kernel]
        times = 2.0
        mode = general
        tail_floor = 1e-8
    """)
    out = tmp_path / "o"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 3
    assert "VIOLATED" in capsys.readouterr().out
    # artifacts and manifest still land for post-mortem
    assert (out / "kernel_bound.csv").exists()
    assert (out / "manifest.ini").exists()


KERNEL_INI = """
    [experiment]
    command = kernel
    [grid]
    extent = 8.0
    points = 65
    [weight]
    name = zero
    [stepper]
    dt = 0.05
    [kernel]
    times = 2.0
    mode = general
    tail_floor = 1e-2
    slack = 0.12
    source_re = %s
    source_im = %s
"""


@pytest.mark.parametrize("re_, im", [("-50", "0"), ("0", "8.01")])
def test_kernel_cli_source_off_the_grid_exits_1(tmp_path, capsys, re_, im):
    # a source outside [-extent, extent]^2 used to be snapped to the
    # outer ring and reported as a pass at the requested position
    cfg = write_ini(tmp_path, "k.ini", KERNEL_INI % (re_, im))
    assert main(["kernel", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: kernel source")
    assert "outside the grid square" in err[0]


def test_kernel_cli_source_near_the_edge_runs(tmp_path, capsys):
    # inside the square, however near its edge, the kernel still runs
    cfg = write_ini(tmp_path, "k.ini", KERNEL_INI % ("7.9", "-8"))
    out = tmp_path / "o"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    assert "-> ok" in capsys.readouterr().out
    assert (out / "kernel_bound.csv").exists()


def test_picard_cli_converged(tmp_path, capsys):
    cfg = write_ini(tmp_path, "p.ini", PICARD_INI % 0.05)
    out = tmp_path / "o"
    assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
    assert "converged" in capsys.readouterr().out
    for name in ("picard_iterates.csv", "decay.csv", "final_field.csv"):
        assert (out / name).exists()


def test_picard_cli_divergence_exits_2(tmp_path, capsys):
    cfg = write_ini(tmp_path, "p.ini", PICARD_INI % 40.0)
    out = tmp_path / "o"
    assert main(["picard", "--config", cfg, "--out", str(out)]) == 2
    assert "DIVERGED" in capsys.readouterr().out
    assert (out / "manifest.ini").exists()


def test_picard_cli_stopped_at_max_iter_exits_2(tmp_path, capsys):
    # neither converged nor diverged: the third status line
    out = tmp_path / "o"
    assert main(["picard", "--preset", "picard-flat",
                 "--set", "picard.max_iter=2", "--out", str(out)]) == 2
    assert ("picard: stopped at max_iter=2 without meeting tol"
            in capsys.readouterr().out)
    with open(out / "picard_iterates.csv", newline="") as fh:
        assert [row["iter"] for row in csv.DictReader(fh)] == ["1", "2"]


@pytest.mark.parametrize("amplitude", ["400", "1e6"])
def test_picard_overflow_is_divergence(tmp_path, capsys, recwarn, amplitude):
    # the iterates pass the float range inside a linear solve (400) or in
    # a Y-norm (1e6): a blow-up, reported without numpy warnings
    out = tmp_path / "o"
    assert main(["picard", "--preset", "picard-flat",
                 "--set", "grid.points=16", "--set", "schedule.t_final=0.5",
                 "--set", "schedule.count=5", "--set", "picard.tol=1e-8",
                 "--set", "picard.max_iter=12",
                 "--set", "datum.amplitude=" + amplitude,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "DIVERGED" in captured.out
    assert len(captured.err.splitlines()) == 1
    assert [str(w.message) for w in recwarn] == []
    with open(out / "picard_iterates.csv", newline="") as fh:
        assert list(csv.DictReader(fh))[-1]["d_k"] == "inf"


def test_perturb_cli(tmp_path, capsys):
    cfg = write_ini(tmp_path, "q.ini", """
        [experiment]
        command = perturb
        [grid]
        extent = 6.0
        points = 16
        [weight]
        name = modsq
        [stepper]
        dt = 0.02
        [schedule]
        t_final = 1.0
        count = 10
        [datum]
        amplitude = 0.05
        width = 1.0
        [perturb]
        m = 3
        q = 3
        rel_perturbation = 0.01
        solver = imex
        window_lo = 0.2
        window_hi = 1.0
    """)
    out = tmp_path / "o"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    assert "perturb[exponential]" in capsys.readouterr().out
    for name in ("perturb_series.csv", "perturb_summary.csv",
                 "perturb_constant.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("solver, message", [
    ("picard", "Picard iteration DIVERGED on the base datum"),
    ("imex", "IMEX evolution blew up"),
])
def test_perturb_divergence_exits_2(tmp_path, capsys, recwarn, solver,
                                    message):
    # a mild solution that blows up is a numerical failure (exit 2) with
    # one line, not a decay fit refused as bad input (exit 1)
    out = tmp_path / "o"
    assert main(["perturb", "--preset", "perturb-modsq",
                 "--set", "datum.amplitude=1e3",
                 "--set", "perturb.solver=" + solver,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: ") and message in err[0]
    assert [str(w.message) for w in recwarn] == []
    assert (out / "manifest.ini").exists()


def test_perturb_stopped_at_max_iter_exits_2(tmp_path, capsys):
    # at amplitude 1.8 the Picard solve neither converges nor diverges
    # within its iteration cap: exit 2, with the fit still written and
    # marked unconverged (1.7 converges, 1.9 diverges)
    out = tmp_path / "o"
    assert main(["perturb", "--preset", "perturb-modsq",
                 "--set", "datum.amplitude=1.8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("numerical failure: a mild-solution "
                                       "solve did not converge\n")
    with open(out / "perturb_constant.csv", newline="") as fh:
        assert next(csv.DictReader(fh))["converged"] == "false"
    for name in ("perturb_series.csv", "perturb_summary.csv", "manifest.ini"):
        assert (out / name).exists()


LPLQ_INI = """
    [experiment]
    command = lplq
    seed = 7
    [grid]
    extent = 6.0
    points = 16
    [weight]
    name = zero
    [stepper]
    dt = 0.02
    [schedule]
    t_final = 1.0
    count = 10
    [lplq]
    p = 2
    q = 1
    n_probes = 2
    probe_width = 1.0
    window_lo = 0.2
    window_hi = 1.0
"""


def test_modsq_perturb_rate_converges_to_landau_level(tmp_path):
    # for phi = |z|^2 the bottom of the spectrum of Box is the Landau level
    # 2, so the fitted decay rate of perturb-modsq converges to 2 under
    # grid refinement (measured: 1.98117 at n = 33, 1.99554 at n = 65)
    gaps = []
    for n in (33, 65):
        out = tmp_path / ("n%d" % n)
        assert main(["perturb", "--preset", "perturb-modsq",
                     "--set", "grid.points=%d" % n, "--out", str(out)]) == 0
        with open(out / "perturb_summary.csv", newline="") as fh:
            gaps.append(2.0 - float(next(csv.DictReader(fh))["fitted"]))
    order = math.log2(gaps[0] / gaps[1])
    assert 1.8 <= order <= 2.2
    assert 0 < gaps[1] < 6e-3


def test_lplq_cli_deterministic_across_reruns_and_jobs(tmp_path):
    cfg = write_ini(tmp_path, "l.ini", LPLQ_INI)
    outs = [str(tmp_path / ("o%d" % i)) for i in range(3)]
    assert main(["lplq", "--config", cfg, "--out", outs[0]]) == 0
    assert main(["lplq", "--config", cfg, "--out", outs[1]]) == 0
    assert main(["lplq", "--config", cfg, "--out", outs[2],
                 "--jobs", "2"]) == 0
    for name in ("lplq_probe0.csv", "lplq_probe1.csv", "lplq_summary.csv"):
        body = read(os.path.join(outs[0], name))
        assert read(os.path.join(outs[1], name)) == body
        assert read(os.path.join(outs[2], name)) == body


def test_lplq_seed_flag_changes_probes(tmp_path):
    cfg = write_ini(tmp_path, "l.ini", LPLQ_INI)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["lplq", "--config", cfg, "--out", a]) == 0
    assert main(["lplq", "--config", cfg, "--out", b, "--seed", "8"]) == 0
    assert (read(os.path.join(a, "lplq_probe0.csv"))
            != read(os.path.join(b, "lplq_probe0.csv")))


def test_rerun_from_the_manifest_echo_reproduces_a_seeded_run(tmp_path):
    # --seed is [experiment] seed, so the config echo after [run] holds it
    first = tmp_path / "first"
    assert main(["lplq", "--preset", "lplq-free", "--jobs", "2",
                 "--seed", "1", "--out", str(first)]) == 0
    manifest = (first / "manifest.ini").read_text(encoding="utf-8")
    assert "seed_override" not in manifest
    echo = manifest[manifest.index("\n[", 1) + 1:]
    assert "seed = 1\n" in echo
    again = tmp_path / "again"
    assert main(["lplq", "--config", write_ini(tmp_path, "echo.ini", echo),
                 "--out", str(again)]) == 0
    for name in ("lplq_probe0.csv", "lplq_probe1.csv", "lplq_summary.csv"):
        assert read(again / name) == read(first / name), name


def test_lplq_model_is_an_unknown_key(tmp_path, capsys):
    # the decay model follows from delta and (p, q); no key selects it
    assert main(["lplq", "--preset", "lplq-free", "--set",
                 "lplq.model=power_law", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("config error: [lplq] model: unknown "
                                       "key (override)\n")


def test_every_command_takes_the_config_and_the_output_directory():
    from dbarheat.cli import DISPATCH

    for fn in DISPATCH.values():
        assert list(inspect.signature(fn).parameters) == ["cfg", "outdir"]


def test_beta_cli(tmp_path, capsys):
    cfg = write_ini(tmp_path, "b.ini", """
        [experiment]
        command = beta-check
        [beta]
        pairs = 0.5 0.5
            0.3 0.4
        t_values = 1.0
    """)
    out = tmp_path / "o"
    assert main(["beta-check", "--config", cfg, "--out", str(out)]) == 0
    assert "worst" in capsys.readouterr().out
    rows = (out / "beta.csv").read_text().splitlines()
    assert len(rows) == 3


def test_output_directory_key_used_without_flag(tmp_path):
    target = tmp_path / "from-config"
    cfg = write_ini(tmp_path, "b.ini", """
        [experiment]
        command = beta-check
        [beta]
        pairs = 0.5 0.5
        [output]
        directory = %s
    """ % target)
    assert main(["beta-check", "--config", cfg]) == 0
    assert (target / "beta.csv").exists()


def test_set_override_changes_run(tmp_path):
    cfg = write_ini(tmp_path, "e.ini", EVOLVE_INI)
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out),
                 "--set", "schedule.count=2"]) == 0
    assert len((out / "decay.csv").read_text().splitlines()) == 4


def test_manifest_written_on_validation_failure(tmp_path, capsys):
    cfg = write_ini(tmp_path, "e.ini", EVOLVE_INI + "    kind = box\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert (out / "manifest.ini").exists()


def test_preset_rerun_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["beta-check", "--preset", "beta-grid", "--out", a]) == 0
    assert main(["beta-check", "--preset", "beta-grid", "--out", b]) == 0
    assert read(os.path.join(a, "beta.csv")) == read(os.path.join(b, "beta.csv"))


def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at n = 105 each dot product of a solve has 11025 entries, more than
    # the 10000 above which OpenBLAS splits one over its threads
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "dbarheat", "evolve",
                        "--preset", "evolve-free-gaussian",
                        "--set", "grid.points=105", "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=300)
        tables.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert sorted(tables[0]) == ["decay.csv", "final_field.csv"]
    assert tables[0] == tables[1]


def test_lplq_runs_all_probes_in_one_serial_call(tmp_path, monkeypatch):
    calls = []
    probe = stability.lp_lq_probe

    def recording(op, p, q, probes, *args, **kwargs):
        calls.append((len(probes), threading.get_ident()))
        return probe(op, p, q, probes, *args, **kwargs)

    monkeypatch.setattr(stability, "lp_lq_probe", recording)
    cfg = write_ini(tmp_path, "l.ini",
                    LPLQ_INI.replace("n_probes = 2", "n_probes = 3"))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["lplq", "--config", cfg, "--out", a, "--jobs", "2"]) == 0
    assert calls == [(3, threading.get_ident())]
    assert main(["lplq", "--config", cfg, "--out", b, "--jobs", "1"]) == 0
    for name in ("lplq_probe0.csv", "lplq_probe1.csv", "lplq_probe2.csv",
                 "lplq_summary.csv"):
        assert read(os.path.join(a, name)) == read(os.path.join(b, name))


def test_picard_negative_q_fails_before_any_warning(tmp_path, capsys, recwarn):
    assert main(["picard", "--preset", "picard-flat", "--set", "picard.q=-1",
                 "--out", str(tmp_path / "o")]) == 1
    assert [str(w.message) for w in recwarn] == []
    assert capsys.readouterr().err.startswith("config error: ")


def test_lplq_oracle_target_on_fine_grid(tmp_path):
    # 65^2 unknowns: the "oracle" target rate is the bottom eigenvalue of
    # the n = 65 operator, just below the Landau level 2
    out = tmp_path / "o"
    assert main(["lplq", "--preset", "lplq-modsq-l2",
                 "--set", "grid.points=65", "--set", "lplq.n_probes=1",
                 "--out", str(out)]) == 0
    with open(out / "lplq_summary.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    assert 1.99 < float(first["target"]) < 2.0


def test_audit_eigensolver_failure_exits_2(tmp_path, capsys, monkeypatch):
    # one Lanczos step cannot reach the tolerance
    monkeypatch.setattr("dbarheat.boxop.LANCZOS_MAX_STEPS", 1)
    assert main(["audit", "--preset", "audit-modsq",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


# -- forwarding contract -----------------------------------------------------

# The callee that the keys of each section are forwarded to by
# ExperimentConfig.kwargs; an unset key takes the callee's default.
CALLEES = {
    "delta": delta_scan,
    "audit": operator_audit,
    "kernel": kernel_bound_check,
    "picard": picard_solve,
    "perturb": stability_experiment,
    "stepper": StepperConfig,
}

_SMALL = """
    [experiment]
    command = %s
    [grid]
    extent = 6.0
    points = %d
    [weight]
    name = modsq
    [stepper]
    dt = 0.02
    [schedule]
    t_final = 1.0
    count = 10
"""

# one small run per command that forwards keys, setting none of them
FORWARDING_RUNS = {
    "evolve": _SMALL % ("evolve", 16),
    "delta": _SMALL % ("delta", 16),
    "audit": _SMALL % ("audit", 16),
    # a kernel time must resolve the grid: t >= 4 h^2
    "kernel": _SMALL % ("kernel", 33) + """
    [kernel]
    times = 0.6
""",
    "picard": _SMALL % ("picard", 16) + """
    [datum]
    amplitude = 0.05
""",
    "perturb": _SMALL % ("perturb", 16) + """
    [datum]
    amplitude = 0.05
    [perturb]
    window_lo = 0.2
    window_hi = 1.0
""",
    "lplq": _SMALL % ("lplq", 16) + """
    [lplq]
    p = 2
    q = 1
    n_probes = 1
    window_lo = 0.2
    window_hi = 1.0
""",
}


def _record_forwarding(monkeypatch):
    """[(section, {parameter: key})] of every kwargs call, in order."""
    calls = []
    kwargs = ExperimentConfig.kwargs

    def recording(self, section, *keys, **renamed):
        calls.append((section, dict(zip(keys, keys), **renamed)))
        return kwargs(self, section, *keys, **renamed)

    monkeypatch.setattr(ExperimentConfig, "kwargs", recording)
    return calls


def test_forwarded_keys_name_parameters_of_their_callee(tmp_path,
                                                        monkeypatch):
    calls = _record_forwarding(monkeypatch)
    for command, body in FORWARDING_RUNS.items():
        cfg = write_ini(tmp_path, command + ".ini", body)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 0
    assert {section for section, _ in calls} == set(CALLEES)
    for section, params in calls:
        accepted = inspect.signature(CALLEES[section]).parameters
        assert set(params) <= set(accepted), (section, params)


def test_forwarded_key_set_to_its_default_changes_no_csv_byte(tmp_path,
                                                              monkeypatch):
    calls = _record_forwarding(monkeypatch)
    checked = set()
    for command, body in FORWARDING_RUNS.items():
        cfg = write_ini(tmp_path, command + ".ini", body)
        base = tmp_path / command
        seen = len(calls)
        assert main([command, "--config", cfg, "--out", str(base)]) == 0
        csvs = sorted(f for f in os.listdir(base) if f.endswith(".csv"))
        for section, params in calls[seen:]:
            accepted = inspect.signature(CALLEES[section]).parameters
            for param, key in params.items():
                default = accepted[param].default
                if default in (None, inspect.Parameter.empty) \
                        or (section, key) in checked:
                    continue
                checked.add((section, key))
                out = tmp_path / ("%s-%s" % (section, key))
                assert main([command, "--config", cfg, "--out", str(out),
                             "--set", "%s.%s=%s" % (section, key, default)
                             ]) == 0
                for name in csvs:
                    assert read(out / name) == read(base / name), \
                        (section, key, name)
    assert len(checked) == 15
