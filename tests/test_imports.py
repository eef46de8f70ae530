"""Import boundaries: what loading the package and running a command pull in.

The boundary checks run in a fresh interpreter, because the test session
itself has already imported every layer (and scipy with them).  The
export checks at the end run in-process.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import dbarheat

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

NO_SCIPY = """
    scipy = sorted(m for m in sys.modules
                   if m == "scipy" or m.startswith("scipy."))
    assert not scipy, scipy[:5]
"""


def run_fresh(tmp_path, *snippets):
    code = "".join(textwrap.dedent(s) for s in ("import sys\n",) + snippets)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_cli_loads_no_scipy(tmp_path):
    run_fresh(tmp_path, "import dbarheat.cli\n", NO_SCIPY)


def test_every_layer_loads_no_scipy(tmp_path):
    # only beta_identity_check imports scipy, when it is called
    run_fresh(tmp_path, "".join("import dbarheat.%s\n" % name
                                for name in SUBMODULES), NO_SCIPY)


def test_delta_command_loads_no_scipy(tmp_path):
    run_fresh(tmp_path, """
        from dbarheat.cli import main
        assert main(["delta", "--preset", "modsq", "--out", "o"]) == 0
    """, NO_SCIPY)


def test_beta_check_imports_its_quadrature(tmp_path):
    run_fresh(tmp_path, """
        from dbarheat.cli import main
        assert main(["beta-check", "--preset", "beta-grid", "--out", "o"]) == 0
        assert "scipy.integrate" in sys.modules
    """)


@pytest.mark.parametrize("argv", [
    ["evolve", "--preset", "evolve-free-gaussian"],
    ["picard", "--preset", "picard-flat"],
    ["kernel", "--preset", "kernel-free"],
    ["lplq", "--preset", "lplq-free"],
    ["evolve", "--preset", "evolve-free-gaussian",
     "--set", "weight.name=modquartic"],
], ids=["evolve", "picard", "kernel", "lplq", "evolve-stiff"])
def test_stepping_commands_load_no_scipy(tmp_path, argv):
    # Box is a numpy stencil and CG is dbarheat's own loop; modquartic's
    # steps are stiff, so the last case solves on the Schur complement,
    # and only it loads dbarheat.redblack
    stiff = "weight.name=modquartic" in argv
    run_fresh(tmp_path, """
        from dbarheat.cli import main
        assert main(%r + ["--out", "o"]) == 0
        assert ("dbarheat.redblack" in sys.modules) is %r
    """ % (argv, stiff), NO_SCIPY)


@pytest.mark.parametrize("argv", [
    ["perturb", "--preset", "perturb-modsq"],
    ["lplq", "--preset", "lplq-modsq-l2"],
    ["audit", "--preset", "audit-modsq"],
    ["audit", "--preset", "audit-modsq", "--set", "audit.matrix_dump=true"],
], ids=["perturb", "lplq", "audit", "audit-matrix-dump"])
def test_oracle_commands_load_no_scipy(tmp_path, argv):
    # the bottom eigenvalue (audit, target_rate = oracle) is numpy Lanczos,
    # and the matrix dump lists the stencil's own entries
    run_fresh(tmp_path, """
        from dbarheat.cli import main
        assert main(%r + ["--out", "o"]) == 0
    """ % (argv,), NO_SCIPY)


@pytest.mark.parametrize("check", [
    "assert all(getattr(dbarheat, n) is not None for n in dbarheat.__all__)",
    "assert set(dbarheat.__all__) <= set(dir(dbarheat))",
    """
    ns = {}
    exec("from dbarheat import *", ns)
    missing = set(dbarheat.__all__) - set(ns)
    assert not missing, missing
    """,
], ids=["getattr", "dir", "star"])
def test_every_public_name_resolves(tmp_path, check):
    run_fresh(tmp_path, "import dbarheat\n", check)


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(dbarheat.__path__)
                    if m.name != "__main__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_module_all_name_resolves(name):
    module = importlib.import_module("dbarheat." + name)
    stale = [n for n in module.__all__ if not hasattr(module, n)]
    assert not stale, stale


@pytest.mark.parametrize("name", sorted(dbarheat._EXPORTS))
def test_package_exports_are_owned(name):
    owner = importlib.import_module("dbarheat." + name)
    stray = sorted(set(dbarheat._EXPORTS[name]) - set(owner.__all__))
    assert not stray, stray
